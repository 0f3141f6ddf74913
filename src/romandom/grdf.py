"""Five-valued partial labelings used by the branch-and-reduce search.

Besides the final values 0, 1, 2, a vertex can carry the promise
NOT_ONE ("will end up 0 or 2"), the promise NOT_TWO ("will end up 0 or
1"), or be ACTIVE (no decision yet).
"""

from __future__ import annotations

from dataclasses import dataclass

NOT_ONE = 3
NOT_TWO = 4
ACTIVE = 5

# Which final values each label still permits; used by consistent_with().
_PERMITTED = {
    0: (0,),
    1: (1,),
    2: (2,),
    NOT_ONE: (0, 2),
    NOT_TWO: (0, 1),
    ACTIVE: (0, 1, 2),
}

DEFAULT_W1 = 2.0 / 3.0
DEFAULT_W2 = 0.38488


@dataclass
class Grdf:
    """A labeling of all vertices by {0, 1, 2, NOT_ONE, NOT_TWO, ACTIVE}."""

    labels: list[int]

    @classmethod
    def all_active(cls, n: int) -> "Grdf":
        return cls([ACTIVE] * n)

    def is_complete(self) -> bool:
        return all(x <= 2 for x in self.labels)

    def assignment(self) -> tuple[int, ...]:
        if not self.is_complete():
            raise ValueError("grdf is not fully resolved to {0,1,2}")
        return tuple(self.labels)


def consistent_with(assignment: tuple[int, ...], labels: list[int]) -> bool:
    """Does the total assignment respect every label promise?"""
    return all(a in _PERMITTED[x] for a, x in zip(assignment, labels))


def measure(grdf: Grdf, w1: float = DEFAULT_W1, w2: float = DEFAULT_W2) -> float:
    """Search-progress potential: |active| + w1*|not-1| + w2*|not-2|.

    At most n for the all-active start, exactly 0 at a fully resolved leaf.
    """
    if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
        raise ValueError("weights must lie in [0, 1]")
    total = 0.0
    for x in grdf.labels:
        if x == ACTIVE:
            total += 1.0
        elif x == NOT_ONE:
            total += w1
        elif x == NOT_TWO:
            total += w2
    return total


def violated_invariants(adj: list[set[int]], labels: list[int]) -> list[str]:
    """Which of the four state invariants fail (empty list = all hold).

    I1: every 0- or not-1-labeled vertex has a 2-labeled neighbor.
    I2: neighbors of 2-labeled vertices are 0-, not-1- or 2-labeled.
    I3: neighbors of 1-labeled vertices are 0-, 1- or not-2-labeled.
    I4: a not-2 label implies some vertex is still active or not-1-labeled.
    """
    bad: list[str] = []
    n = len(labels)
    if any(
        labels[v] in (0, NOT_ONE) and not any(labels[u] == 2 for u in adj[v])
        for v in range(n)
    ):
        bad.append("I1")
    if any(
        labels[v] == 2 and any(labels[u] not in (0, NOT_ONE, 2) for u in adj[v])
        for v in range(n)
    ):
        bad.append("I2")
    if any(
        labels[v] == 1 and any(labels[u] not in (0, 1, NOT_TWO) for u in adj[v])
        for v in range(n)
    ):
        bad.append("I3")
    if any(x == NOT_TWO for x in labels) and not any(
        x in (ACTIVE, NOT_ONE) for x in labels
    ):
        bad.append("I4")
    return bad
