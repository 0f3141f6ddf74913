"""Five-valued partial labelings used by the branch-and-reduce search.

Besides the final values 0, 1, 2, a vertex can carry the promise
NOT_ONE ("will end up 0 or 2"), the promise NOT_TWO ("will end up 0 or
1"), or be ACTIVE (no decision yet).  A labeling is a list indexed by
vertex id; the search keeps it, with its label classes as bit sets, in
:class:`.enum_refined.SearchState`.  This module holds the labels, the
paper's measure and the checks on a labeling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .enum_refined import SearchState

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

# The paper's measure weights for not-1 and not-2 vertices.
W1 = 2.0 / 3.0
W2 = 0.38488


def consistent_with(assignment: tuple[int, ...], labels: list[int]) -> bool:
    """Does the total assignment respect every label promise?"""
    return all(a in _PERMITTED[x] for a, x in zip(assignment, labels))


def measure(state: SearchState) -> float:
    """Search-progress potential: |active| + W1*|not-1| + W2*|not-2|.

    At most n for the all-active start, exactly 0 at a fully resolved leaf.
    """
    masks = state.masks
    return (masks[ACTIVE].bit_count() + W1 * masks[NOT_ONE].bit_count()
            + W2 * masks[NOT_TWO].bit_count())


def violated_invariants(adj: tuple[frozenset[int], ...],
                        labels: list[int]) -> list[str]:
    """Which of the four state invariants fail (empty list = all hold).

    I1: every 0- or not-1-labeled vertex has a 2-labeled neighbor.
    I2: neighbors of 2-labeled vertices are 0-, not-1- or 2-labeled.
    I3: neighbors of 1-labeled vertices are 0-, 1- or not-2-labeled.
    I4: a not-2 label implies some vertex is still active or not-1-labeled.
    """
    bad: list[str] = []
    near = [{labels[u] for u in adj[v]} for v in range(len(labels))]
    if any(x in (0, NOT_ONE) and 2 not in near[v]
           for v, x in enumerate(labels)):
        bad.append("I1")
    if any(x == 2 and near[v] - {0, NOT_ONE, 2} for v, x in enumerate(labels)):
        bad.append("I2")
    if any(x == 1 and near[v] - {0, 1, NOT_TWO} for v, x in enumerate(labels)):
        bad.append("I3")
    if NOT_TWO in labels and ACTIVE not in labels and NOT_ONE not in labels:
        bad.append("I4")
    return bad
