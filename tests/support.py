"""Reference implementations that only the tests read.

The program never calls them; the tests compare the package's answers
against them:

- :func:`leq_standard`, :func:`leq_po` and :func:`brute_ext` answer the
  extension question by brute force over the oracle's minimal rdfs;
- :func:`consistent_with` and :func:`violated_invariants` check a
  labeling of the refined search (see :mod:`romandom.grdf`);
- :func:`check_phase_properties` checks the state conditions that hold
  once a branching priority of the refined search is exhausted;
- :func:`two_set` lists the 2-valued vertices of an assignment;
- :class:`InterruptingStdout` stands in for ``sys.stdout`` and raises
  ``KeyboardInterrupt`` at a chosen line, as a Ctrl-C would.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from romandom.enum_refined import SearchState
from romandom.graph import Graph
from romandom.grdf import ACTIVE, NOT_ONE, NOT_TWO
from romandom.oracle import brute_minimal_rdfs
from romandom.rdf import Assignment, _scan


def two_set(g: Graph, f: Assignment) -> list[int]:
    """The ids valued 2 in f, ascending, checked as the solvers check f."""
    return _scan(g, f)[1]


def leq_standard(f: Assignment, h: Assignment) -> bool:
    """Pointwise f <= h under 0 < 1 < 2."""
    if len(f) != len(h):
        raise ValueError("assignments have different lengths")
    return all(a <= b for a, b in zip(f, h))


def leq_po(f: Assignment, h: Assignment) -> bool:
    """Pointwise f <= h under 0 < 1, 0 < 2 with 1 and 2 incomparable."""
    if len(f) != len(h):
        raise ValueError("assignments have different lengths")
    return all(a == b or a == 0 for a, b in zip(f, h))


def brute_ext(g: Graph, f: Assignment, forbidden: Iterable[int] = (),
              order: str = "standard",
              minimal: Sequence[Assignment] | None = None) -> bool:
    """Is there a minimal rdf above ``f`` whose 2-set avoids ``forbidden``?

    "Above" means f <= g in the chosen order.  ``minimal`` may pass a
    precomputed result of :func:`brute_minimal_rdfs` for the same graph
    and order.
    """
    if minimal is None:
        minimal = brute_minimal_rdfs(g, order=order)
    forb = set(forbidden)
    leq = leq_standard if order == "standard" else leq_po
    return any(leq(f, cand) and not any(cand[v] == 2 for v in forb)
               for cand in minimal)


# Which final values each label still permits; used by consistent_with().
_PERMITTED = {
    0: (0,),
    1: (1,),
    2: (2,),
    NOT_ONE: (0, 2),
    NOT_TWO: (0, 1),
    ACTIVE: (0, 1, 2),
}


def consistent_with(assignment: tuple[int, ...], labels: list[int]) -> bool:
    """Does the total assignment respect every label promise?"""
    return all(a in _PERMITTED[x] for a, x in zip(assignment, labels))


def violated_invariants(adj: tuple[tuple[int, ...], ...],
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


def check_phase_properties(state: SearchState, phase: int) -> bool:
    """State conditions that must hold once branching priority 1 or 2 is
    exhausted (the tests check them where the search moves to a higher one).
    """
    masks, nbr = state.masks, state.nbr
    active = masks[ACTIVE]
    if phase == 1:
        # An active vertex with an active neighbor and degree at least 2
        # has one active neighbor, and its others are 0 or not-1.
        return not any(
            near & active and near & (near - 1) and (
                near & ~(active | masks[NOT_ONE] | masks[0])
                or (near & active).bit_count() > 1)
            for v, near in enumerate(nbr) if active >> v & 1)
    if phase == 2:
        # A not-2 vertex's neighbors that can still be 2 are non-empty and
        # all not-1.
        return not active and all(
            near & masks[NOT_ONE] and not near & masks[2]
            for v, near in enumerate(nbr) if masks[NOT_TWO] >> v & 1)
    raise ValueError(f"unknown phase {phase}")


class InterruptingStdout:
    """A ``sys.stdout`` that counts the lines written to it, keeping none.

    Each ``write`` is one line, as ``romandom enumerate`` writes them.
    The write of line ``stop`` sleeps ``pause`` seconds and then raises
    ``KeyboardInterrupt``, as a Ctrl-C during that write would.
    """

    def __init__(self, stop: int, pause: float = 0.0):
        self.lines, self.stop, self.pause = 0, stop, pause

    def write(self, text: str) -> None:
        self.lines += 1
        if self.lines == self.stop:
            time.sleep(self.pause)
            raise KeyboardInterrupt
