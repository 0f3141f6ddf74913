"""Polynomial-time extension solvers.

Given a graph and an assignment f, decide whether some minimal rdf lies
above f, and produce one as a witness.  Variants: a forbidden set of
vertices that must not end up with value 2, and the PO order.  All run
in O(n + m) time: the O(n) part is C-level work on sequences (byte
scans of f, a split for its 2-set, ``[1] * n``), and Python loops touch
only N[V2], O(|V2| + vol(V2)) for the 2-set V2 after saturation: one pass
counts 2-neighbors and writes the witness, one reads privacy off the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graph import Graph
from .grdf import NOT_TWO
from .rdf import Assignment, _scan

if TYPE_CHECKING:
    from .enum_refined import SearchState


@dataclass(frozen=True)
class ExtensionInstance:
    """A graph, a start assignment, and a set of vertices barred from value 2."""

    graph: Graph
    values: Assignment
    forbidden: frozenset[int]

    def __post_init__(self):
        b, v2 = _scan(self.graph, self.values)
        forbidden, n = self.forbidden, self.graph.n
        if forbidden and not 0 <= min(forbidden) <= max(forbidden) < n:
            bad = sorted(v for v in forbidden if not 0 <= v < n)
            raise ValueError(f"forbidden ids must lie in [0, {n}): {bad}")
        if not forbidden.isdisjoint(v2):
            raise ValueError("forbidden set intersects the 2-set of the "
                             f"assignment: {sorted(forbidden & set(v2))}")
        object.__setattr__(self, "_v2", v2)
        object.__setattr__(self, "_ones", 1 in b)  # one memchr, not n compares


def _solve(inst: ExtensionInstance, po: bool) -> Assignment | None:
    f, forbidden, adj = inst.values, inst.forbidden, inst.graph.adj
    m2 = inst._v2
    if not m2:  # no 2 to saturate from or to keep private: all 1s
        return (1,) * len(f)

    # With no 1 in f there is nothing to saturate and no 1 next to a 2.
    if inst._ones and po:
        # Under the PO order a 1-valued vertex can never be raised to 2, so
        # a 1-vertex next to a 2-vertex already rules out every witness:
        # keeping it at 1 violates the no-1-next-to-2 condition.
        if any(f[u] == 1 for v in m2 for u in adj[v]):
            return None
    elif inst._ones:
        # Saturate: a 1-vertex next to a 2-vertex must itself become 2.  The
        # closure, and whether it reaches a forbidden vertex, do not depend
        # on the visit order.
        m2 = list(m2)  # a copy: the instance answers the same every time
        raised = set()
        stack = list(m2)
        while stack:
            for u in adj[stack.pop()]:
                if f[u] == 1 and u not in raised:
                    if u in forbidden:
                        return None
                    raised.add(u)
                    m2.append(u)
                    stack.append(u)

    # One pass over N[m2] counts c[w] = |N[w] ∩ m2| and writes the witness's
    # 0s on N(m2); the privacy pass writes its 2s on m2, and 1s stay elsewhere.
    c, out = [0] * len(f), [1] * len(f)
    for v in m2:
        c[v] += 1
        for u in adj[v]:
            c[u] += 1
            out[u] = 0
    # Privacy: every 2-vertex must dominate something on its own.  The PO
    # variant tests the closed neighborhood (irredundance), the standard
    # variant the open one (a private neighbor other than the vertex itself).
    # After saturation or the PO refusal every neighbor of m2 outside it is
    # a 0, and a member next to a member counts at least 2: c[u] == 1 alone
    # marks a private neighbor u, and f is not read.
    for v in m2:
        for u in adj[v]:
            if c[u] == 1:
                break
        else:
            if not po or c[v] != 1:
                return None
        out[v] = 2
    return tuple(out)


def ext_rd(g: Graph, f: Assignment) -> Assignment | None:
    """Witness for the standard extension problem, or None.

    Returns a minimal rdf above f (pointwise, 0 < 1 < 2) iff one exists.
    """
    return _solve(ExtensionInstance(g, f, frozenset()), po=False)


def gen_ext_rd(inst: ExtensionInstance) -> Assignment | None:
    """Like :func:`ext_rd`, but the witness's 2-set must avoid the forbidden set."""
    return _solve(inst, po=False)


def ext_po_rd(g: Graph, f: Assignment) -> Assignment | None:
    """Witness for the PO-order extension problem, or None.

    Returns a PO-minimal rdf g with f <=_PO g (1- and 2-sets of f are kept)
    iff one exists.
    """
    return _solve(ExtensionInstance(g, f, frozenset()), po=True)


def gen_ext_po_rd(inst: ExtensionInstance) -> Assignment | None:
    """PO variant with a forbidden 2-set."""
    return _solve(inst, po=True)


def project_grdf(g: Graph, state: SearchState) -> ExtensionInstance:
    """Extension query for a search-tree state.

    Active, 0-, not-1- and not-2-labeled vertices project to 0; the 1- and
    2-labels carry over; the forbidden set collects the not-2 labels.
    """
    values = tuple(x if x in (1, 2) else 0 for x in state.labels)
    forbidden = frozenset(
        v for v, x in enumerate(state.labels) if x == NOT_TWO
    )
    return ExtensionInstance(g, values, forbidden)
