"""Polynomial-time extension solvers.

Given a graph and an assignment f, decide whether some minimal rdf lies
above f, and produce one as a witness.  Variants: a forbidden set of
vertices that must not end up with value 2, and the PO order.  All run
in O(n + m) time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .grdf import Grdf, NOT_TWO
from .rdf import Assignment, rdf_from_counts, two_counts


@dataclass(frozen=True)
class ExtensionInstance:
    """A graph, a start assignment, and a set of vertices barred from value 2."""

    graph: Graph
    values: Assignment
    forbidden: frozenset[int]

    def __post_init__(self):
        if len(self.values) != self.graph.n:
            raise ValueError("assignment length does not match graph order")
        clash = {v for v in self.forbidden if self.values[v] == 2}
        if clash:
            raise ValueError(
                f"forbidden set intersects the 2-set of the assignment: {sorted(clash)}"
            )


def _solve(g: Graph, f: Assignment, forbidden: frozenset[int],
           po: bool) -> Assignment | None:
    adj = g.adj
    out = list(f)
    m2 = [v for v, x in enumerate(f) if x == 2]

    if po:
        # Under the PO order a 1-valued vertex can never be raised to 2, so
        # a 1-vertex next to a 2-vertex already rules out every witness:
        # keeping it at 1 violates the no-1-next-to-2 condition.
        if any(out[u] == 1 for v in m2 for u in adj[v]):
            return None
    else:
        # Saturate: a 1-vertex next to a 2-vertex must itself become 2.  The
        # closure, and whether it reaches a forbidden vertex, do not depend
        # on the visit order.
        stack = list(m2)
        while stack:
            for u in adj[stack.pop()]:
                if out[u] == 1:
                    if u in forbidden:
                        return None
                    out[u] = 2
                    m2.append(u)
                    stack.append(u)

    # Privacy: every 2-vertex must dominate something on its own.  The PO
    # variant tests the closed neighborhood (irredundance), the standard
    # variant the open one (a private neighbor other than the vertex itself).
    c = two_counts(adj, m2)
    for v in m2:
        if not (po and c[v] == 1) and not any(c[u] == 1 for u in adj[v]):
            return None
    return rdf_from_counts(c, m2)


def ext_rd(g: Graph, f: Assignment) -> Assignment | None:
    """Witness for the standard extension problem, or None.

    Returns a minimal rdf above f (pointwise, 0 < 1 < 2) iff one exists.
    """
    return _solve(g, f, frozenset(), po=False)


def gen_ext_rd(inst: ExtensionInstance) -> Assignment | None:
    """Like :func:`ext_rd`, but the witness's 2-set must avoid the forbidden set."""
    return _solve(inst.graph, inst.values, inst.forbidden, po=False)


def ext_po_rd(g: Graph, f: Assignment) -> Assignment | None:
    """Witness for the PO-order extension problem, or None.

    Returns a PO-minimal rdf g with f <=_PO g (1- and 2-sets of f are kept)
    iff one exists.
    """
    return _solve(g, f, frozenset(), po=True)


def gen_ext_po_rd(inst: ExtensionInstance) -> Assignment | None:
    """PO variant with a forbidden 2-set."""
    return _solve(inst.graph, inst.values, inst.forbidden, po=True)


def project_grdf(g: Graph, grdf: Grdf) -> ExtensionInstance:
    """Extension query for a search-tree state.

    Active, 0-, not-1- and not-2-labeled vertices project to 0; the 1- and
    2-labels carry over; the forbidden set collects the not-2 labels.
    """
    values = tuple(x if x in (1, 2) else 0 for x in grdf.labels)
    forbidden = frozenset(
        v for v, x in enumerate(grdf.labels) if x == NOT_TWO
    )
    return ExtensionInstance(g, values, forbidden)
