"""Definition-based brute force over all 3^n assignments.

This module is the ground truth for small instances, behind the CLI's
oracle mode.  It uses nothing but the bare definitions, over assignment
tuples and the neighborhoods of ``Graph.adj`` (no bit sets): an
assignment is kept iff it is an rdf and no rdf lies below it in the
chosen order.  It never calls the characterization-based checkers it is
used to validate; ``tests/support.py`` builds the brute-force extension
answer on it.
"""

from __future__ import annotations

from itertools import product

from .graph import Graph
from .rdf import Assignment

CAP = 12


class OracleCapExceeded(ValueError):
    """Refusal to brute-force a graph larger than :data:`CAP`."""


def brute_minimal_rdfs(g: Graph, order: str = "standard"
                       ) -> list[Assignment]:
    """All minimal rdfs of ``g`` in the given order, sorted as digit strings.

    ``order`` is "standard" (0 < 1 < 2) or "po" (0 < 1, 0 < 2, with 1 and
    2 incomparable).  Refuses a graph of more than :data:`CAP` vertices.
    """
    if order not in ("standard", "po"):
        raise ValueError(f"unknown order {order!r}")
    if g.n > CAP:
        raise OracleCapExceeded(f"brute force refused: n={g.n} exceeds "
                                f"cap={CAP} (3^n assignments)")
    adj, rdfs = g.adj, set()
    for f in product((0, 1, 2), repeat=g.n):
        for v, x in enumerate(f):  # an rdf: each 0 has a neighbor valued 2
            if not x:
                for u in adj[v]:
                    if f[u] == 2:
                        break
                else:
                    break
        else:
            rdfs.add(f)
    # Whatever lies above an rdf is an rdf, so f is minimal iff no
    # assignment one step below it is: one vertex lowered 1 -> 0, or 2 -> 1
    # in the standard order and 2 -> 0 in "po".
    lower = (None, (0,), (1,) if order == "standard" else (0,))
    minimal = []
    for f in rdfs:
        for v, x in enumerate(f):
            if x and f[:v] + lower[x] + f[v + 1:] in rdfs:
                break
        else:
            minimal.append(f)
    return sorted(minimal)  # equal-length tuples sort as digit strings
