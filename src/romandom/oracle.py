"""Definition-based brute force over all 3^n assignments.

This module is the ground truth for small instances, behind the CLI's
oracle mode.  It uses nothing but the bare definitions, over assignment
tuples and the neighborhoods of ``Graph.adj`` (no bit sets), and stores
nothing: it yields an assignment iff it is an rdf and no assignment one
step below it in the chosen order is.  It never calls the
characterization-based checkers it is used to validate;
``tests/support.py`` builds the brute-force extension answer on it.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .graph import Graph
from .rdf import Assignment

CAP = 12


class OracleCapExceeded(ValueError):
    """Refusal to brute-force a graph larger than :data:`CAP`."""


def brute_minimal_rdfs(g: Graph, order: str = "standard"
                       ) -> Iterator[Assignment]:
    """A lazy stream of the minimal rdfs of ``g``, sorted as digit strings.

    ``order`` is "standard" (0 < 1 < 2) or "po" (0 < 1, 0 < 2, with 1 and
    2 incomparable).  The call itself refuses an unknown order or a graph
    of more than :data:`CAP` vertices, before any assignment is examined.
    """
    if order not in ("standard", "po"):
        raise ValueError(f"unknown order {order!r}")
    if g.n > CAP:
        raise OracleCapExceeded(f"brute force refused: n={g.n} exceeds "
                                f"cap={CAP} (3^n assignments)")

    def is_roman(f):  # an rdf: each 0 has a neighbor valued 2
        for x, row in zip(f, g.adj):
            if not x:
                for u in row:
                    if f[u] == 2:
                        break
                else:
                    return False
        return True

    # Whatever lies above an rdf is an rdf, so an rdf f is minimal iff no
    # f with one value lowered is: 1 -> 0, and 2 -> 1 (standard) or 0 (po).
    lower = (None, (0,), (1,) if order == "standard" else (0,))

    def is_minimal(f):  # of an rdf f
        for v, x in enumerate(f):
            if x and is_roman(f[:v] + lower[x] + f[v + 1:]):
                return False
        return True

    return filter(is_minimal, filter(is_roman, product((0, 1, 2), repeat=g.n)))
