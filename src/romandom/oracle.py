"""Definition-based brute force over all 3^n assignments.

This module is the ground truth for small instances, behind the CLI's
oracle mode.  It deliberately uses nothing but the bare definitions: an
assignment is kept iff it is an rdf and no other rdf lies below it in
the chosen order.  It never calls the characterization-based checkers it
is used to validate.  The brute-force extension answer built on it, with
the two orders as pointwise comparisons, is a test reference in
``tests/support.py``.
"""

from __future__ import annotations

from itertools import product

from .graph import Graph
from .rdf import Assignment

CAP = 12


class OracleCapExceeded(ValueError):
    """Refusal to brute-force a graph larger than :data:`CAP`."""


def _all_rdfs(g: Graph) -> list[tuple[Assignment, int, int]]:
    # Returns (assignment, ones-bitmask, twos-bitmask) for every rdf.
    nbr = g.nbr
    out = []
    for f in product((0, 1, 2), repeat=g.n):
        ones = twos = 0
        for v, x in enumerate(f):
            if x == 1:
                ones |= 1 << v
            elif x == 2:
                twos |= 1 << v
        for v, x in enumerate(f):
            if x == 0 and not (nbr[v] & twos):
                break
        else:
            out.append((f, ones, twos))
    return out


def _covered(f: Assignment, ones: int, twos: int, standard: bool):
    # The (ones, twos) masks of the assignments that f covers.
    for v, x in enumerate(f):
        bit = 1 << v
        if x == 1:
            yield ones ^ bit, twos
        elif x == 2:
            yield (ones | bit if standard else ones), twos ^ bit


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
    rdfs = _all_rdfs(g)
    # Raising a value keeps every vertex dominated, so the rdfs are closed
    # upwards in both orders, and f is minimal iff no assignment that f
    # covers is an rdf.  f covers the assignments that lower one vertex:
    # 2 -> 1 or 1 -> 0 in the standard order, 2 -> 0 or 1 -> 0 in "po".
    masks = {(ones, twos) for _, ones, twos in rdfs}
    standard = order == "standard"
    # product() already yields assignments in ascending digit-string order.
    return [f for f, ones, twos in rdfs
            if not any(m in masks for m in _covered(f, ones, twos, standard))]

