"""Subset-based enumerators running in O*(2^n).

Minimal rdfs are in bijection with the vertex subsets that can serve as
their 2-set, so the standard enumerator sweeps subsets in ascending
bit-pattern order.  The PO enumerator instead runs a binary
include/exclude search over vertices, pruned by the PO extension solver,
which yields polynomial delay.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from .extension import ExtensionInstance, gen_ext_po_rd
from .graph import Graph
from .rdf import Assignment, rdf_from_counts, two_counts
from .stats import EnumStats

Sink = Callable[[Assignment], None]


def extend_from_v2(g: Graph, v2: Iterable[int]) -> Assignment | None:
    """The unique minimal rdf whose 2-set is ``v2``, or None.

    It exists iff every member of ``v2`` keeps a private neighbor besides
    itself; then vertices outside N[v2] get 1 and the rest of N[v2] gets 0.
    """
    v2set = set(v2)
    c = two_counts(g.adj, v2set)
    for v in v2set:
        if not any(c[u] == 1 for u in g.adj[v]):
            return None
    return rdf_from_counts(c, v2set)


def enumerate_minimal_rdf_simple(g: Graph, sink: Sink) -> EnumStats:
    """Deliver every minimal rdf once, ordered by the 2-set's bit pattern.

    Subsets larger than n/2 are skipped; no minimal rdf can use them.
    This sweep makes no polynomial-delay claim.
    """
    start = time.perf_counter()
    stats = EnumStats()
    n = g.n
    limit = n // 2
    gap = 0
    for mask in range(1 << n):
        if mask.bit_count() > limit:
            continue
        stats.tree_nodes += 1
        gap += 1
        f = extend_from_v2(g, (v for v in range(n) if mask >> v & 1))
        if f is not None:
            sink(f)
            stats.solutions += 1
            stats.max_gap = max(stats.max_gap, gap)
            gap = 0
    stats.max_gap = max(stats.max_gap, gap)
    stats.wall_ms = int((time.perf_counter() - start) * 1000)
    return stats


def enumerate_po_minimal_simple(g: Graph, sink: Sink) -> EnumStats:
    """Deliver every PO-minimal rdf once, with polynomial delay.

    PO-minimal rdfs are determined by their 2-set, so the search decides
    vertex by vertex whether it joins the 2-set (exclude branch first)
    and descends only where the PO extension solver confirms a completion.
    """
    start = time.perf_counter()
    stats = EnumStats()
    n = g.n
    included: set[int] = set()
    excluded: set[int] = set()
    gap = 0

    def viable() -> bool:
        values = tuple(2 if v in included else 0 for v in range(n))
        inst = ExtensionInstance(g, values, frozenset(excluded))
        return gen_ext_po_rd(inst) is not None

    def walk(depth: int) -> None:
        nonlocal gap
        stats.tree_nodes += 1
        if depth == n:
            sink(rdf_from_counts(two_counts(g.adj, included), included))
            stats.solutions += 1
            stats.max_gap = max(stats.max_gap, gap)
            gap = 0
            return
        gap += 1
        excluded.add(depth)
        if viable():
            walk(depth + 1)
        excluded.remove(depth)
        included.add(depth)
        if viable():
            walk(depth + 1)
        included.remove(depth)

    walk(0)
    stats.max_gap = max(stats.max_gap, gap)
    stats.wall_ms = int((time.perf_counter() - start) * 1000)
    return stats
