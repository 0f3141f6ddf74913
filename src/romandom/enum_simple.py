"""Subset-based enumerators running in O*(2^n).

Minimal rdfs are in bijection with the 2-sets whose members each keep a
private neighbor besides themselves, PO-minimal rdfs with those whose
members keep one, possibly themselves.  Both enumerators run one
include/exclude walk over such 2-sets, kept as bit sets (:func:`_walk`).
A member that has lost its last private neighbor never regains one as the
2-set grows, so an include child that fails the test is cut with its whole
subtree, and every leaf is a solution.  The standard enumerator delivers
in ascending bit-pattern order, the order of the full subset sweep, whose
masks ``tree_nodes`` and ``max_gap`` still count; the PO enumerator
delivers with polynomial delay.
"""

from __future__ import annotations

import time
from itertools import accumulate
from math import comb
from typing import Callable

from .graph import Graph
from .rdf import Assignment, nbr_masks
from .stats import EnumStats

Sink = Callable[[Assignment], None]


def _walk(g: Graph, sink: Sink, po: bool) -> EnumStats:
    """Run the walk, exclude child first, and deliver S at each leaf.

    The sweep decides the vertices from n-1 down to 0, keeps |S| <= n/2 and
    tests privacy on open neighborhoods; the PO walk goes from 0 up and
    tests closed ones.  A frame is ``(depth, S, once, twice, size)``, with
    ``once``/``twice`` the vertices that have at least one/two members of S
    in their closed neighborhood: x keeps a private neighbor iff ``nbr[x] &
    once & ~twice``.  The PO walk counts frames as tree nodes and inner
    frames as gap.  The sweep counts masks: 1 per leaf, and a cut subtree's
    masks, pushed as a skip frame beneath the exclude sibling so that they
    are added in stream order.
    """
    start = time.perf_counter()
    stats = EnumStats()
    n = g.n
    order, limit = (range(n), n) if po else (range(n - 1, -1, -1), n // 2)
    nbr = nbr_masks(g.adj)
    bits = [1 << x for x in range(n)]
    near = [m | b for m, b in zip(nbr, bits)]
    test = near if po else nbr
    # below[r][k]: the masks with fewer than k members over r free vertices.
    below = [] if po else [
        list(accumulate((comb(r, j) for j in range(limit)), initial=0))
        for r in range(n)]
    gap = 0
    stack: list = [(0, 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        frame = pop()
        if frame.__class__ is int:
            gap += frame
            continue
        depth, s, once, twice, size = frame
        stats.tree_nodes += po
        if depth == n:
            gap += not po
            sink(tuple([2 if s & b else 0 if once & b else 1 for b in bits]))
            stats.solutions += 1
            stats.max_gap = max(stats.max_gap, gap)
            gap = 0
            continue
        gap += po
        if size < limit:
            v = order[depth]
            s2, once2 = s | bits[v], once | near[v]
            twice2 = twice | once & near[v]
            private = once2 & ~twice2
            members = s2
            while members:
                low = members & -members
                if not test[low.bit_length() - 1] & private:
                    break
                members ^= low
            if not members:
                push((depth + 1, s2, once2, twice2, size + 1))
            elif not po:
                push(below[n - depth - 1][limit - size])
        push((depth + 1, s, once, twice, size))
    stats.max_gap = max(stats.max_gap, gap)
    if not po:
        stats.tree_nodes = sum(comb(n, j) for j in range(limit + 1))
    stats.wall_ms = int((time.perf_counter() - start) * 1000)
    return stats


def enumerate_minimal_rdf_simple(g: Graph, sink: Sink) -> EnumStats:
    """Deliver every minimal rdf once, ordered by the 2-set's bit pattern.

    2-sets larger than n/2 are skipped; no minimal rdf can use them.
    ``tree_nodes`` and ``max_gap`` count the masks of the full sweep over
    the subsets of at most n/2 vertices, as if each were tested.  This
    sweep makes no polynomial-delay claim.
    """
    return _walk(g, sink, po=False)


def enumerate_po_minimal_simple(g: Graph, sink: Sink) -> EnumStats:
    """Deliver every PO-minimal rdf once, with polynomial delay.

    PO-minimal rdfs are determined by their 2-set, an irredundant set.  The
    walk descends only where every member keeps a private neighbor in its
    closed neighborhood, which is the PO extension test kept as bit sets;
    it calls no extension solver.
    """
    return _walk(g, sink, po=True)
