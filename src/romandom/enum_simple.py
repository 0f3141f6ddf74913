"""Subset-based enumerators: one flashlight walk over 2-sets.

Minimal rdfs are in bijection with the 2-sets whose members each keep an
external private neighbor, PO-minimal rdfs with those whose members keep
one, possibly themselves.  Both families are hereditary: a member's
private neighbor stays private when S shrinks.  Both enumerators run one
include/exclude walk over such 2-sets, kept as bit sets (:func:`_walk`),
that enters a child only if its 2-set is in the family (Read and Tarjan's
flashlight search).  So the exclude child is always entered, every frame
lies on the path to some leaf, and every leaf is a solution: at most n
inner frames pass between two outputs, the tree has at most n + 1 frames
per solution, and the stack holds at most n + 1 frames.
"""

from __future__ import annotations

import time
from typing import Callable

from .graph import Graph
from .rdf import Assignment
from .stats import EnumStats

Sink = Callable[[Assignment], None]


def _walk(g: Graph, sink: Sink, po: bool,
          stats: EnumStats | None = None) -> EnumStats:
    """Run the walk, exclude child first, and deliver S at each leaf.

    ``po`` picks only the vertex order and the privacy test: the sweep
    decides the vertices from n-1 down to 0 and tests open neighborhoods,
    the PO walk goes from 0 up and tests closed ones.  A frame is ``(depth,
    S, once, twice)``, with ``once``/``twice`` the vertices that have at
    least one/two members of S in their closed neighborhood: x keeps a
    private neighbor iff ``nbr[x] & once & ~twice``.  Every frame counts as
    a tree node and every inner frame as gap.  The counters go into
    ``stats`` (a new :class:`EnumStats` by default) as the walk runs, and
    ``max_gap`` and ``wall_ms`` are set even if the sink raises.
    """
    start = time.perf_counter()
    stats = EnumStats() if stats is None else stats
    n = g.n
    order = range(n) if po else range(n - 1, -1, -1)
    nbr = g.nbr
    bits = [1 << x for x in range(n)]
    near = [m | b for m, b in zip(nbr, bits)]
    test = near if po else nbr
    gap = 0
    stack = [(0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    try:
        while stack:
            depth, s, once, twice = pop()
            stats.tree_nodes += 1
            if depth == n:
                sink(tuple([2 if s & b else 0 if once & b else 1
                            for b in bits]))
                stats.solutions += 1
                stats.max_gap = max(stats.max_gap, gap)
                gap = 0
                continue
            gap += 1
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
                push((depth + 1, s2, once2, twice2))
            push((depth + 1, s, once, twice))
    finally:
        stats.max_gap = max(stats.max_gap, gap)
        stats.wall_ms = int((time.perf_counter() - start) * 1000)
    return stats


def enumerate_minimal_rdf_simple(g: Graph, sink: Sink, *,
                                 stats: EnumStats | None = None
                                 ) -> EnumStats:
    """Deliver every minimal rdf once, ordered by the 2-set's bit pattern.

    Polynomial delay and space: ``max_gap`` <= n and ``tree_nodes`` <=
    (n + 1) * ``solutions``.  Distinct members have distinct external
    private neighbors, so no 2-set entered has more than n/2 members.
    """
    return _walk(g, sink, po=False, stats=stats)


def enumerate_po_minimal_simple(g: Graph, sink: Sink, *,
                                stats: EnumStats | None = None
                                ) -> EnumStats:
    """Deliver every PO-minimal rdf once, with the same delay and tree bounds.

    PO-minimal rdfs are determined by their 2-set, an irredundant set.  The
    walk descends only where every member keeps a private neighbor in its
    closed neighborhood, which is the PO extension test kept as bit sets;
    it calls no extension solver.
    """
    return _walk(g, sink, po=True, stats=stats)
