"""Subset-based enumerators: one flashlight walk over 2-sets.

Minimal rdfs are in bijection with the 2-sets whose members each keep an
external private neighbor, PO-minimal rdfs with those whose members keep
one, possibly themselves.  Both families are hereditary: a member's
private neighbor stays private when S shrinks.  Both enumerators run one
include/exclude walk over such 2-sets, kept as bit sets (:func:`_walk`),
that enters a child only if its 2-set is in the family (Read and Tarjan's
flashlight search).  So the exclude child is always entered: the walk
descends each exclude chain to its leaf in place and stacks only include
children, every frame lies on the path to a leaf, and every leaf is a
solution: at most n inner frames pass between two outputs, and the stack
holds at most n frames.  Adding v to S changes domination only on N[v],
so only members within distance 2 of v can lose a private neighbor.  A
frame carries its leaf's output line as one int, an ASCII digit per vertex
(``"2"`` on a member, else ``"0"`` if dominated, else ``"1"``) and a
closing ``"\n"``: a leaf is one ``to_bytes`` call.  With ``lines=True`` the
sink receives that line as text, which the CLI writes as is; by default it
receives the values as a tuple of ints.
"""

from __future__ import annotations

import time

from .graph import Graph
from .rdf import _VALUES, Sink
from .stats import EnumStats


def _walk(g: Graph, sink: Sink, po: bool, stats: EnumStats | None = None,
          lines: bool = False) -> EnumStats:
    """Run the walk, exclude child first, and deliver S at each leaf.

    ``po`` picks only the vertex order and the privacy test: the sweep
    decides the vertices from n-1 down to 0 and tests open neighborhoods,
    the PO walk goes from 0 up and tests closed ones.  A frame is ``(depth,
    S, once, twice, vals)``, with ``once``/``twice`` the vertices that have
    at least one/two members of S in their closed neighborhood: x keeps a
    private neighbor iff ``nbr[x] & once & ~twice``.  ``vals`` is the
    leaf's output line read as a little-endian int: byte x is the ASCII
    digit of x's value and byte n is ``"\n"``.  ``spread[v]`` has a 1 byte
    at each vertex of N[v], and bit 0 of a digit byte is set exactly on
    ``"1"`` (0x31; ``"0"`` and ``"2"`` are 0x30 and 0x32), so an include of
    v subtracts ``vals & spread[v]`` (its undominated vertices go to
    ``"0"``) and adds ``2 << 8*v``: no byte leaves ``"0"``-``"2"`` and byte
    n is never touched, so nothing borrows or carries, and a leaf is one
    linear ``to_bytes``.  The sink receives that line decoded to a ``str``
    when ``lines`` is set, else the values as a tuple of ints.  A popped
    frame walks its exclude chain to the leaf, pushing the include children
    it meets, each tested at its v and at the members in ``g.ball2[v]``.
    The chain from depth d counts n - d + 1 tree nodes and n - d inner
    frames of gap, and ``stats`` (a new :class:`EnumStats` by default) is
    exact whenever the sink runs or raises.
    """
    start = time.perf_counter()
    stats = EnumStats() if stats is None else stats
    n = g.n
    order = range(n) if po else range(n - 1, -1, -1)
    near = [m | 1 << x for x, m in enumerate(g.nbr)]
    test = near if po else g.nbr
    ones = int.from_bytes(b"1" * n + b"\n", "little")
    zeros = int.from_bytes(b"0" * n, "little")
    # Per depth: child depth, bit, test, N[v], N[N[v]], spread[v] (the bit
    # string of N[v] read as bytes) and 2 << 8*v.
    steps = [(d + 1, 1 << v, test[v], near[v], g.ball2[v],
              int.from_bytes(format(near[v], f"0{n}b").encode(), "big")
              - zeros, 2 << 8 * v) for d, v in enumerate(order)]
    gap = 0
    stack = [(0, 0, 0, 0, ones)]
    pop, push = stack.pop, stack.append
    try:
        while stack:
            depth, s, once, twice, vals = pop()
            for child, b, own, around, ball, spread, two in steps[depth:]:
                # After adding v, its private neighbors are the tested ones
                # outside once.
                if not own & ~once:
                    continue
                once2 = once | around
                twice2 = twice | once & around
                private = once2 & ~twice2
                members = s & ball
                while members:
                    low = members & -members
                    if not test[low.bit_length() - 1] & private:
                        break
                    members ^= low
                else:
                    push((child, s | b, once2, twice2,
                          vals - (vals & spread) + two))
            stats.tree_nodes += n - depth + 1
            gap = n - depth
            leaf = vals.to_bytes(n + 1, "little")
            sink(leaf.decode() if lines
                 else tuple(leaf.translate(_VALUES, b"\n")))  # drops "\n"
            stats.solutions += 1
            if gap > stats.max_gap:
                stats.max_gap = gap
    finally:
        stats.max_gap = max(stats.max_gap, gap)
        stats.wall_ms = int((time.perf_counter() - start) * 1000)
    return stats


def enumerate_minimal_rdf_simple(g: Graph, sink: Sink, *,
                                 stats: EnumStats | None = None,
                                 lines: bool = False) -> EnumStats:
    """Deliver every minimal rdf once, ordered by the 2-set's bit pattern.

    Polynomial delay and space: ``max_gap`` <= n and ``tree_nodes`` <=
    (n + 1) * ``solutions``.  Distinct members have distinct external
    private neighbors, so no 2-set entered has more than n/2 members.  With
    ``lines=True`` the sink receives each solution as its output line,
    the digit string of :func:`~romandom.rdf.format_assignment` and a
    ``"\n"``; by default, as a tuple of ints.
    """
    return _walk(g, sink, po=False, stats=stats, lines=lines)


def enumerate_po_minimal_simple(g: Graph, sink: Sink, *,
                                stats: EnumStats | None = None,
                                lines: bool = False) -> EnumStats:
    """Deliver every PO-minimal rdf once, with the same delay and tree bounds.

    PO-minimal rdfs are determined by their 2-set, an irredundant set.  The
    walk descends only where every member keeps a private neighbor in its
    closed neighborhood, which is the PO extension test kept as bit sets;
    it calls no extension solver.  ``lines`` is as for
    :func:`enumerate_minimal_rdf_simple`.
    """
    return _walk(g, sink, po=True, stats=stats, lines=lines)
