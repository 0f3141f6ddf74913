"""Roman dominating functions: assignments, the rdf and minimality checks.

An assignment is a total function V -> {0,1,2}, stored as a tuple indexed
by vertex id.  Its text form is a digit string, index i = vertex i.

Two minimality orders are supported: the standard pointwise lift of
0 < 1 < 2, and the "PO" lift of the partial order 0 < 1, 0 < 2 with 1
and 2 incomparable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .graph import Graph

Assignment = tuple[int, ...]
# What an enumerator hands each solution to: the assignment, or its output
# line when a subset walk is asked for lines.
Sink = Callable[[Assignment], None] | Callable[[str], None]
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # text form

# Condition names reported by the minimality checkers (and the CLI).
COND_NO_ONE_NEXT_TO_TWO = "N[V2]∩V1"
COND_PRIVACY = "privacy condition"
COND_MINIMAL_DS = "minimal dominating set"


def parse_assignment(text: str, n: int) -> Assignment:
    text = text.strip()
    if len(text) != n:
        raise ValueError(f"assignment length {len(text)} != graph order {n}")
    if any(c not in "012" for c in text):
        raise ValueError("assignment must be a string over {0,1,2}")
    return tuple(int(c) for c in text)


def format_assignment(f: Assignment) -> str:
    return bytes(f).translate(_DIGITS).decode()


def _scan(g: Graph, f: Assignment) -> tuple[bytearray, list[int]]:
    # f as bytes, checked to be over {0, 1, 2}, and its 2-set, ascending,
    # by C-level byte scans of f.
    if len(f) != g.n:
        raise ValueError("assignment length does not match graph order")
    try:
        b = bytearray(f)
        if b.translate(None, b"\x00\x01\x02"):
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError("assignment values must be 0, 1 or 2") from None
    v2, v = [], b.find(2)
    while v >= 0:
        v2.append(v)
        v = b.find(2, v + 1)
    return b, v2


def lonely_twos(adj: tuple[tuple[int, ...], ...], f: Assignment,
                v2: list[int], c: list[int]) -> Iterator[int]:
    """The ids in v2 with no 0-neighbor of count 1 (``c = two_counts(adj,
    v2)``): no private neighbor in G[V0 u V2] other than themselves."""
    for v in v2:
        for u in adj[v]:
            if c[u] == 1 and f[u] == 0:
                break
        else:
            yield v


def _census(g: Graph, f: Assignment):
    """``(v2, c, ones, dominated)``: the 2-set of f, its ``two_counts``,
    the 1-vertices next to it, and whether every 0-vertex has a 2-neighbor:
    N[v2] holds ``n - c.count(0)`` vertices, v2, ``ones`` and 0s."""
    b, v2 = _scan(g, f)
    c = two_counts(g.adj, v2)
    ones = {u for v in v2 for u in g.adj[v] if f[u] == 1}
    return v2, c, ones, b.count(0) == g.n - c.count(0) - len(v2) - len(ones)


def is_rdf(g: Graph, f: Assignment) -> bool:
    """True iff every 0-valued vertex has a neighbor valued 2."""
    return _census(g, f)[3]


def two_counts(adj: tuple[tuple[int, ...], ...],
               v2: Iterable[int]) -> list[int]:
    """``c[w] = |N[w] ∩ v2|`` for every vertex w; ``v2`` must not repeat ids.

    Domination and privacy read off these counts: w is dominated iff
    ``c[w] > 0``, and w is a private neighbor of its unique dominator iff
    ``c[w] == 1``.  O(n + vol(v2)).
    """
    c = [0] * len(adj)
    for v in v2:
        c[v] += 1
        for u in adj[v]:
            c[u] += 1
    return c


def minimality_report(g: Graph, f: Assignment,
                      order: str = "standard") -> list[str]:
    """Failing conditions of the minimal-rdf characterization (empty = minimal).

    With G' the subgraph induced by V0 u V2, a total f is a minimal rdf
    (``order="standard"``) iff no 1-valued vertex touches N[V2]; every
    2-vertex has a private neighbor in G' other than itself; and V2 is a
    minimal dominating set of G'.  PO-minimality (``order="po"``) drops
    the privacy condition and keeps the other two.
    """
    if order not in ("standard", "po"):
        raise ValueError(f"unknown order {order!r}")
    v2, c, ones, dominated = _census(g, f)
    failed: list[str] = []
    if ones:
        failed.append(COND_NO_ONE_NEXT_TO_TWO)
    lonely = list(lonely_twos(g.adj, f, v2, c))
    if order == "standard" and lonely:
        failed.append(COND_PRIVACY)
    if not (dominated and all(c[v] == 1 for v in lonely)):
        failed.append(COND_MINIMAL_DS)
    return failed


def is_minimal_rdf(g: Graph, f: Assignment) -> bool:
    return not minimality_report(g, f)


def is_po_minimal_rdf(g: Graph, f: Assignment) -> bool:
    return not minimality_report(g, f, order="po")
