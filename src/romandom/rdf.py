"""Roman dominating functions: assignments, the rdf and minimality checks.

An assignment is a total function V -> {0,1,2}, stored as a tuple indexed
by vertex id.  Its text form is a digit string, index i = vertex i.

Two minimality orders are supported: the standard pointwise lift of
0 < 1 < 2, and the "PO" lift of the partial order 0 < 1, 0 < 2 with 1
and 2 incomparable.  One generator yields the failing conditions in
report order, each only when asked for: ``minimality_report`` lists
them, the boolean checkers stop at the first (a 1 next to a 2 is found
before any counting).  A C-level split of f's bytes finds the 2-set.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Iterator

from .graph import Graph

Assignment = tuple[int, ...]
# What an enumerator hands each solution to: the assignment, or its output
# line when a subset walk is asked for lines.
Sink = Callable[[Assignment], None] | Callable[[str], None]
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # text form
_VALUES = bytes.maketrans(b"012", b"\0\1\2")  # and back to values

# Condition names reported by the minimality checkers (and the CLI).
COND_NO_ONE_NEXT_TO_TWO = "N[V2]∩V1"
COND_PRIVACY = "privacy condition"
COND_MINIMAL_DS = "minimal dominating set"


def parse_assignment(text: str, n: int) -> Assignment:
    digits = text.strip().encode("ascii", "replace")  # non-ASCII -> "?"
    if len(digits) != n:
        raise ValueError(f"assignment length {len(digits)} != graph order {n}")
    if digits.translate(None, b"012"):
        raise ValueError("assignment must be a string over {0,1,2}")
    return tuple(digits.translate(_VALUES))


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
    if 2 not in b:
        return b, []
    # A 0 after each 2 makes the piece lengths add up to the 2s' ids (and
    # to n last); bytes pieces take one allocation each, bytearrays two.
    pieces = bytes(b).replace(b"\2", b"\2\0").split(b"\2")
    v2 = list(accumulate(map(len, pieces)))
    v2.pop()
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


def is_rdf(g: Graph, f: Assignment) -> bool:
    """True iff every 0-valued vertex has a neighbor valued 2."""
    b, v2 = _scan(g, f)
    return b.count(0) == len({u for v in v2 for u in g.adj[v] if f[u] == 0})


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
    return list(_failures(g, f, order == "po"))


def _failures(g: Graph, f: Assignment, po: bool) -> Iterator[str]:
    """The conditions f fails, in report order, each computed when asked."""
    b, v2 = _scan(g, f)
    adj = g.adj
    ones = 0  # how many 1s N[V2] holds
    if 1 in b and 1 in {f[u] for v in v2 for u in adj[v]}:
        yield COND_NO_ONE_NEXT_TO_TWO
        ones = len({u for v in v2 for u in adj[v] if f[u] == 1})
    c = two_counts(adj, v2)
    lonely = list(lonely_twos(adj, f, v2, c))
    if lonely and not po:
        yield COND_PRIVACY
    # N[V2] holds n - c.count(0) vertices: V2, its 1s and its 0s.
    if (b.count(0) != g.n - c.count(0) - len(v2) - ones
            or any(c[v] != 1 for v in lonely)):
        yield COND_MINIMAL_DS


def is_minimal_rdf(g: Graph, f: Assignment) -> bool:
    return next(_failures(g, f, False), None) is None


def is_po_minimal_rdf(g: Graph, f: Assignment) -> bool:
    return next(_failures(g, f, True), None) is None
