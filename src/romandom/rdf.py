"""Roman dominating functions: assignments, weights, and minimality checks.

An assignment is a total function V -> {0,1,2}, stored as a tuple indexed
by vertex id.  Its text form is a digit string, index i = vertex i.

Two minimality orders are supported: the standard pointwise lift of
0 < 1 < 2, and the "PO" lift of the partial order 0 < 1, 0 < 2 with 1
and 2 incomparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph

Assignment = tuple[int, ...]
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


@dataclass(frozen=True)
class LevelSets:
    """The partition of V by assignment value."""

    v0: frozenset[int]
    v1: frozenset[int]
    v2: frozenset[int]


def level_sets(f: Assignment) -> LevelSets:
    return LevelSets(
        frozenset(v for v, x in enumerate(f) if x == 0),
        frozenset(v for v, x in enumerate(f) if x == 1),
        frozenset(v for v, x in enumerate(f) if x == 2),
    )


def weight(f: Assignment) -> int:
    """|V1| + 2|V2|."""
    return sum(f)


def is_rdf(g: Graph, f: Assignment) -> bool:
    """True iff every 0-valued vertex has a neighbor valued 2."""
    return all(
        any(f[u] == 2 for u in g.adj[v])
        for v in range(g.n)
        if f[v] == 0
    )


def two_counts(adj: tuple[frozenset[int], ...],
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


def nbr_masks(adj: tuple[frozenset[int], ...]) -> list[int]:
    """The open neighborhood of every vertex as a bit set (bit u = vertex u)."""
    return [sum(1 << u for u in near) for near in adj]


def rdf_from_counts(c: list[int], v2: Iterable[int]) -> Assignment:
    """The rdf with 2-set ``v2``: 0 on the rest of N[v2], 1 outside it.

    ``c`` is ``two_counts(adj, v2)``.
    """
    out = [0 if x else 1 for x in c]
    for v in v2:
        out[v] = 2
    return tuple(out)


def private_neighbors(g: Graph, d: Iterable[int], v: int) -> set[int]:
    """N[v] minus N[D \\ {v}]: vertices dominated only by v within d."""
    dset = set(d)
    if v not in dset:
        raise ValueError(f"vertex {v} is not a member of the dominating set")
    c = two_counts(g.adj, dset)
    return {u for u in g.adj[v] | {v} if c[u] == 1}


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
    v2 = [v for v, x in enumerate(f) if x == 2]
    c = two_counts(g.adj, v2)
    failed: list[str] = []
    if any(f[u] == 1 for v in v2 for u in g.adj[v]):
        failed.append(COND_NO_ONE_NEXT_TO_TWO)
    # A private neighbor in G' other than v: a 0-vertex next to v alone.
    # (A 2-valued neighbor of v has count >= 2.)
    open_private = [any(c[u] == 1 and f[u] == 0 for u in g.adj[v])
                    for v in v2]
    if order == "standard" and not all(open_private):
        failed.append(COND_PRIVACY)
    dominated = all(c[w] for w, x in enumerate(f) if x == 0)
    irredundant = all(p or c[v] == 1 for v, p in zip(v2, open_private))
    if not (dominated and irredundant):
        failed.append(COND_MINIMAL_DS)
    return failed


def is_minimal_rdf(g: Graph, f: Assignment) -> bool:
    return not minimality_report(g, f)


def is_po_minimal_rdf(g: Graph, f: Assignment) -> bool:
    return not minimality_report(g, f, order="po")


def leq_standard(f: Assignment, h: Assignment) -> bool:
    """Pointwise f <= h under 0 < 1 < 2."""
    if len(f) != len(h):
        raise ValueError("assignments have different lengths")
    return all(a <= b for a, b in zip(f, h))


def leq_po(f: Assignment, h: Assignment) -> bool:
    """Pointwise f <= h under 0 < 1, 0 < 2 with 1 and 2 incomparable."""
    if len(f) != len(h):
        raise ValueError("assignments have different lengths")
    return all(a == b or a == 0 for a, b in zip(f, h))
