"""Simple undirected graphs with dense 0-based vertex ids.

:meth:`Graph.from_edges` is the only constructor, so every graph is valid
by construction and immutable after it.  A neighborhood is a tuple of
vertex ids in increasing order, and every entry for vertex v is the
graph's one int object for v, so a graph keeps n ints, not one per edge
end.  :meth:`Graph.edges` reads the edges off in ascending order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator


class GraphFormatError(ValueError):
    """Raised when an edge-list input is malformed."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None
                         else f"line {line_no}: {message}")


@dataclass(frozen=True, init=False)
class Graph:
    """An undirected simple graph: ``n`` vertices, sorted tuple adjacency.

    Invariants: every neighborhood is strictly increasing, adjacency is
    symmetric and irreflexive, all neighbor ids lie in ``[0, n)``.
    :meth:`from_edges` is the only constructor and establishes them, so
    no graph needs checking later; ``Graph(...)`` raises ``TypeError``.
    :attr:`nbr` holds the same neighborhoods as bit sets and :attr:`ball2`
    the balls of radius 2; both are built on first access and not
    compared or hashed.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Graph with Graph.from_edges")

    @cached_property
    def nbr(self) -> tuple[int, ...]:
        """The open neighborhood of every vertex as a bit set (bit u =
        vertex u), for the searches and the oracle, read off rows that
        :meth:`from_edges`, the only constructor, made valid."""
        return tuple(sum(1 << u for u in near) for near in self.adj)

    @cached_property
    def ball2(self) -> tuple[int, ...]:
        """N[N[v]], the vertices within distance 2 of every vertex, as bit
        sets: one OR of a closed neighborhood per edge end."""
        closed = [m | 1 << v for v, m in enumerate(self.nbr)]
        return tuple(reduce(or_, [closed[u] for u in near], closed[v])
                     for v, near in enumerate(self.adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on ``n`` vertices with these edges; repeats collapse."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        ids = list(range(n))  # the one int object of each vertex
        near: list[list[int]] = [[] for _ in ids]
        edges = list(edges)
        ordered = True
        try:
            for u, v in edges:
                if u | v < 0:
                    raise IndexError  # a negative id, reported as below
                near[u].append(ids[v])
                near[v].append(ids[u])
                if u >= v:
                    if u == v:
                        raise ValueError(f"self-loop at vertex {u}")
                    ordered = False
        except IndexError:
            raise ValueError(f"edge ({u},{v}) out of range for n={n}") from None
        # Only a repeated edge repeats a neighbor; with every edge given as
        # (u, v), u < v, as edge lists are written, set(edges) shows it.
        if not ordered:
            edges = [(u, v) if u < v else (v, u) for u, v in edges]
        if len(set(edges)) < len(edges):
            near = [list(set(s)) for s in near]
        for s in near:
            s.sort()
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(map(tuple, near)))
        return g

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once, as (u, v) with u < v, in ascending order."""
        for u, near in enumerate(self.adj):
            for v in near:
                if u < v:
                    yield u, v

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format.

    First non-comment line is ``n m``, followed by ``m`` lines ``u v``.
    Lines starting with ``#`` and blank lines are ignored.  Duplicate
    edges collapse; self-loops and out-of-range ids are errors that name
    the offending line.
    """
    n = -1
    m = -1
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n < 0:
            if len(parts) != 2:
                raise GraphFormatError("expected header 'n m'", line_no)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("non-integer header", line_no) from None
            if n < 0 or m < 0:
                raise GraphFormatError("negative count in header", line_no)
            continue
        if len(parts) != 2:
            raise GraphFormatError("expected edge 'u v'", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("non-integer vertex id", line_no) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"id out of range in edge ({u},{v})", line_no)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", line_no)
        edges.append((u, v))
    if n < 0:
        raise GraphFormatError("missing header line 'n m'")
    if len(edges) != m:
        raise GraphFormatError(f"header promises {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def to_edge_list(g: Graph) -> str:
    """Render ``g`` in the canonical edge-list format."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def gen_cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(k - 1)]
    return Graph.from_edges(k, edges + [(0, k - 1)])


def gen_star(rays: int) -> Graph:
    """Star with ``rays`` leaves; the center gets id 0."""
    if rays < 1:
        raise ValueError("a star needs at least one ray")
    return Graph.from_edges(rays + 1, [(0, i) for i in range(1, rays + 1)])


def gen_null(n: int) -> Graph:
    """Edge-less graph of order ``n``."""
    return Graph.from_edges(n, [])


def gen_disjoint_union(parts: list[Graph]) -> Graph:
    """Disjoint union; part vertices are relabeled consecutively."""
    total = sum(p.n for p in parts)
    edges: list[tuple[int, int]] = []
    offset = 0
    for p in parts:
        edges.extend((u + offset, v + offset) for u, v in p.edges())
        offset += p.n
    return Graph.from_edges(total, edges)


def gen_c5_copies(c: int) -> Graph:
    """``c`` disjoint 5-cycles (order 5c): 16^c = 1.7411^n minimal rdfs,
    below the paper's lower bound of 1.7441^n."""
    if c < 1:
        raise ValueError("need at least one copy")
    return gen_disjoint_union([gen_cycle(5) for _ in range(c)])


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)
