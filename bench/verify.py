"""Independent checks of the program's answers.

Nothing here imports ``romandom.rdf``: the minimality test below is a
separate implementation of the characterization, so a fault in the
program's checker cannot hide a fault in its enumerators or solvers.

A total f : V -> {0,1,2} is a minimal rdf iff
  (a) no 1-vertex is adjacent to a 2-vertex,
  (b) every 0-vertex has a 2-neighbour, and
  (c) every 2-vertex has a 0-neighbour whose only 2-neighbour it is.
It is PO-minimal iff (a), (b) and (c'): every 2-vertex either has no
2-neighbour or has such a 0-neighbour.  With the number of 2-neighbours
of each vertex counted once, every condition takes O(n + m).
"""

from __future__ import annotations

import hashlib


def read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a well-formed ``n m`` / ``u v`` edge list."""
    rows = [line.split() for line in text.splitlines()
            if line.strip() and not line.startswith("#")]
    n = int(rows[0][0])
    return n, [(int(u), int(v)) for u, v in rows[1:]]


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_minimal(adj: list[list[int]], f, po: bool = False) -> bool:
    """Is ``f`` a minimal (``po``: PO-minimal) rdf of the graph ``adj``?"""
    n = len(adj)
    if len(f) != n or any(x not in (0, 1, 2) for x in f):
        return False
    twos = [0] * n
    for v in range(n):
        if f[v] == 2:
            for u in adj[v]:
                twos[u] += 1
    for v in range(n):
        if f[v] == 1 and twos[v]:
            return False
        if f[v] == 0 and not twos[v]:
            return False
    for v in range(n):
        if f[v] != 2:
            continue
        if po and not twos[v]:
            continue
        if not any(f[u] == 0 and twos[u] == 1 for u in adj[v]):
            return False
    return True


def above(f, g, po: bool) -> bool:
    """g >= f pointwise (standard) or f <=_PO g (values kept or raised from 0)."""
    if po:
        return all(a == b or a == 0 for a, b in zip(f, g))
    return all(a <= b for a, b in zip(f, g))


def digest(lines) -> str:
    """Order-independent sha256 of a set of output lines."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
