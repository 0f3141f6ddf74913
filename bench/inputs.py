"""Seeded inputs for the three workloads.

Every generator here is a pure function of the workload seed: the same
seed gives byte-identical edge lists, assignments and query order.  The
program under test only ever receives edge-list files (loaded through
its own parser) and assignments; the answers the benchmark expects are
known from how the inputs are built, not from the program.

Enumeration mix (``enum-refined`` and ``enum-sweep``): the fixed graphs
c5pow3 and cycle14, whose solution counts and digests are recorded in
``expected.json``, and ``RANDOM_GRAPHS`` graphs ``gen_random(12, 0.2, s)``
with seeds derived from the workload seed.  There are ``RANDOM_SETS``
such sets and successive passes take them in turn, so a run averages
over 96 random graphs: the solution count of a single G(12, 0.2) varies
by about 60% between seeds, and the longest gaps between solutions come
from the random graphs.  ``enum-sweep`` adds a
star and a null graph under the PO order.  A pass takes one to two
seconds, so a run holds many passes.

Extension stream (``ext-stream``): two planted families at each of eight
orders from 700 to 5600.  In both, a set of
"centres" gets value 2 and every centre owns a neighbour that no other
centre touches, so the standard and PO extension questions with those
2s are YES by construction.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

RANDOM_SETS = 8
RANDOM_GRAPHS = 12
RANDOM_ORDER = 12
RANDOM_P = 0.2

EXT_ORDERS = (700, 940, 1250, 1660, 2220, 2970, 3960, 5600)
# One vertex in CENTRE_SHARE is a planted centre.
CENTRE_SHARE = 20


def derive(seed: int, *tags) -> int:
    """A 63-bit seed for one generator, stable across processes."""
    text = ":".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                          "big") >> 1


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The canonical ``n m`` / ``u v`` edge-list format, edges deduplicated."""
    unique = sorted({(min(u, v), max(u, v)) for u, v in edges})
    lines = [f"{n} {len(unique)}"]
    lines.extend(f"{u} {v}" for u, v in unique)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- enum mix

@dataclass(frozen=True)
class EnumInstance:
    """One ``romandom enumerate`` call of the mix.

    ``build`` names the romandom generator and its arguments, so the
    graph is made by the program's own generator during set-up.
    ``expected`` is the key of the recorded count and digest in
    ``expected.json``; None means the reference comes from the other
    enumerator, computed once per run.
    """

    name: str
    build: tuple
    mode: str
    order: str
    expected: str | None


def enum_mixes(workload: str, seed: int) -> list[list[EnumInstance]]:
    """One mix per set of random graphs; successive passes take them in turn.

    The fixed instances are the same objects in every mix.
    """
    mode = "refined" if workload == "enum-refined" else "simple"
    fixed = [
        EnumInstance("c5pow3", ("gen_c5_copies", 3), mode, "standard",
                     "c5pow3"),
        EnumInstance("cycle14", ("gen_cycle", 14), mode, "standard",
                     "cycle14"),
    ]
    po = []
    if workload == "enum-sweep":
        po = [EnumInstance("star10", ("gen_star", 10), "simple", "po",
                           "star10-po"),
              EnumInstance("null10", ("gen_null", 10), "simple", "po",
                           "null10-po")]
    mixes = []
    for j in range(RANDOM_SETS):
        randoms = [EnumInstance(
            f"random{j}-{i}",
            ("gen_random", RANDOM_ORDER, RANDOM_P, derive(seed, "random", j, i)),
            mode, "standard", None) for i in range(RANDOM_GRAPHS)]
        mixes.append(fixed + randoms + po)
    return mixes


# ------------------------------------------------------------- ext stream

@dataclass
class PlantedGraph:
    """An extension-stream graph and the structure planted in it.

    ``private[c]`` is a neighbour of centre ``c`` adjacent to no other
    centre.
    """

    name: str
    n: int
    edges: list[tuple[int, int]]
    centres: list[int]
    private: dict[int, int] = field(default_factory=dict)


def _random_tree_edges(vertices: list[int], rng: random.Random):
    return [(vertices[rng.randrange(i)], vertices[i])
            for i in range(1, len(vertices))]


def pendant_graph(n: int, seed: int) -> PlantedGraph:
    """A random sparse core; every centre gets one pendant leaf.

    The core is a random tree plus n/8 random chords.  The leaf of a
    centre touches only that centre, so it is private.
    """
    rng = random.Random(derive(seed, "pendant", n))
    k = n // CENTRE_SHARE
    core = list(range(n - k))
    edges = _random_tree_edges(core, rng)
    for _ in range(n // 8):
        u, v = rng.sample(core, 2)
        edges.append((u, v))
    centres = sorted(rng.sample(core, k))
    g = PlantedGraph(f"pendant{n}", n, edges, centres)
    for j, c in enumerate(centres):
        leaf = n - k + j
        edges.append((c, leaf))
        g.private[c] = leaf
    return g


def p3_graph(n: int, seed: int) -> PlantedGraph:
    """Disjoint P3s whose ends hang off a random sparse background.

    The P3 centres are the planted centres; background vertices and P3
    ends are joined at random, but no centre gains a neighbour, so both
    ends of a P3 stay private to its centre.
    """
    rng = random.Random(derive(seed, "p3", n))
    k = n // CENTRE_SHARE
    centres = [3 * i + 1 for i in range(k)]
    ends = [3 * i + j for i in range(k) for j in (0, 2)]
    background = list(range(3 * k, n))
    edges = [(c - 1, c) for c in centres] + [(c, c + 1) for c in centres]
    edges += _random_tree_edges(background, rng)
    for end in ends:
        edges.append((end, rng.choice(background)))
    pool = ends + background
    for _ in range(n // 8):
        u, v = rng.sample(pool, 2)
        edges.append((u, v))
    g = PlantedGraph(f"p3-{n}", n, edges, centres)
    for c in centres:
        g.private[c] = c - 1 if rng.random() < 0.5 else c + 1
    return g


def planted_graphs(seed: int) -> list[PlantedGraph]:
    return [make(n, seed) for n in EXT_ORDERS
            for make in (pendant_graph, p3_graph)]


@dataclass(frozen=True)
class Query:
    """One library call of the stream and the answer known by construction.

    ``call`` is the romandom function name.  Extension calls answer YES
    (a witness) or NO (None); minimality checks answer True or False.
    ``expect`` holds that answer as a bool.
    """

    kind: str
    graph: str
    call: str
    values: tuple[int, ...]
    forbidden: frozenset[int]
    expect: bool


def _with_twos(n: int, centres: list[int]) -> list[int]:
    f = [0] * n
    for c in centres:
        f[c] = 2
    return f


def _adjacency(pg: PlantedGraph) -> list[list[int]]:
    adj = [[] for _ in range(pg.n)]
    for u, v in pg.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def planted_witness(pg: PlantedGraph) -> tuple[int, ...]:
    """2 on the centres, 0 on their neighbours, 1 elsewhere: a minimal rdf."""
    adj = _adjacency(pg)
    f = [1] * pg.n
    for c in pg.centres:
        for u in adj[c]:
            f[u] = 0
    for c in pg.centres:
        f[c] = 2
    return tuple(f)


def graph_queries(pg: PlantedGraph, seed: int) -> list[Query]:
    """The eleven query kinds on one planted graph."""
    rng = random.Random(derive(seed, "queries", pg.name))
    n = pg.n
    twos = _with_twos(n, pg.centres)
    centre_set = set(pg.centres)
    others = [v for v in range(n) if v not in centre_set]
    # A tenth of the non-centres are barred from 2; no saturation reaches
    # them because the input has no 1s.
    barred = frozenset(rng.sample(others, len(others) // 10))

    # NO by construction: a 1 next to a centre must become 2 under the
    # standard order (saturation) and may not under PO.
    victim = rng.choice(pg.centres)
    one_next_to_two = list(twos)
    one_next_to_two[pg.private[victim]] = 1
    # NO by privacy: once every neighbour of a centre is a 2 as well, the
    # centre has no private neighbour left.
    crowded = list(twos)
    for u in _adjacency(pg)[rng.choice(pg.centres)]:
        crowded[u] = 2

    witness = planted_witness(pg)
    # Not minimal: a private neighbour raised from 0 to 1 sits next to a 2.
    perturbed = list(witness)
    perturbed[pg.private[rng.choice(pg.centres)]] = 1

    none = frozenset()
    t = tuple
    return [
        Query("ext_rd-yes", pg.name, "ext_rd", t(twos), none, True),
        Query("ext_rd-zero", pg.name, "ext_rd", (0,) * n, none, True),
        Query("ext_rd-no", pg.name, "ext_rd", t(crowded), none, False),
        Query("gen_ext_rd-yes", pg.name, "gen_ext_rd", t(twos), barred, True),
        Query("gen_ext_rd-no", pg.name, "gen_ext_rd", t(one_next_to_two),
              barred | {pg.private[victim]}, False),
        Query("ext_po_rd-yes", pg.name, "ext_po_rd", t(twos), none, True),
        Query("ext_po_rd-no", pg.name, "ext_po_rd", t(one_next_to_two), none,
              False),
        Query("is_minimal_rdf-yes", pg.name, "is_minimal_rdf", witness, none,
              True),
        Query("is_po_minimal_rdf-yes", pg.name, "is_po_minimal_rdf", witness,
              none, True),
        Query("is_minimal_rdf-no", pg.name, "is_minimal_rdf", t(perturbed),
              none, False),
        Query("is_po_minimal_rdf-no", pg.name, "is_po_minimal_rdf",
              t(perturbed), none, False),
    ]


def query_stream(graphs: list[PlantedGraph], seed: int) -> list[Query]:
    """Every query of every graph, in a seeded order; one pass of the loop."""
    queries = [q for pg in graphs for q in graph_queries(pg, seed)]
    random.Random(derive(seed, "order")).shuffle(queries)
    return queries
