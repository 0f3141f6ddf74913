import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romandom import (Graph, gen_c5_copies, gen_cycle, gen_disjoint_union,
                      gen_null, gen_random, gen_star, parse_edge_list,
                      to_edge_list)
from romandom.graph import GraphFormatError


@pytest.mark.parametrize("n, p, seed", [(0, 0.5, 1), (1, 0.5, 2),
                                        (12, 0.3, 3), (70, 0.1, 4),
                                        (130, 0.05, 5)])
def test_nbr_bits_match_adjacency(n, p, seed):
    g = gen_random(n, p, seed)
    assert "nbr" not in vars(g)  # built on first access only
    nbr = g.nbr
    assert len(nbr) == n
    assert [{u for u in range(n) if bits >> u & 1} for bits in nbr] == [
        set(near) for near in g.adj]
    assert all(bits >> n == 0 for bits in nbr)
    assert g.nbr is nbr


def test_nbr_leaves_equality_and_hash():
    g, h = gen_cycle(9), gen_cycle(9)
    before = hash(g)
    g.nbr
    assert g == h and hash(g) == hash(h) == before
    assert g != gen_star(8) and "nbr" not in repr(g)


def _balls_by_bfs(g):
    # the vertices at distance at most 2, by two rounds of BFS over adj
    balls = []
    for v in range(g.n):
        ball = set(g.adj[v]) | {v}
        for u in g.adj[v]:
            ball |= set(g.adj[u])
        balls.append(ball)
    return balls


def _as_sets(bits_list, n):
    return [{u for u in range(n) if bits >> u & 1} for bits in bits_list]


def test_ball2_matches_bfs(catalog6):
    rng = random.Random(11)
    graphs = [gen_random(n, p, rng.randrange(10**6))
              for n in (8, 20, 70) for p in (0.05, 0.2, 0.5)]
    assert not any("ball2" in vars(g) for g in graphs)  # built on access
    for g in catalog6 + graphs:
        assert _as_sets(g.ball2, g.n) == _balls_by_bfs(g)


def test_ball2_of_isolated_vertices_and_empty_graph():
    assert gen_null(0).ball2 == ()
    g = gen_disjoint_union([gen_null(1), gen_star(2)])
    assert g.ball2 == (0b0001, 0b1110, 0b1110, 0b1110)


def test_ball2_leaves_equality_and_hash():
    g, h = gen_cycle(9), gen_cycle(9)
    before = hash(g)
    g.ball2
    assert g == h and hash(g) == hash(h) == before
    assert "ball2" not in repr(g)


def test_parse_p2():
    g = parse_edge_list("2 1\n0 1")
    assert g.n == 2
    assert list(g.edges()) == [(0, 1)]


def test_parse_c5():
    g = parse_edge_list("5 5\n0 1\n1 2\n2 3\n3 4\n4 0")
    assert g.n == 5
    assert g.edge_count() == 5
    assert all(len(g.adj[v]) == 2 for v in range(5))


def test_parse_out_of_range():
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_edge_list("3 1\n0 3")


def test_parse_self_loop_rejected():
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_edge_list("3 1\n1 1")


@pytest.mark.parametrize("text, message", [
    ("3 1 0\n", "line 1: expected header 'n m'"),
    ("three 1\n", "line 1: non-integer header"),
    ("3 -1\n", "line 1: negative count in header"),
    ("3 1\n0 b\n", "line 2: non-integer vertex id"),
    ("3 2\n0 1\n", "header promises 2 edges, found 1"),
])
def test_parse_rejects(text, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list(text)
    assert message in str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("1_0 0\n", "line 1: header not in ASCII decimal"),
    ("+3 0\n", "line 1: header not in ASCII decimal"),
    ("\uff13 0\n", "line 1: header not in ASCII decimal"),
    ("0 \uff10\n", "line 1: header not in ASCII decimal"),
    ("0\u30000\n", "line 1: header not in ASCII decimal"),
    ("# 1_0 +0 \uff13\n12 1\n1_0 0\n", "line 3: vertex id not in ASCII"),
    ("3 1\n+0 1\n", "line 2: vertex id not in ASCII decimal"),
    ("3 1\n0 \uff12\n", "line 2: vertex id not in ASCII decimal"),
], ids=["header-underscore", "header-plus", "header-fullwidth",
        "header-fullwidth-zero", "header-ideographic-space",
        "edge-underscore", "edge-plus", "edge-fullwidth"])
def test_parse_rejects_numbers_not_in_ascii_decimal(text, message):
    # int() reads each of these forms; the format does not, whatever a
    # comment line holds
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list(text)
    assert message in str(exc.value)


def test_parse_accepts_leading_zeros_and_any_ascii_spacing():
    g = parse_edge_list("# ３ +0\n003\t02\n 00  1 \n\t2 01\n")
    assert g.n == 3 and list(g.edges()) == [(0, 1), (1, 2)]


@pytest.mark.parametrize("n, edges, message", [
    (-1, [], "vertex count must be non-negative"),
    (3, [(0, 3)], "edge (0,3) out of range for n=3"),
    (3, [(1, 1)], "self-loop at vertex 1"),
    (3, [(-1, 0)], "edge (-1,0) out of range for n=3"),
    (3, [(3, 0)], "edge (3,0) out of range for n=3"),
])
def test_from_edges_rejects(n, edges, message):
    with pytest.raises(ValueError) as exc:
        Graph.from_edges(n, edges)
    assert message in str(exc.value)


@pytest.mark.parametrize("n, adj, flaw", [
    (3, ((1,), (0,)), "adjacency length does not match vertex count"),
    (2, ((1,), (0, 2)), "neighbor 2 of 1 out of range"),
    (2, ((0, 1), (0,)), "self-loop at 0"),
    (3, ((1,), (0, 2), ()), "asymmetric edge (1,2)"),
    (2, ((-1,), ()), "neighbor -1 of 0 out of range"),
    (3, ((2, 1), (0,), (0,)), "neighbors of 0 not strictly increasing"),
    (2, ((1, 1), (0, 0)), "neighbors of 0 not strictly increasing"),
    (4, ((1, 2), (0, 3), (0,), (2,)), "asymmetric edge (1,3)"),
    (3, ((2,), (), (0, 1)), "asymmetric edge (2,1)"),
    (3, ((1,), (0, 2), (5,)), "neighbor 5 of 2 out of range"),
    (2, (frozenset({1}), frozenset({0})), "neighbors of 0 not a tuple of ints"),
    (2, ((), None), "neighbors of 1 not a tuple of ints"),
    (2, ((1.0,), (0,)), "neighbors of 0 not a tuple of ints"),
    (2, ((1,), (0.0,)), "neighbors of 1 not a tuple of ints"),
    (2, ([1], [0]), "neighbors of 0 not a tuple of ints"),
])
def test_validate_rejects_hand_built_adjacency(n, adj, flaw):
    # no adjacency becomes a Graph by hand, whatever its flaw: from_edges is
    # the only constructor, so no graph needs checking later
    for build in (lambda: Graph(n, adj), lambda: Graph(n=n, adj=adj), Graph):
        with pytest.raises(TypeError, match=r"Graph\.from_edges"):
            build()


def test_parse_comments_blank_lines_crlf():
    g = parse_edge_list("# a comment\r\n3 2\r\n\r\n0 1\r\n# more\r\n1 2\r\n")
    assert g.n == 3 and g.edge_count() == 2


def test_parse_duplicate_edges_collapse():
    g = parse_edge_list("2 2\n0 1\n1 0")
    assert g.edge_count() == 1


def test_parse_errors_name_line():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_edge_list("3 2\n0 1\nnope")


def test_parse_missing_header():
    with pytest.raises(GraphFormatError, match="header"):
        parse_edge_list("# only comments\n")


def test_gen_cycle_rejects_small():
    with pytest.raises(ValueError):
        gen_cycle(2)


@pytest.mark.parametrize("make, message", [
    (lambda: gen_star(0), "a star needs at least one ray"),
    (lambda: gen_c5_copies(0), "need at least one copy"),
    (lambda: gen_random(5, -0.1, 1), "edge probability must be in [0, 1]"),
    (lambda: gen_random(5, 1.5, 1), "edge probability must be in [0, 1]"),
])
def test_generators_reject_bad_parameters(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert message in str(exc.value)


def test_gen_null():
    g = gen_null(4)
    assert g.n == 4 and g.edge_count() == 0


def test_gen_star_center_zero():
    g = gen_star(3)
    assert g.adj == ((1, 2, 3), (0,), (0,), (0,))


def _pairs(edges):
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def _valid_by_definition(n, adj):
    # strictly increasing, in range, loop-free and symmetric, read off sets
    rows = [list(near) for near in adj]
    return (len(rows) == n
            and all(row == sorted(set(row)) for row in rows)
            and all(0 <= v < n and v != u for u, row in enumerate(rows)
                    for v in row)
            and all(u in rows[v] for u, row in enumerate(rows) for v in row))


def _check_tuples(g, edges):
    # strictly increasing tuples, and edges() lists each given edge once
    assert type(g.adj) is tuple
    assert all(type(near) is tuple and list(near) == sorted(set(near))
               for near in g.adj)
    assert list(g.edges()) == _pairs(edges)
    assert _valid_by_definition(g.n, g.adj)


@pytest.mark.parametrize("n, edges", [
    (0, []),
    (3, [(2, 0), (1, 0)]),
    (4, [(0, 1), (1, 0), (3, 2), (0, 1), (2, 3)]),
    (5, [(4, 0), (0, 1), (1, 2), (2, 3), (3, 4)]),
    (6, [(u, v) for u in range(6) for v in range(6) if u != v]),
])
def test_from_edges_builds_strictly_increasing_tuples(n, edges):
    _check_tuples(Graph.from_edges(n, edges), edges)
    _check_tuples(Graph.from_edges(n, iter(edges)), edges)
    # list-shaped edges, as given and each written low id first
    for rows in ([list(e) for e in edges], [sorted(e) for e in edges]):
        _check_tuples(Graph.from_edges(n, rows), edges)
    lines = "".join(f"{u} {v}\n" for u, v in edges)
    _check_tuples(parse_edge_list(f"{n} {len(edges)}\n{lines}"), edges)


@pytest.mark.parametrize("g", [
    gen_cycle(7), gen_star(5), gen_null(3), gen_c5_copies(3),
    gen_random(30, 0.2, 3), gen_random(12, 1.0, 1),
    gen_disjoint_union([gen_star(2), gen_null(1), gen_cycle(4)]),
], ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_generators_build_strictly_increasing_tuples(g):
    _check_tuples(g, list(g.edges()))
    # the same graph from its edges in any order and orientation
    assert Graph.from_edges(g.n, [(v, u) for u, v in g.edges()][::-1]) == g


def test_generator_edges_are_unchanged():
    assert list(gen_cycle(5).edges()) == [(0, 1), (0, 4), (1, 2), (2, 3),
                                          (3, 4)]
    assert list(gen_star(3).edges()) == [(0, 1), (0, 2), (0, 3)]
    assert list(gen_disjoint_union([gen_star(1), gen_cycle(3)]).edges()) == [
        (0, 1), (2, 3), (2, 4), (3, 4)]
    rng = random.Random(5)
    assert list(gen_random(12, 0.3, 5).edges()) == [
        (u, v) for u in range(12) for v in range(u + 1, 12)
        if rng.random() < 0.3]


def test_neighbors_share_one_int_per_vertex():
    # ids above 256 are not cached by Python: every entry for vertex v must
    # still be the one object the graph keeps for v
    n = 700
    text = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))
    g = parse_edge_list(text)
    objects = {}
    for near in g.adj:
        for v in near:
            assert objects.setdefault(v, v) is v
    assert len(objects) == n


def test_gen_disjoint_union_two_c5():
    g = gen_disjoint_union([gen_cycle(5), gen_cycle(5)])
    assert g.n == 10 and g.edge_count() == 10
    assert _valid_by_definition(g.n, g.adj)


def test_gen_c5_copies_matches_union():
    assert list(gen_c5_copies(2).edges()) == list(
        gen_disjoint_union([gen_cycle(5), gen_cycle(5)]).edges()
    )


def test_union_preserves_counts():
    parts = [gen_star(2), gen_cycle(4), gen_null(3)]
    g = gen_disjoint_union(parts)
    assert g.n == sum(p.n for p in parts)
    assert g.edge_count() == sum(p.edge_count() for p in parts)


def test_gen_random_deterministic():
    a = gen_random(12, 0.3, seed=7)
    b = gen_random(12, 0.3, seed=7)
    assert a == b
    assert a != gen_random(12, 0.3, seed=8)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 20), p=st.floats(0, 1), seed=st.integers(0, 10**6))
def test_generated_graphs_meet_the_definition(n, p, seed):
    g = gen_random(n, p, seed)
    assert _valid_by_definition(g.n, g.adj)


def test_edge_list_round_trip():
    g = gen_random(10, 0.4, seed=5)
    assert parse_edge_list(to_edge_list(g)) == g


def test_order_zero_graph():
    g = parse_edge_list("0 0\n")
    assert g.n == 0 and g.adj == ()
    assert _valid_by_definition(g.n, g.adj)


def test_from_edges_agrees_with_the_definition():
    # random graphs with one entry added, dropped, moved or repeated, read as
    # edge lists: from_edges refuses exactly an out-of-range id or a loop,
    # and otherwise builds valid rows holding every listed edge once
    rng = random.Random(26)
    verdicts = set()
    for trial in range(600):
        g = gen_random(rng.randrange(1, 9), rng.choice((0.2, 0.5, 0.9)), trial)
        rows = [list(near) for near in g.adj]
        u = rng.randrange(g.n)
        kind = rng.randrange(5)
        if kind == 0:
            rows[u].append(rng.randrange(-1, g.n + 1))
        elif kind == 1 and rows[u]:
            rows[u].pop(rng.randrange(len(rows[u])))
        elif kind == 2:
            rng.shuffle(rows[u])
        elif kind == 3 and rows[u]:
            rows[u].insert(0, rng.choice(rows[u]))
        edges = [(u, v) for u, row in enumerate(rows) for v in row]
        bad = any(not 0 <= v < g.n or v == u for u, v in edges)
        verdicts.add(bad)
        try:
            h = Graph.from_edges(g.n, edges)
        except ValueError:
            assert bad, rows
        else:
            assert not bad, rows
            assert _valid_by_definition(h.n, h.adj)
            assert list(h.edges()) == _pairs(edges)
    assert verdicts == {True, False}


def _sparse_edge_list(n, seed):
    # a random tree on n - n/20 vertices, n/8 chords and n/20 pendant leaves
    rng = random.Random(seed)
    core = n - n // 20
    edges = {(rng.randrange(v), v) for v in range(1, core)}
    while len(edges) < core - 1 + n // 8:
        edges.add(tuple(sorted(rng.sample(range(core), 2))))
    edges |= {(c, leaf) for leaf, c in enumerate(
        sorted(rng.sample(range(core), n - core)), start=core)}
    lines = "".join(f"{u} {v}\n" for u, v in sorted(edges))
    return f"{n} {len(edges)}\n{lines}", len(edges)


def test_parsed_graph_memory_per_vertex_and_edge_end():
    # Space gate: n ints and one tuple entry per edge end are kept, not a
    # set per vertex and an int per edge end (100 and 192 bytes per unit
    # with frozensets of the parser's ints).
    n = 5600
    text, m = _sparse_edge_list(n, 5600)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = parse_edge_list(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert g.n == n and g.edge_count() == m
    units = n + 2 * m
    assert (retained - base) / units <= 50
    assert (peak - base) / units <= 130
