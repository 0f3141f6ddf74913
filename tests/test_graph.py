import random

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
        ball = {v} | g.adj[v]
        for u in g.adj[v]:
            ball |= g.adj[u]
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


@pytest.mark.parametrize("n, edges, message", [
    (-1, [], "vertex count must be non-negative"),
    (3, [(0, 3)], "edge (0,3) out of range for n=3"),
    (3, [(1, 1)], "self-loop at vertex 1"),
])
def test_from_edges_rejects(n, edges, message):
    with pytest.raises(ValueError) as exc:
        Graph.from_edges(n, edges)
    assert message in str(exc.value)


@pytest.mark.parametrize("n, adj, message", [
    (3, [{1}, {0}], "adjacency length does not match vertex count"),
    (2, [{1}, {0, 2}], "neighbor 2 of 1 out of range"),
    (2, [{0, 1}, {0}], "self-loop at 0"),
    (3, [{1}, {0, 2}, set()], "asymmetric edge (1,2)"),
])
def test_validate_rejects_hand_built_adjacency(n, adj, message):
    # the bit sets, which every search reads first, refuse it the same way
    g = Graph(n, tuple(frozenset(near) for near in adj))
    for build in (g.validate, lambda: g.nbr, lambda: g.ball2):
        with pytest.raises(ValueError) as exc:
            build()
        assert message in str(exc.value)


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
    assert g.adj[0] == frozenset({1, 2, 3})
    assert all(g.adj[i] == frozenset({0}) for i in (1, 2, 3))


def test_gen_disjoint_union_two_c5():
    g = gen_disjoint_union([gen_cycle(5), gen_cycle(5)])
    assert g.n == 10 and g.edge_count() == 10
    g.validate()


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
def test_generated_graphs_validate(n, p, seed):
    g = gen_random(n, p, seed)
    g.validate()


def test_edge_list_round_trip():
    g = gen_random(10, 0.4, seed=5)
    assert parse_edge_list(to_edge_list(g)) == g


def test_order_zero_graph():
    g = parse_edge_list("0 0\n")
    assert g.n == 0
    g.validate()
