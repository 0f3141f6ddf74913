import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romandom import (closed_neighborhood, gen_cycle, gen_null, gen_random,
                      gen_star, is_minimal_rdf, is_po_minimal_rdf, is_rdf,
                      leq_po, leq_standard, private_neighbors, weight)
from romandom.graph import Graph
from romandom.oracle import brute_minimal_rdfs
from romandom.rdf import (COND_MINIMAL_DS, COND_NO_ONE_NEXT_TO_TWO,
                          COND_PRIVACY, level_sets, minimality_report,
                          parse_assignment)


def test_weight_star_center_two():
    f = (2, 0, 0, 0, 0)
    assert weight(f) == 2


def test_weight_all_ones():
    assert weight((1,) * 6) == 6


def test_weight_all_zeros():
    assert weight((0, 0, 0)) == 0


def test_is_rdf_p2(p2):
    assert is_rdf(p2, (2, 0))
    assert not is_rdf(p2, (0, 1))


def test_is_rdf_c5(c5):
    assert is_rdf(c5, (2, 0, 1, 1, 0))


def test_private_neighbors_p2(p2):
    assert private_neighbors(p2, {0}, 0) == {0, 1}
    assert private_neighbors(p2, {0, 1}, 0) == set()


def test_private_neighbors_c5(c5):
    assert private_neighbors(c5, {0, 2}, 0) == {4, 0}


def test_private_neighbors_requires_membership(p2):
    with pytest.raises(ValueError):
        private_neighbors(p2, {1}, 0)


def test_minimal_examples(p2, c5):
    assert is_minimal_rdf(c5, (2, 0, 2, 0, 0))
    assert not is_minimal_rdf(p2, (2, 2))
    k1 = gen_null(1)
    assert is_minimal_rdf(k1, (1,))


def test_po_minimal_examples(p2, c5):
    null2 = gen_null(2)
    assert is_po_minimal_rdf(null2, (1, 2))
    assert not is_po_minimal_rdf(p2, (2, 2))
    assert is_po_minimal_rdf(c5, (1, 1, 1, 1, 1))


def test_report_names(p2):
    assert minimality_report(p2, (2, 2)) == [COND_PRIVACY, COND_MINIMAL_DS]
    assert COND_NO_ONE_NEXT_TO_TWO in minimality_report(p2, (1, 2))
    assert minimality_report(p2, (2, 2), order="po") == [COND_MINIMAL_DS]
    # Privacy and irredundance are judged in G[V0 u V2]: a 1-vertex next
    # to a 2-vertex is never its private neighbor.
    assert minimality_report(p2, (2, 1)) == [COND_NO_ONE_NEXT_TO_TWO,
                                             COND_PRIVACY]
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert minimality_report(p4, (1, 2, 2, 0)) == [
        COND_NO_ONE_NEXT_TO_TWO, COND_PRIVACY, COND_MINIMAL_DS]
    assert minimality_report(p4, (1, 2, 2, 0), order="po") == [
        COND_NO_ONE_NEXT_TO_TWO, COND_MINIMAL_DS]


def test_report_rejects_unknown_order(p2):
    with pytest.raises(ValueError):
        minimality_report(p2, (2, 0), order="pointwise")


def test_leq_examples():
    assert leq_standard((0, 1), (2, 1))
    assert not leq_po((1, 0), (2, 0))
    f = (0, 1, 2)
    assert leq_standard(f, f) and leq_po(f, f)


def test_leq_length_mismatch():
    with pytest.raises(ValueError):
        leq_standard((0,), (0, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=8).map(tuple))
def test_leq_po_implies_leq_standard(f):
    lowered = tuple(0 if i % 2 else v for i, v in enumerate(f))
    if leq_po(lowered, f):
        assert leq_standard(lowered, f)


def test_parse_assignment_round_trip():
    assert parse_assignment("20110", 5) == (2, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        parse_assignment("2013", 4)
    with pytest.raises(ValueError):
        parse_assignment("20", 3)


def test_level_sets_partition():
    f = (0, 1, 2, 1, 0)
    ls = level_sets(f)
    assert ls.v0 | ls.v1 | ls.v2 == set(range(5))
    assert not (ls.v0 & ls.v1 or ls.v1 & ls.v2 or ls.v0 & ls.v2)


def _agreement(g: Graph):
    std = set(brute_minimal_rdfs(g))
    po = set(brute_minimal_rdfs(g, order="po"))
    for f in itertools.product((0, 1, 2), repeat=g.n):
        assert is_minimal_rdf(g, f) == (f in std), f
        assert is_po_minimal_rdf(g, f) == (f in po), f
        d = level_sets(f).v2
        for v in d:
            assert private_neighbors(g, d, v) == (
                closed_neighborhood(g, {v}) - closed_neighborhood(g, d - {v})
            ), (f, v)
    for f in std | po:
        assert is_rdf(g, f)
    for f in std:
        assert 2 * len(level_sets(f).v2) <= g.n
    # distinct minimal rdfs have distinct 2-sets
    twos = [level_sets(f).v2 for f in std]
    assert len(set(twos)) == len(twos)


def test_checkers_agree_with_oracle_catalog(catalog5):
    for g in catalog5:
        _agreement(g)


def test_checkers_agree_with_oracle_random():
    for seed in range(20):
        g = gen_random(6 + seed % 3, 0.15 + 0.1 * (seed % 5), seed)
        _agreement(g)


def test_checkers_on_named_graphs():
    for g in (gen_star(4), gen_cycle(6), gen_null(5)):
        _agreement(g)
