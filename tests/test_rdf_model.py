import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romandom import (gen_cycle, gen_null, gen_random, gen_star,
                      is_minimal_rdf, is_po_minimal_rdf, is_rdf)
from romandom.graph import Graph
from romandom.oracle import brute_minimal_rdfs
from romandom.rdf import (COND_MINIMAL_DS, COND_NO_ONE_NEXT_TO_TWO,
                          COND_PRIVACY, format_assignment,
                          minimality_report, parse_assignment)
from support import leq_po, leq_standard, two_set


def test_is_rdf_p2(p2):
    assert is_rdf(p2, (2, 0))
    assert not is_rdf(p2, (0, 1))


def test_is_rdf_c5(c5):
    assert is_rdf(c5, (2, 0, 1, 1, 0))


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


@pytest.mark.parametrize("check", [minimality_report, is_minimal_rdf,
                                   is_po_minimal_rdf, is_rdf])
def test_checkers_reject_length_mismatch(check):
    for f in ((0, 0, 0), (0,) * 7):
        with pytest.raises(ValueError, match="does not match graph order"):
            check(gen_cycle(5), f)


@pytest.mark.parametrize("check, f", [
    (minimality_report, (3, 2)),
    (is_rdf, (0.0, 2)),
    (is_minimal_rdf, (0, -1)),
    (is_po_minimal_rdf, (2, 256)),
    (is_rdf, "02"),
])
def test_checkers_reject_values_outside_012(p2, check, f):
    with pytest.raises(ValueError, match="must be 0, 1 or 2"):
        check(p2, f)


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


def test_parse_assignment_long_text_and_refusal_order():
    # 140,000 digits, as README's stdin example; the length is checked
    # before the digits, and every character outside {0,1,2} is refused,
    # ASCII or not
    text = "0120" * 35_000
    assert parse_assignment(text, 140_000) == tuple(map(int, text))
    with pytest.raises(ValueError, match="^assignment length 3 != graph "
                                         "order 4$"):
        parse_assignment("\uff12a\x00", 4)
    for bad in ("\uff12", "3", "a", "\x00"):
        with pytest.raises(ValueError) as exc:
            parse_assignment("01" + bad, 3)
        assert str(exc.value) == "assignment must be a string over {0,1,2}"


def test_format_assignment_round_trip():
    rng = random.Random(13)
    for n in range(41):
        f = tuple(rng.randrange(3) for _ in range(n))
        text = format_assignment(f)
        assert text == "".join(str(v) for v in f)
        assert parse_assignment(text, n) == f
    assert format_assignment([2, 0, 1]) == "201"


def test_two_set_ascending():
    g = gen_null(5)
    assert two_set(g, (0, 1, 2, 1, 2)) == [2, 4]
    assert two_set(g, (2, 2, 2, 2, 2)) == [0, 1, 2, 3, 4]
    assert two_set(g, (0, 1, 0, 1, 1)) == []
    assert two_set(gen_null(0), ()) == []
    assert two_set(g, (2, 0, 1, 0, 2)) == [0, 4]  # at both ends
    assert two_set(gen_null(7), (0, 2, 2, 1, 2, 2, 2)) == [1, 2, 4, 5, 6]
    rng = random.Random(119)
    for _ in range(500):
        n = rng.randint(0, 40)
        f = tuple(rng.choices((0, 1, 2), rng.choice(((1, 1, 1), (5, 1, 1),
                                                     (1, 1, 5))), k=n))
        assert two_set(gen_null(n), f) == [i for i, x in enumerate(f)
                                           if x == 2], f


def _agreement(g: Graph):
    std = set(brute_minimal_rdfs(g))
    po = set(brute_minimal_rdfs(g, order="po"))
    for f in itertools.product((0, 1, 2), repeat=g.n):
        assert is_minimal_rdf(g, f) == (f in std), f
        assert is_po_minimal_rdf(g, f) == (f in po), f
    for f in std | po:
        assert is_rdf(g, f)
    for f in std:
        assert 2 * len(two_set(g, f)) <= g.n
    # distinct minimal rdfs have distinct 2-sets
    twos = [tuple(two_set(g, f)) for f in std]
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
