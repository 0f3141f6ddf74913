from romandom import (enumerate_minimal_rdf_simple, enumerate_po_minimal_simple,
                      extend_from_v2, gen_c5_copies, gen_null, gen_star,
                      is_minimal_rdf, is_po_minimal_rdf)
from romandom.oracle import brute_minimal_rdfs
from romandom.rdf import format_assignment, level_sets


def _collect(enumerator, g):
    out = []
    stats = enumerator(g, out.append)
    return out, stats


def test_extend_from_v2_c5(c5):
    assert extend_from_v2(c5, {0}) == (2, 0, 1, 1, 0)


def test_extend_from_v2_empty_set(c5):
    assert extend_from_v2(c5, set()) == (1, 1, 1, 1, 1)


def test_extend_from_v2_privacy_failure(p2):
    assert extend_from_v2(p2, {0, 1}) is None


def test_simple_c5_count(c5):
    out, stats = _collect(enumerate_minimal_rdf_simple, c5)
    assert len(out) == 16 and stats.solutions == 16


def test_simple_leaves_reduction_counters_empty(c5):
    # rule fires and prunes belong to the refined search only
    for enumerate_ in (enumerate_minimal_rdf_simple,
                       enumerate_po_minimal_simple):
        _, stats = _collect(enumerate_, c5)
        assert stats.rule_fires == {} and stats.prunes == 0


def test_simple_k1():
    out, _ = _collect(enumerate_minimal_rdf_simple, gen_null(1))
    assert out == [(1,)]


def test_simple_c5pow2_count():
    out, _ = _collect(enumerate_minimal_rdf_simple, gen_c5_copies(2))
    assert len(out) == 256


def test_simple_order_and_uniqueness(c5):
    out, _ = _collect(enumerate_minimal_rdf_simple, c5)
    masks = [sum(1 << v for v in level_sets(f).v2) for f in out]
    assert masks == sorted(masks)
    assert len(set(masks)) == len(masks)


def test_simple_outputs_are_minimal(catalog5):
    for g in catalog5:
        out, _ = _collect(enumerate_minimal_rdf_simple, g)
        assert all(is_minimal_rdf(g, f) for f in out)
        assert sorted(out) == brute_minimal_rdfs(g)


def test_po_star_counts():
    for n in (2, 3, 4):
        out, _ = _collect(enumerate_po_minimal_simple, gen_star(n))
        assert len(out) == 2 ** n + 1


def test_po_null3_all_over_one_two():
    out, _ = _collect(enumerate_po_minimal_simple, gen_null(3))
    assert len(out) == 8
    assert all(set(f) <= {1, 2} for f in out)


def test_po_k1():
    out, _ = _collect(enumerate_po_minimal_simple, gen_null(1))
    assert sorted(format_assignment(f) for f in out) == ["1", "2"]


def test_po_matches_oracle_and_delay(catalog5):
    for g in catalog5:
        out, stats = _collect(enumerate_po_minimal_simple, g)
        assert sorted(out) == brute_minimal_rdfs(g, order="po")
        assert len(set(out)) == len(out)
        assert all(is_po_minimal_rdf(g, f) for f in out)
        assert stats.max_gap <= 2 * g.n
