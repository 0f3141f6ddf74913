import hashlib
import random
import time

import pytest

from romandom import (EnumStats, ExtensionInstance,
                      enumerate_minimal_rdf_simple, enumerate_po_minimal_simple,
                      ext_rd, gen_c5_copies, gen_cycle, gen_ext_po_rd,
                      gen_null, gen_random, gen_star, is_minimal_rdf,
                      is_po_minimal_rdf)
from romandom.oracle import brute_minimal_rdfs
from romandom.rdf import format_assignment, two_counts
from support import two_set


def _collect(enumerator, g):
    out = []
    stats = enumerator(g, out.append)
    return out, stats


def _rdf_from_counts(c, v2):
    # The rdf with 2-set v2: 0 on the rest of N[v2], 1 outside it.
    out = [0 if x else 1 for x in c]
    for v in v2:
        out[v] = 2
    return tuple(out)


def _sweep_reference(g, sink):
    # The subset sweep before the pruned walk: the extension of the
    # assignment that is 2 on the mask and 0 elsewhere, for every mask of
    # at most n/2 members, in ascending order.
    stats = EnumStats()
    n = g.n
    for mask in range(1 << n):
        if mask.bit_count() > n // 2:
            continue
        f = ext_rd(g, tuple(2 if mask >> v & 1 else 0 for v in range(n)))
        if f is not None:
            sink(f)
            stats.solutions += 1
    return stats


def _po_walk_reference(g, sink):
    # The PO walk before the bit-set walker: recursive, with the PO
    # extension solver deciding every child.
    stats = EnumStats()
    n = g.n
    included: set[int] = set()
    excluded: set[int] = set()
    gap = 0

    def viable() -> bool:
        values = tuple(2 if v in included else 0 for v in range(n))
        inst = ExtensionInstance(g, values, frozenset(excluded))
        return gen_ext_po_rd(inst) is not None

    def walk(depth: int) -> None:
        nonlocal gap
        stats.tree_nodes += 1
        if depth == n:
            sink(_rdf_from_counts(two_counts(g.adj, included), included))
            stats.solutions += 1
            stats.max_gap = max(stats.max_gap, gap)
            gap = 0
            return
        gap += 1
        excluded.add(depth)
        if viable():
            walk(depth + 1)
        excluded.remove(depth)
        included.add(depth)
        if viable():
            walk(depth + 1)
        included.remove(depth)

    walk(0)
    stats.max_gap = max(stats.max_gap, gap)
    return stats


def _assert_walk_bounds(g, stats):
    # flashlight bounds: at most n inner frames lead from any frame to a
    # leaf, and every frame lies on the n + 1 frames of some leaf's path
    assert stats.max_gap <= g.n
    assert stats.tree_nodes <= (g.n + 1) * stats.solutions


def _assert_same_as_reference(g):
    # the sweep reference pins the stream only: it tests masks, not frames
    for enumerator, reference, fields in (
            (enumerate_minimal_rdf_simple, _sweep_reference, ("solutions",)),
            (enumerate_po_minimal_simple, _po_walk_reference,
             ("solutions", "tree_nodes", "max_gap"))):
        out, stats = _collect(enumerator, g)
        ref_out, ref = _collect(reference, g)
        assert out == ref_out
        assert [getattr(stats, k) for k in fields] == [
            getattr(ref, k) for k in fields]
        _assert_walk_bounds(g, stats)


def _frame_walk(g, sink, po, stats=None):
    # The walk before chain descent: one pushed frame per child, exclude
    # child last, and every member of S | {v} tested at every include.
    stats = EnumStats() if stats is None else stats
    n = g.n
    order = range(n) if po else range(n - 1, -1, -1)
    nbr = g.nbr
    bits = [1 << x for x in range(n)]
    near = [m | b for m, b in zip(nbr, bits)]
    test = near if po else nbr
    gap = 0
    stack = [(0, 0, 0, 0)]
    try:
        while stack:
            depth, s, once, twice = stack.pop()
            stats.tree_nodes += 1
            if depth == n:
                sink(tuple([2 if s & b else 0 if once & b else 1
                            for b in bits]))
                stats.solutions += 1
                stats.max_gap = max(stats.max_gap, gap)
                gap = 0
                continue
            gap += 1
            v = order[depth]
            s2, once2 = s | bits[v], once | near[v]
            twice2 = twice | once & near[v]
            private = once2 & ~twice2
            members = s2
            while members:
                low = members & -members
                if not test[low.bit_length() - 1] & private:
                    break
                members ^= low
            if not members:
                stack.append((depth + 1, s2, once2, twice2))
            stack.append((depth + 1, s, once, twice))
    finally:
        stats.max_gap = max(stats.max_gap, gap)
    return stats


_WALKS = ((enumerate_minimal_rdf_simple, False),
          (enumerate_po_minimal_simple, True))


def _assert_same_as_frame_walk(g, walks=_WALKS):
    for enumerator, po in walks:
        out, stats = _walk_leaves(enumerator, g)
        ref_out, ref = _first_leaves(
            lambda sink, st: _frame_walk(g, sink, po, st))
        assert out == ref_out and stats == ref


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
    masks = [sum(1 << v for v in two_set(c5, f)) for f in out]
    assert masks == sorted(masks)
    assert len(set(masks)) == len(masks)


def test_simple_outputs_are_minimal(catalog5):
    for g in catalog5:
        out, _ = _collect(enumerate_minimal_rdf_simple, g)
        assert all(is_minimal_rdf(g, f) for f in out)
        assert sorted(out) == list(brute_minimal_rdfs(g))


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
        assert sorted(out) == list(brute_minimal_rdfs(g, order="po"))
        assert len(set(out)) == len(out)
        assert all(is_po_minimal_rdf(g, f) for f in out)
        assert stats.max_gap <= 2 * g.n


def test_walks_match_references_on_catalog(catalog6):
    for g in catalog6:
        _assert_same_as_reference(g)


def test_walks_match_references_on_random_graphs():
    rng = random.Random(23)
    for n in range(1, 15):
        for p in (0.2, 0.5):
            _assert_same_as_reference(gen_random(n, p, rng.randrange(10**6)))


@pytest.mark.parametrize("g", [gen_star(12), gen_null(12), gen_null(0),
                               gen_c5_copies(3), gen_cycle(14)],
                         ids=["star12", "null12", "null0", "c5pow3",
                              "cycle14"])
def test_walks_match_references_on_families(g):
    _assert_same_as_reference(g)


def test_walks_match_frame_walk_on_catalog7(catalog7):
    # 996 graphs, 853 of them of order 7
    for g in catalog7:
        _assert_same_as_frame_walk(g)


def test_walks_match_frame_walk_on_random_graphs():
    rng = random.Random(29)
    for n in range(1, 21):
        for p in (0.15, 0.3, 0.5):
            _assert_same_as_frame_walk(gen_random(n, p, rng.randrange(10**6)))


@pytest.mark.parametrize("g", [gen_star(1), gen_star(12), gen_null(0),
                               gen_null(1), gen_null(15)],
                         ids=["star1", "star12", "null0", "null1", "null15"])
def test_walks_match_frame_walk_on_families(g):
    _assert_same_as_frame_walk(g)


# Orders on both sides of the 32- and 64-bit machine words of the bit sets
# and of the 4- and 8-byte words of the value vector a leaf is read from.
_BOUNDARY = (3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65)


@pytest.mark.parametrize("rays", _BOUNDARY)
def test_sweep_matches_frame_walk_on_stars_across_boundaries(rays):
    # the PO walk has 2^rays + 1 leaves here; its test takes the first 500
    g = gen_star(rays)
    _assert_same_as_frame_walk(g, _WALKS[:1])
    assert enumerate_minimal_rdf_simple(g, lambda f: None).solutions == (
        rays + 2)


def _first_leaves(walk, limit=None):
    # the stream and counters of a walk whose sink raises at leaf ``limit``
    out = []
    stats = EnumStats()

    def sink(f):
        out.append(f)
        if len(out) == limit:
            raise _Enough

    try:
        walk(sink, stats)
    except _Enough:
        pass
    return out, (stats.solutions, stats.tree_nodes, stats.max_gap)


def _walk_leaves(enumerator, g, limit=None):
    # _first_leaves of a public walk, once its line form (lines=True) is
    # checked to be the tuple form's format_assignment plus "\n", in the
    # same order and with the same counters
    out, stats = _first_leaves(
        lambda sink, st: enumerator(g, sink, stats=st), limit)
    lines, line_stats = _first_leaves(
        lambda sink, st: enumerator(g, sink, stats=st, lines=True), limit)
    assert lines == [format_assignment(f) + "\n" for f in out]
    assert line_stats == stats
    return out, stats


@pytest.mark.parametrize("k", _BOUNDARY)
def test_po_walk_matches_frame_walk_across_boundaries(k):
    for g, count in ((gen_null(k), 2 ** k), (gen_star(k), 2 ** k + 1)):
        out, stats = _walk_leaves(enumerate_po_minimal_simple, g, 500)
        ref_out, ref = _first_leaves(
            lambda sink, st: _frame_walk(g, sink, True, st), 500)
        assert len(out) == min(500, count)
        assert out == ref_out and stats == ref


@pytest.mark.parametrize("g", [gen_random(300, 0.01, s) for s in (1, 2, 3)]
                         + [gen_null(300)],
                         ids=["random300-1", "random300-2", "random300-3",
                              "null300"])
def test_walks_match_frame_walk_on_many_digits(g):
    # a leaf's value vector spans 300 bytes, eighty 30-bit digits of an int;
    # the sweep on the null graph has the one all-1 leaf
    for walk, po in _WALKS:
        out, stats = _walk_leaves(walk, g, 500)
        ref_out, ref = _first_leaves(
            lambda sink, st: _frame_walk(g, sink, po, st), 500)
        assert len(out) == (500 if po or g.edge_count() else 1)
        assert out == ref_out and stats == ref


@pytest.mark.parametrize("enumerator, g, count, digest", [
    (enumerate_minimal_rdf_simple, gen_c5_copies(3), 4096,
     "0ecddd732407df0d"),
    (enumerate_minimal_rdf_simple, gen_cycle(14), 1492, "51054bca94ed4f28"),
    (enumerate_minimal_rdf_simple, gen_random(12, 0.2, 7), 159,
     "07ffe0eb60e81668"),
    (enumerate_po_minimal_simple, gen_star(10), 1025, "e69b07c662cee460"),
    (enumerate_po_minimal_simple, gen_null(10), 1024, "bc9fed786f76e691"),
], ids=["sweep-c5pow3", "sweep-cycle14", "sweep-random12", "po-star10",
        "po-null10"])
def test_walk_stream_golden(enumerator, g, count, digest):
    # pins the ordered stream of both leaf forms, the digest taken over the
    # lines joined by "\n": the bench digests sort the lines
    for lines in (False, True):
        out = []
        enumerator(g, out.append, lines=lines)
        text = "".join(out if lines else
                       (format_assignment(f) + "\n" for f in out))
        assert len(out) == count
        assert hashlib.sha256(text[:-1].encode()).hexdigest()[:16] == digest


def _stats_seen_by_sink(walk, g, stop_at=None):
    # (solutions, tree_nodes, max_gap) as the sink reads them at each call;
    # with stop_at, the sink raises at that call instead
    stats = EnumStats()
    seen = []

    def sink(f):
        seen.append((stats.solutions, stats.tree_nodes, stats.max_gap))
        if len(seen) == stop_at:
            raise _Enough

    if stop_at is None:
        walk(sink, stats)
    else:
        with pytest.raises(_Enough):
            walk(sink, stats)
    return seen, stats


@pytest.mark.parametrize("g", [gen_cycle(9), gen_random(12, 0.3, 4),
                               gen_star(6)], ids=["cycle9", "g12", "star6"])
def test_walk_counters_are_live_and_exact(g):
    for enumerator, po in _WALKS:
        seen, _ = _stats_seen_by_sink(
            lambda sink, st: enumerator(g, sink, stats=st), g)
        ref, _ = _stats_seen_by_sink(
            lambda sink, st: _frame_walk(g, sink, po, st), g)
        assert [s[0] for s in seen] == list(range(len(seen)))
        assert seen == ref


@pytest.mark.parametrize("k", [1, 2, 5, 17])
def test_walk_counters_after_a_raising_sink(k):
    g = gen_cycle(9)
    for enumerator, po in _WALKS:
        _, ref = _stats_seen_by_sink(
            lambda sink, st: _frame_walk(g, sink, po, st), g, k)
        for lines in (False, True):
            _, stats = _stats_seen_by_sink(
                lambda sink, st: enumerator(g, sink, stats=st, lines=lines),
                g, k)
            assert stats.solutions == k - 1
            assert (stats.solutions, stats.tree_nodes, stats.max_gap) == (
                ref.solutions, ref.tree_nodes, ref.max_gap)


@pytest.mark.parametrize("g, sweep, po", [
    (gen_c5_copies(3), (4096, 10921, 15), (4096, 10921, 15)),
    (gen_cycle(14), (1492, 4306, 14), (1893, 5219, 14)),
], ids=["c5pow3", "cycle14"])
def test_walk_stats_golden(g, sweep, po):
    # (solutions, tree_nodes, max_gap), counted in frames by both walks
    for enumerator, expected in ((enumerate_minimal_rdf_simple, sweep),
                                 (enumerate_po_minimal_simple, po)):
        stats = enumerator(g, lambda f: None)
        assert (stats.solutions, stats.tree_nodes, stats.max_gap) == expected


def test_sweep_bounds_on_star1000():
    # sweep only: large stars have 2^k + 1 PO-minimal rdfs.  The minimal
    # ones have 2-set {}, {center} or {ray r}, and the branch that includes
    # ray r has r + 1 frames.
    g = gen_star(1000)
    stats = enumerate_minimal_rdf_simple(g, lambda f: None)
    _assert_walk_bounds(g, stats)
    assert (stats.solutions, stats.tree_nodes) == (1002, 502503)


def test_sweep_bounds_are_tight_on_null_graphs():
    # one solution (all 1s) at the end of the all-exclude path
    for n in (0, 1, 12):
        stats = enumerate_minimal_rdf_simple(gen_null(n), lambda f: None)
        assert (stats.solutions, stats.tree_nodes, stats.max_gap) == (
            1, n + 1, n)


class _Enough(Exception):
    pass


def test_po_walk_has_no_recursion_limit():
    # 1201 levels are past the default recursion limit of 1000
    g = gen_star(1200)
    out = []

    def sink(f):
        out.append(f)
        if len(out) == 3:
            raise _Enough

    with pytest.raises(_Enough):
        enumerate_po_minimal_simple(g, sink)
    assert out[0] == (1,) * 1201 and len(set(out)) == 3
    assert all(is_po_minimal_rdf(g, f) for f in out)


def test_sweep_first_output_is_immediate():
    # after O(n + m) set-up, the first descent of n + 1 frames ends in a leaf
    g = gen_star(2000)
    out = []

    def sink(f):
        out.append(time.perf_counter() - start)
        raise _Enough

    start = time.perf_counter()
    with pytest.raises(_Enough):
        enumerate_minimal_rdf_simple(g, sink)
    assert out[0] < 0.1, f"first output after {out[0]:.3f} s"


def test_sweep_prunes_dead_two_sets():
    # the full mask sweep takes about 7 s here; the pruned walk 0.07 s
    g = gen_random(20, 0.2, 7)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        stats = enumerate_minimal_rdf_simple(g, lambda f: None)
        best = min(best, time.perf_counter() - start)
        assert stats.solutions == 6669
    assert best < 1.0
