import hashlib
import itertools
import random

import pytest

from romandom import (ExtensionInstance, Graph, ext_po_rd, ext_rd,
                      format_assignment, gen_cycle, gen_ext_po_rd,
                      gen_ext_rd, gen_null, gen_random, is_minimal_rdf,
                      is_po_minimal_rdf, is_rdf, project_grdf)
from romandom import rdf
from romandom.enum_refined import SearchState
from romandom.grdf import ACTIVE, NOT_ONE, NOT_TWO
from romandom.oracle import brute_minimal_rdfs
from romandom.rdf import (COND_MINIMAL_DS, COND_NO_ONE_NEXT_TO_TWO,
                          COND_PRIVACY, minimality_report, two_counts)
from support import brute_ext, leq_po, leq_standard, two_set


def test_ext_rd_star_all_zeros(k13):
    witness = ext_rd(k13, (0, 0, 0, 0))
    assert witness is not None
    assert is_minimal_rdf(k13, witness)


def test_ext_rd_no_witness_above(p2):
    assert ext_rd(p2, (1, 2)) is None


def test_ext_rd_fixed_point_on_minimal(c5):
    f = (2, 0, 2, 0, 0)
    assert ext_rd(c5, f) == f


def test_ext_rd_fills_isolated_with_one():
    g = gen_null(3)
    assert ext_rd(g, (0, 0, 0)) == (1, 1, 1)


def test_gen_ext_rd_all_forbidden(p2):
    inst = ExtensionInstance(p2, (0, 0), frozenset({0, 1}))
    assert gen_ext_rd(inst) == (1, 1)


def test_gen_ext_rd_promotion_hits_forbidden(p2):
    # saturation would promote vertex 1, which is barred from value 2
    inst = ExtensionInstance(p2, (2, 1), frozenset({1}))
    assert gen_ext_rd(inst) is None


def test_gen_ext_rd_empty_forbidden_matches_ext_rd(p2):
    for f in itertools.product((0, 1, 2), repeat=2):
        inst = ExtensionInstance(p2, f, frozenset())
        assert gen_ext_rd(inst) == ext_rd(p2, f)


def test_ext_po_rd_null_graph():
    g = gen_null(3)
    assert ext_po_rd(g, (1, 2, 0)) == (1, 2, 1)


def test_ext_po_rd_rejects_one_next_to_two(p2):
    assert ext_po_rd(p2, (2, 2)) is None
    assert ext_po_rd(p2, (1, 2)) is None


def test_ext_po_rd_fixed_point_on_po_minimal(c5):
    f = (1, 1, 1, 1, 1)
    assert ext_po_rd(c5, f) == f


def test_instance_rejects_length_mismatch(p2):
    with pytest.raises(ValueError):
        ExtensionInstance(p2, (0, 0, 0), frozenset())


@pytest.mark.parametrize("solver", [ext_rd, ext_po_rd])
def test_solvers_reject_length_mismatch(solver):
    for f in ((0, 0, 0), (0,) * 7):
        with pytest.raises(ValueError, match="does not match graph order"):
            solver(gen_cycle(5), f)


@pytest.mark.parametrize("solver", [ext_rd, ext_po_rd])
@pytest.mark.parametrize("f", [(0, -1), (3, 0), (0.0, 2), (None, 0)])
def test_solvers_reject_values_outside_012(p2, solver, f):
    with pytest.raises(ValueError, match="must be 0, 1 or 2"):
        solver(p2, f)


@pytest.mark.parametrize("forbidden", [{5}, {-1}, {0, 2}])
def test_instance_rejects_forbidden_out_of_range(p2, forbidden):
    with pytest.raises(ValueError, match="must lie in") as info:
        ExtensionInstance(p2, (0, 0), frozenset(forbidden))
    # the message names exactly the offending ids
    assert str(info.value).endswith(str(sorted(forbidden - {0, 1})))


def test_instance_keeps_its_two_set():
    # the solver copies the 2-set it was built with: saturation appends
    # to the copy, so the instance answers the same every time
    inst = ExtensionInstance(gen_cycle(5), (2, 1, 0, 0, 0), frozenset())
    assert gen_ext_rd(inst) == gen_ext_rd(inst) == ext_rd(gen_cycle(5),
                                                          inst.values)
    assert gen_ext_rd(inst) is not None


def test_instance_rejects_forbidden_two(p2):
    with pytest.raises(ValueError):
        ExtensionInstance(p2, (2, 0), frozenset({0}))


def test_project_grdf_examples(p2):
    inst = project_grdf(p2, SearchState(p2, [2, NOT_ONE]))
    assert inst.values == (2, 0) and inst.forbidden == frozenset()
    inst = project_grdf(p2, SearchState(p2, [NOT_TWO, ACTIVE]))
    assert inst.values == (0, 0) and inst.forbidden == frozenset({0})
    inst = project_grdf(p2, SearchState(p2, [ACTIVE] * 2))
    assert inst.values == (0, 0) and inst.forbidden == frozenset()


def test_witness_saturation_invariant():
    rng = random.Random(11)
    for _ in range(40):
        g = gen_random(7, 0.3, rng.randrange(10**6))
        f = tuple(rng.choice((0, 0, 1, 2)) for _ in range(g.n))
        witness = ext_rd(g, f)
        if witness is None:
            continue
        for v in range(g.n):
            if witness[v] == 1:
                assert all(witness[u] != 2 for u in g.adj[v])


def _check_standard(g, f, forbidden, minimal):
    inst = ExtensionInstance(g, f, forbidden)
    witness = gen_ext_rd(inst) if forbidden else ext_rd(g, f)
    expect = brute_ext(g, f, forbidden, minimal=minimal)
    assert (witness is not None) == expect, (f, forbidden)
    if witness is not None:
        assert leq_standard(f, witness)
        assert is_minimal_rdf(g, witness)
        assert forbidden.isdisjoint(two_set(g, witness))


def _check_po(g, f, forbidden, minimal):
    inst = ExtensionInstance(g, f, forbidden)
    witness = gen_ext_po_rd(inst) if forbidden else ext_po_rd(g, f)
    expect = brute_ext(g, f, forbidden, order="po", minimal=minimal)
    assert (witness is not None) == expect, (f, forbidden)
    if witness is not None:
        assert leq_po(f, witness)
        assert is_po_minimal_rdf(g, witness)
        assert forbidden.isdisjoint(two_set(g, witness))


def test_solvers_agree_with_oracle_exhaustive(catalog5):
    for g in catalog5:
        std = list(brute_minimal_rdfs(g))
        po = list(brute_minimal_rdfs(g, order="po"))
        for f in itertools.product((0, 1, 2), repeat=g.n):
            _check_standard(g, f, frozenset(), std)
            _check_po(g, f, frozenset(), po)


def test_solvers_agree_with_oracle_sampled_forbidden():
    rng = random.Random(23)
    for trial in range(30):
        g = gen_random(6 + trial % 3, 0.3, rng.randrange(10**6))
        std = list(brute_minimal_rdfs(g))
        po = list(brute_minimal_rdfs(g, order="po"))
        for _ in range(20):
            f = tuple(rng.choice((0, 0, 1, 2)) for _ in range(g.n))
            pool = [v for v in range(g.n) if f[v] != 2]
            forbidden = frozenset(rng.sample(pool, min(len(pool),
                                                       rng.randrange(4))))
            _check_standard(g, f, forbidden, std)
            _check_po(g, f, forbidden, po)


# List-based references for the solvers and the checkers: each scans all
# of V in Python, copies f, and reads the witness and the domination test
# off the whole count list.

def _solve_reference(g, f, forbidden, po):
    adj = g.adj
    out = list(f)
    m2 = [v for v, x in enumerate(f) if x == 2]
    if po:
        if any(out[u] == 1 for v in m2 for u in adj[v]):
            return None
    else:
        stack = list(m2)
        while stack:
            for u in adj[stack.pop()]:
                if out[u] == 1:
                    if u in forbidden:
                        return None
                    out[u] = 2
                    m2.append(u)
                    stack.append(u)
    c = two_counts(adj, m2)
    for v in m2:
        if not (po and c[v] == 1) and not any(c[u] == 1 for u in adj[v]):
            return None
    out = [0 if x else 1 for x in c]
    for v in m2:
        out[v] = 2
    return tuple(out)


def _report_reference(g, f, order):
    v2 = [v for v, x in enumerate(f) if x == 2]
    c = two_counts(g.adj, v2)
    failed = []
    if any(f[u] == 1 for v in v2 for u in g.adj[v]):
        failed.append(COND_NO_ONE_NEXT_TO_TWO)
    open_private = [any(c[u] == 1 and f[u] == 0 for u in g.adj[v])
                    for v in v2]
    if order == "standard" and not all(open_private):
        failed.append(COND_PRIVACY)
    dominated = all(c[w] for w, x in enumerate(f) if x == 0)
    irredundant = all(p or c[v] == 1 for v, p in zip(v2, open_private))
    if not (dominated and irredundant):
        failed.append(COND_MINIMAL_DS)
    return failed


def _is_rdf_reference(g, f):
    return all(any(f[u] == 2 for u in g.adj[v])
               for v in range(g.n) if f[v] == 0)


def _assert_matches_reference(g, f, forbidden):
    """All four solvers and both checkers agree with the references on f,
    and the checkers also on every witness."""
    inst = ExtensionInstance(g, f, forbidden)
    witnesses = [
        (ext_rd(g, f), _solve_reference(g, f, frozenset(), False)),
        (ext_po_rd(g, f), _solve_reference(g, f, frozenset(), True)),
        (gen_ext_rd(inst), _solve_reference(g, f, forbidden, False)),
        (gen_ext_po_rd(inst), _solve_reference(g, f, forbidden, True)),
    ]
    for got, want in witnesses:
        assert got == want, (f, forbidden)
    for h in [f] + [w for w, _ in witnesses if w is not None]:
        for order, check in (("standard", is_minimal_rdf),
                             ("po", is_po_minimal_rdf)):
            want = _report_reference(g, h, order)
            assert minimality_report(g, h, order) == want, (h, order)
            assert check(g, h) == (not want), (h, order)
        assert is_rdf(g, h) == _is_rdf_reference(g, h), h


def test_solvers_and_checkers_match_list_reference_small():
    rng = random.Random(29)
    for _ in range(2000):
        n = rng.randint(1, 12)
        g = gen_random(n, rng.random() * 0.6, rng.randrange(10**6))
        weights = rng.choice(((1, 1, 1), (4, 1, 1), (6, 1, 2), (2, 1, 4)))
        f = tuple(rng.choices((0, 1, 2), weights, k=n))
        pool = [v for v in range(n) if f[v] != 2]
        forbidden = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
        _assert_matches_reference(g, f, forbidden)


def _planted(n, seed):
    """A random sparse core (a tree plus n/8 chords) and n/20 centres in
    it, each with a pendant leaf of its own."""
    rng = random.Random(seed)
    k = n // 20
    core = n - k
    edges = [(rng.randrange(v), v) for v in range(1, core)]
    edges += [tuple(rng.sample(range(core), 2)) for _ in range(n // 8)]
    centres = sorted(rng.sample(range(core), k))
    edges += [(c, core + j) for j, c in enumerate(centres)]
    return Graph.from_edges(n, edges), centres


def test_solvers_and_checkers_match_list_reference_planted():
    n = 2000
    g, centres = _planted(n, 3)
    rng = random.Random(5)
    twos = [0] * n
    for c in centres:
        twos[c] = 2
    witness = ext_rd(g, tuple(twos))
    assert witness is not None
    others = [v for v in range(n) if twos[v] != 2]
    barred = frozenset(rng.sample(others, len(others) // 10))
    inputs = [tuple(twos), (0,) * n, witness]
    for _ in range(3):
        crowded = list(twos)  # a centre with no private neighbour left
        for u in g.adj[rng.choice(centres)]:
            crowded[u] = 2
        one = list(twos)  # a 1 next to a centre
        one[rng.choice(sorted(g.adj[rng.choice(centres)]))] = 1
        perturbed = list(witness)  # a 0 raised to 1 next to a 2
        perturbed[rng.choice(sorted(g.adj[rng.choice(centres)]))] = 1
        inputs += [tuple(crowded), tuple(one), tuple(perturbed)]
    for f in inputs:
        for forbidden in (frozenset(), barred - {v for v in barred
                                                  if f[v] == 2}):
            _assert_matches_reference(g, f, forbidden)


# The solvers read privacy off the counts alone: c[u] == 1 marks a private
# neighbour u because every neighbour of the 2-set outside it is a 0 and a
# 2 next to a 2 counts at least 2.  Each case below checks that on a shape
# that the random cases above rarely or never draw.

def _solve_all(g, f, forbidden=frozenset()):
    _assert_matches_reference(g, f, forbidden)
    inst = ExtensionInstance(g, f, forbidden)
    return ext_rd(g, f), ext_po_rd(g, f), gen_ext_rd(inst), gen_ext_po_rd(inst)


@pytest.mark.parametrize("own_leaf", [False, True])
def test_shared_hub_is_no_private_neighbour(own_leaf):
    # hub 0 next to the 2s 1, 2, 3; the 2s 2, 3 and 4 have leaves 5, 6, 7.
    # The 2 at 1 touches only the hub (count 3) and the 2 at 4, and counts
    # 2 itself, so it fails both orders unless it gets a leaf (8) of its own.
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7)]
    f = (0, 2, 2, 2, 2, 0, 0, 0) + (0,) * own_leaf
    g = Graph.from_edges(len(f), edges + [(1, 8)] * own_leaf)
    answers = _solve_all(g, f)
    if own_leaf:
        assert answers == (f,) * 4
    else:
        assert answers == (None,) * 4
        assert two_counts(g.adj, [1, 2, 3, 4])[:2] == [3, 2]


@pytest.mark.parametrize("own_leaf", [False, True])
def test_saturation_raises_a_one_next_to_a_hub(own_leaf):
    # The 1 at 3 sits next to the 2 at 1 and the hub 0: saturation makes it
    # a 2, so the hub counts 3 and the raised vertex 2 (itself and 1).  The
    # 2 at 1 keeps its leaf 4; the raised 3 has no private neighbour unless
    # it gets a leaf (6) of its own.
    edges = [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 5)]
    f = (0, 2, 2, 1, 0, 0) + (0,) * own_leaf
    g = Graph.from_edges(len(f), edges + [(3, 6)] * own_leaf)
    std, po, gen, gen_po = _solve_all(g, f)
    assert po is gen_po is None  # a 1 next to a 2
    assert std == gen == ((0, 2, 2, 2, 0, 0, 0) if own_leaf else None)
    assert _solve_all(g, f, frozenset({3}))[::2] == (std, None)


def test_isolated_two_is_private_to_itself_under_po():
    # The 2s at 0, 2 and 4 of P5 leave 1 and 3 with count 2, so none has an
    # external private neighbour; each counts 1 itself, which the PO order
    # accepts.  Likewise the isolated 2 at 5.
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
    f = (2, 0, 2, 0, 2, 2)
    assert _solve_all(g, f) == (None, f, None, f)
    assert _solve_all(g, (0, 0, 0, 0, 0, 2)) == (
        None, (1, 1, 1, 1, 1, 2), None, (1, 1, 1, 1, 1, 2))


def test_empty_two_set_gives_all_ones():
    g = gen_cycle(6)
    for f in ((0,) * 6, (1, 0, 1, 0, 0, 1)):
        assert _solve_all(g, f, frozenset({0, 3})) == ((1,) * 6,) * 4
    assert _solve_all(gen_null(0), ()) == ((),) * 4


def test_solve_leaves_the_instance_two_set_alone():
    # saturation appends to a copy of the 2-set, also when it then meets a
    # forbidden vertex and answers NO
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
    for forbidden, want in ((frozenset(), (0, 2, 2, 0, 2, 0)),
                            (frozenset({4}), None)):
        inst = ExtensionInstance(g, (0, 2, 1, 0, 1, 0), forbidden)
        assert gen_ext_rd(inst) == want
        assert inst._v2 == [1]
        assert gen_ext_rd(inst) == want


@pytest.mark.parametrize("planted", [False, True])
def test_checkers_stop_at_a_one_next_to_a_two(monkeypatch, planted):
    # A 1 next to a 2 decides both checkers before any counting; the
    # report goes on to every condition that fails, in report order.
    if planted:
        g, centres = _planted(2000, 11)
        twos = [0] * g.n
        for c in centres:
            twos[c] = 2
        f = list(ext_rd(g, tuple(twos)))
        f[g.n - len(centres)] = 1  # the pendant leaf of the first centre
        f = tuple(f)
    else:
        g, f = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), (1, 2, 2, 0)
    reports = [minimality_report(g, f, order) for order in ("standard", "po")]
    assert reports == [_report_reference(g, f, order)
                       for order in ("standard", "po")]
    assert all(r[0] == COND_NO_ONE_NEXT_TO_TWO for r in reports)
    if not planted:
        assert reports == [[COND_NO_ONE_NEXT_TO_TWO, COND_PRIVACY,
                            COND_MINIMAL_DS],
                           [COND_NO_ONE_NEXT_TO_TWO, COND_MINIMAL_DS]]

    def refuse(*args):
        raise AssertionError("two_counts reached")

    monkeypatch.setattr(rdf, "two_counts", refuse)
    assert is_minimal_rdf(g, f) is False
    assert is_po_minimal_rdf(g, f) is False
    with pytest.raises(AssertionError, match="two_counts reached"):
        minimality_report(g, f)


def test_large_sparse_witnesses_are_minimal():
    # Sparse 2-sets on G(3000, 0.001): random ones (mostly NO), and packed
    # ones, whose closed neighbourhoods are disjoint so that every 2 keeps
    # its neighbours private, with random 1s outside N[V2] (YES).
    n = 3000
    g = gen_random(n, 0.001, 17)
    rng = random.Random(17)
    found = 0
    for share in (100, 50, 20, 10):
        for packed in (False, True):
            twos, taken = [], set()
            for v in rng.sample(range(n), n):
                near = set(g.adj[v]) | {v}
                if not packed or (g.adj[v] and taken.isdisjoint(near)):
                    twos.append(v)
                    taken |= near
                if len(twos) == n // share:
                    break
            f = [0] * n
            if packed:
                for v in rng.sample(range(n), n // 50):
                    f[v] = 0 if v in taken else 1
            for v in twos:
                f[v] = 2
            f = tuple(f)
            for solver, check, leq in ((ext_rd, is_minimal_rdf, leq_standard),
                                       (ext_po_rd, is_po_minimal_rdf, leq_po)):
                witness = solver(g, f)
                if witness is not None:
                    found += 1
                    assert leq(f, witness) and check(g, witness)
    assert found >= 8


def test_witnesses_digest():
    # pins every witness of the four solvers on a seeded instance set:
    # small G(n, p) with 0s only, 0s and 1s, 0s and 2s or all three
    # values, forbidden sets, and a planted graph of order 2000; the
    # answers include YES and NO for each solver
    rng = random.Random(3101)
    cases = []
    for _ in range(400):
        n = rng.randint(1, 40)
        g = gen_random(n, rng.choice((0.05, 0.15, 0.3)), rng.randrange(10**6))
        weights = rng.choice(((1, 0, 0), (3, 1, 0), (3, 0, 1), (4, 1, 1),
                              (2, 1, 4)))
        cases.append((g, tuple(rng.choices((0, 1, 2), weights, k=n))))
    g, centres = _planted(2000, 7)
    twos = [0] * g.n
    for c in centres:
        twos[c] = 2
    cases += [(g, (0,) * g.n), (g, tuple(twos)), (g, ext_rd(g, tuple(twos)))]
    digest = hashlib.sha256()
    answers = {solver: set() for solver in ("ext", "po", "gen", "gen_po")}
    for g, f in cases:
        pool = [v for v in range(g.n) if f[v] != 2]
        forbidden = frozenset(rng.sample(pool, rng.randint(0, len(pool) // 2)))
        inst = ExtensionInstance(g, f, forbidden)
        got = {"ext": ext_rd(g, f), "po": ext_po_rd(g, f),
               "gen": gen_ext_rd(inst), "gen_po": gen_ext_po_rd(inst)}
        for solver, witness in got.items():
            answers[solver].add(witness is not None)
        digest.update(",".join("NO" if w is None else format_assignment(w)
                               for w in got.values()).encode() + b";")
    assert all(seen == {True, False} for seen in answers.values())
    # recorded before rdf._scan returned early on an f with no 2
    assert digest.hexdigest() == (
        "fb49054aab1011c591415380db7240dec1b832f0099e2a53f63ea665ab0f0ce4")
