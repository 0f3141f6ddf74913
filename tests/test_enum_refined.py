import dataclasses
import hashlib
import json
import random
import time
from collections import Counter

import pytest

from romandom import (Graph, enumerate_minimal_rdf_refined,
                      enumerate_minimal_rdf_simple, gen_c5_copies, gen_cycle,
                      gen_disjoint_union, gen_null, gen_random, gen_star,
                      is_minimal_rdf)
import romandom.enum_refined as enum_refined
from romandom.enum_refined import (RefinedEnumerator, SearchState,
                                   apply_reductions, pick_branch_vertex, undo)
from romandom.extension import gen_ext_rd, project_grdf
from romandom.grdf import ACTIVE, NOT_ONE, NOT_TWO, measure
from romandom.oracle import brute_minimal_rdfs
from romandom.rdf import two_counts
from support import (check_phase_properties, consistent_with,
                     violated_invariants)


def _adj(g: Graph) -> list[set[int]]:
    return [set(s) for s in g.adj]


def test_measure_all_active():
    assert measure(SearchState(gen_cycle(7), [ACTIVE] * 7)) == 7.0


def test_measure_leaf_zero():
    assert measure(SearchState(gen_null(4), [0, 1, 2, 2])) == 0.0


def test_measure_default_weights():
    got = measure(SearchState(gen_null(2), [NOT_ONE, NOT_TWO]))
    assert got == pytest.approx(2 / 3 + 0.38488)


def test_consistent_with():
    assert consistent_with((2, 0), [ACTIVE, NOT_TWO])
    assert not consistent_with((1,), [NOT_ONE])
    assert consistent_with((0, 1, 2), [0, 1, 2])


def test_violated_invariants(p2):
    adj = _adj(p2)
    assert violated_invariants(adj, [0, NOT_TWO]) == ["I1", "I4"]
    assert violated_invariants(adj, [2, 1]) == ["I2", "I3"]
    assert violated_invariants(adj, [2, 0]) == []
    # the fixpoint's edge conditions are part of I2 and I3
    assert violated_invariants(adj, [2, ACTIVE]) == ["I2"]
    assert violated_invariants(adj, [1, NOT_ONE]) == ["I1", "I3"]


def test_reductions_two_next_to_active(p2):
    # the active ray is the 2-vertex's last candidate private neighbor
    grdf = SearchState(p2, [2, ACTIVE])
    trace = apply_reductions(grdf)
    assert trace.steps[0] == ("LPN", 1, ACTIVE, 0)
    assert grdf.labels == [2, 0]


def test_reductions_two_next_to_several_active(k13):
    grdf = SearchState(k13, [2, ACTIVE, ACTIVE, ACTIVE])
    trace = apply_reductions(grdf)
    assert trace.steps[0] == ("V2", 1, ACTIVE, NOT_ONE)
    assert grdf.labels == [2, 0, 0, 0]


def test_reductions_trapped_not_two(p2):
    adj = _adj(p2)
    grdf = SearchState(p2, [NOT_TWO, NOT_TWO])
    trace = apply_reductions(grdf)
    assert grdf.labels == [1, 1]
    assert trace.steps == [("NPD", 0, NOT_TWO, 1), ("NPD", 1, NOT_TWO, 1)]
    assert adj == _adj(p2)
    undo(trace, grdf)
    assert grdf.labels == [NOT_TWO, NOT_TWO]


def test_reductions_fixpoint_is_stable(p2):
    grdf = SearchState(p2, [2, 0])
    assert apply_reductions(grdf).steps == []
    assert grdf.labels == [2, 0]


def test_reductions_only_relabel_and_undo_restores():
    rng = random.Random(5)
    for _ in range(25):
        g = gen_random(7, 0.35, rng.randrange(10**6))
        labels = [rng.choice((ACTIVE, ACTIVE, 2, NOT_TWO)) for _ in range(g.n)]
        adj = _adj(g)
        grdf = SearchState(g, list(labels))
        trace = apply_reductions(grdf)
        assert adj == _adj(g)
        undo(trace, grdf)
        assert grdf.labels == labels


def test_pick_branch_all_active_cycle():
    g = gen_cycle(5)
    assert pick_branch_vertex(SearchState(g, [ACTIVE] * 5)) == (0, 1)


def test_pick_branch_priority_two(p2):
    # a lone active vertex with no qualifying neighbors
    assert pick_branch_vertex(SearchState(p2, [ACTIVE, 0])) == (0, 2)


def test_pick_branch_priority_three():
    g = gen_null(4)
    grdf = SearchState(g, [0, 1, 0, NOT_ONE])
    assert pick_branch_vertex(grdf) == (3, 3)


def test_pick_branch_leaf_none(p2):
    assert pick_branch_vertex(SearchState(p2, [2, 0])) is None


def test_phase_properties(p2):
    assert check_phase_properties(SearchState(p2, [ACTIVE] * 2), 1)
    assert not check_phase_properties(SearchState(gen_star(2), [ACTIVE] * 3),
                                      1)
    assert check_phase_properties(SearchState(p2, [NOT_ONE, NOT_TWO]), 2)
    assert not check_phase_properties(SearchState(p2, [ACTIVE, 0]), 2)
    # the search checks only phases 1 and 2
    for phase in (0, 3, 4):
        with pytest.raises(ValueError):
            check_phase_properties(SearchState(p2, [2, 0]), phase)


def _run(g, **kwargs):
    out = []
    stats = enumerate_minimal_rdf_refined(g, out.append, **kwargs)
    return out, stats


def _checked_run(g):
    """A refined run of g under the checks the search does not make itself.

    Wraps three parts of the search:

    - ``apply_reductions``: after each pass, in a child the search enters,
      the invariants I1-I4 hold, the state equals the one rebuilt from its
      labels, the measure is below the parent's, and the solver finds a
      witness;
    - ``RefinedEnumerator._private_near``: a set child it prunes has no
      witness once a copy of it is reduced from every vertex;
    - ``RefinedEnumerator._node``: it keeps the measure stack, checks the
      phase properties of each priority the search moves past, and gates
      tau = sum over the entered children of 1.9332^-(mu(node) - mu(child))
      at <= 1 + 1e-9 at nodes of priority 1 and 2, the branchings the
      O(1.9332^n) analysis bounds this way.  At priority 3 it only
      records tau.

    Returns the stream, the stats and the tau of every inner node, listed
    per priority.
    """
    reduce = enum_refined.apply_reductions
    private_near = RefinedEnumerator._private_near
    node = RefinedEnumerator._node
    frames = []  # per open node: its measure, its entered children's
    taus = {1: [], 2: [], 3: []}

    def checked_reduce(state, branch=None):
        trace = reduce(state, branch)
        bad = violated_invariants(g.adj, state.labels)
        assert not bad, f"invariants {bad} violated after reductions"
        fresh = SearchState(g, list(state.labels))
        assert (state.masks, state.once, state.twice) == (
            fresh.masks, fresh.once, fresh.twice), "search state out of step"
        child = measure(state)
        assert child < frames[-1][0], "measure did not fall"
        frames[-1][1].append(child)
        assert gen_ext_rd(project_grdf(g, state)) is not None, (
            "an entered child has no extension")
        return trace

    def checked_private_near(self, b):
        alive = private_near(self, b)
        if not alive:
            copy = SearchState(g, list(self.state.labels))
            reduce(copy)
            assert gen_ext_rd(project_grdf(g, copy)) is None, (
                "a pruned child has an extension")
        return alive

    def checked_node(self, last_priority):
        picked = pick_branch_vertex(self.state)
        priority = picked[1] if picked else 0
        for done in range(max(last_priority, 1), priority):
            assert check_phase_properties(self.state, done), (
                f"phase {done} properties violated")
        frames.append((measure(self.state), []))
        node(self, last_priority)
        mu, children = frames.pop()
        if priority:
            tau = sum(1.9332 ** (child - mu) for child in children)
            assert priority == 3 or tau <= 1 + 1e-9, (
                f"tau {tau} at priority {priority}")
            taus[priority].append(tau)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enum_refined, "apply_reductions", checked_reduce)
        mp.setattr(RefinedEnumerator, "_private_near", checked_private_near)
        mp.setattr(RefinedEnumerator, "_node", checked_node)
        out, stats = _run(g)
    return out, stats, taus


def test_refined_c5(c5):
    out, stats = _run(c5)
    assert len(out) == 16 and stats.solutions == 16
    assert sorted(out) == brute_minimal_rdfs(c5)


def test_refined_null4_single_solution():
    out, _ = _run(gen_null(4))
    assert out == [(1, 1, 1, 1)]


def test_refined_order_zero_graph():
    # the empty root is a leaf, so the search emits () like any leaf
    out, stats = _run(Graph.from_edges(0, []))
    assert out == [()]
    assert (stats.solutions, stats.tree_nodes, stats.max_gap) == (1, 1, 0)
    assert stats.tree_ratio == 1.0


def test_refined_matches_oracle_with_assertions(catalog5):
    for g in catalog5:
        out, stats, _ = _checked_run(g)
        assert sorted(out) == brute_minimal_rdfs(g)
        assert len(set(out)) == len(out)
        assert all(is_minimal_rdf(g, f) for f in out)
        assert stats.max_gap <= 2 * g.n


def test_refined_random_graphs_with_assertions():
    rng = random.Random(9)
    for _ in range(15):
        g = gen_random(8, 0.3, rng.randrange(10**6))
        out, stats, _ = _checked_run(g)
        assert sorted(out) == brute_minimal_rdfs(g)
        assert stats.max_gap <= 2 * g.n


@pytest.mark.parametrize("n, seed", [(16, 1), (16, 2), (18, 1), (18, 2),
                                     (20, 1), (20, 2), (24, 7)])
def test_refined_matches_sweep_beyond_oracle(n, seed):
    # past the oracle's n <= 12 the pruned subset sweep is the reference
    g = gen_random(n, 0.2, seed)
    out, stats = _run(g)
    sweep = []
    enumerate_minimal_rdf_simple(g, sweep.append)
    assert sorted(out) == sorted(sweep) and len(set(out)) == len(out)
    assert all(is_minimal_rdf(g, f) for f in out)
    assert stats.max_gap <= 2 * n
    assert stats.tree_nodes <= 50 * 1.9332 ** n


def test_reduction_soundness_against_oracle(monkeypatch):
    # a reduction pass must not change which minimal rdfs remain reachable
    records = []

    def recording(state, *args, **kwargs):
        pre = list(state.labels)
        trace = apply_reductions(state, *args, **kwargs)
        records.append((pre, list(state.labels)))
        return trace

    monkeypatch.setattr(enum_refined, "apply_reductions", recording)
    rng = random.Random(17)
    for _ in range(10):
        g = gen_random(6, 0.35, rng.randrange(10**6))
        minimal = brute_minimal_rdfs(g)
        records.clear()
        _run(g)
        assert records
        for pre, post in records:
            before = {f for f in minimal if consistent_with(f, pre)}
            after = {f for f in minimal if consistent_with(f, post)}
            assert before == after, (pre, post)


@pytest.mark.parametrize("g, expected", [
    (gen_c5_copies(3), (4096, 8744, 6)),
    (gen_cycle(14), (1492, 3117, 5)),
    (gen_random(12, 0.2, 7), (159, 322, 4)),
], ids=["c5pow3", "cycle14", "random12"])
def test_refined_tree_shape_golden(g, expected):
    # pins the search tree: reductions, branch choice and pruning
    stats = enumerate_minimal_rdf_refined(g, lambda f: None)
    assert (stats.solutions, stats.tree_nodes, stats.max_gap) == expected


@pytest.mark.parametrize("g, count, digest", [
    (gen_c5_copies(3), 10410, "7458caec98e1a06d"),
    (gen_cycle(14), 4463, "a3a8a027b204e418"),
    (gen_random(12, 0.2, 7), 822, "b939765b5517c9d8"),
], ids=["c5pow3", "cycle14", "random12"])
def test_reduction_steps_golden(monkeypatch, g, count, digest):
    # pins every relabel step of a run, in order: the fixpoints depend on
    # the order in which the rules fire (pruned children are not reduced)
    steps = []

    def recording(*args, **kwargs):
        trace = apply_reductions(*args, **kwargs)
        steps.extend(trace.steps)
        return trace

    monkeypatch.setattr(enum_refined, "apply_reductions", recording)
    enumerate_minimal_rdf_refined(g, lambda f: None)
    text = "\n".join(f"{rule} {v} {old} {new}" for rule, v, old, new in steps)
    assert len(steps) == count
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("g, expected", [
    (gen_c5_copies(3), (8190, 935, 4095, 5532, 241, 3756)),
    (gen_cycle(14), (2982, 466, 1491, 2235, 198, 1851)),
    (gen_random(12, 0.2, 7), (316, 134, 158, 452, 95, 237)),
], ids=["c5pow3", "cycle14", "random12"])
def test_rule_tests_golden(monkeypatch, g, expected):
    # pins how often each rule is tested, in the order LPN, V0, V2, NPD,
    # NPN, Isolate: a pend that tests more than it needs shows here, where
    # timing noise cannot hide it
    tested = Counter()

    def counted(rule, test):
        def wrapper(*args):
            tested[rule] += 1
            return test(*args)
        return wrapper

    monkeypatch.setattr(enum_refined, "_TESTS", tuple(
        counted(rule, test)
        for rule, test in zip(enum_refined._RULES, enum_refined._TESTS)))
    enumerate_minimal_rdf_refined(g, lambda f: None)
    assert dict(tested) == dict(zip(enum_refined._RULES, expected))


def test_seeded_reductions_match_full(monkeypatch, catalog6):
    # a call seeded at the branch vertex, with the kept once/twice, relabels
    # exactly as a call that pends every vertex and rebuilds them
    checked = []

    def compare(grdf, branch):
        state = list(grdf.labels)
        fresh = SearchState(g, list(state))
        assert (grdf.once, grdf.twice) == (fresh.once, fresh.twice)
        trace = apply_reductions(grdf, branch)
        full = SearchState(g, state)
        assert apply_reductions(full).steps == trace.steps
        assert full.labels == grdf.labels
        checked.append(branch)
        return trace

    monkeypatch.setattr(enum_refined, "apply_reductions", compare)
    rng = random.Random(23)
    graphs = [gen_random(10, rng.choice((0.15, 0.25, 0.4)),
                         rng.randrange(10**6)) for _ in range(12)]
    for g in graphs + catalog6:
        enumerate_minimal_rdf_refined(g, lambda f: None)
    assert any(b is not None for b in checked)


# The list-based rule bodies the bit-set rules of enum_refined replaced,
# kept as an independent reference: each reads the labels and the counts.
# They include the paper's V1, which the engine leaves out as inert.

def _ref_lpn(adj, labels, counts, v):
    if labels[v] != 2:
        return ()
    cand = [u for u in adj[v] if labels[u] in (ACTIVE, NOT_TWO)]
    return ((cand[0], 0),) if len(cand) == 1 else ()


def _ref_v0(adj, labels, counts, v):
    if labels[v] != 0 or counts[v] != 1:
        return ()
    changes = _ref_bar_two_around(adj, labels, v)
    if not changes:
        return ()
    for u in adj[v]:
        if labels[u] == 2:
            break
    if any(counts[x] < 2 for x in adj[u]
           if x != v and labels[x] in (0, NOT_ONE, NOT_TWO)):
        return ()
    return changes


def _ref_v1(adj, labels, counts, v):
    return _ref_bar_two_around(adj, labels, v) if labels[v] == 1 else ()


def _ref_bar_two_around(adj, labels, v):
    return tuple((w, NOT_TWO if labels[w] == ACTIVE else 0)
                 for w in sorted(adj[v]) if labels[w] in (ACTIVE, NOT_ONE))


def _ref_v2(adj, labels, counts, v):
    if labels[v] != 2:
        return ()
    return tuple((w, NOT_ONE if labels[w] == ACTIVE else 0)
                 for w in sorted(adj[v]) if labels[w] in (ACTIVE, NOT_TWO))


def _ref_npd(adj, labels, counts, v):
    if labels[v] == NOT_TWO and all(labels[u] in (NOT_TWO, 0, 1)
                                    for u in adj[v]):
        return ((v, 1),)
    return ()


def _ref_npn(adj, labels, counts, v):
    if labels[v] == ACTIVE and all(labels[u] in (0, NOT_ONE) for u in adj[v]):
        return ((v, NOT_TWO),)
    return ()


def _ref_isolate(adj, labels, counts, v):
    if labels[v] == NOT_ONE and not any(labels[u] == NOT_TWO for u in adj[v]):
        return ((v, 0),)
    return ()


# All seven rules in the scan order, and the six the engine keeps.
_REF_RULES = {"LPN": _ref_lpn, "V0": _ref_v0, "V1": _ref_v1, "V2": _ref_v2,
              "NPD": _ref_npd, "NPN": _ref_npn, "Isolate": _ref_isolate}
_ENGINE_REF_RULES = {rule: _REF_RULES[rule] for rule in enum_refined._RULES}


def _scan_reductions(adj, labels, rules=_REF_RULES):
    # The scan semantics the worklist replays: after every step, restart
    # from the first rule and the lowest vertex; Isolate only once nothing
    # is active.
    steps = []
    while True:
        counts = two_counts(adj, [v for v, x in enumerate(labels) if x == 2])
        for rule, test in rules.items():
            if rule == "Isolate" and ACTIVE in labels:
                continue
            hit = next(filter(None, (test(adj, labels, counts, v)
                                     for v in range(len(labels)))), None)
            if hit:
                break
        else:
            return steps
        for w, new in hit:
            steps.append((rule, w, labels[w], new))
            labels[w] = new


def test_rule_bitsets_match_reference():
    # every bit-set rule, at every vertex of random labellings, makes the
    # relabels of its list-based reference, in the same order
    rng = random.Random(41)
    fired = set()
    for _ in range(300):
        g = gen_random(rng.randint(1, 10), rng.choice((0.2, 0.35, 0.5)),
                       rng.randrange(10**6))
        labels = [rng.randrange(ACTIVE + 1) for _ in range(g.n)]
        counts = two_counts(g.adj, [v for v, x in enumerate(labels) if x == 2])
        state = SearchState(g, labels)
        c1 = state.once & ~state.twice
        assert [(state.once >> v & 1, state.twice >> v & 1, c1 >> v & 1)
                for v in range(g.n)] == [(c >= 1, c >= 2, c == 1)
                                         for c in counts]
        for rule, test in zip(enum_refined._RULES, enum_refined._TESTS):
            ref = _REF_RULES[rule]
            for v in range(g.n):
                got = test(labels, state.masks, state.nbr, c1, v)
                expected = ref(g.adj, labels, counts, v)
                assert tuple(got) == expected, (rule, v, labels)
                if expected:
                    fired.add(rule)
    assert fired == set(enum_refined._RULES)


def test_reductions_match_scan_on_random_labellings():
    rng = random.Random(31)
    fired = set()
    for _ in range(300):
        g = gen_random(rng.randint(2, 9), rng.choice((0.2, 0.35, 0.5)),
                       rng.randrange(10**6))
        labels = [rng.randrange(ACTIVE + 1) for _ in range(g.n)]
        expected = list(labels)
        scan = _scan_reductions(g.adj, expected, _ENGINE_REF_RULES)
        grdf = SearchState(g, labels)
        assert apply_reductions(grdf).steps == scan
        assert grdf.labels == expected
        fired.update(step[0] for step in scan)
    assert fired == set(enum_refined._RULES)


def test_reductions_match_scan_in_refined_runs(monkeypatch, catalog6):
    # every call of a search, seeded at its branch vertex, relabels as the
    # scan does from the same state; the scan has all seven rules, so V1
    # never applies where the search goes
    calls = []

    def compare(grdf, branch):
        expected = list(grdf.labels)
        scan = _scan_reductions(g.adj, expected)
        trace = apply_reductions(grdf, branch)
        assert trace.steps == scan
        assert grdf.labels == expected
        calls.append(branch)
        return trace

    monkeypatch.setattr(enum_refined, "apply_reductions", compare)
    rng = random.Random(37)
    graphs = [gen_star(8), gen_c5_copies(2), gen_cycle(10)]
    graphs += [gen_random(rng.randint(6, 12), rng.choice((0.15, 0.25, 0.4)),
                          rng.randrange(10**6)) for _ in range(8)]
    for g in graphs + catalog6:
        enumerate_minimal_rdf_refined(g, lambda f: None)
    assert any(branch is not None for branch in calls)


def test_refined_star_is_fast():
    # a relabel of a ray must not re-test the centre: with that re-test
    # the run grows faster than quadratically, to over 4 s at 400 rays
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        stats = enumerate_minimal_rdf_refined(gen_star(400), lambda f: None)
        best = min(best, time.perf_counter() - start)
        assert (stats.solutions, stats.tree_nodes) == (402, 803)
    assert best < 2.0


def test_refined_past_one_machine_word():
    # vertex ids up to 75 in the bit sets; by the product law the count is
    # 16 (C5) times 72 (the star with 70 rays)
    g = gen_disjoint_union([gen_cycle(5), gen_star(70)])
    out, stats = _run(g)
    assert (g.n, stats.solutions, stats.tree_nodes, stats.max_gap) == (
        76, 1152, 2375, 3)
    assert len(out) == 1152 == 16 * 72 and len(set(out)) == len(out)
    assert all(is_minimal_rdf(g, f) for f in out)


def test_refined_rule_fires_and_prunes():
    stats = enumerate_minimal_rdf_refined(gen_c5_copies(3), lambda f: None)
    assert stats.rule_fires == {"LPN": 3880, "V0": 669, "V2": 430,
                                "NPD": 3979, "Isolate": 1452}
    assert stats.prunes == 553
    for g, prunes in ((gen_cycle(14), 134), (gen_random(12, 0.2, 7), 5)):
        assert enumerate_minimal_rdf_refined(g, lambda f: None).prunes == prunes


@pytest.mark.parametrize("g", [gen_c5_copies(3), gen_cycle(14),
                               gen_random(12, 0.2, 7)],
                         ids=["c5pow3", "cycle14", "random12"])
def test_only_entered_children_are_reduced(monkeypatch, g):
    # a set child the privacy test prunes gets no reduction pass, and
    # rule_fires counts exactly the relabels of the passes that run
    fired = Counter()
    calls = []

    def recording(*args, **kwargs):
        trace = apply_reductions(*args, **kwargs)
        calls.append(trace)
        fired.update(step[0] for step in trace.steps)
        return trace

    monkeypatch.setattr(enum_refined, "apply_reductions", recording)
    stats = enumerate_minimal_rdf_refined(g, lambda f: None)
    assert len(calls) == stats.tree_nodes - 1
    assert stats.rule_fires == dict(fired)


@pytest.mark.parametrize("g, expected", [
    (gen_c5_copies(2), 2448), (gen_random(12, 0.3, 5), 2622),
    (gen_star(9), 258), (gen_null(4), 18),
], ids=["c5pow2", "random12", "star9", "null4"])
def test_every_label_change_goes_through_relabel(monkeypatch, g, expected):
    # each inner node sets and restores its vertex in both children (4
    # calls), and each rule fire relabels once in its pass and once in undo
    calls = []
    relabel = SearchState.relabel

    def counting(self, v, new):
        calls.append(v)
        relabel(self, v, new)

    monkeypatch.setattr(SearchState, "relabel", counting)
    stats = enumerate_minimal_rdf_refined(g, lambda f: None)
    inner = stats.tree_nodes - stats.solutions
    assert len(calls) == 4 * inner + 2 * sum(stats.rule_fires.values())
    assert len(calls) == expected


def test_rule_fires_same_with_assertions():
    for g in (gen_c5_copies(2), gen_random(10, 0.3, 3), gen_cycle(9)):
        plain_out, plain = _run(g)
        checked_out, checked, _ = _checked_run(g)
        assert plain.prunes > 0
        assert checked_out == plain_out
        assert (checked.rule_fires, checked.prunes) == (plain.rule_fires,
                                                        plain.prunes)


def test_tau_at_most_one_at_priorities_1_and_2(catalog7):
    # the measure-and-conquer gate of _checked_run, on every connected
    # graph of order <= 7 and on seeded G(n, p) with n = 8..14; each run
    # under the harness also gives the walk's solutions, each once, with
    # max_gap <= 2n
    rng = random.Random(61)
    graphs = list(catalog7)
    graphs += [gen_random(rng.randint(8, 14), rng.choice((0.15, 0.25, 0.4)),
                          rng.randrange(10**6)) for _ in range(20)]
    taus = {1: [], 2: [], 3: []}
    for g in graphs:
        out, stats, tau = _checked_run(g)
        walk = []
        enumerate_minimal_rdf_simple(g, walk.append)
        assert sorted(out) == sorted(walk)
        assert len(set(out)) == len(out)
        assert stats.max_gap <= 2 * g.n
        if g.n <= 6:
            assert max(tau[3], default=0.0) <= 1, "tau > 1 below order 7"
        for p in taus:
            taus[p] += tau[p]
    # the worst branchings: drops (1 + W1, 1 - W2) at priority 1, which
    # the weights make tight, and (2, 1 - W2) at priority 2
    assert max(taus[1]) == pytest.approx(0.99999, abs=1e-5)
    assert max(taus[2]) == pytest.approx(0.9342, abs=1e-4)
    # priority 3 is not gated: a few of its branchings exceed 1
    over = [tau for tau in taus[3] if tau > 1]
    assert (len(taus[3]), len(over)) == (11036, 13)
    assert max(over) == pytest.approx(1.03235, abs=1e-5)


def test_tau_above_one_at_priority_3():
    # the smallest connected graph with a priority-3 branching of tau > 1;
    # at that node (labels 4 2 3 3 3 4 4) each not-1 vertex gives the same
    # tau, so no choice of branch vertex would help
    g = Graph.from_edges(7, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5),
                             (2, 6), (3, 6), (4, 5), (5, 6)])
    out, _, tau = _checked_run(g)
    assert sorted(out) == brute_minimal_rdfs(g)
    assert [round(t, 5) for t in tau[3] if t > 1] == [1.03235]


@pytest.mark.parametrize("verdict", [True, False], ids=["alive", "dead"])
def test_checked_run_catches_a_wrong_privacy_test(monkeypatch, verdict):
    # a privacy test that always answers the same passes a plain run, but
    # the harness sees a dead child entered or a live one pruned
    g = gen_c5_copies(2)
    monkeypatch.setattr(RefinedEnumerator, "_private_near",
                        lambda self, b: verdict)
    _run(g)
    with pytest.raises(AssertionError):
        _checked_run(g)


def test_v0_tested_only_where_it_has_a_target(monkeypatch):
    # V0 is pended at a 0-vertex only if it has a target, an active or
    # not-1 neighbor.  Targets only go away, so each tested vertex had one
    # when its pass began (a relabel earlier in the pass may take it).
    start = []
    tested = []

    def recording(state, *args):
        start.append(state.masks[ACTIVE] | state.masks[NOT_ONE])
        return apply_reductions(state, *args)

    def v0(labels, masks, nbr, c1, v):
        tested.append(labels[v] != 0 or bool(nbr[v] & start[-1]))
        return v0_rule(labels, masks, nbr, c1, v)

    v0_rule = enum_refined._TESTS[enum_refined._V0]
    tests = list(enum_refined._TESTS)
    tests[enum_refined._V0] = v0
    monkeypatch.setattr(enum_refined, "_TESTS", tuple(tests))
    monkeypatch.setattr(enum_refined, "apply_reductions", recording)
    for g in (gen_c5_copies(3), gen_cycle(14), gen_random(12, 0.2, 7)):
        enumerate_minimal_rdf_refined(g, lambda f: None)
    assert tested and all(tested)


def test_tree_ratio_on_large_order(monkeypatch):
    # 1.9332 ** n overflows a float from n = 1076; skip the search itself
    monkeypatch.setattr(enum_refined.RefinedEnumerator, "_node",
                        lambda self, last_priority: None)
    stats = enum_refined.RefinedEnumerator(gen_null(1100),
                                           lambda f: None).run()
    assert stats.tree_ratio == 0.0


def test_refined_stats_phase_transitions(c5):
    _, stats = _run(c5)
    assert sum(stats.phase_transitions.values()) > 0
    assert stats.tree_nodes > 0


def test_stats_asdict_is_a_copy():
    # what ``--stats json`` dumps: every counter, sharing no dict with the
    # stats it was taken from
    _, stats = _run(gen_c5_copies(2))
    assert stats.rule_fires and stats.phase_transitions and stats.prunes
    before = dataclasses.asdict(stats)
    got = dataclasses.asdict(stats)
    assert json.loads(json.dumps(got)) == got == vars(stats)
    got["rule_fires"].clear()
    got["phase_transitions"]["0->1"] = -1
    got["solutions"] = -1
    assert dataclasses.asdict(stats) == before


def test_state_shares_the_graph_neighborhoods(c5):
    state = SearchState(c5, [ACTIVE] * 5)
    assert state.nbr is c5.nbr
    assert SearchState(c5, [2, 0, 1, 1, 0]).nbr is state.nbr


def test_refined_refuses_an_asymmetric_graph_before_output():
    # 1 lists 2 as a neighbor, but 2 does not list 1: no such Graph can be
    # built, so no enumerator can receive one; from_edges lists both ends
    with pytest.raises(TypeError, match=r"Graph\.from_edges"):
        Graph(3, ((1,), (0, 2), ()))
    assert Graph.from_edges(3, [(1, 2)]).adj == ((), (2,), (1,))
