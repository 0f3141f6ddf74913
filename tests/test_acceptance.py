"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
delay criterion collects gap records from every enumeration run in
criteria 1-3: the refined enumerator, the subset sweep and the PO
include/exclude walk all claim polynomial delay.
"""

import itertools
import random
import time

from romandom import (ExtensionInstance, Graph,
                      enumerate_minimal_rdf_refined,
                      enumerate_minimal_rdf_simple,
                      enumerate_po_minimal_simple, ext_po_rd, ext_rd,
                      gen_c5_copies, gen_cycle, gen_ext_po_rd, gen_ext_rd,
                      gen_null, gen_random, gen_star, is_minimal_rdf,
                      is_po_minimal_rdf)
from romandom.oracle import brute_minimal_rdfs
from support import brute_ext, leq_po, leq_standard, two_set

# (label, n, max_gap) rows recorded by the enumeration runs in criteria
# 1-3, asserted in criterion 5.
GAP_RECORDS: list[tuple[str, int, int]] = []


def _report(num: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{verdict}: criterion {num} - {title}{suffix}")
    assert ok, f"criterion {num} failed: {title} {detail}"


def _run(enumerate_, g, label: str):
    out = []
    stats = enumerate_(g, out.append)
    GAP_RECORDS.append((label, g.n, stats.max_gap))
    return out, stats


def test_criterion_1_exact_counts():
    ok = True
    details = []
    for c in (1, 2, 3):
        g = gen_c5_copies(c)
        expected = 16 ** c
        counts = {}
        simple_out, stats = _run(enumerate_minimal_rdf_simple, g,
                                 f"c5pow{c}-simple")
        counts["simple"] = len(simple_out)
        ok &= stats.wall_ms < 60_000
        refined_out, stats = _run(enumerate_minimal_rdf_refined, g,
                                   f"c5pow{c}")
        counts["refined"] = len(refined_out)
        ok &= stats.wall_ms < 60_000
        if c <= 2:
            start = time.perf_counter()
            counts["oracle"] = len(list(brute_minimal_rdfs(g)))
            ok &= time.perf_counter() - start < 60
        ok &= all(got == expected for got in counts.values())
        details.append(f"c={c}: {counts} vs {expected}")
    _report(1, "16^c minimal rdfs on c disjoint 5-cycles", ok,
            "; ".join(details))


def test_criterion_2_po_counts():
    ok = True
    for n in range(2, 9):
        out, _ = _run(enumerate_po_minimal_simple, gen_star(n), f"star{n}")
        ok &= len(out) == 2 ** n + 1
    for n in range(1, 11):
        out, _ = _run(enumerate_po_minimal_simple, gen_null(n), f"null{n}")
        ok &= len(out) == 2 ** n
    _report(2, "PO counts: 2^n+1 on stars, 2^n on null graphs", ok,
            "stars n=2..8, null n=1..10")


def _instances_for_criterion_3(catalog6):
    for i, g in enumerate(catalog6):
        yield f"catalog{i}", g
    rng = random.Random(1234)
    for i in range(200):
        n = 5 + i % 4
        yield f"random{i}", gen_random(n, 0.1 + 0.05 * (i % 8),
                                      rng.randrange(10**6))


def test_criterion_3_oracle_equivalence(catalog6):
    mismatches = 0
    graphs = 0
    for label, g in _instances_for_criterion_3(catalog6):
        graphs += 1
        expected = list(brute_minimal_rdfs(g))
        simple_out, _ = _run(enumerate_minimal_rdf_simple, g,
                              f"{label}-simple")
        refined_out, _ = _run(enumerate_minimal_rdf_refined, g, label)
        if not (sorted(simple_out) == sorted(refined_out) == expected):
            mismatches += 1
            continue
        for f in expected:
            if not is_minimal_rdf(g, f):
                mismatches += 1
            if 2 * len(two_set(g, f)) > g.n:
                mismatches += 1
    _report(3, "simple/refined/oracle agree, checker and 2|V2|<=n hold",
            mismatches == 0, f"{graphs} graphs, {mismatches} mismatches")


def _extension_case(g, f, forbidden, std, po):
    bad = 0
    inst = ExtensionInstance(g, f, forbidden)
    witness = gen_ext_rd(inst) if forbidden else ext_rd(g, f)
    if (witness is not None) != brute_ext(g, f, forbidden, minimal=std):
        bad += 1
    elif witness is not None and not (
        leq_standard(f, witness) and is_minimal_rdf(g, witness)
        and forbidden.isdisjoint(two_set(g, witness))
    ):
        bad += 1
    witness = gen_ext_po_rd(inst) if forbidden else ext_po_rd(g, f)
    if (witness is not None) != brute_ext(g, f, forbidden, order="po",
                                          minimal=po):
        bad += 1
    elif witness is not None and not (
        leq_po(f, witness) and is_po_minimal_rdf(g, witness)
        and forbidden.isdisjoint(two_set(g, witness))
    ):
        bad += 1
    return bad


def test_criterion_4_extension_correctness(catalog5):
    mismatches = 0
    cases = 0
    for g in catalog5:
        std = list(brute_minimal_rdfs(g))
        po = list(brute_minimal_rdfs(g, order="po"))
        for f in itertools.product((0, 1, 2), repeat=g.n):
            cases += 1
            mismatches += _extension_case(g, f, frozenset(), std, po)
    rng = random.Random(99)
    sampled = 0
    while sampled < 1000:
        g = gen_random(6 + sampled % 3, 0.3, rng.randrange(10**6))
        std = list(brute_minimal_rdfs(g))
        po = list(brute_minimal_rdfs(g, order="po"))
        for _ in range(25):
            f = tuple(rng.choice((0, 0, 1, 2)) for _ in range(g.n))
            pool = [v for v in range(g.n) if f[v] != 2]
            forbidden = frozenset(
                rng.sample(pool, min(len(pool), rng.randrange(4)))
            )
            sampled += 1
            cases += 1
            mismatches += _extension_case(g, f, forbidden, std, po)
    _report(4, "all four extension solvers agree with brute force",
            mismatches == 0,
            f"{cases} cases incl. {sampled} forbidden-set samples, "
            f"{mismatches} mismatches")


def test_criterion_5_delay_bound():
    if not GAP_RECORDS:
        _run(enumerate_minimal_rdf_refined, gen_c5_copies(2), "fallback")
        _run(enumerate_po_minimal_simple, gen_star(4), "fallback-po")
    worst = max(gap - 2 * n for _, n, gap in GAP_RECORDS)
    ok = all(gap <= 2 * n for _, n, gap in GAP_RECORDS)
    _report(5, "max_gap <= 2n on every enumeration run", ok,
            f"{len(GAP_RECORDS)} runs, worst slack {-worst}")


def test_criterion_6_no_duplicates():
    seen: set[str] = set()
    dup = 0

    def sink(f):
        nonlocal dup
        key = "".join(map(str, f))
        if key in seen:
            dup += 1
        seen.add(key)

    enumerate_minimal_rdf_refined(gen_c5_copies(3), sink)
    _report(6, "refined run on 3 disjoint 5-cycles emits no duplicate",
            dup == 0 and len(seen) == 4096,
            f"{len(seen)} distinct solutions, {dup} repeats")


def test_criterion_7_tree_size():
    instances = [
        ("c5pow1", gen_c5_copies(1)),
        ("c5pow2", gen_c5_copies(2)),
        ("c5pow3", gen_c5_copies(3)),
        ("null10", gen_null(10)),
        ("null20", gen_null(20)),
        ("star19", gen_star(19)),
        ("cycle12", gen_cycle(12)),
        ("cycle20", gen_cycle(20)),
        ("random16", gen_random(16, 0.25, 3)),
    ]
    ok = True
    worst = 0.0
    for label, g in instances:
        stats = enumerate_minimal_rdf_refined(g, lambda f: None)
        bound = 50 * 1.9332 ** g.n
        worst = max(worst, stats.tree_nodes / bound)
        ok &= stats.tree_nodes <= bound
    _report(7, "refined tree_nodes <= 50 * 1.9332^n on n<=20 instances", ok,
            f"{len(instances)} instances, worst fill {worst:.3f}")


def test_criterion_8_extension_scalability():
    times = []
    ok = True
    for n in (200, 400, 800):
        g = gen_random(n, 4 / n, seed=42)
        f = (0,) * n
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            witness = ext_rd(g, f)
            best = min(best, time.perf_counter() - start)
            ok &= witness is not None
        ok &= best < 30
        times.append(max(best, 5e-4))  # noise floor for sub-ms runs
    ratios = [b / a for a, b in zip(times, times[1:])]
    ok &= all(r <= 10 for r in ratios)
    _report(8, "ext_rd wall-time ratio <= 10 per doubling of n", ok,
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_extension_scaling_with_private_neighbors():
    # Companion to criterion 8, whose all-zero input never reaches the
    # privacy check: here every centre of n/3 disjoint P3s is a 2-vertex
    # with two private leaves, so the input is already a minimal rdf.
    for n in (1200, 2400, 4800):
        g = Graph.from_edges(n, [(c, c + d) for c in range(1, n, 3)
                                 for d in (-1, 1)])
        f = tuple(2 if v % 3 == 1 else 0 for v in range(n))
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            witness = ext_rd(g, f)
            best = min(best, time.perf_counter() - start)
            assert witness == f
        assert is_minimal_rdf(g, f)
    # best is the n=4800 time
    assert best < 0.05, f"ext_rd on n=4800 took {best * 1000:.1f} ms"
