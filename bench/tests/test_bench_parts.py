"""Tests for the benchmark's own parts.

Run from the root of the repository:  python -m pytest bench/tests -q
"""

import contextlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import inputs
import verify
from romandom import (Graph, ExtensionInstance, ext_po_rd, ext_rd, gen_cycle,
                      gen_ext_rd, gen_null, gen_random, is_minimal_rdf,
                      is_po_minimal_rdf, to_edge_list)
from romandom.cli import main as cli_main
from romandom.oracle import brute_minimal_rdfs
from tracer import Tracer, summarize
from workloads import LineStamps

BENCH = Path(__file__).resolve().parents[1]


def _catalog(max_n):
    for nxg in nx.graph_atlas_g():
        if 1 <= nxg.number_of_nodes() <= max_n and nx.is_connected(nxg):
            yield Graph.from_edges(nxg.number_of_nodes(), nxg.edges())


def _agrees_with_oracle(g: Graph) -> None:
    adj = verify.adjacency(g.n, g.edges())
    for order in ("standard", "po"):
        minimal = set(brute_minimal_rdfs(g, order=order))
        for f in itertools.product((0, 1, 2), repeat=g.n):
            assert verify.is_minimal(adj, f, order == "po") == (f in minimal), (
                g, f, order)


def test_verifier_matches_oracle_on_catalog():
    graphs = list(_catalog(6))
    assert len(graphs) == 143
    for g in graphs:
        _agrees_with_oracle(g)


@pytest.mark.parametrize("seed", range(8))
def test_verifier_matches_oracle_on_random_graphs(seed):
    rng = random.Random(seed)
    _agrees_with_oracle(gen_random(rng.randint(5, 8), rng.random(), seed))


def test_generators_are_deterministic():
    a, b = inputs.planted_graphs(3), inputs.planted_graphs(3)
    assert [(g.name, g.edges, g.centres) for g in a] == [
        (g.name, g.edges, g.centres) for g in b]
    assert inputs.query_stream(a, 3) == inputs.query_stream(b, 3)
    assert inputs.enum_mixes("enum-sweep", 3) == inputs.enum_mixes(
        "enum-sweep", 3)
    other = inputs.planted_graphs(4)
    assert [g.edges for g in a] != [g.edges for g in other]
    assert inputs.enum_mixes("enum-refined", 3) != inputs.enum_mixes(
        "enum-refined", 4)


@pytest.mark.parametrize("make", [inputs.pendant_graph, inputs.p3_graph])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_queries_give_stated_answers(make, seed):
    pg = make(240, seed)
    g = Graph.from_edges(pg.n, pg.edges)
    adj = verify.adjacency(pg.n, pg.edges)
    witness = inputs.planted_witness(pg)
    assert verify.is_minimal(adj, witness) and is_minimal_rdf(g, witness)
    calls = {"ext_rd": ext_rd, "ext_po_rd": ext_po_rd,
             "is_minimal_rdf": is_minimal_rdf,
             "is_po_minimal_rdf": is_po_minimal_rdf}
    queries = inputs.graph_queries(pg, seed)
    assert {q.expect for q in queries} == {True, False}
    for q in queries:
        if q.call == "gen_ext_rd":
            got = gen_ext_rd(ExtensionInstance(g, q.values, q.forbidden))
        else:
            got = calls[q.call](g, q.values)
        if q.call.startswith("is_"):
            assert got is q.expect, q.kind
            continue
        assert (got is not None) == q.expect, q.kind
        if got is not None:
            po = "po" in q.call
            assert verify.above(q.values, got, po)
            assert verify.is_minimal(adj, got, po)
            assert not any(got[v] == 2 for v in q.forbidden)


@pytest.mark.parametrize("graph, args", [
    (gen_cycle(7), ["--mode", "refined"]),
    (gen_cycle(7), ["--mode", "simple"]),
    (gen_null(4), ["--mode", "simple", "--order", "po"]),
    (Graph.from_edges(0, []), []),
])
def test_line_stamps_count_printed_lines(tmp_path, graph, args):
    path = tmp_path / "g.edges"
    path.write_text(to_edge_list(graph))
    argv = ["enumerate", str(path), *args]
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        assert cli_main(argv) == 0
    stamped, err = LineStamps(), io.StringIO()
    with contextlib.redirect_stdout(stamped), contextlib.redirect_stderr(err):
        assert cli_main(argv + ["--stats", "json"]) == 0
    printed = plain.getvalue().splitlines()
    if graph.n == 0:
        printed = [""]
    assert len(stamped.stamps) == len(printed)
    assert stamped.lines() == printed
    assert json.loads(err.getvalue())["solutions"] == len(printed)
    assert stamped.stamps == sorted(stamped.stamps)


def test_tracer_reports_missing_layers_and_self_time():
    import romandom.enum_refined as er
    original = er.apply_reductions
    tracer = Tracer()
    tracer.install([
        ("node", "romandom.enum_refined", "RefinedEnumerator._node", None),
        ("reduce", "romandom.enum_refined", "apply_reductions", None),
        ("gone", "romandom.enum_refined", "no_such_function", None),
        ("gone_module", "romandom.no_such_module", "f", None),
    ])
    try:
        assert er.apply_reductions is not original
        stats = er.enumerate_minimal_rdf_refined(gen_cycle(6), lambda f: None)
    finally:
        tracer.restore()
    assert er.apply_reductions is original
    assert tracer.missing == ["gone", "gone_module"]
    spans = tracer.take()
    totals = summarize(spans)
    assert totals["node"].calls == stats.tree_nodes
    node_total = totals["node"]
    # The root node's span covers every other span.
    root = next(s for s in spans if s[3] == -1)
    assert root[0] == "node"
    assert node_total.self_ns + totals["reduce"].total_ns == root[2] - root[1]


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enum-refined",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
