"""The benchmark's traced layers must exist in the program.

``bench/layers.py`` wraps program functions by name, and a name the
program no longer has reads 0 in every traced run.  This test reads
``bench/`` without changing it, so a refactor that drops or empties a
traced layer fails here, before it reaches the benchmark.
"""

from collections import Counter
from pathlib import Path

import romandom.enum_refined as enum_refined
from romandom import gen_c5_copies

BENCH = Path(__file__).resolve().parents[1] / "bench"

# The one target with no function behind it: its metrics go at the next
# change to the benchmark.
KNOWN_MISSING = {"enum_simple.extend_from_v2"}


def test_traced_layers_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer, summarize

    rules = layers.RuleCounts()
    tracer = Tracer()
    tracer.install(layers.targets(rules))
    try:
        stats = enum_refined.enumerate_minimal_rdf_refined(gen_c5_copies(2),
                                                           lambda f: None)
    finally:
        tracer.restore()
    assert set(tracer.missing) <= KNOWN_MISSING
    totals = summarize(tracer.take())
    assert totals["enum_refined.node"].calls == stats.tree_nodes
    assert totals["enum_refined.apply_reductions"].calls == (
        stats.tree_nodes - 1)
    assert totals["enum_refined.pick_branch_vertex"].calls > 0
    assert totals["enum_refined.undo"].calls > 0
    # the rule counts read the reduction traces the search returns
    assert rules.steps == Counter(stats.rule_fires)
