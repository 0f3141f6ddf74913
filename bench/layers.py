"""Which program functions the traced run wraps, and the per-layer metrics.

Layer names are the ``romandom`` module names.  Every per-layer value is
per pass (the median over the traced passes of a run), so counts repeat
exactly for a given seed: ``tree_nodes``, ``.calls`` and the rule fires
are the preferred evidence for a count claim.  Times are seconds per
pass and include the wrapper's cost; ``trace.overhead_frac`` gives it.
A layer the program no longer has reads 0 and is named on the
``missing layers`` line and counted in ``trace.missing_layers``.
"""

from __future__ import annotations

from collections import Counter

from tracer import LayerTotals

RULES = ("LPN", "V0", "V1", "V2", "NPD", "NPN", "Isolate", "Edges")


class RuleCounts:
    """Counts reduction-trace steps by rule, from ``apply_reductions`` results."""

    def __init__(self):
        self.steps = Counter()

    def __call__(self, trace) -> None:
        for step in getattr(trace, "steps", ()):
            self.steps[step[0]] += 1


def targets(rules: RuleCounts) -> list[tuple]:
    """``(span name, module, attribute, result hook)`` for the tracer."""
    plain = [
        ("graph.parse_edge_list", "romandom.graph", "parse_edge_list"),
        ("cli.load_graph", "romandom.cli", "_load_graph"),
        ("cli.format_assignment", "romandom.rdf", "format_assignment"),
        ("enum_refined.enumerate", "romandom.enum_refined",
         "enumerate_minimal_rdf_refined"),
        ("enum_refined.pick_branch_vertex", "romandom.enum_refined",
         "pick_branch_vertex"),
        ("enum_refined.undo", "romandom.enum_refined", "undo"),
        ("enum_refined.node", "romandom.enum_refined",
         "RefinedEnumerator._node"),
        ("grdf.measure", "romandom.grdf", "measure"),
        ("extension.project_grdf", "romandom.extension", "project_grdf"),
        ("extension.ext_rd", "romandom.extension", "ext_rd"),
        ("extension.gen_ext_rd", "romandom.extension", "gen_ext_rd"),
        ("extension.ext_po_rd", "romandom.extension", "ext_po_rd"),
        ("extension.gen_ext_po_rd", "romandom.extension", "gen_ext_po_rd"),
        ("rdf.is_minimal_rdf", "romandom.rdf", "is_minimal_rdf"),
        ("rdf.is_po_minimal_rdf", "romandom.rdf", "is_po_minimal_rdf"),
        ("enum_simple.sweep", "romandom.enum_simple",
         "enumerate_minimal_rdf_simple"),
        ("enum_simple.extend_from_v2", "romandom.enum_simple",
         "extend_from_v2"),
        ("enum_simple.po", "romandom.enum_simple",
         "enumerate_po_minimal_simple"),
    ]
    return ([(name, mod, attr, None) for name, mod, attr in plain]
            + [("enum_refined.apply_reductions", "romandom.enum_refined",
                "apply_reductions", rules)])


# name -> unit, in the order they are reported.
METRICS = {
    "enum_refined.apply_reductions.self_s": "s",
    "enum_refined.apply_reductions.calls": "count",
    "enum_refined.relabels_per_call": "ratio",
    **{f"enum_refined.rule.{r}.fires": "count" for r in RULES},
    "enum_refined.pick_branch_vertex.s": "s",
    "enum_refined.undo.s": "s",
    "enum_refined.node.self_s": "s",
    "enum_refined.tree_nodes": "count",
    "enum_refined.us_per_node": "us",
    "grdf.measure.s": "s",
    "extension.project_grdf.s": "s",
    "extension.gen_ext_rd.s": "s",
    "extension.gen_ext_rd.calls": "count",
    "extension.gen_ext_rd.prune_ratio": "ratio",
    "extension.gen_ext_rd.yes_s": "s",
    "extension.gen_ext_rd.no_s": "s",
    "extension.ext_rd.yes_s": "s",
    "extension.ext_rd.no_s": "s",
    "extension.ext_po_rd.yes_s": "s",
    "extension.ext_po_rd.no_s": "s",
    "extension.gen_ext_po_rd.s": "s",
    "extension.gen_ext_po_rd.calls": "count",
    "extension.gen_ext_po_rd.prune_ratio": "ratio",
    "rdf.is_minimal_rdf.s": "s",
    "rdf.is_po_minimal_rdf.s": "s",
    "enum_simple.extend_from_v2.s": "s",
    "enum_simple.extend_from_v2.calls": "count",
    "enum_simple.extend_from_v2.hit_ratio": "ratio",
    "enum_simple.sweep.self_s": "s",
    "enum_simple.po.walk.self_s": "s",
    "enum_simple.po.tree_nodes": "count",
    "cli.format_assignment.s": "s",
    "cli.load_graph.s": "s",
    "cli.lines": "count",
    "graph.parse_edge_list.s": "s",
    "trace.overhead_frac": "ratio",
    "trace.missing_layers": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(totals, rules: Counter,
                 counts: dict[str, int]) -> dict[str, float]:
    """Per-layer values of one traced pass.

    ``totals`` maps span names to :class:`tracer.LayerTotals`; ``counts``
    holds the workload's own counts for the pass (``Workload.counts``).
    """
    def t(name):
        return totals.get(name) or LayerTotals()

    red = t("enum_refined.apply_reductions")
    gen = t("extension.gen_ext_rd")
    gen_po = t("extension.gen_ext_po_rd")
    ext = t("extension.ext_rd")
    ext_po = t("extension.ext_po_rd")
    v2 = t("enum_simple.extend_from_v2")
    out = {
        "enum_refined.apply_reductions.self_s": red.self_s,
        "enum_refined.apply_reductions.calls": red.calls,
        "enum_refined.relabels_per_call": _ratio(
            sum(rules.values()) - rules["Edges"], red.calls),
        **{f"enum_refined.rule.{r}.fires": rules[r] for r in RULES},
        "enum_refined.pick_branch_vertex.s": t(
            "enum_refined.pick_branch_vertex").s,
        "enum_refined.undo.s": t("enum_refined.undo").s,
        "enum_refined.node.self_s": t("enum_refined.node").self_s,
        "enum_refined.tree_nodes": counts["refined_nodes"],
        "grdf.measure.s": t("grdf.measure").s,
        "extension.project_grdf.s": t("extension.project_grdf").s,
        "extension.gen_ext_rd.s": gen.s,
        "extension.gen_ext_rd.calls": gen.calls,
        "extension.gen_ext_rd.prune_ratio": _ratio(gen.none_calls, gen.calls),
        "extension.gen_ext_rd.yes_s": gen.value_s,
        "extension.gen_ext_rd.no_s": gen.none_s,
        "extension.ext_rd.yes_s": ext.value_s,
        "extension.ext_rd.no_s": ext.none_s,
        "extension.ext_po_rd.yes_s": ext_po.value_s,
        "extension.ext_po_rd.no_s": ext_po.none_s,
        "extension.gen_ext_po_rd.s": gen_po.s,
        "extension.gen_ext_po_rd.calls": gen_po.calls,
        "extension.gen_ext_po_rd.prune_ratio": _ratio(gen_po.none_calls,
                                                      gen_po.calls),
        "rdf.is_minimal_rdf.s": t("rdf.is_minimal_rdf").s,
        "rdf.is_po_minimal_rdf.s": t("rdf.is_po_minimal_rdf").s,
        "enum_simple.extend_from_v2.s": v2.s,
        "enum_simple.extend_from_v2.calls": v2.calls,
        "enum_simple.extend_from_v2.hit_ratio": _ratio(
            v2.calls - v2.none_calls, v2.calls),
        "enum_simple.sweep.self_s": t("enum_simple.sweep").self_s,
        "enum_simple.po.walk.self_s": t("enum_simple.po").self_s,
        "enum_simple.po.tree_nodes": counts["po_nodes"],
        "cli.format_assignment.s": t("cli.format_assignment").s,
        "cli.load_graph.s": t("cli.load_graph").s,
        "cli.lines": counts["lines"],
        "graph.parse_edge_list.s": t("graph.parse_edge_list").s,
    }
    return out
