"""Command-line front end.

Subcommands: ``enumerate`` (stream minimal rdfs), ``extend`` (extension
query with witness), ``check`` (minimality report), ``gen`` (instance
generators) and ``bench`` (CSV benchmark rows).  Exit codes: 0 for
success / yes / minimal, 1 for no / not minimal, 2 for usage errors,
130 when interrupted (Ctrl-C prints ``interrupted`` on stderr, with no
traceback; ``enumerate --stats json`` prints the counters gathered so far
first).  A refined search deeper than the recursion limit is a usage
error: it exits 2 and suggests ``--mode simple``.  When the reader closes
stdout early (``romandom enumerate g.edges | head``) the command stops
quietly with exit code 0.

:func:`main` may be called many times in one process; the parser is built
on the first call and reused.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time

from . import (brute_minimal_rdfs, enumerate_minimal_rdf_refined,
               enumerate_minimal_rdf_simple, enumerate_po_minimal_simple,
               format_assignment, gen_c5_copies, gen_cycle, gen_ext_po_rd,
               gen_ext_rd, gen_null, gen_random, gen_star, parse_assignment,
               parse_edge_list, to_edge_list)
from .extension import ExtensionInstance
from .graph import Graph, GraphFormatError
from .oracle import DEFAULT_CAP, OracleCapExceeded
from .rdf import minimality_report
from .stats import EnumStats


class UsageError(Exception):
    pass


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_edge_list(text)
    except (GraphFormatError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _check_mode(mode: str, order: str) -> None:
    if mode not in ("simple", "refined", "oracle"):
        raise UsageError(f"unknown mode {mode!r}")
    if mode == "refined" and order == "po":
        raise UsageError("refined mode supports the standard order only")


def _run_enumeration(g: Graph, mode: str, order: str, sink,
                     stats: EnumStats) -> EnumStats:
    """Run one enumeration, keeping its counters in ``stats`` as it goes."""
    _check_mode(mode, order)
    if mode == "oracle":
        start = time.perf_counter()
        try:
            solutions = brute_minimal_rdfs(g, order=order)
        except OracleCapExceeded as exc:
            raise UsageError(str(exc)) from exc
        stats.tree_nodes = 3 ** g.n
        for f in solutions:
            sink(f)
            stats.solutions += 1
        stats.wall_ms = int((time.perf_counter() - start) * 1000)
        return stats
    if mode == "simple":
        if order == "po":
            return enumerate_po_minimal_simple(g, sink, stats=stats)
        return enumerate_minimal_rdf_simple(g, sink, stats=stats)
    try:
        return enumerate_minimal_rdf_refined(g, sink, stats=stats)
    except RecursionError as exc:
        # The refined search recurses once per tree level.
        raise UsageError(f"refined search on {g.n} vertices is deeper than "
                         "the recursion limit; use --mode simple") from exc


def _cmd_enumerate(args) -> int:
    g = _load_graph(args.graph)
    collected: list[str] = []
    if args.count_only:
        def sink(f):
            pass
    elif args.sorted:
        def sink(f):
            collected.append(format_assignment(f))
    else:
        write, flush = sys.stdout.write, sys.stdout.flush

        def sink(f):
            write(format_assignment(f) + "\n")
            flush()

    stats = EnumStats()
    try:
        _run_enumeration(g, args.mode, args.order, sink, stats)
    except KeyboardInterrupt:
        # Ctrl-C: report the counters gathered so far, then main exits 130.
        if args.stats == "json":
            print(json.dumps(stats.to_json()), file=sys.stderr)
        raise
    if args.count_only:
        print(stats.solutions)
    elif args.sorted:
        for line in sorted(collected):
            print(line)
    if args.stats == "json":
        print(json.dumps(stats.to_json()), file=sys.stderr)
    return 0


def _parse_forbidden(spec: str | None) -> frozenset[int]:
    # ExtensionInstance checks the ids' range.
    if not spec:
        return frozenset()
    try:
        return frozenset(int(part) for part in spec.split(",")
                         if part.strip() != "")
    except ValueError as exc:
        raise UsageError(f"bad forbidden list {spec!r}") from exc


def _cmd_extend(args) -> int:
    g = _load_graph(args.graph)
    try:
        f = parse_assignment(args.assignment, g.n)
        inst = ExtensionInstance(g, f, _parse_forbidden(args.forbidden))
        witness = (gen_ext_po_rd if args.order == "po" else gen_ext_rd)(inst)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if witness is None:
        print("NO")
        return 1
    print(f"YES {format_assignment(witness)}")
    return 0


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    try:
        f = parse_assignment(args.assignment, g.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    failed = minimality_report(g, f, order=args.order)
    label = "minimal" if args.order == "standard" else "PO-minimal"
    if not failed:
        print(f"{label}: all conditions pass")
        return 0
    for cond in failed:
        print(f"fails: {cond}")
    return 1


# Instance families shared by ``gen`` and ``bench``: name -> (generator,
# parameter types).  ``random`` also takes the seed.
GENERATORS = {
    "cycle": (gen_cycle, (int,)),
    "star": (gen_star, (int,)),
    "null": (gen_null, (int,)),
    "c5pow": (gen_c5_copies, (int,)),
    "random": (gen_random, (int, float)),
}


def _build(family: str, params: list, seed: int = 0) -> Graph:
    if family not in GENERATORS:
        raise UsageError(f"unknown family {family!r}")
    gen, types = GENERATORS[family]
    if len(params) != len(types):
        raise UsageError(f"{family} takes {len(types)} parameter(s), "
                         f"got {len(params)}")
    try:
        values = [t(p) for t, p in zip(types, params)]
        return gen(*values, seed) if gen is gen_random else gen(*values)
    except ValueError as exc:
        raise UsageError(f"bad parameters for {family}: {exc}") from exc


def _cmd_gen(args) -> int:
    g = _build(args.family, args.params, args.seed)
    sys.stdout.write(to_edge_list(g))
    return 0


def _bench_instances(spec: str) -> list[Graph]:
    try:
        name, lo, hi = spec.split(":")
        ks = range(int(lo), int(hi) + 1)
    except ValueError:
        raise UsageError("family spec must look like name:lo:hi, "
                         "e.g. c5pow:1:3") from None
    if not ks:
        raise UsageError(f"empty family range {lo}..{hi}")
    return [_build(name, [k]) for k in ks]


def _cmd_bench(args) -> int:
    modes = [m for m in args.modes.split(",") if m]
    if not modes:
        raise UsageError("empty mode list")
    for mode in modes:
        _check_mode(mode, args.order)
    graphs = _bench_instances(args.family)
    n = max(g.n for g in graphs)
    if "oracle" in modes and n > DEFAULT_CAP:
        # Before any row, as the oracle would refuse only at its own row.
        raise UsageError(f"oracle mode refused: n={n} exceeds "
                         f"cap={DEFAULT_CAP}")
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "mode", "solutions", "tree_nodes", "max_gap",
                     "wall_ms"])
    for g in graphs:
        for mode in modes:
            stats = _run_enumeration(g, mode, args.order, lambda f: None,
                                     EnumStats())
            writer.writerow([g.n, mode, stats.solutions, stats.tree_nodes,
                             stats.max_gap, stats.wall_ms])
            sys.stdout.flush()
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``romandom`` parser, built once per process and shared.

    Parsing leaves it unchanged, so every call of :func:`main` reuses it;
    callers must not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="romandom",
        description="Minimal Roman dominating functions: enumeration, "
                    "extension queries, minimality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream all minimal rdfs of a graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--mode", choices=["simple", "refined", "oracle"],
                   default="refined")
    p.add_argument("--order", choices=["standard", "po"], default="standard")
    p.add_argument("--count-only", action="store_true",
                   help="print only the number of solutions")
    p.add_argument("--sorted", action="store_true",
                   help="collect and sort output lines (disables streaming)")
    p.add_argument("--stats", choices=["json"],
                   help="emit run statistics to stderr")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("extend", help="extension query with witness")
    p.add_argument("graph")
    p.add_argument("assignment", help="digit string over {0,1,2}")
    p.add_argument("--forbidden", help="comma-separated ids barred from value 2")
    p.add_argument("--order", choices=["standard", "po"], default="standard")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("check", help="report which minimality conditions fail")
    p.add_argument("graph")
    p.add_argument("assignment")
    p.add_argument("--order", choices=["standard", "po"], default="standard")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="print a generated instance as an edge list")
    p.add_argument("family", choices=list(GENERATORS))
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="benchmark enumerators over a family")
    p.add_argument("--family", required=True, help="name:lo:hi, e.g. c5pow:1:3")
    p.add_argument("--modes", required=True,
                   help="comma-separated: simple,refined,oracle")
    p.add_argument("--order", choices=["standard", "po"], default="standard")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Send the rest of the buffered output, flushed at exit, nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
