"""Command-line front end.

Subcommands: ``enumerate`` (stream minimal rdfs), ``extend`` (extension
query with witness), ``check`` (minimality report) and ``gen`` (instance
generators).  Exit codes: 0 for success / yes / minimal, 1 for no / not
minimal, 2 for usage errors, 130 when interrupted (Ctrl-C prints
``interrupted`` on stderr, with no traceback; ``enumerate --stats json``
prints the counters gathered so far first).  ``enumerate`` is the one
enumeration command; it refuses refined mode with ``--order po``, and the
oracle refuses a graph above its cap itself, both before any output.
Running out of memory exits 2 with a message too (its own for loading a
graph, for ``gen`` and for an ``enumerate`` run).  When the reader closes
stdout early (``romandom enumerate g.edges | head``) any command stops
quietly with exit code 0.

``enumerate`` writes each solution with one ``write`` and no flush: the
subset walk and the refined search hand over their output lines as is,
and only the oracle formats its own; ``--count-only`` builds no line.
On a terminal stdout is line-buffered; on a pipe or file it goes out in
blocks of about 8 KiB, so a reader gets a line at most about 8192/(n+1)
solutions later, or at the end, on Ctrl-C, or when stdout closes: the
delay stays polynomial.  It stores no solution in any mode; for sorted lines from
the simple or refined modes, pipe them through ``LC_ALL=C sort``.

:func:`main` may be called many times in one process; the parser is built
on the first call and reused.
"""

from __future__ import annotations

import argparse
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
from .graph import Graph, is_ascii_decimal
from .oracle import OracleCapExceeded
from .rdf import Assignment, minimality_report
from .stats import EnumStats


class UsageError(Exception):
    pass


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return parse_edge_list(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except MemoryError as exc:
        raise UsageError(f"{path}: out of memory loading the graph") from exc


def _discard(solution) -> None:
    pass


def _run_enumeration(g: Graph, mode: str, order: str, emit,
                     stats: EnumStats) -> EnumStats:
    """Run one enumeration, keeping its counters in ``stats`` as it goes.
    ``emit`` receives each solution as its output line: both searches hand
    over their own, the oracle's are formatted here.  With ``emit=None``
    the run only counts, asking no line.
    """
    if mode != "oracle":
        search = (enumerate_minimal_rdf_refined if mode == "refined"
                  else enumerate_po_minimal_simple if order == "po"
                  else enumerate_minimal_rdf_simple)
        return search(g, emit or _discard, stats=stats,
                      lines=emit is not None)
    solutions = brute_minimal_rdfs(g, order=order)  # refuses n > its cap
    stats.tree_nodes = stats.max_gap = 3 ** g.n
    start = time.perf_counter()
    try:
        for f in solutions:
            if emit is not None:
                emit(format_assignment(f) + "\n")
            stats.solutions += 1
    finally:
        stats.wall_ms = int((time.perf_counter() - start) * 1000)
    return stats


# The counters only the refined search fills; ``--stats json`` prints them
# under ``--mode refined`` alone.
_REFINED_ONLY = ("phase_transitions", "tree_ratio", "rule_fires", "prunes")


def _stats_json(stats: EnumStats, mode: str) -> str:
    # vars, not dataclasses.asdict: json.dumps copies nothing, so the
    # fields need no deep copy first.
    return json.dumps({key: value for key, value in vars(stats).items()
                       if mode == "refined" or key not in _REFINED_ONLY})


def _cmd_enumerate(args) -> int:
    g = _load_graph(args.graph)
    if args.mode == "refined" and args.order == "po":
        raise UsageError("refined mode supports the standard order only")
    # No flush per line: stdout is line-buffered on a terminal and
    # block-buffered on a pipe or file.
    emit = None if args.count_only else sys.stdout.write

    stats = EnumStats()
    try:
        _run_enumeration(g, args.mode, args.order, emit, stats)
    except KeyboardInterrupt:
        # Ctrl-C: report the counters gathered so far, then main exits 130.
        if args.stats == "json":
            print(_stats_json(stats, args.mode), file=sys.stderr)
        raise
    except MemoryError as exc:
        raise UsageError(f"{args.mode} enumeration on {g.n} vertices ran out "
                         "of memory") from exc
    if args.count_only:
        print(stats.solutions)
    if args.stats == "json":
        print(_stats_json(stats, args.mode), file=sys.stderr)
    return 0


def _parse_forbidden(spec: str | None) -> frozenset[int]:
    # ExtensionInstance checks the ids' range; ids are as in an edge list.
    if not spec:
        return frozenset()
    try:
        if not is_ascii_decimal(spec):
            raise ValueError
        return frozenset(int(part) for part in spec.split(",")
                         if part.strip() != "")
    except ValueError as exc:
        raise UsageError(f"bad forbidden list {spec!r}") from exc


def _read_assignment(spec: str, n: int) -> Assignment:
    # "-" reads it from stdin: argv caps one string at 128 KiB on Linux.
    return parse_assignment(sys.stdin.read() if spec == "-" else spec, n)


def _cmd_extend(args) -> int:
    g = _load_graph(args.graph)
    try:
        f = _read_assignment(args.assignment, g.n)
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
        f = _read_assignment(args.assignment, g.n)
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


def decimal(text: str, kind: type = int):
    if not is_ascii_decimal(text):
        raise ValueError(f"{text!r} is not in ASCII decimal")
    return kind(text)


# The instance families of ``gen``: name -> (generator, parameter types).
# ``random`` also takes the seed.
GENERATORS = {
    "cycle": (gen_cycle, (decimal,)),
    "star": (gen_star, (decimal,)),
    "null": (gen_null, (decimal,)),
    "c5pow": (gen_c5_copies, (decimal,)),
    "random": (gen_random, (decimal, lambda text: decimal(text, float))),
}


def _cmd_gen(args) -> int:
    family, params = args.family, args.params
    gen, types = GENERATORS[family]
    if len(params) != len(types):
        raise UsageError(f"{family} takes {len(types)} parameter(s), "
                         f"got {len(params)}")
    try:
        values = [t(p) for t, p in zip(types, params)]
        g = gen(*values, args.seed) if gen is gen_random else gen(*values)
        text = to_edge_list(g)
    except ValueError as exc:
        raise UsageError(f"bad parameters for {family}: {exc}") from exc
    except MemoryError as exc:
        raise UsageError(f"{family} {' '.join(params)}: out of "
                         "memory") from exc
    sys.stdout.write(text)
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
                   default="simple")
    p.add_argument("--order", choices=["standard", "po"], default="standard")
    p.add_argument("--count-only", action="store_true",
                   help="print only the number of solutions")
    p.add_argument("--stats", choices=["json"],
                   help="emit run statistics to stderr")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("extend", help="extension query with witness")
    p.add_argument("graph")
    p.add_argument("assignment",
                   help="digit string over {0,1,2}; - reads it from stdin")
    p.add_argument("--forbidden", help="comma-separated ids barred from value 2")
    p.add_argument("--order", choices=["standard", "po"], default="standard")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("check", help="report which minimality conditions fail")
    p.add_argument("graph")
    p.add_argument("assignment", help="as for extend")
    p.add_argument("--order", choices=["standard", "po"], default="standard")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="print a generated instance as an edge list")
    p.add_argument("family", choices=list(GENERATORS))
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--seed", type=decimal, default=0)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush here, not at exit, so a closed pipe lands in the handler.
        sys.stdout.flush()
        return code
    except (UsageError, OracleCapExceeded) as exc:
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
