"""The workloads: set-up, one measured pass, and the correctness gate.

A workload object owns its inputs.  ``setup()`` generates them, writes
the edge lists and loads them; ``prepare()`` computes what the answers
are checked against; ``run_pass(index)`` makes one timed pass through
the inputs with a single closed-loop client; ``check()`` verifies a pass
outside the timed region and returns the number of failed operations.
An operation is one instance enumerated or one query.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import inputs
import verify

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


class LineStamps:
    """Stand-in for stdout that keeps the text and stamps every line end.

    ``stamps[i]`` is the ``perf_counter_ns`` reading when the i-th
    newline was written, so consecutive stamps give the delay between
    output lines as a reader of the stream would see it.
    """

    def __init__(self):
        self.chunks: list[str] = []
        self.stamps: list[int] = []

    def write(self, s: str) -> int:
        self.chunks.append(s)
        k = s.count("\n")
        if k:
            t = time.perf_counter_ns()
            self.stamps.extend([t] * k)
        return len(s)

    def flush(self) -> None:
        pass

    def lines(self) -> list[str]:
        return "".join(self.chunks).split("\n")[:len(self.stamps)]


@dataclass
class Op:
    """One timed operation and what it returned.

    ``stamps`` are the times results reached the client; the first result
    is measured from ``ready_ns``, when the client was ready to ask.
    ``scale`` turns its times into times at the nominal host speed.
    """

    label: str
    ready_ns: int
    start_ns: int
    end_ns: int
    result: object = None
    stamps: list[int] = field(default_factory=list)
    error: str | None = None
    stats: dict | None = None
    segment: int = 0
    scale: float = 1.0

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Pass:
    ops: list[Op]

    def seconds(self, scaled: bool = True) -> float:
        return sum(op.ns * (op.scale if scaled else 1.0)
                   for op in self.ops) / 1e9

    def gaps_ns(self, scaled: bool = True) -> list[float]:
        """Delay before each result, as the client saw it."""
        out = []
        for op in self.ops:
            k = op.scale if scaled else 1.0
            prev = op.ready_ns
            for t in op.stamps:
                out.append((t - prev) * k)
                prev = t
        return out


def _timed_pass(ops: list[Op], probe: hostspeed.Probe) -> Pass:
    scales = probe.finish()
    for op in ops:
        op.scale = scales[op.segment]
    return Pass(ops)


def _report(label: str, problem: str) -> int:
    print(f"check failed: {label}: {problem}", file=sys.stderr)
    return 1


class EnumWorkload:
    """``romandom enumerate`` through the CLI, in-process, lines stamped."""

    def __init__(self, name: str, seed: int, romandom, out_dir: Path):
        self.romandom = romandom
        self.out_dir = out_dir
        self.mixes = inputs.enum_mixes(name, seed)
        # instance name -> (instance, edge-list path, loaded graph)
        self.cases: dict[str, tuple] = {}
        self.reference: dict[str, tuple[int, str]] = {}

    def setup(self) -> None:
        rd = self.romandom
        cases = {}
        for inst in (i for mix in self.mixes for i in mix):
            if inst.name in cases:
                continue
            g = getattr(rd, inst.build[0])(*inst.build[1:])
            path = self.out_dir / f"{inst.name}.edges"
            path.write_text(rd.to_edge_list(g))
            loaded = rd.parse_edge_list(path.read_text())
            cases[inst.name] = (inst, path, loaded)
        self.cases = cases

    def prepare(self) -> None:
        """Recorded counts and digests; the other enumerator for random graphs.

        The refined workload is checked against the subset sweep and the
        sweep against the refined enumerator, once per run.
        """
        rd = self.romandom
        for inst, _path, g in self.cases.values():
            if inst.expected is not None:
                rec = EXPECTED[inst.expected]
                self.reference[inst.name] = (rec["count"], rec["digest"])
                continue
            other = (rd.enumerate_minimal_rdf_simple if inst.mode == "refined"
                     else rd.enumerate_minimal_rdf_refined)
            lines: list[str] = []
            other(g, lambda f: lines.append("".join(map(str, f))))
            self.reference[inst.name] = (len(lines), verify.digest(lines))
        self._adj = {inst.name: verify.adjacency(*verify.read_edge_list(
            path.read_text())) for inst, path, _g in self.cases.values()}

    def run_pass(self, index: int) -> Pass:
        """Pass ``index`` runs mix ``index`` modulo the number of mixes."""
        main = self.romandom.cli.main
        probe = hostspeed.Probe()
        ops = []
        for inst in self.mixes[index % len(self.mixes)]:
            path = self.cases[inst.name][1]
            probe.mark()
            out, err = LineStamps(), io.StringIO()
            argv = ["enumerate", str(path), "--mode", inst.mode,
                    "--order", inst.order, "--stats", "json"]
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter_ns()
                try:
                    rc = main(argv)
                except Exception:
                    rc = None
                    error = traceback.format_exc()
                end = time.perf_counter_ns()
            op = Op(inst.name, start, start, end, (rc, out.lines()),
                    out.stamps, error, segment=probe.segment)
            try:
                op.stats = json.loads(err.getvalue().strip().splitlines()[-1])
            except (IndexError, ValueError):
                op.stats = None
            ops.append(op)
        return _timed_pass(ops, probe)

    def check(self, p: Pass, full: bool) -> int:
        """Failed operations in a pass; ``full`` also verifies every line."""
        failed = 0
        for op in p.ops:
            inst, _path, g = self.cases[op.label]
            problem = self._problem(inst, g, op, full)
            if problem:
                failed += _report(op.label, problem)
        return failed

    def _problem(self, inst, g, op: Op, full: bool) -> str | None:
        if op.error:
            return op.error
        rc, lines = op.result
        if rc != 0:
            return f"exit code {rc}"
        count, digest = self.reference[inst.name]
        if len(lines) != count:
            return f"{len(lines)} lines, expected {count}"
        if verify.digest(lines) != digest:
            return "solution digest differs from the reference"
        stats = op.stats
        if stats is None or stats.get("solutions") != count:
            return f"--stats json reports {stats}"
        if inst.mode == "refined":
            if stats["max_gap"] > 2 * g.n:
                return f"max_gap {stats['max_gap']} > 2n = {2 * g.n}"
            if stats["tree_nodes"] > 50 * 1.9332 ** g.n:
                return f"tree_nodes {stats['tree_nodes']} > 50*1.9332^n"
        if full:
            adj = self._adj[inst.name]
            po = inst.order == "po"
            for line in lines:
                if not verify.is_minimal(adj, [int(c) for c in line], po):
                    return f"line {line} is not {'PO-' if po else ''}minimal"
        return None

    @staticmethod
    def solutions(p: Pass) -> int:
        return sum(len(op.stamps) for op in p.ops)

    def counts(self, p: Pass) -> dict[str, int]:
        """Lines and the tree nodes the enumerators reported (``--stats``)."""
        out = {"lines": self.solutions(p), "refined_nodes": 0,
               "refined_ns": 0, "po_nodes": 0}
        for op in p.ops:
            inst = self.cases[op.label][0]
            nodes = (op.stats or {}).get("tree_nodes", 0)
            if inst.mode == "refined":
                out["refined_nodes"] += nodes
                out["refined_ns"] += op.ns * op.scale
            elif inst.order == "po":
                out["po_nodes"] += nodes
        return out



_EXT_CALLS = ("ext_rd", "gen_ext_rd", "ext_po_rd", "is_minimal_rdf",
              "is_po_minimal_rdf")


class ExtStreamWorkload:
    """Closed loop of extension queries and minimality checks on large graphs."""

    def __init__(self, name: str, seed: int, romandom, out_dir: Path):
        self.seed = seed
        self.romandom = romandom
        self.out_dir = out_dir

    def setup(self) -> None:
        rd = self.romandom
        planted = inputs.planted_graphs(self.seed)
        self.graphs = {}
        self._adj = {}
        for pg in planted:
            path = self.out_dir / f"{pg.name}.edges"
            path.write_text(inputs.edge_list_text(pg.n, pg.edges))
            self.graphs[pg.name] = rd.parse_edge_list(path.read_text())
            self._adj[pg.name] = verify.adjacency(pg.n, pg.edges)
        self.queries = inputs.query_stream(planted, self.seed)

    def prepare(self) -> None:
        pass

    def run_pass(self, index: int) -> Pass:
        rd = self.romandom
        calls = {name: getattr(rd, name) for name in _EXT_CALLS}
        instance = rd.ExtensionInstance
        graphs = self.graphs
        probe = hostspeed.Probe()
        ops = []
        ready = time.perf_counter_ns()
        for q in self.queries:
            if probe.mark():
                ready = time.perf_counter_ns()
            g = graphs[q.graph]
            fn = calls[q.call]
            error = result = None
            start = time.perf_counter_ns()
            try:
                if q.call == "gen_ext_rd":
                    result = fn(instance(g, q.values, q.forbidden))
                else:
                    result = fn(g, q.values)
            except Exception:
                error = traceback.format_exc()
            end = time.perf_counter_ns()
            ops.append(Op(q.kind, ready, start, end, result, [end], error,
                          segment=probe.segment))
            ready = end
        return _timed_pass(ops, probe)

    def check(self, p: Pass, full: bool) -> int:
        failed = 0
        for q, op in zip(self.queries, p.ops):
            problem = op.error or self._problem(q, op.result)
            if problem:
                failed += _report(f"{q.kind} on {q.graph}", problem)
        return failed

    def _problem(self, q: inputs.Query, result) -> str | None:
        if q.call.startswith("is_"):
            if result is not q.expect:
                return f"returned {result!r}, expected {q.expect}"
            return None
        if (result is not None) != q.expect:
            return f"answered {'YES' if result is not None else 'NO'}"
        if result is None:
            return None
        po = "po" in q.call
        if not verify.above(q.values, result, po):
            return "witness is not above the input"
        if any(result[v] == 2 for v in q.forbidden):
            return "witness gives 2 to a forbidden vertex"
        if not verify.is_minimal(self._adj[q.graph], result, po):
            return "witness is not minimal"
        return None

    @staticmethod
    def solutions(p: Pass) -> int:
        """Witnesses returned: the minimal rdfs the stream delivers."""
        return sum(1 for op in p.ops if isinstance(op.result, tuple))

    @staticmethod
    def counts(p: Pass) -> dict[str, int]:
        return {"lines": 0, "refined_nodes": 0, "refined_ns": 0,
                "po_nodes": 0}



WORKLOADS = {
    "enum-refined": EnumWorkload,
    "enum-sweep": EnumWorkload,
    "ext-stream": ExtStreamWorkload,
}
