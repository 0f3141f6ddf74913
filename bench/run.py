"""Benchmark of romandom: one workload, one seed, one run.

Run from the root of a checkout:

    python3 bench/run.py --workload enum-refined --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``bench/NOTES.md``):

  enum-refined  ``romandom enumerate --mode refined`` on a fixed mix
  enum-sweep    the same graphs with ``--mode simple``, plus PO sweeps
  ext-stream    extension queries and minimality checks on large graphs

The program is imported from ``src/`` of the checkout and driven through
its public entry points by one closed-loop client in this process.  The
run sets up the inputs several times, then makes whole passes over them
until ``--seconds`` have gone by, checking every pass outside the timed
region.  Times are reported at a nominal host speed: each pass is
bracketed by a fixed reference computation and scaled by it (see
``hostspeed.py``); the unscaled figures are printed alongside and kept
in the result file.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and prints
the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  A copy
of the result, with the sample counts and run metadata, goes to
``.bench_out/``; a traced run also writes the spans of its first traced
pass there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up runs at least SETUP_ROUNDS times and until SETUP_SECONDS have
# been spent in it; setup_s is the median round at the nominal host speed.
SETUP_ROUNDS = 5
SETUP_SECONDS = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "solutions_per_s": "1/s",
    "delay_p50_us": "us",
    "delay_p99_us": "us",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import romandom from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "romandom" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {src}")
    sys.path.insert(0, str(src))
    import romandom
    import romandom.cli  # noqa: F401  (the enumerate entry point)
    if Path(romandom.__file__).resolve().parent != (src / "romandom").resolve():
        raise SystemExit(f"error: romandom imported from {romandom.__file__}")
    return romandom


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files; identifies a non-git checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def quantile_cuts(values: list[float]) -> list[float]:
    """The 99 percentile cut points of ``values``."""
    if len(values) < 2:
        return [values[0]] * 99 if values else [0.0] * 99
    return statistics.quantiles(values, n=100)


def measure_loop(wl, seconds: int, collector) -> tuple[int, int]:
    """Run and check whole passes for ``seconds``; returns (attempted, failed).

    ``collector.run(index)`` runs pass ``index`` (traced or not) and
    ``collector.record`` keeps its figures.  Every pass is checked after
    it is timed, the first one line by line.
    """
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while True:
        p = collector.run(index)
        collector.record(index, p)
        attempted += len(p.ops)
        failed += wl.check(p, full=index == 0)
        index += 1
        if time.perf_counter() - start >= seconds and collector.done():
            return attempted, failed


def pass_cuts(values: list[float]) -> dict[str, float]:
    cuts = quantile_cuts(values)
    return {"p50": cuts[49], "p90": cuts[89], "p99": cuts[98]}


@dataclass
class PassFigures:
    """What one untraced pass contributes, scaled (True) and unscaled."""

    seconds: dict[bool, float]
    delay_us: dict[bool, dict[str, float]]
    query_ms: dict[bool, dict[str, float]]
    solutions: int
    ops: int
    lines: int


class Untraced:
    """Collects the end-to-end figures of untraced passes."""

    def __init__(self, wl):
        self.wl = wl
        self.passes: list[PassFigures] = []

    def done(self) -> bool:
        return True

    def run(self, index: int):
        return self.wl.run_pass(index)

    def record(self, index: int, p) -> None:
        both = (True, False)
        gaps = {k: p.gaps_ns(k) for k in both}
        self.passes.append(PassFigures(
            {k: p.seconds(k) for k in both},
            {k: pass_cuts([g / 1e3 for g in gaps[k]]) for k in both},
            {k: pass_cuts([op.ns * (op.scale if k else 1.0) / 1e6
                           for op in p.ops]) for k in both},
            self.wl.solutions(p), len(p.ops), len(gaps[True])))

    def metrics(self, enum: bool, scaled: bool = True) -> tuple[dict, dict]:
        """Medians over passes of each pass's rates and percentiles.

        With ``scaled`` every time is taken at the nominal host speed
        (see hostspeed.py); without, as the clock read it.
        """
        k = scaled

        def median(f):
            return statistics.median(f(x) for x in self.passes)

        rate = median(lambda x: x.solutions / x.seconds[k])
        delay = {q: median(lambda x: x.delay_us[k][q]) for q in ("p50", "p99")}
        if enum:
            # A client reading the stream asks for one line at a time, so
            # each line answers one query.
            query_rate = rate
            query = {q: median(lambda x: x.delay_us[k][q]) / 1e3
                     for q in ("p50", "p90")}
        else:
            query_rate = median(lambda x: x.ops / x.seconds[k])
            query = {q: median(lambda x: x.query_ms[k][q])
                     for q in ("p50", "p90")}
        values = {
            "solutions_per_s": rate,
            "delay_p50_us": delay["p50"],
            "delay_p99_us": delay["p99"],
            "queries_per_s": query_rate,
            "query_p50_ms": query["p50"],
            "query_p90_ms": query["p90"],
        }
        samples = {
            "passes": len(self.passes),
            "delays_per_pass": statistics.median(x.lines for x in self.passes),
            "queries_per_pass": statistics.median(
                (x.lines if enum else x.ops) for x in self.passes),
        }
        return values, samples


class Traced:
    """Alternates untraced and traced passes; per-layer figures per pass."""

    def __init__(self, wl):
        self.wl = wl
        self.tracer = Tracer()
        self.rules = layers.RuleCounts()
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []
        self.us_per_node: list[float] = []
        self.per_pass: list[dict] = []
        self.first_spans = None

    def done(self) -> bool:
        return bool(self.traced_s) and bool(self.untraced_s)

    def run(self, index: int):
        # Every pass runs the first mix, so traced and untraced passes do
        # the same work and the counts repeat exactly for a seed.
        if index % 2 == 0:
            return self.wl.run_pass(0)
        self.tracer.install(layers.targets(self.rules))
        try:
            return self.wl.run_pass(0)
        finally:
            self.tracer.restore()

    def record(self, index: int, p) -> None:
        counts = self.wl.counts(p)
        if index % 2 == 0:
            self.untraced_s.append(p.seconds())
            if counts["refined_nodes"]:
                self.us_per_node.append(counts["refined_ns"] / 1e3
                                        / counts["refined_nodes"])
            return
        self.traced_s.append(p.seconds())
        # Spans carry clock times; the pass's mean scale converts them.
        scale = p.seconds() / p.seconds(scaled=False)
        spans = self.tracer.take()
        if self.first_spans is None:
            self.first_spans = spans
        values = layers.pass_metrics(summarize(spans), self.rules.steps, counts)
        self.rules.steps.clear()
        self.per_pass.append({
            name: v * scale if layers.METRICS[name] == "s" else v
            for name, v in values.items()})

    def metrics(self) -> dict:
        """Medians over passes, times at the nominal host speed."""
        out = {name: statistics.median(pm[name] for pm in self.per_pass)
               for name in self.per_pass[0]}
        out["enum_refined.us_per_node"] = statistics.median(
            self.us_per_node or [0.0])
        out["trace.overhead_frac"] = (statistics.median(self.traced_s)
                                      / statistics.median(self.untraced_s) - 1)
        out["trace.missing_layers"] = len(set(self.tracer.missing))
        return out


def run(args) -> int:
    rd = load_program()
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.workload, args.seed, rd, out_dir)
    enum = args.workload != "ext-stream"

    rounds = []
    probe = hostspeed.Probe()
    while len(rounds) < SETUP_ROUNDS or sum(r for r, _ in rounds) < SETUP_SECONDS:
        probe.mark()
        start = time.perf_counter()
        wl.setup()
        rounds.append((time.perf_counter() - start, probe.segment))
    scales = probe.finish()
    setup_s = {True: [r * scales[seg] for r, seg in rounds],
               False: [r for r, _ in rounds]}
    wl.prepare()

    collector = Traced(wl) if args.trace else Untraced(wl)
    attempted, failed = measure_loop(wl, args.seconds, collector)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        values = collector.metrics()
        raw = {}
        units = layers.METRICS
        samples = {"untraced_passes": len(collector.untraced_s),
                   "traced_passes": len(collector.traced_s)}
        missing = sorted(set(collector.tracer.missing))
        print(f"missing layers: {', '.join(missing) or 'none'}")
    else:
        values, samples = collector.metrics(enum)
        raw, _ = collector.metrics(enum, scaled=False)
        values["setup_s"] = statistics.median(setup_s[True])
        raw["setup_s"] = statistics.median(setup_s[False])
        values["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "reference_s": hostspeed.REFERENCE_S,
        "samples": {"setup_rounds": len(rounds), **samples},
        "unscaled": raw,
        "passes": [[f.seconds[True], f.seconds[False], f.solutions, f.ops]
                   for f in getattr(collector, "passes", [])],
    }
    for name, m in metrics.items():
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{unscaled}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted}"
          " operations)")
    print("meta: " + json.dumps(meta))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (ROOT / ".bench_out" / f"result-{tag}.json").write_text(
        json.dumps({**result, "meta": meta}, indent=1) + "\n")
    if args.trace:
        names = sorted({s[0] for s in collector.first_spans})
        index = {name: i for i, name in enumerate(names)}
        (ROOT / ".bench_out" / f"spans-{tag}.json").write_text(json.dumps({
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent", "none"],
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                      for s in collector.first_spans],
        }) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
