"""The polynomial-space gate: no engine's memory grows with its output.

Each run streams the minimal rdfs of cycle20 (34,094 of them) and is
stopped at solution K.  Under tracemalloc, the peak for K = 5,000 may
exceed the peak for K = 500 by at most 4 KiB: an engine that kept its
solutions, or anything per solution, would add far more.  The library
runs stop at a sink that raises; the CLI runs stop at a stdout that
counts lines without keeping them and raises ``KeyboardInterrupt``, as
a Ctrl-C would.

The oracle examines all 3^n assignments, so it is gated on n instead:
a whole run on cycle9 may peak at most 4 KiB above a whole run on
cycle6, in both orders, as a library stream and as ``enumerate --mode
oracle``.  An oracle that kept its rdfs, or its solutions, would add
about 1 MB at cycle9.
"""

import sys
import tracemalloc

import pytest

from romandom import (brute_minimal_rdfs, enumerate_minimal_rdf_refined,
                      enumerate_minimal_rdf_simple,
                      enumerate_po_minimal_simple, gen_cycle, to_edge_list)
from romandom.cli import main
from support import InterruptingStdout

SLACK = 4096  # bytes


class _Stop(Exception):
    pass


def _stopping_sink(k):
    seen = 0

    def sink(solution):
        nonlocal seen
        seen += 1
        if seen == k:
            raise _Stop

    return sink


def _library_run(engine):
    def run(k):
        with pytest.raises(_Stop):
            engine(gen_cycle(20), _stopping_sink(k))
    return run


def _peak(run, k):
    """The tracemalloc peak of ``run(k)`` above what was traced before."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(k)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _gate(run):
    # The warm-up fills what the first calls fill once: the parser, the
    # adaptive interpreter, and CPython's free list of tuples of each size
    # (up to 2,000), which the walk's leaf tuples would fill in the first
    # measured runs.
    run(2500)
    assert _peak(run, 5000) <= _peak(run, 500) + SLACK


@pytest.mark.parametrize("engine", [
    enumerate_minimal_rdf_simple, enumerate_po_minimal_simple,
    enumerate_minimal_rdf_refined,
], ids=["walk", "po-walk", "refined"])
def test_library_peak_does_not_grow_with_output(engine):
    _gate(_library_run(engine))


@pytest.mark.parametrize("mode, order", [
    ("simple", "standard"), ("simple", "po"), ("refined", "standard"),
])
def test_cli_peak_does_not_grow_with_output(tmp_path, capsys, monkeypatch,
                                            mode, order):
    path = tmp_path / "cycle20.edges"
    path.write_text(to_edge_list(gen_cycle(20)))

    def run(k):
        monkeypatch.setattr(sys, "stdout", InterruptingStdout(k))
        assert main(["enumerate", str(path), "--mode", mode,
                     "--order", order]) == 130

    _gate(run)
    assert capsys.readouterr().err == "interrupted\n" * 3


class _NullStdout:
    """A ``sys.stdout`` that keeps nothing written to it."""

    def write(self, text):
        pass

    def flush(self):
        pass


def _oracle_gate(run):
    run(6)  # the warm-up, as in _gate
    assert _peak(run, 9) <= _peak(run, 6) + SLACK


@pytest.mark.parametrize("order", ["standard", "po"])
def test_oracle_peak_does_not_grow_with_n(order):
    def run(n):
        for _ in brute_minimal_rdfs(gen_cycle(n), order):
            pass

    _oracle_gate(run)


@pytest.mark.parametrize("order", ["standard", "po"])
def test_cli_oracle_peak_does_not_grow_with_n(tmp_path, monkeypatch, order):
    for n in (6, 9):
        (tmp_path / f"cycle{n}.edges").write_text(to_edge_list(gen_cycle(n)))

    def run(n):
        monkeypatch.setattr(sys, "stdout", _NullStdout())
        assert main(["enumerate", str(tmp_path / f"cycle{n}.edges"),
                     "--mode", "oracle", "--order", order]) == 0

    _oracle_gate(run)
