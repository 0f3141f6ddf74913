"""The polynomial-space gate: no engine's memory grows with its output.

Each run streams the minimal rdfs of cycle20 (34,094 of them) and is
stopped at solution K.  Under tracemalloc, the peak for K = 5,000 may
exceed the peak for K = 500 by at most 4 KiB: an engine that kept its
solutions, or anything per solution, would add far more.  The library
runs stop at a sink that raises; the CLI run stops at a stdout that
counts lines without keeping them and raises ``KeyboardInterrupt``, as
a Ctrl-C would.  ``enumerate --mode oracle`` is the one exception, and
is not gated: the oracle builds the sorted list of every solution before
its first line.
"""

import sys
import tracemalloc

import pytest

from romandom import (enumerate_minimal_rdf_refined,
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


def test_cli_peak_does_not_grow_with_output(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cycle20.edges"
    path.write_text(to_edge_list(gen_cycle(20)))

    def run(k):
        monkeypatch.setattr(sys, "stdout", InterruptingStdout(k))
        assert main(["enumerate", str(path)]) == 130

    _gate(run)
    assert capsys.readouterr().err == "interrupted\n" * 3
