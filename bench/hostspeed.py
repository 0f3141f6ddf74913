"""A fixed reference computation that measures how fast the host runs now.

A shared 2-core virtual machine (Python 3.11) changed speed by up to 2x,
with CPU time equal to wall time: the same work took longer, whatever it
was.
The speed switched between states within a second and drifted over
minutes; between runs five minutes apart the same pass took 45% longer.
No statistic taken inside one run removes a drift that outlasts the run,
so the timed operations are bracketed by this reference unit, at most
``INTERVAL_S`` apart, and every time is scaled by ``REFERENCE_S`` over the
reference time measured around it.  Every reported time is therefore a
time at a nominal host speed, at which the unit takes ``REFERENCE_S``.

The unit is plain Python of the same kind as the program (sets, lists,
small ints, function calls) and imports nothing from it, so a change to
the program cannot change the unit.  Fitted over the passes of one run,
pass time is proportional to the reference time (intercept near zero).
"""

from __future__ import annotations

import gc
import random
import time

REFERENCE_S = 0.005
INTERVAL_S = 0.1


def _unit() -> int:
    rng = random.Random(12345)
    n = 300
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(900):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    total = 0
    for s in range(0, n, 15):
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        total += len(seen)
    covered: set[int] = set()
    for v in range(n):
        covered |= adj[v]
        total += sum(1 for u in adj[v] if u in covered)
    return total


def reference_seconds() -> float:
    """Time of one reference unit, with the garbage collector paused.

    Pausing the collector keeps the unit's time independent of how many
    objects the program under test has left alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _unit()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference units into
    a time at the nominal host speed."""
    return REFERENCE_S / ((before + after) / 2)


class Probe:
    """Reference measurements between the operations of one pass.

    Call :meth:`mark` before each operation; it measures the unit when
    ``INTERVAL_S`` have passed since the last measurement and returns
    whether it did.  ``segment`` is the index of the last measurement.
    After the pass, :meth:`finish` measures once more and returns the
    scale of each segment, from the measurements on either side of it.
    """

    def __init__(self):
        self.refs: list[float] = []
        self._last = 0.0

    @property
    def segment(self) -> int:
        return len(self.refs) - 1

    def mark(self) -> bool:
        if self.refs and time.perf_counter() - self._last < INTERVAL_S:
            return False
        self.refs.append(reference_seconds())
        self._last = time.perf_counter()
        return True

    def finish(self) -> list[float]:
        self.refs.append(reference_seconds())
        return [scale(a, b) for a, b in zip(self.refs, self.refs[1:])]
