"""Span tracing of the program's layers, installed from outside.

The tracer replaces module-level functions (and methods, named
``Class.method``) of the loaded ``romandom`` modules with wrappers that
record one span per call: name, start, end, the index of the enclosing
span and whether the call returned None.  Every module attribute bound
to the same function object is replaced, so calls through re-exports
(``romandom.cli.format_assignment``) are traced too.  A name that no
longer exists is reported as missing and skipped; the run goes on.

Spans live in memory; :func:`summarize` turns them into per-name call
counts, total time and self time (total minus the time of direct child
spans).
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

# A span: (name, start_ns, end_ns, parent_index, returned_none).
Span = tuple


class Tracer:
    def __init__(self, package: str = "romandom"):
        self.package = package
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            spans[index] = (name, start, clock(), parent, result is None)
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap each ``(span_name, module, attribute, on_result)`` target."""
        self.missing = []
        for name, module_name, attr, on_result in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, last, None) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, on_result)
            if path:
                self._patch(owner, last, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != self.package and not mod_name.startswith(
                        self.package + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list.

        The list is emptied in place because installed wrappers hold it.
        """
        spans = list(self.spans)
        self.spans.clear()
        return spans


@dataclass
class LayerTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    none_calls: int = 0
    none_ns: int = 0

    @property
    def s(self) -> float:
        return self.total_ns / 1e9

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9

    @property
    def none_s(self) -> float:
        return self.none_ns / 1e9

    @property
    def value_s(self) -> float:
        return (self.total_ns - self.none_ns) / 1e9


def summarize(spans: list[Span]) -> dict[str, LayerTotals]:
    child_ns = [0] * len(spans)
    for name, start, end, parent, _none in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, LayerTotals] = {}
    for i, (name, start, end, _parent, none) in enumerate(spans):
        t = totals.get(name)
        if t is None:
            t = totals[name] = LayerTotals()
        dur = end - start
        t.calls += 1
        t.total_ns += dur
        t.self_ns += dur - child_ns[i]
        if none:
            t.none_calls += 1
            t.none_ns += dur
    return totals
