"""In-memory span recording for the traced benchmark run.

A span is one call into a layer's entry point: its name, start, end and
the span that was open when it began (its parent).  Spans stay in
memory and are aggregated when the run ends; nothing is written while
the timed rounds run.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  The program is single-threaded on the
benchmark's side, so children of one span never overlap and the covered
part is the sum of the children's durations.

Entry points are wrapped from the benchmark's own files
(:meth:`Tracer.wrap_attr`, :meth:`Tracer.wrap_function`) and restored by
:meth:`Tracer.restore`; the program's sources are not touched.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    #: Counts recorded at this boundary (e.g. trace records replayed).
    counts: "dict[str, float]" = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanTotals:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: "list[float]" = field(default_factory=list)
    counts: "dict[str, float]" = field(default_factory=dict)


#: Called after a wrapped entry point returns, with the open span, the
#: call's positional and keyword arguments and its return value.
OnCall = Callable[[Span, tuple, dict, object], None]


class Tracer:
    """Records nested spans and owns the entry-point wrappers."""

    def __init__(self, clock: "Callable[[], float]" = time.perf_counter):
        self.clock = clock
        self.spans: "list[Span]" = []
        self._stack: "list[int]" = []
        self._restore: "list[tuple[object, str, object]]" = []
        #: Wrap targets that were not found (reported as absent).
        self.missing: "list[str]" = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def call(self, name: str, fn, args, kwargs, on_call=None):
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        if on_call is not None:
            on_call(span, args, kwargs, result)
        return result

    def clear(self) -> None:
        self.spans.clear()

    # -- wrapping ------------------------------------------------------

    def wrap_attr(
        self, owner: object, attr: str, name: str,
        on_call: "OnCall | None" = None,
    ) -> bool:
        """Wrap ``owner.attr`` (a method or module function) in a span.

        Returns False, and records the target as missing, when the
        attribute does not exist, so a benchmark outlives the deletion
        of an entry point it measures.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None:
            self.missing.append(label)
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, raw, args, kwargs, on_call)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, raw))
        return True

    def wrap_function(
        self, module_name: str, attr: str, name: str,
        on_call: "OnCall | None" = None, package: str = "repro",
    ) -> int:
        """Wrap a module function in every module that imported it.

        Callers look a function up in their own module's namespace
        (``from x import f``), so the wrapper replaces each reference
        under ``package`` that is the same object.  Returns how many
        references were wrapped (0 records the target as missing).
        """
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return 0
        wrapped = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    wrapped += self.wrap_attr(mod, key, name, on_call)
        return wrapped

    def restore(self) -> None:
        """Put every wrapped attribute back (last wrapped first)."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def self_times(spans: "list[Span]") -> "list[float]":
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def aggregate(spans: "list[Span]") -> "dict[str, SpanTotals]":
    """Per-name call count, inclusive and self time, and summed counts."""
    out: "dict[str, SpanTotals]" = {}
    for span, own in zip(spans, self_times(spans)):
        totals = out.setdefault(span.name, SpanTotals())
        totals.calls += 1
        totals.total_s += span.duration
        totals.self_s += own
        totals.durations.append(span.duration)
        for key, value in span.counts.items():
            totals.counts[key] = totals.counts.get(key, 0.0) + value
    return out
