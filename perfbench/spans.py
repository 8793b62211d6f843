"""In-memory span recorder for the traced benchmark run.

`Tracer.wrap` replaces a bound method on one instance with a wrapper that
records (name, start, end, parent) around each call. Wrapping instances
leaves the classes, and every other caller, untouched, and calls the
pipeline makes through `self.` or `self.machine.` reach the wrapper because
instance attributes shadow class attributes. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int          # index into Tracer.spans, -1 for a root
    end: float = 0.0
    error: str = ""      # exception type name when the call raised
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def wrap(self, obj, method: str, name) -> None:
        """Record a span around every call of obj.method.

        `name` is a string, or a callable that returns the span name when
        the call starts (for names that depend on run-time state).
        """
        fn = getattr(obj, method)
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name if isinstance(name, str) else name(), _clock(),
                        open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = _clock()
                open_.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start

        setattr(obj, method, traced)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += s.duration
            agg["self_s"] += s.duration - s.child_s
        return out

    def outer_s(self, names: set[str]) -> float:
        """Seconds covered by spans named in `names`, counting nested ones once."""
        total = 0.0
        for s in self.spans:
            if s.name not in names:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p < 0:
                total += s.duration
        return total
