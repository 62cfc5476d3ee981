"""In-memory span recorder used by the traced run.

A span is ``(name, start, end, parent, trace, attrs)`` with perf_counter
timestamps.  The parent is whichever span is open in the current
context when the span starts (a :mod:`contextvars` stack, so asyncio
tasks and timer callbacks inherit the span that scheduled them).
Spans stay in memory and are written as JSON lines by :func:`dump`.

Self time is a span's duration minus the part of its interval that its
children cover (overlapping children are merged first).
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

_ids = itertools.count(1)
_open: ContextVar[Optional["Span"]] = ContextVar("perfbench_span", default=None)


@dataclass
class Span:
    name: str
    start: float
    trace: int
    parent: Optional[int]
    id: int = field(default_factory=lambda: next(_ids))
    end: float = 0.0
    attrs: Dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while :attr:`enabled`; a no-op otherwise."""

    def __init__(self):
        self.enabled = False
        self.spans: List[Span] = []
        self._traces = itertools.count(1)

    def clear(self) -> None:
        self.spans = []

    def begin(self, name: str, **attrs) -> Optional[Span]:
        if not self.enabled:
            return None
        parent = _open.get()
        span = Span(
            name,
            time.perf_counter(),
            parent.trace if parent is not None else next(self._traces),
            parent.id if parent is not None else None,
            attrs=attrs,
        )
        span.attrs["_token"] = _open.set(span)
        return span

    def finish(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        token = span.attrs.pop("_token")
        try:
            _open.reset(token)
        except ValueError:
            # Finished in another context (a flush callback); the
            # opening context's stack unwinds on its own.
            pass
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable, attrs: Callable = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``attrs(args, kwargs)`` may return attributes for the span,
        e.g. the number of frames the call handled.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name, **(attrs(args, kwargs) if attrs else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(span)

        return wrapper

    def wrap_async(self, name: str, fn: Callable, attrs: Callable = None) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = self.begin(name, **(attrs(args, kwargs) if attrs else {}))
            try:
                return await fn(*args, **kwargs)
            finally:
                self.finish(span)

        return wrapper


RECORDER = Recorder()


def _covered(intervals: Iterable) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover (seconds)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        kids = children.get(span.id, ())
        covered = _covered(
            (max(k.start, span.start), min(k.end, span.end))
            for k in kids
            if k.end > span.start and k.start < span.end
        )
        result[span.id] = span.dur - covered
    return result


def dump(spans: List[Span], path: Path) -> None:
    """Write spans as JSON lines (times in microseconds from the first)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = min((s.start for s in spans), default=0.0)
    selfs = self_times(spans)
    with path.open("w") as handle:
        for span in spans:
            handle.write(
                json.dumps(
                    {
                        "name": span.name,
                        "id": span.id,
                        "parent": span.parent,
                        "trace": span.trace,
                        "start_us": round((span.start - origin) * 1e6, 3),
                        "end_us": round((span.end - origin) * 1e6, 3),
                        "self_us": round(selfs[span.id] * 1e6, 3),
                        **{k: v for k, v in span.attrs.items()},
                    }
                )
                + "\n"
            )
