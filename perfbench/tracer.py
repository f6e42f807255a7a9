"""In-memory spans around the benchmark's calls into each layer.

A span is ``(id, name, start, end, parent)``; its layer is the part of
the name before the first dot (``serve.ingest`` belongs to ``serve``).
Spans are kept in memory while the workload runs and written out once,
at the end, so tracing costs no I/O inside a measured interval.  A
layer's self time is the duration of its spans minus the part of each
span's interval that its child spans cover.

A disabled tracer hands out one shared no-op context, so the untraced
runs pay one method call per span site and nothing else.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from typing import Dict, List, Optional, Sequence

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "record", "parent")

    def __init__(self, tracer: "Tracer", name: str, parent: Optional[int]):
        self.tracer = tracer
        self.parent = parent
        self.record: Dict = {"name": name}

    def __enter__(self) -> int:
        tracer = self.tracer
        stack = tracer._stack()
        parent = self.parent if self.parent is not None else (
            stack[-1] if stack else None
        )
        span_id = next(tracer._ids)
        self.record.update(id=span_id, parent=parent)
        stack.append(span_id)
        self.record["start"] = time.perf_counter()
        return span_id

    def __exit__(self, *_exc: object) -> None:
        self.record["end"] = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        with tracer._lock:
            tracer.spans.append(self.record)


class Tracer:
    """Records spans when ``enabled``; otherwise every span is a no-op.

    Spans nest through a per-thread stack; a span opened on another
    thread names its parent explicitly with ``parent=``.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, parent: Optional[int] = None):
        """Context manager timing one call; yields the span id (or None)."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, parent)

    def current(self) -> Optional[int]:
        """The innermost open span on this thread, for cross-thread parents."""
        if not self.enabled:
            return None
        stack = self._stack()
        return stack[-1] if stack else None

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer, summed over every recorded span."""
        children: Dict[int, List[Dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = _covered(
                span["start"], span["end"], children.get(span["id"], ())
            )
            layer = span["name"].split(".", 1)[0]
            own = span["end"] - span["start"] - covered
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def write(self, path: str, extra: Dict) -> None:
        """Write every span plus ``extra`` (the computed ledger) as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "self_seconds": self.self_seconds(),
                    **extra,
                },
                handle,
            )


def _covered(start: float, end: float, spans: Sequence[Dict]) -> float:
    """Length of ``[start, end]`` covered by the union of ``spans``."""
    total = 0.0
    reach = start
    for span in sorted(spans, key=lambda s: s["start"]):
        lo = max(span["start"], reach)
        hi = min(span["end"], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
