"""Spans recorded from outside the library, and the arithmetic on them.

The traced run wraps public entry points on the objects a workload built
(``PIRClient.query``, each replica's ``answer_batch``,
``QueryEngine.selector_matrix``, ``backend.execute_many`` ...) with
:meth:`SpanRecorder.wrap`.  Each call becomes one :class:`Span` — name,
start, end, the span that was open when it started (through a context
variable, so ``asyncio.to_thread`` workers inherit it) and the client query
id when the call serves exactly one request.  Spans stay in memory until
:meth:`SpanRecorder.dump` writes them out at the end of the run.

Nothing under ``src/`` knows about any of this: wrappers are instance
attributes that shadow the class's method on that one object.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_OPEN_SPAN: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_open_span", default=None
)

#: Marks a wrapper installed by a recorder (idempotent re-installs).
_WRAPPED_BY = "_perfbench_recorder"

Interval = Tuple[float, float]


@dataclass
class Span:
    """One timed call into a layer."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    #: Client query id when the call serves a single request, else ``None``.
    request: Optional[int]
    #: Work items the call handled (queries in a batch, 1 for a single call).
    units: int
    #: Query ids a batched call carried (replica ``answer_batch`` only).
    queries: Tuple[int, ...] = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _units_one(args, kwargs, result) -> int:
    return 1


def _no_request(args, kwargs, result) -> Optional[int]:
    return None


class SpanRecorder:
    """Collects :class:`Span` objects from wrapped calls, in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def wrap(
        self,
        obj,
        attr: str,
        name: str,
        units: Callable = _units_one,
        request: Callable = _no_request,
        queries: Optional[Callable] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a timing wrapper (no-op if already ours).

        ``units``/``request``/``queries`` derive the span's fields from the
        call's ``(args, kwargs, result)``.
        """
        target = getattr(obj, attr)
        if getattr(target, _WRAPPED_BY, None) is self:
            return

        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = _OPEN_SPAN.get()
            token = _OPEN_SPAN.set(sid)
            start = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _OPEN_SPAN.reset(token)
            self.spans.append(
                Span(
                    sid=sid,
                    name=name,
                    start=start,
                    end=end,
                    parent=parent,
                    request=request(args, kwargs, result),
                    units=units(args, kwargs, result),
                    queries=tuple(queries(args, kwargs, result)) if queries else (),
                )
            )
            return result

        setattr(wrapper, _WRAPPED_BY, self)
        setattr(obj, attr, wrapper)

    def dump(self, path, context: Dict[str, object]) -> None:
        """Write every span (plus the run context) as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"context": context, "spans": [asdict(span) for span in self.spans]},
                handle,
            )


# -- interval arithmetic -------------------------------------------------------------


def union(intervals: Iterable[Interval]) -> List[Interval]:
    """Merge overlapping intervals into a sorted disjoint list."""
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def intersect_total(a: Sequence[Interval], b: Sequence[Interval]) -> float:
    """Length of the intersection of two disjoint sorted interval lists."""
    covered, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        low, high = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if high > low:
            covered += high - low
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return covered


def self_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Interval]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.seconds
        - intersect_total(union(children.get(span.sid, ())), [(span.start, span.end)])
        for span in spans
    }


def coverage(spans: Sequence[Span], busy: Iterable[Interval]) -> float:
    """Share of the program's busy time that some layer span accounts for.

    ``busy`` holds the intervals the program was working on the benchmark's
    behalf (closed loop: each call into the frontend; open loop: each
    request from submit to record in hand).  Layer spans from every thread
    are merged first, so two replicas scanning at once count once.
    """
    busy_union = union(busy)
    busy_total = sum(end - start for start, end in busy_union)
    if busy_total <= 0:
        return 0.0
    layers = union((span.start, span.end) for span in spans)
    return intersect_total(layers, busy_union) / busy_total
