"""Per-thread span recording and self-time arithmetic for the traced run.

A span is one call across a layer boundary::

    (name, start_ns, end_ns, span_id, parent_id, request_id, value)

``value`` is an optional number the wrapper measured at the boundary
(entries returned, queue depth, a cache-miss flag), or ``None``.

Recording is lock-free on the hot path: each thread appends to its own
list.  The current span and request id live in :mod:`contextvars`, so on
the server's event-loop thread every connection task nests its own spans
(tasks run in copies of the context), and on the engine-actor thread the
values are set explicitly by the closure that carried them across the
hop.  A single process-wide stack would mis-nest spans of interleaved
tasks and of the two threads.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional, Sequence

Span = tuple  # (name, start_ns, end_ns, span_id, parent_id, request_id, value)

NAME, START, END, SPAN_ID, PARENT, REQUEST, VALUE = range(7)

CURRENT_SPAN: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)
CURRENT_REQUEST: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "perfbench_request", default=None
)


class Recorder:
    """Collects spans in per-thread lists; merges them on :meth:`spans`."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lists: list[list[Span]] = []
        self._lock = threading.Lock()

    def new_id(self) -> int:
        return next(self._ids)

    def _list(self) -> list[Span]:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = []
            self._local.spans = spans
            with self._lock:
                self._lists.append(spans)
        return spans

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        span_id: int,
        parent_id: Optional[int],
        request_id: Optional[str],
        value: Optional[float] = None,
    ) -> None:
        self._list().append(
            (name, start_ns, end_ns, span_id, parent_id, request_id, value)
        )

    def spans(self) -> list[Span]:
        """Every span recorded so far, ordered by start time."""
        with self._lock:
            lists = list(self._lists)
        merged = [span for spans in lists for span in list(spans)]
        merged.sort(key=lambda span: (span[START], span[SPAN_ID]))
        return merged

    def dump(self, path: str) -> None:
        """Write the spans as JSON (atomically: tmp file + rename)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.spans(), handle)
        os.replace(tmp, path)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        measure: Optional[Callable[[Sequence[Any], Any], Optional[float]]] = None,
    ) -> Callable[..., Any]:
        """A synchronous wrapper recording one span per call of ``fn``.

        ``measure(args, result)`` may return the span's ``value``.
        """
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = CURRENT_SPAN.get()
            span_id = recorder.new_id()
            token = CURRENT_SPAN.set(span_id)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                CURRENT_SPAN.reset(token)
                value = None if measure is None else measure(args, result)
                recorder.add(
                    name, start, end, span_id, parent, CURRENT_REQUEST.get(), value
                )

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper


def load(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Each span's self time in ns: its duration minus what children cover.

    Children are spans whose ``parent_id`` names the span.  Their
    intervals are clipped to the parent's and merged before subtracting,
    so overlapping children (a parent awaiting two things) are not
    counted twice, and a child outliving its parent does not drive the
    self time negative.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result: dict[int, int] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span[SPAN_ID], ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span[SPAN_ID]] = (end - start) - covered
    return result
