"""The correctness gate: every timed answer against an in-process engine.

Runs after the timed phase, untimed.  The reference is a
:class:`~repro.core.engine.LiveFlowEngine` built from
:func:`repro.serve.scenario.build_venue` for the same venue and fed the
same rows.  Answers must match bit for bit: same POI ids in the same
order, and flows with the same IEEE-754 bit pattern.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from repro.core.monitor import SlidingIntervalTopKMonitor
from repro.serve.scenario import build_engine, build_venue

from inputs import K, VENUE_CONFIG, WINDOW_S, Batch, Query

Answer = tuple[tuple[str, str], ...]


def served_answer(data: bytes, key: str = "entries") -> Answer:
    """``((poi_id, flow.hex()), ...)`` from a served result body."""
    payload = json.loads(data)
    if key == "result":
        payload = payload["result"]
    return tuple(
        (str(entry["poi"]["poi_id"]), float(entry["flow"]).hex())
        for entry in payload["entries"]
    )


def reference_answer(result: Any) -> Answer:
    return tuple((str(entry.poi.poi_id), float(entry.flow).hex()) for entry in result.entries)


class Reference:
    """The in-process reference engine for one venue."""

    def __init__(self, rows: Iterable[Any] = ()) -> None:
        self.engine = build_engine(build_venue(VENUE_CONFIG))
        rows = list(rows)
        if rows:
            self.engine.ingest(rows)

    def ingest(self, rows: Sequence[Any]) -> None:
        self.engine.ingest(rows)

    def answer(self, query: Query) -> Answer:
        if query[0] == "snapshot":
            return reference_answer(self.engine.snapshot_topk(query[1], K))
        return reference_answer(self.engine.interval_topk(query[1], query[2], K))

    def monitor_answer(self, t: float) -> Answer:
        monitor = SlidingIntervalTopKMonitor(self.engine, k=K, window_seconds=WINDOW_S)
        return reference_answer(monitor.advance(t).result)


def check_queries(reference: Reference, ops: Sequence[Any]) -> int:
    """Mark each query op correct or not against a full-data reference.

    Returns the number of mismatches (HTTP failures are already failed).
    """
    expected: dict[Query, Answer] = {}
    mismatches = 0
    for op in ops:
        if op.query is None or not op.ok:
            continue
        if op.query not in expected:
            expected[op.query] = reference.answer(op.query)
        if served_answer(op.data) != expected[op.query]:
            op.ok = False
            mismatches += 1
    return mismatches


def check_live_reads(rows_by_batch: Sequence[Batch], ops: Sequence[Any]) -> int:
    """Check reads that ran while the feed was being written.

    A read issued when ``op.lo`` batches were acknowledged and answered
    when ``op.hi`` had been sent ran against one of the prefixes
    ``lo..hi`` (the actor applies each batch atomically).  The reference
    ingests batch by batch and accepts the read if one of those prefixes
    gives the same answer.
    """
    reference = Reference()
    pending = sorted(
        (op for op in ops if op.query is not None and op.ok), key=lambda op: op.lo
    )
    open_ops: list[Any] = []
    mismatches = 0
    cursor = 0
    for prefix in range(len(rows_by_batch) + 1):
        if prefix > 0:
            reference.ingest(rows_by_batch[prefix - 1].rows)
        while cursor < len(pending) and pending[cursor].lo <= prefix:
            open_ops.append(pending[cursor])
            cursor += 1
        still_open = []
        for op in open_ops:
            if served_answer(op.data) == reference.answer(op.query):
                continue
            if op.hi <= prefix:
                op.ok = False
                mismatches += 1
            else:
                still_open.append(op)
        open_ops = still_open
    for op in open_ops:
        op.ok = False
        mismatches += 1
    return mismatches

