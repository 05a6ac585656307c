"""Seeded workload inputs: the record stream and the request lists.

Everything the server receives is built here from ``--seed`` before any
server starts; the same seed gives byte-identical request bodies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.datagen.config import SyntheticConfig
from repro.datagen.stream import stream_synthetic_records
from repro.core.queries import IntervalTopKQuery, SnapshotTopKQuery
from repro.serve.wire import QuerySpec, dumps, encode_query, encode_record
from repro.tracking.records import TrackingRecord

#: The served venue: the paper-default office (20 rooms a side, 75 POIs,
#: POI seed 42, 1.5 m range, v_max 1.1).  Must match ``harness.VENUE_FLAGS``.
VENUE_CONFIG = SyntheticConfig(rooms_per_side=20, poi_count=75, seed=42)

#: Population scale of the record stream: 50 objects over one hour.
SCALE = 0.05

K = 10
WINDOW_S = 240.0
BATCH_ROWS = 50
#: On live-feed every 4th batch carries ``tick_t``, and every 4th read
#: of the reader is an interval query.  The reader waits for each answer,
#: then thinks for a seeded exponential time of mean ``READ_THINK_S``.
#: Random think times make the reads sample the actor's queue at random
#: moments; a reader that fires again at once (or on a fixed period)
#: falls into step with the writer's 4-batch cycle, and then which reads
#: wait behind a tick changes from seed to seed.
TICK_EVERY = 4
READ_INTERVAL_EVERY = 4
READ_THINK_S = 0.05

#: explore-cold query groups per second of ``--seconds``; each group is
#: 4 snapshot instants and one interval window.  Sized so a run at the
#: seed commit takes about ``--seconds`` on a 2-CPU host; the list is
#: fixed for a seed so the per-query counters repeat run to run.
EXPLORE_GROUPS_PER_SECOND = 2.5
EXPLORE_SNAPSHOTS_PER_GROUP = 4

#: live-feed batches per second of ``--seconds``: the writer streams a
#: prefix of the hour, the whole hour (about 135 batches) from 15 s on.
FEED_BATCHES_PER_SECOND = 9.0

#: dashboard-warm: each wall display shows 7 snapshot panels and 1
#: interval panel; four displays refresh, open loop, at this total rate
#: (about half of what the seed commit sustains with two connections).
#: Four displays rather than one: a single interval panel's cost swings
#: with where its window falls, so one display's figures vary by seed.
DASHBOARD_DISPLAYS = 4
DASHBOARD_SNAPSHOT_PANELS = 7
DASHBOARD_RATE_QPS = 130.0
#: Time left for a display's interval panel before its snapshots are due
#: (a warm interval query takes about 21 ms at the seed commit).
DASHBOARD_GAP_S = 0.030

Query = tuple  # ("snapshot", t) or ("interval", t_start, t_end)


def query_body(query: Query) -> bytes:
    if query[0] == "snapshot":
        spec = QuerySpec(query=SnapshotTopKQuery(t=query[1], k=K))
    else:
        spec = QuerySpec(query=IntervalTopKQuery(t_start=query[1], t_end=query[2], k=K))
    return dumps(encode_query(spec)).encode("utf-8")


@dataclass(frozen=True)
class Batch:
    rows: tuple[TrackingRecord, ...]
    tick_t: Optional[float]
    body: bytes

    @property
    def head(self) -> float:
        """The latest end time in the batch (the feed head once acked)."""
        return max(row.t_e for row in self.rows)


@dataclass(frozen=True)
class Inputs:
    seed: int
    rows: tuple[TrackingRecord, ...]
    preload: tuple[Batch, ...]
    feed: tuple[Batch, ...]
    explore: tuple[Query, ...]
    panels: tuple[Query, ...]
    schedule: tuple[tuple[float, int], ...]
    """dashboard-warm: ``(due offset in s, panel index)`` per request."""
    probes: tuple[Query, ...]
    """live-feed: queries answered before the kill and after recovery."""
    think_s: tuple[float, ...]
    """live-feed: the reader's think time before each read."""


def records(seed: int) -> list[TrackingRecord]:
    """The workload's OTT rows in end-time order (the feed's order)."""
    rows = list(stream_synthetic_records(replace(VENUE_CONFIG, seed=seed).scaled(SCALE)))
    rows.sort(key=lambda row: (row.t_e, row.t_s, row.record_id))
    return rows


def _batches(rows: list[TrackingRecord], tick_every: Optional[int]) -> tuple[Batch, ...]:
    batches = []
    for index, start in enumerate(range(0, len(rows), BATCH_ROWS)):
        chunk = tuple(rows[start:start + BATCH_ROWS])
        payload: dict = {"records": [encode_record(row) for row in chunk]}
        tick_t = None
        if tick_every is not None and index % tick_every == tick_every - 1:
            tick_t = max(row.t_e for row in chunk)
            payload["tick_t"] = tick_t
        batches.append(Batch(chunk, tick_t, dumps(payload).encode("utf-8")))
    return tuple(batches)


def _instants(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """``n`` instants, one uniform in each of ``n`` equal strata, shuffled.

    Stratified rather than independent draws, so that every seed's
    queries cover the hour alike and per-run medians vary less by seed.
    Millisecond rounding keeps the request bodies short.
    """
    width = (hi - lo) / n
    points = [round(rng.uniform(lo + i * width, lo + (i + 1) * width), 3) for i in range(n)]
    rng.shuffle(points)
    return points


def _windows(rng: random.Random, lo: float, hi: float, n: int) -> list[Query]:
    return [("interval", end - WINDOW_S, end) for end in _instants(rng, lo + WINDOW_S, hi, n)]


def build(seed: int, seconds: float) -> Inputs:
    """All inputs of one run; a pure function of ``(seed, seconds)``."""
    rows = records(seed)
    span_lo = min(row.t_s for row in rows)
    span_hi = max(row.t_e for row in rows)

    rng = random.Random(f"{seed}:explore")
    groups = max(1, round(seconds * EXPLORE_GROUPS_PER_SECOND))
    instants = _instants(rng, span_lo, span_hi, groups * EXPLORE_SNAPSHOTS_PER_GROUP)
    explore: list[Query] = []
    for window in _windows(rng, span_lo, span_hi, groups):
        group: list[Query] = [
            ("snapshot", instants.pop()) for _ in range(EXPLORE_SNAPSHOTS_PER_GROUP)
        ]
        group.insert(rng.randrange(len(group) + 1), window)
        explore.extend(group)

    rng = random.Random(f"{seed}:dashboard")
    panels: list[Query] = [
        ("snapshot", instant)
        for instant in _instants(
            rng, span_lo, span_hi, DASHBOARD_DISPLAYS * DASHBOARD_SNAPSHOT_PANELS
        )
    ]
    panels.extend(_windows(rng, span_lo, span_hi, DASHBOARD_DISPLAYS))
    # One display refreshes per period of 8 requests: its interval panel
    # at the start, its 7 snapshot panels spread over the period after a
    # gap the interval needs to finish.  Evenly spaced requests instead
    # queued about 40% of the snapshots behind an interval, which put the
    # snapshot median on the edge between queued and not, and it moved by
    # a third from run to run.  Displays and panels are in seeded order.
    period = (DASHBOARD_SNAPSHOT_PANELS + 1) / DASHBOARD_RATE_QPS
    step = (period - DASHBOARD_GAP_S) / DASHBOARD_SNAPSHOT_PANELS
    displays: list[int] = []
    schedule: list[tuple[float, int]] = []
    total = int(seconds * DASHBOARD_RATE_QPS)
    block = 0
    while len(schedule) < total:
        if not displays:
            displays = list(range(DASHBOARD_DISPLAYS))
            rng.shuffle(displays)
        display = displays.pop()
        start = block * period
        schedule.append((start, DASHBOARD_DISPLAYS * DASHBOARD_SNAPSHOT_PANELS + display))
        snapshots = list(range(display * DASHBOARD_SNAPSHOT_PANELS,
                               (display + 1) * DASHBOARD_SNAPSHOT_PANELS))
        rng.shuffle(snapshots)
        for slot, panel in enumerate(snapshots):
            schedule.append((start + DASHBOARD_GAP_S + slot * step, panel))
        block += 1
    del schedule[total:]

    feed = _batches(rows, TICK_EVERY)[: max(1, round(seconds * FEED_BATCHES_PER_SECOND))]
    feed_head = feed[-1].head
    rng = random.Random(f"{seed}:probes")
    probes: list[Query] = [("snapshot", t) for t in _instants(rng, span_lo, feed_head, 3)]
    probes.extend(_windows(rng, span_lo, max(span_lo + 2 * WINDOW_S, feed_head), 1))

    rng = random.Random(f"{seed}:reader")
    think_s = [rng.expovariate(1.0 / READ_THINK_S) for _ in range(int(seconds * 100) + 100)]

    return Inputs(
        seed=seed,
        think_s=tuple(think_s),
        rows=tuple(rows),
        preload=_batches(rows, None),
        feed=feed,
        explore=tuple(explore),
        panels=tuple(panels),
        schedule=tuple(schedule),
        probes=tuple(probes),
    )
