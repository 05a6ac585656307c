"""Per-layer metrics from a traced phase, its untraced twin and counters.

Time metrics are per operation of the layer's own unit (per timed
request, per engine query, per call) as each name says; see README.md
for the table.  A layer that did no work reads 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Iterable, Sequence

import spans as sp
from harness import median, tail

QUERY_KINDS = ("snapshot", "interval")

UNITS = {
    "serve.http.self_ms": "ms",
    "serve.wire.encode_ms": "ms",
    "serve.wire.decode_ms": "ms",
    "serve.wire.resp_bytes": "bytes",
    "serve.actor.queue_wait_p50_ms": "ms",
    "serve.actor.queue_wait_tail_ms": "ms",
    "serve.actor.exec_ms": "ms",
    "serve.actor.pending_max": "count",
    "core.engine.query_ms": "ms",
    "core.shard.ingest_batch_ms": "ms",
    "core.monitor.advance_ms": "ms",
    "core.monitor.changed_ratio": "ratio",
    "core.algorithms.join_ms": "ms",
    "core.algorithms.presence_evals_per_query": "count",
    "core.algorithms.evals_per_result": "count",
    "core.context.ur_build_ms": "ms",
    "core.context.regions_computed": "count",
    "core.context.region_hit_ratio": "ratio",
    "core.context.presence_hit_ratio": "ratio",
    "core.context.lookup_ms": "ms",
    "core.presence.calls": "count",
    "core.presence.us_per_call": "us",
    "core.uncertainty.topology_ms": "ms",
    "core.uncertainty.topology_prunes": "count",
    "index.artree.query_ms": "ms",
    "index.artree.entries_per_query": "count",
    "index.artree.append_us": "us",
    "index.artree.compactions": "count",
    "index.rtree.search_ms": "ms",
    "tracking.table.append_us": "us",
    "storage.sqlite.append_us": "us",
    "storage.sqlite.rewrite_us": "us",
    "storage.sqlite.replay_ms": "ms",
    "storage.sqlite.bytes_per_row": "bytes",
    "counts.region_cache_hits_per_op": "count",
    "counts.presence_cache_hits_per_op": "count",
    "proc.server_cpu_ms_per_op": "ms",
    "bench.generator.late_ms": "ms",
    "bench.trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def load_spans(paths: Iterable[str]) -> list[sp.Span]:
    merged: list[sp.Span] = []
    for path in paths:
        merged.extend(sp.load(path))
    return merged


def per_layer(untraced: Any, traced: Any, spans: list[sp.Span]) -> dict[str, float]:
    """All per-layer metrics of one workload.

    Args:
        untraced: The untraced phase (CPU, counters, lateness, overhead base).
        traced: The traced phase, run on the same inputs.
        spans: Every span the traced server(s) wrote.
    """
    traced_ops = traced.ops
    rids = {op.rid for op in traced_ops}
    timed = [span for span in spans if span[sp.REQUEST] in rids]
    self_ns = sp.self_times(spans)
    by_name: dict[str, list[sp.Span]] = defaultdict(list)
    for span in timed:
        by_name[span[sp.NAME]].append(span)

    def dur_ms(span: sp.Span) -> float:
        return (span[sp.END] - span[sp.START]) / 1e6

    def self_ms(span: sp.Span) -> float:
        return self_ns[span[sp.SPAN_ID]] / 1e6

    def total(name: str, fn: Any = dur_ms) -> float:
        return sum(fn(span) for span in by_name[name])

    n_ops = len(traced_ops)
    engine_queries = len(by_name["core.engine.query"])
    handler_ms = {span[sp.REQUEST]: dur_ms(span) for span in by_name["serve.handler"]}
    http_self = [
        op.round_trip_ms - handler_ms[op.rid] for op in traced_ops if op.rid in handler_ms
    ]
    queue_waits = [dur_ms(span) for span in by_name["serve.actor.queue"]]
    memo = by_name["core.context.memo_region"]
    presence = by_name["core.presence"]
    replay = [
        span for span in spans
        if span[sp.NAME] == "storage.sqlite.replay" and span[sp.PARENT] is None
    ]
    counts = untraced.counts
    queries = [op for op in untraced.ops if op.kind in QUERY_KINDS and op.ok]
    results = sum(len(json.loads(op.data)["entries"]) for op in queries)
    n_untraced = len(untraced.ops)
    advances = by_name["core.monitor.advance"]

    def mean_op_ms(phase: Any) -> float:
        return _mean([op.round_trip_ms for op in phase.ops])

    return {
        "serve.http.self_ms": median(http_self) if http_self else 0.0,
        "serve.wire.encode_ms": _ratio(total("serve.wire.encode", self_ms), n_ops),
        "serve.wire.decode_ms": _ratio(total("serve.wire.decode", self_ms), n_ops),
        "serve.wire.resp_bytes": _mean([float(len(op.data)) for op in traced_ops]),
        "serve.actor.queue_wait_p50_ms": median(queue_waits) if queue_waits else 0.0,
        "serve.actor.queue_wait_tail_ms": tail(queue_waits)[0] if queue_waits else 0.0,
        "serve.actor.exec_ms": _mean([dur_ms(span) for span in by_name["serve.actor.exec"]]),
        "serve.actor.pending_max": max(
            (span[sp.VALUE] for span in by_name["serve.actor.queue"]), default=0.0
        ),
        "core.engine.query_ms": _ratio(total("core.engine.query"), engine_queries),
        "core.shard.ingest_batch_ms": _mean(
            [dur_ms(span) for span in by_name["core.shard.ingest_batch"]]
        ),
        "core.monitor.advance_ms": _mean([dur_ms(span) for span in advances]),
        "core.monitor.changed_ratio": _mean([span[sp.VALUE] for span in advances]),
        "core.algorithms.join_ms": _ratio(total("core.algorithms.join", self_ms), engine_queries),
        "core.algorithms.presence_evals_per_query": _ratio(
            counts["presence_evaluations"], n_untraced
        ),
        "core.algorithms.evals_per_result": _ratio(counts["presence_evaluations"], results),
        "core.context.ur_build_ms": _ratio(
            sum(dur_ms(span) for span in memo if span[sp.VALUE]), engine_queries
        ),
        "core.context.regions_computed": _ratio(counts["regions_computed"], n_untraced),
        "core.context.region_hit_ratio": _ratio(
            counts["region_cache_hits"],
            counts["region_cache_hits"] + counts["regions_computed"],
        ),
        "core.context.presence_hit_ratio": _ratio(
            counts["presence_cache_hits"],
            counts["presence_cache_hits"] + counts["presence_evaluations"],
        ),
        "core.context.lookup_ms": _ratio(
            sum(self_ms(span) for span in memo if not span[sp.VALUE])
            + total("core.context.presence", self_ms),
            engine_queries,
        ),
        "core.presence.calls": _ratio(len(presence), engine_queries),
        "core.presence.us_per_call": 1000.0 * _mean([dur_ms(span) for span in presence]),
        "core.uncertainty.topology_ms": _ratio(total("core.uncertainty.topology"), engine_queries),
        "core.uncertainty.topology_prunes": _ratio(counts["topology_prunes"], n_untraced),
        "index.artree.query_ms": _ratio(total("index.artree.query"), engine_queries),
        "index.artree.entries_per_query": _mean(
            [span[sp.VALUE] for span in by_name["index.artree.query"]]
        ),
        "index.artree.append_us": 1000.0 * _mean(
            [dur_ms(span) for span in by_name["index.artree.append"]]
        ),
        "index.artree.compactions": _ratio(counts["artree_compactions"], n_untraced),
        "index.rtree.search_ms": _ratio(total("index.rtree.search", self_ms), engine_queries),
        "tracking.table.append_us": 1000.0 * _mean(
            [dur_ms(span) for span in by_name["tracking.table.append"]]
        ),
        "storage.sqlite.append_us": 1000.0 * _mean(
            [dur_ms(span) for span in by_name["storage.sqlite.append"]]
        ),
        "storage.sqlite.rewrite_us": 1000.0 * _mean(
            [dur_ms(span) for span in by_name["storage.sqlite.rewrite"]]
        ),
        "storage.sqlite.replay_ms": sum(dur_ms(span) for span in replay),
        "storage.sqlite.bytes_per_row": untraced.store_bytes_per_row,
        "counts.region_cache_hits_per_op": _ratio(counts["region_cache_hits"], n_untraced),
        "counts.presence_cache_hits_per_op": _ratio(counts["presence_cache_hits"], n_untraced),
        "proc.server_cpu_ms_per_op": _ratio(1000.0 * untraced.cpu_s, n_untraced),
        "bench.generator.late_ms": median([op.late_ms for op in untraced.ops]),
        "bench.trace.overhead_pct": 100.0 * (_ratio(mean_op_ms(traced), mean_op_ms(untraced)) - 1.0),
    }
