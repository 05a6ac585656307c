"""Launch ``repro.serve`` with span wrappers around each layer's functions.

Usage (arguments after ``--`` go to ``python -m repro.serve``)::

    PYTHONPATH=src python perfbench/launch_traced.py --spans-out spans.json \\
        -- --port 0 --rooms 20 --poi-count 75 --seed 42

The program is not edited: the launcher replaces functions on their
classes and modules before the server boots, records spans with
:class:`spans.Recorder`, and writes them to ``--spans-out`` when the
server exits, or at once on ``SIGUSR1`` (the live-feed workload dumps
that way before it SIGKILLs the server).

The request id arrives in the ``X-Request-Id`` header.  The handler
wrapper binds it for the connection's task; the ``EngineActor.submit``
wrapper carries it, with the parent span, across the hop onto the
engine-actor thread, and records the queue wait and the execution there.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import Any, Callable, Optional, Sequence

from spans import CURRENT_REQUEST, CURRENT_SPAN, Recorder


def _count(_args: Sequence[Any], result: Any) -> float:
    return float(len(result))


def _changed(_args: Sequence[Any], result: Any) -> float:
    return 1.0 if result.changed else 0.0


# (module, class or None, function, span name, measure)
SYNC_TARGETS: list[tuple[str, Optional[str], str, str, Optional[Callable]]] = [
    ("repro.serve.wire", None, "loads", "serve.wire.decode", None),
    ("repro.serve.wire", None, "decode_query", "serve.wire.decode", None),
    ("repro.serve.wire", None, "decode_record", "serve.wire.decode", None),
    ("repro.serve.wire", None, "dumps", "serve.wire.encode", None),
    ("repro.serve.wire", None, "encode_result", "serve.wire.encode", None),
    ("repro.serve.wire", None, "encode_update", "serve.wire.encode", None),
    ("repro.core.engine", "FlowEngine", "snapshot_topk", "core.engine.query", None),
    ("repro.core.engine", "FlowEngine", "interval_topk", "core.engine.query", None),
    ("repro.core.shard", "ShardState", "ingest_batch", "core.shard.ingest_batch", None),
    ("repro.core.monitor", "_BaseMonitor", "advance", "core.monitor.advance", _changed),
    ("repro.core.algorithms.join", None, "join_snapshot", "core.algorithms.join", None),
    ("repro.core.algorithms.join", None, "join_interval", "core.algorithms.join", None),
    ("repro.core.context", "EvaluationContext", "presence", "core.context.presence", None),
    ("repro.core.presence", "PresenceEstimator", "presence", "core.presence", None),
    ("repro.core.uncertainty.topology", "TopologyChecker", "ring_constraint", "core.uncertainty.topology", None),
    ("repro.core.uncertainty.topology", "TopologyChecker", "path_constraint", "core.uncertainty.topology", None),
    ("repro.index.artree", "ARTree", "point_query", "index.artree.query", _count),
    ("repro.index.artree", "ARTree", "range_query", "index.artree.query", _count),
    ("repro.index.artree", "ARTree", "append_record", "index.artree.append", None),
    ("repro.index.rtree", "RTree", "search_entries", "index.rtree.search", None),
    ("repro.index.rtree", "RTree", "bulk_load", "index.rtree.search", None),
    ("repro.tracking.table", "LiveTrackingTable", "append", "tracking.table.append", None),
    ("repro.storage.sqlite", "SQLiteBackend", "append_row", "storage.sqlite.append", None),
    ("repro.storage.sqlite", "SQLiteBackend", "rewrite_tail_row", "storage.sqlite.rewrite", None),
    ("repro.storage.sqlite", "SQLiteBackend", "replay_since", "storage.sqlite.replay", None),
    ("repro.tracking.table", "LiveTrackingTable", "restore_snapshot", "storage.sqlite.replay", None),
    ("repro.core.shard", "ShardState", "_replay_storage_mutation", "storage.sqlite.replay", None),
]


def _install_sync(recorder: Recorder) -> None:
    """Wrap every target, on its class or in every module that bound it."""
    import importlib

    for module_name, class_name, attr, name, measure in SYNC_TARGETS:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = recorder.wrap(name, raw.__func__, measure)
                setattr(owner, attr, classmethod(wrapped))
            else:
                setattr(owner, attr, recorder.wrap(name, raw, measure))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original, measure)
        # ``from .wire import dumps`` binds the function in the importer
        # too, so every module-level binding of it is replaced.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                getattr(other, attr, None) is original
            ):
                setattr(other, attr, wrapped)


def _install_memo_region(recorder: Recorder) -> None:
    """``EvaluationContext.memo_region``: value 1.0 on a miss (UR built)."""
    from repro.core.context import EvaluationContext

    original = EvaluationContext.memo_region

    def memo_region(self: Any, key: Any, builder: Any) -> Any:
        before = self.stats.regions_computed
        parent = CURRENT_SPAN.get()
        span_id = recorder.new_id()
        token = CURRENT_SPAN.set(span_id)
        start = time.perf_counter_ns()
        try:
            return original(self, key, builder)
        finally:
            end = time.perf_counter_ns()
            CURRENT_SPAN.reset(token)
            miss = 1.0 if self.stats.regions_computed > before else 0.0
            recorder.add(
                "core.context.memo_region", start, end, span_id, parent,
                CURRENT_REQUEST.get(), miss,
            )

    EvaluationContext.memo_region = memo_region  # type: ignore[method-assign]


def _install_handlers(recorder: Recorder) -> None:
    """Wrap every route handler as it is registered with the router."""
    from repro.serve.http import Router

    original_add = Router.add

    def add(self: Any, method: str, path_pattern: str, name: str, handler: Any) -> None:
        async def traced(request: Any, params: Any) -> Any:
            request_token = CURRENT_REQUEST.set(request.headers.get("x-request-id"))
            parent = CURRENT_SPAN.get()
            span_id = recorder.new_id()
            span_token = CURRENT_SPAN.set(span_id)
            start = time.perf_counter_ns()
            try:
                return await handler(request, params)
            finally:
                end = time.perf_counter_ns()
                CURRENT_SPAN.reset(span_token)
                recorder.add(
                    "serve.handler", start, end, span_id, parent,
                    CURRENT_REQUEST.get(), None,
                )
                CURRENT_REQUEST.reset(request_token)

        original_add(self, method, path_pattern, name, traced)

    Router.add = add  # type: ignore[method-assign]


def _install_actor(recorder: Recorder) -> None:
    """Carry span and request id across ``EngineActor.submit``'s hop.

    Records ``serve.actor.queue`` (submit until the closure starts on the
    engine thread; value = operations already pending at submit) and
    ``serve.actor.exec`` (the closure itself, parent of the engine spans).
    """
    from repro.serve.actor import EngineActor

    original_submit = EngineActor.submit

    async def submit(self: Any, fn: Callable[[], Any]) -> Any:
        parent = CURRENT_SPAN.get()
        request_id = CURRENT_REQUEST.get()
        pending = float(self.pending)
        submitted = time.perf_counter_ns()

        def hop() -> Any:
            started = time.perf_counter_ns()
            recorder.add(
                "serve.actor.queue", submitted, started, recorder.new_id(),
                parent, request_id, pending,
            )
            exec_id = recorder.new_id()
            span_token = CURRENT_SPAN.set(exec_id)
            request_token = CURRENT_REQUEST.set(request_id)
            try:
                return fn()
            finally:
                CURRENT_REQUEST.reset(request_token)
                CURRENT_SPAN.reset(span_token)
                recorder.add(
                    "serve.actor.exec", started, time.perf_counter_ns(),
                    exec_id, parent, request_id, None,
                )

        return await original_submit(self, hop)

    EngineActor.submit = submit  # type: ignore[method-assign]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = list(args.serve_args)
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    import repro.serve.__main__ as serve_main

    recorder = Recorder()
    _install_handlers(recorder)
    _install_actor(recorder)
    _install_memo_region(recorder)
    _install_sync(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(args.spans_out))
    try:
        return serve_main.main(serve_args)
    finally:
        recorder.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
