"""The three workloads: set-up, timed phase and untimed follow-up.

``explore-cold``  one closed-loop connection, distinct join queries over
                  preloaded history (caches mostly miss).
``dashboard-warm`` two connections, open loop at a fixed rate over 8
                  fixed panels warmed in set-up (caches always hit).
``live-feed``     one writer streaming 50-row batches into a sqlite-backed
                  server with a sliding monitor, one closed-loop reader at
                  the feed head; then SIGKILL, restart and recovery.

Each phase returns a :class:`Phase`; ``run.py`` turns phases into
metrics and ``gate.py`` checks their answers.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import gate
import harness
from harness import REQUEST_TIMEOUT_S, Server
from inputs import K, READ_INTERVAL_EVERY, WINDOW_S, Inputs, Query, query_body

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5


@dataclass
class Op:
    """One timed request."""

    kind: str  # "snapshot" | "interval" | "ingest" | "tick"
    rid: str
    query: Optional[Query] = None
    due_ns: Optional[int] = None
    start_ns: int = 0
    end_ns: int = 0
    status: int = 0
    data: bytes = b""
    ok: bool = False
    rows: int = 0
    lo: int = 0
    hi: int = 0

    @property
    def latency_ms(self) -> float:
        """From due time (open loop) or send time; a failure misses any limit."""
        if not self.ok:
            return REQUEST_TIMEOUT_S * 1000.0
        base = self.start_ns if self.due_ns is None else self.due_ns
        return (self.end_ns - base) / 1e6

    @property
    def round_trip_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    @property
    def late_ms(self) -> float:
        return 0.0 if self.due_ns is None else max(0, self.start_ns - self.due_ns) / 1e6


def send(port: int, op: Op, path: str, body: bytes) -> Op:
    """Issue ``op`` as ``POST path``; records timing, status and body."""
    op.start_ns = time.perf_counter_ns()
    try:
        op.status, op.data = harness.call(port, "POST", path, body, op.rid)
    except (OSError, http.client.HTTPException):
        op.status = 0
    op.end_ns = time.perf_counter_ns()
    op.ok = op.status == 200
    return op


def send_batch(port: int, op: Op, body: bytes, rows: int) -> Op:
    """An ingest batch; the ack must count every row as new."""
    op.rows = rows
    send(port, op, "/ingest", body)
    if op.ok:
        op.ok = int(json.loads(op.data)["ingested"]) == rows
    return op


@dataclass
class Phase:
    """What one set-up plus timed phase produced."""

    ops: list[Op] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    preload_ops: list[Op] = field(default_factory=list)
    preload_rows_per_s: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    notes: list[str] = field(default_factory=list)
    spans_paths: list[str] = field(default_factory=list)
    # live-feed only
    recover_s: float = 0.0
    store_bytes_per_row: float = 0.0
    monitor_ok: bool = True
    probes_ok: bool = True
    monitor_reply: Optional[tuple[float, int, bytes]] = None
    fed: int = 0
    """live-feed: batches acknowledged (all of them unless stopped early)."""
    before_kill: list[Optional[gate.Answer]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok) + (not self.monitor_ok) + (
            not self.probes_ok
        )

    @property
    def attempted(self) -> int:
        """Timed requests, plus live-feed's monitor and recovery checks."""
        return len(self.ops) + (2 if self.monitor_reply is not None else 0)


class Workload:
    """Shared plumbing: booting servers and bracketing the timed phase."""

    name = ""

    def __init__(self, root: str, inputs: Inputs, seconds: float, scratch: str) -> None:
        self.root = root
        self.inputs = inputs
        self.seconds = seconds
        self.scratch = scratch
        self._spans_serial = 0

    def spans_path(self, traced: bool) -> Optional[str]:
        if not traced:
            return None
        self._spans_serial += 1
        return os.path.join(self.scratch, f"spans-{self.name}-{self._spans_serial}.json")

    def measure(self, server: Server, phase: Phase, timed: Callable[[], None]) -> None:
        """Run ``timed()`` bracketed by counters and CPU time."""
        before = harness.engine_counts(server.port)
        cpu_before = server.cpu_seconds()
        started = time.perf_counter()
        timed()
        phase.elapsed_s = time.perf_counter() - started
        phase.cpu_s = server.cpu_seconds() - cpu_before
        after = harness.engine_counts(server.port)
        phase.counts = {name: after[name] - before[name] for name in before}
        phase.rss_mb = server.rss_hwm_mb()

    def run(self, setups: int, traced: bool) -> Phase:
        raise NotImplementedError

    def verify(self, phases: list[Phase]) -> None:
        raise NotImplementedError


class _QueryWorkload(Workload):
    """Preloaded memory-only server; explore-cold and dashboard-warm."""

    warm_panels = False

    def _setup(self, phase: Phase, traced: bool, serial: int) -> Server:
        started = time.perf_counter()
        spans_path = self.spans_path(traced)
        server = harness.boot(self.root, spans_path=spans_path)
        if spans_path is not None:
            phase.spans_paths.append(spans_path)
        preload_started = time.perf_counter()
        ops = [
            send_batch(server.port, Op("ingest", f"setup{serial}-b{index}"), batch.body, len(batch.rows))
            for index, batch in enumerate(self.inputs.preload)
        ]
        phase.preload_rows_per_s.append(
            sum(op.rows for op in ops) / (time.perf_counter() - preload_started)
        )
        phase.preload_ops.extend(ops)
        if self.warm_panels:
            for index, panel in enumerate(self.inputs.panels):
                op = send(server.port, Op(panel[0], f"warm{serial}-{index}", panel), "/queries", query_body(panel))
                if not op.ok:
                    raise RuntimeError(f"warm-up query failed: HTTP {op.status}")
        phase.setup_s.append(time.perf_counter() - started)
        if not all(op.ok for op in ops):
            raise RuntimeError("preload batch failed")
        return server

    def run(self, setups: int, traced: bool) -> Phase:
        phase = Phase()
        for serial in range(setups - 1):
            self._setup(phase, False, serial).stop()
        server = self._setup(phase, traced, setups - 1)
        try:
            self.measure(server, phase, lambda: self.timed(server, phase))
        finally:
            server.stop()
        return phase

    def timed(self, server: Server, phase: Phase) -> None:
        raise NotImplementedError

    def verify(self, phases: list[Phase]) -> None:
        reference = gate.Reference(self.inputs.rows)
        for phase in phases:
            mismatches = gate.check_queries(reference, phase.ops)
            if mismatches:
                phase.notes.append(f"{mismatches} answers differ from the reference")


class ExploreCold(_QueryWorkload):
    name = "explore-cold"

    def timed(self, server: Server, phase: Phase) -> None:
        deadline = time.perf_counter() + 4 * self.seconds
        for index, query in enumerate(self.inputs.explore):
            phase.ops.append(
                send(server.port, Op(query[0], f"q{index}", query), "/queries", query_body(query))
            )
            if time.perf_counter() > deadline:
                phase.notes.append(
                    f"stopped after {index + 1} of {len(self.inputs.explore)} queries at 4x --seconds"
                )
                break


class DashboardWarm(_QueryWorkload):
    name = "dashboard-warm"
    warm_panels = True
    connections = 2

    def timed(self, server: Server, phase: Phase) -> None:
        schedule = self.inputs.schedule
        panels = self.inputs.panels
        bodies = [query_body(panel) for panel in panels]
        ops: list[Optional[Op]] = [None] * len(schedule)
        lock = threading.Lock()
        cursor = [0]
        origin = time.perf_counter_ns() + 20_000_000

        def connection() -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(schedule):
                    return
                offset, panel = schedule[index]
                due = origin + int(offset * 1e9)
                wait = due - time.perf_counter_ns()
                if wait > 0:
                    time.sleep(wait / 1e9)
                op = Op(panels[panel][0], f"q{index}", panels[panel], due_ns=due)
                ops[index] = send(server.port, op, "/queries", bodies[panel])

        threads = [threading.Thread(target=connection) for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.ops.extend(op for op in ops if op is not None)
        late = [op.late_ms for op in phase.ops]
        behind = sum(1 for value in late if value > 1.0)
        if behind:
            phase.notes.append(
                f"generator fell behind its schedule: {behind} of {len(late)} "
                f"requests sent >1 ms late, worst {max(late):.1f} ms"
            )


class LiveFeed(Workload):
    name = "live-feed"

    def _fresh_store(self, serial: int) -> str:
        """The set-up's store path, with files of an earlier run removed."""
        path = os.path.join(self.scratch, f"live-{serial}.sqlite")
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
        return path

    def _setup(self, phase: Phase, traced: bool, serial: int) -> tuple[Server, str, str]:
        store = self._fresh_store(serial)
        started = time.perf_counter()
        spans_path = self.spans_path(traced)
        server = harness.boot(self.root, storage=store, spans_path=spans_path)
        if spans_path is not None:
            phase.spans_paths.append(spans_path)
        monitor = harness.call_json(
            server.port, "POST", "/monitors",
            {"kind": "interval", "k": K, "window_seconds": WINDOW_S, "method": "join"},
        )["monitor_id"]
        phase.setup_s.append(time.perf_counter() - started)
        return server, store, monitor

    def run(self, setups: int, traced: bool) -> Phase:
        phase = Phase()
        for serial in range(setups - 1):
            self._setup(phase, False, serial)[0].stop()
        server, store, monitor = self._setup(phase, traced, setups - 1)
        try:
            self.measure(server, phase, lambda: self.timed(server, phase))
            self.follow_up(server, store, monitor, phase, traced)
        finally:
            if server.proc.poll() is None:
                server.kill()
        return phase

    def timed(self, server: Server, phase: Phase) -> None:
        feed = self.inputs.feed
        state = {"acked": 0, "sent": 0, "head": None}
        lock = threading.Lock()
        first_ack = threading.Event()
        done = threading.Event()
        writes: list[Op] = []
        reads: list[Op] = []

        deadline = time.perf_counter() + 4 * self.seconds

        def writer() -> None:
            try:
                for index, batch in enumerate(feed):
                    if time.perf_counter() > deadline:
                        phase.notes.append(
                            f"stopped after {index} of {len(feed)} batches at 4x --seconds"
                        )
                        break
                    with lock:
                        state["sent"] = index + 1
                    kind = "ingest" if batch.tick_t is None else "tick"
                    op = send_batch(server.port, Op(kind, f"b{index}"), batch.body, len(batch.rows))
                    writes.append(op)
                    with lock:
                        state["acked"] = index + 1
                        state["head"] = batch.head
                    first_ack.set()
            finally:
                first_ack.set()
                done.set()

        def reader() -> None:
            first_ack.wait()
            count = 0
            think = iter(self.inputs.think_s)
            # At least one read of each kind, even if the feed is short.
            while not done.is_set() or count < READ_INTERVAL_EVERY:
                time.sleep(next(think))
                with lock:
                    lo, head = state["acked"], state["head"]
                if head is None:
                    return
                if count % READ_INTERVAL_EVERY == READ_INTERVAL_EVERY - 1:
                    query: Query = ("interval", head - WINDOW_S, head)
                else:
                    query = ("snapshot", head)
                op = send(server.port, Op(query[0], f"r{count}", query, lo=lo), "/queries", query_body(query))
                with lock:
                    op.hi = state["sent"]
                reads.append(op)
                count += 1

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.fed = state["acked"]
        phase.ops.extend(writes)
        phase.ops.extend(reads)

    def follow_up(self, server: Server, store: str, monitor: str, phase: Phase, traced: bool) -> None:
        """Untimed: monitor check, pre-kill probes, SIGKILL, timed recovery."""
        fed = self.inputs.feed[: phase.fed]
        ticks = [batch.tick_t for batch in fed if batch.tick_t is not None] or [fed[-1].head]
        status, data = harness.call(
            server.port, "POST", f"/monitors/{monitor}/tick",
            json.dumps({"t": ticks[-1]}).encode("utf-8"), "control",
        )
        phase.monitor_reply = (ticks[-1], status, data)
        before_kill = phase.before_kill
        for query in self.inputs.probes:
            status, data = harness.call(server.port, "POST", "/queries", query_body(query), "control")
            before_kill.append(gate.served_answer(data) if status == 200 else None)
        size = sum(
            os.path.getsize(store + suffix)
            for suffix in ("", "-wal")
            if os.path.exists(store + suffix)
        )
        phase.store_bytes_per_row = size / sum(len(batch.rows) for batch in fed)
        if traced:
            server.dump_spans()
        killed = time.perf_counter()
        server.kill()
        spans_path = self.spans_path(traced)
        revived = harness.boot(self.root, storage=store, spans_path=spans_path)
        if spans_path is not None:
            phase.spans_paths.append(spans_path)
        try:
            deadline = killed + REQUEST_TIMEOUT_S
            first = self.inputs.probes[0]
            while True:
                status, data = harness.call(revived.port, "POST", "/queries", query_body(first), "control")
                if status == 200 and gate.served_answer(data) == before_kill[0]:
                    phase.recover_s = time.perf_counter() - killed
                    break
                if time.perf_counter() > deadline:
                    phase.probes_ok = False
                    phase.recover_s = time.perf_counter() - killed
                    phase.notes.append("recovered server never gave the pre-kill answer")
                    break
            for query, expected in zip(self.inputs.probes[1:], before_kill[1:]):
                status, data = harness.call(revived.port, "POST", "/queries", query_body(query), "control")
                if status != 200 or gate.served_answer(data) != expected:
                    phase.probes_ok = False
                    phase.notes.append(f"post-recovery answer differs for {query}")
        finally:
            revived.stop()

    def verify(self, phases: list[Phase]) -> None:
        for phase in phases:
            fed = self.inputs.feed[: phase.fed]
            reference = gate.Reference(row for batch in fed for row in batch.rows)
            probe_answers = [reference.answer(query) for query in self.inputs.probes]
            mismatches = gate.check_live_reads(fed, phase.ops)
            if mismatches:
                phase.notes.append(f"{mismatches} reads match no acknowledged prefix")
            assert phase.monitor_reply is not None
            t, status, data = phase.monitor_reply
            if status != 200 or gate.served_answer(data, "result") != reference.monitor_answer(t):
                phase.monitor_ok = False
                phase.notes.append("monitor's last update differs from the reference")
            if phase.before_kill != probe_answers:
                phase.probes_ok = False
                phase.notes.append("pre-kill answers differ from the reference")


WORKLOADS = {cls.name: cls for cls in (ExploreCold, DashboardWarm, LiveFeed)}

