"""Server process control, the HTTP client and summary statistics.

The server under test is always a separate ``python -m repro.serve``
process (or the same entry point under ``launch_traced.py``), so the
load generator never shares its interpreter lock.  Each request opens
its own connection, since the server answers with ``Connection: close``.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))

#: The paper-default office venue every workload is served from.
VENUE_FLAGS = ["--rooms", "20", "--poi-count", "75", "--seed", "42",
               "--detection-range", "1.5", "--v-max", "1.1"]

PORT_LINE = re.compile(r"repro\.serve listening on http://[\d.]+:(\d+)")

BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


def split_cpus() -> tuple[Optional[set[int]], Optional[set[int]]]:
    """``(generator CPUs, server CPUs)``: one CPU each when there are two.

    Unpinned, the two processes shared a CPU in some runs and not in
    others, which moved the preload's rows/s by a third from run to run.
    With a single CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


GENERATOR_CPUS, SERVER_CPUS = split_cpus()


@dataclass
class Server:
    """One running server process."""

    proc: subprocess.Popen
    port: int
    spans_path: Optional[str] = None
    output: list[str] = field(default_factory=list)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def rss_hwm_mb(self) -> float:
        """Peak resident set size (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server process so far."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def dump_spans(self) -> None:
        """Ask a traced server to write its spans now; wait for the file."""
        assert self.spans_path is not None
        if os.path.exists(self.spans_path):
            os.remove(self.spans_path)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(self.spans_path):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not dump its spans")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL: no drain, no checkpoint."""
        self.proc.kill()
        self.proc.wait(timeout=30)
        self._close_pipe()

    def stop(self) -> None:
        """SIGTERM (graceful drain + checkpoint); SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._close_pipe()
        if self.proc.returncode not in (0, -signal.SIGTERM):
            raise RuntimeError(
                f"server exited with {self.proc.returncode}: {self.output[-5:]}"
            )

    def _close_pipe(self) -> None:
        if self.proc.stdout is not None:
            self.output.extend(self.proc.stdout.read().splitlines())
            self.proc.stdout.close()


def boot(
    root: str,
    storage: Optional[str] = None,
    spans_path: Optional[str] = None,
) -> Server:
    """Start a server from checkout ``root`` and wait for its port line.

    With ``spans_path`` the server runs under ``launch_traced.py``.
    """
    serve_args = ["--port", "0", *VENUE_FLAGS]
    if storage is not None:
        serve_args += ["--storage", storage]
    if spans_path is None:
        command = [sys.executable, "-m", "repro.serve", *serve_args]
    else:
        command = [
            sys.executable, os.path.join(HERE, "launch_traced.py"),
            "--spans-out", spans_path, "--", *serve_args,
        ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("REPRO_OBS", None)
    env.pop("REPRO_CONTRACTS", None)
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
        preexec_fn=None if SERVER_CPUS is None else _pin_server,
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    lines: list[str] = []
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line.rstrip("\n"))
        match = PORT_LINE.search(line)
        if match:
            return Server(proc, int(match.group(1)), spans_path, lines)
    proc.kill()
    proc.wait(timeout=30)
    raise RuntimeError(f"server never printed its port line: {lines!r}")


def _pin_server() -> None:
    assert SERVER_CPUS is not None
    os.sched_setaffinity(0, SERVER_CPUS)


def pin_generator() -> None:
    """Pin this process (call before it starts any thread)."""
    if GENERATOR_CPUS is not None:
        os.sched_setaffinity(0, GENERATOR_CPUS)


def call(
    port: int, method: str, path: str, body: Optional[bytes], request_id: str
) -> tuple[int, bytes]:
    """One request on a fresh connection: ``(status, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"X-Request-Id": request_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def call_json(port: int, method: str, path: str, payload: Any = None) -> Any:
    """An untimed control request; raises unless the status is 2xx."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    status, data = call(port, method, path, body, "control")
    if not 200 <= status < 300:
        raise RuntimeError(f"{method} {path}: HTTP {status} {data[:200]!r}")
    return json.loads(data)


ENGINE_COUNTS = (
    "regions_computed",
    "presence_evaluations",
    "region_cache_hits",
    "presence_cache_hits",
    "topology_prunes",
    "artree_compactions",
)


def engine_counts(port: int) -> dict[str, int]:
    """The evaluation counters from the public ``GET /metrics``."""
    engine = call_json(port, "GET", "/metrics")["engine"]
    return {name: int(engine[name]) for name in ENGINE_COUNTS}


# ----------------------------------------------------------------------
# Summary statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(value, percentile)``: the latency tail of a sample.

    The highest percentile with at least 10 samples beyond it (the
    11th-largest sample, the ``(n - 10) / n`` quantile), but no higher
    than p95.  Above p95 the value moves with how many of the server's
    rare stalls (a full garbage collection of the warm caches, one to
    three per 15 s) land in a run, which swung the 11th-largest sample
    of dashboard-warm snapshots by 40% between seeds; p95 varied by 11%.
    With fewer than 20 samples the quantile would lie below the median,
    so the median stands in and the percentile reads 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return median(ordered), 50.0
    if n >= 200:
        return ordered[math.ceil(0.95 * n) - 1], 95.0
    return ordered[n - 11], 100.0 * (n - 10) / n
