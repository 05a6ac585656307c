"""The benchmark's own tests.

Run from the root of a checkout::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
import spans as sp  # noqa: E402
from workloads import Op  # noqa: E402


def _declared(section: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"] for metric in json.load(handle)[section]}


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_same_seed_same_inputs():
    first = inputs.build(5, 2.0)
    second = inputs.build(5, 2.0)
    assert first == second
    assert first.rows and first.explore and first.schedule and first.feed
    other = inputs.build(6, 2.0)
    assert other.rows != first.rows
    assert other.explore != first.explore


def test_feed_is_end_time_ordered_and_ticks_every_fourth_batch():
    data = inputs.build(5, 2.0)
    ends = [row.t_e for batch in data.feed for row in batch.rows]
    assert ends == sorted(ends)
    assert [batch.tick_t is not None for batch in data.feed] == [
        index % 4 == 3 for index in range(len(data.feed))
    ]
    assert all(len(batch.rows) == inputs.BATCH_ROWS for batch in data.feed)


def _span(name, start, end, span_id, parent=None):
    return (name, start, end, span_id, parent, "r1", None)


def test_self_time_subtracts_merged_clipped_children():
    tree = [
        _span("handler", 0, 100, 1),
        _span("decode", 10, 30, 2, parent=1),
        _span("exec", 20, 50, 3, parent=1),  # overlaps decode
        _span("late", 90, 120, 4, parent=1),  # outlives its parent
        _span("engine", 25, 45, 5, parent=3),
        _span("presence", 30, 35, 6, parent=5),
    ]
    self_ns = sp.self_times(tree)
    assert self_ns == {1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20 - 5, 6: 5}


def test_recorder_keeps_per_thread_nesting():
    import threading

    recorder = sp.Recorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    recorded = recorder.spans()
    outers = {span[sp.SPAN_ID] for span in recorded if span[sp.NAME] == "outer"}
    inners = [span for span in recorded if span[sp.NAME] == "inner"]
    assert len(outers) == 4 and len(inners) == 12
    assert all(span[sp.PARENT] in outers for span in inners)
    assert sorted(
        sum(1 for span in inners if span[sp.PARENT] == outer) for outer in outers
    ) == [3, 3, 3, 3]


def test_tail_is_the_eleventh_largest_sample_up_to_p95():
    assert harness.tail(list(range(1, 101))) == (90, 90.0)
    assert harness.tail(list(range(1, 1001))) == (950, 95.0)
    assert harness.tail(list(range(10)))[1] == 50.0


def test_gate_catches_a_flipped_bit():
    data = inputs.build(5, 1.0)
    reference = gate.Reference(data.rows)
    query = ("snapshot", data.panels[0][1])
    result = reference.engine.snapshot_topk(query[1], inputs.K)
    body = {"entries": [
        {"poi": {"poi_id": entry.poi.poi_id}, "flow": entry.flow} for entry in result.entries
    ]}
    good = Op("snapshot", "a", query, data=json.dumps(body).encode(), ok=True)
    body["entries"][0]["flow"] = math.nextafter(body["entries"][0]["flow"], math.inf)
    bad = Op("snapshot", "b", query, data=json.dumps(body).encode(), ok=True)
    assert gate.check_queries(reference, [good, bad]) == 1
    assert good.ok and not bad.ok


@pytest.mark.parametrize("workload", ["explore-cold", "dashboard-warm", "live-feed"])
def test_smoke_run_passes_the_gate(workload):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _declared("end_to_end")


def test_traced_smoke_run_reports_layers():
    done = _run("--workload", "live-feed", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == _declared("per_layer")
    assert metrics["core.shard.ingest_batch_ms"]["value"] > 0
    assert metrics["storage.sqlite.replay_ms"]["value"] > 0
    assert metrics["serve.actor.exec_ms"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "explore-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
