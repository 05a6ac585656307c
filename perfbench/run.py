"""The repo benchmark: served workloads against a ``python -m repro.serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (no instrumentation in the
server).  ``--trace 1`` runs the workload once untraced and once under
``launch_traced.py`` on the same inputs and reports the per-layer
metrics, including the tracing overhead between the two.

Every answer of a timed phase is checked afterwards against an
in-process engine (``gate.py``); a mismatch counts as a failed request.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics and their units are listed in ``BENCHMARK.json``; README.md
says what each measures and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _check_checkout() -> None:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(
            f"perfbench: no program source under {os.path.join(ROOT, 'src')}; "
            "run from a full checkout\n"
        )
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _declared(section: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"] for metric in json.load(handle)[section]}


def end_to_end(name: str, phase: Any) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """``{metric: (value, unit)}`` plus report lines with sample counts."""
    from harness import median, tail

    lines: list[str] = []
    metrics: dict[str, tuple[float, str]] = {}

    def put(metric: str, value: float, unit: str, note: str) -> None:
        metrics[metric] = (value, unit)
        lines.append(f"  {metric:<22} {value:>12.4f} {unit:<7} {note}")

    def kind(*kinds: str) -> list[Any]:
        return [op for op in phase.ops if op.kind in kinds]

    def latency(metric: str, ops: list[Any], label: str) -> None:
        samples = [op.latency_ms for op in ops]
        if not samples:
            raise RuntimeError(f"{name}: no {label} samples")
        put(f"{metric}_p50_ms", median(samples), "ms", f"n={len(samples)}")
        value, pct = tail(samples)
        put(f"{metric}_tail_ms", value, "ms", f"p{pct:.1f}, n={len(samples)}")

    put("setup_s", median(phase.setup_s), "s", f"median of n={len(phase.setup_s)} set-ups")
    latency("snapshot", kind("snapshot"), "snapshot")
    latency("interval", kind("interval"), "interval")
    queries = kind("snapshot", "interval")
    put(
        "query_qps", sum(op.ok for op in queries) / phase.elapsed_s, "1/s",
        f"n={len(queries)} over {phase.elapsed_s:.2f} s",
    )
    if name == "live-feed":
        writes = kind("ingest", "tick")
        rows = sum(op.rows for op in writes if op.ok)
        put("ingest_rows_per_s", rows / phase.elapsed_s, "rows/s", f"{rows} rows, feed")
        latency("ingest", kind("ingest"), "ingest")
    else:
        put(
            "ingest_rows_per_s", median(phase.preload_rows_per_s), "rows/s",
            f"preload, median of n={len(phase.preload_rows_per_s)}",
        )
        latency("ingest", phase.preload_ops, "preload")
    put("rss_mb", phase.rss_mb, "MB", "server VmHWM")
    if name == "live-feed":
        ticks = [op.latency_ms for op in kind("tick")]
        put("tick_p50_ms", median(ticks), "ms", f"n={len(ticks)}")
        put("recover_s", phase.recover_s, "s", "n=1")
        put("store_bytes_per_row", phase.store_bytes_per_row, "bytes", "n=1")
    put(
        "fail_ratio", phase.failed / max(1, phase.attempted), "ratio",
        f"{phase.failed}/{phase.attempted}",
    )
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro served-workload benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("explore-cold", "dashboard-warm", "live-feed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_checkout()

    import harness
    import inputs
    import layers
    from workloads import SETUPS, WORKLOADS

    harness.pin_generator()

    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        data = inputs.build(args.seed, args.seconds)
        workload = WORKLOADS[args.workload](ROOT, data, args.seconds, scratch)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} rows={len(data.rows)}")
        if args.trace:
            untraced = workload.run(setups=1, traced=False)
            traced = workload.run(setups=1, traced=True)
            phases = [untraced, traced]
        else:
            phases = [workload.run(setups=SETUPS, traced=False)]
        workload.verify(phases)
        for phase in phases:
            for note in phase.notes:
                print(f"  note: {note}")
        if args.trace:
            spans = layers.load_spans(traced.spans_paths)
            metrics = {
                name: (value, layers.UNITS[name])
                for name, value in layers.per_layer(untraced, traced, spans).items()
            }
            for name, (value, unit) in metrics.items():
                print(f"  {name:<44} {value:>14.4f} {unit}")
            same = untraced.counts == traced.counts
            print(f"  counts {untraced.counts} repeat exactly across the two phases: "
                  f"{'yes' if same else 'no'}")
        else:
            metrics, lines = end_to_end(args.workload, phases[0])
            print("\n".join(lines))
        # The JSON line carries exactly the metrics BENCHMARK.json declares
        # for this mode; the report above also shows the unbounded ones.
        declared = _declared("per_layer" if args.trace else "end_to_end")
        missing = declared - set(metrics)
        if missing:
            raise RuntimeError(f"declared metrics not measured: {sorted(missing)}")
        metrics = {name: metrics[name] for name in metrics if name in declared}
        failed = sum(phase.failed for phase in phases)
        attempted = sum(phase.attempted for phase in phases)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
