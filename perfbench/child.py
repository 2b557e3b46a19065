"""One run of one workload, in a fresh interpreter started by ``run.py``.

Protocol on stdout, one ``PERFBENCH {json}`` line each: after set-up the
child reports ``{"ready": ...}`` and reads one command from stdin —
``quit`` ends it (a set-up-only start, timed by the parent), ``go``
measures and reports the run's result.

With ``--trace 0`` the child measures one untraced window.  With
``--trace 1`` it measures an untraced window, installs the span wrappers,
measures a traced window of the same length on the same inputs, and
reports per-layer metrics, the tracing overhead, and whether both windows
produced the same output digest.  Outputs are checked after the windows.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import metrics
import spans
from workloads import WORKLOADS, ServeWorkload

PREFIX = "PERFBENCH "


def emit(payload: dict) -> None:
    print(PREFIX + json.dumps(payload), flush=True)


def path_taken() -> str:
    """Which simulation path this process runs (loads the native kernel)."""
    from repro.sim.engine import arena_batching_available

    return "native-arena" if arena_batching_available() else "numpy-fallback"


def after_window(workload) -> dict:
    """Path taken and peak memory of the process doing the work."""
    if isinstance(workload, ServeWorkload):
        return workload.stop_server()
    import resource

    return {
        "path": path_taken(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": None,
    }


def measure(workload, args, build_dir: Path) -> dict:
    problems = []
    plain = workload.window(args.seconds)
    report = after_window(workload)
    windows = [(plain, report)]
    result = {"attempted": plain["attempted"], "failed": plain["failed"],
              "digest": plain["digest"]}
    if args.trace:
        if isinstance(workload, ServeWorkload):
            workload.setup(traced=True)
        recorder = spans.SpanRecorder()
        spans.install(recorder)
        start = time.perf_counter()
        traced = workload.window(args.seconds, traced=True)
        end = time.perf_counter()
        report = after_window(workload)
        windows.append((traced, report))
        start, end = traced.get("span_window", (start, end))
        processes = [recorder.export(), *traced.get("spans", [])]
        if report.get("spans"):
            processes.append(report["spans"])
        aggregate = spans.Aggregate()
        for exported in processes:
            aggregate.add(exported, start, end)
        trace_file = build_dir / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(processes))
        if traced["digest"] != plain["digest"]:
            problems.append("traced and untraced output digests differ")
        overhead = plain["throughput"] / traced["throughput"] - 1
        on_path = ["client"] if isinstance(workload, ServeWorkload) else ["main"]
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["overhead_pct"] = overhead * 100.0
    for _, window_report in windows:
        path = window_report.get("path", "an unknown path (no report)")
        if path != "native-arena":
            problems.append(f"simulation ran on {path}, not the native arena")
    problems += workload.check(plain)
    details = plain["details"]
    if args.trace:
        values = metrics.layer_metrics(
            aggregate, traced, on_path, workload.layer_values(plain), overhead * 100.0
        )
        result["per_layer"] = values
    else:
        result["end_to_end"] = {
            "throughput_per_s": metrics.summary([plain["throughput"]]),
            "peak_rss_mb": metrics.summary([windows[0][1].get("peak_rss_mb", 0.0)]),
        }
    result["details"] = {
        name: {"unit": unit, **metrics.summary(values),
               "p90": metrics.percentile(values, 0.9), "p99": metrics.percentile(values, 0.99)}
        for name, (unit, values) in details.items()
    }
    result["problems"] = problems
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir", required=True)
    args = parser.parse_args(argv)
    build_dir = Path(args.build_dir)

    factory = WORKLOADS[args.workload]
    workload = (factory(args.seed, build_dir) if factory is ServeWorkload
                else factory(args.seed))
    try:
        workload.setup()
        emit({"ready": True, "path": path_taken()})
        if sys.stdin.readline().strip() != "go":
            return 0
        result = measure(workload, args, build_dir)
    finally:
        workload.close()
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
