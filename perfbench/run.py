"""The repository's benchmark: one command for the paper's whole path.

    python3 perfbench/run.py --workload train|tune|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are described in
``perfbench/README.md`` and ``BENCHMARK.json``.  Every run starts fresh
interpreters (empty simulation and feature caches, a fresh service
database), compiles the native simulation kernel before any timing, and
fails instead of reporting numbers if the simulator falls back to NumPy.

``--trace 0`` starts the workload several times to time its set-up, then
measures one untraced window and prints the end-to-end metrics.
``--trace 1`` measures an untraced and a traced window and prints the
per-layer metrics.  A report with medians, quartiles, sample counts and
the host fingerprint precedes the last line, which is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Full results are also
written to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402  (a sibling module, importable once HERE is on the path)

SETUPS = 3
WORKLOADS = ("train", "tune", "serve")
CHILD_TIMEOUT_S = 150.0


def child_environment(build_dir: Path) -> dict:
    """The program's environment: its sources, and caches inside the checkout.

    Ambient ``REPRO_*`` settings (fault injection, engine toggles) are
    dropped so that every run measures the defaults.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(build_dir / "cache")
    env["TMPDIR"] = str(build_dir / "tmp")
    env["PYTHONHASHSEED"] = "0"
    return env


def compile_native(env: dict) -> None:
    """Build the native kernel once, before anything is timed."""
    code = ("from repro.sim.engine import arena_batching_available; "
            "raise SystemExit(not arena_batching_available())")
    if subprocess.run([sys.executable, "-c", code], env=env, timeout=600).returncode:
        raise SystemExit("error: the native simulation kernel did not build")


class Child:
    """One workload process speaking the ``PERFBENCH`` line protocol."""

    def __init__(self, args, env: dict, build_dir: Path):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--build-dir", str(build_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        # A hung workload is killed, which ends read() with an error.
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.process.kill)
        self.watchdog.start()

    def read(self) -> dict:
        for line in self.process.stdout:
            if line.startswith("PERFBENCH "):
                return json.loads(line[len("PERFBENCH "):])
        self.finish()
        raise SystemExit(f"error: workload process exited with {self.process.returncode}")

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.close()

    def finish(self) -> None:
        self.process.wait()
        self.watchdog.cancel()


def fingerprint(seed: int) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = "unavailable"
    import numpy

    return {
        "cpu": model or platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": cc,
        "platform": platform.platform(),
        "seed": seed,
    }


def run(args) -> dict:
    build_dir = ROOT / ".bench_build"
    for sub in ("cache", "tmp", "logs", "traces", "results"):
        (build_dir / sub).mkdir(parents=True, exist_ok=True)
    env = child_environment(build_dir)
    compile_native(env)
    # Only the last start measures; the others time the set-up once more.
    starts = 1 if args.trace else SETUPS
    setups = []
    for attempt in range(starts):
        child = Child(args, env, build_dir)
        ready = child.read()
        setups.append(time.perf_counter() - child.started)
        if attempt < starts - 1:
            child.send("quit")
            child.finish()
    child.send("go")
    result = child.read()
    child.finish()
    result["setup_s"] = setups
    result["ready"] = ready
    return result


def print_report(args, result: dict, host: dict) -> None:
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s per window, "
          f"trace {args.trace}")
    print("host: " + ", ".join(f"{key}={value}" for key, value in host.items()))
    rows = dict(result.get("end_to_end", {}))
    if not args.trace:
        rows["setup_s"] = metrics.summary(result["setup_s"])
    print(f"{'metric':<28}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'n':>6}")
    for name, row in list(rows.items()) + list(result["details"].items()):
        unit = row.get("unit") or metrics.END_TO_END[name][0]
        print(f"{name:<28}{unit:>6}{row['median']:>14.6g}{row['q1']:>14.6g}"
              f"{row['q3']:>14.6g}{row['n']:>6}")
    for name, row in result["details"].items():
        print(f"  {name}: p90 {row['p90']:.6g}, p99 {row['p99']:.6g} {row['unit']} "
              f"over {row['n']} samples")
    if args.trace:
        print(f"{'layer metric':<28}{'unit':>6}{'per job':>14}  moves")
        for name, value in result["per_layer"].items():
            unit, _, moves = metrics.LAYERS[name]
            print(f"{name:<28}{unit:>6}{value:>14.6g}  {moves}")
        print(f"tracing overhead: {result['overhead_pct']:.2f}% of untraced throughput")
    print(f"path: {result['ready']['path']}, output digest: {result['digest']}, "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    result = run(args)
    host = fingerprint(args.seed)
    print_report(args, result, host)
    if args.trace:
        values = result["per_layer"]
    else:
        values = {name: row["median"] for name, row in result["end_to_end"].items()}
        values["setup_s"] = statistics.median(result["setup_s"])
    catalogue = metrics.LAYERS if args.trace else metrics.END_TO_END
    line = {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": catalogue[name][0]}
                    for name in catalogue},
    }
    out = ROOT / ".bench_build" / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.write_text(json.dumps({"host": host, "result": result, "line": line}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
