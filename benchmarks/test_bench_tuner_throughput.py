"""Autotuning-loop measurement throughput: batched vs per-candidate.

Times one GA-style measurement generation — duplicate-heavy, as genetic
populations and model-based tuners produce them — through the batched
``SimulatorRunner`` and through a per-candidate baseline (one cold
``Simulator.run`` per candidate, scored like the runner's default score),
and writes ``benchmarks/results/tuner_throughput.txt`` plus a
machine-readable ``tuner_throughput.json`` so the trajectory stays diffable
across PRs.

Three views are reported:

* **GA batch** — the full generation including duplicates; this is the
  tuner-visible metric, where digest-level deduplication pays.  Timed in
  ``PAIRS`` alternating pairs (per-candidate first in even pairs, batched
  first in odd ones); the reported speedup is the ratio of the medians.
* **unique only** — the same generation with duplicates removed; isolates
  the runner's own cost from the dedupe effect.  Timed in ``PAIRS``
  alternating pairs as well.
* **engine floor** — ``BatchSimulator.run_batch`` on the unique programs
  with no runner machinery and no scoring: the raw simulation throughput
  the runner can at best approach.

Gates:

* paired rule on the GA batch, in smoke and full mode alike: the batched
  run must be faster in at least ``PAIR_WINS`` of the ``PAIRS`` pairs, and
  its median time must beat the per-candidate median by more than the
  per-candidate interquartile range — the CI gate for the batched
  measurement path;
* paired no-loss rule on the unique-only row, in smoke and full mode alike:
  with no duplicates to remove, the batched median may exceed the
  per-candidate median by at most the per-candidate interquartile range —
  the guard on the batch simulator's own throughput, which dedupe alone
  would hide in the GA-batch rule;
* non-smoke only: batched unique-only runner throughput must stay within
  ``RUNNER_ENGINE_MAX_OVERHEAD`` (2x) of the engine floor — the tuning
  loop is not allowed to cost more than the simulations it schedules;
* the runner must return the per-candidate baseline's scores and the
  dedupe hit rate must match the constructed duplicate fraction exactly
  (timing-free, so these hold in smoke mode too).

Scale knobs (environment variables):

* ``REPRO_BENCH_TUNER_CANDS`` — unique candidates per generation (default 24)
* ``REPRO_BENCH_TUNER_TRACE`` — simulated accesses per candidate
  (default 40000; smoke 8000)
* ``REPRO_BENCH_SMOKE``       — quick correctness pass as used by CI
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

import repro.workloads  # noqa: F401 — registers the tuning templates
from repro.autotune import (
    LocalBuilder,
    MeasureInput,
    MeasureResult,
    SimulatorRunner,
    create_task,
)
from repro.codegen.target import Target
from repro.sim import BatchSimulator, RuntimeConfig, Simulator, TraceOptions
from repro.utils.tabulate import format_table

from benchmarks.conftest import write_result

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
UNIQUE_CANDIDATES = int(os.environ.get("REPRO_BENCH_TUNER_CANDS", "24"))
TRACE_ACCESSES = int(
    os.environ.get("REPRO_BENCH_TUNER_TRACE", "8000" if SMOKE else "40000")
)
#: Alternating per-candidate/batched pairs timed on the GA batch, and the
#: pairs the batched run must win.
PAIRS = 10
PAIR_WINS = 9
#: The batched runner may cost at most this factor over raw engine
#: throughput (non-smoke only).
RUNNER_ENGINE_MAX_OVERHEAD = 2.0
ARCH = "arm"
ROUNDS = 2 if SMOKE else 3


def _best_of(fn, rounds=ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_times(first, second):
    """Wall times of ``first`` and ``second`` over ``PAIRS`` alternating
    pairs: ``first`` runs first in even pairs, ``second`` in odd ones."""
    times = ([], [])
    for pair in range(PAIRS):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            start = time.perf_counter()
            (first, second)[side]()
            times[side].append(time.perf_counter() - start)
    return times


def _iqr(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _measurement_load():
    """A duplicate-heavy GA-style generation plus its unique-only version."""
    task = create_task("matmul", (16, 16, 16), Target.from_name(ARCH))
    space = task.config_space
    rng = random.Random(7)
    unique = rng.sample(range(len(space)), UNIQUE_CANDIDATES)
    ga = unique + [rng.choice(unique) for _ in range(UNIQUE_CANDIDATES)]
    rng.shuffle(ga)
    builder = LocalBuilder()
    ga_inputs = [MeasureInput(task, space.get(i)) for i in ga]
    unique_inputs = [MeasureInput(task, space.get(i)) for i in unique]
    return (
        (ga_inputs, builder.build(ga_inputs)),
        (unique_inputs, builder.build(unique_inputs)),
    )


def test_bench_tuner_throughput(results_dir):
    trace = TraceOptions(max_accesses=TRACE_ACCESSES)
    (ga_inputs, ga_builds), (unique_inputs, unique_builds) = _measurement_load()
    assert all(build.ok for build in ga_builds + unique_builds)
    programs = [build.program for build in unique_builds]

    def run_runner(inputs, builds):
        runner = SimulatorRunner(
            ARCH, trace_options=trace, config=RuntimeConfig(memoize=False)
        )
        results = runner.run(inputs, builds)
        assert all(result.error_no == 0 for result in results)
        return runner, results

    def run_per_candidate(builds):
        # One Simulator call per candidate, scored like the runner's
        # default score (executed instructions).
        simulator = Simulator(ARCH, trace_options=trace, config=RuntimeConfig(memoize=False))
        results = []
        for build in builds:
            simulation = simulator.run(build.program)
            score = float(simulation.stats.get("cpu.num_insts"))
            results.append(MeasureResult(costs=[score], all_cost=simulation.host_seconds))
        return results

    # Correctness before timing: both paths must return identical scores and
    # the dedupe accounting must match the constructed duplicate fraction.
    batched_runner, batched_results = run_runner(ga_inputs, ga_builds)
    serial_results = run_per_candidate(ga_builds)
    assert [r.costs for r in batched_results] == [r.costs for r in serial_results]
    assert batched_runner.dedupe_lookups == len(ga_inputs)
    dedupe_rate = batched_runner.dedupe_hits / batched_runner.dedupe_lookups
    assert dedupe_rate == 0.5  # half the generation is duplicates

    serial_times, batched_times = _paired_times(
        lambda: run_per_candidate(ga_builds), lambda: run_runner(ga_inputs, ga_builds)
    )
    wins = sum(b < s for s, b in zip(serial_times, batched_times))
    t_serial = statistics.median(serial_times)
    t_batched = statistics.median(batched_times)
    serial_iqr = _iqr(serial_times)
    serial_unique_times, batched_unique_times = _paired_times(
        lambda: run_per_candidate(unique_builds),
        lambda: run_runner(unique_inputs, unique_builds),
    )
    unique_wins = sum(b < s for s, b in zip(serial_unique_times, batched_unique_times))
    t_serial_unique = statistics.median(serial_unique_times)
    t_batched_unique = statistics.median(batched_unique_times)
    serial_unique_iqr = _iqr(serial_unique_times)
    unmemoized = RuntimeConfig(memoize=False)
    t_engine = _best_of(
        lambda: BatchSimulator(ARCH, trace_options=trace, config=unmemoized).run_batch(
            programs
        )
    )

    n, u = len(ga_inputs), len(unique_inputs)
    evals = {
        "ga_serial": n / t_serial,
        "ga_batched": n / t_batched,
        "unique_serial": u / t_serial_unique,
        "unique_batched": u / t_batched_unique,
        "engine": u / t_engine,
    }
    speedup = evals["ga_batched"] / evals["ga_serial"]
    unique_speedup = evals["unique_batched"] / evals["unique_serial"]
    engine_ratio = evals["unique_batched"] / evals["engine"]

    rows = [
        ["GA batch (50% dupes)", n, evals["ga_serial"], evals["ga_batched"], speedup],
        ["unique only", u, evals["unique_serial"], evals["unique_batched"], unique_speedup],
        ["engine floor", u, "-", evals["engine"], "-"],
    ]
    table = format_table(
        ["measurement load", "cands", "per-cand ev/s", "batched ev/s", "speedup"],
        rows,
        float_fmt=".1f",
        title=(
            f"Tuner measurement throughput — {ARCH}, {TRACE_ACCESSES} accesses/cand"
            f"{' (smoke)' if SMOKE else ''}"
        ),
    )
    write_result(results_dir, "tuner_throughput.txt", table)
    payload = {
        "arch": ARCH,
        "smoke": SMOKE,
        "trace_accesses": TRACE_ACCESSES,
        "candidates": {"ga_batch": n, "unique": u},
        "evals_per_second": evals,
        "batched_speedup": speedup,
        "unique_batched_speedup": unique_speedup,
        "runner_vs_engine": engine_ratio,
        "dedupe_hit_rate": dedupe_rate,
        "ga_pairs": {
            "pairs": PAIRS,
            "batched_wins": wins,
            "required_wins": PAIR_WINS,
            "serial_median_s": t_serial,
            "batched_median_s": t_batched,
            "serial_iqr_s": serial_iqr,
        },
        "unique_pairs": {
            "pairs": PAIRS,
            "batched_wins": unique_wins,
            "serial_median_s": t_serial_unique,
            "batched_median_s": t_batched_unique,
            "serial_iqr_s": serial_unique_iqr,
        },
    }
    (results_dir / "tuner_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    assert wins >= PAIR_WINS and t_serial - t_batched > serial_iqr, (
        f"batched measurement path won {wins} of {PAIRS} GA-batch pairs (need "
        f"{PAIR_WINS}); median {t_batched:.3f} s against per-candidate "
        f"{t_serial:.3f} s, whose IQR is {serial_iqr:.3f} s"
    )
    assert t_batched_unique - t_serial_unique <= serial_unique_iqr, (
        f"batched measurement path is slower than per-candidate on unique "
        f"candidates: median {t_batched_unique:.4f} s against {t_serial_unique:.4f} s, "
        f"beyond the per-candidate IQR of {serial_unique_iqr:.4f} s"
    )
    if not SMOKE:
        assert engine_ratio * RUNNER_ENGINE_MAX_OVERHEAD >= 1.0, (
            f"batched runner reached only {engine_ratio:.2f} of raw engine "
            f"throughput (allowed overhead {RUNNER_ENGINE_MAX_OVERHEAD}x)"
        )
