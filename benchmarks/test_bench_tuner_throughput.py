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
  tuner-visible metric, where digest-level deduplication and the shared
  arena sweep compound.
* **unique only** — the same generation with duplicates removed; isolates
  the candidate-batch scheduler's arena effect (shared hierarchy, packed
  cross-candidate arenas) from the dedupe effect.
* **engine floor** — ``BatchSimulator.run_batch`` on the unique programs
  with no runner machinery and no scoring: the raw simulation throughput
  the runner can at best approach.

Gates:

* batched GA-batch evals/sec must exceed the per-candidate path by
  ``BATCHED_MIN_SPEEDUP`` (default 2.0; 1.5 in smoke mode, where small
  traces and shared runners add noise) — this is the CI gate for the
  candidate-batch scheduler;
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
* ``BATCHED_MIN_SPEEDUP``     — override the batched-vs-serial floor
* ``REPRO_BENCH_SMOKE``       — quick correctness pass as used by CI
"""

from __future__ import annotations

import json
import os
import random
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
#: Acceptance floor: the batched measurement path must deliver at least this
#: many times the per-candidate path's evals/sec on the GA-style batch.
BATCHED_MIN_SPEEDUP = float(
    os.environ.get("BATCHED_MIN_SPEEDUP", "1.5" if SMOKE else "2.0")
)
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

    t_serial = _best_of(lambda: run_per_candidate(ga_builds))
    t_batched = _best_of(lambda: run_runner(ga_inputs, ga_builds))
    t_serial_unique = _best_of(lambda: run_per_candidate(unique_builds))
    t_batched_unique = _best_of(lambda: run_runner(unique_inputs, unique_builds))
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
        "min_speedup_gate": BATCHED_MIN_SPEEDUP,
    }
    (results_dir / "tuner_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    assert speedup >= BATCHED_MIN_SPEEDUP, (
        f"batched measurement path delivered only {speedup:.2f}x the per-candidate "
        f"path on the GA batch (floor {BATCHED_MIN_SPEEDUP}x)"
    )
    if not SMOKE:
        assert engine_ratio * RUNNER_ENGINE_MAX_OVERHEAD >= 1.0, (
            f"batched runner reached only {engine_ratio:.2f} of raw engine "
            f"throughput (allowed overhead {RUNNER_ENGINE_MAX_OVERHEAD}x)"
        )
