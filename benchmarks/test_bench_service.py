"""Simulation-service round-trip throughput: cold compute vs warm store hits.

Starts a real :class:`~repro.service.ServiceServer` on an ephemeral port and
drives a candidate batch through the HTTP client twice:

* **cold** — an empty :class:`~repro.service.ResultStore`; every request is
  computed through the worker's waves;
* **warm** — a *fresh* service process state (cold in-memory LRU) over the
  same store; every request must be served from the DB-backed store.

A third **journal-drain** pass submits a batch of *new* candidates with
``wait=false`` — the durable write-ahead path (202 → journal → worker wave →
store) — and polls ``wait_result`` until every job settles, recording the
journal counter group alongside the request-rate numbers.

Writes ``benchmarks/results/service_throughput.txt`` plus a machine-readable
``service_throughput.json`` so the trajectory stays diffable across PRs.

Gates (timing-free, so they hold in smoke mode too):

* every service result must be bit-identical to a local
  ``BatchSimulator`` run of the same candidates (``sim.host_seconds``
  excluded — it reports round-trip time for service results, by the
  memoized-result convention);
* the warm pass must be served from the store at a hit rate of at least
  ``WARM_HIT_RATE_FLOOR`` (0.5 in smoke mode, 0.9 otherwise — the repeated
  batch acceptance gate).

Scale knobs (environment variables):

* ``REPRO_BENCH_SERVICE_CANDS`` — candidates in the batch (default 12)
* ``REPRO_BENCH_SERVICE_TRACE`` — simulated accesses per candidate
  (default 40000; smoke 8000)
* ``REPRO_BENCH_SMOKE``         — quick correctness pass as used by CI
"""

from __future__ import annotations

import json
import os
import time

import repro.workloads  # noqa: F401 — registers the tuning templates
from repro.autotune import LocalBuilder, MeasureInput, create_task
from repro.codegen.target import Target
from repro.service import ResultStore, ServiceClient, ServiceServer, SimulationService
from repro.sim import (
    BatchSimulator,
    RuntimeConfig,
    SimulationCache,
    SimulationResult,
    TraceOptions,
)
from repro.utils.tabulate import format_table

from benchmarks.conftest import write_result

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
CANDIDATES = int(os.environ.get("REPRO_BENCH_SERVICE_CANDS", "12"))
TRACE_ACCESSES = int(
    os.environ.get("REPRO_BENCH_SERVICE_TRACE", "8000" if SMOKE else "40000")
)
#: Fraction of the repeated batch that must be served from the result store.
WARM_HIT_RATE_FLOOR = 0.5 if SMOKE else 0.9
ARCH = "arm"


def _candidate_batch(offset: int = 0):
    task = create_task("matmul", (16, 16, 16), Target.from_name(ARCH))
    space = task.config_space
    indices = [(offset + i) % len(space) for i in range(CANDIDATES)]
    builds = LocalBuilder().build([MeasureInput(task, space.get(i)) for i in indices])
    assert all(build.ok for build in builds)
    return [build.program for build in builds]


def _flat(result):
    stats = dict(result.stats.as_dict())
    stats.pop("sim.host_seconds", None)
    return stats


def _timed_batch(client, programs):
    start = time.perf_counter()
    outcomes = client.simulate_batch(programs)
    return time.perf_counter() - start, outcomes


def test_bench_service_throughput(results_dir):
    trace = TraceOptions(max_accesses=TRACE_ACCESSES)
    programs = _candidate_batch()

    # Local ground truth: the same candidates on the local fast path.
    local = list(
        BatchSimulator(
            ARCH, trace_options=trace, config=RuntimeConfig(memoize=False)
        ).iter_batch(programs)
    )
    assert all(isinstance(r, SimulationResult) for r in local)

    store = ResultStore(":memory:")
    cold_server = ServiceServer(
        SimulationService(ARCH, store, trace_options=trace), port=0
    ).start_in_thread()
    try:
        t_cold, cold = _timed_batch(ServiceClient(cold_server.url), programs)
    finally:
        cold_server.stop()
    assert all(isinstance(r, SimulationResult) for r in cold)
    assert [_flat(r) for r in cold] == [_flat(r) for r in local]

    # Fresh service state over the same store: the warm pass must be served
    # from the DB, not from the dead service's in-memory LRU.
    warm_server = ServiceServer(
        SimulationService(ARCH, store, trace_options=trace), port=0
    ).start_in_thread()
    try:
        warm_client = ServiceClient(warm_server.url)
        t_warm, warm = _timed_batch(warm_client, programs)
        stats = warm_client.stats()
    finally:
        warm_server.stop()
    assert all(isinstance(r, SimulationResult) for r in warm)
    assert [_flat(r) for r in warm] == [_flat(r) for r in local]

    # Journal drain: new candidates through the durable wait=false path.
    drain_programs = _candidate_batch(offset=CANDIDATES)
    local_drain = list(
        BatchSimulator(
            ARCH, trace_options=trace, config=RuntimeConfig(memoize=False)
        ).iter_batch(drain_programs)
    )
    drain_service = SimulationService(ARCH, store, trace_options=trace)
    drain_server = ServiceServer(drain_service, port=0).start_in_thread()
    try:
        drain_client = ServiceClient(drain_server.url)
        t_drain_start = time.perf_counter()
        for program in drain_programs:
            drain_client.simulate(program, wait=False)  # 202: journaled
        digests = [
            SimulationCache.make_key(
                program,
                drain_service.simulator.hierarchy_config,
                drain_service.simulator.trace_options,
                drain_service.simulator.engine,
            )
            for program in drain_programs
        ]
        drained = [
            drain_client.wait_result(digest, deadline_s=600.0) for digest in digests
        ]
        t_drain = time.perf_counter() - t_drain_start
        journal = drain_client.stats()["journal"]
    finally:
        drain_server.stop()
        store.close()
    assert all(isinstance(r, SimulationResult) for r in drained)
    assert [_flat(r) for r in drained] == [_flat(r) for r in local_drain]
    assert journal["drained"] >= len(drain_programs)
    assert journal["queued"] == 0.0 and journal["leased"] == 0.0

    warm_hit_rate = stats["hit_rate"]
    n = len(programs)
    rows = [
        ["cold (computed)", n, t_cold, n / t_cold],
        ["warm (store-served)", n, t_warm, n / t_warm],
        ["journal drain (wait=false)", n, t_drain, n / t_drain],
    ]
    table = format_table(
        ["pass", "requests", "total s", "req/s"],
        rows,
        float_fmt=".3f",
        title=(
            f"Service round-trip throughput — {ARCH}, {TRACE_ACCESSES} accesses/cand"
            f"{' (smoke)' if SMOKE else ''}"
        ),
    )
    write_result(results_dir, "service_throughput.txt", table)
    payload = {
        "arch": ARCH,
        "smoke": SMOKE,
        "trace_accesses": TRACE_ACCESSES,
        "candidates": n,
        "cold_seconds": t_cold,
        "warm_seconds": t_warm,
        "drain_seconds": t_drain,
        "cold_requests_per_second": n / t_cold,
        "warm_requests_per_second": n / t_warm,
        "drain_requests_per_second": n / t_drain,
        "warm_speedup": t_cold / t_warm,
        "warm_hit_rate": warm_hit_rate,
        "store": stats["store"],
        "journal": journal,
        "hit_rate_floor": WARM_HIT_RATE_FLOOR,
    }
    (results_dir / "service_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    assert warm_hit_rate >= WARM_HIT_RATE_FLOOR, (
        f"repeated batch was served at a hit rate of only {warm_hit_rate:.2f} "
        f"(floor {WARM_HIT_RATE_FLOOR})"
    )
