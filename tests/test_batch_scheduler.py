"""Batch simulator and batched runner: equivalence with per-candidate runs.

``BatchSimulator.iter_batch`` runs every candidate through
``_attempt_program``, each on a freshly built cold hierarchy, on every
backend, and ``SimulatorRunner`` deduplicates a generation and fans the
unique results back out.  Both must be bit-identical — same
statistics, same error mapping, same retry accounting, same tuner
trajectory — to simulating every candidate alone on a cold hierarchy.  The
per-candidate side of every comparison is the oracle: one cold
``Simulator.run`` (or ``_attempt_program`` for failure accounting) per
candidate, in input order.  ``sim.host_seconds`` is the single wall-clock
observable excluded from the comparison.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro.sim.memo as memo_module
import repro.sim.simulator as simulator_module
import repro.workloads  # noqa: F401 — registers the tuning templates
from repro.autotune import (
    GATuner,
    LocalBuilder,
    MeasureInput,
    RandomTuner,
    SimulatorRunner,
    create_task,
)
from repro.autotune.measure import BuildResult, MeasureErrorNo, MeasureResult, Runner
from repro.codegen import Target
from repro.reliability import Deadline, DeadlineExceeded, RetryPolicy, deadline_scope
from repro.reliability import faults
from repro.sim import (
    CACHE_HIERARCHIES,
    BatchSimulator,
    RuntimeConfig,
    Simulator,
    TraceOptions,
    _native,
)
from repro.sim.memo import SimulationCache
from repro.sim.simulator import SimulationFailure, SimulationResult, _attempt_program
from repro.sim.stats import SimulationStats
from tests.conftest import expanded_walk_stats

TRACE = TraceOptions(max_accesses=15_000)
#: Oracle and batch simulators run unmemoized unless a test says otherwise.
UNMEMOIZED = RuntimeConfig(memoize=False)


@pytest.fixture(autouse=True)
def _fault_free():
    """Shield every test from ambient fault-injection profiles."""
    faults.configure("")
    yield
    faults.reset()


@pytest.fixture(scope="module")
def task():
    return create_task("matmul", (8, 8, 8), Target.arm())


@pytest.fixture(scope="module")
def inputs(task):
    return [MeasureInput(task, task.config_space.get(i)) for i in (0, 1, 2, 3, 5)]


@pytest.fixture(scope="module")
def programs(inputs):
    builds = LocalBuilder().build(inputs)
    assert all(build.ok for build in builds)
    return [build.program for build in builds]


def flat(result):
    """Statistics of one simulation, minus the wall-clock observable."""
    stats = dict(result.stats.as_dict())
    stats.pop("sim.host_seconds", None)
    return stats


def assert_bit_identical(batched, serial):
    assert len(batched) == len(serial)
    for b, s in zip(batched, serial):
        assert isinstance(b, SimulationResult), b
        assert flat(b) == flat(s)


# ---------------------------------------------------------------------------
# BatchSimulator bit-identity
# ---------------------------------------------------------------------------


class TestBatchSimulatorEquivalence:
    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_bit_identical_across_engines_and_traces(self, programs, engine):
        """Each engine walks its own representation (descriptors on the
        vectorized engine, expanded chunks on the reference one); both
        equal the default path and the expanded trace fed straight into a
        vectorized hierarchy."""
        config = RuntimeConfig(engine=engine, memoize=False)
        serial = [Simulator("arm", trace_options=TRACE, config=config).run(p) for p in programs]
        batch = BatchSimulator("arm", trace_options=TRACE, config=config)
        assert batch.engine == engine
        assert_bit_identical(batch.run_batch(programs), serial)
        oracle = Simulator("arm", trace_options=TRACE, config=UNMEMOIZED)
        assert_bit_identical(serial, [oracle.run(p) for p in programs])
        expanded = [expanded_walk_stats(CACHE_HIERARCHIES["arm"], p, TRACE) for p in programs]
        assert [flat(result) for result in serial] == expanded

    def test_bit_identical_without_native_kernels(self, programs, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_NATIVE", "0")
        _native._reset_for_tests()
        try:
            serial = [
                Simulator("arm", trace_options=TRACE, config=UNMEMOIZED).run(p) for p in programs
            ]
            batched = BatchSimulator("arm", trace_options=TRACE, config=UNMEMOIZED).run_batch(
                programs
            )
            assert_bit_identical(batched, serial)
        finally:
            monkeypatch.undo()
            _native._reset_for_tests()

    def test_duplicates_in_one_batch(self, programs):
        doubled = list(programs) + list(programs)
        serial = [Simulator("arm", trace_options=TRACE, config=UNMEMOIZED).run(p) for p in doubled]
        batched = BatchSimulator("arm", trace_options=TRACE, config=UNMEMOIZED).run_batch(doubled)
        assert_bit_identical(batched, serial)

    def test_iter_batch_streams_in_input_order(self, programs):
        batch = BatchSimulator("arm", trace_options=TRACE, config=UNMEMOIZED)
        names = [outcome.program_name for outcome in batch.iter_batch(programs)]
        assert names == [p.name for p in programs]

    def test_memoized_rerun_is_served_cached(self, programs):
        # A private cache: the process-wide default memo may already hold
        # these programs from other test modules.
        batch = BatchSimulator("arm", trace_options=TRACE, memo_cache=SimulationCache())
        first = batch.run_batch(programs)
        second = batch.run_batch(programs)
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        assert_bit_identical(second, first)

    def test_empty_batch(self):
        assert BatchSimulator("arm", trace_options=TRACE).run_batch([]) == []

    def test_sim_digest_is_stable_across_paths(self, programs):
        serial = Simulator("arm", trace_options=TRACE, config=UNMEMOIZED).run(programs[0])
        batched = BatchSimulator("arm", trace_options=TRACE, config=UNMEMOIZED).run_batch(
            [programs[0]]
        )[0]
        memoized = Simulator("arm", trace_options=TRACE).run(programs[0])
        assert serial.sim_digest
        assert serial.sim_digest == batched.sim_digest == memoized.sim_digest
        other = Simulator(
            "arm", trace_options=TraceOptions(max_accesses=7_000), config=UNMEMOIZED
        ).run(programs[0])
        assert other.sim_digest != serial.sim_digest


class TestBatchSimulatorRoute:
    """The batch simulator is the per-candidate route: one cold hierarchy
    per simulated program."""

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_one_fresh_hierarchy_per_simulated_program(self, programs, engine, monkeypatch):
        built = []

        class CountingHierarchy(simulator_module.CacheHierarchy):
            def __init__(self, *args, **kwargs):
                built.append(None)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "CacheHierarchy", CountingHierarchy)
        config = RuntimeConfig(engine=engine)
        batch = BatchSimulator("arm", trace_options=TRACE, memo_cache=SimulationCache(),
                               config=config)
        batched = batch.run_batch(programs)
        assert len(built) == len(programs)
        assert all(result.cached for result in batch.run_batch(programs))
        assert len(built) == len(programs)  # a memo hit builds no hierarchy
        oracle = [
            Simulator("arm", trace_options=TRACE, config=replace(config, memoize=False)).run(p)
            for p in programs
        ]
        assert_bit_identical(batched, oracle)

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_memo_lookup_never_coalesces(self, programs, engine, monkeypatch):
        """A service worker simulates inside the HTTP leader's
        ``get_or_compute`` slot for the same key; a coalescing lookup in a
        simulator would wait on itself."""
        memo = SimulationCache()

        def refuse(key, compute):
            raise AssertionError("a simulator must not coalesce")

        monkeypatch.setattr(memo, "get_or_compute", refuse)
        config = RuntimeConfig(engine=engine)
        batch = BatchSimulator("arm", trace_options=TRACE, memo_cache=memo, config=config)
        first = batch.run_batch(programs)
        assert not any(result.cached for result in first)
        assert len(memo) == len(programs)
        assert all(result.cached for result in batch.run_batch(programs))
        solo = Simulator("arm", trace_options=TRACE, memo_cache=memo, config=config)
        assert all(solo.run(program).cached for program in programs)
        other = Simulator(
            "arm", trace_options=TraceOptions(max_accesses=7_000), memo_cache=memo, config=config
        )
        assert not other.run(programs[0]).cached
        assert other.run(programs[0]).cached

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_explicit_zero_timeout_is_unlimited(self, programs, engine):
        config = RuntimeConfig(engine=engine, memoize=False, timeout_s=1e-9)
        batch = BatchSimulator("arm", trace_options=TRACE, config=config)
        assert all(
            isinstance(outcome, SimulationFailure) for outcome in batch.iter_batch(programs[:2])
        )
        outcomes = list(batch.iter_batch(programs[:2], timeout_s=0))
        assert all(isinstance(outcome, SimulationResult) for outcome in outcomes)


# ---------------------------------------------------------------------------
# Failure isolation inside a batch
# ---------------------------------------------------------------------------


class _BrokenProgram:
    """A program stand-in whose trace lowering always raises."""

    def __init__(self, name="broken"):
        self.name = name

    def content_digest(self):
        return f"broken:{self.name}"

    def instruction_counts(self):
        return {}

    def memory_trace_descriptors(self, **kwargs):
        raise RuntimeError("synthetic lowering failure")

    def memory_trace(self, **kwargs):
        raise RuntimeError("synthetic lowering failure")


class TestBatchFailureIsolation:
    def test_error_is_isolated_and_mapped_identically(self, programs):
        mixed = [programs[0], _BrokenProgram(), programs[1]]
        batch = BatchSimulator("arm", trace_options=TRACE, config=UNMEMOIZED)
        outcomes = list(batch.iter_batch(mixed))
        simulator = Simulator("arm", trace_options=TRACE, config=UNMEMOIZED)
        serial = [simulator.run(p) for p in (programs[0], programs[1])]
        assert flat(outcomes[0]) == flat(serial[0])
        assert flat(outcomes[2]) == flat(serial[1])
        failure = outcomes[1]
        assert isinstance(failure, SimulationFailure)
        assert failure.kind == SimulationFailure.ERROR
        assert failure.attempts == 1
        assert "synthetic lowering failure" in failure.error

    @pytest.mark.parametrize(
        "backend,n_parallel", [("serial", 1), ("threads", 2), ("processes", 2)]
    )
    def test_error_accounting_matches_per_candidate_path(
        self, programs, backend, n_parallel
    ):
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        mixed = [programs[0], _BrokenProgram(), programs[1]]
        oracle = Simulator("arm", trace_options=TRACE, config=UNMEMOIZED)
        per_candidate = [_attempt_program(oracle, p, 0.0, retry) for p in mixed]
        batch = BatchSimulator("arm", trace_options=TRACE, n_parallel=n_parallel,
                               backend=backend, config=replace(UNMEMOIZED, retry=retry))
        batched = list(batch.iter_batch(mixed))
        assert len(batched) == len(per_candidate)
        for b, s in zip(batched, per_candidate):
            assert type(b) is type(s)
            if isinstance(b, SimulationFailure):
                assert (b.kind, b.attempts, b.error) == (s.kind, s.attempts, s.error)
            else:
                assert flat(b) == flat(s)

    def test_run_batch_raises_naming_program_and_kind(self, programs):
        batch = BatchSimulator("arm", trace_options=TRACE, config=UNMEMOIZED)
        with pytest.raises(RuntimeError, match=r"'broken' failed \(error\): .*synthetic"):
            batch.run_batch([programs[0], _BrokenProgram()])

    def test_run_batch_retries_per_config(self, programs):
        faults.configure("worker_crash:once")
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        batch = BatchSimulator(
            "arm", trace_options=TRACE, config=replace(UNMEMOIZED, retry=retry)
        )
        serial = [Simulator("arm", trace_options=TRACE, config=UNMEMOIZED).run(p) for p in programs]
        assert_bit_identical(batch.run_batch(programs), serial)

    def test_timeout_is_final_and_isolated(self, programs):
        batch = BatchSimulator(
            "arm", trace_options=TRACE,
            config=replace(UNMEMOIZED, retry=RetryPolicy(max_attempts=3)),
        )
        outcomes = list(batch.iter_batch(programs, timeout_s=1e-9))
        assert len(outcomes) == len(programs)
        for outcome in outcomes:
            assert isinstance(outcome, SimulationFailure)
            assert outcome.kind == SimulationFailure.TIMEOUT
            assert outcome.attempts == 1  # timeouts are never retried

    def test_injected_crash_is_retried_in_isolation(self, programs):
        faults.configure("worker_crash:once")
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        batch = BatchSimulator(
            "arm", trace_options=TRACE, config=replace(UNMEMOIZED, retry=retry)
        )
        outcomes = list(batch.iter_batch(programs))
        serial = [Simulator("arm", trace_options=TRACE, config=UNMEMOIZED).run(p) for p in programs]
        assert_bit_identical(outcomes, serial)

    def test_injected_crash_without_retry_budget_fails_alone(self, programs):
        faults.configure("worker_crash:once")
        batch = BatchSimulator("arm", trace_options=TRACE, config=UNMEMOIZED)
        outcomes = list(batch.iter_batch(programs))
        assert isinstance(outcomes[0], SimulationFailure)
        assert outcomes[0].kind == SimulationFailure.CRASH
        serial = [Simulator("arm", trace_options=TRACE, config=UNMEMOIZED).run(p) for p in programs]
        assert_bit_identical(outcomes[1:], serial[1:])


# ---------------------------------------------------------------------------
# Backend memoization in the calling process
# ---------------------------------------------------------------------------


@pytest.fixture()
def caller_memo(monkeypatch):
    """A fresh process-wide default cache, so every batch simulator starts cold."""
    memo = SimulationCache()
    monkeypatch.setattr(memo_module, "_DEFAULT_CACHE", memo)
    return memo


class TestPoolCallerMemo:
    """Every backend memoizes through the caller's default cache.

    The ``processes`` backend looks each program up before dispatch, sends
    only the misses to its workers and stores each returned result under
    its ``sim_digest``; ``serial`` and ``threads`` memoize per candidate
    run.  Either way a batch simulator reads and fills the same cache as a
    plain ``Simulator``, and failures never enter it.
    """

    @pytest.mark.parametrize("backend", BatchSimulator.BACKENDS)
    def test_hits_and_misses_keep_input_order(self, backend, programs, caller_memo):
        warm = (0, 2)
        for index in warm:
            Simulator("arm", trace_options=TRACE).run(programs[index])
        batch = BatchSimulator("arm", trace_options=TRACE, n_parallel=2, backend=backend)
        outcomes = batch.run_batch(programs)
        assert [o.program_name for o in outcomes] == [p.name for p in programs]
        assert [o.cached for o in outcomes] == [i in warm for i in range(len(programs))]
        oracle = [Simulator("arm", trace_options=TRACE, config=UNMEMOIZED).run(p) for p in programs]
        assert_bit_identical(outcomes, oracle)
        assert [o.sim_digest for o in outcomes] == [o.sim_digest for o in oracle]
        assert len(caller_memo) == len(programs)

    @pytest.mark.parametrize("backend", BatchSimulator.BACKENDS)
    def test_pool_results_serve_a_plain_simulator(self, backend, programs, caller_memo):
        batch = BatchSimulator("arm", trace_options=TRACE, n_parallel=2, backend=backend)
        computed = batch.run_batch(programs)
        assert not any(result.cached for result in computed)
        for program, result in zip(programs, computed):
            replay = Simulator("arm", trace_options=TRACE).run(program)
            assert replay.cached
            assert replay.sim_digest == result.sim_digest
            assert flat(replay) == flat(result)

    def test_processes_dispatch_only_the_misses(self, programs, caller_memo, monkeypatch):
        spawned = []
        real_executor = simulator_module.ProcessPoolExecutor

        def counting_executor(*args, **kwargs):
            spawned.append(kwargs["max_workers"])
            return real_executor(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "ProcessPoolExecutor", counting_executor)
        batch = BatchSimulator("arm", trace_options=TRACE, n_parallel=2, backend="processes")
        first = batch.run_batch(programs[:3])
        assert spawned == [2]
        spawned.clear()
        second = batch.run_batch(programs[:3])
        assert spawned == []  # a fully memoized batch starts no worker
        assert all(result.cached for result in second)
        assert_bit_identical(second, first)
        mixed = batch.run_batch(programs[:4])
        assert spawned == [1]  # one worker, for the one miss
        assert [result.cached for result in mixed] == [True, True, True, False]

    @pytest.mark.parametrize("backend", BatchSimulator.BACKENDS)
    def test_failures_are_not_memoized(self, backend, programs, caller_memo):
        batch = BatchSimulator(
            "arm", trace_options=TRACE, n_parallel=2, backend=backend,
            config=RuntimeConfig(timeout_s=1e-9),
        )
        outcomes = list(batch.iter_batch(programs[:2]))
        assert all(
            isinstance(o, SimulationFailure) and o.kind == SimulationFailure.TIMEOUT
            for o in outcomes
        )
        assert len(caller_memo) == 0
        rerun = BatchSimulator(
            "arm", trace_options=TRACE, n_parallel=2, backend=backend
        ).run_batch(programs[:2])
        assert not any(result.cached for result in rerun)


# ---------------------------------------------------------------------------
# SimulatorRunner: dedupe, fan-out, streaming, trajectory
# ---------------------------------------------------------------------------


def running_mean_score():
    """A deliberately order-sensitive score function (dynamic-window style)."""
    state = {"sum": 0.0, "count": 0}

    def score(result, measure_input):
        insts = float(result.stats.get("cpu.num_insts"))
        state["sum"] += insts
        state["count"] += 1
        return insts / (state["sum"] / state["count"])

    return score


class PerCandidateRunner(Runner):
    """The oracle runner: one cold ``Simulator.run`` per candidate, scored
    in input order, no deduplication."""

    def __init__(self, score_function):
        super().__init__(n_parallel=1)
        self.simulator = Simulator(
            "arm", trace_options=TRACE, config=UNMEMOIZED
        )
        self.score_function = score_function

    def run(self, measure_inputs, build_results):
        results = []
        for measure_input, build in zip(measure_inputs, build_results):
            if not build.ok:
                results.append(MeasureResult(
                    costs=[], error_no=build.error_no, error_msg=build.error_msg
                ))
                continue
            simulation = self.simulator.run(build.program)
            score = float(self.score_function(simulation, measure_input))
            results.append(MeasureResult(costs=[score], all_cost=simulation.host_seconds))
        return results


class TestRunnerBatchedEquivalence:
    def _inputs_with_duplicates(self, task):
        indices = (0, 1, 0, 2, 1, 0)
        return [MeasureInput(task, task.config_space.get(i)) for i in indices]

    def test_results_and_trajectory_match_per_candidate_path(self, task):
        inputs = self._inputs_with_duplicates(task)
        builds = LocalBuilder().build(inputs)
        batched_runner = SimulatorRunner(
            "arm", trace_options=TRACE, score_function=running_mean_score(),
            config=UNMEMOIZED,
        )
        batched = batched_runner.run(inputs, builds)
        serial = PerCandidateRunner(running_mean_score()).run(inputs, builds)
        assert [r.costs for r in batched] == [r.costs for r in serial]
        assert [r.error_no for r in batched] == [r.error_no for r in serial]
        assert batched_runner.dedupe_lookups == len(inputs)
        assert batched_runner.dedupe_hits == 3

    def test_duplicate_fan_out_is_independent_and_marked_cached(self, task):
        inputs = self._inputs_with_duplicates(task)
        builds = LocalBuilder().build(inputs)
        runner = SimulatorRunner("arm", trace_options=TRACE, config=UNMEMOIZED)
        runner.run(inputs, builds)
        simulations = runner.simulation_results
        assert len(simulations) == len(inputs)
        assert [s.cached for s in simulations] == [False, False, True, False, True, True]
        # Mutating a fan-out copy must not leak into the original.
        simulations[2].stats.group("sim").set("host_seconds", -1.0)
        assert simulations[0].stats.get("sim.host_seconds") != -1.0

    def test_on_result_streams_in_input_order(self, task):
        inputs = self._inputs_with_duplicates(task)
        builds = LocalBuilder().build(inputs)
        seen = []
        runner = SimulatorRunner(
            "arm", trace_options=TRACE, config=UNMEMOIZED,
            on_result=lambda position, mi, result: seen.append(position),
        )
        results = runner.run(inputs, builds)
        assert seen == list(range(len(inputs)))
        assert len(results) == len(inputs)

    def test_build_failures_are_emitted_with_batch_results(self, task):
        inputs = self._inputs_with_duplicates(task)
        builds = list(LocalBuilder().build(inputs))
        builds[1] = BuildResult(
            program=None, build_seconds=0.0,
            error_no=MeasureErrorNo.COMPILE_ERROR, error_msg="synthetic build failure",
        )
        seen = []
        runner = SimulatorRunner(
            "arm", trace_options=TRACE, config=UNMEMOIZED,
            on_result=lambda position, mi, result: seen.append(position),
        )
        results = runner.run(inputs, builds)
        assert len(results) == len(inputs)
        assert results[1].error_no == MeasureErrorNo.COMPILE_ERROR
        assert all(results[i].error_no == MeasureErrorNo.NO_ERROR for i in (0, 2, 3, 4, 5))
        assert seen == list(range(len(inputs)))

    def test_simulation_failure_maps_to_measure_error(self, task):
        inputs = self._inputs_with_duplicates(task)
        builds = LocalBuilder().build(inputs)
        runner = SimulatorRunner(
            "arm", trace_options=TRACE, config=replace(UNMEMOIZED, timeout_s=1e-9)
        )
        results = runner.run(inputs, builds)
        assert [r.error_no for r in results] == [MeasureErrorNo.RUN_TIMEOUT] * len(inputs)


class TestTunerTrajectory:
    @pytest.mark.parametrize("tuner_cls", [RandomTuner, GATuner])
    def test_fixed_seed_trajectory_is_identical(self, task, tuner_cls):
        trajectories = []
        runners = (
            SimulatorRunner(
                "arm", trace_options=TRACE, score_function=running_mean_score(),
                config=UNMEMOIZED,
            ),
            PerCandidateRunner(running_mean_score()),
        )
        for runner in runners:
            tuner = tuner_cls(task, seed=3)
            tuner.tune(n_trial=24, runner=runner, builder=LocalBuilder(), batch_size=8)
            trajectories.append(
                (sorted(tuner.visited), tuner.best_cost, tuner.best_config.index,
                 tuner.trial_count)
            )
        assert trajectories[0] == trajectories[1]


# ---------------------------------------------------------------------------
# Memo coalescing (in-flight request merging)
# ---------------------------------------------------------------------------


class TestMemoCoalescing:
    def _stats(self, value=1.0):
        stats = SimulationStats()
        stats.group("sim").set("value", value)
        return stats

    def test_concurrent_requests_compute_once(self):
        cache = SimulationCache()
        calls = []

        def compute():
            calls.append(threading.get_ident())
            time.sleep(0.15)
            return self._stats()

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(cache.get_or_compute, "key", compute) for _ in range(8)]
            outcomes = [f.result() for f in futures]
        assert len(calls) == 1
        assert sum(1 for _, computed in outcomes if computed) == 1
        assert all(stats.get("sim.value") == 1.0 for stats, _ in outcomes)
        assert cache.coalesced == 7
        # Waiters receive independent copies, not aliases of one object.
        objects = {id(stats) for stats, _ in outcomes}
        assert len(objects) == len(outcomes)

    def test_leader_failure_releases_waiters(self):
        cache = SimulationCache()
        attempts = []
        started = threading.Event()

        def compute():
            attempts.append(None)
            started.set()
            if len(attempts) == 1:
                time.sleep(0.05)
                raise RuntimeError("first leader dies")
            return self._stats(2.0)

        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(cache.get_or_compute, "key", compute)
            started.wait(timeout=2.0)
            second = pool.submit(cache.get_or_compute, "key", compute)
            with pytest.raises(RuntimeError):
                first.result()
            stats, computed = second.result()
        assert stats.get("sim.value") == 2.0
        assert len(attempts) == 2

    def test_waiter_honours_ambient_deadline(self):
        cache = SimulationCache()
        release = threading.Event()
        started = threading.Event()

        def compute():
            started.set()
            release.wait(timeout=5.0)
            return self._stats()

        with ThreadPoolExecutor(max_workers=2) as pool:
            leader = pool.submit(cache.get_or_compute, "key", compute)
            started.wait(timeout=2.0)

            def waiter():
                with deadline_scope(Deadline.after(0.1)):
                    return cache.get_or_compute("key", compute)

            blocked = pool.submit(waiter)
            with pytest.raises(DeadlineExceeded):
                blocked.result()
            release.set()
            leader.result()
