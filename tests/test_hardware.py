"""Tests for the target-hardware substitute: specs, noise, timing, boards."""

from __future__ import annotations

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.codegen import Target, build_program
from repro.codegen.isa import InstructionCategory as IC
from repro.codegen.program import Program
from repro.hardware import (
    CPU_SPECS,
    MeasurementProtocol,
    MeasurementRecord,
    NoiseConfig,
    NoiseModel,
    TargetBoard,
    TimingBreakdown,
    TimingModel,
    cpu_spec_for,
)
from repro.pipeline.dataset import DatasetConfig, generate_dataset
from repro.sim import (
    BatchSimulator,
    CacheHierarchy,
    Simulator,
    TraceOptions,
    default_simulation_cache,
    hierarchy_with_replacement,
    run_data_trace,
)
from tests.conftest import make_conv_func


class TestSpecs:
    def test_all_architectures_present(self):
        assert set(CPU_SPECS) == {"x86", "arm", "riscv"}

    def test_lookup(self):
        assert cpu_spec_for("ARM").name.startswith("ARM")
        with pytest.raises(KeyError):
            cpu_spec_for("powerpc")

    def test_paper_frequencies(self):
        assert cpu_spec_for("x86").frequency_ghz == pytest.approx(2.2)
        assert cpu_spec_for("arm").frequency_ghz == pytest.approx(1.5)
        assert cpu_spec_for("riscv").frequency_ghz == pytest.approx(1.2)

    def test_riscv_is_in_order_without_simd(self):
        spec = cpu_spec_for("riscv")
        assert not spec.out_of_order
        assert spec.vector_issue_per_cycle == 0.0


class TestNoiseModel:
    def test_factors_at_least_one(self, rng):
        model = NoiseModel(NoiseConfig.from_spec(cpu_spec_for("x86")), rng)
        factors = model.factors(100)
        assert np.all(factors >= 1.0)

    def test_disabled_noise_is_identity(self, rng):
        model = NoiseModel(NoiseConfig.from_spec(cpu_spec_for("x86"), enabled=False), rng)
        np.testing.assert_array_equal(model.factors(5), np.ones(5))

    def test_requires_positive_samples(self, rng):
        model = NoiseModel(NoiseConfig.from_spec(cpu_spec_for("arm")), rng)
        with pytest.raises(ValueError):
            model.factors(0)

    def test_x86_noisier_than_riscv(self):
        x86 = NoiseModel(NoiseConfig.from_spec(cpu_spec_for("x86")), np.random.default_rng(0))
        riscv = NoiseModel(NoiseConfig.from_spec(cpu_spec_for("riscv")), np.random.default_rng(0))
        assert np.std(x86.factors(500)) > np.std(riscv.factors(500))

    def test_longer_cooldown_reduces_drift(self, rng):
        config = NoiseConfig(
            sigma=0.0, outlier_probability=0.0, outlier_scale=0.0, thermal_drift=0.1
        )
        model = NoiseModel(config, rng)
        hot = model.factors(10, cooldown_s=0.0)
        cool = model.factors(10, cooldown_s=4.0)
        assert hot[-1] > cool[-1]


class TestTimingModel:
    def _counts(self, fp=1000.0, loads=300.0, stores=100.0, branches=50.0, int_alu=500.0):
        return {
            IC.FP_FMA: fp,
            IC.LOAD: loads,
            IC.STORE: stores,
            IC.BRANCH: branches,
            IC.INT_ALU: int_alu,
        }

    def _cache_stats(self, l1_misses=10.0, l2_misses=5.0, sequential=0.0):
        return {
            "l1d": {
                "read_misses": l1_misses,
                "write_misses": 0.0,
                "read_hits": 100.0,
                "write_hits": 0.0,
                "sequential_misses": sequential,
            },
            "l2": {"read_misses": l2_misses, "write_misses": 0.0, "sequential_misses": 0.0},
        }

    def test_more_instructions_take_longer(self):
        model = TimingModel(cpu_spec_for("riscv"))
        fast = model.estimate(self._counts(fp=1000), self._cache_stats())
        slow = model.estimate(self._counts(fp=5000), self._cache_stats())
        assert slow.seconds > fast.seconds

    def test_more_misses_take_longer(self):
        model = TimingModel(cpu_spec_for("arm"))
        fast = model.estimate(self._counts(), self._cache_stats(l1_misses=10))
        slow = model.estimate(self._counts(), self._cache_stats(l1_misses=10_000))
        assert slow.seconds > fast.seconds

    def test_prefetcher_hides_sequential_misses(self):
        model = TimingModel(cpu_spec_for("x86"))
        random_misses = model.estimate(self._counts(), self._cache_stats(l1_misses=1000))
        sequential_misses = model.estimate(
            self._counts(), self._cache_stats(l1_misses=1000, sequential=1000)
        )
        assert sequential_misses.memory_cycles < random_misses.memory_cycles

    def test_out_of_order_overlaps_memory(self):
        counts = self._counts()
        stats = self._cache_stats(l1_misses=2000)
        ooo = TimingModel(cpu_spec_for("x86")).estimate(counts, stats)
        assert ooo.total_cycles < ooo.issue_cycles + ooo.memory_cycles + ooo.branch_cycles

    def test_in_order_serialises(self):
        counts = self._counts()
        stats = self._cache_stats(l1_misses=2000)
        in_order = TimingModel(cpu_spec_for("riscv")).estimate(counts, stats)
        assert in_order.total_cycles == pytest.approx(
            in_order.issue_cycles + in_order.memory_cycles + in_order.branch_cycles
        )

    def test_breakdown_dict(self):
        breakdown = TimingModel(cpu_spec_for("arm")).estimate(self._counts(), self._cache_stats())
        data = breakdown.as_dict()
        assert set(data) == {
            "issue_cycles",
            "memory_cycles",
            "branch_cycles",
            "total_cycles",
            "seconds",
        }


class TestMeasurementProtocol:
    def test_defaults_match_paper(self):
        protocol = MeasurementProtocol()
        assert protocol.n_exe == 15
        assert protocol.cooldown_s == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementProtocol(n_exe=0)
        with pytest.raises(ValueError):
            MeasurementProtocol(cooldown_s=-1)
        with pytest.raises(ValueError):
            MeasurementProtocol(n_exe=4, discard_outliers=2)

    def test_record_median_and_cost(self):
        record = MeasurementRecord(times_s=[0.2, 0.1, 0.3], cooldown_s=1.0)
        assert record.median_s == pytest.approx(0.2)
        assert record.benchmarking_seconds == pytest.approx((1.0 + 0.2) * 3)

    def test_outlier_removal(self):
        record = MeasurementRecord(times_s=[0.1, 0.1, 0.1, 0.1, 5.0], cooldown_s=0.0, discarded=1)
        assert record.median_s == pytest.approx(0.1)
        assert record.mean_s < 1.0

    @given(st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=30))
    def test_median_between_min_and_max(self, times):
        record = MeasurementRecord(times_s=times, cooldown_s=1.0)
        assert min(times) <= record.median_s <= max(times)


class TestTargetBoard:
    @pytest.fixture(scope="class")
    def conv_programs(self):
        func, _ = make_conv_func()
        archs = ("x86", "arm", "riscv")
        return {arch: build_program(func, Target.from_name(arch)) for arch in archs}

    def test_measure_record_shape(self, conv_programs):
        board = TargetBoard("arm", trace_options=TraceOptions(max_accesses=20_000), seed=1)
        record = board.measure(conv_programs["arm"])
        assert record.n_exe == 15
        assert record.median_s > 0

    def test_deterministic_per_seed(self, conv_programs):
        options = TraceOptions(max_accesses=20_000)
        first = TargetBoard("arm", trace_options=options, seed=5).measure(conv_programs["arm"])
        second = TargetBoard("arm", trace_options=options, seed=5).measure(conv_programs["arm"])
        assert first.times_s == second.times_s

    def test_noise_changes_with_seed(self, conv_programs):
        options = TraceOptions(max_accesses=20_000)
        first = TargetBoard("arm", trace_options=options, seed=5).measure(conv_programs["arm"])
        second = TargetBoard("arm", trace_options=options, seed=6).measure(conv_programs["arm"])
        assert first.times_s != second.times_s

    def test_noise_disabled_gives_constant_times(self, conv_programs):
        board = TargetBoard(
            "arm", trace_options=TraceOptions(max_accesses=20_000), noise_enabled=False
        )
        record = board.measure(conv_programs["arm"])
        assert len(set(record.times_s)) == 1

    def test_architecture_speed_ordering(self, conv_programs):
        options = TraceOptions(max_accesses=20_000)
        times = {
            arch: TargetBoard(arch, trace_options=options, noise_enabled=False)
            .undisturbed_time(conv_programs[arch])
            .seconds
            for arch in ("x86", "arm", "riscv")
        }
        assert times["x86"] < times["arm"] < times["riscv"]

    def test_execute_single_run(self, conv_programs):
        board = TargetBoard("riscv", trace_options=TraceOptions(max_accesses=10_000), seed=2)
        assert board.execute(conv_programs["riscv"]) > 0


def reference_undisturbed_time(board: TargetBoard, program) -> TimingBreakdown:
    """The board's own computation before it read the simulator's statistics:
    a fresh hierarchy walked by ``run_data_trace``, the analytic instruction
    counts and the timing model."""
    hierarchy = CacheHierarchy(board.hierarchy_config, rng_seed=board.trace_options.rng_seed)
    trace_accesses = float(run_data_trace(hierarchy, program, board.trace_options))
    counts = program.instruction_counts()
    memory_instructions = (
        counts[IC.LOAD] + counts[IC.STORE] + counts[IC.VEC_LOAD] + counts[IC.VEC_STORE]
    )
    trace_scale = 1.0
    if trace_accesses > 0 and memory_instructions > trace_accesses:
        trace_scale = memory_instructions / trace_accesses
    return board.timing_model.estimate(
        counts, hierarchy.stats_dict(), trace_scale=trace_scale
    )


class TestBoardReadsTheSimulation:
    """The board's statistics are the memoized simulation's: every time
    equals the board's former private walk, served from the memo or not."""

    ARCHS = ("x86", "arm", "riscv")

    @pytest.fixture(scope="class")
    def conv_programs(self):
        func, _ = make_conv_func()
        return {arch: build_program(func, Target.from_name(arch)) for arch in self.ARCHS}

    @staticmethod
    def _memo_counts():
        memo = default_simulation_cache()
        return memo.hits, memo.misses

    @pytest.mark.parametrize("arch", ARCHS)
    def test_cold_board_simulates(self, conv_programs, arch):
        # A budget no other test uses keeps the memo cold for this program.
        board = TargetBoard(arch, trace_options=TraceOptions(max_accesses=17_011))
        hits, misses = self._memo_counts()
        assert board.undisturbed_time(conv_programs[arch]) == reference_undisturbed_time(
            board, conv_programs[arch]
        )
        assert self._memo_counts() == (hits, misses + 1)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_board_is_served_the_batch_simulation(self, conv_programs, arch):
        options = TraceOptions(max_accesses=17_021)
        program = conv_programs[arch]
        BatchSimulator(arch, trace_options=options).run_batch([program])
        board = TargetBoard(arch, trace_options=options)
        hits, misses = self._memo_counts()
        assert board.undisturbed_time(program) == reference_undisturbed_time(board, program)
        assert self._memo_counts() == (hits + 1, misses)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_board_with_another_hierarchy_is_not_served(self, conv_programs, arch):
        options = TraceOptions(max_accesses=17_033)
        program = conv_programs[arch]
        Simulator(arch, trace_options=options).run(program)
        board = TargetBoard(
            arch,
            hierarchy_config=hierarchy_with_replacement(arch, "fifo"),
            trace_options=options,
        )
        hits, misses = self._memo_counts()
        assert board.undisturbed_time(program) == reference_undisturbed_time(board, program)
        assert self._memo_counts() == (hits, misses + 1)

    def test_boards_on_many_threads_agree(self, conv_programs):
        """Boards on concurrent threads share the process-wide memo (the
        first request per program computes, the rest coalesce onto it or
        hit); every time must still equal the board's own walk."""
        options = TraceOptions(max_accesses=17_047)
        expected = {
            arch: reference_undisturbed_time(TargetBoard(arch, trace_options=options), program)
            for arch, program in conv_programs.items()
        }

        def measure(arch):
            return arch, TargetBoard(arch, trace_options=options).undisturbed_time(
                conv_programs[arch]
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(measure, arch) for _ in range(4) for arch in self.ARCHS]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 12
        assert all(time == expected[arch] for arch, time in results)

    def test_board_pickles_after_a_measurement(self, conv_programs):
        """The board holds no simulator (and so no memo lock): process-pool
        workers can still receive it."""
        board = TargetBoard("arm", trace_options=TraceOptions(max_accesses=5_000))
        before = board.undisturbed_time(conv_programs["arm"])
        clone = pickle.loads(pickle.dumps(board))
        assert clone.undisturbed_time(conv_programs["arm"]) == before

    def test_a_training_pair_walks_its_trace_once(self, monkeypatch):
        """Serial dataset generation on an empty memo pulls no descriptor
        chunk inside ``TargetBoard.measure``: the board reads the pair's
        simulation."""
        pulled = {"board": 0, "elsewhere": 0}
        inside = []
        measure = TargetBoard.measure
        descriptors = Program.memory_trace_descriptors

        def counting_measure(board, program):
            inside.append(True)
            try:
                return measure(board, program)
            finally:
                inside.pop()

        def counting_descriptors(program, *args, **kwargs):
            for chunk in descriptors(program, *args, **kwargs):
                pulled["board" if inside else "elsewhere"] += 1
                yield chunk

        monkeypatch.setattr(TargetBoard, "measure", counting_measure)
        monkeypatch.setattr(Program, "memory_trace_descriptors", counting_descriptors)
        default_simulation_cache().clear()
        dataset = generate_dataset(
            DatasetConfig(
                "x86",
                implementations_per_group=3,
                groups=(0, 1),
                n_parallel=1,
                trace_max_accesses=20_000,
            )
        )
        assert len(dataset) == 6
        assert pulled["elsewhere"] > 0
        assert pulled["board"] == 0
