"""Tests for cache hierarchies, Table I configurations, the CPU and simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import (
    CACHE_HIERARCHIES,
    AtomicSimpleCPU,
    BatchSimulator,
    RuntimeConfig,
    Simulator,
    TraceOptions,
    cache_hierarchy_for,
    TABLE1_ROWS,
)
from repro.sim.stats import SimulationStats


class TestTable1Configs:
    @pytest.mark.parametrize("arch", ["x86", "arm", "riscv"])
    def test_geometry_is_consistent(self, arch):
        hierarchy = cache_hierarchy_for(arch)
        for name, cache in hierarchy.all_caches().items():
            config = cache.config
            assert config.size_bytes == config.sets * config.associativity * config.line_bytes
            assert config.line_bytes == 64

    def test_paper_values(self):
        x86 = CACHE_HIERARCHIES["x86"]
        assert (x86.l1d.size_bytes, x86.l1d.sets, x86.l1d.associativity) == (32 * 1024, 64, 8)
        assert x86.l3 is not None and x86.l3.size_bytes == 32768 * 1024
        arm = CACHE_HIERARCHIES["arm"]
        assert (arm.l1i.size_bytes, arm.l1i.sets, arm.l1i.associativity) == (48 * 1024, 256, 3)
        assert arm.l3 is None
        riscv = CACHE_HIERARCHIES["riscv"]
        assert riscv.l2.size_bytes == 2048 * 1024 and riscv.l3 is None

    def test_table1_rows_cover_all_levels(self):
        assert len(TABLE1_ROWS) == 4 + 3 + 3  # x86 has L3, the others do not

    def test_unknown_arch(self):
        with pytest.raises(KeyError):
            cache_hierarchy_for("mips")


class TestHierarchyBehaviour:
    def test_l2_sees_only_l1_misses(self):
        hierarchy = cache_hierarchy_for("arm")
        addresses = np.repeat(np.arange(16) * 64, 4)  # each line accessed 4 times
        hierarchy.access_data_batch(addresses, np.zeros(addresses.size, dtype=bool))
        assert hierarchy.l1d.read_misses == 16
        assert hierarchy.l2.accesses == 16
        assert hierarchy.l1d.accesses == 64

    def test_memory_sees_only_llc_misses(self):
        hierarchy = cache_hierarchy_for("x86")
        addresses = np.arange(32) * 64
        hierarchy.access_data_batch(addresses, np.zeros(32, dtype=bool))
        assert hierarchy.memory.accesses == hierarchy.l3.misses

    def test_fresh_hierarchy_is_cold_and_replays(self):
        addresses = np.arange(8) * 64
        used = cache_hierarchy_for("arm")
        used.access_data_batch(addresses, np.zeros(8, dtype=bool))
        fresh = cache_hierarchy_for("arm")
        assert fresh.l1d.accesses == 0
        assert fresh.l1d.resident_lines() == 0
        fresh.access_data_batch(addresses, np.zeros(8, dtype=bool))
        assert fresh.stats_dict() == used.stats_dict()

    def test_stats_dict_keys(self):
        stats = cache_hierarchy_for("x86").stats_dict()
        assert set(stats) == {"l1d", "l1i", "l2", "l3", "mem"}


class TestStats:
    def test_group_and_flatten(self):
        stats = SimulationStats()
        stats.group("cpu").set("num_insts", 10)
        stats.group("l1d").add("read_hits", 3)
        flat = stats.as_dict()
        assert flat["cpu.num_insts"] == 10
        assert stats.get("l1d.read_hits") == 3
        assert stats.get("does.not_exist", -1) == -1

    def test_dump_format(self):
        stats = SimulationStats()
        stats.group("cpu").set("num_insts", 10)
        text = stats.dump()
        assert "cpu.num_insts" in text and "Begin Simulation Statistics" in text


class TestTraceOptions:
    @pytest.mark.parametrize(
        "fields,error",
        [
            ({"chunk_iterations": 0}, "chunk_iterations"),
            ({"chunk_iterations": -4}, "chunk_iterations"),
            ({"sample_fraction": 0.0}, "sample_fraction"),
            ({"sample_fraction": -0.5}, "sample_fraction"),
            ({"sample_fraction": 1.5}, "sample_fraction"),
            ({"sample_fraction": float("nan")}, "sample_fraction"),
            ({"max_accesses": -1}, "max_accesses"),
        ],
    )
    def test_construction_rejects_out_of_range_values(self, fields, error):
        """A chunk of no iterations never advances the walk, so a simulation
        on it would hang past any deadline; a bad fraction would fail once
        per candidate; a negative budget would simulate an empty trace under
        a memo key of its own.  All are refused when the options are built."""
        with pytest.raises(ValueError, match=error):
            TraceOptions(**fields)

    def test_boundary_values_are_accepted(self):
        options = TraceOptions(max_accesses=0, chunk_iterations=1, sample_fraction=1.0)
        assert (options.max_accesses, options.chunk_iterations, options.sample_fraction) == (
            0, 1, 1.0,
        )


class TestCpuAndSimulator:
    def test_stats_consistency(self, conv_program_riscv):
        result = Simulator("riscv", trace_options=TraceOptions(max_accesses=30_000)).run(
            conv_program_riscv
        )
        flat = result.flat_stats()
        assert flat["cpu.num_insts"] > 0
        assert flat["cpu.num_loads"] + flat["cpu.num_stores"] == flat["cpu.num_mem_refs"]
        # L1D accesses equal the generated trace length.
        assert flat["l1d.read_accesses"] + flat["l1d.write_accesses"] == result.trace_accesses
        # Hit/miss accounting.
        assert flat["l1d.hits"] + flat["l1d.misses"] == flat["l1d.accesses"]
        assert 0.0 <= flat["l1d.miss_rate"] <= 1.0

    def test_trace_budget_respected(self, conv_program_riscv):
        result = Simulator("riscv", trace_options=TraceOptions(max_accesses=5_000)).run(
            conv_program_riscv
        )
        assert result.trace_accesses <= 5_000

    def test_icache_model_bounded(self, conv_program_riscv):
        result = Simulator("riscv", trace_options=TraceOptions(max_accesses=5_000)).run(
            conv_program_riscv
        )
        flat = result.flat_stats()
        assert 0 < flat["l1i.read_misses"] <= flat["l1i.read_accesses"]
        assert flat["l1i.read_accesses"] == pytest.approx(flat["cpu.num_insts"])

    def test_simulation_is_deterministic(self, conv_program_x86):
        options = TraceOptions(max_accesses=20_000)
        first = Simulator("x86", trace_options=options).run(conv_program_x86).flat_stats()
        second = Simulator("x86", trace_options=options).run(conv_program_x86).flat_stats()
        first.pop("sim.host_seconds")
        second.pop("sim.host_seconds")
        assert first == second

    def test_dump_contains_cache_stats(self, conv_program_x86):
        result = Simulator("x86", trace_options=TraceOptions(max_accesses=5_000)).run(
            conv_program_x86
        )
        assert "l1d.read_hits" in result.dump()

    def test_unknown_arch(self):
        with pytest.raises(KeyError):
            Simulator("sparc")

    def test_pool_serial(self, conv_program_x86, conv_program_riscv):
        batch = BatchSimulator(
            "x86", trace_options=TraceOptions(max_accesses=5_000), n_parallel=2
        )
        results = batch.run_batch([conv_program_x86, conv_program_x86])
        assert len(results) == 2
        assert results[0].flat_stats()["cpu.num_insts"] == results[1].flat_stats()["cpu.num_insts"]

    def test_pool_rejects_bad_backend(self):
        with pytest.raises(ValueError):
            BatchSimulator("x86", backend="fibers")

    def test_pool_threads_backend(self, conv_program_x86, conv_program_riscv):
        serial = BatchSimulator(
            "x86",
            trace_options=TraceOptions(max_accesses=5_000),
            config=RuntimeConfig(memoize=False),
        )
        threaded = BatchSimulator(
            "x86",
            trace_options=TraceOptions(max_accesses=5_000),
            n_parallel=2,
            backend="threads",
            config=RuntimeConfig(memoize=False),
        )
        programs = [conv_program_x86, conv_program_riscv, conv_program_x86]
        expected = [r.flat_stats() for r in serial.run_batch(programs)]
        observed = [r.flat_stats() for r in threaded.run_batch(programs)]
        for left, right in zip(expected, observed):
            left.pop("sim.host_seconds")
            right.pop("sim.host_seconds")
        assert expected == observed

    def test_cpu_runs_on_existing_hierarchy(self, conv_program_riscv):
        hierarchy = cache_hierarchy_for("riscv")
        cpu = AtomicSimpleCPU(hierarchy)
        stats = cpu.run(conv_program_riscv, TraceOptions(max_accesses=2_000))
        assert stats.get("cpu.num_insts") > 0
