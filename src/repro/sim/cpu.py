"""Atomic CPU model: executes abstract instruction programs without timing.

The model mirrors gem5's ``AtomicSimpleCPU``: every instruction completes in a
single step and every memory access is a single blocking transaction.  The
observable output is therefore purely quantitative — instruction counts per
category and the cache behaviour of the access stream — which is exactly the
information the paper's score predictors consume.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from repro.codegen.isa import InstructionCategory as IC
from repro.codegen.program import Loop, Program
from repro.reliability import current_deadline
from repro.sim.engine import ENGINE_VECTORIZED
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.stats import SimulationStats


@dataclass(frozen=True)
class TraceOptions:
    """Controls the size, sampling and seeds of the simulated memory trace.

    ``max_accesses`` bounds the total number of simulated data references;
    ``sample_fraction`` keeps a systematic random sample of trace chunks.
    Both keep large kernels tractable; instruction counts stay exact because
    they are computed analytically, and the predictor features are ratios, so
    sampling the trace does not bias them.

    The options describe *which* trace is simulated, never how: the engine
    comes from :class:`~repro.sim.runtime_config.RuntimeConfig`, the trace
    representation follows the engine (see :func:`run_data_trace`), and
    both engines produce bit-identical statistics.  ``chunk_iterations``
    trades a few MB of trace buffering for vectorization width: larger
    chunks amortize the fixed per-chunk cost of the vectorized engine.
    Statistics are chunking-invariant when ``sample_fraction`` is 1;
    sampled traces keep or drop whole chunks, so pin ``chunk_iterations``
    explicitly when a sampled run must stay reproducible across releases.
    ``chunk_iterations`` below 1 or a ``sample_fraction`` outside (0, 1]
    raises ``ValueError`` on construction.

    ``seed`` drives trace *sampling* only.  ``rng_seed`` seeds the
    replayable random-replacement victim stream of the simulated caches
    (see :mod:`repro.sim.engine`); it is ignored by hierarchies without a
    random-replacement level, and the memoization key normalises it away in
    that case.  Runs with equal seeds are bit-identical across engines and
    chunk schedules; runs with different seeds draw independent victim
    sequences.
    """

    max_accesses: Optional[int] = None
    sample_fraction: float = 1.0
    chunk_iterations: int = 1 << 16
    seed: int = 0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # A chunk of zero iterations never advances the trace walk, so it
        # would never yield and never poll a deadline.
        if self.chunk_iterations < 1:
            raise ValueError(f"chunk_iterations must be >= 1, got {self.chunk_iterations}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")


def run_data_trace(hierarchy: CacheHierarchy, program: Program, options: TraceOptions) -> int:
    """Drive ``program``'s data trace through ``hierarchy``; returns accesses.

    The representation follows the L1D engine.  A vectorized L1D walks
    descriptor chunks through
    :meth:`CacheHierarchy.access_data_descriptor_stream` — grouped into
    packed arenas for the native batch kernel when it is available,
    per-chunk otherwise — without ever materialising the address stream.
    A reference L1D walks the expanded chunks of
    :meth:`Program.memory_trace` through
    :meth:`CacheHierarchy.access_data_batch`, independent of the
    descriptor emitter.
    """
    # Cooperative deadline: polled once per trace chunk, so a hung or
    # pathological candidate overshoots its budget by at most one chunk of
    # work instead of blocking the caller indefinitely.  With no ambient
    # deadline installed the check costs one comparison per chunk.
    deadline = current_deadline()
    total = 0
    if hierarchy.l1d.engine == ENGINE_VECTORIZED:
        chunks = program.memory_trace_descriptors(
            chunk_iterations=options.chunk_iterations,
            max_accesses=options.max_accesses,
            sample_fraction=options.sample_fraction,
            seed=options.seed,
        )

        def counted():
            nonlocal total
            for chunk in chunks:
                if deadline is not None:
                    deadline.check("descriptor trace walk")
                total += chunk.total
                yield chunk

        # Cross-chunk arena batching happens inside the stream walk: groups
        # of head-friendly chunks become one native call per cache level
        # (a missing kernel restores per-chunk dispatch; statistics are
        # identical either way).
        hierarchy.access_data_descriptor_stream(counted())
    else:
        for addresses, is_write in program.memory_trace(
            chunk_iterations=options.chunk_iterations,
            max_accesses=options.max_accesses,
            sample_fraction=options.sample_fraction,
            seed=options.seed,
        ):
            if deadline is not None:
                deadline.check("expanded trace walk")
            hierarchy.access_data_batch(addresses, is_write)
            total += int(addresses.size)
    return total


class AtomicSimpleCPU:
    """Single-core atomic CPU attached to a cache hierarchy."""

    def __init__(self, hierarchy: CacheHierarchy, name: str = "cpu"):
        self.hierarchy = hierarchy
        self.name = name

    def run(self, program: Program, options: TraceOptions = TraceOptions()) -> SimulationStats:
        """Execute ``program`` and return gem5-style statistics."""
        start = time.perf_counter()
        counts = program.instruction_counts()
        trace_accesses = run_data_trace(self.hierarchy, program, options)
        self._model_instruction_fetches(program, counts)
        elapsed = time.perf_counter() - start
        return self.assemble_stats(counts, trace_accesses, elapsed)

    def assemble_stats(
        self, counts: dict, trace_accesses: int, host_seconds: float
    ) -> SimulationStats:
        """Build gem5-style statistics from ``counts`` + current cache state.

        Split out of :meth:`run` so batched execution paths that drive the
        trace themselves (e.g. the candidate-batch scheduler's shared-arena
        sweep) assemble identical statistics from the same code.  The
        hierarchy's counters must reflect exactly one candidate's trace
        (plus :meth:`_model_instruction_fetches`) when this is called.
        """
        stats = SimulationStats()
        sim_group = stats.group("sim")
        sim_group.set("host_seconds", host_seconds)
        sim_group.set("trace_accesses", trace_accesses)

        cpu = stats.group(self.name)
        total = 0.0
        for category, value in counts.items():
            cpu.set(f"num_{category}", value)
            total += value
        cpu.set("num_insts", total)
        cpu.set("num_loads", counts[IC.LOAD] + counts[IC.VEC_LOAD])
        cpu.set("num_stores", counts[IC.STORE] + counts[IC.VEC_STORE])
        cpu.set("num_branches", counts[IC.BRANCH])
        cpu.set(
            "num_fp",
            counts[IC.FP_ADD]
            + counts[IC.FP_MUL]
            + counts[IC.FP_FMA]
            + counts[IC.FP_OTHER]
            + counts[IC.VEC_FP],
        )
        cpu.set("num_int_alu", counts[IC.INT_ALU])
        cpu.set("num_mem_refs", cpu.get("num_loads") + cpu.get("num_stores"))

        for level, level_stats in self.hierarchy.stats_dict().items():
            group = stats.group(level)
            for key, value in level_stats.items():
                group.set(key, value)
            if level != "mem":
                accesses = level_stats["read_accesses"] + level_stats["write_accesses"]
                misses = level_stats["read_misses"] + level_stats["write_misses"]
                group.set("accesses", accesses)
                group.set("misses", misses)
                group.set("hits", accesses - misses)
                group.set("miss_rate", misses / accesses if accesses else 0.0)
        return stats

    # -- instruction-side modelling ---------------------------------------
    def _model_instruction_fetches(self, program: Program, counts: dict) -> None:
        """Approximate L1I behaviour from the program's code footprint.

        Kernel code is tiny compared to data, so a full fetch trace is not
        simulated; instead each loop-nest root contributes its code lines as
        compulsory misses, plus capacity misses when an (unrolled) body
        exceeds the L1I capacity.
        """
        l1i = self.hierarchy.l1i
        line_bytes = l1i.config.line_bytes
        capacity_lines = l1i.config.sets * l1i.config.associativity

        total_fetches = sum(counts.values())
        misses = math.ceil(program.static_code_bytes / line_bytes)
        for root in program.roots:
            footprint_lines = math.ceil(max(program.code_bytes(root), 1.0) / line_bytes)
            misses += footprint_lines
            if footprint_lines > capacity_lines and isinstance(root, Loop):
                overflow = footprint_lines - capacity_lines
                misses += overflow * max(root.extent - 1, 0)
        misses = min(misses, total_fetches)
        l1i.read_accesses += int(total_fetches)
        l1i.read_misses += int(misses)
        l1i.read_hits += int(total_fetches - misses)
