"""Target boards: native execution of programs on the modelled CPUs."""

from __future__ import annotations

from typing import Dict, Optional

from repro.codegen.program import Program
from repro.hardware.measurement import MeasurementProtocol, MeasurementRecord
from repro.hardware.noise import NoiseConfig, NoiseModel
from repro.hardware.specs import CpuSpec, cpu_spec_for
from repro.hardware.timing_model import TimingBreakdown, TimingModel
from repro.sim.configs import CACHE_HIERARCHIES
from repro.sim.cpu import TraceOptions, run_data_trace
from repro.sim.hierarchy import CacheHierarchy, CacheHierarchyConfig
from repro.utils.rng import new_generator


class TargetBoard:
    """One physical device running workloads natively (stand-in).

    The board executes the same abstract programs as the simulator, but it
    produces *times*: a cycle-approximate model of the CPU's pipeline and
    memory system plus measurement noise.  It also honours the paper's
    benchmarking protocol (repetitions, cooldown, median).
    """

    def __init__(
        self,
        arch: str,
        spec: Optional[CpuSpec] = None,
        hierarchy_config: Optional[CacheHierarchyConfig] = None,
        protocol: MeasurementProtocol = MeasurementProtocol(),
        trace_options: TraceOptions = TraceOptions(),
        noise_enabled: bool = True,
        seed: int = 0,
    ):
        self.arch = arch.strip().lower()
        self.spec = spec or cpu_spec_for(self.arch)
        self.hierarchy_config = hierarchy_config or CACHE_HIERARCHIES[self.arch]
        self.protocol = protocol
        self.trace_options = trace_options
        self.noise_enabled = noise_enabled
        self.seed = seed
        self.timing_model = TimingModel(self.spec)

    # -- execution ---------------------------------------------------------
    def characterize(self, program: Program) -> Dict[str, Dict[str, float]]:
        """Run the program's reference stream through the board's caches.

        Walks the vectorized engine on its own representation (descriptor
        chunks), so board characterisation shares the simulator's
        compressed-trace fast path.
        """
        hierarchy = CacheHierarchy(
            self.hierarchy_config, rng_seed=self.trace_options.rng_seed
        )
        total_accesses = run_data_trace(hierarchy, program, self.trace_options)
        stats = hierarchy.stats_dict()
        stats["_meta"] = {"trace_accesses": float(total_accesses)}
        return stats

    def undisturbed_time(self, program: Program) -> TimingBreakdown:
        """Execution-time estimate without any measurement noise."""
        counts = program.instruction_counts()
        cache_stats = self.characterize(program)
        trace_accesses = cache_stats["_meta"]["trace_accesses"]
        memory_instructions = (
            counts.get("load", 0.0)
            + counts.get("store", 0.0)
            + counts.get("vec_load", 0.0)
            + counts.get("vec_store", 0.0)
        )
        trace_scale = 1.0
        if trace_accesses > 0 and memory_instructions > trace_accesses:
            trace_scale = memory_instructions / trace_accesses
        return self.timing_model.estimate(counts, cache_stats, trace_scale=trace_scale)

    def execute(self, program: Program, run_index: int = 0) -> float:
        """One noisy native execution; returns seconds."""
        breakdown = self.undisturbed_time(program)
        noise = self._noise_model(program)
        factor = noise.factors(run_index + 1, self.protocol.cooldown_s)[-1]
        return breakdown.seconds * float(factor)

    def measure(self, program: Program) -> MeasurementRecord:
        """Benchmark ``program`` with the full measurement protocol."""
        breakdown = self.undisturbed_time(program)
        noise = self._noise_model(program)
        factors = noise.factors(self.protocol.n_exe, self.protocol.cooldown_s)
        times = (breakdown.seconds * factors).tolist()
        return MeasurementRecord(
            times_s=times,
            cooldown_s=self.protocol.cooldown_s,
            discarded=self.protocol.discard_outliers,
        )

    # -- helpers -------------------------------------------------------------
    def _noise_model(self, program: Program) -> NoiseModel:
        rng = new_generator(self.seed, "board", self.arch, program.name)
        return NoiseModel(NoiseConfig.from_spec(self.spec, enabled=self.noise_enabled), rng)

    def __repr__(self) -> str:
        return f"TargetBoard({self.spec.name})"
