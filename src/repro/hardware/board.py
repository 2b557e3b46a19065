"""Target boards: native execution of programs on the modelled CPUs."""

from __future__ import annotations

from typing import Optional

from repro.codegen.isa import InstructionCategory as IC
from repro.codegen.program import Program
from repro.hardware.measurement import MeasurementProtocol, MeasurementRecord
from repro.hardware.noise import NoiseConfig, NoiseModel
from repro.hardware.specs import CpuSpec, cpu_spec_for
from repro.hardware.timing_model import TimingBreakdown, TimingModel
from repro.sim.configs import CACHE_HIERARCHIES
from repro.sim.cpu import TraceOptions
from repro.sim.hierarchy import CacheHierarchyConfig
from repro.sim.simulator import Simulator
from repro.utils.rng import new_generator


class TargetBoard:
    """One physical device running workloads natively (stand-in).

    The board executes the same abstract programs as the simulator, but it
    produces *times*: a cycle-approximate model of the CPU's pipeline and
    memory system plus measurement noise.  It also honours the paper's
    benchmarking protocol (repetitions, cooldown, median).

    Its caches are the simulator's: the instruction counts and cache
    statistics behind every time come from a memoized
    :meth:`~repro.sim.Simulator.run` on the board's hierarchy and trace
    options under the default :class:`~repro.sim.RuntimeConfig`.  A board
    paired with a simulation of the same program, hierarchy and options (a
    training pair) is served that simulation's memo entry while it is
    cached, so the pair walks its trace once; otherwise the board
    simulates.
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
    def undisturbed_time(self, program: Program) -> TimingBreakdown:
        """Execution-time estimate without any measurement noise."""
        # Built per call: a stored simulator would hold the memo's lock and
        # make the board unpicklable.
        stats = Simulator(self.arch, self.hierarchy_config, self.trace_options).run(program).stats
        counts = {category: stats.get(f"cpu.num_{category}") for category in IC.ALL}
        cache_stats = {
            level: dict(stats.group(level).items()) for level in self.hierarchy_config.levels()
        }
        trace_accesses = stats.get("sim.trace_accesses")
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
