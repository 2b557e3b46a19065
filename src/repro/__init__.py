"""repro: instruction-accurate simulators for autotuning performance estimation.

Reproduction of "Introducing Instruction-Accurate Simulators for Performance
Estimation of Autotuning Workloads" (DAC 2025).  The package couples a
tensor-expression autotuning framework with a gem5-style instruction-accurate
simulator and trains score predictors that rank schedule implementations by
their expected run time on a target CPU.
"""

__version__ = "1.0.0"

__all__ = [
    "te",
    "codegen",
    "sim",
    "hardware",
    "autotune",
    "predictor",
    "metrics",
    "workloads",
    "pipeline",
    "service",
    "utils",
    "simulate",
    "simulate_batch",
]


def _resolve_target(program, hierarchy):
    """Split the facade's ``hierarchy`` argument into (arch, hierarchy_config).

    ``hierarchy`` may be an architecture name (Table I defaults looked up by
    name), an explicit ``CacheHierarchyConfig``, or ``None`` (the program's
    own target architecture with its default hierarchy).
    """
    if hierarchy is None:
        return program.target.name, None
    if isinstance(hierarchy, str):
        return hierarchy, None
    return program.target.name, hierarchy


def simulate(program, hierarchy=None, *, config=None, trace_options=None, timeout_s=None):
    """Simulate one program; the stable top-level entry point.

    Returns a :class:`repro.sim.SimulationResult` on success or a structured
    :class:`repro.sim.SimulationFailure` on timeout/crash/error — it never
    raises for a failed simulation.  ``hierarchy`` is an architecture name,
    a :class:`repro.sim.CacheHierarchyConfig`, or ``None`` (the program's own
    target); ``config`` is a :class:`repro.sim.RuntimeConfig` (defaults to
    ``RuntimeConfig()``, which never reads the environment).
    """
    outcomes = simulate_batch(
        [program],
        hierarchy,
        config=config,
        trace_options=trace_options,
        timeout_s=timeout_s,
    )
    return outcomes[0]


def simulate_batch(
    programs, hierarchy=None, *, config=None, trace_options=None, timeout_s=None
):
    """Simulate many programs on one :class:`repro.sim.BatchSimulator`.

    The programs run one after another, each on its own freshly built cold
    cache hierarchy.  Returns one
    :class:`repro.sim.SimulationResult` or
    :class:`repro.sim.SimulationFailure` per program, in input order, with
    per-candidate failure containment (one bad candidate never poisons the
    batch).  Statistics are bit-identical to per-program :func:`simulate`.
    """
    from repro.sim import BatchSimulator, TraceOptions

    programs = list(programs)
    if not programs:
        return []
    arch, hierarchy_config = _resolve_target(programs[0], hierarchy)
    batch = BatchSimulator(
        arch,
        hierarchy_config,
        trace_options if trace_options is not None else TraceOptions(),
        config=config,
    )
    return list(batch.iter_batch(programs, timeout_s=timeout_s))
