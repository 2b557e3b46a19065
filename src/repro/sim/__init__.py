"""Instruction-accurate simulator substrate (gem5 stand-in).

The simulator executes abstract instruction programs produced by
:mod:`repro.codegen`.  Like gem5 in atomic mode with the ``SimpleCPU`` model,
it is *instruction-accurate but not timing-accurate*: it reports exact
instruction counts per category and the hit/miss/replacement behaviour of a
parameterisable cache hierarchy, but no latencies.

Two interchangeable cache-simulation engines are provided (see
:mod:`repro.sim.engine`): the per-access ``"reference"`` loop and the
array-based ``"vectorized"`` chunk engine, which produce bit-identical
statistics.  Each engine reads the trace in its own representation: the
reference loop walks materialised address chunks
(:meth:`repro.codegen.program.Program.memory_trace`), the vectorized engine
compressed affine run descriptors
(:meth:`repro.codegen.program.Program.memory_trace_descriptors`).  All
replacement policies live in one registry (:mod:`repro.sim.policies` —
LRU, FIFO, random, tree-PLRU, SRRIP) and run bit-identically on both
engines: each :class:`~repro.sim.policies.PolicySpec` defines the state,
touch rule and victim rule every execution layer consumes.  Random
replacement draws its victims from a replayable counter-based stream
(:func:`repro.sim.policies.victim_rank`, seeded via
``TraceOptions.rng_seed`` / ``CacheConfig.rng_seed``), so stochastic
caches stay bit-identical across engines and chunk schedules.  Simulation
results are memoized across identical ``(program, hierarchy, trace
options, engine)`` requests via :mod:`repro.sim.memo`; the victim-stream
seed joins the key exactly when a victim-stream level is present.
"""

from repro.sim.stats import StatGroup, SimulationStats
from repro.sim.engine import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    ENGINES,
    VectorCacheState,
    arena_batching_available,
    native_chunk_heads,
    resolve_engine,
    victim_rank,
)
from repro.sim.cache import CacheConfig, Cache
from repro.sim.policies import (
    POLICIES,
    POLICY_NAMES,
    PolicySpec,
    ReplacementPolicy,
    get_policy,
    policy_wire_id,
)
from repro.sim.memory import MainMemory
from repro.sim.hierarchy import CacheHierarchy, CacheHierarchyConfig, CacheLevelConfig
from repro.sim.configs import (
    CACHE_HIERARCHIES,
    TABLE1_ROWS,
    cache_hierarchy_for,
    hierarchy_with_replacement,
)
from repro.sim.cpu import AtomicSimpleCPU, TraceOptions, run_data_trace
from repro.sim.memo import (
    SimulationCache,
    default_simulation_cache,
    stats_from_flat,
)
from repro.sim.runtime_config import RuntimeConfig
from repro.sim.simulator import (
    BatchSimulator,
    Simulator,
    SimulationFailure,
    SimulationResult,
)

__all__ = [
    "StatGroup",
    "SimulationStats",
    "ENGINE_REFERENCE",
    "ENGINE_VECTORIZED",
    "ENGINES",
    "VectorCacheState",
    "arena_batching_available",
    "native_chunk_heads",
    "resolve_engine",
    "victim_rank",
    "CacheConfig",
    "Cache",
    "POLICIES",
    "POLICY_NAMES",
    "PolicySpec",
    "ReplacementPolicy",
    "get_policy",
    "policy_wire_id",
    "MainMemory",
    "CacheHierarchy",
    "CacheHierarchyConfig",
    "CacheLevelConfig",
    "CACHE_HIERARCHIES",
    "cache_hierarchy_for",
    "hierarchy_with_replacement",
    "TABLE1_ROWS",
    "AtomicSimpleCPU",
    "TraceOptions",
    "run_data_trace",
    "SimulationCache",
    "default_simulation_cache",
    "stats_from_flat",
    "RuntimeConfig",
    "BatchSimulator",
    "Simulator",
    "SimulationFailure",
    "SimulationResult",
]
