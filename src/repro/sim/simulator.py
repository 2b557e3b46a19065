"""Simulator facade and parallel simulation pool.

A :class:`Simulator` instance corresponds to one gem5 process: an atomic CPU
with a cold, Table I-parameterised cache hierarchy for the selected
architecture.  The :class:`SimulatorPool` mirrors the paper's ``n_parallel``
setting: many independent simulator instances executing different schedule
implementations concurrently (processes or threads) or back to back (serial
fallback).

Two cross-cutting performance features live here:

* **Engine selection** — every simulator runs the plan of one
  :class:`~repro.sim.runtime_config.RuntimeConfig`: ``config.engine``
  (``"reference"`` or ``"vectorized"``, see :mod:`repro.sim.engine`) is
  passed down through :class:`CacheHierarchy` to each cache, and the trace
  representation follows it (descriptor runs on the vectorized engine,
  expanded address chunks on the reference one); both engines are
  bit-identical.
* **Result memoization** — ``Simulator.run`` is a pure function of
  ``(program content, hierarchy config, trace options, engine)``, so results
  are served from an LRU-bounded :class:`~repro.sim.memo.SimulationCache`
  when the same request is simulated again (the tuner re-simulates
  identical schedules across rounds, and the target board reads the
  statistics of the simulation it is paired with).  Cached statistics are
  bit-identical to a fresh run except ``sim.host_seconds``, which reports
  the cache-lookup time.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.codegen.program import DescriptorChunk, Program, pack_descriptor_arena
from repro.reliability import (
    BackendDegradationWarning,
    Deadline,
    DeadlineExceeded,
    InjectedWorkerCrash,
    RetryPolicy,
    deadline_scope,
)
from repro.reliability import faults
from repro.sim.configs import CACHE_HIERARCHIES, hierarchy_with_replacement
from repro.sim.cpu import AtomicSimpleCPU, TraceOptions
from repro.sim.engine import ARENA_ACCESS_BATCH, ARENA_CHUNK_BATCH, ENGINE_REFERENCE
from repro.sim.hierarchy import CacheHierarchy, CacheHierarchyConfig
from repro.sim.memo import SimulationCache, default_simulation_cache
from repro.sim.runtime_config import RuntimeConfig
from repro.sim.stats import SimulationStats


@dataclass
class SimulationResult:
    """Outcome of simulating one program."""

    program_name: str
    arch: str
    stats: SimulationStats
    trace_accesses: int
    host_seconds: float
    #: Whether the statistics were served from the memoization cache.
    cached: bool = False
    #: Stable digest of the full simulation identity — the program's
    #: :meth:`~repro.codegen.program.Program.content_digest` combined with the
    #: hierarchy, trace options and engine via
    #: :meth:`~repro.sim.memo.SimulationCache.make_key`.  Two results with the
    #: same digest carry bit-identical statistics, so downstream consumers key
    #: derived caches on it (e.g. the feature cache in
    #: :mod:`repro.predictor.features`).  Empty when unknown.
    sim_digest: str = ""

    def flat_stats(self) -> Dict[str, float]:
        """All statistics as a flat ``{"group.key": value}`` dictionary."""
        return self.stats.as_dict()

    def dump(self) -> str:
        """gem5-style ``stats.txt`` rendering."""
        return self.stats.dump()


@dataclass
class SimulationFailure:
    """Structured record of one candidate that could not be simulated.

    Returned (never raised) by :meth:`SimulatorPool.iter_batch_resilient` in
    place of a :class:`SimulationResult`, so one bad candidate cannot poison
    the rest of a batch.  ``kind`` is one of the class constants below;
    ``attempts`` counts every execution attempt including retries.
    """

    #: The candidate exceeded its simulation deadline (``timeout_s``).
    TIMEOUT = "timeout"
    #: The worker executing the candidate died (e.g. a broken process pool).
    CRASH = "crash"
    #: The simulation raised an ordinary exception.
    ERROR = "error"

    program_name: str
    kind: str
    error: str
    attempts: int = 1
    host_seconds: float = 0.0


#: Union returned by the resilient APIs: one entry per program, in input
#: order, each either a result or a structured failure record.
ResilientOutcome = Union[SimulationResult, SimulationFailure]


def _unwrap_outcomes(outcomes: Iterable[ResilientOutcome]) -> List[SimulationResult]:
    """Results in input order; the first failure raises ``RuntimeError``
    carrying the program name, failure kind and message."""
    results: List[SimulationResult] = []
    for outcome in outcomes:
        if isinstance(outcome, SimulationFailure):
            raise RuntimeError(
                f"simulation of {outcome.program_name!r} failed "
                f"({outcome.kind}): {outcome.error}"
            )
        results.append(outcome)
    return results


class Simulator:
    """One instruction-accurate simulator instance for a target architecture."""

    def __init__(
        self,
        arch: str,
        hierarchy_config: Optional[CacheHierarchyConfig] = None,
        trace_options: TraceOptions = TraceOptions(),
        *,
        memo_cache: Optional[SimulationCache] = None,
        config: Optional[RuntimeConfig] = None,
    ):
        """Build a simulator for ``arch``.

        Engine, replacement policy, memoization, budget and retry come from
        ``config`` (default ``RuntimeConfig()``).
        ``memo_cache`` replaces the process-wide default cache of a
        memoizing simulator.
        """
        self.arch = arch.strip().lower()
        self.config = config if config is not None else RuntimeConfig()
        if hierarchy_config is None:
            if self.arch not in CACHE_HIERARCHIES:
                raise KeyError(f"no default cache hierarchy for architecture {arch!r}")
            # A uniform replacement override swaps the policy of every Table I
            # level while keeping the geometry; an explicit hierarchy_config
            # is authoritative and never rewritten.
            if self.config.replacement is not None:
                hierarchy_config = hierarchy_with_replacement(
                    self.arch, self.config.replacement
                )
            else:
                hierarchy_config = CACHE_HIERARCHIES[self.arch]
        self.hierarchy_config = hierarchy_config
        self.engine = self.config.engine
        self.trace_options = trace_options
        self.memoize = self.config.memoize
        self.memo_cache = memo_cache if memo_cache is not None else (
            default_simulation_cache() if self.memoize else None
        )

    def run(
        self, program: Program, timeout_s: Optional[float] = None
    ) -> SimulationResult:
        """Simulate ``program`` on a cold cache hierarchy (or serve it cached).

        A positive ``timeout_s`` installs a cooperative deadline for the
        duration of the run: the trace walk polls it once per chunk and
        raises :class:`~repro.reliability.DeadlineExceeded` when the budget
        is spent, so a pathological candidate overshoots by at most one
        chunk of work.  ``None`` falls back to the config's ``timeout_s``
        (0 = unlimited).
        """
        if timeout_s is None:
            timeout_s = self.config.timeout_s
        if timeout_s > 0:
            with deadline_scope(Deadline.after(timeout_s)):
                return self._run(program)
        return self._run(program)

    def _run(self, program: Program) -> SimulationResult:
        if self.memoize and self.memo_cache is not None:
            start = time.perf_counter()
            key = self.memo_cache.make_key(
                program, self.hierarchy_config, self.trace_options, self.engine
            )
            # Coalesced lookup: concurrent requests for the same key (threads
            # backend, duplicate candidates across slices) block on one
            # computation instead of simulating redundantly.
            stats, computed = self.memo_cache.get_or_compute(
                key, lambda: self._simulate(program)
            )
            if not computed:
                return self._cached_result(program, key, stats, start)
        else:
            stats = self._simulate(program)
            key = SimulationCache.make_key(
                program, self.hierarchy_config, self.trace_options, self.engine
            )
        return SimulationResult(
            program_name=program.name,
            arch=self.arch,
            stats=stats,
            trace_accesses=int(stats.get("sim.trace_accesses")),
            host_seconds=stats.get("sim.host_seconds"),
            sim_digest=key,
        )

    def _cached_result(
        self, program: Program, key: str, stats: SimulationStats, started_at: float
    ) -> SimulationResult:
        """A memo hit as a result; ``sim.host_seconds`` is the lookup time."""
        elapsed = time.perf_counter() - started_at
        stats.group("sim").set("host_seconds", elapsed)
        return SimulationResult(
            program_name=program.name,
            arch=self.arch,
            stats=stats,
            trace_accesses=int(stats.get("sim.trace_accesses")),
            host_seconds=elapsed,
            cached=True,
            sim_digest=key,
        )

    def _simulate(self, program: Program) -> SimulationStats:
        """Uncached simulation of ``program`` on a cold hierarchy."""
        hierarchy = CacheHierarchy(
            self.hierarchy_config, engine=self.engine, rng_seed=self.trace_options.rng_seed
        )
        cpu = AtomicSimpleCPU(hierarchy)
        return cpu.run(program, self.trace_options)


#: Candidates lowered and packed together per wave of the batch simulator.
#: Bounds the peak memory of materialised descriptor chunks (a wave's chunks
#: are held until its shared arenas are packed) while keeping enough
#: programs in flight to fill arena segments across candidate boundaries.
BATCH_WAVE_CANDIDATES = 64


@dataclass
class _BatchCandidate:
    """Book-keeping for one program travelling through a batch wave."""

    index: int
    program: Program
    key: Optional[str] = None
    counts: Optional[dict] = None
    chunks: Optional[List[DescriptorChunk]] = None
    trace_accesses: int = 0
    lower_seconds: float = 0.0
    started_at: float = 0.0
    error: Optional[BaseException] = None
    outcome: Optional[ResilientOutcome] = None


class BatchSimulator(Simulator):
    """Candidate-batch scheduler: many programs through one shared simulator.

    Where :class:`Simulator` builds a cold :class:`CacheHierarchy` per call,
    the batch simulator constructs the hierarchy **once** and resets it
    between candidates (:meth:`CacheHierarchy.reset_state` restores the
    exact cold start: flushed contents, rewound victim stream, zeroed
    counters), eliminating the dominant per-candidate setup cost of the
    tuning loop.  On the vectorized engine it additionally lowers a whole
    *wave* of candidates up front, packs their chunks into shared
    :class:`~repro.codegen.program.DescriptorArena` segments with
    per-candidate chunk-group boundaries, and sweeps each candidate's group
    slice against the reset hierarchy — one dispatch per cache level per
    group instead of per chunk, with the pooled arena scratch staying warm
    across the whole wave.

    Statistics are **bit-identical** to per-candidate :meth:`Simulator.run`
    on either engine (``sim.host_seconds`` excepted, as
    with memoized results): every candidate still observes a cold
    hierarchy, and statistics are chunking-invariant, so shared-arena
    grouping cannot change them.  Reliability semantics survive batching:
    each candidate carries its own cooperative deadline budget across the
    lowering and sweep phases, failures are contained per candidate — a
    crash or deadline inside a wave never poisons its neighbours — and
    crashed or erroring candidates are re-attempted in isolation under the
    same retry accounting as per-candidate :func:`_attempt_program`.

    Results stream back in input order as candidates complete
    (:meth:`iter_batch`), so a tuner's ``update()`` or a dataset builder
    can consume them incrementally instead of at a generation barrier.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cpu: Optional[AtomicSimpleCPU] = None

    def _shared_cpu(self) -> AtomicSimpleCPU:
        if self._cpu is None:
            hierarchy = CacheHierarchy(
                self.hierarchy_config,
                engine=self.engine,
                rng_seed=self.trace_options.rng_seed,
            )
            self._cpu = AtomicSimpleCPU(hierarchy)
        return self._cpu

    def _simulate(self, program: Program) -> SimulationStats:
        """Cold-identical simulation on the shared, reset hierarchy."""
        cpu = self._shared_cpu()
        cpu.hierarchy.reset_state()
        return cpu.run(program, self.trace_options)

    # -- batch execution ---------------------------------------------------

    def run_batch(
        self, programs: Sequence[Program], timeout_s: Optional[float] = None
    ) -> List[SimulationResult]:
        """Simulate ``programs`` in order on the batch path; raises on failure.

        The strict counterpart of :meth:`iter_batch` (no retries): the first
        candidate that cannot be simulated raises ``RuntimeError`` carrying
        the contained failure's kind and message.
        """
        return _unwrap_outcomes(
            self.iter_batch(programs, timeout_s=timeout_s, retry=RetryPolicy())
        )

    def iter_batch(
        self,
        programs: Sequence[Program],
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Iterator[ResilientOutcome]:
        """Stream one outcome per program, in input order, as they complete.

        Failures become :class:`SimulationFailure` records, never raises —
        outcomes match per-candidate :func:`_attempt_program` containment.
        The reference engine walks expanded traces, which have no packable
        descriptor form; its candidates go through :func:`_attempt_program`
        itself and still benefit from hierarchy reuse.
        """
        retry = retry if retry is not None else self.config.retry
        timeout = float(timeout_s if timeout_s is not None else self.config.timeout_s)
        if self.engine == ENGINE_REFERENCE:
            for program in programs:
                yield _attempt_program(self, program, timeout, retry)
            return
        wave: List[_BatchCandidate] = []
        for index, program in enumerate(programs):
            wave.append(_BatchCandidate(index=index, program=program))
            if len(wave) >= BATCH_WAVE_CANDIDATES:
                yield from self._flush_wave(wave, timeout, retry)
                wave = []
        if wave:
            yield from self._flush_wave(wave, timeout, retry)

    def _flush_wave(
        self, wave: List[_BatchCandidate], timeout: float, retry: RetryPolicy
    ) -> Iterator[ResilientOutcome]:
        """Run one wave: memo → lower → pack shared arenas → sweep → retry."""
        sweepable = [cand for cand in wave if self._prepare_candidate(cand, timeout)]
        views = self._pack_wave(sweepable)
        for cand in sweepable:
            self._sweep_candidate(cand, views.get(cand.index, []), timeout)
        for cand in wave:
            if cand.outcome is None:
                cand.outcome = self._retry_isolated(cand, timeout, retry)
            yield cand.outcome

    def _prepare_candidate(self, cand: _BatchCandidate, timeout: float) -> bool:
        """Memo lookup and descriptor lowering; True when a sweep is due.

        Lowering runs under the candidate's own deadline (polled per
        lowered chunk); whatever budget it consumes is deducted from the
        candidate's sweep-phase deadline, so the total stays ``timeout``.
        """
        cand.started_at = time.perf_counter()
        options = self.trace_options
        try:
            faults.maybe_crash_worker()
            if self.memoize and self.memo_cache is not None:
                cand.key = self.memo_cache.make_key(
                    cand.program, self.hierarchy_config, options, self.engine
                )
                stats = self.memo_cache.get(cand.key)
                if stats is not None:
                    cand.outcome = self._cached_result(
                        cand.program, cand.key, stats, cand.started_at
                    )
                    return False
            deadline = Deadline.after(timeout) if timeout > 0 else None
            with deadline_scope(deadline):
                cand.counts = cand.program.instruction_counts()
                chunks: List[DescriptorChunk] = []
                total = 0
                for chunk in cand.program.memory_trace_descriptors(
                    chunk_iterations=options.chunk_iterations,
                    max_accesses=options.max_accesses,
                    sample_fraction=options.sample_fraction,
                    seed=options.seed,
                ):
                    if deadline is not None:
                        deadline.check("batched descriptor lowering")
                    chunks.append(chunk)
                    total += chunk.total
            cand.chunks = chunks
            cand.trace_accesses = total
            cand.lower_seconds = time.perf_counter() - cand.started_at
            return True
        except DeadlineExceeded as error:
            cand.outcome = SimulationFailure(
                program_name=cand.program.name,
                kind=SimulationFailure.TIMEOUT,
                error=str(error),
                attempts=1,
                host_seconds=time.perf_counter() - cand.started_at,
            )
            return False
        except Exception as error:  # noqa: BLE001 — containment boundary
            cand.error = error
            return False

    def _pack_wave(
        self, sweepable: List[_BatchCandidate]
    ) -> Dict[int, List["DescriptorArena"]]:
        """Pack the wave's chunks into shared arenas with candidate groups.

        Arena segments fill across candidate boundaries up to the same
        :data:`~repro.sim.engine.ARENA_CHUNK_BATCH` /
        :data:`~repro.sim.engine.ARENA_ACCESS_BATCH` limits as the
        single-candidate stream path; a large candidate simply spans
        several groups in consecutive segments.  Returns each candidate's
        group views keyed by candidate index, in sweep order.
        """
        views: Dict[int, List["DescriptorArena"]] = {}
        cur_chunks: List[DescriptorChunk] = []
        cur_sizes: List[int] = []
        cur_cands: List[_BatchCandidate] = []
        cur_accesses = 0

        def flush() -> None:
            nonlocal cur_chunks, cur_sizes, cur_cands, cur_accesses
            if not cur_chunks:
                return
            arena = pack_descriptor_arena(cur_chunks, group_sizes=cur_sizes)
            for group, cand in enumerate(cur_cands):
                views.setdefault(cand.index, []).append(arena.group_view(group))
            cur_chunks, cur_sizes, cur_cands, cur_accesses = [], [], [], 0

        for cand in sweepable:
            views.setdefault(cand.index, [])  # zero-access candidates sweep empty
            new_group = True
            for chunk in cand.chunks or []:
                if cur_chunks and (
                    len(cur_chunks) >= ARENA_CHUNK_BATCH
                    or cur_accesses >= ARENA_ACCESS_BATCH
                ):
                    flush()
                    new_group = True
                if new_group:
                    cur_sizes.append(0)
                    cur_cands.append(cand)
                    new_group = False
                cur_chunks.append(chunk)
                cur_sizes[-1] += 1
                cur_accesses += chunk.total
        flush()
        return views

    def _sweep_candidate(
        self, cand: _BatchCandidate, views: List["DescriptorArena"], timeout: float
    ) -> None:
        """Replay one candidate's group slices against the reset hierarchy."""
        cpu = self._shared_cpu()
        sweep_start = time.perf_counter()
        try:
            deadline = None
            if timeout > 0:
                deadline = Deadline.after(timeout - cand.lower_seconds)
                deadline.check("batched arena sweep")
            cpu.hierarchy.reset_state()
            with deadline_scope(deadline):
                for view in views:
                    if deadline is not None:
                        deadline.check("batched arena sweep")
                    cpu.hierarchy.access_data_descriptor_arena(view)
                cpu._model_instruction_fetches(cand.program, cand.counts)
            host = cand.lower_seconds + (time.perf_counter() - sweep_start)
            stats = cpu.assemble_stats(cand.counts, cand.trace_accesses, host)
            if cand.key is not None:
                self.memo_cache.put(cand.key, stats)
            cand.outcome = SimulationResult(
                program_name=cand.program.name,
                arch=self.arch,
                stats=stats,
                trace_accesses=cand.trace_accesses,
                host_seconds=host,
                sim_digest=cand.key
                or SimulationCache.make_key(
                    cand.program, self.hierarchy_config, self.trace_options, self.engine
                ),
            )
        except DeadlineExceeded as error:
            cand.outcome = SimulationFailure(
                program_name=cand.program.name,
                kind=SimulationFailure.TIMEOUT,
                error=str(error),
                attempts=1,
                host_seconds=cand.lower_seconds + (time.perf_counter() - sweep_start),
            )
        except Exception as error:  # noqa: BLE001 — containment boundary
            cand.error = error  # isolated retry decides kind and accounting

    def _retry_isolated(
        self, cand: _BatchCandidate, timeout: float, retry: RetryPolicy
    ) -> ResilientOutcome:
        """Re-attempt a crashed or erroring candidate alone, serial-style.

        The batch pass was attempt 1; attempt numbering, backoff delays and
        the final ``attempts`` count match :func:`_attempt_program` on a
        deterministic failure, so batched retry accounting is
        indistinguishable from the per-candidate oracle.  Timeouts stay
        final, crashes and errors are retried.
        """
        error = cand.error
        attempt = 1
        while True:
            kind = (
                SimulationFailure.CRASH
                if isinstance(error, InjectedWorkerCrash)
                else SimulationFailure.ERROR
            )
            if attempt >= retry.max_attempts:
                return SimulationFailure(
                    program_name=cand.program.name,
                    kind=kind,
                    error=f"{type(error).__name__}: {error}",
                    attempts=attempt,
                    host_seconds=time.perf_counter() - cand.started_at,
                )
            time.sleep(retry.delay_s(attempt, key=cand.program.name))
            attempt += 1
            try:
                faults.maybe_crash_worker()
                return self.run(
                    cand.program, timeout_s=timeout if timeout > 0 else None
                )
            except DeadlineExceeded as deadline_error:
                return SimulationFailure(
                    program_name=cand.program.name,
                    kind=SimulationFailure.TIMEOUT,
                    error=str(deadline_error),
                    attempts=attempt,
                    host_seconds=time.perf_counter() - cand.started_at,
                )
            except Exception as next_error:  # noqa: BLE001 — containment boundary
                error = next_error


def _attempt_program(
    simulator: Simulator,
    program: Program,
    timeout_s: float,
    retry: RetryPolicy,
) -> ResilientOutcome:
    """Run one program with containment: failures become records, not raises.

    The per-candidate oracle of the resilient APIs.  Timeouts are final
    (retrying a deterministic overrun just doubles the damage); crashes and
    ordinary errors are retried per ``retry`` with deterministic backoff.
    """
    start = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        try:
            faults.maybe_crash_worker()
            return simulator.run(program, timeout_s=timeout_s if timeout_s > 0 else None)
        except DeadlineExceeded as error:
            return SimulationFailure(
                program_name=program.name,
                kind=SimulationFailure.TIMEOUT,
                error=str(error),
                attempts=attempt,
                host_seconds=time.perf_counter() - start,
            )
        except Exception as error:  # noqa: BLE001 — containment boundary
            kind = (
                SimulationFailure.CRASH
                if isinstance(error, InjectedWorkerCrash)
                else SimulationFailure.ERROR
            )
            if attempt >= retry.max_attempts:
                return SimulationFailure(
                    program_name=program.name,
                    kind=kind,
                    error=f"{type(error).__name__}: {error}",
                    attempts=attempt,
                    host_seconds=time.perf_counter() - start,
                )
            time.sleep(retry.delay_s(attempt, key=program.name))


def _run_batch_slice(
    arch, hierarchy_config, trace_options, programs, config
) -> List[ResilientOutcome]:
    """Worker entry for one pool slice: a shared-hierarchy batch simulator.

    Used by the threads backend (memoizing through the process-wide cache)
    and the processes backend (whose workers run with ``memoize=False``:
    the parent memoizes).  Budget and retry come from ``config``.
    Containment happens per candidate inside
    :meth:`BatchSimulator.iter_batch`, so the returned list always has one
    entry per program; only a hard worker death surfaces to the parent.
    """
    batch = BatchSimulator(arch, hierarchy_config, trace_options, config=config)
    return list(batch.iter_batch(programs))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a process pool down without waiting on hung or dead workers."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 — best-effort teardown
            pass
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class SimulatorPool:
    """Run many simulations, up to ``n_parallel`` at a time.

    The paper's simulator interface exposes exactly this knob: each schedule
    implementation runs in its own simulator instance, and ``n_parallel``
    instances run concurrently on the host.  Every backend executes on the
    candidate-batch core (:class:`BatchSimulator`), one batch simulator per
    contiguous slice of the program list:

    * ``"serial"`` — one batch simulator, programs back to back (the default).
    * ``"threads"`` — ``n_parallel`` worker threads, each owning one slice.
      The engines spend their time inside NumPy and compiled kernels that
      release the interpreter lock, so threads deliver parallelism without
      the process-spawn and pickling overhead of ``"processes"``.  All
      workers share the process-wide memoization cache.
    * ``"processes"`` — one OS process per slice.  Memoization stays in the
      calling process, as on the other backends: each program's memo key is
      looked up in :func:`~repro.sim.memo.default_simulation_cache` before
      dispatch, only the misses travel to the workers (which run with
      ``memoize=False``), and each returned result is stored under its
      ``sim_digest``.

    Engine, memoization, the per-candidate budget (``config.timeout_s``,
    enforced cooperatively inside lowering and the trace sweep, with a
    pool-kill backstop on the ``processes`` backend) and the retry policy
    all come from ``config``.
    """

    arch: str
    n_parallel: int = 1
    hierarchy_config: Optional[CacheHierarchyConfig] = None
    trace_options: TraceOptions = field(default_factory=TraceOptions)
    backend: str = "serial"  # "serial", "threads" or "processes"
    #: How many times a broken process pool is respawned before the
    #: remaining work degrades to the ``threads`` backend.
    max_pool_respawns: int = 2
    config: RuntimeConfig = field(default_factory=RuntimeConfig)

    BACKENDS = ("serial", "threads", "processes")

    def run_many(self, programs: Sequence[Program]) -> List[SimulationResult]:
        """Simulate all ``programs`` and return results in input order.

        The strict form of :meth:`iter_batch_resilient`: the first candidate
        that still fails after the pool's retries raises ``RuntimeError``
        naming the program and the failure kind.
        """
        return _unwrap_outcomes(self.iter_batch_resilient(programs))

    def _contiguous_slices(self, programs: Sequence[Program]) -> List[Sequence[Program]]:
        """Split ``programs`` into up to ``n_parallel`` contiguous slices."""
        workers = min(self.n_parallel, len(programs))
        base, extra = divmod(len(programs), workers)
        slices: List[Sequence[Program]] = []
        position = 0
        for worker in range(workers):
            size = base + (1 if worker < extra else 0)
            slices.append(programs[position : position + size])
            position += size
        return slices

    def iter_batch_resilient(
        self, programs: Sequence[Program]
    ) -> Iterator[ResilientOutcome]:
        """Stream one outcome per program, in input order; failures become records.

        Each entry is a :class:`SimulationResult` or a
        :class:`SimulationFailure`, with statistics bit-identical to
        per-candidate :meth:`Simulator.run` (``sim.host_seconds`` excepted).
        Four containment layers apply:

        * each candidate runs under the ``config.timeout_s`` deadline, so a
          hung candidate yields a ``timeout`` failure instead of blocking;
        * crashed or erroring candidates are retried in isolation per
          ``config.retry`` (deterministic exponential backoff), then
          recorded as failures — the same accounting as
          :func:`_attempt_program`;
        * a broken or wedged process pool is terminated and respawned up to
          ``max_pool_respawns`` times, re-running only unfinished slices;
        * past the respawn budget the remaining slices degrade
          ``processes`` → ``threads``, and a thread slice that dies outside
          per-candidate containment re-runs serially, each step announced
          by a :class:`~repro.reliability.BackendDegradationWarning`.

        The ``serial`` backend streams per candidate (wave-buffered); the
        ``threads`` backend streams slice by slice as workers finish; the
        ``processes`` backend serves memo hits from the caller and yields
        each slice of misses once its respawn loop has settled it.
        """
        if self.backend not in self.BACKENDS:
            raise ValueError(
                f"unknown pool backend {self.backend!r}; expected one of {self.BACKENDS}"
            )
        if self.backend == "serial" or self.n_parallel <= 1 or len(programs) <= 1:
            batch = BatchSimulator(
                self.arch, self.hierarchy_config, self.trace_options, config=self.config
            )
            yield from batch.iter_batch(programs)
            return
        if self.backend == "threads":
            yield from self._iter_batch_threads(
                self._contiguous_slices(programs), self.config
            )
            return
        yield from self._iter_batch_processes(programs)

    def _iter_batch_threads(
        self, slices: List[Sequence[Program]], cfg: RuntimeConfig
    ) -> Iterator[ResilientOutcome]:
        """One batch simulator per thread slice; yields slices in order."""
        with ThreadPoolExecutor(max_workers=len(slices)) as pool:
            futures = [
                pool.submit(
                    _run_batch_slice,
                    self.arch,
                    self.hierarchy_config,
                    self.trace_options,
                    chunk,
                    cfg,
                )
                for chunk in slices
            ]
            for chunk, future in zip(slices, futures):
                try:
                    outcomes = future.result()
                except Exception as error:  # noqa: BLE001 — degrade, not die
                    warnings.warn(
                        BackendDegradationWarning(
                            "threads", "serial", f"{type(error).__name__}: {error}"
                        ),
                        stacklevel=2,
                    )
                    outcomes = _run_batch_slice(
                        self.arch, self.hierarchy_config, self.trace_options, chunk, cfg
                    )
                yield from outcomes

    def _iter_batch_processes(
        self, programs: Sequence[Program]
    ) -> Iterator[ResilientOutcome]:
        """Memoize in the caller; simulate only the misses on worker processes."""
        parent = Simulator(
            self.arch, self.hierarchy_config, self.trace_options, config=self.config
        )
        memo = parent.memo_cache  # None unless memoizing
        hits: List[Optional[SimulationResult]] = []
        for program in programs:
            hit = None
            if memo is not None:
                start = time.perf_counter()
                key = memo.make_key(
                    program, parent.hierarchy_config, parent.trace_options, parent.engine
                )
                stats = memo.get(key)
                if stats is not None:
                    hit = parent._cached_result(program, key, stats, start)
            hits.append(hit)
        computed = self._iter_process_slices(
            [program for program, hit in zip(programs, hits) if hit is None],
            replace(self.config, memoize=False),
        )
        for hit in hits:
            if hit is not None:
                yield hit
                continue
            outcome = next(computed)
            if memo is not None and isinstance(outcome, SimulationResult):
                memo.put(outcome.sim_digest, outcome.stats)
            yield outcome

    def _iter_process_slices(
        self, programs: Sequence[Program], cfg: RuntimeConfig
    ) -> Iterator[ResilientOutcome]:
        """Batch slices on worker processes with respawn and degradation.

        Workers contain per-candidate failures themselves, so the parent
        only handles hard worker deaths: a broken or wedged pool is
        terminated and only the unfinished slices re-run, up to
        ``max_pool_respawns`` respawns, after which the remaining slices
        degrade to the threads backend (whose cooperative deadlines keep
        per-candidate isolation).
        """
        slices = self._contiguous_slices(programs)
        n = len(slices)
        results: List[Optional[List[ResilientOutcome]]] = [None] * n
        pending = list(range(n))
        respawns = 0
        emitted = 0
        while pending:
            pool = ProcessPoolExecutor(max_workers=min(self.n_parallel, len(pending)))
            futures = {}
            for s in pending:
                futures[s] = pool.submit(
                    _run_batch_slice,
                    self.arch,
                    self.hierarchy_config,
                    self.trace_options,
                    slices[s],
                    cfg,
                )
            broke = False
            for s, future in futures.items():
                # Workers enforce timeout_s per candidate cooperatively; the
                # parent backstop covers a truly wedged worker and scales
                # with the slice it is waiting for.
                timeout_s = cfg.timeout_s
                backstop = (
                    (timeout_s * 2.0 + 5.0) * len(slices[s]) if timeout_s > 0 else None
                )
                try:
                    results[s] = future.result(timeout=backstop)
                except (BrokenProcessPool, FuturesTimeoutError):
                    broke = True
                    break
                except Exception as error:  # noqa: BLE001 — containment boundary
                    results[s] = [
                        SimulationFailure(
                            program_name=program.name,
                            kind=SimulationFailure.ERROR,
                            error=f"{type(error).__name__}: {error}",
                        )
                        for program in slices[s]
                    ]
            if broke:
                _terminate_pool(pool)
                respawns += 1
            else:
                pool.shutdown(wait=True)
            pending = [s for s in pending if results[s] is None]
            if broke and respawns > self.max_pool_respawns and pending:
                warnings.warn(
                    BackendDegradationWarning(
                        "processes",
                        "threads",
                        f"process pool broke {respawns} times "
                        f"(respawn budget {self.max_pool_respawns})",
                    ),
                    stacklevel=3,
                )
                flattened = list(
                    self._iter_batch_threads([slices[s] for s in pending], cfg)
                )
                at = 0
                for s in pending:
                    size = len(slices[s])
                    results[s] = flattened[at : at + size]
                    at += size
                pending = []
            while emitted < n and results[emitted] is not None:
                yield from results[emitted]
                emitted += 1
