"""Simulator facade and batch simulator.

A :class:`Simulator` instance corresponds to one gem5 process: an atomic CPU
with a cold, Table I-parameterised cache hierarchy for the selected
architecture.  The :class:`BatchSimulator` mirrors the paper's ``n_parallel``
setting: many independent simulator instances executing different schedule
implementations back to back (the serial default) or concurrently (threads
or processes), each program on its own freshly built cold hierarchy.

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

Runners, dataset groups and service waves all simulate through
:meth:`BatchSimulator.iter_batch`, which runs every program as one contained
per-candidate :meth:`Simulator.run`.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

# pack_descriptor_arena is not called here; the binding stays because
# perfbench's traced runs wrap it through getattr on this module.
from repro.codegen.program import Program, pack_descriptor_arena  # noqa: F401
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

    Returned (never raised) by :meth:`BatchSimulator.iter_batch` in place of
    a :class:`SimulationResult`, so one bad candidate cannot poison the rest
    of a batch.  ``kind`` is one of the class constants below; ``attempts``
    counts every execution attempt including retries.
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
        #: The cache results are looked up in and stored to; ``None`` when
        #: the config disables memoization.
        self.memo_cache = None
        if self.memoize:
            self.memo_cache = memo_cache if memo_cache is not None else default_simulation_cache()

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
        # Look up, simulate on a miss, store; never the coalescing
        # ``SimulationCache.get_or_compute``: a service worker simulates
        # inside the HTTP leader's ``get_or_compute`` slot for the same key,
        # so a coalescing lookup here would wait on itself until the request
        # timed out.
        key, hit = self._memo_lookup(program)
        if hit is not None:
            return hit
        stats = self._simulate(program)
        if self.memo_cache is not None:
            self.memo_cache.put(key, stats)
        return SimulationResult(
            program_name=program.name,
            arch=self.arch,
            stats=stats,
            trace_accesses=int(stats.get("sim.trace_accesses")),
            host_seconds=stats.get("sim.host_seconds"),
            sim_digest=key,
        )

    def _memo_lookup(self, program: Program) -> Tuple[str, Optional[SimulationResult]]:
        """The memo key of ``program`` and its cached result, if any.

        A hit's ``sim.host_seconds`` is the lookup time.
        """
        start = time.perf_counter()
        key = SimulationCache.make_key(
            program, self.hierarchy_config, self.trace_options, self.engine
        )
        stats = self.memo_cache.get(key) if self.memo_cache is not None else None
        if stats is None:
            return key, None
        elapsed = time.perf_counter() - start
        stats.group("sim").set("host_seconds", elapsed)
        return key, SimulationResult(
            program_name=program.name,
            arch=self.arch,
            stats=stats,
            trace_accesses=int(stats.get("sim.trace_accesses")),
            host_seconds=elapsed,
            cached=True,
            sim_digest=key,
        )

    def _simulate(self, program: Program) -> SimulationStats:
        """Uncached simulation of ``program`` on a freshly built cold hierarchy."""
        hierarchy = CacheHierarchy(
            self.hierarchy_config, engine=self.engine, rng_seed=self.trace_options.rng_seed
        )
        cpu = AtomicSimpleCPU(hierarchy)
        return cpu.run(program, self.trace_options)


class BatchSimulator(Simulator):
    """Run many simulations, up to ``n_parallel`` at a time.

    The paper's simulator interface exposes exactly this knob: each schedule
    implementation runs in its own simulator instance, and ``n_parallel``
    instances run concurrently on the host.  Every program is one
    per-candidate :meth:`Simulator.run` on a freshly built cold hierarchy,
    contained by :func:`_attempt_program`, so statistics are
    **bit-identical** to :meth:`Simulator.run` on either engine
    (``sim.host_seconds`` excepted, as with memoized results).  ``backend``
    picks where the runs execute:

    * ``"serial"`` — back to back in the calling thread (the default).
    * ``"threads"`` — ``n_parallel`` worker threads, each owning one
      contiguous slice of the program list.  The engines spend their time
      inside NumPy and compiled kernels that release the interpreter lock,
      so threads deliver parallelism without the process-spawn and pickling
      overhead of ``"processes"``.
    * ``"processes"`` — one OS process per slice.  Each program's memo key
      is looked up in the caller before dispatch, only the misses travel to
      the workers (which run with ``memoize=False``), and each returned
      result is stored under its ``sim_digest``.

    Every backend memoizes through :attr:`memo_cache`.  Engine,
    memoization, the per-candidate budget (``config.timeout_s``, polled
    once per trace chunk, with a pool-kill backstop on the ``processes``
    backend) and the retry policy all come from ``config``.
    """

    BACKENDS = ("serial", "threads", "processes")

    def __init__(
        self,
        arch: str,
        hierarchy_config: Optional[CacheHierarchyConfig] = None,
        trace_options: TraceOptions = TraceOptions(),
        *,
        n_parallel: int = 1,
        backend: str = "serial",
        max_pool_respawns: int = 2,
        memo_cache: Optional[SimulationCache] = None,
        config: Optional[RuntimeConfig] = None,
    ):
        """Build a batch simulator; an unknown ``backend`` raises ``ValueError``.

        ``max_pool_respawns`` bounds how many times a broken process pool is
        respawned before the remaining work degrades to ``threads``.
        """
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown pool backend {backend!r}; expected one of {self.BACKENDS}"
            )
        super().__init__(
            arch, hierarchy_config, trace_options, memo_cache=memo_cache, config=config
        )
        self.n_parallel = n_parallel
        self.backend = backend
        self.max_pool_respawns = max_pool_respawns

    def run_batch(
        self, programs: Sequence[Program], timeout_s: Optional[float] = None
    ) -> List[SimulationResult]:
        """Simulate ``programs`` and return results in input order.

        The strict form of :meth:`iter_batch`: the first candidate that
        still fails after ``config.retry`` raises ``RuntimeError`` naming
        the program and the failure kind.
        """
        results: List[SimulationResult] = []
        for outcome in self.iter_batch(programs, timeout_s=timeout_s):
            if isinstance(outcome, SimulationFailure):
                raise RuntimeError(
                    f"simulation of {outcome.program_name!r} failed "
                    f"({outcome.kind}): {outcome.error}"
                )
            results.append(outcome)
        return results

    def iter_batch(
        self, programs: Sequence[Program], timeout_s: Optional[float] = None
    ) -> Iterator[ResilientOutcome]:
        """Stream one outcome per program, in input order; failures become records.

        Each entry is a :class:`SimulationResult` or a
        :class:`SimulationFailure`.  ``timeout_s`` overrides the config's
        per-candidate budget (0 = unlimited).  Four containment layers
        apply:

        * each candidate runs under its deadline, so a hung candidate
          yields a ``timeout`` failure instead of blocking;
        * crashed or erroring candidates are retried alone by
          :func:`_attempt_program` per ``config.retry`` (deterministic
          exponential backoff), then recorded as failures;
        * a broken or wedged process pool is terminated and respawned up to
          ``max_pool_respawns`` times, re-running only unfinished slices;
        * past the respawn budget the remaining slices degrade
          ``processes`` → ``threads``, and a thread slice that dies outside
          per-candidate containment re-runs serially, each step announced
          by a :class:`~repro.reliability.BackendDegradationWarning`.

        The ``serial`` backend (and any batch of at most one program, or
        ``n_parallel <= 1``) streams per candidate; the ``threads`` backend
        streams slice by slice as workers finish; the ``processes`` backend
        serves memo hits from the caller and yields each slice of misses
        once its respawn loop has settled it.
        """
        timeout = float(timeout_s if timeout_s is not None else self.config.timeout_s)
        if self.backend == "serial" or self.n_parallel <= 1 or len(programs) <= 1:
            for program in programs:
                yield _attempt_program(self, program, timeout, self.config.retry)
        elif self.backend == "threads":
            yield from _iter_thread_slices(self, self._contiguous_slices(programs), timeout)
        else:
            yield from self._iter_processes(programs, timeout)

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

    def _iter_processes(
        self, programs: Sequence[Program], timeout_s: float
    ) -> Iterator[ResilientOutcome]:
        """Memoize in the caller; simulate only the misses on worker processes."""
        hits = [self._memo_lookup(program)[1] for program in programs]
        computed = self._iter_process_slices(
            [program for program, hit in zip(programs, hits) if hit is None], timeout_s
        )
        for hit in hits:
            if hit is not None:
                yield hit
                continue
            outcome = next(computed)
            if self.memo_cache is not None and isinstance(outcome, SimulationResult):
                self.memo_cache.put(outcome.sim_digest, outcome.stats)
            yield outcome

    def _iter_process_slices(
        self, programs: Sequence[Program], timeout_s: float
    ) -> Iterator[ResilientOutcome]:
        """Slices on worker processes with respawn and degradation.

        Workers contain per-candidate failures themselves, so the parent
        only handles hard worker deaths: a broken or wedged pool is
        terminated and only the unfinished slices re-run, up to
        ``max_pool_respawns`` respawns, after which the remaining slices
        degrade to the threads backend (whose cooperative deadlines keep
        per-candidate isolation).
        """
        # The caller memoizes: workers (and degraded thread slices) must not.
        worker = Simulator(
            self.arch,
            self.hierarchy_config,
            self.trace_options,
            config=replace(self.config, memoize=False),
        )
        slices = self._contiguous_slices(programs)
        n = len(slices)
        results: List[Optional[List[ResilientOutcome]]] = [None] * n
        pending = list(range(n))
        respawns = 0
        emitted = 0
        while pending:
            pool = ProcessPoolExecutor(max_workers=min(self.n_parallel, len(pending)))
            futures = {
                s: pool.submit(_run_slice, worker, slices[s], timeout_s) for s in pending
            }
            broke = False
            for s, future in futures.items():
                # Workers enforce timeout_s per candidate cooperatively; the
                # parent backstop covers a truly wedged worker and scales
                # with the slice it is waiting for.
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
                    _iter_thread_slices(worker, [slices[s] for s in pending], timeout_s)
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
            return simulator.run(program, timeout_s=timeout_s)
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


def _run_slice(
    simulator: Simulator, programs: Sequence[Program], timeout_s: float
) -> List[ResilientOutcome]:
    """Worker entry for one slice: one contained run per program.

    Budget and retry come from ``simulator``'s config.  Containment happens
    per candidate in :func:`_attempt_program`, so the returned list always
    has one entry per program; only a hard worker death surfaces to the
    caller.
    """
    return [
        _attempt_program(simulator, program, timeout_s, simulator.config.retry)
        for program in programs
    ]


def _iter_thread_slices(
    simulator: Simulator, slices: List[Sequence[Program]], timeout_s: float
) -> Iterator[ResilientOutcome]:
    """One worker thread per slice; yields slices in order.

    A slice whose thread dies outside per-candidate containment re-runs
    serially, announced by a
    :class:`~repro.reliability.BackendDegradationWarning`.
    """
    with ThreadPoolExecutor(max_workers=len(slices)) as pool:
        futures = [pool.submit(_run_slice, simulator, chunk, timeout_s) for chunk in slices]
        for chunk, future in zip(slices, futures):
            try:
                outcomes = future.result()
            except Exception as error:  # noqa: BLE001 — degrade, not die
                warnings.warn(
                    BackendDegradationWarning(
                        "threads", "serial", f"{type(error).__name__}: {error}"
                    ),
                    stacklevel=3,
                )
                outcomes = _run_slice(simulator, chunk, timeout_s)
            yield from outcomes


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a process pool down without waiting on hung or dead workers."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 — best-effort teardown
            pass
    pool.shutdown(wait=False, cancel_futures=True)
