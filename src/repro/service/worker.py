"""Service worker: supervised drain of queued simulation misses.

Requests that miss the :class:`~repro.service.store.ResultStore` travel two
ways: ``wait=true`` misses become in-memory :class:`SimulationJob` handles
their HTTP thread blocks on, while ``wait=false`` misses are written ahead
to the store's **durable job journal** and claimed here lease-by-lease.  A
background worker thread gathers both into waves of jobs and streams each
wave through :meth:`~repro.sim.simulator.BatchSimulator.iter_batch`, one
per-candidate run after another on the simulator's reused hierarchy, with
the full reliability semantics (cooperative per-candidate deadlines, retry
accounting, per-candidate crash containment).  Each job settles as soon as
its own run finishes.  A crashed or erroring candidate settles as a
structured :class:`~repro.sim.simulator.SimulationFailure` for its own
requester only; its wave-mates and the worker itself keep going — the same
containment every ``SimulatorPool`` backend gets from
``iter_batch_resilient``.

Above the worker thread sits a **supervisor**: a heartbeat loop that
restarts the worker if its thread dies (the ``worker_thread_crash``
injection site simulates exactly that), rescues the dead worker's
in-flight wave (in-memory jobs re-queue, journal leases release), reclaims
expired journal leases left by crashed *processes*, and feeds whole-wave
faults into an optional :class:`~repro.reliability.CircuitBreaker` — while
the breaker is open the worker pauses journal claims and lets exactly one
probe wave through on the breaker's schedule.

The worker writes every computed result through the batch simulator's memo
cache (memory LRU → store), so the HTTP layer's coalesced waiters find it
there the moment the job settles; journal jobs additionally settle their
journal row (``done``/``failed``) for ``GET /results`` pollers.

``stop(drain=True)`` finishes the in-flight wave and journals the
remaining in-memory queue instead of abandoning it, so a graceful shutdown
loses nothing: the next service over the same database settles the rest.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.codegen.program import Program
from repro.reliability import CircuitBreaker, RetryPolicy, faults
from repro.sim.simulator import BatchSimulator, ResilientOutcome, SimulationFailure

#: Jobs gathered into one wave: the in-memory queue and journal claims top
#: a wave up to this many before it runs through the batch simulator.
MAX_WAVE_JOBS = 64


@dataclass
class SimulationJob:
    """One queued simulation request travelling through the worker."""

    digest: str
    program: Program
    tenant: str = ""
    #: Claimed from the durable journal (no waiter; settles its journal row).
    from_journal: bool = False
    attempts: int = 0
    done: threading.Event = field(default_factory=threading.Event)
    #: Set when the waiter gave up; the worker skips the job in-memory and
    #: hands it to the journal so pollers still get an outcome.
    abandoned: threading.Event = field(default_factory=threading.Event)
    outcome: Optional[ResilientOutcome] = None

    def wait(self, timeout: Optional[float] = None) -> ResilientOutcome:
        """Block until the job settles; a worker hang becomes a TIMEOUT record.

        A timed-out wait also marks the job **abandoned**: nobody is left to
        consume the in-memory outcome, so the worker drops it from future
        waves (no wave slot burned, no counters flipped later) and journals
        it instead — the result still lands in the store for pollers.
        """
        if not self.done.wait(timeout):
            self.abandoned.set()
            return SimulationFailure(
                program_name=self.program.name,
                kind=SimulationFailure.TIMEOUT,
                error=f"service worker did not settle job within {timeout}s",
            )
        assert self.outcome is not None
        return self.outcome


class SimulationWorker:
    """Supervised background thread draining jobs through one batch simulator."""

    def __init__(
        self,
        simulator: BatchSimulator,
        timeout_s: float = 0.0,
        retry: Optional[RetryPolicy] = None,
        max_wave: int = MAX_WAVE_JOBS,
        poll_s: float = 0.05,
        journal=None,
        lease_s: float = 30.0,
        max_job_attempts: int = 3,
        breaker: Optional[CircuitBreaker] = None,
        supervise: bool = True,
        heartbeat_s: float = 0.5,
    ):
        self.simulator = simulator
        self.timeout_s = float(timeout_s)
        self.retry = retry
        self.max_wave = int(max_wave)
        self.poll_s = float(poll_s)
        #: Durable journal (a :class:`~repro.service.store.ResultStore`, or
        #: anything with its ``journal_*`` surface); ``None`` disables
        #: durability — the in-memory legacy mode.
        self.journal = journal
        self.lease_s = float(lease_s)
        self.max_job_attempts = int(max_job_attempts)
        self.breaker = breaker
        self.heartbeat_s = float(heartbeat_s)
        self._queue: "queue.Queue[SimulationJob]" = queue.Queue()
        self._stop = threading.Event()
        self._drain = False
        self.waves = 0
        self.jobs = 0
        self.failures = 0
        self.restarts = 0
        self.skipped_abandoned = 0
        self.corrupt_jobs = 0
        self.journaled_on_drain = 0
        self.last_beat = time.monotonic()
        #: The wave currently being processed; the supervisor rescues it if
        #: the worker thread dies mid-wave.
        self._wave_lock = threading.Lock()
        self._current_wave: List[SimulationJob] = []
        if self.journal is not None:
            # Startup recovery: re-queue every expired lease a dead worker
            # (possibly in a previous process) left behind.
            self.journal.journal_recover()
        self._thread = self._spawn_worker()
        self._supervisor: Optional[threading.Thread] = None
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, name="repro-sim-supervisor", daemon=True
            )
            self._supervisor.start()

    def _spawn_worker(self) -> threading.Thread:
        thread = threading.Thread(target=self._run, name="repro-sim-worker", daemon=True)
        thread.start()
        return thread

    # -- submission ---------------------------------------------------------
    def submit(self, digest: str, program: Program, tenant: str = "") -> SimulationJob:
        """Queue one in-memory simulation; returns the job handle to wait on."""
        job = SimulationJob(digest=digest, program=program, tenant=tenant)
        self._queue.put(job)
        return job

    def run_sync(
        self,
        digest: str,
        program: Program,
        wait_timeout: Optional[float] = None,
        tenant: str = "",
    ) -> ResilientOutcome:
        """Queue and block until the outcome settles (HTTP ``wait=true`` path)."""
        return self.submit(digest, program, tenant).wait(wait_timeout)

    def backlog(self) -> int:
        """Unsettled depth: in-memory queue plus pending journal rows."""
        depth = self._queue.qsize()
        if self.journal is not None:
            depth += self.journal.journal_pending()
        return depth

    # -- wave assembly ------------------------------------------------------
    def _gather_wave(self) -> List[SimulationJob]:
        """Block briefly for in-memory jobs, then top up from the journal."""
        wave: List[SimulationJob] = []
        try:
            wave.append(self._queue.get(timeout=self.poll_s))
            while len(wave) < self.max_wave:
                wave.append(self._queue.get_nowait())
        except queue.Empty:
            pass
        kept: List[SimulationJob] = []
        for job in wave:
            if job.abandoned.is_set():
                # The waiter is gone; hand the job to the journal so the
                # result still gets computed and stored for pollers.
                self.skipped_abandoned += 1
                if self.journal is not None:
                    self.journal.journal_enqueue(
                        job.digest, pickle.dumps(job.program), job.tenant
                    )
            else:
                kept.append(job)
        wave = kept
        if self.journal is None or len(wave) >= self.max_wave:
            return wave
        claim_limit = self.max_wave - len(wave)
        if self.breaker is not None and not wave:
            # Breaker gating applies to the background journal drain, not to
            # in-memory jobs (their HTTP admission was already gated).
            if self.breaker.state == CircuitBreaker.HALF_OPEN:
                # A probe is in flight.  The worker is single-threaded, so a
                # half-open state *here* means the probe slot was consumed on
                # the HTTP side and its job journaled — claim exactly one so
                # the probe can actually run and settle the breaker.
                claim_limit = 1
            elif not self.breaker.allow():
                return wave  # open before the probe deadline: claim nothing
            elif self.breaker.state == CircuitBreaker.HALF_OPEN:
                claim_limit = 1  # this allow() admitted the probe: one job
        for claimed in self.journal.journal_claim(claim_limit, self.lease_s):
            job = self._job_from_journal(claimed)
            if job is not None:
                wave.append(job)
        return wave

    def _job_from_journal(self, claimed) -> Optional[SimulationJob]:
        """Rebuild a claimed journal row; settles bad rows as failed."""
        if claimed.attempts > self.max_job_attempts:
            self.journal.journal_settle(
                claimed.digest,
                "failed",
                f"gave up after {claimed.attempts - 1} attempts "
                f"(max {self.max_job_attempts})",
            )
            self.failures += 1
            return None
        try:
            program = pickle.loads(claimed.program_blob)
        except Exception as error:  # noqa: BLE001 — corrupt blob boundary
            self.corrupt_jobs += 1
            self.failures += 1
            self.journal.journal_settle(
                claimed.digest,
                "failed",
                f"undecodable journaled program: {type(error).__name__}: {error}",
            )
            return None
        return SimulationJob(
            digest=claimed.digest,
            program=program,
            tenant=claimed.tenant,
            from_journal=True,
            attempts=claimed.attempts,
        )

    # -- execution ----------------------------------------------------------
    def _settle(self, job: SimulationJob, outcome: ResilientOutcome) -> None:
        if isinstance(outcome, SimulationFailure):
            self.failures += 1
            if job.from_journal:
                self.journal.journal_settle(job.digest, "failed", outcome.error)
        elif job.from_journal:
            self.journal.journal_settle(job.digest, "done")
        job.outcome = outcome
        job.done.set()

    def _process_wave(self, wave: List[SimulationJob]) -> None:
        with self._wave_lock:
            self._current_wave = list(wave)
        self.waves += 1
        self.jobs += len(wave)
        # worker_thread_crash site: the exception escapes the wave handling
        # entirely and kills the drain thread mid-wave; the supervisor must
        # notice the dead thread, restart it and rescue this wave.
        faults.maybe_raise("worker_thread_crash")
        try:
            outcomes = self.simulator.iter_batch(
                [job.program for job in wave],
                timeout_s=self.timeout_s if self.timeout_s > 0 else None,
                retry=self.retry,
            )
            for job, outcome in zip(wave, outcomes):
                self._settle(job, outcome)
            if self.breaker is not None:
                # Per-candidate failures are contained data, not a backend
                # fault; a wave that ran to completion is a healthy wave.
                self.breaker.record_success()
        except Exception as error:  # noqa: BLE001 — worker must survive
            # iter_batch contains per-candidate failures itself; this
            # backstop converts an unexpected whole-wave fault into one
            # failure record per still-unsettled job.
            if self.breaker is not None:
                self.breaker.record_failure()
            for job in wave:
                if not job.done.is_set():
                    self._settle(
                        job,
                        SimulationFailure(
                            program_name=job.program.name,
                            kind=SimulationFailure.CRASH,
                            error=f"{type(error).__name__}: {error}",
                        ),
                    )
        finally:
            with self._wave_lock:
                self._current_wave = []

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                self.last_beat = time.monotonic()
                wave = self._gather_wave()
                if wave:
                    self._process_wave(wave)
        except faults.InjectedFault:
            # An injected thread death: return instead of unwinding through
            # the interpreter's noisy unhandled-thread-exception hook.  The
            # observable state is identical — the thread is dead, the wave
            # is orphaned, and the supervisor has to recover both.
            return

    # -- supervision --------------------------------------------------------
    def _supervise(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            if not self._thread.is_alive():
                self._recover_dead_worker()
            if self.journal is not None:
                # Reclaim leases expired by crashed processes (ours cannot
                # expire silently: a dead thread is handled right above).
                self.journal.journal_recover()

    def _recover_dead_worker(self) -> None:
        """Restart a dead worker thread and rescue its in-flight wave."""
        with self._wave_lock:
            wave, self._current_wave = self._current_wave, []
        requeue: List[str] = []
        for job in wave:
            if job.done.is_set() or job.abandoned.is_set():
                continue
            if job.from_journal:
                requeue.append(job.digest)
            else:
                self._queue.put(job)
        if requeue and self.journal is not None:
            self.journal.journal_requeue(requeue)
        if self.breaker is not None:
            # A dying worker thread is a whole-wave fault by definition.
            self.breaker.record_failure()
        self.restarts += 1
        self._thread = self._spawn_worker()

    def healthy(self) -> bool:
        """Liveness: the drain thread is running (or being restarted)."""
        return self._thread.is_alive()

    # -- introspection / lifecycle ------------------------------------------
    def counters(self) -> dict:
        """Worker metrics for ``GET /stats``."""
        return {
            "waves": self.waves,
            "jobs": self.jobs,
            "failures": self.failures,
            "queued": self._queue.qsize(),
            "restarts": self.restarts,
            "skipped_abandoned": self.skipped_abandoned,
            "corrupt_jobs": self.corrupt_jobs,
            "journaled_on_drain": self.journaled_on_drain,
            "beat_age_s": time.monotonic() - self.last_beat,
            "alive": self._thread.is_alive(),
        }

    def _drain_queue_to_journal(self) -> None:
        """Journal every undrained in-memory job instead of abandoning it."""
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            if job.done.is_set() or self.journal is None:
                continue
            self.journal.journal_enqueue(
                job.digest, pickle.dumps(job.program), job.tenant
            )
            self.journaled_on_drain += 1

    def stop(self, timeout: float = 5.0, drain: bool = False) -> None:
        """Stop the drain loop.

        With ``drain=True`` the in-flight wave finishes (up to ``timeout``)
        and the remaining queue is journaled for the next service over the
        same database; without it, queued-but-unstarted in-memory jobs are
        abandoned (journal rows stay claimable either way — their leases
        expire).
        """
        self._drain = drain
        self._stop.set()
        self._thread.join(timeout)
        if self._supervisor is not None:
            self._supervisor.join(self.heartbeat_s + 1.0)
        if drain:
            self._drain_queue_to_journal()
