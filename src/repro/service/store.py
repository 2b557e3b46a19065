"""DB-backed shared result store: the one persistent memoization tier.

:class:`ResultStore` is the repo layer of the simulation service: one SQLite
database (stdlib :mod:`sqlite3`, WAL mode) holding simulation statistics
keyed on their ``sim_digest`` — the content-addressed memoization key of
:mod:`repro.sim.memo`.  Each row carries a sha256 of its statistics, so
a damaged row reads as a miss and is deleted.  Rows are schema-versioned
twice over: by the store's own table layout
(:data:`SERVICE_SCHEMA_VERSION`) and by the memo semantic version
(:data:`~repro.sim.memo.CACHE_SCHEMA_VERSION`, which changes whenever
simulation *results* change).  A mismatch on either drops and recreates the
table — entries are content-addressed recomputables, never the only copy of
anything.

The store plugs straight into :class:`~repro.sim.memo.SimulationCache` as
its duck-typed ``store=`` backend (``get(key) -> flat dict | None`` /
``put(key, flat)``), putting it behind the cache's in-memory LRU and
in-flight coalescing, and is safe for many threads over one connection
(serialised by an internal lock; cross-process sharing goes through WAL).

The same database also carries the service's **durable job journal** — a
``jobs`` table holding every ``wait=false`` request as a write-ahead row
(digest PK, pickled program, tenant, state, lease expiry, attempt count)
so a queued job survives a service crash: on restart the worker reclaims
``queued`` rows and expired leases and settles every pre-crash job
bit-identically (at-least-once delivery, idempotent by digest — a digest
is a content hash, so running a job twice writes the same result row
once).  See the ``journal_*`` methods below.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.reliability import faults
from repro.sim.memo import CACHE_SCHEMA_VERSION

#: Version of the store's own table layout.  Bump on *incompatible* layout
#: changes; the memo :data:`CACHE_SCHEMA_VERSION` is tracked separately in
#: ``meta`` and invalidates rows whenever simulation semantics change.
#: Purely additive tables (the job journal) do not bump it — dropping a
#: shared store full of results over a new empty table would be hostile.
SERVICE_SCHEMA_VERSION = 1

#: Legal job-journal states.  ``queued`` rows (and ``leased`` rows whose
#: lease expired) are claimable; ``done``/``failed`` are settled terminal
#: states that re-arm to ``queued`` if the digest is enqueued again.
JOURNAL_STATES = ("queued", "leased", "done", "failed")


@dataclass(frozen=True)
class JournalJob:
    """One claimed journal row travelling to the service worker."""

    digest: str
    program_blob: bytes
    tenant: str
    #: Execution attempts including this claim (incremented at claim time).
    attempts: int


class ResultStore:
    """Shared simulation-result store over one SQLite database.

    ``max_entries`` bounds the table LRU-style on ``last_used`` (0 =
    unbounded); ``max_age_s`` additionally evicts rows not used within the
    window (0 = no age limit).  ``hits``/``misses``/``evictions`` count this
    store instance's traffic and are surfaced by ``GET /stats``.
    """

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        max_entries: int = 100_000,
        max_age_s: float = 0.0,
    ):
        self.path = str(path)
        self.max_entries = int(max_entries)
        self.max_age_s = float(max_age_s)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: I/O failures observed (or injected) on the result path; surfaced
        #: by ``GET /healthz`` as a degradation reason while recent.
        self.io_errors = 0
        self.last_io_error_at = 0.0
        # Journal traffic counters (lifetime of this store instance).
        self.journal_enqueued = 0
        self.journal_claimed = 0
        self.journal_drained = 0
        self.journal_failed = 0
        self.journal_recovered = 0
        with self._lock:
            self._ensure_schema()

    # -- schema -------------------------------------------------------------
    def _ensure_schema(self) -> None:
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        rows = dict(self._conn.execute("SELECT key, value FROM meta"))
        expected = {
            "service_schema": str(SERVICE_SCHEMA_VERSION),
            "memo_schema": str(CACHE_SCHEMA_VERSION),
        }
        if rows and rows != expected:
            # Stale layout or stale simulation semantics: every row is a
            # content-addressed recomputable, so drop instead of migrating.
            self._conn.execute("DROP TABLE IF EXISTS results")
            self._conn.execute("DELETE FROM meta")
            rows = {}
        if not rows:
            self._conn.executemany(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                sorted(expected.items()),
            )
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS results (
                digest     TEXT PRIMARY KEY,
                schema     INTEGER NOT NULL,
                stats      TEXT NOT NULL,
                sha256     TEXT NOT NULL,
                created_at REAL NOT NULL,
                last_used  REAL NOT NULL,
                use_count  INTEGER NOT NULL DEFAULT 0
            )
            """
        )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS results_last_used ON results (last_used)"
        )
        # Durable job journal: the write-ahead queue behind ``wait=false``.
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS jobs (
                digest      TEXT PRIMARY KEY,
                program     BLOB NOT NULL,
                tenant      TEXT NOT NULL DEFAULT '',
                state       TEXT NOT NULL DEFAULT 'queued',
                lease_until REAL NOT NULL DEFAULT 0,
                attempts    INTEGER NOT NULL DEFAULT 0,
                error       TEXT,
                created_at  REAL NOT NULL,
                updated_at  REAL NOT NULL
            )
            """
        )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, created_at)"
        )
        self._conn.commit()

    # -- fault containment --------------------------------------------------
    def _note_io_error(self) -> None:
        self.io_errors += 1
        self.last_io_error_at = time.time()

    def _maybe_io_fault(self) -> None:
        """``store_io_error`` injection site: a failing result-store query."""
        if faults.should_inject("store_io_error"):
            self._note_io_error()
            raise sqlite3.OperationalError(
                "injected store I/O error (site store_io_error)"
            )

    # -- CRUD ---------------------------------------------------------------
    def get(self, digest: str) -> Optional[Dict[str, float]]:
        """Fetch one flat statistics snapshot; ``None`` on miss or corruption.

        I/O errors (real or injected) propagate to the caller — the memo
        layer contains them as misses — but are counted here so the health
        endpoint can report a struggling store.
        """
        self._maybe_io_fault()
        try:
            return self._get_locked(digest)
        except sqlite3.Error:
            self._note_io_error()
            raise

    def _get_locked(self, digest: str) -> Optional[Dict[str, float]]:
        now = time.time()
        with self._lock:
            row = self._conn.execute(
                "SELECT stats, sha256, schema FROM results WHERE digest = ?", (digest,)
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            stats_json, checksum, schema = row
            flat = None
            if schema == CACHE_SCHEMA_VERSION and (
                hashlib.sha256(stats_json.encode("utf-8")).hexdigest() == checksum
            ):
                try:
                    flat = {str(k): float(v) for k, v in json.loads(stats_json).items()}
                except (ValueError, TypeError, AttributeError):
                    pass
            if flat is None:
                # Defensive: a corrupted, stale or undecodable row is dropped
                # and re-simulated.
                self._conn.execute("DELETE FROM results WHERE digest = ?", (digest,))
                self._conn.commit()
                self.misses += 1
                return None
            self._conn.execute(
                "UPDATE results SET last_used = ?, use_count = use_count + 1 "
                "WHERE digest = ?",
                (now, digest),
            )
            self._conn.commit()
            self.hits += 1
        return flat

    def put(self, digest: str, flat: Dict[str, float]) -> None:
        """Insert or refresh one result (idempotent — keys are content hashes)."""
        self._maybe_io_fault()
        try:
            self._put_locked(digest, flat)
        except sqlite3.Error:
            self._note_io_error()
            raise

    def _put_locked(self, digest: str, flat: Dict[str, float]) -> None:
        normalised = {str(k): float(v) for k, v in flat.items()}
        stats_json = json.dumps(normalised, sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(stats_json.encode("utf-8")).hexdigest()
        now = time.time()
        with self._lock:
            self._conn.execute(
                """
                INSERT INTO results
                    (digest, schema, stats, sha256, created_at, last_used, use_count)
                VALUES (?, ?, ?, ?, ?, ?, 0)
                ON CONFLICT(digest) DO UPDATE SET last_used = excluded.last_used
                """,
                (digest, CACHE_SCHEMA_VERSION, stats_json, checksum, now, now),
            )
            self._evict_locked(now)
            self._conn.commit()

    def _evict_locked(self, now: float) -> None:
        """Age- then LRU-evict; caller holds the lock and commits."""
        if self.max_age_s > 0:
            cursor = self._conn.execute(
                "DELETE FROM results WHERE last_used < ?", (now - self.max_age_s,)
            )
            self.evictions += cursor.rowcount
        if self.max_entries > 0:
            (count,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
            overflow = count - self.max_entries
            if overflow > 0:
                cursor = self._conn.execute(
                    """
                    DELETE FROM results WHERE digest IN (
                        SELECT digest FROM results
                        ORDER BY last_used ASC, digest ASC LIMIT ?
                    )
                    """,
                    (overflow,),
                )
                self.evictions += cursor.rowcount

    def evict(self) -> int:
        """Apply the age/LRU policy now; returns total evictions so far."""
        with self._lock:
            self._evict_locked(time.time())
            self._conn.commit()
            return self.evictions

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
            return int(count)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE digest = ?", (digest,)
            ).fetchone()
            return row is not None

    # -- job journal --------------------------------------------------------
    def journal_enqueue(self, digest: str, program_blob: bytes, tenant: str = "") -> bool:
        """Write-ahead enqueue of one job; returns whether it is now pending.

        Idempotent by digest: a job already ``queued``/``leased`` is left
        alone (``False``), while a settled ``done``/``failed`` row is
        re-armed to ``queued`` — the caller only enqueues when the result
        store missed, so a ``done`` row here means the result was evicted
        and must be recomputed.
        """
        now = time.time()
        with self._lock:
            row = self._conn.execute(
                "SELECT state FROM jobs WHERE digest = ?", (digest,)
            ).fetchone()
            if row is not None and row[0] in ("queued", "leased"):
                return False
            self._conn.execute(
                """
                INSERT INTO jobs
                    (digest, program, tenant, state, lease_until, attempts,
                     error, created_at, updated_at)
                VALUES (?, ?, ?, 'queued', 0, 0, NULL, ?, ?)
                ON CONFLICT(digest) DO UPDATE SET
                    program = excluded.program, tenant = excluded.tenant,
                    state = 'queued', lease_until = 0, attempts = 0,
                    error = NULL, updated_at = excluded.updated_at
                """,
                (digest, sqlite3.Binary(program_blob), tenant, now, now),
            )
            self._conn.commit()
            self.journal_enqueued += 1
            return True

    def journal_claim(self, limit: int, lease_s: float) -> List[JournalJob]:
        """Lease up to ``limit`` claimable jobs to the calling worker.

        Claimable rows are ``queued`` rows plus ``leased`` rows whose lease
        expired (their worker died mid-wave).  Each claim marks the row
        ``leased`` until ``now + lease_s`` and increments its attempt
        count, so a job lost with its worker becomes claimable again once
        the lease runs out — at-least-once delivery.
        """
        if limit <= 0:
            return []
        now = time.time()
        claimed: List[JournalJob] = []
        with self._lock:
            rows = self._conn.execute(
                """
                SELECT digest, program, tenant, attempts FROM jobs
                WHERE state = 'queued' OR (state = 'leased' AND lease_until < ?)
                ORDER BY created_at ASC, digest ASC LIMIT ?
                """,
                (now, int(limit)),
            ).fetchall()
            for digest, blob, tenant, attempts in rows:
                self._conn.execute(
                    "UPDATE jobs SET state = 'leased', lease_until = ?, "
                    "attempts = ?, updated_at = ? WHERE digest = ?",
                    (now + float(lease_s), attempts + 1, now, digest),
                )
                blob = bytes(blob)
                if faults.should_inject("journal_corrupt"):
                    # A torn write or bad sector under the program column:
                    # the worker must settle the job failed, not die.
                    blob = b"\x00journal-garbage\xff" + blob[:8]
                claimed.append(
                    JournalJob(
                        digest=digest, program_blob=blob,
                        tenant=tenant, attempts=attempts + 1,
                    )
                )
            if claimed:
                self._conn.commit()
                self.journal_claimed += len(claimed)
        return claimed

    def journal_settle(
        self, digest: str, state: str, error: Optional[str] = None
    ) -> None:
        """Settle one leased job as ``done`` or ``failed``."""
        if state not in ("done", "failed"):
            raise ValueError(f"cannot settle a journal job as {state!r}")
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = ?, lease_until = 0, error = ?, "
                "updated_at = ? WHERE digest = ?",
                (state, error, time.time(), digest),
            )
            self._conn.commit()
            if state == "done":
                self.journal_drained += 1
            else:
                self.journal_failed += 1

    def journal_requeue(self, digests: Sequence[str]) -> int:
        """Return leased jobs to ``queued`` immediately (dead-worker rescue)."""
        if not digests:
            return 0
        now = time.time()
        with self._lock:
            marks = ",".join("?" for _ in digests)
            cursor = self._conn.execute(
                f"UPDATE jobs SET state = 'queued', lease_until = 0, "
                f"updated_at = ? WHERE state = 'leased' AND digest IN ({marks})",
                (now, *digests),
            )
            self._conn.commit()
            self.journal_recovered += cursor.rowcount
            return cursor.rowcount

    def journal_recover(self) -> int:
        """Re-queue every expired lease; the startup/supervisor sweep.

        A restarted service calls this before draining so every job a dead
        worker held settles again — the digest-keyed result row makes the
        second run bit-identical and duplicate-free.
        """
        now = time.time()
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET state = 'queued', lease_until = 0, "
                "updated_at = ? WHERE state = 'leased' AND lease_until < ?",
                (now, now),
            )
            self._conn.commit()
            self.journal_recovered += cursor.rowcount
            return cursor.rowcount

    def journal_pending(self) -> int:
        """Unsettled journal depth (``queued`` + ``leased``) for backpressure."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state IN ('queued', 'leased')"
            ).fetchone()
            return int(count)

    def journal_status(self, digest: str) -> Optional[Tuple[str, Optional[str], int]]:
        """``(state, error, attempts)`` of one journaled digest, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT state, error, attempts FROM jobs WHERE digest = ?", (digest,)
            ).fetchone()
            if row is None:
                return None
            return str(row[0]), row[1], int(row[2])

    def journal_prune(self, max_age_s: float) -> int:
        """Drop settled journal rows older than ``max_age_s`` seconds."""
        cutoff = time.time() - float(max_age_s)
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM jobs WHERE state IN ('done', 'failed') "
                "AND updated_at < ?",
                (cutoff,),
            )
            self._conn.commit()
            return cursor.rowcount

    def journal_counters(self) -> Dict[str, float]:
        """Journal metrics: per-state row counts plus lifetime traffic."""
        with self._lock:
            by_state = dict(
                self._conn.execute("SELECT state, COUNT(*) FROM jobs GROUP BY state")
            )
        counters = {state: float(by_state.get(state, 0)) for state in JOURNAL_STATES}
        counters.update(
            enqueued=float(self.journal_enqueued),
            claimed=float(self.journal_claimed),
            drained=float(self.journal_drained),
            settled_failed=float(self.journal_failed),
            recovered=float(self.journal_recovered),
        )
        return counters

    # -- introspection ------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Store metrics for ``GET /stats``: size, traffic, hit rate."""
        total = self.hits + self.misses
        return {
            "entries": float(len(self)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "io_errors": float(self.io_errors),
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __repr__(self) -> str:
        return (
            f"ResultStore({self.path!r}, {len(self)} entries, "
            f"{self.hits} hits, {self.misses} misses, {self.evictions} evictions)"
        )
