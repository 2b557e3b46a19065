"""Simulation-result memoization.

The autotuning loop re-simulates identical schedules across rounds — the
tuner proposes a configuration, measures it, and frequently proposes it (or a
behaviourally identical sibling) again later.  Because the simulator is a
pure function of ``(program content, hierarchy configuration, trace
options, engine)``, its results can be cached on that key.

:class:`SimulationCache` is an LRU-bounded in-memory store with an optional
persistent backend (``store=``, a :class:`repro.service.ResultStore`).  Keys
hash the program's cached content digest — computed once per program —
together with the hierarchy, trace options and engine.  Values are stored
as flat statistics snapshots and reconstructed into fresh
:class:`~repro.sim.stats.SimulationStats` objects on every lookup, so
callers can never mutate a cached entry through an alias.  The store is
thread-safe: every backend of :class:`~repro.sim.simulator.BatchSimulator`
memoizes in the calling process through one cache.  Simulators look a key
up, simulate on a miss and store the result;
:meth:`SimulationCache.get_or_compute`, which coalesces concurrent requests
for one key onto a single in-flight computation, serves the simulation
service's HTTP layer.

Memoized statistics match a fresh simulation bit-for-bit except for
``sim.host_seconds``, which is rewritten by the caller to the (much smaller)
lookup time — reporting the original walk time for a served-from-cache run
would misstate simulation cost, e.g. in the Eq. 4 speedup accounting.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import asdict
from typing import Dict, Optional

from repro.reliability import current_deadline
from repro.sim.stats import SimulationStats


#: Version tag of persisted simulation results (the
#: :class:`~repro.service.ResultStore` tables).  Bump whenever a
#: change alters simulation *results* (not just speed) or the key payload
#: shape: the memoization key hashes only inputs, so cached statistics from
#: an older behaviour would otherwise be served silently across upgrades.
#: v3: replacement policy per hierarchy level and the random-replacement
#: ``rng_seed`` joined the key (the seed only when a random level is
#: present — it cannot affect deterministic-policy results).
#: v4: the unified policy registry added PLRU and RRIP (new aux state
#: planes join the simulated behaviour, and new policy names must never
#: alias a digest computed before they existed).
CACHE_SCHEMA_VERSION = 4


def _has_victim_stream_level(hierarchy: dict) -> bool:
    """Whether any level of an ``asdict``-ed hierarchy config uses a policy
    that consumes the replayable victim stream
    (:attr:`repro.sim.policies.PolicySpec.uses_victim_stream`), making the
    ``rng_seed`` result-relevant.
    """
    from repro.sim.policies import POLICIES

    return any(
        isinstance(level, dict)
        and level.get("replacement") in POLICIES
        and POLICIES[level["replacement"]].uses_victim_stream
        for level in hierarchy.values()
    )


class SimulationCache:
    """LRU-bounded memoization store for simulation statistics."""

    def __init__(self, maxsize: int = 128, store=None):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        #: Optional shared backing store (duck-typed, e.g.
        #: :class:`repro.service.ResultStore`): ``get(key) -> flat dict | None``
        #: and ``put(key, flat)``.  Consulted after the in-memory LRU and
        #: written through on every :meth:`put`.  Store errors are contained
        #: as misses — a degraded backend never breaks a run.
        self.store = store
        self._entries: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
        self._lock = threading.Lock()
        #: In-flight computations keyed by memo key: concurrent
        #: :meth:`get_or_compute` callers for one key block on one event
        #: instead of racing to simulate the same candidate.
        self._inflight: Dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        #: Requests served by waiting on another thread's in-flight
        #: computation instead of simulating redundantly.
        self.coalesced = 0

    # -- keys ---------------------------------------------------------------
    @staticmethod
    def make_key(program, hierarchy_config, trace_options, engine: str) -> str:
        """The memoization key of one simulation request.

        ``program.content_digest()`` is cached on the program, so repeated
        lookups do not re-serialise the tree.  The trace representation
        follows ``engine``, so the key names it without a field of its own.
        The random-replacement ``rng_seed`` is part of the key whenever any
        hierarchy level uses a victim-stream policy — two runs with
        different seeds can never share a cached result — and is normalised
        out otherwise, where the replayable victim stream is never consumed
        and the seed provably cannot affect statistics.
        """
        hierarchy = asdict(hierarchy_config)
        trace = asdict(trace_options)
        if not _has_victim_stream_level(hierarchy):
            trace.pop("rng_seed", None)  # seed-neutral results
        payload = {
            "program": program.content_digest(),
            "hierarchy": hierarchy,
            "trace": trace,
            "engine": engine,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # -- store --------------------------------------------------------------
    def get(self, key: str) -> Optional[SimulationStats]:
        """Look up a cached result; returns a fresh stats object or ``None``."""
        with self._lock:
            flat = self._entries.get(key)
            if flat is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return stats_from_flat(flat)
        # The store query happens outside the lock so concurrent workers are
        # not serialized behind database I/O; the re-locked insert is a
        # double-checked write — entries are content-addressed, so a racing
        # inserter of the same key wrote identical data.
        flat = self._load_from_store(key)
        with self._lock:
            if flat is not None:
                self._insert(key, flat)
                self.hits += 1
                return stats_from_flat(flat)
            self.misses += 1
            return None

    def get_or_compute(self, key, compute):
        """Serve ``key`` from the cache, computing it at most once per process.

        Returns ``(stats, computed)`` where ``computed`` is True when *this*
        call ran ``compute``.  Concurrent callers for the same key (the
        service's concurrent ``POST /simulate`` requests for one digest)
        coalesce onto one in-flight computation: the first caller becomes
        the **leader** and simulates; the rest block on the leader's event
        and are then served the freshly cached result.
        If the leader raises, waiters wake, observe the miss, and compete to
        become the next leader — a failed computation never wedges the key.

        Waiters poll the ambient cooperative deadline while blocked, so a
        candidate's ``timeout_s`` budget keeps its meaning even when the
        candidate spends it waiting on a twin.
        """
        while True:
            stats = self.get(key)
            if stats is not None:
                return stats, False
            with self._lock:
                flight = self._inflight.get(key)
                leader = flight is None
                if leader:
                    flight = self._inflight[key] = threading.Event()
            if not leader:
                deadline = current_deadline()
                while not flight.wait(timeout=0.05):
                    if deadline is not None:
                        deadline.check("coalesced memo wait")
                with self._lock:
                    self.coalesced += 1
                continue  # leader finished: a cache hit, or compete to lead
            try:
                stats = compute()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                flight.set()
                raise
            self.put(key, stats)
            with self._lock:
                self._inflight.pop(key, None)
            flight.set()
            return stats, True

    def put(self, key: str, stats: SimulationStats) -> None:
        """Store one simulation result."""
        flat = dict(stats.as_dict())
        with self._lock:
            self._insert(key, flat)
        if self.store is not None:
            try:
                self.store.put(key, flat)
            except Exception:  # noqa: BLE001 — a degraded store never breaks a run
                pass

    def _insert(self, key: str, flat: Dict[str, float]) -> None:
        self._entries[key] = flat
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def _load_from_store(self, key: str) -> Optional[Dict[str, float]]:
        """Consult the shared backing store; errors are contained as misses."""
        if self.store is None:
            return None
        try:
            flat = self.store.get(key)
        except Exception:  # noqa: BLE001 — a degraded store never breaks a run
            return None
        if flat is None:
            return None
        try:
            return {str(k): float(v) for k, v in flat.items()}
        except (AttributeError, TypeError, ValueError):
            return None

    # -- management ---------------------------------------------------------
    def clear(self) -> None:
        """Drop all in-memory entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.coalesced = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"SimulationCache({len(self)}/{self.maxsize} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


def stats_from_flat(flat: Dict[str, float]) -> SimulationStats:
    """Rebuild a :class:`SimulationStats` from its flat snapshot.

    The inverse of ``SimulationStats.as_dict()``; used by the memo layer and
    by service clients reconstructing results from transported flat stats.
    """
    stats = SimulationStats()
    for flat_key, value in flat.items():
        group_name, _, key = flat_key.rpartition(".")
        stats.group(group_name).set(key, value)
    return stats


#: Process-wide default cache shared by all memoizing simulators.
_DEFAULT_CACHE = SimulationCache(maxsize=128)


def default_simulation_cache() -> SimulationCache:
    """The process-wide cache used when a simulator enables memoization."""
    return _DEFAULT_CACHE
