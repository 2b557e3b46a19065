"""Set-associative cache model.

The cache is a write-allocate, write-back, N-way set-associative cache with a
pluggable replacement policy (LRU by default, matching the paper's gem5
configuration).  It produces the statistics the score predictor consumes:
read/write accesses, hits, misses and replacements.  The model is functional
only — it tracks which lines are resident, not their contents, and it reports
no latencies (the whole point of the paper is that no timing is needed).

Two interchangeable simulation engines back the model:

* ``"reference"`` — the original per-access Python loop over per-set lists.
  Simple, obviously correct, and the behavioural baseline.
* ``"vectorized"`` — the array-based chunk engine of
  :mod:`repro.sim.engine`; bit-identical statistics at a multiple of the
  throughput.

Replacement behaviour comes from the :mod:`repro.sim.policies` registry:
the reference loop drives a way-slot :class:`ReferenceCacheState` through
each policy's scalar ``victim_way``/``touch`` hooks, so every registered
policy (``lru``/``fifo``/``random``/``plru``/``rrip``) runs on either
engine without a policy branch in this module.  Random victims come from
the replayable counter-based stream of
:func:`repro.sim.policies.victim_rank`, keyed on ``(rng_seed, set index,
per-set eviction ordinal)``: the ``k``-th eviction in a set always evicts
the same rank (by descending insertion recency) for a given seed, no matter
which engine — or which schedule inside the vectorized engine — processes
the trace.  ``CacheConfig.rng_seed`` selects the stream; two caches with
the same seed and trace are bit-identical, two different seeds draw
independent victim sequences.

The engine is selected per cache via the ``engine`` constructor argument
(``None`` is the vectorized engine); a simulator passes its
``RuntimeConfig.engine`` down through :class:`~repro.sim.hierarchy.CacheHierarchy`.
Every access route is a batch: a single :meth:`Cache.access` is a batch of
one through :meth:`Cache.access_lines`, the vectorized engine adds the
descriptor-chunk and packed-arena routes, and each level hands its misses
to the next one as one forwarded batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.reliability import faults

from repro.sim.engine import (
    ARENA_ACCESS_BATCH,
    ARENA_CHUNK_BATCH,
    DESCRIPTOR_HEAD_FRACTION,
    ENGINE_VECTORIZED,
    SCALAR_CHUNK_CUTOFF,
    ChunkOutcome,
    VectorCacheState,
    arena_batching_available,
    chunk_heads,
    estimated_heads,
    resolve_engine,
)
from repro.sim.policies import (
    PolicySpec,
    ReferenceCacheState,
    ReplacementPolicy,
    get_policy,
)

from repro.codegen.program import pack_descriptor_arena


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and behaviour of one cache.

    ``size_bytes = sets * associativity * line_bytes`` must hold; the
    constructor of :class:`Cache` validates this so the Table I
    configurations cannot be transcribed inconsistently.
    """

    name: str
    size_bytes: int
    sets: int
    associativity: int
    line_bytes: int = 64
    replacement: str = ReplacementPolicy.LRU
    #: Seed of the replayable random-replacement victim stream; ignored by
    #: the policies that never consult it (everything except ``random``).
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes != self.sets * self.associativity * self.line_bytes:
            raise ValueError(
                f"inconsistent cache geometry for {self.name}: "
                f"{self.sets} sets x {self.associativity} ways x {self.line_bytes} B "
                f"!= {self.size_bytes} B"
            )
        if self.sets <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.sets & (self.sets - 1):
            raise ValueError(f"number of sets must be a power of two, got {self.sets}")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"line size must be a power of two, got {self.line_bytes}")
        get_policy(self.replacement).validate_geometry(self.associativity)

    @staticmethod
    def from_geometry(
        name: str,
        sets: int,
        associativity: int,
        line_bytes: int = 64,
        replacement: str = ReplacementPolicy.LRU,
        rng_seed: int = 0,
    ) -> "CacheConfig":
        """Build a config from sets/ways/line size, deriving the total size."""
        return CacheConfig(
            name=name,
            size_bytes=sets * associativity * line_bytes,
            sets=sets,
            associativity=associativity,
            line_bytes=line_bytes,
            replacement=replacement,
            rng_seed=rng_seed,
        )


class Cache:
    """One level of a cache hierarchy.

    Misses and dirty evictions are forwarded to ``next_level`` (another
    :class:`Cache` or a :class:`~repro.sim.memory.MainMemory`).
    """

    def __init__(
        self,
        config: CacheConfig,
        next_level=None,
        engine: Optional[str] = None,
    ):
        self.config = config
        self.next_level = next_level
        self._offset_bits = int(np.log2(config.line_bytes))
        self._set_mask = config.sets - 1
        self.engine = resolve_engine(engine)
        self.rng_seed = config.rng_seed
        self._policy: PolicySpec = get_policy(config.replacement)
        self._state: Optional[VectorCacheState] = None
        # Way-slot state of the reference engine, driven through the policy's
        # scalar hooks (the vectorized state keeps its own arrays).
        self._ref: Optional[ReferenceCacheState] = None
        if self.engine == ENGINE_VECTORIZED:
            self._state = VectorCacheState(
                config.sets, config.associativity, config.replacement, rng_seed=self.rng_seed
            )
        else:
            self._ref = ReferenceCacheState(
                self._policy, config.sets, config.associativity, self.rng_seed
            )
        self.reset_stats()
        # Direct line-address forwarding is only valid when the next level
        # uses the same line size; otherwise byte addresses are re-derived.
        self._forward_lines_directly = (
            isinstance(next_level, Cache) and next_level.config.line_bytes == config.line_bytes
        )

    # -- statistics -------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero all counters (resident lines are kept)."""
        self.read_accesses = 0
        self.write_accesses = 0
        self.read_hits = 0
        self.write_hits = 0
        self.read_misses = 0
        self.write_misses = 0
        self.read_replacements = 0
        self.write_replacements = 0
        self.writebacks = 0
        self.sequential_misses = 0
        self._last_miss_line = -2

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.read_accesses + self.write_accesses

    @property
    def hits(self) -> int:
        """Total hits."""
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        """Total misses."""
        return self.read_misses + self.write_misses

    @property
    def replacements(self) -> int:
        """Total replacements (evictions of valid lines)."""
        return self.read_replacements + self.write_replacements

    def stats_dict(self) -> dict:
        """Statistics in the shape the feature extractor consumes."""
        return {
            "read_accesses": self.read_accesses,
            "write_accesses": self.write_accesses,
            "read_hits": self.read_hits,
            "write_hits": self.write_hits,
            "read_misses": self.read_misses,
            "write_misses": self.write_misses,
            "read_replacements": self.read_replacements,
            "write_replacements": self.write_replacements,
            "writebacks": self.writebacks,
            "sequential_misses": self.sequential_misses,
        }

    # -- access processing -------------------------------------------------
    def access(self, address: int, is_write: bool) -> bool:
        """Process one byte-address access, a batch of one; True on a hit."""
        lines = np.array([int(address) >> self._offset_bits], dtype=np.int64)
        return bool(self.access_lines(lines, np.array([is_write], dtype=bool)))

    def access_batch(self, addresses: np.ndarray, is_write: np.ndarray) -> int:
        """Process a batch of byte addresses in order; returns the number of hits."""
        lines = (addresses.astype(np.int64)) >> self._offset_bits
        return self.access_lines(lines, is_write)

    def access_lines(self, lines: np.ndarray, is_write: np.ndarray) -> int:
        """Process a batch of line addresses in order; returns the number of hits.

        Misses generate fill reads and dirty evictions generate writebacks,
        which are forwarded (in order) to the next level in one batch.
        """
        if lines.size == 0:
            return 0
        if self._state is not None:
            lines = np.ascontiguousarray(lines, dtype=np.int64)
            outcome = self._state.process_chunk(lines, is_write, self._last_miss_line)
            self._apply_outcome(outcome)
            if outcome.forwarded_lines is not None:
                self._forward(outcome.forwarded_lines, outcome.forwarded_writes)
            return outcome.hits
        return self._access_lines_reference(lines, is_write)

    def access_descriptors(self, chunk) -> int:
        """Process one :class:`~repro.codegen.program.DescriptorChunk` in order.

        The vectorized engine consumes the grid run descriptors directly —
        collapsed line heads are derived in closed form per innermost row
        and only those enter the chunk pipeline.  The reference engine (and
        tiny chunks, where head bookkeeping cannot pay off) expands the
        chunk and takes the batch path; both routes produce bit-identical
        statistics.
        """
        if chunk.total == 0:
            return 0
        if (
            self._state is None
            or chunk.total < SCALAR_CHUNK_CUTOFF
            or not chunk.batches
            or estimated_heads(chunk, self._offset_bits)
            > DESCRIPTOR_HEAD_FRACTION * chunk.total
        ):
            addresses, is_write = chunk.expand()
            return self.access_batch(addresses, is_write)
        try:
            faults.maybe_raise("descriptor_heads")
            heads = chunk_heads(chunk, self._offset_bits, self._set_mask)
        except Exception as error:  # noqa: BLE001 — head collapse is pure,
            # so expansion recomputes the identical statistics from scratch.
            warnings.warn(
                RuntimeWarning(
                    "descriptor head collapse failed "
                    f"({type(error).__name__}: {error}); expanding chunk"
                ),
                stacklevel=2,
            )
            addresses, is_write = chunk.expand()
            return self.access_batch(addresses, is_write)
        outcome = self._state.process_heads(
            chunk.total, chunk.pos_bound, *heads, self._last_miss_line
        )
        self._apply_outcome(outcome)
        if outcome.forwarded_lines is not None:
            self._forward(outcome.forwarded_lines, outcome.forwarded_writes)
        return outcome.hits

    def access_descriptor_stream(self, chunks) -> int:
        """Walk an iterable of descriptor chunks with cross-chunk batching.

        Chunks are grouped into packed arenas of up to
        :data:`ARENA_CHUNK_BATCH` chunks / :data:`ARENA_ACCESS_BATCH`
        accesses, and each group runs through this level in one native
        call (the driver picks closed-form head collapse or member
        expansion per chunk, by the same head-fraction estimate as the
        per-chunk path).  Without the batch kernel every chunk goes through
        :meth:`access_descriptors` unchanged.  Statistics are bit-identical
        either way; returns the total number of hits.
        """
        if self._state is None or not arena_batching_available():
            hits = 0
            for chunk in chunks:
                hits += self.access_descriptors(chunk)
            return hits
        hits = 0
        pending: List = []
        pending_accesses = 0
        for chunk in chunks:
            pending.append(chunk)
            pending_accesses += chunk.total
            if len(pending) >= ARENA_CHUNK_BATCH or pending_accesses >= ARENA_ACCESS_BATCH:
                hits += self.access_descriptor_arena(pack_descriptor_arena(pending))
                pending, pending_accesses = [], 0
        if pending:
            hits += self.access_descriptor_arena(pack_descriptor_arena(pending))
        return hits

    def access_descriptor_arena(self, arena) -> int:
        """Process a packed :class:`~repro.codegen.program.DescriptorArena`.

        With the compiled batch kernel available, the whole arena — head
        pipeline, stack-distance pre-resolution and event walk for every
        chunk — runs as **one** foreign call against this level's tag
        store, and the aggregated fill/write-back stream is handed to the
        next level in one batch (statistics are chunking-invariant, so the
        coarser forwarding granularity cannot change results).  Without the
        kernel, the arena's chunks are replayed through the bit-identical
        per-chunk path.
        """
        outcome = None
        if self._state is not None:
            outcome = self._state.process_descriptor_arena(
                arena, self._offset_bits, self._last_miss_line
            )
        if outcome is None:
            hits = 0
            for chunk in arena.chunks:
                hits += self.access_descriptors(chunk)
            return hits
        self._apply_outcome(outcome)
        if outcome.forwarded_lines is not None:
            self._forward(outcome.forwarded_lines, outcome.forwarded_writes)
        return outcome.hits

    def _apply_outcome(self, outcome: ChunkOutcome) -> None:
        """Fold one chunk's statistics deltas into the counters."""
        self.read_hits += outcome.read_hits
        self.write_hits += outcome.write_hits
        self.read_misses += outcome.read_misses
        self.write_misses += outcome.write_misses
        self.read_accesses += outcome.read_hits + outcome.read_misses
        self.write_accesses += outcome.write_hits + outcome.write_misses
        self.read_replacements += outcome.read_replacements
        self.write_replacements += outcome.write_replacements
        self.writebacks += outcome.writebacks
        self.sequential_misses += outcome.sequential_misses
        self._last_miss_line = outcome.last_miss_line

    def _access_lines_reference(self, lines: np.ndarray, is_write: np.ndarray) -> int:
        set_indices = (lines & self._set_mask).tolist()
        line_list = lines.tolist()
        write_list = is_write.tolist()

        state = self._ref
        spec = self._policy
        assoc = self.config.associativity
        tags = state.tags
        dirty = state.dirty
        occupancies = state.occupancy
        touch = spec.touch
        victim_way = spec.victim_way
        tick = state.tick

        hits = 0
        read_hits = 0
        write_hits = 0
        read_misses = 0
        write_misses = 0
        read_replacements = 0
        write_replacements = 0
        writebacks = 0
        sequential_misses = 0
        last_miss_line = self._last_miss_line

        forwarded_lines: List[int] = []
        forwarded_writes: List[bool] = []

        for line, set_index, write in zip(line_list, set_indices, write_list):
            tag_row = tags[set_index]
            occupancy = occupancies[set_index]
            way = -1
            for position in range(occupancy):
                if tag_row[position] == line:
                    way = position
                    break
            if way >= 0:
                hits += 1
                if write:
                    write_hits += 1
                    dirty[set_index][way] = 1
                else:
                    read_hits += 1
                touch(state, set_index, way, tick, True)
                tick += 1
                continue

            # Miss: fill from the next level, possibly evicting a victim.
            if write:
                write_misses += 1
            else:
                read_misses += 1
            if line == last_miss_line + 1:
                sequential_misses += 1
            last_miss_line = line

            forwarded_lines.append(line)
            forwarded_writes.append(False)  # fill is a read from below

            if occupancy >= assoc:
                way = victim_way(state, set_index)
                if write:
                    write_replacements += 1
                else:
                    read_replacements += 1
                if dirty[set_index][way]:
                    writebacks += 1
                    forwarded_lines.append(tag_row[way])
                    forwarded_writes.append(True)
            else:
                way = occupancy
                occupancies[set_index] = occupancy + 1
            tag_row[way] = line
            dirty[set_index][way] = 1 if write else 0
            touch(state, set_index, way, tick, False)
            tick += 1

        state.tick = tick
        self.read_hits += read_hits
        self.write_hits += write_hits
        self.read_misses += read_misses
        self.write_misses += write_misses
        self.read_accesses += read_hits + read_misses
        self.write_accesses += write_hits + write_misses
        self.read_replacements += read_replacements
        self.write_replacements += write_replacements
        self.writebacks += writebacks
        self.sequential_misses += sequential_misses
        self._last_miss_line = last_miss_line

        if forwarded_lines:
            self._forward(
                np.asarray(forwarded_lines, dtype=np.int64),
                np.asarray(forwarded_writes, dtype=bool),
            )
        return hits

    # -- forwarding ---------------------------------------------------------
    def _forward(self, lines: np.ndarray, is_write: np.ndarray) -> None:
        """Hand the fill/write-back stream of one chunk to the next level."""
        if self.next_level is None:
            return
        if self._forward_lines_directly:
            # Same line size below: line addresses are identical, skip the
            # byte-address round trip.
            self.next_level.access_lines(lines, is_write)
        else:
            self.next_level.access_batch(lines << self._offset_bits, is_write)

    # -- introspection ------------------------------------------------------
    def resident_lines(self) -> int:
        """Number of valid lines currently resident."""
        if self._state is not None:
            return self._state.resident_lines()
        return self._ref.resident_lines()

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident."""
        line = int(address) >> self._offset_bits
        if self._state is not None:
            return self._state.contains_line(line)
        return self._ref.contains_line(line, line & self._set_mask)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"Cache({cfg.name}, {cfg.size_bytes // 1024}K, {cfg.sets} sets, "
            f"{cfg.associativity}-way, engine={self.engine})"
        )
