"""Vectorized cache-simulation engine: array-based tag stores and a fused
chunk-level hierarchy walk.

The reference implementation in :mod:`repro.sim.cache` walks every memory
reference through a per-access Python loop over per-set lists.  That loop is
the hot path of the whole reproduction — every benchmark and every
dataset-generation run funnels the full memory trace through it — so this
module provides a drop-in engine that processes each trace chunk with
array-level operations instead.

State layout
------------
Each cache level keeps fixed-shape NumPy arrays:

* ``tags``  — ``(sets, associativity) int64``; ``-1`` marks an empty way.
* ``dirty`` — ``(sets, associativity) bool``; write-back state per way.
* ``recency`` — ``(sets, associativity) int64``; the policy's tick plane —
  last-use tick under LRU (hits re-touch it), insertion tick otherwise.
* ``aux``   — the policy's extra state plane from
  :mod:`repro.sim.policies`: PLRU tree bits (``(sets,) int64``), RRIP
  re-reference counters (``(sets, associativity) int64``), or a one-element
  dummy for policies without one (uniform kernel ABI).
* ``occupancy`` — ``(sets,) int64``; ways are filled in order before any
  eviction happens, so ways ``[0, occupancy)`` are exactly the valid ones.

Replacement behaviour — victim selection and the touch/insert state-update
rule — comes from the :class:`repro.sim.policies.PolicySpec` registry: the
scalar event walk and the chain tails drive the spec's scalar hooks, the
rank rounds drive its vectorized hooks, and the compiled kernels dispatch
on the spec's stable ``wire_id``.  Policies with *exact stack gating*
(``exact_stack`` — LRU) additionally enable the re-touch pre-resolution of
step 3 below; every other policy (FIFO/random/PLRU/RRIP) degrades
gracefully to plain chain/event evaluation of the same collapsed heads.

Chunk algorithm
---------------
Accesses within one chunk are independent across sets; only accesses to the
*same* set form a dependency chain.  A chunk is therefore processed as:

1. **Stable sort by set** — groups each set's accesses while preserving
   program order inside the group.
2. **Run collapse** — consecutive same-line accesses within a set group are
   guaranteed hits after the first one (nothing can evict the line in
   between), so each run is collapsed to a single head access carrying two
   flags: the write flag of the head (statistics attribution) and whether any
   access of the run writes (dirty state).
3. **Re-touch pre-resolution (LRU)** — a head that re-touches a line is a
   *guaranteed* hit whenever fewer than ``associativity`` other heads of the
   same set lie between it and the previous head of the same line: at most
   that many distinct lines can have been touched in between, so the line's
   LRU stack distance is below the associativity and it cannot have been
   evicted.  Guaranteed re-touches are folded into the previous head of
   their line as a *chain* whose head carries the aggregated dirty flag and
   the chain's last-touch tick; a set whose chunk touches at most
   ``associativity`` distinct lines (the chunk-compliant case) pre-resolves
   every re-touch the same way regardless of gaps.  Only chain heads need
   sequential processing.
4. **Rank rounds** — the remaining events are processed in rounds: round
   ``r`` handles the ``r``-th event of every set at once (all distinct sets,
   hence fully vectorizable).  When a round gets too narrow (a few heavily
   skewed sets), the tail is finished by a scalar loop over the array state —
   this is the intra-chunk same-set dependency fallback.
5. **Global reconstruction** — hit/miss outcomes are scattered back to trace
   positions to compute sequential-miss statistics and to materialize the
   forwarded fill/write-back stream *in program order* as two arrays, which
   the owning cache hands to the next level in one call.  The whole
   L1D→L2→(L3)→memory walk therefore runs as one chunk-level pass per level
   instead of per-access bookkeeping.

Descriptor front-end
--------------------
:meth:`repro.codegen.program.Program.memory_trace_descriptors` emits the
trace as multi-level grid run batches ``(base, strides[], counts[])``
instead of address arrays: the innermost level is an affine run, and outer
levels replicate the stored runs across predicate-free loop variables (a
tiled inner window nested under outer loops is one descriptor).
:func:`chunk_heads` expands the replication levels transiently — one 1-D
run per innermost row — and maps each row to its collapsed per-line heads
in closed form: a run with ``|stride| < line_bytes`` touches a staircase of
consecutive lines whose per-line member ranges are pure interval
arithmetic, a zero-stride run is a single head, and a run with ``|stride|
>= line_bytes`` yields one head per access.  Adjacent rows landing on the
same line merge in the final same-(set, line) pass, so steps 1–2 above
never see the expanded stream and their cost scales with the number of
*distinct-line heads* rather than the number of accesses.  Closed-form
collapse is only exact while no *other* line of the same set is interleaved
with a head's members; heads whose position intervals overlap a
different-line head of the same set are therefore **segment-split** at the
overlap boundaries — clean prefix and suffix sub-runs stay collapsed, and
only remainders still conflicted after :data:`SEGMENT_SPLIT_PASSES` rounds
are exploded into exact singleton members (same-line overlap is harmless:
the chain machinery of step 3 aggregates it).  The resulting heads join the
pipeline at step 3 unchanged, which keeps descriptor statistics
bit-identical to the expanded engines.

Native pipeline and arena batching
----------------------------------
With the compiled kernels of :mod:`repro.sim._native` available, the whole
descriptor fast path runs below the Python line: descriptor chunks are
grouped into packed :class:`~repro.codegen.program.DescriptorArena` buffers
(:meth:`Cache.access_descriptor_stream`), and one foreign call per cache
level per group performs the head pipeline (or, for chunks whose head
estimate is poor, member expansion plus maximal collapse), the LRU
stack-distance pre-resolution, the event walk and the statistics /
forwarded-stream construction for every chunk of the group
(:meth:`VectorCacheState.process_descriptor_arena`).  The combined miss
stream reaches the next level as one batch; statistics are
chunking-invariant, so the coarser granularity never changes results.
:func:`chunk_heads` stays the bit-identity oracle (and the
``REPRO_SIM_NATIVE=0`` fallback, which dispatches per chunk).  Kernel scratch is pooled per thread
(:class:`_ArenaScratch`), so short-lived hierarchies reuse warm pages.

Replayable random replacement
-----------------------------
The random policy draws its victims from a *counter-based* stream instead of
a stateful RNG: the victim of the ``k``-th eviction in set ``s`` is
``victim_rank(rng_seed, s, k) = mix64(rng_seed, s, k) % associativity``,
a rank into the set's lines ordered by descending insertion tick (rank 0 is
the most recently inserted line, exactly the head of the reference engine's
per-set list).  Because the stream is keyed per set, victims do not depend on
how accesses of *different* sets interleave — any engine can compute the
victim of a set's ``k``-th eviction in closed form, in whatever schedule it
processes events (per-access loop, rank rounds, chain tails, or the compiled
kernel), and all of them stay bit-identical for the same ``rng_seed``.
Random-policy chunks skip only the LRU re-touch pre-resolution (a random
victim can evict any line, so re-touches are not guaranteed hits); run
collapse, descriptor head collapse and the whole event phase apply
unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.codegen.program import (
    DescriptorArena,
    DescriptorChunk,
    _ceil_div,
    _ragged_arange,
    pack_descriptor_arena,
)
from repro.reliability import faults
from repro.sim._native import (
    BATCH_STATS_SLOTS,
    chunk_heads_kernel,
    descriptor_batch_kernel,
    event_kernel,
    demote as demote_native,
    scratch_len,
)
from repro.sim.policies import (  # noqa: F401 — victim_rank/_victim_ranks re-exported
    _MASK64,
    _victim_ranks,
    get_policy,
    victim_rank,
)

#: Engine identifiers, passed from ``RuntimeConfig.engine`` through
#: ``Simulator`` / ``CacheHierarchy`` to each ``Cache``.
ENGINE_REFERENCE = "reference"
ENGINE_VECTORIZED = "vectorized"
ENGINES = (ENGINE_REFERENCE, ENGINE_VECTORIZED)

#: Chunks smaller than this are processed by the scalar loop directly; the
#: fixed cost of the vector path (sort, segment bookkeeping) does not pay off.
SCALAR_CHUNK_CUTOFF = 48
#: Rank rounds narrower than this finish through the per-set chain loop: a
#: round has a fixed cost of a few dozen NumPy calls, so below this width the
#: list-based tail is cheaper per event.
ROUND_WIDTH_CUTOFF = 24
#: Above this ratio of estimated heads to accesses the descriptor front-end
#: expands the chunk instead: without real run collapse, per-head
#: bookkeeping cannot beat the expanded path's narrow-key radix sort.
DESCRIPTOR_HEAD_FRACTION = 0.35
#: Number of passes in which :func:`chunk_heads` segment-splits conflicted
#: collapsed heads (clean prefix/suffix kept collapsed, covered middle
#: exploded) instead of exploding whole runs.  One pass resolves every
#: conflict — sub-runs stay inside their head's original interval — so this
#: is a safety bound; ``0`` restores pure singleton explosion (the
#: split-vs-explode equivalence tests pin this).  The native head pipeline
#: receives the value per call, so overrides apply to both implementations.
SEGMENT_SPLIT_PASSES = 2

#: Cross-chunk arena batching: descriptor chunks are grouped into
#: :class:`~repro.codegen.program.DescriptorArena` packings of at most this
#: many chunks / accesses, and each group is walked through the L1 front-end
#: in **one** native call (``repro_descriptor_batch``), with the whole
#: group's fill/write-back stream forwarded to the next level in one batch.
#: The access bound also caps the forwarded-stream scratch (two entries per
#: access worst case).  Statistics are chunking-invariant, so grouping never
#: changes results — only dispatch overhead.
ARENA_CHUNK_BATCH = 64
ARENA_ACCESS_BATCH = 1 << 21

#: Deepest grid nesting the native pipeline's fixed odometer supports;
#: deeper (hand-built) batches fall back to the per-chunk NumPy path.
ARENA_MAX_GRID_LEVELS = 62

def resolve_engine(engine: Optional[str]) -> str:
    """Validate ``engine``; ``None`` is the vectorized engine."""
    engine = engine or ENGINE_VECTORIZED
    if engine not in ENGINES:
        raise ValueError(f"unknown simulation engine {engine!r}; expected one of {ENGINES}")
    return engine


class _ArenaScratch(threading.local):
    """Per-thread native-pipeline scratch, shared across cache instances.

    The batch kernel's workspace is sized by the largest chunk, not by the
    cache, so every ``VectorCacheState`` in a thread can run over the same
    block — and short-lived hierarchies (one per ``Simulator.run``) reuse
    warm pages instead of fault-in'ing a fresh allocation per run.  The
    kernel keeps two stateful tables inside the block (the position
    scatter table and the hash stamps); ``stamp`` carries the process-
    monotone stamp base between calls and ``layout`` tracks the carve so
    a grown or re-carved buffer is re-initialised exactly once.
    """

    def __init__(self):
        self.buffer: Optional[np.ndarray] = None
        self.forwarded_lines: Optional[np.ndarray] = None
        self.forwarded_writes: Optional[np.ndarray] = None
        self.layout: Optional[Tuple[int, int]] = None
        self.stamp = 0


_ARENA_SCRATCH = _ArenaScratch()


def arena_batching_available() -> bool:
    """Whether the descriptor front-end should group chunks into arenas.

    True exactly when the compiled batch driver is loaded — without the
    native kernel, packing would only add overhead on top of the per-chunk
    NumPy pipeline.  Arena-batched and per-chunk processing are
    bit-identical.
    """
    return descriptor_batch_kernel() is not None


def native_chunk_heads(
    chunk: DescriptorChunk,
    offset_bits: int,
    set_mask: int,
    split_passes: Optional[int] = None,
):
    """Native counterpart of :func:`chunk_heads`, or ``None`` if unavailable.

    Packs ``chunk`` into a one-chunk arena and runs the compiled head
    pipeline; the result tuple is bit-identical to :func:`chunk_heads`
    (the equivalence suite pins this).  This is the oracle entry point —
    the hot path goes through :meth:`VectorCacheState.process_descriptor_arena`,
    which amortizes packing and scratch across many chunks.
    """
    kernel = chunk_heads_kernel()
    if kernel is None:
        return None
    if faults.should_inject("native_fault"):
        # Demote *before* the call: this entry point is pure (fresh scratch
        # and outputs, no cache state), so the NumPy fallback recomputes the
        # identical heads from the same chunk.
        demote_native("injected fault at site 'native_fault' (head pipeline)")
        return None
    arena = pack_descriptor_arena([chunk])
    if arena.max_grid_levels > ARENA_MAX_GRID_LEVELS:
        return None
    cap = max(arena.max_chunk_total, 1)
    pos_cap = max(arena.max_pos_bound, 1)
    words = scratch_len(cap, pos_cap)
    scratch = np.empty(words, dtype=np.int64)
    outputs = [np.empty(cap, dtype=np.int64) for _ in range(6)]
    if split_passes is None:
        split_passes = SEGMENT_SPLIT_PASSES
    n_heads = kernel(
        arena.chunk_meta,
        0,
        arena.batch_meta,
        arena.bases,
        arena.counts,
        arena.first_pos,
        arena.grids,
        offset_bits,
        set_mask,
        split_passes,
        cap,
        pos_cap,
        scratch,
        words,
        *outputs,
    )
    if n_heads < 0:
        return None
    sets, lines, first_write, write_counts, head_orig, last_orig = (
        array[:n_heads] for array in outputs
    )
    return sets, lines, first_write.astype(bool), write_counts, head_orig, last_orig


def estimated_heads(chunk: DescriptorChunk, offset_bits: int) -> int:
    """Pre-explosion head count of a chunk, without building heads.

    Exact for plain batches; for grid batches the stored rows' head counts
    are scaled by the grid multiplicity (a replicated row shares its stored
    row's span up to one line of alignment shift), which keeps the estimate
    O(stored rows) instead of materialising the grid.
    """
    line_bytes = 1 << offset_bits
    total = 0
    for batch in chunk.batches:
        multiplicity = batch.grid_multiplicity
        if batch.stride == 0:
            total += int(batch.bases.size) * multiplicity
        elif abs(batch.stride) >= line_bytes:
            total += batch.total  # grid multiplicity already included
        else:
            counts = batch.run_counts()
            first = batch.bases >> offset_bits
            last = (batch.bases + (counts - 1) * batch.stride) >> offset_bits
            per_row = int(np.abs(last - first).sum()) + int(counts.size)
            total += per_row * multiplicity
    return total


def _batch_heads(batch, offset_bits: int):
    """Collapse one run batch to per-line heads in closed form.

    Returns ``(lines, run_len, head_orig)``.  A head's members sit at
    positions ``head_orig + k * batch.pos_stride`` for ``k < run_len`` (the
    position stride is uniform across a chunk's batches), so its last
    position is derivable and heads can later be exploded into exact
    singleton members.
    """
    line_bytes = 1 << offset_bits
    bases = batch.bases
    counts = batch.run_counts()
    stride = batch.stride
    pos_stride = batch.pos_stride
    if stride == 0:
        return bases >> offset_bits, counts, batch.run_first_pos()
    if abs(stride) < line_bytes:
        # The line sequence of a short-strided run is a monotone staircase:
        # every line between the first and last is touched, and the members
        # on each line form a closed-form index interval.
        first_line = bases >> offset_bits
        last_line = (bases + (counts - 1) * stride) >> offset_bits
        span = np.abs(last_line - first_line) + 1
        first_pos = batch.run_first_pos()
        if not (span > 1).any():
            return first_line, counts, first_pos  # every run fits one line
        rep = np.repeat(np.arange(bases.size, dtype=np.int64), span)
        j = _ragged_arange(span)
        base_rep = bases[rep]
        if stride > 0:
            line = first_line[rep] + j
            i_first = np.maximum(0, _ceil_div(line * line_bytes - base_rep, stride))
            i_last = np.minimum(
                counts[rep] - 1, ((line + 1) * line_bytes - 1 - base_rep) // stride
            )
        else:
            line = first_line[rep] - j
            i_first = np.maximum(
                0, _ceil_div((line + 1) * line_bytes - 1 - base_rep, stride)
            )
            i_last = np.minimum(counts[rep] - 1, (line * line_bytes - base_rep) // stride)
        return line, i_last - i_first + 1, first_pos[rep] + i_first * pos_stride
    # |stride| >= line size: every access is its own line; no collapse.
    if batch.counts is None:
        count = batch.uniform_count
        k = np.arange(count, dtype=np.int64)
        lines = ((bases[:, None] + stride * k) >> offset_bits).reshape(-1)
        positions = (batch.run_first_pos()[:, None] + pos_stride * k).reshape(-1)
    else:
        k = _ragged_arange(counts)
        lines = (np.repeat(bases, counts) + stride * k) >> offset_bits
        positions = np.repeat(batch.run_first_pos(), counts) + pos_stride * k
    return lines, np.ones(lines.size, dtype=np.int64), positions


def chunk_heads(chunk: DescriptorChunk, offset_bits: int, set_mask: int):
    """Build the collapsed, set-sorted head arrays of one descriptor chunk.

    Heads come out sorted by ``(set, position)`` — the order
    :meth:`VectorCacheState.process_heads` expects.  Grid batches
    are collapsed per innermost row: the replication levels are expanded
    transiently (one 1-D run per innermost row) and each row collapses to
    line heads in closed form; adjacent rows landing on the same line merge
    in the final same-(set, line) pass.  Closed-form collapse is exact only
    while no other line of the same set interleaves with a head's members,
    so conflicted heads — those whose position intervals overlap a
    *different-line* head of the same set — are **segment-split**: the run
    is cut at the overlap boundaries into at most three sub-runs (clean
    prefix, conflicted middle, clean suffix) and re-tested, and only
    remainders still irreducible after :data:`SEGMENT_SPLIT_PASSES` passes
    are exploded into singleton members.
    """
    parts = [_batch_heads(batch.degrid(), offset_bits) for batch in chunk.batches]
    n_parts = sum(part[0].size for part in parts)
    lines = np.empty(n_parts, dtype=np.int64)
    run_len = np.empty(n_parts, dtype=np.int64)
    head_orig = np.empty(n_parts, dtype=np.int64)
    first_write = np.empty(n_parts, dtype=bool)
    at = 0
    pos_stride = chunk.batches[0].pos_stride if chunk.batches else 1
    for batch, (part_lines, part_len, part_orig) in zip(chunk.batches, parts):
        stop = at + part_lines.size
        lines[at:stop] = part_lines
        run_len[at:stop] = part_len
        head_orig[at:stop] = part_orig
        first_write[at:stop] = batch.is_write
        at = stop

    bound = max(int(chunk.pos_bound), 1)
    collapsed_any = bool((run_len > 1).any())
    split_passes = SEGMENT_SPLIT_PASSES
    while True:  # splitting shrinks runs every pass; explosion then ends it
        order = _head_order(lines & set_mask, head_orig, bound, set_mask)
        lines = lines[order]
        run_len = run_len[order]
        head_orig = head_orig[order]
        first_write = first_write[order]
        sets = lines & set_mask
        if not collapsed_any:
            break

        n_heads = int(lines.size)
        key = sets * bound + head_orig
        last_key = key + (run_len - 1) * pos_stride
        interval_end = np.maximum.accumulate(last_key)
        clean = np.empty(n_heads, dtype=bool)
        clean[0] = True
        np.greater(key[1:], interval_end[:-1], out=clean[1:])
        if clean.all():
            break
        cluster_starts = np.flatnonzero(clean)
        cluster_of = np.cumsum(clean) - 1
        conflicted = (
            np.minimum.reduceat(lines, cluster_starts)
            != np.maximum.reduceat(lines, cluster_starts)
        )[cluster_of]
        target = conflicted & (run_len > 1)
        if not target.any():
            break  # conflicted heads are all singletons, which are exact
        cut = np.flatnonzero(target)
        if split_passes > 0:
            split_passes -= 1
            # Overlap bounds are needed only inside conflicted clusters —
            # typically a small fraction of the heads — so the reduceat
            # machinery runs on the compacted conflicted subset.
            sub = np.flatnonzero(conflicted)
            sub_clean = clean[sub]
            prefix_sub, suffix_sub = _split_lengths(
                key[sub],
                last_key[sub],
                run_len[sub],
                np.flatnonzero(sub_clean),
                np.cumsum(sub_clean) - 1,
                pos_stride,
            )
            position_in_sub = np.cumsum(conflicted) - 1
            cut_prefix = prefix_sub[position_in_sub[cut]]
            cut_suffix = suffix_sub[position_in_sub[cut]]
        else:
            cut_prefix = np.zeros(cut.size, dtype=np.int64)
            cut_suffix = cut_prefix
        # Members strictly before/after the foreign overlap stay collapsed
        # sub-runs; the covered middle is the irreducible remainder and is
        # exploded right away.  Every piece lies inside its head's original
        # interval, so the next pass finds the sub-runs clean (or conflicted
        # only with singletons) and the loop ends — like pure explosion, but
        # without materialising the clean prefix/suffix members.
        cut_middle = run_len[cut] - cut_prefix - cut_suffix
        keep = ~target
        pieces_lines = [lines[keep]]
        pieces_len = [run_len[keep]]
        pieces_orig = [head_orig[keep]]
        pieces_write = [first_write[keep]]
        for offset, length in (
            (np.zeros(cut.size, dtype=np.int64), cut_prefix),
            (run_len[cut] - cut_suffix, cut_suffix),
        ):
            alive = length > 0
            if not alive.any():
                continue
            pieces_lines.append(lines[cut][alive])
            pieces_len.append(length[alive])
            pieces_orig.append(head_orig[cut][alive] + offset[alive] * pos_stride)
            pieces_write.append(first_write[cut][alive])
        if cut_middle.any():
            rep = np.repeat(cut, cut_middle)
            k = _ragged_arange(cut_middle) + np.repeat(cut_prefix, cut_middle)
            pieces_lines.append(lines[rep])
            pieces_len.append(np.ones(rep.size, dtype=np.int64))
            pieces_orig.append(head_orig[rep] + k * pos_stride)
            pieces_write.append(first_write[rep])  # members share the head's flag
        lines = np.concatenate(pieces_lines)
        run_len = np.concatenate(pieces_len)
        head_orig = np.concatenate(pieces_orig)
        first_write = np.concatenate(pieces_write)
        collapsed_any = bool((run_len > 1).any())
    write_counts = run_len * first_write
    last_orig = head_orig + (run_len - 1) * pos_stride
    # Merge adjacent same-(set, line) heads: their members are consecutive
    # in the set timeline (any interposed different-line head would sit
    # between them in the sort, and post-explosion overlaps are same-line
    # only), so they form one collapsed run exactly like the expanded
    # path's maximal collapse.  This folds interleaved load/store pairs and
    # repeated zero-stride runs into single heads.
    same = np.zeros(lines.size, dtype=bool)
    if lines.size > 1:
        np.logical_and(sets[1:] == sets[:-1], lines[1:] == lines[:-1], out=same[1:])
    if same.any():
        starts = np.flatnonzero(~same)
        write_counts = np.add.reduceat(write_counts, starts)
        last_orig = np.maximum.reduceat(last_orig, starts)
        sets = sets[starts]
        lines = lines[starts]
        first_write = first_write[starts]
        head_orig = head_orig[starts]
    return sets, lines, first_write, write_counts, head_orig, last_orig


def _split_lengths(
    key: np.ndarray,
    last_key: np.ndarray,
    run_len: np.ndarray,
    cluster_starts: np.ndarray,
    cluster_of: np.ndarray,
    pos_stride: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-head clean prefix/suffix member counts within overlap clusters.

    For every head, the members strictly before the earliest start — and
    strictly after the latest end — of the *other* intervals of its cluster
    cannot have foreign members interleaved (every other head's members lie
    inside its own interval), so those sub-runs stay exactly collapsible.
    Exclusive minima/maxima are derived from the cluster's two smallest
    starts and two largest ends; using all other heads (not only
    different-line ones) is conservative — it can only over-split, never
    produce an inexact sub-run.
    """
    sentinel = np.iinfo(np.int64).max // 2
    min1 = np.minimum.reduceat(key, cluster_starts)
    at_min = key == min1[cluster_of]
    min_dup = np.add.reduceat(at_min.astype(np.int64), cluster_starts) > 1
    min2 = np.minimum.reduceat(np.where(at_min, sentinel, key), cluster_starts)
    other_start = np.where(
        at_min & ~min_dup[cluster_of], min2[cluster_of], min1[cluster_of]
    )
    max1 = np.maximum.reduceat(last_key, cluster_starts)
    at_max = last_key == max1[cluster_of]
    max_dup = np.add.reduceat(at_max.astype(np.int64), cluster_starts) > 1
    max2 = np.maximum.reduceat(np.where(at_max, -sentinel, last_key), cluster_starts)
    other_end = np.where(
        at_max & ~max_dup[cluster_of], max2[cluster_of], max1[cluster_of]
    )
    # Members sit at key + t * pos_stride for t < run_len; count those below
    # the exclusive-other start and above the exclusive-other end.
    prefix_len = np.clip(_ceil_div(other_start - key, pos_stride), 0, run_len)
    suffix_len = np.clip(run_len - 1 - (other_end - key) // pos_stride, 0, run_len)
    # Single-head clusters see sentinel bounds; they are never conflicted,
    # so their (nonsense) lengths are masked out by the caller.
    return prefix_len, suffix_len


def _head_order(head_sets: np.ndarray, head_orig: np.ndarray, pos_bound: int, set_mask: int):
    """Permutation sorting heads by ``(set, position)``.

    Positions are unique and bounded, so trace order is recovered with a
    counting scatter (two linear passes); the set grouping then uses the
    narrow-key stable radix argsort, mirroring the expanded path's sort.
    """
    if head_orig.size * 16 < pos_bound:
        by_pos = np.argsort(head_orig)
    else:
        slot_of = np.full(pos_bound, -1, dtype=np.int64)
        slot_of[head_orig] = np.arange(head_orig.size, dtype=np.int64)
        by_pos = slot_of[slot_of >= 0]
    sets_by_pos = head_sets[by_pos]
    if set_mask < (1 << 8):
        sort_key = sets_by_pos.astype(np.uint8)
    elif set_mask < (1 << 16):
        sort_key = sets_by_pos.astype(np.uint16)
    else:
        sort_key = sets_by_pos
    return by_pos[np.argsort(sort_key, kind="stable")]


@dataclass
class ChunkOutcome:
    """Statistics deltas and the forwarded stream of one processed chunk."""

    hits: int = 0
    read_hits: int = 0
    write_hits: int = 0
    read_misses: int = 0
    write_misses: int = 0
    read_replacements: int = 0
    write_replacements: int = 0
    writebacks: int = 0
    sequential_misses: int = 0
    last_miss_line: int = -2
    #: Fills and write-backs for the next level, in program order (fills are
    #: reads from below, write-backs are writes); ``None`` when nothing missed.
    forwarded_lines: Optional[np.ndarray] = None
    forwarded_writes: Optional[np.ndarray] = None


class VectorCacheState:
    """Array-based tag store and chunk processor for one cache level."""

    def __init__(self, sets: int, associativity: int, replacement: str, rng_seed: int = 0):
        self.policy = get_policy(replacement)
        self.policy.validate_geometry(associativity)
        self.sets = sets
        self.associativity = associativity
        self.replacement = replacement
        self.rng_seed = int(rng_seed)
        self._set_mask = sets - 1
        # Reusable scratch arrays, grown on demand and shared across chunks:
        # per-chunk allocation churn dominates on small-chunk workloads.
        # Views handed out by _buffer are only valid until the next request
        # for the same name; every consumer is within one chunk dispatch.
        self._buffers: dict = {}
        self.tags = np.full((sets, associativity), -1, dtype=np.int64)
        self.dirty = np.zeros((sets, associativity), dtype=bool)
        # Policy tick plane (last-use under LRU, insertion tick otherwise)
        # and the policy's aux plane (PLRU bits / RRIP counters / dummy).
        self.recency = np.zeros((sets, associativity), dtype=np.int64)
        self.aux = self.policy.new_aux_arrays(sets, associativity)
        self.occupancy = np.zeros(sets, dtype=np.int64)
        # Per-set eviction ordinals: the counter half of the replayable
        # random-replacement victim stream (maintained for every policy so
        # the kernel ABI stays uniform; only random consumes it).
        self.evictions = np.zeros(sets, dtype=np.int64)
        # Monotone global tick; pre-chunk ages are always strictly smaller
        # than the ticks assigned inside the next chunk.
        self._tick = 1

    def _buffer(self, name: str, size: int, dtype) -> np.ndarray:
        """A reusable scratch view of at least ``size`` elements.

        Contents are undefined on return; callers initialise what they use.
        The backing array is kept on the state and grown geometrically, so
        steady-state chunk processing performs no scratch allocations.
        """
        backing = self._buffers.get(name)
        if backing is None or backing.size < size:
            grown = max(size, 64, 2 * (backing.size if backing is not None else 0))
            backing = np.empty(grown, dtype=dtype)
            self._buffers[name] = backing
        return backing[:size]

    # -- native arena path --------------------------------------------------
    def process_descriptor_arena(
        self, arena: DescriptorArena, offset_bits: int, last_miss_line: int
    ) -> Optional[ChunkOutcome]:
        """Process a whole packed descriptor arena in one native call.

        Runs the compiled head pipeline, the LRU stack-distance
        pre-resolution and the event walk for every chunk of ``arena``
        without returning to Python in between, and returns the aggregated
        :class:`ChunkOutcome` (forwarded stream in program order, ready for
        the next level in one batch).  Returns ``None`` when the batch
        kernel is unavailable or the arena exceeds its grid-depth limit —
        callers fall back to the bit-identical per-chunk path.

        The outcome's forwarded arrays are views of reused scratch: they
        are only valid until the next arena is processed, which matches
        their single consumer (the owning cache forwards them immediately).
        """
        kernel = descriptor_batch_kernel()
        if kernel is None or arena.max_grid_levels > ARENA_MAX_GRID_LEVELS:
            return None
        if faults.should_inject("native_fault"):
            # Demote *before* the kernel mutates the tag store: the caller
            # falls back to the per-chunk path on the untouched state, so
            # statistics stay bit-identical.
            demote_native("injected fault at site 'native_fault' (batch driver)")
            return None
        pool = _ARENA_SCRATCH
        cap = max(arena.max_chunk_total, 1)
        pos_cap = max(arena.max_pos_bound, 1)
        # The carve is monotone in (cap, pos_cap): growing either only when
        # the current layout is too small keeps re-initialisation (and the
        # page faults of a fresh block) a once-per-growth event.
        if pool.layout is not None:
            cap = max(cap, pool.layout[0])
            pos_cap = max(pos_cap, pool.layout[1])
        words = scratch_len(cap, pos_cap)
        init_tables = pool.buffer is None or pool.layout != (cap, pos_cap)
        if pool.buffer is None or pool.buffer.size < words:
            pool.buffer = np.empty(words, dtype=np.int64)
            init_tables = True
        if init_tables:
            pool.layout = (cap, pos_cap)
            pool.stamp = 0
        bound = 2 * arena.total
        if pool.forwarded_lines is None or pool.forwarded_lines.size < bound:
            pool.forwarded_lines = np.empty(bound, dtype=np.int64)
            pool.forwarded_writes = np.empty(bound, dtype=np.bool_)
        forwarded_lines = pool.forwarded_lines
        forwarded_writes = pool.forwarded_writes
        stats = np.zeros(BATCH_STATS_SLOTS, dtype=np.int64)
        n_forwarded = kernel(
            arena.n_chunks,
            arena.chunk_meta,
            arena.batch_meta,
            arena.bases,
            arena.counts,
            arena.first_pos,
            arena.grids,
            offset_bits,
            self.sets,
            self.associativity,
            self.policy.wire_id,
            self.rng_seed & _MASK64,
            SEGMENT_SPLIT_PASSES,
            round(DESCRIPTOR_HEAD_FRACTION * 1000),
            cap,
            pos_cap,
            1 if init_tables else 0,
            pool.stamp,
            self._tick,
            last_miss_line,
            self.tags,
            self.dirty,
            self.recency,
            self.aux,
            self.occupancy,
            self.evictions,
            pool.buffer,
            pool.buffer.size,
            stats,
            forwarded_lines,
            forwarded_writes,
        )
        if n_forwarded < 0:  # cannot happen with pack-validated arenas
            raise RuntimeError(f"native descriptor batch failed ({n_forwarded})")
        pool.stamp = int(stats[12])
        self._tick = int(stats[10])
        outcome = ChunkOutcome(
            hits=int(stats[0]),
            read_hits=int(stats[1]),
            write_hits=int(stats[2]),
            read_misses=int(stats[3]),
            write_misses=int(stats[4]),
            read_replacements=int(stats[5]),
            write_replacements=int(stats[6]),
            writebacks=int(stats[7]),
            sequential_misses=int(stats[8]),
            last_miss_line=int(stats[9]),
        )
        if n_forwarded:
            outcome.forwarded_lines = forwarded_lines[:n_forwarded]
            outcome.forwarded_writes = forwarded_writes[:n_forwarded]
        return outcome

    # -- introspection ------------------------------------------------------
    def resident_lines(self) -> int:
        """Number of valid lines currently resident."""
        return int(self.occupancy.sum())

    def contains_line(self, line: int) -> bool:
        """Whether ``line`` is resident."""
        set_index = line & self._set_mask
        occupancy = int(self.occupancy[set_index])
        return bool((self.tags[set_index, :occupancy] == line).any())

    # -- scalar paths -------------------------------------------------------
    def _scalar_event(
        self,
        set_index: int,
        line: int,
        dirty_value: bool,
        age_value: int,
        retouch: bool = False,
    ) -> Tuple[bool, int, bool]:
        """Process one access sequentially on the array state.

        Returns ``(hit, victim_line, victim_was_dirty)`` with ``victim_line``
        ``-1`` when no valid line was evicted.  Victim selection and the
        touch/insert rule come from the policy's scalar hooks, which operate
        on this state's arrays directly.  ``retouch`` marks an event standing
        for a collapsed multi-access run (see :meth:`PolicySpec.touch`).
        """
        tags = self.tags
        occupancy = int(self.occupancy[set_index])
        row = tags[set_index]
        way = -1
        for candidate in range(occupancy):
            if row[candidate] == line:
                way = candidate
                break
        spec = self.policy
        if way >= 0:
            if dirty_value:
                self.dirty[set_index, way] = True
            spec.touch(self, set_index, way, age_value, True, retouch)
            return True, -1, False
        victim_line = -1
        victim_dirty = False
        if occupancy < self.associativity:
            way = occupancy
            self.occupancy[set_index] = occupancy + 1
        else:
            way = spec.victim_way(self, set_index)
            victim_line = int(row[way])
            victim_dirty = bool(self.dirty[set_index, way])
        tags[set_index, way] = line
        self.dirty[set_index, way] = dirty_value
        spec.touch(self, set_index, way, age_value, False, retouch)
        return False, victim_line, victim_dirty

    def _process_scalar_chunk(
        self, lines: np.ndarray, is_write: np.ndarray, last_miss_line: int
    ) -> ChunkOutcome:
        """Reference-order scalar loop over the array state (small chunks)."""
        outcome = ChunkOutcome(last_miss_line=last_miss_line)
        forwarded: List[int] = []
        flags: List[bool] = []
        tick = self._tick
        for line, write in zip(lines.tolist(), is_write.tolist()):
            set_index = line & self._set_mask
            hit, victim_line, victim_dirty = self._scalar_event(set_index, line, write, tick)
            tick += 1
            if hit:
                outcome.hits += 1
                if write:
                    outcome.write_hits += 1
                else:
                    outcome.read_hits += 1
                continue
            if write:
                outcome.write_misses += 1
            else:
                outcome.read_misses += 1
            if line == outcome.last_miss_line + 1:
                outcome.sequential_misses += 1
            outcome.last_miss_line = line
            forwarded.append(line)
            flags.append(False)
            if victim_line >= 0:
                if write:
                    outcome.write_replacements += 1
                else:
                    outcome.read_replacements += 1
                if victim_dirty:
                    outcome.writebacks += 1
                    forwarded.append(victim_line)
                    flags.append(True)
        self._tick = tick
        if forwarded:
            outcome.forwarded_lines = np.asarray(forwarded, dtype=np.int64)
            outcome.forwarded_writes = np.asarray(flags, dtype=bool)
        return outcome

    # -- vectorized chunk path ---------------------------------------------
    def process_chunk(
        self, lines: np.ndarray, is_write: np.ndarray, last_miss_line: int
    ) -> ChunkOutcome:
        """Process one in-order chunk of line addresses; see the module docs."""
        n = int(lines.size)
        if n == 0:
            return ChunkOutcome(last_miss_line=last_miss_line)
        if n < SCALAR_CHUNK_CUTOFF:
            return self._process_scalar_chunk(lines, is_write, last_miss_line)

        set_idx = lines & self._set_mask
        # Stable integer argsort is a radix sort with one pass per key byte;
        # set indices fit one or two bytes, so narrowing the key dtype cuts
        # the dominant sort cost to 1-2 passes.
        if self.sets <= (1 << 8):
            sort_key = set_idx.astype(np.uint8)
        elif self.sets <= (1 << 16):
            sort_key = set_idx.astype(np.uint16)
        else:
            sort_key = set_idx
        perm = np.argsort(sort_key, kind="stable")
        sorted_lines = lines[perm]
        sorted_sets = set_idx[perm]
        sorted_writes = is_write[perm]

        # 2. collapse consecutive same-line runs within each set group
        head_flag = self._buffer("head_flag", n, np.bool_)
        head_flag[0] = True
        np.logical_or(
            sorted_lines[1:] != sorted_lines[:-1],
            sorted_sets[1:] != sorted_sets[:-1],
            out=head_flag[1:],
        )
        head_pos = np.flatnonzero(head_flag)
        n_heads = int(head_pos.size)
        head_lines = sorted_lines[head_pos]
        head_sets = sorted_sets[head_pos]
        first_write = sorted_writes[head_pos]
        run_writes = np.add.reduceat(sorted_writes.astype(np.int64), head_pos)
        run_len = self._buffer("run_len", n_heads, np.int64)
        if n_heads > 1:
            run_len[:-1] = np.diff(head_pos)
        run_len[-1] = n - head_pos[-1]
        head_orig = perm[head_pos]
        last_orig = perm[head_pos + run_len - 1]
        return self.process_heads(
            n, n, head_sets, head_lines, first_write, run_writes, head_orig, last_orig,
            last_miss_line,
        )

    def process_heads(
        self,
        n: int,
        tick_span: int,
        head_sets: np.ndarray,
        head_lines: np.ndarray,
        first_write: np.ndarray,
        write_counts: np.ndarray,
        head_orig: np.ndarray,
        last_orig: np.ndarray,
        last_miss_line: int,
    ) -> ChunkOutcome:
        """Steps 3–5 of the chunk algorithm on collapsed head arrays.

        Heads must be sorted by set with trace order preserved inside each
        set, as :meth:`process_chunk` and :func:`chunk_heads` build them;
        every head stands for ``write_counts``-aggregated consecutive
        accesses to one line whose first access carries ``first_write`` and
        sits at chunk position ``head_orig`` (last at ``last_orig``).  ``n``
        counts the accesses the heads describe and ``tick_span`` is the
        chunk's exclusive position bound (descriptor chunk positions are
        uncompacted, so it can exceed ``n``).
        """
        assoc = self.associativity
        n_heads = int(head_sets.size)
        any_write = write_counts > 0

        # 3. re-touch pre-resolution: group heads by (set, line) and fold
        # guaranteed-hit re-touches into chains (see the module docs).  Only
        # exact-stack policies (LRU) can guarantee the re-touch hit.
        if self.policy.exact_stack:
            group_perm = np.lexsort((head_lines, head_sets))
            grouped_sets = head_sets[group_perm]
            grouped_lines = head_lines[group_perm]
            group_flag = np.empty(n_heads, dtype=bool)
            group_flag[0] = True
            np.logical_or(
                grouped_sets[1:] != grouped_sets[:-1],
                grouped_lines[1:] != grouped_lines[:-1],
                out=group_flag[1:],
            )
            group_start = np.flatnonzero(group_flag)
            # Rank of each head inside its set (heads are set-sorted).
            set_flag = np.empty(n_heads, dtype=bool)
            set_flag[0] = True
            np.not_equal(head_sets[1:], head_sets[:-1], out=set_flag[1:])
            set_starts = np.flatnonzero(set_flag)
            rank = np.arange(n_heads, dtype=np.int64) - set_starts[np.cumsum(set_flag) - 1]
            # A re-touch with at most `assoc` ranks since the previous head
            # of its line has seen < assoc distinct other lines in between:
            # its stack distance is below the associativity, so it is a
            # guaranteed hit.  Chunk-compliant sets (<= assoc distinct lines
            # in the whole chunk) pre-resolve every re-touch regardless.
            grouped_rank = rank[group_perm]
            gap_ok = np.zeros(n_heads, dtype=bool)
            if n_heads > 1:
                gap_ok[1:] = grouped_rank[1:] - grouped_rank[:-1] <= assoc
            distinct_per_set = np.bincount(grouped_sets[group_start], minlength=self.sets)
            compliant = (distinct_per_set <= assoc)[grouped_sets]
            follower = ~group_flag & (compliant | gap_ok)
            chain_flag = ~follower
            chain_start = np.flatnonzero(chain_flag)
            chain_of = np.cumsum(chain_flag) - 1
            chain_any_write = (
                np.add.reduceat(any_write[group_perm].astype(np.int64), chain_start) > 0
            )
            chain_last = np.maximum.reduceat(last_orig[group_perm], chain_start)
            event_mask = np.empty(n_heads, dtype=bool)
            event_mask[group_perm] = chain_flag
            dirty_value = np.empty(n_heads, dtype=bool)
            dirty_value[group_perm] = chain_any_write[chain_of]
            age_value = np.empty(n_heads, dtype=np.int64)
            age_value[group_perm] = chain_last[chain_of]
            # Re-touches are folded into chains; chain heads never need the
            # collapsed-run promotion flag (LRU re-touches only move ticks,
            # which ``age_value`` already carries).
            retouch_value = np.zeros(n_heads, dtype=bool)
        else:
            # Policies without exact stack gating (FIFO ignores recency, a
            # random/PLRU/RRIP victim can be any line): a re-touch is not a
            # guaranteed hit, so every head is an event.  The tick records
            # insertion order only.  Multi-member heads carry the retouch
            # flag so policies whose hit rule is not idempotent with the
            # fill (RRIP's promotion) still land on the reference state.
            event_mask = np.ones(n_heads, dtype=bool)
            dirty_value = any_write
            age_value = head_orig
            retouch_value = last_orig > head_orig

        event_pos = np.flatnonzero(event_mask)
        n_events = int(event_pos.size)
        event_sets = head_sets[event_pos]
        event_lines = head_lines[event_pos]
        event_dirty = dirty_value[event_pos]
        event_age = age_value[event_pos] + self._tick
        event_retouch = retouch_value[event_pos]
        event_orig = head_orig[event_pos]
        # Event outcome arrays come from the reusable scratch pool: they are
        # consumed below (statistics + forwarded stream) before this method
        # returns, and per-chunk allocation churn dominates on small chunks.
        hit_out = self._buffer("hit_out", n_events, np.bool_)
        hit_out[:] = False
        victim_line = self._buffer("victim_line", n_events, np.int64)
        victim_line[:] = -1
        victim_wb = self._buffer("victim_wb", n_events, np.bool_)
        victim_wb[:] = False

        if n_events:
            self._run_events(
                event_sets, event_lines, event_dirty, event_age, event_retouch,
                hit_out, victim_line, victim_wb,
            )
        self._tick += tick_span

        # 5. statistics and the forwarded stream, in program order
        outcome = ChunkOutcome(last_miss_line=last_miss_line)
        followers_writes = int(write_counts.sum()) - int(np.count_nonzero(first_write))
        event_first_write = first_write[event_pos]
        miss_out = ~hit_out
        n_misses = int(np.count_nonzero(miss_out))
        write_misses = int(np.count_nonzero(miss_out & event_first_write))
        event_write_hits = int(np.count_nonzero(hit_out & event_first_write))
        head_write = int(np.count_nonzero(first_write))
        # Pre-resolved re-touch heads are hits; attribute them by their own flag.
        resolved_write_hits = head_write - int(np.count_nonzero(event_first_write))
        outcome.hits = n - n_misses
        outcome.write_hits = followers_writes + event_write_hits + resolved_write_hits
        outcome.read_hits = outcome.hits - outcome.write_hits
        outcome.write_misses = write_misses
        outcome.read_misses = n_misses - write_misses
        replaced = miss_out & (victim_line >= 0)
        outcome.write_replacements = int(np.count_nonzero(replaced & event_first_write))
        outcome.read_replacements = int(np.count_nonzero(replaced)) - outcome.write_replacements
        outcome.writebacks = int(np.count_nonzero(victim_wb))

        if n_misses:
            trace_order = np.argsort(event_orig[miss_out])
            miss_lines = event_lines[miss_out][trace_order]
            outcome.sequential_misses = int(np.count_nonzero(miss_lines[1:] == miss_lines[:-1] + 1))
            if miss_lines[0] == last_miss_line + 1:
                outcome.sequential_misses += 1
            outcome.last_miss_line = int(miss_lines[-1])

            writeback = victim_wb[miss_out][trace_order]
            victims = victim_line[miss_out][trace_order]
            total_forwarded = n_misses + int(np.count_nonzero(writeback))
            forwarded = np.empty(total_forwarded, dtype=np.int64)
            flags = np.zeros(total_forwarded, dtype=bool)
            slots = np.zeros(n_misses, dtype=np.int64)
            np.cumsum(1 + writeback[:-1], out=slots[1:])
            forwarded[slots] = miss_lines
            wb_slots = slots[writeback] + 1
            forwarded[wb_slots] = victims[writeback]
            flags[wb_slots] = True
            outcome.forwarded_lines = forwarded
            outcome.forwarded_writes = flags
        return outcome

    def _run_events(
        self,
        event_sets: np.ndarray,
        event_lines: np.ndarray,
        event_dirty: np.ndarray,
        event_age: np.ndarray,
        event_retouch: np.ndarray,
        hit_out: np.ndarray,
        victim_line: np.ndarray,
        victim_wb: np.ndarray,
    ) -> None:
        """Rank rounds over per-set event chains (events are sorted by set).

        When the compiled kernel of :mod:`repro.sim._native` is available the
        whole phase runs as one foreign call instead (bit-identical, no
        per-round dispatch cost, GIL released).
        """
        kernel = event_kernel()
        if kernel is not None and faults.should_inject("native_fault"):
            # The NumPy rank rounds below consume the same event arrays and
            # mutate the same state, so demotion here is invisible in the
            # statistics.
            demote_native("injected fault at site 'native_fault' (event walk)")
            kernel = None
        if kernel is not None:
            kernel(
                event_sets.size,
                np.ascontiguousarray(event_sets),
                np.ascontiguousarray(event_lines),
                np.ascontiguousarray(event_dirty),
                np.ascontiguousarray(event_age),
                np.ascontiguousarray(event_retouch),
                hit_out,
                victim_line,
                victim_wb,
                self.associativity,
                self.policy.wire_id,
                self.rng_seed & _MASK64,
                self.tags,
                self.dirty,
                self.recency,
                self.aux,
                self.occupancy,
                self.evictions,
            )
            return
        n_events = int(event_sets.size)
        boundary = np.empty(n_events, dtype=bool)
        boundary[0] = True
        np.not_equal(event_sets[1:], event_sets[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        sizes = np.empty(starts.size, dtype=np.int64)
        if starts.size > 1:
            sizes[:-1] = np.diff(starts)
        sizes[-1] = n_events - starts[-1]
        by_size = np.argsort(-sizes, kind="stable")
        starts_desc = starts[by_size]
        neg_sizes = -sizes[by_size]  # ascending

        tags, dirty = self.tags, self.dirty
        occupancy = self.occupancy
        spec = self.policy
        assoc = self.associativity
        rounds = int(sizes[by_size[0]])
        lanes = np.arange(min(int(starts.size), n_events))
        round_index = 0
        while round_index < rounds:
            # groups still alive in this round have size > round_index
            width = int(np.searchsorted(neg_sizes, -round_index, side="left"))
            if width < ROUND_WIDTH_CUTOFF:
                break
            idx = starts_desc[:width] + round_index
            sel = event_sets[idx]
            line = event_lines[idx]
            rows = tags[sel]
            match = rows == line[:, None]
            hit = match.any(axis=1)
            way_hit = match.argmax(axis=1)
            occ_sel = occupancy[sel]
            full = occ_sel == assoc
            miss = ~hit
            evicting = miss & full
            # Lanes are distinct sets, so the policy's vectorized hooks see
            # one independent set per lane (victim state mutations — random
            # eviction ordinals, RRIP aging — apply to evicting lanes only).
            victim_way = spec.vector_victims(self, sel, evicting)
            way = np.where(hit, way_hit, np.where(full, victim_way, occ_sel))
            evicted = rows[lanes[:width], way]
            hit_out[idx] = hit
            victim_line[idx] = np.where(evicting, evicted, -1)
            victim_wb[idx] = evicting & dirty[sel, way]
            tags[sel, way] = line
            dirty[sel, way] = (dirty[sel, way] & hit) | event_dirty[idx]
            spec.vector_touch(self, sel, way, hit, miss, event_age[idx], event_retouch[idx])
            occupancy[sel] = occ_sel + (miss & ~full)
            round_index += 1

        if round_index < rounds:
            # Chain tail: the few sets whose event chains outlive the wide
            # rounds (intra-chunk same-set dependency runs) are finished by
            # an ordered-list walk at reference-loop speed.
            remaining = int(np.searchsorted(neg_sizes, -round_index, side="left"))
            for lane in range(remaining):
                start = int(starts_desc[lane]) + round_index
                stop = int(starts_desc[lane]) - int(neg_sizes[lane])
                self._scalar_chain(
                    int(event_sets[start]),
                    event_lines[start:stop].tolist(),
                    event_dirty[start:stop].tolist(),
                    event_age[start:stop].tolist(),
                    event_retouch[start:stop].tolist(),
                    start,
                    hit_out,
                    victim_line,
                    victim_wb,
                )

    def _scalar_chain(
        self,
        set_index: int,
        chain_lines: list,
        chain_dirty: list,
        chain_age: list,
        chain_retouch: list,
        out_offset: int,
        hit_out: np.ndarray,
        victim_line: np.ndarray,
        victim_wb: np.ndarray,
    ) -> None:
        """Walk one set's remaining event chain through the scalar event path.

        Each event runs :meth:`_scalar_event`, so victim selection and the
        touch/insert rule come from the same policy hooks as every other
        path.  Chain heads may carry aggregated last-touch ticks that
        postdate later events of the same set; ticks stay unique within a
        set, so tick-based victim selection stays deterministic.
        """
        for position, (line, dirty_value, tick, retouch) in enumerate(
            zip(chain_lines, chain_dirty, chain_age, chain_retouch)
        ):
            hit, evicted_line, evicted_dirty = self._scalar_event(
                set_index, line, dirty_value, tick, retouch
            )
            if hit:
                hit_out[out_offset + position] = True
            elif evicted_line >= 0:
                victim_line[out_offset + position] = evicted_line
                victim_wb[out_offset + position] = evicted_dirty
