"""Abstract instruction programs: the executable artefact of code generation.

A :class:`Program` is a tree of :class:`Loop`, :class:`Guard` and
:class:`Block` nodes.  Each block records the instruction mix of one innermost
iteration and the memory references it performs, expressed as affine access
descriptors over the enclosing loop variables.  From this representation the
simulator derives exact instruction counts analytically and generates the
memory reference trace either as materialised address chunks
(:meth:`Program.memory_trace`) or as compressed affine run descriptors
(:meth:`Program.memory_trace_descriptors`) that the vectorized cache engine
consumes without ever expanding the address stream.

Descriptors are multi-level **grid run batches** ``(base, strides[],
counts[])``: the innermost level is a run of consecutive accesses (the
affine window), and each outer level replicates the stored runs across one
predicate-free loop variable, so a tiled inner window nested under outer
loops is a single descriptor instead of one stored run per window.  Only
the digit combinations of loop variables that appear in some predicate are
enumerated as stored runs — their windows clip differently — which keeps
guarded and padded accesses compressed too.  See :class:`AccessRunBatch`
and :class:`_AccessRunPlan` for the exact layout and emission rules.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codegen.isa import InstructionCategory as IC
from repro.codegen.target import Target

#: Maximum number of points enumerated exactly when computing the fraction of
#: iterations that satisfy a predicate; larger domains are sampled.
_MAX_ENUMERATION = 1 << 20


# ---------------------------------------------------------------------------
# buffers and access descriptors
# ---------------------------------------------------------------------------


@dataclass
class Buffer:
    """A contiguous memory region backing one tensor."""

    name: str
    size_bytes: int
    element_bytes: int
    base_address: int = 0

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this buffer."""
        return self.base_address <= address < self.base_address + self.size_bytes


@dataclass
class LinearPredicate:
    """An affine predicate ``sum(coeff_i * var_i) + const  OP  0``."""

    coeffs: Dict[str, int]
    const: int
    op: str  # one of lt, le, gt, ge, eq, ne

    _OPS = {
        "lt": np.less,
        "le": np.less_equal,
        "gt": np.greater,
        "ge": np.greater_equal,
        "eq": np.equal,
        "ne": np.not_equal,
    }

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown predicate operator {self.op!r}")

    def variables(self) -> Tuple[str, ...]:
        """Loop variables referenced by the predicate."""
        return tuple(sorted(self.coeffs))

    def evaluate(self, env: Dict[str, np.ndarray]) -> np.ndarray:
        """Evaluate the predicate for vectors of loop-variable values."""
        value: Union[int, np.ndarray] = self.const
        for var, coeff in self.coeffs.items():
            value = value + coeff * env[var]
        return self._OPS[self.op](value, 0)


def predicate_fraction(
    predicates: Sequence[LinearPredicate],
    extents: Dict[str, int],
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Fraction of iterations satisfying *all* ``predicates``.

    The involved loop variables are enumerated exactly when the joint domain
    is small, otherwise a fixed-size uniform sample is used.
    """
    if not predicates:
        return 1.0
    variables = sorted({v for p in predicates for v in p.coeffs})
    if not variables:
        env0 = {v: np.zeros(1, dtype=np.int64) for v in variables}
        mask = np.ones(1, dtype=bool)
        for pred in predicates:
            mask &= pred.evaluate(env0)
        return float(mask[0])
    sizes = []
    for var in variables:
        if var not in extents:
            raise KeyError(f"predicate references unknown loop variable {var!r}")
        sizes.append(extents[var])
    total = 1
    for size in sizes:
        total *= size
    if total <= _MAX_ENUMERATION:
        flat = np.arange(total, dtype=np.int64)
        env = _unflatten(flat, variables, sizes)
    else:
        rng = rng or np.random.default_rng(0)
        flat = rng.integers(0, total, size=_MAX_ENUMERATION, dtype=np.int64)
        env = _unflatten(flat, variables, sizes)
    mask = np.ones(flat.shape, dtype=bool)
    for pred in predicates:
        mask &= pred.evaluate(env)
    return float(mask.mean())


def _unflatten(
    flat: np.ndarray, variables: Sequence[str], sizes: Sequence[int]
) -> Dict[str, np.ndarray]:
    env: Dict[str, np.ndarray] = {}
    divisor = np.ones_like(flat)
    for var, size in zip(reversed(list(variables)), reversed(list(sizes))):
        env[var] = (flat // divisor) % size
        divisor = divisor * size
    return env


@dataclass
class MemoryAccess:
    """One memory reference of a block, affine in the enclosing loop variables.

    The referenced element index is ``const + sum(coeff_i * var_i)``; the byte
    address adds the buffer base and scales by the element size.  ``width``
    is the number of contiguous elements touched (``> 1`` for vector
    accesses); ``gather_stride`` > 0 marks a strided gather/scatter of
    ``width`` elements.  ``predicates`` restrict the iterations on which the
    access actually happens (padding selects, split guards and
    register-promotion of loop-invariant references).
    """

    buffer: Buffer
    coeffs: Dict[str, int]
    const: int
    is_store: bool
    width: int = 1
    gather_stride: int = 0
    predicates: List[LinearPredicate] = field(default_factory=list)
    #: Extra instructions charged per performed access (address arithmetic).
    extra_counts: Dict[str, float] = field(default_factory=dict)

    @property
    def category(self) -> str:
        """Instruction category of the access."""
        if self.width > 1 and self.gather_stride == 0:
            return IC.VEC_STORE if self.is_store else IC.VEC_LOAD
        return IC.STORE if self.is_store else IC.LOAD

    def instructions_per_access(self) -> float:
        """Number of memory instructions issued each time the access executes."""
        if self.gather_stride > 0:
            return float(self.width)
        return 1.0

    def addresses_per_access(self) -> int:
        """Number of distinct addresses emitted into the trace per execution."""
        if self.gather_stride > 0:
            return self.width
        return 1


# ---------------------------------------------------------------------------
# compressed trace descriptors
# ---------------------------------------------------------------------------


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without a Python loop."""
    total = int(counts.sum())
    out = np.arange(total, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    out -= np.repeat(starts, counts)
    return out


@dataclass
class AccessRunBatch:
    """A batch of affine access runs sharing one stride and write flag.

    Run ``r`` touches byte addresses ``bases[r] + k * stride`` for
    ``k in range(counts[r])`` at trace positions
    ``first_pos[r] + k * pos_stride``.  Positions are *uncompacted* slots of
    the enclosing chunk (``iteration * slots_per_iteration + slot``): gaps
    where other accesses or predicated-out iterations sit are deliberate —
    the cache engine only relies on their relative order.

    Regular batches (the common, unclipped case) store the per-run count and
    position lattice as three scalars instead of two arrays
    (``uniform_count``, ``first_pos_start``, ``first_pos_step``); use
    :meth:`run_counts` / :meth:`run_first_pos` to materialise either form.

    **Grid batches** add replication levels on top of the stored runs: with
    ``grid_strides`` / ``grid_counts`` / ``grid_pos_strides`` set (parallel
    ``(L,)`` arrays, outer level first), every stored run is replicated once
    per grid point ``d = (d_0, …, d_{L-1})``, ``d_l in range(grid_counts[l])``,
    shifted by ``sum(grid_strides[l] * d_l)`` bytes and
    ``sum(grid_pos_strides[l] * d_l)`` trace positions.  A tiled inner window
    nested under outer loops is thereby one descriptor ``(base, strides[],
    counts[])`` instead of one run per window: the stored runs enumerate only
    the predicate-affected digit combinations, and every predicate-free loop
    variable becomes a grid level.  :meth:`degrid` expands the levels back to
    an equivalent plain run batch (the engine does this transiently, per
    innermost row, when collapsing to line heads).
    """

    bases: np.ndarray  # (R,) int64 byte address of each run's first access
    stride: int  # byte stride between consecutive accesses of a run
    pos_stride: int  # trace-position stride between consecutive accesses
    is_write: bool
    counts: Optional[np.ndarray] = None  # (R,) int64 accesses per run, all > 0
    first_pos: Optional[np.ndarray] = None  # (R,) int64 position of each run's first access
    uniform_count: int = 0  # scalar form of ``counts``
    first_pos_start: int = 0  # scalar form of ``first_pos``: start + r * step
    first_pos_step: int = 0
    grid_strides: Optional[np.ndarray] = None  # (L,) int64 byte stride per level
    grid_counts: Optional[np.ndarray] = None  # (L,) int64 grid points per level, all > 1
    grid_pos_strides: Optional[np.ndarray] = None  # (L,) int64 position stride per level

    @property
    def grid_multiplicity(self) -> int:
        """Number of grid points each stored run is replicated over."""
        if self.grid_counts is None:
            return 1
        multiplicity = 1
        for count in self.grid_counts.tolist():
            multiplicity *= count
        return multiplicity

    @property
    def total(self) -> int:
        """Number of accesses described by the batch."""
        if self.counts is not None:
            base = int(self.counts.sum())
        else:
            base = self.uniform_count * int(self.bases.size)
        return base * self.grid_multiplicity

    def run_counts(self) -> np.ndarray:
        """Per-run access counts of the stored runs, materialised."""
        if self.counts is not None:
            return self.counts
        return np.full(self.bases.size, self.uniform_count, dtype=np.int64)

    def run_first_pos(self) -> np.ndarray:
        """Per-run first trace positions of the stored runs, materialised."""
        if self.first_pos is not None:
            return self.first_pos
        return self.first_pos_start + self.first_pos_step * np.arange(
            self.bases.size, dtype=np.int64
        )

    def degrid(self) -> "AccessRunBatch":
        """An equivalent batch with the grid levels expanded into runs.

        Each stored run appears once per grid point, shifted by the level
        offsets; the result describes bit-identical members.  Plain batches
        return ``self`` unchanged.  The expansion is cached on the batch
        (batches are immutable once emitted), so repeated consumers — the
        engine collapses heads once per cache level walk — pay it once;
        callers must treat the result as read-only.
        """
        if self.grid_counts is None:
            return self
        cached = getattr(self, "_degrid_cache", None)
        if cached is not None:
            return cached
        offset_addr = np.zeros(1, dtype=np.int64)
        offset_pos = np.zeros(1, dtype=np.int64)
        for stride, count, pos_stride in zip(
            self.grid_strides.tolist(),
            self.grid_counts.tolist(),
            self.grid_pos_strides.tolist(),
        ):
            k = np.arange(count, dtype=np.int64)
            offset_addr = (offset_addr[:, None] + stride * k[None, :]).reshape(-1)
            offset_pos = (offset_pos[:, None] + pos_stride * k[None, :]).reshape(-1)
        flat = AccessRunBatch(
            bases=(offset_addr[:, None] + self.bases[None, :]).reshape(-1),
            stride=self.stride,
            pos_stride=self.pos_stride,
            is_write=self.is_write,
            first_pos=(offset_pos[:, None] + self.run_first_pos()[None, :]).reshape(-1),
        )
        if self.counts is None:
            flat.uniform_count = self.uniform_count
        else:
            flat.counts = np.tile(self.counts, offset_addr.size)
        self._degrid_cache = flat
        return flat

    def member_addresses(self) -> Tuple[np.ndarray, np.ndarray]:
        """Expand to per-access ``(addresses, positions)`` arrays."""
        if self.grid_counts is not None:
            return self.degrid().member_addresses()
        counts = self.run_counts()
        k = _ragged_arange(counts)
        addresses = np.repeat(self.bases, counts) + self.stride * k
        positions = np.repeat(self.run_first_pos(), counts) + self.pos_stride * k
        return addresses, positions

    def nbytes(self) -> int:
        """Storage footprint of the descriptor arrays."""
        size = self.bases.nbytes
        for array in (
            self.counts,
            self.first_pos,
            self.grid_strides,
            self.grid_counts,
            self.grid_pos_strides,
        ):
            if array is not None:
                size += array.nbytes
        return size


@dataclass
class DescriptorChunk:
    """One trace chunk as compressed affine run batches.

    ``total`` counts the accesses actually performed; ``pos_bound`` is an
    exclusive upper bound on every trace position in the chunk (positions are
    uncompacted, so ``pos_bound >= total``).  Every access is a member of
    one of ``batches``: predicates fold into per-window interval clipping and
    truncation clips run batches analytically, so no access ever needs a
    materialised address.
    """

    total: int
    pos_bound: int
    batches: List[AccessRunBatch] = field(default_factory=list)

    def expand(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialise the chunk as ``(addresses, is_write)`` in trace order.

        The result is bit-identical to the corresponding
        :meth:`Program.memory_trace` chunk.
        """
        parts_addr: List[np.ndarray] = []
        parts_pos: List[np.ndarray] = []
        parts_write: List[np.ndarray] = []
        for batch in self.batches:
            addresses, positions = batch.member_addresses()
            parts_addr.append(addresses)
            parts_pos.append(positions)
            parts_write.append(np.full(addresses.shape, batch.is_write, dtype=bool))
        if not parts_addr:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=bool)
        addresses = np.concatenate(parts_addr)
        positions = np.concatenate(parts_pos)
        writes = np.concatenate(parts_write)
        # Positions are unique and bounded by pos_bound: a counting scatter
        # orders the stream in two linear passes, far cheaper than argsort —
        # unless the chunk is sparse, where argsort over the few members wins.
        if positions.size * 16 < self.pos_bound:
            order = np.argsort(positions)
        else:
            slot_of = np.full(self.pos_bound, -1, dtype=np.int64)
            slot_of[positions] = np.arange(positions.size, dtype=np.int64)
            order = slot_of[slot_of >= 0]
        return addresses[order].astype(np.uint64), writes[order]

    def truncate(self, keep: int) -> "DescriptorChunk":
        """The chunk's first ``keep`` accesses, still in descriptor form.

        The ``keep``-th smallest member position bounds the surviving
        accesses, so each run batch is clipped analytically instead of
        expanding the chunk.  Grid batches stay grids: the cutoff splits the
        outermost level into fully-kept slabs (a smaller grid) plus at most
        one partially-kept slab, which recurses one level down — so a trace
        truncated mid-grid keeps its compression.  ``keep == 0`` gives an
        empty chunk; a negative ``keep`` raises :class:`ValueError`.
        """
        if keep < 0:
            raise ValueError(f"cannot keep a negative number of accesses ({keep})")
        if keep == 0:
            return DescriptorChunk(total=0, pos_bound=0)
        if keep >= self.total:
            return self
        # The cutoff is one past the ``keep``-th smallest member position.
        # Positions are unique, so the analytic member count is a step
        # function and the chunk is never expanded.
        cutoff = _search_cutoff(_MemberCounter(self), keep, self.total, self.pos_bound)
        batches = []
        for batch in self.batches:
            batches.extend(_clip_batch(batch, cutoff))
        return DescriptorChunk(total=keep, pos_bound=cutoff, batches=batches)

    def nbytes(self) -> int:
        """Storage footprint of the chunk's run descriptors."""
        return sum(batch.nbytes() for batch in self.batches)


def _clip_runs(batch: AccessRunBatch, cutoff: int) -> Optional[AccessRunBatch]:
    """Clip a plain (grid-free) batch to member positions below ``cutoff``."""
    first_pos = batch.run_first_pos()
    counts = np.clip(-((first_pos - cutoff) // batch.pos_stride), 0, batch.run_counts())
    alive = counts > 0
    if not alive.any():
        return None
    return AccessRunBatch(
        bases=batch.bases[alive],
        stride=batch.stride,
        pos_stride=batch.pos_stride,
        is_write=batch.is_write,
        counts=counts[alive],
        first_pos=first_pos[alive],
    )


def _outer_slab_span(batch: AccessRunBatch) -> Tuple[int, int]:
    """Position range ``[lo, hi]`` of a grid batch's first outer-level slab."""
    first_pos = batch.run_first_pos()
    slab_lo = int(first_pos.min())
    slab_hi = int((first_pos + (batch.run_counts() - 1) * batch.pos_stride).max())
    for count, pos_stride in zip(
        batch.grid_counts[1:].tolist(), batch.grid_pos_strides[1:].tolist()
    ):
        step = (count - 1) * pos_stride
        slab_lo += min(0, step)
        slab_hi += max(0, step)
    return slab_lo, slab_hi


def _drop_outer_level(batch: AccessRunBatch, slabs: int) -> AccessRunBatch:
    """The sub-batch at outer-level index ``slabs``, one grid level down."""
    partial = AccessRunBatch(
        bases=batch.bases + int(batch.grid_strides[0]) * slabs,
        stride=batch.stride,
        pos_stride=batch.pos_stride,
        is_write=batch.is_write,
        counts=batch.counts,
        first_pos=batch.run_first_pos() + int(batch.grid_pos_strides[0]) * slabs,
        uniform_count=batch.uniform_count,
    )
    if batch.grid_counts.size > 1:
        partial.grid_strides = batch.grid_strides[1:]
        partial.grid_counts = batch.grid_counts[1:]
        partial.grid_pos_strides = batch.grid_pos_strides[1:]
    return partial


class _MemberCounter:
    """Counts a chunk's members below a trace position; built once per cut.

    Each batch is prepared along the descent :func:`_clip_batch` takes.
    Every grid level whose slabs tile disjoint position ranges keeps its
    slab span, outer count, position stride and members per slab.  The
    first level whose slabs interleave is degridded once, together with the
    levels inside it, and the remaining runs keep their ``first_pos`` and
    ``counts``.  A count is then a few integer operations per level plus one
    in-place pass over each batch's innermost runs.
    """

    def __init__(self, chunk: DescriptorChunk):
        self.batches = [self._prepare(batch) for batch in chunk.batches]
        runs = max((first_pos.size for _, first_pos, _, _ in self.batches), default=0)
        self.buffer = np.empty(runs, dtype=np.int64)  # shared by every batch's pass

    @staticmethod
    def _prepare(batch: AccessRunBatch):
        levels = []
        while batch.grid_counts is not None:
            slab_lo, slab_hi = _outer_slab_span(batch)
            outer_count = int(batch.grid_counts[0])
            outer_pos = int(batch.grid_pos_strides[0])
            if outer_pos <= slab_hi - slab_lo:
                batch = batch.degrid()
                break
            levels.append((slab_lo, slab_hi, outer_count, outer_pos, batch.total // outer_count))
            batch = _drop_outer_level(batch, 0)
        first_pos = batch.run_first_pos()
        counts = batch.uniform_count if batch.counts is None else batch.counts
        return levels, first_pos, counts, batch.pos_stride

    def __call__(self, cutoff: int) -> int:
        counted = 0
        for levels, first_pos, counts, pos_stride in self.batches:
            below = cutoff  # the cutoff relative to the slab being descended
            for slab_lo, slab_hi, outer_count, outer_pos, per_slab in levels:
                full = min(max((below - 1 - slab_hi) // outer_pos + 1, 0), outer_count)
                counted += full * per_slab
                if full == outer_count or slab_lo + full * outer_pos >= below:
                    break  # no partially-kept slab, so nothing deeper counts
                below -= full * outer_pos
            else:
                # Run r keeps ceil((below - first_pos[r]) / pos_stride)
                # members, clipped to [0, counts[r]].
                buffer = self.buffer[: first_pos.size]
                np.subtract(first_pos, below, out=buffer)
                np.floor_divide(buffer, pos_stride, out=buffer)
                np.negative(buffer, out=buffer)
                np.clip(buffer, 0, counts, out=buffer)
                counted += int(buffer.sum())
        return counted


def _search_cutoff(
    count_below: Callable[[int], int], keep: int, total: int, pos_bound: int
) -> int:
    """The smallest position in ``[1, pos_bound]`` with ``keep`` members below.

    Each probe interpolates linearly inside the bracket ``count_below(low) <
    keep <= count_below(high)``, which starts at ``(0, pos_bound)`` with the
    counts ``0`` and ``total``.  A probe that fails to halve the bracket is
    followed by one bisection step, so the search makes at most
    ``2 * ceil(log2(pos_bound))`` counts.  Any monotone search lands on the
    same position, so the result equals plain bisection's.
    """
    low, high = 0, max(int(pos_bound), 1)
    below_low, below_high = 0, total
    bisect_next = False
    while low + 1 < high:
        width = high - low
        if bisect_next:
            probe = low + width // 2
        else:
            probe = low + (keep - below_low) * width // (below_high - below_low)
            probe = min(max(probe, low + 1), high - 1)
        counted = count_below(probe)
        if counted >= keep:
            high, below_high = probe, counted
        else:
            low, below_low = probe, counted
        bisect_next = not bisect_next and 2 * (high - low) > width
    return high


def _clip_batch(batch: AccessRunBatch, cutoff: int) -> List[AccessRunBatch]:
    """Clip any batch to member positions below ``cutoff``, keeping grids.

    When a grid's outer slabs tile disjoint, ascending position ranges, the
    outermost level splits into fully-kept slabs (the same grid with a
    shorter outer count) plus at most one partial slab that recurses one
    level down; only the innermost, run-level remainder is clipped per run.
    Slabs can also interleave in position space, and not only in hand-built
    grids: the emitter makes such levels when the stored runs enumerate a
    predicate digit of a loop outside a predicate-free grid level, as a
    padding guard on an outer tile loop does.  Those levels fall back to
    clipping the degridded runs, which is always exact.
    """
    if batch.grid_counts is None:
        clipped = _clip_runs(batch, cutoff)
        return [clipped] if clipped is not None else []
    slab_lo, slab_hi = _outer_slab_span(batch)
    outer_count = int(batch.grid_counts[0])
    outer_pos = int(batch.grid_pos_strides[0])
    if outer_pos <= slab_hi - slab_lo:
        clipped = _clip_runs(batch.degrid(), cutoff)
        return [clipped] if clipped is not None else []
    full = min(max((cutoff - 1 - slab_hi) // outer_pos + 1, 0), outer_count)
    out: List[AccessRunBatch] = []
    if full > 0:
        kept = AccessRunBatch(
            bases=batch.bases,
            stride=batch.stride,
            pos_stride=batch.pos_stride,
            is_write=batch.is_write,
            counts=batch.counts,
            first_pos=batch.first_pos,
            uniform_count=batch.uniform_count,
            first_pos_start=batch.first_pos_start,
            first_pos_step=batch.first_pos_step,
        )
        if full > 1:
            kept.grid_strides = batch.grid_strides.copy()
            kept.grid_counts = batch.grid_counts.copy()
            kept.grid_pos_strides = batch.grid_pos_strides.copy()
            kept.grid_counts[0] = full
        elif batch.grid_counts.size > 1:
            kept.grid_strides = batch.grid_strides[1:]
            kept.grid_counts = batch.grid_counts[1:]
            kept.grid_pos_strides = batch.grid_pos_strides[1:]
        out.append(kept)
    if full < outer_count and slab_lo + full * outer_pos < cutoff:
        out.extend(_clip_batch(_drop_outer_level(batch, full), cutoff))
    return out


# ---------------------------------------------------------------------------
# descriptor arenas: cross-chunk packing for the native batch pipeline
# ---------------------------------------------------------------------------

#: Number of int64 columns in :attr:`DescriptorArena.chunk_meta`.
ARENA_CHUNK_META = 5
#: Number of int64 columns in :attr:`DescriptorArena.batch_meta`.
ARENA_BATCH_META = 7


@dataclass
class DescriptorArena:
    """A batch of :class:`DescriptorChunk` objects packed into flat arenas.

    The arena is the wire format of the native descriptor pipeline
    (:mod:`repro.sim._native`): every chunk of the batch is described by
    contiguous ``int64`` run arrays, so one foreign call can walk all of
    them without touching Python objects per chunk.  Grid batches are
    packed as grids — the replication levels are *not* expanded — and the
    packing is pure bookkeeping (offset arithmetic plus a handful of
    concatenations), so its cost is per batch and per chunk, never per
    access.

    Layout (all arrays ``int64`` unless noted, all offsets half-open):

    * ``chunk_meta[c] = (total, pos_bound, batch_start, batch_end,
      pos_stride)`` — ``pos_stride`` is the chunk-uniform trace-position
      stride of its batches (1 when the chunk has none).
    * ``batch_meta[b] = (is_write, stride, pos_stride, run_start, run_end,
      grid_start, grid_end)``.
    * ``bases`` / ``counts`` / ``first_pos`` — the stored runs, run-aligned
      at ``[run_start:run_end)``.  The scalar count/position forms of
      :class:`AccessRunBatch` are materialised here: the arena is a
      short-lived dispatch buffer whose size is per stored run, never per
      access, so uniform C-side indexing wins over the two extra arrays.
    * ``grids[grid_start:grid_end] = (stride, count, pos_stride)`` rows,
      outermost level first.

    ``chunks`` keeps the packed chunk objects so consumers without the
    native kernel can fall back to the per-chunk path, and so equivalence
    tests can replay both representations from one packing.

    An arena holds consecutive chunks of one program's trace:
    :meth:`~repro.sim.cache.Cache.access_descriptor_stream` packs them as
    the trace walk pulls them and hands each arena to
    :meth:`~repro.sim.cache.Cache.access_descriptor_arena`, the only
    consumer.
    """

    chunks: List[DescriptorChunk]
    total: int
    chunk_meta: np.ndarray
    batch_meta: np.ndarray
    bases: np.ndarray
    counts: np.ndarray
    first_pos: np.ndarray
    grids: np.ndarray
    #: Largest single-chunk access count — the per-chunk scratch capacity
    #: the native pipeline needs (heads never outnumber members).
    max_chunk_total: int
    #: Largest single-chunk position bound — sizes the position-scatter
    #: scratch of the native sort.
    max_pos_bound: int
    #: Deepest grid nesting of any packed batch; the native pipeline walks
    #: grids with a fixed-depth odometer and falls back past its limit.
    max_grid_levels: int

    @property
    def n_chunks(self) -> int:
        """Number of packed chunks."""
        return len(self.chunks)


def pack_descriptor_arena(chunks: Sequence[DescriptorChunk]) -> DescriptorArena:
    """Pack ``chunks`` into one :class:`DescriptorArena`.

    Run data (bases, ragged counts, first positions) is concatenated;
    grid levels are recorded as ``(stride, count, pos_stride)`` rows rather
    than expanded.  The packed arena describes exactly the same accesses in
    exactly the same order as walking the chunks one by one.
    """
    chunk_meta = np.zeros((len(chunks), ARENA_CHUNK_META), dtype=np.int64)
    batch_rows: List[List[int]] = []
    bases_parts: List[np.ndarray] = []
    counts_parts: List[np.ndarray] = []
    first_pos_parts: List[np.ndarray] = []
    grid_rows: List[Tuple[int, int, int]] = []
    run_at = 0
    total = 0
    max_chunk_total = 0
    max_pos_bound = 0
    max_grid_levels = 0
    for index, chunk in enumerate(chunks):
        batch_start = len(batch_rows)
        for batch in chunk.batches:
            n_runs = int(batch.bases.size)
            bases_parts.append(batch.bases)
            counts_parts.append(batch.run_counts())
            first_pos_parts.append(batch.run_first_pos())
            grid_start = len(grid_rows)
            if batch.grid_counts is not None:
                grid_rows.extend(
                    zip(
                        batch.grid_strides.tolist(),
                        batch.grid_counts.tolist(),
                        batch.grid_pos_strides.tolist(),
                    )
                )
                max_grid_levels = max(max_grid_levels, int(batch.grid_counts.size))
            batch_rows.append(
                [
                    int(batch.is_write),
                    int(batch.stride),
                    int(batch.pos_stride),
                    run_at,
                    run_at + n_runs,
                    grid_start,
                    len(grid_rows),
                ]
            )
            run_at += n_runs
        pos_stride = chunk.batches[0].pos_stride if chunk.batches else 1
        chunk_meta[index] = (
            chunk.total, chunk.pos_bound, batch_start, len(batch_rows), pos_stride
        )
        total += chunk.total
        max_chunk_total = max(max_chunk_total, chunk.total)
        max_pos_bound = max(max_pos_bound, chunk.pos_bound)

    def _concat(parts: List[np.ndarray]) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.ascontiguousarray(np.concatenate(parts), dtype=np.int64)

    return DescriptorArena(
        chunks=list(chunks),
        total=total,
        chunk_meta=chunk_meta,
        batch_meta=np.asarray(batch_rows, dtype=np.int64).reshape(
            len(batch_rows), ARENA_BATCH_META
        ),
        bases=_concat(bases_parts),
        counts=_concat(counts_parts),
        first_pos=_concat(first_pos_parts),
        grids=np.asarray(grid_rows, dtype=np.int64).reshape(len(grid_rows), 3),
        max_chunk_total=max_chunk_total,
        max_pos_bound=max_pos_bound,
        max_grid_levels=max_grid_levels,
    )


#: Window ranges narrower than this are emitted as plain per-window runs —
#: grid bookkeeping (box decomposition, level canonicalisation) cannot pay
#: off below it.
_MIN_GRID_WINDOWS = 8


class _AccessRunPlan:
    """Per access-lane decomposition of a nest into affine windows and grids.

    The flattened iteration space splits into aligned windows of ``window``
    iterations inside which the byte address is affine in the flat iteration
    index (``stride`` bytes per iteration) and every predicate is affine too,
    so predicate clipping reduces to per-window interval arithmetic.  The
    window is the largest suffix of the loop nest for which this holds; in
    the worst case it degenerates to a single iteration, which is still exact
    (one run per iteration).

    Above the window, the outer loop variables are factored into **grid run
    batches** instead of one stored run per window: the chunk's window range
    is decomposed into aligned boxes, and inside each box only the digit
    combinations of variables that appear in some predicate are enumerated
    as stored runs (their windows can clip differently), while every
    predicate-free variable becomes a grid replication level ``(stride,
    count, pos_stride)``.  A tiled inner window nested under outer loops is
    then a single descriptor; the degenerate cases (every variable
    predicate-involved, or a tiny window range) fall back to the exact
    per-window emission, so the decomposition never loses precision — only
    compression.
    """

    def __init__(
        self,
        loops: Sequence[Tuple[str, int]],
        guards: Sequence[LinearPredicate],
        access: MemoryAccess,
        lane: int,
        slot: int,
    ):
        self.is_write = access.is_store
        self.slot = slot
        elem = access.buffer.element_bytes
        predicates = list(guards) + list(access.predicates)
        index_const = access.const + lane * access.gather_stride

        window = 1
        coeff_per_iter: Optional[int] = None
        pred_per_iter: List[Optional[int]] = [None] * len(predicates)
        suffix = 0
        for var, size in reversed(list(loops)):
            if size == 1:
                suffix += 1  # the digit is always zero; absorb freely
                continue
            a = access.coeffs.get(var, 0)
            if coeff_per_iter is None:
                if a % window:
                    break
                new_coeff = a // window
            else:
                if a != coeff_per_iter * window:
                    break
                new_coeff = coeff_per_iter
            new_pred = list(pred_per_iter)
            ok = True
            for position, predicate in enumerate(predicates):
                b = predicate.coeffs.get(var, 0)
                if new_pred[position] is None:
                    if b % window:
                        ok = False
                        break
                    slope = b // window
                    if predicate.op == "ne" and slope != 0:
                        ok = False  # a sloped != splits the run interval
                        break
                    new_pred[position] = slope
                elif b != new_pred[position] * window:
                    ok = False
                    break
            if not ok:
                break
            coeff_per_iter = new_coeff
            pred_per_iter = new_pred
            window *= size
            suffix += 1

        self.window = window
        self.stride = (coeff_per_iter or 0) * elem
        self.elem = elem
        self.base_address = access.buffer.base_address
        self.index_const = index_const
        outer = list(loops)[: len(list(loops)) - suffix]
        # Inner-to-outer (divisor, size, access coeff, per-predicate coeffs)
        # for window-digit evaluation; the divisor is in window units, and
        # vars that contribute to no tracked linear form are skipped (their
        # digits never matter), which keeps the per-window cost at two
        # integer divisions per *contributing* var.
        self.outer: List[Tuple[int, int, int, List[int]]] = []
        # Outer→inner (block, size, coeff, per-predicate coeffs, is_pred) for
        # every non-trivial outer var: the grid path box-decomposes the
        # window range over these, factoring predicate-free vars into grid
        # levels and enumerating only predicate-involved digit combinations.
        dims: List[Tuple[int, int, int, List[int], bool]] = []
        divisor = 1
        for var, size in reversed(outer):
            coeff = access.coeffs.get(var, 0)
            pred_coeffs = [predicate.coeffs.get(var, 0) for predicate in predicates]
            if coeff or any(pred_coeffs):
                self.outer.append((divisor, size, coeff, pred_coeffs))
            if size > 1:
                dims.append((divisor, size, coeff, pred_coeffs, any(pred_coeffs)))
            divisor *= size
        dims.reverse()
        self.dims = dims
        self.has_free_dim = any(not is_pred for _, _, _, _, is_pred in dims)
        self.pred_slopes: List[int] = [slope or 0 for slope in pred_per_iter]
        self.pred_consts: List[int] = [predicate.const for predicate in predicates]
        self.pred_ops: List[str] = [predicate.op for predicate in predicates]

    def emit(self, start: int, stop: int, slots: int) -> List[AccessRunBatch]:
        """Run batches of this access for flat iterations ``[start, stop)``."""
        window = self.window
        w_first = start // window
        w_last = (stop - 1) // window
        if not self.has_free_dim or w_last - w_first + 1 < _MIN_GRID_WINDOWS:
            batch = self._emit_runs(
                np.arange(w_first, w_last + 1, dtype=np.int64), start, stop, slots
            )
            return [batch] if batch is not None else []
        # Chunk-edge windows cut mid-window go through the exact per-window
        # path; the aligned interior is box-decomposed into grids.
        aligned_lo = w_first + (1 if start % window else 0)
        aligned_hi = w_last + (0 if stop % window else 1)
        batches: List[AccessRunBatch] = []
        ragged: List[Tuple[int, int]] = []
        if aligned_lo > w_first:
            ragged.append((w_first, aligned_lo))
        if aligned_lo < aligned_hi:
            boxes, small = self._boxes(aligned_lo, aligned_hi)
            ragged.extend(small)
            for box in boxes:
                batch = self._emit_box(box, start, slots)
                if batch is not None:
                    batches.append(batch)
        if aligned_hi <= w_last:
            ragged.append((aligned_hi, w_last + 1))
        if ragged:
            w = np.concatenate(
                [np.arange(a, b, dtype=np.int64) for a, b in ragged]
            )
            batch = self._emit_runs(w, start, stop, slots)
            if batch is not None:
                batches.append(batch)
        return batches

    def _boxes(
        self, w_lo: int, w_hi: int
    ) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int]]]:
        """Decompose window range ``[w_lo, w_hi)`` into aligned boxes.

        A box ``(w0, level, count)`` covers the contiguous windows
        ``[w0, w0 + count * block(level))`` where ``w0`` is aligned to
        ``block(level)``: the digit at ``level`` takes ``count`` consecutive
        values while every deeper digit runs its full range, so addresses and
        predicate values are multi-affine over the box.  Ranges too small to
        benefit are returned separately for the per-window path.
        """
        boxes: List[Tuple[int, int, int]] = []
        small: List[Tuple[int, int]] = []
        dims = self.dims

        def recurse(a: int, b: int, level: int) -> None:
            if a >= b:
                return
            if level >= len(dims):  # pragma: no cover - innermost block is 1
                small.append((a, b))
                return
            block = dims[level][0]
            if a % block:
                head_end = min(b, (a // block + 1) * block)
                recurse(a, head_end, level + 1)
                a = head_end
                if a >= b:
                    return
            full = (b - a) // block
            if full:
                if full * block < _MIN_GRID_WINDOWS:
                    small.append((a, a + full * block))
                else:
                    boxes.append((a, level, full))
                a += full * block
            recurse(a, b, level + 1)

        recurse(w_lo, w_hi, 0)
        return boxes, small

    def _emit_box(
        self, box: Tuple[int, int, int], start: int, slots: int
    ) -> Optional[AccessRunBatch]:
        """One grid batch for the full windows of an aligned box."""
        w0, level, count = box
        window = self.window
        dims = self.dims
        # Constants contributed by the digits of the box origin (digits below
        # the box level are zero by alignment).
        index0 = self.index_const
        pred0 = list(self.pred_consts)
        for block, size, coeff, pred_coeffs, _ in dims:
            digit = (w0 // block) % size
            if digit:
                index0 += coeff * digit
                for position, pcoeff in enumerate(pred_coeffs):
                    if pcoeff:
                        pred0[position] += pcoeff * digit
        levels: List[Tuple[int, int, int]] = []  # (stride, count, pos_stride)
        pred_dims: List[Tuple[int, int, int, List[int]]] = []
        for index_level in range(level, len(dims)):
            block, size, coeff, pred_coeffs, is_pred = dims[index_level]
            extent = count if index_level == level else size
            if extent == 1:
                continue
            if is_pred:
                pred_dims.append((block, extent, coeff, pred_coeffs))
            else:
                levels.append((coeff * self.elem, extent, block * window * slots))
        if pred_dims:
            combos = 1
            for _, extent, _, _ in pred_dims:
                combos *= extent
            flat = np.arange(combos, dtype=np.int64)
            index = np.full(combos, index0, dtype=np.int64)
            pred_base = [np.full(combos, const, dtype=np.int64) for const in pred0]
            w_rel = np.zeros(combos, dtype=np.int64)
            for block, extent, coeff, pred_coeffs in reversed(pred_dims):
                digit = flat % extent
                flat //= extent
                if coeff:
                    index += coeff * digit
                for base, pcoeff in zip(pred_base, pred_coeffs):
                    if pcoeff:
                        base += pcoeff * digit
                w_rel += block * digit
        else:
            index = np.full(1, index0, dtype=np.int64)
            pred_base = [np.full(1, const, dtype=np.int64) for const in pred0]
            w_rel = np.zeros(1, dtype=np.int64)
        lo = np.zeros(index.shape, dtype=np.int64)
        hi = np.full(index.shape, window, dtype=np.int64)
        for base, slope, op in zip(pred_base, self.pred_slopes, self.pred_ops):
            lo, hi = _clip_interval(lo, hi, base, slope, op)
        keep = hi > lo
        if not keep.any():
            return None
        if not keep.all():
            lo, hi, index, w_rel = lo[keep], hi[keep], index[keep], w_rel[keep]
        bases = self.base_address + index * self.elem + self.stride * lo
        counts = hi - lo
        first_pos = ((w0 + w_rel) * window + lo - start) * slots + self.slot
        batch = self._pack_runs(bases, counts, first_pos, slots)
        self._attach_levels(batch, levels)
        return batch

    @staticmethod
    def _attach_levels(batch: AccessRunBatch, levels: List[Tuple[int, int, int]]) -> None:
        """Canonicalise and attach grid levels (outer→inner) to a batch.

        Adjacent levels forming one arithmetic progression (the outer level
        steps exactly one inner lattice span, in both address and position
        space) merge into a single longer level.
        """
        merged: List[Tuple[int, int, int]] = []
        for stride, count, pos_stride in levels:
            merged.append((stride, count, pos_stride))
            while len(merged) > 1:
                s_outer, c_outer, p_outer = merged[-2]
                s_inner, c_inner, p_inner = merged[-1]
                if s_outer == s_inner * c_inner and p_outer == p_inner * c_inner:
                    merged[-2:] = [(s_inner, c_outer * c_inner, p_inner)]
                else:
                    break
        if not merged:
            return
        batch.grid_strides = np.array([s for s, _, _ in merged], dtype=np.int64)
        batch.grid_counts = np.array([c for _, c, _ in merged], dtype=np.int64)
        batch.grid_pos_strides = np.array([p for _, _, p in merged], dtype=np.int64)

    def _emit_runs(
        self, w: np.ndarray, start: int, stop: int, slots: int
    ) -> Optional[AccessRunBatch]:
        """Exact per-window runs for an explicit window-index array."""
        window = self.window
        index = np.full(w.shape, self.index_const, dtype=np.int64)
        pred_base = [np.full(w.shape, const, dtype=np.int64) for const in self.pred_consts]
        for divisor, size, coeff, pred_coeffs in self.outer:
            digit = (w // divisor) % size
            if coeff:
                index += coeff * digit
            for base, pcoeff in zip(pred_base, pred_coeffs):
                if pcoeff:
                    base += pcoeff * digit
        window_start = w * window
        lo = np.maximum(start, window_start) - window_start
        hi = np.minimum(stop, window_start + window) - window_start
        for base, slope, op in zip(pred_base, self.pred_slopes, self.pred_ops):
            lo, hi = _clip_interval(lo, hi, base, slope, op)
        keep = hi > lo
        if not keep.any():
            return None
        if not keep.all():
            lo, hi, w, index = lo[keep], hi[keep], w[keep], index[keep]
        bases = self.base_address + index * self.elem + self.stride * lo
        counts = hi - lo
        first_pos = (w * window + lo - start) * slots + self.slot
        return self._pack_runs(bases, counts, first_pos, slots)

    def _pack_runs(
        self, bases: np.ndarray, counts: np.ndarray, first_pos: np.ndarray, slots: int
    ) -> AccessRunBatch:
        """Build a batch, preferring the scalar regular form when it fits."""
        batch = AccessRunBatch(
            bases=bases, stride=self.stride, pos_stride=slots, is_write=self.is_write
        )
        count0 = int(counts[0])
        step = int(first_pos[1] - first_pos[0]) if first_pos.size > 1 else 0
        if (counts == count0).all() and (
            first_pos.size < 2 or (np.diff(first_pos) == step).all()
        ):
            batch.uniform_count = count0
            batch.first_pos_start = int(first_pos[0])
            batch.first_pos_step = step
        else:
            batch.counts = counts
            batch.first_pos = first_pos
        return batch


def _ceil_div(numerator: np.ndarray, divisor: int) -> np.ndarray:
    """Elementwise ``ceil(numerator / divisor)`` (any non-zero divisor)."""
    return -((-numerator) // divisor)


def _clip_interval(
    lo: np.ndarray, hi: np.ndarray, base: np.ndarray, slope: int, op: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Restrict per-window iteration intervals to where a predicate holds.

    The predicate value at in-window iteration ``i`` is ``base + slope * i``;
    the satisfied ``i`` form an interval (``ne`` only reaches here with slope
    0, enforced by :class:`_AccessRunPlan`).
    """
    if slope == 0:
        satisfied = LinearPredicate._OPS[op](base, 0)
        return lo, np.where(satisfied, hi, lo)
    # Rewrite "base + slope*i OP 0" as bounds "slope*i >= t" / "slope*i <= t".
    lower_t = None  # slope*i >= lower_t
    upper_t = None  # slope*i <= upper_t
    if op in ("ge", "eq"):
        lower_t = -base
    if op == "gt":
        lower_t = 1 - base
    if op in ("le", "eq"):
        upper_t = -base
    if op == "lt":
        upper_t = -1 - base
    if lower_t is not None:
        if slope > 0:
            lo = np.maximum(lo, _ceil_div(lower_t, slope))
        else:
            hi = np.minimum(hi, lower_t // slope + 1)
    if upper_t is not None:
        if slope > 0:
            hi = np.minimum(hi, upper_t // slope + 1)
        else:
            lo = np.maximum(lo, _ceil_div(upper_t, slope))
    # "eq" applies both bounds; a non-divisible target leaves them crossed,
    # which is exactly the empty interval.
    return lo, hi


# ---------------------------------------------------------------------------
# program tree nodes
# ---------------------------------------------------------------------------


@dataclass
class Block:
    """Straight-line code executed once per innermost iteration."""

    accesses: List[MemoryAccess] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    code_bytes: float = 0.0

    def add_count(self, category: str, amount: float = 1.0) -> None:
        """Add ``amount`` instructions of ``category`` to the block."""
        self.counts[category] = self.counts.get(category, 0.0) + amount


@dataclass
class Loop:
    """A counted loop around a single child node."""

    var: str
    extent: int
    kind: str
    body: "Node"
    #: Loop bookkeeping instructions per iteration (increment, compare, branch).
    overhead: Dict[str, float] = field(default_factory=dict)
    #: Code-size multiplier: unrolled loops replicate their body in memory.
    code_replication: int = 1


@dataclass
class Guard:
    """A conditional region: ``body`` executes only when all predicates hold."""

    predicates: List[LinearPredicate]
    body: "Node"
    #: Instructions charged for evaluating the condition, per evaluation.
    penalty: Dict[str, float] = field(default_factory=dict)


Node = Union[Loop, Guard, Block]


@dataclass
class PerfectNest:
    """A block together with its enclosing loops and guard predicates."""

    loops: List[Tuple[str, int]]
    block: Block
    guards: List[LinearPredicate]

    @property
    def iterations(self) -> int:
        """Total iteration count of the nest (ignoring guards)."""
        total = 1
        for _, extent in self.loops:
            total *= extent
        return total


# ---------------------------------------------------------------------------
# program
# ---------------------------------------------------------------------------


class Program:
    """An executable artefact: buffers plus a list of loop-nest roots."""

    #: Base address of the first buffer (an arbitrary, page-aligned location).
    BASE_ADDRESS = 0x1000_0000
    #: Alignment of each buffer in bytes.
    BUFFER_ALIGN = 4096

    def __init__(
        self,
        name: str,
        target: Target,
        buffers: Sequence[Buffer],
        roots: Sequence[Node],
        static_code_bytes: float = 512.0,
    ):
        self.name = name
        self.target = target
        self.buffers = list(buffers)
        self.roots = list(roots)
        self.static_code_bytes = static_code_bytes
        self._assign_buffer_addresses()
        self._buffers_by_name: Dict[str, Buffer] = {}
        for buffer in self.buffers:
            self._buffers_by_name.setdefault(buffer.name, buffer)
        # Programs are immutable once built; digests are computed lazily and
        # cached so memoization keys do not re-serialise the tree per lookup.
        self._content_digest: Optional[str] = None

    def _assign_buffer_addresses(self) -> None:
        address = self.BASE_ADDRESS
        for buffer in self.buffers:
            buffer.base_address = address
            aligned = (buffer.size_bytes + self.BUFFER_ALIGN - 1) // self.BUFFER_ALIGN
            address += (aligned + 1) * self.BUFFER_ALIGN

    # -- analytic instruction counting -----------------------------------
    def instruction_counts(self) -> Dict[str, float]:
        """Exact per-category instruction counts for one program execution."""
        counts: Dict[str, float] = {category: 0.0 for category in IC.ALL}
        for root in self.roots:
            self._count_node(root, 1.0, {}, counts)
        counts[IC.OTHER] += 16.0  # prologue/epilogue of the generated main()
        return counts

    def total_instructions(self) -> float:
        """Total executed instructions."""
        return float(sum(self.instruction_counts().values()))

    def _count_node(
        self,
        node: Node,
        iterations: float,
        extents: Dict[str, int],
        counts: Dict[str, float],
    ) -> None:
        if isinstance(node, Loop):
            for category, amount in node.overhead.items():
                counts[category] = counts.get(category, 0.0) + amount * iterations * node.extent
            inner_extents = dict(extents)
            inner_extents[node.var] = node.extent
            self._count_node(node.body, iterations * node.extent, inner_extents, counts)
        elif isinstance(node, Guard):
            for category, amount in node.penalty.items():
                counts[category] = counts.get(category, 0.0) + amount * iterations
            fraction = predicate_fraction(node.predicates, extents)
            self._count_node(node.body, iterations * fraction, extents, counts)
        elif isinstance(node, Block):
            for category, amount in node.counts.items():
                counts[category] = counts.get(category, 0.0) + amount * iterations
            for access in node.accesses:
                fraction = predicate_fraction(access.predicates, extents)
                executed = iterations * fraction
                counts[access.category] = (
                    counts.get(access.category, 0.0) + access.instructions_per_access() * executed
                )
                for category, amount in access.extra_counts.items():
                    counts[category] = counts.get(category, 0.0) + amount * executed
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown program node {type(node).__name__}")

    # -- code footprint ---------------------------------------------------
    def code_footprint_bytes(self) -> float:
        """Approximate size of the generated machine code in bytes."""
        total = self.static_code_bytes
        for root in self.roots:
            total += self.code_bytes(root)
        return total

    def code_bytes(self, node: Node) -> float:
        """Approximate machine-code size of one program subtree in bytes."""
        if isinstance(node, Loop):
            return node.code_replication * self.code_bytes(node.body) + 12.0
        if isinstance(node, Guard):
            return self.code_bytes(node.body) + 8.0
        return node.code_bytes

    # -- content hashing ---------------------------------------------------
    def content_digest(self) -> str:
        """A stable hash of everything that determines simulation behaviour.

        Two programs with the same digest produce the same instruction counts
        and the same memory trace, so simulation results can be memoized on
        it (see :class:`repro.sim.memo.SimulationCache`).  The program *name*
        is deliberately excluded: it labels, but does not change, behaviour.
        The digest is computed once and cached — programs are treated as
        immutable after construction.
        """
        if self._content_digest is not None:
            return self._content_digest
        payload = {
            "target": self.target.name,
            "static_code_bytes": self.static_code_bytes,
            "buffers": [
                (b.name, b.size_bytes, b.element_bytes, b.base_address) for b in self.buffers
            ],
            "roots": [self._node_signature(root) for root in self.roots],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self._content_digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._content_digest

    @classmethod
    def _node_signature(cls, node: Node):
        if isinstance(node, Loop):
            return (
                "loop",
                node.var,
                node.extent,
                node.kind,
                sorted(node.overhead.items()),
                node.code_replication,
                cls._node_signature(node.body),
            )
        if isinstance(node, Guard):
            return (
                "guard",
                [cls._predicate_signature(p) for p in node.predicates],
                sorted(node.penalty.items()),
                cls._node_signature(node.body),
            )
        if isinstance(node, Block):
            return (
                "block",
                sorted(node.counts.items()),
                node.code_bytes,
                [
                    (
                        access.buffer.name,
                        sorted(access.coeffs.items()),
                        access.const,
                        access.is_store,
                        access.width,
                        access.gather_stride,
                        [cls._predicate_signature(p) for p in access.predicates],
                        sorted(access.extra_counts.items()),
                    )
                    for access in node.accesses
                ],
            )
        raise TypeError(f"unknown program node {type(node).__name__}")  # pragma: no cover

    @staticmethod
    def _predicate_signature(predicate: LinearPredicate):
        return (sorted(predicate.coeffs.items()), predicate.const, predicate.op)

    # -- perfect-nest decomposition and trace generation ------------------
    def perfect_nests(self) -> List[PerfectNest]:
        """Decompose the program into perfect nests in execution order."""
        nests: List[PerfectNest] = []
        for root in self.roots:
            self._collect_nests(root, [], [], nests)
        return nests

    def _collect_nests(
        self,
        node: Node,
        loops: List[Tuple[str, int]],
        guards: List[LinearPredicate],
        out: List[PerfectNest],
    ) -> None:
        if isinstance(node, Loop):
            self._collect_nests(node.body, loops + [(node.var, node.extent)], guards, out)
        elif isinstance(node, Guard):
            self._collect_nests(node.body, loops, guards + list(node.predicates), out)
        elif isinstance(node, Block):
            out.append(PerfectNest(loops=list(loops), block=node, guards=list(guards)))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown program node {type(node).__name__}")

    def memory_trace(
        self,
        chunk_iterations: int = 1 << 16,
        max_accesses: Optional[int] = None,
        sample_fraction: float = 1.0,
        seed: int = 0,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield the data-memory reference trace as ``(addresses, is_write)`` chunks.

        The trace is generated in program order.  ``sample_fraction`` < 1
        keeps only a systematic sample of iteration chunks (used to bound the
        cost of cache simulation for large kernels); ``max_accesses`` stops
        the trace early once the budget is exhausted.

        With ``sample_fraction`` of 1 the concatenated trace is independent
        of ``chunk_iterations``; sampled traces are chunk-size dependent
        because whole chunks are kept or dropped (pin ``chunk_iterations``
        explicitly when reproducing sampled runs).  The default matches
        :class:`repro.sim.cpu.TraceOptions`.
        """
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        emitted = 0
        rng = np.random.default_rng(seed)
        for nest in self.perfect_nests():
            nest_trace = self._nest_trace(nest, chunk_iterations, sample_fraction, rng)
            for addresses, is_write in nest_trace:
                if max_accesses is not None and emitted + addresses.size > max_accesses:
                    keep = max_accesses - emitted
                    if keep > 0:
                        yield addresses[:keep], is_write[:keep]
                        emitted += keep
                    return
                emitted += addresses.size
                yield addresses, is_write

    def _nest_trace(
        self,
        nest: PerfectNest,
        chunk_iterations: int,
        sample_fraction: float,
        rng: np.random.Generator,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        block = nest.block
        if not block.accesses:
            return
        variables = [var for var, _ in nest.loops]
        sizes = [extent for _, extent in nest.loops]
        total = nest.iterations
        element_bytes = [access.buffer.element_bytes for access in block.accesses]

        start = 0
        while start < total:
            stop = min(start + chunk_iterations, total)
            if sample_fraction < 1.0 and rng.random() > sample_fraction:
                start = stop
                continue
            flat = np.arange(start, stop, dtype=np.int64)
            env = _unflatten(flat, variables, sizes) if variables else {}
            guard_mask = np.ones(flat.shape, dtype=bool)
            for predicate in nest.guards:
                guard_mask &= predicate.evaluate(env)

            chunk_addresses: List[np.ndarray] = []
            chunk_writes: List[np.ndarray] = []
            chunk_valid: List[np.ndarray] = []
            for access, elem_bytes in zip(block.accesses, element_bytes):
                index = np.full(flat.shape, access.const, dtype=np.int64)
                for var, coeff in access.coeffs.items():
                    index += coeff * env[var]
                base = access.buffer.base_address
                mask = guard_mask.copy()
                for predicate in access.predicates:
                    mask &= predicate.evaluate(env)
                if access.gather_stride > 0:
                    for lane in range(access.width):
                        chunk_addresses.append(
                            base + (index + lane * access.gather_stride) * elem_bytes
                        )
                        chunk_writes.append(
                            np.full(flat.shape, access.is_store, dtype=bool)
                        )
                        chunk_valid.append(mask)
                else:
                    chunk_addresses.append(base + index * elem_bytes)
                    chunk_writes.append(np.full(flat.shape, access.is_store, dtype=bool))
                    chunk_valid.append(mask)

            addresses = np.stack(chunk_addresses, axis=1).reshape(-1)
            writes = np.stack(chunk_writes, axis=1).reshape(-1)
            valid = np.stack(chunk_valid, axis=1).reshape(-1)
            if valid.all():
                yield addresses.astype(np.uint64), writes
            elif valid.any():
                yield addresses[valid].astype(np.uint64), writes[valid]
            # An all-masked chunk yields nothing, mirroring the descriptor
            # stream, which skips empty chunks entirely.
            start = stop

    def memory_trace_descriptors(
        self,
        chunk_iterations: int = 1 << 16,
        max_accesses: Optional[int] = None,
        sample_fraction: float = 1.0,
        seed: int = 0,
    ) -> Iterator[DescriptorChunk]:
        """Yield the trace as compressed :class:`DescriptorChunk` objects.

        The descriptor stream describes exactly the trace of
        :meth:`memory_trace` with the same options: chunk boundaries,
        sampling decisions (the same RNG draws are consumed) and
        ``max_accesses`` truncation all match, and ``chunk.expand()``
        reproduces the corresponding address chunk bit for bit.  Affine
        accesses are emitted as ``(base, stride, count)`` run batches without
        materialising addresses; predicates are folded into per-window
        interval clipping, so even guarded and scalar-promoted accesses stay
        in descriptor form, and a ``max_accesses`` cut clips the run batches
        analytically (:meth:`DescriptorChunk.truncate`).
        """
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        emitted = 0
        rng = np.random.default_rng(seed)
        for nest in self.perfect_nests():
            for chunk in self._nest_descriptors(nest, chunk_iterations, sample_fraction, rng):
                if max_accesses is not None and emitted + chunk.total > max_accesses:
                    keep = max_accesses - emitted
                    if keep > 0:
                        yield chunk.truncate(keep)
                    return
                emitted += chunk.total
                yield chunk

    def _nest_descriptors(
        self,
        nest: PerfectNest,
        chunk_iterations: int,
        sample_fraction: float,
        rng: np.random.Generator,
    ) -> Iterator[DescriptorChunk]:
        block = nest.block
        if not block.accesses:
            return
        slots = sum(access.addresses_per_access() for access in block.accesses)
        plans: List[_AccessRunPlan] = []
        slot = 0
        for access in block.accesses:
            lanes = access.width if access.gather_stride > 0 else 1
            for lane in range(lanes):
                plans.append(_AccessRunPlan(nest.loops, nest.guards, access, lane, slot))
                slot += 1
        total = nest.iterations
        start = 0
        while start < total:
            stop = min(start + chunk_iterations, total)
            if sample_fraction < 1.0 and rng.random() > sample_fraction:
                start = stop
                continue
            batches = []
            for plan in plans:
                batches.extend(plan.emit(start, stop, slots))
            total_accesses = sum(batch.total for batch in batches)
            if total_accesses == 0:
                # Every plan's windows are masked out: skip the chunk rather
                # than dispatching the engine on an empty descriptor (the
                # expanded path skips the matching all-masked chunk too).
                start = stop
                continue
            yield DescriptorChunk(
                total=total_accesses,
                pos_bound=(stop - start) * slots,
                batches=batches,
            )
            start = stop

    # -- convenience ------------------------------------------------------
    def buffer_by_name(self, name: str) -> Buffer:
        """Look up a buffer by name (dict-backed, built at construction)."""
        try:
            return self._buffers_by_name[name]
        except KeyError:
            raise KeyError(f"no buffer named {name!r}") from None

    def __repr__(self) -> str:
        return (
            f"Program({self.name}, target={self.target.name}, "
            f"buffers={[b.name for b in self.buffers]})"
        )
