"""Trace truncation's cutoff search against the bisection it replaced.

``reference_truncate`` below is the original ``DescriptorChunk.truncate``:
about eighteen bisection probes, each recounting every batch with the
recursive ``_count_below``.  Only the search for the cutoff changed, so both
clip with the same ``_clip_batch``.  The cutoff is the unique smallest
position with ``keep`` members below it, so the truncated chunks must be
equal field for field: every batch array and its dtype, the scalars, the
grid levels and ``pos_bound``.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codegen import Target, build_program
from repro.codegen.program import (
    AccessRunBatch,
    DescriptorChunk,
    _clip_batch,
    _drop_outer_level,
    _MemberCounter,
    _outer_slab_span,
    _search_cutoff,
)
from repro.workloads.resnet import scaled_group_params
from tests.conftest import make_conv_func
from tests.test_trace_descriptors import (
    _padded_store,
    _tiled_program,
    assert_trace_equal,
    interleaved_runs_chunk,
    overlapping_grid_chunk,
    tiled_programs,
)


# -- the reference implementation ---------------------------------------------


def _count_below(batch: AccessRunBatch, cutoff: int) -> int:
    """Number of the batch's members at trace positions below ``cutoff``.

    Grid batches are counted slab-analytically (mirroring
    :func:`_clip_batch`), so the cost is per stored run and level, not per
    member.
    """
    if batch.grid_counts is not None:
        slab_lo, slab_hi = _outer_slab_span(batch)
        outer_count = int(batch.grid_counts[0])
        outer_pos = int(batch.grid_pos_strides[0])
        if outer_pos <= slab_hi - slab_lo:
            return _count_below(batch.degrid(), cutoff)
        full = min(max((cutoff - 1 - slab_hi) // outer_pos + 1, 0), outer_count)
        counted = full * (batch.total // outer_count)
        if full < outer_count and slab_lo + full * outer_pos < cutoff:
            counted += _count_below(_drop_outer_level(batch, full), cutoff)
        return counted
    first_pos = batch.run_first_pos()
    counts = np.clip(-((first_pos - cutoff) // batch.pos_stride), 0, batch.run_counts())
    return int(counts.sum())


def reference_cutoff(chunk: DescriptorChunk, keep: int) -> int:
    # Binary-search the cutoff (one past the ``keep``-th smallest member
    # position) on the analytic member count — positions are unique, so
    # the count is a step function and the chunk is never expanded.
    low, high = 0, max(int(chunk.pos_bound), 1)
    while low + 1 < high:
        mid = (low + high) // 2
        counted = sum(_count_below(batch, mid) for batch in chunk.batches)
        if counted >= keep:
            high = mid
        else:
            low = mid
    return high


def reference_truncate(chunk: DescriptorChunk, keep: int) -> DescriptorChunk:
    if keep >= chunk.total:
        return chunk
    cutoff = reference_cutoff(chunk, keep)
    batches = []
    for batch in chunk.batches:
        batches.extend(_clip_batch(batch, cutoff))
    return DescriptorChunk(total=keep, pos_bound=cutoff, batches=batches)


# -- comparison helpers ---------------------------------------------------------


def assert_value_equal(got, want, label: str) -> None:
    if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and isinstance(want, np.ndarray), label
        assert got.dtype == want.dtype, f"{label}: dtype {got.dtype} != {want.dtype}"
        assert np.array_equal(got, want), label
    else:
        assert type(got) is type(want) and got == want, f"{label}: {got!r} != {want!r}"


def assert_chunks_equal(got: DescriptorChunk, want: DescriptorChunk) -> None:
    for name in ("total", "pos_bound"):
        assert_value_equal(getattr(got, name), getattr(want, name), name)
    assert len(got.batches) == len(want.batches), "batch count"
    for index, (have, expected) in enumerate(zip(got.batches, want.batches)):
        for spec in fields(AccessRunBatch):
            assert_value_equal(
                getattr(have, spec.name), getattr(expected, spec.name),
                f"batch {index} {spec.name}",
            )


def assert_cut_matches(chunk: DescriptorChunk, keep: int) -> DescriptorChunk:
    truncated = chunk.truncate(keep)
    assert_chunks_equal(truncated, reference_truncate(chunk, keep))
    return truncated


def has_interleaved_level(batch: AccessRunBatch) -> bool:
    """Whether some grid level's slabs interleave in position space."""
    while batch.grid_counts is not None:
        slab_lo, slab_hi = _outer_slab_span(batch)
        if int(batch.grid_pos_strides[0]) <= slab_hi - slab_lo:
            return True
        batch = _drop_outer_level(batch, 0)
    return False


# -- equivalence ------------------------------------------------------------------


class TestAgainstBisection:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        program=tiled_programs(),
        chunk_iterations=st.sampled_from([5, 64, 1024, 1 << 16]),
        data=st.data(),
    )
    def test_tiled_programs_every_chunk(self, program, chunk_iterations, data):
        for chunk in program.memory_trace_descriptors(chunk_iterations=chunk_iterations):
            drawn = data.draw(st.integers(1, max(chunk.total - 1, 1)), label="keep")
            for keep in {keep for keep in (1, chunk.total - 1, drawn) if 0 < keep < chunk.total}:
                truncated = assert_cut_matches(chunk, keep)
                addresses, writes = chunk.expand()
                t_addresses, t_writes = truncated.expand()
                assert np.array_equal(t_addresses, addresses[:keep])
                assert np.array_equal(t_writes, writes[:keep])

    @pytest.mark.parametrize("build", [overlapping_grid_chunk, interleaved_runs_chunk])
    def test_handbuilt_chunks_every_cut(self, build):
        chunk = build()
        addresses, writes = chunk.expand()
        for keep in range(1, chunk.total + 1):
            truncated = assert_cut_matches(chunk, keep)
            t_addresses, t_writes = truncated.expand()
            assert np.array_equal(t_addresses, addresses[:keep])
            assert np.array_equal(t_writes, writes[:keep])

    @pytest.mark.parametrize("arch", ["x86", "arm"])
    @pytest.mark.parametrize("group", [0, 1, 3, 4])
    def test_real_conv2d_truncation(self, arch, group):
        program = build_program(
            make_conv_func(scaled_group_params(group))[0], Target.from_name(arch)
        )
        max_accesses = 120_000
        emitted = 0
        for chunk in program.memory_trace_descriptors():
            if emitted + chunk.total > max_accesses:
                break
            emitted += chunk.total
        else:
            pytest.fail("the trace never reaches the truncation limit")
        keep = max_accesses - emitted
        assert any(batch.grid_counts is not None for batch in chunk.batches)
        for cut in {keep, 1, chunk.total // 2, chunk.total - 1}:
            assert_cut_matches(chunk, cut)
        # The stream's own truncation takes the same path.
        last = list(program.memory_trace_descriptors(max_accesses=max_accesses))[-1]
        assert_chunks_equal(last, reference_truncate(chunk, keep))

    def test_emitter_builds_interleaved_grid_levels(self):
        # The padding guard puts logical dim 0's digits (o0 and i0) into the
        # stored runs, so the free o1 loop between them becomes a grid level
        # whose slabs interleave in position space.
        program = _tiled_program([(2, 2), (3, 2)], extra_accesses=[_padded_store])
        chunks = list(program.memory_trace_descriptors())
        assert any(has_interleaved_level(b) for chunk in chunks for b in chunk.batches)
        total = sum(chunk.total for chunk in chunks)
        for keep in range(1, total + 1):
            assert_trace_equal(program, max_accesses=keep)
        for chunk in chunks:
            for keep in range(1, chunk.total + 1):
                assert_cut_matches(chunk, keep)


# -- probe bound ----------------------------------------------------------------


POS_BOUND = 1 << 20


def _runs(first_pos, counts) -> AccessRunBatch:
    first_pos = np.asarray(first_pos, dtype=np.int64)
    return AccessRunBatch(
        bases=np.arange(first_pos.size, dtype=np.int64) << 20,
        stride=4,
        pos_stride=1,
        is_write=False,
        counts=np.asarray(counts, dtype=np.int64),
        first_pos=first_pos,
    )


def _adversarial_chunks():
    lengths = np.array([1 << k for k in range(19)], dtype=np.int64)
    layouts = {
        "first-100": _runs([0], [100]),
        "last-100": _runs([POS_BOUND - 100], [100]),
        # Run k holds 2**k members from position 2**(k+1): every octave is
        # half full, so the density a probe sees keeps changing.
        "geometric-runs": _runs(2 * lengths, lengths),
        # The same runs mirrored: long runs first, short runs last.
        "geometric-runs-mirrored": _runs(POS_BOUND - 3 * lengths, lengths),
    }
    return [
        (name, DescriptorChunk(total=batch.total, pos_bound=POS_BOUND, batches=[batch]))
        for name, batch in layouts.items()
    ]


ADVERSARIAL = _adversarial_chunks()


@pytest.mark.parametrize("name,chunk", ADVERSARIAL, ids=[name for name, _ in ADVERSARIAL])
def test_probe_bound_on_adversarial_layouts(name, chunk):
    """Every cut lands on the bisection's cutoff within 2·⌈log2 pos_bound⌉ counts."""
    limit = 2 * math.ceil(math.log2(chunk.pos_bound))
    counter = _MemberCounter(chunk)
    rng = np.random.default_rng(7)
    keeps = set(range(1, min(chunk.total, 101)))
    keeps.update(int(k) for k in rng.integers(1, chunk.total, size=100))
    keeps.update((1 << k) for k in range(20) if (1 << k) < chunk.total)
    keeps.add(chunk.total - 1)
    worst = 0
    for keep in sorted(keeps):
        probes = []

        def count_below(cutoff):
            probes.append(cutoff)
            return counter(cutoff)

        cutoff = _search_cutoff(count_below, keep, chunk.total, chunk.pos_bound)
        assert cutoff == reference_cutoff(chunk, keep), keep
        assert counter(cutoff) == keep and counter(cutoff - 1) == keep - 1
        worst = max(worst, len(probes))
    assert worst <= limit, f"{name}: {worst} counts > {limit}"
