"""Equivalence tests for the compressed descriptor trace pipeline.

Two properties anchor the descriptor path:

* **Trace equivalence** — for any program and any trace options,
  concatenating ``DescriptorChunk.expand()`` over
  :meth:`Program.memory_trace_descriptors` reproduces
  :meth:`Program.memory_trace` bit for bit (same chunk boundaries, same
  addresses, same write flags) — including guards, per-access predicates,
  gathers, ``sample_fraction`` < 1 and ``max_accesses`` truncation.
* **Statistics equivalence** — driving the descriptor stream through the
  vectorized engine produces cache statistics identical to the reference
  per-access loop on the expanded stream, at every level of the hierarchy.

The random-program generator below deliberately produces ugly programs:
negative coefficients, zero-extent-free but tiny loops, predicates with every
comparison operator, gathers and guard nests — so the closed-form collapse,
conflict explosion and chain pre-resolution paths all get exercised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen.program import (
    AccessRunBatch,
    Block,
    Buffer,
    DescriptorChunk,
    Guard,
    LinearPredicate,
    Loop,
    MemoryAccess,
    Program,
)
from repro.codegen.target import Target
from repro.sim import (
    CACHE_HIERARCHIES,
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    CacheHierarchy,
    CacheHierarchyConfig,
    CacheLevelConfig,
    RuntimeConfig,
    Simulator,
    TraceOptions,
)
from tests.conftest import expanded_walk_stats

OPS = ("lt", "le", "gt", "ge", "eq", "ne")

TINY_HIERARCHY = CacheHierarchyConfig(
    name="tiny",
    l1d=CacheLevelConfig(size_bytes=4 * 64 * 2, sets=4, associativity=2),
    l1i=CacheLevelConfig(size_bytes=4 * 64 * 2, sets=4, associativity=2),
    l2=CacheLevelConfig(size_bytes=8 * 64 * 2, sets=8, associativity=2),
    l3=CacheLevelConfig(size_bytes=16 * 64 * 4, sets=16, associativity=4),
)

#: The same geometry with random replacement everywhere: descriptor chunks
#: must replay the seeded victim stream bit-identically to the reference
#: loop on the expanded stream.
TINY_RANDOM_HIERARCHY = CacheHierarchyConfig(
    name="tiny-random",
    l1d=CacheLevelConfig(4 * 64 * 2, 4, 2, replacement="random"),
    l1i=CacheLevelConfig(4 * 64 * 2, 4, 2, replacement="random"),
    l2=CacheLevelConfig(8 * 64 * 2, 8, 2, replacement="random"),
    l3=CacheLevelConfig(16 * 64 * 4, 16, 4, replacement="random"),
)


def build_program(buffers, roots, name="prog"):
    return Program(name, Target.x86(), buffers, roots)


def random_program(rng: np.random.Generator) -> Program:
    n_buffers = int(rng.integers(1, 4))
    buffers = [
        Buffer(
            f"b{index}",
            size_bytes=int(rng.integers(1, 40)) * 256,
            element_bytes=int(rng.choice([1, 4, 8])),
        )
        for index in range(n_buffers)
    ]
    depth = int(rng.integers(1, 5))
    loops = [(f"v{level}", int(rng.integers(1, 7))) for level in range(depth)]
    names = [name for name, _ in loops]

    def random_predicates(limit):
        predicates = []
        for _ in range(int(rng.integers(0, limit + 1))):
            count = int(rng.integers(1, min(3, len(names)) + 1))
            chosen = rng.choice(names, size=count, replace=False)
            predicates.append(
                LinearPredicate(
                    coeffs={str(var): int(rng.integers(-3, 4)) for var in chosen},
                    const=int(rng.integers(-4, 5)),
                    op=str(rng.choice(OPS)),
                )
            )
        return predicates

    accesses = []
    for _ in range(int(rng.integers(1, 4))):
        buffer = buffers[int(rng.integers(0, n_buffers))]
        coeffs = {
            name: int(rng.integers(-8, 32)) for name, _ in loops if rng.random() < 0.8
        }
        gather = int(rng.choice([0, 0, 0, 2, 5]))
        accesses.append(
            MemoryAccess(
                buffer=buffer,
                coeffs=coeffs,
                const=int(rng.integers(0, 16)),
                is_store=bool(rng.random() < 0.4),
                width=int(rng.integers(2, 5)) if gather else 1,
                gather_stride=gather,
                predicates=random_predicates(2),
            )
        )
    node = Block(accesses=accesses)
    if rng.random() < 0.4:
        node = Guard(
            predicates=random_predicates(2)
            or [LinearPredicate({names[0]: 1}, 0, "ge")],
            body=node,
        )
    for name, extent in reversed(loops):
        node = Loop(var=name, extent=extent, kind="serial", body=node)
    return build_program(buffers, [node])


def assert_trace_equal(program: Program, **options) -> None:
    expanded = list(program.memory_trace(**options))
    descriptors = list(program.memory_trace_descriptors(**options))
    assert len(expanded) == len(descriptors)
    for index, ((addresses, writes), chunk) in enumerate(zip(expanded, descriptors)):
        got_addresses, got_writes = chunk.expand()
        assert chunk.total == addresses.size, f"chunk {index} size"
        assert np.array_equal(addresses, got_addresses), f"chunk {index} addresses"
        assert np.array_equal(writes, got_writes), f"chunk {index} writes"


def assert_stats_equal(
    program: Program, hierarchy=TINY_HIERARCHY, rng_seed: int = 0, **options
) -> None:
    reference = CacheHierarchy(hierarchy, engine=ENGINE_REFERENCE, rng_seed=rng_seed)
    for addresses, writes in program.memory_trace(**options):
        reference.access_data_batch(addresses, writes)
    descriptor = CacheHierarchy(hierarchy, engine=ENGINE_VECTORIZED, rng_seed=rng_seed)
    for chunk in program.memory_trace_descriptors(**options):
        descriptor.access_data_descriptors(chunk)
    assert reference.stats_dict() == descriptor.stats_dict()


class TestDescriptorTraceProperty:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_programs_trace_and_stats(self, seed):
        rng = np.random.default_rng(seed)
        program = random_program(rng)
        options = dict(chunk_iterations=int(rng.choice([5, 64, 1024])))
        if rng.random() < 0.5:
            options["max_accesses"] = int(rng.integers(1, 2000))
        if rng.random() < 0.4:
            options["sample_fraction"] = float(rng.uniform(0.2, 0.9))
            options["seed"] = seed
        assert_trace_equal(program, **options)
        assert_stats_equal(program, **options)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_replacement_descriptor_equivalence(self, seed):
        """Descriptor chunks replay the seeded victim stream bit-identically.

        The generated programs cover guards, predicates, gathers and
        truncation; the hierarchy uses random replacement at every level, so
        the vectorized engine's closed-form head collapse must consume the
        per-set eviction ordinals exactly as the reference loop does.
        """
        rng = np.random.default_rng(1000 + seed)
        program = random_program(rng)
        options = dict(chunk_iterations=int(rng.choice([5, 64, 1024])))
        if rng.random() < 0.5:
            options["max_accesses"] = int(rng.integers(1, 2000))
        assert_stats_equal(
            program, hierarchy=TINY_RANDOM_HIERARCHY, rng_seed=seed, **options
        )

    def test_random_replacement_truncation_and_chunking_invariance(self):
        rng = np.random.default_rng(77)
        program = random_program(rng)
        base = None
        for chunk_iterations in (7, 100, 1 << 14):
            hierarchy = CacheHierarchy(
                TINY_RANDOM_HIERARCHY, engine=ENGINE_VECTORIZED, rng_seed=5
            )
            for chunk in program.memory_trace_descriptors(
                chunk_iterations=chunk_iterations, max_accesses=1500
            ):
                hierarchy.access_data_descriptors(chunk)
            stats = hierarchy.stats_dict()
            if base is None:
                base = stats
            else:
                assert stats == base

    def test_chunking_invariance_of_statistics(self):
        rng = np.random.default_rng(11)
        program = random_program(rng)
        base = None
        for chunk_iterations in (7, 100, 1 << 14):
            hierarchy = CacheHierarchy(TINY_HIERARCHY, engine=ENGINE_VECTORIZED)
            for chunk in program.memory_trace_descriptors(chunk_iterations=chunk_iterations):
                hierarchy.access_data_descriptors(chunk)
            stats = hierarchy.stats_dict()
            if base is None:
                base = stats
            else:
                assert stats == base


class TestDescriptorShapes:
    """Targeted geometries for each closed-form collapse case."""

    def _linear_program(self, coeffs, extents, elem=4, predicates=(), is_store=False):
        buffer = Buffer("b", size_bytes=1 << 16, element_bytes=elem)
        access = MemoryAccess(
            buffer=buffer,
            coeffs=coeffs,
            const=64,
            is_store=is_store,
            predicates=list(predicates),
        )
        node = Block(accesses=[access])
        for name, extent in reversed(extents):
            node = Loop(var=name, extent=extent, kind="serial", body=node)
        return build_program([buffer], [node])

    def test_zero_stride_run(self):
        program = self._linear_program({"i": 1}, [("i", 8), ("j", 64)])
        assert_trace_equal(program)
        assert_stats_equal(program)

    def test_contiguous_run_collapses(self):
        program = self._linear_program({"i": 64, "j": 1}, [("i", 16), ("j", 64)])
        chunks = list(program.memory_trace_descriptors())
        assert chunks[0].nbytes() < 200  # one regular batch, scalars only
        assert_stats_equal(program)

    def test_large_stride_and_negative_stride(self):
        for coeff in (64, -17, -1):
            program = self._linear_program({"j": coeff}, [("i", 4), ("j", 50)])
            assert_trace_equal(program)
            assert_stats_equal(program)

    def test_gather_lanes(self):
        buffer = Buffer("b", size_bytes=1 << 14, element_bytes=4)
        access = MemoryAccess(
            buffer=buffer,
            coeffs={"i": 3},
            const=0,
            is_store=False,
            width=4,
            gather_stride=7,
        )
        node = Loop(var="i", extent=100, kind="serial", body=Block(accesses=[access]))
        program = build_program([buffer], [node])
        assert_trace_equal(program)
        assert_stats_equal(program)

    def test_guards_and_scalar_promotion_predicates(self):
        buffer = Buffer("b", size_bytes=1 << 14, element_bytes=4)
        first = LinearPredicate({"k": 1}, 0, "eq")  # hoisted-load pattern
        interior = LinearPredicate({"j": 2, "k": 1}, -3, "ge")  # padding window
        load = MemoryAccess(buffer=buffer, coeffs={"j": 4}, const=0, is_store=False,
                            predicates=[first])
        store = MemoryAccess(buffer=buffer, coeffs={"j": 4, "k": 1}, const=1,
                             is_store=True, predicates=[interior])
        node = Block(accesses=[load, store])
        node = Guard(predicates=[LinearPredicate({"i": 1}, -1, "ge")], body=node)
        for name, extent in (("k", 4), ("j", 8), ("i", 3)):
            node = Loop(var=name, extent=extent, kind="serial", body=node)
        program = build_program([buffer], [node])
        assert_trace_equal(program)
        assert_stats_equal(program)

    def test_conflicting_interleaved_buffers_explode_exactly(self):
        # Two buffers whose lines alias to the same set force the conflict
        # explosion path: a long run of one buffer interleaved with accesses
        # of the other in the same set.
        a = Buffer("a", size_bytes=1 << 13, element_bytes=4)
        b = Buffer("b", size_bytes=1 << 13, element_bytes=4)
        run = MemoryAccess(buffer=a, coeffs={"i": 1}, const=0, is_store=False)
        hopper = MemoryAccess(buffer=b, coeffs={"i": 64}, const=0, is_store=True)
        node = Loop(var="i", extent=512, kind="serial",
                    body=Block(accesses=[run, hopper]))
        program = build_program([a, b], [node])
        assert_trace_equal(program)
        assert_stats_equal(program)

    def test_truncation_stays_descriptor_form(self):
        program = self._linear_program({"i": 64, "j": 1}, [("i", 16), ("j", 64)])
        chunks = list(program.memory_trace_descriptors(max_accesses=777))
        assert sum(chunk.total for chunk in chunks) == 777
        assert chunks[-1].batches, "truncated chunk should keep its run batches"
        assert_trace_equal(program, max_accesses=777)
        assert_stats_equal(program, max_accesses=777)

    def test_empty_and_degenerate_programs(self):
        buffer = Buffer("b", size_bytes=256, element_bytes=4)
        empty = build_program([buffer], [Loop("i", 4, "serial", Block())])
        assert list(empty.memory_trace_descriptors()) == []
        scalar = build_program(
            [buffer],
            [Block(accesses=[MemoryAccess(buffer=buffer, coeffs={}, const=3,
                                          is_store=True)])],
        )
        assert_trace_equal(scalar)
        assert_stats_equal(scalar)


def _tiled_program(splits, elem=4, outer_order=None, inner_order=None, extra_accesses=()):
    """A conv2d-style tiled schedule: logical dims split into outer/inner loops.

    ``splits`` is a list of ``(outer, inner)`` factor pairs, one per logical
    (row-major) tensor dimension; the loop nest runs all outer loops first,
    then all inner loops, so the innermost affine window is tiny and the
    descriptor emitter must grid the outer structure to compress anything.
    """
    n_dims = len(splits)
    extents = [o * i for o, i in splits]
    strides = [1] * n_dims
    for d in range(n_dims - 2, -1, -1):
        strides[d] = strides[d + 1] * extents[d + 1]
    outer_order = list(outer_order if outer_order is not None else range(n_dims))
    inner_order = list(inner_order if inner_order is not None else range(n_dims))
    loops = [(f"o{d}", splits[d][0]) for d in outer_order]
    loops += [(f"i{d}", splits[d][1]) for d in inner_order]
    coeffs = {}
    for d in range(n_dims):
        coeffs[f"o{d}"] = strides[d] * splits[d][1]
        coeffs[f"i{d}"] = strides[d]
    buffer = Buffer("b", size_bytes=(strides[0] * extents[0] + 16) * elem, element_bytes=elem)
    accesses = [MemoryAccess(buffer=buffer, coeffs=coeffs, const=0, is_store=False)]
    for access in extra_accesses:
        accesses.append(access(buffer, coeffs, splits, inner_order))
    node = Block(accesses=accesses)
    for name, extent in reversed(loops):
        node = Loop(var=name, extent=extent, kind="serial", body=node)
    return build_program([buffer], [node])


def _padded_store(buffer, coeffs, splits, inner_order):
    """A store guarded by a padding-style window on logical dim 0."""
    predicate = LinearPredicate({"o0": splits[0][1], "i0": 1}, -1, "ge")
    return MemoryAccess(
        buffer=buffer, coeffs=dict(coeffs), const=1, is_store=True, predicates=[predicate]
    )


def _promoted_load(buffer, coeffs, splits, inner_order):
    """A scalar-promoted load that fires on the first innermost iteration only."""
    hoisted = f"i{inner_order[-1]}"
    return MemoryAccess(
        buffer=buffer,
        coeffs={name: value for name, value in coeffs.items() if name != hoisted},
        const=3,
        is_store=False,
        predicates=[LinearPredicate({hoisted: 1}, 0, "eq")],
    )


def overlapping_grid_chunk() -> DescriptorChunk:
    """A hand-built grid whose four outer slabs overlap in position space."""
    batch = AccessRunBatch(
        bases=np.array([0x100], dtype=np.int64),
        stride=4,
        pos_stride=7,
        is_write=False,
        uniform_count=3,
        first_pos_start=0,
        grid_strides=np.array([0x40], dtype=np.int64),
        grid_counts=np.array([4], dtype=np.int64),
        grid_pos_strides=np.array([5], dtype=np.int64),  # < run span of 14
    )
    return DescriptorChunk(total=12, pos_bound=32, batches=[batch])


def mixed_span_chunk() -> DescriptorChunk:
    """Two runs interleaved with a hand-built explicit span on odd slots."""
    rng = np.random.default_rng(9)
    batch = AccessRunBatch(
        bases=np.array([0x1000, 0x8000], dtype=np.int64),
        stride=4,
        pos_stride=2,
        is_write=False,
        counts=np.array([40, 40], dtype=np.int64),
        first_pos=np.array([0, 80], dtype=np.int64),
    )
    span_positions = np.arange(1, 41, 2, dtype=np.int64)  # a few odd slots
    return DescriptorChunk(
        total=80 + span_positions.size,
        pos_bound=161,
        batches=[batch],
        addresses=rng.integers(0, 1 << 14, size=span_positions.size).astype(np.int64),
        writes=rng.random(span_positions.size) < 0.5,
        positions=span_positions,
    )


class TestGridRunBatches:
    """Multi-level grid descriptors: structure, truncation, engine collapse."""

    def test_tiled_nest_compresses_to_grids(self):
        program = _tiled_program([(4, 3), (5, 2), (3, 4)])
        chunks = list(program.memory_trace_descriptors())
        assert len(chunks) == 1
        chunk = chunks[0]
        assert any(batch.grid_counts is not None for batch in chunk.batches)
        # One stored run plus a handful of level scalars, not one run per
        # tiled window (the nest has 4*5*3 * 3*2 = 360 windows).
        assert chunk.nbytes() < 512
        assert_trace_equal(program)
        assert_stats_equal(program)

    def test_predicated_tiled_nest(self):
        program = _tiled_program(
            [(4, 3), (5, 2), (3, 4)], extra_accesses=[_padded_store, _promoted_load]
        )
        chunks = list(program.memory_trace_descriptors())
        expanded_bytes = sum(
            a.nbytes + w.nbytes for a, w in program.memory_trace()
        )
        assert sum(chunk.nbytes() for chunk in chunks) * 3 < expanded_bytes
        assert_trace_equal(program)
        assert_stats_equal(program)

    def test_degrid_matches_member_addresses(self):
        batch = AccessRunBatch(
            bases=np.array([0x100, 0x900], dtype=np.int64),
            stride=8,
            pos_stride=3,
            is_write=False,
            counts=np.array([3, 2], dtype=np.int64),
            first_pos=np.array([0, 9], dtype=np.int64),
            grid_strides=np.array([0x2000, 64], dtype=np.int64),
            grid_counts=np.array([2, 4], dtype=np.int64),
            grid_pos_strides=np.array([400, 100], dtype=np.int64),
        )
        assert batch.grid_multiplicity == 8
        assert batch.total == 5 * 8
        flat = batch.degrid()
        assert flat.grid_counts is None and flat.total == batch.total
        addresses, positions = batch.member_addresses()
        flat_addresses, flat_positions = flat.member_addresses()
        order, flat_order = np.argsort(positions), np.argsort(flat_positions)
        assert np.array_equal(addresses[order], flat_addresses[flat_order])
        assert np.array_equal(positions[order], flat_positions[flat_order])

    def test_truncate_mid_grid_keeps_grid_form(self):
        program = _tiled_program([(6, 2), (4, 3), (2, 5)])
        full = list(program.memory_trace_descriptors())
        assert any(b.grid_counts is not None for c in full for b in c.batches)
        total = sum(chunk.total for chunk in full)
        # Land strictly inside the grid: an odd cut well past the first slab.
        keep = total // 2 + 7
        chunks = list(program.memory_trace_descriptors(max_accesses=keep))
        assert sum(chunk.total for chunk in chunks) == keep
        assert any(
            batch.grid_counts is not None for batch in chunks[-1].batches
        ), "mid-grid truncation should keep the fully-covered slabs as a grid"
        assert_trace_equal(program, max_accesses=keep)
        assert_stats_equal(program, max_accesses=keep)

    def test_truncate_overlapping_handbuilt_grid_falls_back(self):
        # Slabs of the outer level overlap in position space.  The emitter
        # makes such levels too (see test_truncate_oracle.py); this one is
        # hand-built, and truncation must detect it and clip the degridded
        # runs instead.
        chunk = overlapping_grid_chunk()
        addresses, writes = chunk.expand()
        truncated = chunk.truncate(7)
        t_addresses, t_writes = truncated.expand()
        assert truncated.total == 7
        assert np.array_equal(t_addresses, addresses[:7])
        assert np.array_equal(t_writes, writes[:7])

    def test_all_masked_chunks_are_skipped(self):
        # The guard masks out whole chunk-sized stretches (i >= 6 never
        # holds in the second half): neither stream yields empty chunks and
        # they stay chunk-aligned.
        buffer = Buffer("b", size_bytes=1 << 12, element_bytes=4)
        access = MemoryAccess(buffer=buffer, coeffs={"i": 1, "j": 1}, const=0, is_store=False)
        node = Guard(
            predicates=[LinearPredicate({"i": -1}, 5, "ge")],  # i <= 5
            body=Block(accesses=[access]),
        )
        for name, extent in (("j", 8), ("i", 12)):
            node = Loop(var=name, extent=extent, kind="serial", body=node)
        program = build_program([buffer], [node])
        descriptor_chunks = list(program.memory_trace_descriptors(chunk_iterations=8))
        expanded_chunks = list(program.memory_trace(chunk_iterations=8))
        assert len(descriptor_chunks) == len(expanded_chunks) == 6
        assert all(chunk.total > 0 for chunk in descriptor_chunks)
        assert all(addresses.size > 0 for addresses, _ in expanded_chunks)
        assert_trace_equal(program, chunk_iterations=8)
        assert_stats_equal(program, chunk_iterations=8)


class TestSegmentSplitting:
    """Conflicted collapsed heads: segment splitting vs singleton explosion."""

    def _conflict_program(self):
        # A long unit-stride run through buffer a interleaved with a
        # line-hopping store through buffer b aliasing into the same sets:
        # every collapsed head of the run overlaps foreign heads.
        a = Buffer("a", size_bytes=1 << 13, element_bytes=4)
        b = Buffer("b", size_bytes=1 << 13, element_bytes=4)
        run = MemoryAccess(buffer=a, coeffs={"i": 1}, const=0, is_store=False)
        hopper = MemoryAccess(buffer=b, coeffs={"i": 64}, const=0, is_store=True)
        node = Loop(
            var="i", extent=512, kind="serial", body=Block(accesses=[run, hopper])
        )
        return build_program([a, b], [node])

    def test_splitting_is_bit_identical_to_explosion(self, monkeypatch):
        import repro.sim.engine as engine_module

        program = self._conflict_program()
        options = dict(chunk_iterations=256)

        def run_stats():
            hierarchy = CacheHierarchy(TINY_HIERARCHY, engine=ENGINE_VECTORIZED)
            for chunk in program.memory_trace_descriptors(**options):
                hierarchy.access_data_descriptors(chunk)
            return hierarchy.stats_dict()

        with_splitting = run_stats()
        monkeypatch.setattr(engine_module, "SEGMENT_SPLIT_PASSES", 0)
        explosion_only = run_stats()
        assert with_splitting == explosion_only
        assert_stats_equal(program, **options)

    def test_splitting_avoids_member_explosion(self, monkeypatch):
        # A localized conflict: one foreign singleton (same set, different
        # line) lands in the middle of a 16-member collapsed head.  Splitting
        # cuts the head into two collapsed sub-runs without materialising
        # members; explosion shatters all 16 and relies on the final
        # adjacent-merge pass to stitch them back together.  The outputs are
        # bit-identical — splitting only removes the intermediate work.
        import repro.sim.engine as engine_module
        from repro.sim.engine import chunk_heads

        run = AccessRunBatch(
            bases=np.array([0x1000], dtype=np.int64),
            stride=4,
            pos_stride=2,
            is_write=True,
            uniform_count=64,
            first_pos_start=0,
        )
        foreign = AccessRunBatch(
            bases=np.array([0x1100], dtype=np.int64),  # line 0x44: set 0, like 0x40
            stride=0,
            pos_stride=2,
            is_write=False,
            uniform_count=1,
            first_pos_start=15,
        )
        chunk = DescriptorChunk(total=65, pos_bound=130, batches=[run, foreign])

        original = engine_module._ragged_arange
        calls = {"count": 0}

        def counting(counts):
            calls["count"] += 1
            return original(counts)

        monkeypatch.setattr(engine_module, "_ragged_arange", counting)
        split_heads = chunk_heads(chunk, offset_bits=6, set_mask=3)
        split_calls = calls["count"]
        calls["count"] = 0
        monkeypatch.setattr(engine_module, "SEGMENT_SPLIT_PASSES", 0)
        exploded_heads = chunk_heads(chunk, offset_bits=6, set_mask=3)
        assert calls["count"] > split_calls, "explosion should materialise members"
        for split_part, exploded_part in zip(split_heads, exploded_heads):
            assert np.array_equal(split_part, exploded_part)
        # The conflicted 16-member head survives as collapsed sub-runs, and
        # every member is accounted for (the run is a store: write counts).
        assert int(split_heads[3].sum()) == 64

        def run_stats():
            hierarchy = CacheHierarchy(TINY_HIERARCHY, engine=ENGINE_VECTORIZED)
            hierarchy.l1d.access_descriptors(chunk)
            return hierarchy.stats_dict()

        explosion_stats = run_stats()
        monkeypatch.setattr(engine_module, "SEGMENT_SPLIT_PASSES", 4)
        assert run_stats() == explosion_stats

    @pytest.mark.parametrize("seed", range(20))
    def test_random_programs_split_vs_explode(self, seed, monkeypatch):
        import repro.sim.engine as engine_module

        rng = np.random.default_rng(5000 + seed)
        program = random_program(rng)
        options = dict(chunk_iterations=int(rng.choice([64, 1024])))

        def run_stats():
            hierarchy = CacheHierarchy(TINY_HIERARCHY, engine=ENGINE_VECTORIZED)
            for chunk in program.memory_trace_descriptors(**options):
                hierarchy.access_data_descriptors(chunk)
            return hierarchy.stats_dict()

        with_splitting = run_stats()
        monkeypatch.setattr(engine_module, "SEGMENT_SPLIT_PASSES", 0)
        assert run_stats() == with_splitting


@st.composite
def tiled_programs(draw):
    """Hypothesis strategy over tiled conv2d-style schedules."""
    n_dims = draw(st.integers(2, 3))
    splits = [
        (draw(st.integers(1, 3)), draw(st.integers(1, 4))) for _ in range(n_dims)
    ]
    outer_order = draw(st.permutations(list(range(n_dims))))
    inner_order = draw(st.permutations(list(range(n_dims))))
    extras = []
    if draw(st.booleans()):
        extras.append(_padded_store)
    if draw(st.booleans()):
        extras.append(_promoted_load)
    return _tiled_program(
        splits,
        elem=draw(st.sampled_from([4, 8])),
        outer_order=outer_order,
        inner_order=inner_order,
        extra_accesses=extras,
    )


class TestGridHypothesis:
    """Property-based equivalence of grid descriptors vs expanded traces."""

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        program=tiled_programs(),
        chunk_iterations=st.sampled_from([5, 64, 1024, 1 << 16]),
    )
    def test_tiled_trace_and_stats_equivalence(self, program, chunk_iterations):
        assert_trace_equal(program, chunk_iterations=chunk_iterations)
        assert_stats_equal(program, chunk_iterations=chunk_iterations)

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(program=tiled_programs(), data=st.data())
    def test_truncation_lands_anywhere(self, program, data):
        total = sum(chunk.total for chunk in program.memory_trace_descriptors())
        keep = data.draw(st.integers(1, max(total, 1)), label="max_accesses")
        assert_trace_equal(program, max_accesses=keep)
        assert_stats_equal(program, max_accesses=keep)

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        program=tiled_programs(),
        rng_seed=st.integers(0, 7),
        chunk_iterations=st.sampled_from([64, 1 << 16]),
    )
    def test_tiled_random_replacement_equivalence(
        self, program, rng_seed, chunk_iterations
    ):
        assert_stats_equal(
            program,
            hierarchy=TINY_RANDOM_HIERARCHY,
            rng_seed=rng_seed,
            chunk_iterations=chunk_iterations,
        )


class TestTraceModePlumbing:
    def test_simulator_trace_modes_bit_identical(self, conv_program_x86):
        """The simulator's descriptor walk equals the expanded trace fed
        straight into a vectorized hierarchy, at every level."""
        options = TraceOptions(max_accesses=20_000)
        simulator = Simulator("x86", trace_options=options, config=RuntimeConfig(memoize=False))
        flat = simulator.run(conv_program_x86).flat_stats()
        flat.pop("sim.host_seconds")
        assert flat == expanded_walk_stats(
            CACHE_HIERARCHIES["x86"], conv_program_x86, options
        )


class TestProgramDescriptorApi:
    def test_buffer_by_name_dict_semantics(self):
        buffers = [Buffer("x", 256, 4), Buffer("y", 256, 4)]
        program = build_program(buffers, [Block()])
        assert program.buffer_by_name("x") is buffers[0]
        with pytest.raises(KeyError):
            program.buffer_by_name("z")

    def test_chunk_nbytes_accounts_batches(self):
        chunk = DescriptorChunk(total=0, pos_bound=1)
        assert chunk.nbytes() == 0

    def test_truncate_to_zero_is_empty_and_negative_raises(self):
        batch = AccessRunBatch(
            bases=np.array([0x100], dtype=np.int64),
            stride=4,
            pos_stride=1,
            is_write=False,
            uniform_count=10,
            first_pos_start=0,
        )
        chunk = DescriptorChunk(total=10, pos_bound=10, batches=[batch])
        empty = chunk.truncate(0)
        assert (empty.total, empty.pos_bound, empty.batches) == (0, 0, [])
        assert empty.addresses is None and empty.writes is None and empty.positions is None
        addresses, writes = empty.expand()
        assert addresses.size == 0 and writes.size == 0
        hierarchy = CacheHierarchy(TINY_HIERARCHY, engine=ENGINE_VECTORIZED)
        hierarchy.access_data_descriptors(empty)
        assert hierarchy.stats_dict()["l1d"]["read_accesses"] == 0
        with pytest.raises(ValueError, match="negative"):
            chunk.truncate(-3)

    def test_mixed_chunk_with_explicit_span(self):
        # The explicit span is the escape hatch for non-affine producers; the
        # built-in emitter never creates one, so exercise the consumer
        # branches (expand, truncate, engine heads) with a hand-built chunk.
        chunk = mixed_span_chunk()
        (batch,) = chunk.batches
        # Independent reconstruction: members ordered by trace position.
        run_addresses, run_positions = batch.member_addresses()
        all_addresses = np.concatenate([run_addresses, chunk.addresses])
        all_positions = np.concatenate([run_positions, chunk.positions])
        order = np.argsort(all_positions)
        addresses, writes = chunk.expand()
        assert np.array_equal(addresses.astype(np.int64), all_addresses[order])

        truncated = chunk.truncate(57)
        t_addresses, t_writes = truncated.expand()
        assert truncated.total == 57
        assert np.array_equal(t_addresses, addresses[:57])
        assert np.array_equal(t_writes, writes[:57])

        # Replaying the mixed chunk against the expanded stream must give
        # identical statistics, and the chunk is large and compressible
        # enough to engage the closed-form head path (not the expand
        # fallback) on the vectorized engine.
        from repro.sim.engine import DESCRIPTOR_HEAD_FRACTION, estimated_heads

        assert chunk.total >= 48
        assert estimated_heads(chunk, 6) <= DESCRIPTOR_HEAD_FRACTION * chunk.total
        reference = CacheHierarchy(TINY_HIERARCHY, engine=ENGINE_REFERENCE)
        reference.access_data_batch(addresses, writes)
        descriptor = CacheHierarchy(TINY_HIERARCHY, engine=ENGINE_VECTORIZED)
        descriptor.access_data_descriptors(chunk)
        assert reference.stats_dict() == descriptor.stats_dict()


# ---------------------------------------------------------------------------
# native head pipeline (compiled counterpart of chunk_heads)
# ---------------------------------------------------------------------------

from repro.sim._native import chunk_heads_kernel  # noqa: E402
from repro.sim.engine import chunk_heads, native_chunk_heads  # noqa: E402
import repro.sim.engine as engine_module  # noqa: E402

needs_native = pytest.mark.skipif(
    chunk_heads_kernel() is None,
    reason="compiled head pipeline unavailable (no compiler or REPRO_SIM_NATIVE=0)",
)

#: (offset_bits, set_mask) pairs covering the tiny test hierarchy's levels
#: plus a wider L2-like geometry and a sub-64-byte line size.
HEAD_GEOMETRIES = [(6, 3), (6, 7), (6, 255), (4, 15)]


def assert_native_heads_equal(chunk, offset_bits, set_mask, split_passes):
    """Native pipeline output must be bit-identical to :func:`chunk_heads`."""
    saved = engine_module.SEGMENT_SPLIT_PASSES
    engine_module.SEGMENT_SPLIT_PASSES = split_passes
    try:
        expected = chunk_heads(chunk, offset_bits, set_mask)
    finally:
        engine_module.SEGMENT_SPLIT_PASSES = saved
    got = native_chunk_heads(chunk, offset_bits, set_mask, split_passes=split_passes)
    assert got is not None
    for field, (want, have) in enumerate(zip(expected, got)):
        assert want.shape == have.shape, f"field {field} shape"
        assert np.array_equal(
            np.asarray(want, dtype=np.int64), np.asarray(have, dtype=np.int64)
        ), f"field {field}"


@needs_native
class TestNativeHeadPipeline:
    """The C head pipeline is bit-identical to the NumPy oracle.

    ``chunk_heads`` stays the equivalence oracle (and the
    ``REPRO_SIM_NATIVE=0`` fallback); every geometry, split-pass setting,
    truncation point and grid/stored-run mix the emitter can produce must
    come out of the compiled pipeline with identical head arrays — sets,
    lines, write flags, write counts, first and last positions.
    """

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        program=tiled_programs(),
        chunk_iterations=st.sampled_from([5, 64, 1 << 16]),
        split_passes=st.sampled_from([0, 1, 2]),
        geometry=st.sampled_from(HEAD_GEOMETRIES),
    )
    def test_tiled_grid_chunks(self, program, chunk_iterations, split_passes, geometry):
        offset_bits, set_mask = geometry
        for chunk in program.memory_trace_descriptors(chunk_iterations=chunk_iterations):
            assert_native_heads_equal(chunk, offset_bits, set_mask, split_passes)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_programs(self, seed):
        rng = np.random.default_rng(700 + seed)
        program = random_program(rng)
        split_passes = seed % 3
        offset_bits, set_mask = HEAD_GEOMETRIES[seed % len(HEAD_GEOMETRIES)]
        for chunk in program.memory_trace_descriptors(chunk_iterations=97):
            assert_native_heads_equal(chunk, offset_bits, set_mask, split_passes)

    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(program=tiled_programs(), data=st.data())
    def test_truncated_chunks(self, program, data):
        chunks = list(program.memory_trace_descriptors())
        total = sum(chunk.total for chunk in chunks)
        keep = data.draw(st.integers(1, max(total, 1)), label="max_accesses")
        for chunk in program.memory_trace_descriptors(max_accesses=keep):
            assert_native_heads_equal(chunk, 6, 7, 2)

    def test_expand_mode_matches_head_mode(self):
        """The driver's expansion mode lands on the same merged heads.

        ``split_passes=-1`` routes the oracle entry point through the
        member-expansion pipeline (the mode the batch driver picks when
        the head estimate is poor); its maximal collapse must equal the
        closed-form + segment-split route for any split setting.
        """
        rng = np.random.default_rng(41)
        for case in range(10):
            program = random_program(rng)
            for chunk in program.memory_trace_descriptors(chunk_iterations=173):
                reference = native_chunk_heads(chunk, 6, 7, split_passes=2)
                expanded = native_chunk_heads(chunk, 6, 7, split_passes=-1)
                for want, have in zip(reference, expanded):
                    assert np.array_equal(
                        np.asarray(want, dtype=np.int64),
                        np.asarray(have, dtype=np.int64),
                    )

    def test_mixed_chunk_with_explicit_span_native(self):
        """Explicit members join the native pipeline as singleton heads."""
        rng = np.random.default_rng(9)
        batch = AccessRunBatch(
            bases=np.array([0, 4096], dtype=np.int64),
            stride=8,
            pos_stride=2,
            is_write=False,
            counts=np.array([40, 40], dtype=np.int64),
            first_pos=np.array([0, 80], dtype=np.int64),
        )
        span_positions = np.arange(1, 41, 2, dtype=np.int64)
        chunk = DescriptorChunk(
            total=80 + span_positions.size,
            pos_bound=161,
            batches=[batch],
            addresses=rng.integers(0, 1 << 14, size=span_positions.size).astype(np.int64),
            writes=rng.random(span_positions.size) < 0.5,
            positions=span_positions,
        )
        for split_passes in (0, 1, 2):
            assert_native_heads_equal(chunk, 6, 7, split_passes)
