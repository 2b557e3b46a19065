"""Tests for the unified replacement-policy registry (PLRU and SRRIP).

The :class:`~repro.sim.policies.PolicySpec` registry is the single source
of truth for replacement behaviour; the reference per-access loop is the
equivalence oracle.  This file pins the two policies that landed as pure
registry additions — tree-PLRU and SRRIP — bit-identical across every
execution layer: the vectorized NumPy engine (rank rounds and scalar
chain tails), the native event kernel, the arena batch driver and the
descriptor stream.  CI runs it with and without ``REPRO_SIM_NATIVE=0``,
so the same assertions cover the pure-NumPy fallbacks and the compiled
fast paths.

It also pins the registry contract itself: stable wire ids (they join the
native ABI and the memoization key), geometry validation, and one memo
digest per policy so new policies can never alias results computed before
they existed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    Cache,
    CacheConfig,
    CacheHierarchy,
    CacheHierarchyConfig,
    CacheLevelConfig,
    MainMemory,
    POLICIES,
    POLICY_NAMES,
    ReplacementPolicy,
    SimulationCache,
    Simulator,
    TraceOptions,
    get_policy,
    hierarchy_with_replacement,
    policy_wire_id,
)
from repro.sim.policies import (
    RRIP_HIT,
    RRIP_INSERT,
    RRIP_MAX,
    _plru_touch_bits,
    _plru_victim_way,
)


def make_pair(sets, assoc, policy, with_memory=True, rng_seed=0):
    """One reference and one vectorized cache with identical geometry."""
    config = CacheConfig.from_geometry(
        "test", sets=sets, associativity=assoc, replacement=policy, rng_seed=rng_seed
    )
    reference = Cache(
        config, next_level=MainMemory() if with_memory else None, engine=ENGINE_REFERENCE
    )
    vectorized = Cache(
        config, next_level=MainMemory() if with_memory else None, engine=ENGINE_VECTORIZED
    )
    return reference, vectorized


def assert_equivalent(reference: Cache, vectorized: Cache):
    assert reference.stats_dict() == vectorized.stats_dict()
    assert reference.resident_lines() == vectorized.resident_lines()
    if reference.next_level is not None:
        assert reference.next_level.stats_dict() == vectorized.next_level.stats_dict()


#: Includes a non-power-of-two associativity (the ARM L1I's 3 ways) and a
#: direct-mapped geometry, both of which exercise PLRU's empty-half guard.
GEOMETRIES = [(4, 2), (8, 1), (4, 3), (2, 4), (16, 4), (8, 5)]

NEW_POLICIES = [ReplacementPolicy.PLRU, ReplacementPolicy.RRIP]


class TestRegistryContract:
    def test_wire_ids_are_stable(self):
        """Wire ids are an append-only ABI shared with the C kernels."""
        assert {name: policy_wire_id(name) for name in POLICY_NAMES} == {
            "fifo": 0,
            "lru": 1,
            "random": 2,
            "plru": 3,
            "rrip": 4,
        }

    def test_registry_names_in_wire_order(self):
        assert POLICY_NAMES == ("fifo", "lru", "random", "plru", "rrip")
        assert [spec.wire_id for spec in POLICIES.values()] == [0, 1, 2, 3, 4]
        assert sorted(ReplacementPolicy.ALL) == sorted(POLICY_NAMES)

    def test_get_policy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            get_policy("mru")

    def test_traits(self):
        assert get_policy("lru").exact_stack and get_policy("lru").touch_on_hit
        assert get_policy("random").uses_victim_stream
        for name in ("fifo", "plru", "rrip"):
            spec = get_policy(name)
            assert not spec.exact_stack
            assert not spec.uses_victim_stream
        assert get_policy("plru").aux_kind == "set"
        assert get_policy("rrip").aux_kind == "way"

    def test_plru_associativity_ceiling(self):
        """One int64 packs a tree over at most 64 leaves."""
        get_policy("plru").validate_geometry(64)
        with pytest.raises(ValueError, match="at most 64 ways"):
            get_policy("plru").validate_geometry(65)
        with pytest.raises(ValueError, match="at most 64 ways"):
            CacheConfig.from_geometry(
                "huge", sets=2, associativity=65, replacement=ReplacementPolicy.PLRU
            )

    def test_no_policy_string_branches_outside_registry(self):
        """The refactor's point: no engine dispatches on policy-name strings."""
        import pathlib

        import repro.sim as sim_pkg

        sim_dir = pathlib.Path(sim_pkg.__file__).parent
        offenders = [
            path.name
            for path in sim_dir.glob("*.py")
            if path.name != "policies.py" and 'replacement == "' in path.read_text()
        ]
        assert offenders == []


class TestPlruTree:
    def test_touch_sequence_is_lru_like(self):
        """Sequential touches leave the untouched-longest way as the victim."""
        bits = 0
        for way in (0, 1, 2, 3):
            bits = _plru_touch_bits(bits, way, 4)
        assert _plru_victim_way(bits, 4) == 0
        bits = _plru_touch_bits(bits, 0, 4)
        assert _plru_victim_way(bits, 4) == 2

    def test_victim_avoids_last_touched_way(self):
        rng = np.random.default_rng(7)
        for assoc in (2, 3, 4, 5, 8):
            bits = 0
            for way in rng.integers(0, assoc, size=64):
                bits = _plru_touch_bits(bits, int(way), assoc)
                if assoc > 1:
                    assert _plru_victim_way(bits, assoc) != way

    def test_victim_always_valid_for_ragged_associativity(self):
        """The forced-left walk never selects a way beyond the associativity."""
        for assoc in (1, 2, 3, 5, 6, 7):
            for bits in range(1 << 7):
                assert 0 <= _plru_victim_way(bits, assoc) < assoc


class TestRripSemantics:
    def test_constants(self):
        assert (RRIP_MAX, RRIP_INSERT, RRIP_HIT) == (3, 2, 0)

    def _reference(self, assoc=2):
        config = CacheConfig.from_geometry(
            "rrip", sets=1, associativity=assoc, replacement=ReplacementPolicy.RRIP
        )
        return Cache(config, next_level=MainMemory(), engine=ENGINE_REFERENCE)

    def test_without_reuse_behaves_fifo_like(self):
        """No hits: all lines age together, the first way at RRIP_MAX goes."""
        cache = self._reference()
        for line in (0, 1, 2, 3):
            cache.access(line * 64, False)
        assert not cache.contains(0 * 64) and not cache.contains(1 * 64)
        assert cache.contains(2 * 64) and cache.contains(3 * 64)

    def test_hit_promotion_protects_reused_line(self):
        """A hit promotes to RRPV 0, so the un-reused line is evicted first."""
        cache = self._reference()
        cache.access(0 * 64, False)
        cache.access(1 * 64, False)
        cache.access(0 * 64, False)  # hit: line 0 promoted to RRIP_HIT
        cache.access(2 * 64, False)  # aging evicts line 1 (still at RRIP_INSERT)
        assert cache.contains(0 * 64)
        assert not cache.contains(1 * 64)
        assert cache.contains(2 * 64)

    def test_collapsed_rerun_promotes_like_explicit_hits(self):
        """Consecutive same-line repeats (collapsed into one head by the
        chunk engines) must leave the line promoted — the retouch rule."""
        explicit, collapsed = make_pair(1, 2, ReplacementPolicy.RRIP)
        trace = np.asarray([0, 0, 0, 64, 128], dtype=np.int64) // 64
        writes = np.zeros(trace.size, dtype=bool)
        explicit.access_lines(trace, writes)
        collapsed.access_lines(trace, writes)
        assert_equivalent(explicit, collapsed)
        # Line 0 was re-touched after its fill, so aging for line 128's
        # fill evicts line 64 (still at RRIP_INSERT), not line 0.
        assert explicit.contains(0) and collapsed.contains(0)


class TestEngineEquivalence:
    """Reference vs vectorized (and through it the native/arena fast paths
    active in this process) for the two new policies."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 300), st.booleans()), min_size=1, max_size=600),
        st.sampled_from(GEOMETRIES),
        st.sampled_from(NEW_POLICIES),
        st.integers(1, 4),
    )
    def test_property_equivalence(self, accesses, geometry, policy, n_chunks):
        sets, assoc = geometry
        reference, vectorized = make_pair(sets, assoc, policy)
        lines = np.asarray([line for line, _ in accesses], dtype=np.int64)
        writes = np.asarray([write for _, write in accesses], dtype=bool)
        for chunk_lines, chunk_writes in zip(
            np.array_split(lines, n_chunks), np.array_split(writes, n_chunks)
        ):
            reference.access_lines(chunk_lines, chunk_writes)
            vectorized.access_lines(chunk_lines, chunk_writes)
        assert_equivalent(reference, vectorized)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(NEW_POLICIES))
    def test_large_random_trace_equivalence(self, seed, policy):
        """Bulk traces exercise the wide-round and chain-tail paths."""
        rng = np.random.default_rng(seed)
        reference, vectorized = make_pair(16, 4, policy)
        for _ in range(3):
            size = int(rng.integers(200, 4000))
            lines = rng.integers(0, 400, size=size).astype(np.int64)
            writes = rng.random(size) < 0.3
            reference.access_lines(lines, writes)
            vectorized.access_lines(lines, writes)
        assert_equivalent(reference, vectorized)

    @pytest.mark.parametrize("policy", NEW_POLICIES)
    def test_repeat_heavy_trace_equivalence(self, policy):
        """Runs of consecutive repeats drive the head-collapse/retouch path."""
        rng = np.random.default_rng(3)
        reference, vectorized = make_pair(4, 2, policy)
        lines = np.repeat(
            rng.integers(0, 24, size=400), rng.integers(1, 6, size=400)
        ).astype(np.int64)
        writes = rng.random(lines.size) < 0.3
        reference.access_lines(lines, writes)
        vectorized.access_lines(lines, writes)
        assert_equivalent(reference, vectorized)

    @pytest.mark.parametrize("policy", NEW_POLICIES)
    def test_scalar_matches_batch(self, policy):
        """The per-access scalar fast path agrees with batch submission."""
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 48, size=600).astype(np.int64)
        writes = rng.random(600) < 0.25
        scalar, batch = make_pair(4, 3, policy)
        for line, write in zip(lines, writes):
            scalar.access(int(line) * 64, bool(write))
        batch.access_lines(lines, writes)
        assert_equivalent(scalar, batch)


class TestHierarchyEquivalence:
    @staticmethod
    def _tiny(policy):
        return CacheHierarchyConfig(
            name=f"tiny-{policy}",
            l1d=CacheLevelConfig(4 * 64 * 2, 4, 2, replacement=policy),
            l1i=CacheLevelConfig(4 * 64 * 3, 4, 3, replacement=policy),
            l2=CacheLevelConfig(8 * 64 * 2, 8, 2, replacement=policy),
        )

    @pytest.mark.parametrize("policy", NEW_POLICIES)
    def test_stream_matches_per_chunk(self, conv_program_x86, policy):
        """Arena stream dispatch vs per-chunk dispatch, assoc-3 L1I included."""
        config = self._tiny(policy)
        chunks = list(
            conv_program_x86.memory_trace_descriptors(
                chunk_iterations=512, max_accesses=20_000
            )
        )
        streamed = CacheHierarchy(config, engine=ENGINE_VECTORIZED)
        streamed.access_data_descriptor_stream(chunks)
        per_chunk = CacheHierarchy(config, engine=ENGINE_VECTORIZED)
        for chunk in chunks:
            per_chunk.access_data_descriptors(chunk)
        assert streamed.stats_dict() == per_chunk.stats_dict()

    @pytest.mark.parametrize("policy", NEW_POLICIES)
    def test_simulator_engines_agree(self, conv_program_x86, policy):
        """Full simulator runs: vectorized == reference, with real evictions."""
        from repro.sim import RuntimeConfig

        options = TraceOptions(max_accesses=30_000)
        config = self._tiny(policy)
        flats = {}
        for engine in (ENGINE_VECTORIZED, ENGINE_REFERENCE):
            simulator = Simulator(
                "x86",
                hierarchy_config=config,
                trace_options=options,
                config=RuntimeConfig(engine=engine, memoize=False),
            )
            flat = simulator.run(conv_program_x86).flat_stats()
            flat.pop("sim.host_seconds")
            flats[engine] = flat
        assert flats[ENGINE_VECTORIZED] == flats[ENGINE_REFERENCE]
        # The trace must actually evict, or the policies were never consulted.
        assert (
            flats[ENGINE_VECTORIZED]["l1d.read_replacements"]
            + flats[ENGINE_VECTORIZED]["l1d.write_replacements"]
        ) > 0

    def test_runtime_config_replacement_override(self, conv_program_x86):
        """``RuntimeConfig(replacement=...)`` rewrites every hierarchy level."""
        from repro.sim import RuntimeConfig

        simulator = Simulator(
            "x86", config=RuntimeConfig(replacement=ReplacementPolicy.PLRU)
        )
        levels = simulator.hierarchy_config.levels()
        assert {level.replacement for level in levels.values()} == {"plru"}
        assert simulator.hierarchy_config.name.endswith("-plru")


class TestMemoKeys:
    def test_one_digest_per_policy(self, conv_program_x86):
        """New policies must never alias digests of existing ones."""
        memo = SimulationCache()
        options = TraceOptions(max_accesses=5_000)
        keys = {
            memo.make_key(
                conv_program_x86,
                hierarchy_with_replacement("x86", policy),
                options,
                ENGINE_VECTORIZED,
            )
            for policy in POLICY_NAMES
        }
        assert len(keys) == len(POLICY_NAMES)

    @pytest.mark.parametrize("policy", NEW_POLICIES)
    def test_deterministic_policies_are_seed_neutral(self, conv_program_x86, policy):
        """PLRU/RRIP never consume the victim stream: one key across seeds."""
        memo = SimulationCache()
        keys = {
            memo.make_key(
                conv_program_x86,
                hierarchy_with_replacement("x86", policy),
                TraceOptions(max_accesses=5_000, rng_seed=seed),
                ENGINE_VECTORIZED,
            )
            for seed in (0, 1, 2)
        }
        assert len(keys) == 1
