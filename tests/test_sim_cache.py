"""Tests for the set-associative cache model and main memory."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Cache, CacheConfig, MainMemory, ReplacementPolicy


def make_cache(sets=4, assoc=2, line=64, next_level=None, policy=ReplacementPolicy.LRU):
    config = CacheConfig.from_geometry("test", sets=sets, associativity=assoc, line_bytes=line,
                                       replacement=policy)
    return Cache(config, next_level=next_level)


class TestCacheConfig:
    def test_geometry_consistency_enforced(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=1000, sets=4, associativity=2, line_bytes=64)

    def test_power_of_two_sets_required(self):
        with pytest.raises(ValueError):
            CacheConfig.from_geometry("bad", sets=3, associativity=2)

    def test_power_of_two_line_required(self):
        with pytest.raises(ValueError):
            CacheConfig.from_geometry("bad", sets=4, associativity=2, line_bytes=48)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            CacheConfig.from_geometry("bad", sets=4, associativity=2, replacement="mru")

    def test_from_geometry_size(self):
        config = CacheConfig.from_geometry("c", sets=64, associativity=8, line_bytes=64)
        assert config.size_bytes == 32 * 1024


class TestCacheBehaviour:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert cache.access(0x1000, is_write=False) is False
        assert cache.access(0x1000, is_write=False) is True
        assert cache.read_misses == 1 and cache.read_hits == 1

    def test_same_line_different_offsets_hit(self):
        cache = make_cache()
        cache.access(0x1000, False)
        assert cache.access(0x103F, False) is True  # same 64-byte line

    def test_lru_eviction_order(self):
        cache = make_cache(sets=1, assoc=2)
        cache.access(0 * 64, False)
        cache.access(1 * 64, False)
        cache.access(0 * 64, False)  # 0 is now MRU
        cache.access(2 * 64, False)  # evicts 1
        assert cache.contains(0 * 64)
        assert not cache.contains(1 * 64)
        assert cache.contains(2 * 64)

    def test_conflict_misses_with_direct_mapped(self):
        cache = make_cache(sets=2, assoc=1)
        # Lines 0 and 2 map to set 0 -> they evict each other.
        for _ in range(4):
            cache.access(0 * 64, False)
            cache.access(2 * 64, False)
        assert cache.read_hits == 0
        assert cache.read_misses == 8

    def test_write_allocate_and_writeback(self):
        memory = MainMemory()
        cache = make_cache(sets=1, assoc=1, next_level=memory)
        cache.access(0 * 64, True)   # write miss -> fill read from memory
        cache.access(1 * 64, False)  # evicts dirty line -> writeback
        assert cache.writebacks == 1
        assert memory.write_accesses == 1
        assert memory.read_accesses == 2

    def test_replacements_counted_by_request_type(self):
        cache = make_cache(sets=1, assoc=1)
        cache.access(0 * 64, False)
        cache.access(1 * 64, True)
        cache.access(2 * 64, False)
        assert cache.write_replacements == 1
        assert cache.read_replacements == 1

    def test_sequential_miss_tracking(self):
        cache = make_cache(sets=16, assoc=2)
        addresses = np.arange(8) * 64
        cache.access_batch(addresses, np.zeros(8, dtype=bool))
        assert cache.sequential_misses == 7

    def test_batch_equals_scalar_processing(self):
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 4096, size=300) * 4
        writes = rng.random(300) < 0.3
        batch_cache = make_cache(sets=8, assoc=2)
        scalar_cache = make_cache(sets=8, assoc=2)
        batch_cache.access_batch(addresses, writes)
        for address, write in zip(addresses, writes):
            scalar_cache.access(int(address), bool(write))
        assert batch_cache.stats_dict() == scalar_cache.stats_dict()

    def test_reset_stats_keeps_contents(self):
        cache = make_cache()
        cache.access(0x40, False)
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.contains(0x40)

    def test_random_policy_still_bounded(self):
        cache = make_cache(sets=1, assoc=2, policy=ReplacementPolicy.RANDOM)
        for line in range(10):
            cache.access(line * 64, False)
        assert cache.resident_lines() <= 2

    def test_empty_batch(self):
        cache = make_cache()
        assert cache.access_lines(np.asarray([], dtype=np.int64), np.asarray([], dtype=bool)) == 0


class TestCacheProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 255), st.booleans()), min_size=1, max_size=300),
        st.sampled_from([(4, 2), (8, 1), (2, 4)]),
    )
    def test_invariants(self, accesses, geometry):
        sets, assoc = geometry
        cache = make_cache(sets=sets, assoc=assoc)
        lines = np.asarray([line for line, _ in accesses], dtype=np.int64) * 64
        writes = np.asarray([write for _, write in accesses], dtype=bool)
        cache.access_batch(lines, writes)
        # Accounting identities.
        assert cache.hits + cache.misses == len(accesses)
        assert cache.read_accesses + cache.write_accesses == len(accesses)
        assert cache.read_hits + cache.read_misses == cache.read_accesses
        assert cache.write_hits + cache.write_misses == cache.write_accesses
        # Capacity invariants.
        assert cache.resident_lines() <= sets * assoc
        distinct_lines = len({line for line, _ in accesses})
        assert cache.misses >= min(distinct_lines, 1)
        assert cache.misses >= distinct_lines - sets * assoc
        assert cache.replacements <= cache.misses

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_fits_entirely_when_small(self, lines):
        """A read-only working set smaller than the cache only cold-misses."""
        cache = make_cache(sets=16, assoc=4)  # 64 lines capacity
        array = np.asarray(lines, dtype=np.int64) * 64
        cache.access_batch(array, np.zeros(len(lines), dtype=bool))
        assert cache.read_misses == len(set(lines))


class TestMainMemory:
    def test_counts(self):
        memory = MainMemory()
        memory.access(0x0, False)
        memory.access_batch(np.asarray([64, 128]), np.asarray([True, False]))
        assert memory.read_accesses == 2
        assert memory.write_accesses == 1
        assert memory.accesses == 3

    def test_reset(self):
        memory = MainMemory()
        memory.access(0, True)
        memory.reset_stats()
        assert memory.accesses == 0
