"""Cache hierarchies: composition of cache levels as in Figure 3 / Table I."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.sim.cache import Cache, CacheConfig
from repro.sim.memory import MainMemory


@dataclass(frozen=True)
class CacheLevelConfig:
    """Geometry and policy of one cache level, as listed in Table I.

    ``replacement`` selects the level's replacement policy (LRU by default,
    matching the paper's gem5 configuration); random-replacement levels draw
    their victims from the replayable stream seeded by the hierarchy-level
    ``rng_seed`` (see :meth:`to_cache_config`).
    """

    size_bytes: int
    sets: int
    associativity: int
    replacement: str = "lru"

    def to_cache_config(self, name: str, line_bytes: int, rng_seed: int = 0) -> CacheConfig:
        """Convert to a full :class:`CacheConfig`."""
        return CacheConfig(
            name=name,
            size_bytes=self.size_bytes,
            sets=self.sets,
            associativity=self.associativity,
            line_bytes=line_bytes,
            replacement=self.replacement,
            rng_seed=rng_seed,
        )


@dataclass(frozen=True)
class CacheHierarchyConfig:
    """A complete hierarchy: split L1, unified L2 and optional L3 (LLC)."""

    name: str
    l1d: CacheLevelConfig
    l1i: CacheLevelConfig
    l2: CacheLevelConfig
    l3: Optional[CacheLevelConfig] = None
    line_bytes: int = 64

    def levels(self) -> Dict[str, CacheLevelConfig]:
        """Present levels keyed by their conventional names."""
        levels = {"l1d": self.l1d, "l1i": self.l1i, "l2": self.l2}
        if self.l3 is not None:
            levels["l3"] = self.l3
        return levels


class CacheHierarchy:
    """An instantiated hierarchy with split L1 caches and shared lower levels.

    Data requests flow L1D -> L2 -> (L3) -> memory, matching the shared
    higher levels of the CPUs in the paper.  No fetch trace is walked: the
    L1I counters come from the CPU's analytic code-footprint model
    (:meth:`~repro.sim.cpu.AtomicSimpleCPU.run`).
    """

    def __init__(
        self, config: CacheHierarchyConfig, engine: Optional[str] = None, rng_seed: int = 0
    ):
        self.config = config
        self.engine = engine
        self.rng_seed = rng_seed
        self.memory = MainMemory()
        last_level: object = self.memory
        self.l3: Optional[Cache] = None

        level_index = {"l1d": 0, "l1i": 1, "l2": 2, "l3": 3}

        def build(level: CacheLevelConfig, name: str, below) -> Cache:
            # Levels derive distinct stream seeds from the hierarchy seed so
            # same-geometry levels (e.g. a split L1) never replay each
            # other's victim tape.
            return Cache(
                level.to_cache_config(
                    name, config.line_bytes, rng_seed=rng_seed * 4 + level_index[name]
                ),
                below,
                engine=engine,
            )

        if config.l3 is not None:
            self.l3 = build(config.l3, "l3", last_level)
            last_level = self.l3
        self.l2 = build(config.l2, "l2", last_level)
        self.l1d = build(config.l1d, "l1d", self.l2)
        self.l1i = build(config.l1i, "l1i", self.l2)

    # -- access paths -----------------------------------------------------
    def access_data_batch(self, addresses: np.ndarray, is_write: np.ndarray) -> int:
        """Batch of data accesses in program order; returns L1D hits."""
        return self.l1d.access_batch(addresses, is_write)

    def access_data_descriptors(self, chunk) -> int:
        """One descriptor chunk through the data path; returns L1D hits.

        Misses propagate to the lower levels as materialised line batches
        exactly like :meth:`access_data_batch` — only the L1D front-end
        consumes descriptors.
        """
        return self.l1d.access_descriptors(chunk)

    def access_data_descriptor_stream(self, chunks) -> int:
        """A stream of descriptor chunks through the data path; L1D hits.

        Chunks are grouped into packed arenas on the fly (see
        :meth:`Cache.access_descriptor_stream`); per-chunk dispatch is the
        automatic, bit-identical fallback.
        """
        return self.l1d.access_descriptor_stream(chunks)

    # -- management ---------------------------------------------------------
    def all_caches(self) -> Dict[str, Cache]:
        """All caches keyed by level name."""
        caches = {"l1d": self.l1d, "l1i": self.l1i, "l2": self.l2}
        if self.l3 is not None:
            caches["l3"] = self.l3
        return caches

    def stats_dict(self) -> Dict[str, Dict[str, float]]:
        """Per-level statistics, keyed by level name plus ``mem``."""
        stats = {name: cache.stats_dict() for name, cache in self.all_caches().items()}
        stats["mem"] = self.memory.stats_dict()
        return stats

    def __repr__(self) -> str:
        return f"CacheHierarchy({self.config.name})"
