"""Set-associative cache model.

The model is functional (hit/miss and content tracking) with the timing
supplied by the surrounding hierarchy.  It supports write-back /
write-allocate semantics and reports evicted dirty blocks so the hierarchy
can charge write-back traffic.

Capacities are expressed in bytes and divided into 64-byte blocks; lookups
operate on block numbers (see :mod:`repro.memory.address`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.memory.address import BLOCK_BYTES, is_power_of_two


class AccessResult(Enum):
    """Outcome of a cache access."""

    HIT = "hit"
    MISS = "miss"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache.

    Parameters mirror the paper's Table 1 (e.g. the shared L2 is 8 MB,
    16-way).  ``size_bytes`` must be a power-of-two multiple of
    ``ways * BLOCK_BYTES`` so the set count is a power of two.
    ``replacement`` selects the per-set policy (``lru``, ``fifo``, or
    ``random``); the paper's hierarchy uses LRU throughout.
    """

    size_bytes: int
    ways: int
    name: str = "cache"
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.ways <= 0:
            raise ValueError(f"{self.name}: ways must be positive")
        if self.replacement not in ("lru", "fifo", "random"):
            raise ValueError(
                f"{self.name}: unknown replacement "
                f"{self.replacement!r} (lru/fifo/random)"
            )
        if self.size_bytes < self.ways * BLOCK_BYTES:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} too small for "
                f"{self.ways} ways of {BLOCK_BYTES}-byte blocks"
            )
        if self.size_bytes % (self.ways * BLOCK_BYTES) != 0:
            raise ValueError(
                f"{self.name}: size must be a multiple of ways * block size"
            )
        if not is_power_of_two(self.sets):
            raise ValueError(
                f"{self.name}: set count {self.sets} is not a power of two"
            )

    @property
    def sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.ways * BLOCK_BYTES)

    @property
    def blocks(self) -> int:
        """Total block capacity."""
        return self.size_bytes // BLOCK_BYTES


@dataclass(slots=True)
class Eviction:
    """A block pushed out of the cache by a fill."""

    block: int
    dirty: bool


@dataclass(slots=True)
class CacheStats:
    """Running counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Cache:
    """A single set-associative, write-back, write-allocate cache.

    Each set is a plain dict mapping tag to a dirty bit, kept in LRU
    order (last item = most recent; recency refreshed by pop/reinsert).
    This keeps the hot path — :meth:`access` — allocation-free and O(1)
    amortized, which matters because the simulator pushes every trace
    record through here.
    """

    __slots__ = ('config', 'stats', '_set_mask', '_lru', '_random', '_sets', '_rng')

    def __init__(
        self,
        config: CacheConfig,
        rng: "object | None" = None,
    ) -> None:
        self.config = config
        self.stats = CacheStats()
        self._set_mask = config.sets - 1
        self._lru = config.replacement == "lru"
        self._random = config.replacement == "random"
        if self._random:
            import numpy as np

            self._rng = rng if rng is not None else np.random.default_rng(0)
        # sets[i]: dict[tag] = dirty flag.  Iteration order is recency
        # (LRU) or insertion (FIFO), oldest first.
        self._sets: list[dict[int, bool]] = [
            {} for _ in range(config.sets)
        ]

    def lookup(self, block: int) -> bool:
        """Probe for ``block`` without updating recency or stats."""
        cache_set = self._sets[block & self._set_mask]
        return block in cache_set

    def access(self, block: int, write: bool = False) -> AccessResult:
        """Access ``block``; update recency and the dirty bit on a write.

        Misses do *not* allocate — callers decide whether and when to
        :meth:`fill`, because the fill may race with prefetches or be
        satisfied from a prefetch buffer instead.
        """
        cache_set = self._sets[block & self._set_mask]
        if block in cache_set:
            if self._lru:
                dirty = cache_set.pop(block)
                cache_set[block] = dirty or write
            elif write:
                cache_set[block] = True
            self.stats.hits += 1
            return AccessResult.HIT
        self.stats.misses += 1
        return AccessResult.MISS

    def fill(self, block: int, dirty: bool = False) -> Eviction | None:
        """Insert ``block``, returning the eviction it forced (if any)."""
        cache_set = self._sets[block & self._set_mask]
        if block in cache_set:
            # Refill of a resident block only merges the dirty bit.
            if self._lru:
                was_dirty = cache_set.pop(block)
                cache_set[block] = was_dirty or dirty
            elif dirty:
                cache_set[block] = True
            return None
        evicted: Eviction | None = None
        if len(cache_set) >= self.config.ways:
            evicted = self._evict(cache_set)
        cache_set[block] = dirty
        self.stats.fills += 1
        return evicted

    def fill_pair(
        self, block: int, dirty: bool = False
    ) -> "tuple[int, bool] | None":
        """:meth:`fill`, returning the eviction as a plain tuple.

        Allocation-light variant for the simulation hot path (LRU/FIFO
        only): identical state effects and stats, but the victim comes
        back as ``(block, dirty)`` instead of an :class:`Eviction`.
        """
        cache_set = self._sets[block & self._set_mask]
        if block in cache_set:
            if self._lru:
                was_dirty = cache_set.pop(block)
                cache_set[block] = was_dirty or dirty
            elif dirty:
                cache_set[block] = True
            return None
        evicted: "tuple[int, bool] | None" = None
        if len(cache_set) >= self.config.ways:
            if self._random:
                victim = self._evict(cache_set)
                evicted = (victim.block, victim.dirty)
            else:
                victim_block = next(iter(cache_set))
                evicted = (victim_block, cache_set.pop(victim_block))
                stats = self.stats
                stats.evictions += 1
                if evicted[1]:
                    stats.dirty_evictions += 1
        cache_set[block] = dirty
        self.stats.fills += 1
        return evicted

    def _evict(self, cache_set: "dict[int, bool]") -> Eviction:
        """Choose and remove a victim per the configured policy."""
        if self._random:
            keys = list(cache_set.keys())
            victim_block = keys[int(self._rng.integers(0, len(keys)))]
            victim_dirty = cache_set.pop(victim_block)
        else:
            # LRU and FIFO both evict the oldest entry; they differ only
            # in whether hits refresh the order (see :meth:`access`).
            victim_block = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_block)
        self.stats.evictions += 1
        if victim_dirty:
            self.stats.dirty_evictions += 1
        return Eviction(block=victim_block, dirty=victim_dirty)

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if present; returns True if it was resident."""
        cache_set = self._sets[block & self._set_mask]
        if block in cache_set:
            del cache_set[block]
            self.stats.invalidations += 1
            return True
        return False

    def peek_dirty(self, block: int) -> bool:
        """True when ``block`` is resident and dirty (no recency update)."""
        cache_set = self._sets[block & self._set_mask]
        return cache_set.get(block, False)

    def resident_blocks(self) -> list[int]:
        """All resident block numbers (test/debug helper)."""
        blocks: list[int] = []
        for cache_set in self._sets:
            blocks.extend(cache_set.keys())
        return blocks

    def occupancy(self) -> int:
        """Number of valid blocks currently resident."""
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        """Zero the counters (e.g. after cache warm-up)."""
        self.stats = CacheStats()


@dataclass(slots=True)
class VictimBuffer:
    """Tiny fully-associative victim store (FIFO), as beside the paper's L1s.

    Holds recently evicted L1 blocks so short-distance conflict misses are
    recovered without an L2 round trip.  Modeled functionally: a bounded
    FIFO of block numbers.
    """

    capacity: int
    _fifo: dict[int, bool] = field(default_factory=dict)
    hits: int = 0

    def insert(self, block: int, dirty: bool) -> Eviction | None:
        """Add an evicted block, possibly displacing the oldest entry."""
        if self.capacity <= 0:
            return Eviction(block=block, dirty=dirty) if dirty else None
        if block in self._fifo:
            self._fifo[block] = self._fifo[block] or dirty
            return None
        displaced: Eviction | None = None
        if len(self._fifo) >= self.capacity:
            old_block = next(iter(self._fifo))
            old_dirty = self._fifo.pop(old_block)
            displaced = Eviction(block=old_block, dirty=old_dirty)
        self._fifo[block] = dirty
        return displaced

    def extract(self, block: int) -> bool:
        """Remove and return True if ``block`` was held (a victim hit)."""
        if block in self._fifo:
            del self._fifo[block]
            self.hits += 1
            return True
        return False

    def __len__(self) -> int:
        return len(self._fifo)
