"""Four-core CMP memory hierarchy (paper Table 1).

Private per-core L1 data caches (with small victim buffers) in front of a
shared, inclusive L2.  The hierarchy is *functional*: it answers where an
access was satisfied and what it displaced; the simulation engine supplies
timing and decides how misses are filled (demand fetch, stride prefetcher,
or temporal-streaming prefetch buffer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.memory.address import BLOCK_BYTES
from repro.memory.cache import (
    AccessResult,
    Cache,
    CacheConfig,
    Eviction,
    VictimBuffer,
)
from repro.memory.traffic import TrafficCategory, TrafficMeter


class ServicePoint(Enum):
    """Where in the hierarchy a demand access was satisfied."""

    L1 = "l1"
    VICTIM = "victim"
    L2 = "l2"
    #: Not satisfied on chip: the engine must consult prefetchers / DRAM.
    OFF_CHIP = "off_chip"


@dataclass(frozen=True)
class CmpConfig:
    """Geometry of the chip multiprocessor (defaults = paper Table 1)."""

    cores: int = 4
    l1_size_bytes: int = 64 * 1024
    l1_ways: int = 2
    l1_victim_blocks: int = 8
    l2_size_bytes: int = 8 * 1024 * 1024
    l2_ways: int = 16
    l2_banks: int = 16
    l2_mshrs: int = 64
    l1_latency: float = 2.0
    l2_latency: float = 20.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.l2_banks <= 0:
            raise ValueError("l2_banks must be positive")

    def l1_config(self, core: int) -> CacheConfig:
        return CacheConfig(
            size_bytes=self.l1_size_bytes,
            ways=self.l1_ways,
            name=f"l1-core{core}",
        )

    def l2_config(self) -> CacheConfig:
        return CacheConfig(
            size_bytes=self.l2_size_bytes, ways=self.l2_ways, name="l2"
        )

    def scaled(self, factor: float) -> "CmpConfig":
        """Return a copy with cache capacities scaled by ``factor``.

        Scaling keeps associativity and shrinks/grows the set count to the
        nearest power of two, so miniature workloads exercise the same
        relative capacity pressure as the paper's full-size configuration.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")

        def scale_size(size: int, ways: int) -> int:
            target_sets = max(1, round(size * factor / (ways * BLOCK_BYTES)))
            # Snap to the nearest power of two.
            sets = 1 << max(0, (target_sets - 1).bit_length())
            if sets > 1 and sets - target_sets > target_sets - sets // 2:
                sets //= 2
            return sets * ways * BLOCK_BYTES

        return CmpConfig(
            cores=self.cores,
            l1_size_bytes=scale_size(self.l1_size_bytes, self.l1_ways),
            l1_ways=self.l1_ways,
            l1_victim_blocks=self.l1_victim_blocks,
            l2_size_bytes=scale_size(self.l2_size_bytes, self.l2_ways),
            l2_ways=self.l2_ways,
            l2_banks=self.l2_banks,
            l2_mshrs=self.l2_mshrs,
            l1_latency=self.l1_latency,
            l2_latency=self.l2_latency,
        )


@dataclass
class HierarchyEvent:
    """Result of one demand access through the on-chip hierarchy."""

    core: int
    block: int
    service: ServicePoint
    #: Dirty L2 victims that must be written back off chip.
    writebacks: list[Eviction] = field(default_factory=list)


class CmpHierarchy:
    """Functional model of the private-L1 / shared-L2 hierarchy."""

    __slots__ = ('config', 'traffic', 'l1s', 'victims', 'l2', '_l2_ways', 'off_chip_reads', 'demand_accesses', '_l1_copies')

    def __init__(
        self,
        config: CmpConfig | None = None,
        traffic: TrafficMeter | None = None,
    ) -> None:
        self.config = config if config is not None else CmpConfig()
        self.traffic = traffic if traffic is not None else TrafficMeter()
        self.traffic.ensure_cores(self.config.cores)
        self.l1s = [
            Cache(self.config.l1_config(core))
            for core in range(self.config.cores)
        ]
        self.victims = [
            VictimBuffer(capacity=self.config.l1_victim_blocks)
            for _ in range(self.config.cores)
        ]
        self.l2 = Cache(self.config.l2_config())
        self._l2_ways = self.config.l2_ways
        self.off_chip_reads = 0
        self.demand_accesses = 0
        #: block -> bitmask of cores whose L1 holds a copy.  The L1s are
        #: tiny next to the L2, so this map lets an inclusive L2 eviction
        #: skip the per-core probe loop in the common (no-copy) case.
        self._l1_copies: dict[int, int] = {}

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.config.cores:
            raise IndexError(
                f"core {core} out of range [0, {self.config.cores})"
            )

    def access(self, core: int, block: int, write: bool = False) -> HierarchyEvent:
        """Run one demand access as far as the on-chip hierarchy allows.

        Returns an event whose ``service`` is :data:`ServicePoint.OFF_CHIP`
        when neither L1, the victim buffer, nor L2 holds the block; the
        caller then resolves the miss (prefetch buffer or DRAM) and calls
        :meth:`fill_off_chip` to install the block.
        """
        self._check_core(core)
        self.demand_accesses += 1
        l1 = self.l1s[core]

        if l1.access(block, write=write) is AccessResult.HIT:
            return HierarchyEvent(core, block, ServicePoint.L1)

        if self.victims[core].extract(block):
            writebacks = self._fill_l1(core, block, dirty=write)
            return HierarchyEvent(
                core, block, ServicePoint.VICTIM, writebacks
            )

        if self.l2.access(block) is AccessResult.HIT:
            writebacks = self._fill_l1(core, block, dirty=write)
            return HierarchyEvent(core, block, ServicePoint.L2, writebacks)

        self.off_chip_reads += 1
        return HierarchyEvent(core, block, ServicePoint.OFF_CHIP)

    def fill_off_chip(
        self, core: int, block: int, dirty: bool = False
    ) -> list[Eviction]:
        """Install a block arriving from off chip into L2 and the L1."""
        self._check_core(core)
        writebacks: list[Eviction] = []
        self._l2_fill(block, False, writebacks, core)
        self._fill_l1_into(core, block, dirty, writebacks)
        return writebacks

    def _l2_fill(
        self,
        block: int,
        dirty: bool,
        writebacks: list[Eviction],
        core: int = 0,
    ) -> None:
        """L2 fill with inclusive-eviction handling.

        Equivalent to ``self.l2.fill(block, dirty)`` followed by
        :meth:`_handle_l2_eviction` on its victim, with the set-dict
        operations inlined — this runs for every off-chip fill and every
        dirty victim spill, so the per-call method/allocation overhead
        matters.  The L2 is always LRU (``CmpConfig`` exposes no policy
        knob).
        """
        l2 = self.l2
        cache_set = l2._sets[block & l2._set_mask]
        if block in cache_set:
            # Refill of a resident block merges dirty, refreshes LRU.
            was_dirty = cache_set.pop(block)
            cache_set[block] = was_dirty or dirty
            return
        victim_block = None
        if len(cache_set) >= self._l2_ways:
            victim_block = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_block)
            stats = l2.stats
            stats.evictions += 1
            if victim_dirty:
                stats.dirty_evictions += 1
        cache_set[block] = dirty
        l2.stats.fills += 1
        if victim_block is not None:
            self._handle_l2_eviction(victim_block, victim_dirty,
                                     writebacks, core)

    def _fill_l1(self, core: int, block: int, dirty: bool) -> list[Eviction]:
        """Fill the core's L1, spilling its victim into the victim buffer."""
        writebacks: list[Eviction] = []
        self._fill_l1_into(core, block, dirty, writebacks)
        return writebacks

    def _fill_l1_into(
        self,
        core: int,
        block: int,
        dirty: bool,
        writebacks: list[Eviction],
    ) -> None:
        copies = self._l1_copies
        bit = 1 << core
        l1_victim = self.l1s[core].fill_pair(block, dirty)
        copies[block] = copies.get(block, 0) | bit
        if l1_victim is None:
            return
        victim_block, victim_dirty = l1_victim
        mask = copies.get(victim_block, 0) & ~bit
        if mask:
            copies[victim_block] = mask
        else:
            copies.pop(victim_block, None)
        # Inlined VictimBuffer.insert (FIFO over evicted L1 blocks).
        victim_buffer = self.victims[core]
        fifo = victim_buffer._fifo
        capacity = victim_buffer.capacity
        if capacity <= 0:
            if victim_dirty:
                self._l2_fill(victim_block, True, writebacks, core)
            return
        if victim_block in fifo:
            fifo[victim_block] = fifo[victim_block] or victim_dirty
            return
        if len(fifo) >= capacity:
            displaced_block = next(iter(fifo))
            displaced_dirty = fifo.pop(displaced_block)
            if displaced_dirty:
                # Dirty victim falls back to L2 (on-chip; no pin traffic).
                self._l2_fill(displaced_block, True, writebacks, core)
        fifo[victim_block] = victim_dirty

    def _handle_l2_eviction(
        self,
        block: int,
        dirty: bool,
        writebacks: list[Eviction],
        core: int = 0,
    ) -> None:
        """Invalidate inclusive L1 copies and charge write-back traffic.

        An inclusive eviction must not lose data: if any L1 holds the
        block dirty, that state merges into the outgoing line.  The
        write-back is attributed to ``core`` — the requesting core whose
        fill displaced the line.
        """
        mask = self._l1_copies.pop(block, 0)
        if mask:
            dirty = self._invalidate_copies(block, mask, dirty)
        if dirty:
            self.traffic.add_block(TrafficCategory.WRITEBACK, core)
            writebacks.append(Eviction(block=block, dirty=True))

    def _invalidate_copies(self, block: int, mask: int, dirty: bool) -> bool:
        """Invalidate every L1 copy in ``mask``; merge their dirty state."""
        for core in range(self.config.cores):
            if mask & (1 << core):
                if self.l1s[core].peek_dirty(block):
                    dirty = True
                self.l1s[core].invalidate(block)
        return dirty

    def l2_bank(self, block: int) -> int:
        """Bank index of ``block`` (interleaved at block granularity)."""
        return block % self.config.l2_banks

    def reset_stats(self) -> None:
        """Zero counters after warm-up while preserving cache contents."""
        for l1 in self.l1s:
            l1.reset_stats()
        self.l2.reset_stats()
        self.off_chip_reads = 0
        self.demand_accesses = 0
