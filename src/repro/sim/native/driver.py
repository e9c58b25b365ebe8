"""Python side of the native event kernel: setup, hand-offs, export.

:class:`NativeRunState` is a drop-in for the scalar reference
``_RunState``.  The substrate objects (hierarchy, DRAM channel, MSHRs,
stride prefetcher, accounting) are still built in Python, but during a
phase their state lives in the kernel; the kernel writes it back into
those objects at the end of every phase (warm-up, measured), so
``reset_accounting``, ``result`` and ``snapshot_run_state`` work
unchanged.  After ``reset_accounting`` the reset counters are pushed
back into the kernel.

A temporal prefetcher runs in Python at the kernel's two hand-offs
(prefetch-buffer consume, then ``on_demand_miss`` after the fill).
Around each hand-off the DRAM channel's busy times and counters move
between the kernel and the Python ``DramChannel`` the prefetcher uses;
both sides bump ``requests`` on every transfer, so comparing it with
the last synced value tells whether a copy is needed.  The residency
filter is a kernel L2 probe, and prefetcher traffic goes to the
``TrafficMeter`` directly while the kernel's demand/write-back bytes
merge into it at export.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.memory.address import BLOCK_BYTES
from repro.memory.dram import Priority
from repro.memory.mshr import MshrEntry
from repro.memory.traffic import TrafficCategory
from repro.prefetchers.base import PrefetchedBlock, TemporalPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.sim.engine import _RunState
from repro.sim.native.build import kernel

_DEMAND_READ = TrafficCategory.DEMAND_READ
_WRITEBACK = TrafficCategory.WRITEBACK
_USEFUL_PREFETCH = TrafficCategory.USEFUL_PREFETCH
_CACHE_STATS = (
    "hits", "misses", "fills", "evictions", "dirty_evictions",
    "invalidations",
)
_MSHR_STATS = (
    ("allocations", "mshr_allocations"),
    ("merges", "mshr_merges"),
    ("stalls", "mshr_stalls"),
    ("peak_occupancy", "mshr_peak"),
)
_STRIDE_STATS = ("trained", "issued", "useful", "erroneous", "dropped")
_COVERAGE = (
    "fully_covered", "partially_covered", "uncovered", "stride_covered",
)


class NativeRunState(_RunState):
    """Run state whose substrate executes in the native kernel."""

    __slots__ = (
        "_ffi", "_lib", "_k", "_columns", "_stms_buckets", "_stms_tags",
        "_dram_floats", "_dram_counts", "_dram_seen",
    )

    def __init__(self, config, trace, temporal_factory, shared=None):
        super().__init__(config, trace, None)
        module = kernel()
        if module is None:
            raise RuntimeError("native kernel unavailable")
        ffi, lib = self._ffi, self._lib = module.ffi, module.lib
        k = lib.nk_new()
        if k == ffi.NULL:
            raise MemoryError("native kernel allocation failed")
        k = self._k = ffi.gc(k, lib.nk_free)
        cmp = config.cmp
        timing = config.timing
        hierarchy = self.hierarchy
        k.cores = cmp.cores
        k.tcores = trace.cores
        k.l1_sets = hierarchy.l1s[0].config.sets
        k.l1_ways = cmp.l1_ways
        k.l2_sets = hierarchy.l2.config.sets
        k.l2_ways = cmp.l2_ways
        k.victim_capacity = cmp.l1_victim_blocks
        k.mshr_capacity = self.mshrs.capacity
        k.miss_window = timing.core_miss_window
        k.use_stride = self.stride is not None
        k.track_mlp = self.mlp is not None
        k.log_misses = self.miss_log is not None
        k.has_temporal = temporal_factory is not None
        k.t_l1_hit = timing.l1_hit
        k.t_victim = timing.victim_hit
        k.t_l2_dep = timing.l2_hit_dep
        k.t_l2_indep = timing.l2_hit_indep
        k.t_stride_dep = timing.stride_hit_dep
        k.t_stride_indep = timing.stride_hit_indep
        k.t_pf_dep = timing.prefetch_hit_dep
        k.t_pf_indep = timing.prefetch_hit_indep
        k.t_miss_overhead = timing.miss_issue_overhead
        k.dram_transfer = self.dram._transfer_cycles
        k.dram_latency = self.dram._access_latency_cycles
        stride = self.stride or StridePrefetcher(trace.cores, self.dram)
        k.st_entries = stride.tracker_entries
        k.st_buffer = stride.buffers[0].capacity
        k.st_degree = stride.degree
        k.st_confirm = stride.confirm_threshold
        k.st_shift = stride._region_shift
        k.st_backlog = stride._backlog_limit
        if not lib.nk_init(k):
            raise MemoryError("native kernel allocation failed")
        # nk_dram as two flat views: busy_high, busy_all, busy_cycles,
        # queue_cycles / requests, high, low.
        self._dram_floats = ffi.cast("double *", ffi.addressof(k, "dram"))
        self._dram_counts = ffi.cast(
            "int64_t *", ffi.addressof(k.dram, "requests")
        )
        # The kernel reads the trace columns in place; keep them alive.
        columns = []
        for core in range(trace.cores):
            core_columns = (
                np.ascontiguousarray(trace.blocks[core], dtype=np.int64),
                np.ascontiguousarray(trace.work[core], dtype=np.float64),
                np.ascontiguousarray(trace.dep[core], dtype=np.bool_),
                np.ascontiguousarray(trace.write[core], dtype=np.bool_),
            )
            columns.append(core_columns)
            blocks, work, dep, write = core_columns
            c = k.core[core]
            c.blocks = ffi.from_buffer("int64_t[]", blocks)
            c.work = ffi.from_buffer("double[]", work)
            c.dep = ffi.from_buffer("uint8_t[]", dep)
            c.write = ffi.from_buffer("uint8_t[]", write)
            c.prio_high = self.demand_priority[core] is Priority.HIGH
        self._columns = columns
        self._dram_seen = 0
        self._stms_buckets = self._stms_tags = None
        if temporal_factory is None:
            return
        self.temporal = temporal_factory(
            trace.cores,
            self.dram,
            self.traffic,
            partial(lib.nk_l2_contains, k),
        )
        # STMS fast path: every record's index bucket/tag classified in
        # one vectorized pass (or taken from a sweep's shared pass).
        columns_hook = getattr(self.temporal, "metadata_columns", None)
        if columns_hook is not None:
            metadata = None
            geometry_hook = getattr(self.temporal, "metadata_geometry", None)
            if shared is not None and geometry_hook is not None:
                metadata = shared.metadata_columns(geometry_hook())
            if metadata is None:
                metadata = columns_hook([c[0] for c in columns])
            self._stms_buckets, self._stms_tags = metadata

    # ------------------------------------------------------------------
    # Phases.
    # ------------------------------------------------------------------

    def _run_until(self, limits: "list[int]") -> None:
        k = self._k
        for core, limit in enumerate(limits):
            k.core[core].limit = limit
        if self.temporal is None:
            self._lib.nk_run(k)
        else:
            self._drive()
        self._export()

    def reset_accounting(self) -> None:
        super().reset_accounting()
        self._push_stats()

    def _drive(self) -> None:
        """Run the kernel, serving its temporal-prefetcher hand-offs."""
        k = self._k
        run = self._lib.nk_run
        temporal = self.temporal
        dram_stats = self.dram.stats
        dram_counts = self._dram_counts
        to_python = self._dram_to_python
        to_kernel = self._dram_to_kernel
        buckets = self._stms_buckets
        tags = self._stms_tags
        buffers = temporal.buffers
        temporal_stats = temporal.stats
        traffic_bytes = self.traffic._bytes
        core_traffic = self.traffic._core_bytes
        # The base consume() only takes a buffered entry; a miss there
        # has no side effects, so it is answered without a call.
        plain_consume = (
            type(temporal).consume is TemporalPrefetcher.consume
        )
        seen = self._dram_seen
        while True:
            code = run(k)
            if not code:
                break
            core = k.h_core
            block = k.h_block
            if (
                code == 1
                and plain_consume
                and block not in buffers[core]._entries
            ):
                k.r_hit = 0
                continue
            if dram_counts[0] != seen:
                to_python()
            now = k.h_time
            if buckets is None:
                if code == 1:
                    entry = temporal.consume(core, block, now)
                    if entry is None:
                        k.r_hit = 0
                    else:
                        k.r_hit = 1
                        k.r_arrival = entry.arrival
                else:
                    temporal.on_demand_miss(core, block, now)
            else:
                i = k.h_index
                tag = block if tags is None else tags[core][i]
                if code == 1:
                    # TemporalPrefetcher.consume with the pre-hashed
                    # prefetch-hit hook.
                    buffer = buffers[core]
                    entry = buffer._entries.pop(block, None)
                    if entry is None:
                        k.r_hit = 0
                    else:
                        buffer._forget(entry)
                        temporal_stats.useful += 1
                        traffic_bytes[_USEFUL_PREFETCH] += BLOCK_BYTES
                        core_traffic[core][_USEFUL_PREFETCH] += BLOCK_BYTES
                        temporal._prefetch_hit_hashed(
                            core, block, now, buckets[core][i], tag
                        )
                        k.r_hit = 1
                        k.r_arrival = entry.arrival
                else:
                    temporal.on_demand_miss_hashed(
                        core, block, now, buckets[core][i], tag
                    )
            seen = dram_stats.requests
            if dram_counts[0] != seen:
                to_kernel()
        self._dram_seen = seen

    # ------------------------------------------------------------------
    # State transfer between the kernel and the Python objects.
    # ------------------------------------------------------------------

    def _dram_to_python(self) -> None:
        dram = self.dram
        stats = dram.stats
        unpack = self._ffi.unpack
        (
            dram._busy_until_high,
            dram._busy_until_all,
            stats.busy_cycles,
            stats.queue_cycles,
        ) = unpack(self._dram_floats, 4)
        (
            stats.requests,
            stats.high_priority_requests,
            stats.low_priority_requests,
        ) = unpack(self._dram_counts, 3)

    def _dram_to_kernel(self) -> None:
        dram = self.dram
        stats = dram.stats
        self._dram_floats[0:4] = (
            dram._busy_until_high,
            dram._busy_until_all,
            stats.busy_cycles,
            stats.queue_cycles,
        )
        self._dram_counts[0:3] = (
            stats.requests,
            stats.high_priority_requests,
            stats.low_priority_requests,
        )

    def _push_stats(self) -> None:
        """Copy every Python-side counter into the kernel."""
        k = self._k
        hierarchy = self.hierarchy
        k.measuring = self.measuring
        k.measured_records = self.measured_records
        k.demand_accesses = hierarchy.demand_accesses
        k.off_chip_reads = hierarchy.off_chip_reads
        for core, l1 in enumerate(hierarchy.l1s):
            _push_cache_stats(k.l1[core], l1)
            k.victim[core].hits = hierarchy.victims[core].hits
        _push_cache_stats(k.l2, hierarchy.l2)
        self._dram_to_kernel()
        self._dram_seen = self.dram.stats.requests
        for name, field in _MSHR_STATS:
            setattr(k, field, getattr(self.mshrs.stats, name))
        if self.stride is not None:
            for name in _STRIDE_STATS:
                setattr(k, "st_" + name, getattr(self.stride.stats, name))
        for core, counts in enumerate(self.core_coverage):
            k.core[core].cov = [getattr(counts, name) for name in _COVERAGE]

    def _export(self) -> None:
        """Write the kernel's state back into the Python objects."""
        ffi = self._ffi
        k = self._k
        unpack = ffi.unpack
        cores = unpack(k.core, self.trace.cores)
        self.clocks[:] = [c.clock for c in cores]
        self.cursors[:] = [c.cursor for c in cores]
        self.measured_records = k.measured_records
        hierarchy = self.hierarchy
        hierarchy.demand_accesses = k.demand_accesses
        hierarchy.off_chip_reads = k.off_chip_reads
        copies: "dict[int, int]" = {}
        for core, l1 in enumerate(hierarchy.l1s):
            _export_cache(ffi, k.l1[core], l1)
            bit = 1 << core
            for cache_set in l1._sets:
                for block in cache_set:
                    copies[block] = copies.get(block, 0) | bit
            fifo = k.victim[core]
            victim = hierarchy.victims[core]
            victim._fifo = dict(
                zip(
                    unpack(fifo.blk, fifo.count),
                    unpack(ffi.cast("_Bool *", fifo.dirty), fifo.count),
                )
            )
            victim.hits = fifo.hits
        # The reference's L1-copies map holds exactly the cores whose
        # L1 has each block, so it is rebuilt from the L1 contents.
        hierarchy._l1_copies = copies
        _export_cache(ffi, k.l2, hierarchy.l2)
        self._dram_to_python()
        self._dram_seen = k.dram.requests

        mshrs = self.mshrs
        entries = unpack(k.mshr, k.mshr_count)
        mshrs._entries = {
            e.block: MshrEntry(e.block, e.done, False, e.waiters)
            for e in entries
        }
        mshrs._heap = sorted((e.done, e.block) for e in entries)
        mshrs._min_complete = (
            mshrs._heap[0][0] if mshrs._heap else float("inf")
        )
        for name, field in _MSHR_STATS:
            setattr(mshrs.stats, name, getattr(k, field))

        stride = self.stride
        if stride is not None:
            for name in _STRIDE_STATS:
                setattr(stride.stats, name, getattr(k, "st_" + name))
        traffic_bytes = self.traffic._bytes
        coverage = self.coverage
        for name in _COVERAGE:
            setattr(coverage, name, 0)
        for core, c in enumerate(cores):
            self.outstanding[core][:] = unpack(c.window, c.window_len)
            if stride is not None:
                stride._trackers[core] = {
                    t.region: [t.last, t.stride, t.conf]
                    for t in unpack(c.trackers, c.trackers_len)
                }
                buffer = stride.buffers[core]
                buffer._entries = {
                    e.block: PrefetchedBlock(e.block, e.issued, e.arrival, -1)
                    for e in unpack(c.buffer, c.buffer_len)
                }
                buffer._stream_counts = (
                    {-1: c.buffer_len} if c.buffer_len else {}
                )
            counts = self.core_coverage[core]
            for name, value in zip(_COVERAGE, c.cov):
                setattr(counts, name, value)
                setattr(coverage, name, getattr(coverage, name) + value)
            if self.mlp is not None:
                acc = self.mlp._accumulators[core]
                acc.total = c.mlp.total
                acc.union = c.mlp.merged
                acc._current_start = c.mlp.start
                acc._current_end = c.mlp.end
                acc.count = c.mlp.count
            if c.miss_len:
                self.miss_log[core].extend(unpack(c.miss_log, c.miss_len))
                c.miss_len = 0
            for category, charged in (
                (_DEMAND_READ, c.demand_bytes),
                (_WRITEBACK, c.writeback_bytes),
            ):
                traffic_bytes[category] += charged
                self.traffic._core_bytes[core][category] += charged
            c.demand_bytes = c.writeback_bytes = 0


def _push_cache_stats(native_cache, cache) -> None:
    for name in _CACHE_STATS:
        setattr(native_cache, name, getattr(cache.stats, name))


def _export_cache(ffi, native_cache, cache) -> None:
    """Rebuild a Cache's set dicts (LRU order) and stats."""
    ways = native_cache.ways
    sets = native_cache.sets
    blocks = ffi.unpack(native_cache.blk, sets * ways)
    dirty = ffi.unpack(ffi.cast("_Bool *", native_cache.dirty), sets * ways)
    counts = ffi.unpack(native_cache.count, sets)
    cache._sets[:] = [
        dict(zip(blocks[base:base + n], dirty[base:base + n]))
        for base, n in zip(range(0, sets * ways, ways), counts)
    ]
    for name in _CACHE_STATS:
        setattr(cache.stats, name, getattr(native_cache, name))
