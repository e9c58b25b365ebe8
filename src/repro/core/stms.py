"""Sampled Temporal Memory Streaming: the practical off-chip prefetcher.

:class:`StmsPrefetcher` wires the paper's Figure 2 together:

* per-core **history buffers** and a shared **index table**, both living
  in a reserved region of simulated main memory (every access charged to
  the DRAM channel at low priority);
* a shared on-chip **bucket buffer** (8 KB) caching index buckets between
  lookup, update, and write-back;
* per-core **stream engines** with FIFO address queues feeding per-core
  **prefetch buffers** (2 KB each).

Operation on an off-chip read miss:

1. If the miss matches an end-of-stream pause, streaming resumes.
2. Otherwise the miss address is hashed and its bucket fetched (one
   memory access unless buffered); a tag match yields a history pointer.
3. The miss is recorded in the core's history buffer; with probability
   ``sampling_probability`` the index entry is (re)pointed at it.
4. On a pointer hit, the stream engine fetches the history block at the
   pointer (second memory access) and starts streaming: the address
   queue issues prefetches, maintaining ``lookahead`` in flight, and
   refills itself with further history blocks as the core consumes.

Total off-chip lookup cost: two round trips, amortized over an
arbitrarily long stream — the paper's central practicality claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bucket_buffer import BucketBuffer
from repro.core.codec import HISTORY_ENTRIES_PER_BLOCK
from repro.core.config import StmsConfig
from repro.core.history_buffer import HistoryBuffer, HistoryPointer
from repro.core.index_table import IndexTable
from repro.core.sampling import ProbabilisticSampler
from repro.core.stream_engine import StreamEngine
from repro.memory.address import BLOCK_BYTES, AddressSpace
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficCategory, TrafficMeter
from repro.prefetchers.base import (
    PrefetchedBlock,
    ResidencyFilter,
    TemporalPrefetcher,
)


@dataclass
class StmsCounters:
    """STMS-specific event counters (beyond PrefetcherStats)."""

    resumes: int = 0
    annotations: int = 0
    stale_pointers: int = 0
    candidate_updates: int = 0
    applied_updates: int = 0


class StmsPrefetcher(TemporalPrefetcher):
    """The paper's practical design with off-chip meta-data."""

    __slots__ = ('config', 'counters', 'address_space', 'index', 'histories', 'bucket_buffer', 'sampler', 'engines')

    def __init__(
        self,
        config: StmsConfig,
        dram: DramChannel,
        traffic: TrafficMeter,
        address_space: "AddressSpace | None" = None,
        residency_filter: ResidencyFilter | None = None,
    ) -> None:
        super().__init__(
            config.cores,
            dram,
            traffic,
            residency_filter,
            config.prefetch_buffer_blocks,
        )
        self.config = config
        self.counters = StmsCounters()
        if address_space is None:
            address_space = AddressSpace(3 * 1024 ** 3)
        self.address_space = address_space

        index_region = address_space.reserve(config.index_buckets * BLOCK_BYTES)
        self.index = IndexTable(
            buckets=config.index_buckets,
            bucket_entries=config.bucket_entries,
            region=index_region,
            tag_bits=config.tag_bits,
        )
        self.histories: list[HistoryBuffer] = []
        history_blocks = -(-config.history_entries // HISTORY_ENTRIES_PER_BLOCK)
        for core in range(config.cores):
            region = address_space.reserve(history_blocks * BLOCK_BYTES)
            self.histories.append(
                HistoryBuffer(
                    core=core,
                    capacity_entries=config.history_entries,
                    region=region,
                    dram=dram,
                    traffic=traffic,
                )
            )
        self.bucket_buffer = BucketBuffer(
            capacity=config.bucket_buffer_entries, dram=dram, traffic=traffic
        )
        self.sampler = ProbabilisticSampler(
            config.sampling_probability, seed=config.seed
        )
        self.engines = [
            StreamEngine(
                core=core,
                queue_capacity=config.address_queue_entries,
                refill_threshold=config.queue_refill_threshold,
            )
            for core in range(config.cores)
        ]

    # ------------------------------------------------------------------
    # Trigger path.
    # ------------------------------------------------------------------

    def metadata_geometry(self) -> "tuple[int, int | None]":
        """The index parameters :meth:`metadata_columns` depends on.

        The sweep engine keys its shared, config-axis-stacked
        bucket/tag columns by this pair: cells whose geometries match
        reuse one precomputed classification instead of re-deriving it
        per cell (see :mod:`repro.sim.sweep`).
        """
        return (self.config.index_buckets, self.config.tag_bits)

    def metadata_columns(
        self, blocks_arrays: "list"
    ) -> "tuple[list, list]":
        """Pre-classify whole block columns into index buckets and tags.

        The native engine hands in one NumPy block column per core and
        gets back native-typed bucket/tag columns, computed in one
        vectorized pass each, to feed :meth:`on_demand_miss_hashed` and
        :meth:`_prefetch_hit_hashed` — the scalar per-record hash
        disappears from the event path.  With full-address tags (``tag_bits is
        None``) the tag element is ``None``: the caller reuses its block
        columns as the tag columns.
        """
        index = self.index
        buckets = [
            index.bucket_of_array(blocks).tolist()
            for blocks in blocks_arrays
        ]
        if self.config.tag_bits is None:
            # Full-address tags: the caller can alias its block columns.
            return buckets, None
        tags = [
            index.tag_of_array(blocks).tolist() for blocks in blocks_arrays
        ]
        return buckets, tags

    def on_demand_miss(self, core: int, block: int, now: float) -> None:
        self.on_demand_miss_hashed(
            core,
            block,
            now,
            self.index.bucket_of(block),
            self.index.tag_of(block),
        )

    def on_demand_miss_hashed(
        self, core: int, block: int, now: float, bucket: int, tag: int
    ) -> None:
        """:meth:`on_demand_miss` with the bucket/tag precomputed."""
        engine = self.engines[core]

        # An annotated stream end pauses streaming; it resumes only when
        # the core explicitly requests the annotated address
        # (Section 4.5; StreamEngine.confirm_resume inlined).
        paused = engine.paused_at
        if paused is not None and paused.block == block:
            engine.paused_at = None
            engine.last_consumed = paused
            engine.consumed_count += 1
            self.counters.resumes += 1
            self._record_hashed(core, block, now, bucket, tag)
            self._refill(core, now)
            self._issue(core, now)
            return

        # Index lookup: one bucket fetch (single memory access when the
        # bucket buffer misses), linear search on chip.
        self.stats.lookups += 1
        bucket_buffer = self.bucket_buffer
        bucket_ready = bucket_buffer.access(
            bucket, now, charge=TrafficCategory.LOOKUP_STREAMS, core=core
        )
        pointer = self.index.probe(bucket, tag)

        # Record the miss after the lookup so the lookup observes the
        # *previous* occurrence, not the one being recorded
        # (HistoryBuffer.append inlined; spill at the packed-block
        # boundary).
        history = self.histories[core]
        sequence = history.head
        pending = history._pend_blocks
        pending.append(block)
        history._pend_marks.append(False)
        history.head = sequence + 1
        history.stats.appends += 1
        if len(pending) >= HISTORY_ENTRIES_PER_BLOCK:
            history._spill(now)
        counters = self.counters
        counters.candidate_updates += 1
        if self.sampler.should_update():
            counters.applied_updates += 1
            # The lookup above just fetched this very bucket, so the
            # update's bucket access is a guaranteed MRU hit: touch it
            # dirty in place (same stats, order, and timing as
            # ``bucket_buffer.access(..., dirty=True, core=core)``).
            bucket_buffer.stats.hits += 1
            bucket_buffer._resident[bucket] = True
            bucket_buffer._dirty_core[bucket] = core
            self.index.commit(
                bucket, tag, tuple.__new__(HistoryPointer, (core, sequence))
            )

        if pointer is None:
            # No stream found: any active stream keeps flowing (the miss
            # may be unrelated noise interleaved with the stream).
            return
        if not self.histories[pointer.core].is_valid(pointer.sequence):
            # The logged occurrence was overwritten (stale index entry —
            # expected under probabilistic update and circular logging).
            self.counters.stale_pointers += 1
            return

        self.stats.lookup_hits += 1
        self._annotate_abandoned(core, now)
        engine.begin(
            source_core=pointer.core,
            next_fetch_sequence=pointer.sequence + 1,
        )
        # The stream's first history block can only be fetched once the
        # bucket arrives: two dependent round trips total.
        self._refill(core, bucket_ready)
        self._issue(core, bucket_ready)

    # ------------------------------------------------------------------
    # Prefetched-hit path.
    # ------------------------------------------------------------------

    def _on_prefetch_hit(self, core: int, block: int, now: float) -> None:
        self._prefetch_hit_hashed(
            core,
            block,
            now,
            self.index.bucket_of(block),
            self.index.tag_of(block),
        )

    def _prefetch_hit_hashed(
        self, core: int, block: int, now: float, bucket: int, tag: int
    ) -> None:
        # Inlined StreamEngine.on_consumed.
        engine = self.engines[core]
        entry = engine._issued.pop(block, None)
        if entry is not None:
            engine.last_consumed = entry
            engine.consumed_count += 1
            paused = engine.paused_at
            if paused is not None and entry.sequence >= paused.sequence:
                # The annotated address was explicitly requested: resume.
                engine.paused_at = None
        self._record_hashed(core, block, now, bucket, tag)
        self._refill(core, now)
        self._issue(core, now)

    # ------------------------------------------------------------------
    # Recording and sampled index update.
    # ------------------------------------------------------------------

    def _record(self, core: int, block: int, now: float) -> None:
        """Append to the history log; maybe apply the index update."""
        self._record_hashed(
            core,
            block,
            now,
            self.index.bucket_of(block),
            self.index.tag_of(block),
        )

    def _record_hashed(
        self, core: int, block: int, now: float, bucket: int, tag: int
    ) -> None:
        # Inlined HistoryBuffer.append (spill at the packed boundary).
        history = self.histories[core]
        sequence = history.head
        pending = history._pend_blocks
        pending.append(block)
        history._pend_marks.append(False)
        history.head = sequence + 1
        history.stats.appends += 1
        if len(pending) >= HISTORY_ENTRIES_PER_BLOCK:
            history._spill(now)
        self.counters.candidate_updates += 1
        if not self.sampler.should_update():
            return
        self.counters.applied_updates += 1
        self.bucket_buffer.access(
            bucket, now, dirty=True, charge=TrafficCategory.UPDATE_INDEX,
            core=core,
        )
        self.index.commit(
            bucket, tag, tuple.__new__(HistoryPointer, (core, sequence))
        )

    # ------------------------------------------------------------------
    # Streaming mechanics.
    # ------------------------------------------------------------------

    def _refill(self, core: int, now: float) -> None:
        """Keep the address queue fed from the source history buffer.

        History blocks arrive as whole segments
        (:meth:`~repro.core.history_buffer.HistoryBuffer.read_segment`)
        and enter the queue through the engine's bulk
        :meth:`~repro.core.stream_engine.StreamEngine.enqueue_segment` —
        the stream-follow path never materializes per-entry objects.
        """
        engine = self.engines[core]
        queue = engine._queue
        refill_threshold = engine.refill_threshold
        capacity = engine.queue_capacity
        # Inlined engine.needs_refill() and engine.queue_free.
        while (
            engine.active
            and engine.paused_at is None
            and len(queue) <= refill_threshold
            and len(queue) < capacity
        ):
            source = self.histories[engine.source_core]
            first, blocks, marks, arrival = source.read_segment(
                engine.next_fetch_sequence, now, reader=core
            )
            if not blocks:
                # Caught up with the recording head, or the stream was
                # overwritten: nothing more to follow.
                engine.active = False
                break
            engine.enqueue_segment(first, blocks, marks, arrival)
            if engine.paused_at is not None:
                break

    def _issue(self, core: int, now: float) -> None:
        """Issue prefetches, maintaining ``lookahead`` blocks in flight.

        The bound applies to the *current* stream generation: buffered
        leftovers of abandoned streams age out of the FIFO prefetch
        buffer instead of throttling the live stream.

        The loop hand-inlines
        :meth:`~repro.core.stream_engine.StreamEngine.pop_for_prefetch`
        and :meth:`~repro.prefetchers.base.TemporalPrefetcher._issue_prefetch`
        operation-for-operation — it runs once per streamed address, the
        hottest metadata loop in an STMS run; any change there must be
        replicated here (the differential suite catches drift).
        """
        engine = self.engines[core]
        buffer = self.buffers[core]
        serial = engine.serial
        counts = buffer._stream_counts
        budget = self.config.lookahead - counts.get(serial, 0)
        if budget <= 0:
            return
        queue = engine._queue
        paused = engine.paused_at
        pause_sequence = -1 if paused is None else paused.sequence
        issued_map = engine._issued
        entries = buffer._entries
        capacity = buffer.capacity
        stats = self.stats
        residency = self._filter
        filter_sets = self._filter_sets
        filter_mask = self._filter_mask
        dram = self.dram
        dram_stats = dram.stats
        service = dram._transfer_cycles
        latency = dram._access_latency_cycles
        backlog_limit = self._backlog_limit
        traffic = self.traffic
        core_traffic = traffic._core_bytes[core]
        tuple_new = tuple.__new__
        while budget > 0:
            # Inlined StreamEngine.pop_for_prefetch.
            if not queue:
                break
            head = queue[0]
            if paused is not None and head.sequence > pause_sequence:
                break
            queue.popleft()
            block = head.block
            issued_map[block] = head
            # Inlined TemporalPrefetcher._issue_prefetch.
            if block in entries:
                continue
            if filter_sets is not None:
                if block in filter_sets[block & filter_mask]:
                    stats.filtered += 1
                    continue
            elif residency is not None and residency(block):
                stats.filtered += 1
                continue
            ready = head.ready_at
            issue_at = now if now > ready else ready
            busy = dram._busy_until_all
            if busy - issue_at > backlog_limit:
                stats.dropped += 1
                continue
            start = issue_at if issue_at > busy else busy
            dram._busy_until_all = start + service
            dram_stats.low_priority_requests += 1
            dram_stats.requests += 1
            dram_stats.busy_cycles += service
            dram_stats.queue_cycles += start - issue_at
            arrival = start + latency + service
            if len(entries) >= capacity:
                displaced = entries.pop(next(iter(entries)))
                buffer._forget(displaced)
                stats.erroneous += 1
                traffic._bytes[
                    TrafficCategory.ERRONEOUS_PREFETCH
                ] += BLOCK_BYTES
                core_traffic[
                    TrafficCategory.ERRONEOUS_PREFETCH
                ] += BLOCK_BYTES
            entries[block] = tuple_new(
                PrefetchedBlock, (block, issue_at, arrival, serial)
            )
            counts[serial] = counts.get(serial, 0) + 1
            stats.issued += 1
            budget -= 1

    def _annotate_abandoned(self, core: int, now: float) -> None:
        """Mark the end of a stream the core stopped consuming.

        Called when switching to a freshly located stream while the old
        one still has unconsumed entries: the entry following the last
        contiguous successfully prefetched address gets the mark.
        """
        engine = self.engines[core]
        if not self.config.annotate_stream_ends:
            return
        if engine.consumed_count == 0:
            return
        if not (engine.queue_depth > 0 or engine.active):
            return
        target = engine.annotation_target()
        if target is None:
            return
        source_core, sequence = target
        if self.histories[source_core].annotate(
            sequence, now, requester=core
        ):
            self.counters.annotations += 1

    # ------------------------------------------------------------------
    # Shutdown.
    # ------------------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Flush pack buffers, write back dirty buckets, drain buffers."""
        for history in self.histories:
            history.flush(now)
        self.bucket_buffer.drain(now)
        super().finalize(now)
