"""Tests for the content-addressed artifact store and the disk tier.

Covers the robustness guarantees the store makes to the session layer:
corrupted or truncated entries degrade to recompute, schema-version
mismatches invalidate stale entries, concurrent writers of one key
cannot tear an entry (atomic rename), and eviction is LRU by recency.
"""

import errno
import json
import os
import tempfile
import threading

import numpy as np
import pytest

from repro.sim.metrics import CoverageCounts, SimResult
from repro.memory.traffic import TrafficBreakdown
from repro.prefetchers.base import PrefetcherStats
from repro.sim.engine import active_engine
from repro.sim.runner import PrefetcherKind, run_trace, run_workload
from repro.sim.session import SimSession
from repro.sim.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    decode_result,
    encode_result,
    estimate_digest,
    key_digest,
    result_digest,
    trace_digest,
)

from tests.conftest import make_trace


def make_result(elapsed: float = 1234.5) -> SimResult:
    """A fully-populated result (every optional field present)."""
    return SimResult(
        workload="synthetic",
        prefetcher="stms",
        measured_records=100,
        elapsed_cycles=elapsed,
        coverage=CoverageCounts(3, 2, 5, 1),
        l1_hits=50,
        victim_hits=4,
        l2_hits=11,
        traffic=TrafficBreakdown(0.1, 0.25, 0.125, 0.0625),
        overhead_per_useful_byte=0.4375,
        metadata_bytes=4096,
        useful_bytes=65536,
        mlp=1.375,
        prefetcher_stats=PrefetcherStats(10, 6, 4, 2, 1, 20, 8),
        dram_utilization=0.75,
        miss_log=[[1, 2, 3], [4, 5]],
    )


class TestDigests:
    def test_digest_is_stable_and_content_keyed(self):
        key = ("web-apache", (("name", "test"),), 4, 7, None)
        assert trace_digest(key) == trace_digest(key)
        assert trace_digest(key) != trace_digest(key[:-1] + (100,))

    def test_domains_separate(self):
        key = ("x", 1)
        assert trace_digest(key) != result_digest(key)
        assert key_digest("a", key) != key_digest("b", key)


class TestResultCodec:
    def test_round_trip_is_equal(self):
        result = make_result()
        assert decode_result(encode_result(result)) == result

    def test_round_trip_through_json_is_equal(self):
        result = make_result(elapsed=0.1 + 0.2)  # not exactly 0.3
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    def test_none_fields_survive(self):
        result = make_result()
        result.traffic = None
        result.prefetcher_stats = None
        result.miss_log = None
        assert decode_result(encode_result(result)) == result


class TestStoreRoundTrip:
    def test_result_store_and_load(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("k",))
        assert store.save_result(digest, make_result())
        assert store.load_result(digest) == make_result()
        assert store.stats.writes == 1
        assert store.stats.result_hits == 1

    def test_trace_store_and_load(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        trace = make_trace([[1, 2, 3], [4, 5, 6]])
        digest = trace_digest(("t",))
        assert store.save_trace(digest, trace)
        loaded = store.load_trace(digest)
        assert loaded is not None
        assert loaded.cores == 2
        np.testing.assert_array_equal(loaded.blocks[0], trace.blocks[0])

    def test_missing_entry_is_plain_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.load_result(result_digest(("nope",))) is None
        assert store.stats.result_misses == 1
        assert store.stats.corrupt_dropped == 0


class TestCorruptionTolerance:
    def test_corrupt_result_json_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("k",))
        store.save_result(digest, make_result())
        with open(store.result_path(digest), "wb") as handle:
            handle.write(b'{"schema": 1, "kind": "sim-res')  # truncated
        assert store.load_result(digest) is None
        assert store.stats.corrupt_dropped == 1
        assert not os.path.exists(store.result_path(digest))

    def test_valid_json_with_broken_payload_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("k",))
        record = {
            "schema": SCHEMA_VERSION,
            "kind": "sim-result",
            "payload": {"workload": "w"},  # missing everything else
        }
        with open(store.result_path(digest), "w") as handle:
            json.dump(record, handle)
        assert store.load_result(digest) is None
        assert store.stats.corrupt_dropped == 1

    def test_truncated_trace_npz_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = trace_digest(("t",))
        store.save_trace(digest, make_trace([[1, 2, 3]]))
        path = store.trace_path(digest)
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        assert store.load_trace(digest) is None
        assert store.stats.corrupt_dropped == 1
        assert not os.path.exists(path)

    def test_session_falls_back_to_recompute_and_repairs(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        trace = make_trace([[1, 2, 3] * 50])
        session = SimSession(enabled=True, store=store)
        result = run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        [entry] = [e for e in store.entries() if e.kind == "result"]
        with open(entry.path, "wb") as handle:
            handle.write(b"\x00garbage")
        fresh = SimSession(enabled=True, store=store)
        recomputed = run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=fresh
        )
        assert fresh.stats.sim_misses == 1  # corrupt entry -> recompute
        assert recomputed == result
        # ... and the write-through repaired the entry for the next run.
        final = SimSession(enabled=True, store=store)
        again = run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=final
        )
        assert final.stats.sim_store_hits == 1
        assert again == result


class TestSchemaVersioning:
    def test_entry_with_future_schema_invalidated(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("k",))
        store.save_result(digest, make_result())
        with open(store.result_path(digest)) as handle:
            record = json.load(handle)
        record["schema"] = SCHEMA_VERSION + 1
        with open(store.result_path(digest), "w") as handle:
            json.dump(record, handle)
        assert store.load_result(digest) is None
        assert store.stats.schema_invalidated == 1
        assert not os.path.exists(store.result_path(digest))

    def test_store_with_other_schema_cleared_on_open(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save_result(result_digest(("k",)), make_result())
        with open(os.path.join(str(tmp_path), "schema.json"), "w") as f:
            json.dump({"schema": SCHEMA_VERSION + 1}, f)
        reopened = ArtifactStore(str(tmp_path))
        assert reopened.stats.schema_invalidated == 1
        assert reopened.entries() == []
        # The stamp was rewritten: a third open keeps (new) entries.
        reopened.save_result(result_digest(("k2",)), make_result())
        third = ArtifactStore(str(tmp_path))
        assert len(third.entries()) == 1


class TestConcurrentWriters:
    def test_same_key_writers_never_tear(self, tmp_path):
        """Concurrent writers of one key: readers always see a complete
        entry (atomic rename), and the final value is one of theirs."""
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("contended",))
        variants = [make_result(elapsed=float(i + 1)) for i in range(4)]
        errors: "list[str]" = []

        def write(result: SimResult) -> None:
            for _ in range(25):
                ArtifactStore(str(tmp_path)).save_result(digest, result)

        def read() -> None:
            for _ in range(100):
                loaded = ArtifactStore(str(tmp_path)).load_result(digest)
                if loaded is not None and loaded not in variants:
                    errors.append("torn or foreign entry observed")

        threads = [
            threading.Thread(target=write, args=(variant,))
            for variant in variants
        ] + [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = store.load_result(digest)
        assert final in variants


class TestGc:
    def _fill(self, store: ArtifactStore, count: int) -> "list[str]":
        digests = [result_digest(("entry", i)) for i in range(count)]
        for i, digest in enumerate(digests):
            store.save_result(digest, make_result(elapsed=float(i)))
            # Distinct mtimes so LRU order is well-defined.
            os.utime(store.result_path(digest), (i, i))
        return digests

    def test_gc_evicts_lru_first(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digests = self._fill(store, 4)
        entry_size = store.entries()[0].size_bytes
        evicted = store.gc(max_bytes=2 * entry_size)
        assert evicted == 2
        assert store.stats.evictions == 2
        assert store.load_result(digests[0]) is None  # oldest gone
        assert store.load_result(digests[3]) is not None

    def test_read_refreshes_recency(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digests = self._fill(store, 4)
        assert store.load_result(digests[0]) is not None  # touch oldest
        store.gc(max_bytes=store.entries()[0].size_bytes)
        survivors = {entry.digest for entry in store.entries()}
        assert survivors == {digests[0]}

    def test_auto_gc_respects_cap(self, tmp_path):
        probe = ArtifactStore(str(tmp_path / "probe"))
        probe.save_result(result_digest(("p",)), make_result())
        entry_size = probe.entries()[0].size_bytes
        store = ArtifactStore(
            str(tmp_path / "capped"), max_bytes=2 * entry_size
        )
        self._fill(store, 5)
        assert len(store.entries()) <= 2
        assert store.stats.evictions >= 3

    def test_gc_without_cap_is_noop(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 2)
        assert store.gc() == 0
        assert len(store.entries()) == 2


class TestTwoTierSession:
    def test_new_process_equivalent_session_hits_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = SimSession(enabled=True, store=ArtifactStore(store_dir))
        result = run_workload(
            "web-apache", PrefetcherKind.BASELINE, scale="test",
            cores=2, seed=5, session=first,
        )
        # A fresh session over the same directory models a new process:
        # empty memory tier, shared disk tier.
        second = SimSession(enabled=True, store=ArtifactStore(store_dir))
        served = run_workload(
            "web-apache", PrefetcherKind.BASELINE, scale="test",
            cores=2, seed=5, session=second,
        )
        assert second.stats.trace_store_hits == 1
        assert second.stats.sim_store_hits == 1
        assert second.stats.trace_misses == 0
        assert second.stats.sim_misses == 0
        assert served == result

    def test_disabled_session_bypasses_store_bit_identically(
        self, tmp_path
    ):
        """REPRO_SIM_CACHE=0 / enabled=False recomputes everything and
        matches the store-served result exactly (engine-equivalence
        style, extended across the persistence boundary)."""
        store_dir = str(tmp_path / "store")
        cached = SimSession(enabled=True, store=ArtifactStore(store_dir))
        warm = SimSession(enabled=True, store=ArtifactStore(store_dir))
        uncached = SimSession(enabled=False)
        assert uncached.store is None  # disabled -> no disk tier
        trace = make_trace([[7, 8, 9] * 60, [10, 11, 12] * 60])
        runs = {}
        for name, session in (
            ("cached", cached), ("warm", warm), ("uncached", uncached)
        ):
            runs[name] = run_trace(
                trace, PrefetcherKind.STMS, scale="test", session=session
            )
        assert warm.stats.sim_store_hits == 1
        assert uncached.stats.sim_misses == 1
        assert runs["warm"] == runs["cached"]
        assert runs["uncached"] == runs["cached"]

    def test_env_cache_off_forces_recompute(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", "0")
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        session = SimSession()
        assert not session.enabled
        assert session.store is None

    def test_env_store_dir_attaches_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "s"))
        session = SimSession()
        assert session.store is not None
        assert session.store.root == str(tmp_path / "s")

    def test_prime_trace_from_ref(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        producer = SimSession(enabled=True, store=store)
        trace = producer.trace("web-apache", scale="test", cores=2, seed=3)
        [entry] = [e for e in store.entries() if e.kind == "trace"]
        consumer = SimSession(enabled=True, store=None)
        assert consumer.prime_trace(
            "web-apache", "test", 2, 3, None, store.trace_ref(entry.digest)
        )
        primed = consumer.trace("web-apache", scale="test", cores=2, seed=3)
        assert consumer.stats.trace_misses == 0
        assert consumer.stats.trace_store_hits == 1
        np.testing.assert_array_equal(primed.blocks[0], trace.blocks[0])

    def test_prime_trace_missing_file_degrades(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        session = SimSession(enabled=True, store=None)
        assert not session.prime_trace(
            "web-apache", "test", 2, 3, None, store.trace_ref("0" * 32)
        )
        session.trace("web-apache", scale="test", cores=2, seed=3)
        assert session.stats.trace_misses == 1

    def test_memory_tier_lru_cap(self):
        session = SimSession(enabled=True, store=None, max_memory_results=1)
        trace = make_trace([[1, 2, 3] * 50])
        run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        run_trace(
            trace, PrefetcherKind.MARKOV, scale="test", session=session
        )
        assert session.stats.memory_evictions == 1
        run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        assert session.stats.sim_misses == 3  # baseline was evicted


# ----------------------------------------------------------------------
# The estimates tier: sampled-sweep records, stamped and separate.
# ----------------------------------------------------------------------


class TestEstimateRecords:
    def _payload(self) -> dict:
        return {
            "experiment": "mix-contention",
            "sampled": True,
            "budget": 8,
            "total": 32,
            "strata": {"l2x1": {"mean": 1.1, "lo": 1.0, "hi": 1.2}},
        }

    def test_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = estimate_digest(("mix-contention", ("grid",), 7, 8))
        assert store.save_estimate(digest, self._payload())
        assert store.load_estimate(digest) == self._payload()

    def test_stamped_as_sampled_estimate(self, tmp_path):
        # The on-disk record is distinguishable from exact results:
        # separate directory, kind stamp, and sampled marker.
        store = ArtifactStore(str(tmp_path))
        digest = estimate_digest(("k",))
        store.save_estimate(digest, self._payload())
        path = store.estimate_path(digest)
        assert "estimates" in os.path.relpath(path, store.root)
        with open(path) as handle:
            record = json.load(handle)
        assert record["kind"] == "sampled-estimate"
        assert record["sampled"] is True
        assert record["schema"] == SCHEMA_VERSION

    def test_digest_domain_separated(self):
        key = ("same", "key")
        assert estimate_digest(key) != result_digest(key)
        assert estimate_digest(key) != trace_digest(key)

    def test_entries_and_describe_count_estimates(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save_estimate(estimate_digest(("a",)), self._payload())
        kinds = {entry.kind for entry in store.entries()}
        assert kinds == {"estimate"}
        info = store.describe()
        assert info["estimates"] == 1
        assert info["estimate_bytes"] > 0

    def test_corrupt_estimate_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = estimate_digest(("bad",))
        store.save_estimate(digest, self._payload())
        with open(store.estimate_path(digest), "w") as handle:
            handle.write('{"kind": "something-else"}')
        assert store.load_estimate(digest) is None
        assert not os.path.exists(store.estimate_path(digest))

    def test_clear_removes_estimates(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save_estimate(estimate_digest(("a",)), self._payload())
        store.save_result(result_digest(("r",)), make_result())
        assert store.clear() == 2
        assert store.entries() == []


class TestClearUnpinned:
    def test_clear_without_remote_removes_everything(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for i in range(3):
            store.save_result(
                result_digest((f"k{i}",)), make_result()
            )
        assert store.clear() == 3
        assert store.stats.pinned_skipped == 0
        assert store.entries() == []


class TestTraceWriteFaults:
    """A failing trace write (full disk, lost permission, failed rename)
    must degrade to a recompute: the run finishes, ``write_errors``
    records it, and no entry or temp file is left behind."""

    @pytest.mark.parametrize(
        "code", [errno.ENOSPC, errno.EACCES], ids=["ENOSPC", "EACCES"]
    )
    @pytest.mark.parametrize("call", ["mkstemp", "replace"])
    def test_trace_write_failure_degrades_to_recompute(
        self, tmp_path, monkeypatch, code, call
    ):
        store = ArtifactStore(str(tmp_path))
        # Load the native kernel first: its first-use build also writes
        # files, and must not run under the injected fault.
        active_engine()

        def _fail(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        with monkeypatch.context() as patch:
            if call == "mkstemp":
                patch.setattr(tempfile, "mkstemp", _fail)
            else:
                patch.setattr(os, "replace", _fail)
            session = SimSession(enabled=True, store=store)
            result = run_workload(
                "oltp-db2", PrefetcherKind.BASELINE, scale="test",
                cores=2, seed=5, session=session,
            )
        assert store.stats.write_errors >= 1
        assert [e for e in store.entries() if e.kind == "trace"] == []
        for kind in ("traces", "results"):
            assert not [
                name for name in os.listdir(tmp_path / kind)
                if name.startswith(".tmp-")
            ]
        # A fresh session finds nothing persisted: the trace is
        # regenerated and the simulation repeats bit-identically.
        fresh = SimSession(enabled=True, store=store)
        again = run_workload(
            "oltp-db2", PrefetcherKind.BASELINE, scale="test",
            cores=2, seed=5, session=fresh,
        )
        assert fresh.stats.trace_misses == 1
        assert encode_result(again) == encode_result(result)
