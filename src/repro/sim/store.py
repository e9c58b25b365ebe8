"""Content-addressed on-disk artifact store: the persistent cache tier.

:class:`~repro.sim.session.SimSession` memoizes traces and results only
within a process; this module gives those artifacts a *lifecycle* that
crosses process boundaries — admission (write-through from the session),
persistence (atomic renames into a content-addressed layout), retrieval
(corruption-tolerant reads that degrade to recompute), and eviction
(LRU size-capped GC).  The same store directory is shared by pool
workers, successive CLI invocations, and CI jobs, so the second run of
any figure is served from disk instead of re-simulated.

Layout under the store root::

    schema.json              format stamp; a mismatch invalidates the store
    traces/<digest>.npz      ``Trace.save`` archives, keyed by recipe hash
    results/<digest>.json    versioned ``SimResult`` records
    estimates/<digest>.json  budgeted sampled-sweep aggregates, stamped
                             ``kind: "sampled-estimate"`` so a
                             statistical estimate can never be mistaken
                             for an exact result

Keys are digests of the session's existing content keys (trace recipes
and ``trace fingerprint + full machine/prefetcher configuration``), so
an entry written by any process is valid in every other.  Every read
path tolerates torn, truncated, or stale entries: a bad file is dropped
and the caller recomputes — the store can never make a result wrong,
only slower.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass, fields

import numpy as np

try:  # POSIX advisory locking for the persistent-counter interlock.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.envknobs import env_float
from repro.memory.traffic import TrafficBreakdown
from repro.prefetchers.base import PrefetcherStats
from repro.sim.metrics import CoverageCounts, SimResult
from repro.sim.remote import RemoteStore
from repro.workloads.trace import Trace

#: Bump whenever the on-disk format of entries changes **or** the
#: simulator's behavior changes such that previously persisted results
#: are no longer what a fresh run would produce (engine fixes,
#: timing-model changes, trace-generator changes...).  The version is
#: part of every content digest, so a bump orphans all old entries;
#: stores whose root stamp differs are additionally cleared on open.
#: v2: traces carry per-core workload/warm-up metadata and results
#: carry per-core coverage/records/cycles/MLP (multiprogrammed mixes).
#: v3: traces carry per-core rate/priority metadata (asymmetric mixes)
#: and results carry the per-core per-category DRAM traffic attribution
#: (``core_traffic_bytes``).
SCHEMA_VERSION = 3

_SCHEMA_FILE = "schema.json"
_COUNTERS_FILE = "counters.json"
_COUNTERS_LOCK_FILE = "counters.lock"
_TMP_PREFIX = ".tmp-"

#: Temp files from crashed writers older than this are swept by
#: :meth:`ArtifactStore.sweep_stale_temps` (``gc``/``clear`` call it).
#: The age gate keeps a *live* writer's in-flight temp file safe from a
#: concurrent sweep; override with ``REPRO_STORE_TMP_MAX_AGE_S``.
_STALE_TEMP_SECONDS = 3600.0

#: Errors that mean "this entry is unreadable", as opposed to bugs.
#: ``FileNotFoundError`` is handled separately (a plain miss).
_CORRUPT_ERRORS = (
    OSError,
    ValueError,  # includes json.JSONDecodeError and bad npz payloads
    KeyError,
    TypeError,
    EOFError,
    zipfile.BadZipFile,
)


def default_store_dir() -> str:
    """``$REPRO_STORE_DIR``, else a per-user cache directory."""
    env = os.environ.get("REPRO_STORE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-stms")


def key_digest(domain: str, key: object) -> str:
    """Stable content digest of a cache key.

    ``key`` must be a tree of primitives (what ``session._freeze``
    produces): its ``repr`` is then deterministic across processes,
    unlike ``hash()`` which is salted per interpreter.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{domain}:{SCHEMA_VERSION}".encode())
    digest.update(b"\x00")
    digest.update(repr(key).encode())
    return digest.hexdigest()


def trace_digest(trace_key: object) -> str:
    """Digest of a trace generation recipe (``SimJob.trace_key()``)."""
    return key_digest("trace", trace_key)


def result_digest(result_key: object) -> str:
    """Digest of a full simulation key (fingerprint + configuration)."""
    return key_digest("result", result_key)


def estimate_digest(estimate_key: object) -> str:
    """Digest of a sampled-estimate key (experiment + grid + budget).

    Distinct from :func:`result_digest` on purpose: a budgeted estimate
    is an *aggregate* over sampled exact cells, so it must never share
    an address space with exact per-cell records.
    """
    return key_digest("estimate", estimate_key)


@dataclass(frozen=True)
class TraceRef:
    """A shippable reference to a persisted trace (hash + path).

    The parallel runner sends these to worker processes instead of
    having every worker regenerate the bundle's trace from its recipe.
    """

    digest: str
    path: str


def load_trace_ref(ref: TraceRef) -> "Trace | None":
    """Resolve a :class:`TraceRef`, tolerating missing/corrupt files."""
    try:
        trace = Trace.load(ref.path)
    except FileNotFoundError:
        return None
    except _CORRUPT_ERRORS:
        return None
    try:
        # Reads refresh recency so LRU GC never evicts the traces the
        # parallel workers are actively being handed references to.
        os.utime(ref.path)
    except OSError:
        pass
    return trace


# ----------------------------------------------------------------------
# SimResult (de)serialization.
# ----------------------------------------------------------------------


def _json_default(value: object) -> object:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def encode_result(result: SimResult) -> dict:
    """Serialize a :class:`SimResult` into plain JSON types.

    Floats survive a JSON round trip exactly (shortest-repr encoding),
    so a decoded record compares equal to the freshly computed one —
    the store-vs-recompute equivalence tests rely on this.
    """
    coverage = result.coverage
    traffic = result.traffic
    stats = result.prefetcher_stats
    return {
        "workload": result.workload,
        "prefetcher": result.prefetcher,
        "measured_records": int(result.measured_records),
        "elapsed_cycles": float(result.elapsed_cycles),
        "coverage": {
            f.name: int(getattr(coverage, f.name))
            for f in fields(CoverageCounts)
        },
        "l1_hits": int(result.l1_hits),
        "victim_hits": int(result.victim_hits),
        "l2_hits": int(result.l2_hits),
        "traffic": None
        if traffic is None
        else {
            f.name: float(getattr(traffic, f.name))
            for f in fields(TrafficBreakdown)
        },
        "overhead_per_useful_byte": float(result.overhead_per_useful_byte),
        "metadata_bytes": int(result.metadata_bytes),
        "useful_bytes": int(result.useful_bytes),
        "mlp": float(result.mlp),
        "prefetcher_stats": None
        if stats is None
        else {
            f.name: int(getattr(stats, f.name))
            for f in fields(PrefetcherStats)
        },
        "dram_utilization": float(result.dram_utilization),
        "miss_log": None
        if result.miss_log is None
        else [[int(block) for block in core] for core in result.miss_log],
        "core_workloads": result.core_workloads,
        "core_coverage": None
        if result.core_coverage is None
        else [
            {
                f.name: int(getattr(core_coverage, f.name))
                for f in fields(CoverageCounts)
            }
            for core_coverage in result.core_coverage
        ],
        "core_measured_records": None
        if result.core_measured_records is None
        else [int(n) for n in result.core_measured_records],
        "core_elapsed_cycles": None
        if result.core_elapsed_cycles is None
        else [float(c) for c in result.core_elapsed_cycles],
        "core_mlp": None
        if result.core_mlp is None
        else [float(m) for m in result.core_mlp],
        "core_traffic_bytes": None
        if result.core_traffic_bytes is None
        else [
            {str(category): int(count) for category, count in per_core.items()}
            for per_core in result.core_traffic_bytes
        ],
    }


def decode_result(payload: dict) -> SimResult:
    """Rebuild a :class:`SimResult` from :func:`encode_result` output."""
    traffic = payload["traffic"]
    stats = payload["prefetcher_stats"]
    return SimResult(
        workload=payload["workload"],
        prefetcher=payload["prefetcher"],
        measured_records=payload["measured_records"],
        elapsed_cycles=payload["elapsed_cycles"],
        coverage=CoverageCounts(**payload["coverage"]),
        l1_hits=payload["l1_hits"],
        victim_hits=payload["victim_hits"],
        l2_hits=payload["l2_hits"],
        traffic=None if traffic is None else TrafficBreakdown(**traffic),
        overhead_per_useful_byte=payload["overhead_per_useful_byte"],
        metadata_bytes=payload["metadata_bytes"],
        useful_bytes=payload["useful_bytes"],
        mlp=payload["mlp"],
        prefetcher_stats=None
        if stats is None
        else PrefetcherStats(**stats),
        dram_utilization=payload["dram_utilization"],
        miss_log=payload["miss_log"],
        core_workloads=payload["core_workloads"],
        core_coverage=None
        if payload["core_coverage"] is None
        else [CoverageCounts(**c) for c in payload["core_coverage"]],
        core_measured_records=payload["core_measured_records"],
        core_elapsed_cycles=payload["core_elapsed_cycles"],
        core_mlp=payload["core_mlp"],
        core_traffic_bytes=payload["core_traffic_bytes"],
    )


# ----------------------------------------------------------------------
# The store.
# ----------------------------------------------------------------------


@dataclass
class StoreStats:
    """Per-process counters of one store handle's behaviour."""

    trace_hits: int = 0
    trace_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    writes: int = 0
    write_errors: int = 0
    corrupt_dropped: int = 0
    schema_invalidated: int = 0
    evictions: int = 0
    stale_temps_swept: int = 0
    #: Entries ``gc``/``clear`` left in place because they were queued
    #: for remote write-back (``RemoteStore.pending_paths`` pinning).
    pinned_skipped: int = 0

    @property
    def hits(self) -> int:
        return self.trace_hits + self.result_hits

    @property
    def misses(self) -> int:
        return self.trace_misses + self.result_misses


@dataclass(frozen=True)
class StoreEntry:
    """One persisted artifact, as listed by :meth:`ArtifactStore.entries`."""

    kind: str  # "trace" | "result" | "estimate"
    digest: str
    path: str
    size_bytes: int
    mtime: float


class ArtifactStore:
    """Content-addressed artifact directory with LRU size-capped GC.

    All writes are atomic (temp file + ``os.replace``), so concurrent
    writers of the same key cannot produce a torn entry — the last
    complete write wins.  Reads refresh an entry's mtime, which is the
    recency signal :meth:`gc` evicts by.

    ``remote`` attaches the optional third tier
    (:class:`~repro.sim.remote.RemoteStore`): local-disk misses
    read-through from the remote peer (the fetched bytes are installed
    locally first, so promotion is paid once), and successful local
    writes write-back to the peer asynchronously.  ``"auto"`` (the
    default) attaches from ``$REPRO_REMOTE_URL`` unless
    ``REPRO_REMOTE=off``.
    """

    def __init__(
        self,
        root: str,
        max_bytes: "int | None" = None,
        remote: "RemoteStore | None | str" = "auto",
    ) -> None:
        self.root = os.path.abspath(root)
        self.stats = StoreStats()
        if max_bytes is None:
            max_bytes = self._max_bytes_from_env()
        self.max_bytes = max_bytes
        if remote == "auto":
            remote = RemoteStore.from_env()
        self.remote: "RemoteStore | None" = remote
        #: Remote-stat values already folded into the persistent
        #: counters (see :meth:`publish_remote_stats`).
        self._remote_published: "dict[str, int]" = {}
        #: Running size estimate so capped stores don't rescan the
        #: whole directory on every write (may over-count overwrites;
        #: drift only triggers GC early, never lets the cap slip).
        self._running_total: "int | None" = None
        self._traces_dir = os.path.join(self.root, "traces")
        self._results_dir = os.path.join(self.root, "results")
        self._estimates_dir = os.path.join(self.root, "estimates")
        os.makedirs(self._traces_dir, exist_ok=True)
        os.makedirs(self._results_dir, exist_ok=True)
        os.makedirs(self._estimates_dir, exist_ok=True)
        self._check_schema()

    @classmethod
    def from_env(cls) -> "ArtifactStore | None":
        """A store at ``$REPRO_STORE_DIR``, or None when unset."""
        root = os.environ.get("REPRO_STORE_DIR")
        if not root:
            return None
        try:
            return cls(root)
        except OSError:
            return None

    @staticmethod
    def _max_bytes_from_env() -> "int | None":
        megabytes = env_float("REPRO_STORE_MAX_MB", None)
        if megabytes is None:
            return None
        return int(megabytes * 1024 * 1024)

    # ------------------------------------------------------------------
    # Schema stamping.
    # ------------------------------------------------------------------

    def _schema_path(self) -> str:
        return os.path.join(self.root, _SCHEMA_FILE)

    def _check_schema(self) -> None:
        """Validate the store's format stamp; invalidate on mismatch."""
        stamped: "int | None" = None
        try:
            with open(self._schema_path(), "rb") as handle:
                stamped = json.load(handle).get("schema")
        except FileNotFoundError:
            pass
        except _CORRUPT_ERRORS:
            pass
        if stamped == SCHEMA_VERSION:
            return
        if self.entries():
            # Entries written under another (or unknown) format: drop
            # them all rather than risk misinterpreting old bytes.
            self.clear()
            self.stats.schema_invalidated += 1
        self._atomic_write_bytes(
            self._schema_path(),
            json.dumps({"schema": SCHEMA_VERSION}).encode(),
        )

    # ------------------------------------------------------------------
    # Paths and atomic writes.
    # ------------------------------------------------------------------

    def trace_path(self, digest: str) -> str:
        return os.path.join(self._traces_dir, f"{digest}.npz")

    def result_path(self, digest: str) -> str:
        return os.path.join(self._results_dir, f"{digest}.json")

    def trace_ref(self, digest: str) -> TraceRef:
        return TraceRef(digest=digest, path=self.trace_path(digest))

    @staticmethod
    def _atomic_write_bytes(path: str, payload: bytes) -> None:
        """Write ``payload`` to ``path`` via temp file + rename."""
        directory = os.path.dirname(path)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=_TMP_PREFIX)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    def _drop(self, path: str) -> None:
        self.stats.corrupt_dropped += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # The remote tier (read-through / write-back).
    # ------------------------------------------------------------------

    def _read_through(self, kind: str, digest: str, path: str) -> bool:
        """Promote one remote object into the local tier; False on miss.

        The fetched bytes are installed at ``path`` via the same atomic
        rename local writes use, then re-read through the normal
        (corruption-tolerant) load path — a remote entry that is bad
        *at rest* on the peer (its transport digest still matches) is
        dropped locally exactly like a torn local file.
        """
        if self.remote is None:
            return False
        payload = self.remote.fetch(kind, digest)
        if payload is None:
            return False
        try:
            self._atomic_write_bytes(path, payload)
        except OSError:
            self.stats.write_errors += 1
            return False
        self._auto_gc(path)
        return True

    def _write_back(self, kind: str, digest: str, path: str) -> None:
        """Queue an asynchronous upload of a just-written artifact."""
        if self.remote is not None:
            self.remote.enqueue_writeback(kind, digest, path)

    def publish_remote_stats(self) -> None:
        """Fold remote-tier stat deltas into the persistent counters.

        Idempotent per delta: only growth since the last publication is
        written, so CLI runs can publish at exit and ``cache stats``
        reports fleet behaviour accumulated across processes.
        """
        if self.remote is None:
            return
        snapshot = self.remote.stats_snapshot()
        deltas = {
            f"remote_{name}": value - self._remote_published.get(name, 0)
            for name, value in snapshot.items()
        }
        self._remote_published = snapshot
        self.bump_counters({k: d for k, d in deltas.items() if d})

    def close_remote(self, flush_timeout_s: float = 60.0) -> None:
        """Flush queued write-backs, publish counters, detach the tier."""
        if self.remote is None:
            return
        self.remote.close(flush_timeout_s)
        self.publish_remote_stats()

    # ------------------------------------------------------------------
    # Traces.
    # ------------------------------------------------------------------

    def load_trace(self, digest: str) -> "Trace | None":
        """Read a persisted trace; None on miss or unreadable entry.

        A local miss (or a dropped corrupt entry) read-throughs the
        remote tier once before giving up.
        """
        path = self.trace_path(digest)
        for from_remote in (False, True):
            try:
                trace = Trace.load(path)
            except FileNotFoundError:
                pass
            except _CORRUPT_ERRORS:
                self._drop(path)
            else:
                self.stats.trace_hits += 1
                self._touch(path)
                return trace
            if from_remote or not self._read_through(
                "trace", digest, path
            ):
                break
        self.stats.trace_misses += 1
        return None

    def save_trace(self, digest: str, trace: Trace) -> bool:
        """Persist a trace atomically; False on I/O failure."""
        path = self.trace_path(digest)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self._traces_dir, prefix=_TMP_PREFIX
            )
            os.close(fd)
            trace.save(tmp)
            os.replace(tmp, path)
        except OSError:
            self.stats.write_errors += 1
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return False
        self.stats.writes += 1
        self._write_back("trace", digest, path)
        self._auto_gc(path)
        return True

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def _load_result_file(self, path: str) -> "SimResult | None":
        """One local read attempt; drops unreadable/stale entries."""
        try:
            with open(path, "rb") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except _CORRUPT_ERRORS:
            self._drop(path)
            return None
        if (
            not isinstance(record, dict)
            or record.get("schema") != SCHEMA_VERSION
            or record.get("kind") != "sim-result"
        ):
            self._drop(path)
            self.stats.schema_invalidated += 1
            return None
        try:
            return decode_result(record["payload"])
        except _CORRUPT_ERRORS:
            self._drop(path)
            return None

    def load_result(self, digest: str) -> "SimResult | None":
        """Read a persisted result; None on miss, corruption, or a
        schema-version mismatch (stale entries invalidate themselves).
        A local miss read-throughs the remote tier once."""
        path = self.result_path(digest)
        for from_remote in (False, True):
            result = self._load_result_file(path)
            if result is not None:
                self.stats.result_hits += 1
                self._touch(path)
                return result
            if from_remote or not self._read_through(
                "result", digest, path
            ):
                break
        self.stats.result_misses += 1
        return None

    def save_result(self, digest: str, result: SimResult) -> bool:
        """Persist a result atomically; False on I/O failure."""
        record = {
            "schema": SCHEMA_VERSION,
            "kind": "sim-result",
            "workload": result.workload,
            "prefetcher": result.prefetcher,
            "payload": encode_result(result),
        }
        path = self.result_path(digest)
        try:
            payload = json.dumps(record, default=_json_default).encode()
            self._atomic_write_bytes(path, payload)
        except OSError:
            self.stats.write_errors += 1
            return False
        self.stats.writes += 1
        self._write_back("result", digest, path)
        self._auto_gc(path)
        return True

    # ------------------------------------------------------------------
    # Sampled-estimate records.
    # ------------------------------------------------------------------

    def estimate_path(self, digest: str) -> str:
        return os.path.join(self._estimates_dir, f"{digest}.json")

    def save_estimate(self, digest: str, payload: dict) -> bool:
        """Persist a budgeted sampled-sweep estimate atomically.

        Estimates are stamped ``kind: "sampled-estimate"`` (with a
        ``sampled: true`` marker inside the record) so a statistical
        aggregate can never be mistaken for an exact ``sim-result`` —
        the two kinds live in separate directories *and* separate
        digest domains (:func:`estimate_digest`).  Estimates are local
        derived artifacts: they are not written back to the remote tier
        (the exact sampled cells replicate instead, and any peer can
        re-derive the aggregate from them).
        """
        record = {
            "schema": SCHEMA_VERSION,
            "kind": "sampled-estimate",
            "sampled": True,
            "payload": payload,
        }
        path = self.estimate_path(digest)
        try:
            self._atomic_write_bytes(
                path, json.dumps(record, default=_json_default).encode()
            )
        except OSError:
            self.stats.write_errors += 1
            return False
        self.stats.writes += 1
        self._auto_gc(path)
        return True

    def load_estimate(self, digest: str) -> "dict | None":
        """Read a sampled-estimate payload; None on miss/corruption."""
        path = self.estimate_path(digest)
        try:
            with open(path, "rb") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except _CORRUPT_ERRORS:
            self._drop(path)
            return None
        if (
            not isinstance(record, dict)
            or record.get("schema") != SCHEMA_VERSION
            or record.get("kind") != "sampled-estimate"
            or not record.get("sampled")
            or not isinstance(record.get("payload"), dict)
        ):
            self._drop(path)
            self.stats.schema_invalidated += 1
            return None
        self._touch(path)
        return record["payload"]

    # ------------------------------------------------------------------
    # Introspection and garbage collection.
    # ------------------------------------------------------------------

    def entries(self) -> "list[StoreEntry]":
        """All persisted artifacts, oldest (least recently used) first."""
        found: "list[StoreEntry]" = []
        for kind, directory, suffix in (
            ("trace", self._traces_dir, ".npz"),
            ("result", self._results_dir, ".json"),
            ("estimate", self._estimates_dir, ".json"),
        ):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if name.startswith(_TMP_PREFIX) or not name.endswith(
                    suffix
                ):
                    continue
                path = os.path.join(directory, name)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                found.append(
                    StoreEntry(
                        kind=kind,
                        digest=name[: -len(suffix)],
                        path=path,
                        size_bytes=status.st_size,
                        mtime=status.st_mtime,
                    )
                )
        found.sort(key=lambda entry: entry.mtime)
        return found

    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries())

    def gc(self, max_bytes: "int | None" = None) -> int:
        """Evict least-recently-used entries until under ``max_bytes``.

        Returns the number of entries evicted.  Orphaned temp files are
        swept first (age-gated; see :meth:`sweep_stale_temps`) — they
        evade the size accounting, so eviction alone could never
        reclaim them.  With no cap configured and none given, nothing
        further happens.
        """
        self.sweep_stale_temps()
        cap = max_bytes if max_bytes is not None else self.max_bytes
        if cap is None:
            return 0
        entries = self.entries()
        total = sum(entry.size_bytes for entry in entries)
        # Entries queued for remote write-back are pinned: evicting one
        # mid-queue would make the background upload ship a vanished
        # file and silently drop the fleet's copy.
        pinned = (
            self.remote.pending_paths() if self.remote is not None
            else frozenset()
        )
        evicted = 0
        for entry in entries:  # oldest first
            if total <= cap:
                break
            if entry.path in pinned:
                self.stats.pinned_skipped += 1
                continue
            try:
                os.unlink(entry.path)
            except OSError:
                continue
            total -= entry.size_bytes
            evicted += 1
        self.stats.evictions += evicted
        self._running_total = total  # exact again after a full scan
        return evicted

    def _auto_gc(self, written_path: str) -> None:
        """Enforce the size cap after a write, rescanning only when the
        running estimate says the cap may actually be exceeded."""
        if self.max_bytes is None:
            return
        try:
            added = os.stat(written_path).st_size
        except OSError:
            added = 0
        if self._running_total is None:
            self._running_total = self.total_bytes()
        else:
            self._running_total += added
        if self._running_total > self.max_bytes:
            self.gc(self.max_bytes)

    # ------------------------------------------------------------------
    # Persistent operational counters.
    # ------------------------------------------------------------------

    def _counters_path(self) -> str:
        return os.path.join(self.root, _COUNTERS_FILE)

    @contextlib.contextmanager
    def _counters_lock(self):
        """Advisory exclusive lock serializing counter read-modify-writes.

        Taken on a *sidecar* file (``counters.lock``), never on the
        counters file itself: the data file is replaced atomically on
        every write, and a lock held on a replaced inode would not
        exclude the next writer.  Only the counter RMW takes this lock —
        artifact reads/writes stay lock-free (they are atomic renames
        and need no interlock).  Yields False (and degrades to the old
        best-effort behaviour) where ``fcntl`` or the lock file are
        unavailable.
        """
        if fcntl is None:
            yield False
            return
        try:
            fd = os.open(
                os.path.join(self.root, _COUNTERS_LOCK_FILE),
                os.O_CREAT | os.O_RDWR,
                0o644,
            )
        except OSError:
            yield False
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield True
        finally:
            os.close(fd)  # releases the flock

    def counters(self) -> "dict[str, int]":
        """Store-lifetime counters (e.g. runner bundle skips).

        Unlike :attr:`stats` these survive the process: they live in a
        ``counters.json`` beside the schema stamp, so ``cache stats``
        can report behaviour accumulated across CLI runs and CI jobs.
        """
        try:
            with open(self._counters_path(), "rb") as handle:
                raw = json.load(handle)
        except FileNotFoundError:
            return {}
        except _CORRUPT_ERRORS:
            return {}
        if not isinstance(raw, dict):
            return {}
        return {
            str(key): int(value)
            for key, value in raw.items()
            if isinstance(value, (int, float))
        }

    def bump_counter(self, name: str, delta: int = 1) -> None:
        """Increment a persistent counter under the counter interlock."""
        self.bump_counters({name: delta})

    def bump_counters(self, deltas: "dict[str, int]") -> None:
        """Increment several persistent counters in one locked write.

        The whole read-modify-write holds the advisory counter lock, so
        concurrent writers — daemon request handlers, pool workers, and
        parallel CLI runs sharing one store — serialize and never lose
        increments.  The runner folds a whole fan-out's shared-memory
        counters in a single RMW instead of one file rewrite per name;
        zero deltas are skipped.
        """
        deltas = {name: d for name, d in deltas.items() if d}
        if not deltas:
            return
        with self._counters_lock():
            counters = self.counters()
            for name, delta in deltas.items():
                counters[name] = counters.get(name, 0) + delta
            try:
                self._atomic_write_bytes(
                    self._counters_path(),
                    json.dumps(counters, sort_keys=True).encode(),
                )
            except OSError:
                self.stats.write_errors += 1

    def buffered_counters(self, flush_every: int = 16) -> "CounterBuffer":
        """A :class:`CounterBuffer` batching bumps against this store."""
        return CounterBuffer(self, flush_every=flush_every)

    # ------------------------------------------------------------------
    # Stale-temp sweeping and whole-store clearing.
    # ------------------------------------------------------------------

    @staticmethod
    def _stale_temp_age_from_env() -> float:
        return env_float(
            "REPRO_STORE_TMP_MAX_AGE_S", _STALE_TEMP_SECONDS
        )

    def sweep_stale_temps(
        self, max_age_seconds: "float | None" = None
    ) -> int:
        """Remove orphaned ``.tmp-*`` files from crashed writers.

        Temp files are invisible to :meth:`entries` (and therefore to
        :meth:`gc`, :meth:`total_bytes`, and the size cap), so a writer
        that died between ``mkstemp`` and ``os.replace`` used to leak
        its temp forever.  This sweep — invoked from :meth:`gc` and
        :meth:`clear` — unlinks temps older than the age gate
        (default 1h, ``REPRO_STORE_TMP_MAX_AGE_S``); younger ones are
        presumed to belong to a live in-flight writer and survive.
        Swept files are tallied in the persistent ``stale_temps_swept``
        counter so accumulation is observable in ``cache stats``.
        """
        if max_age_seconds is None:
            max_age_seconds = self._stale_temp_age_from_env()
        cutoff = time.time() - max_age_seconds
        swept = 0
        for directory in (
            self.root,
            self._traces_dir,
            self._results_dir,
            self._estimates_dir,
        ):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if not name.startswith(_TMP_PREFIX):
                    continue
                path = os.path.join(directory, name)
                try:
                    if os.stat(path).st_mtime >= cutoff:
                        continue
                    os.unlink(path)
                except OSError:
                    continue
                swept += 1
        if swept:
            self.stats.stale_temps_swept += swept
            self.bump_counter("stale_temps_swept", swept)
        return swept

    def clear(self) -> int:
        """Remove every entry (the store directory itself survives).

        Entries queued for remote write-back are pinned exactly like in
        :meth:`gc` — unlinking one mid-queue would make the background
        writer ship a vanished file and silently drop the fleet's copy.
        Pinned entries are skipped (tallied in
        ``stats.pinned_skipped``) and survive until the flush lands.

        Stale temp files are swept too (age-gated, so a concurrent
        writer's in-flight temp survives); they do not count toward the
        returned entry total.
        """
        pinned = (
            self.remote.pending_paths() if self.remote is not None
            else frozenset()
        )
        removed = 0
        skipped = 0
        for entry in self.entries():
            if entry.path in pinned:
                skipped += 1
                continue
            try:
                os.unlink(entry.path)
            except OSError:
                continue
            removed += 1
        self.sweep_stale_temps()
        self.stats.pinned_skipped += skipped
        # With pinned survivors the directory is not empty; force a
        # rescan instead of asserting an exact zero.
        self._running_total = None if skipped else 0
        return removed

    def describe(self) -> dict:
        """Summary used by ``repro cache stats`` (and tests)."""
        entries = self.entries()
        traces = [e for e in entries if e.kind == "trace"]
        results = [e for e in entries if e.kind == "result"]
        estimates = [e for e in entries if e.kind == "estimate"]
        return {
            "root": self.root,
            "schema": SCHEMA_VERSION,
            "traces": len(traces),
            "trace_bytes": sum(e.size_bytes for e in traces),
            "results": len(results),
            "result_bytes": sum(e.size_bytes for e in results),
            "estimates": len(estimates),
            "estimate_bytes": sum(e.size_bytes for e in estimates),
            "total_bytes": sum(e.size_bytes for e in entries),
            "max_bytes": self.max_bytes,
            "counters": self.counters(),
            "age_seconds": (
                time.time() - min(e.mtime for e in entries)
                if entries
                else 0.0
            ),
            "remote": (
                self.remote.describe() if self.remote is not None
                else None
            ),
        }


class CounterBuffer:
    """In-memory accumulator batching persistent-counter bumps.

    Every :meth:`ArtifactStore.bump_counters` call is a locked
    read-modify-write of ``counters.json``; a busy writer (the service
    daemon tallies several counters per request) would serialize on
    that file.  A buffer folds deltas in memory and flushes them as
    *one* locked RMW every ``flush_every`` bump calls — conservation
    still holds because the flush goes through the same interlock.
    Callers must :meth:`flush` (or use the buffer as a context manager)
    before exiting, or the tail of the batch is lost.
    """

    def __init__(
        self, store: ArtifactStore, flush_every: int = 16
    ) -> None:
        self.store = store
        self.flush_every = max(1, flush_every)
        self._pending: "dict[str, int]" = {}
        self._bumps_since_flush = 0

    def bump(self, name: str, delta: int = 1) -> None:
        self.bump_many({name: delta})

    def pending(self) -> "dict[str, int]":
        """Deltas accumulated since the last flush (observability)."""
        return dict(self._pending)

    def bump_many(self, deltas: "dict[str, int]") -> None:
        for name, delta in deltas.items():
            if delta:
                self._pending[name] = self._pending.get(name, 0) + delta
        self._bumps_since_flush += 1
        if self._bumps_since_flush >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write all pending deltas in one locked read-modify-write."""
        pending, self._pending = self._pending, {}
        self._bumps_since_flush = 0
        if pending:
            self.store.bump_counters(pending)

    def __enter__(self) -> "CounterBuffer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.flush()
