"""Simulation session: two-tier (memory -> disk) caching of artifacts.

Every figure experiment re-simulates baselines and regenerates traces
that other experiments already produced.  A :class:`SimSession` makes
that repetition free: traces are keyed by their generation recipe,
simulation results by the content hash of the trace plus the full
machine/prefetcher configuration.  Simulations are deterministic
functions of those keys (generators and samplers are seeded), so
memoization is semantics-preserving.

Two tiers back the session:

* **memory** — the process-local dictionaries (optionally LRU-capped
  via ``max_memory_results``); hits return the *same objects* handed to
  earlier callers, so treat :class:`~repro.sim.metrics.SimResult` as
  immutable (every in-repo consumer only reads it).
* **disk** — an optional :class:`~repro.sim.store.ArtifactStore`
  shared across processes: pool workers, successive CLI runs, and CI
  jobs all read and write the same content-addressed entries.  The
  store attaches automatically when ``REPRO_STORE_DIR`` is set.

The module-level session (:func:`get_session`) is shared by
:mod:`repro.sim.runner` and therefore by every experiment driver, the
CLI, and the benchmarks; each worker process of the parallel
:class:`~repro.sim.runner.ExperimentRunner` gets its own.

Set ``REPRO_SIM_CACHE=0`` (or construct ``SimSession(enabled=False)``)
to force every run to generate and simulate from scratch — both tiers
are bypassed, and the results are bit-identical to the cached path.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from repro.sim.engine import (
    SimConfig,
    Simulator,
    active_engine,
    resolve_engine,
)
from repro.sim.metrics import SimResult
from repro.sim.store import (
    ArtifactStore,
    TraceRef,
    load_trace_ref,
    result_digest,
    trace_digest,
)
from repro.workloads.suite import ScalePreset, generate, get_scale
from repro.workloads.trace import Trace


@dataclass
class SessionStats:
    """Cache behaviour counters (observability for tests and tuning).

    ``*_hits`` count memory-tier hits, ``*_store_hits`` disk-tier hits,
    and ``*_misses`` actual generations/simulations.
    """

    trace_hits: int = 0
    trace_store_hits: int = 0
    trace_misses: int = 0
    sim_hits: int = 0
    sim_store_hits: int = 0
    sim_misses: int = 0
    memory_evictions: int = 0
    #: Whole job bundles the runner served from the store without
    #: spawning a worker (store-aware scheduling).
    bundle_skips: int = 0
    #: Sweep invocations: grid-job groups the runner pushed through the
    #: config-parallel engine (``sim/sweep.py``) as one shared pass.
    sweep_invocations: int = 0
    #: Grid cells simulated inside a sweep invocation on the shared
    #: (config-parallel) path.
    sweep_cells: int = 0
    #: Grid cells a sweep invocation had to hand back to the per-cell
    #: engine (scalar engine requested, or no vectorizable form) —
    #: nonzero values flag silent de-vectorization.
    sweep_fallbacks: int = 0
    #: Shared-memory trace-plane segments this session's runner
    #: exported for cell shards (parent side of the zero-copy plane).
    shm_exports: int = 0
    #: Trace-plane segments attached by workers (folded back into the
    #: parent's stats after a fan-out).
    shm_attaches: int = 0
    #: Bytes served to workers as zero-copy shared-memory views.
    shm_bytes_zero_copy: int = 0
    #: Bytes shipped to workers on the pickle/npz fallback path
    #: (TraceRef file sizes) — the plane's savings are the contrast
    #: between this and :attr:`shm_bytes_zero_copy`.
    shm_bytes_pickled: int = 0
    #: Remote-tier behaviour (the store's HTTP peer, if configured).
    #: Folded from the store's :class:`~repro.sim.remote.RemoteStore`
    #: by :meth:`SimSession.fold_remote_stats`; ``remote_hits`` are
    #: objects read-through from the peer, ``remote_skipped`` are
    #: requests suppressed by the open circuit breaker.
    remote_hits: int = 0
    remote_misses: int = 0
    remote_errors: int = 0
    remote_skipped: int = 0
    remote_writebacks: int = 0
    #: Budgeted-sampling layer (``sim/sampling.py`` via the
    #: ``run_sampled_sweep`` helper): grid cells selected under a
    #: budget, cells run through the same helper at full budget (the
    #: exact contrast for ``cache stats``), and sampled cells served
    #: warm from the cache tiers instead of simulated — nonzero reuse
    #: on a re-run is the store-backed refinement property.
    sampling_sampled_cells: int = 0
    sampling_exact_cells: int = 0
    sampling_reused_cells: int = 0
    #: Simulated events (trace records run through the engine, warm-up
    #: included) and the seconds spent simulating them, summed over
    #: every simulation this session (and its workers) actually ran:
    #: their ratio is the engine's events/s.
    sim_events: int = 0
    sim_seconds: float = 0.0


def _freeze(value):
    """Recursively convert a value into a hashable cache-key component."""
    if is_dataclass(value) and not isinstance(value, type):
        return tuple(
            (f.name, _freeze(getattr(value, f.name)))
            for f in fields(value)
        )
    if isinstance(value, dict):
        return tuple(
            sorted((k, _freeze(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def trace_fingerprint(trace: Trace) -> str:
    """Content hash of a trace (arrays + metadata), cached on the trace.

    Traces are treated as immutable once generated; the digest is
    computed once and stored on the instance.
    """
    cached = getattr(trace, "_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    digest.update(trace.name.encode())
    digest.update(str(trace.warmup_fraction).encode())
    digest.update(str(trace.working_set_blocks).encode())
    if trace.core_workloads is not None:
        digest.update(repr(tuple(trace.core_workloads)).encode())
    if trace.core_warmup is not None:
        digest.update(repr(tuple(trace.core_warmup)).encode())
    if trace.core_rates is not None:
        digest.update(repr(tuple(trace.core_rates)).encode())
    if trace.core_priorities is not None:
        digest.update(repr(tuple(trace.core_priorities)).encode())
    for core in range(trace.cores):
        for column in (trace.blocks, trace.work, trace.dep, trace.write):
            array = np.asarray(column[core])
            digest.update(str(array.dtype).encode())
            digest.update(array.tobytes())
    fingerprint = digest.hexdigest()
    trace._fingerprint = fingerprint
    return fingerprint


def trace_recipe_key(
    workload: str,
    preset: ScalePreset,
    cores: int,
    seed: int,
    records_per_core: "int | None",
) -> tuple:
    """The canonical trace cache key; equals ``SimJob.trace_key()``.

    Mix workloads are canonicalized first, so every spelling of the
    same recipe (``mix:a+a``, ``mix:2xa``, a preset name) addresses one
    store entry.
    """
    from repro.workloads.mix import MixRecipe, is_mix

    if is_mix(workload):
        workload = MixRecipe.parse(workload).name
    return (workload, _freeze(preset), cores, seed, records_per_core)


class SimSession:
    """Two-tier (memory -> disk) memo of traces and simulation results.

    Memo-tier accesses are guarded by a reentrant lock so sessions can
    be shared across threads — the service daemon offloads simulations
    from its event loop onto worker threads, all submitting through one
    session.  The lock scopes to cache bookkeeping only: trace
    generation and simulation proper run outside it, so two *distinct*
    keys still compute concurrently (equal keys are the single-flight
    layer's job — the session may at worst compute one twice, never
    corrupt state).
    """

    def __init__(
        self,
        enabled: "bool | None" = None,
        store: "ArtifactStore | None | str" = "auto",
        max_memory_results: "int | None" = None,
    ) -> None:
        if enabled is None:
            enabled = os.environ.get("REPRO_SIM_CACHE", "1") != "0"
        self.enabled = enabled
        if store == "auto":
            store = ArtifactStore.from_env() if enabled else None
        #: The persistent tier; None keeps the session process-local.
        #: A disabled session never touches a store (full recompute).
        self.store: "ArtifactStore | None" = store if enabled else None
        self.max_memory_results = max_memory_results
        self.stats = SessionStats()
        #: Reentrant: ``simulate`` -> ``lookup_result`` nests, and the
        #: guarded sections are all short (no generation/simulation).
        self._lock = threading.RLock()
        self._traces: "dict[tuple, Trace]" = {}
        #: Keys seeded into the memory tier from a disk entry that has
        #: not been *looked up* yet.  The disk read is attributed as a
        #: store hit on the first lookup, not at priming time —
        #: otherwise one acquisition would be double-counted (a store
        #: hit when primed plus a memory hit when first used, which is
        #: exactly what happens when the memory tier shadows a disk
        #: entry warmed by another process in the same run).
        self._primed: "set[tuple]" = set()
        self._results: "OrderedDict[tuple, SimResult]" = OrderedDict()
        #: Remote-tier snapshot already folded into ``stats`` (so
        #: repeated folds add only growth; see :meth:`fold_remote_stats`).
        self._remote_folded: "dict[str, int]" = {}

    def attach_store(self, store: "ArtifactStore | None") -> None:
        """Set the disk tier (used by pool workers joining a run)."""
        self.store = store if self.enabled else None

    # ------------------------------------------------------------------
    # Trace generation.
    # ------------------------------------------------------------------

    def trace(
        self,
        workload: str,
        scale: "str | ScalePreset" = "bench",
        cores: int = 4,
        seed: int = 7,
        records_per_core: "int | None" = None,
    ) -> Trace:
        """Generate (or reuse, from either tier) a suite workload trace."""
        preset = get_scale(scale)
        key = trace_recipe_key(
            workload, preset, cores, seed, records_per_core
        )
        if self.enabled:
            with self._lock:
                cached = self._traces.get(key)
                if cached is not None:
                    if key in self._primed:
                        # First lookup of a primed entry: this is the
                        # disk read's attribution (exactly once per
                        # acquisition).
                        self._primed.discard(key)
                        self.stats.trace_store_hits += 1
                    else:
                        self.stats.trace_hits += 1
                    return cached
            if self.store is not None:
                # Disk read outside the lock: a slow npz load must not
                # stall other threads' memo hits.
                loaded = self.store.load_trace(trace_digest(key))
                if loaded is not None:
                    with self._lock:
                        self.stats.trace_store_hits += 1
                        self._traces[key] = loaded
                    return loaded
        with self._lock:
            self.stats.trace_misses += 1
        trace = generate(
            workload,
            scale=preset,
            cores=cores,
            seed=seed,
            records_per_core=records_per_core,
        )
        if self.enabled:
            with self._lock:
                self._traces[key] = trace
            if self.store is not None:
                self.store.save_trace(trace_digest(key), trace)
        return trace

    def prime_trace(
        self,
        workload: str,
        scale: "str | ScalePreset",
        cores: int,
        seed: int,
        records_per_core: "int | None",
        ref: TraceRef,
    ) -> bool:
        """Seed the memory tier from a shipped :class:`TraceRef`.

        Workers of the parallel runner receive (hash, path) references
        instead of regenerating their bundle's trace; a missing or
        unreadable file simply leaves the normal lookup path in charge.
        """
        if not self.enabled:
            return False
        key = trace_recipe_key(
            workload, get_scale(scale), cores, seed, records_per_core
        )
        with self._lock:
            if key in self._traces:
                return True
        trace = load_trace_ref(ref)
        if trace is None:
            return False
        # No counter here: the store hit is attributed on first lookup
        # (see ``trace``), so priming + use counts one acquisition once.
        with self._lock:
            self._traces[key] = trace
            self._primed.add(key)
        return True

    def cached_trace(self, key: tuple) -> "Trace | None":
        """Memory-tier trace lookup (no generation, no counters)."""
        if not self.enabled:
            return None
        with self._lock:
            return self._traces.get(key)

    def adopt_shm_trace(
        self,
        workload: str,
        scale: "str | ScalePreset",
        cores: int,
        seed: int,
        records_per_core: "int | None",
        trace: Trace,
        nbytes: int = 0,
    ) -> bool:
        """Seed the memory tier with a shared-memory-attached trace.

        Pool workers call this after attaching the parent's trace-plane
        segment (:mod:`repro.sim.shm`): the zero-copy trace serves every
        later lookup in this process, so the worker neither re-reads the
        ``.npz`` nor regenerates.  The attach is counted regardless of
        whether the memory tier already held the trace (the segment was
        mapped either way); a disabled session refuses the seed — it
        must force full recomputation.
        """
        with self._lock:
            self.stats.shm_attaches += 1
            self.stats.shm_bytes_zero_copy += nbytes
            if not self.enabled:
                return False
            key = trace_recipe_key(
                workload, get_scale(scale), cores, seed, records_per_core
            )
            if key not in self._traces:
                # Not marked primed: later lookups count as plain
                # memory hits (the bytes never touched the disk tier
                # here); the shm_* counters carry the provenance.
                self._traces[key] = trace
            return True

    def adopt_trace(self, key: tuple, trace: Trace) -> None:
        """Seed the memory tier with a store-read trace the caller is
        using *right now* (the store-aware scheduler fingerprints it
        immediately).  Unlike :meth:`prime_trace` the acquisition is
        attributed here — deferring it would count nothing when the
        bundle is skipped and no later lookup ever happens."""
        with self._lock:
            if self.enabled and key not in self._traces:
                self._traces[key] = trace
                self.stats.trace_store_hits += 1

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------

    def simulate(
        self,
        trace: Trace,
        sim_config: SimConfig,
        temporal_key,
        temporal_factory,
        label: str,
        shared=None,
    ) -> SimResult:
        """Run (or reuse, from either tier) one simulation.

        ``temporal_key`` must uniquely describe the temporal-prefetcher
        configuration that ``temporal_factory`` builds (the runner
        passes the prefetcher kind plus its full parameterization); two
        calls with equal keys must request equivalent simulations.

        ``shared`` (a sweep invocation's precomputation handle) is a
        compute shortcut only: it never enters the cache key because
        results are bit-identical with or without it.
        """
        if not self.enabled:
            return self._run(
                trace, sim_config, temporal_factory, label, shared
            )
        key = self.result_key(trace, sim_config, temporal_key, label)
        cached = self.lookup_result(key)
        if cached is not None:
            return cached
        result = self._run(trace, sim_config, temporal_factory, label, shared)
        self._remember(key, result)
        if self.store is not None:
            self.store.save_result(result_digest(key), result)
        return result

    def _run(
        self, trace, sim_config, temporal_factory, label, shared
    ) -> SimResult:
        """Simulate for real, counting the events and time it took."""
        # A first-use kernel build is setup, not simulation time.
        active_engine(sim_config.engine)
        start = time.perf_counter()
        result = Simulator(sim_config).run(
            trace, temporal_factory, label=label, shared=shared
        )
        elapsed = time.perf_counter() - start
        with self._lock:
            self.stats.sim_misses += 1
            self.stats.sim_events += trace.records
            self.stats.sim_seconds += elapsed
        return result

    @staticmethod
    def result_key(
        trace: Trace, sim_config: SimConfig, temporal_key, label: str
    ) -> tuple:
        """The content key one simulation is cached under (both tiers)."""
        return (
            trace_fingerprint(trace),
            _freeze(sim_config),
            resolve_engine(sim_config.engine),
            _freeze(temporal_key),
            label,
        )

    def lookup_result(self, key: tuple) -> "SimResult | None":
        """Probe both tiers for a result key without simulating.

        The store-aware runner uses this to decide whether a whole job
        bundle can be served without spawning a worker.  Hits count in
        :attr:`stats` exactly as :meth:`simulate` hits do; a miss
        counts nothing (the caller decides what happens next).
        """
        if not self.enabled:
            return None
        with self._lock:
            cached = self._results.get(key)
            if cached is not None:
                self.stats.sim_hits += 1
                self._results.move_to_end(key)
                return cached
        if self.store is not None:
            loaded = self.store.load_result(result_digest(key))
            if loaded is not None:
                with self._lock:
                    self.stats.sim_store_hits += 1
                    self._remember(key, loaded)
                return loaded
        return None

    def _remember(self, key: tuple, result: SimResult) -> None:
        """Admit a result to the memory tier, evicting LRU past the cap."""
        with self._lock:
            self._results[key] = result
            self._results.move_to_end(key)
            if self.max_memory_results is not None:
                while len(self._results) > self.max_memory_results:
                    self._results.popitem(last=False)
                    self.stats.memory_evictions += 1

    def export_results(self) -> "dict[tuple, SimResult]":
        """Snapshot of the result cache (for cross-process adoption)."""
        with self._lock:
            return dict(self._results)

    def adopt_results(
        self, entries: "dict[tuple, SimResult]"
    ) -> None:
        """Merge result-cache entries computed by another session.

        Keys are content-based (trace fingerprint + full configuration),
        so entries from a worker process are valid here verbatim.
        """
        if self.enabled:
            with self._lock:
                for key, result in entries.items():
                    self._remember(key, result)

    def fold_remote_stats(self) -> None:
        """Mirror the store's remote-tier counters into session stats.

        The :class:`~repro.sim.remote.RemoteStore` counts its own
        behaviour (it lives below the store, which may be shared); this
        copies the growth since the last fold into :attr:`stats`, so
        remote activity rides the same ``SessionStats`` delta plumbing
        the parallel runner already uses to merge worker stats.
        Idempotent per delta — safe to call at every bundle boundary.
        """
        remote = self.store.remote if self.store is not None else None
        if remote is None:
            return
        snapshot = remote.stats_snapshot()
        with self._lock:
            for name in (
                "hits", "misses", "errors", "skipped", "writebacks",
            ):
                grown = snapshot.get(name, 0) - self._remote_folded.get(
                    name, 0
                )
                if grown:
                    field = f"remote_{name}"
                    setattr(
                        self.stats,
                        field,
                        getattr(self.stats, field) + grown,
                    )
            self._remote_folded = snapshot

    def clear(self) -> None:
        """Drop all memory-tier entries (the disk store is untouched)."""
        with self._lock:
            self._traces.clear()
            self._primed.clear()
            self._results.clear()


#: The process-wide session used by the runner layer.
_SESSION: SimSession | None = None


def get_session() -> SimSession:
    """The process-global session (created lazily)."""
    global _SESSION
    if _SESSION is None:
        _SESSION = SimSession()
    return _SESSION


def set_session(session: "SimSession | None") -> "SimSession | None":
    """Swap the process-global session; returns the previous one.

    Pass ``None`` to reset (a fresh session is created on next use).
    Benchmarks use this to measure cold paths.
    """
    global _SESSION
    previous = _SESSION
    _SESSION = session
    return previous
