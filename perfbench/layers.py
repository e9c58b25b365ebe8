"""Per-layer metrics of the traced run.

The traced rounds wrap each layer's public entry points (from this
file, never in the program's sources) and read the counters the program
already keeps: ``SessionStats``, ``StoreStats`` and ``SimResult``.  An
entry point or counter that no longer exists is reported as 0 and named
in the run's ``absent`` list, so the benchmark outlives the deletions it
is meant to judge.

Every count and time is per traced round (the mean over traced rounds);
ratios are taken over the summed counts.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics

from spans import Tracer, aggregate
from workloads import RoundOutcome, model_counts, seed_fragile, store_bytes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _declared_metrics() -> "list[str]":
    """Per-layer metric names, in report order, as BENCHMARK.json
    declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [m["name"] for m in json.load(handle)["per_layer"]]


LAYER_METRICS = _declared_metrics()

#: ArtifactStore entry point -> span name.
_STORE_SPANS = {
    "load_trace": "sim.store.load_trace",
    "load_result": "sim.store.load_result",
    "save_trace": "sim.store.save_trace",
    "save_result": "sim.store.save_result",
    "load_estimate": "sim.store.estimate",
    "save_estimate": "sim.store.estimate",
    # bump_counter forwards to bump_counters; ops count the latter.
    "bump_counter": "sim.store.counter",
    "bump_counters": "sim.store.counters",
}

#: (SessionStats field, metric) summed over a round's sessions.
_SESSION_COUNTS = (
    ("sim_misses", "sim.session.sim_misses"),
    ("sweep_cells", "sim.sweep.cells"),
    ("sweep_fallbacks", "sim.sweep.fallbacks"),
    ("bundle_skips", "sim.runner.bundle_skips"),
    ("shm_exports", "sim.shm.exports"),
    ("shm_attaches", "sim.shm.attaches"),
    ("shm_bytes_zero_copy", "sim.shm.bytes_zero_copy"),
    ("shm_bytes_pickled", "sim.shm.bytes_pickled"),
    ("sampling_sampled_cells", "sim.sampling.sampled_cells"),
    ("sampling_reused_cells", "sim.sampling.reused_cells"),
)


def _trace_records(span, args, kwargs, result) -> None:
    trace = kwargs.get("trace", args[1] if len(args) > 1 else None)
    blocks = getattr(trace, "blocks", None) or []
    span.counts["records"] = float(sum(len(b) for b in blocks))


def _generated_records(span, args, kwargs, result) -> None:
    blocks = getattr(result, "blocks", None) or []
    span.counts["records"] = float(sum(len(b) for b in blocks))


def _strata(span, args, kwargs, result) -> None:
    span.counts["strata"] = float(len(result) if result else 0)


#: (module, class or None, attribute, span name, count hook) of every
#: wrapped entry point, looked up where the program's callers find it.
_ENTRY_POINTS = [
    ("repro.sim.session", None, "generate", "workloads.generate",
     _generated_records),
    ("repro.sim.engine", "Simulator", "run", "sim.engine.run",
     _trace_records),
    ("repro.sim.sweep", "SweepShared", "precompute",
     "sim.sweep.precompute", None),
    *(("repro.sim.store", "ArtifactStore", attr, name, None)
      for attr, name in _STORE_SPANS.items()),
    ("repro.sim.runner", "ExperimentRunner", "map", "sim.runner.map", None),
    ("repro.experiments", None, "run_experiment", "experiments.run", None),
]

#: Module functions wrapped in every module that imported them.
_FUNCTIONS = [
    ("repro.sim.sampling", "plan_sample", "sim.sampling.plan", None),
    ("repro.analysis.stats", "stratified_estimates",
     "analysis.stats.bootstrap", _strata),
]


class LayerProbe:
    """Installs the wrappers around traced rounds and sums their metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.rounds = 0
        self.sums: "dict[str, float]" = {}
        self.engine_durations: "list[float]" = []
        self.traced_round_s: "list[float]" = []
        self.absent: "set[str]" = set()

    def install(self) -> None:
        t = self.tracer
        t.clear()  # spans of a traced round that raised are not counted
        for module_name, cls, attr, name, hook in _ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(module_name)
                continue
            owner = module if cls is None else getattr(module, cls, None)
            if owner is None:
                self.absent.add(f"{module_name}.{cls}")
                continue
            t.wrap_attr(owner, attr, name, hook)
        for module_name, attr, name, hook in _FUNCTIONS:
            try:
                importlib.import_module(module_name)
            except ImportError:
                self.absent.add(module_name)
                continue
            t.wrap_function(module_name, attr, name, hook)
        self.absent.update(t.missing)
        t.missing.clear()

    def uninstall(self) -> None:
        self.tracer.restore()

    def _add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    def record_round(
        self, outcome: RoundOutcome, round_s: float, worker_cpu_s: float,
    ) -> None:
        """Fold one traced round into the sums."""
        totals = aggregate(self.tracer.spans)
        self.tracer.clear()
        self.rounds += 1
        self.traced_round_s.append(round_s)
        for name, tot in totals.items():
            self._add(f"{name}.calls", tot.calls)
            self._add(f"{name}.self", tot.self_s)
            self._add(f"{name}.total", tot.total_s)
            for key, value in tot.counts.items():
                self._add(f"{name}.{key}", value)
        engine = totals.get("sim.engine.run")
        if engine is not None:
            self.engine_durations.extend(engine.durations)
        self._add("covered", sum(t.self_s for t in totals.values()))
        self._add("round", round_s)
        self._add("worker_cpu", worker_cpu_s)

        sessions, stores = outcome.sessions, outcome.stores
        for field_name, metric in _SESSION_COUNTS:
            values = [getattr(s.stats, field_name, None) for s in sessions]
            if any(v is None for v in values):
                self.absent.add(metric)
            self._add(metric, sum(v or 0 for v in values))
        for field_name in ("sim_hits", "sim_store_hits"):
            self._add(field_name, sum(
                getattr(s.stats, field_name, 0) for s in sessions))
        self._add("store_hits", sum(s.stats.hits for s in stores))
        self._add("store_misses", sum(s.stats.misses for s in stores))
        self._add("sim.store.write_errors",
                  sum(s.stats.write_errors for s in stores))
        self._add("sim.store.bytes", store_bytes(outcome))
        self._add("experiments.checks_failed", sum(
            1 for _, claim, passed, _ in outcome.checks
            if not passed and seed_fragile(claim)))
        for name, value in model_counts(outcome.cells).items():
            self._add(name, value)

    def metrics(self, untraced_round_s: "list[float]",
                workers: int) -> "dict[str, float]":
        """Every metric of :data:`LAYER_METRICS`, per traced round; one
        that nothing measures is 0 and named in :attr:`absent`."""
        n = max(1, self.rounds)
        s = self.sums

        def per_round(key: str) -> float:
            return s.get(key, 0.0) / n

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        round_s = per_round("round")
        store_self = sum(per_round(f"{name}.self")
                         for name in set(_STORE_SPANS.values()))
        out = {
            "workloads.generate_s": per_round("workloads.generate.self"),
            "workloads.traces": per_round("workloads.generate.calls"),
            "workloads.krec_per_s": ratio(
                s.get("workloads.generate.records", 0.0) / 1e3,
                s.get("workloads.generate.self", 0.0)),
            "sim.engine.run_s": per_round("sim.engine.run.self"),
            "sim.engine.cells": per_round("sim.engine.run.calls"),
            "sim.engine.cell_p50_s": (
                statistics.median(self.engine_durations)
                if self.engine_durations else 0.0),
            "sim.engine.krec_per_s": ratio(
                s.get("sim.engine.run.records", 0.0) / 1e3,
                s.get("sim.engine.run.self", 0.0)),
            "sim.engine.share": ratio(
                per_round("sim.engine.run.self"), round_s),
            "sim.sweep.precompute_s": per_round("sim.sweep.precompute.self"),
            "sim.session.hit_ratio": ratio(
                s.get("sim_hits", 0.0) + s.get("sim_store_hits", 0.0),
                s.get("sim_hits", 0.0) + s.get("sim_store_hits", 0.0)
                + s.get("sim.session.sim_misses", 0.0)),
            "sim.store.counters_s": (
                per_round("sim.store.counter.self")
                + per_round("sim.store.counters.self")),
            "sim.store.counters_ops": per_round("sim.store.counters.calls"),
            "sim.store.hit_ratio": ratio(
                s.get("store_hits", 0.0),
                s.get("store_hits", 0.0) + s.get("store_misses", 0.0)),
            "sim.store.share": ratio(store_self, round_s),
            "sim.runner.map_s": per_round("sim.runner.map.total"),
            "sim.runner.self_s": per_round("sim.runner.map.self"),
            "sim.runner.worker_cpu_s": per_round("worker_cpu"),
            "sim.runner.worker_util": ratio(
                per_round("worker_cpu"),
                workers * per_round("sim.runner.map.total"))
            if workers > 1 else 0.0,
            "sim.runner.share": ratio(
                per_round("sim.runner.map.self"), round_s),
            "sim.sampling.plan_s": per_round("sim.sampling.plan.self"),
            "sim.sampling.reuse_ratio": ratio(
                s.get("sim.sampling.reused_cells", 0.0),
                s.get("sim.sampling.sampled_cells", 0.0)),
            "analysis.stats.bootstrap_s": per_round(
                "analysis.stats.bootstrap.self"),
            "analysis.stats.strata": per_round(
                "analysis.stats.bootstrap.strata"),
            "experiments.driver_self_s": per_round("experiments.run.self"),
            "trace.covered_share": ratio(per_round("covered"), round_s),
        }
        for op in ("load_trace", "load_result", "save_trace", "save_result",
                   "estimate"):
            out[f"sim.store.{op}_s"] = per_round(f"sim.store.{op}.self")
            out[f"sim.store.{op}_ops"] = per_round(f"sim.store.{op}.calls")
        for name in LAYER_METRICS:
            if name in s and name not in out:
                out[name] = per_round(name)
        untraced = (statistics.median(untraced_round_s)
                    if untraced_round_s else 0.0)
        traced = (statistics.median(self.traced_round_s)
                  if self.traced_round_s else 0.0)
        out["trace.untraced_round_s"] = untraced
        out["trace.traced_round_s"] = traced
        out["trace.overhead_s"] = traced - untraced
        out["trace.overhead_ratio"] = ratio(traced - untraced, untraced)
        self.absent.update(name for name in LAYER_METRICS if name not in out)
        return {name: float(out.get(name, 0.0)) for name in LAYER_METRICS}
