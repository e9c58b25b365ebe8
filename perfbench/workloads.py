"""The benchmark's workloads, one round of each, and the correctness verdict.

Every round goes through the program's public surface only:
``repro.experiments.run_experiment``, ``SimSession(store=ArtifactStore(dir))``
and ``ExperimentRunner(max_workers=n)``.  No ``REPRO_*`` knob is set.

A round is one full pass of a workload's grid.  Every round starts
from a fresh session over an empty store directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Callable

import repro.experiments as experiments
from repro.sim import ArtifactStore, ExperimentRunner, SimSession
from repro.sim.runner import PrefetcherKind
from repro.sim.store import encode_result

#: Scale preset of every workload.  ``bench`` (the figure suite's
#: preset) runs ~2 s per cell and does not fit a run; ``test`` does.
SCALE = "test"


@dataclass(frozen=True)
class Size:
    """Grid sizes; ``tiny`` exists for the benchmark's smoke tests."""

    #: cold-serial: fig9 + fig7 over these workloads.
    grid: "tuple[str, ...]"
    #: ladder-2w: the one trace fig8's sampling ladder runs on, and its
    #: points (None: fig8's 7 default points).
    ladder_trace: str
    ladder_points: "tuple[float, ...] | None"
    #: cold-serial: mix-contention mixes (None: mix-contention's defaults).
    mixes: "tuple[str, ...] | None"
    #: cold-serial: budget B of the first sweep; the refinement asks 2B.
    budget: int


SIZES = {
    # Workloads whose simulated metrics move little from seed to seed
    # at this scale (see README.md), so their spread stays in bounds.
    "full": Size(
        grid=("oltp-db2", "sci-ocean", "sci-moldyn"),
        ladder_trace="sci-moldyn",
        ladder_points=None,
        mixes=("mix:sci-moldyn*2+oltp-db2@0.5!low",),
        budget=4,
    ),
    "tiny": Size(
        grid=("dss-db2",),
        ladder_trace="dss-db2",
        ladder_points=(0.125, 1.0),
        mixes=("mix:oltp-db2+dss-db2",),
        budget=4,
    ),
}


class RecordingRunner(ExperimentRunner):
    """An ``ExperimentRunner`` that keeps every (job, result) it returns.

    The experiment drivers fan all their cells out through ``map``
    (``run_grid`` and ``simulate_jobs`` both call it), so the recorded
    pairs are exactly the cells a round computed or served.
    """

    def __init__(self, max_workers: int) -> None:
        super().__init__(max_workers=max_workers)
        self.cells: "list[tuple[object, object]]" = []

    def map(self, jobs, session=None):
        jobs = list(jobs)
        results = super().map(jobs, session=session)
        self.cells.extend(zip(jobs, results))
        return results


@dataclass
class RoundOutcome:
    """What one round produced, for the verdict and the metrics."""

    cells: "list[tuple[object, object]]" = field(default_factory=list)
    #: (experiment, claim, passed, detail) of every shape check.
    checks: "list[tuple[str, str, bool, str]]" = field(default_factory=list)
    sessions: "list[SimSession]" = field(default_factory=list)
    stores: "list[ArtifactStore]" = field(default_factory=list)
    #: Ops the round itself judged failed, with the reason.
    failures: "list[str]" = field(default_factory=list)


def _experiment(
    outcome: RoundOutcome, runner: RecordingRunner, name: str,
    session: SimSession, seed: int, **options: object,
) -> None:
    # Looked up on the module at call time, so a traced run's wrapper
    # around run_experiment sees the call.
    result = experiments.run_experiment(
        name, scale=SCALE, seed=seed, runner=runner, session=session,
        **options,
    )
    outcome.checks.extend(
        (name, check.claim, bool(check.passed), check.detail)
        for check in result.checks
    )


def _fresh_session(store_dir: str, outcome: RoundOutcome) -> SimSession:
    store = ArtifactStore(store_dir)
    session = SimSession(store=store)
    outcome.sessions.append(session)
    outcome.stores.append(store)
    return session


def _take_cells(runner: RecordingRunner, outcome: RoundOutcome) -> None:
    outcome.cells.extend(runner.cells)
    runner.cells.clear()


def grid_round(
    runner: RecordingRunner, seed: int, store_dir: str, size: Size
) -> RoundOutcome:
    """fig9 (baseline, ideal TMS, STMS) then fig7 (STMS at 100% and
    12.5% sampling) over ``size.grid``, in one session."""
    outcome = RoundOutcome()
    session = _fresh_session(store_dir, outcome)
    for name in ("fig9", "fig7"):
        _experiment(outcome, runner, name, session, seed,
                    workloads=size.grid)
    _take_cells(runner, outcome)
    return outcome


def ladder_round(
    runner: RecordingRunner, seed: int, store_dir: str, size: Size
) -> RoundOutcome:
    """fig8's sampling ladder on one trace, then fig9 on the same trace
    (its baseline gives the ladder's STMS point a speed-up)."""
    outcome = RoundOutcome()
    session = _fresh_session(store_dir, outcome)
    options: "dict[str, object]" = {"workloads": (size.ladder_trace,)}
    if size.ladder_points is not None:
        options["probabilities"] = size.ladder_points
    _experiment(outcome, runner, "fig8", session, seed, **options)
    _experiment(outcome, runner, "fig9", session, seed,
                workloads=(size.ladder_trace,))
    _take_cells(runner, outcome)
    return outcome


def sampled_round(
    runner: RecordingRunner, seed: int, store_dir: str, size: Size
) -> RoundOutcome:
    """A budget-B mix-contention sweep, then a 2B refinement from a
    fresh session over the same store: the refinement must simulate
    exactly the cells the first sweep did not cover."""
    outcome = RoundOutcome()
    options: "dict[str, object]" = {}
    if size.mixes is not None:
        options["workloads"] = size.mixes
    first = _fresh_session(store_dir, outcome)
    _experiment(outcome, runner, "mix-contention", first, seed,
                budget=size.budget, **options)
    first_jobs = len(runner.cells)
    _take_cells(runner, outcome)
    second = _fresh_session(store_dir, outcome)
    _experiment(outcome, runner, "mix-contention", second, seed,
                budget=2 * size.budget, **options)
    expected = len(runner.cells) - first_jobs
    _take_cells(runner, outcome)
    simulated = second.stats.sim_misses
    if simulated != expected:
        outcome.failures.extend(
            [f"refinement simulated {simulated} jobs, expected {expected}"]
            * max(1, abs(simulated - expected))
        )
    return outcome


def serial_round(
    runner: RecordingRunner, seed: int, store_dir: str, size: Size
) -> RoundOutcome:
    """``grid_round`` then ``sampled_round``, serially, over one store.

    One workload rather than two, so that each run measures the serial
    layers for its whole length (see README.md)."""
    outcome = grid_round(runner, seed, store_dir, size)
    mix = sampled_round(runner, seed, store_dir, size)
    for name in ("cells", "checks", "sessions", "stores", "failures"):
        getattr(outcome, name).extend(getattr(mix, name))
    return outcome


@dataclass(frozen=True)
class Workload:
    name: str
    #: Worker processes of the runner.
    workers: int
    #: Host seconds of one round on the reference machine; the round
    #: count of a run is ``ceil(seconds / nominal_round_s)`` (at least
    #: ``MIN_ROUNDS``), so both sides of a comparison do equal work.
    nominal_round_s: float
    run_round: "Callable[[RecordingRunner, int, str, Size], RoundOutcome]"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold-serial",
            workers=1, nominal_round_s=12.5, run_round=serial_round,
        ),
        Workload(
            "ladder-2w",
            workers=2, nominal_round_s=3.0, run_round=ladder_round,
        ),
    )
}

MIN_ROUNDS = 2


def round_count(workload: Workload, seconds: float) -> int:
    return max(MIN_ROUNDS, math.ceil(seconds / workload.nominal_round_s))


# ----------------------------------------------------------------------
# Correctness verdict.
# ----------------------------------------------------------------------


def _payload(result) -> str:
    return json.dumps(encode_result(result), sort_keys=True)


def cell_digest(job, result) -> str:
    """Digest of a cell's identity and its ``encode_result`` payload."""
    identity = (
        job.trace_key(), job.kind.value, job.stms_overrides,
        job.factory_options, job.cmp_overrides, job.dram_overrides,
    )
    return hashlib.blake2b(
        (repr(identity) + _payload(result)).encode(), digest_size=16
    ).hexdigest()


#: Shape checks whose verdict depends on the seed at the ``test`` scale
#: (see README.md), matched by the start of their claim.  A failure of
#: one is counted in ``experiments.checks_failed``, not as a failed op.
SEED_FRAGILE_CLAIMS = ("STMS retains most of the idealized coverage",)


def seed_fragile(claim: str) -> bool:
    return claim.startswith(SEED_FRAGILE_CLAIMS)


def reference_of(outcome: RoundOutcome) -> dict:
    """What later rounds must reproduce: every cell byte for byte and
    every shape check's verdict.  Computed at run time, never pinned."""
    return {
        "cells": [cell_digest(job, result) for job, result in outcome.cells],
        "checks": [list(check) for check in outcome.checks],
    }


@dataclass
class Verdict:
    """Attempted and failed ops over a run.

    An op is one grid-cell result or one shape check.  A cell fails
    when its payload differs from the reference's, a check when its
    verdict or detail differs or when it fails (bar the seed-fragile
    ones), and a round that raises fails every op the reference holds.
    Ops a round judged failed itself (a refinement that simulated the
    wrong cells) are added on top.
    """

    reference: "dict | None" = None
    attempted: int = 0
    failed: int = 0
    reasons: "list[str]" = field(default_factory=list)

    def judge(self, outcome: RoundOutcome) -> None:
        current = reference_of(outcome)
        if self.reference is None:
            self.reference = current
        ref = self.reference
        for kind in ("cells", "checks"):
            want, got = ref[kind], current[kind]
            ops = max(len(want), len(got))
            bad = ops - sum(1 for a, b in zip(want, got) if a == b)
            self.attempted += ops
            self._fail(bad, f"{kind} differ from the reference")
        # A check that differs from the reference has failed already.
        failing = [
            f"{name}: {claim}"
            for want, (name, claim, passed, detail) in zip(
                ref["checks"], current["checks"])
            if want == [name, claim, passed, detail]
            and not passed and not seed_fragile(claim)
        ]
        self._fail(len(failing),
                   "shape checks failed: " + "; ".join(sorted(set(failing))))
        self._fail(len(outcome.failures),
                   "; ".join(sorted(set(outcome.failures))))
        self.attempted += len(outcome.failures)

    def raised(self, error: BaseException) -> None:
        ops = 1
        if self.reference is not None:
            ops = max(1, len(self.reference["cells"])
                      + len(self.reference["checks"]))
        self.attempted += ops
        self._fail(ops, f"round raised {type(error).__name__}: {error}")

    def _fail(self, count: int, reason: str) -> None:
        if count > 0:
            self.failed += count
            self.reasons.append(f"{count} op(s): {reason}")


# ----------------------------------------------------------------------
# Simulated (model) metrics: deterministic outputs of the simulator.
# ----------------------------------------------------------------------


def _distinct(cells) -> "list[tuple[object, object]]":
    """Cells with duplicates (one simulation reached twice) removed."""
    seen: "dict[tuple, tuple]" = {}
    for job, result in cells:
        seen.setdefault((_pair_key(job), _payload(result)), (job, result))
    return list(seen.values())


def _pair_key(job) -> tuple:
    """Cells sharing this key ran one trace on one machine."""
    return (job.trace_key(), job.use_stride, job.cmp_overrides,
            job.dram_overrides)


def simulated_metrics(cells) -> "dict[str, float]":
    """stms_coverage, stms_speedup and overhead_per_useful_byte."""
    cells = _distinct(cells)
    stms = [(j, r) for j, r in cells if j.kind is PrefetcherKind.STMS]
    baselines = {
        _pair_key(j): r for j, r in cells
        if j.kind is PrefetcherKind.BASELINE
    }
    speedups = [
        r.speedup_over(baselines[_pair_key(j)])
        for j, r in stms if _pair_key(j) in baselines
    ]
    out = {}
    if stms:
        out["stms_coverage"] = statistics.fmean(
            r.coverage.coverage for _, r in stms)
        out["overhead_per_useful_byte"] = statistics.fmean(
            r.overhead_per_useful_byte for _, r in stms)
    if speedups:
        out["stms_speedup"] = statistics.geometric_mean(speedups)
    return out


def model_counts(cells) -> "dict[str, float]":
    """Exact per-round counts of the modelled core/memory/prefetchers."""
    cells = _distinct(cells)
    stms_stats = [
        r.prefetcher_stats for j, r in cells
        if j.kind is PrefetcherKind.STMS and r.prefetcher_stats is not None
    ]
    issued = sum(s.issued for s in stms_stats)
    useful = sum(s.useful for s in stms_stats)
    resolved = useful + sum(s.erroneous for s in stms_stats)
    lookups = sum(s.lookups for s in stms_stats)
    results = [r for _, r in cells]
    return {
        "core.stms.issued": issued,
        "core.stms.useful": useful,
        "core.stms.accuracy": useful / resolved if resolved else 0.0,
        "core.stms.lookup_hit_ratio": (
            sum(s.lookup_hits for s in stms_stats) / lookups
            if lookups else 0.0
        ),
        "core.stms.metadata_bytes": sum(
            r.metadata_bytes for j, r in cells
            if j.kind is PrefetcherKind.STMS
        ),
        "memory.l2_hits": sum(r.l2_hits for r in results),
        "memory.offchip_reads": sum(
            r.coverage.temporal_eligible + r.coverage.stride_covered
            for r in results
        ),
        "memory.dram_utilization": (
            statistics.fmean(r.dram_utilization for r in results)
            if results else 0.0
        ),
        "prefetchers.stride_covered": sum(
            r.coverage.stride_covered for r in results
        ),
    }


def store_bytes(outcome: RoundOutcome) -> int:
    """Bytes on disk in the round's store directories."""
    roots = {store.root for store in outcome.stores}
    total = 0
    for root in roots:
        for dirpath, _, files in os.walk(root):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
    return total
