"""Differential fuzzing: the native engine vs. the scalar reference.

The equivalence suite (`test_engine_equivalence.py`) checks suite
workloads at fixed configurations; this harness drives *randomized*
machine configurations x trace recipes through the scalar reference
engine and the native kernel engine, asserting **bit-identical** state
at both phase boundaries: per-core clocks and stats, every traffic
counter, cache and victim contents, DRAM/MSHR state, and the complete
STMS metadata state (index buckets, history buffers with un-spilled
pack segments, bucket-buffer residency, stream engines, sampler
counters) via :func:`repro.sim.metrics.snapshot_run_state`.

Each seed fully determines the case, so failures replay exactly:

    pytest "tests/sim/test_engine_differential.py::test_differential[17]"

A quarter of the cases draw *multiprogrammed mix* traces from the real
suite generators (heterogeneous per-core workloads, disjoint address
spaces, per-core warm-up) instead of the synthetic motif fuzzer, so the
mix subsystem is differentially fuzzed alongside it.  In the nightly
tier those mix draws are randomly decorated with asymmetric scheduling
(time slices, rate weights, low demand-priority cores); three pinned
fast seeds force asymmetric mixes so tier-1 covers those engine paths
too.  Snapshots include the per-core per-category traffic counters and
per-core demand priorities, compared deeply between engines.

The fast tier runs a small pinned seed set; the nightly-depth sweep
(``pytest -m slow``) runs a 48-seed window whose base rotates with the
calendar in CI: ``DIFF_SEED_BASE`` (default 8) positions the window, so
every night fuzzes fresh seeds while any failure stays replayable by
exporting the same base.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.core.config import StmsConfig
from repro.memory.address import BLOCK_BYTES
from repro.memory.hierarchy import CmpConfig
from repro.sim.engine import SimConfig, _RunState, run_state_class
from repro.sim.metrics import snapshot_run_state
from repro.sim.runner import PrefetcherKind, make_factory
from repro.sim.timing import TimingModel
from repro.workloads.trace import Trace

#: The engine under test: the native kernel engine, or the scalar
#: fallback when the kernel cannot be built here (CI runs the fast
#: seeds once that way on purpose).
CandidateState = run_state_class("native")

#: Fast-tier seeds: a fixed, replayable sample across the config space.
FAST_SEEDS = tuple(range(8))


def _slow_seed_base() -> int:
    """Base of the nightly 48-seed window (``DIFF_SEED_BASE``)."""
    try:
        return int(os.environ.get("DIFF_SEED_BASE", "8"))
    except ValueError:
        return 8


#: Nightly-depth seeds (behind the ``slow`` marker): a rotating window
#: positioned by ``DIFF_SEED_BASE`` so scheduled CI sweeps new seeds
#: every night.
SLOW_SEEDS = tuple(range(_slow_seed_base(), _slow_seed_base() + 48))


def _random_trace(rng: np.random.Generator, cores: int) -> Trace:
    """A randomized multi-motif trace: streams, hot sets, strides, noise.

    Streams are shared across cores so index lookups can locate another
    core's history (the cross-core STMS path); strides exercise the base
    prefetcher; noise and truncation exercise stream divergence.
    """
    records = int(rng.integers(400, 1400))
    span = int(rng.integers(300, 6000))
    streams = [
        rng.integers(0, span, size=int(rng.integers(4, 28)))
        for _ in range(int(rng.integers(2, 7)))
    ]
    hot = rng.integers(0, span, size=int(rng.integers(4, 20)))
    blocks_per_core = []
    for _ in range(cores):
        seq: "list[int]" = []
        while len(seq) < records:
            motif = rng.random()
            if motif < 0.35:
                stream = streams[int(rng.integers(0, len(streams)))]
                cut = int(rng.integers(1, len(stream) + 1))
                seq.extend(int(b) for b in stream[:cut])
            elif motif < 0.55:
                seq.extend(
                    int(hot[int(rng.integers(0, len(hot)))])
                    for _ in range(int(rng.integers(1, 6)))
                )
            elif motif < 0.75:
                base = int(rng.integers(0, span))
                stride = int(rng.integers(1, 5))
                seq.extend(
                    base + stride * k
                    for k in range(int(rng.integers(3, 12)))
                )
            else:
                seq.append(int(rng.integers(0, span)))
        blocks_per_core.append(np.asarray(seq[:records], dtype=np.int64))
    dep_p = float(rng.uniform(0.2, 0.95))
    write_p = float(rng.uniform(0.0, 0.4))
    return Trace(
        name=f"fuzz-{records}",
        blocks=blocks_per_core,
        work=[
            rng.uniform(5.0, 150.0, size=records).astype(np.float32)
            for _ in range(cores)
        ],
        dep=[rng.random(records) < dep_p for _ in range(cores)],
        write=[rng.random(records) < write_p for _ in range(cores)],
        working_set_blocks=span + 64,
        warmup_fraction=float(rng.choice([0.0, 0.2, 0.4])),
    )


def _mix_trace(
    rng: np.random.Generator, cores: int, allow_asymmetric: bool = False
) -> Trace:
    """A multiprogrammed mix trace drawn from the real suite generators.

    Exercises the paths the synthetic fuzz trace cannot: heterogeneous
    per-core workloads, per-core warm-up fractions, and disjoint
    per-core address spaces competing only through the shared levels.

    With ``allow_asymmetric`` (the nightly tier, and the pinned fast
    asymmetric cases), components are randomly decorated with time
    slices, rate weights, and demand-priority classes, so the rate-
    based scheduling and per-core DRAM arbitration paths are fuzzed
    differentially too.
    """
    from repro.workloads.mix import MixRecipe, generate_mix
    from repro.workloads.suite import FIGURE_ORDER

    names = list(FIGURE_ORDER)
    count = int(rng.integers(2, 4))
    components = []
    for _ in range(count):
        component = names[int(rng.integers(0, len(names)))]
        if allow_asymmetric:
            if rng.random() < 0.4:
                component += f"*{int(rng.integers(2, 4))}"
            if rng.random() < 0.4:
                component += f"@{float(rng.choice([0.25, 0.5, 2.0])):g}"
            if rng.random() < 0.4:
                component += "!low"
        components.append(component)
    return generate_mix(
        MixRecipe(tuple(components)),
        scale="test",
        cores=cores,
        seed=int(rng.integers(0, 2**31)),
        records_per_core=int(rng.integers(300, 900)),
    )


def _random_machine(rng: np.random.Generator, cores: int) -> SimConfig:
    l1_ways = int(rng.choice([1, 2]))
    l1_sets = int(rng.choice([2, 4, 8]))
    l2_ways = int(rng.choice([2, 4]))
    l2_sets = int(rng.choice([8, 16, 32]))
    return SimConfig(
        cmp=CmpConfig(
            cores=cores,
            l1_size_bytes=l1_sets * l1_ways * BLOCK_BYTES,
            l1_ways=l1_ways,
            l1_victim_blocks=int(rng.choice([0, 2, 4])),
            l2_size_bytes=l2_sets * l2_ways * BLOCK_BYTES,
            l2_ways=l2_ways,
            l2_banks=4,
            l2_mshrs=int(rng.choice([2, 4, 16])),
        ),
        timing=TimingModel(
            core_miss_window=int(rng.choice([1, 2, 8])),
        ),
        use_stride=bool(rng.random() < 0.8),
        track_mlp=True,
        collect_miss_log=bool(rng.random() < 0.3),
    )


def _random_prefetcher(rng: np.random.Generator, cores: int):
    """Mostly STMS (the metadata path under test), sometimes others."""
    roll = rng.random()
    if roll < 0.70:
        queue = int(rng.choice([4, 8, 24]))
        config = StmsConfig(
            cores=cores,
            history_entries=int(rng.choice([24, 48, 192])),
            index_buckets=int(rng.choice([16, 64, 256])),
            bucket_entries=int(rng.choice([2, 4, 12])),
            sampling_probability=float(
                rng.choice([0.0, 0.125, 0.5, 1.0])
            ),
            bucket_buffer_entries=int(rng.choice([2, 8, 32])),
            prefetch_buffer_blocks=int(rng.choice([4, 8, 32])),
            lookahead=int(rng.choice([2, 6, 12])),
            address_queue_entries=queue,
            queue_refill_threshold=int(rng.integers(0, queue + 1)),
            tag_bits=[None, 8, 12, 16][int(rng.integers(0, 4))],
            annotate_stream_ends=bool(rng.random() < 0.8),
            seed=int(rng.integers(0, 2**31)),
        )
        return PrefetcherKind.STMS, make_factory(
            PrefetcherKind.STMS, config
        )
    if roll < 0.80:
        return PrefetcherKind.BASELINE, None
    kind = [
        PrefetcherKind.IDEAL_TMS,
        PrefetcherKind.FIXED_DEPTH,
        PrefetcherKind.MARKOV,
    ][int(rng.integers(0, 3))]
    return kind, make_factory(kind)


def _run_and_snapshot(state_class, config, trace, factory, shared=None):
    """Drive one engine through both phases; snapshot before result()."""
    if shared is None:
        state = state_class(config, trace, factory)
    else:
        state = state_class(config, trace, factory, shared=shared)
    state.run_warmup()
    warm = snapshot_run_state(state)
    state.reset_accounting()
    state.run_measured()
    final = snapshot_run_state(state)
    result = state.result("fuzz")
    return warm, final, result


def _check_seed(
    seed: int,
    allow_asymmetric: bool = False,
    force_mix: bool = False,
) -> None:
    rng = np.random.default_rng(seed)
    cores = int(rng.integers(1, 5))
    if force_mix or rng.random() < 0.25:
        trace = _mix_trace(rng, cores, allow_asymmetric=allow_asymmetric)
    else:
        trace = _random_trace(rng, cores)
    config = _random_machine(rng, cores)

    # Each engine builds its own prefetcher from an identically seeded
    # draw (factories capture config; the sampler is seeded), so the
    # reported ``kind`` is the one actually simulated.
    kind, reference_factory = _random_prefetcher(
        np.random.default_rng(seed + 1), cores
    )
    reference = _run_and_snapshot(
        _RunState, config, trace, reference_factory
    )
    _, factory = _random_prefetcher(np.random.default_rng(seed + 1), cores)
    candidate = _run_and_snapshot(CandidateState, config, trace, factory)
    for phase, got, want in (
        ("warmup", candidate[0], reference[0]),
        ("final", candidate[1], reference[1]),
    ):
        assert got == want, (
            f"seed {seed} ({kind.value}): native engine diverged from "
            f"scalar reference at {phase} snapshot"
        )
    assert dataclasses.astuple(candidate[2].coverage) == (
        dataclasses.astuple(reference[2].coverage)
    )
    assert candidate[2].traffic == reference[2].traffic
    assert candidate[2].elapsed_cycles == reference[2].elapsed_cycles
    assert candidate[2].mlp == reference[2].mlp
    assert candidate[2].miss_log == reference[2].miss_log
    assert (
        candidate[2].core_traffic_bytes
        == reference[2].core_traffic_bytes
    )


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_differential(seed):
    _check_seed(seed)


#: Pinned fast seeds that force asymmetric mix traces, so the rate /
#: priority / attribution paths are differentially covered in tier-1
#: (the nightly tier additionally decorates its random mix draws).
ASYMMETRIC_SEEDS = (101, 102, 103)


@pytest.mark.parametrize("seed", ASYMMETRIC_SEEDS)
def test_differential_asymmetric(seed):
    _check_seed(seed, allow_asymmetric=True, force_mix=True)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_differential_nightly(seed):
    _check_seed(seed, allow_asymmetric=True)


# ----------------------------------------------------------------------
# Sweep-shaped cases: one trace x a small random config grid through the
# config-parallel path (sim/sweep.py shares the metadata classification
# across the grid), asserting every cell stays deep-state-identical to
# both the scalar reference and the native engine without the sharing.
# ----------------------------------------------------------------------


def _random_grid_stms(rng: np.random.Generator, cores: int) -> StmsConfig:
    """One grid cell's STMS config (geometries deliberately collide
    across cells sometimes, so the shared stacked pass serves both the
    same-geometry and new-geometry lookups)."""
    queue = int(rng.choice([4, 8, 24]))
    return StmsConfig(
        cores=cores,
        history_entries=int(rng.choice([24, 48, 192])),
        index_buckets=int(rng.choice([16, 64])),
        bucket_entries=int(rng.choice([2, 4, 12])),
        sampling_probability=float(rng.choice([0.0, 0.125, 0.5, 1.0])),
        bucket_buffer_entries=int(rng.choice([2, 8, 32])),
        prefetch_buffer_blocks=int(rng.choice([4, 8, 32])),
        lookahead=int(rng.choice([2, 6, 12])),
        address_queue_entries=queue,
        queue_refill_threshold=int(rng.integers(0, queue + 1)),
        tag_bits=[None, 8, 12][int(rng.integers(0, 3))],
        annotate_stream_ends=bool(rng.random() < 0.8),
        seed=int(rng.integers(0, 2**31)),
    )


def _check_sweep_seed(seed: int, grid_size: int = 3) -> None:
    from repro.sim.sweep import SweepShared

    rng = np.random.default_rng(seed)
    cores = int(rng.integers(1, 5))
    if rng.random() < 0.25:
        trace = _mix_trace(rng, cores)
    else:
        trace = _random_trace(rng, cores)
    config = _random_machine(rng, cores)
    cells = [_random_grid_stms(rng, cores) for _ in range(grid_size)]

    # One shared precomputation for the whole grid, exactly as
    # run_sweep builds it.
    shared = SweepShared(trace)
    shared.precompute(
        [(cell.index_buckets, cell.tag_bits) for cell in cells]
    )

    for position, cell in enumerate(cells):
        factory = make_factory(PrefetcherKind.STMS, cell)
        reference = _run_and_snapshot(_RunState, config, trace, factory)
        unshared = _run_and_snapshot(CandidateState, config, trace, factory)
        swept = _run_and_snapshot(
            CandidateState, config, trace, factory, shared=shared
        )
        for phase, index in (("warmup", 0), ("final", 1)):
            assert swept[index] == reference[index], (
                f"seed {seed} cell {position}: config-parallel path "
                f"diverged from scalar reference at {phase} snapshot"
            )
            assert swept[index] == unshared[index], (
                f"seed {seed} cell {position}: config-parallel path "
                f"diverged from the unshared native engine at {phase} "
                f"snapshot"
            )
        assert swept[2].traffic == reference[2].traffic
        assert swept[2].elapsed_cycles == reference[2].elapsed_cycles
        assert dataclasses.astuple(swept[2].coverage) == (
            dataclasses.astuple(reference[2].coverage)
        )
        assert swept[2].core_traffic_bytes == (
            reference[2].core_traffic_bytes
        )


#: Pinned fast sweep-shaped seeds (tier-1).
SWEEP_FAST_SEEDS = (211, 212, 213)


@pytest.mark.parametrize("seed", SWEEP_FAST_SEEDS)
def test_differential_sweep(seed):
    _check_sweep_seed(seed)


#: Nightly sweep-shaped window: rides the same rotating base as the
#: engine window, offset so the two never overlap.
SWEEP_SLOW_SEEDS = tuple(
    range(_slow_seed_base() + 1_000_000, _slow_seed_base() + 1_000_012)
)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SWEEP_SLOW_SEEDS)
def test_differential_sweep_nightly(seed):
    _check_sweep_seed(seed, grid_size=4)


# ----------------------------------------------------------------------
# Parallel-plane cases: the two-level scheduler and the zero-copy
# shared-memory trace plane are pure transports — a shm-attached trace
# must drive the engine to bit-identical deep state, and a cell-parallel
# runner fan-out (with and without the plane) must land exactly the
# serial path's results.
# ----------------------------------------------------------------------


def _check_parallel_plane_seed(seed: int, grid_size: int = 4) -> None:
    from unittest import mock

    from repro.core.index_table import stacked_metadata_arrays
    from repro.sim.runner import (
        ExperimentRunner,
        SimJob,
        job_options,
    )
    from repro.sim.session import SimSession, set_session
    from repro.sim.shm import TracePlane
    from repro.sim.shm import attach as shm_attach
    from repro.sim.store import encode_result
    from repro.sim.sweep import SweepShared
    from repro.workloads.suite import FIGURE_ORDER

    rng = np.random.default_rng(seed)
    cores = int(rng.integers(1, 5))
    if rng.random() < 0.25:
        trace = _mix_trace(rng, cores)
    else:
        trace = _random_trace(rng, cores)
    config = _random_machine(rng, cores)
    cell = _random_grid_stms(rng, cores)
    factory = make_factory(PrefetcherKind.STMS, cell)

    # (a) Deep-state bit-identity of the plane itself: the native
    # engine driven from a shm-attached trace (with parent-classified
    # metadata columns adopted) must snapshot identically to the scalar
    # reference on the original trace.
    reference = _run_and_snapshot(_RunState, config, trace, factory)
    geometry = (cell.index_buckets, cell.tag_bits)
    arrays = stacked_metadata_arrays(
        [np.asarray(b) for b in trace.blocks], [geometry]
    )
    with TracePlane() as plane:
        payload = plane.export(trace, arrays)
        assert payload is not None
        attached_trace, metadata = shm_attach(payload)
        shared = SweepShared(attached_trace)
        shared.adopt_arrays(metadata)
        attached = _run_and_snapshot(
            CandidateState, config, attached_trace, factory, shared=shared
        )
        for phase, index in (("warmup", 0), ("final", 1)):
            assert attached[index] == reference[index], (
                f"seed {seed}: native engine on the shm-attached trace "
                f"diverged from the scalar reference at {phase} snapshot"
            )
        assert (
            encode_result(attached[2]) == encode_result(reference[2])
        )

    # (b) Scheduler-level identity: serial vs cell-parallel (shm plane)
    # vs cell-parallel with the plane disabled, over a real suite
    # recipe the runner can ship (seed-derived single-trace grid).
    names = list(FIGURE_ORDER)
    workload = names[int(rng.integers(0, len(names)))]
    job_seed = int(rng.integers(0, 2**31))
    jobs = [
        SimJob(
            workload,
            PrefetcherKind.STMS,
            scale="test",
            cores=2,
            seed=job_seed,
            stms_overrides=job_options(
                sampling_probability=float(
                    rng.choice([0.0, 0.125, 0.5, 1.0])
                ),
                index_buckets=int(rng.choice([16, 64])),
                lookahead=int(rng.choice([2, 6])),
            ),
        )
        for _ in range(grid_size)
    ]

    def _leg(parallel: bool, environment: "dict[str, str]"):
        legs_session = SimSession(enabled=True, store=None)
        previous = set_session(legs_session)
        try:
            with mock.patch.dict(os.environ, environment):
                runner = ExperimentRunner(
                    max_workers=2 if parallel else 1, parallel=parallel
                )
                return runner.map(jobs, session=legs_session)
        finally:
            set_session(previous)

    serial = _leg(False, {})
    shm_leg = _leg(True, {})
    pickled_leg = _leg(True, {"REPRO_SHM": "off"})
    serial_encoded = [encode_result(r) for r in serial]
    assert [encode_result(r) for r in shm_leg] == serial_encoded, (
        f"seed {seed}: cell-parallel shm-plane leg diverged from serial"
    )
    assert [encode_result(r) for r in pickled_leg] == serial_encoded, (
        f"seed {seed}: cell-parallel pickled leg diverged from serial"
    )


#: Pinned fast parallel-plane seeds (tier-1).
PARALLEL_PLANE_FAST_SEEDS = (301, 302, 303)


@pytest.mark.parametrize("seed", PARALLEL_PLANE_FAST_SEEDS)
def test_differential_parallel_plane(seed):
    _check_parallel_plane_seed(seed)


#: Nightly parallel-plane window: same rotating base, a fresh offset so
#: none of the three windows overlap.
PARALLEL_PLANE_SLOW_SEEDS = tuple(
    range(_slow_seed_base() + 2_000_000, _slow_seed_base() + 2_000_012)
)


@pytest.mark.slow
@pytest.mark.parametrize("seed", PARALLEL_PLANE_SLOW_SEEDS)
def test_differential_parallel_plane_nightly(seed):
    _check_parallel_plane_seed(seed, grid_size=5)


def test_snapshot_captures_stms_metadata():
    """The snapshot must actually contain the metadata the suite claims
    to compare — guard against silent shrinkage of the contract."""
    rng = np.random.default_rng(0)
    trace = _random_trace(rng, 2)
    config = _random_machine(rng, 2)
    factory = make_factory(
        PrefetcherKind.STMS, StmsConfig(cores=2, history_entries=24)
    )
    state = CandidateState(config, trace, factory)
    state.run_warmup()
    snap = snapshot_run_state(state)
    assert {"counters", "sampler", "index", "histories",
            "bucket_buffer", "engines"} <= set(snap["stms"])
    assert len(snap["stms"]["histories"]) == 2
    assert snap["traffic"]  # per-category byte counters present
    # Per-core traffic attribution must be part of the compared state:
    # one per-category dict per core, summing to the global counters.
    assert len(snap["core_traffic"]) == 2
    assert len(snap["demand_priority"]) == 2
    for category, total in snap["traffic"].items():
        assert sum(
            per_core[category] for per_core in snap["core_traffic"]
        ) == total
