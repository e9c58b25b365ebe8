"""Equivalence gate: the native engine vs. the scalar reference.

The native kernel engine (`repro.sim.native`) is the production engine;
the scalar `_RunState` is the executable specification.  These tests prove
the acceptance property: identical `SimResult` coverage and traffic
counts (and, stronger, bit-identical clocks and every other counter)
on suite workloads.
"""

import dataclasses

import pytest

from repro.sim.engine import Simulator
from repro.sim.runner import PrefetcherKind, make_factory, make_sim_config
from repro.workloads.suite import generate

#: Two suite workloads with very different structure: commercial
#: (pointer-chasing streams + hot sets) and scientific (sweeps).
WORKLOADS = ("web-apache", "sci-ocean")


def _run(trace, engine, kind):
    config = dataclasses.replace(make_sim_config("test"), engine=engine)
    return Simulator(config).run(trace, make_factory(kind), kind.value)


def _assert_identical(reference, candidate):
    assert dataclasses.astuple(candidate.coverage) == dataclasses.astuple(
        reference.coverage
    )
    assert candidate.traffic == reference.traffic
    assert candidate.useful_bytes == reference.useful_bytes
    assert candidate.metadata_bytes == reference.metadata_bytes
    assert candidate.l1_hits == reference.l1_hits
    assert candidate.victim_hits == reference.victim_hits
    assert candidate.l2_hits == reference.l2_hits
    assert candidate.measured_records == reference.measured_records
    # Bit-exact, not approximate: the kernel replicates the scalar
    # engine's float operation order (and is built without FP
    # contraction).
    assert candidate.elapsed_cycles == reference.elapsed_cycles
    assert candidate.mlp == reference.mlp
    assert candidate.dram_utilization == reference.dram_utilization


@pytest.fixture(scope="module")
def traces():
    return {
        name: generate(name, scale="test", cores=4, seed=7)
        for name in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "kind", [PrefetcherKind.BASELINE, PrefetcherKind.STMS]
)
def test_native_matches_scalar(traces, workload, kind):
    reference = _run(traces[workload], "scalar", kind)
    candidate = _run(traces[workload], "native", kind)
    _assert_identical(reference, candidate)


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "kind",
    [
        PrefetcherKind.IDEAL_TMS,
        PrefetcherKind.FIXED_DEPTH,
        PrefetcherKind.MARKOV,
    ],
)
def test_full_matrix(traces, workload, kind):
    reference = _run(traces[workload], "scalar", kind)
    candidate = _run(traces[workload], "native", kind)
    _assert_identical(reference, candidate)


def test_miss_log_identical(traces):
    config = dataclasses.replace(
        make_sim_config("test"), collect_miss_log=True
    )
    results = {}
    for engine in ("scalar", "native"):
        engine_config = dataclasses.replace(config, engine=engine)
        results[engine] = Simulator(engine_config).run(
            traces["web-apache"], None, "baseline"
        )
    assert results["native"].miss_log == results["scalar"].miss_log


def test_unknown_engine_rejected():
    from repro.sim.engine import resolve_engine

    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("warp-drive")


def test_cross_core_invalidation_stress():
    """Force inclusive L2 evictions to invalidate other cores' L1s.

    Four cores loop over per-core hot sets (long L1-hit runs) while
    also thrashing a shared region through a tiny L2, so evictions
    invalidate blocks other cores are about to hit on — exercising the
    kernel's inclusive-eviction path and its L1-copies bookkeeping.
    """
    import numpy as np

    from repro.memory.hierarchy import CmpConfig
    from repro.sim.engine import SimConfig
    from tests.conftest import make_trace

    rng = np.random.default_rng(42)
    per_core = []
    for core in range(4):
        hot = [1000 * (core + 1) + i for i in range(8)]
        shared = list(range(50, 120))
        seq: "list[int]" = []
        while len(seq) < 2500:
            seq.extend(hot * 3)
            seq.extend(
                int(b) for b in rng.choice(shared, size=6)
            )
            seq.append(int(rng.integers(5000, 9000)))
        per_core.append(seq[:2500])
    trace = make_trace(per_core, write=True, warmup_fraction=0.2)
    config = SimConfig(
        cmp=CmpConfig(
            cores=4,
            l1_size_bytes=1024,
            l1_ways=2,
            l1_victim_blocks=2,
            l2_size_bytes=4096,
            l2_ways=4,
            l2_banks=4,
            l2_mshrs=8,
        )
    )
    reference = Simulator(
        dataclasses.replace(config, engine="scalar")
    ).run(trace, None, "baseline")
    candidate = Simulator(
        dataclasses.replace(config, engine="native")
    ).run(trace, None, "baseline")
    _assert_identical(reference, candidate)
    # The scenario must actually produce L1 hits and invalidations,
    # otherwise it is not stressing the invalidation path.
    assert reference.l1_hits > 1000
