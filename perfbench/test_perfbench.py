"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench -q

The smoke tests run every workload at the ``tiny`` size (about a
minute in all).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from spans import Span, Tracer, aggregate, self_times  # noqa: E402

WORKLOADS = ("cold-serial", "ladder-2w")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > mid [1, 7] > leaf [2, 5]; sibling [8, 9].
    tracer = Tracer(clock=FakeClock(0, 1, 2, 5, 7, 8, 9, 10))
    outer = tracer.begin("outer")
    mid = tracer.begin("mid")
    leaf = tracer.begin("leaf")
    tracer.end(leaf)
    tracer.end(mid)
    sibling = tracer.begin("leaf")
    tracer.end(sibling)
    tracer.end(outer)

    assert self_times(tracer.spans) == [10 - 6 - 1, 6 - 3, 3, 1]
    totals = aggregate(tracer.spans)
    assert totals["outer"].self_s == 3
    assert totals["mid"].total_s == 6 and totals["mid"].self_s == 3
    assert totals["leaf"].calls == 2 and totals["leaf"].self_s == 4
    # Self times partition the root span.
    assert sum(t.self_s for t in totals.values()) == outer.duration


def test_aggregate_sums_counts_and_keeps_durations():
    spans = [
        Span("run", 0.0, 2.0, counts={"records": 10}),
        Span("run", 2.0, 3.0, counts={"records": 5}),
    ]
    totals = aggregate(spans)["run"]
    assert totals.counts == {"records": 15}
    assert totals.durations == [2.0, 1.0] and totals.total_s == 3.0


def test_wrap_records_nested_spans_restores_and_reports_missing():
    module = types.ModuleType("fakepkg.mod")
    importer = types.ModuleType("fakepkg.user")

    def helper(n):
        return n * 2

    module.helper = importer.helper = helper  # "from mod import helper"

    class Engine:
        def run(self, n):
            return importer.helper(n) + 1

    sys.modules.update({"fakepkg.mod": module, "fakepkg.user": importer})
    try:
        tracer = Tracer()
        assert tracer.wrap_attr(Engine, "run", "engine.run")
        assert tracer.wrap_function("fakepkg.mod", "helper", "mod.helper",
                                    package="fakepkg") == 2
        assert not tracer.wrap_attr(Engine, "gone", "engine.gone")
        assert tracer.missing == ["Engine.gone"]

        assert Engine().run(3) == 7
        assert [(s.name, s.parent) for s in tracer.spans] == [
            ("engine.run", -1), ("mod.helper", 0)]
        tracer.restore()
        assert module.helper is helper and importer.helper is helper
        assert Engine.run.__name__ == "run"
        assert "__wrapped__" not in vars(Engine.run)
    finally:
        del sys.modules["fakepkg.mod"], sys.modules["fakepkg.user"]


def test_benchmark_json_names_counts_and_units():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    assert len(e2e) <= 16 and len(layer) <= 128
    names = [m["name"] for m in e2e + layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in e2e)} in e2e
    assert all(0 < m["bound"] <= 0.25 for m in e2e)


def _outcome(*checks):
    from workloads import RoundOutcome
    return RoundOutcome(checks=[("fig", claim, passed, "detail")
                                for claim, passed in checks])


def test_failing_shape_check_is_a_failed_op_unless_seed_fragile():
    from workloads import SEED_FRAGILE_CLAIMS, Verdict

    fragile = SEED_FRAGILE_CLAIMS[0] + " (paper: ~90%)"
    verdict = Verdict()
    verdict.judge(_outcome(("holds", True), (fragile, False)))
    assert (verdict.attempted, verdict.failed) == (2, 0)
    verdict.judge(_outcome(("holds", True), (fragile, False)))
    assert (verdict.attempted, verdict.failed) == (4, 0)

    verdict = Verdict()
    verdict.judge(_outcome(("broken", False), ("holds", True)))
    assert (verdict.attempted, verdict.failed) == (2, 1)
    # A later round whose verdict flips fails once, not twice.
    verdict.judge(_outcome(("broken", True), ("holds", False)))
    assert (verdict.attempted, verdict.failed) == (4, 3)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", "0",
                          "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_layers():
    result = _result(_run("--workload", "ladder-2w", "--seed", "3",
                          "--seconds", "1", "--trace", "1",
                          "--size", "tiny"))
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    assert metrics["sim.shm.attaches"] > 0
    assert metrics["sim.runner.worker_cpu_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cold-serial", "--seed", "1", "--seconds", "1",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
