"""The measured process of one benchmark run (started by ``run.py``).

    bench.py probe    --workload W --t0 T --work DIR
    bench.py measure  --workload W --seed N --seconds S --trace 0|1
                      --work DIR --t0 T [--size S]

``T`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start-up and imports.  Each
mode prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads as wl


def _setup(workers: int, t0: float) -> "tuple[wl.RecordingRunner, float]":
    """Everything before the first timed round; returns its duration."""
    runner = wl.RecordingRunner(max_workers=workers)
    return runner, time.monotonic() - t0


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Max RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


def probe(args: argparse.Namespace) -> dict:
    _, setup_s = _setup(wl.WORKLOADS[args.workload].workers, args.t0)
    return {"setup_s": setup_s}


def measure(args: argparse.Namespace) -> dict:
    workload = wl.WORKLOADS[args.workload]
    size = wl.SIZES[args.size]
    runner, setup_s = _setup(workload.workers, args.t0)

    verdict = wl.Verdict()
    probe_layers = None
    if args.trace:
        from layers import LayerProbe
        probe_layers = LayerProbe()

    rounds = wl.round_count(workload, args.seconds)
    round_s: "list[float]" = []
    untraced_s: "list[float]" = []
    simulated: "dict[str, float]" = {}
    for index in range(rounds):
        traced = probe_layers is not None and index % 2 == 1
        store_dir = os.path.join(args.work, f"round-{index}")
        # Each round starts from the same collected heap, outside the timer.
        gc.collect()
        if traced:
            probe_layers.install()
        cpu_before = _children_cpu_s()
        outcome = None
        start = time.perf_counter()
        try:
            outcome = workload.run_round(runner, args.seed, store_dir, size)
        except Exception as error:  # a failed round is a failed op
            runner.cells.clear()
            verdict.raised(error)
        elapsed = time.perf_counter() - start
        if traced:
            probe_layers.uninstall()
        round_s.append(elapsed)
        if outcome is not None:
            verdict.judge(outcome)
            if not simulated:
                simulated = wl.simulated_metrics(outcome.cells)
            if traced:
                probe_layers.record_round(
                    outcome, elapsed, _children_cpu_s() - cpu_before)
            elif probe_layers is not None:
                untraced_s.append(elapsed)
        shutil.rmtree(store_dir, ignore_errors=True)

    if probe_layers is not None:
        metrics = probe_layers.metrics(untraced_s, workload.workers)
        absent = sorted(probe_layers.absent)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(round_s),
            "round_p50_s": statistics.median(round_s),
            "peak_rss_mb": _peak_rss_mb(),
            "success_rate": (
                (verdict.attempted - verdict.failed) / verdict.attempted
                if verdict.attempted else 0.0
            ),
            **simulated,
        }
        absent = []
    return {
        "correct": verdict.failed == 0 and verdict.attempted > 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
        "round_s": round_s,
        "reasons": verdict.reasons,
        "absent": absent,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("probe", "measure"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.monotonic()
    result = {"probe": probe, "measure": measure}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
