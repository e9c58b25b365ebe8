"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from
``src/``; every process this starts runs with the inherited ``REPRO_*``
variables removed, so the program's defaults are what gets measured.

Steps: compile the sources (the build), then run the measured process
with ``SETUP_PROBES`` processes that only set up around it, half before
and half after, so the set-up samples span the run.  ``setup_s`` is the
median set-up time over all of them and the measured process.  The
last line of standard output is the result object; the line before it
is host context (CPU steal, load, nproc, Python), printed and never
gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(HERE, "bench.py")
#: Scratch space for stores, inside the checkout (see .gitignore).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 10
#: Hard limit on any one child process.
CHILD_TIMEOUT_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _steal_ticks() -> "int | None":
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def _child_env(work: str) -> "dict[str, str]":
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = work
    return env


def _run_child(argv: "list[str]", env: "dict[str, str]") -> dict:
    """Run ``bench.py`` with ``argv``; its last stdout line is JSON."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, BENCH, *argv, "--t0", repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{argv[0]} timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run(args: argparse.Namespace, spec: dict) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail(f"no program sources under {SRC}")
    declared = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    work = os.path.join(
        WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    env = _child_env(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", work, "--size", args.size]
    steal_before = _steal_ticks()
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", SRC, HERE],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        )
        probe = ["probe", "--workload", args.workload, "--work", work]
        setups = [_run_child(probe, env)["setup_s"]
                  for _ in range(SETUP_PROBES // 2)]
        result = _run_child(
            ["measure", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)], env)
        setups += [_run_child(probe, env)["setup_s"]
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.SubprocessError, ValueError) as error:
        return _fail(str(error))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    steal_after = _steal_ticks()

    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        result["correct"] = False
        result["reasons"].append(f"metrics not produced: {missing}")
    context = {
        "steal_ticks": (
            steal_after - steal_before
            if steal_before is not None and steal_after is not None
            else None
        ),
        "loadavg": list(os.getloadavg()),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "round_s": result["round_s"],
        "setup_samples_s": setups,
        "absent": result["absent"],
        "reasons": result["reasons"],
    }
    print("# host: " + json.dumps(context))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items() if name in metrics
        },
    }))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="grid size; 'tiny' is for the benchmark's smoke tests")
    return run(parser.parse_args(argv), spec)


if __name__ == "__main__":
    sys.exit(main())
