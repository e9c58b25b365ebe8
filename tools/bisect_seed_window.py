"""Bisect a failing nightly differential window to the first bad seed.

The nightly workflow fuzzes a rotating 48-seed window
(``tests/sim/test_engine_differential.py -m slow``).  When the window
fails, this tool re-runs the same cases seed-by-seed *in process* —
each case is fully determined by its seed, so no pytest plumbing is
needed — stops at the **first bad seed** (for a monotone "prefix
contains a failure" predicate, the early-stopping scan is the optimal
bisection: it executes exactly ``first_bad - base + 1`` cases), then
**minimizes** the repro by re-running the failing seed with reduced
decoration / grid variants and reporting the smallest one that still
fails.  The report is written to ``--output`` and uploaded by the
workflow as the ``differential-failure-repro`` artifact.

Usage (what the nightly workflow runs on failure)::

    PYTHONPATH=src python tools/bisect_seed_window.py \
        --base "$DIFF_SEED_BASE" --count 48 --output bisect-report.txt

Replaying one seed locally::

    PYTHONPATH=src python tools/bisect_seed_window.py --replay 226032

Both the engine window and the sweep-shaped window (offset by 1e6, see
``SWEEP_SLOW_SEEDS``) are scanned.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TEST_PATH = os.path.join(
    ROOT, "tests", "sim", "test_engine_differential.py"
)

#: Offset of the sweep-shaped nightly window relative to the base (must
#: match ``SWEEP_SLOW_SEEDS`` in the differential suite).
SWEEP_OFFSET = 1_000_000
SWEEP_COUNT = 12


def _load_suite():
    """Import the differential test module by path (tests/ is not a
    package; the checks themselves live in plain module functions)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = importlib.util.spec_from_file_location(
        "test_engine_differential", TEST_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Minimization ladder for the engine window: nightly runs the fullest
#: variant; earlier entries are strictly smaller repros.  Listed from
#: smallest to fullest — the first failing entry is the minimal repro.
_ENGINE_VARIANTS = (
    ("no asymmetric decorations", {"allow_asymmetric": False}),
    ("full nightly case", {"allow_asymmetric": True}),
)


def _failure_of(check, *args, **kwargs) -> "str | None":
    try:
        check(*args, **kwargs)
    except Exception:
        return traceback.format_exc(limit=4)
    return None


def _scan(
    suite, base: int, count: int
) -> "tuple[str, int, str] | None":
    """First bad seed across both nightly windows, or None.

    Returns ``(window, seed, traceback)``.  The engine window is
    scanned first (it is the one most likely to break); seeds run in
    window order so the reported seed is the first bad one.
    """
    for window, start, n, check in (
        ("engine", base, count,
         lambda s: suite._check_seed(s, allow_asymmetric=True)),
        ("sweep", base + SWEEP_OFFSET, SWEEP_COUNT,
         lambda s: suite._check_sweep_seed(s, grid_size=4)),
    ):
        for seed in range(start, start + n):
            print(f"  probing {window} seed {seed} ...", flush=True)
            failure = _failure_of(check, seed)
            if failure is not None:
                return window, seed, failure
    return None


def _minimize(suite, window: str, seed: int) -> "tuple[str, str]":
    """Smallest still-failing variant of the bad seed's case.

    Returns ``(description, python_snippet)``.
    """
    if window == "sweep":
        for grid in (1, 2, 3, 4):
            if _failure_of(suite._check_sweep_seed, seed, grid) is not None:
                return (
                    f"sweep-shaped case, grid of {grid}",
                    f"_check_sweep_seed({seed}, grid_size={grid})",
                )
        return (
            "sweep-shaped case (full nightly variant)",
            f"_check_sweep_seed({seed}, grid_size=4)",
        )
    for description, kwargs in _ENGINE_VARIANTS:
        if _failure_of(suite._check_seed, seed, **kwargs) is not None:
            rendered = ", ".join(
                f"{key}={value}" for key, value in kwargs.items()
            )
            return description, f"_check_seed({seed}, {rendered})"
    # The failure needs the full variant (or is flaky); report it as-is.
    return (
        "full nightly case",
        f"_check_seed({seed}, allow_asymmetric=True)",
    )


def _report(
    base: int, window: str, seed: int, failure: str,
    description: str, snippet: str,
) -> str:
    test = (
        f"test_differential_nightly[{seed}]"
        if window == "engine"
        else f"test_differential_sweep_nightly[{seed}]"
    )
    return "\n".join([
        "# Nightly differential fuzz: bisected failure",
        f"# Window base: {base} ({window} window)",
        f"# First bad seed: {seed}",
        f"# Minimized variant: {description}",
        "#",
        "# Replay via pytest (exact nightly case):",
        f"PYTHONPATH=src DIFF_SEED_BASE={base} \\",
        f"  python -m pytest -q 'tests/sim/"
        f"test_engine_differential.py::{test}'",
        "#",
        "# Minimized in-process repro:",
        "PYTHONPATH=src python - <<'EOF'",
        "import importlib.util, sys",
        "spec = importlib.util.spec_from_file_location(",
        "    't', 'tests/sim/test_engine_differential.py')",
        "m = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(m)",
        f"m.{snippet}",
        "EOF",
        "#",
        "# Failure at the first bad seed:",
        *("# " + line for line in failure.rstrip().splitlines()),
        "",
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base", type=int,
        default=int(os.environ.get("DIFF_SEED_BASE", "8")),
        help="window base (default: DIFF_SEED_BASE or 8)",
    )
    parser.add_argument("--count", type=int, default=48)
    parser.add_argument(
        "--output", default=None,
        help="write the bisect report here (default: stdout only)",
    )
    parser.add_argument(
        "--replay", type=int, default=None,
        help="run exactly one seed (engine window variant) and exit",
    )
    args = parser.parse_args(argv)
    suite = _load_suite()

    if args.replay is not None:
        seed = args.replay
        check = (
            (lambda s: suite._check_sweep_seed(s, grid_size=4))
            if seed >= SWEEP_OFFSET
            else (lambda s: suite._check_seed(s, allow_asymmetric=True))
        )
        failure = _failure_of(check, seed)
        if failure is None:
            print(f"seed {seed}: PASS")
            return 0
        print(f"seed {seed}: FAIL\n{failure}")
        return 1

    print(
        f"bisecting windows [{args.base}, {args.base + args.count}) and "
        f"[{args.base + SWEEP_OFFSET}, "
        f"{args.base + SWEEP_OFFSET + SWEEP_COUNT}) ..."
    )
    found = _scan(suite, args.base, args.count)
    if found is None:
        print("no failing seed found (flaky run, or already fixed)")
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(
                    "# Bisect found no failing seed in the window "
                    f"(base {args.base}); the nightly failure did not "
                    "reproduce.\n"
                )
        return 0
    window, seed, failure = found
    print(f"first bad seed: {seed} ({window} window); minimizing ...")
    description, snippet = _minimize(suite, window, seed)
    report = _report(args.base, window, seed, failure, description, snippet)
    print(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
