"""BENCH regression gate: compare the latest BENCH jsons to the baseline.

The speedup harness writes a machine-readable ``BENCH_<stamp>.json``
per invocation; CI runs it (``--store`` mode and ``--fig7-sweep`` mode)
and then calls this comparator, which fails the job when any gated
number regressed more than the tolerance against the committed
``benchmarks/BASELINE.json``.

The baseline holds a list of entries under ``"baselines"`` (a bare
single entry, the pre-multi format, is still accepted).  For each
entry the newest BENCH record with the same mode/experiment/scale is
located and two checks run:

* ``cold_s`` must stay within ``(1 + tolerance)`` of the baseline's —
  the absolute wall-time gate.  Warm time is reported but not gated
  (dominated by process startup and disk cache noise at CI scale).
* if the entry carries ``min_events_per_s``, the record's simulated
  events per second (``events_per_s``: trace records the engine ran,
  per second inside the simulator) must stay above
  ``(1 - tolerance)`` of it — the engine-throughput floor, which a
  regression in the event path trips even when fixed overheads hide
  it in the wall time.
* if the entry carries ``max_ratio``, the record's own
  ``cold_s / per_cell_s`` (fig7-sweep) or ``cold_s / serial_s``
  (fig7-par) must not exceed it — the win is enforced relative to the
  *same run's* baseline leg, immune to runner speed.  A fig7-par
  record stamped with ``cpus`` < 2 reports the ratio but skips the
  gate: a parallel-vs-serial bound cannot hold without concurrency.

Refreshing the baseline after an intentional performance change::

    python benchmarks/speedup_harness.py --store --experiment fig4 \
        --scale test
    python benchmarks/speedup_harness.py --fig7-sweep --scale test
    python benchmarks/check_bench.py --update

Environment: ``REPRO_BENCH_TOLERANCE`` overrides ``--tolerance``
(fraction, e.g. ``0.25``) — useful for noisy shared runners.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "BASELINE.json")
OUTPUT_DIR = os.path.join(HERE, "output")


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _entries(baseline: dict) -> "list[dict]":
    """Baseline entries; a bare single-entry file is the legacy format."""
    if "baselines" in baseline:
        return list(baseline["baselines"])
    return [baseline]


def latest_bench(
    mode: str, experiment: str, scale: str
) -> "tuple[str, dict] | None":
    """The newest BENCH record matching one baseline entry's identity."""
    candidates = sorted(glob.glob(os.path.join(OUTPUT_DIR, "BENCH_*.json")))
    for path in reversed(candidates):
        try:
            record = _load(path)
        except (OSError, ValueError):
            continue
        if (
            record.get("mode") == mode
            and record.get("experiment") == experiment
            and record.get("scale") == scale
        ):
            return path, record
    return None


def _check_entry(entry: dict, tolerance: float) -> int:
    """Gate one baseline entry; 0 OK, 1 regression, 2 no record."""
    identity = f"{entry['mode']}/{entry['experiment']}@{entry['scale']}"
    found = latest_bench(entry["mode"], entry["experiment"], entry["scale"])
    if found is None:
        print(
            f"no BENCH_*.json in {OUTPUT_DIR} matching {identity}; "
            "run the speedup harness first"
        )
        return 2
    path, record = found

    cold = float(record["cold_s"])
    budget = float(entry["cold_s"]) * (1.0 + tolerance)
    verdict = "OK" if cold <= budget else "REGRESSION"
    print(
        f"{identity} cold wall time: {cold:.2f}s vs baseline "
        f"{entry['cold_s']:.2f}s (budget {budget:.2f}s at "
        f"+{tolerance:.0%}) -> {verdict}"
    )
    if record.get("warm_s") is not None:
        print(
            f"  warm (ungated): {float(record['warm_s']):.2f}s "
            f"(baseline {float(entry.get('warm_s', 0.0)):.2f}s), "
            f"from {path}"
        )
    rc = 0 if verdict == "OK" else 1

    floor = entry.get("min_events_per_s")
    if floor is not None:
        rate = record.get("events_per_s")
        minimum = float(floor) * (1.0 - tolerance)
        rate_verdict = (
            "OK" if rate is not None and float(rate) >= minimum
            else "REGRESSION"
        )
        print(
            f"  events/s: {float(rate or 0):,.0f} vs floor "
            f"{float(floor):,.0f} (minimum {minimum:,.0f} at "
            f"-{tolerance:.0%}) -> {rate_verdict}"
        )
        if rate_verdict != "OK":
            rc = 1

    max_ratio = entry.get("max_ratio")
    denominator = record.get("per_cell_s") or record.get("serial_s")
    if max_ratio is not None and denominator:
        label = (
            "grouped/per-cell" if record.get("per_cell_s")
            else "parallel/serial"
        )
        ratio = cold / float(denominator)
        cpus = record.get("cpus")
        if cpus is not None and int(cpus) < 2:
            # A parallel-vs-serial bound is meaningless on one CPU —
            # the parallel leg pays fork + attach overhead with no
            # concurrency to buy it back.  Report, don't gate.
            print(
                f"  {label} ratio: {ratio:.2f} (bound "
                f"{float(max_ratio):.2f} NOT gated: record ran on "
                f"{cpus} cpu)"
            )
            return rc
        ratio_verdict = "OK" if ratio <= float(max_ratio) else "REGRESSION"
        print(
            f"  {label} ratio: {ratio:.2f} "
            f"(bound {float(max_ratio):.2f}) -> {ratio_verdict}"
        )
        if ratio_verdict != "OK":
            rc = max(rc, 1)
    return rc


def _report_remote() -> None:
    """Print (never gate) the latest remote loopback round-trip record.

    Loopback latency on a shared runner is weather; the row exists so
    the remote tier's transport cost stays visible in every CI log
    without ever failing a build over it.
    """
    found = latest_bench("remote", "loopback", "test")
    if found is None:
        found = latest_bench("remote", "loopback", "bench")
    if found is None:
        return
    path, record = found
    print(
        f"remote/loopback round-trip (ungated): "
        f"GET p50 {float(record.get('get_rtt_ms_p50', 0.0)):.2f}ms, "
        f"PUT p50 {float(record.get('put_rtt_ms_p50', 0.0)):.2f}ms, "
        f"write-back drain {float(record.get('writeback_drain_s', 0.0)):.2f}s "
        f"over {record.get('objects', '?')} objects, from {path}"
    )


def _update(entries: "list[dict]", baseline_path: str) -> int:
    """Rewrite each entry from its latest matching BENCH record."""
    fresh_entries = []
    for entry in entries:
        found = latest_bench(
            entry["mode"], entry["experiment"], entry["scale"]
        )
        if found is None:
            print(
                f"no BENCH record for {entry['mode']}/"
                f"{entry['experiment']}@{entry['scale']}; keeping old "
                "entry"
            )
            fresh_entries.append(entry)
            continue
        path, record = found
        fresh = {
            "mode": record["mode"],
            "experiment": record["experiment"],
            "scale": record["scale"],
            "cold_s": record["cold_s"],
            "source_stamp": record.get("stamp"),
        }
        if record.get("warm_s") is not None:
            fresh["warm_s"] = record["warm_s"]
        if record.get("per_cell_s") is not None:
            fresh["per_cell_s"] = record["per_cell_s"]
        if record.get("serial_s") is not None:
            fresh["serial_s"] = record["serial_s"]
        if record.get("cpus") is not None:
            fresh["cpus"] = record["cpus"]
        if entry.get("max_ratio") is not None:
            fresh["max_ratio"] = entry["max_ratio"]
        if entry.get("min_events_per_s") is not None:
            fresh["min_events_per_s"] = (
                record.get("events_per_s") or entry["min_events_per_s"]
            )
        fresh_entries.append(fresh)
        print(
            f"baseline entry {fresh['mode']}/{fresh['experiment']}"
            f"@{fresh['scale']} updated from {path}: "
            f"cold {fresh['cold_s']:.2f}s"
        )
    with open(baseline_path, "w") as handle:
        json.dump(
            {"baselines": fresh_entries}, handle, indent=2, sort_keys=True
        )
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", default=BASELINE_PATH,
        help="baseline json (default: benchmarks/BASELINE.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed cold-time regression fraction (default: "
        "REPRO_BENCH_TOLERANCE or 0.25)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the latest matching BENCH jsons",
    )
    args = parser.parse_args(argv)

    tolerance = args.tolerance
    if tolerance is None:
        try:
            tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", ""))
        except ValueError:
            tolerance = 0.25
    entries = _entries(_load(args.baseline))

    if args.update:
        return _update(entries, args.baseline)

    _report_remote()
    return max(_check_entry(entry, tolerance) for entry in entries)


if __name__ == "__main__":
    sys.exit(main())
