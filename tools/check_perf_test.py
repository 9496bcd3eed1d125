#!/usr/bin/env python3
"""Self-test for tools/check_perf.py: the direction of timing leaves.

Builds a synthetic baseline and a synthetic result in a temporary
directory, runs check_perf.py on them and checks its exit status:

  * a duration ("wall_ms") passes when it falls and fails when it grows
    past the tolerance band;
  * a rate ("events_per_sec", "speedup", google-benchmark's
    "iterations", and a rate nested under a timing key) passes when it
    grows and fails when it falls past the band;
  * exact leaves still fail on any change;
  * a google-benchmark result of repeated runs reporting aggregates
    only is gated on each row's median: one slow repetition passes, a
    uniform 2x slowdown fails, and a changed counter still fails,
    against a single-run baseline and against an aggregate one.

Usage: python3 tools/check_perf_test.py   (exit 0 = all cases pass)
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHECK_PERF = Path(__file__).resolve().parent / "check_perf.py"

BASELINE = {
    "wall_ms": 100.0,
    "events_per_sec": 1000.0,
    "speedup": 2.0,
    "formed_per_sec": {"p50": 50.0},
    "iterations": 1000,
    "formed_sessions": 7,
}


# One single-run google-benchmark row, as the committed bench_micro
# baseline holds them.
MICRO_BASELINE = {"benchmarks": [{
    "name": "BM_Pass/16", "family_index": 0, "per_family_instance_index": 0,
    "run_name": "BM_Pass/16", "run_type": "iteration", "repetitions": 1,
    "repetition_index": 0, "threads": 1, "iterations": 8000,
    "real_time": 100.0, "cpu_time": 100.0, "time_unit": "ns",
    "state_bytes": 544.0,
}]}


def micro_aggregates(times: list[float], state_bytes: float = 544.0) -> dict:
    """What --benchmark_repetitions=len(times) with
    --benchmark_report_aggregates_only=true reports for BM_Pass/16."""
    rows = []
    for name, value in (("mean", statistics.mean(times)),
                        ("median", statistics.median(times)),
                        ("stddev", statistics.stdev(times))):
        rows.append({
            "name": f"BM_Pass/16_{name}", "family_index": 0,
            "per_family_instance_index": 0, "run_name": "BM_Pass/16",
            "run_type": "aggregate", "repetitions": len(times), "threads": 1,
            "aggregate_name": name, "aggregate_unit": "time",
            "iterations": len(times), "real_time": value, "cpu_time": value,
            "time_unit": "ns", "state_bytes": state_bytes,
        })
    return {"benchmarks": rows}


def run_check(current: dict, baseline: dict = BASELINE) -> int:
    """check_perf.py's exit status for `current` against `baseline`."""
    with tempfile.TemporaryDirectory() as tmp:
        baselines = Path(tmp) / "baselines"
        results = Path(tmp) / "results"
        baselines.mkdir()
        results.mkdir()
        # No host_fingerprint in the baseline: timing bands always apply.
        (baselines / "BENCH_synthetic.json").write_text(json.dumps(baseline))
        (results / "BENCH_synthetic.json").write_text(json.dumps(current))
        return subprocess.run(
            [sys.executable, str(CHECK_PERF), "--results", str(results),
             "--baselines", str(baselines), "--tolerance", "0.25"],
            stdout=subprocess.DEVNULL, check=False).returncode


def with_leaf(path: tuple[str, ...], value) -> dict:
    current = json.loads(json.dumps(BASELINE))
    node = current
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return current


CASES = [
    # (description, leaf path, new value, expected exit status)
    ("unchanged result", ("wall_ms",), 100.0, 0),
    ("faster time", ("wall_ms",), 50.0, 0),
    ("slower time", ("wall_ms",), 200.0, 1),
    ("higher rate", ("events_per_sec",), 2000.0, 0),
    ("lower rate", ("events_per_sec",), 500.0, 1),
    ("higher speedup", ("speedup",), 4.0, 0),
    ("lower speedup", ("speedup",), 1.0, 1),
    ("more iterations", ("iterations",), 2000, 0),
    ("fewer iterations", ("iterations",), 500, 1),
    ("higher nested rate", ("formed_per_sec", "p50"), 100.0, 0),
    ("lower nested rate", ("formed_per_sec", "p50"), 25.0, 1),
    ("changed exact count", ("formed_sessions",), 8, 1),
]

MICRO_CASES = [
    # (description, per-repetition real_time, state_bytes, expected exit)
    ("seven steady repetitions", [100.0] * 7, 544.0, 0),
    ("one slow repetition of seven", [100.0] * 6 + [300.0], 544.0, 0),
    ("uniform 2x slowdown", [200.0] * 7, 544.0, 1),
    ("changed counter in the median", [100.0] * 7, 545.0, 1),
]


def main() -> int:
    failures = []
    for description, path, value, expected in CASES:
        status = run_check(with_leaf(path, value))
        verdict = "ok" if status == expected else "FAIL"
        print(f"{verdict:4} {description}: exit {status}, expected {expected}")
        if status != expected:
            failures.append(description)
    for baseline_name, baseline in (
            ("single-run", MICRO_BASELINE),
            ("aggregate", micro_aggregates([100.0] * 7))):
        for description, times, state_bytes, expected in MICRO_CASES:
            status = run_check(micro_aggregates(times, state_bytes), baseline)
            verdict = "ok" if status == expected else "FAIL"
            case = f"{description} ({baseline_name} baseline)"
            print(f"{verdict:4} {case}: exit {status}, expected {expected}")
            if status != expected:
                failures.append(case)
    if failures:
        print(f"check_perf_test: {len(failures)} case(s) failed")
        return 1
    print("check_perf_test: all cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
