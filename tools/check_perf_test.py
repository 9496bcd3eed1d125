#!/usr/bin/env python3
"""Self-test for tools/check_perf.py: the direction of timing leaves.

Builds a synthetic baseline and a synthetic result in a temporary
directory, runs check_perf.py on them and checks its exit status:

  * a duration ("wall_ms") passes when it falls and fails when it grows
    past the tolerance band;
  * a rate ("events_per_sec", "speedup", google-benchmark's
    "iterations", and a rate nested under a timing key) passes when it
    grows and fails when it falls past the band;
  * exact leaves still fail on any change.

Usage: python3 tools/check_perf_test.py   (exit 0 = all cases pass)
"""

from __future__ import annotations

import json
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


def run_check(current: dict) -> int:
    """check_perf.py's exit status for `current` against BASELINE."""
    with tempfile.TemporaryDirectory() as tmp:
        baselines = Path(tmp) / "baselines"
        results = Path(tmp) / "results"
        baselines.mkdir()
        results.mkdir()
        # No host_fingerprint in the baseline: timing bands always apply.
        (baselines / "BENCH_synthetic.json").write_text(json.dumps(BASELINE))
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


def main() -> int:
    failures = []
    for description, path, value, expected in CASES:
        status = run_check(with_leaf(path, value))
        verdict = "ok" if status == expected else "FAIL"
        print(f"{verdict:4} {description}: exit {status}, expected {expected}")
        if status != expected:
            failures.append(description)
    if failures:
        print(f"check_perf_test: {len(failures)} case(s) failed")
        return 1
    print("check_perf_test: all cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
