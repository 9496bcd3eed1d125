#!/usr/bin/env python3
"""Smoke check and repeat statistics for dvbench; run.sh drives both.

  report.py smoke  DVBENCH BENCHMARK.json
  report.py repeat DVBENCH BENCHMARK.json K [--workload W] [--seed S]
                                            [--trace T] [--seconds X]

smoke runs every workload at 1/20 of run_seconds, untraced and traced,
and fails unless each run is correct, its JSON result holds exactly the
metrics BENCHMARK.json lists for that mode, and the traced run prints
every listed metric exactly once with its unit.

repeat runs K consecutive seeds per workload and prints, per metric, the
median, the quartiles (statistics.quantiles, n=4) and the spread (IQR as
a share of the median), then one JSON line with all of it and the host.
"""
import json
import os
import platform
import statistics
import subprocess
import sys


def run(dvbench, workload, seed, seconds, trace):
    cmd = [dvbench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    printed = [line.split() for line in lines if line.startswith("metric ")]
    return printed, json.loads(lines[-1])


def smoke(dvbench, spec):
    seconds = spec["run_seconds"] / 20
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            printed, result = run(dvbench, workload, 1, seconds, trace)
            where = f"{workload} --trace {trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{where}: correct is {result.get('correct')}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: result metrics differ from {group}: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if trace == 0:
                continue
            for name, unit in listed.items():
                lines = [p for p in printed if p[1] == name]
                if len(lines) != 1 or lines[0][3] != unit:
                    problems.append(f"{where}: {name} printed as {lines}")
            print(f"smoke {workload}: {len(printed)} metrics printed", flush=True)
    for problem in problems:
        print("SMOKE FAIL", problem)
    print("smoke", "FAIL" if problems else "ok")
    return 1 if problems else 0


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0)),
            "kernel": platform.release(), "machine": platform.machine()}


def repeat(dvbench, spec, k, argv):
    opts = {"--workload": None, "--seed": "1", "--trace": "0",
            "--seconds": str(spec["run_seconds"])}
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in opts:
            sys.exit(f"repeat: unknown flag {flag}")
        opts[flag] = value
    workloads = ([opts["--workload"]] if opts["--workload"]
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(int(opts["--seed"]), int(opts["--seed"]) + k))
    summary = {"host": host(), "seconds": float(opts["--seconds"]),
               "trace": int(opts["--trace"]), "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values, units = {}, {}
        for seed in seeds:
            printed, result = run(dvbench, workload, seed, opts["--seconds"],
                                  opts["--trace"])
            if result["correct"] is not True:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            for _, name, value, unit in printed:
                values.setdefault(name, []).append(float(value))
                units[name] = unit
        rows = {}
        print(f"\n{workload} ({k} seeds from {seeds[0]})")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} bound")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / abs(med) if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "unit": units[name],
                          "values": vals}
            bound = f"{bounds[name]:.0%}" if name in bounds else ""
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.2%} {bound}")
        summary["workloads"][workload] = rows
    print(json.dumps(summary))
    return 0


def main():
    if len(sys.argv) < 4 or sys.argv[1] not in ("smoke", "repeat"):
        sys.exit(__doc__)
    dvbench = sys.argv[2]
    with open(sys.argv[3], encoding="utf-8") as f:
        spec = json.load(f)
    if sys.argv[1] == "smoke":
        return smoke(dvbench, spec)
    return repeat(dvbench, spec, int(sys.argv[4]), sys.argv[5:])


if __name__ == "__main__":
    sys.exit(main())
