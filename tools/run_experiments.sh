#!/usr/bin/env sh
# Builds everything, runs the full test suite, and regenerates every
# experiment table into ./results/.
#
# Alongside each human-readable results/<bench>.txt, every bench now
# writes a machine-readable results/BENCH_<name>.json (via the
# DYNVOTE_JSON_DIR environment variable; bench_scenario_typical also
# exports results/trace.json, the replayable structured trace of the E1
# run). bench_micro uses google-benchmark's native JSON reporter.
# results/trace.json is then post-processed with tools/dvtrace into
# trace_ambiguity.txt, trace_spans.json and trace_chrome.json (the
# latter loads in chrome://tracing / Perfetto); a Theorem-1 lifetime
# violation or invalid Chrome JSON fails the script.
#
# After the benches, `bash benchmark/run.sh --smoke` builds and runs the
# end-to-end benchmark (dvbench) at 1/20 length.
#
# The run ends with tools/check_perf.py, which compares the fresh
# results/BENCH_*.json against the committed baselines in
# results/baselines/ — deterministic outputs must match exactly, timing
# metrics get a wide tolerance band — and fails the script on
# regression. After an intentional behavior or perf change, regenerate
# the baselines with `tools/check_perf.py --update` and commit them.
#
# Set DYNVOTE_SKIP_SANITIZERS=1 to skip the sanitizer passes: the
# ASan/UBSan tier-1 run (build-asan/) plus quick-mode bench_shards and
# bench_runtime, and the TSan run of the sweep-pool, persistence and
# pool-runtime suites (build-tsan/ — TSan cannot share a tree with
# ASan, the runtimes conflict).
set -e
cd "$(dirname "$0")/.."

# Reuse the generator of an existing build tree; default to Ninja for a
# fresh one.
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
else
  cmake -B build -G Ninja
fi
cmake --build build
ctest --test-dir build --output-on-failure

mkdir -p results
DYNVOTE_JSON_DIR="$(pwd)/results"
export DYNVOTE_JSON_DIR
for bench in build/bench/bench_*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name=$(basename "$bench")
  [ "$name" = "bench_micro" ] && continue
  echo "== $name"
  "$bench" | tee "results/$name.txt"
done
if [ -x build/bench/bench_micro ]; then
  echo "== bench_micro"
  build/bench/bench_micro \
    --benchmark_out="results/BENCH_bench_micro.json" \
    --benchmark_out_format=json | tee "results/bench_micro.txt"
fi

# The end-to-end benchmark's smoke run (benchmark/README.md): it builds
# dvbench from this tree and fails unless every workload runs and every
# metric BENCHMARK.json names prints once. benchmark/adapter.cpp reads
# a few library names kept only for it (ROADMAP item 3), so a src/
# change that breaks its build, or stops a metric from printing, fails
# here too.
echo "== benchmark smoke (benchmark/run.sh --smoke)"
bash benchmark/run.sh --smoke

# Post-process the E1 reference trace with dvtrace: the ambiguity report
# re-checks the Theorem-1 lifetime bound from the file alone, and the
# Chrome export is validated before it is written. Both failures are
# fatal — the trace artifacts must stay queryable.
if [ -f results/trace.json ]; then
  echo "== dvtrace (results/trace.json)"
  # No pipeline here: a pipe would let tee mask a failed bound check.
  build/tools/dvtrace ambiguity results/trace.json \
    > results/trace_ambiguity.txt
  cat results/trace_ambiguity.txt
  build/tools/dvtrace export-chrome results/trace.json \
    --out results/trace_chrome.json
  build/tools/dvtrace spans results/trace.json \
    --out results/trace_spans.json
fi

# Fleet telemetry artifacts from bench_shards: the health report over
# the flagship shape, and the violation demo, which MUST contain a
# flight-recorder post-mortem with an intact causal chain (dvtrace
# exits 1 otherwise — the telemetry layer's end-to-end check).
if [ -f results/fleet_telemetry.json ]; then
  echo "== dvtrace fleet (results/fleet_telemetry.json)"
  build/tools/dvtrace fleet results/fleet_telemetry.json \
    > results/fleet_report.txt
  cat results/fleet_report.txt
fi
if [ -f results/fleet_violation_telemetry.json ]; then
  echo "== dvtrace fleet --expect-postmortem (violation demo)"
  build/tools/dvtrace fleet results/fleet_violation_telemetry.json \
    --expect-postmortem > results/fleet_violation_report.txt
  cat results/fleet_violation_report.txt
fi

# Wall-clock probe artifacts from bench_runtime: the per-lane report
# with the reconfiguration phase breakdown, plus the Chrome trace-event
# export (validated by dvtrace before it is written — an invalid export
# fails the script).
if [ -f results/runtime_probes.json ]; then
  echo "== dvtrace runtime (results/runtime_probes.json)"
  build/tools/dvtrace runtime results/runtime_probes.json \
    --chrome results/runtime_chrome.json > results/runtime_report.txt
  cat results/runtime_report.txt
fi

# Tier-1 suite under AddressSanitizer + UndefinedBehaviorSanitizer.
if [ "${DYNVOTE_SKIP_SANITIZERS:-0}" != "1" ]; then
  echo "== tier-1 tests under ASan/UBSan (build-asan/)"
  if [ -f build-asan/CMakeCache.txt ]; then
    cmake -B build-asan -DDYNVOTE_SANITIZE="address;undefined"
  else
    cmake -B build-asan -G Ninja -DDYNVOTE_SANITIZE="address;undefined"
  fi
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure

  # The multi-group shard bench under ASan/UBSan, in quick mode (small
  # shape, 2 seeds) and with the JSON export disabled so the trimmed
  # payload cannot clobber the real results/BENCH_shards.json. The
  # dynamic-bitset property tests (ProcessSetProperty.*, ProcessSet.*)
  # already ran in the ctest pass above.
  echo "== bench_shards under ASan/UBSan (quick mode)"
  env -u DYNVOTE_JSON_DIR DYNVOTE_SHARDS_QUICK=1 build-asan/bench/bench_shards

  # The pool-runtime bench under ASan/UBSan, in quick mode (widths
  # {4,8}, 3 cycles). Its phase 0 re-runs the DES-vs-pool cross-check at
  # W ∈ {1,2,4,n} on 8 seeds — each seed both probes-off and probes-on,
  # asserting the probe layer is digest-neutral — and its phase 3 gates
  # the probe overhead at < 5% with outcome-digest equality, so a
  # divergence or an overhead blowout under sanitizers fails the script
  # here; JSON export is disabled so the quick payload cannot clobber
  # the real results/BENCH_runtime.json.
  echo "== bench_runtime under ASan/UBSan (quick mode)"
  env -u DYNVOTE_JSON_DIR DYNVOTE_RUNTIME_QUICK=1 build-asan/bench/bench_runtime

  # ThreadSanitizer over the code that actually runs multithreaded: the
  # sweep pool plus the persistence suite, whose WAL layer the sweep
  # workers exercise concurrently, the multi-group shard sweep
  # (SweepShards.*), which runs whole fleets on the pool, and every
  # Runtime* suite of the pool runtime: the segment-chained SPSC links,
  # the fleet and the DES cross-check at W ∈ {1,2,4,n},
  # the wall-clock probe rings, the eventcount wakeup stress on 4
  # workers, and the scheduler itself — a burst spanning several link
  # segments, the per-handler wakeups from a parked fleet, quiesce's
  # status words and drained queues, and a churn stress that must stay byte-identical
  # across worker counts. TSan needs its own build tree. A race shows
  # only under some interleavings, so each test runs up to five times
  # and the step fails on the first failing run.
  echo "== sweep-pool + persistence + runtime tests under TSan (build-tsan/)"
  if [ -f build-tsan/CMakeCache.txt ]; then
    cmake -B build-tsan -DDYNVOTE_SANITIZE=thread
  else
    cmake -B build-tsan -G Ninja -DDYNVOTE_SANITIZE=thread
  fi
  cmake --build build-tsan
  ctest --test-dir build-tsan --output-on-failure --repeat until-fail:5 \
    -R '^(Sweep\.|SweepDeterminism\.|SweepShards\.|SweepTelemetry\.|StateDelta\.|Checkpoint\.|WalPersistence\.|ProtocolPersistence\.|Seeds/PersistenceChurnProperty\.|Runtime[A-Za-z]*\.)'
fi

echo "== check_perf (results/ vs results/baselines/)"
python3 tools/check_perf.py

echo "All experiment outputs written to ./results/"
