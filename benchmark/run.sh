#!/usr/bin/env bash
# Builds dvbench into benchmark/build and runs it (see benchmark/README.md).
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the JSON result
#   bash benchmark/run.sh --smoke
#       every workload at 1/20 length; fails unless each metric named in
#       BENCHMARK.json is printed exactly once, with its unit
#   bash benchmark/run.sh --repeat K [--workload NAME] [--seed N] [--trace T]
#       K seeds per workload; median and IQR of every metric
#
# The library is built from the repository root by its own CMakeLists.txt,
# so a directory holding only the benchmark fails at configure time.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
bin="$build/dvbench"
spec="$here/../BENCHMARK.json"

# Build output goes to stderr: stdout ends with the JSON result.
if [[ ! -f "$build/.configured" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  touch "$build/.configured"
fi
cmake --build "$build" --target dvbench -j "$(nproc)" >&2

case "${1:-}" in
  --smoke)
    shift
    exec python3 "$here/report.py" smoke "$bin" "$spec" "$@"
    ;;
  --repeat)
    exec python3 "$here/report.py" repeat "$bin" "$spec" "${2:?--repeat needs K}" "${@:3}"
    ;;
  *)
    exec "$bin" --out "$here/out" "$@"
    ;;
esac
