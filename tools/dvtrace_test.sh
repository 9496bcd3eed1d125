#!/bin/sh
# Runs dvtrace on a committed document and checks its stdout and exit code.
#
#   dvtrace_test.sh DVTRACE DATA_DIR EXPECTED EXIT_CODE ARGS...
#
# ARGS name documents relative to DATA_DIR. EXPECTED names the file under
# DATA_DIR/expected that stdout must equal byte for byte; "-" means stdout
# must be empty.
set -u
dvtrace=$1 data=$2 expected=$3 want=$4
shift 4
cd "$data" || exit 1
reference=expected/$expected
[ "$expected" = "-" ] && reference=/dev/null
out=$(mktemp) || exit 1
trap 'rm -f "$out"' EXIT

"$dvtrace" "$@" > "$out"
got=$?
if ! diff "$reference" "$out" >&2; then
  echo "dvtrace $*: stdout differs from $reference" >&2
  exit 1
fi
if [ "$got" -ne "$want" ]; then
  echo "dvtrace $*: exit code $got, want $want" >&2
  exit 1
fi
