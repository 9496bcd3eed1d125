#!/bin/sh
# Runs an example with no arguments and checks its exit code and stdout.
#
#   example_output_test.sh EXAMPLE EXPECTED_STDOUT
#
# The run must exit 0 and print EXPECTED_STDOUT byte for byte; every
# example is deterministic, so any difference is a behaviour change.
set -u
example=$1 expected=$2
out=$(mktemp) || exit 1
trap 'rm -f "$out"' EXIT

"$example" > "$out"
got=$?
if ! diff "$expected" "$out" >&2; then
  echo "$example: stdout differs from $expected" >&2
  exit 1
fi
if [ "$got" -ne 0 ]; then
  echo "$example: exit code $got, want 0" >&2
  exit 1
fi
