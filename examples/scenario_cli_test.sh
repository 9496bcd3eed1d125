#!/bin/sh
# Runs scenario_cli on a short script and checks its exit code and output.
#
#   scenario_cli_test.sh SCENARIO_CLI EXPECTED_STDERR COMMAND...
#   scenario_cli_test.sh SCENARIO_CLI --stdout EXPECTED_LINE COMMAND...
#
# Each COMMAND is one script line, read from stdin ('-'). The run must
# exit 0. The first form wants exactly EXPECTED_STDERR (one line) on
# stderr; the second wants nothing on stderr and EXPECTED_LINE as one
# whole line of stdout.
set -u
cli=$1
mode=stderr
if [ "$2" = --stdout ]; then
  mode=stdout
  shift
fi
want=$2
shift 2
out=$(mktemp) || exit 1
err=$(mktemp) || exit 1
trap 'rm -f "$out" "$err"' EXIT

printf '%s\n' "$@" | "$cli" - > "$out" 2> "$err"
got=$?
if [ "$got" -ne 0 ]; then
  echo "scenario_cli: exit code $got, want 0" >&2
  cat "$err" >&2
  exit 1
fi
if [ "$mode" = stdout ]; then
  if [ -s "$err" ] || ! grep -qxF -- "$want" "$out"; then
    echo "scenario_cli: want line '$want' on stdout, nothing on stderr" >&2
    cat "$out" "$err" >&2
    exit 1
  fi
elif [ "$(cat "$err")" != "$want" ]; then
  echo "scenario_cli: stderr differs, want '$want'" >&2
  cat "$err" >&2
  exit 1
fi
