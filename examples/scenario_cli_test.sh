#!/bin/sh
# Runs scenario_cli on a short script and checks its exit code and stderr.
#
#   scenario_cli_test.sh SCENARIO_CLI EXPECTED_STDERR COMMAND...
#
# Each COMMAND is one script line, read from stdin ('-'). The run must
# exit 0 and print exactly EXPECTED_STDERR (one line) on stderr.
set -u
cli=$1 want=$2
shift 2
err=$(mktemp) || exit 1
trap 'rm -f "$err"' EXIT

printf '%s\n' "$@" | "$cli" - > /dev/null 2> "$err"
got=$?
if [ "$got" -ne 0 ]; then
  echo "scenario_cli: exit code $got, want 0" >&2
  cat "$err" >&2
  exit 1
fi
if [ "$(cat "$err")" != "$want" ]; then
  echo "scenario_cli: stderr differs, want '$want'" >&2
  cat "$err" >&2
  exit 1
fi
