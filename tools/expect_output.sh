#!/usr/bin/env sh
# Runs a command that is supposed to succeed and print exactly the bytes
# of EXPECTED_FILE on stdout. Passes when it exits zero and its stdout
# equals the file byte for byte; fails, printing a diff, otherwise.
#
# Usage: tools/expect_output.sh EXPECTED_FILE -- COMMAND [ARG...]
set -u

if [ $# -lt 3 ] || [ "$2" != "--" ]; then
  echo "usage: expect_output.sh EXPECTED_FILE -- COMMAND [ARG...]" >&2
  exit 2
fi
expected=$1
shift 2

out=$(mktemp) || exit 2
trap 'rm -f "$out"' EXIT
"$@" >"$out"
status=$?
if [ "$status" -ne 0 ]; then
  echo "exit status $status from: $*" >&2
  exit 1
fi
if ! cmp -s "$out" "$expected"; then
  echo "stdout differs from $expected:" >&2
  diff "$expected" "$out" >&2
  exit 1
fi
