#!/usr/bin/env sh
# Runs a command that is supposed to fail. Passes when the command exits
# nonzero and its stderr contains every PATTERN (fixed strings); fails,
# printing what the command wrote, otherwise.
#
# Usage: tools/expect_failure.sh PATTERN... -- COMMAND [ARG...]
set -u

patterns=""
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  patterns="$patterns
$1"
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: expect_failure.sh PATTERN... -- COMMAND [ARG...]" >&2
  exit 2
fi
shift

err=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -eq 0 ]; then
  echo "expected a nonzero exit from: $*" >&2
  exit 1
fi
set -f
IFS='
'
for p in $patterns; do
  case "$err" in
    *"$p"*) ;;
    *)
      echo "stderr lacks '$p': $err" >&2
      exit 1
      ;;
  esac
done
