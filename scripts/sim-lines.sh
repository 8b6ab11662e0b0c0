#!/bin/sh
# Line budget of the simulator crate: prints the non-test lines of each
# file in crates/sim/src, counted as the lines before the file's first
# `#[cfg(test)]` (the whole file when it has none), then the total, and
# exits non-zero when the total is above CEILING.
#
# Lower CEILING when a change removes lines; raising it takes a change
# that says why the simulator needs the lines.
#
# Usage: scripts/sim-lines.sh
set -eu
CEILING=5111
root=$(cd "$(dirname "$0")/.." && pwd)
total=0
for f in "$root"/crates/sim/src/*.rs; do
  n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
  printf '%6d  %s\n' "$n" "crates/sim/src/$(basename "$f")"
  total=$((total + n))
done
printf '%6d  total (ceiling %d)\n' "$total" "$CEILING"
if [ "$total" -gt "$CEILING" ]; then
  echo "crates/sim/src has $total non-test lines, above the ceiling of $CEILING" >&2
  exit 1
fi
