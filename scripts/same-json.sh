#!/bin/sh
# Before/after check for changes that must not move any simulated number:
# runs `experiments bench|profile|dse --quick --json` and
# `experiments trace --quick --kernel <k>` for all five kernels with two
# builds, and diffs the JSON once the wall-clock fields are deleted. Needs
# jq.
#
# Usage: scripts/same-json.sh <before/experiments> <after/experiments>
# (for example a build of the parent commit and target/release/experiments).
set -eu
[ $# -eq 2 ] || { echo "usage: $0 <before/experiments> <after/experiments>" >&2; exit 2; }
before=$(realpath "$1")
after=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# Every `*_ms`/`*_ms_*` field is a wall-clock time; `*engine_speedup` is a
# ratio of two of them.
strip='walk(if type == "object"
  then with_entries(select(.key | test("_ms$|_ms_|engine_speedup$") | not)) else . end)'
# Compile-track (pid 1) timestamps are wall-clock; the simulator tracks tick
# in simulated cycles and are compared as they are.
strip_trace='.traceEvents |= map(if .pid == 1 then del(.ts) else . end)'
status=0
# compare <name> <file> <jq filter> <experiments arguments...>
compare() {
  name=$1 file=$2 filter=$3
  shift 3
  for side in before after; do
    mkdir -p "$work/$side"
    bin=$before
    [ "$side" = after ] && bin=$after
    (cd "$work/$side" && "$bin" "$@" > /dev/null)
    jq -S "$filter" "$work/$side/$file" > "$work/$side.$name"
  done
  if diff -u "$work/before.$name" "$work/after.$name"; then
    echo "$name: identical apart from wall-clock fields"
  else
    status=1
  fi
}
for cmd in bench profile dse; do
  file=$(echo "$cmd" | tr '[:lower:]' '[:upper:]')_same.json
  compare "$cmd" "$file" "$strip" "$cmd" --quick --json --label same
done
for kernel in kmeans hash_index ks em3d gaussblur; do
  compare "trace $kernel" "TRACE_$kernel.json" "$strip_trace" \
    trace --quick --kernel "$kernel" --out "TRACE_$kernel.json"
done
exit $status
