#!/bin/sh
# Before/after check for changes that must not move any simulated number:
# runs `experiments bench|profile|dse --quick --json` with two builds and
# diffs the JSON once the wall-clock fields are deleted. Needs jq.
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
status=0
for cmd in bench profile dse; do
  for side in before after; do
    mkdir -p "$work/$side"
    bin=$before
    [ "$side" = after ] && bin=$after
    (cd "$work/$side" && "$bin" "$cmd" --quick --json --label same > /dev/null)
  done
  file=$(echo "$cmd" | tr '[:lower:]' '[:upper:]')_same.json
  jq -S "$strip" "$work/before/$file" > "$work/before.$cmd"
  jq -S "$strip" "$work/after/$file" > "$work/after.$cmd"
  if diff -u "$work/before.$cmd" "$work/after.$cmd"; then
    echo "$cmd: identical apart from wall-clock fields"
  else
    status=1
  fi
done
exit $status
