#!/bin/sh
# Mutation check of run verification: a wrong op semantics shared by the
# interpreter and both simulator engines must still fail the paper runs,
# because every paper kernel is checked against its native reference.
#
# Copies the tree to a temp dir and applies each mutant of
# crates/sim/src/exec.rs in turn:
# - int32: `Xor` returns `x ^ y ^ 1`;
# - fadd: every f32 `fadd` result is multiplied by `1 + f32::EPSILON`, in
#   both places the `float` kernel's f32 result is taken: the register op
#   the executors run and the tagged `eval_binary`.
# For each it builds `experiments` and asserts that full-scale `experiments
# all` exits non-zero with a `verification:` error. A mutant whose pattern
# no longer matches the source fails the script, so it cannot pass
# vacuously.
#
# Usage: scripts/oracle-mutants.sh
# Builds into $CARGO_TARGET_DIR/oracle-mutants (default
# target/oracle-mutants), so the build outputs of the tree itself are never
# replaced by a mutant's.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
target=${CARGO_TARGET_DIR:-$root/target}/oracle-mutants
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
tar -C "$root" --exclude=./.git --exclude=./target --exclude=./perfbench/target \
  --exclude=./.bench_build -cf - . | tar -C "$work/tree" -xf -
exec_rs=$work/tree/crates/sim/src/exec.rs
cp "$exec_rs" "$work/exec.rs.orig"
status=0
# mutant <name> <sed script> <lines it must change>: apply one mutant to the
# unmutated exec.rs, build, and run the paper tables at full scale.
mutant() {
  name=$1
  cp "$work/exec.rs.orig" "$exec_rs"
  sed -i "$2" "$exec_rs"
  changed=$(diff "$work/exec.rs.orig" "$exec_rs" | grep -c '^>' || true)
  if [ "$changed" -ne "$3" ]; then
    echo "$name: the mutant changed $changed lines of exec.rs, not $3; update its pattern" >&2
    exit 1
  fi
  CARGO_TARGET_DIR=$target cargo build --release --offline -q \
    --manifest-path "$work/tree/Cargo.toml" -p cgpa-bench --bin experiments
  mkdir -p "$work/run-$name"
  if (cd "$work/run-$name" && "$target/release/experiments" all > out.txt 2>&1); then
    echo "$name: FAIL: full-scale experiments all succeeded with the mutant" >&2
    status=1
  elif grep -q 'verification:' "$work/run-$name/out.txt"; then
    echo "$name: caught: $(grep -m1 'verification:' "$work/run-$name/out.txt")"
  else
    echo "$name: FAIL: experiments all failed without a verification error:" >&2
    tail -n 20 "$work/run-$name/out.txt" >&2
    status=1
  fi
}
mutant int32-xor '/^fn int32(/,/^}/ s/BinOp::Xor => x ^ y,/BinOp::Xor => x ^ y ^ 1,/' 1
mutant f32-fadd 's/float(op, x, y)\.map(V::F32)/float(op, x, y).map(|v| V::F32(if op == BinOp::FAdd { v * (1.0 + f32::EPSILON) } else { v }))/; s/\.map(of_f32))$/.map(|v| of_f32(if op == BinOp::FAdd { v * (1.0 + f32::EPSILON) } else { v })))/' 2
exit $status
