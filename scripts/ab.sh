#!/usr/bin/env bash
# Same-runner A/B perf gate: this checkout (head) against a base commit.
#
#   bash scripts/ab.sh <base-commit>
#
# The base is checked out into a temporary git worktree. This checkout's
# benchmark harness then measures both trees on the workloads BENCHMARK.json
# declares: three pairs of 10-s runs, one seed per pair, with the side that
# runs first switching each pair so drift on the host does not favour
# either side. A workload whose compare table still has an `unresolved` row
# (run-to-run spread above the bound) then gets further pairs, one at a
# time, until none is left or it has run 10 pairs; rows still unresolved at
# that cap are printed. Each side's runs land in a JSONL file under
# .bench_build/ab/, and the script exits with `benchmark/run.sh compare base
# head`'s status: 1 if any end-to-end metric of head is worse than base's by
# more than its BENCHMARK.json bound. A run that checks a wrong answer also
# fails it.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: scripts/ab.sh <base-commit>" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
root=$PWD
base=$(git rev-parse --verify "$1^{commit}")
out=$root/.bench_build/ab
rm -rf "$out"
mkdir -p "$out"

tree=$(mktemp -d)
cleanup() { git worktree remove --force "$tree" >/dev/null 2>&1 || rm -rf "$tree"; }
trap cleanup EXIT
git worktree add --detach --quiet "$tree" "$base"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

run() { # $1 = side (base|head), $2 = its tree, $3 = seed, then the workloads
  local side=$1 dir=$2 seed=$3 w
  shift 3
  for w in "$@"; do
    echo "ab: $side $w seed $seed" >&2
    bash benchmark/run.sh --root "$dir" --build "$out/$side" --workload "$w" \
      --seed "$seed" --seconds 10 --out "$out/$side.jsonl" >/dev/null
  done
}

pair() { # $1 = seed, then the workloads
  local seed=$1
  shift
  if [ $((seed % 2)) -eq 1 ]; then
    run base "$tree" "$seed" "$@"
    run head "$root" "$seed" "$@"
  else
    run head "$root" "$seed" "$@"
    run base "$tree" "$seed" "$@"
  fi
}

compare() { bash benchmark/run.sh compare "$out/base.jsonl" "$out/head.jsonl"; }

# unresolved prints the compare rows whose verdict is unresolved.
unresolved() { { compare || true; } | awk '$NF == "unresolved"'; }

for seed in 1 2 3; do
  pair "$seed" $workloads
done
for seed in 4 5 6 7 8 9 10; do
  pending=$(unresolved | awk '{print $1}' | sort -u | tr '\n' ' ')
  [ -n "$pending" ] || break
  pair "$seed" $pending
done
left=$(unresolved)
if [ -n "$left" ]; then
  echo "ab: rows still unresolved at the 10-pair cap:" >&2
  echo "$left" >&2
fi

compare
