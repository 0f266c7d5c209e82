#!/usr/bin/env bash
# Same-runner A/B perf gate: this checkout (head) against a base commit.
#
#   bash scripts/ab.sh <base-commit>
#
# The base is checked out into a temporary git worktree. This checkout's
# benchmark harness then measures both trees on the workloads BENCHMARK.json
# declares: three pairs of 10-s runs, one seed per pair, with the side that
# runs first switching each pair so drift on the host does not favour
# either side. Each side's runs land in a JSONL file under .bench_build/ab/,
# and the script exits with `benchmark/run.sh compare base head`'s status:
# 1 if any end-to-end metric of head is worse than base's by more than its
# BENCHMARK.json bound. A run that checks a wrong answer also fails it.
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

run() { # $1 = side (base|head), $2 = its tree, $3 = seed
  for w in $workloads; do
    echo "ab: $1 $w seed $3" >&2
    bash benchmark/run.sh --root "$2" --build "$out/$1" --workload "$w" \
      --seed "$3" --seconds 10 --out "$out/$1.jsonl" >/dev/null
  done
}

for seed in 1 2 3; do
  if [ $((seed % 2)) -eq 1 ]; then
    run base "$tree" "$seed"
    run head "$root" "$seed"
  else
    run head "$root" "$seed"
    run base "$tree" "$seed"
  fi
done

bash benchmark/run.sh compare "$out/base.jsonl" "$out/head.jsonl"
