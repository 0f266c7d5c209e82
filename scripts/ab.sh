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
# time, until none is left or it has run 10 pairs. Each row still unresolved
# at that cap is printed with the side whose spread exceeds the bound (base,
# head or both) and by how much, so a claim that a noisy base blocks shows in
# the gate's own output. Each side's runs land in a JSONL file under
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

# noisy reads unresolved compare rows and names, for each, the side whose
# spread (interquartile distance over median, as compare computes it from the
# quartiles it prints) exceeds the row's bound, and by how many points.
noisy() {
  awk -v bounds="$(python3 -c 'import json; [print(m["name"], m["bound"]) for m in json.load(open("BENCHMARK.json"))["end_to_end"]]')" '
    BEGIN {
      n = split(bounds, lines, "\n")
      for (i = 1; i <= n; i++) { split(lines[i], f, " "); bound[f[1]] = 100 * f[2] }
    }
    function spread(med, q1, q3,   d) {
      d = q3 - q1
      if (med == 0) return 0
      return 100 * (d < 0 ? -d : d) / (med < 0 ? -med : med)
    }
    function side(name, s, bd) {
      return s > bd ? sprintf("%s %.1f%% (%.1f points over)", name, s, s - bd) : sprintf("%s %.1f%%", name, s)
    }
    {
      gsub(/[][,]/, " ")
      $0 = $0 # medA q1A q3A medB q1B q3B are now $3..$8
      bd = bound[$2]; a = spread($3, $4, $5); b = spread($6, $7, $8)
      who = (a > bd && b > bd) ? "both" : (a > bd ? "base" : "head")
      printf "ab: %s %s: %s spread above the %.0f%% bound; %s, %s\n", $1, $2, who, bd, side("base", a, bd), side("head", b, bd)
    }'
}

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
  echo "$left" | noisy >&2
fi

compare
