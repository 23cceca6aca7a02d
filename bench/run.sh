#!/usr/bin/env bash
# Runs the benchmark's workloads one after another, each in a fresh process,
# never two at once, and writes machine-readable results.
#
#   bench/run.sh [-n reps] [-s seed] [-t 0|1] [-o outdir] [treeA [treeB]]
#
# With one tree (default: the checkout this script stands in) it makes
# `reps` passes over the workloads and writes outdir/a.json. With two trees
# it makes A/B pairs: each workload is run on both trees back to back, and
# which tree goes first alternates from pair to pair, so that drift of the
# host hits both sides alike; it then prints `bench -compare a.json b.json`.
#
# One untraced pass of all five workloads takes about 90 s on the 2-CPU
# reference host (set-up and tear-down included); the script prints the
# wall time it took.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
reps=5
seed=1
traced=0
workloads="app_saturate app_paced fleet_fault serve_predict train_fit"
out=""
while getopts "n:s:t:o:h" opt; do
  case "$opt" in
    n) reps="$OPTARG" ;;
    s) seed="$OPTARG" ;;
    t) traced="$OPTARG" ;;
    o) out="$OPTARG" ;;
    *) sed -n '2,15p' "${BASH_SOURCE[0]}"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
tree_a="${1:-$(dirname "$here")}"
tree_b="${2:-}"
out="${out:-$tree_a/.bench_build/results}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

run_one() { # tree label workload
  local tree="$1" label="$2" workload="$3"
  echo "== $label $workload (seed $seed, trace $traced)"
  (cd "$tree" && bash bench/bench.sh --workload "$workload" --seed "$seed" --trace "$traced" --json "$out/$label.json") | tail -n 1
}

start=$(date +%s)
pair=0
for rep in $(seq 1 "$reps"); do
  for w in $workloads; do
    if [ -z "$tree_b" ]; then
      run_one "$tree_a" a "$w"
    elif [ $((pair % 2)) -eq 0 ]; then
      run_one "$tree_a" a "$w"
      run_one "$tree_b" b "$w"
    else
      run_one "$tree_b" b "$w"
      run_one "$tree_a" a "$w"
    fi
    pair=$((pair + 1))
  done
done
end=$(date +%s)
echo "total wall time: $((end - start)) s for $reps pass(es) over: $workloads"
echo "results: $out"
if [ -n "$tree_b" ]; then
  (cd "$tree_a" && bash bench/bench.sh --compare "$out/a.json" "$out/b.json")
fi
