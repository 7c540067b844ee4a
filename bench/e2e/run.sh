#!/usr/bin/env bash
# Builds the end-to-end benchmark program (Release, in .bench_build/e2e under
# the repository root) and runs it. Build output goes to stderr, so the last
# line of stdout is always a run's JSON result.
#
#   bench/e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run of one workload. With --trace 1 the spans are written to
#       .bench_build/e2e/spans-<name>.json.
#   bench/e2e/run.sh [--traced]
#       Every workload once (seed 1, 10 s each), untraced or traced.
#   bench/e2e/run.sh --check
#       Determinism check: one seed run twice must give bit-identical
#       simulated metrics and counters on every workload, and another seed
#       must change them on service-open and dist-8node.
#
# Exits non-zero if the build, an output check or the determinism check
# fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/e2e"
workloads=(paper-figs service-open service-trace dist-8node)

cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 >&2
bench="$build/e2e_bench"

# The simulated-clock lines of one traced run ("<name> <value> <unit> sim").
sim_lines() {
  "$bench" --workload "$1" --seed "$2" --seconds 1 --trace 1 |
    awk '$NF == "sim"'
}

case "${1:-}" in
  --check)
    status=0
    for w in "${workloads[@]}"; do
      first="$(sim_lines "$w" 1)"
      second="$(sim_lines "$w" 1)"
      if [[ "$first" == "$second" ]]; then
        echo "ok    $w: seed 1 twice, $(wc -l <<<"$first") sim lines identical"
      else
        echo "FAIL  $w: seed 1 twice gave different sim metrics"
        diff <(echo "$first") <(echo "$second") || true
        status=1
      fi
      if [[ "$w" == service-open || "$w" == dist-8node ]]; then
        if [[ "$(sim_lines "$w" 2)" != "$first" ]]; then
          echo "ok    $w: seed 2 changes the sim metrics"
        else
          echo "FAIL  $w: seed 2 gave the same sim metrics as seed 1"
          status=1
        fi
      fi
    done
    exit "$status"
    ;;
  "" | --traced)
    trace=0
    [[ "${1:-}" == --traced ]] && trace=1
    status=0
    for w in "${workloads[@]}"; do
      "$bench" --workload "$w" --seed 1 --seconds 10 --trace "$trace" \
        --spans "$build/spans-$w.json" || status=1
    done
    exit "$status"
    ;;
  *)
    workload=""
    args=("$@")
    for ((i = 0; i + 1 < ${#args[@]}; i++)); do
      [[ "${args[i]}" == --workload ]] && workload="${args[i + 1]}"
    done
    exec "$bench" "$@" --spans "$build/spans-${workload}.json"
    ;;
esac
