#!/usr/bin/env bash
# Builds the benchmark once and runs the whole set in a fixed order: the
# three workloads untraced, then the three traced runs, with the default
# seed and then a second seed. Prints the wall time of the set against
# the contract's per-run cap.
#
#   benchmark/run.sh            # from the repository root
#   SECONDS_PER_RUN=12 benchmark/run.sh
#
# The contract gives the driver 3420 s for 4 + 22 x 3 = 70 runs and two
# builds, about 47 s a run; a 30 s window measures 40 s end to end, so
# the window stays at six 5 s segments and it is the traced run that
# measures a third of it.
set -euo pipefail
cd "$(dirname "$0")/.."

seconds="${SECONDS_PER_RUN:-30}"
cap_per_run=47
bin="benchmark/out/benchmark.bin"
mkdir -p benchmark/out
go build -o "$bin" ./benchmark

workloads=(steady-day saturate-day weather-churn)
set_start=$(date +%s)
runs=0
status=0
for seed in 1 2; do
  for trace in 0 1; do
    for w in "${workloads[@]}"; do
      run_start=$(date +%s)
      echo "=== $w seed $seed trace $trace"
      if ! "$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace "$trace" | grep -v '^{'; then
        status=1
      fi
      took=$(( $(date +%s) - run_start ))
      runs=$(( runs + 1 ))
      note=""
      if (( took > cap_per_run )); then note="  OVER THE ${cap_per_run} s PER-RUN CAP"; fi
      echo "--- $w seed $seed trace $trace took ${took} s${note}"
    done
  done
done
total=$(( $(date +%s) - set_start ))
echo "set of $runs runs took ${total} s; the contract allows $(( runs * cap_per_run )) s for as many"
exit $status
