#!/usr/bin/env bash
# Runs the benchmark once per seed for each named workload, saving each
# run's output as OUTDIR/<workload>-t<trace>-s<seed>.out, then prints
# every metric's median and quartiles:
#
#   bash perfbench/repeat.sh OUTDIR RUNS FIRST_SEED TRACE SECONDS WORKLOAD...
#
# Run it from the repository root. Save the parent's runs and the
# change's runs in two directories and compare them with
#
#   .bench_build/bin/perfbench summary PARENT_DIR CHANGE_DIR
set -euo pipefail
if (($# < 6)); then
	echo "usage: bash perfbench/repeat.sh OUTDIR RUNS FIRST_SEED TRACE SECONDS WORKLOAD..." >&2
	exit 2
fi
out=$1 runs=$2 seed0=$3 trace=$4 seconds=$5
shift 5
mkdir -p "$out"
for ((i = 0; i < runs; i++)); do
	for w in "$@"; do
		seed=$((seed0 + i))
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
			>"$out/$w-t$trace-s$seed.out" || echo "run $w seed $seed failed (exit $?)" >&2
	done
done
.bench_build/bin/perfbench summary "$out"
