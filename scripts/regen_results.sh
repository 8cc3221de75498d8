#!/usr/bin/env bash
# Regenerate every committed artifact under results/ from scratch.
# Usage: scripts/regen_results.sh
# Every text artifact is one `bench <experiment>` run (see `bench --help`).
# Worker threads per run default to the machine's parallelism;
# override with ASCOMA_JOBS=N.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
start=$SECONDS
run() { echo ">> $*" >&2; cargo run --release -q -p ascoma-bench --bin "$@"; }
bench() { run bench -- "$@"; }

bench figures                    > results/figures.txt
bench figures --csv              > results/figures.csv
bench figures --chart            > results/figures_chart.txt
bench table1 --app em3d,radix --pressure 0.1,0.5,0.9 > results/table1.txt
bench table2                     > results/table2.txt
bench table3                     > results/table3.txt
bench table4                     > results/table4.txt
bench table5                     > results/table5.txt
bench table6                     > results/table6.txt
run inspect                      > results/inspect.txt
bench ablation_alloc             > results/ablation_alloc.txt
bench ablation_backoff           > results/ablation_backoff.txt
bench ablation_controller --size tiny --app em3d,ocean,radix --pressure 0.3,0.7,0.9 \
    > results/ablation_controller.txt
bench ablation_rac --app fft,em3d > results/ablation_rac.txt
bench ablation_replication       > results/ablation_replication.txt
bench ablation_threshold         > results/ablation_threshold.txt
bench ablation_costs             > results/ablation_costs.txt
bench ablation_interconnect      > results/ablation_interconnect.txt
bench ablation_associativity     > results/ablation_associativity.txt
bench scaling                    > results/scaling.txt
bench validate_claims            > results/validate_claims.txt
# --progress: one line per completed cell with wall-clock + ETA, so the
# long full-grid baseline is no longer a silent minute of work.
run perf_baseline -- --check --progress --out BENCH_perf.json
run perf_baseline -- --grid reduced --check --progress --out results/BENCH_perf_reduced.json
echo "done; results/ refreshed in $((SECONDS - start))s total wall-clock" >&2
