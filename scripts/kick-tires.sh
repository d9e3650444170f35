#!/usr/bin/env bash
# Smoke tier ("kick the tires"): build er-bench in release mode, then run
# every er-bench figure/table binary at its smallest usable configuration,
# writing each binary's output under out/. Completes in a couple of minutes on
# a laptop; CI runs it on every push. The full reproduction tier lives in
# scripts/full.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

# Smallest workload scale at which every pipeline stage still has data
# (non-empty splits, mislabeled pairs to rank, rules to generate).
SCALE="${KICK_TIRES_SCALE:-0.012}"
OUT=out/kick-tires
BINARIES=(table2 fig9 fig10 fig11 fig12 fig13 fig14 ablation train_bench)

# train_bench and fig13 also emit machine-readable results (the BENCH_*.json
# perf trajectory); keep them at stable paths so future PRs can diff
# training and scalability performance. The serving stack is attested by
# the workspace tests (`cargo test --workspace`) and timed by perfbench.
export TRAIN_BENCH_JSON=out/train_bench.json
export FIG13_JSON=out/fig13.json

echo "== kick-tires: release build =="
cargo build --release -p er-bench

rm -rf "$OUT"
mkdir -p "$OUT"

echo "== kick-tires: running ${#BINARIES[@]} binaries at scale $SCALE =="
for bin in "${BINARIES[@]}"; do
    echo "-- $bin"
    ./target/release/"$bin" "$SCALE" >"$OUT/$bin.txt"
done

echo "== kick-tires: outputs =="
ls -l "$OUT"
test -s "$TRAIN_BENCH_JSON" || { echo "missing $TRAIN_BENCH_JSON" >&2; exit 1; }
test -s "$FIG13_JSON" || { echo "missing $FIG13_JSON" >&2; exit 1; }
echo "train_bench JSON at $TRAIN_BENCH_JSON"
echo "fig13 JSON at $FIG13_JSON"

# Every leaf train_bench and fig13 gate is typed (see er_bench::gate), so
# bench_diff against the committed baseline catches a shrunk series or a
# missing file: an attestation failure (exit 3) or a setup error (2) fails
# this tier. A perf regression (1) only warns — dev hardware legitimately
# differs from the baseline machine, and the CI perf-gate job runs the same
# diff fatally.
echo "== kick-tires: bench_diff vs out/baseline =="
DIFF_STATUS=0
./target/release/bench_diff || DIFF_STATUS=$?
case $DIFF_STATUS in
    0) ;;
    1) echo "kick-tires: WARNING — bench_diff reported perf regressions; CI perf-gate will fail" ;;
    *) echo "bench_diff failed with exit $DIFF_STATUS (3 = attestation failed, 2 = setup error)" >&2; exit 1 ;;
esac

scripts/lint-hot-paths.sh

echo "kick-tires OK"
