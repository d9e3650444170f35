#!/usr/bin/env bash
# Full reproduction tier: the complete test suite, every figure/table binary at
# the default experiment scale, and the Criterion component/figure benches.
# Expect this to run for a while (tens of minutes at the default scale); the
# quick smoke tier is scripts/kick-tires.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

# The binaries default to scale 0.05; raise FULL_SCALE toward 1.0 to approach
# the paper's dataset sizes (runtime grows roughly quadratically in scale).
SCALE="${FULL_SCALE:-0.05}"
OUT=out/full
BINARIES=(table2 fig9 fig10 fig11 fig12 fig13 fig14 ablation train_bench)

export TRAIN_BENCH_JSON="$OUT/train_bench.json"
export FIG13_JSON="$OUT/fig13.json"

echo "== full: release build =="
cargo build --release --workspace

echo "== full: workspace tests =="
cargo test -q --workspace --release

rm -rf "$OUT"
mkdir -p "$OUT"

echo "== full: running ${#BINARIES[@]} binaries at scale $SCALE =="
for bin in "${BINARIES[@]}"; do
    echo "-- $bin"
    ./target/release/"$bin" "$SCALE" | tee "$OUT/$bin.txt"
done

echo "== full: component and figure benches =="
cargo bench --workspace | tee "$OUT/bench.txt"

echo "== full: outputs =="
ls -l "$OUT"
echo "full reproduction OK"
