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
BINARIES=(table2 fig9 fig10 fig11 fig12 fig13 fig14 ablation)

# Timings are the Criterion benches' and perfbench's; the serving stack is
# attested by the workspace tests (`cargo test --workspace`).

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

scripts/lint-hot-paths.sh

echo "kick-tires OK"
