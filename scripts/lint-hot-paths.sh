#!/usr/bin/env bash
# Hot-path panic hygiene: the serving path recovers poisoned locks and
# supervises panics, which only holds while no `.unwrap()` / `.expect(`
# sneaks into non-test er-serve, er-gateway or er-pool library source
# (er-pool's lanes run every pooled scoring batch). Test modules
# (everything from the first `#[cfg(test)]` line down) are exempt, as are the
# CLI binaries under src/bin/ (flag parsing fails loudly by design).
# Needs no build; scripts/kick-tires.sh and the CI panic-hygiene job run it.
set -euo pipefail

cd "$(dirname "$0")/.."

HITS=$(for f in crates/er-serve/src/*.rs crates/er-gateway/src/*.rs crates/er-pool/src/*.rs; do
    awk '/#\[cfg\(test\)\]/ {exit} /\.unwrap\(\)|\.expect\(/ {print FILENAME ":" FNR ": " $0}' "$f"
done)
if [[ -n "$HITS" ]]; then
    echo "unwrap/expect in er-serve/er-gateway/er-pool hot paths (use unwrap_or_else(|e| e.into_inner()) or propagate):" >&2
    echo "$HITS" >&2
    exit 1
fi
echo "er-serve, er-gateway and er-pool hot paths carry no unwrap/expect"
