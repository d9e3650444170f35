#!/usr/bin/env bash
# Non-test line counts: for every Rust file under crates/*/src, the lines
# before its first `#[cfg(test)]` (the rule scripts/lint-hot-paths.sh uses
# for test modules), then one total per crate and one for the workspace.
# Needs no build; the CI build + test job prints it so every run's log shows
# the counts.
set -euo pipefail

cd "$(dirname "$0")/.."

grand=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    total=0
    while IFS= read -r file; do
        lines=$(awk '/#\[cfg\(test\)\]/ {exit} {n++} END {print n + 0}' "$file")
        printf '%6d  %s\n' "$lines" "$file"
        total=$((total + lines))
    done < <(find "$src" -name '*.rs' | sort)
    printf '%6d  total %s\n' "$total" "$crate"
    grand=$((grand + total))
done
printf '%6d  total crates/*/src\n' "$grand"
