#!/usr/bin/env bash
# Non-test line counts: for every Rust file under crates/*/src, the lines
# before its first `#[cfg(test)]` (the rule scripts/lint-hot-paths.sh uses
# for test modules) that does not just declare a module from another file,
# leaving out such declarations, then one total per crate and one for the
# workspace.
# A file whose `mod` declaration sits under `#[cfg(test)]` is test code as a
# whole and is left out. Needs no build; the CI build + test job prints it so
# every run's log shows the counts.
set -euo pipefail

cd "$(dirname "$0")/.."

grand=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    # Files of modules declared `#[cfg(test)] mod name;`, on one line or two:
    # `name.rs` or `name/mod.rs` beside a lib.rs, main.rs or mod.rs, else in
    # the declaring file's own directory.
    test_only=$(find "$src" -name '*.rs' -exec awk '
        FNR == 1 {
            armed = 0
            dir = FILENAME
            sub(/\/[^\/]*$/, "", dir)
            base = FILENAME
            sub(/^.*\//, "", base)
            if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
                sub(/\.rs$/, "", base)
                dir = dir "/" base
            }
        }
        /#\[cfg\(test\)\]/ { armed = 1 }
        armed && match($0, /mod [A-Za-z0-9_]+;/) {
            name = substr($0, RSTART + 4, RLENGTH - 5)
            print dir "/" name ".rs"
            print dir "/" name "/mod.rs"
        }
        !/#\[cfg\(test\)\][[:space:]]*$/ { armed = 0 }
    ' {} +)
    total=0
    while IFS= read -r file; do
        grep -qxF "$file" <<<"$test_only" && continue
        # A `#[cfg(test)] mod name;` declaration (one line or two) is
        # skipped and counting goes on; any other `#[cfg(test)]` ends it.
        lines=$(awk '
            pending { if ($0 ~ /^[[:space:]]*mod [A-Za-z0-9_]+;/) { pending = 0; next } exit }
            /#\[cfg\(test\)\]/ {
                if ($0 ~ /mod [A-Za-z0-9_]+;/) next
                if ($0 ~ /#\[cfg\(test\)\][[:space:]]*$/) { pending = 1; next }
                exit
            }
            { n++ }
            END { print n + 0 }
        ' "$file")
        printf '%6d  %s\n' "$lines" "$file"
        total=$((total + lines))
    done < <(find "$src" -name '*.rs' | sort)
    printf '%6d  total %s\n' "$total" "$crate"
    grand=$((grand + total))
done
printf '%6d  total crates/*/src\n' "$grand"
