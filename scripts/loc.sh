#!/usr/bin/env bash
# Non-test line count: for every .rs file under crates/*/src and src, the
# lines before its first `#[cfg(test)]` (the whole file when it has none).
# Prints one row per crate (the root package is `flowery`) and the total —
# the number CHANGES.md quotes for simplicity PRs.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' | sort | while read -r f; do
    case "$f" in crates/*) crate=${f#crates/}; crate=${crate%%/*} ;; *) crate=flowery ;; esac
    echo "$crate $(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")"
done | awk '{ per[$1] += $2; total += $2 }
    END { for (c in per) printf "%-12s %6d\n", c, per[c] | "sort"; close("sort"); printf "%-12s %6d\n", "total", total }'
