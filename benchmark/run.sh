#!/usr/bin/env bash
# Build the benchmark package offline and run it. This is the `command` of
# /BENCHMARK.json; every argument goes to the binary unchanged:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N]           every workload -> benchmark/out/results.json
#   benchmark/run.sh --aa                 the whole set twice; must agree within bounds
#   benchmark/run.sh --check-cli          staged repetition vs `flowery campaign`
#   benchmark/run.sh --pin [--workload W] regenerate benchmark/expected/*.json (slow)
#   benchmark/run.sh --lint               fmt + clippy on this package (root CI skips it)
#
# In a directory without the repository around it the build fails and so
# does this script, before anything is printed to standard output.
set -euo pipefail
cd "$(dirname "$0")/.."

# The driver names the target directory; default to the same one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest=benchmark/Cargo.toml

for arg in "$@"; do
    if [ "$arg" = "--lint" ]; then
        cargo fmt --manifest-path "$manifest" --check
        cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
        exit 0
    fi
done

cargo build --release --offline --quiet --manifest-path "$manifest" >&2

extra=()
for arg in "$@"; do
    if [ "$arg" = "--check-cli" ]; then
        # The root package's own binary, built with the root manifest.
        cargo build --release --offline --quiet --bin flowery >&2
        extra=(--cli "$CARGO_TARGET_DIR/release/flowery")
    fi
done

exec "$CARGO_TARGET_DIR/release/campaign-ledger" "$@" ${extra[@]+"${extra[@]}"}
