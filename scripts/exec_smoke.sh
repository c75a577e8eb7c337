#!/usr/bin/env bash
# Execution-engine smoke test: the same campaign run under the three
# executor settings — `--executor interp` (the threaded-code engine's
# bookkept loop, every instruction through `step()`), `--executor
# compiled` (its fast loop, the default) and `--executor native` (the
# x86-64 JIT) — must produce byte-identical trial results. Only the
# checkpoint header may differ — it records which setting produced the
# log as provenance. The reference semantics are not a setting: they are
# the from-boot interpreter `tests/exec_equivalence.rs` checks all three
# against. The native engine is also exercised with
# `FLOWERY_JIT_FORCE_FALLBACK=1`, which must degrade gracefully to the
# compiled engine without changing a single record.
set -euo pipefail

BIN=${FLOWERY_BIN:-target/release/flowery}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

ARGS=(crc32 quicksort --tiny --trials 120 --batch 30 --seed 4242)

echo "exec-smoke: campaign under --executor interp"
"$BIN" campaign "${ARGS[@]}" --executor interp \
    --checkpoint "$DIR/interp.jsonl" --metrics-json "$DIR/interp-metrics.json" >/dev/null

echo "exec-smoke: campaign under --executor compiled"
"$BIN" campaign "${ARGS[@]}" --executor compiled \
    --checkpoint "$DIR/compiled.jsonl" --metrics-json "$DIR/compiled-metrics.json" >/dev/null

echo "exec-smoke: campaign under --executor native"
"$BIN" campaign "${ARGS[@]}" --executor native \
    --checkpoint "$DIR/native.jsonl" --metrics-json "$DIR/native-metrics.json" >/dev/null

# The metrics must attribute each run to the engine that produced it.
grep -q '"exec_mode": *"interp"' "$DIR/interp-metrics.json"
grep -q '"exec_mode": *"compiled"' "$DIR/compiled-metrics.json"
grep -q '"exec_mode": *"native"' "$DIR/native-metrics.json"
echo "exec-smoke: metrics attribute the engines correctly"

# On a JIT-capable host the native metrics must report compiled programs
# and no fallbacks; on any other host every program falls back (and the
# records below still must match).
if [ "$(uname -sm)" = "Linux x86_64" ]; then
    grep -Eq '"jit_programs": *[1-9]' "$DIR/native-metrics.json"
    grep -q '"jit_fallbacks": *0' "$DIR/native-metrics.json"
    echo "exec-smoke: native run reports JIT compiles and zero fallbacks"
fi

# Headers differ only in the recorded engine; every batch record — the
# actual trial outcomes — must match byte for byte.
cmp <(tail -n +2 "$DIR/interp.jsonl") <(tail -n +2 "$DIR/compiled.jsonl")
cmp <(tail -n +2 "$DIR/interp.jsonl") <(tail -n +2 "$DIR/native.jsonl")
echo "exec-smoke: batch records are byte-identical across engines"

# A campaign begun under one engine must resume under another: the
# header treats exec_mode as provenance, not schedule.
cp "$DIR/interp.jsonl" "$DIR/resume.jsonl"
"$BIN" campaign "${ARGS[@]}" --executor compiled --resume \
    --checkpoint "$DIR/resume.jsonl" >/dev/null
cmp <(tail -n +2 "$DIR/interp.jsonl") <(tail -n +2 "$DIR/resume.jsonl")
cp "$DIR/compiled.jsonl" "$DIR/resume-native.jsonl"
"$BIN" campaign "${ARGS[@]}" --executor native --resume \
    --checkpoint "$DIR/resume-native.jsonl" >/dev/null
cmp <(tail -n +2 "$DIR/interp.jsonl") <(tail -n +2 "$DIR/resume-native.jsonl")
echo "exec-smoke: cross-engine resume leaves the records unchanged"

# Forced fallback: `--executor native` with the JIT disabled must route
# every trial through the compiled engine, log the fallback in the
# metrics, and still produce byte-identical records.
echo "exec-smoke: campaign under --executor native (forced fallback)"
FLOWERY_JIT_FORCE_FALLBACK=1 "$BIN" campaign "${ARGS[@]}" --executor native \
    --checkpoint "$DIR/fallback.jsonl" --metrics-json "$DIR/fallback-metrics.json" >/dev/null
grep -Eq '"jit_fallbacks": *[1-9]' "$DIR/fallback-metrics.json"
grep -q 'forced' "$DIR/fallback-metrics.json"
cmp <(tail -n +2 "$DIR/interp.jsonl") <(tail -n +2 "$DIR/fallback.jsonl")
echo "exec-smoke: forced fallback degrades gracefully, records unchanged"
