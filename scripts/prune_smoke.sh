#!/usr/bin/env bash
# Static-prune smoke test: `--static-prune` must (a) prove a nonzero
# number of (site, bit) pairs and actually skip trials on every
# benchmark, timing the bit analysis in `bits_secs` (0 unpruned), (b)
# leave per-unit results *identical* to the unpruned campaign — a pruned
# draw keeps its place in the trial stream, so the Wilson CIs are not
# merely overlapping but bit-equal — and (c) checkpoint with prune
# provenance: a `--resume` of a finished pruned run is a byte-identical
# pure replay, and a resume that drops (or adds) `--static-prune`, or
# that meets a log pruned under another recipe, is refused.
set -euo pipefail

BIN=${FLOWERY_BIN:-target/release/flowery}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

ARGS=(crc32 quicksort stringsearch --tiny --trials 2000 --batch 100 --seed 41)

echo "prune-smoke: unpruned reference"
"$BIN" campaign "${ARGS[@]}" --json \
    --metrics-json "$DIR/full-metrics.json" >"$DIR/full.json" 2>/dev/null
grep -q '"bits_pruned_trials_saved": 0' "$DIR/full-metrics.json" \
    || { echo "unpruned run claims pruned trials"; cat "$DIR/full-metrics.json"; exit 1; }

echo "prune-smoke: pruned run"
"$BIN" campaign "${ARGS[@]}" --static-prune --json --checkpoint "$DIR/ckpt.jsonl" \
    --metrics-json "$DIR/pruned-metrics.json" >"$DIR/pruned.json" 2>/dev/null

python3 - "$DIR" <<'EOF'
import json, sys
d = sys.argv[1]
metrics = json.load(open(f"{d}/pruned-metrics.json"))
assert metrics["bits_proven_masked"] > 0, "no (site, bit) pairs proven masked"
assert metrics["bits_secs"] > 0, "the bit analysis was not timed"
full_metrics = json.load(open(f"{d}/full-metrics.json"))
assert full_metrics["bits_secs"] == 0, f'unpruned run timed a bit analysis: {full_metrics["bits_secs"]}'
assert metrics["bits_pruned_trials_saved"] > 0, "no trials pruned"
full = json.load(open(f"{d}/full.json"))
pruned = json.load(open(f"{d}/pruned.json"))
assert len(full) == len(pruned) and full, f"unit count mismatch: {len(full)} vs {len(pruned)}"
asm_pruned = 0
for f, p in zip(full, pruned):
    assert f["key"] == p["key"], (f["key"], p["key"])
    if f["key"]["layer"] == "Asm":
        assert p["pruned"] > 0, f'{f["key"]}: asm unit pruned nothing'
        asm_pruned += p["pruned"]
    else:
        assert p["pruned"] == 0, f'{f["key"]}: non-asm unit claims pruned trials'
    fx = {k: v for k, v in f.items() if k != "pruned"}
    px = {k: v for k, v in p.items() if k != "pruned"}
    assert fx == px, f'{f["key"]}: pruned unit result diverged from the unpruned reference'
print(f"prune-smoke: {len(full)} units identical, "
      f'{metrics["bits_proven_masked"]} pairs proven, {asm_pruned} trials pruned')
EOF

echo "prune-smoke: resume of the finished pruned run is a pure replay"
cp "$DIR/ckpt.jsonl" "$DIR/ckpt.before"
"$BIN" campaign "${ARGS[@]}" --static-prune --resume --checkpoint "$DIR/ckpt.jsonl" \
    --metrics-json "$DIR/resume-metrics.json" >/dev/null 2>&1
cmp "$DIR/ckpt.before" "$DIR/ckpt.jsonl" \
    || { echo "resume rewrote the pruned checkpoint"; exit 1; }
# Replayed trials still count in `trials`; pure replay means nothing
# executed (every batch — IR and pruned Asm alike — came from the log).
grep -q '"exec_insts": 0' "$DIR/resume-metrics.json" \
    || { echo "resume of a finished run executed instructions"; cat "$DIR/resume-metrics.json"; exit 1; }
grep -q '"goldens_run": 0' "$DIR/resume-metrics.json" \
    || { echo "resume re-executed golden runs"; cat "$DIR/resume-metrics.json"; exit 1; }

echo "prune-smoke: mixed-prune resume is refused"
if "$BIN" campaign "${ARGS[@]}" --resume --checkpoint "$DIR/ckpt.jsonl" \
    >/dev/null 2>"$DIR/mixed.log"; then
    echo "resume without --static-prune accepted a pruned checkpoint"
    exit 1
fi
grep -q "static_prune" "$DIR/mixed.log" \
    || { echo "refusal does not name static_prune"; cat "$DIR/mixed.log"; exit 1; }
# The signature of the previous recipe, which decided each draw before it
# ran from a per-site trace capped at 2^22 sites: a log it pruned must not
# be mixed into one pruned where the fault lands, with no cap.
OLD_SIG=13537977836176066103
sed "1s/\"static_prune\":[0-9]*/\"static_prune\":$OLD_SIG/" "$DIR/ckpt.before" >"$DIR/old.jsonl"
head -1 "$DIR/old.jsonl" | grep -q "\"static_prune\":$OLD_SIG" \
    || { echo "could not stamp the previous signature"; head -1 "$DIR/old.jsonl"; exit 1; }
if "$BIN" campaign "${ARGS[@]}" --static-prune --resume --checkpoint "$DIR/old.jsonl" \
    >/dev/null 2>"$DIR/old.log"; then
    echo "resume accepted a checkpoint pruned under the previous recipe"
    exit 1
fi
grep -q "static_prune" "$DIR/old.log" \
    || { echo "refusal of the previous recipe does not name static_prune"; cat "$DIR/old.log"; exit 1; }

echo "prune-smoke: ok"
