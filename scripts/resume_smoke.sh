#!/usr/bin/env bash
# Resume smoke test: a campaign interrupted with SIGINT and resumed with
# `--resume` must (a) execute nothing fault-free — no golden run, no
# snapshot capture, no site observation: the persisted `<checkpoint>.snaps/`
# store serves sets, goldens and site logs — and (b) leave a compacted
# checkpoint byte-identical to an uninterrupted run. A second resume over
# the same store, with one stored set stamped as an older format version,
# must name the refusal on stderr, recapture exactly that set and end
# byte-identical too. Resuming the sealed checkpoint once more reads no
# snapshot file and leaves it byte-identical, and a sealed `study` resumes
# with its golden counts from the checkpoint alone — 0 snapshot bytes read
# and 0 golden runs, with `.snaps/` present and with it removed — printing
# the cold run's stdout byte for byte. Also checks that
# `--no-snapshots` leaves no `.snaps` directory, that a campaign of 40
# trials per unit keeps no more than 40 snapshots per captured set, and that
# a stray `.snap` file and a writer's `.tmp-*` leftover planted in the store
# survive an interrupted run and are removed by the next clean seal.
set -euo pipefail

BIN=${FLOWERY_BIN:-target/release/flowery}
DIR=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

# Enough batches that the SIGINT below lands mid-run (the run still
# passes if a fast machine finishes first — that's just a pure replay).
ARGS=(crc32 quicksort --tiny --trials 20000 --batch 50 --seed 99)

echo "resume-smoke: uninterrupted reference"
"$BIN" campaign "${ARGS[@]}" --checkpoint "$DIR/ref.jsonl" \
    --metrics-json "$DIR/ref-metrics.json" >/dev/null 2>"$DIR/ref.log"
for counter in goldens_run observations; do
    grep -q "\"$counter\": 0" "$DIR/ref-metrics.json" \
        || { echo "reference run executed a pass besides the captures ($counter)"; cat "$DIR/ref-metrics.json"; exit 1; }
done

echo "resume-smoke: interrupted run"
# A set no unit of this matrix is keyed by, and a torn write's leftover.
STRAYS=("$DIR/ckpt.jsonl.snaps/asm-00000000deadbeef.snap" "$DIR/ckpt.jsonl.snaps/.tmp-0-0")
mkdir -p "$DIR/ckpt.jsonl.snaps"
for f in "${STRAYS[@]}"; do echo stray >"$f"; done
"$BIN" campaign "${ARGS[@]}" --checkpoint "$DIR/ckpt.jsonl" \
    >/dev/null 2>"$DIR/int.log" &
RUN=$!

# Every unit must have captured (and persisted) its snapshot set before
# the interrupt, or the resume legitimately captures the stragglers. A
# unit's first checkpointed batch implies its set was captured, so poll
# until every unit appears in the log, then SIGINT (graceful drain).
UNITS=""
for _ in $(seq 300); do
    UNITS=$(grep -oE '\[harness\] [0-9]+ units' "$DIR/int.log" | head -1 | grep -oE '[0-9]+' || true)
    [ -n "$UNITS" ] && break
    sleep 0.1
done
[ -n "$UNITS" ] || { echo "never saw the unit count"; cat "$DIR/int.log"; exit 1; }
for _ in $(seq 600); do
    kill -0 "$RUN" 2>/dev/null || break
    SEEN=$(grep -oE '"unit":\{[^}]*\}' "$DIR/ckpt.jsonl" 2>/dev/null | sort -u | wc -l || true)
    [ "$SEEN" -ge "$UNITS" ] && break
    sleep 0.05
done
if kill -0 "$RUN" 2>/dev/null; then
    echo "resume-smoke: SIGINT after all $UNITS units checkpointed a batch"
    kill -INT "$RUN"
fi
wait "$RUN" || true
test -d "$DIR/ckpt.jsonl.snaps" || { echo "no snapshot store was persisted"; exit 1; }
if grep -q 'interrupted:' "$DIR/int.log"; then
    for f in "${STRAYS[@]}"; do
        [ -e "$f" ] || { echo "an interrupted run deleted $f from the store"; exit 1; }
    done
fi
# The same store under a checkpoint cut back to each unit's first batch, so
# that every unit still has trials to run (and so asks for its set) however
# far the run above got before the SIGINT.
{ head -n 1 "$DIR/ckpt.jsonl"; grep '"batch":0,' "$DIR/ckpt.jsonl"; } >"$DIR/stamped.jsonl"
cp -r "$DIR/ckpt.jsonl.snaps" "$DIR/stamped.jsonl.snaps"
for f in "${STRAYS[@]}"; do rm -f "$DIR/stamped.jsonl.snaps/$(basename "$f")"; done

echo "resume-smoke: resume"
"$BIN" campaign "${ARGS[@]}" --checkpoint "$DIR/ckpt.jsonl" --resume \
    --metrics-json "$DIR/resume-metrics.json" >/dev/null 2>"$DIR/resume.log"

# The whole point: the resumed run loads every snapshot set from disk, and
# with it the golden and the site log the seal's region records read; it
# writes no snapshot file.
for counter in snap_captures goldens_run observations snap_bytes_written; do
    grep -q "\"$counter\": 0" "$DIR/resume-metrics.json" \
        || { echo "resume executed a fault-free pass or rewrote a set ($counter)"; cat "$DIR/resume-metrics.json"; exit 1; }
done
grep -qE '"snap_bytes_read": [1-9]' "$DIR/resume-metrics.json" \
    || { echo "resume read no snapshot file"; cat "$DIR/resume-metrics.json"; exit 1; }
grep -q '"snaps_kept": 0,' "$DIR/resume-metrics.json" && grep -q '"snap_capture_secs": 0.0,' "$DIR/resume-metrics.json" \
    || { echo "resume reports capture work"; cat "$DIR/resume-metrics.json"; exit 1; }

cmp "$DIR/ref.jsonl" "$DIR/ckpt.jsonl"
echo "resume-smoke: resumed checkpoint is byte-identical to the reference"
for f in "${STRAYS[@]}"; do
    [ ! -e "$f" ] || { echo "the clean seal left $f in the store"; ls -a "$DIR/ckpt.jsonl.snaps"; exit 1; }
done
diff <(ls -A "$DIR/ref.jsonl.snaps") <(ls -A "$DIR/ckpt.jsonl.snaps") \
    || { echo "the sealed store holds other files than the reference's"; exit 1; }
echo "resume-smoke: the clean seal removed the stray set and the leftover"

echo "resume-smoke: resume the sealed checkpoint"
# Every batch replays and every unit's region record and golden record is in
# the log, so no runner is built and no snapshot file read. The sealed file
# does not change.
"$BIN" campaign "${ARGS[@]}" --checkpoint "$DIR/ckpt.jsonl" --resume \
    --metrics-json "$DIR/sealed-metrics.json" >/dev/null 2>"$DIR/sealed.log"
for counter in snap_loads snap_bytes_read snap_captures goldens_run observations snap_bytes_written; do
    grep -q "\"$counter\": 0" "$DIR/sealed-metrics.json" \
        || { echo "a sealed resume read a set or executed a pass ($counter)"; cat "$DIR/sealed-metrics.json"; exit 1; }
done
cmp "$DIR/ref.jsonl" "$DIR/ckpt.jsonl"
echo "resume-smoke: sealed resume read no snapshot file and left the file byte-identical"

echo "resume-smoke: a sealed study answers from its checkpoint alone"
STUDY=(crc32 is quicksort --tiny --trials 300)
"$BIN" study "${STUDY[@]}" --checkpoint "$DIR/study.jsonl" >"$DIR/study-cold.out" 2>/dev/null
for leg in store no-store; do
    [ "$leg" = no-store ] && rm -rf "$DIR/study.jsonl.snaps"
    "$BIN" study "${STUDY[@]}" --checkpoint "$DIR/study.jsonl" --resume \
        --metrics-json "$DIR/study-$leg.json" >"$DIR/study-$leg.out" 2>/dev/null
    for counter in snap_bytes_read goldens_run; do
        grep -q "\"$counter\": 0" "$DIR/study-$leg.json" \
            || { echo "sealed study resume ($leg) read or ran a golden ($counter)"; cat "$DIR/study-$leg.json"; exit 1; }
    done
    cmp "$DIR/study-cold.out" "$DIR/study-$leg.out"
done
echo "resume-smoke: sealed study resumed with and without its store, stdout byte-identical"

echo "resume-smoke: resume over a store holding a version-4 set"
# Format version: the u32 after the 8-byte magic; the trailing u64 is the
# FNV-1a of everything before it. Version 4 is what stores written before
# format 5 hold.
STAMPED=$(python3 - "$DIR/stamped.jsonl.snaps" <<'EOF'
import os, sys
path = os.path.join(sys.argv[1], sorted(os.listdir(sys.argv[1]))[0])
body = bytearray(open(path, "rb").read()[:-8])
body[8:12] = (4).to_bytes(4, "little")
h = 0xcbf29ce484222325
for b in body:
    h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
open(path, "wb").write(bytes(body) + h.to_bytes(8, "little"))
print(path)
EOF
)
"$BIN" campaign "${ARGS[@]}" --checkpoint "$DIR/stamped.jsonl" --resume \
    --metrics-json "$DIR/stamped-metrics.json" >/dev/null 2>"$DIR/stamped.log"
grep -qF "[harness] snapshot set $STAMPED refused: snapshot file: unsupported format version 4 (expected 5); recapturing" \
    "$DIR/stamped.log" || { echo "no refusal line for $STAMPED"; cat "$DIR/stamped.log"; exit 1; }
[ "$(grep -c 'refused:' "$DIR/stamped.log")" -eq 1 ] \
    || { echo "expected exactly one refusal line"; cat "$DIR/stamped.log"; exit 1; }
grep -q '"snap_captures": 1' "$DIR/stamped-metrics.json" \
    || { echo "the refused set was not recaptured exactly once"; cat "$DIR/stamped-metrics.json"; exit 1; }
cmp "$DIR/ref.jsonl" "$DIR/stamped.jsonl"
echo "resume-smoke: refused set recaptured, checkpoint byte-identical to the reference"

echo "resume-smoke: a set keeps no more snapshots than its unit has trials"
# Uncapped, these two programs' sets hold 783 snapshots in 10 captures.
"$BIN" campaign lud needle --tiny --trials 40 --batch 20 --seed 99 --checkpoint "$DIR/small.jsonl" \
    --metrics-json "$DIR/small-metrics.json" >/dev/null 2>&1
read -r CAPTURES KEPT < <(python3 -c 'import json, sys; m = json.load(open(sys.argv[1])); print(m["snap_captures"], m["snaps_kept"])' \
    "$DIR/small-metrics.json")
[ "$CAPTURES" -gt 0 ] && [ "$KEPT" -gt 0 ] && [ "$KEPT" -le $((40 * CAPTURES)) ] \
    || { echo "snaps_kept $KEPT for $CAPTURES captures of 40-trial units"; cat "$DIR/small-metrics.json"; exit 1; }
echo "resume-smoke: $KEPT snapshots kept by $CAPTURES captures"

echo "resume-smoke: --no-snapshots leaves no store behind"
"$BIN" campaign "${ARGS[@]}" --no-snapshots --checkpoint "$DIR/nosnap.jsonl" >/dev/null 2>&1
if [ -e "$DIR/nosnap.jsonl.snaps" ]; then
    echo "--no-snapshots left an orphan .snaps directory"
    exit 1
fi
echo "resume-smoke: ok"
