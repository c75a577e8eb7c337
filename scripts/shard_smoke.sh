#!/usr/bin/env bash
# Multi-host smoke test: a campaign run as shards of the same command —
# disjoint slices of the plan, each with its own checkpoint, possibly on
# different hosts or engines — and merged with `cat` + one `--resume` over
# the whole plan must seal a checkpoint byte-identical to a single-process
# `flowery campaign`, without executing a trial in the merge step
# (DESIGN §6). Six legs:
#   (a) shards by program list; (b) shards by `--levels`;
#   (c) one shard on the native JIT, the other on the default engine;
#   (d) a shard of another `--seed` is refused by name, never merged;
#   (e) `flowery diff --out` shards merge the same way;
#   (f) shards merged without their snapshot stores replay from the
#       checkpoints' golden records alone: no golden run, no byte read.
set -euo pipefail

BIN=${FLOWERY_BIN:-target/release/flowery}
DIR=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

SCHED=(--tiny --trials 120 --batch 30 --seed 4242)
HALF_A=(crc32 is)
HALF_B=(quicksort)
ALL=("${HALF_A[@]}" "${HALF_B[@]}")

# merge OUT SHARD...: `cat` the shard checkpoints into OUT and pool their
# snapshot stores under OUT.snaps/ (files are named by content hash).
merge() {
    local out=$1
    shift
    cat "$@" > "$out"
    mkdir -p "$out.snaps"
    for shard in "$@"; do cp "$shard.snaps"/* "$out.snaps/"; done
}

# replayed METRICS: the merge step executed nothing.
replayed() {
    for counter in exec_insts goldens_run snap_captures observations; do
        grep -q "\"$counter\": 0" "$1" || { echo "merge step did work ($counter)"; cat "$1"; exit 1; }
    done
}

echo "shard-smoke: single-process reference"
"$BIN" campaign "${ALL[@]}" "${SCHED[@]}" --checkpoint "$DIR/ref.jsonl" >/dev/null 2>&1

echo "shard-smoke: (a) two concurrent shards by program list"
"$BIN" campaign "${HALF_A[@]}" "${SCHED[@]}" --checkpoint "$DIR/a.jsonl" >/dev/null 2>&1 &
A=$!
"$BIN" campaign "${HALF_B[@]}" "${SCHED[@]}" --checkpoint "$DIR/b.jsonl" >/dev/null 2>&1 &
B=$!
wait "$A"
wait "$B"
merge "$DIR/m.jsonl" "$DIR/a.jsonl" "$DIR/b.jsonl"
"$BIN" campaign "${ALL[@]}" "${SCHED[@]}" --checkpoint "$DIR/m.jsonl" --resume \
    --metrics-json "$DIR/m-metrics.json" >/dev/null 2>&1
cmp "$DIR/ref.jsonl" "$DIR/m.jsonl"
replayed "$DIR/m-metrics.json"

echo "shard-smoke: (b) two concurrent shards by --levels"
"$BIN" campaign "${ALL[@]}" "${SCHED[@]}" --levels 0.5,1.0 --checkpoint "$DIR/lref.jsonl" >/dev/null 2>&1
"$BIN" campaign "${ALL[@]}" "${SCHED[@]}" --levels 0.5 --checkpoint "$DIR/l5.jsonl" >/dev/null 2>&1 &
A=$!
"$BIN" campaign "${ALL[@]}" "${SCHED[@]}" --levels 1.0 --checkpoint "$DIR/l10.jsonl" >/dev/null 2>&1 &
B=$!
wait "$A"
wait "$B"
merge "$DIR/lm.jsonl" "$DIR/l5.jsonl" "$DIR/l10.jsonl"
"$BIN" campaign "${ALL[@]}" "${SCHED[@]}" --levels 0.5,1.0 --checkpoint "$DIR/lm.jsonl" --resume \
    --metrics-json "$DIR/lm-metrics.json" >/dev/null 2>&1
cmp "$DIR/lref.jsonl" "$DIR/lm.jsonl"
replayed "$DIR/lm-metrics.json"

echo "shard-smoke: (c) shards on different engines"
# The merged file keeps its first header, so the shard whose informational
# fields (`exec_mode`) should be sealed goes first.
"$BIN" campaign "${HALF_B[@]}" "${SCHED[@]}" --executor native --checkpoint "$DIR/bn.jsonl" >/dev/null 2>&1
merge "$DIR/mx.jsonl" "$DIR/a.jsonl" "$DIR/bn.jsonl"
"$BIN" campaign "${ALL[@]}" "${SCHED[@]}" --checkpoint "$DIR/mx.jsonl" --resume \
    --metrics-json "$DIR/mx-metrics.json" >/dev/null 2>&1
cmp "$DIR/ref.jsonl" "$DIR/mx.jsonl"
replayed "$DIR/mx-metrics.json"

echo "shard-smoke: (d) a shard of another seed is refused by name"
"$BIN" campaign "${HALF_B[@]}" "${SCHED[@]/4242/4243}" --checkpoint "$DIR/bs.jsonl" >/dev/null 2>&1
# The foreign shard goes first, so the header the resume asks for is the
# file's *last*: a loader that kept the last header would seal seed-4243
# records under it.
cat "$DIR/bs.jsonl" "$DIR/a.jsonl" > "$DIR/ms.jsonl"
if "$BIN" campaign "${ALL[@]}" "${SCHED[@]}" --checkpoint "$DIR/ms.jsonl" --resume >/dev/null 2>"$DIR/ms.err"; then
    echo "a mixed-seed merge resumed"
    exit 1
fi
grep -q "seed: 4242 here, 4243 in the file's first header" "$DIR/ms.err" \
    || { echo "the refusal does not name the seed"; cat "$DIR/ms.err"; exit 1; }
cmp "$DIR/ms.jsonl" <(cat "$DIR/bs.jsonl" "$DIR/a.jsonl") || { echo "a refused merge was rewritten"; exit 1; }

echo "shard-smoke: (e) diff shards"
cat > "$DIR/p1.mc" <<'EOF'
int helper(int x) { return x * 3 + 1; }
int main() {
    int s = 0;
    int i;
    for (i = 0; i < 10; i = i + 1) { s = s + helper(i); }
    output(s);
    return 0;
}
EOF
sed 's/< 10/< 14/' "$DIR/p1.mc" > "$DIR/p2.mc"
"$BIN" campaign --src "$DIR/p1.mc" --src "$DIR/p2.mc" "${SCHED[@]}" --checkpoint "$DIR/base.jsonl" >/dev/null 2>&1
sed -i 's/x \* 3 + 1/x * 3 + 2/' "$DIR/p1.mc" "$DIR/p2.mc"
"$BIN" diff --src "$DIR/p1.mc" --src "$DIR/p2.mc" "${SCHED[@]}" --baseline "$DIR/base.jsonl" \
    --out "$DIR/done.jsonl" >/dev/null 2>&1
"$BIN" diff --src "$DIR/p1.mc" "${SCHED[@]}" --baseline "$DIR/base.jsonl" --out "$DIR/d1.jsonl" >/dev/null 2>&1 &
A=$!
"$BIN" diff --src "$DIR/p2.mc" "${SCHED[@]}" --baseline "$DIR/base.jsonl" --out "$DIR/d2.jsonl" >/dev/null 2>&1 &
B=$!
wait "$A"
wait "$B"
cat "$DIR/d1.jsonl" "$DIR/d2.jsonl" > "$DIR/dm.jsonl"
# The concatenation is the one-process file plus the second shard's header line.
awk 'NR == 1 || !/^\{"Header"/' "$DIR/dm.jsonl" | cmp - "$DIR/done.jsonl"
"$BIN" diff --src "$DIR/p1.mc" --src "$DIR/p2.mc" "${SCHED[@]}" --baseline "$DIR/dm.jsonl" \
    --out "$DIR/dm2.jsonl" --metrics-json "$DIR/dm-metrics.json" >/dev/null 2>&1
grep -q '"regions_rerun": 0' "$DIR/dm-metrics.json" && grep -q '"trials": 0' "$DIR/dm-metrics.json" \
    || { echo "the merged diff is not a no-op baseline"; cat "$DIR/dm-metrics.json"; exit 1; }
cmp "$DIR/dm2.jsonl" "$DIR/done.jsonl"

echo "shard-smoke: (f) shards merged without their snapshot stores"
cat "$DIR/a.jsonl" "$DIR/b.jsonl" > "$DIR/ns.jsonl"
"$BIN" campaign "${ALL[@]}" "${SCHED[@]}" --checkpoint "$DIR/ns.jsonl" --resume \
    --metrics-json "$DIR/ns-metrics.json" >/dev/null 2>&1
cmp "$DIR/ref.jsonl" "$DIR/ns.jsonl"
replayed "$DIR/ns-metrics.json"
grep -q '"snap_bytes_read": 0' "$DIR/ns-metrics.json" \
    || { echo "the store-less merge read snapshot bytes"; cat "$DIR/ns-metrics.json"; exit 1; }

echo "shard-smoke: merged checkpoints are byte-identical to the single-process runs"
