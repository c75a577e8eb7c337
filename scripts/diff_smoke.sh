#!/usr/bin/env bash
# Incremental-campaign smoke test: a baseline campaign over an
# out-of-tree program, then a one-function edit, then `flowery diff`.
# Asserts (a) exactly the changed region re-runs — one region per unit,
# 5 across the matrix — while everything else is reused, (b) a second
# diff against the composed checkpoint with the source unchanged re-runs
# nothing, and (c) the composed whole-program SDC estimate agrees with a
# from-scratch campaign of the edited program within the combined 95%
# Wilson intervals.
set -euo pipefail

BIN=${FLOWERY_BIN:-target/release/flowery}
DIR=$(mktemp -d)
cleanup() { rm -rf "$DIR"; }
trap cleanup EXIT

cat > "$DIR/probe.mc" <<'EOF'
int helper(int x) { return x * 3 + 1; }
int main() {
    int s = 0;
    int i;
    for (i = 0; i < 10; i = i + 1) { s = s + helper(i); }
    output(s);
    return 0;
}
EOF

# DIFF_SMOKE_ARGS appends flags to every campaign and diff below; CI runs
# the script a second time with `--executor native --static-prune`.
read -r -a EXTRA <<< "${DIFF_SMOKE_ARGS:-}"
ARGS=(--src "$DIR/probe.mc" --tiny --trials 2000 --batch 100 --seed 7 --threads 2 ${EXTRA[@]+"${EXTRA[@]}"})

echo "diff-smoke: baseline campaign"
"$BIN" campaign "${ARGS[@]}" --checkpoint "$DIR/base.jsonl" >/dev/null 2>&1

echo "diff-smoke: edit one function, diff against the baseline"
sed -i.bak 's/x \* 3 + 1/x * 3 + 2/' "$DIR/probe.mc"
"$BIN" diff "${ARGS[@]}" --baseline "$DIR/base.jsonl" --out "$DIR/composed.jsonl" \
    --metrics-json "$DIR/diff-metrics.json" > "$DIR/diff.out" 2>/dev/null

# One edited function, 5 units: exactly 5 of the 10 regions re-run.
grep -q '"regions_total": 10' "$DIR/diff-metrics.json" \
    || { echo "unexpected region count"; cat "$DIR/diff-metrics.json"; exit 1; }
grep -q '"regions_rerun": 5' "$DIR/diff-metrics.json" \
    || { echo "diff did not re-run exactly the changed region per unit"; cat "$DIR/diff-metrics.json"; exit 1; }
grep -q '"regions_reused": 5' "$DIR/diff-metrics.json" \
    || { echo "diff did not reuse the unchanged regions"; cat "$DIR/diff-metrics.json"; exit 1; }
grep -qE '"region_trials_saved": [1-9]' "$DIR/diff-metrics.json" \
    || { echo "diff saved no trials"; cat "$DIR/diff-metrics.json"; exit 1; }
# Region-scoped re-runs are ordinary trials: they restore snapshots.
grep -qE '"ff_ratio": 0\.[0-9]*[1-9]' "$DIR/diff-metrics.json" \
    || { echo "scoped re-runs did not fast-forward"; cat "$DIR/diff-metrics.json"; exit 1; }
echo "diff-smoke: 5/10 regions re-ran (the edited function, once per unit)"

echo "diff-smoke: second diff against the composed checkpoint is a no-op"
"$BIN" diff "${ARGS[@]}" --baseline "$DIR/composed.jsonl" \
    --metrics-json "$DIR/noop-metrics.json" >/dev/null 2>/dev/null
grep -q '"regions_rerun": 0' "$DIR/noop-metrics.json" \
    || { echo "no-op diff re-ran regions"; cat "$DIR/noop-metrics.json"; exit 1; }
grep -q '"trials": 0' "$DIR/noop-metrics.json" \
    || { echo "no-op diff executed trials"; cat "$DIR/noop-metrics.json"; exit 1; }

echo "diff-smoke: composed estimate vs from-scratch campaign (Wilson CI)"
"$BIN" campaign "${ARGS[@]}" --checkpoint "$DIR/scratch.jsonl" > "$DIR/scratch.out" 2>/dev/null
awk '/^probe\// { gsub(/%|pp/, ""); print $1, $3, $4 }' "$DIR/scratch.out" | sort > "$DIR/scratch.tsv"
awk '/^probe\/.* sdc / { gsub(/%|±|pp/, ""); print $1, $3, $4 }' "$DIR/diff.out" | sort > "$DIR/diff.tsv"
UNITS=$(wc -l < "$DIR/diff.tsv")
[ "$UNITS" -eq 5 ] || { echo "expected 5 composed units, saw $UNITS"; cat "$DIR/diff.out"; exit 1; }
join "$DIR/scratch.tsv" "$DIR/diff.tsv" | awk '
    { gap = $2 - $4; if (gap < 0) gap = -gap; tol = $3 + $5;
      printf "  %-28s scratch %6.2f%% ±%.2f  composed %6.2f%% ±%.2f\n", $1, $2, $3, $4, $5;
      if (gap > tol) { printf "  CI MISMATCH for %s: gap %.2f > combined ci %.2f\n", $1, gap, tol; bad = 1 } }
    END { exit bad }' \
    || { echo "composed estimate disagrees with the from-scratch campaign"; exit 1; }

echo "diff-smoke: ok"
