#!/usr/bin/env bash
# Explore smoke gate: a trimmed design-space sweep — 2 workloads x 3 fault
# models x {Raw, Id, Flowery} x parity on/off — asserting that every
# per-workload Pareto frontier is non-empty, sorted by ascending cost with
# strictly increasing coverage, dominates every off-frontier point, and
# that the whole report is byte-deterministic across two runs (the second
# with a different thread count and snapshots disabled, which must not
# change results either). Last, the pin: regenerating the checked-in
# `BENCH_explore.json` (3 workloads x 4 models x 4 detector sets at 600
# trials, standard scale) must leave it byte-identical — the sweep's
# detector sets are scored from one detector-free pass per model, and this
# holds that scoring to the per-trial numbers the file was recorded with.
set -euo pipefail

BIN=${FLOWERY_BIN:-target/release/flowery}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

ARGS=(crc32 quicksort --tiny --trials 200
      --models single-bit-reg,multi-bit-4,control-flow
      --detectors none,parity
      --levels 1.0)

"$BIN" explore "${ARGS[@]}" --threads 2 --out "$DIR/a" > "$DIR/a.table"
"$BIN" explore "${ARGS[@]}" --threads 3 --no-snapshots --out "$DIR/b" > "$DIR/b.table"

diff -u "$DIR/a/explore.json" "$DIR/b/explore.json" \
    || { echo "explore-smoke FAIL: report not deterministic" >&2; exit 1; }
diff -u "$DIR/a.table" "$DIR/b.table" \
    || { echo "explore-smoke FAIL: rendered table not deterministic" >&2; exit 1; }

python3 - "$DIR/a" <<'EOF'
import json, pathlib, sys

root = pathlib.Path(sys.argv[1])
errors = []
files = sorted(root.glob("explore_*.json"))
if len(files) != 2:
    errors.append(f"expected 2 per-workload files, found {len(files)}")

for path in files:
    w = json.loads(path.read_text())
    bench = w["bench"]
    if len(w["models"]) != 3:
        errors.append(f"{bench}: expected 3 models, got {len(w['models'])}")
    for m in w["models"]:
        model, frontier, points = m["fault_model"], m["frontier"], m["points"]
        if not frontier:
            errors.append(f"{bench}/{model}: empty frontier")
            continue
        costs = [p["cost_permille"] for p in frontier]
        covs = [p["coverage"] for p in frontier]
        if costs != sorted(costs):
            errors.append(f"{bench}/{model}: frontier not monotone in cost: {costs}")
        if any(b <= a for a, b in zip(covs, covs[1:])):
            errors.append(f"{bench}/{model}: frontier coverage not strictly increasing: {covs}")
        # Raw at zero detectors is the origin: cost 0 must open the frontier.
        if costs[0] != 0:
            errors.append(f"{bench}/{model}: frontier does not start at cost 0: {costs}")
        # Every off-frontier point must be dominated by some frontier point.
        for p in points:
            if p["on_frontier"]:
                continue
            if not any(f["cost_permille"] <= p["cost_permille"] and f["coverage"] >= p["coverage"]
                       for f in frontier):
                errors.append(f"{bench}/{model}: non-dominated point off frontier")
        # parity on/off over 3 variants = 6 points per model.
        if len(points) != 6:
            errors.append(f"{bench}/{model}: expected 6 points, got {len(points)}")

for e in errors:
    print(f"explore-smoke FAIL: {e}", file=sys.stderr)
sys.exit(1 if errors else 0)
EOF

cargo run --release --quiet --example explore_pareto >/dev/null 2>&1 \
    || { echo "explore-smoke FAIL: explore_pareto did not run" >&2; exit 1; }
git diff --exit-code --stat BENCH_explore.json \
    || { echo "explore-smoke FAIL: BENCH_explore.json no longer regenerates byte-identically" >&2; exit 1; }

echo "explore-smoke: all gates passed"
