#!/usr/bin/env bash
# Static-lint smoke gate: run `flowery lint --validate` across all 16
# workloads at each pass config and fail on any missed SDC site or any
# unexpected finding class at Flowery-100.
#
# Gates:
#   every config — soundness: each SDC site the 2000-trial validation
#                 campaign measures is statically flagged;
#   raw         — no IR invariant findings (no checkers, nothing to lint);
#   id-100      — must run; findings are expected (foldable checkers are
#                 exactly the comparison penetration being demonstrated);
#   flowery-100 — zero branch predictions anywhere; zero comparison
#                 predictions and zero findings everywhere EXCEPT
#                 stringsearch, whose anti_cmp residual (FoldableChecker
#                 findings + matching comparison predictions) is a known,
#                 cross-validated gap — no other finding kind is allowed
#                 even there.
set -euo pipefail

BIN=${FLOWERY_BIN:-target/release/flowery}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

WORKLOADS=(backprop bfs pathfinder lud needle knn ep cg is fft2
           quicksort basicmath susan crc32 stringsearch patricia)

for w in "${WORKLOADS[@]}"; do
    for pass in raw id flowery; do
        "$BIN" lint "$w" --pass-config "$pass" --level 1.0 --validate --trials 2000 --format json \
            > "$DIR/$w.$pass.json"
    done
    echo "lint-smoke: $w ok"
done

python3 - "$DIR" <<'EOF'
import json, pathlib, sys

root = pathlib.Path(sys.argv[1])
errors = []

for path in sorted(root.glob("*.json")):
    out = json.loads(path.read_text())
    bench, pcfg = out["bench"], out["pass_config"]
    findings = out["findings"]
    bd = out["report"]["breakdown"]
    v = out["validation"]

    if v["flagged_measured"] != v["measured_sites"]:
        errors.append(f"{bench}/{pcfg}: {v['flagged_measured']}/{v['measured_sites']} measured SDC sites flagged")

    if pcfg == "Raw" and findings:
        errors.append(f"{bench}/raw: {len(findings)} findings in unprotected code")

    if pcfg == "Flowery":
        if bd["branch"] != 0:
            errors.append(f"{bench}/flowery: {bd['branch']} branch predictions")
        kinds = {f["kind"] for f in findings}
        if bench == "stringsearch":
            if extra := kinds - {"FoldableChecker"}:
                errors.append(f"{bench}/flowery: unexpected finding kinds {sorted(extra)}")
        else:
            if findings:
                errors.append(f"{bench}/flowery: {len(findings)} findings {sorted(kinds)}")
            if bd["comparison"] != 0:
                errors.append(f"{bench}/flowery: {bd['comparison']} comparison predictions")

for e in errors:
    print(f"lint-smoke FAIL: {e}", file=sys.stderr)
sys.exit(1 if errors else 0)
EOF

echo "lint-smoke: all gates passed"
