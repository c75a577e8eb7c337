#!/usr/bin/env bash
# EXPERIMENTS.md check: every block the document quotes between
# `<!-- printed: CMD -->` and `<!-- end -->` must be CMD's stdout, byte for
# byte, and every decimal percentage the prose before the engineering
# ledger quotes must appear in some printed block. CMD is `flowery ARGS`
# (the release binary) or `cargo run --release --example NAME -- ARGS` (the
# built example). Each command runs in a fresh scratch directory, since
# `explore_pareto` writes `BENCH_explore.json` into its working directory.
# Needs `cargo build --release --bins --examples` first.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$PWD
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

python3 - "$ROOT" "$DIR" <<'EOF'
import os, re, subprocess, sys

root, scratch = sys.argv[1], sys.argv[2]
doc = open(os.path.join(root, "EXPERIMENTS.md"), encoding="utf-8").read()
BLOCK = re.compile(r"^<!-- printed: ([^\n]+) -->\n(.*?)^<!-- end -->\n", re.S | re.M)
blocks = BLOCK.findall(doc)
errors = []
if not blocks:
    errors.append("no printed blocks")

for n, (cmd, quoted) in enumerate(blocks):
    if m := re.fullmatch(r"flowery (.*)", cmd):
        argv = [os.path.join(root, "target/release/flowery")] + m[1].split()
    elif m := re.fullmatch(r"cargo run --release --example (\w+)(?: -- (.*))?", cmd):
        argv = [os.path.join(root, "target/release/examples", m[1])] + (m[2] or "").split()
    else:
        errors.append(f"`{cmd}`: not a flowery or example command")
        continue
    cwd = os.path.join(scratch, str(n))
    os.mkdir(cwd)
    print(f"experiments-check: {cmd}", flush=True)
    out = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True).stdout
    if out != quoted.encode("utf-8"):
        printed = out.decode("utf-8", "replace").splitlines()
        for i, (a, b) in enumerate(zip(printed + [""], quoted.splitlines() + [""])):
            if a != b:
                errors.append(f"`{cmd}` line {i + 1}: prints {a!r}, the document quotes {b!r}")
                break

# Prose before the ledger quotes only percentages some block prints.
prose = BLOCK.sub("", doc)
prose = prose.split("\n## Engineering ledger")[0]
printed = "".join(quoted for _, quoted in blocks)
for pct in sorted({p.replace(" ", "") for p in re.findall(r"\d+\.\d+ ?%", prose)}):
    if pct not in printed:
        errors.append(f"the prose quotes {pct}, which no printed block holds")

for e in errors:
    print(f"experiments-check FAIL: {e}", file=sys.stderr)
if errors:
    sys.exit(1)
print(f"experiments-check: {len(blocks)} printed blocks match their commands")
EOF
