#!/usr/bin/env bash
# Study smoke gate: `flowery study` is `flowery campaign` with the report
# rendered as the paper's Table 1 and figures on stdout, and the §7.3 pass
# time (a timing) on stderr only. So (a) the figures are byte-identical on
# the default engine and under `--executor native --static-prune`, (b) the
# checkpoint a study writes is byte-identical to the one `flowery campaign`
# writes for the same arguments, (c) `--resume` on the sealed checkpoint
# reprints the figures without executing an instruction or a golden run, and
# (d) a study interrupted with SIGINT prints the resume hint and no figures,
# exits non-zero, and resumes to the same figures as an uninterrupted run,
# and (e) the selection profile partial levels select by is sealed in the
# checkpoint: one `Profile` line per program, counted in `--metrics-json`,
# none at `--levels 1.0`, and none for a program whose profile a SIGINT
# cut short — that study resumes to the uninterrupted figures too.
set -euo pipefail

BIN=${FLOWERY_BIN:-target/release/flowery}
DIR=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

ARGS=(crc32 is --tiny --trials 200 --levels 0.5,1.0)

echo "study-smoke: default engine vs native + static prune"
"$BIN" study "${ARGS[@]}" --checkpoint "$DIR/a.jsonl" >"$DIR/a.out" 2>"$DIR/a.log"
"$BIN" study "${ARGS[@]}" --executor native --static-prune --checkpoint "$DIR/b.jsonl" \
    >"$DIR/b.out" 2>"$DIR/b.log"
grep -q '^| average IR-vs-assembly gap ' "$DIR/a.out" \
    || { echo "study printed no Figure 2"; cat "$DIR/a.out" "$DIR/a.log"; exit 1; }
{ head -n 1 "$DIR/a.out" | grep -qx '## Table 1 — benchmark inventory' \
    && sed -n 3p "$DIR/a.out" | grep -qx '| Benchmark *| *Suite *| *Domain *| *DI (IR) *| *DI (asm) *|'; } \
    || { echo "study stdout does not open with Table 1"; cat "$DIR/a.out"; exit 1; }
grep -q 'average Flowery pass time' "$DIR/a.log" \
    || { echo "study printed no §7.3 pass time on stderr"; cat "$DIR/a.log"; exit 1; }
! grep -q 'average Flowery pass time' "$DIR/a.out" \
    || { echo "the §7.3 timing leaked into stdout"; cat "$DIR/a.out"; exit 1; }
cmp "$DIR/a.out" "$DIR/b.out" || { echo "figures differ between engines"; exit 1; }

echo "study-smoke: a study is a campaign"
"$BIN" campaign "${ARGS[@]}" --checkpoint "$DIR/c.jsonl" >/dev/null 2>"$DIR/c.log"
cmp "$DIR/a.jsonl" "$DIR/c.jsonl" || { echo "study and campaign checkpoints differ"; exit 1; }

echo "study-smoke: --resume on the sealed checkpoint is a pure replay"
"$BIN" study "${ARGS[@]}" --checkpoint "$DIR/a.jsonl" --resume \
    --metrics-json "$DIR/replay-metrics.json" >"$DIR/replay.out" 2>"$DIR/replay.log"
cmp "$DIR/a.out" "$DIR/replay.out" || { echo "replayed figures differ"; exit 1; }
for counter in '"exec_insts": 0' '"goldens_run": 0'; do
    grep -q "$counter" "$DIR/replay-metrics.json" \
        || { echo "replay is not pure: want $counter"; cat "$DIR/replay-metrics.json"; exit 1; }
done

# Enough batches that the SIGINT below lands mid-run (the leg still passes
# if a fast machine finishes first — that is just a complete study).
LONG=(crc32 is --tiny --trials 8000 --batch 50 --levels 0.5,1.0)

echo "study-smoke: uninterrupted reference"
"$BIN" study "${LONG[@]}" >"$DIR/ref.out" 2>"$DIR/ref.log"

echo "study-smoke: interrupted run"
"$BIN" study "${LONG[@]}" --checkpoint "$DIR/int.jsonl" >"$DIR/int.out" 2>"$DIR/int.log" &
RUN=$!
for _ in $(seq 600); do
    kill -0 "$RUN" 2>/dev/null || break
    [ "$(grep -c '"batch"' "$DIR/int.jsonl" 2>/dev/null || true)" -ge 40 ] && break
    sleep 0.05
done
kill -INT "$RUN" 2>/dev/null || true
if wait "$RUN"; then
    echo "study-smoke: the run finished before the SIGINT"
else
    grep -q 'resume with: flowery study' "$DIR/int.log" \
        || { echo "interrupted study printed no resume hint"; cat "$DIR/int.log"; exit 1; }
    grep -q 'partial report' "$DIR/int.log" \
        || { echo "interrupted study did not refuse the partial report"; cat "$DIR/int.log"; exit 1; }
    [ ! -s "$DIR/int.out" ] || { echo "interrupted study printed figures"; cat "$DIR/int.out"; exit 1; }
fi

echo "study-smoke: resume"
"$BIN" study "${LONG[@]}" --checkpoint "$DIR/int.jsonl" --resume >"$DIR/resumed.out" 2>"$DIR/resumed.log"
cmp "$DIR/ref.out" "$DIR/resumed.out" || { echo "resumed figures differ from the reference"; exit 1; }

echo "study-smoke: (e) one Profile line per program, its trials counted"
"$BIN" study "${ARGS[@]}" --checkpoint "$DIR/p.jsonl" --metrics-json "$DIR/p-metrics.json" >/dev/null 2>&1
cmp "$DIR/a.jsonl" "$DIR/p.jsonl" || { echo "two cold studies sealed different checkpoints"; exit 1; }
python3 - "$DIR/p.jsonl" "$DIR/p-metrics.json" <<'PY'
import json, sys
records = [json.loads(line) for line in open(sys.argv[1])]
profiles = [r["Profile"] for r in records if "Profile" in r]
assert sorted(p["program"] for p in profiles) == ["crc32", "is"], "want one Profile line per program"
batches = sum(sum(r["Batch"]["counts"].values()) for r in records if "Batch" in r)
want = batches + sum(p["trials"] for p in profiles)
got = json.load(open(sys.argv[2]))["trials"]
assert got == want, f"--metrics-json trials {got}, want {want} (campaign + profile)"
PY
"$BIN" campaign crc32 is --tiny --trials 200 --levels 1.0 --checkpoint "$DIR/full.jsonl" >/dev/null 2>&1
! grep -q '^{"Profile"' "$DIR/full.jsonl" || { echo "a --levels 1.0 campaign wrote a Profile line"; exit 1; }

# A long selection profile (100,000 trials per program) before a short
# campaign (the CI target stops its units early), so that the SIGINT lands
# in the profile pass.
PROF=(crc32 is --tiny --trials 300000 --ci-target 0.05 --levels 0.5,1.0)

echo "study-smoke: (e) profile reference"
"$BIN" study "${PROF[@]}" --checkpoint "$DIR/pref.jsonl" >"$DIR/pref.out" 2>/dev/null

echo "study-smoke: (e) interrupted in the selection profile"
"$BIN" study "${PROF[@]}" --checkpoint "$DIR/pint.jsonl" >"$DIR/pint.out" 2>"$DIR/pint.log" &
RUN=$!
for _ in $(seq 600); do
    grep -q ', profiling' "$DIR/pint.log" 2>/dev/null && break
    sleep 0.02
done
kill -INT "$RUN" 2>/dev/null || true
if wait "$RUN"; then
    echo "study-smoke: the run finished before the SIGINT"
else
    grep -q 'resume with: flowery study' "$DIR/pint.log" \
        || { echo "interrupted study printed no resume hint"; cat "$DIR/pint.log"; exit 1; }
    grep -q 'partial report' "$DIR/pint.log" \
        || { echo "interrupted study did not refuse the partial report"; cat "$DIR/pint.log"; exit 1; }
    [ ! -s "$DIR/pint.out" ] || { echo "interrupted study printed figures"; exit 1; }
fi
# Only finished profiles are recorded: every Profile line left is the
# reference's, byte for byte.
{ grep '^{"Profile"' "$DIR/pint.jsonl" || true; } | while read -r line; do
    grep -qxF "$line" "$DIR/pref.jsonl" || { echo "an unfinished profile was recorded"; exit 1; }
done

echo "study-smoke: (e) resume"
"$BIN" study "${PROF[@]}" --checkpoint "$DIR/pint.jsonl" --resume >"$DIR/presumed.out" 2>/dev/null
cmp "$DIR/pref.out" "$DIR/presumed.out" || { echo "resumed figures differ from the reference"; exit 1; }
cmp "$DIR/pref.jsonl" "$DIR/pint.jsonl" || { echo "resumed checkpoint differs from the reference"; exit 1; }

echo "study-smoke: all gates passed"
