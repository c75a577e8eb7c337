//! What the command can do besides tracing: the timed run the driver
//! calls, the whole set (`--all`), A/A (`--aa`), pinning (`--pin`) and the
//! CLI mirror check (`--check-cli`).

use crate::catalog::{unit_of, END_TO_END, PER_LAYER};
use crate::staged::{copy_dir, prepare_resume, run_rep, set_up, Rep};
use crate::stats::{json_field, median, peak_rss_mb};
use crate::verify::{expected_path, fingerprints, load_expected, mismatches, reference_check, reference_config};
use crate::workloads::{Workload, DEFAULT_SEED, THREADS, WORKLOADS};
use crate::{work_dir, Metrics, RunResult, OUT_DIR};
use flowery::backend::{jit_stats, ExecMode};
use flowery::harness::{load_checkpoint_full, run_units, GoldenCache, RunOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json`: how long one run keeps starting
/// repetitions.
pub const DEFAULT_SECONDS: u64 = 10;
/// Repetitions every run makes, however slow the machine.
const MIN_REPS: usize = 3;
/// Extra set-up-only stages after the repetitions, so `setup_s` is a
/// median of more samples where set-up is short.
const EXTRA_SETUP_BUDGET: Duration = Duration::from_millis(1500);
const REFERENCE_BUDGET: Duration = Duration::from_millis(1500);

pub fn timed(w: &Workload, seed: u64, seconds: Duration) -> Result<RunResult, String> {
    let work = work_dir()?;
    let result = timed_in(w, seed, seconds, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Units of `rep` that did not produce what they must.
fn failed_units(
    rep: &Rep,
    first: &Rep,
    pinned: Option<&crate::verify::Fingerprints>,
    uninterrupted: Option<&[u8]>,
) -> Result<BTreeSet<String>, String> {
    let mut bad: BTreeSet<String> = rep.report.pending.iter().map(|k| k.id()).collect();
    let got = fingerprints(&rep.report.units);
    bad.extend(mismatches(&fingerprints(&first.report.units), &got));
    if let Some(pinned) = pinned {
        bad.extend(mismatches(pinned, &got));
    }
    // `pruned` is not in the fingerprint (see verify.rs) but must repeat.
    for (a, b) in first.report.units.iter().zip(&rep.report.units) {
        if a.pruned != b.pruned || b.pruned > b.counts.benign {
            bad.insert(b.key.id());
        }
    }
    if let Some(want) = uninterrupted {
        let got = std::fs::read(&rep.checkpoint).map_err(|e| format!("read checkpoint: {e}"))?;
        let m = &rep.report.metrics;
        if got != want || m.snap_captures != 0 || m.goldens_run != 0 {
            eprintln!(
                "[ledger] resume broke its contract: checkpoint identical = {}, snap_captures = {}, goldens_run = {}",
                got == want,
                m.snap_captures,
                m.goldens_run
            );
            bad.extend(rep.units.iter().map(|u| u.key.id()));
        }
    }
    Ok(bad)
}

fn timed_in(w: &Workload, seed: u64, seconds: Duration, work: &Path) -> Result<RunResult, String> {
    let pinned = load_expected(w, seed)?;
    let prep = work.join("prep");
    let uninterrupted = if w.resume { Some(prepare_resume(w, seed, &prep)?) } else { None };
    let fresh_dir = |name: String| -> Result<std::path::PathBuf, String> {
        let dir = work.join(name);
        if w.resume {
            copy_dir(&prep, &dir)?;
        }
        Ok(dir)
    };

    let mut reps: Vec<Rep> = Vec::new();
    let mut audit = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut measured = 0.0;
    while reps.len() < MIN_REPS || measured < seconds.as_secs_f64() {
        let dir = fresh_dir(format!("rep{}", reps.len()))?;
        let rep = run_rep(w, seed, &dir)?;
        measured += rep.wall_s;
        if reps.is_empty() {
            audit = load_checkpoint_full(&rep.checkpoint)?.1;
        }
        let bad = failed_units(&rep, reps.first().unwrap_or(&rep), pinned.as_ref(), uninterrupted.as_deref())?;
        for id in &bad {
            eprintln!("[ledger] {} rep {}: unit {id} failed", w.name, reps.len());
        }
        attempted += rep.units.len() as u64;
        failed += bad.len() as u64;
        eprintln!(
            "[ledger] {} rep {}: wall {:.3}s = set-up {:.3}s + run {:.3}s, {} decided / {} executed trials",
            w.name,
            reps.len(),
            rep.wall_s,
            rep.setup_s,
            rep.run_s,
            rep.decided_trials,
            rep.executed_trials
        );
        let _ = std::fs::remove_dir_all(&dir);
        reps.push(rep);
    }
    let peak_rss = peak_rss_mb();

    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let extra = Instant::now();
    while extra.elapsed() < EXTRA_SETUP_BUDGET {
        let dir = fresh_dir(format!("setup{}", setups.len()))?;
        setups.push(set_up(w, seed, &dir)?.setup_s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let (checked, bad) = reference_check(w, seed, &reps[0].units, &audit, REFERENCE_BUDGET);
    for id in &bad {
        eprintln!("[ledger] {}: unit {id} differs from its reference execution", w.name);
    }
    failed += bad.len() as u64;
    let fallbacks = jit_stats().fallbacks;
    if w.executor == Some(ExecMode::Native) && fallbacks > 0 {
        eprintln!("[ledger] {}: {fallbacks} program(s) fell back from the native engine", w.name);
        failed += fallbacks;
    }
    eprintln!(
        "[ledger] {}: {} repetitions, {} set-up samples, {checked} units re-executed under the reference configuration{}",
        w.name,
        reps.len(),
        setups.len(),
        if pinned.is_some() { ", all compared with the pinned fingerprints" } else { "" }
    );

    let last = reps.last().expect("at least MIN_REPS repetitions");
    let over = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut metrics = Metrics::new();
    let mut put = |name: &str, value: f64| metrics.insert(name.to_string(), (value, unit_of(name)));
    put("campaign_wall_s", over(|r| r.wall_s));
    put("setup_s", median(&setups));
    put("trials_per_s", over(|r| r.decided_trials as f64 / r.run_s));
    put("peak_rss_mb", peak_rss);
    put("disk_mb", (last.checkpoint_bytes + last.snaps_bytes) as f64 / 1e6);
    Ok(RunResult { attempted, failed: failed.min(attempted), metrics })
}

struct Parsed {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    line: String,
}

/// Run one workload in a child process (one process per workload keeps
/// `peak_rss_mb` clean) and parse its result line.
fn run_child(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Result<Parsed, String> {
    let args = [
        "--workload".to_string(),
        w.name.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let ok = out.status.success();
    let line = String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string();
    let bad = |what: &str| format!("{}: {what}: {line}", w.name);
    let root = flowery::serde_json::value_from_str(&line).map_err(|e| bad(&e.to_string()))?;
    let field = |name: &str| json_field(&root, name);
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics").and_then(|m| m.as_map()).ok_or_else(|| bad("no metrics"))? {
        let value = json_field(m, "value")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| bad("metric without a value"))?;
        metrics.insert(name.clone(), value);
    }
    let correct = ok && field("correct").and_then(|c| c.as_bool()) == Some(true);
    Ok(Parsed { correct, metrics, line })
}

/// Every workload, untraced, one process each; results to
/// `benchmark/out/results.json`.
pub fn all(seed: u64, seconds: u64) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let parsed = run_child(w, seed, seconds, false)?;
        for (name, value) in &parsed.metrics {
            println!("{} {name} {value} {}", w.name, unit_of(name));
        }
        ok &= parsed.correct;
        rows.push(format!("    \"{}\": {}", w.name, parsed.line));
    }
    let json = format!("{{\n  \"seed\": {seed},\n  \"workloads\": {{\n{}\n  }}\n}}\n", rows.join(",\n"));
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("[ledger] wrote {}", path.display());
    Ok(ok)
}

/// Per-layer counts that must repeat exactly between two runs of one
/// build. `executed_trials` is left out: how far an adaptive unit
/// overshoots its stop point depends on thread timing.
fn exact_layer_metrics() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .filter(|m| matches!(m.unit, "count" | "B") && m.name != "harness.executed_trials")
        .map(|m| m.name)
}

/// A/A: the whole set twice on one build. Fails if an end-to-end metric
/// differs between the two by more than its bound, or an exact count
/// differs at all.
pub fn aa(seed: u64, seconds: u64) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        let (a, b) = (run_child(w, seed, seconds, false)?, run_child(w, seed, seconds, false)?);
        ok &= a.correct && b.correct;
        for m in &END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            let diff = (x - y).abs() / x.min(y);
            let verdict = if diff <= m.bound { "ok" } else { "DIFFERS" };
            println!("{} {} {x} {y} {} diff {diff:.4} bound {} {verdict}", w.name, m.name, m.unit, m.bound);
            ok &= diff <= m.bound;
        }
        let (ta, tb) = (run_child(w, seed, seconds, true)?, run_child(w, seed, seconds, true)?);
        ok &= ta.correct && tb.correct;
        for name in exact_layer_metrics() {
            if ta.metrics[name] != tb.metrics[name] {
                println!("{} {name} {} {} {} DIFFERS", w.name, ta.metrics[name], tb.metrics[name], unit_of(name));
                ok = false;
            }
        }
        let overhead = "harness.trace_overhead_frac";
        println!("{} {overhead} {} {}", w.name, ta.metrics[overhead], unit_of(overhead));
    }
    println!("A/A {}", if ok { "agrees" } else { "DISAGREES" });
    Ok(ok)
}

/// Regenerate `expected/<workload>.json` at the default seed, under the
/// reference configuration. Slow (minutes per workload): the reference
/// engine re-executes every trial from the program's first instruction.
pub fn pin(only: Option<&Workload>) -> Result<(), String> {
    for w in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o.name == w.name)) {
        let cfg = reference_config(w, DEFAULT_SEED);
        let units = w.units(DEFAULT_SEED);
        let started = Instant::now();
        let report = run_units(&units, &cfg, &GoldenCache::new(), RunOptions::default());
        if !report.pending.is_empty() || report.error.is_some() {
            return Err(format!("{}: reference run did not finish", w.name));
        }
        let path = expected_path(w);
        let text = crate::verify::render_expected(w, DEFAULT_SEED, &fingerprints(&report.units));
        std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "[ledger] pinned {} units of {} in {:.0}s -> {}",
            report.units.len(),
            w.name,
            started.elapsed().as_secs_f64(),
            path.display()
        );
    }
    Ok(())
}

/// The `flowery campaign` flags equivalent to `w` at the default seed.
fn cli_flags(w: &Workload, checkpoint: &Path) -> Vec<String> {
    assert!(w.layer.is_none() && !w.resume, "the CLI cannot restrict the layer or cut a checkpoint");
    assert_eq!(
        w.profile_trials,
        (w.max_trials / 3).max(100),
        "the CLI derives profile trials from --trials"
    );
    let levels: Vec<String> = w.levels.iter().map(|l| l.to_string()).collect();
    let mut flags: Vec<String> = ["campaign", "--levels", &levels.join(",")].map(String::from).to_vec();
    flags.extend(w.benches.iter().map(|b| b.to_string()));
    let mut opt = |name: &str, value: String| flags.extend([name.to_string(), value]);
    opt("--trials", w.max_trials.to_string());
    opt("--batch", w.batch.to_string());
    opt("--threads", THREADS.to_string());
    opt("--seed", DEFAULT_SEED.to_string());
    opt("--checkpoint", checkpoint.display().to_string());
    if let Some(e) = w.executor {
        opt("--executor", e.name().to_string());
    }
    if let Some(ci) = w.ci_target {
        opt("--ci-target", ci.to_string());
    }
    if w.static_prune {
        flags.push("--static-prune".to_string());
    }
    flags
}

/// Mirror-drift guard: the staged repetition and `flowery campaign` with
/// equivalent flags must leave byte-identical checkpoints, and the CLI's
/// process wall-clock must be within 10 % of the staged `campaign_wall_s`
/// (medians of three each, alternating).
pub fn check_cli(cli: &Path) -> Result<bool, String> {
    let w = crate::workloads::by_name("sweep_setup").expect("sweep_setup is a workload");
    let work = work_dir()?;
    let (mut staged, mut process) = (Vec::new(), Vec::new());
    let mut identical = true;
    for i in 0..3 {
        let rep = run_rep(w, DEFAULT_SEED, &work.join(format!("staged{i}")))?;
        staged.push(rep.wall_s);
        let dir = work.join(format!("cli{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let checkpoint = dir.join("campaign.jsonl");
        let started = Instant::now();
        let status = Command::new(cli)
            .args(cli_flags(w, &checkpoint))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("run {}: {e}", cli.display()))?;
        process.push(started.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("{} campaign exited with {status}", cli.display()));
        }
        let read = |p: &Path| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
        identical &= read(&rep.checkpoint)? == read(&checkpoint)?;
        let _ = std::fs::remove_dir_all(rep.checkpoint.parent().expect("checkpoint sits in a directory"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&work);
    let (s, p) = (median(&staged), median(&process));
    let gap = (p - s).abs() / s;
    println!("check-cli checkpoint_identical {identical}");
    println!("check-cli staged_campaign_wall_s {s} s");
    println!("check-cli cli_process_wall_s {p} s");
    println!("check-cli gap {gap:.4} ratio (limit 0.10)");
    Ok(identical && gap <= 0.10)
}
