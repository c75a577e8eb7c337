//! End-to-end engine guarantees: thread-count invariance, agreement with
//! the single-campaign primitives (a serial fold of `TrialRunner` trials),
//! checkpoint/resume equivalence, and deterministic adaptive early stopping.

use flowery_harness::{
    build_matrix, load_checkpoint, open, refused_note, region_records, run_units, seal, write_canonical, BatchRecord,
    CheckpointLog, Control, GoldenCache, HarnessConfig, Layer, MatrixSpec, RunOptions, SnapshotStore, TrialUnit,
    UnitKey, UnitResult, Variant,
};
use flowery_harness::{matrix_fingerprint, plan_matrix, CacheStats, ProfileRecord};
use flowery_inject::{AsmTrialRunner, IrTrialRunner, ModelSpec};
use flowery_ir::interp::ExecConfig;
use flowery_ir::Module;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[path = "../../../tests/common/serial_fold.rs"]
mod serial_fold;
use serial_fold::serial_fold;

const SRC_A: &str =
    "int main() { int s = 0; int i; for (i = 0; i < 25; i = i + 1) { s = s + i * i; } output(s); return s % 251; }";
const SRC_B: &str =
    "int main() { int p = 1; int i; for (i = 1; i < 12; i = i + 1) { p = p * i % 1009; } output(p); return p % 17; }";

fn module(src: &str) -> Arc<Module> {
    Arc::new(flowery_lang::compile("t", src).unwrap())
}

fn small_matrix() -> Vec<TrialUnit> {
    let backend = flowery_backend::BackendConfig::default();
    let a = module(SRC_A);
    let b = module(SRC_B);
    let a_prog = Arc::new(flowery_backend::compile_module(&a, &backend));
    let b_prog = Arc::new(flowery_backend::compile_module(&b, &backend));
    vec![
        TrialUnit::ir(UnitKey::new("a", Variant::Raw, 0.0, Layer::Ir), a.clone()),
        TrialUnit::asm(UnitKey::new("a", Variant::Raw, 0.0, Layer::Asm), a, a_prog),
        TrialUnit::ir(UnitKey::new("b", Variant::Raw, 0.0, Layer::Ir), b.clone()),
        TrialUnit::asm(UnitKey::new("b", Variant::Raw, 0.0, Layer::Asm), b, b_prog),
    ]
}

fn cfg(trials: u64, batch: u64, threads: usize) -> HarnessConfig {
    HarnessConfig {
        batch_size: batch,
        max_trials: trials,
        min_trials: trials.min(100),
        ci_target: None,
        seed: 0xABCD,
        threads,
        ..Default::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("flowery-harness-it-{}-{name}.jsonl", std::process::id()))
}

fn serialized(units: &[UnitResult]) -> String {
    serde_json::to_string(&units.to_vec()).unwrap()
}

#[test]
fn results_are_byte_identical_across_thread_counts() {
    let units = small_matrix();
    let cache1 = GoldenCache::new();
    let cache4 = GoldenCache::new();
    let r1 = run_units(&units, &cfg(300, 64, 1), &cache1, RunOptions::default());
    let r4 = run_units(&units, &cfg(300, 64, 4), &cache4, RunOptions::default());
    assert!(!r1.interrupted && !r4.interrupted);
    assert_eq!(r1.units.len(), 4);
    // The acceptance bar: serialized results match byte for byte.
    assert_eq!(serialized(&r1.units), serialized(&r4.units));
}

#[test]
fn engine_matches_single_campaign_primitives_and_hits_cache() {
    let units = small_matrix();
    let cache = GoldenCache::new();
    let hcfg = cfg(400, 100, 2);
    let report = run_units(&units, &hcfg, &cache, RunOptions::default());

    let exec = ExecConfig::default();
    let mut runner = IrTrialRunner::new(&units[0].module, &exec);
    let ir = serial_fold(&mut runner, hcfg.seed, 400, ModelSpec::SingleBitReg);
    let u = &report.units[0];
    assert_eq!(u.counts, ir.counts, "batched IR unit equals the serial fold");
    assert_eq!(u.sdc_by_inst, ir.sdc_by_inst);
    assert_eq!(u.golden_sites, runner.sites());

    let mut runner = AsmTrialRunner::new(&units[1].module, units[1].program.as_ref().unwrap(), &exec);
    let asm = serial_fold(&mut runner, hcfg.seed, 400, ModelSpec::SingleBitReg);
    let u = &report.units[1];
    assert_eq!(u.counts, asm.counts, "batched asm unit equals the serial fold");
    assert_eq!(u.sdc_insts, asm.sdc_insts, "SDC sites in trial order");
    assert_eq!(u.golden_cycles, runner.golden().cycles);

    // Golden runs are fetched again at merge time, so any executed run
    // reports cache hits.
    assert!(report.metrics.cache_hits > 0, "{:?}", report.metrics);
    // One snapshot-set capture per unit; the capture run doubles as the
    // golden run, so merge-time golden lookups hit the seeded cache and
    // no plain golden execution happens. A worker asking for a set another
    // is capturing waits for it, so two threads capture each content once.
    assert!(report.metrics.cache_misses >= 4, "{:?}", report.metrics);
    assert_eq!(report.metrics.goldens_run, 0, "{:?}", report.metrics);
    assert_eq!(report.metrics.snap_captures, 4, "{:?}", report.metrics);
    // Fast-forward accounting flows through to the metrics.
    assert_eq!(report.metrics.ff_insts + report.metrics.exec_insts, {
        let mut off = hcfg.clone();
        off.snapshots = false;
        let r = run_units(&units, &off, &GoldenCache::new(), RunOptions::default());
        assert_eq!(serialized(&report.units), serialized(&r.units), "snapshots must not change results");
        assert_eq!(r.metrics.ff_insts, 0);
        r.metrics.exec_insts
    });
}

#[test]
fn interrupted_run_resumes_to_identical_results() {
    let units = small_matrix();
    let hcfg = cfg(300, 50, 2); // 6 batches per unit, 24 total

    // Uninterrupted reference.
    let full = run_units(&units, &hcfg, &GoldenCache::new(), RunOptions::default());
    assert!(!full.interrupted);

    // Interrupted run: stop after 5 completed batches ("kill" mid-flight).
    let path = tmp("resume");
    let log = CheckpointLog::create(&path, &hcfg.header()).unwrap();
    let seen = AtomicU64::new(0);
    let stopper = |_: &flowery_harness::MetricsSnapshot| {
        if seen.fetch_add(1, Ordering::Relaxed) + 1 >= 5 {
            Control::Stop
        } else {
            Control::Continue
        }
    };
    let partial = run_units(
        &units,
        &hcfg,
        &GoldenCache::new(),
        RunOptions {
            checkpoint: Some(&log),
            preloaded: Vec::new(),
            progress: Some(&stopper),
            ..Default::default()
        },
    );
    drop(log);
    assert!(partial.interrupted);
    assert!(!partial.pending.is_empty(), "interrupt left unfinished units");

    // Resume: replay the log, finish the rest, keep checkpointing.
    let (header, preloaded) = load_checkpoint(&path).unwrap();
    assert_eq!(header, hcfg.header(), "resume validates the schedule parameters");
    assert!(preloaded.len() >= 5, "every finished batch was persisted");
    let log = CheckpointLog::append_to(&path).unwrap();
    let resumed = run_units(
        &units,
        &hcfg,
        &GoldenCache::new(),
        RunOptions { checkpoint: Some(&log), preloaded, ..Default::default() },
    );
    assert!(!resumed.interrupted);
    assert!(resumed.metrics.batches_reused >= 5);
    assert_eq!(
        serialized(&full.units),
        serialized(&resumed.units),
        "resumed campaign is bit-identical to the uninterrupted one"
    );

    // And a second resume of the now-complete log re-runs nothing.
    let (_, preloaded) = load_checkpoint(&path).unwrap();
    let replayed = run_units(
        &units,
        &hcfg,
        &GoldenCache::new(),
        RunOptions { checkpoint: None, preloaded, ..Default::default() },
    );
    assert_eq!(replayed.metrics.batches, replayed.metrics.batches_reused, "pure replay");
    assert_eq!(serialized(&full.units), serialized(&replayed.units));
    std::fs::remove_file(&path).ok();
}

#[test]
fn adaptive_early_stop_is_a_prefix_of_the_full_schedule() {
    let units = small_matrix();
    let mut hcfg = cfg(2000, 100, 2);
    hcfg.min_trials = 200;
    hcfg.ci_target = Some(0.05);
    let report = run_units(&units, &hcfg, &GoldenCache::new(), RunOptions::default());
    assert!(!report.interrupted);

    let mut any_early = false;
    for u in &report.units {
        assert_eq!(u.trials % hcfg.batch_size, 0, "stop points are batch-aligned");
        if u.stopped_early {
            any_early = true;
            assert!(u.trials < hcfg.max_trials);
            assert!(u.trials >= hcfg.min_trials);
            assert!(u.sdc.ci95 <= 0.05, "{}: reported half-width {} exceeds target", u.key, u.sdc.ci95);
            // The counts are exactly what a fixed campaign of the same
            // length produces: the stop point discards, never reorders.
            if u.key == units[0].key {
                let mut runner = IrTrialRunner::new(&units[0].module, &ExecConfig::default());
                let fixed = serial_fold(&mut runner, hcfg.seed, u.trials, ModelSpec::SingleBitReg);
                assert_eq!(u.counts, fixed.counts);
            }
        }
    }
    assert!(any_early, "5pp target on ~2000-trial units should stop early");

    // Tighter target -> never fewer trials per unit.
    let mut tight = hcfg.clone();
    tight.ci_target = Some(0.02);
    let report2 = run_units(&units, &tight, &GoldenCache::new(), RunOptions::default());
    for (a, b) in report.units.iter().zip(&report2.units) {
        assert!(b.trials >= a.trials, "{}: {} < {}", a.key, b.trials, a.trials);
    }
}

#[test]
fn each_program_content_executes_fault_free_once() {
    // (observations, goldens_run, snap_captures) over a campaign and its
    // seal's region records, for the four contents of the matrix.
    let units = small_matrix();
    let passes = |hcfg: &HarnessConfig, cache: &GoldenCache| {
        let report = run_units(&units, hcfg, cache, RunOptions::default());
        assert_eq!(region_records(&units, &report.units, cache, hcfg).len(), 4);
        let s = cache.stats();
        (s.observations, s.goldens_run, s.snap_captures)
    };
    let dir = std::env::temp_dir().join(format!("flowery-harness-it-{}-passes.snaps", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = || GoldenCache::with_store(SnapshotStore::at(dir.clone()));
    let hcfg = cfg(200, 50, 1);
    // Cold: each capture is also the golden run and the observation.
    assert_eq!(passes(&hcfg, &store()), (0, 0, 4), "cold");
    // Warm: the stored sets carry golden and site log; nothing executes.
    assert_eq!(passes(&hcfg, &store()), (0, 0, 0), "warm");
    // Two workers over twenty batches per unit: still one capture each.
    assert_eq!(passes(&cfg(200, 10, 2), &GoldenCache::new()), (0, 0, 4), "two threads");
    // Without snapshots the observation pass is the golden run.
    let off = HarnessConfig { snapshots: false, ..hcfg };
    let (observations, goldens, captures) = passes(&off, &GoldenCache::new());
    assert_eq!((observations + goldens, captures), (4, 0), "no snapshots");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_campaign_prints_each_unit_once_and_units_keep_their_keys() {
    // Cold, through the selection profile pass: one print per unit, the
    // Raw@Ir units' made by the profile pass and kept in the matrix.
    let (spec, hcfg) = (profile_spec(), cfg(100, 50, 2));
    let cache = GoldenCache::new();
    let (units, pass) = plan_matrix(&spec, &hcfg, &cache, &[], RunOptions::default());
    assert_eq!(pass.metrics.content_hashes, 2, "the profile pass keys the two raw programs");
    let report = run_units(&units, &hcfg, &cache, RunOptions::default());
    assert!(!region_records(&units, &report.units, &cache, &hcfg).is_empty());
    assert_eq!(cache.stats().content_hashes, units.len() as u64, "one print per unit");
    // Units that hold their keys print nothing on another cache.
    let again = GoldenCache::new();
    let report = run_units(&units, &hcfg, &again, RunOptions::default());
    region_records(&units, &report.units, &again, &hcfg);
    assert_eq!(again.stats().content_hashes, 0);
    // And each carried key is the one a fresh print computes.
    for u in &units {
        let fresh = match &u.program {
            None => flowery_harness::module_hash(&u.module),
            Some(p) => flowery_harness::asm_hash(&u.module, p),
        };
        assert_eq!(u.content_key(&again), fresh, "{}", u.key);
    }
}

#[test]
fn a_sealed_log_reports_golden_counts_without_a_store_or_a_run() {
    let units = small_matrix();
    let hcfg = cfg(100, 50, 2);
    let path = tmp("goldens");
    let (log, ..) = open(&path, &hcfg.header(), false).unwrap();
    let cold = run_units(
        &units,
        &hcfg,
        &GoldenCache::new(),
        RunOptions { checkpoint: Some(&log), ..Default::default() },
    );
    seal(&path, log, &[]).unwrap();
    let sealed = std::fs::read_to_string(&path).unwrap();
    assert_eq!(sealed.matches("{\"Golden\"").count(), units.len(), "one record per program content");
    // Resumed on a cache with no store: every count comes from the log.
    let (log, preloaded, ..) = open(&path, &hcfg.header(), true).unwrap();
    let cache = GoldenCache::new();
    let warm = run_units(
        &units,
        &hcfg,
        &cache,
        RunOptions { checkpoint: Some(&log), preloaded, ..Default::default() },
    );
    let st = cache.stats();
    assert_eq!((st.goldens_run, st.snap_captures, st.observations, st.hits + st.misses), (0, 0, 0, 0));
    assert_eq!(serialized(&cold.units), serialized(&warm.units));
    // Nothing was appended: the seal is unchanged.
    seal(&path, log, &[]).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), sealed);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_global_only_edit_keys_another_asm_program() {
    // Two programs whose machine listings agree and whose globals do not:
    // a snapshot store the first filled must not serve the second its set.
    let src = |last: u32| {
        format!(
            "global int tbl[4] = {{1,2,3,{last}}}; int main() {{ int s = 0; int i; \
             for (i = 0; i < 40; i = i + 1) {{ s = s + tbl[i % 4] * i; }} output(s); return 0; }}"
        )
    };
    let unit = |last| {
        let m = module(&src(last));
        let p = Arc::new(flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default()));
        TrialUnit::asm(UnitKey::new("tbl", Variant::Raw, 0.0, Layer::Asm), m, p)
    };
    let (old, new) = ([unit(4)], [unit(5)]);
    let listing = |u: &[TrialUnit]| flowery_harness::program_hash(u[0].program.as_ref().unwrap());
    assert_eq!(listing(&old), listing(&new), "test premise: only the globals differ");
    let dir = std::env::temp_dir().join(format!("flowery-harness-it-{}-globals.snaps", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (hcfg, store) = (cfg(200, 100, 1), || GoldenCache::with_store(SnapshotStore::at(dir.clone())));
    run_units(&old, &hcfg, &store(), RunOptions::default());
    let edited = run_units(&new, &hcfg, &store(), RunOptions::default());
    assert_eq!(edited.metrics.snap_loads, 0, "the stored set is the other program's");
    let fresh = run_units(&[unit(5)], &hcfg, &GoldenCache::new(), RunOptions::default());
    assert_eq!(serialized(&edited.units), serialized(&fresh.units));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshots_off_writes_no_snap_files() {
    let units = small_matrix();
    let mut hcfg = cfg(120, 60, 2);
    hcfg.snapshots = false;
    let dir = std::env::temp_dir().join(format!("flowery-harness-it-{}-nosnaps.snaps", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Even with a store attached, a snapshots-off run must not persist
    // snapshot sets (no orphan .snap files for --no-snapshots).
    let cache = GoldenCache::with_store(SnapshotStore::at(dir.clone()));
    let r = run_units(&units, &hcfg, &cache, RunOptions::default());
    assert!(!r.interrupted);
    assert_eq!(r.metrics.snap_captures, 0, "{:?}", r.metrics);
    assert!(!dir.exists(), "snapshots off must leave no snapshot store behind");
}

#[test]
fn resume_rejects_mismatched_schedule() {
    let path = tmp("mismatch");
    let hcfg = cfg(300, 50, 1);
    CheckpointLog::create(&path, &hcfg.header()).unwrap();
    let (header, _) = load_checkpoint(&path).unwrap();
    let mut other = cfg(300, 50, 4); // thread count is NOT part of the schedule
    assert_eq!(header, other.header());
    other.seed ^= 1;
    assert_ne!(header, other.header(), "seed change invalidates the log");
    std::fs::remove_file(&path).ok();
}

/// A checkpoint whose *header* matches the campaign but which carries batch
/// records no campaign of that header could have written — what a careless
/// `cat` of shard logs can produce. The loader must refuse exactly those
/// records — and say so — and `campaign --resume` must re-run what they
/// displaced and converge on the uninterrupted canonical bytes.
#[test]
fn foreign_records_under_a_matching_header_are_refused_and_rerun_on_resume() {
    let spec = MatrixSpec {
        benches: vec!["crc32".into()],
        scale: flowery_workloads::Scale::Tiny,
        profile_trials: 0,
        profile_seed: 0,
        threads: 2,
        ..Default::default()
    };
    let cfg = cfg(90, 30, 2); // 3 batches × 5 units
    let units = build_matrix(&spec);

    // The single-process ground truth — what `flowery campaign` leaves
    // behind: opened, run and sealed (region records included).
    let ref_path = tmp("foreign-ref");
    let cache = GoldenCache::new();
    let (log, ..) = open(&ref_path, &cfg.header(), false).unwrap();
    let r = run_units(&units, &cfg, &cache, RunOptions { checkpoint: Some(&log), ..Default::default() });
    assert!(!r.interrupted && r.error.is_none());
    seal(&ref_path, log, &region_records(&units, &r.units, &cache, &cfg)).unwrap();
    let want = std::fs::read(&ref_path).unwrap();
    let (header, batches) = load_checkpoint(&ref_path).unwrap();
    let is_asm = |r: &BatchRecord| r.unit.layer == Layer::Asm;

    // Keep batch 0 of every unit, then forge: (a) every batch 1 restamped
    // with another fault model, (b) every assembly batch 2 claiming a
    // prune table this unpruned schedule never used, (c) one batch far
    // outside the 3-batch schedule.
    let mut forged: Vec<BatchRecord> = batches.iter().filter(|r| r.batch == 0).cloned().collect();
    for rec in &batches {
        let mut rec = rec.clone();
        match rec.batch {
            1 => rec.fault_model = flowery_faultmodel::ModelSpec::FlagsPc,
            2 if is_asm(&rec) => rec.prune_table = 0xfeed,
            _ => continue,
        }
        forged.push(rec);
    }
    forged.push(BatchRecord { batch: 40, ..batches[0].clone() });
    // (d) every IR batch 2 with a count rewritten past what any batch holds.
    for rec in batches.iter().filter(|r| r.batch == 2 && !is_asm(r)) {
        let counts = flowery_inject::OutcomeCounts { benign: u64::MAX, ..rec.counts };
        forged.push(BatchRecord { counts, ..rec.clone() });
    }
    let asm_units = batches.iter().filter(|r| r.batch == 0 && is_asm(r)).count() as u64;
    let ir_units = 5 - asm_units;
    let refused = 6 + asm_units + ir_units;
    let line = format!(
        " ({refused} refused: 5 fault-model, {asm_units} prune-provenance, 1 out-of-schedule, {ir_units} miscounted)"
    );
    assert_eq!(refused_note(&header, &forged), line);

    // `campaign --resume`: refused records are skipped and counted, their
    // batches re-executed, and the sealed file is the reference.
    let local = tmp("foreign-local");
    write_canonical(&local, &header, &forged).unwrap();
    let (log, preloaded, ..) = open(&local, &cfg.header(), true).unwrap();
    let cache = GoldenCache::new();
    let r = run_units(
        &units,
        &cfg,
        &cache,
        RunOptions { checkpoint: Some(&log), preloaded, ..Default::default() },
    );
    assert_eq!(r.metrics.records_refused, refused);
    assert_eq!(r.metrics.batches_reused, 5, "only the five genuine batch-0 records replay");
    seal(&local, log, &region_records(&units, &r.units, &cache, &cfg)).unwrap();
    assert_eq!(std::fs::read(&local).unwrap(), want, "campaign --resume diverged");
    std::fs::remove_file(&ref_path).ok();
    std::fs::remove_file(&local).ok();
}

/// Two tiny programs at a partial level, profiled at 150 trials.
fn profile_spec() -> MatrixSpec {
    MatrixSpec {
        benches: vec!["crc32".into(), "is".into()],
        scale: flowery_workloads::Scale::Tiny,
        levels: vec![0.5, 1.0],
        profile_trials: 150,
        threads: 2,
        ..Default::default()
    }
}

/// The profile records of the log at `path`.
fn profile_records(path: &std::path::Path, hcfg: &HarnessConfig) -> Vec<ProfileRecord> {
    open(path, &hcfg.header(), true).unwrap().2
}

#[test]
fn selection_profiles_are_recorded_served_and_never_stale() {
    let (spec, hcfg) = (profile_spec(), cfg(300, 50, 2));
    let fingerprint = matrix_fingerprint(&build_matrix(&spec));

    // Cold: one pass over both programs, each profile appended to the log;
    // it selects exactly what the in-memory pass of `build_matrix` selects.
    let path = tmp("profiles");
    let (log, ..) = open(&path, &hcfg.header(), false).unwrap();
    let opts = RunOptions { checkpoint: Some(&log), ..Default::default() };
    let (units, pass) = plan_matrix(&spec, &hcfg, &GoldenCache::new(), &[], opts);
    drop(log);
    assert!(pass.error.is_none() && pass.pending.is_empty());
    assert_eq!(pass.metrics.trials, 2 * 150);
    assert_eq!(pass.metrics.goldens_run, 2, "one profiled fault-free pass per program");
    assert_eq!(matrix_fingerprint(&units), fingerprint);
    let stored = profile_records(&path, &hcfg);
    assert_eq!(stored.len(), 2);
    // Snapshot fast-forward never changes a profile.
    let off = HarnessConfig { snapshots: false, ..hcfg.clone() };
    let (units, _) = plan_matrix(&spec, &off, &GoldenCache::new(), &[], RunOptions::default());
    assert_eq!(matrix_fingerprint(&units), fingerprint);

    // Served: matching records execute nothing.
    let cache = GoldenCache::new();
    let (units, pass) = plan_matrix(&spec, &hcfg, &cache, &stored, RunOptions::default());
    assert_eq!(matrix_fingerprint(&units), fingerprint);
    assert_eq!((pass.metrics.trials, pass.metrics.exec_insts), (0, 0));
    // Matching a record prints each raw program once, and nothing more.
    assert_eq!(cache.stats(), CacheStats { content_hashes: 2, ..CacheStats::default() });

    // Stale: a record of another program content, seed or trial count is
    // not used; its program is profiled afresh, to the same profile.
    let first = &stored[0];
    let stale = [
        ProfileRecord { module_hash: first.module_hash ^ 1, ..first.clone() },
        ProfileRecord { seed: first.seed ^ 1, ..first.clone() },
        ProfileRecord { trials: first.trials + 1, ..first.clone() },
    ];
    for rec in stale {
        let records = [rec, stored[1].clone()];
        let (units, pass) = plan_matrix(&spec, &hcfg, &GoldenCache::new(), &records, RunOptions::default());
        let rerun: Vec<&str> = pass.units.iter().map(|u| u.key.bench.as_str()).collect();
        assert_eq!(rerun, [first.program.as_str()]);
        assert_eq!(matrix_fingerprint(&units), fingerprint);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn an_interrupted_profile_pass_records_no_unfinished_program() {
    let (spec, hcfg) = (profile_spec(), cfg(300, 50, 1));
    let path = tmp("profiles-stopped");
    let (log, ..) = open(&path, &hcfg.header(), false).unwrap();
    // One worker stops after its first 50-trial batch of 150.
    let stop = |_: &flowery_harness::MetricsSnapshot| Control::Stop;
    let opts = RunOptions {
        checkpoint: Some(&log),
        progress: Some(&stop),
        ..Default::default()
    };
    let (units, pass) = plan_matrix(&spec, &hcfg, &GoldenCache::new(), &[], opts);
    drop(log);
    assert!(pass.interrupted && pass.units.is_empty() && pass.pending.len() == 2);
    assert!(units.is_empty(), "no matrix without every profile");
    let (_, batches, stored, _) = open(&path, &hcfg.header(), true).unwrap();
    assert!(
        batches.is_empty() && stored.is_empty(),
        "profile trials are no batches, partial profiles no records"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn programs_no_trial_can_run_against_are_refused_by_name() {
    let spin = module("int main() { int i = 0; while (1) { i = i + 1; } return i; }");
    let quiet = module("int main() { return 0; }");
    let short = ExecConfig { max_dyn_insts: 10_000, ..ExecConfig::default() };
    let hcfg = HarnessConfig { exec: short, ..cfg(100, 50, 2) };
    for (m, why) in [
        (spin, "golden run must complete: Trapped(InstLimit)"),
        (quiet, "program has no ir fault sites"),
    ] {
        let unit = TrialUnit::ir(UnitKey::new("p", Variant::Raw, 0.0, Layer::Ir), m);
        let report = run_units(&[unit], &hcfg, &GoldenCache::new(), RunOptions::default());
        assert_eq!(report.error, Some(format!("p/Raw@0/Ir: {why}")));
        assert!(report.units.is_empty());
    }
}
