//! End-to-end engine guarantees: thread-count invariance, agreement with
//! the single-campaign primitives, checkpoint/resume equivalence, and
//! deterministic adaptive early stopping.

use flowery_harness::{
    build_matrix, load_checkpoint, open, refused_note, region_records, run_units, seal, write_canonical, BatchRecord,
    CheckpointLog, Control, GoldenCache, HarnessConfig, Layer, MatrixSpec, RunOptions, SnapshotStore, TrialUnit,
    UnitKey, UnitResult, Variant,
};
use flowery_inject::{run_asm_campaign, run_ir_campaign, CampaignConfig};
use flowery_ir::Module;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

    let mut ccfg = CampaignConfig::with_trials(400);
    ccfg.seed = hcfg.seed;
    let ir = run_ir_campaign(&units[0].module, &ccfg);
    let u = &report.units[0];
    assert_eq!(u.counts, ir.counts, "batched IR unit equals one-shot campaign");
    assert_eq!(u.sdc_by_inst, ir.sdc_by_inst);
    assert_eq!(u.golden_sites, ir.golden_sites);

    let asm = run_asm_campaign(&units[1].module, units[1].program.as_ref().unwrap(), &ccfg);
    let u = &report.units[1];
    assert_eq!(u.counts, asm.counts, "batched asm unit equals one-shot campaign");
    assert_eq!(u.sdc_insts, asm.sdc_insts, "SDC sites in trial order");
    assert_eq!(u.golden_cycles, asm.golden_cycles);

    // Golden runs are fetched again at merge time, so any executed run
    // reports cache hits.
    assert!(report.metrics.cache_hits > 0, "{:?}", report.metrics);
    // One snapshot-set fetch per unit; the capture run doubles as the
    // golden run, so merge-time golden lookups hit the seeded cache and
    // no plain golden execution happens. Concurrent workers may both
    // miss the same key (compute-outside-lock), so the miss count is a
    // floor.
    assert!(report.metrics.cache_misses >= 4, "{:?}", report.metrics);
    assert_eq!(report.metrics.goldens_run, 0, "{:?}", report.metrics);
    assert!(report.metrics.snap_captures >= 4, "{:?}", report.metrics);
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
            if u.key.layer == Layer::Ir {
                let mut ccfg = CampaignConfig::with_trials(u.trials);
                ccfg.seed = hcfg.seed;
                let fixed = run_ir_campaign(&units[0].module, &ccfg);
                if u.key == units[0].key {
                    assert_eq!(u.counts, fixed.counts);
                }
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
    let (log, _) = open(&ref_path, &cfg.header(), false).unwrap();
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
    let asm_units = batches.iter().filter(|r| r.batch == 0 && is_asm(r)).count() as u64;
    let refused = 6 + asm_units;
    let line = format!(" ({refused} refused: 5 fault-model, {asm_units} prune-provenance, 1 out-of-schedule)");
    assert_eq!(refused_note(&header, &forged), line);

    // `campaign --resume`: refused records are skipped and counted, their
    // batches re-executed, and the sealed file is the reference.
    let local = tmp("foreign-local");
    write_canonical(&local, &header, &forged).unwrap();
    let (log, preloaded) = open(&local, &cfg.header(), true).unwrap();
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
