//! One staged repetition of a campaign: the public calls `flowery campaign`
//! makes, with set-up pulled in front of the run so it can be timed from
//! outside.
//!
//! ```text
//! t0  build_matrix
//! t1  prewarm: UnitRunner::new for every unit on two threads
//!     (goldens, snapshot sets, the snapshot store, bit tables)
//! t2  run_units with checkpoint, region_records, compact
//! t3
//! ```
//!
//! The CLI builds its runners lazily inside `run_units`; staging does the
//! same work earlier, once per unit. `--check-cli` keeps the two honest.

use crate::stats::disk_bytes;
use crate::workloads::{Workload, THREADS};
use flowery::harness::{
    compact, load_checkpoint, load_checkpoint_full, region_records, run_units, write_canonical, BatchRecord,
    CampaignReport, CheckpointLog, GoldenCache, HarnessConfig, RunOptions, SnapshotStore, TrialUnit, UnitRunner,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub const CHECKPOINT: &str = "campaign.jsonl";

pub struct Rep {
    pub build_matrix_s: f64,
    pub prewarm_s: f64,
    pub run_units_s: f64,
    pub region_records_s: f64,
    /// `t2 - t0`.
    pub setup_s: f64,
    /// `t3 - t0`.
    pub wall_s: f64,
    /// `t3 - t2`.
    pub run_s: f64,
    /// Trials of the decided prefixes, minus those replayed from a
    /// checkpoint.
    pub decided_trials: u64,
    /// Trials the engine executed, counted or not.
    pub executed_trials: u64,
    pub checkpoint_bytes: u64,
    pub snaps_bytes: u64,
    pub report: CampaignReport,
    pub units: Vec<TrialUnit>,
    pub checkpoint: PathBuf,
}

/// Fill `cache` for every unit. A thread takes a whole benchmark at a
/// time, in matrix order, so a hardened unit always finds its raw twin's
/// snapshot set already cached and no two threads ever capture the same
/// content: the cache's counters repeat exactly.
pub fn prewarm(units: &[TrialUnit], cache: &GoldenCache, cfg: &HarnessConfig) {
    let mut groups: Vec<Vec<&TrialUnit>> = Vec::new();
    for u in units {
        match groups.last_mut() {
            Some(g) if g[0].key.bench == u.key.bench => g.push(u),
            _ => groups.push(vec![u]),
        }
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
                    for unit in group {
                        drop(UnitRunner::new(unit, cache, cfg));
                    }
                }
            });
        }
    });
}

/// Everything `setup_s` times: the state a campaign is in when its first
/// trial can start.
pub struct SetUp {
    cfg: HarnessConfig,
    units: Vec<TrialUnit>,
    log: CheckpointLog,
    preloaded: Vec<BatchRecord>,
    cache: GoldenCache,
    checkpoint: PathBuf,
    snaps_dir: PathBuf,
    t0: Instant,
    pub build_matrix_s: f64,
    pub prewarm_s: f64,
    /// `t2 - t0`.
    pub setup_s: f64,
}

/// Set a campaign up in `dir`. When `dir` already holds a checkpoint the
/// campaign resumes it, exactly as `flowery campaign --resume` would.
pub fn set_up(w: &Workload, seed: u64, dir: &Path) -> Result<SetUp, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let checkpoint = dir.join(CHECKPOINT);
    let resume = checkpoint.exists();
    let cfg = w.config(seed);

    let t0 = Instant::now();
    let units = w.units(seed);
    let t1 = Instant::now();
    let (log, preloaded) = if resume {
        let (header, batches) = load_checkpoint(&checkpoint)?;
        if let Some(why) = header.describe_mismatch(&cfg.header()) {
            return Err(format!("{}: {why}", checkpoint.display()));
        }
        (CheckpointLog::append_to(&checkpoint)?, batches)
    } else {
        (CheckpointLog::create(&checkpoint, &cfg.header())?, Vec::new())
    };
    let store = SnapshotStore::for_checkpoint(&checkpoint);
    let snaps_dir = store.dir().to_path_buf();
    let cache = GoldenCache::with_store(store);
    prewarm(&units, &cache, &cfg);
    let t2 = Instant::now();
    Ok(SetUp {
        cfg,
        units,
        log,
        preloaded,
        cache,
        checkpoint,
        snaps_dir,
        t0,
        build_matrix_s: (t1 - t0).as_secs_f64(),
        prewarm_s: (t2 - t1).as_secs_f64(),
        setup_s: (t2 - t0).as_secs_f64(),
    })
}

/// One repetition: set-up, then the campaign to its canonical checkpoint.
pub fn run_rep(w: &Workload, seed: u64, dir: &Path) -> Result<Rep, String> {
    let SetUp {
        cfg,
        units,
        log,
        preloaded,
        cache,
        checkpoint,
        snaps_dir,
        t0,
        build_matrix_s,
        prewarm_s,
        setup_s,
    } = set_up(w, seed, dir)?;
    let t2 = Instant::now();
    let replayed: u64 = preloaded.iter().map(|b| b.counts.total()).sum();
    let report = run_units(
        &units,
        &cfg,
        &cache,
        RunOptions {
            checkpoint: Some(&log),
            preloaded,
            progress: None,
            replay_only: false,
        },
    );
    let t_run = Instant::now();
    if let Some(e) = &report.error {
        return Err(e.clone());
    }
    for rec in region_records(&units, &report.units, &cache, &cfg) {
        log.record_regions(&rec)?;
    }
    let t_regions = Instant::now();
    drop(log);
    compact(&checkpoint)?;
    let t3 = Instant::now();

    let counted: u64 = report.units.iter().map(|u| u.trials).sum();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Rep {
        build_matrix_s,
        prewarm_s,
        run_units_s: secs(t2, t_run),
        region_records_s: secs(t_run, t_regions),
        setup_s,
        wall_s: secs(t0, t3),
        run_s: secs(t2, t3),
        decided_trials: counted.saturating_sub(replayed),
        executed_trials: report.metrics.trials.saturating_sub(replayed),
        checkpoint_bytes: disk_bytes(&checkpoint),
        snaps_bytes: disk_bytes(&snaps_dir),
        report,
        units,
        checkpoint,
    })
}

/// Untimed preparation of a resume workload: run the whole campaign in
/// `dir`, then cut its checkpoint back to the first half of every unit's
/// batches with no region records — the state an interrupt at half-time
/// leaves behind, snapshot store included. Returns the uninterrupted
/// canonical checkpoint, which every resumed repetition must reproduce
/// byte for byte.
pub fn prepare_resume(w: &Workload, seed: u64, dir: &Path) -> Result<Vec<u8>, String> {
    let full = run_rep(w, seed, dir)?;
    let uninterrupted = std::fs::read(&full.checkpoint).map_err(|e| format!("read checkpoint: {e}"))?;
    let (header, batches, _) = load_checkpoint_full(&full.checkpoint)?;
    let half = header.max_batches() / 2;
    let kept: Vec<_> = batches.into_iter().filter(|b| b.batch < half).collect();
    write_canonical(&full.checkpoint, &header, &kept)?;
    Ok(uninterrupted)
}

/// Copy a prepared directory (checkpoint, snapshot store) into `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| format!("copy to {}: {e}", target.display()))?;
        }
    }
    Ok(())
}
