//! Live campaign metrics: one tally updated by workers once per batch,
//! sampled into [`MetricsSnapshot`]s for the progress callback and final
//! report.

use crate::cache::CacheStats;
use flowery_backend::jit_stats;
use flowery_inject::OutcomeCounts;
use flowery_ir::interp::ExecMode;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shared counters; one instance per engine run. The running tally is a
/// [`MetricsSnapshot`] whose sampled fields (time, rates, cache and JIT
/// provenance, schedule totals) are filled in by [`Metrics::snapshot`].
pub(crate) struct Metrics {
    start: Instant,
    live: Mutex<MetricsSnapshot>,
}

impl Metrics {
    /// A counter set that reports `mode` as the configured machine-layer
    /// engine (the per-batch attribution is what counts).
    pub fn with_mode(mode: ExecMode) -> Metrics {
        let live = MetricsSnapshot { exec_mode: mode.to_string(), ..MetricsSnapshot::default() };
        Metrics { start: Instant::now(), live: Mutex::new(live) }
    }

    /// Counters that go on from `earlier`, a pass run before this one on the
    /// same cache (a campaign's selection profile): its time, trials,
    /// batches and instructions count in every later snapshot.
    pub fn after(self, earlier: &MetricsSnapshot) -> Metrics {
        let start = self.start.checked_sub(Duration::from_secs_f64(earlier.elapsed_secs));
        let live = self.live.into_inner().unwrap();
        let live = MetricsSnapshot { exec_mode: live.exec_mode, units_done: 0, ..earlier.clone() };
        Metrics { start: start.unwrap_or(self.start), live: Mutex::new(live) }
    }

    fn update(&self, f: impl FnOnce(&mut MetricsSnapshot)) {
        f(&mut self.live.lock().unwrap());
    }

    /// An executed batch. `ff_insts`/`exec_insts` are its skipped/executed
    /// dynamic instruction totals; `engine` is the engine the unit's
    /// substrate ran them on (see `TrialUnit::engine`).
    pub fn record_batch(&self, counts: &OutcomeCounts, ff_insts: u64, exec_insts: u64, engine: ExecMode) {
        self.update(|m| {
            m.counts.merge(counts);
            m.batches += 1;
            m.ff_insts += ff_insts;
            m.exec_insts += exec_insts;
            match engine {
                ExecMode::Interp => m.interp_insts += exec_insts,
                ExecMode::Compiled => m.compiled_insts += exec_insts,
                ExecMode::Native => m.native_insts += exec_insts,
            }
        });
    }

    /// A batch satisfied from a checkpoint: its work happened in an
    /// earlier run, so it contributes outcomes but no instructions.
    pub fn record_reused(&self, counts: &OutcomeCounts) {
        self.update(|m| {
            m.counts.merge(counts);
            m.batches += 1;
            m.batches_reused += 1;
        });
    }

    /// A preloaded record `Header::admit` refused (skipped, not replayed).
    pub fn record_refused(&self) {
        self.update(|m| m.records_refused += 1);
    }

    pub fn record_unit_done(&self) {
        self.update(|m| m.units_done += 1);
    }

    /// Account one unit's incremental plan: `reused`/`rerun` regions out
    /// of `total` (`total - reused - rerun` are new), and the trials the
    /// reused profiles made unnecessary.
    pub fn record_region_plan(&self, total: u64, reused: u64, rerun: u64, trials_saved: u64) {
        self.update(|m| {
            m.regions_total += total;
            m.regions_reused += reused;
            m.regions_rerun += rerun;
            m.region_trials_saved += trials_saved;
        });
    }

    /// Account a unit's static prune table: how many (site, bit) pairs the
    /// bit-lattice pass proved masked.
    pub fn record_bits_proven(&self, pairs: u64) {
        self.update(|m| m.bits_proven_masked += pairs);
    }

    /// Account trials the prune layer resolved as provably-Benign without
    /// executing them.
    pub fn record_pruned(&self, trials: u64) {
        self.update(|m| m.bits_pruned_trials_saved += trials);
    }

    /// Sample the counters. `units_total` and `remaining_trials` come from
    /// the engine, which knows the schedule; `remaining_trials` is an
    /// upper bound (adaptive stopping can cut it short); `cache` carries
    /// the golden/snapshot provenance counters.
    pub fn snapshot(&self, units_total: usize, remaining_trials: u64, cache: CacheStats) -> MetricsSnapshot {
        let live = self.live.lock().unwrap().clone();
        let elapsed = self.start.elapsed().as_secs_f64();
        let trials = live.counts.total();
        let rate = if elapsed > 0.0 { trials as f64 / elapsed } else { 0.0 };
        let work = live.ff_insts + live.exec_insts;
        // Process-wide JIT counters; zero unless a native run compiled
        // (or failed to compile) a program.
        let js = jit_stats();
        MetricsSnapshot {
            elapsed_secs: elapsed,
            trials,
            trials_per_sec: rate,
            units_total: units_total as u64,
            remaining_trials,
            eta_secs: (rate > 0.0).then(|| remaining_trials as f64 / rate),
            ff_ratio: if work == 0 { 0.0 } else { live.ff_insts as f64 / work as f64 },
            jit_programs: js.programs,
            jit_compile_ms: js.compile_ms,
            jit_code_bytes: js.code_bytes,
            jit_fallbacks: js.fallbacks,
            jit_fallback_reasons: js.fallback_reasons,
            ..live
        }
        .with_cache(cache)
    }
}

/// A point-in-time view of campaign progress.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub elapsed_secs: f64,
    /// Trials counted so far (executed + reused from checkpoints).
    pub trials: u64,
    pub counts: OutcomeCounts,
    pub trials_per_sec: f64,
    pub batches: u64,
    pub batches_reused: u64,
    /// Checkpoint records refused at preload (foreign fault model, foreign
    /// prune provenance, or out of schedule) and therefore re-executed.
    #[serde(default)]
    pub records_refused: u64,
    pub units_done: u64,
    pub units_total: u64,
    /// Upper bound on trials still scheduled.
    pub remaining_trials: u64,
    pub eta_secs: Option<f64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit_rate: f64,
    /// Plain golden executions (zero when every golden came from a
    /// snapshot capture, a persisted set, or the checkpoint).
    #[serde(default)]
    pub goldens_run: u64,
    /// Snapshot capture executions.
    #[serde(default)]
    pub snap_captures: u64,
    /// Snapshot sets loaded from the persistent store.
    #[serde(default)]
    pub snap_loads: u64,
    /// Bytes of snapshot files this run read from the persistent store,
    /// refused ones included.
    #[serde(default)]
    pub snap_bytes_read: u64,
    /// Bytes of snapshot files this run wrote to the persistent store.
    #[serde(default)]
    pub snap_bytes_written: u64,
    /// Always 0: cross-variant prefix sharing never fired on any workload
    /// and is gone. The key stays until `benchmark/src/trace.rs` stops
    /// reading it (ROADMAP item 1(a)).
    #[serde(default)]
    pub snap_shared: u64,
    /// Site observation passes: one fault-free execution per program whose
    /// region masses, scoped trials or prune site map were asked for (the
    /// seal's region records ask for every program's).
    #[serde(default)]
    pub observations: u64,
    /// Golden-prefix instructions skipped by snapshot fast-forward.
    pub ff_insts: u64,
    /// Instructions actually executed by trials.
    pub exec_insts: u64,
    /// Fraction of total trial work (skipped + executed) that snapshot
    /// fast-forward avoided re-executing.
    pub ff_ratio: f64,
    /// Configured machine-layer engine (`interp`, `compiled` or `native`).
    /// Engines are bit-identical; this is provenance, not schedule.
    #[serde(default)]
    pub exec_mode: String,
    /// Executed instructions attributed to `interp`: all IR-layer work,
    /// and assembly run on the threaded-code engine's bookkept loop.
    #[serde(default)]
    pub interp_insts: u64,
    /// Executed instructions attributed to the threaded-code engine's
    /// fast loop (`compiled`).
    #[serde(default)]
    pub compiled_insts: u64,
    /// Executed instructions attributed to the native JIT (including
    /// programs it handed to its `compiled` fallback; see `jit_fallbacks`).
    #[serde(default)]
    pub native_insts: u64,
    /// Regions across all units of an incremental (`flowery diff`) plan;
    /// 0 for plain campaigns.
    #[serde(default)]
    pub regions_total: u64,
    /// Regions whose baseline profiles were reused verbatim.
    #[serde(default)]
    pub regions_reused: u64,
    /// Regions re-executed because their content hash changed.
    #[serde(default)]
    pub regions_rerun: u64,
    /// Trials the reused region profiles made unnecessary.
    #[serde(default)]
    pub region_trials_saved: u64,
    /// (site, bit) pairs proven masked by the bit-lattice pass across this
    /// run's prune tables; 0 without `--static-prune`.
    #[serde(default)]
    pub bits_proven_masked: u64,
    /// Trials resolved as provably-Benign by the prune layer without
    /// executing.
    #[serde(default)]
    pub bits_pruned_trials_saved: u64,
    /// Programs the native JIT compiled to host code (process-wide); 0
    /// unless the campaign ran with `--executor native`.
    #[serde(default)]
    pub jit_programs: u64,
    /// Cumulative native compile time in milliseconds.
    #[serde(default)]
    pub jit_compile_ms: f64,
    /// Cumulative native code bytes emitted.
    #[serde(default)]
    pub jit_code_bytes: u64,
    /// Programs that fell back from `native` to the threaded-code engine.
    #[serde(default)]
    pub jit_fallbacks: u64,
    /// Fallbacks by reason name (only reasons that occurred).
    #[serde(default)]
    pub jit_fallback_reasons: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Re-stamp the golden/snapshot provenance counters from `cache`, for
    /// lookups made after the counters were sampled.
    pub fn with_cache(self, cache: CacheStats) -> MetricsSnapshot {
        MetricsSnapshot {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_hit_rate: cache.hit_rate(),
            goldens_run: cache.goldens_run,
            snap_captures: cache.snap_captures,
            snap_loads: cache.snap_loads,
            observations: cache.observations,
            snap_bytes_read: cache.snap_bytes_read,
            snap_bytes_written: cache.snap_bytes_written,
            ..self
        }
    }

    /// One-line human rendering for progress displays.
    pub fn render(&self) -> String {
        let eta = match self.eta_secs {
            Some(s) if s >= 1.0 => format!(" eta {:.0}s", s),
            _ => String::new(),
        };
        let regions = if self.regions_total > 0 {
            format!(
                " | regions {}/{} reused, {} re-run, {} trials saved",
                self.regions_reused, self.regions_total, self.regions_rerun, self.region_trials_saved
            )
        } else {
            String::new()
        };
        let prune = if self.bits_proven_masked > 0 {
            format!(
                " | prune {} bits proven, {} trials saved",
                self.bits_proven_masked, self.bits_pruned_trials_saved
            )
        } else {
            String::new()
        };
        let jit = if self.jit_programs > 0 || self.jit_fallbacks > 0 {
            let mut s = format!(
                " | jit {} progs {:.1}ms {}KB, {} native insts",
                self.jit_programs,
                self.jit_compile_ms,
                self.jit_code_bytes / 1024,
                self.native_insts
            );
            if self.jit_fallbacks > 0 {
                s.push_str(&format!(", {} fallbacks", self.jit_fallbacks));
                for (reason, n) in &self.jit_fallback_reasons {
                    s.push_str(&format!(" {reason}:{n}"));
                }
            }
            s
        } else {
            String::new()
        };
        format!(
            "{}/{} units | {} trials @ {:.0}/s | sdc {} due {} det {} | cache {:.0}% ff {:.0}%{}{}{}{}",
            self.units_done,
            self.units_total,
            self.trials,
            self.trials_per_sec,
            self.counts.sdc,
            self.counts.due,
            self.counts.detected,
            self.cache_hit_rate * 100.0,
            self.ff_ratio * 100.0,
            eta,
            regions,
            prune,
            jit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates_counters() {
        let m = Metrics::with_mode(ExecMode::Compiled);
        let c = OutcomeCounts { benign: 7, sdc: 2, detected: 1, due: 0 };
        m.record_batch(&c, 300, 100, ExecMode::Compiled);
        m.record_reused(&c);
        m.record_unit_done();
        let cache = CacheStats {
            hits: 3,
            misses: 1,
            goldens_run: 0,
            snap_captures: 1,
            snap_loads: 2,
            observations: 2,
            snap_bytes_read: 300,
            snap_bytes_written: 100,
        };
        let s = m.snapshot(4, 100, cache);
        assert_eq!(s.trials, 20);
        assert_eq!(s.counts.sdc, 4);
        assert_eq!(s.batches, 2);
        assert_eq!(s.batches_reused, 1);
        assert_eq!(s.units_done, 1);
        assert_eq!(s.units_total, 4);
        assert!((s.cache_hit_rate - 0.75).abs() < 1e-12);
        assert_eq!(s.goldens_run, 0);
        assert_eq!(s.snap_captures, 1);
        assert_eq!(s.snap_loads, 2);
        assert_eq!(s.observations, 2);
        assert_eq!((s.snap_bytes_read, s.snap_bytes_written), (300, 100));
        assert_eq!(s.snap_shared, 0);
        assert_eq!(s.ff_insts, 300);
        assert_eq!(s.exec_insts, 100);
        assert!((s.ff_ratio - 0.75).abs() < 1e-12);
        assert_eq!(s.exec_mode, "compiled");
        assert_eq!(s.compiled_insts, 100);
        assert_eq!(s.interp_insts, 0);
        assert_eq!(s.native_insts, 0);
        assert!(s.trials_per_sec >= 0.0);
        assert!(!s.render().is_empty());
    }

    #[test]
    fn batches_attribute_to_the_engine_that_ran_them() {
        // A native campaign over both layers: IR units run on the IR
        // interpreter whatever the configured machine-layer engine is.
        let m = Metrics::with_mode(ExecMode::Native);
        let c = OutcomeCounts { benign: 5, ..Default::default() };
        m.record_batch(&c, 0, 40, ExecMode::Interp);
        m.record_batch(&c, 0, 60, ExecMode::Compiled);
        m.record_batch(&c, 0, 900, ExecMode::Native);
        let s = m.snapshot(1, 0, CacheStats::default());
        assert_eq!(s.exec_mode, "native");
        assert_eq!(s.exec_insts, 1000);
        assert_eq!(s.interp_insts, 40);
        assert_eq!(s.compiled_insts, 60);
        assert_eq!(s.native_insts, 900);
        let back: MetricsSnapshot = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back.native_insts, 900);
    }

    #[test]
    fn region_counters_render_only_when_incremental() {
        let m = Metrics::with_mode(ExecMode::default());
        let s = m.snapshot(1, 0, CacheStats::default());
        assert_eq!(s.regions_total, 0);
        assert!(!s.render().contains("regions"), "plain campaigns hide region counters");
        m.record_region_plan(10, 8, 1, 2400);
        m.record_region_plan(6, 6, 0, 1800);
        let s = m.snapshot(1, 0, CacheStats::default());
        assert_eq!(s.regions_total, 16);
        assert_eq!(s.regions_reused, 14);
        assert_eq!(s.regions_rerun, 1);
        assert_eq!(s.region_trials_saved, 4200);
        assert!(s.render().contains("regions 14/16 reused, 1 re-run, 4200 trials saved"), "{}", s.render());
    }

    #[test]
    fn prune_counters_render_only_when_pruning() {
        let m = Metrics::with_mode(ExecMode::default());
        let s = m.snapshot(1, 0, CacheStats::default());
        assert_eq!(s.bits_proven_masked, 0);
        assert!(!s.render().contains("prune"), "unpruned campaigns hide prune counters");
        m.record_bits_proven(1234);
        m.record_pruned(56);
        let s = m.snapshot(1, 0, CacheStats::default());
        assert_eq!(s.bits_proven_masked, 1234);
        assert_eq!(s.bits_pruned_trials_saved, 56);
        assert!(s.render().contains("prune 1234 bits proven, 56 trials saved"), "{}", s.render());
    }

    #[test]
    fn jit_counters_render_only_when_native_compiled() {
        // jit_stats() is process-wide, so drive the render path off a
        // hand-built snapshot rather than racing other tests' compiles.
        let m = Metrics::with_mode(ExecMode::default());
        let mut s = m.snapshot(1, 0, CacheStats::default());
        s.jit_programs = 0;
        s.jit_fallbacks = 0;
        assert!(!s.render().contains("jit"), "non-native campaigns hide jit counters: {}", s.render());
        s.jit_programs = 3;
        s.jit_compile_ms = 1.25;
        s.jit_code_bytes = 64 * 1024;
        s.native_insts = 7_000;
        assert!(s.render().contains("jit 3 progs 1.2ms 64KB, 7000 native insts"), "{}", s.render());
        s.jit_fallbacks = 2;
        s.jit_fallback_reasons = vec![("forced".to_string(), 2)];
        assert!(s.render().contains("2 fallbacks forced:2"), "{}", s.render());
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.jit_programs, 3);
        assert!((back.jit_compile_ms - 1.25).abs() < 1e-12);
        assert_eq!(back.jit_code_bytes, 64 * 1024);
        assert_eq!(back.jit_fallback_reasons, vec![("forced".to_string(), 2)]);
    }
}
