//! Design-space exploration: fault model × protection (variant, level) ×
//! modeled hardware-detector set, reduced to per-workload cost/coverage
//! Pareto frontiers.
//!
//! The sweep runs at the assembly layer, where both axes of the trade-off
//! are observable: cost is the golden-run cycle overhead of the protected
//! program over its raw twin plus the modeled detector tax (see
//! [`flowery_faultmodel::DetectorSpec::overhead_permille`]), and coverage
//! is the SDC reduction relative to the raw, detector-free baseline under
//! the *same* fault model.
//!
//! Detectors never change execution — they post-classify would-be SDCs by
//! the injected fault's class (see [`flowery_faultmodel`]). The explorer
//! exploits that: each (model, unit) campaign executes its trials **once**
//! with no detectors, re-derives the sampled [`AsmFaultSpec`] (the model
//! is deterministic in `(seed, trial)`), and scores every detector set
//! against the same trial stream. Adding a detector set to the sweep costs
//! zero extra executions; goldens and snapshot sets come from the shared
//! [`GoldenCache`], so they are captured once across the whole sweep.
//!
//! [`AsmFaultSpec`]: flowery_backend::AsmFaultSpec

use crate::cache::GoldenCache;
use crate::plan::{build_matrix, Layer, MatrixSpec, TrialUnit, Variant};
use flowery_backend::AsmLayer;
use flowery_faultmodel::{
    any_catches, classify_asm_fault, detector_overhead_permille, flip_count, DetectorSpec, ModelSpec, REGISTERED_MODELS,
};
use flowery_inject::{Coverage, Estimate, Outcome, OutcomeCounts};
use flowery_ir::interp::ExecConfig;
use flowery_workloads::Scale;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What to sweep.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// Workload names; empty means every benchmark.
    pub benches: Vec<String>,
    pub scale: Scale,
    /// Fault models; each gets its own baseline and frontier.
    pub models: Vec<ModelSpec>,
    /// Detector combinations; the empty set is always evaluated (it is the
    /// coverage baseline) whether listed or not.
    pub detector_sets: Vec<Vec<DetectorSpec>>,
    /// Protection levels for the Id / Flowery variants.
    pub levels: Vec<f64>,
    /// Trials per (model, unit) campaign.
    pub trials: u64,
    pub seed: u64,
    /// Trials for the per-instruction SDC profile behind selective
    /// protection (levels below 1.0).
    pub profile_trials: u64,
    /// Worker threads (0 = all cores). Does not affect results.
    pub threads: usize,
    /// Fast-forward trials from cached snapshots; bit-identical either way.
    pub snapshots: bool,
    pub exec: ExecConfig,
}

impl Default for ExploreSpec {
    fn default() -> ExploreSpec {
        ExploreSpec {
            benches: Vec::new(),
            scale: Scale::Standard,
            models: REGISTERED_MODELS.to_vec(),
            detector_sets: vec![
                vec![],
                vec![DetectorSpec::Parity],
                vec![DetectorSpec::CfSig],
                vec![DetectorSpec::Parity, DetectorSpec::CfSig],
            ],
            levels: vec![0.5, 1.0],
            trials: 400,
            seed: 0x0F10_EE41,
            profile_trials: 600,
            threads: 0,
            snapshots: true,
            exec: ExecConfig::default(),
        }
    }
}

impl ExploreSpec {
    /// Detector sets with the baseline (empty) set forced in at index 0.
    fn canonical_detector_sets(&self) -> Vec<Vec<DetectorSpec>> {
        let mut sets: Vec<Vec<DetectorSpec>> = vec![Vec::new()];
        for ds in &self.detector_sets {
            if !ds.is_empty() && !sets.contains(ds) {
                sets.push(ds.clone());
            }
        }
        sets
    }
}

/// One evaluated configuration: a protection variant at a level, plus a
/// detector set, under one fault model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    pub variant: Variant,
    pub level_permille: u32,
    pub detectors: Vec<DetectorSpec>,
    /// Total cost in permille of the raw runtime: golden-cycle overhead of
    /// the protected program plus the detector tax. 0 for raw/no-detector.
    pub cost_permille: i64,
    /// SDC reduction vs the raw, detector-free baseline (same model).
    pub coverage: f64,
    pub sdc: Estimate,
    pub counts: OutcomeCounts,
    /// Golden cycles of this point's program (detector tax not included).
    pub golden_cycles: u64,
    /// True when no other point has both lower-or-equal cost and
    /// higher-or-equal coverage (with one strict).
    pub on_frontier: bool,
}

impl DesignPoint {
    /// Compact label, e.g. `Id@500+parity` or `Raw`.
    pub fn label(&self) -> String {
        let mut s = match self.variant {
            Variant::Raw => "Raw".to_string(),
            _ => format!("{:?}@{}", self.variant, self.level_permille),
        };
        for d in &self.detectors {
            let _ = write!(s, "+{d}");
        }
        s
    }
}

/// One workload's sweep under one fault model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelFrontier {
    pub fault_model: ModelSpec,
    /// Raw, detector-free SDC rate — the coverage denominator.
    pub baseline_sdc: Estimate,
    /// Every design point, sorted by ascending cost (coverage breaks ties,
    /// descending).
    pub points: Vec<DesignPoint>,
    /// The non-dominated subset, ascending in cost and strictly ascending
    /// in coverage.
    pub frontier: Vec<DesignPoint>,
}

/// One workload's full report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    pub bench: String,
    /// Golden cycles of the raw program — the cost denominator.
    pub raw_cycles: u64,
    pub models: Vec<ModelFrontier>,
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreReport {
    pub trials: u64,
    pub seed: u64,
    pub levels_permille: Vec<u32>,
    pub models: Vec<ModelSpec>,
    pub detector_sets: Vec<Vec<DetectorSpec>>,
    pub workloads: Vec<WorkloadReport>,
}

/// Per-(model, unit) campaign result: one `OutcomeCounts` per detector
/// set, scored from a single trial stream.
struct JobResult {
    counts_per_set: Vec<OutcomeCounts>,
    golden_cycles: u64,
}

/// Run one (model, unit) campaign: execute `trials` detector-free trials
/// and post-classify each would-be SDC against every detector set.
fn run_job(
    unit: &TrialUnit,
    model: ModelSpec,
    sets: &[Vec<DetectorSpec>],
    spec: &ExploreSpec,
    cache: &GoldenCache,
) -> JobResult {
    let program = unit.program.as_ref().expect("explore sweeps assembly units");
    let mut runner = cache.runner::<AsmLayer>(unit.machine(), unit.raw_machine(), spec.snapshots, &spec.exec);
    let sites = runner.sites();
    let golden_cycles = runner.golden().cycles;
    let mut counts_per_set = vec![OutcomeCounts::default(); sets.len()];
    for i in 0..spec.trials {
        let t = runner.run_trial_model(spec.seed, i, model, &[]);
        if t.outcome != Outcome::Sdc {
            for c in &mut counts_per_set {
                c.record(t.outcome);
            }
            continue;
        }
        // The model is deterministic in (seed, trial): re-deriving the
        // spec recovers exactly the fault the runner injected, so every
        // detector set scores the same trial stream for free.
        let fspec = model.sample_asm(spec.seed, i, sites);
        let flips = flip_count(fspec.second_bit, fspec.effect);
        let class = t
            .injected_inst
            .map(|idx| classify_asm_fault(fspec.effect, program.insts[idx as usize].kind.fault_dest()));
        for (c, ds) in counts_per_set.iter_mut().zip(sets) {
            let caught = class.is_some_and(|cl| any_catches(ds, cl, flips));
            c.record(if caught { Outcome::Detected } else { Outcome::Sdc });
        }
    }
    JobResult { counts_per_set, golden_cycles }
}

/// Cycle overhead of `prot` over `raw` in permille (truncating division).
fn cycle_overhead_permille(raw: u64, prot: u64) -> i64 {
    if raw == 0 {
        return 0;
    }
    ((prot as i128 - raw as i128) * 1000 / raw as i128) as i64
}

/// Sort points by ascending cost (ties: descending coverage, then the
/// deterministic identity order) and mark the non-dominated subset.
fn pareto(points: &mut [DesignPoint]) -> Vec<DesignPoint> {
    points.sort_by(|a, b| {
        a.cost_permille
            .cmp(&b.cost_permille)
            .then(b.coverage.total_cmp(&a.coverage))
            .then(a.label().cmp(&b.label()))
    });
    let mut frontier = Vec::new();
    let mut best = f64::NEG_INFINITY;
    for p in points.iter_mut() {
        if p.coverage > best {
            best = p.coverage;
            p.on_frontier = true;
            frontier.push(p.clone());
        } else {
            p.on_frontier = false;
        }
    }
    frontier
}

/// Run the sweep. The cache is shared across every (model, detector set)
/// evaluation — goldens and snapshot sets are obtained once per distinct
/// program content.
pub fn explore(spec: &ExploreSpec, cache: &GoldenCache) -> ExploreReport {
    let sets = spec.canonical_detector_sets();
    let mspec = MatrixSpec {
        benches: spec.benches.clone(),
        scale: spec.scale,
        levels: spec.levels.clone(),
        profile_trials: spec.profile_trials,
        threads: spec.threads,
        ..Default::default()
    };
    let units: Vec<TrialUnit> = build_matrix(&mspec).into_iter().filter(|u| u.key.layer == Layer::Asm).collect();

    // Jobs: unit-major so workers touching the same bench cluster in time
    // (better snapshot-set cache locality), claimed off a shared cursor.
    let jobs: Vec<(usize, usize)> = (0..units.len())
        .flat_map(|ui| (0..spec.models.len()).map(move |mi| (ui, mi)))
        .collect();
    let results: Vec<Mutex<Option<JobResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..flowery_inject::campaign::worker_threads(spec.threads).min(jobs.len().max(1)) {
            scope.spawn(|| loop {
                let j = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(ui, mi)) = jobs.get(j) else { return };
                let out = run_job(&units[ui], spec.models[mi], &sets, spec, cache);
                *results[j].lock().unwrap() = Some(out);
            });
        }
    });
    let result_of = |ui: usize, mi: usize| -> JobResult {
        let j = ui * spec.models.len() + mi;
        results[j].lock().unwrap().take().expect("every job ran")
    };

    // Assemble per-workload frontiers in bench order.
    let mut benches: Vec<String> = Vec::new();
    for u in &units {
        if !benches.contains(&u.key.bench) {
            benches.push(u.key.bench.clone());
        }
    }
    let mut workloads = Vec::new();
    for bench in &benches {
        let unit_ids: Vec<usize> = (0..units.len()).filter(|&ui| units[ui].key.bench == *bench).collect();
        let raw_ui = *unit_ids
            .iter()
            .find(|&&ui| units[ui].key.variant == Variant::Raw)
            .expect("matrix always contains the raw unit");
        // (unit, model) -> JobResult, taken once.
        let per_unit: Vec<Vec<JobResult>> = unit_ids
            .iter()
            .map(|&ui| (0..spec.models.len()).map(|mi| result_of(ui, mi)).collect())
            .collect();
        let raw_pos = unit_ids.iter().position(|&ui| ui == raw_ui).unwrap();
        let raw_cycles = per_unit[raw_pos][0].golden_cycles;
        let mut models = Vec::new();
        for (mi, &model) in spec.models.iter().enumerate() {
            let baseline = per_unit[raw_pos][mi].counts_per_set[0];
            let mut points = Vec::new();
            for (pos, &ui) in unit_ids.iter().enumerate() {
                let job = &per_unit[pos][mi];
                let overhead = cycle_overhead_permille(raw_cycles, job.golden_cycles);
                for (si, ds) in sets.iter().enumerate() {
                    let counts = job.counts_per_set[si];
                    let cov = Coverage::compute(&baseline, &counts);
                    points.push(DesignPoint {
                        variant: units[ui].key.variant,
                        level_permille: units[ui].key.level_permille,
                        detectors: ds.clone(),
                        cost_permille: overhead + detector_overhead_permille(ds) as i64,
                        coverage: cov.coverage,
                        sdc: cov.sdc_prot,
                        counts,
                        golden_cycles: job.golden_cycles,
                        on_frontier: false,
                    });
                }
            }
            let frontier = pareto(&mut points);
            models.push(ModelFrontier {
                fault_model: model,
                baseline_sdc: Estimate::proportion(baseline.sdc, baseline.total()),
                points,
                frontier,
            });
        }
        workloads.push(WorkloadReport { bench: bench.clone(), raw_cycles, models });
    }

    ExploreReport {
        trials: spec.trials,
        seed: spec.seed,
        levels_permille: spec.levels.iter().map(|&l| (l * 1000.0).round() as u32).collect(),
        models: spec.models.clone(),
        detector_sets: sets,
        workloads,
    }
}

/// Render the frontiers as a fixed-width table, one block per workload.
pub fn render_table(report: &ExploreReport) -> String {
    let mut out = String::new();
    for w in &report.workloads {
        let _ = writeln!(out, "{} (raw cycles {})", w.bench, w.raw_cycles);
        for m in &w.models {
            let _ = writeln!(
                out,
                "  {} (baseline SDC {:.1}% ± {:.1})",
                m.fault_model,
                m.baseline_sdc.value * 100.0,
                m.baseline_sdc.ci95 * 100.0
            );
            let _ = writeln!(out, "    {:<24} {:>8} {:>10} {:>8}", "design", "cost\u{2030}", "coverage%", "SDC%");
            for p in &m.frontier {
                let _ = writeln!(
                    out,
                    "    {:<24} {:>8} {:>10.1} {:>8.2}",
                    p.label(),
                    p.cost_permille,
                    p.coverage * 100.0,
                    p.sdc.value * 100.0
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExploreSpec {
        ExploreSpec {
            benches: vec!["crc32".into()],
            scale: Scale::Tiny,
            models: vec![ModelSpec::SingleBitReg, ModelSpec::ControlFlow],
            detector_sets: vec![vec![], vec![DetectorSpec::Parity], vec![DetectorSpec::CfSig]],
            levels: vec![1.0],
            trials: 120,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn frontier_is_nonempty_sorted_and_nondominated() {
        let report = explore(&tiny_spec(), &GoldenCache::new());
        assert_eq!(report.workloads.len(), 1);
        let w = &report.workloads[0];
        assert_eq!(w.models.len(), 2);
        for m in &w.models {
            // Raw + Id@1000 + Flowery@1000, each × 3 detector sets.
            assert_eq!(m.points.len(), 9, "{}", m.fault_model);
            assert!(!m.frontier.is_empty());
            // Ascending cost, strictly ascending coverage.
            for pair in m.frontier.windows(2) {
                assert!(pair[0].cost_permille <= pair[1].cost_permille);
                assert!(pair[0].coverage < pair[1].coverage);
            }
            // The frontier truly dominates: no off-frontier point beats a
            // frontier point on both axes.
            for p in m.points.iter().filter(|p| !p.on_frontier) {
                assert!(
                    m.frontier
                        .iter()
                        .any(|f| f.cost_permille <= p.cost_permille && f.coverage >= p.coverage),
                    "dominated point not covered: {}",
                    p.label()
                );
            }
            let marked: Vec<_> = m.points.iter().filter(|p| p.on_frontier).cloned().collect();
            assert_eq!(marked, m.frontier);
        }
    }

    #[test]
    fn detector_sets_share_one_trial_stream() {
        // The detector-free counts must equal an engine-style campaign
        // under the same model/seed, and each detector set can only move
        // trials from SDC to Detected — totals and benign/due are fixed.
        let spec = tiny_spec();
        let report = explore(&spec, &GoldenCache::new());
        for m in &report.workloads[0].models {
            let base: Vec<_> = m.points.iter().filter(|p| p.detectors.is_empty()).collect();
            for p in &m.points {
                let b = base
                    .iter()
                    .find(|b| b.variant == p.variant && b.level_permille == p.level_permille)
                    .unwrap();
                assert_eq!(p.counts.total(), spec.trials);
                assert_eq!(p.counts.benign, b.counts.benign, "{}", p.label());
                assert_eq!(p.counts.due, b.counts.due, "{}", p.label());
                assert!(p.counts.sdc <= b.counts.sdc, "{}", p.label());
                assert_eq!(p.counts.sdc + p.counts.detected, b.counts.sdc + b.counts.detected, "{}", p.label());
            }
        }
    }

    #[test]
    fn explore_is_deterministic_and_snapshot_independent() {
        let spec = ExploreSpec { trials: 80, ..tiny_spec() };
        let a = explore(&spec, &GoldenCache::new());
        let b = explore(&spec, &GoldenCache::new());
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        let scratch = explore(&ExploreSpec { snapshots: false, threads: 3, ..spec }, &GoldenCache::new());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&scratch).unwrap(),
            "snapshot fast-forward must not change explore results"
        );
    }

    #[test]
    fn report_roundtrips_through_json() {
        let spec = ExploreSpec { trials: 60, models: vec![ModelSpec::FlagsPc], ..tiny_spec() };
        let report = explore(&spec, &GoldenCache::new());
        let json = serde_json::to_string(&report).unwrap();
        let back: ExploreReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(render_table(&report).contains("crc32"));
    }
}
