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
//! The sweep is a view over the campaign engine: one detector-free
//! [`run_units`] pass per fault model over the matrix's assembly units —
//! the same scheduler, snapshots, engines, status line and Ctrl-C drain as
//! `flowery campaign`, with goldens and snapshot sets captured once across
//! the whole sweep through the shared [`GoldenCache`]. Detectors never
//! change execution: they post-classify would-be SDCs by the class of the
//! injected fault, and that class is a function of the model's effect kind
//! and flip count (constants of a [`ModelSpec`] — only offsets and targets
//! are drawn) and of the destination of the instruction the fault landed on
//! ([`UnitResult::sdc_insts`]). So a detector set's tally is the
//! detector-free tally with one SDC moved to Detected per SDC injection the
//! set catches, and adding a set to the sweep costs zero extra executions.

use crate::cache::GoldenCache;
use crate::engine::{run_units, HarnessConfig, Progress, RunOptions, UnitResult};
use crate::plan::{build_matrix, Layer, MatrixSpec, TrialUnit, Variant};
use flowery_faultmodel::{
    any_catches, classify_asm_fault, detector_overhead_permille, flip_count, DetectorSpec, ModelSpec, REGISTERED_MODELS,
};
use flowery_inject::{Coverage, Estimate, OutcomeCounts};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The axes the sweep adds to a matrix ([`MatrixSpec`]) and a trial
/// schedule ([`HarnessConfig`]).
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// Fault models; each gets its own baseline and frontier.
    pub models: Vec<ModelSpec>,
    /// Detector combinations; the empty set is always evaluated (it is the
    /// coverage baseline) whether listed or not.
    pub detector_sets: Vec<Vec<DetectorSpec>>,
}

impl Default for ExploreSpec {
    fn default() -> ExploreSpec {
        ExploreSpec {
            models: REGISTERED_MODELS.to_vec(),
            detector_sets: vec![
                vec![],
                vec![DetectorSpec::Parity],
                vec![DetectorSpec::CfSig],
                vec![DetectorSpec::Parity, DetectorSpec::CfSig],
            ],
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

/// `res`'s detector-free tally as detector set `ds` would have scored it:
/// every SDC whose injection `ds` catches becomes a detection.
fn rescored(unit: &TrialUnit, res: &UnitResult, model: ModelSpec, ds: &[DetectorSpec]) -> OutcomeCounts {
    // Any draw stands for the model: the effect kind and the presence of a
    // second bit are fixed per model, which is all the classifiers read.
    let fault = model.sample_asm(0, 0, 1);
    let flips = flip_count(fault.second_bit, fault.effect);
    let insts = &unit.program.as_ref().expect("explore sweeps assembly units").insts;
    let catches =
        |&idx: &u32| any_catches(ds, classify_asm_fault(fault.effect, insts[idx as usize].kind.fault_dest()), flips);
    let caught = res.sdc_insts.iter().filter(|idx| catches(idx)).count() as u64;
    OutcomeCounts {
        sdc: res.counts.sdc - caught,
        detected: res.counts.detected + caught,
        ..res.counts
    }
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

/// Run the sweep: one engine pass per fault model over `matrix`'s assembly
/// units under `cfg`'s schedule (its `fault_model` and `detectors` are the
/// swept axes and are ignored), then score every detector set from the
/// pass's SDC injections. `progress` is the engine's callback; a run it
/// stops, or an engine error, is an `Err` — a frontier over half a sweep
/// would mislead.
pub fn explore(
    spec: &ExploreSpec,
    matrix: &MatrixSpec,
    cfg: &HarnessConfig,
    cache: &GoldenCache,
    progress: Option<Progress<'_>>,
) -> Result<ExploreReport, String> {
    let sets = spec.canonical_detector_sets();
    let units: Vec<TrialUnit> = build_matrix(matrix).into_iter().filter(|u| u.key.layer == Layer::Asm).collect();

    // Per model, every unit's detector-free result in `units` order.
    let mut per_model: Vec<Vec<UnitResult>> = Vec::with_capacity(spec.models.len());
    for &model in &spec.models {
        let cfg = HarnessConfig { fault_model: model, detectors: Vec::new(), ..cfg.clone() };
        per_model.push(run_units(&units, &cfg, cache, RunOptions { progress, ..Default::default() }).complete()?);
    }

    // Assemble per-workload frontiers in bench order: one raw unit each.
    let mut workloads = Vec::new();
    for raw in (0..units.len()).filter(|&ui| units[ui].key.variant == Variant::Raw) {
        let bench = &units[raw].key.bench;
        let ids: Vec<usize> = (0..units.len()).filter(|&ui| units[ui].key.bench == *bench).collect();
        let raw_cycles = per_model.first().map_or(0, |results| results[raw].golden_cycles);
        let mut models = Vec::new();
        for (&model, results) in spec.models.iter().zip(&per_model) {
            let baseline = results[raw].counts;
            let mut points = Vec::new();
            for &ui in &ids {
                let (unit, res) = (&units[ui], &results[ui]);
                let overhead = cycle_overhead_permille(raw_cycles, res.golden_cycles);
                for ds in &sets {
                    let counts = rescored(unit, res, model, ds);
                    let cov = Coverage::compute(&baseline, &counts);
                    points.push(DesignPoint {
                        variant: unit.key.variant,
                        level_permille: unit.key.level_permille,
                        detectors: ds.clone(),
                        cost_permille: overhead + detector_overhead_permille(ds) as i64,
                        coverage: cov.coverage,
                        sdc: cov.sdc_prot,
                        counts,
                        golden_cycles: res.golden_cycles,
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

    Ok(ExploreReport {
        trials: cfg.max_trials,
        seed: cfg.seed,
        levels_permille: matrix.levels.iter().map(|&l| (l * 1000.0).round() as u32).collect(),
        models: spec.models.clone(),
        detector_sets: sets,
        workloads,
    })
}

/// Render the frontiers as Markdown: one table per workload, a row per
/// frontier point, each model named with its baseline SDC rate on its
/// first row.
pub fn render_table(report: &ExploreReport) -> String {
    let mut out = String::new();
    for w in &report.workloads {
        let mut rows = Vec::new();
        for m in &w.models {
            let baseline = format!("{:.1}% ± {:.1}", m.baseline_sdc.value * 100.0, m.baseline_sdc.ci95 * 100.0);
            rows.extend(m.frontier.iter().enumerate().map(|(i, p)| {
                let (model, baseline) = if i == 0 {
                    (m.fault_model.to_string(), baseline.clone())
                } else {
                    Default::default()
                };
                vec![
                    model,
                    baseline,
                    p.label(),
                    p.cost_permille.to_string(),
                    format!("{:.1}", p.coverage * 100.0),
                    format!("{:.2}", p.sdc.value * 100.0),
                ]
            }));
        }
        let header = ["model", "baseline SDC", "design", "cost\u{2030}", "coverage%", "SDC%"];
        let table = flowery_analysis::render_table(&header, &rows);
        let _ = write!(out, "{} (raw cycles {})\n\n{table}\n", w.bench, w.raw_cycles);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_workloads::Scale;

    fn tiny_spec() -> ExploreSpec {
        ExploreSpec {
            models: vec![ModelSpec::SingleBitReg, ModelSpec::ControlFlow],
            detector_sets: vec![vec![], vec![DetectorSpec::Parity], vec![DetectorSpec::CfSig]],
        }
    }

    fn tiny_matrix() -> MatrixSpec {
        MatrixSpec {
            benches: vec!["crc32".into()],
            scale: Scale::Tiny,
            ..Default::default()
        }
    }

    fn schedule(trials: u64) -> HarnessConfig {
        HarnessConfig { max_trials: trials, threads: 2, ..Default::default() }
    }

    fn sweep(spec: &ExploreSpec, cfg: &HarnessConfig) -> ExploreReport {
        explore(spec, &tiny_matrix(), cfg, &GoldenCache::new(), None).unwrap()
    }

    #[test]
    fn frontier_is_nonempty_sorted_and_nondominated() {
        let report = sweep(&tiny_spec(), &schedule(120));
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
    fn post_classified_tallies_equal_a_campaign_run_with_the_detectors_on() {
        // The pure re-scoring must reproduce what the engine counts when the
        // detector set rides along in the schedule, for every registered model.
        let spec = ExploreSpec { models: REGISTERED_MODELS.to_vec(), ..tiny_spec() };
        let cfg = schedule(120);
        let cache = GoldenCache::new();
        let report = explore(&spec, &tiny_matrix(), &cfg, &cache, None).unwrap();
        let units: Vec<TrialUnit> = build_matrix(&tiny_matrix())
            .into_iter()
            .filter(|u| u.program.is_some())
            .collect();
        let mut caught = 0;
        for m in &report.workloads[0].models {
            for ds in &report.detector_sets {
                let with = HarnessConfig {
                    fault_model: m.fault_model,
                    detectors: ds.clone(),
                    ..cfg.clone()
                };
                for res in run_units(&units, &with, &cache, RunOptions::default()).units {
                    let of_unit =
                        |p: &&DesignPoint| (p.variant, p.level_permille) == (res.key.variant, res.key.level_permille);
                    let p = m.points.iter().filter(of_unit).find(|p| p.detectors == *ds).unwrap();
                    let bare = m.points.iter().filter(of_unit).find(|p| p.detectors.is_empty()).unwrap();
                    assert_eq!(p.counts, res.counts, "{} {}", m.fault_model, p.label());
                    // A set only ever moves trials from SDC to Detected.
                    assert_eq!((p.counts.benign, p.counts.due), (bare.counts.benign, bare.counts.due));
                    assert_eq!(p.counts.total(), cfg.max_trials);
                    caught += bare.counts.sdc - p.counts.sdc;
                }
            }
        }
        assert!(caught > 0, "some detector set caught some SDC");
    }

    #[test]
    fn effect_kind_and_flip_count_are_constants_of_a_model() {
        // What `rescored` relies on: only offsets and targets are drawn.
        for &model in REGISTERED_MODELS {
            let probe = model.sample_asm(0, 0, 1);
            for (seed, trial) in [(1, 0), (7, 3), (0x0F10_EE41, 999)] {
                let f = model.sample_asm(seed, trial, 1000);
                assert_eq!(std::mem::discriminant(&f.effect), std::mem::discriminant(&probe.effect), "{model}");
                assert_eq!(flip_count(f.second_bit, f.effect), flip_count(probe.second_bit, probe.effect), "{model}");
            }
        }
    }

    #[test]
    fn explore_is_deterministic_and_snapshot_independent() {
        let (spec, cfg) = (tiny_spec(), schedule(80));
        let a = sweep(&spec, &cfg);
        let b = sweep(&spec, &cfg);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        let scratch = sweep(&spec, &HarnessConfig { snapshots: false, threads: 3, batch_size: 30, ..cfg });
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&scratch).unwrap(),
            "snapshot fast-forward, threads and batching must not change explore results"
        );
    }

    #[test]
    fn report_roundtrips_through_json() {
        let spec = ExploreSpec { models: vec![ModelSpec::FlagsPc], ..tiny_spec() };
        let report = sweep(&spec, &schedule(60));
        let json = serde_json::to_string(&report).unwrap();
        let back: ExploreReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(render_table(&report).contains("crc32"));
    }

    #[test]
    fn a_stopped_sweep_is_an_error_not_half_a_frontier() {
        let stop = |_: &crate::MetricsSnapshot| crate::Control::Stop;
        let cfg = HarnessConfig { batch_size: 10, threads: 1, ..schedule(60) };
        let err = explore(&tiny_spec(), &tiny_matrix(), &cfg, &GoldenCache::new(), Some(&stop)).unwrap_err();
        assert!(err.contains("interrupted"), "{err}");
    }
}
