//! The paper's cross-layer study as a view over a campaign: the matrix
//! [`build_matrix`] lays out (per benchmark Raw at both layers, per level
//! Id at both layers and Id+Flowery at the assembly layer) drains through
//! [`run_units`] like any other campaign, and [`study`] reads coverage,
//! overhead and root causes off the finished report — a pure function of
//! it, so the figures come out the same on every engine, with or without
//! snapshots or pruning, in one run or resumed from a checkpoint.

use flowery_analysis::{classify_campaign_with, PenetrationBreakdown};
use flowery_backend::BackendConfig;
use flowery_harness::{
    build_matrix, run_units, GoldenCache, HarnessConfig, Layer, MatrixSpec, RunOptions, TrialUnit, UnitKey, UnitResult,
    Variant,
};
use flowery_inject::{Coverage, OutcomeCounts};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fault-injection results for one protection level of one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelResults {
    pub level: f64,
    /// SDC coverage of ID measured at the IR layer (what prior work
    /// reports).
    pub id_ir: Coverage,
    /// SDC coverage of ID measured at the assembly layer (the realistic
    /// number).
    pub id_asm: Coverage,
    /// SDC coverage of ID+Flowery at the assembly layer.
    pub flowery_asm: Coverage,
    pub id_ir_counts: OutcomeCounts,
    pub id_asm_counts: OutcomeCounts,
    pub flowery_asm_counts: OutcomeCounts,
    /// Root-cause classification of the assembly-level SDCs under ID.
    pub rootcause: PenetrationBreakdown,
    /// Golden dynamic instruction / cycle counts for overhead analysis.
    pub raw_dyn: u64,
    pub id_dyn: u64,
    pub flowery_dyn: u64,
    pub raw_cycles: u64,
    pub id_cycles: u64,
    pub flowery_cycles: u64,
}

/// All results for one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchResults {
    pub name: String,
    pub static_insts: usize,
    pub raw_ir_counts: OutcomeCounts,
    pub raw_asm_counts: OutcomeCounts,
    pub raw_ir_dyn: u64,
    pub raw_asm_dyn: u64,
    pub levels: Vec<LevelResults>,
}

impl BenchResults {
    /// The level entry closest to full protection.
    pub fn full_level(&self) -> &LevelResults {
        self.levels
            .iter()
            .max_by(|a, b| a.level.partial_cmp(&b.level).unwrap())
            .expect("at least one level")
    }

    /// Results at a specific level.
    pub fn at_level(&self, level: f64) -> Option<&LevelResults> {
        self.levels.iter().find(|l| (l.level - level).abs() < 1e-9)
    }
}

/// Results for every benchmark in the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyResults {
    pub benches: Vec<BenchResults>,
    /// Trials behind the largest cell (the schedule's cap, unless every
    /// unit stopped early).
    pub trials: u64,
    pub levels: Vec<f64>,
}

impl StudyResults {
    /// Aggregated root-cause distribution at full protection (Figure 3).
    pub fn aggregate_rootcause(&self) -> PenetrationBreakdown {
        let mut out = PenetrationBreakdown::default();
        for b in &self.benches {
            out.merge(&b.full_level().rootcause);
        }
        out
    }
}

/// A report's results by unit key. A report that lacks any of `units` is
/// refused: figures over part of a matrix would mislead.
pub(crate) fn index<'r>(
    units: &[TrialUnit],
    results: &'r [UnitResult],
) -> Result<HashMap<&'r UnitKey, &'r UnitResult>, String> {
    let by_key: HashMap<&UnitKey, &UnitResult> = results.iter().map(|r| (&r.key, r)).collect();
    let mut missing = units.iter().map(|u| &u.key).filter(|key| !by_key.contains_key(key));
    match missing.next() {
        None => Ok(by_key),
        Some(first) => Err(format!(
            "partial report: {} of {} unit results missing (first: {first})",
            1 + missing.count(),
            units.len()
        )),
    }
}

/// The study of a finished campaign over a [`build_matrix`] matrix: a pure
/// lookup of `results` by unit key, benchmarks and levels in `units` order.
/// Golden instruction and cycle counts come with the results; root causes
/// classify the Id@Asm cell's SDC injections against that unit's program
/// (compiled under `backend`). A partial report — an interrupted campaign,
/// say — is refused, naming the first missing unit and how many are missing.
pub fn study(units: &[TrialUnit], results: &[UnitResult], backend: &BackendConfig) -> Result<StudyResults, String> {
    let by_key = index(units, results)?;
    let cell = |bench: &str, variant, level: f64, layer| {
        let key = UnitKey::new(bench, variant, level, layer);
        by_key.get(&key).copied().ok_or(format!("not a study matrix: no unit {key}"))
    };
    let is = |u: &TrialUnit, variant, layer| u.key.variant == variant && u.key.layer == layer;
    let mut benches = Vec::new();
    for raw in units.iter().filter(|u| is(u, Variant::Raw, Layer::Ir)) {
        let name = raw.key.bench.as_str();
        let raw_ir = cell(name, Variant::Raw, 0.0, Layer::Ir)?;
        let raw_asm = cell(name, Variant::Raw, 0.0, Layer::Asm)?;
        let mut levels = Vec::new();
        for id in units.iter().filter(|u| u.key.bench == name && is(u, Variant::Id, Layer::Asm)) {
            let level = id.key.level();
            let id_ir = cell(name, Variant::Id, level, Layer::Ir)?;
            let id_asm = cell(name, Variant::Id, level, Layer::Asm)?;
            let fl_asm = cell(name, Variant::Flowery, level, Layer::Asm)?;
            let program = id.program.as_ref().expect("asm unit has a program");
            levels.push(LevelResults {
                level,
                id_ir: Coverage::compute(&raw_ir.counts, &id_ir.counts),
                id_asm: Coverage::compute(&raw_asm.counts, &id_asm.counts),
                flowery_asm: Coverage::compute(&raw_asm.counts, &fl_asm.counts),
                id_ir_counts: id_ir.counts,
                id_asm_counts: id_asm.counts,
                flowery_asm_counts: fl_asm.counts,
                rootcause: classify_campaign_with(&id.module, program, &id_asm.sdc_insts, backend.fold_compares),
                raw_dyn: raw_asm.golden_dyn_insts,
                id_dyn: id_asm.golden_dyn_insts,
                flowery_dyn: fl_asm.golden_dyn_insts,
                raw_cycles: raw_asm.golden_cycles,
                id_cycles: id_asm.golden_cycles,
                flowery_cycles: fl_asm.golden_cycles,
            });
        }
        benches.push(BenchResults {
            name: name.to_string(),
            static_insts: raw.module.static_size(),
            raw_ir_counts: raw_ir.counts,
            raw_asm_counts: raw_asm.counts,
            raw_ir_dyn: raw_ir.golden_dyn_insts,
            raw_asm_dyn: raw_asm.golden_dyn_insts,
            levels,
        });
    }
    let levels = benches
        .first()
        .map_or(Vec::new(), |b| b.levels.iter().map(|l| l.level).collect());
    Ok(StudyResults {
        benches,
        trials: results.iter().map(|r| r.trials).max().unwrap_or(0),
        levels,
    })
}

/// Run the study: [`build_matrix`] → [`run_units`] → [`study`]. `opts`
/// carries what any campaign may — a checkpoint to append to, replayed
/// batches, a progress callback.
pub fn run_study(spec: &MatrixSpec, cfg: &HarnessConfig, opts: RunOptions<'_>) -> Result<StudyResults, String> {
    let units = build_matrix(spec);
    study(&units, &run_units(&units, cfg, &GoldenCache::new(), opts).complete()?, &spec.backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_workloads::Scale;

    fn smoke(benches: &[&str]) -> (MatrixSpec, HarnessConfig) {
        let spec = MatrixSpec {
            benches: benches.iter().map(|b| b.to_string()).collect(),
            scale: Scale::Tiny,
            ..Default::default()
        };
        (spec, HarnessConfig { max_trials: 120, batch_size: 60, ..Default::default() })
    }

    #[test]
    fn smoke_pipeline_single_bench() {
        let (spec, cfg) = smoke(&["quicksort"]);
        let s = run_study(&spec, &cfg, RunOptions::default()).unwrap();
        assert_eq!((s.benches.len(), s.trials, s.levels.as_slice()), (1, 120, &[1.0][..]));
        let r = &s.benches[0];
        assert_eq!(r.levels.len(), 1);
        let full = r.full_level();
        // The structural laws of the paper at full protection:
        assert!(full.id_ir.coverage > 0.95, "IR full coverage ~100%: {:?}", full.id_ir);
        assert!(
            full.id_asm.coverage < full.id_ir.coverage,
            "assembly coverage falls short: {} vs {}",
            full.id_asm.coverage,
            full.id_ir.coverage
        );
        assert!(full.flowery_asm.coverage >= full.id_asm.coverage, "Flowery must not reduce coverage");
        assert!(full.id_dyn > full.raw_dyn, "duplication costs dynamic instructions");
        assert!(full.flowery_dyn >= full.id_dyn);
        assert!(full.rootcause.total() > 0, "assembly SDCs exist to classify");
    }

    #[test]
    fn study_aggregates() {
        let (spec, cfg) = smoke(&["pathfinder", "is"]);
        let s = run_study(&spec, &cfg, RunOptions::default()).unwrap();
        assert_eq!(s.benches.len(), 2);
        let cells = crate::figures::coverage(&s);
        assert!(cells.iter().map(|c| c.gap_pct()).sum::<f64>() > 0.0, "{cells:?}");
        assert!(cells.iter().map(|c| c.flowery_asm_pct - c.id_asm_pct).sum::<f64>() > 0.0, "{cells:?}");
        assert!(s.aggregate_rootcause().deficiency_total() > 0);
    }

    #[test]
    fn a_partial_report_is_refused_naming_the_missing_unit() {
        let (spec, cfg) = smoke(&["crc32"]);
        let units = build_matrix(&spec);
        let mut results = run_units(&units, &cfg, &GoldenCache::new(), RunOptions::default()).units;
        assert!(study(&units, &results, &spec.backend).is_ok());
        let dropped = results.remove(3);
        let err = study(&units, &results, &spec.backend).unwrap_err();
        assert!(err.contains(&dropped.key.id()) && err.contains("1 of 5"), "{err}");
    }
}
