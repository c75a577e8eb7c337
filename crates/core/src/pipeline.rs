//! The per-benchmark experiment pipeline: compile → profile → protect at
//! each level (ID, then ID+Flowery) → fault-inject at both layers →
//! coverage, overhead, and root-cause statistics.
//!
//! Campaign execution is delegated to the `flowery-harness` engine: every
//! (benchmark, variant, layer) cell becomes one [`TrialUnit`] and the
//! whole matrix drains under a single work-stealing scheduler, with golden
//! runs shared through a content-addressed [`GoldenCache`] (the overhead
//! measurements below reuse the campaign goldens for free).

use crate::config::ExperimentConfig;
use flowery_analysis::PenetrationBreakdown;
use flowery_backend::{compile_module, AsmProgram};
use flowery_harness::{
    run_units, status_printer, GoldenCache, Layer, Progress, RunOptions, TrialUnit, UnitKey, UnitResult, Variant,
};
use flowery_inject::{Coverage, OutcomeCounts};
use flowery_ir::Module;
use flowery_passes::{
    apply_flowery, choose_protection, duplicate_module, DupConfig, DupStats, FloweryConfig, FloweryStats,
    ProtectionPlan,
};
use flowery_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Protected modules for one protection level.
#[derive(Debug, Clone)]
pub struct LevelModules {
    pub level: f64,
    pub selected: usize,
    pub id: Module,
    pub flowery: Module,
    pub dup_stats: DupStats,
    pub flowery_stats: FloweryStats,
    /// Wall-clock seconds the Flowery transformation took (paper §7.3).
    pub flowery_secs: f64,
}

/// A benchmark with all its protected variants prepared.
#[derive(Debug, Clone)]
pub struct PreparedBench {
    pub name: &'static str,
    pub raw: Module,
    pub levels: Vec<LevelModules>,
    /// Static instruction count of the raw program.
    pub static_insts: usize,
}

/// Prepare a workload: compile, profile, and build protected variants.
pub fn prepare(w: &Workload, cfg: &ExperimentConfig) -> PreparedBench {
    let raw = w.compile();
    let profile = flowery_inject::profile_sdc(&raw, &cfg.profile_campaign());
    let mut levels = Vec::with_capacity(cfg.levels.len());
    for &level in &cfg.levels {
        let plan = if (level - 1.0).abs() < 1e-9 {
            ProtectionPlan::full(&raw)
        } else {
            choose_protection(&raw, &profile, level)
        };
        let selected = plan.selected_count();
        let mut id = raw.clone();
        let dup_stats = duplicate_module(&mut id, &plan, &DupConfig::default());
        let mut flowery = id.clone();
        let t0 = Instant::now();
        let flowery_stats = apply_flowery(&mut flowery, &FloweryConfig::default());
        let flowery_secs = t0.elapsed().as_secs_f64();
        levels.push(LevelModules {
            level,
            selected,
            id,
            flowery,
            dup_stats,
            flowery_stats,
            flowery_secs,
        });
    }
    PreparedBench { name: w.name, static_insts: raw.static_size(), raw, levels }
}

/// Fault-injection results for one protection level of one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelResults {
    pub level: f64,
    /// Instructions selected for duplication.
    pub selected: usize,
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
    /// Flowery pass wall-clock seconds (paper §7.3).
    pub flowery_secs: f64,
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

/// Run the complete cross-layer study for one benchmark.
pub fn run_bench(w: &Workload, cfg: &ExperimentConfig) -> BenchResults {
    let prepared = prepare(w, cfg);
    run_prepared(&prepared, cfg)
}

/// Compiled programs for one prepared benchmark, kept for root-cause
/// classification and golden-cache overhead lookups after the campaigns.
struct BenchPrograms {
    raw: Arc<AsmProgram>,
    /// Per level: (ID program, ID+Flowery program).
    levels: Vec<(Arc<AsmProgram>, Arc<AsmProgram>)>,
}

/// Decompose one prepared benchmark into schedulable trial units.
fn bench_units(p: &PreparedBench, cfg: &ExperimentConfig) -> (Vec<TrialUnit>, BenchPrograms) {
    let raw = Arc::new(p.raw.clone());
    let raw_prog = Arc::new(compile_module(&p.raw, &cfg.backend));
    let mut units = vec![
        TrialUnit::ir(UnitKey::new(p.name, Variant::Raw, 0.0, Layer::Ir), raw.clone()),
        TrialUnit::asm(UnitKey::new(p.name, Variant::Raw, 0.0, Layer::Asm), raw.clone(), raw_prog.clone()),
    ];
    let mut levels = Vec::with_capacity(p.levels.len());
    for lm in &p.levels {
        let id = Arc::new(lm.id.clone());
        let id_prog = Arc::new(compile_module(&lm.id, &cfg.backend));
        let fl = Arc::new(lm.flowery.clone());
        let fl_prog = Arc::new(compile_module(&lm.flowery, &cfg.backend));
        units.push(
            TrialUnit::ir(UnitKey::new(p.name, Variant::Id, lm.level, Layer::Ir), id.clone())
                .with_raw(raw.clone(), None),
        );
        units.push(
            TrialUnit::asm(UnitKey::new(p.name, Variant::Id, lm.level, Layer::Asm), id, id_prog.clone())
                .with_raw(raw.clone(), Some(raw_prog.clone())),
        );
        units.push(
            TrialUnit::asm(UnitKey::new(p.name, Variant::Flowery, lm.level, Layer::Asm), fl, fl_prog.clone())
                .with_raw(raw.clone(), Some(raw_prog.clone())),
        );
        levels.push((id_prog, fl_prog));
    }
    (units, BenchPrograms { raw: raw_prog, levels })
}

/// Assemble [`BenchResults`] from the harness unit results. Overhead
/// goldens come from the cache the engine already populated.
fn assemble_bench(
    p: &PreparedBench,
    cfg: &ExperimentConfig,
    progs: &BenchPrograms,
    results: &HashMap<UnitKey, &UnitResult>,
    cache: &GoldenCache,
) -> BenchResults {
    let get = |variant, level: f64, layer| -> &UnitResult {
        let key = UnitKey::new(p.name, variant, level, layer);
        results.get(&key).unwrap_or_else(|| panic!("missing unit result {key}"))
    };
    let raw_ir = get(Variant::Raw, 0.0, Layer::Ir);
    let raw_asm = get(Variant::Raw, 0.0, Layer::Asm);
    let exec = Default::default();
    let raw_golden = cache.asm_golden(&p.raw, &progs.raw, &exec);

    let mut levels = Vec::with_capacity(p.levels.len());
    for (lm, (id_prog, fl_prog)) in p.levels.iter().zip(&progs.levels) {
        let id_ir = get(Variant::Id, lm.level, Layer::Ir);
        let id_asm = get(Variant::Id, lm.level, Layer::Asm);
        let fl_asm = get(Variant::Flowery, lm.level, Layer::Asm);
        let rootcause =
            flowery_analysis::classify_campaign_with(&lm.id, id_prog, &id_asm.sdc_insts, cfg.backend.fold_compares);
        let id_golden = cache.asm_golden(&lm.id, id_prog, &exec);
        let fl_golden = cache.asm_golden(&lm.flowery, fl_prog, &exec);
        levels.push(LevelResults {
            level: lm.level,
            selected: lm.selected,
            id_ir: Coverage::compute(&raw_ir.counts, &id_ir.counts),
            id_asm: Coverage::compute(&raw_asm.counts, &id_asm.counts),
            flowery_asm: Coverage::compute(&raw_asm.counts, &fl_asm.counts),
            id_ir_counts: id_ir.counts,
            id_asm_counts: id_asm.counts,
            flowery_asm_counts: fl_asm.counts,
            rootcause,
            raw_dyn: raw_golden.dyn_insts,
            id_dyn: id_golden.dyn_insts,
            flowery_dyn: fl_golden.dyn_insts,
            raw_cycles: raw_golden.cycles,
            id_cycles: id_golden.cycles,
            flowery_cycles: fl_golden.cycles,
            flowery_secs: lm.flowery_secs,
        });
    }

    BenchResults {
        name: p.name.to_string(),
        static_insts: p.static_insts,
        raw_ir_counts: raw_ir.counts,
        raw_asm_counts: raw_asm.counts,
        raw_ir_dyn: raw_ir.golden_dyn_insts,
        raw_asm_dyn: raw_asm.golden_dyn_insts,
        levels,
    }
}

/// Run campaigns over a prepared benchmark through the harness engine.
pub fn run_prepared(p: &PreparedBench, cfg: &ExperimentConfig) -> BenchResults {
    let (units, progs) = bench_units(p, cfg);
    let cache = GoldenCache::new();
    let progress = status_printer("[harness]");
    let opts = RunOptions {
        progress: cfg.verbose.then_some(&progress as Progress<'_>),
        ..Default::default()
    };
    let report = run_units(&units, &cfg.harness(), &cache, opts);
    let map: HashMap<UnitKey, &UnitResult> = report.units.iter().map(|u| (u.key.clone(), u)).collect();
    assemble_bench(p, cfg, &progs, &map, &cache)
}

/// Results for every benchmark in the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyResults {
    pub benches: Vec<BenchResults>,
    pub trials: u64,
    pub levels: Vec<f64>,
}

impl StudyResults {
    /// Average IR-vs-assembly coverage gap of ID across all benchmarks and
    /// levels (the paper's headline 31.21%).
    pub fn average_gap(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for b in &self.benches {
            for l in &b.levels {
                sum += l.id_ir.coverage - l.id_asm.coverage;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Average coverage improvement from Flowery over ID at assembly level.
    pub fn average_flowery_gain(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for b in &self.benches {
            for l in &b.levels {
                sum += l.flowery_asm.coverage - l.id_asm.coverage;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Aggregated root-cause distribution at full protection (Figure 3).
    pub fn aggregate_rootcause(&self) -> PenetrationBreakdown {
        let mut out = PenetrationBreakdown::default();
        for b in &self.benches {
            out.merge(&b.full_level().rootcause);
        }
        out
    }
}

/// Run the study for the given benchmark names (or all 16 when empty).
///
/// All campaigns of all benchmarks share one work-stealing scheduler and
/// one golden cache: no per-campaign (or per-benchmark) barrier ever
/// leaves cores idle while a straggler finishes.
pub fn run_study(names: &[&str], cfg: &ExperimentConfig) -> StudyResults {
    let names: Vec<&str> = if names.is_empty() {
        flowery_workloads::NAMES.to_vec()
    } else {
        names.to_vec()
    };
    let prepared: Vec<PreparedBench> = names
        .iter()
        .map(|name| {
            if cfg.verbose {
                eprintln!("[{name}] preparing protected variants");
            }
            prepare(&flowery_workloads::workload(name, cfg.scale), cfg)
        })
        .collect();
    run_prepared_study(&prepared, cfg)
}

/// Run one engine pass over every unit of every prepared benchmark.
pub fn run_prepared_study(prepared: &[PreparedBench], cfg: &ExperimentConfig) -> StudyResults {
    let mut all_units = Vec::new();
    let mut all_progs = Vec::with_capacity(prepared.len());
    for p in prepared {
        let (units, progs) = bench_units(p, cfg);
        all_units.extend(units);
        all_progs.push(progs);
    }
    let cache = GoldenCache::new();
    let progress = status_printer("[harness]");
    let opts = RunOptions {
        progress: cfg.verbose.then_some(&progress as Progress<'_>),
        ..Default::default()
    };
    let report = run_units(&all_units, &cfg.harness(), &cache, opts);
    if cfg.verbose {
        eprintln!("[harness] done: {}", report.metrics.render());
    }
    let map: HashMap<UnitKey, &UnitResult> = report.units.iter().map(|u| (u.key.clone(), u)).collect();
    let benches = prepared
        .iter()
        .zip(&all_progs)
        .map(|(p, progs)| assemble_bench(p, cfg, progs, &map, &cache))
        .collect();
    StudyResults { benches, trials: cfg.trials, levels: cfg.levels.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pipeline_single_bench() {
        let cfg = ExperimentConfig::smoke();
        let w = flowery_workloads::workload("quicksort", cfg.scale);
        let r = run_bench(&w, &cfg);
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
        let cfg = ExperimentConfig::smoke();
        let s = run_study(&["pathfinder", "is"], &cfg);
        assert_eq!(s.benches.len(), 2);
        assert!(s.average_gap() > 0.0, "gap {}", s.average_gap());
        assert!(s.average_flowery_gain() > 0.0, "gain {}", s.average_flowery_gain());
        assert!(s.aggregate_rootcause().deficiency_total() > 0);
    }
}
