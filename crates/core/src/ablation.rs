//! Ablation experiments over the backend mechanisms that produce the
//! cross-layer deficiencies (DESIGN.md §4). Each ablation switches off or
//! resizes one mechanism and re-measures full-protection assembly coverage
//! and the penetration distribution, verifying that the right category
//! responds — i.e. that the penetrations emerge from the modelled
//! mechanisms rather than being artefacts.

use crate::pipeline::index;
use flowery_analysis::{classify_campaign_with, PenetrationBreakdown};
use flowery_backend::BackendConfig;
use flowery_harness::{
    build_matrix, run_units, GoldenCache, HarnessConfig, Layer, MatrixSpec, Progress, RunOptions, UnitKey, Variant,
};
use flowery_inject::Coverage;
use serde::{Deserialize, Serialize};

/// One ablation configuration's measurements on one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    pub benchmark: String,
    pub config: String,
    /// Full-protection assembly-level SDC coverage.
    pub coverage_pct: f64,
    /// Golden dynamic instruction count (code-size effect of the knob).
    pub golden_dyn: u64,
    pub rootcause: PenetrationBreakdown,
}

/// The ablation axes, each relative to the default backend.
pub fn ablation_configs() -> Vec<(String, BackendConfig)> {
    let base = BackendConfig::default();
    vec![
        ("default".into(), base),
        ("no-reg-cache".into(), BackendConfig { reg_cache: false, ..base }),
        ("no-fold".into(), BackendConfig { fold_compares: false, ..base }),
        ("no-fuse".into(), BackendConfig { fuse_cmp_branch: false, ..base }),
        ("gpr-4".into(), BackendConfig { gpr_pool: 4, ..base }),
        ("gpr-6".into(), BackendConfig { gpr_pool: 6, ..base }),
    ]
}

/// Run every ablation over `spec`'s benchmarks at full protection: one
/// engine pass per backend configuration (`spec.backend` and `spec.levels`
/// are the swept and the fixed axis, and are ignored) over the matrix's
/// Raw@Asm and Id@Asm units, all passes sharing one golden cache. Rows come
/// benchmark-major, configurations in [`ablation_configs`] order.
pub fn ablation_study(
    spec: &MatrixSpec,
    cfg: &HarnessConfig,
    progress: Option<Progress<'_>>,
) -> Result<Vec<AblationRow>, String> {
    let cache = GoldenCache::new();
    let mut per_config: Vec<Vec<AblationRow>> = Vec::new();
    for (label, backend) in ablation_configs() {
        let mut units = build_matrix(&MatrixSpec { backend, levels: vec![1.0], ..spec.clone() });
        units.retain(|u| u.key.layer == Layer::Asm && u.key.variant != Variant::Flowery);
        let results = run_units(&units, cfg, &cache, RunOptions { progress, ..Default::default() }).complete()?;
        let by_key = index(&units, &results)?;
        let rows = units.iter().filter(|u| u.key.variant == Variant::Id).map(|id| {
            let raw_asm = by_key[&UnitKey::new(&id.key.bench, Variant::Raw, 0.0, Layer::Asm)];
            let id_asm = by_key[&id.key];
            let program = id.program.as_ref().expect("asm unit has a program");
            AblationRow {
                benchmark: id.key.bench.clone(),
                config: label.clone(),
                coverage_pct: Coverage::compute(&raw_asm.counts, &id_asm.counts).percent(),
                golden_dyn: id_asm.golden_dyn_insts,
                rootcause: classify_campaign_with(&id.module, program, &id_asm.sdc_insts, backend.fold_compares),
            }
        });
        per_config.push(rows.collect());
    }
    let benches = per_config.first().map_or(0, Vec::len);
    Ok((0..benches)
        .flat_map(|b| per_config.iter().map(move |rows| rows[b].clone()))
        .collect())
}

/// Render the ablation table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    flowery_analysis::render_table(
        &["Benchmark", "Config", "Coverage", "Dyn insts", "store%", "branch%", "cmp%"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    r.config.clone(),
                    format!("{:.2}%", r.coverage_pct),
                    r.golden_dyn.to_string(),
                    format!("{:.1}", r.rootcause.percent(flowery_analysis::Penetration::Store)),
                    format!("{:.1}", r.rootcause.percent(flowery_analysis::Penetration::Branch)),
                    format!("{:.1}", r.rootcause.percent(flowery_analysis::Penetration::Comparison)),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_for(bench: &str, trials: u64) -> Vec<AblationRow> {
        let spec = MatrixSpec {
            benches: vec![bench.into()],
            scale: flowery_workloads::Scale::Tiny,
            ..Default::default()
        };
        let cfg = HarnessConfig { max_trials: trials, seed: 0x51C2_3001, ..Default::default() };
        ablation_study(&spec, &cfg, None).unwrap()
    }

    #[test]
    fn no_fold_removes_comparison_penetration() {
        let rows = rows_for("is", 600);
        let default = rows.iter().find(|r| r.config == "default").unwrap();
        let nofold = rows.iter().find(|r| r.config == "no-fold").unwrap();
        assert_eq!(
            nofold.rootcause.comparison, 0,
            "without folding there is no comparison penetration: {:?}",
            nofold.rootcause
        );
        assert!(
            nofold.coverage_pct >= default.coverage_pct,
            "disabling the folding can only help coverage: {} vs {}",
            nofold.coverage_pct,
            default.coverage_pct
        );
    }

    #[test]
    fn smaller_register_pool_costs_more_instructions() {
        let rows = rows_for("quicksort", 200);
        let default = rows.iter().find(|r| r.config == "default").unwrap();
        let small = rows.iter().find(|r| r.config == "gpr-4").unwrap();
        assert!(
            small.golden_dyn >= default.golden_dyn,
            "a smaller pool cannot shrink the program: {} vs {}",
            small.golden_dyn,
            default.golden_dyn
        );
    }

    #[test]
    fn no_cache_inflates_dynamic_count() {
        let rows = rows_for("is", 200);
        let default = rows.iter().find(|r| r.config == "default").unwrap();
        let nocache = rows.iter().find(|r| r.config == "no-reg-cache").unwrap();
        assert!(nocache.golden_dyn > default.golden_dyn);
        let text = render_ablation(&rows);
        assert!(text.contains("no-reg-cache"));
    }
}
