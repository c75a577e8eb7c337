//! Extension experiment: assembly-level hardening on top of Flowery.
//!
//! The paper stops at IR-level patches, noting (§6.3/§8) that call and
//! mapping penetration "can be mitigated at assembly level if the
//! corresponding compiler for transformation and analysis is available".
//! This substrate *is* such a compiler, so [`flowery_backend::harden`]
//! implements the read-back checks and this module measures how much of
//! the remaining gap they close.

use crate::figures::mean;
use crate::pipeline::{index, study};
use flowery_backend::{harden_program, HardenConfig};
use flowery_harness::{
    build_matrix, run_units, GoldenCache, HarnessConfig, Layer, MatrixSpec, Progress, RunOptions, TrialUnit, UnitKey,
    Variant,
};
use flowery_inject::{Coverage, ModelSpec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One benchmark's coverage ladder at full protection, assembly level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HardeningRow {
    pub benchmark: String,
    /// Plain instruction duplication.
    pub id_pct: f64,
    /// ID + the three Flowery patches.
    pub flowery_pct: f64,
    /// ID + Flowery + assembly-level read-back hardening.
    pub hardened_pct: f64,
    /// The IR-level estimate (upper bound, ~100%).
    pub id_ir_pct: f64,
    /// Dynamic-instruction overhead of hardening over Flowery.
    pub harden_overhead: f64,
    /// Read-back checks inserted.
    pub checks: usize,
}

/// `spec`'s matrix at full protection (`spec.levels` is ignored).
fn full_matrix(spec: &MatrixSpec) -> Vec<TrialUnit> {
    build_matrix(&MatrixSpec { levels: vec![1.0], ..spec.clone() })
}

/// Run the hardening ladder for `spec`'s benchmarks at full protection:
/// the study's campaign, then a second pass over the hardened rung — each
/// Flowery@Asm unit with [`harden_program`] applied to its program.
pub fn asm_hardening_study(
    spec: &MatrixSpec,
    cfg: &HarnessConfig,
    progress: Option<Progress<'_>>,
) -> Result<Vec<HardeningRow>, String> {
    let cache = GoldenCache::new();
    let units = full_matrix(spec);
    let opts = || RunOptions { progress, ..Default::default() };
    let ladder = study(&units, &run_units(&units, cfg, &cache, opts()).complete()?, &spec.backend)?;

    let (hardened, checks) = hardened(&units);
    let hardened = run_units(&hardened, cfg, &cache, opts()).complete()?;

    let rows = ladder
        .benches
        .iter()
        .zip(hardened)
        .zip(checks)
        .map(|((bench, hd_asm), checks)| {
            let full = bench.full_level();
            HardeningRow {
                benchmark: bench.name.clone(),
                id_pct: full.id_asm.percent(),
                flowery_pct: full.flowery_asm.percent(),
                hardened_pct: Coverage::compute(&bench.raw_asm_counts, &hd_asm.counts).percent(),
                id_ir_pct: full.id_ir.percent(),
                harden_overhead: flowery_inject::relative_overhead(full.flowery_dyn, hd_asm.golden_dyn_insts),
                checks,
            }
        });
    Ok(rows.collect())
}

/// The hardened rung: each Flowery@Asm unit of `units` over its program
/// with [`harden_program`] applied, and the read-back checks that inserted.
fn hardened(units: &[TrialUnit]) -> (Vec<TrialUnit>, Vec<usize>) {
    units
        .iter()
        .filter(|u| u.key.variant == Variant::Flowery)
        .map(|u| {
            let (program, stats) = harden_program(u.program.as_ref().expect("asm unit"), &HardenConfig::default());
            (TrialUnit::asm(u.key.clone(), u.module.clone(), Arc::new(program)), stats.total())
        })
        .unzip()
}

/// Render the hardening ladder.
pub fn render_hardening(rows: &[HardeningRow]) -> String {
    let body = flowery_analysis::render_table(
        &["Benchmark", "ID", "Flowery", "+AsmHarden", "ID-IR bound", "HD ovh", "checks"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.2}%", r.id_pct),
                    format!("{:.2}%", r.flowery_pct),
                    format!("{:.2}%", r.hardened_pct),
                    format!("{:.2}%", r.id_ir_pct),
                    format!("{:+.1}%", r.harden_overhead * 100.0),
                    r.checks.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let avg = |f: fn(&HardeningRow) -> f64| mean(rows.iter().map(f));
    format!(
        "{body}\nfull protection, assembly level: ID {:.2}% -> Flowery {:.2}% -> +AsmHarden {:.2}%\n",
        avg(|r| r.id_pct),
        avg(|r| r.flowery_pct),
        avg(|r| r.hardened_pct),
    )
}

// ---------------------------------------------------------------- multi-bit

/// One benchmark's single-bit vs double-bit comparison (the emerging fault
/// model the paper cites in §2.2 but leaves to future work).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiBitRow {
    pub benchmark: String,
    /// Raw SDC rates.
    pub raw_sdc_single: f64,
    pub raw_sdc_double: f64,
    /// Full-protection assembly coverage under each model.
    pub cov_single_pct: f64,
    pub cov_double_pct: f64,
}

/// Does the cross-layer protection story survive double-bit faults? Two
/// passes over the Raw@Asm and Flowery@Asm units of `spec`'s matrix at full
/// protection: `cfg`'s schedule under the single-bit and under the
/// double-bit model (`cfg.fault_model` is the swept axis and is ignored).
pub fn multi_bit_study(
    spec: &MatrixSpec,
    cfg: &HarnessConfig,
    progress: Option<Progress<'_>>,
) -> Result<Vec<MultiBitRow>, String> {
    let cache = GoldenCache::new();
    let mut units = full_matrix(spec);
    units.retain(|u| u.key.layer == Layer::Asm && u.key.variant != Variant::Id);
    let under = |fault_model| {
        let cfg = HarnessConfig { fault_model, ..cfg.clone() };
        run_units(&units, &cfg, &cache, RunOptions { progress, ..Default::default() }).complete()
    };
    let (single, double) = (under(ModelSpec::SingleBitReg)?, under(ModelSpec::DoubleBitReg)?);
    let (single, double) = (index(&units, &single)?, index(&units, &double)?);
    let rows = units.iter().filter(|u| u.key.variant == Variant::Raw).map(|raw| {
        let flowery = UnitKey::new(&raw.key.bench, Variant::Flowery, 1.0, Layer::Asm);
        let (raw_s, raw_d) = (single[&raw.key].counts, double[&raw.key].counts);
        MultiBitRow {
            benchmark: raw.key.bench.clone(),
            raw_sdc_single: raw_s.sdc_rate(),
            raw_sdc_double: raw_d.sdc_rate(),
            cov_single_pct: Coverage::compute(&raw_s, &single[&flowery].counts).percent(),
            cov_double_pct: Coverage::compute(&raw_d, &double[&flowery].counts).percent(),
        }
    });
    Ok(rows.collect())
}

/// Render the multi-bit comparison.
pub fn render_multi_bit(rows: &[MultiBitRow]) -> String {
    flowery_analysis::render_table(
        &["Benchmark", "raw SDC 1-bit", "raw SDC 2-bit", "Flowery cov 1-bit", "Flowery cov 2-bit"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.2}%", r.raw_sdc_single * 100.0),
                    format!("{:.2}%", r.raw_sdc_double * 100.0),
                    format!("{:.2}%", r.cov_single_pct),
                    format!("{:.2}%", r.cov_double_pct),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(bench: &str, trials: u64) -> (MatrixSpec, HarnessConfig) {
        let spec = MatrixSpec {
            benches: vec![bench.into()],
            scale: flowery_workloads::Scale::Tiny,
            ..Default::default()
        };
        (spec, HarnessConfig { max_trials: trials, seed: 0x51C2_3001, ..Default::default() })
    }

    #[test]
    fn hardening_ladder_improves_coverage() {
        let (spec, cfg) = smoke("quicksort", 400);
        let rows = asm_hardening_study(&spec, &cfg, None).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.checks > 0);
        assert!(
            r.hardened_pct >= r.flowery_pct,
            "hardening must not reduce coverage: {} vs {}",
            r.hardened_pct,
            r.flowery_pct
        );
        assert!(r.flowery_pct > r.id_pct, "{r:?}");
        assert!(r.harden_overhead > 0.0 && r.harden_overhead < 1.0, "{r:?}");
        let text = render_hardening(&rows);
        assert!(text.contains("+AsmHarden"), "{text}");
    }

    #[test]
    fn hardened_units_key_their_own_program() {
        // The Flowery units carry their keys from a campaign before they are
        // hardened; each hardened unit must key the program it runs.
        let (spec, cfg) = smoke("crc32", 20);
        let cache = GoldenCache::new();
        let units = full_matrix(&spec);
        run_units(&units, &cfg, &cache, RunOptions::default()).complete().unwrap();
        let (hardened, _) = hardened(&units);
        run_units(&hardened, &cfg, &cache, RunOptions::default()).complete().unwrap();
        assert!(!hardened.is_empty());
        for u in &hardened {
            let fresh = flowery_harness::asm_hash(&u.module, u.program.as_ref().unwrap());
            assert_eq!(u.content_key(&cache), fresh, "{}", u.key);
        }
    }

    #[test]
    fn double_bit_faults_keep_the_story() {
        let (spec, cfg) = smoke("is", 300);
        let rows = multi_bit_study(&spec, &cfg, None).unwrap();
        let r = &rows[0];
        assert!(r.raw_sdc_double > 0.0);
        assert!(r.cov_double_pct > 30.0, "protection still works under 2-bit faults: {r:?}");
        assert!(render_multi_bit(&rows).contains("2-bit"));
    }
}
