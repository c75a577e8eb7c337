//! Extension experiment: assembly-level hardening on top of Flowery.
//!
//! The paper stops at IR-level patches, noting (§6.3/§8) that call and
//! mapping penetration "can be mitigated at assembly level if the
//! corresponding compiler for transformation and analysis is available".
//! This substrate *is* such a compiler, so [`flowery_backend::harden`]
//! implements the read-back checks and this module measures how much of
//! the remaining gap they close.

use crate::config::ExperimentConfig;
use flowery_backend::{compile_module, harden_program, HardenConfig};
use flowery_inject::{run_asm_campaign, run_ir_campaign, Coverage};
use flowery_passes::{apply_flowery, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery_workloads::workload;
use serde::{Deserialize, Serialize};

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

/// Run the hardening ladder for the given benchmarks (all 16 when empty).
pub fn asm_hardening_study(names: &[&str], cfg: &ExperimentConfig) -> Vec<HardeningRow> {
    let names: Vec<&str> = if names.is_empty() {
        flowery_workloads::NAMES.to_vec()
    } else {
        names.to_vec()
    };
    let camp = cfg.campaign();
    let mut rows = Vec::new();
    for name in names {
        if cfg.verbose {
            eprintln!("[harden] {name}");
        }
        let raw = workload(name, cfg.scale).compile();
        let mut id = raw.clone();
        let plan = ProtectionPlan::full(&id);
        duplicate_module(&mut id, &plan, &DupConfig::default());
        let mut fl = id.clone();
        apply_flowery(&mut fl, &FloweryConfig::default());

        let raw_prog = compile_module(&raw, &cfg.backend);
        let id_prog = compile_module(&id, &cfg.backend);
        let fl_prog = compile_module(&fl, &cfg.backend);
        let (hd_prog, hstats) = harden_program(&fl_prog, &HardenConfig::default());

        let raw_ir = run_ir_campaign(&raw, &camp);
        let id_ir = run_ir_campaign(&id, &camp);
        let raw_asm = run_asm_campaign(&raw, &raw_prog, &camp);
        let id_asm = run_asm_campaign(&id, &id_prog, &camp);
        let fl_asm = run_asm_campaign(&fl, &fl_prog, &camp);
        let hd_asm = run_asm_campaign(&fl, &hd_prog, &camp);

        rows.push(HardeningRow {
            benchmark: name.to_string(),
            id_pct: Coverage::compute(&raw_asm.counts, &id_asm.counts).percent(),
            flowery_pct: Coverage::compute(&raw_asm.counts, &fl_asm.counts).percent(),
            hardened_pct: Coverage::compute(&raw_asm.counts, &hd_asm.counts).percent(),
            id_ir_pct: Coverage::compute(&raw_ir.counts, &id_ir.counts).percent(),
            harden_overhead: flowery_inject::relative_overhead(fl_asm.golden_dyn_insts, hd_asm.golden_dyn_insts),
            checks: hstats.total(),
        });
    }
    rows
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
    let avg = |f: fn(&HardeningRow) -> f64| -> f64 {
        if rows.is_empty() {
            0.0
        } else {
            rows.iter().map(f).sum::<f64>() / rows.len() as f64
        }
    };
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

/// Does the cross-layer protection story survive double-bit faults?
pub fn multi_bit_study(names: &[&str], cfg: &ExperimentConfig) -> Vec<MultiBitRow> {
    let names: Vec<&str> = if names.is_empty() {
        vec!["is", "quicksort"]
    } else {
        names.to_vec()
    };
    let single = cfg.campaign();
    let double = flowery_inject::CampaignConfig {
        fault_model: flowery_inject::ModelSpec::DoubleBitReg,
        ..single.clone()
    };
    let mut rows = Vec::new();
    for name in names {
        if cfg.verbose {
            eprintln!("[multibit] {name}");
        }
        let raw = workload(name, cfg.scale).compile();
        let mut id = raw.clone();
        let plan = ProtectionPlan::full(&id);
        duplicate_module(&mut id, &plan, &DupConfig::default());
        apply_flowery(&mut id, &FloweryConfig::default());
        let raw_prog = compile_module(&raw, &cfg.backend);
        let id_prog = compile_module(&id, &cfg.backend);

        let raw_s = run_asm_campaign(&raw, &raw_prog, &single);
        let raw_d = run_asm_campaign(&raw, &raw_prog, &double);
        let id_s = run_asm_campaign(&id, &id_prog, &single);
        let id_d = run_asm_campaign(&id, &id_prog, &double);
        rows.push(MultiBitRow {
            benchmark: name.to_string(),
            raw_sdc_single: raw_s.counts.sdc_rate(),
            raw_sdc_double: raw_d.counts.sdc_rate(),
            cov_single_pct: Coverage::compute(&raw_s.counts, &id_s.counts).percent(),
            cov_double_pct: Coverage::compute(&raw_d.counts, &id_d.counts).percent(),
        });
    }
    rows
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

    #[test]
    fn hardening_ladder_improves_coverage() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 400;
        let rows = asm_hardening_study(&["quicksort"], &cfg);
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
    fn double_bit_faults_keep_the_story() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 300;
        let rows = multi_bit_study(&["is"], &cfg);
        let r = &rows[0];
        assert!(r.raw_sdc_double > 0.0);
        assert!(r.cov_double_pct > 30.0, "protection still works under 2-bit faults: {r:?}");
        assert!(render_multi_bit(&rows).contains("2-bit"));
    }
}
