//! Lint-vs-campaign entry point: run the static penetration analyzer over
//! one benchmark variant and (optionally) cross-validate the predictions
//! against a fresh injection campaign — `flowery lint` is a thin shell
//! around [`run_lint`].

use flowery_analysis::statline::{
    analyze_bits, cross_validate, lint_module, predict_program, Finding, StaticReport, Validation,
};
use flowery_backend::{compile_module, BackendConfig};
use flowery_harness::{protect, MatrixSpec};
use flowery_inject::{run_asm_campaign, CampaignConfig};
use flowery_ir::Module;
use serde::{Deserialize, Serialize};

/// Which protection pipeline to lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PassConfig {
    /// Unprotected baseline.
    Raw,
    /// Instruction duplication only.
    Id,
    /// Instruction duplication + the three Flowery patches.
    Flowery,
}

impl PassConfig {
    pub fn parse(s: &str) -> Option<PassConfig> {
        match s {
            "raw" => Some(PassConfig::Raw),
            "id" => Some(PassConfig::Id),
            "flowery" => Some(PassConfig::Flowery),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            PassConfig::Raw => "raw",
            PassConfig::Id => "id",
            PassConfig::Flowery => "flowery",
        }
    }
}

/// Everything one lint run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LintOutcome {
    pub bench: String,
    pub pass_config: PassConfig,
    pub level: f64,
    /// Layer-1 machine-level predictions.
    pub report: StaticReport,
    /// Layer-2 IR invariant findings.
    pub findings: Vec<Finding>,
    /// Cross-validation against an injection campaign (`--validate`).
    pub validation: Option<Validation>,
    /// Bit-lattice verdicts (the prune table `flowery campaign
    /// --static-prune` consumes). Always computed — the analysis is pure
    /// and cheap; `Option` only so pre-bits JSON keeps deserializing.
    #[serde(default)]
    pub bits: Option<BitsSummary>,
}

/// Per-site bit-mask verdicts of one linted program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BitsSummary {
    /// Injectable sites the bit table covers.
    pub sites: u32,
    /// Proven-masked (site, bit) pairs across the whole program.
    pub proven_pairs: u64,
    /// Mean vulnerable-bit fraction across sites (1.0 = nothing proven).
    pub mean_vulnerable: f64,
    /// One entry per injectable site, in program order.
    pub masks: Vec<SiteBits>,
}

/// The bit verdict of one injectable site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteBits {
    /// Program index of the site.
    pub idx: u32,
    /// Sampled-bit families proven masked (bit `b` set = family `b`).
    pub proven_masked: u64,
    /// Complement: families the analysis cannot prove benign.
    pub vulnerable: u64,
}

/// Protect `raw` per `(pass, level)`, run both lint layers, and optionally
/// cross-validate against a `validate_trials`-shot injection campaign.
///
/// A partial `level` (< 1.0) selects instructions exactly like the
/// experiment matrix: [`protect`] under the default [`MatrixSpec`] profile.
pub fn run_lint(bench: &str, raw: &Module, pass: PassConfig, level: f64, validate_trials: Option<u64>) -> LintOutcome {
    let protected = || protect(raw, &MatrixSpec { levels: vec![level], ..Default::default() }).remove(0);
    let m = match pass {
        PassConfig::Raw => raw.clone(),
        PassConfig::Id => protected().1,
        PassConfig::Flowery => protected().2,
    };
    let bcfg = BackendConfig::default();
    let prog = compile_module(&m, &bcfg);
    let report = predict_program(&m, &prog, bcfg.fold_compares);
    let findings = lint_module(&m);
    let validation = validate_trials.map(|trials| {
        let camp = run_asm_campaign(&m, &prog, &CampaignConfig::with_trials(trials));
        cross_validate(&m, &prog, &report, &camp.sdc_insts, bcfg.fold_compares)
    });
    let table = analyze_bits(&m, &prog);
    let masks: Vec<SiteBits> = prog
        .insts
        .iter()
        .enumerate()
        .filter(|(_, inst)| inst.kind.is_fault_site())
        .map(|(idx, _)| {
            let v = &table.verdicts[idx];
            SiteBits {
                idx: idx as u32,
                proven_masked: v.proven_masked,
                vulnerable: v.vulnerable,
            }
        })
        .collect();
    let bits = Some(BitsSummary {
        sites: table.sites,
        proven_pairs: table.proven_pairs,
        mean_vulnerable: table.mean_vulnerable(),
        masks,
    });
    LintOutcome {
        bench: bench.to_string(),
        pass_config: pass,
        level,
        report,
        findings,
        validation,
        bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int main() { int s = 0; int i; for (i = 0; i < 20; i = i + 1) {\n\
                       s = s + i * 3; } output(s); return s; }";

    #[test]
    fn pass_config_parse_round_trips() {
        for p in [PassConfig::Raw, PassConfig::Id, PassConfig::Flowery] {
            assert_eq!(PassConfig::parse(p.name()), Some(p));
        }
        assert_eq!(PassConfig::parse("bogus"), None);
    }

    #[test]
    fn run_lint_cross_validates() {
        let raw = flowery_lang::compile("t", SRC).unwrap();
        let out = run_lint("t", &raw, PassConfig::Id, 1.0, Some(400));
        assert!(out.report.sites > 0);
        assert!(out.report.protected > 0, "full duplication proves sites");
        let v = out.validation.as_ref().expect("validation requested");
        assert!(v.overall_recall() >= 0.9, "soundness on the smoke program: {:.2}", v.overall_recall());
        let bits = out.bits.as_ref().expect("bit table always computed");
        assert_eq!(bits.masks.len() as u32, bits.sites);
        assert!(bits.proven_pairs > 0, "some (site, bit) pairs prove masked");
        assert_eq!(
            bits.proven_pairs,
            bits.masks.iter().map(|s| u64::from(s.proven_masked.count_ones())).sum::<u64>(),
            "summary tallies the per-site masks"
        );
        // The outcome must serialize (the CLI's --format json path).
        let json = serde_json::to_string(&out).unwrap();
        assert!(json.contains("\"bench\""));
        assert!(json.contains("\"proven_masked\""), "JSON carries the per-site bit masks");
    }

    #[test]
    fn run_lint_partial_level_profiles() {
        let raw = flowery_lang::compile("t", SRC).unwrap();
        let half = run_lint("t", &raw, PassConfig::Id, 0.5, None);
        assert!(half.report.sites > 0);
        assert!(half.report.protected > 0, "the selected half is provably covered");
        assert!(!half.report.flagged.is_empty(), "the unselected half stays exposed");
        let frac = half.report.flagged.len() as f64 / half.report.sites as f64;
        let full = run_lint("t", &raw, PassConfig::Id, 1.0, None);
        let full_frac = full.report.flagged.len() as f64 / full.report.sites as f64;
        assert!(
            frac >= full_frac,
            "less protection cannot flag a smaller fraction: {frac:.2} vs {full_frac:.2}"
        );
    }
}
