//! # flowery-analysis
//!
//! Root-cause analysis of cross-layer protection deficiencies: classify
//! assembly-level SDC cases into the paper's five penetration categories
//! (store, branch, comparison, call, mapping — §5.2) and render reports.

pub mod report;
pub mod rootcause;
// `static` is a reserved word; the module lives in `src/static/` to match
// the on-disk layout of the analyzer ("statline" = static lint engine).
#[path = "static/mod.rs"]
pub mod statline;
pub mod vulnerability;

pub use report::{pct, render_breakdown, render_table};
pub use rootcause::{
    classify_campaign, classify_campaign_with, classify_site, Classifier, Penetration, PenetrationBreakdown,
};
pub use statline::{
    analyze_bits, cross_validate, lint_module, predict_program, render_validation, static_prior, BitTable, BitVerdict,
    Finding, InvariantKind, SitePrediction, StaticReport, Validation, Verdict,
};
pub use vulnerability::{render_vulnerability, vulnerability_ranking, vulnerability_ranking_with_prior, VulnEntry};
