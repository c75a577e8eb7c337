//! # flowery-core
//!
//! The experiment pipelines that reproduce every table and figure of
//! *"Demystifying and Mitigating Cross-Layer Deficiencies of Soft Error
//! Protection in Instruction Duplication"* (SC'23):
//!
//! - [`pipeline::run_study`] runs the complete cross-layer study for any
//!   subset of the 16 benchmarks — as a campaign: `harness::build_matrix`
//!   → `harness::run_units` → [`pipeline::study`], so it runs on every
//!   engine and inherits pruning, fault models, checkpoints and resume;
//! - [`figures`] extracts and renders Table 1, Figures 2/3/17, and the
//!   §7.2/§7.3 measurements from the results, and
//!   [`figures::render_study`] renders them as the paper-vs-measured
//!   document `flowery study` prints;
//! - [`ablation`] and [`extension`] are further passes of the same engine.
//!
//! ```no_run
//! use flowery_core::{figures, run_study};
//! use flowery_harness::{HarnessConfig, MatrixSpec, RunOptions};
//! let spec = MatrixSpec { benches: vec!["quicksort".into()], ..Default::default() };
//! let cfg = HarnessConfig { max_trials: 250, ..Default::default() };
//! let study = run_study(&spec, &cfg, RunOptions::default()).unwrap();
//! print!("{}", figures::render_study(&study));
//! ```

pub mod ablation;
pub mod extension;
pub mod figures;
pub mod lint;
pub mod pipeline;

pub use lint::{run_lint, BitsSummary, LintOutcome, PassConfig, SiteBits};
pub use pipeline::{run_study, study, BenchResults, LevelResults, StudyResults};

// Re-export the layer crates for downstream users of the facade.
pub use flowery_analysis as analysis;
pub use flowery_backend as backend;
pub use flowery_harness as harness;
pub use flowery_inject as inject;
pub use flowery_ir as ir;
pub use flowery_lang as lang;
pub use flowery_passes as passes;
pub use flowery_workloads as workloads;
