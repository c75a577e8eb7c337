//! `flowery-statline`: the two-layer static penetration analyzer.
//!
//! Layer 1 ([`bits`], [`sinks`]) is one forward fault-propagation engine
//! over the hardened machine program, a bit-level lattice answering two
//! queries per fault site: which sampled bits are provably masked (the
//! prune table of `campaign --static-prune`), and whether the corruption
//! reaches an architectural sink unchecked (the lint verdict). [`predict`]
//! turns the lint verdicts into a predicted penetration breakdown and
//! cross-validates it against injection ground truth. Layer 2
//! ([`invariants`]) lints the duplicated IR module for sphere-of-replication
//! invariant violations. See DESIGN.md §7b and §12.

pub mod bits;
pub mod invariants;
pub mod predict;
pub mod sinks;

pub use bits::{analyze_bits, BitTable, BitVerdict, Verdict, BITS_VERSION};
pub use invariants::{lint_module, Finding, InvariantKind};
pub use predict::{
    cross_validate, predict_program, render_validation, static_prior, CategoryRow, SitePrediction, StaticReport,
    Validation,
};
pub use sinks::{Guards, Sink};
