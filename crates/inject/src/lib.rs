//! # flowery-inject
//!
//! The trial primitives of fault injection at the two layers of the SC'23
//! study — the IR interpreter ("LLVM level") and the machine simulator
//! ("assembly level"): deterministically seeded fault specs, a reusable
//! single-trial executor ([`campaign::TrialRunner`]), the per-batch fold
//! ([`BatchOutcome`]), outcome classification (Benign / SDC / Detected /
//! DUE) and SDC-coverage statistics. Campaigns — scheduling, checkpoints,
//! selection profiles — are `flowery-harness`'s.

pub mod campaign;
pub mod outcome;
pub mod stats;

pub use campaign::{asm_fault_spec, ir_fault_spec, AsmTrialRunner, BatchOutcome, IrTrialRunner};
pub use flowery_faultmodel::{DetectorSpec, FaultClass, ModelSpec};
pub use outcome::{classify, Outcome, OutcomeCounts};
pub use stats::{relative_overhead, wilson_half_width, Coverage, Estimate};
