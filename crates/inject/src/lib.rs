//! # flowery-inject
//!
//! Fault-injection campaigns at the two layers of the SC'23 study — the IR
//! interpreter ("LLVM level") and the machine simulator ("assembly
//! level") — with parallel, deterministically seeded execution, outcome
//! classification (Benign / SDC / Detected / DUE), SDC-coverage statistics
//! and per-instruction SDC profiling for selective protection.

pub mod campaign;
pub mod outcome;
pub mod profile;
pub mod stats;

pub use campaign::{
    asm_fault_spec, ir_fault_spec, run_asm_campaign, run_ir_campaign, AsmCampaign, AsmTrialRunner, BatchOutcome,
    CampaignConfig, IrCampaign, IrTrialRunner,
};
pub use flowery_faultmodel::{DetectorSpec, FaultClass, ModelSpec};
pub use outcome::{classify, Outcome, OutcomeCounts};
pub use profile::profile_sdc;
pub use stats::{relative_overhead, wilson_half_width, Coverage, Estimate};
