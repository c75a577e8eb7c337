//! # flowery
//!
//! A full reproduction of *"Demystifying and Mitigating Cross-Layer
//! Deficiencies of Soft Error Protection in Instruction Duplication"*
//! (SC'23) — instruction duplication, the five penetration root-causes,
//! and the Flowery mitigation — built on a from-scratch compiler and
//! machine-simulation substrate:
//!
//! - [`ir`] — an LLVM-flavoured IR with a tracing, fault-injecting
//!   interpreter (the "LLVM level"),
//! - [`lang`] — MiniC, the C-like frontend the 16 benchmarks are written in,
//! - [`backend`] — an x86-64-style backend with a `-O0` fast register
//!   allocator and a machine simulator (the "assembly level"),
//! - [`passes`] — instruction duplication, selective protection, and the
//!   three Flowery patches,
//! - [`faultmodel`] — pluggable fault models (single/multi-bit, flags,
//!   memory, control-flow) and modeled hardware detectors,
//! - [`inject`] — fault-injection trial primitives and coverage stats,
//! - [`harness`] — the resumable work-stealing campaign engine (the one
//!   trial loop): batched trials, selection profiles, golden-run caching, adaptive trial counts (Wilson CI early
//!   stop), JSONL checkpoints, and live metrics (a multi-host campaign
//!   is shards of the same command, merged with `cat` + `--resume`),
//! - [`workloads`] — the Table 1 benchmarks,
//! - [`analysis`] — penetration root-cause classification,
//! - [`core`] — the experiment pipelines for every table and figure.
//!
//! See `examples/quickstart.rs` for a five-minute tour; `flowery study` is
//! the full reproduction run (Table 1, Figures 2/3/17, §7.2 and §7.3).

pub use flowery_analysis as analysis;
pub use flowery_backend as backend;
pub use flowery_core as core;
pub use flowery_faultmodel as faultmodel;
pub use flowery_harness as harness;
pub use flowery_ir as ir;
pub use flowery_lang as lang;
pub use flowery_passes as passes;
pub use flowery_regions as regions;
pub use flowery_workloads as workloads;
pub use serde_json;

/// [`flowery_inject`], plus the in-memory selection profile under the name
/// `benchmark/src/trace.rs` imports it by (kept until ROADMAP item 1).
pub mod inject {
    pub use flowery_harness::{profile_sdc, CampaignConfig};
    pub use flowery_inject::*;
}
