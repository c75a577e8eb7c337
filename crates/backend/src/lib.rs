//! # flowery-backend
//!
//! An x86-64-flavoured backend for `flowery-ir`: instruction selection with
//! a fast (`-O0`-style) register allocator, the compare-folding model behind
//! the paper's comparison penetration, and a machine simulator with
//! destination-register fault injection (the "assembly level" of the SC'23
//! study).
//!
//! ```
//! use flowery_backend::{compile_module, BackendConfig, Machine};
//! use flowery_ir::interp::{ExecConfig, ExecStatus};
//!
//! let module = flowery_lang::compile("demo", "int main() { return 6 * 7; }").unwrap();
//! let program = compile_module(&module, &BackendConfig::default());
//! let result = Machine::new(&module, &program).run(&ExecConfig::default(), None);
//! assert_eq!(result.status, ExecStatus::Completed(42));
//! ```

mod exec;
pub mod fold;
pub mod frame;
pub mod harden;
pub mod isel;
pub mod jit;
pub mod machine;
pub mod mir;
pub mod regcache;
pub mod snapshot;

pub use flowery_ir::interp::{ExecMode, FaultEffect};
pub use harden::{harden_program, HardenConfig, HardenStats};
pub use isel::{compile_module, BackendConfig};
pub use jit::{jit_stats, FallbackReason, JitStatsSnapshot};
pub use machine::{AsmFaultSpec, MachResult, Machine};
pub use mir::{print_program, AInst, AKind, AsmProgram, AsmRole, FaultDest, Loc, Reg};
pub use snapshot::{AsmLayer, AsmScratch, AsmSnapshotSet};
