//! # flowery-ir
//!
//! An LLVM-flavoured intermediate representation with a builder API, a
//! verifier, a textual printer, control-flow analyses and a tracing
//! interpreter with single-bit fault injection.
//!
//! This crate is the "LLVM level" of the SC'23 paper *Demystifying and
//! Mitigating Cross-Layer Deficiencies of Soft Error Protection in
//! Instruction Duplication*. Its shape deliberately matches `-O0` Clang
//! output: locals live in `alloca`s, there are no phi nodes, and
//! stores/branches/void-calls produce no result values — which is exactly
//! why they are not fault-injection sites at this level, the seed of the
//! paper's cross-layer protection gap.
//!
//! ## Quick start
//!
//! ```
//! use flowery_ir::builder::{FuncBuilder, ModuleBuilder};
//! use flowery_ir::inst::BinOp;
//! use flowery_ir::interp::{ExecConfig, Interpreter, ExecStatus};
//! use flowery_ir::types::Type;
//! use flowery_ir::value::Op;
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
//! let s = fb.bin(BinOp::Add, Type::I64, Op::ci64(40), Op::ci64(2));
//! fb.ret(Some(Op::inst(s)));
//! mb.add_func(fb.finish());
//! let module = mb.finish();
//!
//! flowery_ir::verify::verify_module(&module).unwrap();
//! let result = Interpreter::new(&module).run(&ExecConfig::default(), None);
//! assert_eq!(result.status, ExecStatus::Completed(42));
//! ```

pub mod analysis;
pub mod builder;
pub mod inst;
pub mod interp;
pub mod module;
pub mod printer;
pub mod types;
pub mod value;
pub mod verify;

pub use inst::{BinOp, Callee, CastKind, FPred, IPred, InstData, InstKind, Intrinsic, IrRole, Terminator};
pub use module::{Block, Function, Global, GlobalInit, Module};
pub use types::Type;
pub use value::{BlockId, Const, FuncId, GlobalId, InstId, Op, Value};

/// 64-bit FNV-1a — the one content hash behind module/program cache keys,
/// region hashes, prune fingerprints and the snapshot-file checksum.
/// Stable across runs and platforms, which keeps checkpoints and persisted
/// snapshot sets portable.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
