//! Instruction and terminator definitions.
//!
//! The set mirrors `-O0` LLVM IR as produced by Clang for C programs: locals
//! live in `alloca`s, there are no phi nodes, and control flow is explicit
//! branches between labelled blocks. This matters for the reproduction: the
//! paper's five *penetrations* are consequences of exactly this IR shape.

use crate::types::Type;
use crate::value::{BlockId, FuncId, InstId, Op};
use serde::{Deserialize, Serialize};

/// Binary arithmetic / bitwise opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division (traps on divide-by-zero and INT_MIN / -1).
    SDiv,
    /// Unsigned division (traps on divide-by-zero).
    UDiv,
    /// Signed remainder.
    SRem,
    /// Unsigned remainder.
    URem,
    And,
    Or,
    Xor,
    /// Shift left (shift amount taken modulo bit width).
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
}

impl BinOp {
    /// True for the floating-point opcodes.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// True if the operation is commutative (used by the optimizer's
    /// available-expression matcher).
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::FAdd | BinOp::FMul
        )
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }
}

/// Integer comparison predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl IPred {
    pub fn mnemonic(self) -> &'static str {
        match self {
            IPred::Eq => "eq",
            IPred::Ne => "ne",
            IPred::Slt => "slt",
            IPred::Sle => "sle",
            IPred::Sgt => "sgt",
            IPred::Sge => "sge",
            IPred::Ult => "ult",
            IPred::Ule => "ule",
            IPred::Ugt => "ugt",
            IPred::Uge => "uge",
        }
    }

    /// The predicate with operand order swapped (`a < b` → `b > a`).
    pub fn swapped(self) -> IPred {
        match self {
            IPred::Eq => IPred::Eq,
            IPred::Ne => IPred::Ne,
            IPred::Slt => IPred::Sgt,
            IPred::Sle => IPred::Sge,
            IPred::Sgt => IPred::Slt,
            IPred::Sge => IPred::Sle,
            IPred::Ult => IPred::Ugt,
            IPred::Ule => IPred::Uge,
            IPred::Ugt => IPred::Ult,
            IPred::Uge => IPred::Ule,
        }
    }
}

/// Floating comparison predicate (ordered forms only; the workloads never
/// produce NaNs on the golden path, and unordered inputs compare false).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

impl FPred {
    pub fn mnemonic(self) -> &'static str {
        match self {
            FPred::Oeq => "oeq",
            FPred::One => "one",
            FPred::Olt => "olt",
            FPred::Ole => "ole",
            FPred::Ogt => "ogt",
            FPred::Oge => "oge",
        }
    }
}

/// Value cast kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CastKind {
    /// Zero-extend to a wider integer.
    Zext,
    /// Sign-extend to a wider integer.
    Sext,
    /// Truncate to a narrower integer.
    Trunc,
    /// Signed integer to floating point.
    SiToFp,
    /// Floating point to signed integer (round toward zero).
    FpToSi,
    /// Reinterpret bits between same-width int/float/ptr.
    Bitcast,
}

/// Runtime-service and math intrinsics.
///
/// Math functions are modelled as intrinsics rather than extern calls so the
/// backend can lower them as single arithmetic-class machine instructions;
/// this keeps the call-penetration statistics driven by *program* calls, as
/// in the paper's benchmarks (which link libm out of the measured image).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Intrinsic {
    /// Append an i64 record to the program output stream.
    OutputI64,
    /// Append an f64 record to the program output stream.
    OutputF64,
    /// Append a byte record to the program output stream.
    OutputByte,
    /// Error detector invoked by duplication checkers; halts with `Detected`.
    DetectError,
    /// `sqrt(f64) -> f64`
    Sqrt,
    /// `sin(f64) -> f64`
    Sin,
    /// `cos(f64) -> f64`
    Cos,
    /// `exp(f64) -> f64`
    Exp,
    /// `log(f64) -> f64` (natural log)
    Log,
    /// `fabs(f64) -> f64`
    Fabs,
    /// `floor(f64) -> f64`
    Floor,
    /// `pow(f64, f64) -> f64`
    Pow,
}

impl Intrinsic {
    /// Result type, if any.
    pub fn ret_ty(self) -> Option<Type> {
        match self {
            Intrinsic::OutputI64 | Intrinsic::OutputF64 | Intrinsic::OutputByte | Intrinsic::DetectError => None,
            _ => Some(Type::F64),
        }
    }

    /// Number of arguments expected.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::DetectError => 0,
            Intrinsic::Pow => 2,
            _ => 1,
        }
    }

    /// True for the pure math intrinsics (lowered as arithmetic, duplicable).
    pub fn is_math(self) -> bool {
        !matches!(
            self,
            Intrinsic::OutputI64 | Intrinsic::OutputF64 | Intrinsic::OutputByte | Intrinsic::DetectError
        )
    }

    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::OutputI64 => "output_i64",
            Intrinsic::OutputF64 => "output_f64",
            Intrinsic::OutputByte => "output_byte",
            Intrinsic::DetectError => "detect_error",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Fabs => "fabs",
            Intrinsic::Floor => "floor",
            Intrinsic::Pow => "pow",
        }
    }
}

/// Call target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Callee {
    /// A function defined in this module.
    Func(FuncId),
    /// A runtime intrinsic.
    Intrinsic(Intrinsic),
}

/// Non-terminator instruction payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InstKind {
    /// Reserve `count` elements of `elem` in the function frame; yields `ptr`.
    Alloca { elem: Type, count: u32 },
    /// Load a `ty` from `ptr`.
    Load { ptr: Op, ty: Type },
    /// Store `val` (of type `ty`) to `ptr`. **No result** — hence not a fault
    /// injection site at IR level (paper §5.2, store penetration).
    Store { val: Op, ptr: Op, ty: Type },
    /// Binary arithmetic on two operands of type `ty`.
    Bin { op: BinOp, ty: Type, lhs: Op, rhs: Op },
    /// Integer comparison; yields `i1`.
    ICmp { pred: IPred, ty: Type, lhs: Op, rhs: Op },
    /// Float comparison; yields `i1`.
    FCmp { pred: FPred, ty: Type, lhs: Op, rhs: Op },
    /// Cast between value types.
    Cast { kind: CastKind, from: Type, to: Type, val: Op },
    /// `base + index * size_of(elem)`; yields `ptr`. `index` has type `I64`.
    Gep { base: Op, index: Op, elem: Type },
    /// `cond ? t : f` on values of type `ty`.
    Select { ty: Type, cond: Op, t: Op, f: Op },
    /// Direct call. Result type comes from the callee signature; `None` for
    /// `void` calls — which therefore are not IR-level fault sites either
    /// (paper §5.2, call penetration).
    Call { callee: Callee, args: Vec<Op> },
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Conditional branch on an `i1` operand.
    Br { cond: Op, then_bb: BlockId, else_bb: BlockId },
    /// Unconditional jump.
    Jmp { dest: BlockId },
    /// Return from function.
    Ret { val: Option<Op> },
    /// Control never reaches here (verifier-checked dead end).
    Unreachable,
}

impl Terminator {
    /// Successor block ids, in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
            Terminator::Jmp { dest } => vec![*dest],
            Terminator::Ret { .. } | Terminator::Unreachable => vec![],
        }
    }

    /// Mutable access to the operand (branch condition / return value).
    pub fn operand_mut(&mut self) -> Option<&mut Op> {
        match self {
            Terminator::Br { cond, .. } => Some(cond),
            Terminator::Ret { val: Some(v) } => Some(v),
            _ => None,
        }
    }

    /// The operand, if any.
    pub fn operand(&self) -> Option<Op> {
        match self {
            Terminator::Br { cond, .. } => Some(*cond),
            Terminator::Ret { val } => *val,
            _ => None,
        }
    }

    /// Rewrite successor block ids with `f`.
    pub fn retarget(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br { then_bb, else_bb, .. } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Terminator::Jmp { dest } => *dest = f(*dest),
            _ => {}
        }
    }
}

/// Provenance marker attached to every instruction, consumed by the
/// duplication pass, the Flowery patches, and the root-cause analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IrRole {
    /// Original application code.
    #[default]
    App,
    /// A duplicate ("shadow") of the instruction `dup_of` points at.
    Shadow,
    /// Part of a duplication checker (the `icmp eq`/branch/detector call).
    Checker,
    /// Inserted by a Flowery patch.
    Patch,
}

/// An instruction plus its static metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstData {
    pub kind: InstKind,
    /// Provenance for cross-layer analysis.
    pub role: IrRole,
    /// For `role == Shadow`: the original instruction this shadows.
    pub dup_of: Option<InstId>,
}

impl InstData {
    pub fn new(kind: InstKind) -> InstData {
        InstData { kind, role: IrRole::App, dup_of: None }
    }

    pub fn with_role(kind: InstKind, role: IrRole) -> InstData {
        InstData { kind, role, dup_of: None }
    }

    /// Result type of this instruction, given a lookup for callee return
    /// types (needed for `Call`).
    pub fn result_ty(&self, callee_ret: impl Fn(FuncId) -> Option<Type>) -> Option<Type> {
        match &self.kind {
            InstKind::Alloca { .. } | InstKind::Gep { .. } => Some(Type::Ptr),
            InstKind::Load { ty, .. } => Some(*ty),
            InstKind::Store { .. } => None,
            InstKind::Bin { ty, .. } => Some(*ty),
            InstKind::ICmp { .. } | InstKind::FCmp { .. } => Some(Type::I1),
            InstKind::Cast { to, .. } => Some(*to),
            InstKind::Select { ty, .. } => Some(*ty),
            InstKind::Call { callee, .. } => match callee {
                Callee::Func(f) => callee_ret(*f),
                Callee::Intrinsic(i) => i.ret_ty(),
            },
        }
    }

    /// Iterate over all operand slots mutably (excluding terminators).
    pub fn operands_mut(&mut self) -> Vec<&mut Op> {
        match &mut self.kind {
            InstKind::Alloca { .. } => vec![],
            InstKind::Load { ptr, .. } => vec![ptr],
            InstKind::Store { val, ptr, .. } => vec![val, ptr],
            InstKind::Bin { lhs, rhs, .. } | InstKind::ICmp { lhs, rhs, .. } | InstKind::FCmp { lhs, rhs, .. } => {
                vec![lhs, rhs]
            }
            InstKind::Cast { val, .. } => vec![val],
            InstKind::Gep { base, index, .. } => vec![base, index],
            InstKind::Select { cond, t, f, .. } => vec![cond, t, f],
            InstKind::Call { args, .. } => args.iter_mut().collect(),
        }
    }

    /// Iterate over all operands by value.
    pub fn operands(&self) -> Vec<Op> {
        match &self.kind {
            InstKind::Alloca { .. } => vec![],
            InstKind::Load { ptr, .. } => vec![*ptr],
            InstKind::Store { val, ptr, .. } => vec![*val, *ptr],
            InstKind::Bin { lhs, rhs, .. } | InstKind::ICmp { lhs, rhs, .. } | InstKind::FCmp { lhs, rhs, .. } => {
                vec![*lhs, *rhs]
            }
            InstKind::Cast { val, .. } => vec![*val],
            InstKind::Gep { base, index, .. } => vec![*base, *index],
            InstKind::Select { cond, t, f, .. } => vec![*cond, *t, *f],
            InstKind::Call { args, .. } => args.clone(),
        }
    }

    /// True if the instruction writes memory or performs I/O / calls —
    /// i.e. may not be freely duplicated or removed.
    pub fn has_side_effects(&self) -> bool {
        match &self.kind {
            InstKind::Store { .. } => true,
            InstKind::Call { callee, .. } => match callee {
                Callee::Func(_) => true,
                Callee::Intrinsic(i) => !i.is_math(),
            },
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_types() {
        let none = |_| None;
        let load = InstData::new(InstKind::Load { ptr: Op::param(0), ty: Type::I32 });
        assert_eq!(load.result_ty(none), Some(Type::I32));
        let store = InstData::new(InstKind::Store { val: Op::ci32(1), ptr: Op::param(0), ty: Type::I32 });
        assert_eq!(store.result_ty(none), None);
        let icmp = InstData::new(InstKind::ICmp {
            pred: IPred::Slt,
            ty: Type::I32,
            lhs: Op::ci32(1),
            rhs: Op::ci32(2),
        });
        assert_eq!(icmp.result_ty(none), Some(Type::I1));
        let call_detect = InstData::new(InstKind::Call {
            callee: Callee::Intrinsic(Intrinsic::DetectError),
            args: vec![],
        });
        assert_eq!(call_detect.result_ty(none), None);
        let sqrt = InstData::new(InstKind::Call {
            callee: Callee::Intrinsic(Intrinsic::Sqrt),
            args: vec![Op::cf64(2.0)],
        });
        assert_eq!(sqrt.result_ty(none), Some(Type::F64));
    }

    #[test]
    fn terminator_successors_and_retarget() {
        let mut t = Terminator::Br {
            cond: Op::Const(Const::bool(true)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        t.retarget(|b| BlockId(b.0 + 10));
        assert_eq!(t.successors(), vec![BlockId(11), BlockId(12)]);
        assert!(Terminator::Ret { val: None }.successors().is_empty());
    }

    #[test]
    fn side_effects() {
        let add = InstData::new(InstKind::Bin {
            op: BinOp::Add,
            ty: Type::I32,
            lhs: Op::ci32(1),
            rhs: Op::ci32(2),
        });
        assert!(!add.has_side_effects());
        let sqrt = InstData::new(InstKind::Call {
            callee: Callee::Intrinsic(Intrinsic::Sqrt),
            args: vec![Op::cf64(2.0)],
        });
        assert!(!sqrt.has_side_effects());
        let out = InstData::new(InstKind::Call {
            callee: Callee::Intrinsic(Intrinsic::OutputI64),
            args: vec![Op::ci64(1)],
        });
        assert!(out.has_side_effects());
    }

    #[test]
    fn swapped_predicates() {
        assert_eq!(IPred::Slt.swapped(), IPred::Sgt);
        assert_eq!(IPred::Eq.swapped(), IPred::Eq);
        assert_eq!(IPred::Uge.swapped(), IPred::Ule);
    }

    use crate::value::Const;
}
