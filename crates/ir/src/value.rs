//! Value and operand representation.
//!
//! Every instruction that produces a result *is* a value (LLVM-style).
//! Constants are immediate operands rather than arena entities, which keeps
//! transformation passes (duplication, folding) simple.

use crate::types::Type;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an instruction within a function's instruction arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstId(pub u32);

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u32);

/// Index of a function within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FuncId(pub u32);

/// Index of a global variable within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GlobalId(pub u32);

impl InstId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl BlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl FuncId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl GlobalId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A runtime-defined value: either a function parameter or the result of an
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// The `n`-th parameter of the enclosing function.
    Param(u32),
    /// The result of an instruction.
    Inst(InstId),
}

/// A compile-time constant, carried inline on operands.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Const {
    /// Integer constant of the given type; the payload is the canonical
    /// (zero-extended) bit pattern.
    Int(Type, u64),
    /// `f64` constant.
    F64(f64),
    /// The null pointer.
    NullPtr,
}

impl Const {
    /// Boolean `true` (`i1 1`).
    pub fn bool(v: bool) -> Const {
        Const::Int(Type::I1, v as u64)
    }

    /// `i32` constant from a signed value.
    pub fn i32(v: i32) -> Const {
        Const::Int(Type::I32, Type::I32.canon(v as i64 as u64))
    }

    /// `i64` constant from a signed value.
    pub fn i64(v: i64) -> Const {
        Const::Int(Type::I64, v as u64)
    }

    /// `i8` constant.
    pub fn i8(v: i8) -> Const {
        Const::Int(Type::I8, Type::I8.canon(v as i64 as u64))
    }

    /// The type of this constant.
    pub fn ty(self) -> Type {
        match self {
            Const::Int(t, _) => t,
            Const::F64(_) => Type::F64,
            Const::NullPtr => Type::Ptr,
        }
    }

    /// Canonical 64-bit payload (float constants as IEEE bit patterns).
    pub fn bits(self) -> u64 {
        match self {
            Const::Int(t, v) => t.canon(v),
            Const::F64(f) => f.to_bits(),
            Const::NullPtr => 0,
        }
    }
}

impl Eq for Const {}

impl std::hash::Hash for Const {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        self.ty().hash(state);
        self.bits().hash(state);
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// A runtime value.
    Value(Value),
    /// An inline constant.
    Const(Const),
    /// The address of a module global.
    Global(GlobalId),
}

impl Op {
    /// Shorthand for a value operand referring to an instruction result.
    pub fn inst(id: InstId) -> Op {
        Op::Value(Value::Inst(id))
    }

    /// Shorthand for a parameter operand.
    pub fn param(n: u32) -> Op {
        Op::Value(Value::Param(n))
    }

    /// Shorthand for an integer constant operand.
    pub fn cint(ty: Type, v: u64) -> Op {
        Op::Const(Const::Int(ty, ty.canon(v)))
    }

    /// Shorthand for an `i32` constant operand.
    pub fn ci32(v: i32) -> Op {
        Op::Const(Const::i32(v))
    }

    /// Shorthand for an `i64` constant operand.
    pub fn ci64(v: i64) -> Op {
        Op::Const(Const::i64(v))
    }

    /// Shorthand for an `f64` constant operand.
    pub fn cf64(v: f64) -> Op {
        Op::Const(Const::F64(v))
    }

    /// If this operand is an instruction result, its `InstId`.
    pub fn as_inst(self) -> Option<InstId> {
        match self {
            Op::Value(Value::Inst(id)) => Some(id),
            _ => None,
        }
    }

    /// True if this operand is any runtime value (param or instruction).
    pub fn is_value(self) -> bool {
        matches!(self, Op::Value(_))
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(t, v) => write!(f, "{} {}", t, t.sext(*v)),
            Const::F64(x) => write!(f, "f64 {x}"),
            Const::NullPtr => write!(f, "ptr null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_canonicalizes() {
        let c = Const::i32(-1);
        assert_eq!(c.bits(), 0xFFFF_FFFF);
        assert_eq!(c.ty(), Type::I32);
    }

    #[test]
    fn const_float_bits() {
        assert_eq!(Const::F64(1.0).bits(), 1.0f64.to_bits());
    }

    #[test]
    fn op_accessors() {
        let id = InstId(7);
        assert_eq!(Op::inst(id).as_inst(), Some(id));
        assert_eq!(Op::ci32(3).as_inst(), None);
        assert!(Op::param(0).is_value());
        assert!(!Op::cf64(0.0).is_value());
    }

    #[test]
    fn const_eq_hash_consistent() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Const::i32(4));
        assert!(s.contains(&Const::i32(4)));
        assert!(!s.contains(&Const::i64(4)));
    }
}
