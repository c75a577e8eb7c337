//! The IR type system.
//!
//! Mirrors the subset of LLVM types the paper's benchmarks exercise:
//! fixed-width integers, one IEEE double, and an opaque byte-addressed pointer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A first-class IR type.
///
/// `I1` is the boolean type produced by comparisons. Pointers are untyped
/// (opaque) at the value level; element types live on the memory operations
/// (`load`/`store`/`gep`), matching modern LLVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// 1-bit boolean (stored as one byte in memory).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// IEEE-754 double precision.
    F64,
    /// Byte-addressed opaque pointer (64-bit).
    Ptr,
}

impl Type {
    /// Size of a value of this type when stored in memory, in bytes.
    pub fn size(self) -> u64 {
        match self {
            Type::I1 | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 => 4,
            Type::I64 | Type::F64 | Type::Ptr => 8,
        }
    }

    /// Natural alignment in bytes (equal to size for this ISA-like model).
    pub fn align(self) -> u64 {
        self.size()
    }

    /// Number of significant bits in a register holding this value.
    ///
    /// This is the width used by the fault injector when choosing a bit to
    /// flip: faults are injected only into architecturally meaningful bits.
    pub fn bits(self) -> u32 {
        match self {
            Type::I1 => 1,
            Type::I8 => 8,
            Type::I16 => 16,
            Type::I32 => 32,
            Type::I64 | Type::F64 | Type::Ptr => 64,
        }
    }

    /// True for `I1`..`I64`.
    pub fn is_int(self) -> bool {
        matches!(self, Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64)
    }

    /// True for `F64`, the one float type (MiniC's `double`).
    pub fn is_float(self) -> bool {
        self == Type::F64
    }

    /// True for `Ptr`.
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr)
    }

    /// Mask selecting the significant low bits of a canonical `u64` value.
    pub fn mask(self) -> u64 {
        match self.bits() {
            64 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Truncate a raw 64-bit pattern to this type's canonical form
    /// (zero-extended significant bits).
    pub fn canon(self, raw: u64) -> u64 {
        raw & self.mask()
    }

    /// Sign-extend the canonical value of this type to `i64`.
    pub fn sext(self, canon: u64) -> i64 {
        let b = self.bits();
        if b == 64 {
            canon as i64
        } else {
            let shift = 64 - b;
            ((canon << shift) as i64) >> shift
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Type::I1 => "i1",
            Type::I8 => "i8",
            Type::I16 => "i16",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::F64 => "f64",
            Type::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_bits() {
        assert_eq!(Type::I1.size(), 1);
        assert_eq!(Type::I8.size(), 1);
        assert_eq!(Type::I16.size(), 2);
        assert_eq!(Type::I32.size(), 4);
        assert_eq!(Type::I64.size(), 8);
        assert_eq!(Type::F64.size(), 8);
        assert_eq!(Type::Ptr.size(), 8);
        assert_eq!(Type::I1.bits(), 1);
        assert_eq!(Type::Ptr.bits(), 64);
    }

    #[test]
    fn canon_masks_high_bits() {
        assert_eq!(Type::I8.canon(0x1_FF), 0xFF);
        assert_eq!(Type::I1.canon(3), 1);
        assert_eq!(Type::I32.canon(u64::MAX), 0xFFFF_FFFF);
        assert_eq!(Type::I64.canon(u64::MAX), u64::MAX);
    }

    #[test]
    fn sext_round_trips_sign() {
        assert_eq!(Type::I8.sext(0xFF), -1);
        assert_eq!(Type::I8.sext(0x7F), 127);
        assert_eq!(Type::I32.sext(0xFFFF_FFFF), -1);
        assert_eq!(Type::I32.sext(5), 5);
        assert_eq!(Type::I64.sext(u64::MAX), -1);
        assert_eq!(Type::I1.sext(1), -1);
    }

    #[test]
    fn display_matches_llvm_flavor() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::F64.to_string(), "f64");
        assert_eq!(Type::Ptr.to_string(), "ptr");
    }
}
