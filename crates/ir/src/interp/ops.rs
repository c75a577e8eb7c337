//! Scalar operation semantics, shared verbatim by the IR interpreter and the
//! machine simulator in `flowery-backend`.
//!
//! Keeping a single implementation guarantees the two layers compute
//! identical results on fault-free runs, so any cross-layer divergence in
//! the experiments comes from *protection structure*, never from semantics.

use crate::inst::{BinOp, CastKind, FPred, IPred, Intrinsic};
use crate::interp::memory::TrapKind;
use crate::types::Type;

/// Evaluate a binary operation on canonical values. Shift amounts are masked
/// by the bit width (x86 semantics), keeping IR and assembly consistent.
/// Always inlined, so a caller passing a constant operation gets that
/// operation's code alone, the dispatch folded away.
#[inline(always)]
pub fn eval_bin(op: BinOp, ty: Type, a: u64, b: u64) -> Result<u64, TrapKind> {
    if op.is_float() {
        return Ok(eval_fbin(op, a, b));
    }
    let bits = ty.bits();
    let sa = ty.sext(a);
    let sb = ty.sext(b);
    let shift_mask = (bits.max(1) - 1) as u64;
    let r = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::SDiv => {
            if sb == 0 || (sa == min_signed(bits) && sb == -1) {
                return Err(TrapKind::DivFault);
            }
            (sa / sb) as u64
        }
        BinOp::SRem => {
            if sb == 0 || (sa == min_signed(bits) && sb == -1) {
                return Err(TrapKind::DivFault);
            }
            (sa % sb) as u64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a << (b & shift_mask),
        BinOp::AShr => (sa >> (b & shift_mask)) as u64,
        _ => unreachable!("float op handled above"),
    };
    Ok(ty.canon(r))
}

fn min_signed(bits: u32) -> i64 {
    if bits == 64 {
        i64::MIN
    } else {
        -(1i64 << (bits - 1))
    }
}

fn eval_fbin(op: BinOp, a: u64, b: u64) -> u64 {
    let (x, y) = (f64::from_bits(a), f64::from_bits(b));
    let r = match op {
        BinOp::FAdd => x + y,
        BinOp::FSub => x - y,
        BinOp::FMul => x * y,
        BinOp::FDiv => x / y,
        _ => unreachable!(),
    };
    r.to_bits()
}

/// Evaluate an integer comparison; returns 0 or 1. Always inlined (see
/// [`eval_bin`]).
#[inline(always)]
pub fn eval_icmp(pred: IPred, ty: Type, a: u64, b: u64) -> u64 {
    let (sa, sb) = (ty.sext(a), ty.sext(b));
    let r = match pred {
        IPred::Eq => a == b,
        IPred::Ne => a != b,
        IPred::Slt => sa < sb,
        IPred::Sle => sa <= sb,
        IPred::Sgt => sa > sb,
        IPred::Sge => sa >= sb,
    };
    r as u64
}

/// Evaluate an `f64` comparison; unordered inputs compare false.
pub fn eval_fcmp(pred: FPred, a: u64, b: u64) -> u64 {
    let (x, y) = (f64::from_bits(a), f64::from_bits(b));
    let r = match pred {
        FPred::Oeq => x == y,
        FPred::One => x != y && !x.is_nan() && !y.is_nan(),
        FPred::Olt => x < y,
        FPred::Ole => x <= y,
        FPred::Ogt => x > y,
        FPred::Oge => x >= y,
    };
    r as u64
}

/// Evaluate a cast. Always inlined (see [`eval_bin`]).
#[inline(always)]
pub fn eval_cast(kind: CastKind, from: Type, to: Type, v: u64) -> u64 {
    match kind {
        CastKind::Zext => to.canon(v),
        CastKind::Trunc => to.canon(v),
        CastKind::SiToFp => (from.sext(v) as f64).to_bits(),
        CastKind::FpToSi => {
            let x = f64::from_bits(v);
            // Saturating conversion (Rust `as` semantics); real x86 cvttsd2si
            // produces INT_MIN on overflow, but no golden-path workload
            // overflows, and saturation keeps faulty paths well defined.
            let s = x as i64;
            to.canon(s as u64)
        }
        CastKind::Bitcast => to.canon(v),
    }
}

/// Evaluate a pure math intrinsic on f64 bit patterns.
pub fn eval_math(which: Intrinsic, args: &[u64]) -> u64 {
    let a = |i: usize| f64::from_bits(args[i]);
    let r = match which {
        Intrinsic::Sqrt => a(0).sqrt(),
        Intrinsic::Sin => a(0).sin(),
        Intrinsic::Cos => a(0).cos(),
        Intrinsic::Exp => a(0).exp(),
        Intrinsic::Log => a(0).ln(),
        Intrinsic::Fabs => a(0).abs(),
        Intrinsic::Floor => a(0).floor(),
        Intrinsic::Pow => a(0).powf(a(1)),
        _ => unreachable!("not a math intrinsic"),
    };
    r.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_wraps_at_width() {
        assert_eq!(eval_bin(BinOp::Add, Type::I8, 0xFF, 1).unwrap(), 0);
        assert_eq!(eval_bin(BinOp::Add, Type::I1, 1, 1).unwrap(), 0);
        assert_eq!(eval_bin(BinOp::Add, Type::I64, u64::MAX, 1).unwrap(), 0);
    }

    #[test]
    fn sdiv_semantics() {
        assert_eq!(
            eval_bin(BinOp::SDiv, Type::I8, Type::I8.canon(-7i64 as u64), 2).unwrap(),
            Type::I8.canon(-3i64 as u64)
        );
        assert_eq!(eval_bin(BinOp::SDiv, Type::I64, 5, 0), Err(TrapKind::DivFault));
        let int_min = Type::I8.canon(i8::MIN as i64 as u64);
        let neg1 = Type::I8.canon(-1i64 as u64);
        assert_eq!(eval_bin(BinOp::SDiv, Type::I8, int_min, neg1), Err(TrapKind::DivFault));
        assert_eq!(eval_bin(BinOp::SDiv, Type::I64, i64::MIN as u64, u64::MAX), Err(TrapKind::DivFault));
    }

    #[test]
    fn srem_semantics() {
        assert_eq!(
            eval_bin(BinOp::SRem, Type::I8, Type::I8.canon(-7i64 as u64), 3).unwrap(),
            Type::I8.canon(-1i64 as u64)
        );
        assert_eq!(eval_bin(BinOp::SRem, Type::I64, 7, 0), Err(TrapKind::DivFault));
    }

    #[test]
    fn shifts_mask_amount() {
        // x86 masks the shift amount by width-1.
        assert_eq!(eval_bin(BinOp::Shl, Type::I64, 1, 65).unwrap(), 2);
        assert_eq!(eval_bin(BinOp::AShr, Type::I64, 1 << 63, 63).unwrap(), u64::MAX);
        assert_eq!(eval_bin(BinOp::Shl, Type::I8, 1, 9).unwrap(), 2);
        assert_eq!(eval_bin(BinOp::AShr, Type::I8, 0x80, 7).unwrap(), 0xFF);
    }

    #[test]
    fn icmp_signedness() {
        let m1 = Type::I8.canon(-1i64 as u64);
        assert_eq!(eval_icmp(IPred::Slt, Type::I8, m1, 0), 1);
        assert_eq!(eval_icmp(IPred::Sgt, Type::I8, m1, 0), 0);
        assert_eq!(eval_icmp(IPred::Eq, Type::I8, 5, 5), 1);
        assert_eq!(eval_icmp(IPred::Sge, Type::I64, 5, 5), 1);
        assert_eq!(eval_icmp(IPred::Slt, Type::I64, u64::MAX, 0), 1);
    }

    #[test]
    fn fcmp_handles_nan() {
        let nan = f64::NAN.to_bits();
        let one = 1.0f64.to_bits();
        assert_eq!(eval_fcmp(FPred::Oeq, nan, one), 0);
        assert_eq!(eval_fcmp(FPred::One, nan, one), 0);
        assert_eq!(eval_fcmp(FPred::Olt, one, 2.0f64.to_bits()), 1);
    }

    #[test]
    fn casts() {
        assert_eq!(eval_cast(CastKind::Zext, Type::I8, Type::I64, 0xFF), 0xFF);
        assert_eq!(eval_cast(CastKind::Trunc, Type::I64, Type::I8, 0x1FF), 0xFF);
        assert_eq!(f64::from_bits(eval_cast(CastKind::SiToFp, Type::I64, Type::F64, -2i64 as u64)), -2.0);
        assert_eq!(eval_cast(CastKind::FpToSi, Type::F64, Type::I64, 3.99f64.to_bits()), 3);
    }

    #[test]
    fn fp_to_si_saturates() {
        assert_eq!(eval_cast(CastKind::FpToSi, Type::F64, Type::I64, 1e300f64.to_bits()), i64::MAX as u64);
    }

    #[test]
    fn float_arith() {
        let r = eval_bin(BinOp::FMul, Type::F64, 3.0f64.to_bits(), 0.5f64.to_bits()).unwrap();
        assert_eq!(f64::from_bits(r), 1.5);
    }

    #[test]
    fn math_intrinsics() {
        assert_eq!(f64::from_bits(eval_math(Intrinsic::Sqrt, &[4.0f64.to_bits()])), 2.0);
        assert_eq!(f64::from_bits(eval_math(Intrinsic::Pow, &[2.0f64.to_bits(), 10.0f64.to_bits()])), 1024.0);
        assert_eq!(f64::from_bits(eval_math(Intrinsic::Fabs, &[(-3.0f64).to_bits()])), 3.0);
    }
}
