//! Structural and type verifier.
//!
//! Run after frontend lowering and after every transformation pass; a pass
//! that emits ill-formed IR is a bug in this repository, not a simulated
//! soft error, so verification failures are hard errors.

use crate::analysis::DomTree;
use crate::inst::{BinOp, Callee, CastKind, InstKind, Terminator};
use crate::module::{Function, Module};
use crate::types::Type;
use crate::value::{BlockId, FuncId, InstId, Op, Value};
use std::collections::HashMap;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    pub func: String,
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in @{}: {}", self.func, self.detail)
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole module.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for (i, f) in m.functions.iter().enumerate() {
        verify_function(m, FuncId(i as u32), f)?;
    }
    Ok(())
}

fn err(f: &Function, detail: impl Into<String>) -> VerifyError {
    VerifyError { func: f.name.clone(), detail: detail.into() }
}

fn verify_function(m: &Module, fid: FuncId, f: &Function) -> Result<(), VerifyError> {
    if f.blocks.is_empty() {
        return Err(err(f, "function has no blocks"));
    }
    // Each placed instruction id must be in range and appear exactly once.
    let mut placement: HashMap<InstId, BlockId> = HashMap::new();
    for (bid, block) in f.iter_blocks() {
        for &iid in &block.insts {
            if iid.index() >= f.insts.len() {
                return Err(err(f, format!("instruction id {} out of range", iid.0)));
            }
            if placement.insert(iid, bid).is_some() {
                return Err(err(f, format!("instruction %{} placed in more than one block", iid.0)));
            }
        }
        for s in block.term.successors() {
            if s.index() >= f.blocks.len() {
                return Err(err(f, format!("block {} branches to invalid block {}", block.label, s.0)));
            }
        }
    }

    let dt = DomTree::compute(f);

    // Type/def checks per placed instruction, in block order.
    for (bid, block) in f.iter_blocks() {
        if !dt.reachable(bid) {
            continue; // dead blocks are tolerated (passes may orphan blocks)
        }
        for (pos, &iid) in block.insts.iter().enumerate() {
            let inst = f.inst(iid);
            check_operand_defs(m, fid, f, &dt, &placement, bid, pos, iid, &inst.operands())?;
            check_types(m, fid, f, iid)?;
        }
        // Terminator checks.
        match &block.term {
            Terminator::Br { cond, .. } => {
                let ty = m.op_ty(fid, *cond).ok_or_else(|| err(f, "br cond has unknown type"))?;
                if ty != Type::I1 {
                    return Err(err(f, format!("br cond must be i1, got {ty}")));
                }
                check_operand_defs(m, fid, f, &dt, &placement, bid, block.insts.len(), InstId(u32::MAX), &[*cond])?;
            }
            Terminator::Ret { val } => match (val, f.ret_ty) {
                (None, None) => {}
                (Some(v), Some(rt)) => {
                    let ty = m.op_ty(fid, *v).ok_or_else(|| err(f, "ret val has unknown type"))?;
                    if ty != rt {
                        return Err(err(f, format!("ret type {ty} != declared {rt}")));
                    }
                    check_operand_defs(m, fid, f, &dt, &placement, bid, block.insts.len(), InstId(u32::MAX), &[*v])?;
                }
                (None, Some(rt)) => return Err(err(f, format!("missing return value of type {rt}"))),
                (Some(_), None) => return Err(err(f, "returning a value from a void function")),
            },
            Terminator::Jmp { .. } | Terminator::Unreachable => {}
        }
    }
    Ok(())
}

/// Every `Value` operand must be a parameter or an instruction whose
/// definition strictly precedes the use in the same block, or whose block
/// strictly dominates the using block.
#[allow(clippy::too_many_arguments)]
fn check_operand_defs(
    m: &Module,
    _fid: FuncId,
    f: &Function,
    dt: &DomTree,
    placement: &HashMap<InstId, BlockId>,
    use_block: BlockId,
    use_pos: usize,
    user: InstId,
    ops: &[Op],
) -> Result<(), VerifyError> {
    for op in ops {
        match op {
            Op::Value(Value::Param(p)) => {
                if *p as usize >= f.params.len() {
                    return Err(err(f, format!("use of undefined parameter #{p}")));
                }
            }
            Op::Value(Value::Inst(def)) => {
                let Some(&def_block) = placement.get(def) else {
                    return Err(err(f, format!("%{} uses %{} which is not placed in any block", user.0, def.0)));
                };
                if def_block == use_block {
                    let def_pos = f
                        .block(def_block)
                        .insts
                        .iter()
                        .position(|&i| i == *def)
                        .expect("placement consistent");
                    if def_pos >= use_pos {
                        return Err(err(
                            f,
                            format!("%{} used before its definition in block {}", def.0, f.block(use_block).label),
                        ));
                    }
                } else if !dt.dominates(def_block, use_block) {
                    return Err(err(
                        f,
                        format!(
                            "%{} (defined in {}) does not dominate its use in {}",
                            def.0,
                            f.block(def_block).label,
                            f.block(use_block).label
                        ),
                    ));
                }
                if m.result_ty(_fid, *def).is_none() {
                    return Err(err(f, format!("%{} has no result but is used as a value", def.0)));
                }
            }
            Op::Global(g) => {
                if g.index() >= m.globals.len() {
                    return Err(err(f, format!("use of undefined global #{}", g.0)));
                }
            }
            Op::Const(_) => {}
        }
    }
    Ok(())
}

fn check_types(m: &Module, fid: FuncId, f: &Function, iid: InstId) -> Result<(), VerifyError> {
    let inst = f.inst(iid);
    let opty = |op: &Op| m.op_ty(fid, *op);
    let expect = |op: &Op, want: Type, what: &str| -> Result<(), VerifyError> {
        match opty(op) {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(err(f, format!("%{}: {what} must be {want}, got {t}", iid.0))),
            None => Err(err(f, format!("%{}: {what} has no type", iid.0))),
        }
    };
    match &inst.kind {
        InstKind::Alloca { count, .. } => {
            if *count == 0 {
                return Err(err(f, format!("%{}: alloca of zero elements", iid.0)));
            }
        }
        InstKind::Load { ptr, .. } => expect(ptr, Type::Ptr, "load pointer")?,
        InstKind::Store { val, ptr, ty } => {
            expect(ptr, Type::Ptr, "store pointer")?;
            expect(val, *ty, "store value")?;
        }
        InstKind::Bin { op, ty, lhs, rhs } => {
            if op.is_float() != ty.is_float() {
                return Err(err(f, format!("%{}: {} on {}", iid.0, op.mnemonic(), ty)));
            }
            if !op.is_float() && !ty.is_int() {
                return Err(err(f, format!("%{}: integer op on {}", iid.0, ty)));
            }
            if matches!(op, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv) && !ty.is_float() {
                return Err(err(f, format!("%{}: float op on {}", iid.0, ty)));
            }
            // The backend divides whole 64-bit registers and has no
            // sign-extending move to widen a narrower operand first.
            if matches!(op, BinOp::SDiv | BinOp::SRem) && *ty != Type::I64 {
                return Err(err(f, format!("%{}: {} on {ty}: division is defined on i64 only", iid.0, op.mnemonic())));
            }
            expect(lhs, *ty, "lhs")?;
            expect(rhs, *ty, "rhs")?;
        }
        InstKind::ICmp { ty, lhs, rhs, .. } => {
            if !ty.is_int() && !ty.is_ptr() {
                return Err(err(f, format!("%{}: icmp on {}", iid.0, ty)));
            }
            expect(lhs, *ty, "icmp lhs")?;
            expect(rhs, *ty, "icmp rhs")?;
        }
        InstKind::FCmp { ty, lhs, rhs, .. } => {
            if !ty.is_float() {
                return Err(err(f, format!("%{}: fcmp on {}", iid.0, ty)));
            }
            expect(lhs, *ty, "fcmp lhs")?;
            expect(rhs, *ty, "fcmp rhs")?;
        }
        InstKind::Cast { kind, from, to, val } => {
            expect(val, *from, "cast input")?;
            let ok = match kind {
                CastKind::Zext => from.is_int() && to.is_int() && to.bits() > from.bits(),
                CastKind::Trunc => from.is_int() && to.is_int() && to.bits() < from.bits(),
                // Converted from a whole 64-bit register, as division.
                CastKind::SiToFp => *from == Type::I64 && to.is_float(),
                CastKind::FpToSi => from.is_float() && to.is_int(),
                CastKind::Bitcast => from.bits() == to.bits(),
            };
            if !ok {
                return Err(err(f, format!("%{}: invalid cast {from} -> {to} ({kind:?})", iid.0)));
            }
        }
        InstKind::Gep { base, index, .. } => {
            expect(base, Type::Ptr, "gep base")?;
            expect(index, Type::I64, "gep index")?;
        }
        InstKind::Call { callee, args } => match callee {
            Callee::Func(cf) => {
                if cf.index() >= m.functions.len() {
                    return Err(err(f, format!("%{}: call to undefined function", iid.0)));
                }
                let sig = &m.functions[cf.index()];
                if sig.params.len() != args.len() {
                    return Err(err(
                        f,
                        format!(
                            "%{}: call to @{} with {} args, expected {}",
                            iid.0,
                            sig.name,
                            args.len(),
                            sig.params.len()
                        ),
                    ));
                }
                for (i, (a, want)) in args.iter().zip(sig.params.clone()).enumerate() {
                    expect(a, want, &format!("arg {i}"))?;
                }
            }
            Callee::Intrinsic(intr) => {
                if args.len() != intr.arity() {
                    return Err(err(f, format!("%{}: intrinsic {} expects {} args", iid.0, intr.name(), intr.arity())));
                }
            }
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::inst::IPred;

    fn ok_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I32));
        let a = fb.alloca(Type::I32, 4);
        fb.store(Type::I32, Op::ci32(5), Op::inst(a));
        let v = fb.load(Type::I32, Op::inst(a));
        fb.ret(Some(Op::inst(v)));
        mb.add_func(fb.finish());
        mb.finish()
    }

    #[test]
    fn valid_module_passes() {
        verify_module(&ok_module()).unwrap();
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut m = ok_module();
        // store f64 into an i32-typed store
        let f = &mut m.functions[0];
        if let InstKind::Store { val, .. } = &mut f.insts[1].kind {
            *val = Op::cf64(1.0);
        }
        let e = verify_module(&m).unwrap_err();
        assert!(e.detail.contains("store value"), "{e}");
    }

    #[test]
    fn br_on_non_bool_rejected() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], None);
        let t = fb.new_block("t");
        let e = fb.new_block("e");
        fb.br(Op::ci32(1), t, e);
        fb.switch_to(t);
        fb.ret(None);
        fb.switch_to(e);
        fb.ret(None);
        mb.add_func(fb.finish());
        let err = verify_module(&mb.finish()).unwrap_err();
        assert!(err.detail.contains("br cond"), "{err}");
    }

    #[test]
    fn use_before_def_rejected() {
        let mut m = ok_module();
        let f = &mut m.functions[0];
        // Make the store use the load that comes after it.
        if let InstKind::Store { val, .. } = &mut f.insts[1].kind {
            *val = Op::inst(InstId(2));
        }
        let e = verify_module(&m).unwrap_err();
        assert!(e.detail.contains("before its definition"), "{e}");
    }

    #[test]
    fn non_dominating_def_rejected() {
        // entry -> {l, r} -> j ; value defined in l used in j
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![Type::I32], Some(Type::I32));
        let l = fb.new_block("l");
        let r = fb.new_block("r");
        let j = fb.new_block("j");
        let c = fb.icmp(IPred::Slt, Type::I32, Op::param(0), Op::ci32(0));
        fb.br(Op::inst(c), l, r);
        fb.switch_to(l);
        let v = fb.bin(crate::inst::BinOp::Add, Type::I32, Op::param(0), Op::ci32(1));
        fb.jmp(j);
        fb.switch_to(r);
        fb.jmp(j);
        fb.switch_to(j);
        fb.ret(Some(Op::inst(v)));
        mb.add_func(fb.finish());
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.detail.contains("does not dominate"), "{e}");
    }

    #[test]
    fn call_arity_checked() {
        let mut mb = ModuleBuilder::new("m");
        let callee = mb.declare_func("f", vec![Type::I32, Type::I32], Some(Type::I32));
        let mut fb = FuncBuilder::new("f", vec![Type::I32, Type::I32], Some(Type::I32));
        fb.ret(Some(Op::param(0)));
        mb.define_func(callee, fb.finish());
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I32));
        let c = fb.call(callee, vec![Op::ci32(1)]); // wrong arity
        fb.ret(Some(Op::inst(c)));
        mb.add_func(fb.finish());
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.detail.contains("expected 2"), "{e}");
    }

    #[test]
    fn invalid_cast_rejected() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I32));
        let v = fb.cast(CastKind::Zext, Type::I64, Type::I32, Op::ci64(1)); // narrowing zext
        fb.ret(Some(Op::inst(v)));
        mb.add_func(fb.finish());
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.detail.contains("invalid cast"), "{e}");
    }

    #[test]
    fn narrow_division_and_conversion_rejected() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I32));
        let q = fb.bin(BinOp::SRem, Type::I32, Op::ci32(-7), Op::ci32(2));
        fb.ret(Some(Op::inst(q)));
        mb.add_func(fb.finish());
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.detail.contains("srem on i32: division is defined on i64 only"), "{e}");

        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::F64));
        let v = fb.cast(CastKind::SiToFp, Type::I32, Type::F64, Op::ci32(-2));
        fb.ret(Some(Op::inst(v)));
        mb.add_func(fb.finish());
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.detail.contains("invalid cast i32 -> f64 (SiToFp)"), "{e}");
    }
}
