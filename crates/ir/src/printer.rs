//! LLVM-flavoured textual printer for modules, used in docs, debugging and
//! golden tests.

use crate::inst::{Callee, InstKind, Terminator};
use crate::module::{Function, GlobalInit, Module};
use crate::value::{FuncId, Op, Value};
use std::fmt::Write;

/// Render a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; module {}", m.name);
    out.push_str(&print_globals(m));
    for (i, f) in m.functions.iter().enumerate() {
        out.push('\n');
        out.push_str(&print_function(m, FuncId(i as u32), f));
    }
    out
}

/// Render the module's globals, which a function's text names by index.
pub fn print_globals(m: &Module) -> String {
    let mut out = String::new();
    for g in &m.globals {
        let init = match &g.init {
            GlobalInit::Zero => "zeroinitializer".to_string(),
            GlobalInit::Elems(e) => {
                format!("[{}]", e.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", "))
            }
        };
        let _ = writeln!(out, "@{} = global [{} x {}] {}", g.name, g.count, g.elem, init);
    }
    out
}

/// Render one function.
pub fn print_function(m: &Module, fid: FuncId, f: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = f.params.iter().enumerate().map(|(i, t)| format!("{t} %arg{i}")).collect();
    let ret = f.ret_ty.map(|t| t.to_string()).unwrap_or_else(|| "void".into());
    let _ = writeln!(out, "define {ret} @{}({}) {{", f.name, params.join(", "));
    for (_bid, block) in f.iter_blocks() {
        let _ = writeln!(out, "{}:", block.label);
        for &iid in &block.insts {
            let _ = writeln!(out, "  {}", print_inst(m, fid, f, iid));
        }
        let _ = writeln!(out, "  {}", print_term(f, &block.term));
    }
    out.push_str("}\n");
    out
}

fn op_str(op: &Op) -> String {
    match op {
        Op::Value(Value::Param(p)) => format!("%arg{p}"),
        Op::Value(Value::Inst(i)) => format!("%{}", i.0),
        Op::Const(c) => c.to_string(),
        Op::Global(g) => format!("@g{}", g.0),
    }
}

fn print_inst(m: &Module, _fid: FuncId, f: &Function, iid: crate::value::InstId) -> String {
    let inst = f.inst(iid);
    let lhs = format!("%{} = ", iid.0);
    let role = match inst.role {
        crate::inst::IrRole::App => "",
        crate::inst::IrRole::Shadow => " ; shadow",
        crate::inst::IrRole::Checker => " ; checker",
        crate::inst::IrRole::Patch => " ; patch",
    };
    let body = match &inst.kind {
        InstKind::Alloca { elem, count } => format!("{lhs}alloca {elem} x {count}"),
        InstKind::Load { ptr, ty } => format!("{lhs}load {ty}, {}", op_str(ptr)),
        InstKind::Store { val, ptr, ty } => {
            format!("store {ty} {}, {}", op_str(val), op_str(ptr))
        }
        InstKind::Bin { op, ty, lhs: a, rhs: b } => {
            format!("{lhs}{} {ty} {}, {}", op.mnemonic(), op_str(a), op_str(b))
        }
        InstKind::ICmp { pred, ty, lhs: a, rhs: b } => {
            format!("{lhs}icmp {} {ty} {}, {}", pred.mnemonic(), op_str(a), op_str(b))
        }
        InstKind::FCmp { pred, ty, lhs: a, rhs: b } => {
            format!("{lhs}fcmp {} {ty} {}, {}", pred.mnemonic(), op_str(a), op_str(b))
        }
        InstKind::Cast { kind, from, to, val } => {
            format!("{lhs}{:?} {} : {from} -> {to}", kind, op_str(val)).to_lowercase()
        }
        InstKind::Gep { base, index, elem } => {
            format!("{lhs}gep {elem}, {}, {}", op_str(base), op_str(index))
        }
        InstKind::Call { callee, args } => {
            let args_s = args.iter().map(op_str).collect::<Vec<_>>().join(", ");
            let (name, has_ret) = match callee {
                Callee::Func(cf) => {
                    let callee_f = &m.functions[cf.index()];
                    (callee_f.name.clone(), callee_f.ret_ty.is_some())
                }
                Callee::Intrinsic(i) => (i.name().to_string(), i.ret_ty().is_some()),
            };
            if has_ret {
                format!("{lhs}call @{name}({args_s})")
            } else {
                format!("call @{name}({args_s})")
            }
        }
    };
    format!("{body}{role}")
}

fn print_term(f: &Function, t: &Terminator) -> String {
    match t {
        Terminator::Br { cond, then_bb, else_bb } => format!(
            "br {} , label %{}, label %{}",
            op_str(cond),
            f.block(*then_bb).label,
            f.block(*else_bb).label
        ),
        Terminator::Jmp { dest } => format!("br label %{}", f.block(*dest).label),
        Terminator::Ret { val: Some(v) } => format!("ret {}", op_str(v)),
        Terminator::Ret { val: None } => "ret void".into(),
        Terminator::Unreachable => "unreachable".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::inst::{BinOp, IPred};
    use crate::types::Type;

    #[test]
    fn prints_module_shape() {
        let mut mb = ModuleBuilder::new("demo");
        mb.global_i64("tbl", &[1, 2, 3]);
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let a = fb.bin(BinOp::Add, Type::I64, Op::ci64(1), Op::ci64(2));
        let c = fb.icmp(IPred::Slt, Type::I64, Op::inst(a), Op::ci64(10));
        let t = fb.new_block("t");
        let e = fb.new_block("e");
        fb.br(Op::inst(c), t, e);
        fb.switch_to(t);
        fb.ret(Some(Op::ci64(1)));
        fb.switch_to(e);
        fb.ret(Some(Op::ci64(0)));
        mb.add_func(fb.finish());
        let text = print_module(&mb.finish());
        assert!(text.contains("; module demo"));
        assert!(text.contains("@tbl = global [3 x i64]"));
        assert!(text.contains("define i64 @main()"));
        assert!(text.contains("icmp slt"));
        assert!(text.contains("br %1 , label %t, label %e"));
        assert!(text.contains("ret i64 1"));
    }

    #[test]
    fn prints_roles() {
        let mut fb = FuncBuilder::new("f", vec![], None);
        let id = fb.bin(BinOp::Add, Type::I64, Op::ci64(1), Op::ci64(1));
        fb.ret(None);
        let mut f = fb.finish();
        f.inst_mut(id).role = crate::inst::IrRole::Shadow;
        let mut m = Module::new("m");
        let fid = m.add_function(f);
        let text = print_function(&m, fid, m.func(fid));
        assert!(text.contains("; shadow"), "{text}");
    }
}
