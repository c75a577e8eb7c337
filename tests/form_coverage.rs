//! Every IR and machine form is reachable or gone. The corpus is what the
//! system can be given: the Tiny workloads and [`EVERY_OPERATOR`], each
//! raw, at ID-100 and at Flowery-100, selected under the six ablation
//! backend configurations, plain and hardened. Every variant of every
//! enum listed in [`forms!`] must be emitted by it somewhere, IR types
//! included, and the machine operand widths must be exactly MiniC's two
//! (1 and 8 bytes).
//!
//! A form no input can reach still costs its arms in both IR engines, both
//! machine engines, the bit engine and both test oracles. `forms!` names
//! each enum's variants in a `match` with no wildcard arm, so a new
//! variant fails to compile here until it is listed, and a listed variant
//! the corpus never emits fails the test by name: re-adding a form needs a
//! producer.

use flowery_backend::mir::{AluOp, MathKind, OutKind, ShiftOp, SseOp, CC};
use flowery_backend::{compile_module, harden_program, AKind, AsmProgram, HardenConfig};
use flowery_core::ablation::ablation_configs;
use flowery_harness::{protect, MatrixSpec};
use flowery_ir::{BinOp, Callee, CastKind, Const, FPred, IPred, InstKind, Intrinsic, Module, Op, Type};
use flowery_workloads::{all_workloads, Scale};
use std::collections::BTreeSet;

/// A MiniC program that uses every operator, comparison, conversion,
/// output builtin and math intrinsic the frontend lowers.
const EVERY_OPERATOR: &str = "\
global int g[4];
global float h[2];
int twice(int x) { return x + x; }
float half(float x) { return x / 2.0; }
int main() {
    int a = 7; int b = -3; int i; float x = 2.5; float y = -0.5; byte c[4];
    c[0] = byte(a * 40);
    g[0] = a + b; g[1] = a - b; g[2] = a * b; g[3] = a / b + a % b;
    output((a & b) | (a ^ b));
    output((a << 2) >> 1);
    output((a == b) + (a != b) + (a < b) + (a <= b) + (a > b) + (a >= b));
    output((x == y) + (x != y) + (x < y) + (x <= y) + (x > y) + (x >= y));
    if (a > 0 && b < 0 || !(a == b)) { output(-a); }
    output(-x);
    output(x + y); output(x - y); output(x * y); output(x / y);
    output(sqrt(x) + sin(x) + cos(x) + exp(y) + log(x) + fabs(y) + floor(x) + pow(x, y));
    output(int(x * 3.0) + c[0]);
    output(float(a));
    outputb(65);
    h[0] = half(x); output(h[0]); output(twice(g[0]));
    for (i = 0; i < 3; i = i + 1) { g[i] = g[i] + i; }
    return 0;
}
";

/// The name of a value's variant, as `Enum::Variant`.
trait Form {
    fn form(&self) -> &'static str;
}

/// Lists each enum's variants once: [`Form`] for the enum, a `match` with
/// no wildcard arm, and `ALL`, every listed variant's name.
macro_rules! forms {
    ($($ty:ident { $($v:ident),* $(,)? })*) => {
        const ALL: &[&str] = &[$($(concat!(stringify!($ty), "::", stringify!($v)),)*)*];
        $(impl Form for $ty {
            fn form(&self) -> &'static str {
                match self {
                    $($ty::$v { .. } => concat!(stringify!($ty), "::", stringify!($v)),)*
                }
            }
        })*
    };
}

forms! {
    InstKind { Alloca, Load, Store, Bin, ICmp, FCmp, Cast, Gep, Call }
    BinOp { Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr, FAdd, FSub, FMul, FDiv }
    IPred { Eq, Ne, Slt, Sle, Sgt, Sge }
    FPred { Oeq, One, Olt, Ole, Ogt, Oge }
    CastKind { Zext, Trunc, SiToFp, FpToSi, Bitcast }
    Intrinsic { OutputI64, OutputF64, OutputByte, DetectError, Sqrt, Sin, Cos, Exp, Log, Fabs, Floor, Pow }
    Const { Int, F64 }
    Type { I1, I8, I64, F64, Ptr }
    AKind {
        Mov, Lea, Alu, Shift, Cqo, Div, Cmp, Test, SetCC, Jcc, Jmp, Call, Ret, Push, Pop, MovSd, Sse, Ucomi,
        Cvtsi2f, Cvtf2si, MovQ, Math, Out, DetectTrap,
    }
    AluOp { Add, Sub, Imul, And, Or, Xor }
    ShiftOp { Shl, Sar }
    SseOp { AddSd, SubSd, MulSd, DivSd }
    CC { E, Ne, L, Le, G, Ge, B, Be, A, Ae }
    OutKind { I64, F64, Byte }
    MathKind { Sqrt, Sin, Cos, Exp, Log, Fabs, Floor, Pow }
}

/// The forms of `m`'s placed instructions, their opcodes, and every
/// constant operand, terminators' included; and the types of globals,
/// parameters, returns, constants and instructions.
fn ir_forms(m: &Module, seen: &mut BTreeSet<&'static str>) {
    seen.extend(m.globals.iter().map(|g| g.elem.form()));
    for f in &m.functions {
        seen.extend(f.params.iter().chain(&f.ret_ty).map(Type::form));
        for (_, block) in f.iter_blocks() {
            let mut operands: Vec<Op> = block.term.operand().into_iter().collect();
            for &iid in &block.insts {
                let inst = f.inst(iid);
                operands.extend(inst.operands());
                let kind = &inst.kind;
                let detail = match kind {
                    InstKind::Bin { op, .. } => Some(op.form()),
                    InstKind::ICmp { pred, .. } => Some(pred.form()),
                    InstKind::FCmp { pred, .. } => Some(pred.form()),
                    InstKind::Cast { kind, .. } => Some(kind.form()),
                    InstKind::Call { callee: Callee::Intrinsic(i), .. } => Some(i.form()),
                    _ => None,
                };
                let types = match kind {
                    InstKind::Alloca { elem, .. } | InstKind::Gep { elem, .. } => vec![elem],
                    InstKind::Load { ty, .. } | InstKind::Store { ty, .. } => vec![ty],
                    InstKind::Bin { ty, .. } | InstKind::ICmp { ty, .. } | InstKind::FCmp { ty, .. } => vec![ty],
                    InstKind::Cast { from, to, .. } => vec![from, to],
                    InstKind::Call { .. } => vec![],
                };
                seen.extend([kind.form()].into_iter().chain(detail).chain(types.into_iter().map(Type::form)));
            }
            seen.extend(
                operands
                    .iter()
                    .filter_map(|op| match op {
                        Op::Const(c) => Some([c.form(), c.ty().form()]),
                        _ => None,
                    })
                    .flatten(),
            );
        }
    }
}

/// The forms of `prog`'s instructions and their opcodes, and the operand
/// widths each form carries.
fn asm_forms(prog: &AsmProgram, seen: &mut BTreeSet<&'static str>, widths: &mut BTreeSet<(u8, &'static str)>) {
    for inst in &prog.insts {
        let kind = &inst.kind;
        if let AKind::Mov { w, .. }
        | AKind::Alu { w, .. }
        | AKind::Shift { w, .. }
        | AKind::Cmp { w, .. }
        | AKind::Test { w, .. } = *kind
        {
            widths.insert((w, kind.form()));
        }
        let detail = match kind {
            AKind::Alu { op, .. } => Some(op.form()),
            AKind::Shift { op, .. } => Some(op.form()),
            AKind::Sse { op, .. } => Some(op.form()),
            AKind::SetCC { cc, .. } | AKind::Jcc { cc, .. } => Some(cc.form()),
            AKind::Out { kind, .. } => Some(kind.form()),
            AKind::Math { kind, .. } => Some(kind.form()),
            _ => None,
        };
        seen.extend([kind.form()].into_iter().chain(detail));
    }
}

#[test]
fn every_form_is_emitted_by_some_input() {
    let every_operator = flowery_lang::compile("every_operator", EVERY_OPERATOR).expect("the program compiles");
    let raws = all_workloads(Scale::Tiny)
        .into_iter()
        .map(|w| w.compile())
        .chain([every_operator]);
    let configs = ablation_configs();
    assert_eq!(configs.len(), 6, "the six ablation configurations");
    let (mut seen, mut widths) = (BTreeSet::new(), BTreeSet::new());
    for raw in raws {
        let (_, id, flowery) = protect(&raw, &MatrixSpec::default()).remove(0);
        for m in [raw, id, flowery] {
            ir_forms(&m, &mut seen);
            for (_, cfg) in &configs {
                let prog = compile_module(&m, cfg);
                asm_forms(&prog, &mut seen, &mut widths);
                asm_forms(&harden_program(&prog, &HardenConfig::default()).0, &mut seen, &mut widths);
            }
        }
    }
    let never: Vec<_> = ALL.iter().filter(|f| !seen.contains(*f)).collect();
    assert!(never.is_empty(), "forms no input emits: {never:?}");
    let other: Vec<_> = widths.iter().filter(|(w, _)| ![1, 8].contains(w)).collect();
    assert!(other.is_empty(), "operand widths other than 1 and 8, as (width, form): {other:?}");
    let carried: BTreeSet<u8> = widths.iter().map(|&(w, _)| w).collect();
    assert_eq!(carried, BTreeSet::from([1, 8]), "operand widths carried by Mov/Alu/Shift/Cmp/Test");
}
