//! The printed IR covers every field of the IR. Every cache key is FNV-1a
//! over printed text: `module_hash` over the module, and the region hashes
//! `flowery diff` reuses unchanged regions by over `print_function` and the
//! printed globals. A field the printer left out would let two programs that
//! execute differently share goldens, snapshots and region profiles.
//!
//! `every_ir_field_moves_the_content_hash` destructures each IR type with
//! no rest pattern and no wildcard arm, so a new field or variant fails to
//! compile here until someone decides whether it is printed. For each field
//! it edits a copy of the module to another value that still resolves (an
//! existing block, function, global or value) and requires both the module
//! hash and the function's printout to move, or, for a field listed in
//! [`UNHASHED`], both to stay. An edit of a global must move every
//! function's region hash: function text names a global only by index.
//!
//! The file also holds two edge checks on printing and executing whole
//! programs: the machine listing of every workload, and a module without
//! `@main`.

use flowery_harness::{module_hash, protect, MatrixSpec};
use flowery_ir::interp::substrate;
use flowery_ir::interp::{ExecConfig, ExecStatus, FaultSpec, Interpreter, IrScratch, TrapKind};
use flowery_ir::printer::print_function;
use flowery_ir::{
    BinOp, Block, Callee, CastKind, Const, FPred, FuncId, Function, Global, GlobalId, GlobalInit, IPred, InstData,
    InstId, InstKind, Intrinsic, IrRole, Module, Op, Terminator, Type, Value,
};
use flowery_regions::region_hashes;
use flowery_workloads::{all_workloads, Scale};
use std::collections::{BTreeSet, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fields the printer leaves out on purpose, each with the reason.
const UNHASHED: &[(&str, &str)] = &[(
    "InstData.dup_of",
    "names the original a shadow copies; read only by the root-cause classifier, whose results no cache \
     stores, and the IR invariant lint; execution never reads it",
)];

/// Every field (`Type.field`) and every fieldless variant (`Type::Variant`)
/// the sweep must have edited at least once over the corpus.
const EXPECTED: &[&str] = &[
    "Module.name",
    "Module.globals",
    "Module.functions",
    "Global.name",
    "Global.elem",
    "Global.count",
    "GlobalInit::Zero",
    "GlobalInit::Elems.0",
    "Function.name",
    "Function.params",
    "Function.ret_ty",
    "Function.insts",
    "Function.blocks",
    "Block.label",
    "Block.insts",
    "Terminator::Br.cond",
    "Terminator::Br.then_bb",
    "Terminator::Br.else_bb",
    "Terminator::Jmp.dest",
    "Terminator::Ret.val",
    "Terminator::Unreachable",
    "InstData.role",
    "InstData.dup_of",
    "InstKind::Alloca.elem",
    "InstKind::Alloca.count",
    "InstKind::Load.ptr",
    "InstKind::Load.ty",
    "InstKind::Store.val",
    "InstKind::Store.ptr",
    "InstKind::Store.ty",
    "InstKind::Bin.op",
    "InstKind::Bin.ty",
    "InstKind::Bin.lhs",
    "InstKind::Bin.rhs",
    "InstKind::ICmp.pred",
    "InstKind::ICmp.ty",
    "InstKind::ICmp.lhs",
    "InstKind::ICmp.rhs",
    "InstKind::FCmp.pred",
    "InstKind::FCmp.ty",
    "InstKind::FCmp.lhs",
    "InstKind::FCmp.rhs",
    "InstKind::Cast.kind",
    "InstKind::Cast.from",
    "InstKind::Cast.to",
    "InstKind::Cast.val",
    "InstKind::Gep.base",
    "InstKind::Gep.index",
    "InstKind::Gep.elem",
    "InstKind::Call.callee",
    "InstKind::Call.args",
    "Callee::Func.0",
    "Callee::Intrinsic.0",
    "Value::Param.0",
    "Value::Inst.0",
    "Const::Int.0",
    "Const::Int.1",
    "Const::F64.0",
    "Op::Global.0",
];

/// One module's edits. Each field is edited at its first occurrence only,
/// which keeps the sweep to a few dozen module copies per module.
struct Sweep<'m> {
    module: &'m Module,
    hash: u64,
    seen: BTreeSet<&'static str>,
}

impl Sweep<'_> {
    /// Apply `edit` to a copy of the module, unless every field in `fields`
    /// was already edited, and check that the module hash and `func`'s
    /// printout both move, or both stay for an [`UNHASHED`] field. Returns
    /// the edited copy.
    fn check(
        &mut self,
        fields: &[&'static str],
        func: Option<FuncId>,
        edit: impl FnOnce(&mut Module),
    ) -> Option<Module> {
        if fields.iter().all(|f| self.seen.contains(f)) {
            return None;
        }
        self.seen.extend(fields);
        let (name, mut m) = (&self.module.name, self.module.clone());
        edit(&mut m);
        assert_ne!(&m, self.module, "{name}: the edit of {fields:?} changed nothing");
        let hashed = !fields.iter().any(|f| UNHASHED.iter().any(|(u, _)| u == f));
        assert_eq!(module_hash(&m) != self.hash, hashed, "{name}: module hash vs an edit of {fields:?}");
        if let Some(fid) = func {
            let before = print_function(self.module, fid, self.module.func(fid));
            let after = print_function(&m, fid, m.func(fid));
            assert_eq!(
                before != after,
                hashed,
                "{name}: printout of @{} vs an edit of {fields:?}",
                m.func(fid).name
            );
        }
        Some(m)
    }

    /// [`Sweep::check`] for an edit of a global, which must also move the
    /// region hash of every function.
    fn check_global(&mut self, field: &'static str, edit: impl FnOnce(&mut Module)) {
        let Some(m) = self.check(&[field], None, edit) else {
            return;
        };
        let (before, after) = (region_hashes(self.module, 0), region_hashes(&m, 0));
        for (f, (b, a)) in m.functions.iter().zip(before.iter().zip(&after)) {
            assert_ne!(b, a, "{}: region hash of @{} vs an edit of {field}", self.module.name, f.name);
        }
    }
}

/// A type other than `t`.
fn other_type(t: Type) -> Type {
    if t == Type::I64 {
        Type::I32
    } else {
        Type::I64
    }
}

/// Another member of a `len`-long table than `i`, if there is one.
fn other_index(i: u32, len: usize) -> Option<u32> {
    (len > 1).then(|| (i + 1) % len as u32)
}

/// Every other operand `op` can be edited to in `fid`, each under the field
/// it edits.
fn op_edits(m: &Module, fid: FuncId, op: Op) -> Vec<(&'static str, Op)> {
    let f = m.func(fid);
    match op {
        Op::Value(Value::Param(p)) => other_index(p, f.params.len())
            .map(|q| ("Value::Param.0", Op::param(q)))
            .into_iter()
            .collect(),
        Op::Value(Value::Inst(i)) => other_index(i.0, f.insts.len())
            .map(|j| ("Value::Inst.0", Op::inst(InstId(j))))
            .into_iter()
            .collect(),
        Op::Const(c) => match c {
            Const::Int(ty, bits) => vec![
                ("Const::Int.0", Op::Const(Const::Int(other_type(ty), bits))),
                ("Const::Int.1", Op::Const(Const::Int(ty, ty.canon(bits ^ 1)))),
            ],
            Const::F64(x) => vec![("Const::F64.0", Op::Const(Const::F64(f64::from_bits(x.to_bits() ^ 1))))],
        },
        Op::Global(g) => other_index(g.0, m.globals.len())
            .map(|h| ("Op::Global.0", Op::Global(GlobalId(h))))
            .into_iter()
            .collect(),
    }
}

fn sweep_module(m: &Module, covered: &mut BTreeSet<&'static str>) {
    let mut s = Sweep { module: m, hash: module_hash(m), seen: BTreeSet::new() };
    let Module { name: _, globals, functions } = m;
    s.check(&["Module.name"], None, |m| m.name.push_str(".edited"));
    if globals.len() > 1 {
        s.check_global("Module.globals", |m| m.globals.swap(0, 1));
    }
    if functions.len() > 1 {
        s.check(&["Module.functions"], None, |m| m.functions.swap(0, 1));
    }
    for (gi, g) in globals.iter().enumerate() {
        sweep_global(&mut s, gi, g);
    }
    for (fi, f) in functions.iter().enumerate() {
        sweep_function(&mut s, m, FuncId(fi as u32), f);
    }
    covered.extend(s.seen);
}

fn sweep_global(s: &mut Sweep, gi: usize, g: &Global) {
    let Global { name: _, elem, count, init } = g;
    let (elem, count) = (*elem, *count);
    s.check_global("Global.name", |m| m.globals[gi].name.push_str(".edited"));
    s.check_global("Global.elem", |m| m.globals[gi].elem = other_type(elem));
    s.check_global("Global.count", |m| m.globals[gi].count = count + 1);
    match init {
        GlobalInit::Zero => s.check_global("GlobalInit::Zero", |m| m.globals[gi].init = GlobalInit::Elems(vec![1])),
        GlobalInit::Elems(elems) => {
            let mut edited = elems.clone();
            match edited.first_mut() {
                Some(e) => *e ^= 1,
                None => edited.push(1),
            }
            s.check_global("GlobalInit::Elems.0", |m| m.globals[gi].init = GlobalInit::Elems(edited));
        }
    }
}

fn sweep_function(s: &mut Sweep, m: &Module, fid: FuncId, f: &Function) {
    let Function { name, params, ret_ty, insts, blocks } = f;
    let at = Some(fid);
    let fi = fid.index();

    let mut labels = HashSet::new();
    for b in blocks {
        assert!(labels.insert(&b.label), "{}: label {} repeats in @{name}", m.name, b.label);
    }

    s.check(&["Function.name"], at, |m| m.functions[fi].name.push_str(".edited"));
    let mut edited = params.clone();
    match edited.first_mut() {
        Some(t) => *t = other_type(*t),
        None => edited.push(Type::I64),
    }
    s.check(&["Function.params"], at, |m| m.functions[fi].params = edited);
    let ret = Some(ret_ty.map_or(Type::I64, other_type));
    s.check(&["Function.ret_ty"], at, |m| m.functions[fi].ret_ty = ret);
    let live = f.live_insts();
    if let Some(pair) = live
        .iter()
        .zip(live.iter().skip(1))
        .find(|(a, b)| insts[a.index()] != insts[b.index()])
    {
        let (a, b) = (pair.0.index(), pair.1.index());
        s.check(&["Function.insts"], at, |m| m.functions[fi].insts.swap(a, b));
    }
    if blocks.len() > 1 {
        s.check(&["Function.blocks"], at, |m| m.functions[fi].blocks.swap(0, 1));
    }

    for (bi, b) in blocks.iter().enumerate() {
        let Block { label: _, insts: ids, term } = b;
        s.check(&["Block.label"], at, |m| m.functions[fi].blocks[bi].label.push_str(".edited"));
        if !ids.is_empty() {
            s.check(&["Block.insts"], at, |m| {
                m.functions[fi].blocks[bi].insts.pop();
            });
        }
        sweep_term(s, m, fid, bi, term);
        for &iid in ids {
            sweep_inst(s, m, fid, iid, f.inst(iid));
        }
    }
}

fn sweep_term(s: &mut Sweep, m: &Module, fid: FuncId, bi: usize, term: &Terminator) {
    let (at, fi, n) = (Some(fid), fid.index(), m.func(fid).blocks.len());
    let set = |t: Terminator| move |m: &mut Module| m.functions[fi].blocks[bi].term = t;
    let other_block = |b: flowery_ir::BlockId| other_index(b.0, n).map(flowery_ir::BlockId);
    match *term {
        Terminator::Br { cond, then_bb, else_bb } => {
            for (field, cond) in op_edits(m, fid, cond) {
                s.check(&["Terminator::Br.cond", field], at, set(Terminator::Br { cond, then_bb, else_bb }));
            }
            if let Some(then_bb) = other_block(then_bb) {
                s.check(&["Terminator::Br.then_bb"], at, set(Terminator::Br { cond, then_bb, else_bb }));
            }
            if let Some(else_bb) = other_block(else_bb) {
                s.check(&["Terminator::Br.else_bb"], at, set(Terminator::Br { cond, then_bb, else_bb }));
            }
        }
        Terminator::Jmp { dest } => {
            if let Some(dest) = other_block(dest) {
                s.check(&["Terminator::Jmp.dest"], at, set(Terminator::Jmp { dest }));
            }
        }
        Terminator::Ret { val } => {
            for (field, v) in val.map(|v| op_edits(m, fid, v)).unwrap_or_default() {
                s.check(&["Terminator::Ret.val", field], at, set(Terminator::Ret { val: Some(v) }));
            }
        }
        Terminator::Unreachable => {
            s.check(&["Terminator::Unreachable"], at, set(Terminator::Jmp { dest: m.func(fid).entry() }));
        }
    }
}

fn sweep_inst(s: &mut Sweep, m: &Module, fid: FuncId, iid: InstId, d: &InstData) {
    let InstData { kind, role, dup_of } = d;
    let at = Some(fid);
    let role = match role {
        IrRole::App => IrRole::Checker,
        IrRole::Shadow | IrRole::Checker | IrRole::Patch => IrRole::App,
    };
    s.check(&["InstData.role"], at, |m| m.func_mut(fid).inst_mut(iid).role = role);
    let dup_of = match dup_of {
        Some(_) => None,
        None => Some(iid),
    };
    s.check(&["InstData.dup_of"], at, |m| m.func_mut(fid).inst_mut(iid).dup_of = dup_of);

    let set = |k: InstKind| move |m: &mut Module| m.func_mut(fid).inst_mut(iid).kind = k;
    match kind.clone() {
        InstKind::Alloca { elem, count } => {
            s.check(&["InstKind::Alloca.elem"], at, set(InstKind::Alloca { elem: other_type(elem), count }));
            s.check(&["InstKind::Alloca.count"], at, set(InstKind::Alloca { elem, count: count + 1 }));
        }
        InstKind::Load { ptr, ty } => {
            for (field, ptr) in op_edits(m, fid, ptr) {
                s.check(&["InstKind::Load.ptr", field], at, set(InstKind::Load { ptr, ty }));
            }
            s.check(&["InstKind::Load.ty"], at, set(InstKind::Load { ptr, ty: other_type(ty) }));
        }
        InstKind::Store { val, ptr, ty } => {
            for (field, val) in op_edits(m, fid, val) {
                s.check(&["InstKind::Store.val", field], at, set(InstKind::Store { val, ptr, ty }));
            }
            for (field, ptr) in op_edits(m, fid, ptr) {
                s.check(&["InstKind::Store.ptr", field], at, set(InstKind::Store { val, ptr, ty }));
            }
            s.check(&["InstKind::Store.ty"], at, set(InstKind::Store { val, ptr, ty: other_type(ty) }));
        }
        InstKind::Bin { op, ty, lhs, rhs } => {
            let other = if op == BinOp::Add { BinOp::Sub } else { BinOp::Add };
            s.check(&["InstKind::Bin.op"], at, set(InstKind::Bin { op: other, ty, lhs, rhs }));
            s.check(&["InstKind::Bin.ty"], at, set(InstKind::Bin { op, ty: other_type(ty), lhs, rhs }));
            for (field, lhs) in op_edits(m, fid, lhs) {
                s.check(&["InstKind::Bin.lhs", field], at, set(InstKind::Bin { op, ty, lhs, rhs }));
            }
            for (field, rhs) in op_edits(m, fid, rhs) {
                s.check(&["InstKind::Bin.rhs", field], at, set(InstKind::Bin { op, ty, lhs, rhs }));
            }
        }
        InstKind::ICmp { pred, ty, lhs, rhs } => {
            let other = if pred == IPred::Eq { IPred::Ne } else { IPred::Eq };
            s.check(&["InstKind::ICmp.pred"], at, set(InstKind::ICmp { pred: other, ty, lhs, rhs }));
            s.check(&["InstKind::ICmp.ty"], at, set(InstKind::ICmp { pred, ty: other_type(ty), lhs, rhs }));
            for (field, lhs) in op_edits(m, fid, lhs) {
                s.check(&["InstKind::ICmp.lhs", field], at, set(InstKind::ICmp { pred, ty, lhs, rhs }));
            }
            for (field, rhs) in op_edits(m, fid, rhs) {
                s.check(&["InstKind::ICmp.rhs", field], at, set(InstKind::ICmp { pred, ty, lhs, rhs }));
            }
        }
        InstKind::FCmp { pred, ty, lhs, rhs } => {
            let other = if pred == FPred::Oeq { FPred::One } else { FPred::Oeq };
            s.check(&["InstKind::FCmp.pred"], at, set(InstKind::FCmp { pred: other, ty, lhs, rhs }));
            s.check(&["InstKind::FCmp.ty"], at, set(InstKind::FCmp { pred, ty: other_type(ty), lhs, rhs }));
            for (field, lhs) in op_edits(m, fid, lhs) {
                s.check(&["InstKind::FCmp.lhs", field], at, set(InstKind::FCmp { pred, ty, lhs, rhs }));
            }
            for (field, rhs) in op_edits(m, fid, rhs) {
                s.check(&["InstKind::FCmp.rhs", field], at, set(InstKind::FCmp { pred, ty, lhs, rhs }));
            }
        }
        InstKind::Cast { kind, from, to, val } => {
            let other = if kind == CastKind::Zext { CastKind::Trunc } else { CastKind::Zext };
            s.check(&["InstKind::Cast.kind"], at, set(InstKind::Cast { kind: other, from, to, val }));
            s.check(
                &["InstKind::Cast.from"],
                at,
                set(InstKind::Cast { kind, from: other_type(from), to, val }),
            );
            s.check(&["InstKind::Cast.to"], at, set(InstKind::Cast { kind, from, to: other_type(to), val }));
            for (field, val) in op_edits(m, fid, val) {
                s.check(&["InstKind::Cast.val", field], at, set(InstKind::Cast { kind, from, to, val }));
            }
        }
        InstKind::Gep { base, index, elem } => {
            for (field, base) in op_edits(m, fid, base) {
                s.check(&["InstKind::Gep.base", field], at, set(InstKind::Gep { base, index, elem }));
            }
            for (field, index) in op_edits(m, fid, index) {
                s.check(&["InstKind::Gep.index", field], at, set(InstKind::Gep { base, index, elem }));
            }
            s.check(&["InstKind::Gep.elem"], at, set(InstKind::Gep { base, index, elem: other_type(elem) }));
        }
        InstKind::Call { callee, args } => {
            let other = match callee {
                Callee::Func(g) => {
                    other_index(g.0, m.functions.len()).map(|h| ("Callee::Func.0", Callee::Func(FuncId(h))))
                }
                Callee::Intrinsic(i) => {
                    let j = if i == Intrinsic::Sqrt { Intrinsic::Sin } else { Intrinsic::Sqrt };
                    Some(("Callee::Intrinsic.0", Callee::Intrinsic(j)))
                }
            };
            if let Some((field, callee)) = other {
                s.check(&["InstKind::Call.callee", field], at, set(InstKind::Call { callee, args: args.clone() }));
            }
            if let Some(last) = args.len().checked_sub(1) {
                s.check(&["InstKind::Call.args"], at, set(InstKind::Call { callee, args: args[..last].to_vec() }));
                for (field, a) in op_edits(m, fid, args[0]) {
                    let mut args = args.clone();
                    args[0] = a;
                    s.check(&[field], at, set(InstKind::Call { callee, args }));
                }
            }
        }
    }
}

/// Raw, ID-100 and Flowery-100 of every Tiny workload, named.
fn corpus() -> Vec<Module> {
    let spec = MatrixSpec::default();
    let mut out = Vec::new();
    for w in all_workloads(Scale::Tiny) {
        let raw = w.compile();
        let (_, id, flowery) = protect(&raw, &spec).remove(0);
        for (m, variant) in [(raw, "raw"), (id, "id-100"), (flowery, "flowery-100")] {
            out.push(Module { name: format!("{}/{variant}", w.name), ..m });
        }
    }
    out
}

#[test]
fn every_ir_field_moves_the_content_hash() {
    let mut covered = BTreeSet::new();
    for m in corpus() {
        sweep_module(&m, &mut covered);
    }
    let expected: BTreeSet<&str> = EXPECTED.iter().copied().collect();
    let missed: Vec<_> = expected.difference(&covered).collect();
    assert!(missed.is_empty(), "fields no workload let the sweep edit: {missed:?}");
    let unlisted: Vec<_> = covered.difference(&expected).collect();
    assert!(unlisted.is_empty(), "edited but not in EXPECTED: {unlisted:?}");
}

#[test]
fn machine_listing_prints_for_all_workloads() {
    for w in all_workloads(Scale::Tiny) {
        let m = w.compile();
        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let listing = flowery_backend::print_program(&prog);
        assert!(listing.contains("main:"), "{}", w.name);
        assert!(listing.contains("push %rbp"), "{}", w.name);
        assert!(listing.lines().count() > prog.insts.len(), "{}", w.name);
    }
}

#[test]
fn a_module_without_main_traps_instead_of_panicking() {
    let mut m = flowery_workloads::workload("crc32", Scale::Tiny).compile();
    let main = m.main_func().expect("crc32 has @main");
    m.functions[main.index()].name = "start".into();
    assert!(m.main_func().is_none(), "test premise: no @main");
    let (interp, cfg, fault) = (Interpreter::new(&m), ExecConfig::default(), FaultSpec::single(0, 1));
    let (snapshots, runs) = catch_unwind(AssertUnwindSafe(|| {
        let set = interp.capture_snapshots_auto(&cfg);
        let fast_forwarded = substrate::trial(&interp, &cfg, fault, Some(&set), &mut IrScratch::new()).0;
        let runs = [
            ("plain", interp.run(&cfg, None)),
            ("profiled", interp.profile_run(&cfg)),
            ("captured", set.golden().clone()),
            ("faulty", interp.run(&cfg, Some(fault))),
            ("fast-forwarded", fast_forwarded),
        ];
        (set.len(), runs)
    }))
    .expect("no run may panic");
    assert_eq!(snapshots, 0, "nothing executes, so nothing is captured");
    for (what, r) in runs {
        assert_eq!(r.status, ExecStatus::Trapped(TrapKind::BadControl), "{what}");
        assert_eq!((r.dyn_insts, r.fault_sites, r.injected_at), (0, 0, None), "{what}");
    }
}
