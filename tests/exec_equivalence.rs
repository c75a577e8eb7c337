//! Differential tests for the machine layer's execution settings: the
//! threaded-code engine's bookkept loop (`interp`), its fast loop
//! (`compiled`) and the native x86-64 JIT (`native`) must be
//! **bit-identical** to the from-boot reference interpreter in
//! `common/asm_oracle.rs` on every observable stream — status, output,
//! dynamic-instruction/fault-site/cycle counts, injection attribution,
//! and snapshot capture/fast-forward — for every fault model.
//!
//! Three angles:
//! * a property test over random MiniC programs with faults sampled across
//!   effects (bit flips, bursts, flags, memory cells, control-flow edges);
//! * an exhaustive sweep of all 16 workloads x {raw, ID, Flowery} x all
//!   six registered fault models, with snapshots off and on (including a
//!   snapshot set captured by one engine fast-forwarding the others);
//! * form coverage: hand-written programs that make every `AKind` form and
//!   width the engines translate execute — including the forms no
//!   workload emits, which run through the engine's out-of-line path —
//!   with a fault at every site under each of the six models.
//!
//! On non-x86-64 (or non-Linux) hosts the native engine transparently
//! falls back to `compiled`, so the native legs still pass but only
//! exercise the fallback path; [`note_if_native_unavailable`] prints a
//! notice so a green run on such a host is not mistaken for JIT coverage.

#[path = "common/asm_oracle.rs"]
mod asm_oracle;
mod common;

use flowery_backend::mir::{
    AInst, AKind, AOp, AluOp, AsmFunc, AsmProgram, AsmRole, MemRef, OutKind, Reg, ShiftOp, SseOp, CC,
};
use flowery_backend::{compile_module, harden_program, AsmFaultSpec, BackendConfig, ExecMode, HardenConfig, Machine};
use flowery_faultmodel::ModelSpec;
use flowery_inject::{classify, AsmTrialRunner};
use flowery_ir::builder::{FuncBuilder, ModuleBuilder};
use flowery_ir::interp::substrate;
use flowery_ir::interp::{ExecConfig, FaultEffect, FaultSpec, Memory};
use flowery_ir::{BinOp, CastKind, FPred, FuncId, IPred, Intrinsic, IrRole, Module, Op, Type};
use flowery_passes::{apply_flowery, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery_workloads::{workload, Scale, NAMES};
use proptest::prelude::*;

fn exec_with(mode: ExecMode) -> ExecConfig {
    ExecConfig { executor: mode, ..ExecConfig::default() }
}

/// True when this host can run real JIT code; otherwise prints a skip
/// note (once per test) and the native legs degrade to fallback-path
/// coverage.
fn note_if_native_unavailable() {
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        eprintln!(
            "note: host is not x86_64-linux; `native` engine legs exercise \
             only the compiled fallback path here"
        );
    }
}

/// Assert two [`flowery_backend::MachResult`]s are bit-identical.
macro_rules! assert_same_result {
    ($a:expr, $b:expr, $($ctx:tt)*) => {{
        let (a, b) = (&$a, &$b);
        assert_eq!(a.status, b.status, $($ctx)*);
        assert_eq!(a.output, b.output, $($ctx)*);
        assert_eq!(a.dyn_insts, b.dyn_insts, $($ctx)*);
        assert_eq!(a.fault_sites, b.fault_sites, $($ctx)*);
        assert_eq!(a.cycles, b.cycles, $($ctx)*);
        assert_eq!(a.injected_inst, b.injected_inst, $($ctx)*);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, max_shrink_iters: 50, ..ProptestConfig::default() })]

    /// Random programs, faults sampled across the dynamic range and across
    /// every [`FaultEffect`]: every engine must match the oracle on golden
    /// runs, faulted runs, snapshot goldens, and fast-forwarded trials.
    #[test]
    fn engines_agree_on_random_programs(
        (src, faults, interval) in (
            common::program_strategy(),
            prop::collection::vec((0.0f64..1.0, 0u8..64, 0u8..6), 6..12),
            64u64..512,
        )
    ) {
        let m = flowery_lang::compile("gen", &src)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));
        let prog = compile_module(&m, &BackendConfig::default());
        let mach = Machine::new(&m, &prog);

        note_if_native_unavailable();
        let ei = exec_with(ExecMode::Interp);
        let ec = exec_with(ExecMode::Compiled);
        let en = exec_with(ExecMode::Native);
        let go = asm_oracle::run(&m, &prog, &ec, None);
        let gi = mach.run(&ei, None);
        let gc = mach.run(&ec, None);
        let gn = mach.run(&en, None);
        prop_assert!(go.status.is_completed(), "golden must complete: {:?}", go.status);
        assert_same_result!(go, gi, "interp golden run\n{}", &src);
        assert_same_result!(go, gc, "compiled golden run\n{}", &src);
        assert_same_result!(go, gn, "native golden run\n{}", &src);
        if go.fault_sites == 0 {
            return Ok(());
        }

        // Tight budget so livelocked trials run it out under ALL engines.
        let ei = ExecConfig { max_dyn_insts: go.dyn_insts * 2 + 10_000, ..ei };
        let ec = ExecConfig { max_dyn_insts: go.dyn_insts * 2 + 10_000, ..ec };
        let en = ExecConfig { max_dyn_insts: go.dyn_insts * 2 + 10_000, ..en };
        for &(frac, bit, kind) in &faults {
            let site = ((frac * go.fault_sites as f64) as u64).min(go.fault_sites - 1);
            let effect = match kind {
                0 => FaultEffect::Bits,
                1 => FaultEffect::Burst { width: 2 + bit % 7 },
                2 => FaultEffect::Flags,
                3 => FaultEffect::Mem { offset: bit as u64 * 131 },
                4 => FaultEffect::Jump { target: bit as u64 * 17 },
                _ => FaultEffect::Bits,
            };
            let mut spec = AsmFaultSpec::with_effect(site, bit as u32, effect);
            if kind == 5 {
                spec = AsmFaultSpec::double(site, bit as u32, (bit as u32 + 13) % 64);
            }
            let ro = asm_oracle::run(&m, &prog, &ec, Some(spec));
            let ri = mach.run(&ei, Some(spec));
            let rc = mach.run(&ec, Some(spec));
            let rn = mach.run(&en, Some(spec));
            assert_same_result!(ro, ri, "interp fault {spec:?}\n{}", &src);
            assert_same_result!(ro, rc, "compiled fault {spec:?}\n{}", &src);
            assert_same_result!(ro, rn, "native fault {spec:?}\n{}", &src);
        }

        // Snapshot capture under each setting yields interchangeable sets;
        // fast-forward through any set matches the oracle's scratch run.
        // (Every capture runs the bookkept loop, so a set captured under
        // another setting is an engine-routing test, not a new format.)
        let si = mach.capture_snapshots(&ei, interval);
        let sc = mach.capture_snapshots(&ec, interval);
        let sn = mach.capture_snapshots(&en, interval);
        assert_same_result!(go, si.golden(), "interp snapshot golden\n{}", &src);
        assert_same_result!(go, sc.golden(), "compiled snapshot golden\n{}", &src);
        assert_same_result!(go, sn.golden(), "native snapshot golden\n{}", &src);
        let mut scratch = flowery_backend::AsmScratch::new();
        for &(frac, bit, _) in faults.iter().take(3) {
            let site = ((frac * go.fault_sites as f64) as u64).min(go.fault_sites - 1);
            let spec = AsmFaultSpec::single(site, bit as u32);
            let plain = asm_oracle::run(&m, &prog, &ec, Some(spec));
            // Cross pairs: each engine fast-forwarding through a set that
            // a different engine captured.
            let (a, ..) = substrate::trial(&mach, &ec, spec, Some(&si), &mut scratch);
            assert_same_result!(a, plain, "compiled ff through interp set @ site {site}\n{}", &src);
            scratch.recycle_output(a.output);
            let (b, ..) = substrate::trial(&mach, &ei, spec, Some(&sc), &mut scratch);
            assert_same_result!(b, plain, "interp ff through compiled set @ site {site}\n{}", &src);
            scratch.recycle_output(b.output);
            let (c, ..) = substrate::trial(&mach, &en, spec, Some(&si), &mut scratch);
            assert_same_result!(c, plain, "native ff through interp set @ site {site}\n{}", &src);
            scratch.recycle_output(c.output);
            let (d, ..) = substrate::trial(&mach, &ei, spec, Some(&sn), &mut scratch);
            assert_same_result!(d, plain, "interp ff through native set @ site {site}\n{}", &src);
            scratch.recycle_output(d.output);
        }
    }
}

/// Every fault model the build registers, including one parameterized
/// burst width.
fn all_models() -> [ModelSpec; 6] {
    [
        ModelSpec::SingleBitReg,
        ModelSpec::DoubleBitReg,
        ModelSpec::MultiBit(4),
        ModelSpec::FlagsPc,
        ModelSpec::MemCell,
        ModelSpec::ControlFlow,
    ]
}

/// All 16 workloads x {raw, ID, Flowery} x all six fault models, with
/// snapshots off and on, against the oracle's from-boot trial. The
/// snapshot set is captured once under `compiled` and shared with the
/// interp and native runners, so a set produced by one setting must
/// fast-forward the others bit-identically.
#[test]
fn engines_agree_on_all_workloads_and_models() {
    const TRIALS: u64 = 4;
    const SEED: u64 = 0x00C0_FFEE;
    note_if_native_unavailable();
    for name in NAMES {
        let raw = workload(name, Scale::Tiny).compile();
        for variant in ["raw", "id", "flowery"] {
            let mut m = raw.clone();
            if variant != "raw" {
                let plan = ProtectionPlan::full(&m);
                duplicate_module(&mut m, &plan, &DupConfig::default());
            }
            if variant == "flowery" {
                apply_flowery(&mut m, &FloweryConfig::default());
            }
            let prog = compile_module(&m, &BackendConfig::default());
            let golden = asm_oracle::run(&m, &prog, &ExecConfig::default(), None);
            // The trial runners' budget, tightened around the golden run.
            let eo = ExecConfig {
                max_dyn_insts: golden.dyn_insts.saturating_mul(4).max(100_000),
                ..ExecConfig::default()
            };

            let ei = exec_with(ExecMode::Interp);
            let ec = exec_with(ExecMode::Compiled);
            let en = exec_with(ExecMode::Native);
            let mut interp_plain = AsmTrialRunner::new(&m, &prog, &ei);
            assert_same_result!(golden, interp_plain.golden(), "{name}/{variant} golden");
            let mut comp_plain = AsmTrialRunner::new(&m, &prog, &ec);
            let mut native_plain = AsmTrialRunner::new(&m, &prog, &en);
            let mut comp_snap = AsmTrialRunner::new(&m, &prog, &ec);
            comp_snap.enable_snapshots();
            let mut interp_snap = AsmTrialRunner::new(&m, &prog, &ei);
            interp_snap.attach_snapshots(comp_snap.snapshots().expect("snapshots enabled"));
            let mut native_snap = AsmTrialRunner::new(&m, &prog, &en);
            native_snap.attach_snapshots(comp_snap.snapshots().expect("snapshots enabled"));

            for model in all_models() {
                for t in 0..TRIALS {
                    let spec = model.sample_asm(SEED, t, golden.fault_sites);
                    let o = asm_oracle::run(&m, &prog, &eo, Some(spec));
                    let a = interp_plain.run_trial_model(SEED, t, model, &[]);
                    let b = comp_plain.run_trial_model(SEED, t, model, &[]);
                    let n = native_plain.run_trial_model(SEED, t, model, &[]);
                    let c = comp_snap.run_trial_model(SEED, t, model, &[]);
                    let d = interp_snap.run_trial_model(SEED, t, model, &[]);
                    let e = native_snap.run_trial_model(SEED, t, model, &[]);
                    let ctx = format!("{name}/{variant} {model:?} trial {t}");
                    assert_eq!(a.outcome, classify(o.status, &o.output, golden.status, &golden.output), "{ctx}");
                    assert_eq!(a.injected_inst, o.injected_inst, "{ctx}");
                    assert_eq!(a.ff_insts + a.exec_insts, o.dyn_insts, "{ctx}");
                    assert_eq!(a.outcome, b.outcome, "{ctx}");
                    assert_eq!(a.injected_inst, b.injected_inst, "{ctx}");
                    assert_eq!(a.ff_insts + a.exec_insts, b.ff_insts + b.exec_insts, "{ctx}");
                    assert_eq!(a.outcome, n.outcome, "{ctx} (native)");
                    assert_eq!(a.injected_inst, n.injected_inst, "{ctx} (native)");
                    assert_eq!(a.ff_insts + a.exec_insts, n.ff_insts + n.exec_insts, "{ctx} (native)");
                    assert_eq!(a.outcome, c.outcome, "{ctx} (compiled+snapshots)");
                    assert_eq!(a.injected_inst, c.injected_inst, "{ctx} (compiled+snapshots)");
                    assert_eq!(a.ff_insts + a.exec_insts, c.ff_insts + c.exec_insts, "{ctx} (compiled+snapshots)");
                    assert_eq!(a.outcome, d.outcome, "{ctx} (interp through compiled set)");
                    assert_eq!(a.injected_inst, d.injected_inst, "{ctx} (interp through compiled set)");
                    assert_eq!(a.outcome, e.outcome, "{ctx} (native through compiled set)");
                    assert_eq!(a.injected_inst, e.injected_inst, "{ctx} (native through compiled set)");
                    assert_eq!(
                        c.ff_insts, d.ff_insts,
                        "{ctx} (both snapshot runners share one set, so they skip identically)"
                    );
                    assert_eq!(c.ff_insts, e.ff_insts, "{ctx} (native skips identically through the shared set)");
                }
            }
        }
    }
}

/// An IR program through `FuncBuilder` whose selection emits the forms no
/// workload does: i8/i16/i32 loads and stores, sign extension,
/// `or`/`xor` with immediates, shifts by immediate and by register,
/// unsigned division, `select` lowered to `cmov`, byte output, and an
/// unsigned `jae` — next to an f64 store, load, compare and conversions,
/// whose stores hardening checks with a memory `ucomisd`.
fn forms_module() -> Module {
    let mut mb = ModuleBuilder::new("forms");
    let seed = mb.global_i64("seed", &[0x1234_5678_9ABC]);
    let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
    let a = Op::inst(fb.load(Type::I64, Op::Global(seed)));
    for (ty, k) in [(Type::I8, 0xF3), (Type::I16, 0xFFF3), (Type::I32, 0xFFFF_FFF3)] {
        let p = Op::inst(fb.alloca(ty, 1));
        let t = fb.cast(CastKind::Trunc, Type::I64, ty, a);
        let v = fb.bin(BinOp::Xor, ty, Op::inst(t), Op::cint(ty, k));
        fb.store(ty, Op::inst(v), p);
        let l = fb.load(ty, p);
        let sx = fb.cast(CastKind::Sext, ty, Type::I64, Op::inst(l));
        fb.output_i64(Op::inst(sx));
    }
    let o = Op::inst(fb.bin(BinOp::Or, Type::I64, a, Op::ci64(0x55)));
    let n = Op::inst(fb.bin(BinOp::And, Type::I64, a, Op::ci64(7)));
    let d = Op::inst(fb.bin(BinOp::Or, Type::I64, n, Op::ci64(1)));
    let shr = fb.bin(BinOp::LShr, Type::I64, o, Op::ci64(3));
    let shl = Op::inst(fb.bin(BinOp::Shl, Type::I64, o, n));
    let shrr = Op::inst(fb.bin(BinOp::LShr, Type::I64, shl, n));
    let sar = fb.bin(BinOp::AShr, Type::I64, shrr, n);
    let q = Op::inst(fb.bin(BinOp::UDiv, Type::I64, a, d));
    let r = Op::inst(fb.bin(BinOp::URem, Type::I64, a, d));
    let c = fb.icmp(IPred::Ult, Type::I64, n, Op::ci64(4));
    let sel = fb.select(Type::I64, Op::inst(c), q, r);
    for v in [shr, sar, sel] {
        fb.output_i64(Op::inst(v));
    }
    let f = Op::inst(fb.cast(CastKind::SiToFp, Type::I64, Type::F64, d));
    let mut acc = f;
    for op in [BinOp::FAdd, BinOp::FMul, BinOp::FSub, BinOp::FDiv] {
        acc = Op::inst(fb.bin(op, Type::F64, acc, Op::cf64(1.25)));
    }
    let p = Op::inst(fb.alloca(Type::F64, 1));
    fb.store(Type::F64, acc, p);
    let l = Op::inst(fb.load(Type::F64, p));
    let fc = fb.fcmp(FPred::Olt, Type::F64, l, f);
    let fz = fb.cast(CastKind::Zext, Type::I1, Type::I64, Op::inst(fc));
    let fi = fb.cast(CastKind::FpToSi, Type::F64, Type::I64, l);
    fb.output_i64(Op::inst(fz));
    fb.output_i64(Op::inst(fi));
    fb.output_f64(l);
    fb.intrinsic(Intrinsic::OutputByte, vec![n]);
    let big = fb.icmp(IPred::Uge, Type::I64, a, Op::ci64(1000));
    let (t, e) = (fb.new_block("big"), fb.new_block("small"));
    fb.br(Op::inst(big), t, e);
    fb.switch_to(t);
    fb.ret(Some(q));
    fb.switch_to(e);
    fb.ret(Some(r));
    mb.add_func(fb.finish());
    let m = mb.finish();
    flowery_ir::verify::verify_module(&m).unwrap();
    m
}

/// A hand-assembled program for the forms no IR lowering emits: stored
/// immediates, memory-to-memory moves, sign extension from memory and
/// immediates, memory and immediate ALU/shift/test/compare/cmov operands,
/// `push` of an immediate and of memory, unsigned division by memory,
/// and double arithmetic, compares and conversions on memory and
/// immediate operands.
fn hand_program() -> (Module, AsmProgram) {
    let mut mb = ModuleBuilder::new("hand");
    let cells = mb.global_i64("cells", &[7, -3, 11, 0x1234]);
    let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
    fb.ret(Some(Op::Global(cells)));
    mb.add_func(fb.finish());
    let module = mb.finish();
    let base = Memory::layout_globals(&module)[0];
    let slot = |d: i64| AOp::Mem(MemRef::rbp(d));
    let cell = |i: u64| AOp::Mem(MemRef::abs(base + 8 * i));
    use AKind::*;
    use Reg::*;
    let mut kinds = vec![
        Push { src: AOp::Reg(Rbp) },
        Mov { w: 8, dst: AOp::Reg(Rbp), src: AOp::Reg(Rsp) },
        Alu { op: AluOp::Sub, w: 8, dst: Rsp, src: AOp::Imm(64) },
        Mov { w: 1, dst: slot(-8), src: AOp::Imm(-3) },
        Mov { w: 2, dst: slot(-16), src: AOp::Imm(-300) },
        Mov { w: 4, dst: slot(-24), src: AOp::Imm(-70_000) },
        Mov { w: 8, dst: slot(-32), src: AOp::Imm(5) },
        Mov { w: 8, dst: slot(-40), src: cell(1) },
        Mov { w: 2, dst: AOp::Reg(Rsi), src: slot(-16) },
        Mov { w: 4, dst: AOp::Reg(Rdi), src: slot(-24) },
        MovSx { wd: 8, ws: 1, dst: Rax, src: slot(-8) },
        MovSx { wd: 8, ws: 2, dst: Rcx, src: slot(-16) },
        MovSx { wd: 8, ws: 4, dst: Rdx, src: slot(-24) },
        MovSx { wd: 8, ws: 8, dst: R8, src: slot(-40) },
        MovSx { wd: 4, ws: 2, dst: R9, src: AOp::Imm(-2) },
        MovSx { wd: 8, ws: 1, dst: R10, src: AOp::Reg(Rsi) },
        Alu { op: AluOp::Add, w: 8, dst: Rax, src: cell(0) },
        Alu { op: AluOp::Sub, w: 4, dst: Rcx, src: slot(-24) },
        Alu { op: AluOp::Imul, w: 2, dst: Rdx, src: slot(-16) },
        Alu { op: AluOp::And, w: 8, dst: R8, src: cell(3) },
        Alu { op: AluOp::Or, w: 1, dst: R9, src: AOp::Imm(0x40) },
        Alu { op: AluOp::Xor, w: 8, dst: R10, src: cell(2) },
        Shift { op: ShiftOp::Shl, w: 4, dst: Rsi, amt: slot(-32) },
        Shift { op: ShiftOp::Shr, w: 8, dst: Rdi, amt: AOp::Imm(2) },
        Shift { op: ShiftOp::Sar, w: 2, dst: Rcx, amt: cell(0) },
        Test { w: 8, lhs: AOp::Reg(Rax), rhs: AOp::Reg(Rcx) },
        SetCC { cc: CC::E, dst: R11 },
        Out { kind: OutKind::I64, src: AOp::Reg(R11) },
        Cmov { cc: CC::L, w: 4, dst: Rdx, src: slot(-24) },
        Test { w: 2, lhs: slot(-16), rhs: AOp::Imm(0x02) },
        Cmov { cc: CC::E, w: 8, dst: R8, src: AOp::Reg(Rdi) },
        Cmp { w: 1, lhs: slot(-8), rhs: AOp::Reg(R9) },
        Cmov { cc: CC::A, w: 8, dst: R10, src: cell(3) },
        Cmp { w: 8, lhs: AOp::Reg(Rax), rhs: AOp::Imm(100) },
    ];
    let jae = kinds.len();
    kinds.extend([Jcc { cc: CC::Ae, target: 0 }, Alu { op: AluOp::Add, w: 8, dst: Rax, src: AOp::Imm(1) }]);
    let joined = kinds.len() as u32;
    kinds[jae] = Jcc { cc: CC::Ae, target: joined };
    kinds.extend([
        Push { src: AOp::Imm(-9) },
        Push { src: cell(3) },
        Pop { dst: R11 },
        Pop { dst: Rbx },
        Mov { w: 8, dst: AOp::Reg(Rax), src: cell(3) },
        ZeroRdx,
        Out { kind: OutKind::I64, src: AOp::Reg(Rdx) },
        Div { w: 8, signed: false, src: cell(0) },
        Cvtsi2f { dst: Xmm0, src: cell(0) },
        Cvtsi2f { dst: Xmm1, src: AOp::Imm(3) },
        Sse { op: SseOp::AddSd, dst: Xmm0, src: AOp::Reg(Xmm1) },
        MovSd { w: 8, dst: slot(-48), src: AOp::Reg(Xmm0) },
        Sse { op: SseOp::MulSd, dst: Xmm1, src: slot(-48) },
        Sse { op: SseOp::DivSd, dst: Xmm1, src: cell(2) },
        Sse { op: SseOp::SubSd, dst: Xmm2, src: cell(1) },
        Ucomi { lhs: Xmm1, rhs: slot(-48) },
        SetCC { cc: CC::B, dst: R9 },
        Cvtf2si { dst: Rsi, src: slot(-48) },
        Cvtsi2f { dst: Xmm3, src: AOp::Reg(Rsi) },
        Sse { op: SseOp::AddSd, dst: Xmm4, src: slot(-48) },
        Out { kind: OutKind::Byte, src: slot(-8) },
        Out { kind: OutKind::I64, src: AOp::Imm(77) },
        Out { kind: OutKind::F64, src: cell(2) },
    ]);
    for r in [Rax, Rbx, Rcx, Rdx, Rsi, Rdi, R8, R9, R10, R11, Xmm0, Xmm1, Xmm2, Xmm3, Xmm4] {
        kinds.push(Out { kind: OutKind::I64, src: AOp::Reg(r) });
    }
    kinds.extend([Mov { w: 8, dst: AOp::Reg(Rsp), src: AOp::Reg(Rbp) }, Pop { dst: Rbp }, Ret]);
    let insts: Vec<AInst> = kinds
        .into_iter()
        .map(|kind| AInst {
            kind,
            role: AsmRole::Compute,
            prov: None,
            ir_role: IrRole::App,
        })
        .collect();
    let func = AsmFunc {
        name: "main".into(),
        ir_id: FuncId(0),
        entry: 0,
        end: insts.len() as u32,
        frame_size: 64,
    };
    let static_sites = insts.iter().filter(|i| i.kind.is_fault_site()).count();
    (module, AsmProgram { insts, funcs: vec![func], main_entry: 0, static_sites })
}

/// Every `AKind` form and width the engines translate — the workload
/// forms and the out-of-line ones alike — under the oracle, `interp`,
/// `compiled` and `native`, fault-free and with a fault at every site
/// under each of the six models.
#[test]
fn engines_agree_on_every_translated_form() {
    const SEED: u64 = 0x0F0F_5EED;
    note_if_native_unavailable();
    let forms = forms_module();
    let compiled = compile_module(&forms, &BackendConfig::default());
    // Hardening adds register-to-memory compares (integer and f64).
    let (hardened, _) = harden_program(&compiled, &HardenConfig::default());
    let (hand, hand_prog) = hand_program();
    for (name, m, prog) in [
        ("forms", &forms, &compiled),
        ("forms+harden", &forms, &hardened),
        ("hand", &hand, &hand_prog),
    ] {
        let golden = asm_oracle::run(m, prog, &ExecConfig::default(), None);
        assert!(golden.status.is_completed(), "{name}: golden must complete: {:?}", golden.status);
        let limits = ExecConfig {
            max_dyn_insts: golden.dyn_insts * 4 + 1_000,
            ..ExecConfig::default()
        };
        let mach = Machine::new(m, prog);
        let modes = [ExecMode::Interp, ExecMode::Compiled, ExecMode::Native];
        for mode in modes {
            assert_same_result!(golden, mach.run(&exec_with(mode), None), "{name} golden under {mode:?}");
        }
        for model in all_models() {
            for site in 0..golden.fault_sites {
                let spec = FaultSpec {
                    site_index: site,
                    ..model.sample_asm(SEED, site, golden.fault_sites)
                };
                let want = asm_oracle::run(m, prog, &limits, Some(spec));
                for mode in modes {
                    let got = mach.run(&ExecConfig { executor: mode, ..limits.clone() }, Some(spec));
                    assert_same_result!(want, got, "{name} {model:?} {spec:?} under {mode:?}");
                }
            }
        }
    }
}
