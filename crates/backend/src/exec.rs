//! The machine layer's portable execution engine: threaded code.
//!
//! Two engines execute an [`AsmProgram`]: this one and the native x86-64
//! JIT ([`crate::jit`]). [`Machine`] picks one per run from
//! [`ExecConfig::executor`]: `native` runs the JIT, `compiled` and
//! `interp` run here.
//!
//! [`CompiledProgram::build`] pre-lowers each [`AInst`] into a flat array
//! of specialized micro-ops (`Op`): opcode, operand form, and width are
//! resolved at translation time, immediates are pre-canonicalized,
//! frame-slot addresses pre-split, flag updates branch-free, and memory
//! accesses width-monomorphized. Only the forms the instruction selector
//! emits for real programs get an `Op` variant of their own; every other
//! form runs through an out-of-line [`GenOp`], still pre-decoded.
//!
//! Three loops drive the micro-ops. The *fast loop* keeps the
//! instruction/cycle/site counters in locals and folds the output-flood
//! check into the only arms that can grow the output; plain `compiled`
//! trials take it. The *recording loop*, the same loop instantiated for
//! captures and site observations under every executor, also counts the
//! profile, notes each fault site and stops at each due point for the
//! capture. The *bookkept loop* runs every
//! instruction through [`step`] (bounds check, accounting, budget trap,
//! profile, injection); profile runs and `interp` trials take it, and the
//! fast loop hands it the one iteration at the armed trap site.
//!
//! The engine contract is strict bit-identity: for any (program, config,
//! fault, starting state), every loop and the JIT produce byte-identical
//! status, output, `dyn_insts`, `fault_sites`, `cycles`, `injected_inst`,
//! profile, and snapshot streams. `tests/exec_equivalence.rs` checks all
//! three executor settings against a from-boot reference interpreter kept
//! with the tests, and CI's `exec-smoke` job diffs whole campaign
//! checkpoints across engines.
//!
//! Fault injection is compiled as a *per-trial armed trap*, not by
//! re-translating the program: the fast loop carries the armed site index
//! in a register, and when the running fault-site counter reaches it the
//! loop hands that one iteration to [`step`] — `Machine::apply_fault`
//! corrupts the destination and control-flow faults redirect the next
//! instruction pointer — and then disarms. The JIT detours through the
//! same [`step`]. One translation therefore serves every trial of a
//! campaign, under all six fault models.
//!
//! Snapshots need little that is engine-specific: the recording loop
//! drives the `Recorder` hooks (`stretch_end`/`due`/`capture`/`note_site`),
//! and dirty-page tracking lives inside [`Memory`], below every engine.

use crate::machine::{width_ty, AsmFaultSpec, MachResult, Machine, State, SENTINEL};
use crate::mir::{flags, AInst, AKind, AOp, AluOp, AsmProgram, MathKind, MemRef, OutKind, Reg, ShiftOp, SseOp, CC};
use crate::snapshot::{AsmLayer, AsmState};
use flowery_ir::inst::Intrinsic;
use flowery_ir::interp::memory::TrapKind;
use flowery_ir::interp::snapshot::Recorder;
use flowery_ir::interp::{ops, ExecConfig, ExecMode, ExecStatus, FaultEffect, Memory};

const RAX: usize = Reg::Rax as usize;
const RDX: usize = Reg::Rdx as usize;
const RSP: usize = Reg::Rsp as usize;
const RFLAGS: usize = Reg::Rflags as usize;

/// One trial execution: the machine, the limits, the armed fault, the
/// starting state (fresh boot or snapshot restore), and the optional
/// snapshot recorder. Trials enter through the [`Machine`] run methods.
pub(crate) struct TrialRun<'a, 'p> {
    pub(crate) machine: &'a Machine<'p>,
    pub(crate) config: &'a ExecConfig,
    pub(crate) fault: Option<AsmFaultSpec>,
    pub(crate) st: State,
    pub(crate) ip: u32,
    pub(crate) recorder: Option<&'a mut Recorder<AsmLayer>>,
}

/// Fault-site marker bit in the per-instruction metadata byte.
const META_SITE: u8 = 0x80;

/// A program translated to threaded code: one [`Op`] per instruction
/// position, plus a parallel packed metadata stream (cycle cost in the low
/// seven bits, the fault-site flag in [`META_SITE`]) so the dispatch
/// loop's per-step bookkeeping reads one dense byte instead of trailing
/// fields of a fat struct. Forms without an `Op` variant are stored
/// out-of-line in `gens` and referenced by index, keeping the hot `Op`
/// array elements small. Built once per [`Machine`] (lazily, on the first
/// run that needs it) and reused by every subsequent trial.
pub(crate) struct CompiledProgram {
    ops: Vec<Op>,
    meta: Vec<u8>,
    gens: Vec<GenOp>,
}

impl CompiledProgram {
    pub(crate) fn build(program: &AsmProgram) -> CompiledProgram {
        let len = program.insts.len();
        let mut gens = Vec::new();
        let ops = program.insts.iter().map(|inst| translate(&inst.kind, len, &mut gens)).collect();
        let meta = program
            .insts
            .iter()
            .map(|inst| {
                let cycles = inst.kind.cycles() as u8;
                debug_assert!(cycles & META_SITE == 0, "cycle cost must fit 7 bits");
                cycles | if inst.kind.is_fault_site() { META_SITE } else { 0 }
            })
            .collect();
        CompiledProgram { ops, meta, gens }
    }
}

#[inline(always)]
fn trap(k: TrapKind) -> ExecStatus {
    ExecStatus::Trapped(k)
}

/// Width-monomorphized load: the bounds check and byte copy compile to a
/// fixed-size access instead of a variable-width path.
#[inline(always)]
fn load<const W: usize>(st: &mut State, addr: u64) -> Result<u64, ExecStatus> {
    st.mem.load_w::<W>(addr).map_err(trap)
}

/// Width-monomorphized store. The `last_mem_write` bookkeeping (read by
/// memory-destination fault injection) happens before the bounds check.
#[inline(always)]
fn store<const W: usize>(st: &mut State, addr: u64, v: u64) -> Result<(), ExecStatus> {
    st.last_mem_write = Some((addr, W as u8));
    st.mem.store_w::<W>(addr, v).map_err(trap)
}

#[inline(always)]
fn load_var(st: &mut State, addr: u64, w: u8) -> Result<u64, ExecStatus> {
    match w {
        8 => load::<8>(st, addr),
        4 => load::<4>(st, addr),
        2 => load::<2>(st, addr),
        _ => load::<1>(st, addr),
    }
}

#[inline(always)]
fn store_var(st: &mut State, addr: u64, w: u8, v: u64) -> Result<(), ExecStatus> {
    match w {
        8 => store::<8>(st, addr, v),
        4 => store::<4>(st, addr, v),
        2 => store::<2>(st, addr, v),
        _ => store::<1>(st, addr, v),
    }
}

/// `push v`: the stack-segment check, then the 8-byte store, then `rsp`.
#[inline(always)]
fn push(st: &mut State, v: u64) -> Result<(), ExecStatus> {
    let sp = st.regs[RSP].wrapping_sub(8);
    if sp < st.mem.stack_limit() {
        return Err(trap(TrapKind::StackOverflow));
    }
    store::<8>(st, sp, v)?;
    st.regs[RSP] = sp;
    Ok(())
}

/// Append one output record (tag byte + payload); traps when the output
/// outgrows its budget (pushed first, checked after).
#[inline(always)]
fn out(st: &mut State, max_out: usize, tag: u8, payload: &[u8]) -> Result<(), ExecStatus> {
    st.output.push(tag);
    st.output.extend_from_slice(payload);
    if st.output.len() > max_out {
        return Err(trap(TrapKind::OutputFlood));
    }
    Ok(())
}

/// Sentinel register index meaning "no register".
const NO_REG: u8 = 0xFF;

/// Pre-resolved `[base + disp]` address computation — the frame-slot
/// resolution hoisted out of the per-access path. `base == NO_REG` marks
/// an absolute reference (no register read at all).
#[derive(Clone, Copy)]
struct Addr {
    base: u8,
    disp: i64,
}

impl Addr {
    fn new(m: MemRef) -> Addr {
        Addr {
            base: m.base.map_or(NO_REG, |r| r.index() as u8),
            disp: m.disp,
        }
    }

    #[inline(always)]
    fn ea(self, regs: &[u64; Reg::COUNT]) -> u64 {
        if self.base == NO_REG {
            self.disp as u64
        } else {
            regs[self.base as usize].wrapping_add_signed(self.disp)
        }
    }
}

/// Pre-decoded read operand: register reads carry their dense index and
/// canonicalization mask, immediates are canonicalized at translation
/// time, memory reads carry a resolved address computation.
#[derive(Clone, Copy)]
enum Rd {
    Reg(u8, u64),
    Imm(u64),
    Mem(Addr, u8),
}

impl Rd {
    fn new(op: AOp, w: u8) -> Rd {
        match op {
            AOp::Reg(r) => Rd::Reg(r.index() as u8, width_ty(w).mask()),
            AOp::Imm(v) => Rd::Imm(width_ty(w).canon(v as u64)),
            AOp::Mem(m) => Rd::Mem(Addr::new(m), w),
        }
    }

    #[inline(always)]
    fn get(self, st: &mut State) -> Result<u64, ExecStatus> {
        match self {
            Rd::Reg(i, m) => Ok(st.regs[i as usize] & m),
            Rd::Imm(v) => Ok(v),
            Rd::Mem(a, w) => {
                let ea = a.ea(&st.regs);
                load_var(st, ea, w)
            }
        }
    }

    /// Like [`Rd::get`] for operands whose width is statically known, so a
    /// memory read monomorphizes.
    #[inline(always)]
    fn get_w<const W: usize>(self, st: &mut State) -> Result<u64, ExecStatus> {
        match self {
            Rd::Reg(i, m) => Ok(st.regs[i as usize] & m),
            Rd::Imm(v) => Ok(v),
            Rd::Mem(a, _) => {
                let ea = a.ea(&st.regs);
                load::<W>(st, ea)
            }
        }
    }
}

/// Pre-decoded write destination (generic `mov` only).
#[derive(Clone, Copy)]
enum Wr {
    Reg(u8, u64),
    Mem(Addr, u8),
}

impl Wr {
    fn new(op: AOp, w: u8) -> Wr {
        match op {
            AOp::Reg(r) => Wr::Reg(r.index() as u8, width_ty(w).mask()),
            AOp::Mem(m) => Wr::Mem(Addr::new(m), w),
            AOp::Imm(_) => unreachable!("immediate destination"),
        }
    }

    #[inline(always)]
    fn put(self, st: &mut State, v: u64) -> Result<(), ExecStatus> {
        match self {
            Wr::Reg(i, m) => {
                st.regs[i as usize] = v & m;
                Ok(())
            }
            Wr::Mem(a, w) => {
                let ea = a.ea(&st.regs);
                store_var(st, ea, w, v)
            }
        }
    }
}

// ---- branch-free flag computation ------------------------------------------
//
// `sh` is `bits - 1`, so `(x >> sh) & 1` is the sign bit of a canonical
// value and the signed-overflow conditions reduce to sign-bit algebra —
// add overflows iff the operands agree in sign and the result disagrees
// (`!(a^b) & (a^r)`), sub iff they disagree and the result flips (`(a^b) &
// (a^r)`). Logic ops (and/or/xor/imul/shifts/test) set ZF and SF only.

#[inline(always)]
fn add_flags(a: u64, b: u64, r: u64, sh: u32) -> u64 {
    ((r == 0) as u64) * flags::ZF
        + ((r >> sh) & 1) * flags::SF
        + ((r < a) as u64) * flags::CF
        + (((!(a ^ b) & (a ^ r)) >> sh) & 1) * flags::OF
}

#[inline(always)]
fn sub_flags(a: u64, b: u64, r: u64, sh: u32) -> u64 {
    ((r == 0) as u64) * flags::ZF
        + ((r >> sh) & 1) * flags::SF
        + ((a < b) as u64) * flags::CF
        + ((((a ^ b) & (a ^ r)) >> sh) & 1) * flags::OF
}

#[inline(always)]
fn logic_flags(r: u64, sh: u32) -> u64 {
    ((r == 0) as u64) * flags::ZF + ((r >> sh) & 1) * flags::SF
}

/// `ucomis*` flags: unordered sets ZF|CF, equal ZF, below CF.
#[inline(always)]
fn ucomi_flags(x: f64, y: f64) -> u64 {
    if x.is_nan() || y.is_nan() {
        flags::ZF | flags::CF
    } else if x == y {
        flags::ZF
    } else if x < y {
        flags::CF
    } else {
        0
    }
}

#[inline(always)]
fn cond(fl: u64, cc: CC) -> bool {
    let zf = fl & flags::ZF != 0;
    let sf = fl & flags::SF != 0;
    let of = fl & flags::OF != 0;
    let cf = fl & flags::CF != 0;
    match cc {
        CC::E => zf,
        CC::Ne => !zf,
        CC::L => sf != of,
        CC::Le => zf || sf != of,
        CC::G => !zf && sf == of,
        CC::Ge => sf == of,
        CC::B => cf,
        CC::Be => cf || zf,
        CC::A => !cf && !zf,
        CC::Ae => !cf,
    }
}

/// Per-instruction ALU control baked at translation time: the width mask,
/// the sign-bit shift, and whether the destination is `rsp` (which needs
/// the stack-segment check after the write).
#[derive(Clone, Copy)]
struct AluCtl {
    mask: u64,
    sh: u32,
    rsp: bool,
}

const A_ADD: u8 = 0;
const A_SUB: u8 = 1;
const A_IMUL: u8 = 2;
const A_AND: u8 = 3;
const A_OR: u8 = 4;
const A_XOR: u8 = 5;

/// One ALU step, monomorphized per opcode: read, compute, flags, write,
/// rsp sanity check (the stack must stay in its segment).
#[inline(always)]
fn alu_step<const OP: u8>(st: &mut State, di: usize, c: AluCtl, b: u64) -> Result<(), ExecStatus> {
    let a = st.regs[di] & c.mask;
    let r = (match OP {
        A_ADD => a.wrapping_add(b),
        A_SUB => a.wrapping_sub(b),
        A_IMUL => a.wrapping_mul(b),
        A_AND => a & b,
        A_OR => a | b,
        _ => a ^ b,
    }) & c.mask;
    st.regs[RFLAGS] = match OP {
        A_ADD => add_flags(a, b, r, c.sh),
        A_SUB => sub_flags(a, b, r, c.sh),
        _ => logic_flags(r, c.sh),
    };
    st.regs[di] = r;
    if c.rsp && st.regs[RSP] < st.mem.stack_limit() {
        return Err(trap(TrapKind::StackOverflow));
    }
    Ok(())
}

/// A pre-decoded micro-op: opcode x operand form x width, resolved at
/// translation time. One variant per form the instruction selector emits
/// for the workload programs; `Gen` points at the out-of-line [`GenOp`]
/// every other form runs through.
#[derive(Clone, Copy)]
enum Op {
    // -- moves ---------------------------------------------------------------
    MovRR {
        di: u8,
        si: u8,
        mask: u64,
    },
    MovRI {
        di: u8,
        v: u64,
    },
    Load1 {
        di: u8,
        a: Addr,
    },
    Load8 {
        di: u8,
        a: Addr,
    },
    Store1 {
        a: Addr,
        si: u8,
    },
    Store8 {
        a: Addr,
        si: u8,
    },
    Lea {
        di: u8,
        a: Addr,
    },
    // -- integer ALU ---------------------------------------------------------
    AddRR {
        di: u8,
        si: u8,
        c: AluCtl,
    },
    AddRI {
        di: u8,
        v: u64,
        c: AluCtl,
    },
    SubRR {
        di: u8,
        si: u8,
        c: AluCtl,
    },
    SubRI {
        di: u8,
        v: u64,
        c: AluCtl,
    },
    ImulRR {
        di: u8,
        si: u8,
        c: AluCtl,
    },
    ImulRI {
        di: u8,
        v: u64,
        c: AluCtl,
    },
    AndRR {
        di: u8,
        si: u8,
        c: AluCtl,
    },
    AndRI {
        di: u8,
        v: u64,
        c: AluCtl,
    },
    OrRR {
        di: u8,
        si: u8,
        c: AluCtl,
    },
    XorRR {
        di: u8,
        si: u8,
        c: AluCtl,
    },
    // -- shifts (s/amt pre-masked by `smask = bits-1`; `ssh = 64-bits`) ------
    ShlI {
        di: u8,
        s: u32,
        mask: u64,
        sh: u32,
    },
    SarI {
        di: u8,
        s: u32,
        mask: u64,
        sh: u32,
        ssh: u32,
    },
    SarR {
        di: u8,
        si: u8,
        smask: u64,
        mask: u64,
        sh: u32,
        ssh: u32,
    },
    // -- widening/divide -----------------------------------------------------
    Cqo,
    DivS {
        rd: Rd,
    },
    // -- compare/test/conditionals -------------------------------------------
    CmpRR {
        li: u8,
        ri: u8,
        mask: u64,
        sh: u32,
    },
    CmpRI {
        li: u8,
        v: u64,
        mask: u64,
        sh: u32,
    },
    TestRI {
        li: u8,
        v: u64,
        mask: u64,
        sh: u32,
    },
    SetCC {
        cc: CC,
        di: u8,
    },
    // -- control flow --------------------------------------------------------
    JccE {
        t: u32,
    },
    JccNe {
        t: u32,
    },
    JccL {
        t: u32,
    },
    JccLe {
        t: u32,
    },
    JccG {
        t: u32,
    },
    JccGe {
        t: u32,
    },
    JccB {
        t: u32,
    },
    JccBe {
        t: u32,
    },
    JccA {
        t: u32,
    },
    Jmp {
        t: u32,
    },
    Call {
        t: u32,
    },
    Ret {
        len: u32,
    },
    PushR {
        si: u8,
    },
    Pop {
        di: u8,
    },
    // -- SSE scalar double ---------------------------------------------------
    AddSd {
        di: u8,
        rd: Rd,
    },
    SubSd {
        di: u8,
        rd: Rd,
    },
    MulSd {
        di: u8,
        rd: Rd,
    },
    DivSd {
        di: u8,
        rd: Rd,
    },
    UcomiD {
        li: u8,
        rd: Rd,
    },
    CvtSiF64 {
        di: u8,
        rd: Rd,
    },
    CvtF64Si {
        di: u8,
        rd: Rd,
    },
    // -- pseudos -------------------------------------------------------------
    Math {
        intr: Intrinsic,
        di: u8,
        ai: u8,
        b2: u8,
    },
    OutI64 {
        rd: Rd,
    },
    OutF64 {
        rd: Rd,
    },
    DetectTrap,
    /// Out-of-line form: index into [`CompiledProgram::gens`].
    Gen {
        gi: u32,
    },
}

/// The out-of-line micro-ops: every form without an [`Op`] variant,
/// parameterized by operand form, width, operation or condition code, and
/// stored out-of-line so they don't inflate every element of the hot
/// [`Op`] array. Still no per-step decode, just one extra indirection on
/// forms the workload programs never execute.
#[derive(Clone, Copy)]
enum GenOp {
    Mov {
        rd: Rd,
        wr: Wr,
    },
    Alu {
        op: AluOp,
        di: u8,
        rd: Rd,
        c: AluCtl,
    },
    Shift {
        op: ShiftOp,
        di: u8,
        amt: Rd,
        smask: u64,
        mask: u64,
        sh: u32,
        ssh: u32,
    },
    Cmp {
        l: Rd,
        r: Rd,
        mask: u64,
        sh: u32,
    },
    Test {
        l: Rd,
        r: Rd,
        mask: u64,
        sh: u32,
    },
    Jcc {
        cc: CC,
        t: u32,
    },
    Push {
        rd: Rd,
    },
    OutByte {
        rd: Rd,
    },
}

/// Execute an out-of-line op. Cold by construction: the workload programs
/// never emit these forms.
#[inline(never)]
fn exec_gen(g: &GenOp, st: &mut State, next: u32, max_out: usize) -> Result<u32, ExecStatus> {
    match *g {
        GenOp::Mov { rd, wr } => {
            let v = rd.get(st)?;
            wr.put(st, v)?;
        }
        GenOp::Alu { op, di, rd, c } => {
            let b = rd.get(st)?;
            match op {
                AluOp::Add => alu_step::<A_ADD>(st, di as usize, c, b)?,
                AluOp::Sub => alu_step::<A_SUB>(st, di as usize, c, b)?,
                AluOp::Imul => alu_step::<A_IMUL>(st, di as usize, c, b)?,
                AluOp::And => alu_step::<A_AND>(st, di as usize, c, b)?,
                AluOp::Or => alu_step::<A_OR>(st, di as usize, c, b)?,
                AluOp::Xor => alu_step::<A_XOR>(st, di as usize, c, b)?,
            }
        }
        GenOp::Shift { op, di, amt, smask, mask, sh, ssh } => {
            let a = st.regs[di as usize] & mask;
            let s = (amt.get(st)? & smask) as u32;
            let r = match op {
                ShiftOp::Shl => (a << s) & mask,
                ShiftOp::Sar => ((((a << ssh) as i64 >> ssh) >> s) as u64) & mask,
            };
            st.regs[RFLAGS] = logic_flags(r, sh);
            st.regs[di as usize] = r;
        }
        GenOp::Cmp { l, r, mask, sh } => {
            let a = l.get(st)?;
            let b = r.get(st)?;
            let res = a.wrapping_sub(b) & mask;
            st.regs[RFLAGS] = sub_flags(a, b, res, sh);
        }
        GenOp::Test { l, r, mask, sh } => {
            let a = l.get(st)?;
            let b = r.get(st)?;
            st.regs[RFLAGS] = logic_flags(a & b & mask, sh);
        }
        GenOp::Jcc { cc, t } => return Ok(if cond(st.regs[RFLAGS], cc) { t } else { next }),
        GenOp::Push { rd } => {
            let v = rd.get_w::<8>(st)?;
            push(st, v)?;
        }
        GenOp::OutByte { rd } => {
            let v = rd.get_w::<8>(st)?;
            out(st, max_out, 3, &[v as u8])?;
        }
    }
    Ok(next)
}

/// Execute one micro-op against `st`, returning the next instruction
/// pointer. Every arm follows the machine semantics exactly — evaluation
/// order, trap points, and the `last_mem_write` bookkeeping included. The
/// output-flood check lives in the `Out*` arms (the only ops that grow the
/// output), not in the dispatch loop; `out` has no architected
/// destination, so it is never a fault site and flood-trapping inside the
/// arm cannot skip a site increment.
#[inline(always)]
fn exec_op(op: &Op, st: &mut State, ip: u32, max_out: usize, gens: &[GenOp]) -> Result<u32, ExecStatus> {
    let next = ip + 1;
    match *op {
        Op::MovRR { di, si, mask } => {
            st.regs[di as usize] = st.regs[si as usize] & mask;
            Ok(next)
        }
        Op::MovRI { di, v } => {
            st.regs[di as usize] = v;
            Ok(next)
        }
        Op::Load1 { di, a } => {
            let ea = a.ea(&st.regs);
            st.regs[di as usize] = load::<1>(st, ea)?;
            Ok(next)
        }
        Op::Load8 { di, a } => {
            let ea = a.ea(&st.regs);
            st.regs[di as usize] = load::<8>(st, ea)?;
            Ok(next)
        }
        Op::Store1 { a, si } => {
            let ea = a.ea(&st.regs);
            store::<1>(st, ea, st.regs[si as usize])?;
            Ok(next)
        }
        Op::Store8 { a, si } => {
            let ea = a.ea(&st.regs);
            store::<8>(st, ea, st.regs[si as usize])?;
            Ok(next)
        }
        Op::Lea { di, a } => {
            st.regs[di as usize] = a.ea(&st.regs);
            Ok(next)
        }
        Op::AddRR { di, si, c } => {
            let b = st.regs[si as usize] & c.mask;
            alu_step::<A_ADD>(st, di as usize, c, b)?;
            Ok(next)
        }
        Op::AddRI { di, v, c } => {
            alu_step::<A_ADD>(st, di as usize, c, v)?;
            Ok(next)
        }
        Op::SubRR { di, si, c } => {
            let b = st.regs[si as usize] & c.mask;
            alu_step::<A_SUB>(st, di as usize, c, b)?;
            Ok(next)
        }
        Op::SubRI { di, v, c } => {
            alu_step::<A_SUB>(st, di as usize, c, v)?;
            Ok(next)
        }
        Op::ImulRR { di, si, c } => {
            let b = st.regs[si as usize] & c.mask;
            alu_step::<A_IMUL>(st, di as usize, c, b)?;
            Ok(next)
        }
        Op::ImulRI { di, v, c } => {
            alu_step::<A_IMUL>(st, di as usize, c, v)?;
            Ok(next)
        }
        Op::AndRR { di, si, c } => {
            let b = st.regs[si as usize] & c.mask;
            alu_step::<A_AND>(st, di as usize, c, b)?;
            Ok(next)
        }
        Op::AndRI { di, v, c } => {
            alu_step::<A_AND>(st, di as usize, c, v)?;
            Ok(next)
        }
        Op::OrRR { di, si, c } => {
            let b = st.regs[si as usize] & c.mask;
            alu_step::<A_OR>(st, di as usize, c, b)?;
            Ok(next)
        }
        Op::XorRR { di, si, c } => {
            let b = st.regs[si as usize] & c.mask;
            alu_step::<A_XOR>(st, di as usize, c, b)?;
            Ok(next)
        }
        Op::ShlI { di, s, mask, sh } => {
            let a = st.regs[di as usize] & mask;
            let r = (a << s) & mask;
            st.regs[RFLAGS] = logic_flags(r, sh);
            st.regs[di as usize] = r;
            Ok(next)
        }
        Op::SarI { di, s, mask, sh, ssh } => {
            let a = st.regs[di as usize] & mask;
            let r = ((((a << ssh) as i64 >> ssh) >> s) as u64) & mask;
            st.regs[RFLAGS] = logic_flags(r, sh);
            st.regs[di as usize] = r;
            Ok(next)
        }
        Op::SarR { di, si, smask, mask, sh, ssh } => {
            let s = (st.regs[si as usize] & smask) as u32;
            let a = st.regs[di as usize] & mask;
            let r = ((((a << ssh) as i64 >> ssh) >> s) as u64) & mask;
            st.regs[RFLAGS] = logic_flags(r, sh);
            st.regs[di as usize] = r;
            Ok(next)
        }
        Op::Cqo => {
            st.regs[RDX] = ((st.regs[RAX] as i64) >> 63) as u64;
            Ok(next)
        }
        Op::DivS { rd } => {
            let b = rd.get_w::<8>(st)?;
            let a = st.regs[RAX] as i64;
            let bs = b as i64;
            if bs == 0 || (a == i64::MIN && bs == -1) {
                return Err(trap(TrapKind::DivFault));
            }
            st.regs[RAX] = (a / bs) as u64;
            st.regs[RDX] = (a % bs) as u64;
            Ok(next)
        }
        Op::CmpRR { li, ri, mask, sh } => {
            let a = st.regs[li as usize] & mask;
            let b = st.regs[ri as usize] & mask;
            let r = a.wrapping_sub(b) & mask;
            st.regs[RFLAGS] = sub_flags(a, b, r, sh);
            Ok(next)
        }
        Op::CmpRI { li, v, mask, sh } => {
            let a = st.regs[li as usize] & mask;
            let r = a.wrapping_sub(v) & mask;
            st.regs[RFLAGS] = sub_flags(a, v, r, sh);
            Ok(next)
        }
        Op::TestRI { li, v, mask, sh } => {
            let r = st.regs[li as usize] & v & mask;
            st.regs[RFLAGS] = logic_flags(r, sh);
            Ok(next)
        }
        Op::SetCC { cc, di } => {
            st.regs[di as usize] = cond(st.regs[RFLAGS], cc) as u64;
            Ok(next)
        }
        Op::JccE { t } => Ok(if st.regs[RFLAGS] & flags::ZF != 0 { t } else { next }),
        Op::JccNe { t } => Ok(if st.regs[RFLAGS] & flags::ZF == 0 { t } else { next }),
        Op::JccL { t } => {
            let fl = st.regs[RFLAGS];
            Ok(if (fl & flags::SF != 0) != (fl & flags::OF != 0) { t } else { next })
        }
        Op::JccLe { t } => {
            let fl = st.regs[RFLAGS];
            Ok(if fl & flags::ZF != 0 || (fl & flags::SF != 0) != (fl & flags::OF != 0) {
                t
            } else {
                next
            })
        }
        Op::JccG { t } => {
            let fl = st.regs[RFLAGS];
            Ok(if fl & flags::ZF == 0 && (fl & flags::SF != 0) == (fl & flags::OF != 0) {
                t
            } else {
                next
            })
        }
        Op::JccGe { t } => {
            let fl = st.regs[RFLAGS];
            Ok(if (fl & flags::SF != 0) == (fl & flags::OF != 0) { t } else { next })
        }
        Op::JccB { t } => Ok(if st.regs[RFLAGS] & flags::CF != 0 { t } else { next }),
        Op::JccBe { t } => Ok(if st.regs[RFLAGS] & (flags::CF | flags::ZF) != 0 { t } else { next }),
        Op::JccA { t } => Ok(if st.regs[RFLAGS] & (flags::CF | flags::ZF) == 0 { t } else { next }),
        Op::Jmp { t } => Ok(t),
        Op::Call { t } => {
            push(st, next as u64)?;
            Ok(t)
        }
        Op::Ret { len } => {
            let sp = st.regs[RSP];
            let ra = load::<8>(st, sp)?;
            st.regs[RSP] = sp.wrapping_add(8);
            if ra == SENTINEL {
                return Err(ExecStatus::Completed(st.regs[RAX]));
            }
            if ra >= len as u64 {
                return Err(trap(TrapKind::BadControl));
            }
            Ok(ra as u32)
        }
        Op::PushR { si } => {
            push(st, st.regs[si as usize])?;
            Ok(next)
        }
        Op::Pop { di } => {
            let sp = st.regs[RSP];
            let v = load::<8>(st, sp)?;
            st.regs[RSP] = sp.wrapping_add(8);
            st.regs[di as usize] = v;
            Ok(next)
        }
        Op::AddSd { di, rd } => {
            let a = st.regs[di as usize];
            let b = rd.get_w::<8>(st)?;
            st.regs[di as usize] = (f64::from_bits(a) + f64::from_bits(b)).to_bits();
            Ok(next)
        }
        Op::SubSd { di, rd } => {
            let a = st.regs[di as usize];
            let b = rd.get_w::<8>(st)?;
            st.regs[di as usize] = (f64::from_bits(a) - f64::from_bits(b)).to_bits();
            Ok(next)
        }
        Op::MulSd { di, rd } => {
            let a = st.regs[di as usize];
            let b = rd.get_w::<8>(st)?;
            st.regs[di as usize] = (f64::from_bits(a) * f64::from_bits(b)).to_bits();
            Ok(next)
        }
        Op::DivSd { di, rd } => {
            let a = st.regs[di as usize];
            let b = rd.get_w::<8>(st)?;
            st.regs[di as usize] = (f64::from_bits(a) / f64::from_bits(b)).to_bits();
            Ok(next)
        }
        Op::UcomiD { li, rd } => {
            let a = st.regs[li as usize];
            let b = rd.get_w::<8>(st)?;
            st.regs[RFLAGS] = ucomi_flags(f64::from_bits(a), f64::from_bits(b));
            Ok(next)
        }
        Op::CvtSiF64 { di, rd } => {
            let v = rd.get_w::<8>(st)?;
            st.regs[di as usize] = ((v as i64) as f64).to_bits();
            Ok(next)
        }
        Op::CvtF64Si { di, rd } => {
            let v = rd.get_w::<8>(st)?;
            st.regs[di as usize] = (f64::from_bits(v) as i64) as u64;
            Ok(next)
        }
        Op::Math { intr, di, ai, b2 } => {
            st.regs[di as usize] = if b2 == NO_REG {
                ops::eval_math(intr, &[st.regs[ai as usize]])
            } else {
                ops::eval_math(intr, &[st.regs[ai as usize], st.regs[b2 as usize]])
            };
            Ok(next)
        }
        Op::OutI64 { rd } => {
            let v = rd.get_w::<8>(st)?;
            out(st, max_out, 1, &v.to_le_bytes())?;
            Ok(next)
        }
        Op::OutF64 { rd } => {
            let v = rd.get_w::<8>(st)?;
            out(st, max_out, 2, &v.to_le_bytes())?;
            Ok(next)
        }
        Op::DetectTrap => Err(ExecStatus::Detected),
        Op::Gen { gi } => exec_gen(&gens[gi as usize], st, next, max_out),
    }
}

/// One fully bookkept dispatch iteration: bounds check, instruction
/// accounting, budget trap, profile, cycles, injection (a pruning machine's
/// proven-masked flip stops the run there instead). The bookkept loop runs
/// every iteration through here; the fast loop delegates only the iteration
/// whose fault-site counter matches the armed trap, and the JIT one
/// instruction each time a block-entry guard trips.
pub(crate) fn step(
    machine: &Machine<'_>,
    config: &ExecConfig,
    prog: &CompiledProgram,
    insts: &[AInst],
    st: &mut State,
    ip: &mut u32,
    armed: &mut Option<AsmFaultSpec>,
) -> Result<(), ExecStatus> {
    let Some(op) = prog.ops.get(*ip as usize) else {
        return Err(ExecStatus::Trapped(TrapKind::BadControl));
    };
    let meta = prog.meta[*ip as usize];
    let is_site = meta & META_SITE != 0;
    st.dyn_insts += 1;
    if st.dyn_insts > config.max_dyn_insts {
        return Err(ExecStatus::Trapped(TrapKind::InstLimit));
    }
    if let Some(p) = st.profile.as_mut() {
        p[*ip as usize] += 1;
    }
    st.cycles += (meta & !META_SITE) as u64;

    let inject_now = is_site && armed.is_some_and(|f| st.fault_sites == f.site_index);
    if inject_now && armed.is_some_and(|f| machine.proven_masked(*ip, &f)) {
        // Proven masked: the rest of the run would be the golden one.
        (st.injected_inst, st.pruned) = (Some(*ip), true);
        return Err(ExecStatus::Completed(0));
    }

    st.last_ip = *ip;
    st.last_mem_write = None;
    *ip = exec_op(op, st, *ip, config.max_output, &prog.gens)?;
    if inject_now {
        let spec = armed.take().expect("armed trap fired");
        st.injected_inst = Some(st.last_ip);
        machine.apply_fault(st, &insts[st.last_ip as usize], spec);
        if let FaultEffect::Jump { target } = spec.effect {
            // Control-flow edge corruption: the site's own effects stand,
            // then control restarts at an arbitrary position.
            *ip = (target % prog.ops.len() as u64) as u32;
        }
    }
    st.fault_sites += is_site as u64;
    Ok(())
}

/// The fast loop's instantiations (see [`run_fast`]).
const FAST: u8 = 0;
const ARMED: u8 = 1;
const REC: u8 = 2;

/// The fast loop from `*ip` to the end of the run (`Err`, with its status)
/// or an early stop (`Ok`). [`ARMED`] stops before the site numbered
/// `stop_site`; [`REC`] counts the profile, notes each site with `rec`, and
/// stops at the recorder's next due point ([`Recorder::stretch_end`]:
/// `limit` and `stop_site`). Each instantiation is a function of its own
/// that keeps the position and counters in locals and writes them back to
/// `st` once per stretch, so no counter update goes through memory.
#[inline(never)]
fn run_fast<const MODE: u8>(
    prog: &CompiledProgram,
    st: &mut State,
    ip: &mut u32,
    (limit, stop_site): (u64, u64),
    max_out: usize,
    mut rec: Option<&mut Recorder<AsmLayer>>,
) -> Result<(), ExecStatus> {
    let (ops, meta, gens) = (&prog.ops[..], &prog.meta[..], &prog.gens[..]);
    let (mut pc, mut dyn_insts, mut cycles, mut sites) = (*ip, st.dyn_insts, st.cycles, st.fault_sites);
    let end = loop {
        let Some(op) = ops.get(pc as usize) else {
            // A snapshot due here is taken before the trap.
            if MODE == REC && rec.as_ref().is_some_and(|r| r.due(dyn_insts, sites)) {
                break Ok(());
            }
            break Err(ExecStatus::Trapped(TrapKind::BadControl));
        };
        let m = meta[pc as usize];
        if MODE == ARMED && m & META_SITE != 0 && sites == stop_site {
            break Ok(());
        }
        dyn_insts += 1;
        if dyn_insts > limit {
            if MODE == REC && rec.as_ref().is_some_and(|r| r.due(dyn_insts - 1, sites)) {
                dyn_insts -= 1;
                break Ok(());
            }
            break Err(ExecStatus::Trapped(TrapKind::InstLimit));
        }
        if let Some(p) = st.profile.as_mut().filter(|_| MODE == REC) {
            p[pc as usize] += 1;
        }
        cycles += (m & !META_SITE) as u64;
        let next = match exec_op(op, st, pc, max_out, gens) {
            Ok(next) => next,
            Err(s) => break Err(s),
        };
        if MODE == REC && m & META_SITE != 0 {
            if let Some(r) = rec.as_deref_mut() {
                r.note_site(pc, sites);
            }
            sites += 1;
            pc = next;
            if sites == stop_site {
                break Ok(());
            }
        } else {
            sites += (m >> 7) as u64;
            pc = next;
        }
    };
    (*ip, st.dyn_insts, st.cycles, st.fault_sites) = (pc, dyn_insts, cycles, sites);
    end
}

/// The threaded-code dispatch loop. Profile and `interp` runs take the
/// bookkept loop, recorder runs the recording loop, capturing between its
/// stretches. Plain trials take the fast loop, armed up to the trap site,
/// whose one iteration — and only it — detours through [`step`], so
/// injection bookkeeping (`last_ip`, `last_mem_write`, `injected_inst`,
/// jump redirect) has one implementation; then they go on disarmed.
pub(crate) fn exec_compiled(run: TrialRun<'_, '_>) -> (MachResult, Memory) {
    let TrialRun { machine, config, fault, mut st, mut ip, mut recorder } = run;
    let prog = machine.compiled();
    let insts = &machine.program.insts[..];
    let (max_dyn, max_out) = (config.max_dyn_insts, config.max_output);
    let mut armed = fault;
    debug_assert!(recorder.is_none() || fault.is_none(), "a recording run is fault-free");

    if recorder.is_none() && (st.profile.is_some() || config.executor == ExecMode::Interp) {
        let status = loop {
            if let Err(s) = step(machine, config, prog, insts, &mut st, &mut ip, &mut armed) {
                break s;
            }
        };
        return st.finish(status);
    }

    let status = loop {
        let stretch = match (recorder.as_deref_mut(), armed) {
            (Some(rec), _) => {
                if rec.due(st.dyn_insts, st.fault_sites) {
                    let state = AsmState { cycles: st.cycles, ip, regs: st.regs };
                    rec.capture(st.dyn_insts, st.fault_sites, st.output.len(), state, &mut st.mem);
                }
                let end = rec.stretch_end(max_dyn);
                run_fast::<REC>(prog, &mut st, &mut ip, end, max_out, Some(rec))
            }
            (None, Some(f)) => run_fast::<ARMED>(prog, &mut st, &mut ip, (max_dyn, f.site_index), max_out, None),
            (None, None) => run_fast::<FAST>(prog, &mut st, &mut ip, (max_dyn, u64::MAX), max_out, None),
        };
        match stretch {
            Err(s) => break s,
            // At the trap site: run this one iteration through the fully
            // bookkept path.
            Ok(()) if recorder.is_none() => {
                if let Err(s) = step(machine, config, prog, insts, &mut st, &mut ip, &mut armed) {
                    break s;
                }
            }
            Ok(()) => {}
        }
    };
    st.finish(status)
}

/// Push `g` onto the side table and return the `Op` that points at it.
fn gen(gens: &mut Vec<GenOp>, g: GenOp) -> Op {
    gens.push(g);
    Op::Gen { gi: (gens.len() - 1) as u32 }
}

/// Specialized `mov` translation by (destination, source) form and width.
fn mov_op(w: u8, dst: AOp, src: AOp, gens: &mut Vec<GenOp>) -> Op {
    match (dst, src, w) {
        (AOp::Reg(d), AOp::Reg(s), _) => Op::MovRR {
            di: d.index() as u8,
            si: s.index() as u8,
            mask: width_ty(w).mask(),
        },
        (AOp::Reg(d), AOp::Imm(v), _) => Op::MovRI { di: d.index() as u8, v: width_ty(w).canon(v as u64) },
        (AOp::Reg(d), AOp::Mem(m), 8) => Op::Load8 { di: d.index() as u8, a: Addr::new(m) },
        (AOp::Reg(d), AOp::Mem(m), 1) => Op::Load1 { di: d.index() as u8, a: Addr::new(m) },
        (AOp::Mem(m), AOp::Reg(s), 8) => Op::Store8 { a: Addr::new(m), si: s.index() as u8 },
        (AOp::Mem(m), AOp::Reg(s), 1) => Op::Store1 { a: Addr::new(m), si: s.index() as u8 },
        _ => gen(gens, GenOp::Mov { rd: Rd::new(src, w), wr: Wr::new(dst, w) }),
    }
}

/// Translate one instruction into its micro-op. `len` is the program
/// length (for `ret` range checks). Forms the instruction selector emits
/// for the workload programs get a specialized variant; anything else
/// goes to the out-of-line [`GenOp`] table.
fn translate(kind: &AKind, len: usize, gens: &mut Vec<GenOp>) -> Op {
    match *kind {
        AKind::Mov { w, dst, src } | AKind::MovSd { w, dst, src } => mov_op(w, dst, src, gens),
        AKind::Lea { dst, mem } => Op::Lea { di: dst.index() as u8, a: Addr::new(mem) },
        AKind::Alu { op, w, dst, src } => {
            let ty = width_ty(w);
            let c = AluCtl { mask: ty.mask(), sh: ty.bits() - 1, rsp: dst == Reg::Rsp };
            let di = dst.index() as u8;
            match (op, src) {
                (AluOp::Add, AOp::Reg(s)) => Op::AddRR { di, si: s.index() as u8, c },
                (AluOp::Add, AOp::Imm(v)) => Op::AddRI { di, v: ty.canon(v as u64), c },
                (AluOp::Sub, AOp::Reg(s)) => Op::SubRR { di, si: s.index() as u8, c },
                (AluOp::Sub, AOp::Imm(v)) => Op::SubRI { di, v: ty.canon(v as u64), c },
                (AluOp::Imul, AOp::Reg(s)) => Op::ImulRR { di, si: s.index() as u8, c },
                (AluOp::Imul, AOp::Imm(v)) => Op::ImulRI { di, v: ty.canon(v as u64), c },
                (AluOp::And, AOp::Reg(s)) => Op::AndRR { di, si: s.index() as u8, c },
                (AluOp::And, AOp::Imm(v)) => Op::AndRI { di, v: ty.canon(v as u64), c },
                (AluOp::Or, AOp::Reg(s)) => Op::OrRR { di, si: s.index() as u8, c },
                (AluOp::Xor, AOp::Reg(s)) => Op::XorRR { di, si: s.index() as u8, c },
                _ => gen(gens, GenOp::Alu { op, di, rd: Rd::new(src, w), c }),
            }
        }
        AKind::Shift { op, w, dst, amt } => {
            let ty = width_ty(w);
            let mask = ty.mask();
            let bits = ty.bits();
            let (sh, ssh) = (bits - 1, 64 - bits);
            let smask = (bits - 1) as u64;
            let di = dst.index() as u8;
            match (op, amt) {
                // The amount is canonicalized to 8 bits before masking by
                // `bits-1`; `smask <= 63` makes the byte canonicalization
                // a no-op, so it is folded away here.
                (ShiftOp::Shl, AOp::Imm(v)) => Op::ShlI { di, s: ((v as u64) & smask) as u32, mask, sh },
                (ShiftOp::Sar, AOp::Imm(v)) => Op::SarI { di, s: ((v as u64) & smask) as u32, mask, sh, ssh },
                (ShiftOp::Sar, AOp::Reg(r)) => Op::SarR { di, si: r.index() as u8, smask, mask, sh, ssh },
                _ => gen(gens, GenOp::Shift { op, di, amt: Rd::new(amt, 1), smask, mask, sh, ssh }),
            }
        }
        AKind::Cqo { .. } => Op::Cqo,
        AKind::Div { src, .. } => Op::DivS { rd: Rd::new(src, 8) },
        AKind::Cmp { w, lhs, rhs } => {
            let ty = width_ty(w);
            let (mask, sh) = (ty.mask(), ty.bits() - 1);
            match (lhs, rhs) {
                (AOp::Reg(l), AOp::Reg(r)) => Op::CmpRR { li: l.index() as u8, ri: r.index() as u8, mask, sh },
                (AOp::Reg(l), AOp::Imm(v)) => Op::CmpRI { li: l.index() as u8, v: ty.canon(v as u64), mask, sh },
                _ => gen(gens, GenOp::Cmp { l: Rd::new(lhs, w), r: Rd::new(rhs, w), mask, sh }),
            }
        }
        AKind::Test { w, lhs, rhs } => {
            let ty = width_ty(w);
            let (mask, sh) = (ty.mask(), ty.bits() - 1);
            match (lhs, rhs) {
                (AOp::Reg(l), AOp::Imm(v)) => Op::TestRI { li: l.index() as u8, v: ty.canon(v as u64), mask, sh },
                _ => gen(gens, GenOp::Test { l: Rd::new(lhs, w), r: Rd::new(rhs, w), mask, sh }),
            }
        }
        AKind::SetCC { cc, dst } => Op::SetCC { cc, di: dst.index() as u8 },
        AKind::Jcc { cc, target: t } => match cc {
            CC::E => Op::JccE { t },
            CC::Ne => Op::JccNe { t },
            CC::L => Op::JccL { t },
            CC::Le => Op::JccLe { t },
            CC::G => Op::JccG { t },
            CC::Ge => Op::JccGe { t },
            CC::B => Op::JccB { t },
            CC::Be => Op::JccBe { t },
            CC::A => Op::JccA { t },
            CC::Ae => gen(gens, GenOp::Jcc { cc, t }),
        },
        AKind::Jmp { target } => Op::Jmp { t: target },
        AKind::Call { target, .. } => Op::Call { t: target },
        AKind::Ret => Op::Ret { len: len as u32 },
        AKind::Push { src: AOp::Reg(r) } => Op::PushR { si: r.index() as u8 },
        AKind::Push { src } => gen(gens, GenOp::Push { rd: Rd::new(src, 8) }),
        AKind::Pop { dst } => Op::Pop { di: dst.index() as u8 },
        AKind::Sse { op, dst, src } => {
            let di = dst.index() as u8;
            let rd = Rd::new(src, 8);
            match op {
                SseOp::AddSd => Op::AddSd { di, rd },
                SseOp::SubSd => Op::SubSd { di, rd },
                SseOp::MulSd => Op::MulSd { di, rd },
                SseOp::DivSd => Op::DivSd { di, rd },
            }
        }
        AKind::Ucomi { lhs, rhs } => Op::UcomiD { li: lhs.index() as u8, rd: Rd::new(rhs, 8) },
        AKind::Cvtsi2f { dst, src } => Op::CvtSiF64 { di: dst.index() as u8, rd: Rd::new(src, 8) },
        AKind::Cvtf2si { dst, src } => Op::CvtF64Si { di: dst.index() as u8, rd: Rd::new(src, 8) },
        AKind::MovQ { w, dst, src } => Op::MovRR {
            di: dst.index() as u8,
            si: src.index() as u8,
            mask: width_ty(w).mask(),
        },
        AKind::Math { kind, dst, a, b } => Op::Math {
            intr: match kind {
                MathKind::Sqrt => Intrinsic::Sqrt,
                MathKind::Sin => Intrinsic::Sin,
                MathKind::Cos => Intrinsic::Cos,
                MathKind::Exp => Intrinsic::Exp,
                MathKind::Log => Intrinsic::Log,
                MathKind::Fabs => Intrinsic::Fabs,
                MathKind::Floor => Intrinsic::Floor,
                MathKind::Pow => Intrinsic::Pow,
            },
            di: dst.index() as u8,
            ai: a.index() as u8,
            b2: b.map_or(NO_REG, |r| r.index() as u8),
        },
        AKind::Out { kind, src } => {
            let rd = Rd::new(src, 8);
            match kind {
                OutKind::I64 => Op::OutI64 { rd },
                OutKind::F64 => Op::OutF64 { rd },
                OutKind::Byte => gen(gens, GenOp::OutByte { rd }),
            }
        }
        AKind::DetectTrap => Op::DetectTrap,
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    /// The hot dispatch array must stay within a 32-byte slot (two ops per
    /// cache line); fat generic forms live in the out-of-line side table.
    #[test]
    fn op_fits_32_bytes() {
        assert!(std::mem::size_of::<Op>() <= 32, "Op is {} bytes", std::mem::size_of::<Op>());
    }
}
