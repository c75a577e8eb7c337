//! Execution engines for the machine layer.
//!
//! [`Machine`] runs trials through an [`Executor`], selected per run by
//! [`ExecConfig::executor`]. Two engines exist today:
//!
//! - [`InterpExec`] — the decode-and-dispatch interpreter
//!   (`Machine::exec_interp`), kept as the reference semantics;
//! - [`CompiledExec`] — a threaded-code executor that pre-lowers each
//!   [`AInst`] into a flat array of specialized micro-ops (`Op`): opcode,
//!   operand form, and width are resolved at translation time, immediates
//!   are pre-canonicalized, frame-slot addresses pre-split, flag updates
//!   branch-free, and memory accesses width-monomorphized. Trials that
//!   carry no snapshot recorder and no profile run a *fast loop* that keeps
//!   the instruction/cycle/site counters in locals and folds the
//!   output-flood check into the only arms that can grow the output.
//!
//! The engine contract is strict bit-identity: for any (program, config,
//! fault, starting state), both engines produce byte-identical status,
//! output, `dyn_insts`, `fault_sites`, `cycles`, `injected_inst`, profile,
//! and snapshot streams. `tests/exec_equivalence.rs` enforces this
//! differentially, and CI's `exec-smoke` job diffs whole campaign
//! checkpoints across engines.
//!
//! Fault injection is compiled as a *per-trial armed trap*, not by
//! re-translating the program: the fast loop carries the armed site index
//! in a register, and when the running fault-site counter reaches it the
//! loop hands that one iteration to the fully bookkept `step` path —
//! `Machine::apply_fault` corrupts the destination and control-flow
//! faults redirect the next instruction pointer — and then disarms. One
//! translation therefore serves every trial of a campaign, under all six
//! fault models.
//!
//! Snapshot capture and fast-forward work unchanged in both modes: the
//! compiled slow loop drives the same `Recorder` hooks
//! (`due`/`capture`/`note_site`) at the same points as the interpreter,
//! and dirty-page tracking lives inside [`Memory`], below either engine.
//!
//! The native x86-64 JIT ([`crate::jit`]) is the third `Executor`
//! implementation behind the same trait: whole-program host machine code
//! with a one-shot trap at the armed fault site that detours through the
//! same `step` path, falling back to `compiled` where it cannot run.

use crate::machine::{width_ty, AsmFaultSpec, Halt, MachResult, Machine, State, SENTINEL};
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

/// One trial execution handed to an [`Executor`]: the machine, the limits,
/// the armed fault, the starting state (fresh boot or snapshot restore),
/// and the optional snapshot recorder. Construction is crate-internal —
/// trials enter through the [`Machine`] run methods.
pub struct TrialRun<'a, 'p> {
    pub(crate) machine: &'a Machine<'p>,
    pub(crate) config: &'a ExecConfig,
    pub(crate) fault: Option<AsmFaultSpec>,
    pub(crate) st: State,
    pub(crate) ip: u32,
    pub(crate) recorder: Option<&'a mut Recorder<AsmLayer>>,
}

/// A machine-layer execution engine. Implementations must be bit-identical
/// to [`InterpExec`] on every observable stream (see the module docs); the
/// selection is therefore pure provenance/performance, never results.
pub trait Executor: Send + Sync {
    /// The [`ExecMode`] this engine implements.
    fn mode(&self) -> ExecMode;

    /// Execute one trial to completion, returning the result plus the
    /// memory image so callers can recycle it.
    fn exec(&self, run: TrialRun<'_, '_>) -> (MachResult, Memory);
}

/// The reference decode-and-dispatch interpreter.
pub struct InterpExec;

impl Executor for InterpExec {
    fn mode(&self) -> ExecMode {
        ExecMode::Interp
    }

    fn exec(&self, run: TrialRun<'_, '_>) -> (MachResult, Memory) {
        run.machine.exec_interp(run.config, run.fault, run.st, run.ip, run.recorder)
    }
}

/// The threaded-code engine.
pub struct CompiledExec;

impl Executor for CompiledExec {
    fn mode(&self) -> ExecMode {
        ExecMode::Compiled
    }

    fn exec(&self, run: TrialRun<'_, '_>) -> (MachResult, Memory) {
        exec_compiled(run)
    }
}

/// The native x86-64 JIT engine. Compiles the whole program to host
/// machine code once per [`Machine`]; trials that it cannot serve
/// (recorder/profile runs, unsupported hosts, unencodable programs)
/// silently take the `compiled` path, so results never depend on the
/// host.
pub struct NativeExec;

impl Executor for NativeExec {
    fn mode(&self) -> ExecMode {
        ExecMode::Native
    }

    fn exec(&self, run: TrialRun<'_, '_>) -> (MachResult, Memory) {
        crate::jit::exec_native(run)
    }
}

/// The engine implementing `mode`.
pub fn executor_for(mode: ExecMode) -> &'static dyn Executor {
    match mode {
        ExecMode::Interp => &InterpExec,
        ExecMode::Compiled => &CompiledExec,
        ExecMode::Native => &NativeExec,
    }
}

/// Fault-site marker bit in the per-instruction metadata byte.
const META_SITE: u8 = 0x80;

/// A program translated to threaded code: one [`Op`] per instruction
/// position, plus a parallel packed metadata stream (cycle cost in the low
/// seven bits, the fault-site flag in [`META_SITE`]) so the dispatch
/// loop's per-step bookkeeping reads one dense byte instead of trailing
/// fields of a fat struct. Operand forms the instruction selector rarely
/// emits are stored out-of-line in `gens` and referenced by index, keeping
/// the hot `Op` array elements small. Built once per [`Machine`] (lazily,
/// on the first compiled-mode run) and reused by every subsequent trial.
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
fn trap(k: TrapKind) -> Halt {
    Halt::Status(ExecStatus::Trapped(k))
}

/// Width-monomorphized load: the bounds check and byte copy compile to a
/// fixed-size access instead of the interpreter's variable-width path.
#[inline(always)]
fn load<const W: usize>(st: &mut State, addr: u64) -> Result<u64, Halt> {
    st.mem.load_w::<W>(addr).map_err(trap)
}

/// Width-monomorphized store. Mirrors `State::store_mem`: the
/// `last_mem_write` bookkeeping (read by memory-destination fault
/// injection) happens before the bounds check.
#[inline(always)]
fn store<const W: usize>(st: &mut State, addr: u64, v: u64) -> Result<(), Halt> {
    st.last_mem_write = Some((addr, W as u8));
    st.mem.store_w::<W>(addr, v).map_err(trap)
}

#[inline(always)]
fn load_var(st: &mut State, addr: u64, w: u8) -> Result<u64, Halt> {
    match w {
        8 => load::<8>(st, addr),
        4 => load::<4>(st, addr),
        2 => load::<2>(st, addr),
        _ => load::<1>(st, addr),
    }
}

#[inline(always)]
fn store_var(st: &mut State, addr: u64, w: u8, v: u64) -> Result<(), Halt> {
    match w {
        8 => store::<8>(st, addr, v),
        4 => store::<4>(st, addr, v),
        2 => store::<2>(st, addr, v),
        _ => store::<1>(st, addr, v),
    }
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

/// Pre-decoded read operand (the generic fallback for operand forms the
/// instruction selector rarely or never emits): register reads carry their
/// dense index and canonicalization mask, immediates are canonicalized at
/// translation time, memory reads carry a resolved address computation.
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
    fn get(self, st: &mut State) -> Result<u64, Halt> {
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
    fn get_w<const W: usize>(self, st: &mut State) -> Result<u64, Halt> {
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

/// Pre-decoded write destination (generic-`mov` fallback only).
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
    fn put(self, st: &mut State, v: u64) -> Result<(), Halt> {
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
// Equivalent to `State::set_arith_flags` / `set_logic_flags`: `sh` is
// `bits - 1`, so `(x >> sh) & 1` is the sign bit of a canonical value and
// the signed-overflow conditions reduce to sign-bit algebra —
// add overflows iff the operands agree in sign and the result disagrees
// (`!(a^b) & (a^r)`), sub iff they disagree and the result flips (`(a^b) &
// (a^r)`).

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

/// One ALU step, monomorphized per opcode. Order matches the interpreter:
/// read, compute, flags, write, rsp sanity check.
#[inline(always)]
fn alu_step<const OP: u8>(st: &mut State, di: usize, c: AluCtl, b: u64) -> Result<(), Halt> {
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
/// translation time. The common instruction-selector output forms get
/// fully specialized variants; `*G`/`MovGen` are the generic fallbacks
/// through [`Rd`]/[`Wr`] for forms the selector rarely emits.
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
    Load2 {
        di: u8,
        a: Addr,
    },
    Load4 {
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
    Store2 {
        a: Addr,
        si: u8,
    },
    Store4 {
        a: Addr,
        si: u8,
    },
    Store8 {
        a: Addr,
        si: u8,
    },
    StoreI1 {
        a: Addr,
        v: u64,
    },
    StoreI2 {
        a: Addr,
        v: u64,
    },
    StoreI4 {
        a: Addr,
        v: u64,
    },
    StoreI8 {
        a: Addr,
        v: u64,
    },
    MovSxR {
        di: u8,
        si: u8,
        ssh: u32,
        dmask: u64,
    },
    MovSxM1 {
        di: u8,
        a: Addr,
        dmask: u64,
    },
    MovSxM2 {
        di: u8,
        a: Addr,
        dmask: u64,
    },
    MovSxM4 {
        di: u8,
        a: Addr,
        dmask: u64,
    },
    MovSxM8 {
        di: u8,
        a: Addr,
        dmask: u64,
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
    OrRI {
        di: u8,
        v: u64,
        c: AluCtl,
    },
    XorRR {
        di: u8,
        si: u8,
        c: AluCtl,
    },
    XorRI {
        di: u8,
        v: u64,
        c: AluCtl,
    },
    // -- shifts (s/amt pre-masked by `smask = bits-1`; `ssh = 64-bits`) ------
    ShlI {
        di: u8,
        s: u32,
        mask: u64,
        sh: u32,
    },
    ShrI {
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
    ShlR {
        di: u8,
        si: u8,
        smask: u64,
        mask: u64,
        sh: u32,
    },
    ShrR {
        di: u8,
        si: u8,
        smask: u64,
        mask: u64,
        sh: u32,
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
    ZeroRdx,
    DivS {
        rd: Rd,
    },
    DivU {
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
    TestRR {
        li: u8,
        ri: u8,
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
    CmovR {
        cc: CC,
        di: u8,
        si: u8,
        mask: u64,
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
    JccAe {
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
    PushG {
        rd: Rd,
    },
    Pop {
        di: u8,
    },
    // -- SSE scalar ----------------------------------------------------------
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
    AddSs {
        di: u8,
        rd: Rd,
    },
    SubSs {
        di: u8,
        rd: Rd,
    },
    MulSs {
        di: u8,
        rd: Rd,
    },
    DivSs {
        di: u8,
        rd: Rd,
    },
    UcomiD {
        li: u8,
        rd: Rd,
    },
    UcomiS {
        li: u8,
        rd: Rd,
    },
    CvtSiF64 {
        di: u8,
        rd: Rd,
    },
    CvtSiF32 {
        di: u8,
        rd: Rd,
    },
    CvtF64Si {
        di: u8,
        rd: Rd,
    },
    CvtF32Si {
        di: u8,
        rd: Rd,
    },
    CvtF32F64 {
        di: u8,
        si: u8,
    },
    CvtF64F32 {
        di: u8,
        si: u8,
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
    OutByte {
        rd: Rd,
    },
    DetectTrap,
    /// Out-of-line generic form (operand shapes the selector rarely
    /// emits): index into [`CompiledProgram::gens`].
    Gen {
        gi: u32,
    },
}

/// The fat generic micro-ops, stored out-of-line so they don't inflate
/// every element of the hot [`Op`] array. These run through the
/// pre-decoded [`Rd`]/[`Wr`] paths — still no per-step decode, just one
/// extra indirection on forms that almost never execute.
#[derive(Clone, Copy)]
enum GenOp {
    Mov {
        rd: Rd,
        wr: Wr,
    },
    MovSx {
        di: u8,
        rd: Rd,
        ssh: u32,
        dmask: u64,
    },
    Alu {
        op: u8,
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
    Cmov {
        cc: CC,
        di: u8,
        rd: Rd,
        mask: u64,
    },
}

/// Execute an out-of-line generic op. Cold by construction: the selector
/// essentially never emits these forms.
#[inline(never)]
fn exec_gen(g: &GenOp, st: &mut State, next: u32) -> Result<u32, Halt> {
    match *g {
        GenOp::Mov { rd, wr } => {
            let v = rd.get(st)?;
            wr.put(st, v)?;
            Ok(next)
        }
        GenOp::MovSx { di, rd, ssh, dmask } => {
            let v = rd.get(st)?;
            let sx = ((v << ssh) as i64) >> ssh;
            st.regs[di as usize] = (sx as u64) & dmask;
            Ok(next)
        }
        GenOp::Alu { op, di, rd, c } => {
            let b = rd.get(st)?;
            match op {
                A_ADD => alu_step::<A_ADD>(st, di as usize, c, b)?,
                A_SUB => alu_step::<A_SUB>(st, di as usize, c, b)?,
                A_IMUL => alu_step::<A_IMUL>(st, di as usize, c, b)?,
                A_AND => alu_step::<A_AND>(st, di as usize, c, b)?,
                A_OR => alu_step::<A_OR>(st, di as usize, c, b)?,
                _ => alu_step::<A_XOR>(st, di as usize, c, b)?,
            }
            Ok(next)
        }
        GenOp::Shift { op, di, amt, smask, mask, sh, ssh } => {
            let a = st.regs[di as usize] & mask;
            let s = (amt.get(st)? & smask) as u32;
            let r = match op {
                ShiftOp::Shl => (a << s) & mask,
                ShiftOp::Shr => a >> s,
                ShiftOp::Sar => ((((a << ssh) as i64 >> ssh) >> s) as u64) & mask,
            };
            st.regs[RFLAGS] = logic_flags(r, sh);
            st.regs[di as usize] = r;
            Ok(next)
        }
        GenOp::Cmp { l, r, mask, sh } => {
            let a = l.get(st)?;
            let b = r.get(st)?;
            let res = a.wrapping_sub(b) & mask;
            st.regs[RFLAGS] = sub_flags(a, b, res, sh);
            Ok(next)
        }
        GenOp::Test { l, r, mask, sh } => {
            let a = l.get(st)?;
            let b = r.get(st)?;
            let res = (a & b) & mask;
            st.regs[RFLAGS] = logic_flags(res, sh);
            Ok(next)
        }
        GenOp::Cmov { cc, di, rd, mask } => {
            if cond(st.regs[RFLAGS], cc) {
                let v = rd.get(st)?;
                st.regs[di as usize] = v & mask;
            }
            Ok(next)
        }
    }
}

/// Execute one micro-op against `st`, returning the next instruction
/// pointer. Every arm replicates the corresponding interpreter arm exactly
/// — evaluation order, trap points, and the `last_mem_write` bookkeeping
/// included. The output-flood check lives in the `Out*` arms (the only
/// ops that grow the output), not in the dispatch loop; `Out` has no
/// architected destination, so it is never a fault site and flood-trapping
/// inside the arm cannot skip a site increment the interpreter would make.
#[inline(always)]
fn exec_op(op: &Op, st: &mut State, ip: u32, max_out: usize, gens: &[GenOp]) -> Result<u32, Halt> {
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
        Op::Load2 { di, a } => {
            let ea = a.ea(&st.regs);
            st.regs[di as usize] = load::<2>(st, ea)?;
            Ok(next)
        }
        Op::Load4 { di, a } => {
            let ea = a.ea(&st.regs);
            st.regs[di as usize] = load::<4>(st, ea)?;
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
        Op::Store2 { a, si } => {
            let ea = a.ea(&st.regs);
            store::<2>(st, ea, st.regs[si as usize])?;
            Ok(next)
        }
        Op::Store4 { a, si } => {
            let ea = a.ea(&st.regs);
            store::<4>(st, ea, st.regs[si as usize])?;
            Ok(next)
        }
        Op::Store8 { a, si } => {
            let ea = a.ea(&st.regs);
            store::<8>(st, ea, st.regs[si as usize])?;
            Ok(next)
        }
        Op::StoreI1 { a, v } => {
            let ea = a.ea(&st.regs);
            store::<1>(st, ea, v)?;
            Ok(next)
        }
        Op::StoreI2 { a, v } => {
            let ea = a.ea(&st.regs);
            store::<2>(st, ea, v)?;
            Ok(next)
        }
        Op::StoreI4 { a, v } => {
            let ea = a.ea(&st.regs);
            store::<4>(st, ea, v)?;
            Ok(next)
        }
        Op::StoreI8 { a, v } => {
            let ea = a.ea(&st.regs);
            store::<8>(st, ea, v)?;
            Ok(next)
        }
        Op::MovSxR { di, si, ssh, dmask } => {
            // Shifting left by `64 - bits` drops exactly the non-canonical
            // high bits, so the pre-mask read is folded into the sext.
            let sx = ((st.regs[si as usize] << ssh) as i64) >> ssh;
            st.regs[di as usize] = (sx as u64) & dmask;
            Ok(next)
        }
        Op::MovSxM1 { di, a, dmask } => {
            let ea = a.ea(&st.regs);
            let v = load::<1>(st, ea)?;
            st.regs[di as usize] = (v as u8 as i8 as i64 as u64) & dmask;
            Ok(next)
        }
        Op::MovSxM2 { di, a, dmask } => {
            let ea = a.ea(&st.regs);
            let v = load::<2>(st, ea)?;
            st.regs[di as usize] = (v as u16 as i16 as i64 as u64) & dmask;
            Ok(next)
        }
        Op::MovSxM4 { di, a, dmask } => {
            let ea = a.ea(&st.regs);
            let v = load::<4>(st, ea)?;
            st.regs[di as usize] = (v as u32 as i32 as i64 as u64) & dmask;
            Ok(next)
        }
        Op::MovSxM8 { di, a, dmask } => {
            let ea = a.ea(&st.regs);
            let v = load::<8>(st, ea)?;
            st.regs[di as usize] = v & dmask;
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
        Op::OrRI { di, v, c } => {
            alu_step::<A_OR>(st, di as usize, c, v)?;
            Ok(next)
        }
        Op::XorRR { di, si, c } => {
            let b = st.regs[si as usize] & c.mask;
            alu_step::<A_XOR>(st, di as usize, c, b)?;
            Ok(next)
        }
        Op::XorRI { di, v, c } => {
            alu_step::<A_XOR>(st, di as usize, c, v)?;
            Ok(next)
        }
        Op::ShlI { di, s, mask, sh } => {
            let a = st.regs[di as usize] & mask;
            let r = (a << s) & mask;
            st.regs[RFLAGS] = logic_flags(r, sh);
            st.regs[di as usize] = r;
            Ok(next)
        }
        Op::ShrI { di, s, mask, sh } => {
            let a = st.regs[di as usize] & mask;
            let r = a >> s;
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
        Op::ShlR { di, si, smask, mask, sh } => {
            let s = (st.regs[si as usize] & smask) as u32;
            let a = st.regs[di as usize] & mask;
            let r = (a << s) & mask;
            st.regs[RFLAGS] = logic_flags(r, sh);
            st.regs[di as usize] = r;
            Ok(next)
        }
        Op::ShrR { di, si, smask, mask, sh } => {
            let s = (st.regs[si as usize] & smask) as u32;
            let a = st.regs[di as usize] & mask;
            let r = a >> s;
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
        Op::ZeroRdx => {
            st.regs[RDX] = 0;
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
        Op::DivU { rd } => {
            let b = rd.get_w::<8>(st)?;
            if b == 0 {
                return Err(trap(TrapKind::DivFault));
            }
            let a = st.regs[RAX];
            st.regs[RAX] = a / b;
            st.regs[RDX] = a % b;
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
        Op::TestRR { li, ri, mask, sh } => {
            let r = st.regs[li as usize] & st.regs[ri as usize] & mask;
            st.regs[RFLAGS] = logic_flags(r, sh);
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
        Op::CmovR { cc, di, si, mask } => {
            if cond(st.regs[RFLAGS], cc) {
                st.regs[di as usize] = st.regs[si as usize] & mask;
            }
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
        Op::JccAe { t } => Ok(if st.regs[RFLAGS] & flags::CF == 0 { t } else { next }),
        Op::Jmp { t } => Ok(t),
        Op::Call { t } => {
            let sp = st.regs[RSP].wrapping_sub(8);
            if sp < st.mem.stack_limit() {
                return Err(trap(TrapKind::StackOverflow));
            }
            store::<8>(st, sp, next as u64)?;
            st.regs[RSP] = sp;
            Ok(t)
        }
        Op::Ret { len } => {
            let sp = st.regs[RSP];
            let ra = load::<8>(st, sp)?;
            st.regs[RSP] = sp.wrapping_add(8);
            if ra == SENTINEL {
                return Err(Halt::Status(ExecStatus::Completed(st.regs[RAX])));
            }
            if ra >= len as u64 {
                return Err(trap(TrapKind::BadControl));
            }
            Ok(ra as u32)
        }
        Op::PushR { si } => {
            let v = st.regs[si as usize];
            let sp = st.regs[RSP].wrapping_sub(8);
            if sp < st.mem.stack_limit() {
                return Err(trap(TrapKind::StackOverflow));
            }
            store::<8>(st, sp, v)?;
            st.regs[RSP] = sp;
            Ok(next)
        }
        Op::PushG { rd } => {
            let v = rd.get_w::<8>(st)?;
            let sp = st.regs[RSP].wrapping_sub(8);
            if sp < st.mem.stack_limit() {
                return Err(trap(TrapKind::StackOverflow));
            }
            store::<8>(st, sp, v)?;
            st.regs[RSP] = sp;
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
        Op::AddSs { di, rd } => {
            let a = st.regs[di as usize];
            let b = rd.get_w::<4>(st)?;
            st.regs[di as usize] = (f32::from_bits(a as u32) + f32::from_bits(b as u32)).to_bits() as u64;
            Ok(next)
        }
        Op::SubSs { di, rd } => {
            let a = st.regs[di as usize];
            let b = rd.get_w::<4>(st)?;
            st.regs[di as usize] = (f32::from_bits(a as u32) - f32::from_bits(b as u32)).to_bits() as u64;
            Ok(next)
        }
        Op::MulSs { di, rd } => {
            let a = st.regs[di as usize];
            let b = rd.get_w::<4>(st)?;
            st.regs[di as usize] = (f32::from_bits(a as u32) * f32::from_bits(b as u32)).to_bits() as u64;
            Ok(next)
        }
        Op::DivSs { di, rd } => {
            let a = st.regs[di as usize];
            let b = rd.get_w::<4>(st)?;
            st.regs[di as usize] = (f32::from_bits(a as u32) / f32::from_bits(b as u32)).to_bits() as u64;
            Ok(next)
        }
        Op::UcomiD { li, rd } => {
            let a = st.regs[li as usize];
            let b = rd.get_w::<8>(st)?;
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            let mut fl = 0u64;
            if x.is_nan() || y.is_nan() {
                fl |= flags::ZF | flags::CF;
            } else if x == y {
                fl |= flags::ZF;
            } else if x < y {
                fl |= flags::CF;
            }
            st.regs[RFLAGS] = fl;
            Ok(next)
        }
        Op::UcomiS { li, rd } => {
            let a = st.regs[li as usize];
            let b = rd.get_w::<4>(st)?;
            let (x, y) = (f32::from_bits(a as u32) as f64, f32::from_bits(b as u32) as f64);
            let mut fl = 0u64;
            if x.is_nan() || y.is_nan() {
                fl |= flags::ZF | flags::CF;
            } else if x == y {
                fl |= flags::ZF;
            } else if x < y {
                fl |= flags::CF;
            }
            st.regs[RFLAGS] = fl;
            Ok(next)
        }
        Op::CvtSiF64 { di, rd } => {
            let v = rd.get_w::<8>(st)?;
            st.regs[di as usize] = ((v as i64) as f64).to_bits();
            Ok(next)
        }
        Op::CvtSiF32 { di, rd } => {
            let v = rd.get_w::<8>(st)?;
            st.regs[di as usize] = ((v as i64) as f32).to_bits() as u64;
            Ok(next)
        }
        Op::CvtF64Si { di, rd } => {
            let v = rd.get_w::<8>(st)?;
            st.regs[di as usize] = (f64::from_bits(v) as i64) as u64;
            Ok(next)
        }
        Op::CvtF32Si { di, rd } => {
            let v = rd.get_w::<4>(st)?;
            st.regs[di as usize] = ((f32::from_bits(v as u32) as f64) as i64) as u64;
            Ok(next)
        }
        Op::CvtF32F64 { di, si } => {
            st.regs[di as usize] = ((f32::from_bits(st.regs[si as usize] as u32)) as f64).to_bits();
            Ok(next)
        }
        Op::CvtF64F32 { di, si } => {
            st.regs[di as usize] = ((f64::from_bits(st.regs[si as usize])) as f32).to_bits() as u64;
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
            st.output.push(1);
            st.output.extend_from_slice(&v.to_le_bytes());
            if st.output.len() > max_out {
                return Err(trap(TrapKind::OutputFlood));
            }
            Ok(next)
        }
        Op::OutF64 { rd } => {
            let v = rd.get_w::<8>(st)?;
            st.output.push(2);
            st.output.extend_from_slice(&v.to_le_bytes());
            if st.output.len() > max_out {
                return Err(trap(TrapKind::OutputFlood));
            }
            Ok(next)
        }
        Op::OutByte { rd } => {
            let v = rd.get_w::<8>(st)?;
            st.output.push(3);
            st.output.push(v as u8);
            if st.output.len() > max_out {
                return Err(trap(TrapKind::OutputFlood));
            }
            Ok(next)
        }
        Op::DetectTrap => Err(Halt::Status(ExecStatus::Detected)),
        Op::Gen { gi } => exec_gen(&gens[gi as usize], st, next),
    }
}

/// One fully bookkept dispatch iteration — step-for-step the interpreter
/// loop body: snapshot hook, bounds check, instruction accounting, budget
/// trap, profile, cycles, injection. The slow loop runs every iteration
/// through here; the fast loop delegates only the iteration whose
/// fault-site counter matches the armed trap (and any recorder/profile
/// run, which never enters the fast loop at all).
#[allow(clippy::too_many_arguments)]
pub(crate) fn step(
    machine: &Machine<'_>,
    config: &ExecConfig,
    prog: &CompiledProgram,
    insts: &[AInst],
    st: &mut State,
    ip: &mut u32,
    armed: &mut Option<AsmFaultSpec>,
    recorder: &mut Option<&mut Recorder<AsmLayer>>,
) -> Result<(), ExecStatus> {
    // ---- snapshot hook: `st.dyn_insts` executed, `*ip` next --------------
    if let Some(rec) = recorder.as_deref_mut() {
        if rec.due(st.dyn_insts, st.fault_sites) {
            let state = AsmState { cycles: st.cycles, ip: *ip, regs: st.regs };
            rec.capture(st.dyn_insts, st.fault_sites, st.output.len(), state, &mut st.mem);
        }
    }

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

    st.last_ip = *ip;
    st.last_mem_write = None;
    let next = match exec_op(op, st, *ip, config.max_output, &prog.gens) {
        Ok(next) => next,
        Err(Halt::Status(s)) => return Err(s),
    };

    if is_site {
        if inject_now {
            let spec = armed.take().expect("armed trap fired");
            st.injected_inst = Some(st.last_ip);
            machine.apply_fault(st, &insts[st.last_ip as usize], spec);
            *ip = if let FaultEffect::Jump { target } = spec.effect {
                // Control-flow edge corruption: the site's own effects
                // stand, then control restarts at an arbitrary position.
                (target % prog.ops.len() as u64) as u32
            } else {
                next
            };
        } else {
            *ip = next;
        }
        if let Some(rec) = recorder.as_deref_mut() {
            rec.note_site(st.last_ip, st.fault_sites);
        }
        st.fault_sites += 1;
    } else {
        *ip = next;
    }
    Ok(())
}

/// The threaded-code dispatch loop. Recorder or profile runs take the slow
/// loop (every iteration through [`step`], identical hook placement to the
/// interpreter). Plain trials take the fast loop: counters live in locals,
/// the armed trap is a single integer compare, and the only per-iteration
/// work beyond the micro-op itself is the bounds check and the budget
/// trap. The trap iteration itself — and only it — detours through
/// [`step`], so injection bookkeeping (`last_ip`, `last_mem_write`,
/// `injected_inst`, jump redirect) is shared with the reference path.
pub(crate) fn exec_compiled(run: TrialRun<'_, '_>) -> (MachResult, Memory) {
    let TrialRun { machine, config, fault, mut st, mut ip, mut recorder } = run;
    let prog = machine.compiled();
    let ops = &prog.ops[..];
    let meta = &prog.meta[..];
    let gens = &prog.gens[..];
    let insts = &machine.program.insts[..];
    let mut armed = fault;

    if recorder.is_some() || st.profile.is_some() {
        let status = loop {
            if let Err(s) = step(machine, config, prog, insts, &mut st, &mut ip, &mut armed, &mut recorder) {
                break s;
            }
        };
        return st.finish(status);
    }

    let max_dyn = config.max_dyn_insts;
    let max_out = config.max_output;
    let mut dyn_insts = st.dyn_insts;
    let mut cycles = st.cycles;
    let mut sites = st.fault_sites;
    // The armed trap as a register compare: `u64::MAX` means disarmed (a
    // trial can never reach that many sites under any instruction budget).
    let trap_site = armed.map_or(u64::MAX, |f| f.site_index);

    let status = 'exec: {
        // Phase 1 — armed: identical to the disarmed loop below plus the
        // one-compare trap check. Exited by the injection firing (fall
        // through to phase 2) or the trial ending first.
        if trap_site != u64::MAX {
            loop {
                let Some(op) = ops.get(ip as usize) else {
                    break 'exec ExecStatus::Trapped(TrapKind::BadControl);
                };
                let m = meta[ip as usize];
                if m & META_SITE != 0 && sites == trap_site {
                    // Write the locals back and run this one iteration
                    // through the fully bookkept path, then resume fast
                    // and disarmed.
                    st.dyn_insts = dyn_insts;
                    st.cycles = cycles;
                    st.fault_sites = sites;
                    match step(machine, config, prog, insts, &mut st, &mut ip, &mut armed, &mut recorder) {
                        Ok(()) => {
                            dyn_insts = st.dyn_insts;
                            cycles = st.cycles;
                            sites = st.fault_sites;
                            break;
                        }
                        Err(s) => {
                            dyn_insts = st.dyn_insts;
                            cycles = st.cycles;
                            sites = st.fault_sites;
                            break 'exec s;
                        }
                    }
                }
                dyn_insts += 1;
                if dyn_insts > max_dyn {
                    break 'exec ExecStatus::Trapped(TrapKind::InstLimit);
                }
                cycles += (m & !META_SITE) as u64;
                match exec_op(op, &mut st, ip, max_out, gens) {
                    Ok(next) => {
                        sites += (m >> 7) as u64;
                        ip = next;
                    }
                    Err(Halt::Status(s)) => break 'exec s,
                }
            }
        }
        // Phase 2 — disarmed: golden runs spend their whole life here, and
        // trials their post-injection tail. No trap state left to consult.
        loop {
            let Some(op) = ops.get(ip as usize) else {
                break 'exec ExecStatus::Trapped(TrapKind::BadControl);
            };
            let m = meta[ip as usize];
            dyn_insts += 1;
            if dyn_insts > max_dyn {
                break 'exec ExecStatus::Trapped(TrapKind::InstLimit);
            }
            cycles += (m & !META_SITE) as u64;
            match exec_op(op, &mut st, ip, max_out, gens) {
                Ok(next) => {
                    sites += (m >> 7) as u64;
                    ip = next;
                }
                Err(Halt::Status(s)) => break 'exec s,
            }
        }
    };

    st.dyn_insts = dyn_insts;
    st.cycles = cycles;
    st.fault_sites = sites;
    st.finish(status)
}

/// Specialized `mov` translation by (destination, source) form and width.
fn mov_op(w: u8, dst: AOp, src: AOp, gens: &mut Vec<GenOp>) -> Op {
    match (dst, src) {
        (AOp::Reg(d), AOp::Reg(s)) => Op::MovRR {
            di: d.index() as u8,
            si: s.index() as u8,
            mask: width_ty(w).mask(),
        },
        (AOp::Reg(d), AOp::Imm(v)) => Op::MovRI { di: d.index() as u8, v: width_ty(w).canon(v as u64) },
        (AOp::Reg(d), AOp::Mem(m)) => {
            let di = d.index() as u8;
            let a = Addr::new(m);
            match w {
                8 => Op::Load8 { di, a },
                4 => Op::Load4 { di, a },
                2 => Op::Load2 { di, a },
                _ => Op::Load1 { di, a },
            }
        }
        (AOp::Mem(m), AOp::Reg(s)) => {
            let a = Addr::new(m);
            let si = s.index() as u8;
            match w {
                8 => Op::Store8 { a, si },
                4 => Op::Store4 { a, si },
                2 => Op::Store2 { a, si },
                _ => Op::Store1 { a, si },
            }
        }
        (AOp::Mem(m), AOp::Imm(v)) => {
            let a = Addr::new(m);
            let v = width_ty(w).canon(v as u64);
            match w {
                8 => Op::StoreI8 { a, v },
                4 => Op::StoreI4 { a, v },
                2 => Op::StoreI2 { a, v },
                _ => Op::StoreI1 { a, v },
            }
        }
        _ => {
            gens.push(GenOp::Mov { rd: Rd::new(src, w), wr: Wr::new(dst, w) });
            Op::Gen { gi: (gens.len() - 1) as u32 }
        }
    }
}

/// Translate one instruction into its micro-op. `len` is the program
/// length (for `ret` range checks). Forms the instruction selector
/// actually emits get fully specialized variants; anything else falls back
/// to the generic [`Rd`]/[`Wr`] paths, which are still pre-decoded.
fn translate(kind: &AKind, len: usize, gens: &mut Vec<GenOp>) -> Op {
    match *kind {
        AKind::Mov { w, dst, src } | AKind::MovSd { w, dst, src } => mov_op(w, dst, src, gens),
        AKind::MovSx { wd, ws, dst, src } => {
            let dmask = width_ty(wd).mask();
            let di = dst.index() as u8;
            match src {
                AOp::Reg(r) => Op::MovSxR {
                    di,
                    si: r.index() as u8,
                    ssh: 64 - width_ty(ws).bits(),
                    dmask,
                },
                AOp::Mem(m) => {
                    let a = Addr::new(m);
                    match ws {
                        8 => Op::MovSxM8 { di, a, dmask },
                        4 => Op::MovSxM4 { di, a, dmask },
                        2 => Op::MovSxM2 { di, a, dmask },
                        _ => Op::MovSxM1 { di, a, dmask },
                    }
                }
                AOp::Imm(_) => {
                    gens.push(GenOp::MovSx {
                        di,
                        rd: Rd::new(src, ws),
                        ssh: 64 - width_ty(ws).bits(),
                        dmask,
                    });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
            }
        }
        AKind::Lea { dst, mem } => Op::Lea { di: dst.index() as u8, a: Addr::new(mem) },
        AKind::Alu { op, w, dst, src } => {
            let ty = width_ty(w);
            let c = AluCtl { mask: ty.mask(), sh: ty.bits() - 1, rsp: dst == Reg::Rsp };
            let di = dst.index() as u8;
            match (op, src) {
                (AluOp::Add, AOp::Reg(s)) => Op::AddRR { di, si: s.index() as u8, c },
                (AluOp::Add, AOp::Imm(v)) => Op::AddRI { di, v: ty.canon(v as u64), c },
                (AluOp::Add, _) => {
                    gens.push(GenOp::Alu { op: A_ADD, di, rd: Rd::new(src, w), c });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
                (AluOp::Sub, AOp::Reg(s)) => Op::SubRR { di, si: s.index() as u8, c },
                (AluOp::Sub, AOp::Imm(v)) => Op::SubRI { di, v: ty.canon(v as u64), c },
                (AluOp::Sub, _) => {
                    gens.push(GenOp::Alu { op: A_SUB, di, rd: Rd::new(src, w), c });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
                (AluOp::Imul, AOp::Reg(s)) => Op::ImulRR { di, si: s.index() as u8, c },
                (AluOp::Imul, AOp::Imm(v)) => Op::ImulRI { di, v: ty.canon(v as u64), c },
                (AluOp::Imul, _) => {
                    gens.push(GenOp::Alu { op: A_IMUL, di, rd: Rd::new(src, w), c });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
                (AluOp::And, AOp::Reg(s)) => Op::AndRR { di, si: s.index() as u8, c },
                (AluOp::And, AOp::Imm(v)) => Op::AndRI { di, v: ty.canon(v as u64), c },
                (AluOp::And, _) => {
                    gens.push(GenOp::Alu { op: A_AND, di, rd: Rd::new(src, w), c });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
                (AluOp::Or, AOp::Reg(s)) => Op::OrRR { di, si: s.index() as u8, c },
                (AluOp::Or, AOp::Imm(v)) => Op::OrRI { di, v: ty.canon(v as u64), c },
                (AluOp::Or, _) => {
                    gens.push(GenOp::Alu { op: A_OR, di, rd: Rd::new(src, w), c });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
                (AluOp::Xor, AOp::Reg(s)) => Op::XorRR { di, si: s.index() as u8, c },
                (AluOp::Xor, AOp::Imm(v)) => Op::XorRI { di, v: ty.canon(v as u64), c },
                (AluOp::Xor, _) => {
                    gens.push(GenOp::Alu { op: A_XOR, di, rd: Rd::new(src, w), c });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
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
                // The interpreter canonicalizes the amount to 8 bits before
                // masking by `bits-1`; `smask <= 63` makes the byte
                // canonicalization a no-op, so it is folded away here.
                (ShiftOp::Shl, AOp::Imm(v)) => Op::ShlI { di, s: ((v as u64) & smask) as u32, mask, sh },
                (ShiftOp::Shr, AOp::Imm(v)) => Op::ShrI { di, s: ((v as u64) & smask) as u32, mask, sh },
                (ShiftOp::Sar, AOp::Imm(v)) => Op::SarI { di, s: ((v as u64) & smask) as u32, mask, sh, ssh },
                (ShiftOp::Shl, AOp::Reg(r)) => Op::ShlR { di, si: r.index() as u8, smask, mask, sh },
                (ShiftOp::Shr, AOp::Reg(r)) => Op::ShrR { di, si: r.index() as u8, smask, mask, sh },
                (ShiftOp::Sar, AOp::Reg(r)) => Op::SarR { di, si: r.index() as u8, smask, mask, sh, ssh },
                (_, _) => {
                    gens.push(GenOp::Shift { op, di, amt: Rd::new(amt, 1), smask, mask, sh, ssh });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
            }
        }
        AKind::Cqo { .. } => Op::Cqo,
        AKind::ZeroRdx => Op::ZeroRdx,
        AKind::Div { signed, src, .. } => {
            let rd = Rd::new(src, 8);
            if signed {
                Op::DivS { rd }
            } else {
                Op::DivU { rd }
            }
        }
        AKind::Cmp { w, lhs, rhs } => {
            let ty = width_ty(w);
            let (mask, sh) = (ty.mask(), ty.bits() - 1);
            match (lhs, rhs) {
                (AOp::Reg(l), AOp::Reg(r)) => Op::CmpRR { li: l.index() as u8, ri: r.index() as u8, mask, sh },
                (AOp::Reg(l), AOp::Imm(v)) => Op::CmpRI { li: l.index() as u8, v: ty.canon(v as u64), mask, sh },
                _ => {
                    gens.push(GenOp::Cmp { l: Rd::new(lhs, w), r: Rd::new(rhs, w), mask, sh });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
            }
        }
        AKind::Test { w, lhs, rhs } => {
            let ty = width_ty(w);
            let (mask, sh) = (ty.mask(), ty.bits() - 1);
            match (lhs, rhs) {
                (AOp::Reg(l), AOp::Reg(r)) => Op::TestRR { li: l.index() as u8, ri: r.index() as u8, mask, sh },
                (AOp::Reg(l), AOp::Imm(v)) => Op::TestRI { li: l.index() as u8, v: ty.canon(v as u64), mask, sh },
                _ => {
                    gens.push(GenOp::Test { l: Rd::new(lhs, w), r: Rd::new(rhs, w), mask, sh });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
            }
        }
        AKind::SetCC { cc, dst } => Op::SetCC { cc, di: dst.index() as u8 },
        AKind::Cmov { cc, w, dst, src } => {
            let (di, mask) = (dst.index() as u8, width_ty(w).mask());
            match src {
                AOp::Reg(r) => Op::CmovR { cc, di, si: r.index() as u8, mask },
                _ => {
                    gens.push(GenOp::Cmov { cc, di, rd: Rd::new(src, w), mask });
                    Op::Gen { gi: (gens.len() - 1) as u32 }
                }
            }
        }
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
            CC::Ae => Op::JccAe { t },
        },
        AKind::Jmp { target } => Op::Jmp { t: target },
        AKind::Call { target, .. } => Op::Call { t: target },
        AKind::Ret => Op::Ret { len: len as u32 },
        AKind::Push { src } => match src {
            AOp::Reg(r) => Op::PushR { si: r.index() as u8 },
            _ => Op::PushG { rd: Rd::new(src, 8) },
        },
        AKind::Pop { dst } => Op::Pop { di: dst.index() as u8 },
        AKind::Sse { op, dst, src } => {
            let di = dst.index() as u8;
            match op {
                SseOp::AddSd => Op::AddSd { di, rd: Rd::new(src, 8) },
                SseOp::SubSd => Op::SubSd { di, rd: Rd::new(src, 8) },
                SseOp::MulSd => Op::MulSd { di, rd: Rd::new(src, 8) },
                SseOp::DivSd => Op::DivSd { di, rd: Rd::new(src, 8) },
                SseOp::AddSs => Op::AddSs { di, rd: Rd::new(src, 4) },
                SseOp::SubSs => Op::SubSs { di, rd: Rd::new(src, 4) },
                SseOp::MulSs => Op::MulSs { di, rd: Rd::new(src, 4) },
                SseOp::DivSs => Op::DivSs { di, rd: Rd::new(src, 4) },
            }
        }
        AKind::Ucomi { w, lhs, rhs } => {
            let li = lhs.index() as u8;
            if w == 4 {
                Op::UcomiS { li, rd: Rd::new(rhs, 4) }
            } else {
                Op::UcomiD { li, rd: Rd::new(rhs, 8) }
            }
        }
        AKind::Cvtsi2f { wf, dst, src } => {
            let di = dst.index() as u8;
            let rd = Rd::new(src, 8);
            if wf == 4 {
                Op::CvtSiF32 { di, rd }
            } else {
                Op::CvtSiF64 { di, rd }
            }
        }
        AKind::Cvtf2si { wf, dst, src } => {
            let di = dst.index() as u8;
            if wf == 4 {
                Op::CvtF32Si { di, rd: Rd::new(src, 4) }
            } else {
                Op::CvtF64Si { di, rd: Rd::new(src, 8) }
            }
        }
        AKind::Cvtff { wd, dst, src } => {
            let (di, si) = (dst.index() as u8, src.index() as u8);
            if wd == 8 {
                Op::CvtF32F64 { di, si }
            } else {
                Op::CvtF64F32 { di, si }
            }
        }
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
                OutKind::Byte => Op::OutByte { rd },
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
