//! The machine simulator ("assembly level" in the paper's terminology).
//!
//! Executes a linked [`AsmProgram`] over the same memory image and output
//! encoding as the IR interpreter, so fault-free runs of the two layers are
//! bit-identical. Fault injection flips a single bit in the *architected
//! destination* of a randomly chosen dynamic instruction — GPR/XMM bits,
//! a condition flag, or the value just written to memory — mirroring
//! PIN-based injectors (paper §4.3).

use crate::mir::{
    flags, AInst, AKind, AOp, AluOp, AsmProgram, FaultDest, MathKind, MemRef, OutKind, Reg, ShiftOp, SseOp, CC,
};
use crate::snapshot::{AsmLayer, AsmScratch, AsmSnapshotSet, AsmState};
use flowery_ir::inst::{BinOp, CastKind, Intrinsic};
use flowery_ir::interp::memory::TrapKind;
use flowery_ir::interp::snapshot::Recorder;
use flowery_ir::interp::substrate::{self, Start};
use flowery_ir::interp::{mem_fault_region, ops, Cadence, ExecConfig, ExecStatus, FaultEffect, Memory};
use flowery_ir::module::Module;
use flowery_ir::types::Type;
use serde::{Deserialize, Serialize};

/// Return-address sentinel marking the bottom of the call stack.
pub(crate) const SENTINEL: u64 = u64::MAX - 1;

/// A fault to inject during one machine run: the layers share one spec,
/// addressed by the global index of a fault site.
pub type AsmFaultSpec = flowery_ir::interp::FaultSpec;

/// Result of a machine execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachResult {
    pub status: ExecStatus,
    /// Tagged output records, same encoding as the IR interpreter.
    pub output: Vec<u8>,
    /// All executed instructions.
    pub dyn_insts: u64,
    /// Executed instructions that were fault sites.
    pub fault_sites: u64,
    /// Modelled cycle count (the §7.2 overhead metric).
    pub cycles: u64,
    /// Program index of the instruction the fault landed on, if any.
    pub injected_inst: Option<u32>,
    /// Per-instruction execution counts (when profiling).
    pub profile: Option<Vec<u64>>,
}

impl MachResult {
    pub fn matches_output(&self, golden: &MachResult) -> bool {
        self.status == golden.status && self.output == golden.output
    }
}

/// Reusable machine for one program+module pair. Which engine executes
/// trials is chosen per run by [`ExecConfig::executor`]; the threaded-code
/// translation is built lazily on first compiled-mode run and reused for
/// every trial after that.
pub struct Machine<'p> {
    pub(crate) program: &'p AsmProgram,
    pub(crate) module: &'p Module,
    compiled: std::sync::OnceLock<crate::exec::CompiledProgram>,
    /// Host machine code for the native engine, or the reason it is
    /// unavailable for this program/host (see [`Machine::jit`]).
    jit: std::sync::OnceLock<Result<crate::jit::JitProgram, crate::jit::FallbackReason>>,
}

impl<'p> Machine<'p> {
    pub fn new(module: &'p Module, program: &'p AsmProgram) -> Machine<'p> {
        Machine {
            program,
            module,
            compiled: std::sync::OnceLock::new(),
            jit: std::sync::OnceLock::new(),
        }
    }

    /// The program this machine executes.
    pub fn program(&self) -> &'p AsmProgram {
        self.program
    }

    /// The threaded-code translation of this program, built on first use.
    pub(crate) fn compiled(&self) -> &crate::exec::CompiledProgram {
        self.compiled.get_or_init(|| crate::exec::CompiledProgram::build(self.program))
    }

    /// The native-code translation of this program, built (once) on first
    /// native-mode run. `Err` carries the fallback reason — unsupported
    /// host, forced fallback, or an unencodable program — and native runs
    /// then take the `compiled` path instead.
    pub(crate) fn jit(&self) -> Result<&crate::jit::JitProgram, crate::jit::FallbackReason> {
        self.jit
            .get_or_init(|| crate::jit::JitProgram::build(self.program))
            .as_ref()
            .map_err(|e| *e)
    }

    /// Execute from `main` under `config`, optionally injecting a fault.
    pub fn run(&self, config: &ExecConfig, fault: Option<AsmFaultSpec>) -> MachResult {
        substrate::run::<AsmLayer>(self, config, fault)
    }

    /// One fault-free run that captures a snapshot every `interval` dynamic
    /// instructions (see [`substrate::capture`]).
    pub fn capture_snapshots(&self, config: &ExecConfig, interval: u64) -> AsmSnapshotSet {
        substrate::capture(self, config, Cadence::Insts(interval), None)
    }

    /// Self-tuning site-spaced capture (see [`substrate::capture_auto`]).
    pub fn capture_snapshots_auto(&self, config: &ExecConfig) -> AsmSnapshotSet {
        substrate::capture_auto(self, config)
    }

    /// Run one faulty trial from the nearest snapshot at-or-before the
    /// injection site (see [`substrate::trial`]); bit-identical to
    /// `run(config, Some(fault))`.
    pub fn run_fast_forward(
        &self,
        config: &ExecConfig,
        fault: AsmFaultSpec,
        set: &AsmSnapshotSet,
        scratch: &mut AsmScratch,
    ) -> (MachResult, u64) {
        substrate::trial(self, config, fault, Some(set), scratch)
    }

    /// The engines' working state for a run starting at `start`, plus the
    /// first instruction pointer.
    fn state_from(&self, start: Start<AsmLayer>, config: &ExecConfig) -> (State, u32) {
        let AsmState { cycles, ip, regs } = start.state;
        let st = State {
            regs,
            mem: start.mem,
            output: start.output,
            dyn_insts: start.dyn_insts,
            fault_sites: start.fault_sites,
            cycles,
            injected_inst: None,
            profile: config.profile.then(|| vec![0u64; self.program.insts.len()]),
            last_ip: 0,
            last_mem_write: None,
        };
        (st, ip)
    }

    /// Execute from `start` (fresh or restored), optionally capturing
    /// snapshots, on the engine [`ExecConfig::executor`] selects. Returns
    /// the result plus the memory image so callers can recycle it.
    pub(crate) fn exec(
        &self,
        config: &ExecConfig,
        fault: Option<AsmFaultSpec>,
        start: Start<AsmLayer>,
        recorder: Option<&mut Recorder<AsmLayer>>,
    ) -> (MachResult, Memory) {
        let (st, ip) = self.state_from(start, config);
        crate::exec::executor_for(config.executor).exec(crate::exec::TrialRun {
            machine: self,
            config,
            fault,
            st,
            ip,
            recorder,
        })
    }

    /// The interpreter engine's dispatch loop (the reference semantics the
    /// threaded-code engine in [`crate::exec`] must match bit-for-bit).
    pub(crate) fn exec_interp(
        &self,
        config: &ExecConfig,
        fault: Option<AsmFaultSpec>,
        mut st: State,
        mut ip: u32,
        mut recorder: Option<&mut Recorder<AsmLayer>>,
    ) -> (MachResult, Memory) {
        let insts = &self.program.insts;

        let status = 'exec: loop {
            // ---- snapshot hook: `st.dyn_insts` executed, `ip` next -------
            if let Some(rec) = recorder.as_deref_mut() {
                if rec.due(st.dyn_insts, st.fault_sites) {
                    let state = AsmState { cycles: st.cycles, ip, regs: st.regs };
                    rec.capture(st.dyn_insts, st.fault_sites, st.output.len(), state, &mut st.mem);
                }
            }

            if ip as usize >= insts.len() {
                break 'exec ExecStatus::Trapped(TrapKind::BadControl);
            }
            st.dyn_insts += 1;
            if st.dyn_insts > config.max_dyn_insts {
                break 'exec ExecStatus::Trapped(TrapKind::InstLimit);
            }
            let inst = &insts[ip as usize];
            if let Some(p) = st.profile.as_mut() {
                p[ip as usize] += 1;
            }
            st.cycles += inst.kind.cycles();

            let is_site = inst.kind.is_fault_site();
            let inject_now = is_site && fault.is_some_and(|f| st.fault_sites == f.site_index);

            match self.step(&mut st, inst, &mut ip, config) {
                Ok(()) => {}
                Err(Halt::Status(s)) => break 'exec s,
            }

            if is_site {
                if inject_now {
                    let spec = fault.unwrap();
                    st.injected_inst = Some(st.last_ip);
                    self.apply_fault(&mut st, inst, spec);
                    if let FaultEffect::Jump { target } = spec.effect {
                        // Control-flow edge corruption: the site's own
                        // effects stand, then control restarts at an
                        // arbitrary program position.
                        ip = (target % insts.len() as u64) as u32;
                    }
                }
                if let Some(rec) = recorder.as_deref_mut() {
                    rec.note_site(st.last_ip, st.fault_sites);
                }
                st.fault_sites += 1;
            }

            if st.output.len() > config.max_output {
                break 'exec ExecStatus::Trapped(TrapKind::OutputFlood);
            }
        };

        st.finish(status)
    }

    /// Fault-free dynamic site trace: `trace[i]` is the instruction index
    /// of the `i`-th fault site the golden run executes — the map from a
    /// `FaultSpec::site_index` to the static instruction a fault would
    /// land on, for the first `cap` sites (one [`substrate::observe`] pass).
    pub fn site_trace(&self, config: &ExecConfig, cap: usize) -> Vec<u32> {
        substrate::observe::<AsmLayer>(self, config, cap).1.trace().to_vec()
    }

    fn step(&self, st: &mut State, inst: &AInst, ip: &mut u32, config: &ExecConfig) -> Result<(), Halt> {
        st.last_ip = *ip;
        st.last_mem_write = None;
        let next = *ip + 1;
        match &inst.kind {
            AKind::Mov { w, dst, src } => {
                let v = st.read(*src, *w)?;
                st.write(*dst, *w, v)?;
            }
            AKind::MovSx { wd, ws, dst, src } => {
                let v = st.read(*src, *ws)?;
                let ty = width_ty(*ws);
                let ext = ty.sext(v) as u64;
                st.write_reg(*dst, *wd, ext);
            }
            AKind::Lea { dst, mem } => {
                let addr = st.effective(*mem);
                st.write_reg(*dst, 8, addr);
            }
            AKind::Alu { op, w, dst, src } => {
                let a = st.read_reg(*dst, *w);
                let b = st.read(*src, *w)?;
                let ir_op = match op {
                    AluOp::Add => BinOp::Add,
                    AluOp::Sub => BinOp::Sub,
                    AluOp::Imul => BinOp::Mul,
                    AluOp::And => BinOp::And,
                    AluOp::Or => BinOp::Or,
                    AluOp::Xor => BinOp::Xor,
                };
                let ty = width_ty(*w);
                let r = ops::eval_bin(ir_op, ty, a, b).expect("non-trapping alu");
                st.set_arith_flags(*op, ty, a, b, r);
                st.write_reg(*dst, *w, r);
                // Frame pointer sanity: the stack must stay in its segment.
                if *dst == Reg::Rsp && st.regs[Reg::Rsp.index()] < st.mem.stack_limit() {
                    return Err(Halt::Status(ExecStatus::Trapped(TrapKind::StackOverflow)));
                }
            }
            AKind::Shift { op, w, dst, amt } => {
                let a = st.read_reg(*dst, *w);
                let b = st.read(*amt, 1)?;
                let ir_op = match op {
                    ShiftOp::Shl => BinOp::Shl,
                    ShiftOp::Shr => BinOp::LShr,
                    ShiftOp::Sar => BinOp::AShr,
                };
                let ty = width_ty(*w);
                let r = ops::eval_bin(ir_op, ty, a, b).expect("non-trapping shift");
                st.set_logic_flags(ty, r);
                st.write_reg(*dst, *w, r);
            }
            AKind::Cqo { .. } => {
                let rax = st.regs[Reg::Rax.index()];
                st.regs[Reg::Rdx.index()] = ((rax as i64) >> 63) as u64;
            }
            AKind::ZeroRdx => st.regs[Reg::Rdx.index()] = 0,
            AKind::Div { signed, src, .. } => {
                let b = st.read(*src, 8)?;
                if *signed {
                    let a = st.regs[Reg::Rax.index()] as i64;
                    let bs = b as i64;
                    if bs == 0 || (a == i64::MIN && bs == -1) {
                        return Err(Halt::Status(ExecStatus::Trapped(TrapKind::DivFault)));
                    }
                    st.regs[Reg::Rax.index()] = (a / bs) as u64;
                    st.regs[Reg::Rdx.index()] = (a % bs) as u64;
                } else {
                    if b == 0 {
                        return Err(Halt::Status(ExecStatus::Trapped(TrapKind::DivFault)));
                    }
                    let a = st.regs[Reg::Rax.index()];
                    st.regs[Reg::Rax.index()] = a / b;
                    st.regs[Reg::Rdx.index()] = a % b;
                }
            }
            AKind::Cmp { w, lhs, rhs } => {
                let a = st.read(*lhs, *w)?;
                let b = st.read(*rhs, *w)?;
                let ty = width_ty(*w);
                let r = ops::eval_bin(BinOp::Sub, ty, a, b).expect("sub cannot trap");
                st.set_arith_flags(AluOp::Sub, ty, a, b, r);
            }
            AKind::Test { w, lhs, rhs } => {
                let a = st.read(*lhs, *w)?;
                let b = st.read(*rhs, *w)?;
                let ty = width_ty(*w);
                let r = ty.canon(a & b);
                st.set_logic_flags(ty, r);
            }
            AKind::SetCC { cc, dst } => {
                let v = st.cond(*cc) as u64;
                st.write_reg(*dst, 1, v);
            }
            AKind::Cmov { cc, w, dst, src } => {
                if st.cond(*cc) {
                    let v = st.read(*src, *w)?;
                    st.write_reg(*dst, *w, v);
                }
            }
            AKind::Jcc { cc, target } => {
                if st.cond(*cc) {
                    *ip = *target;
                    return Ok(());
                }
            }
            AKind::Jmp { target } => {
                *ip = *target;
                return Ok(());
            }
            AKind::Call { target, .. } => {
                let sp = st.regs[Reg::Rsp.index()].wrapping_sub(8);
                if sp < st.mem.stack_limit() {
                    return Err(Halt::Status(ExecStatus::Trapped(TrapKind::StackOverflow)));
                }
                st.store_mem(sp, 8, next as u64)?;
                st.regs[Reg::Rsp.index()] = sp;
                *ip = *target;
                return Ok(());
            }
            AKind::Ret => {
                let sp = st.regs[Reg::Rsp.index()];
                let ra = st.load_mem(sp, 8)?;
                st.regs[Reg::Rsp.index()] = sp.wrapping_add(8);
                if ra == SENTINEL {
                    return Err(Halt::Status(ExecStatus::Completed(st.regs[Reg::Rax.index()])));
                }
                if ra as usize >= self.program.insts.len() {
                    return Err(Halt::Status(ExecStatus::Trapped(TrapKind::BadControl)));
                }
                *ip = ra as u32;
                return Ok(());
            }
            AKind::Push { src } => {
                let v = st.read(*src, 8)?;
                let sp = st.regs[Reg::Rsp.index()].wrapping_sub(8);
                if sp < st.mem.stack_limit() {
                    return Err(Halt::Status(ExecStatus::Trapped(TrapKind::StackOverflow)));
                }
                st.store_mem(sp, 8, v)?;
                st.regs[Reg::Rsp.index()] = sp;
            }
            AKind::Pop { dst } => {
                let sp = st.regs[Reg::Rsp.index()];
                let v = st.load_mem(sp, 8)?;
                st.regs[Reg::Rsp.index()] = sp.wrapping_add(8);
                st.write_reg(*dst, 8, v);
            }
            AKind::MovSd { w, dst, src } => {
                let v = st.read(*src, *w)?;
                st.write(*dst, *w, v)?;
            }
            AKind::Sse { op, dst, src } => {
                let (ir_op, ty) = match op {
                    SseOp::AddSd => (BinOp::FAdd, Type::F64),
                    SseOp::SubSd => (BinOp::FSub, Type::F64),
                    SseOp::MulSd => (BinOp::FMul, Type::F64),
                    SseOp::DivSd => (BinOp::FDiv, Type::F64),
                    SseOp::AddSs => (BinOp::FAdd, Type::F32),
                    SseOp::SubSs => (BinOp::FSub, Type::F32),
                    SseOp::MulSs => (BinOp::FMul, Type::F32),
                    SseOp::DivSs => (BinOp::FDiv, Type::F32),
                };
                let w = ty.size() as u8;
                let a = st.read_reg(*dst, w);
                let b = st.read(*src, w)?;
                let r = ops::eval_bin(ir_op, ty, a, b).expect("float ops cannot trap");
                st.write_reg(*dst, w, r);
            }
            AKind::Ucomi { w, lhs, rhs } => {
                let a = st.read_reg(*lhs, *w);
                let b = st.read(*rhs, *w)?;
                let (x, y) = if *w == 4 {
                    (f32::from_bits(a as u32) as f64, f32::from_bits(b as u32) as f64)
                } else {
                    (f64::from_bits(a), f64::from_bits(b))
                };
                let mut fl = 0u64;
                if x.is_nan() || y.is_nan() {
                    fl |= flags::ZF | flags::CF;
                } else if x == y {
                    fl |= flags::ZF;
                } else if x < y {
                    fl |= flags::CF;
                }
                st.regs[Reg::Rflags.index()] = fl;
            }
            AKind::Cvtsi2f { wf, dst, src } => {
                let v = st.read(*src, 8)?;
                let r = ops::eval_cast(CastKind::SiToFp, Type::I64, width_fty(*wf), v);
                st.write_reg(*dst, 8, r);
            }
            AKind::Cvtf2si { wf, dst, src } => {
                let v = st.read(*src, *wf)?;
                let r = ops::eval_cast(CastKind::FpToSi, width_fty(*wf), Type::I64, v);
                st.write_reg(*dst, 8, r);
            }
            AKind::Cvtff { wd, dst, src } => {
                let v = st.read_reg(*src, 8);
                let (from, to) = if *wd == 8 { (Type::F32, Type::F64) } else { (Type::F64, Type::F32) };
                let r = ops::eval_cast(CastKind::FpCast, from, to, v);
                st.write_reg(*dst, 8, r);
            }
            AKind::MovQ { w, dst, src } => {
                let v = st.read_reg(*src, *w);
                st.write_reg(*dst, *w, v);
            }
            AKind::Math { kind, dst, a, b } => {
                let intr = match kind {
                    MathKind::Sqrt => Intrinsic::Sqrt,
                    MathKind::Sin => Intrinsic::Sin,
                    MathKind::Cos => Intrinsic::Cos,
                    MathKind::Exp => Intrinsic::Exp,
                    MathKind::Log => Intrinsic::Log,
                    MathKind::Fabs => Intrinsic::Fabs,
                    MathKind::Floor => Intrinsic::Floor,
                    MathKind::Pow => Intrinsic::Pow,
                };
                let mut args = vec![st.regs[a.index()]];
                if let Some(b) = b {
                    args.push(st.regs[b.index()]);
                }
                let r = ops::eval_math(intr, &args);
                st.write_reg(*dst, 8, r);
            }
            AKind::Out { kind, src } => {
                let v = st.read(*src, 8)?;
                match kind {
                    OutKind::I64 => {
                        st.output.push(1);
                        st.output.extend_from_slice(&v.to_le_bytes());
                    }
                    OutKind::F64 => {
                        st.output.push(2);
                        st.output.extend_from_slice(&v.to_le_bytes());
                    }
                    OutKind::Byte => {
                        st.output.push(3);
                        st.output.push(v as u8);
                    }
                }
                let _ = config;
            }
            AKind::DetectTrap => {
                return Err(Halt::Status(ExecStatus::Detected));
            }
        }
        *ip = next;
        Ok(())
    }
}

pub(crate) enum Halt {
    Status(ExecStatus),
}

pub(crate) struct State {
    pub(crate) regs: [u64; Reg::COUNT],
    pub(crate) mem: Memory,
    pub(crate) output: Vec<u8>,
    pub(crate) dyn_insts: u64,
    pub(crate) fault_sites: u64,
    pub(crate) cycles: u64,
    pub(crate) injected_inst: Option<u32>,
    pub(crate) profile: Option<Vec<u64>>,
    pub(crate) last_ip: u32,
    /// (addr, width) of the most recent memory write, for MemVal injection.
    pub(crate) last_mem_write: Option<(u64, u8)>,
}

impl State {
    /// Consume the state into a result, handing the memory image back for
    /// reuse.
    pub(crate) fn finish(self, status: ExecStatus) -> (MachResult, Memory) {
        (
            MachResult {
                status,
                output: self.output,
                dyn_insts: self.dyn_insts,
                fault_sites: self.fault_sites,
                cycles: self.cycles,
                injected_inst: self.injected_inst,
                profile: self.profile,
            },
            self.mem,
        )
    }

    /// Effective address of a memory reference. Absolute references skip
    /// the base-register read entirely (the compiled engine bakes the same
    /// split into each handler at translation time).
    #[inline(always)]
    fn effective(&self, m: MemRef) -> u64 {
        match m.base {
            Some(r) => self.regs[r.index()].wrapping_add_signed(m.disp),
            None => m.disp as u64,
        }
    }

    #[inline(always)]
    fn read_reg(&self, r: Reg, w: u8) -> u64 {
        width_ty(w).canon(self.regs[r.index()])
    }

    #[inline(always)]
    fn write_reg(&mut self, r: Reg, w: u8, v: u64) {
        self.regs[r.index()] = width_ty(w).canon(v);
    }

    #[inline(always)]
    fn read(&mut self, op: AOp, w: u8) -> Result<u64, Halt> {
        match op {
            AOp::Reg(r) => Ok(self.read_reg(r, w)),
            AOp::Imm(v) => Ok(width_ty(w).canon(v as u64)),
            AOp::Mem(m) => {
                let addr = self.effective(m);
                self.load_mem(addr, w)
            }
        }
    }

    fn write(&mut self, op: AOp, w: u8, v: u64) -> Result<(), Halt> {
        match op {
            AOp::Reg(r) => {
                self.write_reg(r, w, v);
                Ok(())
            }
            AOp::Mem(m) => {
                let addr = self.effective(m);
                self.store_mem(addr, w, v)
            }
            AOp::Imm(_) => unreachable!("immediate destination"),
        }
    }

    #[inline(always)]
    pub(crate) fn load_mem(&mut self, addr: u64, w: u8) -> Result<u64, Halt> {
        self.mem.load(addr, w as u64).map_err(|t| Halt::Status(ExecStatus::Trapped(t)))
    }

    #[inline(always)]
    pub(crate) fn store_mem(&mut self, addr: u64, w: u8, v: u64) -> Result<(), Halt> {
        self.last_mem_write = Some((addr, w));
        self.mem
            .store(addr, w as u64, v)
            .map_err(|t| Halt::Status(ExecStatus::Trapped(t)))
    }

    pub(crate) fn set_arith_flags(&mut self, op: AluOp, ty: Type, a: u64, b: u64, r: u64) {
        let mut fl = 0u64;
        let bits = ty.bits();
        if r == 0 {
            fl |= flags::ZF;
        }
        if (r >> (bits - 1)) & 1 == 1 {
            fl |= flags::SF;
        }
        match op {
            AluOp::Add => {
                if r < a {
                    fl |= flags::CF;
                }
                let (sa, sb, sr) = (ty.sext(a), ty.sext(b), ty.sext(r));
                if (sa >= 0) == (sb >= 0) && (sr >= 0) != (sa >= 0) {
                    fl |= flags::OF;
                }
            }
            AluOp::Sub => {
                if a < b {
                    fl |= flags::CF;
                }
                let (sa, sb, sr) = (ty.sext(a), ty.sext(b), ty.sext(r));
                if (sa >= 0) != (sb >= 0) && (sr >= 0) != (sa >= 0) {
                    fl |= flags::OF;
                }
            }
            _ => {}
        }
        self.regs[Reg::Rflags.index()] = fl;
    }

    pub(crate) fn set_logic_flags(&mut self, ty: Type, r: u64) {
        let mut fl = 0u64;
        if r == 0 {
            fl |= flags::ZF;
        }
        if (r >> (ty.bits() - 1)) & 1 == 1 {
            fl |= flags::SF;
        }
        self.regs[Reg::Rflags.index()] = fl;
    }

    #[inline(always)]
    pub(crate) fn cond(&self, cc: CC) -> bool {
        let fl = self.regs[Reg::Rflags.index()];
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
}

impl Machine<'_> {
    /// Apply a fault to the instruction's architected destination (or, for
    /// the wider effects, to flags / a memory cell). Control-flow redirects
    /// are handled by the dispatch loop, which owns `ip`.
    pub(crate) fn apply_fault(&self, st: &mut State, inst: &AInst, spec: AsmFaultSpec) {
        // Bit mask within a `bits`-wide destination: the classic one-or-two
        // bit flip, or a contiguous burst for multi-bit upsets.
        let mask = |bits: u32| -> u64 {
            match spec.effect {
                FaultEffect::Burst { width } => {
                    let mut m = 0u64;
                    for k in 0..width as u32 {
                        m ^= 1u64 << ((spec.bit + k) % bits);
                    }
                    m
                }
                _ => {
                    let mut m = 1u64 << (spec.bit % bits);
                    if let Some(b2) = spec.second_bit {
                        m |= 1u64 << (b2 % bits);
                    }
                    m
                }
            }
        };
        match spec.effect {
            FaultEffect::Bits | FaultEffect::Burst { .. } => match inst.kind.fault_dest() {
                FaultDest::Gpr(r, w) => {
                    st.regs[r.index()] ^= mask(w as u32 * 8);
                }
                FaultDest::Flags => {
                    let n = flags::CONDITION_BITS.len();
                    let mut which = flags::CONDITION_BITS[(spec.bit as usize) % n];
                    match spec.effect {
                        FaultEffect::Burst { width } => {
                            for k in 1..width as usize {
                                which ^= flags::CONDITION_BITS[(spec.bit as usize + k) % n];
                            }
                        }
                        _ => {
                            if let Some(b2) = spec.second_bit {
                                which |= flags::CONDITION_BITS[(b2 as usize) % n];
                            }
                        }
                    }
                    st.regs[Reg::Rflags.index()] ^= which;
                }
                FaultDest::MemVal(w) => {
                    if let Some((addr, ww)) = st.last_mem_write {
                        let w = w.min(ww);
                        if let Ok(v) = st.mem.load(addr, w as u64) {
                            let _ = st.mem.store(addr, w as u64, v ^ mask(w as u32 * 8));
                        }
                    }
                }
                FaultDest::None => {}
            },
            FaultEffect::Flags => {
                // Flags/PC corruption model: hit the condition bits no
                // matter what the site instruction writes.
                let n = flags::CONDITION_BITS.len();
                let mut which = flags::CONDITION_BITS[(spec.bit as usize) % n];
                if let Some(b2) = spec.second_bit {
                    which |= flags::CONDITION_BITS[(b2 as usize) % n];
                }
                st.regs[Reg::Rflags.index()] ^= which;
            }
            FaultEffect::Mem { offset } => {
                // The same deterministic cell as the IR interpreter's.
                let (lo, hi) = mem_fault_region(self.module, &st.mem);
                let addr = lo + offset % (hi - lo);
                if let Ok(b) = st.mem.load(addr, 1) {
                    let _ = st.mem.store(addr, 1, b ^ (1u64 << (spec.bit % 8)));
                }
            }
            FaultEffect::Jump { .. } => {} // dispatch loop redirects ip
        }
    }
}

pub(crate) fn width_ty(w: u8) -> Type {
    match w {
        1 => Type::I8,
        2 => Type::I16,
        4 => Type::I32,
        _ => Type::I64,
    }
}

pub(crate) fn width_fty(w: u8) -> Type {
    if w == 4 {
        Type::F32
    } else {
        Type::F64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::{compile_module, BackendConfig};
    use flowery_ir::builder::{FuncBuilder, ModuleBuilder};
    use flowery_ir::value::Op;

    fn run_main(build: impl FnOnce(&mut FuncBuilder)) -> MachResult {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        build(&mut fb);
        mb.add_func(fb.finish());
        let m = mb.finish();
        flowery_ir::verify::verify_module(&m).unwrap();
        let prog = compile_module(&m, &BackendConfig::default());
        Machine::new(&m, &prog).run(&ExecConfig::default(), None)
    }

    #[test]
    fn signed_flags_drive_conditions() {
        // -5 < 3 signed but not unsigned: both predicates via flags.
        let r = run_main(|fb| {
            let slt = fb.icmp(flowery_ir::IPred::Slt, Type::I64, Op::ci64(-5), Op::ci64(3));
            let ult = fb.icmp(flowery_ir::IPred::Ult, Type::I64, Op::ci64(-5), Op::ci64(3));
            let z1 = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(slt));
            let z2 = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(ult));
            let sh = fb.bin(flowery_ir::BinOp::Shl, Type::I64, Op::inst(z1), Op::ci64(1));
            let s = fb.bin(flowery_ir::BinOp::Or, Type::I64, Op::inst(sh), Op::inst(z2));
            fb.ret(Some(Op::inst(s)));
        });
        assert_eq!(r.status, ExecStatus::Completed(0b10));
    }

    #[test]
    fn overflow_flag_set_correctly_for_sub() {
        // i64::MIN - 1 wraps; signed compare must still be right via OF.
        let r = run_main(|fb| {
            let c = fb.icmp(flowery_ir::IPred::Slt, Type::I64, Op::ci64(i64::MIN), Op::ci64(1));
            let z = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(c));
            fb.ret(Some(Op::inst(z)));
        });
        assert_eq!(r.status, ExecStatus::Completed(1));
    }

    #[test]
    fn narrow_width_arithmetic_wraps_in_registers() {
        let r = run_main(|fb| {
            let a = fb.bin(flowery_ir::BinOp::Add, Type::I8, Op::cint(Type::I8, 200), Op::cint(Type::I8, 100));
            let z = fb.cast(flowery_ir::CastKind::Zext, Type::I8, Type::I64, Op::inst(a));
            fb.ret(Some(Op::inst(z)));
        });
        assert_eq!(r.status, ExecStatus::Completed((200u64 + 100) & 0xFF));
    }

    #[test]
    fn division_uses_rax_rdx_correctly() {
        let r = run_main(|fb| {
            let q = fb.bin(flowery_ir::BinOp::SDiv, Type::I64, Op::ci64(-47), Op::ci64(5));
            let rem = fb.bin(flowery_ir::BinOp::SRem, Type::I64, Op::ci64(-47), Op::ci64(5));
            let s = fb.bin(flowery_ir::BinOp::Mul, Type::I64, Op::inst(q), Op::ci64(100));
            let t = fb.bin(flowery_ir::BinOp::Add, Type::I64, Op::inst(s), Op::inst(rem));
            fb.ret(Some(Op::inst(t)));
        });
        // -47 / 5 = -9 rem -2 -> -9*100 + -2 = -902
        assert_eq!(r.status, ExecStatus::Completed((-902i64) as u64));
    }

    #[test]
    fn float_compare_flags_and_select() {
        let r = run_main(|fb| {
            let c = fb.fcmp(flowery_ir::FPred::Ogt, Type::F64, Op::cf64(2.5), Op::cf64(1.5));
            let sel = fb.select(Type::I64, Op::inst(c), Op::ci64(7), Op::ci64(9));
            fb.ret(Some(Op::inst(sel)));
        });
        assert_eq!(r.status, ExecStatus::Completed(7));
    }

    #[test]
    fn fault_on_flags_flips_branch() {
        // cmp 1, 2 -> jl taken normally; corrupting the flags at the cmp
        // must be able to change the outcome.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let c = fb.icmp(flowery_ir::IPred::Slt, Type::I64, Op::ci64(1), Op::ci64(2));
        let t = fb.new_block("t");
        let e = fb.new_block("e");
        fb.br(Op::inst(c), t, e);
        fb.switch_to(t);
        fb.ret(Some(Op::ci64(111)));
        fb.switch_to(e);
        fb.ret(Some(Op::ci64(222)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let prog = compile_module(&m, &BackendConfig::default());
        let mach = Machine::new(&m, &prog);
        let golden = mach.run(&ExecConfig::default(), None);
        assert_eq!(golden.status, ExecStatus::Completed(111));
        // Find the cmp's site and flip a condition flag.
        let mut flipped = false;
        for site in 0..golden.fault_sites {
            for bit in 0..4 {
                let r = mach.run(&ExecConfig::default(), Some(AsmFaultSpec::single(site, bit)));
                if r.status == ExecStatus::Completed(222) {
                    flipped = true;
                }
            }
        }
        assert!(flipped, "a flags fault must be able to steer the branch");
    }

    #[test]
    fn profile_counts_executed_instructions() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let v = fb.bin(flowery_ir::BinOp::Add, Type::I64, Op::ci64(40), Op::ci64(2));
        fb.ret(Some(Op::inst(v)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let prog = compile_module(&m, &BackendConfig::default());
        let r = Machine::new(&m, &prog).run(&ExecConfig { profile: true, ..ExecConfig::default() }, None);
        let p = r.profile.unwrap();
        assert_eq!(p.len(), prog.insts.len());
        assert_eq!(p.iter().sum::<u64>(), r.dyn_insts);
        // Straight-line program: every instruction from entry to ret runs once.
        assert!(p.iter().filter(|&&c| c == 1).count() >= 5);
    }
}
