//! The machine layer's reference semantics: a decode-and-dispatch
//! interpreter over [`AKind`], written independently of the engines it
//! checks (`flowery_backend::exec`'s threaded code and the native JIT),
//! with its own boot sequence and its own copy of fault application.
//!
//! It runs `main` from a fresh memory image to the end — no snapshots, no
//! fast-forward — so every engine result, from scratch, restored or
//! fast-forwarded, can be held against it, and every snapshot a capture
//! takes against the oracle's state at the same point ([`visit`]). Test code only; include it
//! with `#[path = "common/asm_oracle.rs"] mod asm_oracle;`.

// Each test binary that includes the oracle uses part of it.
#![allow(dead_code)]

use flowery_backend::mir::{
    flags, AInst, AKind, AOp, AluOp, AsmProgram, FaultDest, MathKind, MemRef, OutKind, Reg, ShiftOp, SseOp, CC,
};
use flowery_backend::{AsmFaultSpec, MachResult};
use flowery_ir::inst::{BinOp, CastKind, Intrinsic};
use flowery_ir::interp::snapio::{w_leb, w_words};
use flowery_ir::interp::{mem_fault_region, ops, ExecConfig, ExecStatus, FaultEffect, Memory, TrapKind};
use flowery_ir::module::Module;
use flowery_ir::types::Type;

/// Return-address sentinel marking the bottom of the call stack.
const SENTINEL: u64 = u64::MAX - 1;

/// Execute `program` from `main` under `config`'s limits, optionally
/// injecting `fault`.
pub fn run(module: &Module, program: &AsmProgram, config: &ExecConfig, fault: Option<AsmFaultSpec>) -> MachResult {
    exec(module, program, config, fault, &[], &mut |_, _, _, _| {}, &mut |_| {})
}

/// What [`visit`] hands the state at a point to: the instruction and site
/// counters, the encoded state and the memory image.
pub type AtPoint<'a> = &'a mut dyn FnMut(u64, u64, Vec<u8>, &mut Memory);

/// A fault-free [`run`] that stops by at each of `points` (ascending
/// counts of executed instructions): `at` gets the instruction and site
/// counters, the state as a snapshot file encodes the first snapshot's
/// (cycles, next instruction, registers), the output length and the memory
/// image, before the
/// next instruction starts. `site` gets the position of every fault site
/// executed, in order.
pub fn visit(
    module: &Module,
    program: &AsmProgram,
    config: &ExecConfig,
    points: &[u64],
    at: AtPoint<'_>,
    site: &mut dyn FnMut(u32),
) -> MachResult {
    exec(module, program, config, None, points, at, site)
}

fn exec(
    module: &Module,
    program: &AsmProgram,
    config: &ExecConfig,
    fault: Option<AsmFaultSpec>,
    mut points: &[u64],
    at: AtPoint<'_>,
    site: &mut dyn FnMut(u32),
) -> MachResult {
    let mut mem = Memory::new(module, config.mem_size, config.stack_size);
    let mut regs = [0u64; Reg::COUNT];
    let sp = mem.initial_sp() - 8;
    mem.store(sp, 8, SENTINEL).expect("initial stack in bounds");
    regs[Reg::Rsp.index()] = sp;
    let mut st = State {
        regs,
        mem,
        output: Vec::new(),
        dyn_insts: 0,
        fault_sites: 0,
        cycles: 0,
        injected_inst: None,
        profile: config.profile.then(|| vec![0u64; program.insts.len()]),
        last_ip: 0,
        last_mem_write: None,
    };
    let mut ip = program.main_entry;
    let insts = &program.insts;

    let status = loop {
        while let Some((_, rest)) = points.split_first().filter(|(&p, _)| p == st.dyn_insts) {
            points = rest;
            let mut state = Vec::new();
            w_leb(&mut state, st.cycles);
            w_leb(&mut state, ip.into());
            w_words(&mut state, &st.regs, &[]);
            w_leb(&mut state, st.output.len() as u64);
            at(st.dyn_insts, st.fault_sites, state, &mut st.mem);
        }
        if ip as usize >= insts.len() {
            break ExecStatus::Trapped(TrapKind::BadControl);
        }
        st.dyn_insts += 1;
        if st.dyn_insts > config.max_dyn_insts {
            break ExecStatus::Trapped(TrapKind::InstLimit);
        }
        let inst = &insts[ip as usize];
        if let Some(p) = st.profile.as_mut() {
            p[ip as usize] += 1;
        }
        st.cycles += inst.kind.cycles();

        let is_site = inst.kind.is_fault_site();
        let inject_now = is_site && fault.is_some_and(|f| st.fault_sites == f.site_index);

        if let Err(s) = step(&mut st, inst, &mut ip, insts.len()) {
            break s;
        }

        if is_site {
            if inject_now {
                let spec = fault.unwrap();
                st.injected_inst = Some(st.last_ip);
                apply_fault(module, &mut st, inst, spec);
                if let FaultEffect::Jump { target } = spec.effect {
                    // Control-flow edge corruption: the site's own effects
                    // stand, then control restarts at an arbitrary position.
                    ip = (target % insts.len() as u64) as u32;
                }
            }
            site(st.last_ip);
            st.fault_sites += 1;
        }

        if st.output.len() > config.max_output {
            break ExecStatus::Trapped(TrapKind::OutputFlood);
        }
    };

    MachResult {
        status,
        output: st.output,
        dyn_insts: st.dyn_insts,
        fault_sites: st.fault_sites,
        cycles: st.cycles,
        injected_inst: st.injected_inst,
        pruned: false,
        profile: st.profile,
    }
}

struct State {
    regs: [u64; Reg::COUNT],
    mem: Memory,
    output: Vec<u8>,
    dyn_insts: u64,
    fault_sites: u64,
    cycles: u64,
    injected_inst: Option<u32>,
    profile: Option<Vec<u64>>,
    last_ip: u32,
    /// (addr, width) of the most recent memory write, for MemVal injection.
    last_mem_write: Option<(u64, u8)>,
}

fn width_ty(w: u8) -> Type {
    if w == 1 {
        Type::I8
    } else {
        Type::I64
    }
}

fn step(st: &mut State, inst: &AInst, ip: &mut u32, len: usize) -> Result<(), ExecStatus> {
    st.last_ip = *ip;
    st.last_mem_write = None;
    let next = *ip + 1;
    match &inst.kind {
        AKind::Mov { dst, src, .. } | AKind::MovSd { dst, src } => {
            // `movsd` is the 8-byte `mov`.
            let w = if let AKind::Mov { w, .. } = inst.kind { w } else { 8 };
            let v = st.read(*src, w)?;
            st.write(*dst, w, v)?;
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
                return Err(ExecStatus::Trapped(TrapKind::StackOverflow));
            }
        }
        AKind::Shift { op, w, dst, amt } => {
            let a = st.read_reg(*dst, *w);
            let b = st.read(*amt, 1)?;
            let ir_op = match op {
                ShiftOp::Shl => BinOp::Shl,
                ShiftOp::Sar => BinOp::AShr,
            };
            let ty = width_ty(*w);
            let r = ops::eval_bin(ir_op, ty, a, b).expect("non-trapping shift");
            st.set_logic_flags(ty, r);
            st.write_reg(*dst, *w, r);
        }
        AKind::Cqo => {
            let rax = st.regs[Reg::Rax.index()];
            st.regs[Reg::Rdx.index()] = ((rax as i64) >> 63) as u64;
        }
        AKind::Div { src } => {
            let a = st.regs[Reg::Rax.index()] as i64;
            let b = st.read(*src, 8)? as i64;
            if b == 0 || (a == i64::MIN && b == -1) {
                return Err(ExecStatus::Trapped(TrapKind::DivFault));
            }
            st.regs[Reg::Rax.index()] = (a / b) as u64;
            st.regs[Reg::Rdx.index()] = (a % b) as u64;
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
            st.set_logic_flags(ty, ty.canon(a & b));
        }
        AKind::SetCC { cc, dst } => {
            let v = st.cond(*cc) as u64;
            st.write_reg(*dst, 1, v);
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
                return Err(ExecStatus::Trapped(TrapKind::StackOverflow));
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
                return Err(ExecStatus::Completed(st.regs[Reg::Rax.index()]));
            }
            if ra as usize >= len {
                return Err(ExecStatus::Trapped(TrapKind::BadControl));
            }
            *ip = ra as u32;
            return Ok(());
        }
        AKind::Push { src } => {
            let v = st.read(*src, 8)?;
            let sp = st.regs[Reg::Rsp.index()].wrapping_sub(8);
            if sp < st.mem.stack_limit() {
                return Err(ExecStatus::Trapped(TrapKind::StackOverflow));
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
        AKind::Sse { op, dst, src } => {
            let ir_op = match op {
                SseOp::AddSd => BinOp::FAdd,
                SseOp::SubSd => BinOp::FSub,
                SseOp::MulSd => BinOp::FMul,
                SseOp::DivSd => BinOp::FDiv,
            };
            let a = st.read_reg(*dst, 8);
            let b = st.read(*src, 8)?;
            let r = ops::eval_bin(ir_op, Type::F64, a, b).expect("float ops cannot trap");
            st.write_reg(*dst, 8, r);
        }
        AKind::Ucomi { lhs, rhs } => {
            let x = f64::from_bits(st.read_reg(*lhs, 8));
            let y = f64::from_bits(st.read(*rhs, 8)?);
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
        AKind::Cvtsi2f { dst, src } => {
            let v = st.read(*src, 8)?;
            let r = ops::eval_cast(CastKind::SiToFp, Type::I64, Type::F64, v);
            st.write_reg(*dst, 8, r);
        }
        AKind::Cvtf2si { dst, src } => {
            let v = st.read(*src, 8)?;
            let r = ops::eval_cast(CastKind::FpToSi, Type::F64, Type::I64, v);
            st.write_reg(*dst, 8, r);
        }
        AKind::MovQ { dst, src } => {
            let v = st.read_reg(*src, 8);
            st.write_reg(*dst, 8, v);
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
        }
        AKind::DetectTrap => return Err(ExecStatus::Detected),
    }
    *ip = next;
    Ok(())
}

impl State {
    fn effective(&self, m: MemRef) -> u64 {
        match m.base {
            Some(r) => self.regs[r.index()].wrapping_add_signed(m.disp),
            None => m.disp as u64,
        }
    }

    fn read_reg(&self, r: Reg, w: u8) -> u64 {
        width_ty(w).canon(self.regs[r.index()])
    }

    fn write_reg(&mut self, r: Reg, w: u8, v: u64) {
        self.regs[r.index()] = width_ty(w).canon(v);
    }

    fn read(&mut self, op: AOp, w: u8) -> Result<u64, ExecStatus> {
        match op {
            AOp::Reg(r) => Ok(self.read_reg(r, w)),
            AOp::Imm(v) => Ok(width_ty(w).canon(v as u64)),
            AOp::Mem(m) => {
                let addr = self.effective(m);
                self.load_mem(addr, w)
            }
        }
    }

    fn write(&mut self, op: AOp, w: u8, v: u64) -> Result<(), ExecStatus> {
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

    fn load_mem(&mut self, addr: u64, w: u8) -> Result<u64, ExecStatus> {
        self.mem.load(addr, w as u64).map_err(ExecStatus::Trapped)
    }

    fn store_mem(&mut self, addr: u64, w: u8, v: u64) -> Result<(), ExecStatus> {
        self.last_mem_write = Some((addr, w));
        self.mem.store(addr, w as u64, v).map_err(ExecStatus::Trapped)
    }

    fn set_arith_flags(&mut self, op: AluOp, ty: Type, a: u64, b: u64, r: u64) {
        let mut fl = 0u64;
        if r == 0 {
            fl |= flags::ZF;
        }
        if (r >> (ty.bits() - 1)) & 1 == 1 {
            fl |= flags::SF;
        }
        let (sa, sb, sr) = (ty.sext(a), ty.sext(b), ty.sext(r));
        match op {
            AluOp::Add => {
                if r < a {
                    fl |= flags::CF;
                }
                if (sa >= 0) == (sb >= 0) && (sr >= 0) != (sa >= 0) {
                    fl |= flags::OF;
                }
            }
            AluOp::Sub => {
                if a < b {
                    fl |= flags::CF;
                }
                if (sa >= 0) != (sb >= 0) && (sr >= 0) != (sa >= 0) {
                    fl |= flags::OF;
                }
            }
            _ => {}
        }
        self.regs[Reg::Rflags.index()] = fl;
    }

    fn set_logic_flags(&mut self, ty: Type, r: u64) {
        let mut fl = 0u64;
        if r == 0 {
            fl |= flags::ZF;
        }
        if (r >> (ty.bits() - 1)) & 1 == 1 {
            fl |= flags::SF;
        }
        self.regs[Reg::Rflags.index()] = fl;
    }

    fn cond(&self, cc: CC) -> bool {
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

/// Apply a fault to the instruction's architected destination (or, for
/// the wider effects, to flags / a memory cell). Control-flow redirects
/// are handled by the dispatch loop, which owns `ip`.
fn apply_fault(module: &Module, st: &mut State, inst: &AInst, spec: AsmFaultSpec) {
    // Bit mask within a `bits`-wide destination: the classic one-or-two
    // bit flip, or a contiguous burst for multi-bit upsets.
    let mask = |bits: u32| -> u64 {
        match spec.effect {
            FaultEffect::Burst { width } => (0..width as u32).fold(0u64, |m, k| m ^ 1u64 << ((spec.bit + k) % bits)),
            _ => {
                let mut m = 1u64 << (spec.bit % bits);
                if let Some(b2) = spec.second_bit {
                    m |= 1u64 << (b2 % bits);
                }
                m
            }
        }
    };
    let n = flags::CONDITION_BITS.len();
    match spec.effect {
        FaultEffect::Bits | FaultEffect::Burst { .. } => match inst.kind.fault_dest() {
            FaultDest::Gpr(r, w) => st.regs[r.index()] ^= mask(w as u32 * 8),
            FaultDest::Flags => {
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
            // Flags/PC corruption model: hit the condition bits no matter
            // what the site instruction writes.
            let mut which = flags::CONDITION_BITS[(spec.bit as usize) % n];
            if let Some(b2) = spec.second_bit {
                which |= flags::CONDITION_BITS[(b2 as usize) % n];
            }
            st.regs[Reg::Rflags.index()] ^= which;
        }
        FaultEffect::Mem { offset } => {
            // The same deterministic cell as the IR interpreter's.
            let (lo, hi) = mem_fault_region(module, &st.mem);
            let addr = lo + offset % (hi - lo);
            if let Ok(b) = st.mem.load(addr, 1) {
                let _ = st.mem.store(addr, 1, b ^ (1u64 << (spec.bit % 8)));
            }
        }
        FaultEffect::Jump { .. } => {} // the dispatch loop redirects ip
    }
}
