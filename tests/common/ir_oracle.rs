//! The IR layer's reference semantics: an instruction-by-instruction
//! interpreter over [`InstKind`], written independently of the engine it
//! checks (`flowery_ir::interp`'s pre-decoded loop), with its own frames,
//! its own operand reader and its own copy of the fault-site rule and of
//! fault application.
//!
//! It runs `main` from a fresh memory image to the end — no snapshots, no
//! fast-forward — so every engine result, plain, profiled, captured or
//! fast-forwarded, can be held against it, and every snapshot a capture
//! takes against the oracle's state at the same point ([`visit`]). Test code only; include it with
//! `#[path = "common/ir_oracle.rs"] mod ir_oracle;`.

// Each test binary that includes the oracle uses part of it.
#![allow(dead_code)]

use flowery_ir::inst::{Callee, InstKind, Intrinsic, Terminator};
use flowery_ir::interp::snapio::{w_leb, w_opt, w_u64, w_words};
use flowery_ir::interp::{mem_fault_region, ops, ExecConfig, ExecResult, ExecStatus, FaultEffect, FaultSpec};
use flowery_ir::interp::{Memory, Profile, TrapKind};
use flowery_ir::module::Module;
use flowery_ir::value::{BlockId, FuncId, InstId, Op, Value};

/// Output record tags.
const TAG_I64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_BYTE: u8 = 3;

/// One activation record.
struct Frame {
    func: FuncId,
    block: BlockId,
    /// Index of the next instruction within the block.
    ip: usize,
    /// Result slots, one per instruction-arena entry (canonical bits).
    values: Vec<u64>,
    params: Vec<u64>,
    /// Stack pointer to restore when this frame returns.
    saved_sp: u64,
    /// Instruction in the *caller* that receives the return value.
    ret_dest: Option<InstId>,
}

impl Frame {
    fn enter(m: &Module, func: FuncId, saved_sp: u64, ret_dest: Option<InstId>) -> Frame {
        let values = vec![0; m.func(func).insts.len()];
        Frame {
            func,
            block: BlockId(0),
            ip: 0,
            values,
            params: Vec::new(),
            saved_sp,
            ret_dest,
        }
    }
}

struct Oracle<'m> {
    m: &'m Module,
    config: &'m ExecConfig,
    fault: Option<FaultSpec>,
    globals: Vec<u64>,
    mem: Memory,
    output: Vec<u8>,
    dyn_insts: u64,
    fault_sites: u64,
    sp: u64,
    stack: Vec<Frame>,
    injected_at: Option<(FuncId, InstId)>,
    profile: Option<Profile>,
}

/// Execute `main` from a fresh image under `config`'s limits, optionally
/// injecting `fault`; counts the profile when `config.profile` is set.
pub fn run(m: &Module, config: &ExecConfig, fault: Option<FaultSpec>) -> ExecResult {
    exec(m, config, fault, &[], &mut |_, _, _, _| {}, &mut |_| {})
}

/// What [`visit`] hands the state at a point to: the instruction and site
/// counters, the encoded state and the memory image.
pub type AtPoint<'a> = &'a mut dyn FnMut(u64, u64, Vec<u8>, &mut Memory);

/// A fault-free [`run`] that stops by at each of `points` (ascending
/// counts of executed instructions): `at` gets the instruction and site
/// counters, the state as a snapshot file encodes the first snapshot's
/// (stack pointer, call stack), the output length and the memory image,
/// before the next instruction
/// starts. `site` gets the function of every fault site executed, in order.
pub fn visit(
    m: &Module,
    config: &ExecConfig,
    points: &[u64],
    at: AtPoint<'_>,
    site: &mut dyn FnMut(u32),
) -> ExecResult {
    exec(m, config, None, points, at, site)
}

fn exec(
    m: &Module,
    config: &ExecConfig,
    fault: Option<FaultSpec>,
    mut points: &[u64],
    at: AtPoint<'_>,
    site: &mut dyn FnMut(u32),
) -> ExecResult {
    let mem = Memory::new(m, config.mem_size, config.stack_size);
    let sp = mem.initial_sp();
    let main = m.main_func().expect("module has no @main");
    let mut o = Oracle {
        m,
        config,
        fault,
        globals: Memory::layout_globals(m),
        mem,
        output: Vec::new(),
        dyn_insts: 0,
        fault_sites: 0,
        sp,
        stack: vec![Frame::enter(m, main, sp, None)],
        injected_at: None,
        profile: config.profile.then(|| Profile {
            counts: m.functions.iter().map(|f| vec![0u64; f.insts.len()]).collect(),
        }),
    };
    let status = loop {
        while let Some((_, rest)) = points.split_first().filter(|(&p, _)| p == o.dyn_insts) {
            points = rest;
            let state = o.encoded_state();
            at(o.dyn_insts, o.fault_sites, state, &mut o.mem);
        }
        let before = (o.stack.last().map(|f| f.func.0), o.fault_sites);
        if let Err(s) = o.step() {
            break s;
        }
        if o.fault_sites > before.1 {
            site(before.0.expect("a site executes in a frame"));
        }
    };
    ExecResult {
        status,
        output: o.output,
        dyn_insts: o.dyn_insts,
        fault_sites: o.fault_sites,
        injected_at: o.injected_at,
        profile: o.profile,
    }
}

impl Oracle<'_> {
    /// The state between two instructions, in the layout a snapshot file
    /// gives a first snapshot's, then the output length.
    fn encoded_state(&self) -> Vec<u8> {
        let mut w = Vec::new();
        w_u64(&mut w, self.sp);
        w_leb(&mut w, self.stack.len() as u64);
        for f in &self.stack {
            w_leb(&mut w, f.func.0.into());
            w_leb(&mut w, f.block.0.into());
            w_leb(&mut w, f.ip as u64);
            w_u64(&mut w, f.saved_sp);
            w_opt(&mut w, f.ret_dest, |w, i| w_leb(w, i.0.into()));
            w_words(&mut w, &f.values, &[]);
            w_words(&mut w, &f.params, &[]);
        }
        w_leb(&mut w, self.output.len() as u64);
        w
    }

    fn op_value(&self, frame: &Frame, op: Op) -> u64 {
        match op {
            Op::Const(c) => c.bits(),
            Op::Global(g) => self.globals[g.index()],
            Op::Value(Value::Param(p)) => frame.params[p as usize],
            Op::Value(Value::Inst(i)) => frame.values[i.index()],
        }
    }

    /// One instruction: budget trap, profile, the instruction's semantics,
    /// injection and site accounting. `Err` carries the run's final status.
    fn step(&mut self) -> Result<(), ExecStatus> {
        use ExecStatus::Trapped;
        self.dyn_insts += 1;
        if self.dyn_insts > self.config.max_dyn_insts {
            return Err(Trapped(TrapKind::InstLimit));
        }

        let m = self.m;
        let depth = self.stack.len();
        let frame = self.stack.last().expect("nonempty call stack");
        let func = m.func(frame.func);
        let block = func.block(frame.block);

        if frame.ip >= block.insts.len() {
            // ---- terminator ------------------------------------------------
            match &block.term {
                Terminator::Jmp { dest } => self.goto(*dest),
                Terminator::Br { cond, then_bb, else_bb } => {
                    let dest = if self.op_value(frame, *cond) & 1 == 1 { *then_bb } else { *else_bb };
                    self.goto(dest);
                }
                Terminator::Ret { val } => {
                    let rv = val.map(|v| self.op_value(frame, v));
                    let done = self.stack.pop().expect("nonempty call stack");
                    self.sp = done.saved_sp;
                    let Some(caller) = self.stack.last_mut() else {
                        return Err(ExecStatus::Completed(rv.unwrap_or(0)));
                    };
                    if let (Some(dest), Some(v)) = (done.ret_dest, rv) {
                        let ty = m.result_ty(caller.func, dest).expect("call with ret_dest has result type");
                        // The call-return write is NOT an IR fault site (calls
                        // are not duplicable; LLFI-style compute-only selection).
                        caller.values[dest.index()] = ty.canon(v);
                    }
                }
                Terminator::Unreachable => return Err(Trapped(TrapKind::BadControl)),
            }
            return Ok(());
        }

        // ---- ordinary instruction ------------------------------------------
        let (fid, iid) = (frame.func, block.insts[frame.ip]);
        if let Some(p) = self.profile.as_mut() {
            p.counts[fid.index()][iid.index()] += 1;
        }
        let inst = func.inst(iid);
        let opv = |op: Op| self.op_value(frame, op);

        let result: Option<u64> = match &inst.kind {
            InstKind::Alloca { elem, count } => {
                let sp = self.sp.saturating_sub(elem.size() * *count as u64) & !(elem.align() - 1);
                if sp < self.mem.stack_limit() {
                    return Err(Trapped(TrapKind::StackOverflow));
                }
                Some(sp)
            }
            InstKind::Load { ptr, ty } => Some(ty.canon(self.mem.load(opv(*ptr), ty.size()).map_err(Trapped)?)),
            InstKind::Store { val, ptr, ty } => {
                let (addr, v) = (opv(*ptr), ty.canon(opv(*val)));
                self.mem.store(addr, ty.size(), v).map_err(Trapped)?;
                None
            }
            InstKind::Bin { op, ty, lhs, rhs } => Some(ops::eval_bin(*op, *ty, opv(*lhs), opv(*rhs)).map_err(Trapped)?),
            InstKind::ICmp { pred, ty, lhs, rhs } => Some(ops::eval_icmp(*pred, *ty, opv(*lhs), opv(*rhs))),
            InstKind::FCmp { pred, lhs, rhs, .. } => Some(ops::eval_fcmp(*pred, opv(*lhs), opv(*rhs))),
            InstKind::Cast { kind, from, to, val } => Some(ops::eval_cast(*kind, *from, *to, opv(*val))),
            InstKind::Gep { base, index, elem } => {
                let i = opv(*index) as i64;
                Some(opv(*base).wrapping_add_signed(i.wrapping_mul(elem.size() as i64)))
            }
            InstKind::Select { cond, t, f, .. } => Some(if opv(*cond) & 1 == 1 { opv(*t) } else { opv(*f) }),
            InstKind::Call { callee: Callee::Intrinsic(intr), args } => {
                let record = match intr {
                    Intrinsic::OutputI64 => Some((TAG_I64, opv(args[0]).to_le_bytes().to_vec())),
                    Intrinsic::OutputF64 => Some((TAG_F64, opv(args[0]).to_le_bytes().to_vec())),
                    Intrinsic::OutputByte => Some((TAG_BYTE, vec![opv(args[0]) as u8])),
                    Intrinsic::DetectError => return Err(ExecStatus::Detected),
                    _ => None,
                };
                match record {
                    Some((tag, bytes)) => {
                        self.output.push(tag);
                        self.output.extend_from_slice(&bytes);
                        if self.output.len() > self.config.max_output {
                            return Err(Trapped(TrapKind::OutputFlood));
                        }
                        None
                    }
                    None => {
                        let vals: Vec<u64> = args.iter().map(|a| opv(*a)).collect();
                        Some(ops::eval_math(*intr, &vals))
                    }
                }
            }
            InstKind::Call { callee: Callee::Func(callee), args } => {
                // Push a frame; the call instruction receives the return
                // value when the callee returns.
                if depth >= self.config.max_call_depth {
                    return Err(Trapped(TrapKind::CallDepth));
                }
                let params: Vec<u64> = args.iter().map(|a| opv(*a)).collect();
                let ret_dest = m.func(*callee).ret_ty.is_some().then_some(iid);
                let mut new = Frame::enter(m, *callee, self.sp, ret_dest);
                new.params = params;
                self.stack.last_mut().expect("nonempty call stack").ip += 1;
                self.stack.push(new);
                return Ok(()); // no result write
            }
        };

        let frame = self.stack.last_mut().expect("nonempty call stack");
        frame.ip += 1;
        if let InstKind::Alloca { .. } = inst.kind {
            self.sp = result.expect("alloca yields its address");
        }
        let Some(mut v) = result else { return Ok(()) };
        let ty = m.result_ty(fid, iid).expect("instruction with result has a type");
        // ---- fault injection hook (IR level) ---------------------------
        // LLFI-style site selection: only *compute* results are fault
        // sites. `alloca` addresses are excluded (frame bookkeeping, not
        // datapath), as are function-call returns (handled at `Ret`, also
        // excluded) — matching the instruction-duplication literature's
        // fault model.
        let is_site = !matches!(inst.kind, InstKind::Alloca { .. });
        let spec = self.fault.filter(|spec| is_site && self.fault_sites == spec.site_index);
        if let Some(spec) = spec {
            self.injected_at = Some((fid, iid));
            match spec.effect {
                FaultEffect::Bits => {
                    v ^= 1u64 << (spec.bit % ty.bits());
                    if let Some(b2) = spec.second_bit {
                        v ^= 1u64 << (b2 % ty.bits());
                    }
                }
                FaultEffect::Burst { width } => {
                    for k in 0..width as u32 {
                        v ^= 1u64 << ((spec.bit + k) % ty.bits());
                    }
                }
                // Condition corruption: the low bit is the one branches
                // and selects consume.
                FaultEffect::Flags => v ^= 1,
                FaultEffect::Mem { offset } => {
                    // The result is intact; a memory cell at a
                    // deterministic address takes the hit.
                    let (lo, hi) = mem_fault_region(m, &self.mem);
                    let addr = lo + offset % (hi - lo);
                    if let Ok(b) = self.mem.load(addr, 1) {
                        let _ = self.mem.store(addr, 1, b ^ (1u64 << (spec.bit % 8)));
                    }
                }
                // Applied after the result write, below.
                FaultEffect::Jump { .. } => {}
            }
        }
        if is_site {
            self.fault_sites += 1;
        }
        let frame = self.stack.last_mut().expect("nonempty call stack");
        frame.values[iid.index()] = ty.canon(v);
        if let Some(FaultSpec { effect: FaultEffect::Jump { target }, .. }) = spec {
            // Control-flow edge corruption: the (intact) result is
            // written, then control lands at the head of an arbitrary
            // block of this function.
            let nblocks = func.blocks.len() as u64;
            self.goto(BlockId((target % nblocks) as u32));
        }
        Ok(())
    }

    fn goto(&mut self, dest: BlockId) {
        let frame = self.stack.last_mut().expect("nonempty call stack");
        (frame.block, frame.ip) = (dest, 0);
    }
}
