//! The IR layer's one statement of what each instruction does. Each
//! function is translated once into a flat array of pre-decoded ops:
//! operands resolved to frame slots or pooled immediates, the result's
//! width and fault-site bit precomputed, loads and stores specialised by
//! width, terminators holding op indices (a frame's `(block, ip)` is op
//! `block_start[block] + ip`).
//!
//! One loop runs the ops, monomorphized four ways on `MODE`:
//! - [`FAST`] keeps the counters in locals and nothing else: golden runs,
//!   and a trial once its fault has landed, which stops at each snapshot
//!   ahead to ask whether it has rejoined the golden run.
//! - [`ARMED`] adds one `sites == trap_site` compare per fault site and
//!   stops before the trap site.
//! - [`REC`], the recording loop, is [`FAST`] plus the profile count when
//!   the run keeps one and the recorder's site note on each fault site; it
//!   stops at the recorder's next due point, where the driver captures.
//!   Snapshot captures and site observations take it throughout.
//! - [`BOOK`], the bookkept loop, adds around the same op arms the profile
//!   count and the injection (every [`FaultEffect`], and where it landed).
//!   Profile runs take it throughout; a plain trial takes it for the one op
//!   at its trap site, then resumes [`FAST`].
//!
//! The translator accepts only what it can pre-decode and check against the
//! module. An op whose operand slot, parameter, global, callee, branch
//! target or arity is out of range, or whose types leave its operation
//! undefined — what only an unverified module contains — becomes a
//! [`TrapKind::BadControl`] trap, so no instantiation indexes out of range.

use crate::inst::{BinOp, Callee, CastKind, FPred, IPred, InstData, InstKind, Intrinsic, Terminator};
use crate::interp::eval::{mem_fault_region, FramePool, IrLayer};
use crate::interp::memory::{Memory, TrapKind};
use crate::interp::snapshot::Recorder;
use crate::interp::substrate::Start;
use crate::interp::{ops, ExecConfig, ExecStatus, FaultEffect, FaultSpec, Profile, TAG_BYTE, TAG_F64, TAG_I64};
use crate::module::{Block, Function, Module};
use crate::types::Type;
use crate::value::{BlockId, FuncId, InstId, Op, Value};

/// The loop's instantiations (see the module docs).
pub(crate) const FAST: u8 = 0;
pub(crate) const ARMED: u8 = 1;
pub(crate) const BOOK: u8 = 2;
pub(crate) const REC: u8 = 3;

/// A resolved operand: the top two bits say where it lives — a result slot
/// of the frame, a parameter, or the function's immediate pool — and the
/// rest is its index there.
#[derive(Clone, Copy, Debug)]
struct Src(u32);

impl Src {
    const PARAM: u32 = 1 << 30;
    const IMM: u32 = 2 << 30;
    const INDEX: u32 = Src::PARAM - 1;
}

/// What an op does; operands in the order of the [`InstKind`] it comes from.
#[derive(Debug)]
enum Kind {
    /// Element size, count.
    Alloca(u8, u32),
    Load1(Src),
    Load8(Src),
    Store1(Src, Src),
    Store8(Src, Src),
    Bin(BinOp, Type, Src, Src),
    ICmp(IPred, Type, Src, Src),
    FCmp(FPred, Src, Src),
    Cast(CastKind, Type, Type, Src),
    /// Base, index, element size.
    Gep(Src, Src, u8),
    /// The second argument repeats the first for one-argument intrinsics.
    Math(Intrinsic, Src, Src),
    /// Record tag, value.
    Output(u8, Src),
    Detect,
    /// Callee, first argument in the function's argument pool, argument
    /// count, whether the callee returns a value.
    Call(u32, u32, u16, bool),
    /// Op index.
    Jmp(u32),
    /// Condition, then and else op indices.
    Br(Src, u32, u32),
    Ret(Option<Src>),
    /// Also every instruction or terminator the translator refused.
    Unreachable,
}

impl Kind {
    /// Whether the op is an instruction with an arena slot (the profile
    /// counts it): not a terminator, not a refused op.
    fn is_inst(&self) -> bool {
        !matches!(self, Kind::Jmp(_) | Kind::Br(..) | Kind::Ret(_) | Kind::Unreachable)
    }
}

#[derive(Debug)]
struct COp {
    kind: Kind,
    /// Result slot (the instruction's arena index).
    dst: u32,
    /// The result's canonicalisation mask is `u64::MAX >> shift` (the
    /// stored type's for a store).
    shift: u8,
    /// Whether the op is an IR fault site: a result other than an
    /// `alloca`'s address or a call's return (written at `Ret`, and calls
    /// are not duplicable) — the LLFI-style compute-only selection.
    site: bool,
}

const TRAP: COp = COp { kind: Kind::Unreachable, dst: 0, shift: 0, site: false };

#[derive(Debug)]
struct CFunc {
    ops: Vec<COp>,
    imms: Vec<u64>,
    args: Vec<Src>,
    /// `(block, ip)` of each op.
    pos: Vec<(u32, u32)>,
    /// Op index of each block's first op.
    block_start: Vec<u32>,
    /// Result mask of each arena instruction, one per frame slot: what a
    /// `Ret` canonicalises the caller's `ret_dest` slot by.
    masks: Vec<u64>,
}

impl CFunc {
    fn pc(&self, block: BlockId, ip: usize) -> usize {
        self.block_start[block.index()] as usize + ip
    }
}

/// What only the bookkept and recording loops write: where the fault landed,
/// the profile, and the snapshot recorder.
pub(crate) struct Book<'r> {
    pub(crate) injected_at: Option<(FuncId, InstId)>,
    pub(crate) profile: Option<Profile>,
    pub(crate) recorder: Option<&'r mut Recorder<IrLayer>>,
}

/// A module's functions, translated.
#[derive(Debug)]
pub(crate) struct Compiled<'m> {
    module: &'m Module,
    funcs: Vec<CFunc>,
}

impl<'m> Compiled<'m> {
    pub(crate) fn build(m: &'m Module) -> Compiled<'m> {
        let globals = Memory::layout_globals(m);
        Compiled {
            module: m,
            funcs: m.functions.iter().map(|f| Translator::func(m, f, &globals)).collect(),
        }
    }

    /// Run from `run` until it ends (`Err` with its status) or stops early
    /// (`Ok`, with `run` at the next op): [`ARMED`] before `fault`'s site,
    /// [`BOOK`] after that site's op unless the run is profiled, [`REC`] at
    /// the recorder's next due point ([`Recorder::stretch_end`]), [`FAST`]
    /// with `stop` instructions executed when that is under the budget.
    pub(crate) fn run<const MODE: u8>(
        &self,
        config: &ExecConfig,
        fault: Option<FaultSpec>,
        stop: u64,
        run: &mut Start<IrLayer>,
        pool: &mut FramePool,
        book: &mut Book<'_>,
    ) -> Result<(), ExecStatus> {
        use ExecStatus::Trapped;
        let (max_dyn, max_out, max_depth) = (config.max_dyn_insts, config.max_output, config.max_call_depth);
        let trap_site = fault.map_or(0, |f| f.site_index);
        let rec = book.recorder.as_deref().filter(|_| MODE == REC);
        let (limit, stop_site) = rec.map_or((max_dyn.min(stop), u64::MAX), |r| r.stretch_end(max_dyn));
        let Start { mem, output, state, .. } = run;
        let stack = &mut state.stack;
        let stack_limit = mem.stack_limit();
        let (mut dyn_insts, mut sites, mut sp) = (run.dyn_insts, run.fault_sites, state.sp);
        let mut fr = stack.pop().expect("nonempty call stack");
        let mut code = &self.funcs[fr.func.index()];
        let mut pc = code.pc(fr.block, fr.ip);

        macro_rules! rd {
            ($s:expr) => {
                match $s.0 {
                    s if s < Src::PARAM => fr.values[s as usize],
                    s if s < Src::IMM => fr.params[(s & Src::INDEX) as usize],
                    s => code.imms[(s & Src::INDEX) as usize],
                }
            };
        }
        macro_rules! or_trap {
            ($r:expr) => {
                match $r {
                    Ok(v) => v,
                    Err(t) => break Err(Trapped(t)),
                }
            };
        }
        // One arm per variant of `$E`, each passing its variant to `$f` as
        // a constant, so the inlined `ops` code folds its own dispatch away.
        macro_rules! folded {
            ($sel:expr, $E:ident[$($v:ident),*], |$x:ident| $f:expr) => {
                match $sel {
                    $($E::$v => {
                        let $x = $E::$v;
                        $f
                    })*
                }
            };
        }
        macro_rules! store {
            ($w:literal, $val:expr, $ptr:expr, $shift:expr) => {{
                or_trap!(mem.store_w::<$w>(rd!($ptr), rd!($val) & (u64::MAX >> $shift)));
                continue;
            }};
        }

        let outcome = loop {
            let op = &code.ops[pc];
            if MODE == ARMED && op.site && sites == trap_site {
                break Ok(());
            }
            dyn_insts += 1;
            if dyn_insts > limit {
                // Only the budget traps; a limit short of it is a stop point.
                let stops = match MODE {
                    REC => book.recorder.as_deref().is_some_and(|r| r.due(dyn_insts - 1, sites)),
                    _ => limit < max_dyn,
                };
                if stops {
                    dyn_insts -= 1;
                    break Ok(());
                }
                break Err(Trapped(TrapKind::InstLimit));
            }
            if MODE == BOOK || MODE == REC {
                if let Some(p) = book.profile.as_mut().filter(|_| op.kind.is_inst()) {
                    p.counts[fr.func.index()][op.dst as usize] += 1;
                }
            }
            pc += 1;
            let mut v = match op.kind {
                Kind::Alloca(size, count) => {
                    sp = sp.saturating_sub(size as u64 * count as u64) & !(size as u64 - 1);
                    if sp < stack_limit {
                        break Err(Trapped(TrapKind::StackOverflow));
                    }
                    sp
                }
                Kind::Load1(ptr) => or_trap!(mem.load_w::<1>(rd!(ptr))),
                Kind::Load8(ptr) => or_trap!(mem.load_w::<8>(rd!(ptr))),
                Kind::Store1(val, ptr) => store!(1, val, ptr, op.shift),
                Kind::Store8(val, ptr) => store!(8, val, ptr, op.shift),
                Kind::Bin(bin, ty, a, b) => {
                    let (a, b) = (rd!(a), rd!(b));
                    use BinOp as B;
                    or_trap!(
                        folded!(bin, B[Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr, FAdd, FSub, FMul, FDiv], |o| ops::eval_bin(o, ty, a, b))
                    )
                }
                Kind::ICmp(pred, ty, a, b) => {
                    let (a, b) = (rd!(a), rd!(b));
                    folded!(pred, IPred[Eq, Ne, Slt, Sle, Sgt, Sge], |p| ops::eval_icmp(p, ty, a, b))
                }
                Kind::FCmp(pred, a, b) => ops::eval_fcmp(pred, rd!(a), rd!(b)),
                Kind::Cast(kind, from, to, v) => {
                    let v = rd!(v);
                    use CastKind as C;
                    folded!(kind, C[Zext, Trunc, SiToFp, FpToSi, Bitcast], |k| ops::eval_cast(k, from, to, v))
                }
                Kind::Gep(base, index, size) => {
                    rd!(base).wrapping_add_signed((rd!(index) as i64).wrapping_mul(size as i64))
                }
                Kind::Math(intr, a, b) => ops::eval_math(intr, &[rd!(a), rd!(b)]),
                Kind::Output(tag, v) => {
                    let v = rd!(v);
                    output.push(tag);
                    match tag {
                        TAG_BYTE => output.push(v as u8),
                        _ => output.extend_from_slice(&v.to_le_bytes()),
                    }
                    if output.len() > max_out {
                        break Err(Trapped(TrapKind::OutputFlood));
                    }
                    continue;
                }
                Kind::Detect => break Err(ExecStatus::Detected),
                Kind::Call(callee, args, nargs, has_ret) => {
                    if stack.len() + 1 >= max_depth {
                        break Err(Trapped(TrapKind::CallDepth));
                    }
                    let slots = self.funcs[callee as usize].masks.len();
                    let mut frame = pool.frame(FuncId(callee), slots, sp, has_ret.then_some(InstId(op.dst)));
                    for &a in &code.args[args as usize..][..nargs as usize] {
                        frame.params.push(rd!(a));
                    }
                    let (block, ip) = code.pos[pc];
                    code = &self.funcs[callee as usize];
                    let mut caller = std::mem::replace(&mut fr, frame);
                    (caller.block, caller.ip) = (BlockId(block), ip as usize);
                    stack.push(caller);
                    pc = 0;
                    continue;
                }
                Kind::Jmp(to) => {
                    pc = to as usize;
                    continue;
                }
                Kind::Br(c, then_pc, else_pc) => {
                    pc = (if rd!(c) & 1 == 1 { then_pc } else { else_pc }) as usize;
                    continue;
                }
                Kind::Ret(val) => {
                    let rv = val.map(|v| rd!(v));
                    sp = fr.saved_sp;
                    let ret_dest = fr.ret_dest;
                    let Some(caller) = stack.pop() else {
                        break Err(ExecStatus::Completed(rv.unwrap_or(0)));
                    };
                    pool.free_frame(std::mem::replace(&mut fr, caller));
                    code = &self.funcs[fr.func.index()];
                    if let (Some(dest), Some(v)) = (ret_dest, rv) {
                        // Not a fault site: calls are not duplicable.
                        fr.values[dest.index()] = v & code.masks[dest.index()];
                    }
                    pc = code.pc(fr.block, fr.ip);
                    continue;
                }
                Kind::Unreachable => break Err(Trapped(TrapKind::BadControl)),
            };
            let mut jump = None;
            if MODE == BOOK && op.site {
                if let Some(spec) = fault.filter(|f| f.site_index == sites) {
                    book.injected_at = Some((fr.func, InstId(op.dst)));
                    jump = self.inject(spec, &mut v, 64 - op.shift as u32, mem);
                }
            }
            if MODE == REC && op.site {
                if let Some(rec) = book.recorder.as_deref_mut() {
                    rec.note_site(fr.func.0, sites);
                }
            }
            fr.values[op.dst as usize] = v & (u64::MAX >> op.shift);
            sites += op.site as u64;
            if MODE == REC && sites == stop_site {
                break Ok(());
            }
            if MODE == BOOK {
                if let Some(target) = jump {
                    // Control-flow edge corruption: the (intact) result is
                    // written, then control lands at the head of an
                    // arbitrary block of this function.
                    pc = code.block_start[(target % code.block_start.len() as u64) as usize] as usize;
                }
                if book.profile.is_none() {
                    break Ok(());
                }
            }
        };

        if outcome.is_ok() {
            let (block, ip) = code.pos[pc];
            (fr.block, fr.ip) = (BlockId(block), ip as usize);
        }
        stack.push(fr);
        (run.dyn_insts, run.fault_sites, state.sp) = (dyn_insts, sites, sp);
        outcome
    }

    /// Apply `spec` at its site, whose result `v` is `bits` wide. Returns
    /// the block a control-flow fault sends the frame to.
    #[cold]
    fn inject(&self, spec: FaultSpec, v: &mut u64, bits: u32, mem: &mut Memory) -> Option<u64> {
        match spec.effect {
            FaultEffect::Bits => {
                *v ^= 1u64 << (spec.bit % bits);
                if let Some(b2) = spec.second_bit {
                    *v ^= 1u64 << (b2 % bits);
                }
            }
            FaultEffect::Burst { width } => {
                for k in 0..width as u32 {
                    *v ^= 1u64 << ((spec.bit + k) % bits);
                }
            }
            // Condition corruption: the low bit is the one branches
            // consume.
            FaultEffect::Flags => *v ^= 1,
            FaultEffect::Mem { offset } => {
                // The result is intact; a memory cell at a deterministic
                // address takes the hit.
                let (lo, hi) = mem_fault_region(self.module, mem);
                let addr = lo + offset % (hi - lo);
                if let Ok(b) = mem.load(addr, 1) {
                    let _ = mem.store(addr, 1, b ^ (1u64 << (spec.bit % 8)));
                }
            }
            FaultEffect::Jump { target } => return Some(target),
        }
        None
    }
}

/// Translation state of one function: the pools its ops index into.
struct Translator<'a> {
    m: &'a Module,
    f: &'a Function,
    globals: &'a [u64],
    block_start: Vec<u32>,
    imms: Vec<u64>,
    args: Vec<Src>,
}

impl Translator<'_> {
    fn func(m: &Module, f: &Function, globals: &[u64]) -> CFunc {
        let start = |n: &mut u32, b: &Block| Some(std::mem::replace(n, *n + b.insts.len() as u32 + 1));
        let block_start = f.blocks.iter().scan(0, start).collect();
        let mut t = Translator {
            m,
            f,
            globals,
            block_start,
            imms: Vec::new(),
            args: Vec::new(),
        };
        let (mut ops, mut pos) = (Vec::new(), Vec::new());
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ip, &iid) in b.insts.iter().enumerate() {
                ops.push(f.insts.get(iid.index()).and_then(|data| t.inst(iid, data)).unwrap_or(TRAP));
                pos.push((bi as u32, ip as u32));
            }
            let kind = t.term(&b.term).unwrap_or(Kind::Unreachable);
            ops.push(COp { kind, ..TRAP });
            pos.push((bi as u32, b.insts.len() as u32));
        }
        if ops.is_empty() {
            // No blocks: a call traps on entry.
            (ops, pos, t.block_start) = (vec![TRAP], vec![(0, 0)], vec![0]);
        }
        let masks = f.insts.iter().map(|i| t.result_ty(i).map_or(0, Type::mask)).collect();
        let Translator { block_start, imms, args, .. } = t;
        CFunc { ops, imms, args, pos, block_start, masks }
    }

    fn result_ty(&self, i: &InstData) -> Option<Type> {
        i.result_ty(|c| self.m.functions.get(c.index()).and_then(|f| f.ret_ty))
    }

    fn src(&mut self, op: Op) -> Option<Src> {
        let (base, i) = match op {
            Op::Value(Value::Inst(i)) if i.index() < self.f.insts.len() => (0, i.0),
            Op::Value(Value::Param(p)) if (p as usize) < self.f.params.len() => (Src::PARAM, p),
            Op::Value(_) => return None,
            Op::Const(c) => (Src::IMM, self.imm(c.bits())),
            Op::Global(g) => (Src::IMM, self.imm(*self.globals.get(g.index())?)),
        };
        (i <= Src::INDEX).then_some(Src(base | i))
    }

    fn imm(&mut self, v: u64) -> u32 {
        self.imms.push(v);
        (self.imms.len() - 1).try_into().unwrap_or(u32::MAX)
    }

    fn target(&self, b: BlockId) -> Option<u32> {
        self.block_start.get(b.index()).copied()
    }

    fn inst(&mut self, iid: InstId, data: &InstData) -> Option<COp> {
        let ty = self.result_ty(data);
        let kind = match &data.kind {
            InstKind::Alloca { elem, count } => Kind::Alloca(elem.size() as u8, *count),
            InstKind::Load { ptr, ty } => {
                let load = if ty.size() == 1 { Kind::Load1 } else { Kind::Load8 };
                load(self.src(*ptr)?)
            }
            InstKind::Store { val, ptr, ty } => {
                let store = if ty.size() == 1 { Kind::Store1 } else { Kind::Store8 };
                let kind = store(self.src(*val)?, self.src(*ptr)?);
                return Some(COp { kind, dst: iid.0, shift: 64 - ty.bits() as u8, site: false });
            }
            InstKind::Bin { op, ty, lhs, rhs } if !op.is_float() || ty.is_float() => {
                Kind::Bin(*op, *ty, self.src(*lhs)?, self.src(*rhs)?)
            }
            InstKind::ICmp { pred, ty, lhs, rhs } => Kind::ICmp(*pred, *ty, self.src(*lhs)?, self.src(*rhs)?),
            InstKind::FCmp { pred, ty, lhs, rhs } if ty.is_float() => {
                Kind::FCmp(*pred, self.src(*lhs)?, self.src(*rhs)?)
            }
            InstKind::Cast { kind, from, to, val } if cast_defined(*kind, *from, *to) => {
                Kind::Cast(*kind, *from, *to, self.src(*val)?)
            }
            InstKind::Gep { base, index, elem } => Kind::Gep(self.src(*base)?, self.src(*index)?, elem.size() as u8),
            InstKind::Call { callee: Callee::Intrinsic(intr), args } => match (intr, &args[..]) {
                (Intrinsic::DetectError, _) => Kind::Detect,
                (Intrinsic::OutputI64, &[v]) => Kind::Output(TAG_I64, self.src(v)?),
                (Intrinsic::OutputF64, &[v]) => Kind::Output(TAG_F64, self.src(v)?),
                (Intrinsic::OutputByte, &[v]) => Kind::Output(TAG_BYTE, self.src(v)?),
                (&intr, &[a]) if intr.is_math() && intr.arity() == 1 => Kind::Math(intr, self.src(a)?, self.src(a)?),
                (&intr, &[a, b]) if intr.is_math() && intr.arity() == 2 => Kind::Math(intr, self.src(a)?, self.src(b)?),
                _ => return None,
            },
            InstKind::Call { callee: Callee::Func(callee), args } => {
                let callee_fn = self.m.functions.get(callee.index()).filter(|f| f.params.len() == args.len())?;
                let has_ret = callee_fn.ret_ty.is_some();
                let first = self.args.len() as u32;
                for &a in args {
                    let a = self.src(a)?;
                    self.args.push(a);
                }
                Kind::Call(callee.0, first, args.len().try_into().ok()?, has_ret)
            }
            // A float operation on a non-float type, a cast `ops` leaves
            // undefined.
            _ => return None,
        };
        let site = ty.is_some() && !matches!(kind, Kind::Alloca(..) | Kind::Call(..));
        let shift = ty.map_or(0, |t| 64 - t.bits() as u8);
        Some(COp { kind, dst: iid.0, shift, site })
    }

    fn term(&mut self, term: &Terminator) -> Option<Kind> {
        Some(match term {
            Terminator::Jmp { dest } => Kind::Jmp(self.target(*dest)?),
            Terminator::Br { cond, then_bb, else_bb } => {
                Kind::Br(self.src(*cond)?, self.target(*then_bb)?, self.target(*else_bb)?)
            }
            Terminator::Ret { val: None } => Kind::Ret(None),
            Terminator::Ret { val: Some(v) } => Kind::Ret(Some(self.src(*v)?)),
            Terminator::Unreachable => Kind::Unreachable,
        })
    }
}

/// Whether [`ops::eval_cast`] defines `kind` from `from` to `to`.
fn cast_defined(kind: CastKind, from: Type, to: Type) -> bool {
    match kind {
        CastKind::SiToFp => to.is_float(),
        CastKind::FpToSi => from.is_float(),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::inst::{BinOp, Intrinsic};
    use crate::interp::{ExecConfig, ExecStatus, Interpreter, TrapKind};
    use crate::module::{Function, Module};
    use crate::types::Type;
    use crate::value::{BlockId, FuncId, GlobalId, InstId, Op};
    use crate::verify::verify_module;

    /// The fast loop streams through the op array; keep an op in 24 bytes.
    #[test]
    fn ops_stay_compact() {
        assert!(std::mem::size_of::<super::COp>() <= 24);
    }

    /// `main` outputs 7, then runs what `bad` adds, then returns.
    fn main_with<T>(bad: impl FnOnce(&mut ModuleBuilder, &mut FuncBuilder) -> T) -> Module {
        let mut mb = ModuleBuilder::new("unverified");
        let mut fb = FuncBuilder::new("main", vec![], None);
        fb.output_i64(Op::ci64(7));
        bad(&mut mb, &mut fb);
        if !fb.is_terminated() {
            fb.ret(None);
        }
        mb.add_func(fb.finish());
        mb.finish()
    }

    /// `f(i64) -> i64`, whose body adds 1 to parameter `p`.
    fn callee(mb: &mut ModuleBuilder, p: u32) -> FuncId {
        let f = mb.declare_func("f", vec![Type::I64], Some(Type::I64));
        let mut fb = FuncBuilder::new("f", vec![Type::I64], Some(Type::I64));
        let v = fb.bin(BinOp::Add, Type::I64, Op::param(p), Op::ci64(1));
        fb.ret(Some(Op::inst(v)));
        mb.define_func(f, fb.finish());
        f
    }

    #[test]
    fn what_the_translator_refuses_traps_on_every_path() {
        let cases = [
            (
                "a parameter past the arity",
                main_with(|mb, fb| fb.call(callee(mb, 3), vec![Op::ci64(1)])),
            ),
            ("a call short of the arity", main_with(|mb, fb| fb.call(callee(mb, 0), vec![]))),
            ("an undefined global", main_with(|_, fb| fb.load(Type::I64, Op::Global(GlobalId(5))))),
            ("a branch target past the blocks", main_with(|_, fb| fb.jmp(BlockId(7)))),
            (
                "an intrinsic of the wrong arity",
                main_with(|_, fb| fb.intrinsic(Intrinsic::Sqrt, vec![])),
            ),
            (
                "an output of two values",
                main_with(|_, fb| fb.intrinsic(Intrinsic::OutputI64, vec![Op::ci64(1); 2])),
            ),
            ("an operand past the arena", main_with(|_, fb| fb.output_i64(Op::inst(InstId(99))))),
            (
                "a float add on integers",
                main_with(|_, fb| fb.bin(BinOp::FAdd, Type::I64, Op::ci64(1), Op::ci64(2))),
            ),
            (
                "a callee without blocks",
                main_with(|mb, fb| {
                    let g = Function {
                        name: "g".into(),
                        params: vec![],
                        ret_ty: None,
                        insts: vec![],
                        blocks: vec![],
                    };
                    fb.call(mb.add_func(g), vec![])
                }),
            ),
        ];
        let cfg = ExecConfig::default();
        let profiled = ExecConfig { profile: true, ..cfg.clone() };
        for (what, m) in &cases {
            assert!(verify_module(m).is_err(), "test premise: {what} is unverified");
            let interp = Interpreter::new(m);
            let runs = [
                ("plain", interp.run(&cfg, None)),
                ("profiled", interp.run(&profiled, None)),
                ("capture", interp.capture_snapshots(&cfg, 1).golden().clone()),
            ];
            for (path, r) in runs {
                assert_eq!(r.status, ExecStatus::Trapped(TrapKind::BadControl), "{what}: {path} run");
                assert_eq!(crate::interp::decode_output(&r.output), ["i64:7"], "{what}: {path} run");
            }
        }
    }
}
