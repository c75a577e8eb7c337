//! The IR layer's fast path. Each function is translated once into a flat
//! array of pre-decoded ops: operands resolved to frame slots or pooled
//! immediates, the result's width and fault-site bit precomputed, loads and
//! stores specialised by width, terminators holding op indices (a frame's
//! `(block, ip)` is op `block_start[block] + ip`). The loop over them keeps
//! the counters in locals and runs *armed* — one `sites == trap_site`
//! compare per fault site — until the injection is due, hands that one
//! iteration to `step()`, then resumes *disarmed*. What a verified module
//! never contains (an operand, callee or target out of range, an intrinsic
//! of the wrong arity) becomes [`Kind::Step`] and runs through `step()` too,
//! so translation never fails.

use crate::inst::{BinOp, Callee, CastKind, FPred, IPred, InstData, InstKind, Intrinsic, Terminator};
use crate::interp::eval::{FramePool, IrLayer};
use crate::interp::memory::TrapKind;
use crate::interp::substrate::Start;
use crate::interp::{ops, ExecConfig, ExecStatus, FaultSpec, TAG_BYTE, TAG_F64, TAG_I64};
use crate::module::{Block, Function, Module};
use crate::types::Type;
use crate::value::{BlockId, FuncId, InstId, Op, Value};

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
    Load2(Src),
    Load4(Src),
    Load8(Src),
    Store1(Src, Src),
    Store2(Src, Src),
    Store4(Src, Src),
    Store8(Src, Src),
    Bin(BinOp, Type, Src, Src),
    ICmp(IPred, Type, Src, Src),
    FCmp(FPred, Type, Src, Src),
    Cast(CastKind, Type, Type, Src),
    /// Base, index, element size.
    Gep(Src, Src, u8),
    Select(Src, Src, Src),
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
    Unreachable,
    /// Executed by `step()`.
    Step,
}

#[derive(Debug)]
struct COp {
    kind: Kind,
    /// Result slot (the instruction's arena index).
    dst: u32,
    /// The result's canonicalisation mask is `u64::MAX >> shift` (the
    /// stored type's for a store).
    shift: u8,
    /// Whether the op is an IR fault site.
    site: bool,
}

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

/// A module's functions, translated.
#[derive(Debug)]
pub(crate) struct Compiled(Vec<CFunc>);

impl Compiled {
    pub(crate) fn build(m: &Module, globals: &[u64]) -> Compiled {
        Compiled(m.functions.iter().map(|f| Translator::func(m, f, globals)).collect())
    }

    /// Run from `run` until it ends (`Err` with its status) or the next op
    /// must go through `step()` (`Ok`, with `run` at that op). `ARMED`
    /// stops before `fault`'s site.
    pub(crate) fn run<const ARMED: bool>(
        &self,
        config: &ExecConfig,
        fault: Option<FaultSpec>,
        run: &mut Start<IrLayer>,
        pool: &mut FramePool,
    ) -> Result<(), ExecStatus> {
        use ExecStatus::Trapped;
        let (max_dyn, max_out, max_depth) = (config.max_dyn_insts, config.max_output, config.max_call_depth);
        let trap_site = fault.map_or(0, |f| f.site_index);
        let Start { mem, output, state, .. } = run;
        let stack = &mut state.stack;
        let stack_limit = mem.stack_limit();
        let (mut dyn_insts, mut sites, mut sp) = (run.dyn_insts, run.fault_sites, state.sp);
        let mut fr = stack.pop().expect("nonempty call stack");
        let mut code = &self.0[fr.func.index()];
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
            if ARMED && op.site && sites == trap_site {
                break Ok(());
            }
            dyn_insts += 1;
            if dyn_insts > max_dyn {
                break Err(Trapped(TrapKind::InstLimit));
            }
            pc += 1;
            let v = match op.kind {
                Kind::Alloca(size, count) => {
                    sp = sp.saturating_sub(size as u64 * count as u64) & !(size as u64 - 1);
                    if sp < stack_limit {
                        break Err(Trapped(TrapKind::StackOverflow));
                    }
                    sp
                }
                Kind::Load1(ptr) => or_trap!(mem.load_w::<1>(rd!(ptr))),
                Kind::Load2(ptr) => or_trap!(mem.load_w::<2>(rd!(ptr))),
                Kind::Load4(ptr) => or_trap!(mem.load_w::<4>(rd!(ptr))),
                Kind::Load8(ptr) => or_trap!(mem.load_w::<8>(rd!(ptr))),
                Kind::Store1(val, ptr) => store!(1, val, ptr, op.shift),
                Kind::Store2(val, ptr) => store!(2, val, ptr, op.shift),
                Kind::Store4(val, ptr) => store!(4, val, ptr, op.shift),
                Kind::Store8(val, ptr) => store!(8, val, ptr, op.shift),
                Kind::Bin(bin, ty, a, b) => {
                    let (a, b) = (rd!(a), rd!(b));
                    use BinOp as B;
                    or_trap!(
                        folded!(bin, B[Add, Sub, Mul, SDiv, UDiv, SRem, URem, And, Or, Xor, Shl, LShr, AShr, FAdd, FSub, FMul, FDiv], |o| ops::eval_bin(o, ty, a, b))
                    )
                }
                Kind::ICmp(pred, ty, a, b) => {
                    let (a, b) = (rd!(a), rd!(b));
                    folded!(pred, IPred[Eq, Ne, Slt, Sle, Sgt, Sge, Ult, Ule, Ugt, Uge], |p| ops::eval_icmp(p, ty, a, b))
                }
                Kind::FCmp(pred, ty, a, b) => ops::eval_fcmp(pred, ty, rd!(a), rd!(b)),
                Kind::Cast(kind, from, to, v) => {
                    let v = rd!(v);
                    use CastKind as C;
                    folded!(kind, C[Zext, Sext, Trunc, SiToFp, FpToSi, FpCast, Bitcast], |k| ops::eval_cast(k, from, to, v))
                }
                Kind::Gep(base, index, size) => {
                    rd!(base).wrapping_add_signed((rd!(index) as i64).wrapping_mul(size as i64))
                }
                Kind::Select(c, t, f) => rd!(if rd!(c) & 1 == 1 { t } else { f }),
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
                    let slots = self.0[callee as usize].masks.len();
                    let mut frame = pool.frame(FuncId(callee), slots, sp, has_ret.then_some(InstId(op.dst)));
                    for &a in &code.args[args as usize..][..nargs as usize] {
                        frame.params.push(rd!(a));
                    }
                    let (block, ip) = code.pos[pc];
                    code = &self.0[callee as usize];
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
                    code = &self.0[fr.func.index()];
                    if let (Some(dest), Some(v)) = (ret_dest, rv) {
                        // Not a fault site: calls are not duplicable.
                        fr.values[dest.index()] = v & code.masks[dest.index()];
                    }
                    pc = code.pc(fr.block, fr.ip);
                    continue;
                }
                Kind::Unreachable => break Err(Trapped(TrapKind::BadControl)),
                Kind::Step => {
                    dyn_insts -= 1;
                    pc -= 1;
                    break Ok(());
                }
            };
            fr.values[op.dst as usize] = v & (u64::MAX >> op.shift);
            sites += op.site as u64;
        };

        if outcome.is_ok() {
            let (block, ip) = code.pos[pc];
            (fr.block, fr.ip) = (BlockId(block), ip as usize);
        }
        stack.push(fr);
        (run.dyn_insts, run.fault_sites, state.sp) = (dyn_insts, sites, sp);
        outcome
    }
}

/// Translation state of one function: the pools its ops index into.
struct Translator<'a> {
    m: &'a Module,
    globals: &'a [u64],
    block_start: Vec<u32>,
    imms: Vec<u64>,
    args: Vec<Src>,
}

impl Translator<'_> {
    fn func(m: &Module, f: &Function, globals: &[u64]) -> CFunc {
        let start = |n: &mut u32, b: &Block| Some(std::mem::replace(n, *n + b.insts.len() as u32 + 1));
        let block_start = f.blocks.iter().scan(0, start).collect();
        let mut t = Translator { m, globals, block_start, imms: Vec::new(), args: Vec::new() };
        let (mut ops, mut pos) = (Vec::new(), Vec::new());
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ip, &iid) in b.insts.iter().enumerate() {
                let step = COp { kind: Kind::Step, dst: 0, shift: 0, site: false };
                ops.push(f.insts.get(iid.index()).and_then(|data| t.inst(iid, data)).unwrap_or(step));
                pos.push((bi as u32, ip as u32));
            }
            let kind = t.term(&b.term).unwrap_or(Kind::Step);
            ops.push(COp { kind, dst: 0, shift: 0, site: false });
            pos.push((bi as u32, b.insts.len() as u32));
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
            Op::Value(Value::Inst(i)) => (0, i.0),
            Op::Value(Value::Param(p)) => (Src::PARAM, p),
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
                let width = [Kind::Load1, Kind::Load2, Kind::Load4, Kind::Load8];
                width[ty.size().trailing_zeros() as usize](self.src(*ptr)?)
            }
            InstKind::Store { val, ptr, ty } => {
                let width = [Kind::Store1, Kind::Store2, Kind::Store4, Kind::Store8];
                let kind = width[ty.size().trailing_zeros() as usize](self.src(*val)?, self.src(*ptr)?);
                return Some(COp { kind, dst: iid.0, shift: 64 - ty.bits() as u8, site: false });
            }
            InstKind::Bin { op, ty, lhs, rhs } => Kind::Bin(*op, *ty, self.src(*lhs)?, self.src(*rhs)?),
            InstKind::ICmp { pred, ty, lhs, rhs } => Kind::ICmp(*pred, *ty, self.src(*lhs)?, self.src(*rhs)?),
            InstKind::FCmp { pred, ty, lhs, rhs } => Kind::FCmp(*pred, *ty, self.src(*lhs)?, self.src(*rhs)?),
            InstKind::Cast { kind, from, to, val } => Kind::Cast(*kind, *from, *to, self.src(*val)?),
            InstKind::Gep { base, index, elem } => Kind::Gep(self.src(*base)?, self.src(*index)?, elem.size() as u8),
            InstKind::Select { cond, t, f, .. } => Kind::Select(self.src(*cond)?, self.src(*t)?, self.src(*f)?),
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
                let has_ret = self.m.functions.get(callee.index())?.ret_ty.is_some();
                let first = self.args.len() as u32;
                for &a in args {
                    let a = self.src(a)?;
                    self.args.push(a);
                }
                Kind::Call(callee.0, first, args.len().try_into().ok()?, has_ret)
            }
        };
        // As in `step()`: a site is a result other than an `alloca`'s
        // address or a call's return (written at `Ret`, not a site).
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

#[cfg(test)]
mod tests {
    /// The fast loop streams through the op array; keep an op in 24 bytes.
    #[test]
    fn ops_stay_compact() {
        assert!(std::mem::size_of::<super::COp>() <= 24);
    }
}
