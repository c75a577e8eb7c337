//! Instruction selection + fast register allocation (one pass, `-O0` style).
//!
//! Every IR value has a stack home ([`FrameLayout`]); operands are loaded
//! into scratch registers on demand with an intra-block [`RegCache`], and
//! results are eagerly stored back. Comparisons that immediately feed the
//! block terminator are fused into `cmp`+`jcc` (like LLVM FastISel);
//! everything else materializes through `set<cc>` and `test`.
//!
//! The five cross-layer penetration sites of the paper all *emerge* here:
//! - store penetration: `OperandReload` movs feeding a `mov [mem], reg`,
//! - branch penetration: the `test` re-establishing flags for an unfused
//!   branch,
//! - comparison penetration: constant conditions left by the backend's
//!   compare folding ([`crate::fold`]),
//! - call penetration: `ArgMove`s into the argument registers,
//! - mapping penetration: prologue/epilogue `push`/`pop`/`ret`.

use crate::frame::FrameLayout;
use crate::mir::{
    AInst, AKind, AOp, AluOp, AsmFunc, AsmProgram, AsmRole, MathKind, MemRef, OutKind, Reg, ShiftOp, SseOp, CC,
};
use crate::regcache::RegCache;
use flowery_ir::inst::{BinOp, Callee, CastKind, FPred, IPred, InstKind, Intrinsic, Terminator};
use flowery_ir::interp::Memory;
use flowery_ir::module::{Function, Module};
use flowery_ir::types::Type;
use flowery_ir::value::{BlockId, FuncId, InstId, Op, Value};
use flowery_ir::IrRole;

/// Backend configuration knobs (each is an ablation axis; see DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct BackendConfig {
    /// Intra-block register caching (off = every operand reloads).
    pub reg_cache: bool,
    /// Model the LLVM compare folding that causes comparison penetration.
    pub fold_compares: bool,
    /// Fuse `icmp`+`br` into `cmp`+`jcc` when adjacent and single-use.
    pub fuse_cmp_branch: bool,
    /// Number of allocatable scratch GPRs (4..=9; lowering needs up to four
    /// simultaneously live scratch registers). Smaller pools model
    /// register-scarce ISAs: more cache evictions, more reload `mov`s,
    /// more store-penetration surface (paper §8's RISC-V/ARM conjecture).
    pub gpr_pool: usize,
}

impl Default for BackendConfig {
    fn default() -> BackendConfig {
        BackendConfig {
            reg_cache: true,
            fold_compares: true,
            fuse_cmp_branch: true,
            gpr_pool: Reg::GPR_POOL.len(),
        }
    }
}

impl BackendConfig {
    /// The allocatable GPR slice for this configuration.
    pub(crate) fn gprs(&self) -> &'static [Reg] {
        let n = self.gpr_pool.clamp(4, Reg::GPR_POOL.len());
        &Reg::GPR_POOL[..n]
    }
}

/// Compile a verified module to a linked machine program.
///
/// The input module is not mutated; backend folding happens on a clone
/// (which is why IR-level fault injection on the protected module still
/// sees the full protection, while the assembly does not — the paper's
/// central observation).
pub fn compile_module(m: &Module, cfg: &BackendConfig) -> AsmProgram {
    let mut work = m.clone();
    if cfg.fold_compares {
        crate::fold::fold_redundant_compares(&mut work);
    }
    let global_addrs = Memory::layout_globals(&work);

    let mut insts: Vec<AInst> = Vec::new();
    let mut funcs: Vec<AsmFunc> = Vec::new();
    let mut call_fixups: Vec<(usize, FuncId)> = Vec::new();

    for (fi, f) in work.functions.iter().enumerate() {
        let fid = FuncId(fi as u32);
        let entry = insts.len() as u32;
        let mut lower = FnLower::new(&work, fid, f, cfg, &global_addrs);
        lower.run();
        let FnLower { code, block_fix, call_fix, block_start, frame, .. } = lower;
        let base = insts.len();
        insts.extend(code);
        for (pos, bb) in block_fix {
            let target = base as u32 + block_start[bb.index()];
            match &mut insts[base + pos].kind {
                AKind::Jcc { target: t, .. } | AKind::Jmp { target: t } => *t = target,
                other => unreachable!("block fixup on {other:?}"),
            }
        }
        for (pos, callee) in call_fix {
            call_fixups.push((base + pos, callee));
        }
        funcs.push(AsmFunc {
            name: f.name.clone(),
            ir_id: fid,
            entry,
            end: insts.len() as u32,
            frame_size: frame.size,
        });
    }

    for (pos, callee) in call_fixups {
        let target = funcs[callee.index()].entry;
        match &mut insts[pos].kind {
            AKind::Call { target: t, .. } => *t = target,
            other => unreachable!("call fixup on {other:?}"),
        }
    }

    let main_entry = funcs[work.main_func().expect("module has @main").index()].entry;
    let static_sites = insts.iter().filter(|i| i.kind.is_fault_site()).count();
    AsmProgram { insts, funcs, main_entry, static_sites }
}

struct FnLower<'m> {
    m: &'m Module,
    fid: FuncId,
    f: &'m Function,
    cfg: &'m BackendConfig,
    global_addrs: &'m [u64],
    frame: FrameLayout,
    code: Vec<AInst>,
    block_fix: Vec<(usize, BlockId)>,
    call_fix: Vec<(usize, FuncId)>,
    block_start: Vec<u32>,
    cache: RegCache,
    use_counts: Vec<u32>,
    cur_prov: Option<(FuncId, InstId)>,
    cur_role: IrRole,
    /// A fused compare waiting for the terminator: (icmp id, cc).
    pending_cmp: Option<(InstId, CC)>,
}

impl<'m> FnLower<'m> {
    fn new(
        m: &'m Module,
        fid: FuncId,
        f: &'m Function,
        cfg: &'m BackendConfig,
        global_addrs: &'m [u64],
    ) -> FnLower<'m> {
        let frame = FrameLayout::compute(m, fid, f);
        let mut use_counts = vec![0u32; f.insts.len()];
        for block in &f.blocks {
            for &iid in &block.insts {
                for op in f.inst(iid).operands() {
                    if let Some(d) = op.as_inst() {
                        use_counts[d.index()] += 1;
                    }
                }
            }
            if let Some(op) = block.term.operand() {
                if let Some(d) = op.as_inst() {
                    use_counts[d.index()] += 1;
                }
            }
        }
        FnLower {
            m,
            fid,
            f,
            cfg,
            global_addrs,
            frame,
            code: Vec::new(),
            block_fix: Vec::new(),
            call_fix: Vec::new(),
            block_start: vec![0; f.blocks.len()],
            cache: RegCache::new(cfg.reg_cache),
            use_counts,
            cur_prov: None,
            cur_role: IrRole::App,
            pending_cmp: None,
        }
    }

    fn emit(&mut self, kind: AKind, role: AsmRole) -> usize {
        self.code
            .push(AInst { kind, role, prov: self.cur_prov, ir_role: self.cur_role });
        self.code.len() - 1
    }

    fn run(&mut self) {
        // Prologue.
        self.cur_prov = None;
        self.cur_role = IrRole::App;
        self.emit(AKind::Push { src: AOp::Reg(Reg::Rbp) }, AsmRole::Prologue);
        self.emit(AKind::Mov { w: 8, dst: AOp::Reg(Reg::Rbp), src: AOp::Reg(Reg::Rsp) }, AsmRole::Prologue);
        if self.frame.size > 0 {
            self.emit(
                AKind::Alu {
                    op: AluOp::Sub,
                    w: 8,
                    dst: Reg::Rsp,
                    src: AOp::Imm(self.frame.size as i64),
                },
                AsmRole::Prologue,
            );
        }
        // Parameter spills (SysV-ish: ints and floats counted separately).
        let (mut ints, mut floats) = (0usize, 0usize);
        for (i, &pty) in self.f.params.iter().enumerate() {
            let slot = MemRef::rbp(self.frame.param(i as u32));
            if pty.is_float() {
                let r = Reg::FLOAT_ARGS[floats];
                floats += 1;
                self.emit(AKind::MovSd { w: 8, dst: AOp::Mem(slot), src: AOp::Reg(r) }, AsmRole::ParamSpill);
            } else {
                let r = Reg::INT_ARGS[ints];
                ints += 1;
                self.emit(AKind::Mov { w: 8, dst: AOp::Mem(slot), src: AOp::Reg(r) }, AsmRole::ParamSpill);
            }
        }

        for (bi, block) in self.f.blocks.iter().enumerate() {
            self.block_start[bi] = self.code.len() as u32;
            self.cache.flush();
            self.pending_cmp = None;
            for (pos, &iid) in block.insts.iter().enumerate() {
                let is_last = pos + 1 == block.insts.len();
                self.lower_inst(iid, is_last, &block.term);
            }
            self.lower_terminator(&block.term);
        }
    }

    // ---- operand plumbing ------------------------------------------------

    fn slot_of(&self, v: Value) -> MemRef {
        match v {
            Value::Param(i) => MemRef::rbp(self.frame.param(i)),
            Value::Inst(id) => MemRef::rbp(self.frame.slot(id)),
        }
    }

    fn op_ty(&self, op: Op) -> Type {
        self.m.op_ty(self.fid, op).expect("operand has a type")
    }

    fn take_gpr(&mut self, avoid: &[Reg]) -> Reg {
        self.cache.take(self.cfg.gprs(), avoid)
    }

    fn take_xmm(&mut self, avoid: &[Reg]) -> Reg {
        self.cache.take(&Reg::XMM_POOL, avoid)
    }

    /// Load an integer/pointer operand into a GPR. Reloads from the stack
    /// home (or materializes a constant) on cache miss.
    fn load_gpr(&mut self, op: Op, reload_role: AsmRole, avoid: &[Reg]) -> Reg {
        match op {
            Op::Const(c) => {
                let r = self.take_gpr(avoid);
                self.emit(AKind::Mov { w: 8, dst: AOp::Reg(r), src: AOp::Imm(c.bits() as i64) }, reload_role);
                r
            }
            Op::Global(g) => {
                let r = self.take_gpr(avoid);
                let addr = self.global_addrs[g.index()];
                self.emit(AKind::Lea { dst: r, mem: MemRef::abs(addr) }, AsmRole::AddrCompute);
                r
            }
            Op::Value(v) => {
                if let Some(r) = self.cache.lookup(v) {
                    if !avoid.contains(&r) {
                        return r;
                    }
                }
                let r = self.take_gpr(avoid);
                let w = self.op_ty(op).size() as u8;
                self.emit(AKind::Mov { w, dst: AOp::Reg(r), src: AOp::Mem(self.slot_of(v)) }, reload_role);
                self.cache.bind(r, v);
                r
            }
        }
    }

    /// Load a float operand into an XMM register.
    fn load_xmm(&mut self, op: Op, reload_role: AsmRole, avoid: &[Reg]) -> Reg {
        match op {
            Op::Const(c) => {
                // Models a constant-pool load.
                let r = self.take_xmm(avoid);
                self.emit(AKind::MovSd { w: 8, dst: AOp::Reg(r), src: AOp::Imm(c.bits() as i64) }, reload_role);
                r
            }
            Op::Global(_) => unreachable!("globals are pointers, not floats"),
            Op::Value(v) => {
                if let Some(r) = self.cache.lookup(v) {
                    if !avoid.contains(&r) {
                        return r;
                    }
                }
                let r = self.take_xmm(avoid);
                let w = self.op_ty(op).size() as u8;
                self.emit(AKind::MovSd { w, dst: AOp::Reg(r), src: AOp::Mem(self.slot_of(v)) }, reload_role);
                self.cache.bind(r, v);
                r
            }
        }
    }

    /// An ALU right-hand operand: a small immediate if possible, else a
    /// register.
    fn rhs_operand(&mut self, op: Op, avoid: &[Reg]) -> (AOp, Option<Reg>) {
        if let Op::Const(c) = op {
            let bits = c.bits();
            if (bits as i64) >= i32::MIN as i64 && (bits as i64) <= i32::MAX as i64 {
                return (AOp::Imm(bits as i64), None);
            }
        }
        let r = self.load_gpr(op, AsmRole::OperandReload, avoid);
        (AOp::Reg(r), Some(r))
    }

    /// Store `dst` (holding the result of `iid`) to its home and cache it.
    fn finish_gpr(&mut self, iid: InstId, dst: Reg, role: AsmRole) {
        let w = self.m.result_ty(self.fid, iid).expect("result").size() as u8;
        let slot = MemRef::rbp(self.frame.slot(iid));
        self.emit(AKind::Mov { w, dst: AOp::Mem(slot), src: AOp::Reg(dst) }, role);
        self.cache.bind(dst, Value::Inst(iid));
    }

    fn finish_xmm(&mut self, iid: InstId, dst: Reg, role: AsmRole) {
        let w = self.m.result_ty(self.fid, iid).expect("result").size() as u8;
        let slot = MemRef::rbp(self.frame.slot(iid));
        self.emit(AKind::MovSd { w, dst: AOp::Mem(slot), src: AOp::Reg(dst) }, role);
        self.cache.bind(dst, Value::Inst(iid));
    }

    // ---- instruction lowering --------------------------------------------

    fn lower_inst(&mut self, iid: InstId, is_last: bool, term: &Terminator) {
        let inst = self.f.inst(iid).clone();
        self.cur_prov = Some((self.fid, iid));
        self.cur_role = inst.role;
        self.pending_cmp = None;

        match &inst.kind {
            InstKind::Alloca { .. } => {
                let dst = self.take_gpr(&[]);
                let disp = self.frame.alloca(iid);
                self.emit(AKind::Lea { dst, mem: MemRef::rbp(disp) }, AsmRole::AddrCompute);
                self.finish_gpr(iid, dst, AsmRole::ResultSpill);
            }
            InstKind::Load { ptr, ty } => {
                let p = self.load_gpr(*ptr, AsmRole::OperandReload, &[]);
                let mem = MemRef { base: Some(p), disp: 0 };
                if ty.is_float() {
                    let dst = self.take_xmm(&[]);
                    self.emit(
                        AKind::MovSd { w: ty.size() as u8, dst: AOp::Reg(dst), src: AOp::Mem(mem) },
                        AsmRole::Compute,
                    );
                    self.finish_xmm(iid, dst, AsmRole::ResultSpill);
                } else {
                    let dst = self.take_gpr(&[p]);
                    self.emit(
                        AKind::Mov { w: ty.size() as u8, dst: AOp::Reg(dst), src: AOp::Mem(mem) },
                        AsmRole::Compute,
                    );
                    self.finish_gpr(iid, dst, AsmRole::ResultSpill);
                }
            }
            InstKind::Store { val, ptr, ty } => {
                // The operand reload feeding this store is the paper's store
                // penetration site when `val`'s definition is in another
                // block (checker-split), because the cache was flushed.
                if ty.is_float() {
                    let v = self.load_xmm(*val, AsmRole::OperandReload, &[]);
                    let p = self.load_gpr(*ptr, AsmRole::OperandReload, &[]);
                    let mem = MemRef { base: Some(p), disp: 0 };
                    self.emit(
                        AKind::MovSd { w: ty.size() as u8, dst: AOp::Mem(mem), src: AOp::Reg(v) },
                        AsmRole::Compute,
                    );
                } else {
                    let v = self.load_gpr(*val, AsmRole::OperandReload, &[]);
                    let p = self.load_gpr(*ptr, AsmRole::OperandReload, &[v]);
                    let mem = MemRef { base: Some(p), disp: 0 };
                    self.emit(
                        AKind::Mov { w: ty.size() as u8, dst: AOp::Mem(mem), src: AOp::Reg(v) },
                        AsmRole::Compute,
                    );
                }
            }
            InstKind::Bin { op, ty, lhs, rhs } => {
                if op.is_float() {
                    self.lower_fbin(iid, *op, *lhs, *rhs);
                } else {
                    self.lower_ibin(iid, *op, *ty, *lhs, *rhs);
                }
            }
            InstKind::ICmp { pred, ty, lhs, rhs } => {
                let a = self.load_gpr(*lhs, AsmRole::OperandReload, &[]);
                let (rhs_op, _r) = self.rhs_operand(*rhs, &[a]);
                self.emit(AKind::Cmp { w: ty.size() as u8, lhs: AOp::Reg(a), rhs: rhs_op }, AsmRole::Compute);
                let cc = icmp_cc(*pred);
                if self.fusable(iid, is_last, term) {
                    self.pending_cmp = Some((iid, cc));
                    return; // do not clear pending below
                }
                let dst = self.take_gpr(&[a]);
                self.emit(AKind::SetCC { cc, dst }, AsmRole::FlagMaterialize);
                self.finish_gpr(iid, dst, AsmRole::ResultSpill);
            }
            InstKind::FCmp { pred, lhs, rhs, .. } => {
                let a = self.load_xmm(*lhs, AsmRole::OperandReload, &[]);
                let b = self.load_xmm(*rhs, AsmRole::OperandReload, &[a]);
                self.emit(AKind::Ucomi { lhs: a, rhs: AOp::Reg(b) }, AsmRole::Compute);
                let cc = fcmp_cc(*pred);
                if self.fusable(iid, is_last, term) {
                    self.pending_cmp = Some((iid, cc));
                    return;
                }
                let dst = self.take_gpr(&[]);
                self.emit(AKind::SetCC { cc, dst }, AsmRole::FlagMaterialize);
                self.finish_gpr(iid, dst, AsmRole::ResultSpill);
            }
            InstKind::Cast { kind, from, to, val } => self.lower_cast(iid, *kind, *from, *to, *val),
            InstKind::Gep { base, index, elem } => {
                let b = self.load_gpr(*base, AsmRole::OperandReload, &[]);
                if let Op::Const(c) = index {
                    let disp = (c.bits() as i64).wrapping_mul(elem.size() as i64);
                    let dst = self.take_gpr(&[b]);
                    self.emit(AKind::Lea { dst, mem: MemRef { base: Some(b), disp } }, AsmRole::AddrCompute);
                    self.finish_gpr(iid, dst, AsmRole::ResultSpill);
                } else {
                    let i = self.load_gpr(*index, AsmRole::OperandReload, &[b]);
                    let dst = self.take_gpr(&[b, i]);
                    self.emit(AKind::Mov { w: 8, dst: AOp::Reg(dst), src: AOp::Reg(i) }, AsmRole::AddrCompute);
                    let size = elem.size();
                    if size > 1 {
                        if size.is_power_of_two() {
                            self.emit(
                                AKind::Shift {
                                    op: ShiftOp::Shl,
                                    w: 8,
                                    dst,
                                    amt: AOp::Imm(size.trailing_zeros() as i64),
                                },
                                AsmRole::AddrCompute,
                            );
                        } else {
                            self.emit(
                                AKind::Alu { op: AluOp::Imul, w: 8, dst, src: AOp::Imm(size as i64) },
                                AsmRole::AddrCompute,
                            );
                        }
                    }
                    self.emit(AKind::Alu { op: AluOp::Add, w: 8, dst, src: AOp::Reg(b) }, AsmRole::AddrCompute);
                    self.finish_gpr(iid, dst, AsmRole::ResultSpill);
                }
            }
            InstKind::Select { ty, cond, t, f } => {
                let c = self.load_gpr(*cond, AsmRole::OperandReload, &[]);
                if ty.is_float() {
                    // Branchless float select via GPR bits.
                    let tv = self.load_xmm(*t, AsmRole::OperandReload, &[]);
                    let fv = self.load_xmm(*f, AsmRole::OperandReload, &[tv]);
                    let tg = self.take_gpr(&[c]);
                    self.emit(AKind::MovQ { w: 8, dst: tg, src: tv }, AsmRole::Compute);
                    let fg = self.take_gpr(&[c, tg]);
                    self.emit(AKind::MovQ { w: 8, dst: fg, src: fv }, AsmRole::Compute);
                    self.emit(AKind::Test { w: 1, lhs: AOp::Reg(c), rhs: AOp::Imm(1) }, AsmRole::Compute);
                    self.emit(AKind::Cmov { cc: CC::Ne, w: 8, dst: fg, src: AOp::Reg(tg) }, AsmRole::Compute);
                    let dst = self.take_xmm(&[]);
                    self.emit(AKind::MovQ { w: 8, dst, src: fg }, AsmRole::Compute);
                    self.finish_xmm(iid, dst, AsmRole::ResultSpill);
                } else {
                    let fv = self.load_gpr(*f, AsmRole::OperandReload, &[c]);
                    let dst = self.take_gpr(&[c, fv]);
                    self.emit(AKind::Mov { w: 8, dst: AOp::Reg(dst), src: AOp::Reg(fv) }, AsmRole::Compute);
                    let (t_op, _tr) = self.rhs_operand(*t, &[c, dst]);
                    let t_op = match t_op {
                        AOp::Imm(_) => {
                            let r = self.load_gpr(*t, AsmRole::OperandReload, &[c, dst]);
                            AOp::Reg(r)
                        }
                        other => other,
                    };
                    self.emit(AKind::Test { w: 1, lhs: AOp::Reg(c), rhs: AOp::Imm(1) }, AsmRole::Compute);
                    self.emit(AKind::Cmov { cc: CC::Ne, w: 8, dst, src: t_op }, AsmRole::Compute);
                    self.finish_gpr(iid, dst, AsmRole::ResultSpill);
                }
            }
            InstKind::Call { callee, args } => match callee {
                Callee::Intrinsic(intr) => self.lower_intrinsic(iid, *intr, args),
                Callee::Func(callee_id) => self.lower_call(iid, *callee_id, args),
            },
        }
        self.pending_cmp = None;
    }

    fn lower_ibin(&mut self, iid: InstId, op: BinOp, ty: Type, lhs: Op, rhs: Op) {
        let w = ty.size() as u8;
        match op {
            BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem => {
                let signed = matches!(op, BinOp::SDiv | BinOp::SRem);
                self.cache.invalidate_reg(Reg::Rax);
                self.cache.invalidate_reg(Reg::Rdx);
                let a = self.load_gpr(lhs, AsmRole::OperandReload, &[Reg::Rax, Reg::Rdx]);
                if signed && w < 8 {
                    self.emit(AKind::MovSx { wd: 8, ws: w, dst: Reg::Rax, src: AOp::Reg(a) }, AsmRole::Compute);
                } else {
                    self.emit(AKind::Mov { w: 8, dst: AOp::Reg(Reg::Rax), src: AOp::Reg(a) }, AsmRole::Compute);
                }
                let d = self.load_gpr(rhs, AsmRole::OperandReload, &[Reg::Rax, Reg::Rdx, a]);
                if signed && w < 8 {
                    self.emit(AKind::MovSx { wd: 8, ws: w, dst: d, src: AOp::Reg(d) }, AsmRole::Compute);
                    self.cache.invalidate_reg(d);
                }
                if signed {
                    self.emit(AKind::Cqo { w: 8 }, AsmRole::Compute);
                } else {
                    self.emit(AKind::ZeroRdx, AsmRole::Compute);
                }
                self.emit(AKind::Div { w: 8, signed, src: AOp::Reg(d) }, AsmRole::Compute);
                let res = if matches!(op, BinOp::SDiv | BinOp::UDiv) {
                    Reg::Rax
                } else {
                    Reg::Rdx
                };
                if w < 8 {
                    // Re-canonicalize at width (e.g. `mov eax, eax`).
                    self.emit(AKind::Mov { w, dst: AOp::Reg(res), src: AOp::Reg(res) }, AsmRole::Compute);
                }
                self.cache.invalidate_reg(Reg::Rax);
                self.cache.invalidate_reg(Reg::Rdx);
                self.finish_gpr(iid, res, AsmRole::ResultSpill);
            }
            BinOp::Shl | BinOp::LShr | BinOp::AShr => {
                let sop = match op {
                    BinOp::Shl => ShiftOp::Shl,
                    BinOp::LShr => ShiftOp::Shr,
                    _ => ShiftOp::Sar,
                };
                let a = self.load_gpr(lhs, AsmRole::OperandReload, &[Reg::Rcx]);
                let dst = self.take_gpr(&[a, Reg::Rcx]);
                self.emit(AKind::Mov { w: 8, dst: AOp::Reg(dst), src: AOp::Reg(a) }, AsmRole::Compute);
                let amt = if let Op::Const(c) = rhs {
                    AOp::Imm((c.bits() & 63) as i64)
                } else {
                    self.cache.invalidate_reg(Reg::Rcx);
                    let src = if let Some(r) = self.cache.lookup_value_reg(rhs) {
                        AOp::Reg(r)
                    } else {
                        AOp::Mem(self.slot_of(match rhs {
                            Op::Value(v) => v,
                            _ => unreachable!("const handled above"),
                        }))
                    };
                    self.emit(AKind::Mov { w: 8, dst: AOp::Reg(Reg::Rcx), src }, AsmRole::OperandReload);
                    AOp::Reg(Reg::Rcx)
                };
                self.emit(AKind::Shift { op: sop, w, dst, amt }, AsmRole::Compute);
                self.finish_gpr(iid, dst, AsmRole::ResultSpill);
            }
            _ => {
                let aop = match op {
                    BinOp::Add => AluOp::Add,
                    BinOp::Sub => AluOp::Sub,
                    BinOp::Mul => AluOp::Imul,
                    BinOp::And => AluOp::And,
                    BinOp::Or => AluOp::Or,
                    BinOp::Xor => AluOp::Xor,
                    _ => unreachable!(),
                };
                let a = self.load_gpr(lhs, AsmRole::OperandReload, &[]);
                let (rhs_op, rr) = self.rhs_operand(rhs, &[a]);
                let mut avoid = vec![a];
                avoid.extend(rr);
                let dst = self.take_gpr(&avoid);
                self.emit(AKind::Mov { w: 8, dst: AOp::Reg(dst), src: AOp::Reg(a) }, AsmRole::Compute);
                self.emit(AKind::Alu { op: aop, w, dst, src: rhs_op }, AsmRole::Compute);
                self.finish_gpr(iid, dst, AsmRole::ResultSpill);
            }
        }
    }

    fn lower_fbin(&mut self, iid: InstId, op: BinOp, lhs: Op, rhs: Op) {
        let sse = match op {
            BinOp::FAdd => SseOp::AddSd,
            BinOp::FSub => SseOp::SubSd,
            BinOp::FMul => SseOp::MulSd,
            BinOp::FDiv => SseOp::DivSd,
            other => unreachable!("float op {other:?}"),
        };
        let a = self.load_xmm(lhs, AsmRole::OperandReload, &[]);
        let b = self.load_xmm(rhs, AsmRole::OperandReload, &[a]);
        let dst = self.take_xmm(&[a, b]);
        self.emit(AKind::MovSd { w: 8, dst: AOp::Reg(dst), src: AOp::Reg(a) }, AsmRole::Compute);
        self.emit(AKind::Sse { op: sse, dst, src: AOp::Reg(b) }, AsmRole::Compute);
        self.finish_xmm(iid, dst, AsmRole::ResultSpill);
    }

    fn lower_cast(&mut self, iid: InstId, kind: CastKind, from: Type, to: Type, val: Op) {
        match kind {
            CastKind::Zext | CastKind::Trunc => {
                let a = self.load_gpr(val, AsmRole::OperandReload, &[]);
                let dst = self.take_gpr(&[a]);
                // Canonical forms make zext a plain move; trunc re-masks.
                self.emit(AKind::Mov { w: to.size() as u8, dst: AOp::Reg(dst), src: AOp::Reg(a) }, AsmRole::Compute);
                self.finish_gpr(iid, dst, AsmRole::ResultSpill);
            }
            CastKind::Sext => {
                let a = self.load_gpr(val, AsmRole::OperandReload, &[]);
                let dst = self.take_gpr(&[a]);
                self.emit(
                    AKind::MovSx {
                        wd: to.size() as u8,
                        ws: from.size() as u8,
                        dst,
                        src: AOp::Reg(a),
                    },
                    AsmRole::Compute,
                );
                self.finish_gpr(iid, dst, AsmRole::ResultSpill);
            }
            CastKind::SiToFp => {
                let a = self.load_gpr(val, AsmRole::OperandReload, &[]);
                let src = if from.size() < 8 {
                    let t = self.take_gpr(&[a]);
                    self.emit(
                        AKind::MovSx { wd: 8, ws: from.size() as u8, dst: t, src: AOp::Reg(a) },
                        AsmRole::Compute,
                    );
                    t
                } else {
                    a
                };
                let dst = self.take_xmm(&[]);
                self.emit(AKind::Cvtsi2f { dst, src: AOp::Reg(src) }, AsmRole::Compute);
                self.finish_xmm(iid, dst, AsmRole::ResultSpill);
            }
            CastKind::FpToSi => {
                let a = self.load_xmm(val, AsmRole::OperandReload, &[]);
                let dst = self.take_gpr(&[]);
                self.emit(AKind::Cvtf2si { dst, src: AOp::Reg(a) }, AsmRole::Compute);
                if to.size() < 8 {
                    self.emit(
                        AKind::Mov { w: to.size() as u8, dst: AOp::Reg(dst), src: AOp::Reg(dst) },
                        AsmRole::Compute,
                    );
                }
                self.finish_gpr(iid, dst, AsmRole::ResultSpill);
            }
            CastKind::Bitcast => match (from.is_float(), to.is_float()) {
                (true, false) => {
                    let a = self.load_xmm(val, AsmRole::OperandReload, &[]);
                    let dst = self.take_gpr(&[]);
                    self.emit(AKind::MovQ { w: to.size() as u8, dst, src: a }, AsmRole::Compute);
                    self.finish_gpr(iid, dst, AsmRole::ResultSpill);
                }
                (false, true) => {
                    let a = self.load_gpr(val, AsmRole::OperandReload, &[]);
                    let dst = self.take_xmm(&[]);
                    self.emit(AKind::MovQ { w: to.size() as u8, dst, src: a }, AsmRole::Compute);
                    self.finish_xmm(iid, dst, AsmRole::ResultSpill);
                }
                _ => {
                    let a = self.load_gpr(val, AsmRole::OperandReload, &[]);
                    let dst = self.take_gpr(&[a]);
                    self.emit(
                        AKind::Mov { w: to.size() as u8, dst: AOp::Reg(dst), src: AOp::Reg(a) },
                        AsmRole::Compute,
                    );
                    self.finish_gpr(iid, dst, AsmRole::ResultSpill);
                }
            },
        }
    }

    fn lower_intrinsic(&mut self, iid: InstId, intr: Intrinsic, args: &[Op]) {
        match intr {
            Intrinsic::OutputI64 | Intrinsic::OutputByte => {
                let a = self.load_gpr(args[0], AsmRole::OperandReload, &[]);
                let kind = if intr == Intrinsic::OutputI64 {
                    OutKind::I64
                } else {
                    OutKind::Byte
                };
                self.emit(AKind::Out { kind, src: AOp::Reg(a) }, AsmRole::Compute);
            }
            Intrinsic::OutputF64 => {
                let a = self.load_xmm(args[0], AsmRole::OperandReload, &[]);
                self.emit(AKind::Out { kind: OutKind::F64, src: AOp::Reg(a) }, AsmRole::Compute);
            }
            Intrinsic::DetectError => {
                self.emit(AKind::DetectTrap, AsmRole::Compute);
            }
            math => {
                let kind = match math {
                    Intrinsic::Sqrt => MathKind::Sqrt,
                    Intrinsic::Sin => MathKind::Sin,
                    Intrinsic::Cos => MathKind::Cos,
                    Intrinsic::Exp => MathKind::Exp,
                    Intrinsic::Log => MathKind::Log,
                    Intrinsic::Fabs => MathKind::Fabs,
                    Intrinsic::Floor => MathKind::Floor,
                    Intrinsic::Pow => MathKind::Pow,
                    other => unreachable!("{other:?}"),
                };
                let a = self.load_xmm(args[0], AsmRole::OperandReload, &[]);
                let b = if args.len() > 1 {
                    Some(self.load_xmm(args[1], AsmRole::OperandReload, &[a]))
                } else {
                    None
                };
                let mut avoid = vec![a];
                avoid.extend(b);
                let dst = self.take_xmm(&avoid);
                self.emit(AKind::Math { kind, dst, a, b }, AsmRole::Compute);
                self.finish_xmm(iid, dst, AsmRole::ResultSpill);
            }
        }
    }

    fn lower_call(&mut self, iid: InstId, callee_id: FuncId, args: &[Op]) {
        // -O0 reads every argument from its stack home straight into the
        // ABI register (paper Figure 11) — so flush the cache first.
        self.cache.flush();
        let (mut ints, mut floats) = (0usize, 0usize);
        for &arg in args {
            let ty = self.op_ty(arg);
            if ty.is_float() {
                assert!(floats < Reg::FLOAT_ARGS.len(), "too many float arguments");
                let dst = Reg::FLOAT_ARGS[floats];
                floats += 1;
                let src = match arg {
                    Op::Const(c) => AOp::Imm(c.bits() as i64),
                    Op::Value(v) => AOp::Mem(self.slot_of(v)),
                    Op::Global(_) => unreachable!(),
                };
                self.emit(AKind::MovSd { w: 8, dst: AOp::Reg(dst), src }, AsmRole::ArgMove);
            } else {
                assert!(ints < Reg::INT_ARGS.len(), "too many integer arguments");
                let dst = Reg::INT_ARGS[ints];
                ints += 1;
                let src = match arg {
                    Op::Const(c) => AOp::Imm(c.bits() as i64),
                    Op::Value(v) => AOp::Mem(self.slot_of(v)),
                    Op::Global(g) => AOp::Imm(self.global_addrs[g.index()] as i64),
                };
                self.emit(AKind::Mov { w: 8, dst: AOp::Reg(dst), src }, AsmRole::ArgMove);
            }
        }
        let pos = self.emit(AKind::Call { func: callee_id, target: 0 }, AsmRole::Compute);
        self.call_fix.push((pos, callee_id));
        self.cache.flush();
        if let Some(rty) = self.m.functions[callee_id.index()].ret_ty {
            if rty.is_float() {
                self.cache.bind(Reg::Xmm0, Value::Inst(iid));
                self.finish_xmm(iid, Reg::Xmm0, AsmRole::RetMove);
            } else {
                self.cache.bind(Reg::Rax, Value::Inst(iid));
                self.finish_gpr(iid, Reg::Rax, AsmRole::RetMove);
            }
        }
    }

    /// Is this compare fusable with the block terminator?
    fn fusable(&self, iid: InstId, is_last: bool, term: &Terminator) -> bool {
        if !self.cfg.fuse_cmp_branch || !is_last {
            return false;
        }
        if self.use_counts[iid.index()] != 1 {
            return false;
        }
        matches!(term, Terminator::Br { cond, .. } if cond.as_inst() == Some(iid))
    }

    fn lower_terminator(&mut self, term: &Terminator) {
        self.cur_prov = None;
        self.cur_role = IrRole::App;
        match term {
            Terminator::Jmp { dest } => {
                let pos = self.emit(AKind::Jmp { target: 0 }, AsmRole::Control);
                self.block_fix.push((pos, *dest));
            }
            Terminator::Br { cond, then_bb, else_bb } => {
                let cc = if let Some((iid, cc)) = self.pending_cmp.take() {
                    debug_assert_eq!(cond.as_inst(), Some(iid));
                    cc
                } else {
                    // Unfused: (re)materialize the condition and `test` it —
                    // the paper's branch penetration site (Figures 6/7),
                    // also produced for constant conditions left behind by
                    // compare folding (Figure 9).
                    let c = self.load_gpr(*cond, AsmRole::OperandReload, &[]);
                    self.emit(AKind::Test { w: 1, lhs: AOp::Reg(c), rhs: AOp::Imm(1) }, AsmRole::FlagSet);
                    CC::Ne
                };
                let jcc = self.emit(AKind::Jcc { cc, target: 0 }, AsmRole::Control);
                self.block_fix.push((jcc, *then_bb));
                let jmp = self.emit(AKind::Jmp { target: 0 }, AsmRole::Control);
                self.block_fix.push((jmp, *else_bb));
            }
            Terminator::Ret { val } => {
                if let Some(v) = val {
                    let ty = self.op_ty(*v);
                    if ty.is_float() {
                        let r = self.load_xmm(*v, AsmRole::OperandReload, &[]);
                        if r != Reg::Xmm0 {
                            self.cache.invalidate_reg(Reg::Xmm0);
                            self.emit(
                                AKind::MovSd { w: 8, dst: AOp::Reg(Reg::Xmm0), src: AOp::Reg(r) },
                                AsmRole::RetMove,
                            );
                        }
                    } else {
                        let r = self.load_gpr(*v, AsmRole::OperandReload, &[]);
                        if r != Reg::Rax {
                            self.cache.invalidate_reg(Reg::Rax);
                            self.emit(AKind::Mov { w: 8, dst: AOp::Reg(Reg::Rax), src: AOp::Reg(r) }, AsmRole::RetMove);
                        }
                    }
                }
                self.emit(AKind::Mov { w: 8, dst: AOp::Reg(Reg::Rsp), src: AOp::Reg(Reg::Rbp) }, AsmRole::Epilogue);
                self.emit(AKind::Pop { dst: Reg::Rbp }, AsmRole::Epilogue);
                self.emit(AKind::Ret, AsmRole::Epilogue);
            }
            Terminator::Unreachable => {
                // Jump to an out-of-range index: the simulator traps with
                // BadControl, matching the IR interpreter.
                self.emit(AKind::Jmp { target: u32::MAX }, AsmRole::Control);
            }
        }
    }
}

impl RegCache {
    /// Register holding operand `op`'s value, if cached (no LRU refresh —
    /// internal helper for the shift path).
    fn lookup_value_reg(&mut self, op: Op) -> Option<Reg> {
        match op {
            Op::Value(v) => self.lookup(v),
            _ => None,
        }
    }
}

fn icmp_cc(pred: IPred) -> CC {
    match pred {
        IPred::Eq => CC::E,
        IPred::Ne => CC::Ne,
        IPred::Slt => CC::L,
        IPred::Sle => CC::Le,
        IPred::Sgt => CC::G,
        IPred::Sge => CC::Ge,
        IPred::Ult => CC::B,
        IPred::Ule => CC::Be,
        IPred::Ugt => CC::A,
        IPred::Uge => CC::Ae,
    }
}

fn fcmp_cc(pred: FPred) -> CC {
    match pred {
        FPred::Oeq => CC::E,
        FPred::One => CC::Ne,
        FPred::Olt => CC::B,
        FPred::Ole => CC::Be,
        FPred::Ogt => CC::A,
        FPred::Oge => CC::Ae,
    }
}
