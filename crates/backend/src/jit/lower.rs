//! Lowering from [`AKind`] machine instructions to host x86-64.
//!
//! The generated code keeps all guest state in memory — the register slot
//! array (host `rbp`), the guest memory image (host `r12`), and the shared
//! [`super::Env`] block (host `rbx`) — and pins the hottest values in
//! callee-saved registers: `r13` = the remaining instruction budget and
//! `r15` = the site distance to the armed trap (both down-counters, so
//! block guards are immediate compares; the epilogue converts them back
//! to the architectural up-counters), plus `r14` = the guest frame base
//! (`rbp`), which bases two thirds of all memory operands. The cycle
//! counter is charged straight to `Env` memory at block entries. Each
//! guest instruction loads its operands canonically
//! (zero-extended at its width), performs the host operation at that
//! width, and stores the full 64-bit slot back. The slot array stays
//! authoritative at every instruction boundary, but within a block the
//! emitter additionally *forwards* the last result: most instructions
//! finish with their stored value still in host `rax`, and the next
//! instruction reads it from there instead of reloading the slot,
//! breaking the store-to-load dependence chains that otherwise dominate
//! latency. Mid-block table entries re-materialize the forwarded value
//! from its (authoritative) slot in their trampoline, so dispatch and
//! fall-through agree on the register state.
//!
//! Guest flags semantics: add/sub/cmp/and/or/xor/ucomi take the host
//! flags at the guest width (`pushfq`, mask CF|ZF|SF|OF). imul and shifts
//! are modelled by `exec.rs` as ZF/SF-only logic flags, so the
//! lowering re-derives them with a `test` of the masked result at the
//! guest width. Conditional consumers (`jcc`/`setcc`/`cmov`) read the
//! flags slot and test the guest bits directly; flags never round-trip
//! through `popf`. A per-block liveness scan drops the capture for flag
//! writes that are overwritten before any consumer or block boundary —
//! inside a block no single-step bail can observe the slot, so those
//! stores are architecturally dead.
//!
//! Injection and budget bookkeeping are hoisted to *block-entry guards*:
//! at the head of every basic block (and at every table entry point into
//! the middle of one), two compares prove that neither the armed fault
//! site nor the dyn-instruction limit can fire within the instructions
//! remaining in the block. When a guard fails, the code exits with
//! `EXIT_STEP` and the driver advances exactly one instruction through
//! the fully bookkept [`crate::exec::step`] path, then re-enters — so
//! injection, budget traps and their interleaving with other traps are
//! decided by the reference logic, never re-implemented here. Guarded
//! block bodies carry zero per-instruction bookkeeping: a passing guard
//! charges the dyn/cycle/site counters for the whole remaining block up
//! front (with `lea`, which leaves host flags untouched), and every trap
//! branch detours through a cold thunk that refunds the un-executed
//! remainder — so counters stay exact at every exit while the hot path
//! never touches them.
//!
//! Entry is table-dispatched per instruction index (the table is written
//! by [`super::JitProgram::build`]): block leaders dispatch to their
//! inline guard, non-leaders to a trampoline that guards the *remainder*
//! of their block, and index `len` maps to the `BadControl` stub — the
//! same out-of-range behaviour as `exec.rs`'s bounds check, and the
//! path a `ret`-to-`len` dispatch takes too. A disarmed run sets
//! `env.trap_site = u64::MAX`, which can never be within a block's
//! remaining site count, so the same code serves armed and disarmed
//! trials.

use super::encoder::{
    Asm, Label, CC_A, CC_AE, CC_B, CC_E, CC_NE, R12, R13, R14, R15, RAX, RBP, RBX, RCX, RDI, RDX, RSI, RSP,
};
use super::{
    FallbackReason, Helpers, EXIT_COMPLETED, EXIT_DETECTED, EXIT_STEP, EXIT_TRAP_BASE, OFF_AUX, OFF_CYCLES, OFF_DIRTY,
    OFF_DYN, OFF_LAST_PAGE, OFF_LIMIT1, OFF_LIMIT2, OFF_LIMIT4, OFF_LIMIT8, OFF_MAX_DYN, OFF_MEM, OFF_REGS, OFF_SITES,
    OFF_STACK_LIMIT, OFF_TABLE, OFF_TRAP_SITE,
};
use crate::machine::{width_ty, SENTINEL};
use crate::mir::{AKind, AOp, AluOp, AsmProgram, MathKind, MemRef, OutKind, Reg, ShiftOp, SseOp, CC};
use flowery_ir::interp::memory::{trap_code, TrapKind};
use flowery_ir::interp::GLOBAL_BASE;

/// Flag bits shared with the host RFLAGS layout (CF|ZF|SF|OF).
const FLAG_MASK: u32 = 0x8C1;

/// Guest flags slot displacement off the register array base.
const FL_DISP: i32 = (Reg::Rflags as usize * 8) as i32;

pub(super) struct Emitted {
    pub code: Vec<u8>,
    /// Per-instruction guarded entry offsets, plus the trailing
    /// `BadControl` entry (`len + 1` total).
    pub offsets: Vec<usize>,
}

struct Stubs {
    oob_load: Label,
    oob_store: Label,
    div_fault: Label,
    stack_overflow: Label,
    bad_control: Label,
    flood: Label,
    detected: Label,
    completed: Label,
    /// Single-step bailout: rcx holds the instruction index to resume at.
    stepwise: Label,
}

/// Counter refund a trap exit owes because the block entry charged the
/// whole remaining block up front: the instructions *after* the trapping
/// one, their cycles, and every not-yet-successful fault site (including
/// the trapping instruction's own — sites count on success only).
#[derive(Clone, Copy)]
struct Fix {
    dyn_insts: u32,
    cycles: u64,
    sites: u32,
}

impl Fix {
    fn is_zero(&self) -> bool {
        self.dyn_insts == 0 && self.cycles == 0 && self.sites == 0
    }
}

/// A cold refund thunk: undo `fix`, then continue to the shared stub.
struct ColdStub {
    label: Label,
    fix: Fix,
    target: Label,
}

/// Per-instruction emission context: routes trap branches through a
/// refund thunk when this instruction's `fix` is non-zero (allocated
/// lazily and shared across same-kind branches), straight to the shared
/// stub otherwise.
struct InstCtx<'a> {
    stubs: &'a Stubs,
    fix: Fix,
    cold: &'a mut Vec<ColdStub>,
    cache: [Option<Label>; 5],
}

impl InstCtx<'_> {
    fn route(&mut self, a: &mut Asm, k: usize, target: Label) -> Label {
        if self.fix.is_zero() {
            return target;
        }
        if let Some(l) = self.cache[k] {
            return l;
        }
        let l = a.new_label();
        self.cold.push(ColdStub { label: l, fix: self.fix, target });
        self.cache[k] = Some(l);
        l
    }

    fn oob_load(&mut self, a: &mut Asm) -> Label {
        self.route(a, 0, self.stubs.oob_load)
    }

    fn oob_store(&mut self, a: &mut Asm) -> Label {
        self.route(a, 1, self.stubs.oob_store)
    }

    fn div_fault(&mut self, a: &mut Asm) -> Label {
        self.route(a, 2, self.stubs.div_fault)
    }

    fn stack_overflow(&mut self, a: &mut Asm) -> Label {
        self.route(a, 3, self.stubs.stack_overflow)
    }

    fn flood(&mut self, a: &mut Asm) -> Label {
        self.route(a, 4, self.stubs.flood)
    }
}

/// True for instructions that transfer control (ending a basic block).
fn is_control(k: &AKind) -> bool {
    matches!(
        k,
        AKind::Jmp { .. } | AKind::Jcc { .. } | AKind::Call { .. } | AKind::Ret | AKind::DetectTrap
    )
}

/// True when the guest instruction writes the flags slot.
fn writes_flags(k: &AKind) -> bool {
    matches!(
        k,
        AKind::Alu { .. } | AKind::Shift { .. } | AKind::Cmp { .. } | AKind::Test { .. } | AKind::Ucomi { .. }
    )
}

/// True when the guest instruction reads the flags slot.
fn reads_flags(k: &AKind) -> bool {
    matches!(k, AKind::Jcc { .. } | AKind::SetCC { .. } | AKind::Cmov { .. })
}

/// `leaders[i]` = instruction `i` starts a basic block: entry, any branch
/// target, or the successor of a control transfer.
fn find_leaders(insts: &[crate::mir::AInst]) -> Vec<bool> {
    let len = insts.len();
    let mut leaders = vec![false; len];
    if len == 0 {
        return leaders;
    }
    leaders[0] = true;
    for (i, inst) in insts.iter().enumerate() {
        let target = match inst.kind {
            AKind::Jmp { target } | AKind::Jcc { target, .. } => Some(target),
            AKind::Call { target, .. } => Some(target),
            _ => None,
        };
        if let Some(t) = target {
            if (t as usize) < len {
                leaders[t as usize] = true;
            }
        }
        if is_control(&inst.kind) && i + 1 < len {
            leaders[i + 1] = true;
        }
    }
    leaders
}

pub(super) fn emit(program: &AsmProgram, helpers: &Helpers) -> Result<Emitted, FallbackReason> {
    let insts = &program.insts;
    let len = insts.len();
    let mut a = Asm::new();
    let epilogue = a.new_label();
    let stubs = Stubs {
        oob_load: a.new_label(),
        oob_store: a.new_label(),
        div_fault: a.new_label(),
        stack_overflow: a.new_label(),
        bad_control: a.new_label(),
        flood: a.new_label(),
        detected: a.new_label(),
        completed: a.new_label(),
        stepwise: a.new_label(),
    };

    // Per-instruction remaining-block extents: from `i` to the end of its
    // block, `insts_left[i]` instructions costing `cycles_left[i]` cycles,
    // of which `sites_left[i]` are fault sites. The entry guards prove
    // these clear and then charge all three counters up front; trap exits
    // refund the un-executed remainder on their cold path.
    let leaders = find_leaders(insts);
    let mut insts_left = vec![0u32; len];
    let mut sites_left = vec![0u32; len];
    let mut cycles_left = vec![0u64; len];
    for i in (0..len).rev() {
        let (k, s, c) = if i + 1 < len && !leaders[i + 1] {
            (insts_left[i + 1], sites_left[i + 1], cycles_left[i + 1])
        } else {
            (0, 0, 0)
        };
        insts_left[i] = k + 1;
        sites_left[i] = s + u32::from(insts[i].kind.is_fault_site());
        cycles_left[i] = c + insts[i].kind.cycles();
    }

    // Flag-store liveness: a flags write is dead when the same block
    // writes the flags again before any conditional consumer and before
    // the block boundary. Boundaries count as reads because every entry
    // point can bail to [`crate::exec::step`], whose micro-op (and a
    // `Flags`-effect injection) reads the slot — but *inside* a block no
    // bail can occur, so an overwritten value there is unobservable and
    // its `pushfq` capture can be dropped.
    let mut flags_live = vec![true; len];
    let mut needed = true;
    for i in (0..len).rev() {
        if i + 1 >= len || leaders[i + 1] {
            needed = true;
        }
        if reads_flags(&insts[i].kind) {
            needed = true;
        } else if writes_flags(&insts[i].kind) {
            flags_live[i] = needed;
            needed = false;
        }
    }

    // ---- entry thunk (buffer offset 0) ------------------------------------
    // extern "C" fn(env: *mut Env /*rdi*/, index: u64 /*rsi*/) -> u64
    for r in [RBX, RBP, R12, R13, R14, R15] {
        a.push_r(r);
    }
    a.alu_ri64_i8(5, RSP, 8); // sub rsp, 8 (16-byte call alignment)
    a.mov_rr(RBX, RDI);
    a.load64(RBP, RBX, OFF_REGS);
    a.load64(R12, RBX, OFF_MEM);
    // Down-counters, so the block guards compare against immediates:
    // r13 = remaining instruction budget, r15 = sites until the armed
    // trap (disarmed runs start it near u64::MAX). The epilogue converts
    // both back to the architectural up-counters.
    a.load64(R13, RBX, OFF_MAX_DYN);
    a.load64(RAX, RBX, OFF_DYN);
    a.alu_rr(8, 0x28, RAX, R13); // sub r13, dyn
    a.load64(R15, RBX, OFF_TRAP_SITE);
    a.load64(RAX, RBX, OFF_SITES);
    a.alu_rr(8, 0x28, RAX, R15); // sub r15, sites
    a.load64(R14, RBP, slot(Reg::Rbp));
    a.load64(RCX, RBX, OFF_TABLE);
    a.jmp_table(RCX, RSI);

    // ---- body: inline guards at block leaders, lean instruction bodies ----
    let entry_labels: Vec<Label> = (0..len).map(|_| a.new_label()).collect();
    let body_labels: Vec<Label> = (0..len).map(|_| a.new_label()).collect();
    let bail_labels: Vec<Label> = (0..len).map(|_| a.new_label()).collect();
    let mut cold = Vec::new();
    // `avail` tracks the in-block forwarded value: the guest register
    // whose full canonical slot value the previous instruction left in
    // host rax. Leaders reset it (they have jump predecessors with
    // arbitrary rax); `avail_in[i]` records what instruction `i`'s body
    // assumes, so mid-block trampolines can re-materialize it.
    let mut avail: Option<Reg> = None;
    let mut avail_in: Vec<Option<Reg>> = vec![None; len];
    for (i, inst) in insts.iter().enumerate() {
        if leaders[i] {
            avail = None;
            a.bind(entry_labels[i]);
            emit_guard(&mut a, insts_left[i], sites_left[i], cycles_left[i], bail_labels[i])?;
        }
        a.bind(body_labels[i]);
        avail_in[i] = avail;
        let fix = Fix {
            dyn_insts: insts_left[i] - 1,
            cycles: cycles_left[i] - inst.kind.cycles(),
            sites: sites_left[i],
        };
        let mut ctx = InstCtx { stubs: &stubs, fix, cold: &mut cold, cache: [None; 5] };
        avail = emit_inst(&mut a, i, &inst.kind, flags_live[i], len, &entry_labels, &mut ctx, helpers, avail)?;
    }
    // Fall-through past the last instruction is out-of-range control.
    if len > 0 {
        a.jmp(stubs.bad_control);
    }

    // ---- trampolines: guarded mid-block entries for table dispatch, the
    // ---- per-index bail thunks, and the cold trap-refund thunks ------------
    for i in 0..len {
        if !leaders[i] {
            a.bind(entry_labels[i]);
            emit_guard(&mut a, insts_left[i], sites_left[i], cycles_left[i], bail_labels[i])?;
            // The fall-through body assumes the forwarded value is in rax;
            // its slot is authoritative at entry, so reload it here.
            if let Some(r) = avail_in[i] {
                a.load64(RAX, RBP, slot(r));
            }
            a.jmp(body_labels[i]);
        }
        a.bind(bail_labels[i]);
        a.mov_ri32(RCX, i as u32);
        a.jmp(stubs.stepwise);
    }
    for cs in &cold {
        a.bind(cs.label);
        // Refunds run against the down-counters: un-executed instructions
        // and sites go *back up*, cycles come off the memory accumulator.
        if cs.fix.dyn_insts > 0 {
            a.lea64(R13, R13, cs.fix.dyn_insts as i32);
        }
        if cs.fix.cycles > 0 {
            let c = i32::try_from(cs.fix.cycles).map_err(|_| FallbackReason::Unencodable)?;
            a.add_m64_i32(RBX, OFF_CYCLES, -c);
        }
        if cs.fix.sites > 0 {
            a.lea64(R15, R15, cs.fix.sites as i32);
        }
        a.jmp(cs.target);
    }

    // ---- exit stubs --------------------------------------------------------
    a.bind(stubs.stepwise);
    a.store64(RBX, OFF_AUX, RCX); // rcx = resume instruction index
    a.mov_ri32(RAX, EXIT_STEP as u32);
    a.jmp(epilogue);
    a.bind(stubs.completed);
    a.mov_ri32(RAX, EXIT_COMPLETED as u32);
    a.jmp(epilogue);
    a.bind(stubs.detected);
    a.mov_ri32(RAX, EXIT_DETECTED as u32);
    a.jmp(epilogue);
    for (label, kind) in [
        (stubs.oob_load, TrapKind::OobLoad),
        (stubs.oob_store, TrapKind::OobStore),
        (stubs.div_fault, TrapKind::DivFault),
        (stubs.stack_overflow, TrapKind::StackOverflow),
        (stubs.bad_control, TrapKind::BadControl),
        (stubs.flood, TrapKind::OutputFlood),
    ] {
        a.bind(label);
        a.mov_ri32(RAX, (EXIT_TRAP_BASE + u64::from(trap_code(kind))) as u32);
        a.jmp(epilogue);
    }
    a.bind(epilogue);
    // rax holds the exit code here; use rdx/rcx for the conversions.
    a.load64(RDX, RBX, OFF_MAX_DYN);
    a.alu_rr(8, 0x28, R13, RDX); // dyn = max_dyn - budget_left
    a.store64(RBX, OFF_DYN, RDX);
    a.load64(RCX, RBX, OFF_TRAP_SITE);
    a.alu_rr(8, 0x28, R15, RCX); // sites = trap_site - sites_to_trap
    a.store64(RBX, OFF_SITES, RCX);
    a.alu_ri64_i8(0, RSP, 8); // add rsp, 8
    for r in [R15, R14, R13, R12, RBP, RBX] {
        a.pop_r(r);
    }
    a.ret();

    a.finalize();
    let bad = a.offset_of(stubs.bad_control);
    let offsets = entry_labels.iter().map(|&l| a.offset_of(l)).chain([bad]).collect();
    Ok(Emitted { code: a.code, offsets })
}

/// Block-entry guard: prove neither the armed fault site nor the
/// instruction budget can fire within the `insts_left` instructions
/// (`sites_left` of them fault sites) remaining in this block; otherwise
/// bail to single-stepping. The site check is one unsigned range test —
/// injection fires inside the block iff `trap_site - r15 < sites_left` —
/// which a disarmed run (`trap_site = u64::MAX`) can never satisfy.
///
/// A passing guard then charges all three counters for the whole
/// remainder of the block, so the bodies carry no bookkeeping at all;
/// trap exits refund what did not execute via their cold thunks.
fn emit_guard(
    a: &mut Asm,
    insts_left: u32,
    sites_left: u32,
    cycles_left: u64,
    bail: Label,
) -> Result<(), FallbackReason> {
    // Both down-counter compares are reg-vs-immediate (macro-fusable, no
    // memory traffic); a disarmed run keeps r15 near u64::MAX, which no
    // block's site count can undercut.
    let cmp_imm = |a: &mut Asm, r: u8, v: u32| {
        if let Ok(v8) = i8::try_from(v) {
            a.alu_ri64_i8(7, r, v8);
        } else {
            a.alu_ri64(7, r, v);
        }
    };
    if sites_left > 0 {
        cmp_imm(a, R15, sites_left);
        a.jcc(CC_B, bail);
    }
    cmp_imm(a, R13, insts_left);
    a.jcc(CC_B, bail);
    a.lea64(R13, R13, -(insts_left as i32));
    if cycles_left > 0 {
        // Cycles live in Env memory (r14 pins the guest frame base
        // instead); host flags are dead across guest instructions, so
        // the read-modify-write add is safe here.
        let c = i32::try_from(cycles_left).map_err(|_| FallbackReason::Unencodable)?;
        a.add_m64_i32(RBX, OFF_CYCLES, c);
    }
    if sites_left > 0 {
        a.lea64(R15, R15, -(sites_left as i32));
    }
    Ok(())
}

// ---- small emission helpers -------------------------------------------------

fn slot(r: Reg) -> i32 {
    (r.index() * 8) as i32
}

/// Canonical (zero-extended) slot read at width `w` into `dst`. When the
/// previous instruction forwarded this register's full slot value in rax
/// (`avail`), the read becomes a register move (or nothing at all),
/// skipping the slot round-trip.
fn load_slot_w(a: &mut Asm, w: u8, r: Reg, dst: u8, avail: Option<Reg>) {
    if avail == Some(r) {
        match w {
            1 => a.movzx_rr8(dst, RAX),
            2 => a.movzx_rr16(dst, RAX),
            4 => a.mov_rr32(dst, RAX),
            _ => {
                if dst != RAX {
                    a.mov_rr(dst, RAX);
                }
            }
        }
        return;
    }
    if r == Reg::Rbp && w == 8 {
        a.mov_rr(dst, R14);
        return;
    }
    match w {
        1 => a.load8z(dst, RBP, slot(r)),
        2 => a.load16z(dst, RBP, slot(r)),
        4 => a.load32(dst, RBP, slot(r)),
        _ => a.load64(dst, RBP, slot(r)),
    }
}

/// Full 64-bit slot write. Guest `rbp` is additionally pinned in host
/// `r14` (it bases two thirds of all memory operands), so writes to it
/// refresh the pin; re-entries reload it in the entry thunk.
fn store_slot(a: &mut Asm, r: Reg, src: u8) {
    a.store64(RBP, slot(r), src);
    if r == Reg::Rbp {
        a.mov_rr(R14, src);
    }
}

fn off_limit(w: u8) -> i32 {
    match w {
        1 => OFF_LIMIT1,
        2 => OFF_LIMIT2,
        4 => OFF_LIMIT4,
        _ => OFF_LIMIT8,
    }
}

/// Effective address of `m` into rax (clobbers rcx for 64-bit disps).
/// A guest-`rbp` base comes straight from its host pin, and a base
/// forwarded by the previous instruction (`avail`) is already in rax,
/// skipping the slot load on both hot addressing paths.
fn emit_ea(a: &mut Asm, m: &MemRef, avail: Option<Reg>) {
    match m.base {
        None => a.mov_ri(RAX, m.disp as u64),
        Some(r) => {
            if r == Reg::Rbp {
                if let Ok(d) = i32::try_from(m.disp) {
                    if d == 0 {
                        a.mov_rr(RAX, R14);
                    } else {
                        a.lea64(RAX, R14, d);
                    }
                    return;
                }
                a.mov_rr(RAX, R14);
            } else if avail != Some(r) {
                a.load64(RAX, RBP, slot(r));
            }
            if m.disp != 0 {
                if let Ok(d) = i32::try_from(m.disp) {
                    a.lea64(RAX, RAX, d);
                } else {
                    a.mov_ri64(RCX, m.disp as u64);
                    a.alu_rr(8, 0x00, RCX, RAX); // add rax, rcx (wrapping)
                }
            }
        }
    }
}

/// Bounds check for the address in rax at width `w`: one unsigned compare
/// of `addr - GLOBAL_BASE` against `size - GLOBAL_BASE - w`, which rejects
/// below-base, above-end, and wrapped addresses alike. Clobbers rcx.
fn bounds_check(a: &mut Asm, w: u8, stub: Label) {
    a.lea64(RCX, RAX, -(GLOBAL_BASE as i32));
    a.cmp_r_mem64(RCX, RBX, off_limit(w));
    a.jcc(CC_A, stub);
}

/// Canonical operand read at width `w` into `dst` (must not be rcx for
/// register/immediate forms; memory forms clobber rax + rcx first).
fn read_op(a: &mut Asm, op: &AOp, w: u8, dst: u8, ctx: &mut InstCtx, avail: Option<Reg>) {
    match op {
        AOp::Reg(r) => load_slot_w(a, w, *r, dst, avail),
        AOp::Imm(v) => a.mov_ri(dst, width_ty(w).canon(*v as u64)),
        AOp::Mem(m) => {
            emit_ea(a, m, avail);
            let oob = ctx.oob_load(a);
            bounds_check(a, w, oob);
            a.load_guest(w, dst);
        }
    }
}

/// Store rdx (width `w`) to the guest address in rax: bounds check, dirty
/// page marking (first + last page, like `Memory::mark_dirty`), then the
/// store. Clobbers rcx, rsi, and rdi.
///
/// Marking caches the last-marked page in `Env::last_page`: a store whose
/// access stays within that page (the common case — consecutive stack
/// traffic) skips the expensive `bts` read-modify-writes entirely. The
/// bitset is only ever set during a run, so a cached page is always
/// already marked.
fn store_to_guest(a: &mut Asm, w: u8, ctx: &mut InstCtx) {
    let oob = ctx.oob_store(a);
    bounds_check(a, w, oob);
    let mark = a.new_label();
    let store = a.new_label();
    a.mov_rr(RCX, RAX);
    a.shift_ri64(5, RCX, 12); // first page index
    if w > 1 {
        a.lea64(RSI, RAX, (w - 1) as i32);
        a.shift_ri64(5, RSI, 12); // last page index
        a.alu_rr(8, 0x38, RCX, RSI); // cmp rsi, rcx — page-straddling?
        a.jcc(CC_NE, mark);
    }
    a.cmp_r_mem64(RCX, RBX, OFF_LAST_PAGE);
    a.jcc(CC_E, store);
    a.bind(mark);
    a.store64(RBX, OFF_LAST_PAGE, RCX);
    a.load64(RDI, RBX, OFF_DIRTY);
    a.bts_m64(RDI, RCX);
    if w > 1 {
        a.bts_m64(RDI, RSI);
    }
    a.bind(store);
    a.store_guest(w, RDX);
}

/// Capture the host flags into the guest flags slot (CF|ZF|SF|OF only).
fn flags_from_host(a: &mut Asm) {
    a.pushfq();
    a.pop_r(RCX);
    a.alu_ri32(4, RCX, FLAG_MASK);
    a.store64(RBP, FL_DISP, RCX);
}

/// `test` of rax against itself at width `w` — re-derives the guest
/// logic flags (ZF/SF of the masked result, CF=OF=0) in the host flags.
fn test_self(a: &mut Asm, w: u8) {
    a.alu_rr(w, 0x84, RAX, RAX);
}

/// rcx.bit7 = SF ^ OF of the guest flags in rax.
fn sf_xor_of(a: &mut Asm) {
    a.mov_rr(RCX, RAX);
    a.shift_ri64(5, RCX, 4); // OF (bit 11) down to bit 7
    a.alu_rr(8, 0x30, RAX, RCX); // xor rcx, rax
}

/// Emits the predicate test for `cc` against the guest flags slot and
/// returns the host condition code that is taken when the guest condition
/// holds (invert with `^ 1`). Unsigned and equality predicates test the
/// relevant flag bits with a single memory-operand `test`; signed ones
/// need SF^OF, so they load the word first. Clobbers rax and rcx.
fn cond_cc(a: &mut Asm, cc: CC) -> u8 {
    let simple = match cc {
        CC::E => Some((0x40, CC_NE)),
        CC::Ne => Some((0x40, CC_E)),
        CC::B => Some((0x01, CC_NE)),
        CC::Ae => Some((0x01, CC_E)),
        CC::Be => Some((0x41, CC_NE)),
        CC::A => Some((0x41, CC_E)),
        _ => None,
    };
    if let Some((bits, enc)) = simple {
        a.test_m8_imm8(RBP, FL_DISP, bits);
        return enc;
    }
    a.load64(RAX, RBP, FL_DISP);
    match cc {
        CC::L => {
            sf_xor_of(a);
            a.test_r8_imm8(RCX, 0x80);
            CC_NE
        }
        CC::Ge => {
            sf_xor_of(a);
            a.test_r8_imm8(RCX, 0x80);
            CC_E
        }
        CC::Le | CC::G => {
            sf_xor_of(a);
            a.alu_ri32(4, RCX, 0x80); // and ecx, SF^OF bit
            a.alu_ri32(4, RAX, 0x40); // and eax, ZF bit
            a.alu_rr(8, 0x08, RAX, RCX); // or rcx, rax — ZF clear iff Le
            if cc == CC::Le {
                CC_NE
            } else {
                CC_E
            }
        }
        _ => unreachable!("simple predicates handled above"),
    }
}

fn alu_opc(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0x00,
        AluOp::Sub => 0x28,
        AluOp::And => 0x20,
        AluOp::Or => 0x08,
        AluOp::Xor => 0x30,
        AluOp::Imul => unreachable!("imul has its own path"),
    }
}

fn call_helper(a: &mut Asm, addr: u64) {
    a.mov_ri64(RAX, addr);
    a.call_r(RAX);
}

// ---- per-instruction lowering -----------------------------------------------

#[allow(clippy::too_many_arguments)]
fn emit_inst(
    a: &mut Asm,
    i: usize,
    kind: &AKind,
    flags_live: bool,
    len: usize,
    labels: &[Label],
    ctx: &mut InstCtx,
    helpers: &Helpers,
    avail: Option<Reg>,
) -> Result<Option<Reg>, FallbackReason> {
    // Raw (refund-free) stubs, for exits where the instruction completed:
    // a `ret`/`jmp` landing out of range traps *after* its architectural
    // effects, exactly like `exec.rs`'s next-fetch bounds check.
    let bad_control = ctx.stubs.bad_control;
    let completed = ctx.stubs.completed;
    let detected = ctx.stubs.detected;
    let target_label = |t: u32| if (t as usize) < len { labels[t as usize] } else { bad_control };

    // No per-instruction bookkeeping: the block-entry guard charged the
    // counters for the whole block, and every trap branch below routes
    // through `ctx`, whose cold thunk refunds the un-executed remainder.
    // Each arm evaluates to the register whose full canonical slot value
    // is left in rax — the forwarded value the next instruction in the
    // block may consume (None when rax holds something else at the end,
    // or when control does not fall through).
    let fwd: Option<Reg> = match *kind {
        AKind::Mov { w, dst, src } | AKind::MovSd { w, dst, src } => match dst {
            AOp::Reg(d) => {
                read_op(a, &src, w, RAX, ctx, avail);
                store_slot(a, d, RAX);
                Some(d)
            }
            AOp::Mem(m) => {
                read_op(a, &src, w, RDX, ctx, avail);
                let av = if matches!(src, AOp::Mem(_)) { None } else { avail };
                emit_ea(a, &m, av);
                store_to_guest(a, w, ctx);
                None
            }
            AOp::Imm(_) => return Err(FallbackReason::Unencodable),
        },
        AKind::MovSx { wd, ws, dst, src } => {
            let sty = width_ty(ws);
            let ssh = (64 - sty.bits()) as u8;
            match src {
                AOp::Reg(s) => {
                    load_slot_w(a, 8, s, RAX, avail);
                    if ssh > 0 {
                        a.shift_ri64(4, RAX, ssh); // shl
                        a.shift_ri64(7, RAX, ssh); // sar
                    }
                }
                AOp::Imm(v) => {
                    let canon = sty.canon(v as u64);
                    let sx = (((canon << ssh) as i64) >> ssh) as u64;
                    a.mov_ri(RAX, sx & width_ty(wd).mask());
                }
                AOp::Mem(m) => {
                    emit_ea(a, &m, avail);
                    let oob = ctx.oob_load(a);
                    bounds_check(a, ws, oob);
                    a.load_guest_sx(ws, RAX);
                }
            }
            match wd {
                1 => a.movzx_rr8(RAX, RAX),
                2 => a.movzx_rr16(RAX, RAX),
                4 => a.mov_rr32(RAX, RAX),
                _ => {}
            }
            store_slot(a, dst, RAX);
            Some(dst)
        }
        AKind::Lea { dst, mem } => {
            emit_ea(a, &mem, avail);
            store_slot(a, dst, RAX);
            Some(dst)
        }
        AKind::Alu { op, w, dst, src } => {
            read_op(a, &src, w, RDX, ctx, avail);
            let av = if matches!(src, AOp::Mem(_)) { None } else { avail };
            load_slot_w(a, w, dst, RAX, av);
            if op == AluOp::Imul {
                // The guest models imul flags as ZF/SF of the masked
                // result; host imul leaves them undefined, so re-test.
                a.imul_rr(if w == 8 { 8 } else { 4 }, RAX, RDX);
                match w {
                    1 => a.movzx_rr8(RAX, RAX),
                    2 => a.movzx_rr16(RAX, RAX),
                    _ => {}
                }
                if flags_live {
                    test_self(a, w);
                }
            } else {
                a.alu_rr(w, alu_opc(op), RDX, RAX);
            }
            if flags_live {
                flags_from_host(a);
            }
            store_slot(a, dst, RAX);
            if dst == Reg::Rsp {
                let so = ctx.stack_overflow(a);
                a.cmp_r_mem64(RAX, RBX, OFF_STACK_LIMIT);
                a.jcc(CC_B, so);
            }
            Some(dst)
        }
        AKind::Shift { op, w, dst, amt } => {
            let smask = width_ty(w).bits() - 1;
            read_op(a, &amt, 1, RCX, ctx, avail);
            let av = if matches!(amt, AOp::Mem(_)) { None } else { avail };
            a.alu_ri32(4, RCX, smask);
            load_slot_w(a, w, dst, RAX, av);
            let ext = match op {
                ShiftOp::Shl => 4,
                ShiftOp::Shr => 5,
                ShiftOp::Sar => 7,
            };
            a.shift_cl(w, ext, RAX);
            if flags_live {
                test_self(a, w);
                flags_from_host(a);
            }
            store_slot(a, dst, RAX);
            Some(dst)
        }
        AKind::Cqo { .. } => {
            load_slot_w(a, 8, Reg::Rax, RAX, avail);
            a.cqo();
            store_slot(a, Reg::Rdx, RDX);
            Some(Reg::Rax)
        }
        AKind::ZeroRdx => {
            a.mov_ri32(RAX, 0);
            store_slot(a, Reg::Rdx, RAX);
            Some(Reg::Rdx)
        }
        AKind::Div { signed, src, .. } => {
            read_op(a, &src, 8, RCX, ctx, avail);
            let av = if matches!(src, AOp::Mem(_)) { None } else { avail };
            let df = ctx.div_fault(a);
            a.alu_rr(8, 0x84, RCX, RCX); // test rcx, rcx
            a.jcc(CC_E, df);
            load_slot_w(a, 8, Reg::Rax, RAX, av);
            if signed {
                // Guard i64::MIN / -1, which the guest reports as a
                // DivFault and the hardware as #DE.
                let ok = a.new_label();
                a.mov_ri64(RDX, i64::MIN as u64);
                a.alu_rr(8, 0x38, RDX, RAX); // cmp rax, rdx
                a.jcc(CC_NE, ok);
                a.alu_ri64_i8(7, RCX, -1); // cmp rcx, -1
                a.jcc(CC_E, df);
                a.bind(ok);
                a.cqo();
                a.div_r64(true, RCX);
            } else {
                a.alu_rr(4, 0x30, RDX, RDX); // xor edx, edx
                a.div_r64(false, RCX);
            }
            store_slot(a, Reg::Rax, RAX);
            store_slot(a, Reg::Rdx, RDX);
            Some(Reg::Rax)
        }
        AKind::Cmp { w, lhs, rhs } | AKind::Test { w, lhs, rhs } => {
            if flags_live {
                if matches!(rhs, AOp::Mem(_)) {
                    // The rhs memory read clobbers rax, so stage lhs in rsi.
                    read_op(a, &lhs, w, RSI, ctx, avail);
                    read_op(a, &rhs, w, RDX, ctx, None);
                    a.mov_rr(RAX, RSI);
                } else {
                    read_op(a, &lhs, w, RAX, ctx, avail);
                    read_op(a, &rhs, w, RDX, ctx, None);
                }
                let opc = if matches!(kind, AKind::Cmp { .. }) { 0x38 } else { 0x84 };
                a.alu_rr(w, opc, RDX, RAX);
                flags_from_host(a);
            } else {
                // Dead flags: only the operands' trap behaviour remains
                // observable, so keep the bounds checks and drop the rest.
                let mut av = avail;
                for op in [&lhs, &rhs] {
                    if let AOp::Mem(m) = op {
                        emit_ea(a, m, av);
                        let oob = ctx.oob_load(a);
                        bounds_check(a, w, oob);
                        av = None;
                    }
                }
            }
            None
        }
        AKind::SetCC { cc, dst } => {
            let enc = cond_cc(a, cc);
            a.setcc(enc, RAX);
            a.movzx_rr8(RAX, RAX);
            store_slot(a, dst, RAX);
            Some(dst)
        }
        AKind::Cmov { cc, w, dst, src } => {
            // The two paths leave different values in rax, so nothing is
            // forwardable past the join.
            let enc = cond_cc(a, cc);
            let av = if matches!(cc, CC::E | CC::Ne | CC::B | CC::Ae | CC::Be | CC::A) {
                avail
            } else {
                None
            };
            let skip = a.new_label();
            a.jcc(enc ^ 1, skip);
            read_op(a, &src, w, RAX, ctx, av);
            store_slot(a, dst, RAX);
            a.bind(skip);
            None
        }
        AKind::Jcc { cc, target } => {
            let enc = cond_cc(a, cc);
            a.jcc(enc, target_label(target));
            None
        }
        AKind::Jmp { target } => {
            a.jmp(target_label(target));
            None
        }
        AKind::Call { target, .. } => {
            let so = ctx.stack_overflow(a);
            load_slot_w(a, 8, Reg::Rsp, RAX, avail);
            a.lea64(RAX, RAX, -8);
            a.cmp_r_mem64(RAX, RBX, OFF_STACK_LIMIT);
            a.jcc(CC_B, so);
            a.mov_ri32(RDX, (i + 1) as u32);
            store_to_guest(a, 8, ctx);
            store_slot(a, Reg::Rsp, RAX);
            a.jmp(target_label(target));
            None
        }
        AKind::Ret => {
            load_slot_w(a, 8, Reg::Rsp, RAX, avail);
            let oob = ctx.oob_load(a);
            bounds_check(a, 8, oob);
            a.load_guest(8, RDX);
            a.lea64(RCX, RAX, 8);
            store_slot(a, Reg::Rsp, RCX);
            a.mov_ri64(RCX, SENTINEL);
            a.alu_rr(8, 0x38, RCX, RDX); // cmp rdx, rcx
            a.jcc(CC_E, completed);
            a.mov_ri32(RCX, len as u32);
            a.alu_rr(8, 0x38, RCX, RDX);
            a.jcc(CC_AE, bad_control);
            a.load64(RCX, RBX, OFF_TABLE);
            a.jmp_table(RCX, RDX);
            None
        }
        AKind::Push { src } => {
            read_op(a, &src, 8, RDX, ctx, avail);
            let av = if matches!(src, AOp::Mem(_)) { None } else { avail };
            let so = ctx.stack_overflow(a);
            load_slot_w(a, 8, Reg::Rsp, RAX, av);
            a.lea64(RAX, RAX, -8);
            a.cmp_r_mem64(RAX, RBX, OFF_STACK_LIMIT);
            a.jcc(CC_B, so);
            store_to_guest(a, 8, ctx);
            store_slot(a, Reg::Rsp, RAX);
            Some(Reg::Rsp)
        }
        AKind::Pop { dst } => {
            load_slot_w(a, 8, Reg::Rsp, RAX, avail);
            let oob = ctx.oob_load(a);
            bounds_check(a, 8, oob);
            a.load_guest(8, RDX);
            a.lea64(RCX, RAX, 8);
            store_slot(a, Reg::Rsp, RCX);
            store_slot(a, dst, RDX);
            None
        }
        AKind::Sse { op, dst, src } => {
            let opc = match op {
                SseOp::AddSd => 0x58,
                SseOp::SubSd => 0x5C,
                SseOp::MulSd => 0x59,
                SseOp::DivSd => 0x5E,
            };
            load_slot_w(a, 8, dst, RAX, avail);
            a.movq_x_r(0, RAX);
            // rax now holds dst's full slot value, so the src read may
            // forward it (src == dst is common in accumulation loops).
            read_op(a, &src, 8, RDX, ctx, Some(dst));
            a.movq_x_r(1, RDX);
            a.sse_op(opc, 0, 1);
            a.movq_r_x(RAX, 0);
            store_slot(a, dst, RAX);
            Some(dst)
        }
        AKind::Ucomi { lhs, rhs } => {
            if flags_live {
                load_slot_w(a, 8, lhs, RAX, avail);
                a.movq_x_r(0, RAX);
                read_op(a, &rhs, 8, RDX, ctx, Some(lhs));
                a.movq_x_r(1, RDX);
                a.ucomisd(0, 1);
                flags_from_host(a);
            } else if let AOp::Mem(m) = rhs {
                // Dead flags: only the rhs bounds check is observable.
                emit_ea(a, &m, avail);
                let oob = ctx.oob_load(a);
                bounds_check(a, 8, oob);
            }
            None
        }
        AKind::Cvtsi2f { dst, src } => {
            read_op(a, &src, 8, RAX, ctx, avail);
            a.cvtsi2sd(0, RAX);
            a.movq_r_x(RAX, 0);
            store_slot(a, dst, RAX);
            Some(dst)
        }
        AKind::Cvtf2si { dst, src } => {
            // Rust saturating-cast semantics (the guest contract) differ
            // from cvttsd2si on overflow/NaN, so convert in a helper.
            read_op(a, &src, 8, RDI, ctx, avail);
            call_helper(a, helpers.f64_to_i64);
            store_slot(a, dst, RAX);
            Some(dst)
        }
        AKind::MovQ { w, dst, src } => {
            load_slot_w(a, w, src, RAX, avail);
            store_slot(a, dst, RAX);
            Some(dst)
        }
        AKind::Math { kind: mk, dst, a: arg, b } => {
            let code = match mk {
                MathKind::Sqrt => 0,
                MathKind::Sin => 1,
                MathKind::Cos => 2,
                MathKind::Exp => 3,
                MathKind::Log => 4,
                MathKind::Fabs => 5,
                MathKind::Floor => 6,
                MathKind::Pow => 7,
            };
            a.mov_ri32(RDI, code);
            load_slot_w(a, 8, arg, RSI, avail);
            match b {
                Some(br) => {
                    load_slot_w(a, 8, br, RDX, avail);
                    call_helper(a, helpers.math2);
                }
                None => call_helper(a, helpers.math1),
            }
            store_slot(a, dst, RAX);
            Some(dst)
        }
        AKind::Out { kind: ok, src } => {
            read_op(a, &src, 8, RDX, ctx, avail);
            a.mov_rr(RDI, RBX);
            let tag = match ok {
                OutKind::I64 => 1,
                OutKind::F64 => 2,
                OutKind::Byte => 3,
            };
            a.mov_ri32(RSI, tag);
            call_helper(a, helpers.out);
            let fl = ctx.flood(a);
            a.alu_rr(8, 0x84, RAX, RAX); // flood flag
            a.jcc(CC_NE, fl);
            None
        }
        AKind::DetectTrap => {
            a.jmp(detected);
            None
        }
    };
    Ok(fwd)
}
