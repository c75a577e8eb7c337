//! The static fault-propagation engine: one bit-vector lattice, one
//! transfer function and one worklist, answering two queries per fault
//! site.
//!
//! - **Prune** ([`analyze_bits`]): *which bits* of the destination can be
//!   observed. A family bit that no path lets reach any observation is
//!   *proven masked*: injecting that (site, bit) pair provably reproduces
//!   the golden run, and `campaign --static-prune` skips it.
//! - **Lint** ([`lint_sites`]): *whether* the corruption can reach an
//!   architectural [`Sink`] before a validation compare discharges it —
//!   `flowery lint`'s per-site [`Verdict`].
//!
//! Family encoding: injector run `b` (the sampled `FaultSpec::bit`,
//! `0..64`) flips destination position `b % W`, where `W` is the
//! destination width in bits — exactly `apply_fault`'s modulo. A state
//! maps each [`Loc`] to three 64-bit masks over family indices. Two are
//! *may* facts: bit `b` set in `pos` means "in run `b` this location
//! deviates *at most* as a single-bit XOR at position `b % W`"; set in
//! `scr` ("scrambled") means "may deviate anywhere within the location".
//! The third is a *must* fact: bit `b` set in `def` means "in run `b` this
//! location definitely differs from golden". For flag destinations the
//! position space is the four condition classes (`CONDITION_BITS[b % 4]`),
//! so `pos` is class-exact rather than bit-exact. Everything is
//! conservative toward *vulnerable*.
//!
//! Each observation the transfer reports carries its class: a
//! sink (output port, unguarded branch, call argument, return value,
//! escaping memory, control image), a guarded compare's detection, or a
//! *carried* observation — a deviated address base, a divide, a push, a
//! store or load through a pointer, the flags of a detector-armed or
//! trampoline-guarded branch. The prune makes any observed family
//! vulnerable. The lint flags a site at the first sink a family reaches;
//! carried families go on as scrambled data (pointer stores park them in
//! the [`Loc::Mem`] summary, which escapes at `call`/`ret`), and a family
//! ends on a path at a guarded compare where it may deviate on exactly one
//! side and definitely deviates there: in that run the detector fires.
//!
//! The memory model is the field-sensitive split of DESIGN.md §12: frame
//! slots and absolute global cells are tracked per-address; pointer
//! accesses and the push/pop area share the `Mem` summary (globals stay
//! addressable through pointers, so summary loads may read global
//! deviations and global loads may read the summary, while spill slots are
//! never address-taken).
//!
//! The walk is a joined worklist fixpoint per site, kept at block leaders:
//! one in-state per leader, joined from its predecessors' out-states — OR
//! for the may masks, AND for `def` — and walked again when it gains a may
//! bit or loses a `def` bit. Inside a block every instruction has one
//! predecessor, so its in-state is the previous instruction's out-state,
//! and the walk carries that state down the block without storing or
//! joining it. An instruction whose per-program `Touch` summary names
//! none of the locations the state holds would return it unchanged and
//! observe nothing, so the walk passes the state through without calling
//! the transfer; a block whose summed `Touch` misses its leader's in-state
//! hands that state to its successors without a visit to any of its
//! instructions. `step_bits` stays the one transfer function; it runs only
//! where the state holds something the instruction touches, in the order a
//! per-instruction worklist would reach those steps (the lint reports the
//! first sink it meets, so the order is part of its verdict).
//!
//! A path on which a family is live nowhere leaves that family's `def`
//! alone: in that run the path is the golden run from there on. The prune
//! seeds no must facts, and every transfer builds its may masks and
//! observation bits from OR and AND-with-a-constant alone with families
//! never mixing, so its fixpoint equals the join over all paths (Kildall's
//! MFP = MOP): the verdicts of a per-path enumeration of the same rules,
//! which the tests keep as their oracle. The lint's kill rule tests a
//! conjunction, which does not distribute over the AND join, so its
//! fixpoint is sound but not path-exact. The lattice is finite and may bits
//! only grow while `def` bits only shrink, so neither query needs a state
//! budget.

use super::sinks::{Guards, Sink};
use flowery_backend::mir::{AKind, AOp, AluOp, FaultDest, Loc, MemRef, OutKind, Reg, ShiftOp, CC};
use flowery_backend::AsmProgram;
use flowery_ir::fnv1a;
use flowery_ir::module::Module;
use serde::{Deserialize, Serialize};
use std::ops::{BitOr, ControlFlow, Range};

/// Analyzer version tag, folded into [`BitTable::fingerprint`] so any rule
/// change invalidates recorded prune provenance.
pub const BITS_VERSION: &str = "bits-v1";

/// Per-site bit verdict: which sampled `FaultSpec::bit` values (0..64) are
/// proven masked vs possibly vulnerable. The two masks are complementary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitVerdict {
    /// Bit `b` set: injecting sampled bit `b` at this site provably
    /// reproduces the golden run (outcome Benign, bit-identical output).
    pub proven_masked: u64,
    /// Bit `b` set: the deviation may be observed (or the proof gave up).
    pub vulnerable: u64,
}

impl BitVerdict {
    /// Nothing proven: every sampled bit treated as live.
    pub fn all_vulnerable() -> BitVerdict {
        BitVerdict { proven_masked: 0, vulnerable: u64::MAX }
    }

    /// Is the sampled bit value proven masked?
    pub fn masked(&self, bit: u32) -> bool {
        (self.proven_masked >> (bit % 64)) & 1 == 1
    }
}

/// The per-program prune table: one [`BitVerdict`] per instruction index
/// (non-site instructions get [`BitVerdict::all_vulnerable`], which is
/// never consulted by the sampler).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitTable {
    pub verdicts: Vec<BitVerdict>,
    /// Number of static fault-site instructions analyzed.
    pub sites: u32,
    /// Total proven-masked (site, bit) pairs across all sites.
    pub proven_pairs: u64,
}

impl BitTable {
    /// Mean vulnerable fraction over fault sites (1.0 when nothing is
    /// proven). Drives flagged-first batch ordering.
    pub fn mean_vulnerable(&self) -> f64 {
        if self.sites == 0 {
            1.0
        } else {
            1.0 - self.proven_pairs as f64 / (64.0 * self.sites as f64)
        }
    }

    /// Provenance hash: analyzer version + program identity + every
    /// verdict word. Recorded in checkpoint headers and batch records so
    /// resumes refuse to mix prune recipes.
    pub fn fingerprint(&self, program_hash: u64) -> u64 {
        let mut h = fnv1a(BITS_VERSION.as_bytes());
        h = fnv_fold(h, program_hash);
        h = fnv_fold(h, self.verdicts.len() as u64);
        for v in &self.verdicts {
            h = fnv_fold(h, v.proven_masked);
        }
        h
    }
}

fn fnv_fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Lint verdict for one fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every corruption path either reaches a detector or dies before any
    /// sink: a fault here cannot silently corrupt the output.
    Protected,
    /// Some family reaches the given sink unchecked.
    Penetrates(Sink),
}

/// The prune query over every instruction of `prog`.
pub fn analyze_bits(m: &Module, prog: &AsmProgram) -> BitTable {
    let eng = BitsEngine::new(m, prog);
    let mut walk = Walk::new(prog.insts.len());
    let mut verdicts = Vec::with_capacity(prog.insts.len());
    let (mut sites, mut proven_pairs) = (0u32, 0u64);
    for idx in 0..prog.insts.len() as u32 {
        let v = if prog.insts[idx as usize].kind.is_fault_site() {
            sites += 1;
            eng.prune_site(idx, &mut walk)
        } else {
            BitVerdict::all_vulnerable()
        };
        proven_pairs += v.proven_masked.count_ones() as u64;
        verdicts.push(v);
    }
    BitTable { verdicts, sites, proven_pairs }
}

/// The lint query over every fault site of `prog`, in instruction order.
pub fn lint_sites(m: &Module, prog: &AsmProgram) -> Vec<(u32, Verdict)> {
    let eng = BitsEngine::new(m, prog);
    let mut walk = Walk::new(prog.insts.len());
    (0..prog.insts.len() as u32)
        .filter(|&idx| prog.insts[idx as usize].kind.is_fault_site())
        .map(|idx| (idx, eng.lint_site(idx, &mut walk)))
        .collect()
}

/// Deviation state of one location (see module docs); `def ⊆ pos | scr`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Dev {
    pos: u64,
    scr: u64,
    def: u64,
}

impl Dev {
    /// A deviation whose must mask is `def` wherever the family stays live.
    fn new(pos: u64, scr: u64, def: u64) -> Dev {
        Dev { pos, scr, def: def & (pos | scr) }
    }

    fn all(self) -> u64 {
        self.pos | self.scr
    }

    /// The deviation seen through a read keeping only positions `keep`.
    fn keep(self, keep: u64) -> Dev {
        Dev::new(self.pos & keep, self.scr, self.def)
    }
}

/// Two deviations read together: either may deviate, and the pair
/// definitely deviates when either does.
impl BitOr for Dev {
    type Output = Dev;
    fn bitor(self, o: Dev) -> Dev {
        Dev::new(self.pos | o.pos, self.scr | o.scr, self.def | o.def)
    }
}

/// Deviated locations, sorted by [`Loc`] and each present once; an absent
/// location is clean.
type State = Vec<(Loc, Dev)>;

/// Family bits one step observes, by class.
#[derive(Debug, Default)]
struct Seen {
    /// The sinks reached, as a set of `1 << Sink as u8`.
    sinks: u8,
    /// The families that reached them.
    sunk: u64,
    /// Families a guarded compare definitely detects on this path.
    detected: u64,
    /// Observations that are no sink: the prune counts them, the lint
    /// carries the family on as data.
    carried: u64,
}

impl Seen {
    fn sink(&mut self, s: Sink, fams: u64) {
        if fams != 0 {
            self.sinks |= 1 << s as u8;
            self.sunk |= fams;
        }
    }

    /// Every observed family — the prune's reading.
    fn any(&self) -> u64 {
        self.sunk | self.detected | self.carried
    }

    /// The first sink reached, in [`Sink::ALL`] order — the lint's reading.
    fn first_sink(&self) -> Option<Sink> {
        Sink::ALL.into_iter().find(|&s| self.sinks >> s as u8 & 1 == 1)
    }
}

/// Family-position helpers bound to one site's destination width.
#[derive(Clone, Copy)]
struct Fam {
    /// Destination width in bits (8/16/32/64); family `b` flips `b % w`.
    w: u32,
}

/// The low `k` bits.
fn ones(k: u32) -> u64 {
    1u64.checked_shl(k).map_or(u64::MAX, |b| b - 1)
}

impl Fam {
    /// Families whose flip position has a 1-bit in `pattern`: its low `w`
    /// bits repeated in every `w`-bit lane (`w` divides 64).
    fn lanes(self, pattern: u64) -> u64 {
        (pattern & ones(self.w)) * (u64::MAX / ones(self.w))
    }

    /// Families whose flip position is `< k`.
    fn below(self, k: u32) -> u64 {
        self.lanes(ones(k))
    }

    /// Families visible when the value is read at `bytes` width.
    fn low(self, bytes: u8) -> u64 {
        self.below(8 * bytes as u32)
    }

    /// Families whose flip position is exactly the msb of a
    /// `bytes`-wide value (the only position additive carries preserve).
    fn top(self, bytes: u8) -> u64 {
        self.lanes(1 << (8 * bytes as u32 - 1))
    }

    /// Families whose flip position has a 1-bit in constant `c` (taken at
    /// `bytes` width) — the survivors of `and imm`.
    fn const_bits(self, c: u64, bytes: u8) -> u64 {
        self.lanes(c & ones(8 * bytes as u32))
    }
}

/// Condition classes a `cc` reads, as a nibble over
/// `CONDITION_BITS = [CF, ZF, SF, OF]` indices, expanded to family space
/// (class of family `b` is `b % 4`, matching `apply_fault`).
fn class_mask(cc: CC) -> u64 {
    let nibble: u64 = match cc {
        CC::E | CC::Ne => 0b0010, // ZF
        CC::L | CC::Ge => 0b1100, // SF, OF
        CC::Le | CC::G => 0b1110, // ZF, SF, OF
        CC::B | CC::Ae => 0b0001, // CF
        CC::Be | CC::A => 0b0011, // CF, ZF
    };
    nibble * 0x1111_1111_1111_1111
}

fn get(st: &[(Loc, Dev)], loc: Loc) -> Dev {
    st.binary_search_by_key(&loc, |e| e.0).map_or(Dev::default(), |i| st[i].1)
}

fn set(st: &mut State, loc: Loc, dev: Dev) {
    match (st.binary_search_by_key(&loc, |e| e.0), dev.all() == 0) {
        (Ok(i), true) => drop(st.remove(i)),
        (Ok(i), false) => st[i].1 = dev,
        (Err(i), false) => st.insert(i, (loc, dev)),
        (Err(_), true) => {}
    }
}

/// Families live anywhere in `st`.
fn live(st: &[(Loc, Dev)]) -> u64 {
    st.iter().fold(0, |a, (_, d)| a | d.all())
}

/// Join `from` into `into`: OR the may masks; with `must` set, a family
/// live in both keeps a `def` bit only where both have it, a family live in
/// one keeps that one's. True when `into` changed (gained a may bit or lost
/// a `def` bit).
fn join(into: &mut State, from: &[(Loc, Dev)], must: bool) -> bool {
    let mut changed = false;
    let fresh = if must { !live(into) } else { 0 };
    if must {
        let live_from = live(from);
        for (l, a) in into.iter_mut().filter(|(_, a)| a.def & live_from != 0) {
            let keep = get(from, *l).def | !live_from;
            changed |= a.def & !keep != 0;
            a.def &= keep;
        }
    }
    for &(loc, b) in from {
        match into.binary_search_by_key(&loc, |e| e.0) {
            Ok(i) => {
                let a = &mut into[i].1;
                changed |= b.pos & !a.pos != 0 || b.scr & !a.scr != 0;
                *a = Dev {
                    pos: a.pos | b.pos,
                    scr: a.scr | b.scr,
                    def: a.def | (b.def & fresh),
                };
            }
            Err(i) => {
                into.insert(i, (loc, Dev { def: b.def & fresh, ..b }));
                changed = true;
            }
        }
    }
    changed
}

/// The `Mem` summary's families (it sorts last).
fn summary(st: &[(Loc, Dev)]) -> u64 {
    st.last().filter(|e| e.0 == Loc::Mem).map_or(0, |e| e.1.all())
}

/// Union of all global-cell deviations — what a pointer (summary) load may
/// read.
fn global_dev(st: &[(Loc, Dev)]) -> u64 {
    st.iter()
        .filter(|(l, _)| matches!(l, Loc::Global(_)))
        .fold(0, |a, (_, d)| a | d.all())
}

/// Per-program worklist storage, reused by every site: one joined in-state
/// and a `queued` bit per block leader, the leaders whose in-state the
/// current site touched (cleared before the next site), the out-state the
/// walk carries down a block and the in-state buffer it steps from, and
/// whether the states carry must masks (the lint).
struct Walk {
    ins: Vec<State>,
    queued: Vec<bool>,
    touched: Vec<u32>,
    work: Vec<u32>,
    out: State,
    cur: State,
    must: bool,
}

impl Walk {
    fn new(insts: usize) -> Walk {
        Walk {
            ins: vec![State::new(); insts],
            queued: vec![false; insts],
            touched: Vec::new(),
            work: Vec::new(),
            out: State::new(),
            cur: State::new(),
            must: false,
        }
    }

    /// Join instruction `j`'s out-state into the in-states of `kind`'s
    /// successors within `func`, queueing each that changed. The out-state
    /// is `out`, or with `leader` that leader's in-state, which its block
    /// left unchanged (joining it into itself would change nothing).
    fn propagate(&mut self, kind: &AKind, j: u32, func: &Range<u32>, leader: Option<u32>) {
        let from = match leader {
            Some(l) => std::mem::take(&mut self.ins[l as usize]),
            None => std::mem::take(&mut self.out),
        };
        if !from.is_empty() {
            for s in kind.successors(j).filter(|&s| func.contains(&s) && Some(s) != leader) {
                let su = s as usize;
                if self.ins[su].is_empty() {
                    self.touched.push(s);
                }
                if join(&mut self.ins[su], &from, self.must) && !self.queued[su] {
                    self.queued[su] = true;
                    self.work.push(s);
                }
            }
        }
        match leader {
            Some(l) => self.ins[l as usize] = from,
            None => self.out = from,
        }
    }

    fn reset(&mut self) {
        for j in self.touched.drain(..) {
            self.ins[j as usize].clear();
            self.queued[j as usize] = false;
        }
        self.work.clear();
    }
}

/// The locations an instruction's transfer — or a block's — reads, writes,
/// kills or observes. A state holding none of them passes through
/// [`BitsEngine::step_bits`] unchanged and observes nothing there, so the
/// walk carries it on without calling the transfer.
#[derive(Debug, Clone, Default)]
struct Touch {
    /// Registers, as a set of `1 << Reg::index()`, and the
    /// [`Touch::FLAGS`], [`Touch::MEM`] and [`Touch::GLOBALS`] classes.
    bits: u32,
    /// The frame and global cells the operands name.
    cells: Vec<Loc>,
}

impl Touch {
    const FLAGS: u32 = 1 << Reg::COUNT;
    const MEM: u32 = Touch::FLAGS << 1;
    /// Every global cell: a pointer load or a call may read any of them.
    const GLOBALS: u32 = Touch::FLAGS << 2;

    fn with(mut self, bits: u32) -> Touch {
        self.bits |= bits;
        self
    }

    /// The bit of a register, the flags or the summary; `None` for a cell.
    fn bit(l: Loc) -> Option<u32> {
        match l {
            Loc::Reg(r) => Some(1 << r.index()),
            Loc::Flags => Some(Touch::FLAGS),
            Loc::Mem => Some(Touch::MEM),
            Loc::Frame(_) | Loc::Global(_) => None,
        }
    }

    fn loc(mut self, l: Loc) -> Touch {
        match Touch::bit(l) {
            Some(b) => self.bits |= b,
            None => self.cells.push(l),
        }
        self
    }

    /// Everything `self` or `o` touches.
    fn union(self, o: &Touch) -> Touch {
        o.cells
            .iter()
            .fold(self, |t, &l| if t.cells.contains(&l) { t } else { t.loc(l) })
            .with(o.bits)
    }

    fn regs(self, regs: impl IntoIterator<Item = Reg>) -> Touch {
        regs.into_iter().fold(self, |t, r| t.loc(Loc::Reg(r)))
    }

    /// Reading or writing `op`: its register, or its base register and the
    /// cell it addresses. A global cell is read together with the `Mem`
    /// summary; a pointer access reads the summary and every global.
    fn op(self, op: &AOp) -> Touch {
        match op {
            AOp::Imm(_) => self,
            AOp::Reg(r) => self.regs([*r]),
            AOp::Mem(mr) => {
                let t = self.regs(mr.base);
                match mr.loc() {
                    l @ Loc::Frame(_) => t.loc(l),
                    l @ Loc::Global(_) => t.loc(l).with(Touch::MEM),
                    _ => t.with(Touch::MEM | Touch::GLOBALS),
                }
            }
        }
    }

    /// Does `st` hold a location the instruction touches?
    fn holds(&self, st: &[(Loc, Dev)]) -> bool {
        st.iter().any(|&(l, _)| match Touch::bit(l) {
            Some(b) => self.bits & b != 0,
            None => self.cells.contains(&l) || (matches!(l, Loc::Global(_)) && self.bits & Touch::GLOBALS != 0),
        })
    }
}

/// Per-program analysis context: the program, its guard table and the ABI
/// tables the call/return rules read.
struct BitsEngine<'a> {
    prog: &'a AsmProgram,
    guards: Guards,
    /// Function table index per instruction (`usize::MAX` if none).
    func_of: Vec<usize>,
    /// Return-value register per function table entry, if it returns one.
    ret_reg: Vec<Option<Loc>>,
    /// Argument registers per IR function id (callee view).
    arg_regs: Vec<Vec<Loc>>,
    /// Per instruction: what its transfer touches.
    touch: Vec<Touch>,
    /// Per instruction: it leads no block — its one predecessor is the
    /// instruction before it, whose one successor it is.
    inner: Vec<bool>,
    /// Per block leader: the block's last instruction and what the whole
    /// block touches (unused for other instructions).
    blocks: Vec<(u32, Touch)>,
}

impl<'a> BitsEngine<'a> {
    fn new(m: &Module, prog: &'a AsmProgram) -> BitsEngine<'a> {
        let mut func_of = vec![usize::MAX; prog.insts.len()];
        for (fi, f) in prog.funcs.iter().enumerate() {
            func_of[f.entry as usize..f.end as usize].fill(fi);
        }
        let ret_reg = prog
            .funcs
            .iter()
            .map(|f| {
                let ty = m.functions[f.ir_id.index()].ret_ty?;
                Some(Loc::Reg(if ty.is_float() { Reg::Xmm0 } else { Reg::Rax }))
            })
            .collect();
        let arg_regs = m
            .functions
            .iter()
            .map(|f| {
                let (mut ni, mut nf) = (0, 0);
                let mut regs = Vec::new();
                for ty in &f.params {
                    let (pool, n): (&[Reg], _) = if ty.is_float() {
                        (&Reg::FLOAT_ARGS, &mut nf)
                    } else {
                        (&Reg::INT_ARGS, &mut ni)
                    };
                    regs.extend(pool.get(*n).map(|&r| Loc::Reg(r)));
                    *n += 1;
                }
                regs
            })
            .collect();
        let mut inner: Vec<bool> = (0..prog.insts.len())
            .map(|j| {
                j > 0
                    && func_of[j] != usize::MAX
                    && func_of[j] == func_of[j - 1]
                    && prog.insts[j - 1].kind.successors(j as u32 - 1).eq([j as u32])
            })
            .collect();
        for inst in &prog.insts {
            if let AKind::Jmp { target } | AKind::Jcc { target, .. } = inst.kind {
                if let Some(t) = inner.get_mut(target as usize) {
                    *t = false;
                }
            }
        }
        let mut eng = BitsEngine {
            prog,
            guards: Guards::compute(prog),
            func_of,
            ret_reg,
            arg_regs,
            touch: Vec::new(),
            inner,
            blocks: Vec::new(),
        };
        let n = prog.insts.len();
        eng.touch = (0..n).map(|j| eng.touch_of(j)).collect();
        eng.blocks = (0..n)
            .map(|l| {
                let mut block = (l, eng.touch[l].clone());
                while !eng.inner[l] && block.0 + 1 < n && eng.inner[block.0 + 1] {
                    block = (block.0 + 1, block.1.union(&eng.touch[block.0 + 1]));
                }
                (block.0 as u32, block.1)
            })
            .collect();
        eng
    }

    /// What instruction `j`'s transfer touches, read off
    /// [`BitsEngine::step_bits`]'s rules.
    fn touch_of(&self, j: usize) -> Touch {
        let t = Touch::default();
        match self.prog.insts[j].kind {
            AKind::Mov { dst, src, .. } | AKind::MovSd { dst, src, .. } => t.op(&src).op(&dst),
            AKind::MovSx { dst, src, .. }
            | AKind::Sse { dst, src, .. }
            | AKind::Cvtsi2f { dst, src }
            | AKind::Cvtf2si { dst, src } => t.op(&src).regs([dst]),
            AKind::Lea { dst, mem } => t.regs(mem.base).regs([dst]),
            AKind::Alu { dst, src, .. } | AKind::Cmov { dst, src, .. } => t.op(&src).regs([dst]).with(Touch::FLAGS),
            AKind::Shift { dst, amt, .. } => t.op(&amt).regs([dst]).with(Touch::FLAGS),
            AKind::Cqo { .. } => t.regs([Reg::Rax, Reg::Rdx]),
            AKind::ZeroRdx => t.regs([Reg::Rdx]),
            AKind::Div { src, .. } => t.op(&src).regs([Reg::Rax, Reg::Rdx]),
            AKind::Cmp { lhs, rhs, .. } | AKind::Test { lhs, rhs, .. } => t.op(&lhs).op(&rhs).with(Touch::FLAGS),
            AKind::Ucomi { lhs, rhs } => t.op(&rhs).regs([lhs]).with(Touch::FLAGS),
            AKind::SetCC { dst, .. } => t.regs([dst]).with(Touch::FLAGS),
            AKind::Jcc { .. } => t.with(Touch::FLAGS),
            // Neither reads anything; a trap has no successor to carry to.
            AKind::Jmp { .. } | AKind::DetectTrap => t,
            AKind::Call { func, .. } => {
                let args = self.arg_regs[func.index()].iter().fold(t, |t, &a| t.loc(a));
                args.regs(Reg::GPR_POOL)
                    .regs(Reg::XMM_POOL)
                    .with(Touch::FLAGS | Touch::MEM | Touch::GLOBALS)
            }
            // No successor either: an untouched state ends unobserved.
            AKind::Ret => {
                let rr = self.ret_reg.get(self.func_of[j]).copied().flatten();
                rr.into_iter().fold(t, Touch::loc).with(Touch::MEM | Touch::GLOBALS)
            }
            AKind::Push { src } => t.op(&src).with(Touch::MEM),
            AKind::Pop { dst } => t.regs([dst]),
            AKind::MovQ { dst, src, .. } => t.regs([dst, src]),
            AKind::Math { dst, a, b, .. } => t.regs([dst, a]).regs(b),
            AKind::Out { src, .. } => t.op(&src),
        }
    }

    /// Where a flip at site `idx` lands: the families observed at birth,
    /// and the location they start from with the site's family width.
    fn seed(&self, idx: u32) -> (Seen, Option<(Loc, Dev, Fam)>) {
        let inst = &self.prog.insts[idx as usize];
        let mut seen = Seen::default();
        let fresh = Dev { pos: u64::MAX, scr: 0, def: u64::MAX };
        let start = match inst.kind.fault_dest() {
            // A corrupted frame/stack pointer breaks the addressing
            // discipline every rule below relies on: control image.
            FaultDest::Gpr(Reg::Rbp | Reg::Rsp, _) => None,
            FaultDest::Gpr(r, w) => Some((Loc::Reg(r), fresh, Fam { w: 8 * w as u32 })),
            // Class-exact: family `b` flips condition class `b % 4`.
            FaultDest::Flags => Some((Loc::Flags, fresh, Fam { w: 64 })),
            FaultDest::MemVal(w) => match inst.kind {
                AKind::Mov { dst: AOp::Mem(mr), .. } | AKind::MovSd { dst: AOp::Mem(mr), .. } => {
                    match mr.loc() {
                        l @ (Loc::Frame(_) | Loc::Global(_)) => Some((l, fresh, Fam { w: 8 * w as u32 })),
                        // Pointer-addressed cell: identity lost at birth.
                        _ => {
                            seen.carried = u64::MAX;
                            Some((Loc::Mem, Dev::new(0, u64::MAX, 0), Fam { w: 8 * w as u32 }))
                        }
                    }
                }
                // Corrupted return address / saved frame pointer.
                _ => None,
            },
            FaultDest::None => unreachable!("instruction {idx} is no fault site"),
        };
        // So is a site outside every function: there is nothing to walk.
        match start {
            Some(s) if self.func_of[idx as usize] != usize::MAX => (seen, Some(s)),
            _ => {
                seen.sink(Sink::ControlImage, u64::MAX);
                (seen, None)
            }
        }
    }

    /// The prune query for site `idx`: every observed family is vulnerable.
    fn prune_site(&self, idx: u32, walk: &mut Walk) -> BitVerdict {
        let mut vuln = 0u64;
        self.fixpoint(idx, walk, false, |seen| {
            vuln |= seen.any();
            // Families already vulnerable need no further tracking.
            if vuln == u64::MAX {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(vuln)
            }
        });
        BitVerdict { proven_masked: !vuln, vulnerable: vuln }
    }

    /// The lint query for site `idx`: the first sink any family reaches;
    /// a family a guarded compare detects ends on that path.
    fn lint_site(&self, idx: u32, walk: &mut Walk) -> Verdict {
        let found = self.fixpoint(idx, walk, true, |seen| match seen.first_sink() {
            Some(s) => ControlFlow::Break(s),
            None => ControlFlow::Continue(seen.detected),
        });
        found.map_or(Verdict::Protected, Verdict::Penetrates)
    }

    /// The joined fixpoint of the module docs for site `idx`, tracking must
    /// masks when `must` is set (the lint). `settle` reads every step's
    /// observations (the fault's own first) and returns the families to
    /// drop from that step's out-state, or breaks the walk with a result.
    fn fixpoint<R>(
        &self,
        idx: u32,
        walk: &mut Walk,
        must: bool,
        mut settle: impl FnMut(&Seen) -> ControlFlow<R, u64>,
    ) -> Option<R> {
        let (seen, start) = self.seed(idx);
        let drop = match settle(&seen) {
            ControlFlow::Break(r) => return Some(r),
            ControlFlow::Continue(drop) => drop,
        };
        let (loc, dev, fam) = start?;
        let f = &self.prog.funcs[self.func_of[idx as usize]];
        let func = f.entry..f.end;
        let insts = &self.prog.insts;
        walk.must = must;
        walk.out.clear();
        walk.out.push((loc, Dev { def: if must { dev.def } else { 0 }, ..dev }));
        strip(&mut walk.out, drop);
        // `walk.out` is instruction `j`'s out-state.
        let mut j = idx;
        let found = 'walk: loop {
            // Down the rest of the block, stepping only what touches it.
            while !walk.out.is_empty() && self.inner.get(j as usize + 1) == Some(&true) {
                j += 1;
                if self.touch[j as usize].holds(&walk.out) {
                    std::mem::swap(&mut walk.out, &mut walk.cur);
                    if let ControlFlow::Break(r) = self.step(j, &walk.cur, fam, &mut walk.out, &mut settle) {
                        break 'walk Some(r);
                    }
                }
            }
            walk.propagate(&insts[j as usize].kind, j, &func, None);
            // Pop the next queued block that touches its in-state; a block
            // that does not passes that state on unchanged.
            j = loop {
                let Some(l) = walk.work.pop() else { break 'walk None };
                walk.queued[l as usize] = false;
                let (end, touch) = &self.blocks[l as usize];
                if touch.holds(&walk.ins[l as usize]) {
                    break l;
                }
                walk.propagate(&insts[*end as usize].kind, *end, &func, Some(l));
            };
            let st = &walk.ins[j as usize];
            if !self.touch[j as usize].holds(st) {
                walk.out.clone_from(st);
            } else if let ControlFlow::Break(r) = self.step(j, st, fam, &mut walk.out, &mut settle) {
                break Some(r);
            }
        };
        walk.reset();
        found
    }

    /// Step `j` from `st` into `out` and settle what it observes: `out`
    /// loses the families `settle` drops, and all of them where the path
    /// ends.
    fn step<R>(
        &self,
        j: u32,
        st: &[(Loc, Dev)],
        fam: Fam,
        out: &mut State,
        settle: &mut impl FnMut(&Seen) -> ControlFlow<R, u64>,
    ) -> ControlFlow<R> {
        let mut seen = Seen::default();
        let cont = self.step_bits(j, st, fam, out, &mut seen);
        let drop = settle(&seen)?;
        if cont {
            strip(out, drop);
        } else {
            out.clear();
        }
        ControlFlow::Continue(())
    }

    /// Deviation visible when reading `op` at `w` bytes. A deviated address
    /// base reads the wrong cell, and a pointer load may read any corrupted
    /// global: both carried observations, read on as scrambled data.
    fn read_op(&self, st: &[(Loc, Dev)], op: &AOp, w: u8, fam: Fam, seen: &mut Seen) -> Dev {
        match op {
            AOp::Imm(_) => Dev::default(),
            AOp::Reg(r) => get(st, Loc::Reg(*r)).keep(fam.low(w)),
            AOp::Mem(mr) => {
                let base = self.base(st, mr, seen);
                base | match mr.loc() {
                    l @ Loc::Frame(_) => get(st, l).keep(fam.low(w)),
                    l @ Loc::Global(_) => get(st, l).keep(fam.low(w)) | Dev::new(0, summary(st), 0),
                    _ => {
                        let g = global_dev(st);
                        seen.carried |= g;
                        Dev::new(0, g | summary(st), 0)
                    }
                }
            }
        }
    }

    /// A deviated base register makes the access hit the wrong cell:
    /// carried, as a scrambled (and, if the base definitely deviates,
    /// definitely deviating) access.
    fn base(&self, st: &[(Loc, Dev)], mr: &MemRef, seen: &mut Seen) -> Dev {
        let b = mr.base.map_or(Dev::default(), |b| get(st, Loc::Reg(b)));
        seen.carried |= b.all();
        Dev::new(0, b.all(), b.def)
    }

    /// Strong register write. A deviation written into rbp/rsp breaks the
    /// addressing discipline — a control-image sink instead of tracked.
    fn write_reg(&self, st: &mut State, r: Reg, dev: Dev, seen: &mut Seen) {
        if matches!(r, Reg::Rbp | Reg::Rsp) && dev.all() != 0 {
            seen.sink(Sink::ControlImage, dev.all());
        } else {
            set(st, Loc::Reg(r), dev);
        }
    }

    /// A deviation escaping into pointer-addressed memory (or the push/pop
    /// area) loses its identity: carried, and parked in the `Mem` summary.
    fn park(&self, st: &mut State, dev: Dev, seen: &mut Seen) {
        seen.carried |= dev.all();
        let m = get(st, Loc::Mem);
        set(st, Loc::Mem, Dev::new(m.pos, m.scr | dev.all(), 0));
    }

    /// Transfer one instruction from `st` into `t`, reporting what it
    /// observes into `seen`: returns whether the path continues. Every
    /// strong write definitely deviates in a family when something it
    /// reads does and the result keeps the family live.
    fn step_bits(&self, j: u32, st: &[(Loc, Dev)], fam: Fam, t: &mut State, seen: &mut Seen) -> bool {
        let inst = &self.prog.insts[j as usize];
        t.clear();
        t.extend_from_slice(st);
        match inst.kind {
            AKind::Mov { w, dst, src } | AKind::MovSd { w, dst, src } => {
                let dev = self.read_op(st, &src, w, fam, seen);
                match dst {
                    AOp::Reg(r) => self.write_reg(t, r, dev, seen),
                    AOp::Mem(mr) => {
                        let base = self.base(st, &mr, seen);
                        match mr.loc() {
                            l @ (Loc::Frame(_) | Loc::Global(_)) => {
                                // Partial update: a width-w store replaces
                                // the cell's low 8w bits only.
                                let old = get(st, l);
                                let np = dev.pos | (old.pos & !fam.low(w));
                                let ns = dev.scr | if w < 8 { old.scr } else { 0 };
                                set(t, l, Dev::new(np, ns, dev.def));
                            }
                            _ => self.park(t, dev | base, seen),
                        }
                    }
                    AOp::Imm(_) => {}
                }
            }
            AKind::MovSx { ws, dst, src, .. } => {
                let d = self.read_op(st, &src, ws, fam, seen);
                // Positions below the source sign bit survive sign
                // extension exactly; a deviated sign bit smears upward.
                let keep = fam.below(8 * ws as u32 - 1);
                let sign = fam.low(ws) & !keep;
                self.write_reg(t, dst, Dev::new(d.pos & keep, d.scr | (d.pos & sign), d.def), seen);
            }
            AKind::Lea { dst, mem } => {
                // base + disp is an addition: only an msb deviation
                // survives carries position-exactly.
                let b = mem.base.map_or(Dev::default(), |b| get(st, Loc::Reg(b)));
                self.write_reg(t, dst, Dev::new(b.pos & fam.top(8), b.scr | (b.pos & !fam.top(8)), b.def), seen);
            }
            AKind::Alu { op, w, dst, src } => {
                let a = self.read_op(st, &AOp::Reg(dst), w, fam, seen);
                let b = self.read_op(st, &src, w, fam, seen);
                let imm = match src {
                    AOp::Imm(v) => Some(v as u64),
                    _ => None,
                };
                let wmask = if w >= 8 { u64::MAX } else { (1u64 << (8 * w)) - 1 };
                let self_op = src == AOp::Reg(dst);
                let (pos, scr) = match op {
                    // Sub r,r and Xor r,r produce a constant: clean kill.
                    AluOp::Sub | AluOp::Xor if self_op => (0, 0),
                    AluOp::Add | AluOp::Sub | AluOp::Imul => {
                        // Carries: only msb deviations stay single-bit.
                        let p = (a.pos | b.pos) & fam.top(w);
                        (p, a.scr | b.scr | ((a.pos | b.pos) & !fam.top(w)))
                    }
                    // Bitwise ops are position-exact; an immediate mask
                    // additionally kills positions it forces constant
                    // (`and 0` / `or ~0` even defeats scrambles).
                    AluOp::And => match imm {
                        Some(c) if c & wmask == 0 => (0, 0),
                        Some(c) => (a.pos & fam.const_bits(c, w), a.scr),
                        None => (a.pos | b.pos, a.scr | b.scr),
                    },
                    AluOp::Or => match imm {
                        Some(c) if !c & wmask == 0 => (0, 0),
                        Some(c) => (a.pos & fam.const_bits(!c, w), a.scr),
                        None => (a.pos | b.pos, a.scr | b.scr),
                    },
                    AluOp::Xor => (a.pos | b.pos, a.scr | b.scr),
                };
                // Flags: Add/Sub carry/overflow depend on the operands;
                // the bitwise family's flags are a function of the result.
                let fdev = match op {
                    AluOp::Add | AluOp::Sub => a.all() | b.all(),
                    _ => pos | scr,
                };
                let def = a.def | b.def;
                set(t, Loc::Flags, Dev::new(0, fdev, def));
                self.write_reg(t, dst, Dev::new(pos, scr, def), seen);
            }
            AKind::Shift { op, w, dst, amt } => {
                let a = self.read_op(st, &AOp::Reg(dst), w, fam, seen);
                let res = match amt {
                    AOp::Imm(k) => {
                        let k = (k as u64 & 0xff) as u32 & (8 * w as u32 - 1);
                        let wbits = 8 * w as u32;
                        let surviving = match op {
                            // Positions shifted out of the width die; the
                            // rest move (position no longer the family's).
                            ShiftOp::Shl => a.pos & fam.below(wbits - k),
                            ShiftOp::Shr => a.pos & !fam.below(k),
                            // A deviated sign bit replicates on the way
                            // down; low positions below the shift die.
                            ShiftOp::Sar => (a.pos & !fam.below(k)) | (a.pos & fam.low(w) & !fam.below(wbits - 1)),
                        };
                        Dev::new(0, surviving | a.scr, a.def)
                    }
                    _ => {
                        // Variable amount (cl): a deviated amount or value
                        // scrambles; nothing can be killed.
                        let n = self.read_op(st, &amt, 1, fam, seen);
                        Dev::new(0, a.all() | n.all(), a.def | n.def)
                    }
                };
                set(t, Loc::Flags, res);
                self.write_reg(t, dst, res, seen);
            }
            AKind::Cqo { .. } => {
                // rdx = sign of rax bit 63 (full-width read regardless of
                // w): only a bit-63 deviation flips it — into all of rdx.
                let a = get(st, Loc::Reg(Reg::Rax));
                self.write_reg(t, Reg::Rdx, Dev::new(0, (a.pos & fam.top(8)) | a.scr, a.def), seen);
            }
            AKind::ZeroRdx => self.write_reg(t, Reg::Rdx, Dev::default(), seen),
            AKind::Div { src, .. } => {
                // Deviated dividend or divisor risks a divide trap
                // (divisor 0, signed overflow) on top of a scrambled
                // quotient: carried. rdx is cqo/zero of rax, so not read.
                let a = get(st, Loc::Reg(Reg::Rax));
                let b = self.read_op(st, &src, 8, fam, seen);
                seen.carried |= a.all() | b.all();
                let q = Dev::new(0, a.all() | b.all(), a.def | b.def);
                self.write_reg(t, Reg::Rax, q, seen);
                self.write_reg(t, Reg::Rdx, q, seen);
            }
            AKind::Cmp { w, lhs, rhs } => {
                let a = self.read_op(st, &lhs, w, fam, seen);
                let b = self.read_op(st, &rhs, w, fam, seen);
                self.compare(j, a, b, t, seen);
            }
            AKind::Test { w, lhs, rhs } => {
                // Flags are a pure function of `lhs & rhs`: an immediate
                // mask kills position-exact deviations outside it.
                let a = self.read_op(st, &lhs, w, fam, seen);
                let b = self.read_op(st, &rhs, w, fam, seen);
                match rhs {
                    AOp::Imm(c) => self.compare(j, a.keep(fam.const_bits(c as u64, w)), b, t, seen),
                    _ => self.compare(j, a, b, t, seen),
                }
            }
            AKind::Ucomi { lhs, rhs } => {
                let a = self.read_op(st, &AOp::Reg(lhs), 8, fam, seen);
                let b = self.read_op(st, &rhs, 8, fam, seen);
                self.compare(j, a, b, t, seen);
            }
            AKind::SetCC { cc, dst } => {
                // Branchless: a deviated condition flips the materialized
                // 0/1 — tracked, not observed.
                let f = get(st, Loc::Flags);
                self.write_reg(t, dst, Dev::new(0, (f.pos & class_mask(cc)) | f.scr, f.def), seen);
            }
            AKind::Cmov { cc, w, dst, src } => {
                let f = get(st, Loc::Flags);
                let affected = (f.pos & class_mask(cc)) | f.scr;
                let d = self.read_op(st, &AOp::Reg(dst), w, fam, seen);
                let s = self.read_op(st, &src, w, fam, seen);
                // Conditional write: no kill; a deviated condition picks
                // the wrong source.
                set(t, Loc::Reg(dst), Dev::new(d.pos | s.pos, d.scr | s.scr | affected, d.def | s.def | f.def));
            }
            AKind::Jcc { cc, .. } => {
                // Any deviated flag class the condition reads steers the
                // branch wrong — even toward a detector (Detected is not
                // the golden outcome), though there it is no sink: a
                // detector-armed branch fires or takes its golden arm, a
                // trampoline-guarded one is revalidated on every edge.
                // Class-exact deviations in unread classes survive.
                let f = get(st, Loc::Flags);
                let steered = (f.pos & class_mask(cc)) | f.scr;
                let guarded = || self.guards.jcc_has_detect_arm(j) || self.guards.branch_is_guarded(j);
                if steered != 0 && guarded() {
                    seen.carried |= steered;
                } else {
                    seen.sink(Sink::Branch, steered);
                }
                set(t, Loc::Flags, Dev::new(f.pos & !class_mask(cc), 0, f.def));
            }
            AKind::Jmp { .. } => {}
            AKind::Call { func, .. } => {
                // Callee sees argument registers and all of global memory;
                // the caller frame is unaddressable from the callee.
                seen.sink(Sink::MemEscape, global_dev(st) | summary(st));
                for a in &self.arg_regs[func.index()] {
                    seen.sink(Sink::CallArg, get(st, *a).all());
                }
                t.retain(|&(l, _)| match l {
                    Loc::Reg(r) => !Reg::GPR_POOL.contains(&r) && !Reg::XMM_POOL.contains(&r),
                    l => l != Loc::Flags,
                });
            }
            AKind::Ret => {
                // The caller reads the return register and memory;
                // everything else (dead scratch state, the callee frame) is
                // discarded at the boundary.
                seen.sink(Sink::MemEscape, global_dev(st) | summary(st));
                if let Some(rr) = self.ret_reg[self.func_of[j as usize]] {
                    seen.sink(Sink::RetVal, get(st, rr).all());
                }
                return false;
            }
            AKind::Push { src } => {
                let dev = self.read_op(st, &src, 8, fam, seen);
                self.park(t, dev, seen);
            }
            // Restores the saved frame pointer clean: a deviated push
            // parked its family in `Mem`, which the coming `ret` reports.
            AKind::Pop { dst } => self.write_reg(t, dst, Dev::default(), seen),
            AKind::Sse { dst, src, .. } => {
                let a = self.read_op(st, &AOp::Reg(dst), 8, fam, seen);
                let b = self.read_op(st, &src, 8, fam, seen);
                self.write_reg(t, dst, Dev::new(0, a.all() | b.all(), a.def | b.def), seen);
            }
            AKind::Cvtsi2f { dst, src } | AKind::Cvtf2si { dst, src } => {
                let b = self.read_op(st, &src, 8, fam, seen);
                self.write_reg(t, dst, Dev::new(0, b.all(), b.def), seen);
            }
            AKind::MovQ { w, dst, src } => {
                let d = self.read_op(st, &AOp::Reg(src), w, fam, seen);
                self.write_reg(t, dst, d, seen);
            }
            AKind::Math { dst, a, b, .. } => {
                let da = self.read_op(st, &AOp::Reg(a), 8, fam, seen);
                let db = b.map_or(Dev::default(), |r| get(st, Loc::Reg(r)));
                self.write_reg(t, dst, Dev::new(0, da.all() | db.all(), da.def | db.def), seen);
            }
            AKind::Out { kind, src } => {
                // The port reads 8 bytes; the byte port truncates to the
                // low byte, leaving higher deviations unobserved.
                let d = self.read_op(st, &src, 8, fam, seen);
                let shown = match kind {
                    OutKind::Byte => (d.pos & fam.low(1)) | d.scr,
                    OutKind::I64 | OutKind::F64 => d.all(),
                };
                seen.sink(Sink::Output, shown);
            }
            AKind::DetectTrap => {
                // Reachable only off a detect arm; for still-tracked
                // families the golden path never comes here.
                return false;
            }
        }
        true
    }

    /// Flags of a compare of sides `a` and `b`. At a guarded compare, a
    /// family that may deviate on exactly one side and definitely deviates
    /// there is detected: the compared values differ, the detector fires.
    fn compare(&self, j: u32, a: Dev, b: Dev, t: &mut State, seen: &mut Seen) {
        let one_sided = (a.def & !b.all()) | (b.def & !a.all());
        if one_sided != 0 && self.guards.compare_is_guarded(j) {
            seen.detected |= one_sided;
        }
        set(t, Loc::Flags, Dev::new(0, a.all() | b.all(), a.def | b.def));
    }
}

/// Drop the families `gone` from every entry.
fn strip(st: &mut State, gone: u64) {
    if gone == 0 {
        return;
    }
    st.retain_mut(|(_, d)| {
        d.pos &= !gone;
        d.scr &= !gone;
        d.def &= !gone;
        d.all() != 0
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_backend::mir::{AsmFunc, AsmRole};
    use flowery_backend::{compile_module, BackendConfig};
    use flowery_ir::{FuncId, IrRole};
    use flowery_passes::{duplicate_module, DupConfig, ProtectionPlan};

    fn program(src: &str, protect: bool) -> (Module, AsmProgram) {
        let mut m = flowery_lang::compile("t", src).unwrap();
        if protect {
            let plan = ProtectionPlan::full(&m);
            duplicate_module(&mut m, &plan, &DupConfig::default());
        }
        let prog = compile_module(&m, &BackendConfig::default());
        (m, prog)
    }

    const SRC: &str = "int main() { int s = 0; int i; for (i = 0; i < 20; i = i + 1) {\n\
                       s = s + i * 3; } output(s); return s; }";

    #[test]
    fn verdicts_are_complementary_and_indexed_per_inst() {
        let (m, prog) = program(SRC, false);
        let table = analyze_bits(&m, &prog);
        assert_eq!(table.verdicts.len(), prog.insts.len());
        for v in &table.verdicts {
            assert_eq!(v.proven_masked & v.vulnerable, 0);
            assert_eq!(v.proven_masked | v.vulnerable, u64::MAX);
        }
        assert!(table.sites > 0);
    }

    #[test]
    fn narrow_width_proves_high_bits() {
        // 32-bit compute: families repeat mod 32, so nothing is provable
        // *by width alone* — but a `cmp`-consumed value whose flags feed a
        // single-class jcc must prove the unread classes benign on
        // flag-destination sites.
        let (m, prog) = program(SRC, false);
        let table = analyze_bits(&m, &prog);
        let mut flag_site_proven = 0u64;
        for (i, inst) in prog.insts.iter().enumerate() {
            if matches!(inst.kind.fault_dest(), FaultDest::Flags) {
                flag_site_proven += table.verdicts[i].proven_masked.count_ones() as u64;
            }
        }
        assert!(
            flag_site_proven > 0,
            "single-class jcc consumers leave unread flag classes provably benign"
        );
    }

    #[test]
    fn protection_does_not_reduce_proven_pairs_to_zero() {
        let (m, prog) = program(SRC, true);
        let table = analyze_bits(&m, &prog);
        assert!(table.proven_pairs > 0, "hardened program still has maskable (site, bit) pairs");
        assert!(table.mean_vulnerable() < 1.0);
        // Fingerprint is content-sensitive.
        let f1 = table.fingerprint(1);
        let f2 = table.fingerprint(2);
        assert_ne!(f1, f2);
    }

    #[test]
    fn class_masks_cover_expected_condition_bits() {
        // Family b maps to CONDITION_BITS[b % 4] = [CF, ZF, SF, OF].
        assert_eq!(class_mask(CC::E) & 0xf, 0b0010);
        assert_eq!(class_mask(CC::L) & 0xf, 0b1100);
        assert_eq!(class_mask(CC::A) & 0xf, 0b0011);
        // Periodic over the whole family space.
        assert_eq!(class_mask(CC::E).count_ones(), 16);
    }

    #[test]
    fn family_masks_match_their_per_family_definitions() {
        for w in [8, 16, 32, 64] {
            let fam = Fam { w };
            let by_family = |keep: &dyn Fn(u32) -> bool| (0..64).filter(|&b| keep(b % w)).fold(0u64, |m, b| m | 1 << b);
            for k in 0..=64 {
                assert_eq!(fam.below(k), by_family(&|p| p < k), "w {w} below {k}");
            }
            for bytes in [1u8, 2, 4, 8] {
                let lim = 8 * bytes as u32;
                assert_eq!(fam.top(bytes), by_family(&|p| p == lim - 1), "w {w} top {bytes}");
                for c in [0, 1, 0x8000_0001, 0xf0f0_f0f0_f0f0_f0f0, u64::MAX, 1 << 63, 0x00ff_0000_ffff_00ff] {
                    let want = by_family(&|p| p < lim && (c >> p) & 1 == 1);
                    assert_eq!(fam.const_bits(c, bytes), want, "w {w} const {c:#x} at {bytes}");
                }
            }
        }
    }

    #[test]
    fn join_ors_both_halves_and_requeues_a_grown_in_state() {
        // Two predecessors (0 and 1) jump to 2: one brings a position-exact
        // flag deviation, the other a scramble of another family.
        let (jmp, func) = (AKind::Jmp { target: 2 }, 0..4);
        let mut walk = Walk::new(4);
        walk.out = vec![(Loc::Flags, Dev::new(0b01, 0, 0))];
        walk.propagate(&jmp, 0, &func, None);
        assert_eq!(walk.work.pop(), Some(2));
        walk.queued[2] = false;
        walk.out = vec![(Loc::Flags, Dev::new(0, 0b10, 0))];
        walk.propagate(&jmp, 1, &func, None);
        assert_eq!(walk.ins[2], [(Loc::Flags, Dev::new(0b01, 0b10, 0))]);
        assert_eq!(walk.work.pop(), Some(2), "an in-state that gained a bit is stepped again");
        walk.queued[2] = false;
        walk.propagate(&jmp, 1, &func, None);
        assert!(walk.work.is_empty(), "an in-state that gained nothing is not");
        walk.reset();
        assert!(walk.ins.iter().all(Vec::is_empty) && walk.work.is_empty() && !walk.queued[2]);
    }

    #[test]
    fn join_ands_def_only_over_paths_where_the_family_lives() {
        let (rax, rcx) = (Loc::Reg(Reg::Rax), Loc::Reg(Reg::Rcx));
        let mut into = State::new();
        // First arrival: taken as is.
        assert!(join(&mut into, &[(rax, Dev::new(0b11, 0, 0b11))], true));
        // Family 0 lives elsewhere on this path (rax clean there): its def
        // at rax goes. Family 1 is dead on this path: its def stays.
        assert!(join(&mut into, &[(rcx, Dev::new(0b01, 0, 0b01))], true));
        assert_eq!(into, [(rax, Dev::new(0b11, 0, 0b10)), (rcx, Dev::new(0b01, 0, 0))]);
        // Nothing new, nothing lost: no change, no requeue.
        assert!(!join(&mut into, &[(rax, Dev::new(0b10, 0, 0b10))], true));
        // Losing a def bit alone is a change.
        assert!(join(&mut into, &[(rax, Dev::new(0b10, 0, 0))], true));
        assert_eq!(into[0], (rax, Dev::new(0b11, 0, 0)));
    }

    /// `main` of ten hand-written instructions: site 0 loads rax, then
    /// either jumps straight to a guarded compare of rax (path A), or
    /// stores rax through a pointer and reloads it through one (path B,
    /// replaced by `path_b` at index 5); past the check, `out rax`.
    fn guarded_join(path_b: AKind) -> (Module, AsmProgram) {
        let (m, _) = program("int main() { return 0; }", false);
        let (rax, rcx, rdx) = (AOp::Reg(Reg::Rax), AOp::Reg(Reg::Rcx), Reg::Rdx);
        let ptr = AOp::Mem(MemRef { base: Some(rdx), disp: 0 });
        let frame = AOp::Mem(MemRef { base: Some(Reg::Rbp), disp: -8 });
        let kinds = [
            AKind::Mov { w: 8, dst: rax, src: frame },
            AKind::Jcc { cc: CC::E, target: 4 },
            AKind::Jmp { target: 6 },
            AKind::Jmp { target: 6 },
            AKind::Mov { w: 8, dst: ptr, src: rax },
            path_b,
            AKind::Cmp { w: 8, lhs: rax, rhs: rcx },
            AKind::Jcc { cc: CC::Ne, target: 9 },
            AKind::Out { kind: OutKind::I64, src: rax },
            AKind::DetectTrap,
        ];
        let insts = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| flowery_backend::AInst {
                kind,
                role: AsmRole::Compute,
                prov: None,
                ir_role: if i == 6 { IrRole::Checker } else { IrRole::App },
            })
            .collect();
        let main = AsmFunc {
            name: "main".into(),
            ir_id: FuncId(0),
            entry: 0,
            end: 10,
            frame_size: 8,
        };
        (m, AsmProgram { insts, funcs: vec![main], main_entry: 0, static_sites: 0 })
    }

    #[test]
    fn a_guarded_compare_kills_only_what_every_live_path_definitely_deviates() {
        let lint = |path_b| {
            let (m, prog) = guarded_join(path_b);
            assert!(Guards::compute(&prog).compare_is_guarded(6));
            lint_sites(&m, &prog)[0]
        };
        // Both paths bring rax definitely deviating: the detector fires in
        // every run, nothing reaches the output.
        let rax = AOp::Reg(Reg::Rax);
        assert_eq!(lint(AKind::Mov { w: 8, dst: rax, src: rax }), (0, Verdict::Protected));
        // Path B reloads rax through the `Mem` summary, which may or may not
        // hold the corrupted cell: the joined rax is no longer definitely
        // deviating, so the compare may pass and the family goes on.
        let reload = AKind::Mov {
            w: 8,
            dst: rax,
            src: AOp::Mem(MemRef { base: Some(Reg::Rdx), disp: 0 }),
        };
        assert_eq!(lint(reload), (0, Verdict::Penetrates(Sink::Output)));
    }

    /// Every location the pass-through rule can meet: the registers, the
    /// flags, the summary, every cell the program names and two it does
    /// not.
    fn every_loc(eng: &BitsEngine<'_>) -> Vec<Loc> {
        use Reg::*;
        let regs = [
            Rax, Rbx, Rcx, Rdx, Rsi, Rdi, Rbp, Rsp, R8, R9, R10, R11, Xmm0, Xmm1, Xmm2, Xmm3, Xmm4, Xmm5, Xmm6, Xmm7,
            Rflags,
        ];
        let mut locs: Vec<Loc> = regs.map(Loc::Reg).into();
        locs.extend([Loc::Flags, Loc::Mem, Loc::Frame(i32::MIN), Loc::Global(i32::MIN)]);
        locs.extend(eng.touch.iter().flat_map(|t| t.cells.iter().copied()));
        locs.sort();
        locs.dedup();
        locs
    }

    #[test]
    fn an_inner_instruction_has_one_predecessor_the_one_before_it() {
        let mut inner = 0;
        for src in PATHY.iter().chain([&SRC]) {
            for protect in [false, true] {
                let (m, prog) = program(src, protect);
                let eng = BitsEngine::new(&m, &prog);
                let n = prog.insts.len();
                let mut preds = vec![Vec::new(); n];
                for (j, inst) in prog.insts.iter().enumerate() {
                    for s in inst.kind.successors(j as u32).filter(|&s| (s as usize) < n) {
                        preds[s as usize].push(j as u32);
                    }
                }
                for (j, p) in preds.iter().enumerate().filter(|&(j, _)| eng.inner[j]) {
                    assert_eq!(p, &[j as u32 - 1], "instruction {j} ({protect}): {src}");
                    inner += 1;
                }
                // A leader's block runs through the inner instructions after it.
                for l in (0..n).filter(|&l| !eng.inner[l]) {
                    let end = eng.blocks[l].0 as usize;
                    assert!((l + 1..=end).all(|j| eng.inner[j]) && (end + 1 == n || !eng.inner[end + 1]));
                }
            }
        }
        assert!(inner > 1000, "only {inner} inner instructions");
    }

    #[test]
    fn a_state_the_touch_summary_misses_passes_through_the_transfer() {
        let devs = [
            Dev::new(1, 0, 1),
            Dev::new(0x8000_0000_8000_0000, 1 << 7, 0),
            Dev::new(u64::MAX, 0, u64::MAX),
            Dev::new(0, u64::MAX, 0),
        ];
        let mut passed = 0;
        for src in PATHY.iter().chain([&SRC]) {
            for protect in [false, true] {
                let (m, prog) = program(src, protect);
                let eng = BitsEngine::new(&m, &prog);
                let locs = every_loc(&eng);
                // Each instruction's block leader.
                let block_of: Vec<usize> = (0..prog.insts.len())
                    .map(|j| (0..=j).rev().find(|&l| !eng.inner[l]).unwrap())
                    .collect();
                let states = locs.iter().flat_map(|&l| devs.map(|d| vec![(l, d)])).chain([State::new()]);
                for st in states {
                    for j in 0..prog.insts.len() as u32 {
                        let leader = block_of[j as usize];
                        if eng.touch[j as usize].holds(&st) {
                            assert!(eng.blocks[leader].1.holds(&st), "the block at {leader} misses what {j} touches");
                            continue;
                        }
                        for fam in [Fam { w: 32 }, Fam { w: 64 }] {
                            let (mut t, mut seen) = (State::new(), Seen::default());
                            let cont = eng.step_bits(j, &st, fam, &mut t, &mut seen);
                            let kind = &prog.insts[j as usize].kind;
                            assert_eq!(t, st, "{kind:?} changed an untouched state");
                            assert_eq!((seen.sinks, seen.any()), (0, 0), "{kind:?} observed an untouched state {st:?}");
                            assert!(cont || kind.successors(j).next().is_none(), "{kind:?} ended a path");
                            passed += 1;
                        }
                    }
                }
            }
        }
        assert!(passed > 10_000, "only {passed} pass-throughs checked");
    }

    /// The per-instruction worklist the leader walk replaced: a joined
    /// in-state per instruction, each instruction stepped from its own.
    fn instruction_walk<R>(
        eng: &BitsEngine<'_>,
        idx: u32,
        must: bool,
        mut settle: impl FnMut(&Seen) -> ControlFlow<R, u64>,
    ) -> Option<R> {
        let (seen, start) = eng.seed(idx);
        let drop = match settle(&seen) {
            ControlFlow::Break(r) => return Some(r),
            ControlFlow::Continue(drop) => drop,
        };
        let (loc, dev, fam) = start?;
        let f = &eng.prog.funcs[eng.func_of[idx as usize]];
        let (func, insts) = (f.entry..f.end, &eng.prog.insts);
        let mut walk = Walk::new(insts.len());
        walk.must = must;
        walk.out.push((loc, Dev { def: if must { dev.def } else { 0 }, ..dev }));
        strip(&mut walk.out, drop);
        walk.propagate(&insts[idx as usize].kind, idx, &func, None);
        while let Some(j) = walk.work.pop() {
            walk.queued[j as usize] = false;
            let mut seen = Seen::default();
            let cont = eng.step_bits(j, &walk.ins[j as usize], fam, &mut walk.out, &mut seen);
            match settle(&seen) {
                ControlFlow::Break(r) => return Some(r),
                ControlFlow::Continue(drop) if cont => {
                    strip(&mut walk.out, drop);
                    walk.propagate(&insts[j as usize].kind, j, &func, None);
                }
                ControlFlow::Continue(_) => {}
            }
        }
        None
    }

    #[test]
    fn the_leader_walk_matches_the_per_instruction_worklist() {
        for src in PATHY.iter().chain([&SRC]) {
            for protect in [false, true] {
                let (m, prog) = program(src, protect);
                let eng = BitsEngine::new(&m, &prog);
                let table = analyze_bits(&m, &prog);
                for (idx, verdict) in lint_sites(&m, &prog) {
                    let mut vuln = 0u64;
                    instruction_walk(&eng, idx, false, |seen| {
                        vuln |= seen.any();
                        if vuln == u64::MAX {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(vuln)
                        }
                    });
                    assert_eq!(table.verdicts[idx as usize].vulnerable, vuln, "prune, site {idx} ({protect}): {src}");
                    let lint = instruction_walk(&eng, idx, true, |seen| match seen.first_sink() {
                        Some(s) => ControlFlow::Break(s),
                        None => ControlFlow::Continue(seen.detected),
                    });
                    let want = lint.map_or(Verdict::Protected, Verdict::Penetrates);
                    assert_eq!(verdict, want, "lint, site {idx} ({protect}): {src}");
                }
            }
        }
    }

    /// The per-path walk the fixpoint replaced, without its state budget:
    /// a depth-first search over distinct `(instruction, state)` pairs
    /// under the same `step_bits`. Returns the verdict and the number of
    /// states it stepped.
    fn path_walk(eng: &BitsEngine<'_>, idx: u32) -> (BitVerdict, usize) {
        let (seen, Some((loc, _, fam))) = eng.seed(idx) else {
            return (BitVerdict::all_vulnerable(), 0);
        };
        if seen.any() == u64::MAX {
            return (BitVerdict::all_vulnerable(), 0);
        }
        let fi = eng.func_of[idx as usize];
        let func = eng.prog.funcs[fi].entry..eng.prog.funcs[fi].end;
        let insts = &eng.prog.insts;
        let succ = |j: u32| {
            insts[j as usize]
                .kind
                .successors(j)
                .filter(|s| func.contains(s))
                .collect::<Vec<_>>()
        };
        let mut stack: Vec<(u32, State)> = succ(idx)
            .into_iter()
            .map(|s| (s, vec![(loc, Dev::new(u64::MAX, 0, 0))]))
            .collect();
        let mut seen: Vec<Vec<State>> = vec![Vec::new(); insts.len()];
        let (mut vuln, mut steps, mut t) = (0u64, 0usize, State::new());
        while let Some((j, mut st)) = stack.pop() {
            strip(&mut st, vuln);
            if st.is_empty() || seen[j as usize].contains(&st) {
                continue;
            }
            if vuln == u64::MAX {
                break;
            }
            seen[j as usize].push(st.clone());
            steps += 1;
            let mut seen = Seen::default();
            let cont = eng.step_bits(j, &st, fam, &mut t, &mut seen);
            vuln |= seen.any();
            strip(&mut t, vuln);
            if cont && !t.is_empty() {
                stack.extend(succ(j).into_iter().map(|s| (s, t.clone())));
            }
        }
        (BitVerdict { proven_masked: !vuln, vulnerable: vuln }, steps)
    }

    /// Nested loops, calls, and compares feeding branches, `setcc` and
    /// `cmov`: many paths per site, so the per-path walk meets many
    /// distinct states where the fixpoint joins them.
    const PATHY: &[&str] = &[
        "global int g[8];\n\
         int mix(int a, int b) { if (a < b) { return b - a; } return (a ^ b) & 255; }\n\
         int main() { int i; int j; int s = 0; int t = 1; int u = 7;\n\
           for (i = 0; i < 6; i = i + 1) {\n\
             for (j = 0; j < 5; j = j + 1) {\n\
               if (s > t) { s = s - (t & 15); } else { t = t + (s >> 2); }\n\
               if ((i ^ j) < 3) { u = u + (s < t); } else { u = u * 3 + mix(s, u); }\n\
               g[(i + j) & 7] = (s & 255) + (u == t);\n\
               if (g[j] > u) { t = t ^ (g[j] & 12); } else { if (u & 8) { s = s + 1; } else { u = u - (t < 40); } }\n\
             }\n\
             s = s + mix(u, g[i & 7]); g[0] = g[0] + (s & 3);\n\
           }\n\
           for (i = 0; i < 8; i = i + 1) {\n\
             if (g[i] < s) { s = s - g[i]; } else { u = u ^ g[i]; }\n\
             t = t + (s > u); if ((t & 3) == 1) { g[i] = mix(t, i); }\n\
             if (g[(i + 3) & 7] == t) { s = s + 2; } else { u = u + (g[i] >= s); }\n\
           }\n\
           output(s); output(t); output(u & 65535); output(g[0]); return 0; }",
        "int fold(int x) { int k = 0; while (x > 0) { if (x & 1) { k = k + 3; } else { k = k ^ 5; } x = x >> 1; } return k; }\n\
         int main() { int a = 3; int b = 9; int c = 0; int d = 2; int i; int j; int k;\n\
           for (i = 0; i < 4; i = i + 1) { for (j = 0; j < 4; j = j + 1) { for (k = 0; k < 3; k = k + 1) {\n\
             if (a < b) { a = a + (c & 7); } else { b = b + (d | 1); }\n\
             if (c == d) { c = c + 1; } else { if (c > d) { d = d + (a & 3); } else { c = c + (b & 1); } }\n\
             if ((a & 4) == 0) { d = d ^ fold(k + a); }\n\
           } } }\n\
           output(a); output(b & 255); output(c); output(d); return 0; }",
    ];

    #[test]
    fn joined_fixpoint_matches_the_per_path_walk() {
        let mut max_steps = 0;
        for src in PATHY.iter().chain([&SRC]) {
            for protect in [false, true] {
                let (m, prog) = program(src, protect);
                let eng = BitsEngine::new(&m, &prog);
                let table = analyze_bits(&m, &prog);
                for idx in 0..prog.insts.len() as u32 {
                    if !prog.insts[idx as usize].kind.is_fault_site() {
                        continue;
                    }
                    let (want, steps) = path_walk(&eng, idx);
                    max_steps = max_steps.max(steps);
                    assert_eq!(table.verdicts[idx as usize], want, "site {idx} ({protect}): {src}");
                }
            }
        }
        assert!(
            max_steps > 1000,
            "some site must have many paths (the busiest stepped {max_steps} states)"
        );
    }
}
