//! Layer-1b: the bit-vector lattice — per-(site, bit) masking proofs.
//!
//! The value-level engine ([`super::taint`]) asks *whether* a corrupted
//! destination can reach a sink; this engine asks *which bits* of the
//! destination can. It tracks all 64 sampled bit positions of one fault
//! site simultaneously as a family of independent single-bit deviations
//! and propagates them through exact MIR semantics: width-canonical
//! register writes, AND/OR immediates, shifts and truncations kill bits;
//! sign-extension, carries, and float arithmetic scramble them; flag
//! consumers, address bases, output ports, calls and returns observe them.
//! A family bit that is never observed on any path is *proven masked*:
//! injecting that (site, bit) pair provably reproduces the golden run.
//!
//! Family encoding: injector run `b` (the sampled `FaultSpec::bit`,
//! `0..64`) flips destination position `b % W`, where `W` is the
//! destination width in bits — exactly `apply_fault`'s modulo. A state
//! maps each [`Loc`] to a pair of 64-bit masks `(pos, scr)` over family
//! indices: bit `b` set in `pos` means "in run `b` this location deviates
//! *at most* as a single-bit XOR at position `b % W`"; set in `scr`
//! ("scrambled") means "may deviate anywhere within the location". For
//! flag destinations the position space is the four condition classes
//! (`CONDITION_BITS[b % 4]`), so `pos` is class-exact rather than
//! bit-exact. Everything is conservative toward *vulnerable*: only
//! deviations proven invisible to every architectural observation count
//! as masked.
//!
//! The memory model is the field-sensitive split of DESIGN.md §12: frame
//! slots and absolute global cells are tracked per-address; deviations
//! escaping into pointer-addressed memory are observations (globals stay
//! addressable through pointers, so summary loads observe global
//! deviations, while spill slots are never address-taken).
//!
//! The walk is a joined worklist fixpoint per site: one in-state per
//! instruction, grown by pointwise OR of its predecessors' out-states; an
//! instruction is stepped again only when its in-state gains a bit. Every
//! transfer builds its masks and observation bits from OR and
//! AND-with-a-constant alone, and families never mix, so each transfer
//! distributes over that OR and the fixpoint equals the join over all
//! paths (Kildall's MFP = MOP): the verdicts of a per-path enumeration of
//! the same rules, which the tests keep as their oracle. Dropping families
//! already proven vulnerable from a state changes no other family's
//! verdict. The lattice is finite and a join only adds bits, so the walk
//! needs no state budget (the per-path walk it replaced never exhausted
//! its 50 000-state one on the shipped corpus).

use super::taint::TaintEngine;
use flowery_backend::mir::{AKind, AOp, AluOp, FaultDest, Loc, MemRef, OutKind, Reg, ShiftOp, CC};
use flowery_backend::AsmProgram;
use flowery_ir::fnv1a;
use flowery_ir::module::Module;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// Run the bit-lattice analysis over every instruction of `prog`.
pub fn analyze_bits(m: &Module, prog: &AsmProgram) -> BitTable {
    let te = TaintEngine::new(m, prog);
    let eng = BitsEngine { te: &te };
    let mut walk = Walk::new(prog.insts.len());
    let mut verdicts = Vec::with_capacity(prog.insts.len());
    let (mut sites, mut proven_pairs) = (0u32, 0u64);
    for idx in 0..prog.insts.len() as u32 {
        let v = if prog.insts[idx as usize].kind.is_fault_site() {
            sites += 1;
            eng.analyze_site_bits(idx, &mut walk)
        } else {
            BitVerdict::all_vulnerable()
        };
        proven_pairs += v.proven_masked.count_ones() as u64;
        verdicts.push(v);
    }
    BitTable { verdicts, sites, proven_pairs }
}

/// Deviation state of one location: `(pos, scr)` family masks (see module
/// docs).
type Dev = (u64, u64);
/// Deviated locations, sorted by [`Loc`] and each present once; an absent
/// location is clean.
type State = Vec<(Loc, Dev)>;

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
    st.binary_search_by_key(&loc, |e| e.0).map_or((0, 0), |i| st[i].1)
}

fn set(st: &mut State, loc: Loc, dev: Dev) {
    match (st.binary_search_by_key(&loc, |e| e.0), dev == (0, 0)) {
        (Ok(i), true) => drop(st.remove(i)),
        (Ok(i), false) => st[i].1 = dev,
        (Err(i), false) => st.insert(i, (loc, dev)),
        (Err(_), true) => {}
    }
}

/// `into |= from`, pointwise; true when `into` gained a bit.
fn join(into: &mut State, from: &[(Loc, Dev)]) -> bool {
    let mut grew = false;
    for &(loc, (p, s)) in from {
        match into.binary_search_by_key(&loc, |e| e.0) {
            Ok(i) => {
                let d = &mut into[i].1;
                grew |= p & !d.0 != 0 || s & !d.1 != 0;
                *d = (d.0 | p, d.1 | s);
            }
            Err(i) => {
                into.insert(i, (loc, (p, s)));
                grew = true;
            }
        }
    }
    grew
}

fn all(dev: Dev) -> u64 {
    dev.0 | dev.1
}

/// Union of all global-cell deviations — what a pointer (summary) load may
/// observe.
fn global_dev(st: &[(Loc, Dev)]) -> u64 {
    st.iter()
        .filter(|(l, _)| matches!(l, Loc::Global(_)))
        .fold(0, |a, (_, d)| a | all(*d))
}

/// Per-program worklist storage, reused by every site: one joined in-state
/// and a `queued` bit per instruction, the instructions whose in-state the
/// current site touched (cleared before the next site), and the transfer's
/// out-state buffer.
struct Walk {
    ins: Vec<State>,
    queued: Vec<bool>,
    touched: Vec<u32>,
    work: Vec<u32>,
    out: State,
}

impl Walk {
    fn new(insts: usize) -> Walk {
        Walk {
            ins: vec![State::new(); insts],
            queued: vec![false; insts],
            touched: Vec::new(),
            work: Vec::new(),
            out: State::new(),
        }
    }

    /// Join `out` into the in-states of `kind`'s successors within `func`,
    /// queueing each that grew.
    fn propagate(&mut self, kind: &AKind, j: u32, func: &Range<u32>) {
        if self.out.is_empty() {
            return;
        }
        for s in kind.successors(j).filter(|s| func.contains(s)) {
            let su = s as usize;
            if self.ins[su].is_empty() {
                self.touched.push(s);
            }
            if join(&mut self.ins[su], &self.out) && !self.queued[su] {
                self.queued[su] = true;
                self.work.push(s);
            }
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

struct BitsEngine<'a, 'b> {
    te: &'b TaintEngine<'a>,
}

impl BitsEngine<'_, '_> {
    /// The location a flip at `idx` deviates and the family width, or
    /// `None` for an immediate all-vulnerable bail-out.
    fn initial(&self, idx: u32) -> Option<(Loc, Fam)> {
        let inst = &self.te.prog.insts[idx as usize];
        match inst.kind.fault_dest() {
            FaultDest::None => None,
            // A corrupted frame/stack pointer breaks the addressing
            // discipline every rule below relies on.
            FaultDest::Gpr(Reg::Rbp | Reg::Rsp, _) => None,
            FaultDest::Gpr(r, w) => Some((Loc::Reg(r), Fam { w: 8 * w as u32 })),
            // Class-exact: family `b` flips condition class `b % 4`.
            FaultDest::Flags => Some((Loc::Flags, Fam { w: 64 })),
            FaultDest::MemVal(w) => match inst.kind {
                AKind::Mov { dst: AOp::Mem(mr), .. } | AKind::MovSd { dst: AOp::Mem(mr), .. } => {
                    match mr.loc() {
                        l @ (Loc::Frame(_) | Loc::Global(_)) => Some((l, Fam { w: 8 * w as u32 })),
                        // Pointer-addressed cell: identity lost at birth.
                        _ => None,
                    }
                }
                // Corrupted return address / saved frame pointer.
                _ => None,
            },
        }
    }

    /// Prove which sampled bits of site `idx` are masked: the joined
    /// fixpoint of the module docs, seeded at `idx`'s successors.
    fn analyze_site_bits(&self, idx: u32, walk: &mut Walk) -> BitVerdict {
        let Some((loc, fam)) = self.initial(idx) else {
            return BitVerdict::all_vulnerable();
        };
        let fi = self.te.func_of[idx as usize];
        if fi == usize::MAX {
            return BitVerdict::all_vulnerable();
        }
        let func = self.te.prog.funcs[fi].entry..self.te.prog.funcs[fi].end;
        let insts = &self.te.prog.insts;

        let mut vuln: u64 = 0;
        walk.out.clear();
        walk.out.push((loc, (u64::MAX, 0)));
        walk.propagate(&insts[idx as usize].kind, idx, &func);
        while let Some(j) = walk.work.pop() {
            if vuln == u64::MAX {
                break;
            }
            walk.queued[j as usize] = false;
            // Families already vulnerable need no further tracking.
            let st = &mut walk.ins[j as usize];
            strip(st, vuln);
            if st.is_empty() {
                continue;
            }
            let (observed, cont) = self.step_bits(j, st, fam, &mut walk.out);
            vuln |= observed;
            if cont {
                strip(&mut walk.out, vuln);
                walk.propagate(&insts[j as usize].kind, j, &func);
            }
        }
        walk.reset();
        BitVerdict { proven_masked: !vuln, vulnerable: vuln }
    }

    /// Deviation visible when reading `op` at `w` bytes, plus observation
    /// bits (corrupted address base; summary load aliasing a corrupted
    /// global).
    fn read_op(&self, st: &[(Loc, Dev)], op: &AOp, w: u8, fam: Fam) -> (Dev, u64) {
        match op {
            AOp::Imm(_) => ((0, 0), 0),
            AOp::Reg(r) => {
                let (p, s) = get(st, Loc::Reg(*r));
                ((p & fam.low(w), s), 0)
            }
            AOp::Mem(mr) => {
                let mut obs = self.addr_obs(st, mr);
                let dev = match mr.loc() {
                    l @ (Loc::Frame(_) | Loc::Global(_)) => {
                        let (p, s) = get(st, l);
                        (p & fam.low(w), s)
                    }
                    _ => {
                        // Pointer load: may hit any corrupted global cell
                        // (spill slots are never address-taken).
                        obs |= global_dev(st);
                        (0, 0)
                    }
                };
                (dev, obs)
            }
        }
    }

    /// A deviated base register makes the access read/write the wrong
    /// cell — observed.
    fn addr_obs(&self, st: &[(Loc, Dev)], mr: &MemRef) -> u64 {
        mr.base.map_or(0, |b| all(get(st, Loc::Reg(b))))
    }

    /// Strong register write. A deviation written into rbp/rsp breaks the
    /// addressing discipline — observed instead of tracked.
    fn write_reg(&self, st: &mut State, r: Reg, dev: Dev) -> u64 {
        if matches!(r, Reg::Rbp | Reg::Rsp) && dev != (0, 0) {
            return all(dev);
        }
        set(st, Loc::Reg(r), dev);
        0
    }

    /// Transfer one instruction from `st` into `t`: returns the observed
    /// family bits and whether the path continues (with state `t`).
    fn step_bits(&self, j: u32, st: &[(Loc, Dev)], fam: Fam, t: &mut State) -> (u64, bool) {
        let inst = &self.te.prog.insts[j as usize];
        t.clear();
        t.extend_from_slice(st);
        let mut obs = 0u64;
        match inst.kind {
            AKind::Mov { w, dst, src } | AKind::MovSd { w, dst, src } => {
                let (dev, o) = self.read_op(st, &src, w, fam);
                obs |= o;
                match dst {
                    AOp::Reg(r) => obs |= self.write_reg(t, r, dev),
                    AOp::Mem(mr) => {
                        obs |= self.addr_obs(st, &mr);
                        match mr.loc() {
                            l @ (Loc::Frame(_) | Loc::Global(_)) => {
                                // Partial update: a width-w store replaces
                                // the cell's low 8w bits only.
                                let (op, os) = get(st, l);
                                let np = dev.0 | (op & !fam.low(w));
                                let ns = dev.1 | if w < 8 { os } else { 0 };
                                set(t, l, (np, ns));
                            }
                            // A deviation escaping into pointer-addressed
                            // memory loses its identity for good.
                            _ => obs |= all(dev),
                        }
                    }
                    AOp::Imm(_) => {}
                }
            }
            AKind::MovSx { ws, dst, src, .. } => {
                let ((p, s), o) = self.read_op(st, &src, ws, fam);
                obs |= o;
                // Positions below the source sign bit survive sign
                // extension exactly; a deviated sign bit smears upward.
                let sign = fam.low(ws) & !fam.below(8 * ws as u32 - 1);
                obs |= self.write_reg(t, dst, (p & fam.below(8 * ws as u32 - 1), s | (p & sign)));
            }
            AKind::Lea { dst, mem } => match mem.base {
                // base + disp is an addition: only an msb deviation
                // survives carries position-exactly.
                Some(b) => {
                    let (p, s) = get(st, Loc::Reg(b));
                    obs |= self.write_reg(t, dst, (p & fam.top(8), s | (p & !fam.top(8))));
                }
                None => obs |= self.write_reg(t, dst, (0, 0)),
            },
            AKind::Alu { op, w, dst, src } => {
                let (a, oa) = self.read_op(st, &AOp::Reg(dst), w, fam);
                let (b, ob) = self.read_op(st, &src, w, fam);
                obs |= oa | ob;
                let imm = match src {
                    AOp::Imm(v) => Some(v as u64),
                    _ => None,
                };
                let wmask = if w >= 8 { u64::MAX } else { (1u64 << (8 * w)) - 1 };
                let self_op = src == AOp::Reg(dst);
                let res: Dev = match op {
                    // Sub r,r and Xor r,r produce a constant: clean kill.
                    AluOp::Sub | AluOp::Xor if self_op => (0, 0),
                    AluOp::Add | AluOp::Sub | AluOp::Imul => {
                        // Carries: only msb deviations stay single-bit.
                        let p = (a.0 | b.0) & fam.top(w);
                        (p, a.1 | b.1 | ((a.0 | b.0) & !fam.top(w)))
                    }
                    // Bitwise ops are position-exact; an immediate mask
                    // additionally kills positions it forces constant
                    // (`and 0` / `or ~0` even defeats scrambles).
                    AluOp::And => match imm {
                        Some(c) if c & wmask == 0 => (0, 0),
                        Some(c) => (a.0 & fam.const_bits(c, w), a.1),
                        None => (a.0 | b.0, a.1 | b.1),
                    },
                    AluOp::Or => match imm {
                        Some(c) if !c & wmask == 0 => (0, 0),
                        Some(c) => (a.0 & fam.const_bits(!c, w), a.1),
                        None => (a.0 | b.0, a.1 | b.1),
                    },
                    AluOp::Xor => (a.0 | b.0, a.1 | b.1),
                };
                // Flags: Add/Sub carry/overflow depend on the operands;
                // the bitwise family's flags are a function of the result.
                let fdev = match op {
                    AluOp::Add | AluOp::Sub => all(a) | all(b),
                    _ => all(res),
                };
                set(t, Loc::Flags, (0, fdev));
                obs |= self.write_reg(t, dst, res);
            }
            AKind::Shift { op, w, dst, amt } => {
                let (a, _) = self.read_op(st, &AOp::Reg(dst), w, fam);
                let res: Dev = match amt {
                    AOp::Imm(k) => {
                        let k = (k as u64 & 0xff) as u32 & (8 * w as u32 - 1);
                        let wbits = 8 * w as u32;
                        let surviving = match op {
                            // Positions shifted out of the width die; the
                            // rest move (position no longer the family's).
                            ShiftOp::Shl => a.0 & fam.below(wbits - k),
                            ShiftOp::Shr => a.0 & !fam.below(k),
                            // A deviated sign bit replicates on the way
                            // down; low positions below the shift die.
                            ShiftOp::Sar => (a.0 & !fam.below(k)) | (a.0 & fam.low(w) & !fam.below(wbits - 1)),
                        };
                        (0, surviving | a.1)
                    }
                    _ => {
                        // Variable amount (cl): a deviated amount or value
                        // scrambles; nothing can be killed.
                        let (amt_dev, _) = self.read_op(st, &amt, 1, fam);
                        (0, all(a) | all(amt_dev))
                    }
                };
                set(t, Loc::Flags, (0, all(res)));
                obs |= self.write_reg(t, dst, res);
            }
            AKind::Cqo { .. } => {
                // rdx = sign of rax bit 63 (full-width read regardless of
                // w): only a bit-63 deviation flips it — into all of rdx.
                let (p, s) = get(st, Loc::Reg(Reg::Rax));
                let sign63 = fam.top(8);
                obs |= self.write_reg(t, Reg::Rdx, (0, (p & sign63) | s));
            }
            AKind::ZeroRdx => {
                obs |= self.write_reg(t, Reg::Rdx, (0, 0));
            }
            AKind::Div { src, .. } => {
                // Deviated dividend or divisor risks a divide trap
                // (divisor 0, signed overflow) on top of a scrambled
                // quotient: observed outright. rdx is written, not read.
                let a = get(st, Loc::Reg(Reg::Rax));
                let (b, ob) = self.read_op(st, &src, 8, fam);
                obs |= ob | all(a) | all(b);
                obs |= self.write_reg(t, Reg::Rax, (0, 0));
                obs |= self.write_reg(t, Reg::Rdx, (0, 0));
            }
            AKind::Cmp { w, lhs, rhs } => {
                let (a, oa) = self.read_op(st, &lhs, w, fam);
                let (b, ob) = self.read_op(st, &rhs, w, fam);
                obs |= oa | ob;
                set(t, Loc::Flags, (0, all(a) | all(b)));
            }
            AKind::Test { w, lhs, rhs } => {
                // Flags are a pure function of `lhs & rhs`: an immediate
                // mask kills position-exact deviations outside it.
                let (a, oa) = self.read_op(st, &lhs, w, fam);
                let (b, ob) = self.read_op(st, &rhs, w, fam);
                obs |= oa | ob;
                let rdev = match rhs {
                    AOp::Imm(c) => (a.0 & fam.const_bits(c as u64, w)) | a.1,
                    _ => all(a) | all(b),
                };
                set(t, Loc::Flags, (0, rdev));
            }
            AKind::Ucomi { w, lhs, rhs } => {
                let (a, _) = self.read_op(st, &AOp::Reg(lhs), w, fam);
                let (b, ob) = self.read_op(st, &rhs, w, fam);
                obs |= ob;
                set(t, Loc::Flags, (0, all(a) | all(b)));
            }
            AKind::SetCC { cc, dst } => {
                // Branchless: a deviated condition flips the materialized
                // 0/1 — tracked, not observed.
                let (fp, fs) = get(st, Loc::Flags);
                let affected = (fp & class_mask(cc)) | fs;
                obs |= self.write_reg(t, dst, (0, affected));
            }
            AKind::Cmov { cc, w, dst, src } => {
                let (fp, fs) = get(st, Loc::Flags);
                let affected = (fp & class_mask(cc)) | fs;
                let (d, _) = self.read_op(st, &AOp::Reg(dst), w, fam);
                let (s, os) = self.read_op(st, &src, w, fam);
                obs |= os;
                // Conditional write: no kill; a deviated condition picks
                // the wrong source.
                set(t, Loc::Reg(dst), (d.0 | s.0, d.1 | s.1 | affected));
            }
            AKind::Jcc { cc, .. } => {
                // Any deviated flag class the condition reads steers the
                // branch wrong — even toward a detector (Detected is not
                // the golden outcome). Class-exact deviations in unread
                // classes survive the branch.
                let (fp, fs) = get(st, Loc::Flags);
                obs |= (fp & class_mask(cc)) | fs;
                set(t, Loc::Flags, (fp & !class_mask(cc), 0));
            }
            AKind::Jmp { .. } => {}
            AKind::Call { func, .. } => {
                // Callee sees argument registers and all of global memory;
                // the caller frame is unaddressable from the callee.
                for a in &self.te.arg_regs[func.index()] {
                    obs |= all(get(st, *a));
                }
                obs |= global_dev(st);
                obs |= all(get(st, Loc::Mem));
                t.retain(|&(l, _)| match l {
                    Loc::Reg(r) => !Reg::GPR_POOL.contains(&r) && !Reg::XMM_POOL.contains(&r),
                    l => l != Loc::Flags,
                });
            }
            AKind::Ret => {
                // The caller reads the return register; per the value
                // engine's contract everything else (dead scratch state,
                // the callee frame) is discarded at the boundary.
                let fi = self.te.func_of[j as usize];
                if let Some(rr) = self.te.ret_reg[fi] {
                    obs |= all(get(st, rr));
                }
                obs |= global_dev(st);
                obs |= all(get(st, Loc::Mem));
                return (obs, false);
            }
            AKind::Push { src } => {
                // A deviation entering the push/pop area loses identity.
                let (dev, o) = self.read_op(st, &src, 8, fam);
                obs |= o | all(dev);
            }
            AKind::Pop { dst } => {
                // Tracked deviations provably never reach the stack area
                // (deviated pushes are observed above): clean kill.
                obs |= self.write_reg(t, dst, (0, 0));
            }
            AKind::Sse { dst, src, .. } => {
                let (a, _) = self.read_op(st, &AOp::Reg(dst), 8, fam);
                let (b, ob) = self.read_op(st, &src, 8, fam);
                obs |= ob;
                obs |= self.write_reg(t, dst, (0, all(a) | all(b)));
            }
            AKind::Cvtsi2f { dst, src, .. } => {
                let (b, ob) = self.read_op(st, &src, 8, fam);
                obs |= ob;
                obs |= self.write_reg(t, dst, (0, all(b)));
            }
            AKind::Cvtf2si { wf, dst, src } => {
                let (b, ob) = self.read_op(st, &src, wf, fam);
                obs |= ob;
                obs |= self.write_reg(t, dst, (0, all(b)));
            }
            AKind::Cvtff { dst, src, .. } => {
                let (b, _) = self.read_op(st, &AOp::Reg(src), 8, fam);
                obs |= self.write_reg(t, dst, (0, all(b)));
            }
            AKind::MovQ { w, dst, src } => {
                let (dev, _) = self.read_op(st, &AOp::Reg(src), w, fam);
                obs |= self.write_reg(t, dst, dev);
            }
            AKind::Math { dst, a, b, .. } => {
                let (da, _) = self.read_op(st, &AOp::Reg(a), 8, fam);
                let db = b.map_or((0, 0), |r| get(st, Loc::Reg(r)));
                obs |= self.write_reg(t, dst, (0, all(da) | all(db)));
            }
            AKind::Out { kind, src } => {
                // The port reads 8 bytes; the byte port truncates to the
                // low byte, leaving higher deviations unobserved.
                let (dev, o) = self.read_op(st, &src, 8, fam);
                obs |= o;
                obs |= match kind {
                    OutKind::Byte => (dev.0 & fam.low(1)) | dev.1,
                    OutKind::I64 | OutKind::F64 => all(dev),
                };
            }
            AKind::DetectTrap => {
                // Reachable only off a detect arm; for still-tracked
                // families the golden path never comes here.
                return (obs, false);
            }
        }
        (obs, true)
    }
}

/// Drop already-vulnerable family bits from every entry.
fn strip(st: &mut State, vuln: u64) {
    if vuln == 0 {
        return;
    }
    st.retain_mut(|(_, d)| {
        d.0 &= !vuln;
        d.1 &= !vuln;
        *d != (0, 0)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_backend::{compile_module, BackendConfig};
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
        walk.out = vec![(Loc::Flags, (0b01, 0))];
        walk.propagate(&jmp, 0, &func);
        assert_eq!(walk.work.pop(), Some(2));
        walk.queued[2] = false;
        walk.out = vec![(Loc::Flags, (0, 0b10))];
        walk.propagate(&jmp, 1, &func);
        assert_eq!(walk.ins[2], [(Loc::Flags, (0b01, 0b10))]);
        assert_eq!(walk.work.pop(), Some(2), "an in-state that gained a bit is stepped again");
        walk.queued[2] = false;
        walk.propagate(&jmp, 1, &func);
        assert!(walk.work.is_empty(), "an in-state that gained nothing is not");
        walk.reset();
        assert!(walk.ins.iter().all(Vec::is_empty) && walk.work.is_empty() && !walk.queued[2]);
    }

    /// The per-path walk the fixpoint replaced, without its state budget:
    /// a depth-first search over distinct `(instruction, state)` pairs
    /// under the same `step_bits`. Returns the verdict and the number of
    /// states it stepped.
    fn path_walk(eng: &BitsEngine<'_, '_>, idx: u32) -> (BitVerdict, usize) {
        let Some((loc, fam)) = eng.initial(idx) else {
            return (BitVerdict::all_vulnerable(), 0);
        };
        let fi = eng.te.func_of[idx as usize];
        if fi == usize::MAX {
            return (BitVerdict::all_vulnerable(), 0);
        }
        let func = eng.te.prog.funcs[fi].entry..eng.te.prog.funcs[fi].end;
        let insts = &eng.te.prog.insts;
        let succ = |j: u32| {
            insts[j as usize]
                .kind
                .successors(j)
                .filter(|s| func.contains(s))
                .collect::<Vec<_>>()
        };
        let mut stack: Vec<(u32, State)> = succ(idx).into_iter().map(|s| (s, vec![(loc, (u64::MAX, 0))])).collect();
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
            let (observed, cont) = eng.step_bits(j, &st, fam, &mut t);
            vuln |= observed;
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
                let te = TaintEngine::new(&m, &prog);
                let eng = BitsEngine { te: &te };
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
