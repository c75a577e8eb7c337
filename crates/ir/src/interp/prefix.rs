//! Golden-prefix divergence analysis for cross-variant snapshot sharing.
//!
//! A hardened variant (ID / Flowery) is derived from its raw module by
//! passes that only *append* to the instruction arena and block list:
//! original `InstId`s and `BlockId`s survive, so the two modules agree on
//! every coordinate the raw golden run visits until the first structurally
//! different instruction executes. This module computes that first dynamic
//! instruction — the **divergence point** `D` — from the raw capture's
//! per-block first-entry profile:
//!
//! ```text
//!   D = min over static divergence points (f, b, q) of entry[f][b] + q
//! ```
//!
//! where a static divergence point is the first position `q` within block
//! `b` at which the raw and variant blocks differ (different `InstId`,
//! different `InstData`, different length, or — at `q = insts.len()` — a
//! different terminator). Any raw snapshot taken at `dyn_insts <= D` is a
//! valid variant snapshot: no divergent instruction has started, so every
//! byte of memory, every live value slot, and every frame coordinate is
//! exactly what the variant's own golden run would have produced.
//!
//! Soundness of skipping never-entered blocks: consider the first instant
//! the two golden traces differ. Until then they are identical, so the
//! block being executed at that instant was entered at the same `dyn` in
//! both — i.e. it *was* entered by the raw run and its entry is recorded.
//! The differing instruction is a static divergence point in that block,
//! so `D` is at or before that instant.

use crate::interp::eval::Frame;
use crate::module::{Block, Function, Module};

/// First dynamic instruction (snapshot-hook convention: that instruction
/// has not yet started) at which the variant's golden trace can diverge
/// from the raw module's. `u64::MAX` when the modules are execution-
/// equivalent over the raw trace; `None` when the module shells are too
/// different to share anything (function count/signatures). The caller
/// (`substrate::capture_from`) checks the globals: the variant may only
/// *extend* the raw list, and raw overlay pages overlapping the appended
/// region are refused, since those would clobber the variant's initializers.
pub(crate) fn divergence_dyn(raw: &Module, var: &Module, entry: &[Vec<u64>]) -> Option<u64> {
    if raw.functions.len() != var.functions.len() || entry.len() != raw.functions.len() {
        return None;
    }
    let mut d = u64::MAX;
    for (fi, (rf, vf)) in raw.functions.iter().zip(&var.functions).enumerate() {
        if rf.name != vf.name || rf.params != vf.params || rf.ret_ty != vf.ret_ty {
            return None;
        }
        let entries = &entry[fi];
        if entries.len() != rf.blocks.len() {
            return None;
        }
        for (bi, rb) in rf.blocks.iter().enumerate() {
            let e = entries[bi];
            if e == u64::MAX {
                continue; // never entered by the raw golden run
            }
            let q = match vf.blocks.get(bi) {
                None => 0,
                Some(vb) => match first_divergence(rf, vf, rb, vb) {
                    None => continue, // blocks identical
                    Some(q) => q,
                },
            };
            d = d.min(e.saturating_add(q as u64));
        }
    }
    Some(d)
}

/// First position within a block at which execution of the raw and variant
/// versions differs; `None` when they are identical. Position
/// `rb.insts.len()` is the terminator. Labels are cosmetic and ignored.
fn first_divergence(rf: &Function, vf: &Function, rb: &Block, vb: &Block) -> Option<usize> {
    let n = rb.insts.len().min(vb.insts.len());
    for q in 0..n {
        // Both the id (the value slot written) and the instruction itself
        // must match: identical `InstData` at a different id would write a
        // different slot and later reads would diverge.
        if rb.insts[q] != vb.insts[q] || rf.inst(rb.insts[q]) != vf.inst(vb.insts[q]) {
            return Some(q);
        }
    }
    if rb.insts.len() != vb.insts.len() {
        return Some(n);
    }
    if rb.term != vb.term {
        return Some(rb.insts.len());
    }
    None
}

/// Re-shape a raw snapshot's call stack for the variant module: value
/// arrays are zero-padded to the variant's (longer) instruction arena —
/// fresh frames start zeroed, and below the divergence point no appended
/// instruction has executed, so zero is exactly what the variant's own run
/// would hold in those slots. Returns `None` if any coordinate does not
/// exist in the variant (defensive; cannot happen below `D`).
pub(crate) fn translate_stack(stack: &[Frame], var: &Module) -> Option<Vec<Frame>> {
    let mut out = Vec::with_capacity(stack.len());
    for f in stack {
        let vf = var.functions.get(f.func.index())?;
        let vb = vf.blocks.get(f.block.index())?;
        if f.ip > vb.insts.len() || f.values.len() > vf.insts.len() {
            return None;
        }
        let mut values = f.values.clone();
        values.resize(vf.insts.len(), 0);
        out.push(Frame { values, params: f.params.clone(), ..*f });
    }
    Some(out)
}
