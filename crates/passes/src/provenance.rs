//! Checker ↔ synchronization-point provenance.
//!
//! The duplication pass guards every synchronization point (store, call,
//! conditional branch, return) with a compare-and-branch checker, and the
//! Flowery eager-store patch may later move a store *ahead* of the checker
//! that guards it. The static lint needs to know, for every checker, which
//! sync point it guards and on which side of it the checker sits — this
//! module reconstructs that relation structurally from the module shape the
//! passes emit (checker `icmp` + branch to a detector block).

use flowery_ir::inst::{Callee, InstKind, Intrinsic, IrRole, Terminator};
use flowery_ir::module::{Function, Module};
use flowery_ir::value::{BlockId, FuncId, InstId, Op};
use serde::{Deserialize, Serialize};

/// Where a checker sits relative to the sync point it guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Lazy (plain duplication): check, then perform the sync.
    Before,
    /// Eager (Flowery store patch): perform the store, then check.
    After,
}

/// The kind of synchronization point a checker guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncKind {
    Store,
    Call,
    Branch,
    Ret,
}

/// The location of a guarded sync point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncLoc {
    /// A body instruction (store or call).
    Inst(BlockId, InstId),
    /// A block terminator (conditional branch or return).
    Term(BlockId),
}

/// One checker and the sync point it guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckerLink {
    pub func: FuncId,
    /// The checker `icmp` (the compare whose mismatch arm detects).
    pub checker: InstId,
    /// Block holding the checker compare.
    pub block: BlockId,
    /// The guarded sync point, if one was identified.
    pub sync: Option<(SyncKind, SyncLoc)>,
    pub placement: Placement,
}

/// Checker↔sync provenance for a whole module.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PassProvenance {
    pub links: Vec<CheckerLink>,
}

impl PassProvenance {
    /// Links for one function.
    pub fn for_func(&self, fid: FuncId) -> impl Iterator<Item = &CheckerLink> {
        self.links.iter().filter(move |l| l.func == fid)
    }
}

/// Reconstruct checker↔sync links from the module structure.
pub fn collect(m: &Module) -> PassProvenance {
    let mut links = Vec::new();
    for (fi, f) in m.functions.iter().enumerate() {
        let fid = FuncId(fi as u32);
        for (bi, block) in f.blocks.iter().enumerate() {
            let bid = BlockId(bi as u32);
            let Terminator::Br { cond, then_bb, else_bb } = &block.term else {
                continue;
            };
            let Some(cond_id) = cond.as_inst() else { continue };
            if f.inst(cond_id).role != IrRole::Checker {
                continue;
            }
            // A checker unit branches to a detector on one arm.
            let cont = if is_detector_block(f, *else_bb) {
                *then_bb
            } else if is_detector_block(f, *then_bb) {
                *else_bb
            } else {
                continue;
            };
            let (sync, placement) = match eager_store_in(f, bid, cond_id) {
                Some(store) => (Some((SyncKind::Store, SyncLoc::Inst(bid, store))), Placement::After),
                None => (find_guarded_sync(f, cont), Placement::Before),
            };
            links.push(CheckerLink { func: fid, checker: cond_id, block: bid, sync, placement });
        }
    }
    PassProvenance { links }
}

/// Does `b` hold a `detect_error` call (the duplication detector shape)?
pub(crate) fn is_detector_block(f: &Function, b: BlockId) -> bool {
    f.block(b)
        .insts
        .iter()
        .any(|&i| matches!(&f.inst(i).kind, InstKind::Call { callee: Callee::Intrinsic(Intrinsic::DetectError), .. }))
}

/// An eager-store pattern: an App store in `b` preceding the trailing
/// checker group, whose stored value the checker compares.
fn eager_store_in(f: &Function, b: BlockId, checker: InstId) -> Option<InstId> {
    let insts = &f.block(b).insts;
    let mut group_start = insts.len();
    while group_start > 0 && f.inst(insts[group_start - 1]).role == IrRole::Checker {
        group_start -= 1;
    }
    for &iid in insts[..group_start].iter().rev() {
        let d = f.inst(iid);
        if d.role == IrRole::App {
            if let InstKind::Store { val, .. } = &d.kind {
                if checker_reads(f, checker, *val) {
                    return Some(iid);
                }
            }
        }
    }
    None
}

/// Does the checker compare read `val`, directly or through one checker
/// bitcast (the float-compare shape)?
fn checker_reads(f: &Function, checker: InstId, val: Op) -> bool {
    for op in f.inst(checker).operands() {
        if op == val {
            return true;
        }
        if let Some(d) = op.as_inst() {
            let dd = f.inst(d);
            if dd.role == IrRole::Checker {
                if let InstKind::Cast { val: inner, .. } = &dd.kind {
                    if *inner == val {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Walk forward from a checker's continuation block to the sync point it
/// guards, skipping protection-internal instructions and following checker
/// chains (one checker per compared operand).
fn find_guarded_sync(f: &Function, start: BlockId) -> Option<(SyncKind, SyncLoc)> {
    let mut cur = start;
    for _ in 0..16 {
        for &iid in &f.block(cur).insts {
            let d = f.inst(iid);
            if d.role != IrRole::App {
                continue; // shadow / checker / patch machinery
            }
            match &d.kind {
                InstKind::Store { .. } => return Some((SyncKind::Store, SyncLoc::Inst(cur, iid))),
                InstKind::Call { .. } => return Some((SyncKind::Call, SyncLoc::Inst(cur, iid))),
                _ => {}
            }
        }
        match &f.block(cur).term {
            Terminator::Br { cond, then_bb, else_bb } => {
                let chain = cond.as_inst().is_some_and(|c| f.inst(c).role == IrRole::Checker)
                    && (is_detector_block(f, *then_bb) || is_detector_block(f, *else_bb));
                if chain {
                    // Next checker in the chain; keep walking its cont arm.
                    cur = if is_detector_block(f, *else_bb) { *then_bb } else { *else_bb };
                } else {
                    return Some((SyncKind::Branch, SyncLoc::Term(cur)));
                }
            }
            Terminator::Ret { .. } => return Some((SyncKind::Ret, SyncLoc::Term(cur))),
            Terminator::Jmp { dest } => cur = *dest,
            Terminator::Unreachable => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplicate::{duplicate_module, DupConfig};
    use crate::flowery::{apply_flowery, FloweryConfig};
    use crate::select::ProtectionPlan;

    fn duplicated(src: &str) -> (Module, usize) {
        let mut m = flowery_lang::compile("t", src).unwrap();
        let plan = ProtectionPlan::full(&m);
        let stats = duplicate_module(&mut m, &plan, &DupConfig::default());
        (m, stats.checkers)
    }

    const SRC: &str = "int main() { int a = 3; int b = a * 7 + 1; int c = b - a;\n\
                       if (c > 10) { output(c); } else { output(a); } return c; }";

    #[test]
    fn every_checker_gets_a_link_with_a_sync() {
        let (m, checkers) = duplicated(SRC);
        let prov = collect(&m);
        assert_eq!(prov.links.len(), checkers, "one link per checker");
        for l in &prov.links {
            assert_eq!(l.placement, Placement::Before);
            assert!(l.sync.is_some(), "plain duplication checkers all guard a sync: {l:?}");
        }
        // The source has stores, calls (output), a branch, and a return.
        let kinds: std::collections::HashSet<_> = prov.links.iter().filter_map(|l| l.sync.map(|(k, _)| k)).collect();
        assert!(kinds.contains(&SyncKind::Store), "{kinds:?}");
        assert!(kinds.contains(&SyncKind::Branch), "{kinds:?}");
    }

    #[test]
    fn eager_store_flips_placement_to_after() {
        let (mut m, checkers) = duplicated(SRC);
        let stats = apply_flowery(&mut m, &FloweryConfig::default());
        assert!(stats.eager_stores > 0);
        let prov = collect(&m);
        assert_eq!(prov.links.len(), checkers);
        let after = prov.links.iter().filter(|l| l.placement == Placement::After).count();
        assert_eq!(after, stats.eager_stores, "one After link per swapped store");
        for l in prov.links.iter().filter(|l| l.placement == Placement::After) {
            assert!(matches!(l.sync, Some((SyncKind::Store, _))));
        }
    }

    #[test]
    fn unduplicated_module_has_no_links() {
        let m = flowery_lang::compile("t", SRC).unwrap();
        assert!(collect(&m).links.is_empty());
    }
}
