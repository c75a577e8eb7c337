//! Flowery patch 1: **eager mode of store** (paper §6.1).
//!
//! Plain duplication checks a value *before* storing it (lazy mode), which
//! places the store in the continuation block after the checker's branch —
//! so the `-O0` backend must reload the value from its stack home, and that
//! reload `mov` is an unprotected fault site (store penetration).
//!
//! The eager mode swaps the store with its checker: store first (in the
//! same block as the value's definition, where the register cache still
//! holds it), check afterwards. If the stored value was corrupted the
//! checker still fires before any further progress; the program never
//! *uses* the bad memory (paper: "if the error data has been detected, we
//! don't need to keep running this program").

use crate::provenance::is_detector_block;
use flowery_ir::inst::{InstKind, IrRole, Terminator};
use flowery_ir::module::Module;
use flowery_ir::value::{BlockId, Op};

/// Apply the eager-store transformation in place; returns how many stores
/// were swapped with their checkers.
pub fn apply(m: &mut Module) -> usize {
    let mut moved = 0;
    for f in &mut m.functions {
        // Pattern per block B:
        //   B:     ... ; <checker cmp group> ; br %ok, CONT, DETECT
        //   CONT:  store <val> ...  (first instruction, role App)
        // and the checker compares <val> against its shadow.
        // Rewrite: move the store to B, before the checker group.
        loop {
            let mut change: Option<(BlockId, BlockId)> = None;
            for (bi, block) in f.blocks.iter().enumerate() {
                let Terminator::Br { cond, then_bb, else_bb } = &block.term else {
                    continue;
                };
                let Some(cond_id) = cond.as_inst() else { continue };
                if f.inst(cond_id).role != IrRole::Checker {
                    continue;
                }
                // `else` must be a detector block (checker shape).
                if !is_detector_block(f, *else_bb) {
                    continue;
                }
                let cont = *then_bb;
                let Some(&first) = f.block(cont).insts.first() else {
                    continue;
                };
                let finst = f.inst(first);
                if finst.role != IrRole::App {
                    continue;
                }
                let InstKind::Store { val, .. } = &finst.kind else {
                    continue;
                };
                // Only swap when the checker guards this store's value:
                // the checker compare must read `val` (directly, or through
                // a bitcast for floats).
                if !checker_reads(f, cond_id, *val) {
                    continue;
                }
                change = Some((BlockId(bi as u32), cont));
                break;
            }
            let Some((b, cont)) = change else { break };
            // Move the store from cont[0] to before the checker group in b.
            let store_id = f.block_mut(cont).insts.remove(0);
            let insert_at = checker_group_start(f, b);
            f.block_mut(b).insts.insert(insert_at, store_id);
            moved += 1;
        }
    }
    moved
}

/// Position of the first instruction of the trailing checker group in `b`.
fn checker_group_start(f: &flowery_ir::Function, b: BlockId) -> usize {
    let insts = &f.block(b).insts;
    let mut start = insts.len();
    while start > 0 && f.inst(insts[start - 1]).role == IrRole::Checker {
        start -= 1;
    }
    start
}

/// Does the checker compare `cond_id` read operand `val` (directly or
/// through one checker bitcast)?
fn checker_reads(f: &flowery_ir::Function, cond_id: flowery_ir::InstId, val: Op) -> bool {
    for op in f.inst(cond_id).operands() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplicate::{duplicate_module, DupConfig};
    use crate::select::ProtectionPlan;
    use flowery_ir::interp::{ExecConfig, Interpreter};
    use flowery_ir::verify::verify_module;

    const SRC: &str = "int main() { int a = 3; int b = a * 7 + 1; int c = b - a; output(c); return c; }";

    fn duplicated() -> Module {
        let mut m = flowery_lang::compile("t", SRC).unwrap();
        let plan = ProtectionPlan::full(&m);
        duplicate_module(&mut m, &plan, &DupConfig::default());
        m
    }

    #[test]
    fn moves_stores_ahead_of_checkers() {
        let mut m = duplicated();
        let moved = apply(&mut m);
        assert!(moved > 0, "expected stores to be swapped");
        verify_module(&m).unwrap();
    }

    #[test]
    fn preserves_semantics() {
        let mut m = duplicated();
        let before = Interpreter::new(&m).run(&ExecConfig::default(), None);
        apply(&mut m);
        let after = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(before.status, after.status);
        assert_eq!(before.output, after.output);
    }

    #[test]
    fn store_lands_in_same_block_as_value_definition() {
        let mut m = duplicated();
        apply(&mut m);
        // For each swapped store, its value's defining instruction must now
        // be in the same block (so the backend register cache can serve it).
        let f = &m.functions[m.main_func().unwrap().index()];
        let mut colocated = 0;
        for block in &f.blocks {
            for &iid in &block.insts {
                if let InstKind::Store { val, .. } = &f.inst(iid).kind {
                    if let Some(d) = val.as_inst() {
                        if block.insts.contains(&d) {
                            colocated += 1;
                        }
                    }
                }
            }
        }
        assert!(colocated > 0);
    }

    #[test]
    fn removes_store_reload_movs_at_assembly_level() {
        use flowery_backend::mir::AOp;
        use flowery_backend::{compile_module, AKind, AsmRole, BackendConfig};
        let lazy = duplicated();
        let mut eager = lazy.clone();
        apply(&mut eager);
        let count_store_reloads = |m: &Module| -> usize {
            let prog = compile_module(m, &BackendConfig::default());
            prog.insts
                .iter()
                .filter(|i| {
                    i.role == AsmRole::OperandReload
                        && matches!(i.kind, AKind::Mov { src: AOp::Mem(_), dst: AOp::Reg(_), .. })
                        && i.prov.is_some_and(|(fid, iid)| {
                            matches!(m.functions[fid.index()].inst(iid).kind, InstKind::Store { .. })
                        })
                })
                .count()
        };
        let lazy_reloads = count_store_reloads(&lazy);
        let eager_reloads = count_store_reloads(&eager);
        assert!(
            eager_reloads < lazy_reloads,
            "eager mode must remove store-feeding reloads: {eager_reloads} vs {lazy_reloads}"
        );
    }

    #[test]
    fn unduplicated_module_is_untouched() {
        let mut m = flowery_lang::compile("t", SRC).unwrap();
        let before = m.clone();
        assert_eq!(apply(&mut m), 0);
        assert_eq!(m, before);
    }
}
