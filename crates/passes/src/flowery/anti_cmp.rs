//! Flowery patch 3: **anti-comparison-duplication optimization** (§6.3).
//!
//! The backend's block-local value analysis recognizes a duplicated
//! comparison as redundant and folds the checker compare into a constant
//! (comparison penetration). Flowery defeats the analysis by *separating
//! the compare from the definitions of its operands*: the shadow compare
//! and the checker are moved into a dedicated block, reached through an
//! opaque conditional guard. The equivalence between the original and
//! shadow compares can then no longer be established block-locally, so the
//! folding never fires and the protection survives to the assembly level.

use crate::provenance::is_detector_block;
use flowery_ir::inst::{InstData, InstKind, IrRole, Terminator};
use flowery_ir::module::{Global, GlobalInit, Module};
use flowery_ir::types::Type;
use flowery_ir::value::{BlockId, FuncId, GlobalId, InstId, Op};
use flowery_ir::IPred;

/// Name of the opaque guard global (always 1; the compiler cannot know).
pub const OPAQUE_GLOBAL: &str = "__flowery_opaque";

/// Apply the anti-comparison transformation in place. Returns the number of
/// comparison checkers that were isolated.
pub fn apply(m: &mut Module) -> usize {
    let opaque = ensure_global(m);
    let mut isolated = 0;
    for fi in 0..m.functions.len() {
        isolated += patch_function(m, FuncId(fi as u32), opaque);
    }
    isolated
}

fn ensure_global(m: &mut Module) -> GlobalId {
    m.find_global(OPAQUE_GLOBAL).unwrap_or_else(|| {
        m.add_global(Global {
            name: OPAQUE_GLOBAL.into(),
            elem: Type::I64,
            count: 1,
            init: GlobalInit::Elems(vec![1]),
        })
    })
}

fn patch_function(m: &mut Module, fid: FuncId, opaque: GlobalId) -> usize {
    let mut isolated = 0;
    let mut bi = 0;
    while bi < m.func(fid).blocks.len() {
        let bid = BlockId(bi as u32);
        bi += 1;
        let Some((shadow_pos, detect)) = find_comparison_checker(m.func(fid), bid) else {
            continue;
        };
        let f = m.func_mut(fid);
        // Split so the shadow compare + checker group live in their own
        // block, then guard entry to it with an opaque condition.
        let cmp_block = f.split_block(bid, shadow_pos);
        let load = f.add_inst(InstData::with_role(
            InstKind::Load { ptr: Op::Global(opaque), ty: Type::I64 },
            IrRole::Patch,
        ));
        let guard = f.add_inst(InstData::with_role(
            InstKind::ICmp {
                pred: IPred::Eq,
                ty: Type::I64,
                lhs: Op::inst(load),
                rhs: Op::ci64(1),
            },
            IrRole::Patch,
        ));
        f.block_mut(bid).insts.push(load);
        f.block_mut(bid).insts.push(guard);
        f.block_mut(bid).term = Terminator::Br { cond: Op::inst(guard), then_bb: cmp_block, else_bb: detect };
        isolated += 1;
    }
    isolated
}

/// Detect the paper's comparison-validation shape in `bid`:
///
/// ```text
///   ... ; %orig = icmp/fcmp (App) ; %shadow = icmp/fcmp (Shadow) ;
///   [checker casts]* ; %chk = icmp eq (Checker) ;
///   br %chk, CONT, DETECT
/// ```
///
/// Returns the position of the shadow compare and the detector block.
fn find_comparison_checker(f: &flowery_ir::Function, bid: BlockId) -> Option<(usize, BlockId)> {
    let block = f.block(bid);
    let Terminator::Br { cond, else_bb, .. } = &block.term else {
        return None;
    };
    let chk = cond.as_inst()?;
    let chk_data = f.inst(chk);
    if chk_data.role != IrRole::Checker {
        return None;
    }
    if !is_detector_block(f, *else_bb) {
        return None;
    }
    // The checker must validate a *comparison*: one of its compared values
    // is a Shadow compare instruction.
    let InstKind::ICmp { lhs, rhs, .. } = &chk_data.kind else {
        return None;
    };
    let shadow_cmp = [lhs, rhs].into_iter().filter_map(|o| o.as_inst()).find(|&i| {
        let d = f.inst(i);
        d.role == IrRole::Shadow && matches!(d.kind, InstKind::ICmp { .. } | InstKind::FCmp { .. })
    })?;
    // The shadow compare must be in this very block (otherwise the folder
    // could not fold it and no isolation is needed).
    let shadow_pos = block.insts.iter().position(|&i| i == shadow_cmp)?;
    // Idempotence: in unpatched code the shadow always follows its original
    // in the same block (position >= 1). A shadow at position 0 means this
    // block is already an isolated compare block from a previous run.
    if shadow_pos == 0 {
        return None;
    }
    Some((shadow_pos, *else_bb))
}

/// Statistics helper for experiments: count comparison checkers that
/// survive backend folding.
pub fn surviving_compare_checkers(m: &Module) -> usize {
    let mut folded = m.clone();
    flowery_backend::fold::fold_redundant_compares(&mut folded);
    folded
        .functions
        .iter()
        .map(|f| {
            f.live_insts()
                .iter()
                .filter(|&&i| {
                    f.inst(i).role == IrRole::Checker
                        && matches!(f.inst(i).kind, InstKind::ICmp { .. })
                        && checker_compares_shadow_cmp(f, i)
                })
                .count()
        })
        .sum()
}

fn checker_compares_shadow_cmp(f: &flowery_ir::Function, chk: InstId) -> bool {
    let InstKind::ICmp { lhs, rhs, .. } = &f.inst(chk).kind else {
        return false;
    };
    [lhs, rhs].into_iter().filter_map(|o| o.as_inst()).any(|i| {
        let d = f.inst(i);
        d.role == IrRole::Shadow && matches!(d.kind, InstKind::ICmp { .. } | InstKind::FCmp { .. })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplicate::{duplicate_module, DupConfig};
    use crate::select::ProtectionPlan;
    use flowery_ir::interp::{ExecConfig, Interpreter};
    use flowery_ir::verify::verify_module;

    const SRC: &str = "int main() { int a = 3; int b = 9; if (a < b) { output(1); } else { output(2); } return 0; }";

    fn duplicated() -> Module {
        let mut m = flowery_lang::compile("t", SRC).unwrap();
        let plan = ProtectionPlan::full(&m);
        duplicate_module(&mut m, &plan, &DupConfig::default());
        m
    }

    #[test]
    fn isolates_comparison_checkers() {
        let mut m = duplicated();
        let n = apply(&mut m);
        assert!(n > 0, "the branch-condition checker must be isolated");
        verify_module(&m).unwrap();
        assert!(m.find_global(OPAQUE_GLOBAL).is_some());
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
    fn defeats_backend_compare_folding() {
        let plain = duplicated();
        let mut patched = plain.clone();
        apply(&mut patched);
        let before = surviving_compare_checkers(&plain);
        let after = surviving_compare_checkers(&patched);
        assert_eq!(before, 0, "without the patch, folding kills every comparison checker");
        assert!(after > 0, "with the patch, comparison checkers survive folding");
    }

    #[test]
    fn idempotent_application() {
        let mut m = duplicated();
        let n1 = apply(&mut m);
        let snapshot = m.clone();
        let n2 = apply(&mut m);
        assert!(n1 > 0);
        assert_eq!(n2, 0, "second application must find nothing to patch");
        assert_eq!(m, snapshot);
    }

    #[test]
    fn detected_faults_at_assembly_after_patch() {
        use flowery_backend::{compile_module, AsmFaultSpec, BackendConfig, Machine};
        use flowery_ir::interp::ExecStatus;
        let plain = duplicated();
        let mut patched = plain.clone();
        apply(&mut patched);
        // The comparison itself (setcc result) must now be protected at the
        // assembly level: faults that silently flipped the output before
        // are detected after the patch.
        let sweep = |m: &Module| -> (u64, u64) {
            let prog = compile_module(m, &BackendConfig::default());
            let mach = Machine::new(m, &prog);
            let golden = mach.run(&ExecConfig::default(), None);
            let cfg = ExecConfig::with_budget_for(golden.dyn_insts);
            let (mut sdc, mut det) = (0, 0);
            for site in 0..golden.fault_sites {
                for bit in [0u32, 1] {
                    let r = mach.run(&cfg, Some(AsmFaultSpec::single(site, bit)));
                    match r.status {
                        ExecStatus::Completed(_) if r.output != golden.output => sdc += 1,
                        ExecStatus::Detected => det += 1,
                        _ => {}
                    }
                }
            }
            (sdc, det)
        };
        let (sdc_plain, _) = sweep(&plain);
        let (sdc_patched, det) = sweep(&patched);
        assert!(det > 0);
        assert!(sdc_patched <= sdc_plain, "{sdc_patched} vs {sdc_plain}");
    }
}
