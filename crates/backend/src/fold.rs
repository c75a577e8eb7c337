//! Backend IR folding, modelling the LLVM behaviour behind the paper's
//! *comparison penetration* (§5.2, Figures 8/9): when an `icmp` is
//! duplicated and a checker compares the two results, the compiler's
//! block-local value analysis recognizes the duplicate as redundant and
//! folds the checker compare into a constant, silently nullifying the
//! protection.
//!
//! The model is a block-local structural value-equivalence analysis
//! (SelectionDAG-style CSE): two instructions in the same block are
//! equivalent if their kinds match and their operands are equivalent;
//! loads additionally require the same *memory epoch* (no intervening
//! store/call). Comparisons whose operands are equivalent fold to a
//! constant; dead code (including the orphaned shadow chain) is then
//! eliminated.
//!
//! Flowery's anti-comparison patch (§6.3) defeats exactly this analysis by
//! moving the compare into a separate block behind an opaque condition.

use flowery_ir::inst::{Callee, InstKind};
use flowery_ir::module::{Function, Module};
use flowery_ir::value::{InstId, Op, Value};
use flowery_ir::{Const, IPred};
use std::collections::HashMap;

/// Statistics from a folding run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Comparisons folded to constants.
    pub folded_compares: usize,
    /// Instructions removed as dead afterwards.
    pub removed_dead: usize,
}

/// Run compare folding + DCE over every function. Mutates `m` in place.
pub fn fold_redundant_compares(m: &mut Module) -> FoldStats {
    let mut stats = FoldStats::default();
    for fi in 0..m.functions.len() {
        stats.folded_compares += fold_function(&mut m.functions[fi]);
    }
    stats.removed_dead = eliminate_dead_code(m);
    stats
}

fn fold_function(f: &mut Function) -> usize {
    let mut folded = 0;
    // (inst -> (block index, memory epoch)) for the current block walk.
    for bi in 0..f.blocks.len() {
        // Epoch of each instruction position in this block.
        let insts = f.blocks[bi].insts.clone();
        let mut epoch = 0u32;
        let mut epoch_of: HashMap<InstId, u32> = HashMap::new();
        for &iid in &insts {
            epoch_of.insert(iid, epoch);
            if memory_barrier(&f.inst(iid).kind) {
                epoch += 1;
            }
        }
        // Fold comparison *validations*: an icmp whose operands are (a)
        // literally the same value, or (b) two comparison results that are
        // structurally equivalent. General arithmetic duplication chains
        // are NOT folded — matching the observed LLVM behaviour (the
        // paper's Figures 8/9 show only the duplicated compare and its
        // checker disappearing, while duplicated arithmetic survives).
        let mut replacements: Vec<(InstId, bool)> = Vec::new();
        for &iid in &insts {
            if let InstKind::ICmp { pred, lhs, rhs, .. } = &f.inst(iid).kind {
                let mut memo = HashMap::new();
                let same = *lhs == *rhs;
                let both_compares = is_compare_value(f, *lhs) && is_compare_value(f, *rhs);
                if same || (both_compares && ops_equiv(f, &epoch_of, *lhs, *rhs, &mut memo)) {
                    // Equal values: resolve the predicate.
                    let result = match pred {
                        IPred::Eq | IPred::Sle | IPred::Sge => true,
                        IPred::Ne | IPred::Slt | IPred::Sgt => false,
                    };
                    replacements.push((iid, result));
                }
            }
        }
        for (iid, val) in replacements {
            f.replace_all_uses(Value::Inst(iid), Op::Const(Const::bool(val)));
            folded += 1;
        }
    }
    folded
}

/// Is this operand the result of a comparison (directly, or through a
/// bitcast, as duplication checkers produce for float compares)?
fn is_compare_value(f: &Function, op: Op) -> bool {
    let Some(id) = op.as_inst() else { return false };
    match &f.inst(id).kind {
        InstKind::ICmp { .. } | InstKind::FCmp { .. } => true,
        InstKind::Cast { val, .. } => is_compare_value(f, *val),
        _ => false,
    }
}

/// Does this instruction end a memory epoch (conservatively clobber memory)?
fn memory_barrier(kind: &InstKind) -> bool {
    match kind {
        InstKind::Store { .. } => true,
        InstKind::Call { callee, .. } => match callee {
            Callee::Func(_) => true,
            Callee::Intrinsic(i) => !i.is_math(),
        },
        _ => false,
    }
}

/// Structural operand equivalence, block-local.
fn ops_equiv(
    f: &Function,
    epoch_of: &HashMap<InstId, u32>,
    a: Op,
    b: Op,
    memo: &mut HashMap<(InstId, InstId), bool>,
) -> bool {
    if a == b {
        return true;
    }
    let (Some(ia), Some(ib)) = (a.as_inst(), b.as_inst()) else {
        return false;
    };
    insts_equiv(f, epoch_of, ia, ib, memo)
}

fn insts_equiv(
    f: &Function,
    epoch_of: &HashMap<InstId, u32>,
    a: InstId,
    b: InstId,
    memo: &mut HashMap<(InstId, InstId), bool>,
) -> bool {
    if a == b {
        return true;
    }
    let key = if a < b { (a, b) } else { (b, a) };
    if let Some(&r) = memo.get(&key) {
        return r;
    }
    // Guard against cycles (not possible in well-formed straight-line data
    // flow, but cheap insurance): assume inequivalent while computing.
    memo.insert(key, false);
    let r = insts_equiv_inner(f, epoch_of, a, b, memo);
    memo.insert(key, r);
    r
}

fn insts_equiv_inner(
    f: &Function,
    epoch_of: &HashMap<InstId, u32>,
    a: InstId,
    b: InstId,
    memo: &mut HashMap<(InstId, InstId), bool>,
) -> bool {
    let (ka, kb) = (&f.inst(a).kind, &f.inst(b).kind);
    let eq = |x: Op, y: Op, memo: &mut HashMap<(InstId, InstId), bool>| ops_equiv(f, epoch_of, x, y, memo);
    match (ka, kb) {
        (InstKind::Load { ptr: pa, ty: ta }, InstKind::Load { ptr: pb, ty: tb }) => {
            // Loads are equivalent only within the same block and memory
            // epoch (no store/call between them).
            let (Some(&ea), Some(&eb)) = (epoch_of.get(&a), epoch_of.get(&b)) else {
                return false;
            };
            ta == tb && ea == eb && eq(*pa, *pb, memo)
        }
        (InstKind::Bin { op: oa, ty: ta, lhs: la, rhs: ra }, InstKind::Bin { op: ob, ty: tb, lhs: lb, rhs: rb }) => {
            if oa != ob || ta != tb {
                return false;
            }
            if eq(*la, *lb, memo) && eq(*ra, *rb, memo) {
                return true;
            }
            oa.commutative() && eq(*la, *rb, memo) && eq(*ra, *lb, memo)
        }
        (
            InstKind::ICmp { pred: pa, ty: ta, lhs: la, rhs: ra },
            InstKind::ICmp { pred: pb, ty: tb, lhs: lb, rhs: rb },
        ) => ta == tb && pa == pb && eq(*la, *lb, memo) && eq(*ra, *rb, memo),
        (
            InstKind::FCmp { pred: pa, ty: ta, lhs: la, rhs: ra },
            InstKind::FCmp { pred: pb, ty: tb, lhs: lb, rhs: rb },
        ) => ta == tb && pa == pb && eq(*la, *lb, memo) && eq(*ra, *rb, memo),
        (
            InstKind::Cast { kind: ca, from: fa, to: ta, val: va },
            InstKind::Cast { kind: cb, from: fb, to: tb, val: vb },
        ) => ca == cb && fa == fb && ta == tb && eq(*va, *vb, memo),
        (InstKind::Gep { base: ba, index: ia, elem: ea }, InstKind::Gep { base: bb, index: ib, elem: eb }) => {
            ea == eb && eq(*ba, *bb, memo) && eq(*ia, *ib, memo)
        }
        (
            InstKind::Call { callee: Callee::Intrinsic(ia), args: aa },
            InstKind::Call { callee: Callee::Intrinsic(ib), args: ab },
        ) => {
            // Pure math intrinsics only.
            ia == ib
                && ia.is_math()
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(&x, &y)| ops_equiv(f, epoch_of, x, y, memo))
        }
        _ => false,
    }
}

/// Remove instructions whose results are unused and which have no side
/// effects. Iterates to a fixed point so whole orphaned chains disappear
/// (the shadow compare chain after folding). Returns the number removed.
pub fn eliminate_dead_code(m: &mut Module) -> usize {
    let mut removed = 0;
    for f in &mut m.functions {
        loop {
            let mut uses = vec![0u32; f.insts.len()];
            for block in &f.blocks {
                for &iid in &block.insts {
                    for op in f.insts[iid.index()].operands() {
                        if let Some(d) = op.as_inst() {
                            uses[d.index()] += 1;
                        }
                    }
                }
                if let Some(op) = block.term.operand() {
                    if let Some(d) = op.as_inst() {
                        uses[d.index()] += 1;
                    }
                }
            }
            let mut changed = false;
            for block in &mut f.blocks {
                block.insts.retain(|&iid| {
                    let data = &f.insts[iid.index()];
                    let dead = uses[iid.index()] == 0
                        && !data.has_side_effects()
                        && !matches!(data.kind, InstKind::Alloca { .. });
                    if dead {
                        removed += 1;
                        changed = true;
                    }
                    !dead
                });
            }
            if !changed {
                break;
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_ir::builder::{FuncBuilder, ModuleBuilder};
    use flowery_ir::inst::{BinOp, Terminator};
    use flowery_ir::types::Type;
    use flowery_ir::value::BlockId;
    use flowery_ir::IPred;

    /// Build the paper's Figure 8 shape: duplicated loads + duplicated icmp
    /// + checker `icmp eq` in one block.
    fn figure8_module() -> (Module, InstId) {
        let mut mb = ModuleBuilder::new("fig8");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let a = fb.alloca(Type::I64, 1);
        let b = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(3), Op::inst(a));
        fb.store(Type::I64, Op::ci64(7), Op::inst(b));
        let l1 = fb.load(Type::I64, Op::inst(a));
        let l2 = fb.load(Type::I64, Op::inst(a)); // shadow load of a
        let l3 = fb.load(Type::I64, Op::inst(b));
        let l4 = fb.load(Type::I64, Op::inst(b)); // shadow load of b
        let c1 = fb.icmp(IPred::Slt, Type::I64, Op::inst(l1), Op::inst(l3));
        let c2 = fb.icmp(IPred::Slt, Type::I64, Op::inst(l2), Op::inst(l4));
        let chk = fb.icmp(IPred::Eq, Type::I1, Op::inst(c1), Op::inst(c2));
        let ok_bb = fb.new_block("ok");
        let detect_bb = fb.new_block("detect");
        fb.br(Op::inst(chk), ok_bb, detect_bb);
        fb.switch_to(detect_bb);
        fb.intrinsic(flowery_ir::Intrinsic::DetectError, vec![]);
        fb.jmp(ok_bb);
        fb.switch_to(ok_bb);
        let z = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(c1));
        fb.ret(Some(Op::inst(z)));
        mb.add_func(fb.finish());
        (mb.finish(), chk)
    }

    #[test]
    fn folds_checker_compare_to_true() {
        let (mut m, chk) = figure8_module();
        let stats = fold_redundant_compares(&mut m);
        assert_eq!(stats.folded_compares, 1);
        // The branch now has a constant condition.
        let f = &m.functions[0];
        match &f.block(BlockId(0)).term {
            Terminator::Br { cond, .. } => {
                assert_eq!(*cond, Op::Const(Const::bool(true)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The checker icmp and the shadow chain are gone.
        let live = f.live_insts();
        assert!(!live.contains(&chk), "checker compare removed");
        assert!(stats.removed_dead >= 3, "shadow icmp + shadow loads removed, got {}", stats.removed_dead);
    }

    #[test]
    fn store_between_loads_blocks_folding() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let a = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(1), Op::inst(a));
        let l1 = fb.load(Type::I64, Op::inst(a));
        let c1 = fb.icmp(IPred::Slt, Type::I64, Op::inst(l1), Op::ci64(5));
        fb.store(Type::I64, Op::ci64(2), Op::inst(a)); // epoch barrier
        let l2 = fb.load(Type::I64, Op::inst(a));
        let c2 = fb.icmp(IPred::Slt, Type::I64, Op::inst(l2), Op::ci64(5));
        let chk = fb.icmp(IPred::Eq, Type::I1, Op::inst(c1), Op::inst(c2));
        let z = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(chk));
        fb.ret(Some(Op::inst(z)));
        mb.add_func(fb.finish());
        let mut m = mb.finish();
        let stats = fold_redundant_compares(&mut m);
        assert_eq!(stats.folded_compares, 0);
    }

    #[test]
    fn arithmetic_duplication_chains_are_not_folded() {
        // Checker over duplicated *arithmetic* must survive: only compare
        // validations fold (the paper's comparison penetration shape).
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let a = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(3), Op::inst(a));
        let l1 = fb.load(Type::I64, Op::inst(a));
        let l2 = fb.load(Type::I64, Op::inst(a)); // shadow load
        let x1 = fb.bin(BinOp::Add, Type::I64, Op::inst(l1), Op::ci64(1));
        let x2 = fb.bin(BinOp::Add, Type::I64, Op::inst(l2), Op::ci64(1)); // shadow add
        let chk = fb.icmp(IPred::Eq, Type::I64, Op::inst(x1), Op::inst(x2));
        let z = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(chk));
        fb.ret(Some(Op::inst(z)));
        mb.add_func(fb.finish());
        let mut m = mb.finish();
        let stats = fold_redundant_compares(&mut m);
        assert_eq!(stats.folded_compares, 0, "arithmetic checker must survive");
    }

    #[test]
    fn cross_block_compare_not_folded() {
        // Anti-comparison shape: the compare lives in a different block than
        // the duplicated loads, so the block-local analysis cannot fold it.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let a = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(5), Op::inst(a));
        let l1 = fb.load(Type::I64, Op::inst(a));
        let l2 = fb.load(Type::I64, Op::inst(a));
        let next = fb.new_block("cmpblock");
        fb.jmp(next);
        fb.switch_to(next);
        let chk = fb.icmp(IPred::Eq, Type::I64, Op::inst(l1), Op::inst(l2));
        let z = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(chk));
        fb.ret(Some(Op::inst(z)));
        mb.add_func(fb.finish());
        let mut m = mb.finish();
        let stats = fold_redundant_compares(&mut m);
        // The analysis is strictly block-local (SelectionDAG scope): the
        // compare sits in a different block than the loads, so the load
        // equivalence cannot be established and nothing folds. This is the
        // escape hatch Flowery's anti-comparison patch exploits.
        assert_eq!(stats.folded_compares, 0);
    }

    #[test]
    fn loads_in_different_blocks_not_folded() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let a = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(5), Op::inst(a));
        let l1 = fb.load(Type::I64, Op::inst(a));
        let c1 = fb.icmp(IPred::Slt, Type::I64, Op::inst(l1), Op::ci64(9));
        let next = fb.new_block("b2");
        fb.jmp(next);
        fb.switch_to(next);
        let l2 = fb.load(Type::I64, Op::inst(a)); // different block
        let c2 = fb.icmp(IPred::Slt, Type::I64, Op::inst(l2), Op::ci64(9));
        let chk = fb.icmp(IPred::Eq, Type::I1, Op::inst(c1), Op::inst(c2));
        let z = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(chk));
        fb.ret(Some(Op::inst(z)));
        mb.add_func(fb.finish());
        let mut m = mb.finish();
        let stats = fold_redundant_compares(&mut m);
        assert_eq!(stats.folded_compares, 0, "cross-block loads must not fold");
    }

    #[test]
    fn trivially_equal_operands_fold() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let v = fb.bin(BinOp::Add, Type::I64, Op::ci64(1), Op::ci64(2));
        let c = fb.icmp(IPred::Slt, Type::I64, Op::inst(v), Op::inst(v));
        let z = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(c));
        fb.ret(Some(Op::inst(z)));
        mb.add_func(fb.finish());
        let mut m = mb.finish();
        let stats = fold_redundant_compares(&mut m);
        assert_eq!(stats.folded_compares, 1);
        // x < x folds to false.
        let f = &m.functions[0];
        assert!(f
            .blocks
            .iter()
            .all(|b| b.insts.iter().all(|&i| !matches!(f.inst(i).kind, InstKind::ICmp { .. }))));
    }

    #[test]
    fn dce_preserves_side_effects_and_semantics() {
        let (mut m, _) = figure8_module();
        let before = flowery_ir::interp::Interpreter::new(&m).run(&flowery_ir::interp::ExecConfig::default(), None);
        fold_redundant_compares(&mut m);
        flowery_ir::verify::verify_module(&m).unwrap();
        let after = flowery_ir::interp::Interpreter::new(&m).run(&flowery_ir::interp::ExecConfig::default(), None);
        assert_eq!(before.status, after.status);
        assert_eq!(before.output, after.output);
        assert!(after.dyn_insts < before.dyn_insts);
    }

    #[test]
    fn commutative_ops_match_swapped() {
        // Equivalence recursion understands commutativity below compares.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![Type::I64, Type::I64], Some(Type::I64));
        let x = fb.bin(BinOp::Add, Type::I64, Op::param(0), Op::param(1));
        let y = fb.bin(BinOp::Add, Type::I64, Op::param(1), Op::param(0));
        let c1 = fb.icmp(IPred::Slt, Type::I64, Op::inst(x), Op::ci64(10));
        let c2 = fb.icmp(IPred::Slt, Type::I64, Op::inst(y), Op::ci64(10));
        let chk = fb.icmp(IPred::Eq, Type::I1, Op::inst(c1), Op::inst(c2));
        let z = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(chk));
        fb.ret(Some(Op::inst(z)));
        mb.add_func(fb.finish());
        let mut m = mb.finish();
        assert_eq!(fold_redundant_compares(&mut m).folded_compares, 1);
    }
}
