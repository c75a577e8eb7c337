//! The instruction duplication pass (SWIFT-style selective ID, paper §3).
//!
//! For every selected instruction a *shadow* copy is inserted right after
//! the original, computing on shadow operands where available. Before every
//! *synchronization point* — store, call, conditional branch, return — a
//! *checker* compares each operand that has a shadow; on mismatch control
//! transfers to a detector block that calls `detect_error`.
//!
//! Checkers are compare+branch sequences, so each one **splits the basic
//! block** ahead of the synchronization point. That split is not an
//! implementation accident: it is the reason the backend's register cache
//! cannot keep checked values in registers across the checker, producing
//! the reload `mov`s of the paper's store penetration and the `test`s of
//! its branch penetration.

use crate::select::{is_duplicable, ProtectionPlan};
use flowery_ir::inst::{Callee, InstData, InstKind, Intrinsic, IrRole, Terminator};
use flowery_ir::module::Module;
use flowery_ir::types::Type;
use flowery_ir::value::{BlockId, FuncId, InstId, Op, Value};
use flowery_ir::{CastKind, IPred};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which synchronization points receive checkers.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DupConfig {
    pub check_stores: bool,
    pub check_branches: bool,
    pub check_calls: bool,
    pub check_rets: bool,
}

impl Default for DupConfig {
    fn default() -> DupConfig {
        DupConfig {
            check_stores: true,
            check_branches: true,
            check_calls: true,
            check_rets: true,
        }
    }
}

/// Statistics from a duplication run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DupStats {
    /// Shadow instructions inserted.
    pub shadows: usize,
    /// Checkers inserted (each is a compare + branch + detector block).
    pub checkers: usize,
}

/// Apply selective instruction duplication in place.
pub fn duplicate_module(m: &mut Module, plan: &ProtectionPlan, cfg: &DupConfig) -> DupStats {
    let mut stats = DupStats::default();
    for fi in 0..m.functions.len() {
        let fid = FuncId(fi as u32);
        let shadow_map = insert_shadows(m, fid, plan, &mut stats);
        insert_checkers(m, fid, &shadow_map, cfg, &mut stats);
    }
    stats
}

/// Phase A: allocate and place shadow instructions; returns orig -> shadow.
fn insert_shadows(m: &mut Module, fid: FuncId, plan: &ProtectionPlan, stats: &mut DupStats) -> HashMap<InstId, InstId> {
    let f = m.func_mut(fid);
    // Pass 1: allocate shadow ids for every selected duplicable instruction.
    let selected: Vec<InstId> = f
        .live_insts()
        .into_iter()
        .filter(|&iid| f.inst(iid).role == IrRole::App && is_duplicable(&f.inst(iid).kind) && plan.contains(fid, iid))
        .collect();
    let mut shadow_map: HashMap<InstId, InstId> = HashMap::with_capacity(selected.len());
    for &iid in &selected {
        let mut data = f.inst(iid).clone();
        data.role = IrRole::Shadow;
        data.dup_of = Some(iid);
        let sid = f.add_inst(data);
        shadow_map.insert(iid, sid);
    }
    // Pass 2: remap shadow operands to shadows where available.
    for (&orig, &sid) in &shadow_map {
        let _ = orig;
        let data = &mut f.insts[sid.index()];
        for op in data.operands_mut() {
            if let Op::Value(Value::Inst(d)) = op {
                if let Some(&sd) = shadow_map.get(d) {
                    *op = Op::inst(sd);
                }
            }
        }
    }
    // Pass 3: place each shadow right after its original.
    for block in &mut f.blocks {
        let mut new_insts = Vec::with_capacity(block.insts.len() * 2);
        for &iid in &block.insts {
            new_insts.push(iid);
            if let Some(&sid) = shadow_map.get(&iid) {
                new_insts.push(sid);
                stats.shadows += 1;
            }
        }
        block.insts = new_insts;
    }
    shadow_map
}

/// Phase B: walk every block; insert checkers ahead of synchronization
/// points whose operands have shadows.
fn insert_checkers(
    m: &mut Module,
    fid: FuncId,
    shadow_map: &HashMap<InstId, InstId>,
    cfg: &DupConfig,
    stats: &mut DupStats,
) {
    // Worklist of (block, first unprocessed position).
    let initial: Vec<(BlockId, usize)> = (0..m.func(fid).blocks.len()).map(|i| (BlockId(i as u32), 0)).collect();
    let mut work = initial;
    while let Some((bid, start)) = work.pop() {
        let mut pos = start;
        loop {
            let f = m.func(fid);
            let block = f.block(bid);
            if pos >= block.insts.len() {
                break;
            }
            let iid = block.insts[pos];
            let inst = f.inst(iid);
            let wants_check = inst.role == IrRole::App
                && match &inst.kind {
                    InstKind::Store { .. } => cfg.check_stores,
                    InstKind::Call { callee, .. } => {
                        cfg.check_calls
                            && match callee {
                                Callee::Func(_) => true,
                                Callee::Intrinsic(i) => !i.is_math(),
                            }
                    }
                    _ => false,
                };
            if wants_check {
                let checked = checked_operands(&inst.operands(), shadow_map);
                if !checked.is_empty() {
                    let (nb, npos) = emit_checker_chain(m, fid, bid, pos, &checked, stats);
                    // The synchronization point now sits at `npos` of `nb`;
                    // continue scanning right after it. The original
                    // terminator travelled to the tail block of the chain,
                    // which this worklist entry will reach.
                    work.push((nb, npos + 1));
                    break;
                }
            }
            pos += 1;
        }
        if pos < m.func(fid).block(bid).insts.len() {
            // We broke out after splitting; the remainder is on the worklist.
            continue;
        }

        // Terminator synchronization points (conditional branch / return).
        let f = m.func(fid);
        let term_checked: Vec<(Op, Op)> = match &f.block(bid).term {
            Terminator::Br { cond, .. } if cfg.check_branches => checked_operands(&[*cond], shadow_map),
            Terminator::Ret { val: Some(v) } if cfg.check_rets => checked_operands(&[*v], shadow_map),
            _ => Vec::new(),
        };
        if !term_checked.is_empty() {
            let pos = m.func(fid).block(bid).insts.len();
            emit_checker_chain(m, fid, bid, pos, &term_checked, stats);
        }
    }
}

/// The (original, shadow) operand pairs needing a check, deduplicated.
fn checked_operands(ops: &[Op], shadow_map: &HashMap<InstId, InstId>) -> Vec<(Op, Op)> {
    let mut out: Vec<(Op, Op)> = Vec::new();
    for op in ops {
        if let Op::Value(Value::Inst(d)) = op {
            if let Some(&sd) = shadow_map.get(d) {
                let pair = (*op, Op::inst(sd));
                if !out.contains(&pair) {
                    out.push(pair);
                }
            }
        }
    }
    out
}

/// Insert one checker per pair before position `pos` of `bid`. Returns the
/// block now holding the instruction originally at `pos` and its index.
fn emit_checker_chain(
    m: &mut Module,
    fid: FuncId,
    bid: BlockId,
    pos: usize,
    pairs: &[(Op, Op)],
    stats: &mut DupStats,
) -> (BlockId, usize) {
    let mut cur_block = bid;
    let mut cur_pos = pos;
    for &(orig, shadow) in pairs {
        cur_block = emit_one_checker(m, fid, cur_block, cur_pos, orig, shadow);
        cur_pos = 0;
        stats.checkers += 1;
    }
    (cur_block, cur_pos)
}

/// Emit `if (orig != shadow) detect_error()` before position `pos`,
/// splitting the block. Returns the continuation block (which starts with
/// the instruction previously at `pos`).
fn emit_one_checker(m: &mut Module, fid: FuncId, bid: BlockId, pos: usize, orig: Op, shadow: Op) -> BlockId {
    let ty = m.op_ty(fid, orig).expect("checked operand has a type");
    let f = m.func_mut(fid);

    let cont = f.split_block(bid, pos);
    // Detector block.
    let detect = f.add_block(format!("detect{}", f.blocks.len()));
    let call = f.add_inst(InstData::with_role(
        InstKind::Call {
            callee: Callee::Intrinsic(Intrinsic::DetectError),
            args: vec![],
        },
        IrRole::Checker,
    ));
    f.block_mut(detect).insts.push(call);
    f.block_mut(detect).term = Terminator::Jmp { dest: cont };

    // Compare (bit-exact: floats are compared through integer bitcasts,
    // which is what LLVM-level duplicators do to avoid NaN/-0.0 pitfalls).
    let (a, b, cmp_ty) = if ty.is_float() {
        let [ba, bb] = [orig, shadow].map(|val| {
            let cast = InstKind::Cast { kind: CastKind::Bitcast, from: ty, to: Type::I64, val };
            let id = f.add_inst(InstData::with_role(cast, IrRole::Checker));
            f.block_mut(bid).insts.push(id);
            Op::inst(id)
        });
        (ba, bb, Type::I64)
    } else {
        (orig, shadow, ty)
    };
    let ok = f.add_inst(InstData::with_role(
        InstKind::ICmp { pred: IPred::Eq, ty: cmp_ty, lhs: a, rhs: b },
        IrRole::Checker,
    ));
    f.block_mut(bid).insts.push(ok);
    f.block_mut(bid).term = Terminator::Br { cond: Op::inst(ok), then_bb: cont, else_bb: detect };
    cont
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_ir::interp::{ExecConfig, ExecStatus, Interpreter};
    use flowery_ir::verify::verify_module;

    fn compile(src: &str) -> Module {
        flowery_lang::compile("t", src).unwrap()
    }

    const LOOP_SRC: &str =
        "int main() { int s = 0; int i; for (i = 0; i < 10; i = i + 1) { s = s + i; } output(s); return s; }";

    #[test]
    fn full_duplication_preserves_semantics() {
        let mut m = compile(LOOP_SRC);
        let golden = Interpreter::new(&m).run(&ExecConfig::default(), None);
        let plan = ProtectionPlan::full(&m);
        let stats = duplicate_module(&mut m, &plan, &DupConfig::default());
        verify_module(&m).expect("duplicated module verifies");
        let r = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(r.status, golden.status);
        assert_eq!(r.output, golden.output);
        assert!(stats.shadows > 5);
        assert!(stats.checkers > 2);
        assert!(r.dyn_insts > golden.dyn_insts, "duplication adds work");
    }

    #[test]
    fn duplication_roughly_doubles_compute() {
        let mut m = compile(LOOP_SRC);
        let golden = Interpreter::new(&m).run(&ExecConfig::default(), None);
        let plan = ProtectionPlan::full(&m);
        duplicate_module(&mut m, &plan, &DupConfig::default());
        let r = Interpreter::new(&m).run(&ExecConfig::default(), None);
        let ratio = r.dyn_insts as f64 / golden.dyn_insts as f64;
        assert!(ratio > 1.5 && ratio < 3.5, "overhead ratio {ratio}");
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let mut m = compile(LOOP_SRC);
        let before = m.clone();
        let plan = ProtectionPlan::none(&m);
        let stats = duplicate_module(&mut m, &plan, &DupConfig::default());
        assert_eq!(stats, DupStats::default());
        assert_eq!(m, before);
    }

    #[test]
    fn injected_fault_in_protected_chain_is_detected() {
        let mut m = compile("int main() { int a = 5; int b = a * 3; output(b); return b; }");
        let plan = ProtectionPlan::full(&m);
        duplicate_module(&mut m, &plan, &DupConfig::default());
        verify_module(&m).unwrap();
        let interp = Interpreter::new(&m);
        let golden = interp.run(&ExecConfig::default(), None);
        assert_eq!(golden.status, ExecStatus::Completed(15));
        // Sweep all sites and bits: every completed run must match golden —
        // full protection at IR level leaves no SDC (paper Observation 3).
        let mut detected = 0;
        for site in 0..golden.fault_sites {
            for bit in 0..8 {
                let r = interp.run(&ExecConfig::default(), Some(flowery_ir::interp::FaultSpec::single(site, bit)));
                match r.status {
                    ExecStatus::Completed(_) => {
                        assert_eq!(r.output, golden.output, "SDC escaped at site {site} bit {bit}");
                    }
                    ExecStatus::Detected => detected += 1,
                    ExecStatus::Trapped(_) => {}
                }
            }
        }
        assert!(detected > 0, "checkers must fire for some faults");
    }

    #[test]
    fn float_chains_are_checked_bit_exactly() {
        let mut m = compile("int main() { float x = 1.5; float y = x * 2.0 + 0.25; output(y); return 0; }");
        let plan = ProtectionPlan::full(&m);
        duplicate_module(&mut m, &plan, &DupConfig::default());
        verify_module(&m).unwrap();
        let interp = Interpreter::new(&m);
        let golden = interp.run(&ExecConfig::default(), None);
        for site in 0..golden.fault_sites {
            let r = interp.run(&ExecConfig::default(), Some(flowery_ir::interp::FaultSpec::single(site, 51)));
            if let ExecStatus::Completed(_) = r.status {
                assert_eq!(r.output, golden.output, "float SDC escaped at site {site}");
            }
        }
    }

    #[test]
    fn branch_conditions_are_checked() {
        let mut m = compile("int main() { int x = 7; if (x > 3) { output(1); } else { output(2); } return 0; }");
        let plan = ProtectionPlan::full(&m);
        let stats = duplicate_module(&mut m, &plan, &DupConfig::default());
        verify_module(&m).unwrap();
        assert!(stats.checkers >= 1);
        // The icmp feeding the branch must be compared against its shadow.
        let f = &m.functions[m.main_func().unwrap().index()];
        let has_checker_icmp = f
            .live_insts()
            .iter()
            .any(|&i| f.inst(i).role == IrRole::Checker && matches!(f.inst(i).kind, InstKind::ICmp { .. }));
        assert!(has_checker_icmp);
    }

    #[test]
    fn selective_plan_duplicates_subset() {
        let m = compile(LOOP_SRC);
        let full = ProtectionPlan::full(&m);
        // Take roughly half the instructions.
        let mut partial = ProtectionPlan {
            per_func: vec![Default::default(); m.functions.len()],
            level: 0.5,
        };
        for (fi, set) in full.per_func.iter().enumerate() {
            let mut v: Vec<_> = set.iter().copied().collect();
            v.sort();
            partial.per_func[fi] = v.into_iter().step_by(2).collect();
        }
        let mut m1 = m.clone();
        let s1 = duplicate_module(&mut m1, &partial, &DupConfig::default());
        let mut m2 = m.clone();
        let s2 = duplicate_module(&mut m2, &full, &DupConfig::default());
        verify_module(&m1).unwrap();
        assert!(s1.shadows < s2.shadows);
        let g = Interpreter::new(&m).run(&ExecConfig::default(), None);
        let r1 = Interpreter::new(&m1).run(&ExecConfig::default(), None);
        assert_eq!(g.output, r1.output);
    }

    #[test]
    fn checker_config_toggles_respected() {
        let m = compile(LOOP_SRC);
        let plan = ProtectionPlan::full(&m);
        let mut none_checked = m.clone();
        let s = duplicate_module(
            &mut none_checked,
            &plan,
            &DupConfig {
                check_stores: false,
                check_branches: false,
                check_calls: false,
                check_rets: false,
            },
        );
        assert_eq!(s.checkers, 0);
        assert!(s.shadows > 0);
        let mut stores_only = m.clone();
        let s2 = duplicate_module(
            &mut stores_only,
            &plan,
            &DupConfig {
                check_stores: true,
                check_branches: false,
                check_calls: false,
                check_rets: false,
            },
        );
        assert!(s2.checkers > 0);
        verify_module(&stores_only).unwrap();
    }

    #[test]
    fn recursion_and_calls_survive_duplication() {
        let mut m = compile(
            "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
             int main() { return fib(10); }",
        );
        let plan = ProtectionPlan::full(&m);
        duplicate_module(&mut m, &plan, &DupConfig::default());
        verify_module(&m).unwrap();
        let r = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Completed(55));
    }

    #[test]
    fn duplicated_module_compiles_to_machine_code() {
        let mut m = compile(LOOP_SRC);
        let golden = Interpreter::new(&m).run(&ExecConfig::default(), None);
        let plan = ProtectionPlan::full(&m);
        duplicate_module(&mut m, &plan, &DupConfig::default());
        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let r = flowery_backend::Machine::new(&m, &prog).run(&ExecConfig::default(), None);
        assert_eq!(r.status, golden.status);
        assert_eq!(r.output, golden.output);
    }
}
