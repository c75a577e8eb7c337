//! Selective-protection planning: which static instructions to duplicate at
//! a given protection level.
//!
//! The paper (§3) formulates selection as a 0-1 knapsack: each duplicable
//! instruction has a *benefit* (the probability mass of SDCs attributable to
//! faults in it, estimated by fault injection) and a *cost* (its dynamic
//! execution count — the extra dynamic instructions duplication adds). The
//! protection level is the fraction of the total duplicable dynamic count
//! allowed as budget; the classic greedy benefit/cost heuristic fills it.

use flowery_ir::inst::{Callee, InstKind};
use flowery_ir::module::Module;
use flowery_ir::value::{FuncId, InstId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Is this instruction duplicable (pure compute, an IR-level fault site)?
pub fn is_duplicable(kind: &InstKind) -> bool {
    match kind {
        InstKind::Load { .. }
        | InstKind::Bin { .. }
        | InstKind::ICmp { .. }
        | InstKind::FCmp { .. }
        | InstKind::Cast { .. }
        | InstKind::Gep { .. } => true,
        InstKind::Call { callee: Callee::Intrinsic(i), .. } => i.is_math(),
        _ => false,
    }
}

/// Per-static-instruction SDC statistics from a profiling fault-injection
/// campaign on the unprotected program.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SdcProfile {
    /// Total fault-injection trials behind these statistics.
    pub trials: u64,
    /// `(func, inst, sdc_hits, exec_count)` per instruction that was hit at
    /// least once or executed at least once.
    pub entries: Vec<SdcEntry>,
}

/// One instruction's profile record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SdcEntry {
    pub func: FuncId,
    pub inst: InstId,
    /// Fault injections that landed here and produced an SDC.
    pub sdc_hits: u64,
    /// Dynamic executions in the golden run (the duplication cost).
    pub exec_count: u64,
}

/// The chosen set of instructions to duplicate, per function.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProtectionPlan {
    pub per_func: Vec<HashSet<InstId>>,
    /// The protection level this plan was built for (1.0 = full).
    pub level: f64,
}

impl ProtectionPlan {
    /// Protect every duplicable instruction (the paper's 100% level).
    pub fn full(m: &Module) -> ProtectionPlan {
        let per_func = m
            .functions
            .iter()
            .map(|f| {
                f.live_insts()
                    .into_iter()
                    .filter(|&iid| is_duplicable(&f.inst(iid).kind))
                    .collect()
            })
            .collect();
        ProtectionPlan { per_func, level: 1.0 }
    }

    /// Protect nothing.
    pub fn none(m: &Module) -> ProtectionPlan {
        ProtectionPlan {
            per_func: vec![HashSet::new(); m.functions.len()],
            level: 0.0,
        }
    }

    pub fn contains(&self, f: FuncId, i: InstId) -> bool {
        self.per_func.get(f.index()).is_some_and(|s| s.contains(&i))
    }

    /// Number of selected instructions.
    pub fn selected_count(&self) -> usize {
        self.per_func.iter().map(|s| s.len()).sum()
    }
}

/// Build a plan for `level` ∈ (0, 1]: greedy knapsack by SDC-benefit per
/// unit of dynamic-instruction cost.
///
/// Deterministic: ties break on (func, inst) order. Instructions with zero
/// observed SDC contribution are appended afterwards in ascending-cost
/// order, so the budget is always used (and `level = 1.0` selects
/// everything).
pub fn choose_protection(m: &Module, profile: &SdcProfile, level: f64) -> ProtectionPlan {
    assert!((0.0..=1.0).contains(&level), "protection level must be in [0, 1]");
    if level == 0.0 {
        return ProtectionPlan::none(m);
    }

    // Candidate list: duplicable instructions with their cost and benefit.
    struct Cand {
        func: FuncId,
        inst: InstId,
        cost: u64,
        benefit: f64,
    }
    let mut cands: Vec<Cand> = Vec::new();
    for e in &profile.entries {
        let f = &m.functions[e.func.index()];
        if e.inst.index() >= f.insts.len() || !is_duplicable(&f.inst(e.inst).kind) {
            continue;
        }
        let benefit = if profile.trials > 0 {
            e.sdc_hits as f64 / profile.trials as f64
        } else {
            0.0
        };
        // Never-executed instructions cost nothing and protect nothing; a
        // minimum cost of 1 keeps ratios finite and selection stable.
        cands.push(Cand {
            func: e.func,
            inst: e.inst,
            cost: e.exec_count.max(1),
            benefit,
        });
    }

    let total_cost: u64 = cands.iter().map(|c| c.cost).sum();
    let budget = (level * total_cost as f64).ceil() as u64;

    // Greedy: positive-benefit by ratio desc, then zero-benefit by cost asc.
    cands.sort_by(|a, b| {
        let ra = a.benefit / a.cost as f64;
        let rb = b.benefit / b.cost as f64;
        rb.partial_cmp(&ra)
            .unwrap()
            .then_with(|| a.cost.cmp(&b.cost))
            .then_with(|| (a.func, a.inst).cmp(&(b.func, b.inst)))
    });

    let mut plan = ProtectionPlan { per_func: vec![HashSet::new(); m.functions.len()], level };
    let mut spent = 0u64;
    for c in &cands {
        if spent + c.cost > budget {
            continue; // smaller later items may still fit
        }
        spent += c.cost;
        plan.per_func[c.func.index()].insert(c.inst);
    }
    plan
}

/// Derive the cost entries (exec counts) for every duplicable instruction
/// from an execution profile, merging in SDC hit counts.
pub fn build_profile(
    m: &Module,
    exec_profile: &flowery_ir::interp::Profile,
    sdc_hits: &std::collections::HashMap<(FuncId, InstId), u64>,
    trials: u64,
) -> SdcProfile {
    let mut entries = Vec::new();
    for (fi, f) in m.functions.iter().enumerate() {
        let fid = FuncId(fi as u32);
        for &iid in &f.live_insts() {
            if !is_duplicable(&f.inst(iid).kind) {
                continue;
            }
            let exec_count = exec_profile.count(fid, iid);
            let hits = sdc_hits.get(&(fid, iid)).copied().unwrap_or(0);
            if exec_count > 0 || hits > 0 {
                entries.push(SdcEntry { func: fid, inst: iid, sdc_hits: hits, exec_count });
            }
        }
    }
    SdcProfile { trials, entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_module() -> Module {
        flowery_lang::compile(
            "t",
            "int main() { int s = 0; int i; for (i = 0; i < 10; i = i + 1) { s = s + i; } output(s); return s; }",
        )
        .unwrap()
    }

    fn profile_for(m: &Module) -> SdcProfile {
        let interp = flowery_ir::interp::Interpreter::new(m);
        let r = interp.profile_run(&flowery_ir::interp::ExecConfig::default());
        let exec = r.profile.unwrap();
        // Synthetic SDC hits: pretend every duplicable instruction caused
        // one SDC per 100 executions.
        let mut hits = std::collections::HashMap::new();
        for (fi, f) in m.functions.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for &iid in &f.live_insts() {
                if is_duplicable(&f.inst(iid).kind) {
                    hits.insert((fid, iid), exec.count(fid, iid) / 2 + 1);
                }
            }
        }
        build_profile(m, &exec, &hits, 1000)
    }

    #[test]
    fn full_plan_selects_all_duplicable() {
        let m = test_module();
        let plan = ProtectionPlan::full(&m);
        let expected: usize = m.functions[0]
            .live_insts()
            .iter()
            .filter(|&&i| is_duplicable(&m.functions[0].inst(i).kind))
            .count();
        assert_eq!(plan.per_func[0].len(), expected);
        assert!(expected > 5);
    }

    #[test]
    fn level_one_equals_full() {
        let m = test_module();
        let prof = profile_for(&m);
        let plan = choose_protection(&m, &prof, 1.0);
        let full = ProtectionPlan::full(&m);
        assert_eq!(plan.per_func[0], full.per_func[0]);
    }

    #[test]
    fn levels_are_monotonic_in_cost() {
        let m = test_module();
        let prof = profile_for(&m);
        let cost = |plan: &ProtectionPlan| -> u64 {
            prof.entries
                .iter()
                .filter(|e| plan.contains(e.func, e.inst))
                .map(|e| e.exec_count.max(1))
                .sum()
        };
        let p30 = choose_protection(&m, &prof, 0.3);
        let p50 = choose_protection(&m, &prof, 0.5);
        let p70 = choose_protection(&m, &prof, 0.7);
        let (c30, c50, c70) = (cost(&p30), cost(&p50), cost(&p70));
        assert!(c30 <= c50 && c50 <= c70, "{c30} {c50} {c70}");
        assert!(p30.selected_count() > 0);
        let total: u64 = prof.entries.iter().map(|e| e.exec_count.max(1)).sum();
        assert!(c30 as f64 <= 0.3 * total as f64 + 1.0);
    }

    #[test]
    fn zero_level_selects_nothing() {
        let m = test_module();
        let prof = profile_for(&m);
        assert_eq!(choose_protection(&m, &prof, 0.0).selected_count(), 0);
    }

    #[test]
    fn selection_is_deterministic() {
        let m = test_module();
        let prof = profile_for(&m);
        let a = choose_protection(&m, &prof, 0.5);
        let b = choose_protection(&m, &prof, 0.5);
        assert_eq!(a.per_func, b.per_func);
    }

    #[test]
    fn high_benefit_instructions_chosen_first() {
        let m = test_module();
        // One instruction carries ALL the SDC mass.
        let interp = flowery_ir::interp::Interpreter::new(&m);
        let r = interp.profile_run(&flowery_ir::interp::ExecConfig::default());
        let exec = r.profile.unwrap();
        let star = m.functions[0]
            .live_insts()
            .into_iter()
            .find(|&i| is_duplicable(&m.functions[0].inst(i).kind))
            .unwrap();
        let mut hits = std::collections::HashMap::new();
        hits.insert((FuncId(0), star), 500u64);
        let prof = build_profile(&m, &exec, &hits, 1000);
        let plan = choose_protection(&m, &prof, 0.2);
        assert!(plan.contains(FuncId(0), star), "the SDC-heavy instruction must be selected");
    }
}
