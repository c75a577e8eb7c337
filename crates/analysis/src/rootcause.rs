//! Penetration root-cause classification (paper §5.2).
//!
//! Given the assembly instructions on which SDC-causing faults landed,
//! attribute each case to one of the paper's five penetration categories
//! using the provenance and micro-role metadata the backend attaches to
//! every machine instruction:
//!
//! | category   | signature |
//! |------------|-----------|
//! | store      | reload `mov` feeding a store / the store's own memory write / output-escape feeds |
//! | branch     | `test`/flag re-establishment for an unfused branch, or the condition reload |
//! | comparison | any site whose IR provenance is an application compare (protection folded away) |
//! | call       | argument moves, parameter spills, return-value moves, the call's return-address push |
//! | mapping    | prologue/epilogue code and `alloca` address materialization (no IR counterpart) |
//!
//! Sites that do not match any signature are either `Unprotected`
//! (application compute that simply was not selected for duplication —
//! partial-protection escapes, not cross-layer deficiencies) or `Other`.

use flowery_backend::mir::{AInst, AsmRole};
use flowery_backend::AsmProgram;
use flowery_ir::inst::InstKind;
use flowery_ir::module::Module;
use flowery_ir::IrRole;
use serde::{Deserialize, Serialize};

/// The paper's five penetration categories, plus two bookkeeping classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Penetration {
    Store,
    Branch,
    Comparison,
    Call,
    Mapping,
    /// Application compute not selected for protection (partial levels).
    Unprotected,
    /// Faults inside the protection machinery itself, or unclassified.
    Other,
}

impl Penetration {
    pub fn name(self) -> &'static str {
        match self {
            Penetration::Store => "store",
            Penetration::Branch => "branch",
            Penetration::Comparison => "comparison",
            Penetration::Call => "call",
            Penetration::Mapping => "mapping",
            Penetration::Unprotected => "unprotected",
            Penetration::Other => "other",
        }
    }

    /// The five real categories, in the paper's Figure 3 order.
    pub const CATEGORIES: [Penetration; 5] = [
        Penetration::Store,
        Penetration::Branch,
        Penetration::Comparison,
        Penetration::Call,
        Penetration::Mapping,
    ];
}

/// Reusable classifier for one protected module.
///
/// Precomputes which application instructions *lost their shadow* to the
/// backend's compare folding (the shadow compare and its private operand
/// chain are dead-code-eliminated once the checker folds — Figure 9), so
/// SDCs anywhere in those chains attribute to comparison penetration.
pub struct Classifier<'m> {
    m: &'m Module,
    folded_shadowless: std::collections::HashSet<(flowery_ir::FuncId, flowery_ir::InstId)>,
    live_shadowed: std::collections::HashSet<(flowery_ir::FuncId, flowery_ir::InstId)>,
}

impl<'m> Classifier<'m> {
    /// Build from the protected (duplicated) module. `fold_enabled` must
    /// match the backend configuration the program was compiled with: it
    /// decides whether shadow compares were folded away.
    pub fn new(m: &'m Module, fold_enabled: bool) -> Classifier<'m> {
        let shadows_of = |module: &Module| -> std::collections::HashSet<(flowery_ir::FuncId, flowery_ir::InstId)> {
            let mut set = std::collections::HashSet::new();
            for (fi, f) in module.functions.iter().enumerate() {
                for &iid in &f.live_insts() {
                    let d = f.inst(iid);
                    if d.role == IrRole::Shadow {
                        if let Some(orig) = d.dup_of {
                            set.insert((flowery_ir::FuncId(fi as u32), orig));
                        }
                    }
                }
            }
            set
        };
        let before = shadows_of(m);
        let after = if fold_enabled {
            let mut folded = m.clone();
            flowery_backend::fold::fold_redundant_compares(&mut folded);
            shadows_of(&folded)
        } else {
            before.clone()
        };
        let folded_shadowless = before.difference(&after).copied().collect();
        Classifier { m, folded_shadowless, live_shadowed: after }
    }

    /// Classify one SDC-causing machine instruction.
    pub fn classify(&self, inst: &AInst) -> Penetration {
        let base = classify_site(self.m, inst);
        if matches!(base, Penetration::Unprotected | Penetration::Other) {
            if let Some(prov) = inst.prov {
                if self.folded_shadowless.contains(&prov) {
                    // The chain was duplicated but folding removed its
                    // shadow: a comparison penetration (paper Figure 9).
                    return Penetration::Comparison;
                }
            }
            // Spill-slot corruption of a live-shadowed (i.e. protected)
            // value escapes the checker through the stack home — the
            // register-spilling mechanism of store penetration.
            if inst.role == AsmRole::ResultSpill
                && inst.ir_role == IrRole::App
                && inst.prov.is_some_and(|p| self.live_shadowed.contains(&p))
            {
                return Penetration::Store;
            }
        }
        base
    }
}

/// Classify one SDC-causing machine instruction (context-free rules only;
/// prefer [`Classifier`] which also attributes folded-away chains).
pub fn classify_site(m: &Module, inst: &AInst) -> Penetration {
    // Faults inside shadow/checker/patch code that still caused SDCs are
    // protection-internal oddities.
    if matches!(inst.ir_role, IrRole::Shadow | IrRole::Checker | IrRole::Patch) {
        return Penetration::Other;
    }
    let prov_kind = inst.prov.map(|(fid, iid)| &m.functions[fid.index()].inst(iid).kind);

    match inst.role {
        AsmRole::Prologue | AsmRole::Epilogue => Penetration::Mapping,
        AsmRole::ParamSpill | AsmRole::ArgMove | AsmRole::RetMove => Penetration::Call,
        AsmRole::FlagSet => Penetration::Branch,
        AsmRole::OperandReload => match prov_kind {
            Some(InstKind::Store { .. }) => Penetration::Store,
            // Output-escape feeds behave like store feeds.
            Some(InstKind::Call { .. }) => Penetration::Store,
            // Condition reload for an unfused branch (terminators carry no
            // provenance).
            None => Penetration::Branch,
            _ => Penetration::Unprotected,
        },
        AsmRole::Compute => match prov_kind {
            // The store's own memory write: corrupted after the checker
            // has passed.
            Some(InstKind::Store { .. }) => Penetration::Store,
            Some(InstKind::Call { .. }) => Penetration::Call,
            _ => Penetration::Unprotected,
        },
        AsmRole::AddrCompute => match prov_kind {
            Some(InstKind::Alloca { .. }) => Penetration::Mapping,
            _ => Penetration::Unprotected,
        },
        // Spills and compare materializations are resolved by
        // [`Classifier::classify`], which knows whether the protecting
        // shadow survived backend folding.
        AsmRole::ResultSpill | AsmRole::FlagMaterialize => Penetration::Unprotected,
        _ => Penetration::Other,
    }
}

/// Aggregated penetration distribution (the paper's Figure 3).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PenetrationBreakdown {
    pub store: u64,
    pub branch: u64,
    pub comparison: u64,
    pub call: u64,
    pub mapping: u64,
    pub unprotected: u64,
    pub other: u64,
}

impl PenetrationBreakdown {
    pub fn record(&mut self, p: Penetration) {
        match p {
            Penetration::Store => self.store += 1,
            Penetration::Branch => self.branch += 1,
            Penetration::Comparison => self.comparison += 1,
            Penetration::Call => self.call += 1,
            Penetration::Mapping => self.mapping += 1,
            Penetration::Unprotected => self.unprotected += 1,
            Penetration::Other => self.other += 1,
        }
    }

    pub fn get(&self, p: Penetration) -> u64 {
        match p {
            Penetration::Store => self.store,
            Penetration::Branch => self.branch,
            Penetration::Comparison => self.comparison,
            Penetration::Call => self.call,
            Penetration::Mapping => self.mapping,
            Penetration::Unprotected => self.unprotected,
            Penetration::Other => self.other,
        }
    }

    /// Total *deficiency* cases (the five real categories only).
    pub fn deficiency_total(&self) -> u64 {
        Penetration::CATEGORIES.iter().map(|&p| self.get(p)).sum()
    }

    pub fn total(&self) -> u64 {
        self.deficiency_total() + self.unprotected + self.other
    }

    /// Percentage of deficiency cases in category `p` (Figure 3 numbers).
    pub fn percent(&self, p: Penetration) -> f64 {
        let t = self.deficiency_total();
        if t == 0 {
            0.0
        } else {
            self.get(p) as f64 * 100.0 / t as f64
        }
    }

    pub fn merge(&mut self, other: &PenetrationBreakdown) {
        self.store += other.store;
        self.branch += other.branch;
        self.comparison += other.comparison;
        self.call += other.call;
        self.mapping += other.mapping;
        self.unprotected += other.unprotected;
        self.other += other.other;
    }
}

/// Classify every SDC case of an assembly campaign.
pub fn classify_campaign(m: &Module, program: &AsmProgram, sdc_insts: &[u32]) -> PenetrationBreakdown {
    classify_campaign_with(m, program, sdc_insts, true)
}

/// [`classify_campaign`] with explicit knowledge of whether the backend's
/// compare folding was enabled when `program` was compiled.
pub fn classify_campaign_with(
    m: &Module,
    program: &AsmProgram,
    sdc_insts: &[u32],
    fold_enabled: bool,
) -> PenetrationBreakdown {
    let classifier = Classifier::new(m, fold_enabled);
    let mut out = PenetrationBreakdown::default();
    for &idx in sdc_insts {
        let inst = &program.insts[idx as usize];
        out.record(classifier.classify(inst));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_backend::{compile_module, BackendConfig};
    use flowery_inject::{AsmTrialRunner, BatchOutcome};
    use flowery_ir::interp::ExecConfig;
    use flowery_passes::{duplicate_module, DupConfig, ProtectionPlan};

    fn protected(src: &str) -> (Module, AsmProgram) {
        let mut m = flowery_lang::compile("t", src).unwrap();
        let plan = ProtectionPlan::full(&m);
        duplicate_module(&mut m, &plan, &DupConfig::default());
        let prog = compile_module(&m, &BackendConfig::default());
        (m, prog)
    }

    #[test]
    fn full_protection_sdcs_are_dominated_by_real_penetrations() {
        let (m, prog) = protected(
            "int main() { int s = 0; int i; for (i = 0; i < 30; i = i + 1) {\n\
               if (i % 3 == 0) { s = s + i * 2; } else { s = s - 1; }\n\
             } output(s); return s; }",
        );
        let mut runner = AsmTrialRunner::new(&m, &prog, &ExecConfig::default());
        let mut camp = BatchOutcome::default();
        for i in 0..1500 {
            camp.record(&runner.run_trial(0x0F10_EE41, i), None);
        }
        assert!(camp.counts.sdc > 0, "the cross-layer gap must produce SDCs: {:?}", camp.counts);
        let breakdown = classify_campaign(&m, &prog, &camp.sdc_insts);
        let defic = breakdown.deficiency_total();
        let total = breakdown.total();
        assert!(
            defic as f64 >= 0.7 * total as f64,
            "most full-protection SDCs must be classified penetrations: {breakdown:?}"
        );
        // Store + branch + comparison should dominate (paper: ~94%).
        let big3 = breakdown.store + breakdown.branch + breakdown.comparison;
        assert!(
            big3 as f64 >= 0.6 * defic as f64,
            "store/branch/comparison should dominate: {breakdown:?}"
        );
    }

    #[test]
    fn percentages_sum_to_100_over_deficiencies() {
        let mut b = PenetrationBreakdown::default();
        for p in [Penetration::Store, Penetration::Store, Penetration::Branch, Penetration::Call] {
            b.record(p);
        }
        b.record(Penetration::Unprotected);
        let sum: f64 = Penetration::CATEGORIES.iter().map(|&p| b.percent(p)).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(b.deficiency_total(), 4);
        assert_eq!(b.total(), 5);
        assert!((b.percent(Penetration::Store) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn store_penetration_identified_for_checker_split_stores() {
        use flowery_backend::mir::{AKind, AOp};
        // Find an OperandReload mov (mem -> reg) feeding a store in a
        // protected program and verify it classifies as Store penetration.
        let (m, prog) = protected("int main() { int a = 1; int b = a + 2; output(b); return b; }");
        let mut found = false;
        for inst in &prog.insts {
            if inst.role == AsmRole::OperandReload
                && matches!(inst.kind, AKind::Mov { src: AOp::Mem(_), dst: AOp::Reg(_), .. })
                && matches!(inst.prov.map(|(f, i)| &m.functions[f.index()].inst(i).kind), Some(InstKind::Store { .. }))
            {
                assert_eq!(classify_site(&m, inst), Penetration::Store);
                found = true;
            }
        }
        assert!(found, "protected program must contain store-feeding reloads");
    }

    #[test]
    fn prologue_classifies_as_mapping_and_args_as_call() {
        let (m, prog) = protected(
            "int f(int a, int b) { return a + b; }\n\
             int main() { return f(2, 3); }",
        );
        let mut saw_mapping = false;
        let mut saw_call = false;
        for inst in &prog.insts {
            match classify_site(&m, inst) {
                Penetration::Mapping if matches!(inst.role, AsmRole::Prologue | AsmRole::Epilogue) => {
                    saw_mapping = true
                }
                Penetration::Call if inst.role == AsmRole::ArgMove => saw_call = true,
                _ => {}
            }
        }
        assert!(saw_mapping);
        assert!(saw_call);
    }

    #[test]
    fn classify_site_covers_every_category() {
        use flowery_backend::mir::AInst;
        use flowery_ir::{FuncId, IrRole};
        let (m, prog) = protected(
            "int g(int x) { return x + 1; }\n\
             int main() { int a = g(2); output(a); return a; }",
        );
        let prov_of = |fi: usize, pred: fn(&InstKind) -> bool| {
            let f = &m.functions[fi];
            f.live_insts()
                .into_iter()
                .find(|&i| pred(&f.inst(i).kind))
                .map(|i| (FuncId(fi as u32), i))
        };
        let store = prov_of(1, |k| matches!(k, InstKind::Store { .. }));
        let call = prov_of(1, |k| matches!(k, InstKind::Call { .. }));
        let alloca = prov_of(1, |k| matches!(k, InstKind::Alloca { .. }));
        assert!(store.is_some() && call.is_some() && alloca.is_some());
        // classify_site keys on role/ir_role/provenance, never the opcode,
        // so one borrowed opcode covers every signature.
        let kind = prog.insts[0].kind;
        let site = |role, ir_role, prov| AInst { kind, role, ir_role, prov };
        let app = |role, prov| site(role, IrRole::App, prov);
        use Penetration::*;
        // The five real categories.
        assert_eq!(classify_site(&m, &app(AsmRole::OperandReload, store)), Store);
        assert_eq!(classify_site(&m, &app(AsmRole::Compute, store)), Store);
        assert_eq!(classify_site(&m, &app(AsmRole::OperandReload, call)), Store);
        assert_eq!(classify_site(&m, &app(AsmRole::FlagSet, None)), Branch);
        assert_eq!(classify_site(&m, &app(AsmRole::OperandReload, None)), Branch);
        assert_eq!(classify_site(&m, &app(AsmRole::ParamSpill, None)), Call);
        assert_eq!(classify_site(&m, &app(AsmRole::ArgMove, None)), Call);
        assert_eq!(classify_site(&m, &app(AsmRole::RetMove, None)), Call);
        assert_eq!(classify_site(&m, &app(AsmRole::Compute, call)), Call);
        assert_eq!(classify_site(&m, &app(AsmRole::Prologue, None)), Mapping);
        assert_eq!(classify_site(&m, &app(AsmRole::Epilogue, None)), Mapping);
        assert_eq!(classify_site(&m, &app(AsmRole::AddrCompute, alloca)), Mapping);
        // Bookkeeping classes.
        assert_eq!(classify_site(&m, &app(AsmRole::Compute, None)), Unprotected);
        assert_eq!(classify_site(&m, &app(AsmRole::AddrCompute, None)), Unprotected);
        assert_eq!(classify_site(&m, &app(AsmRole::ResultSpill, None)), Unprotected);
        assert_eq!(classify_site(&m, &app(AsmRole::FlagMaterialize, None)), Unprotected);
        assert_eq!(classify_site(&m, &site(AsmRole::Compute, IrRole::Shadow, None)), Other);
        assert_eq!(classify_site(&m, &site(AsmRole::Compute, IrRole::Checker, None)), Other);
        assert_eq!(classify_site(&m, &site(AsmRole::Compute, IrRole::Patch, None)), Other);
    }

    #[test]
    fn classifier_attributes_folded_chains_to_comparison() {
        let (m, prog) = protected(
            "int main() { int s = 0; int i; for (i = 0; i < 8; i = i + 1) {\n\
               if (i < 5) { s = s + 1; }\n\
             } output(s); return s; }",
        );
        // Default backend folds shadow compares, so the classifier must
        // upgrade their (now shadow-less) chains from unprotected/other to
        // comparison penetration.
        let c = Classifier::new(&m, true);
        let upgraded = prog
            .insts
            .iter()
            .filter(|i| {
                matches!(classify_site(&m, i), Penetration::Unprotected | Penetration::Other)
                    && c.classify(i) == Penetration::Comparison
            })
            .count();
        assert!(upgraded > 0, "compare folding must strip some shadows");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PenetrationBreakdown { store: 1, branch: 2, ..Default::default() };
        let b = PenetrationBreakdown { store: 3, comparison: 1, other: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.store, 4);
        assert_eq!(a.branch, 2);
        assert_eq!(a.comparison, 1);
        assert_eq!(a.other, 2);
    }
}
