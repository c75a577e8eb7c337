//! Static penetration prediction and cross-validation against injection
//! ground truth.
//!
//! [`predict_program`] runs the bit engine's lint query over every
//! injectable site of a hardened program and classifies each flagged site
//! with the same category signatures the dynamic root-cause classifier
//! uses, yielding a *predicted* [`PenetrationBreakdown`] without firing a
//! single fault. [`cross_validate`] then scores the predictions against
//! measured SDC sites from an injection campaign: per-category recall ("of
//! the sites the campaign proved vulnerable, how many did the lint
//! flag?"), a precision lower bound, and category agreement.
//!
//! Two deliberate category divergences from the dynamic classifier (both
//! documented in DESIGN.md §7): corruption of a data move's *memory image*
//! (the stored cell itself) is predicted `Unprotected` — it lies outside
//! instruction duplication's sphere of replication and no patch can guard
//! it — where the dynamic classifier folds it into `Store`; and an operand
//! reload feeding an output escape is predicted `Call` (the escape shape)
//! where the dynamic classifier groups it with store feeds.

use super::bits::{lint_sites, Verdict};
use super::sinks::Sink;
use crate::report::{pct, render_table};
use crate::rootcause::{Classifier, Penetration, PenetrationBreakdown};
use flowery_backend::mir::{AKind, AOp, AsmRole, FaultDest};
use flowery_backend::{AInst, AsmProgram};
use flowery_ir::inst::InstKind;
use flowery_ir::module::Module;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// One statically flagged site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SitePrediction {
    /// Instruction index in the linked program.
    pub idx: u32,
    /// The sink the corruption reached.
    pub sink: Sink,
    /// Predicted penetration category.
    pub category: Penetration,
}

/// Result of a static pass over one program.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StaticReport {
    /// Injectable sites examined (fault destination exists).
    pub sites: u64,
    /// Sites proven protected: every corruption path detects or dies.
    pub protected: u64,
    /// Sites with an unchecked path to a sink, in instruction order.
    pub flagged: Vec<SitePrediction>,
    /// Predicted category distribution over the flagged sites.
    pub breakdown: PenetrationBreakdown,
}

impl StaticReport {
    pub fn is_flagged(&self, idx: u32) -> bool {
        self.flagged.binary_search_by_key(&idx, |p| p.idx).is_ok()
    }
}

/// Run the lint query over every injectable site of `prog`.
///
/// `fold_enabled` must match the backend configuration `prog` was compiled
/// with (it decides which duplication chains lost their shadow to compare
/// folding, the comparison-penetration signature).
pub fn predict_program(m: &Module, prog: &AsmProgram, fold_enabled: bool) -> StaticReport {
    let classifier = Classifier::new(m, fold_enabled);
    let mut report = StaticReport::default();
    for (idx, verdict) in lint_sites(m, prog) {
        report.sites += 1;
        match verdict {
            Verdict::Protected => report.protected += 1,
            Verdict::Penetrates(sink) => {
                let category = predicted_category(m, &classifier, &prog.insts[idx as usize], sink);
                report.breakdown.record(category);
                report.flagged.push(SitePrediction { idx, sink, category });
            }
        }
    }
    report
}

/// Predicted category for a flagged site — the dynamic classifier's rules,
/// with the two documented divergences.
pub fn predicted_category(m: &Module, classifier: &Classifier<'_>, inst: &AInst, sink: Sink) -> Penetration {
    // Memory-image corruption: the fault lands in the cell a data move just
    // wrote. The value was validated *before* the write; no duplication-
    // style check can re-validate the image. Outside the sphere of
    // replication, so: unprotected (the dynamic classifier attributes these
    // to store penetration of the guarded store they serve).
    if matches!(inst.kind.fault_dest(), FaultDest::MemVal(_))
        && matches!(inst.kind, AKind::Mov { dst: AOp::Mem(_), .. } | AKind::MovSd { dst: AOp::Mem(_), .. })
    {
        return Penetration::Unprotected;
    }
    // Reload feeding an output escape: the corrupted value flows into the
    // out-port / call rather than a store's data. Predicted as the escape
    // shape (call) even though the dynamic classifier groups it with store
    // feeds.
    if inst.role == AsmRole::OperandReload {
        if let Some((fid, iid)) = inst.prov {
            if matches!(m.functions[fid.index()].inst(iid).kind, InstKind::Call { .. }) {
                return Penetration::Call;
            }
        }
    }
    let base = classifier.classify(inst);
    // A control-image corruption that the base rules leave unexplained is a
    // register-to-memory mapping artifact (saved rbp / return address).
    if sink == Sink::ControlImage && matches!(base, Penetration::Unprotected | Penetration::Other) {
        return Penetration::Mapping;
    }
    // A branch prediction is only honest when the escape actually steers a
    // branch. If the signature says "condition reload" but the deviation
    // escaped through data (the branch itself was guarded), reattribute by
    // sink: the corruption reaches the output through the data path.
    if base == Penetration::Branch && sink != Sink::Branch {
        return match sink {
            Sink::MemEscape => Penetration::Store,
            Sink::RetVal | Sink::CallArg | Sink::Output => Penetration::Call,
            Sink::ControlImage => Penetration::Mapping,
            _ => Penetration::Unprotected,
        };
    }
    base
}

/// Per-category agreement between static predictions and measured SDCs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CategoryRow {
    pub category: Penetration,
    /// Unique measured SDC sites the dynamic classifier puts here.
    pub measured: u64,
    /// Of those, how many the static pass flagged (any category).
    pub flagged: u64,
    /// Static predictions in this category (whole program).
    pub predicted: u64,
    /// Measured sites flagged *with the matching* predicted category.
    pub agree: u64,
}

impl CategoryRow {
    /// Site-level recall: measured sites flagged / measured sites.
    pub fn recall(&self) -> f64 {
        if self.measured == 0 {
            1.0
        } else {
            self.flagged as f64 / self.measured as f64
        }
    }
}

/// Cross-validation of a static report against injection ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Validation {
    pub rows: Vec<CategoryRow>,
    /// Unique measured SDC sites.
    pub measured_sites: u64,
    /// Of those, statically flagged.
    pub flagged_measured: u64,
    /// Total statically flagged sites.
    pub flagged_total: u64,
}

impl Validation {
    /// Overall site-level recall (soundness measure).
    pub fn overall_recall(&self) -> f64 {
        if self.measured_sites == 0 {
            1.0
        } else {
            self.flagged_measured as f64 / self.measured_sites as f64
        }
    }

    /// Precision *lower bound*: flagged sites the campaign confirmed /
    /// flagged sites. A lower bound because the campaign samples — an
    /// unconfirmed flag may be a false positive or an unsampled true one.
    pub fn precision_lb(&self) -> f64 {
        if self.flagged_total == 0 {
            1.0
        } else {
            self.flagged_measured as f64 / self.flagged_total as f64
        }
    }

    /// Recall for one dynamic category.
    pub fn recall_of(&self, p: Penetration) -> f64 {
        self.rows.iter().find(|r| r.category == p).map_or(1.0, |r| r.recall())
    }
}

/// All seven classification buckets, real categories first.
const ALL_CLASSES: [Penetration; 7] = [
    Penetration::Store,
    Penetration::Branch,
    Penetration::Comparison,
    Penetration::Call,
    Penetration::Mapping,
    Penetration::Unprotected,
    Penetration::Other,
];

/// Score `report`'s predictions against the unique SDC sites of an
/// injection campaign (`sdc_insts` may contain duplicates).
pub fn cross_validate(
    m: &Module,
    prog: &AsmProgram,
    report: &StaticReport,
    sdc_insts: &[u32],
    fold_enabled: bool,
) -> Validation {
    let classifier = Classifier::new(m, fold_enabled);
    let measured: BTreeSet<u32> = sdc_insts.iter().copied().collect();
    let predicted_cat: HashMap<u32, Penetration> = report.flagged.iter().map(|p| (p.idx, p.category)).collect();
    let mut rows: Vec<CategoryRow> = ALL_CLASSES
        .iter()
        .map(|&category| CategoryRow {
            category,
            measured: 0,
            flagged: 0,
            predicted: report.breakdown.get(category),
            agree: 0,
        })
        .collect();
    let mut flagged_measured = 0;
    for &idx in &measured {
        let dyn_cat = classifier.classify(&prog.insts[idx as usize]);
        let row = rows.iter_mut().find(|r| r.category == dyn_cat).unwrap();
        row.measured += 1;
        if let Some(&pcat) = predicted_cat.get(&idx) {
            row.flagged += 1;
            flagged_measured += 1;
            if pcat == dyn_cat {
                row.agree += 1;
            }
        }
    }
    Validation {
        rows,
        measured_sites: measured.len() as u64,
        flagged_measured,
        flagged_total: report.flagged.len() as u64,
    }
}

/// Render the cross-validation table.
pub fn render_validation(v: &Validation) -> String {
    let rows: Vec<Vec<String>> = v
        .rows
        .iter()
        .map(|r| {
            vec![
                r.category.name().to_string(),
                r.measured.to_string(),
                r.flagged.to_string(),
                if r.measured == 0 { "-".into() } else { pct(r.recall()) },
                r.predicted.to_string(),
                r.agree.to_string(),
            ]
        })
        .collect();
    let mut s = render_table(&["category", "measured", "flagged", "recall", "predicted", "agree"], &rows);
    s.push_str(&format!(
        "overall: {}/{} measured SDC sites statically flagged ({}); precision >= {} ({} flagged)\n",
        v.flagged_measured,
        v.measured_sites,
        pct(v.overall_recall()),
        pct(v.precision_lb()),
        v.flagged_total,
    ));
    s
}

/// Per-IR-instruction prior for vulnerability ranking: how many flagged
/// machine sites trace back (via provenance) to each IR instruction.
pub fn static_prior(
    prog: &AsmProgram,
    report: &StaticReport,
) -> HashMap<(flowery_ir::FuncId, flowery_ir::InstId), u64> {
    let mut prior = HashMap::new();
    for p in &report.flagged {
        if let Some(prov) = prog.insts[p.idx as usize].prov {
            *prior.entry(prov).or_insert(0) += 1;
        }
    }
    prior
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_backend::mir::Reg;
    use flowery_backend::{compile_module, BackendConfig};
    use flowery_passes::{duplicate_module, DupConfig, ProtectionPlan};

    fn report(src: &str, protect: bool) -> (AsmProgram, StaticReport) {
        let mut m = flowery_lang::compile("t", src).unwrap();
        if protect {
            let plan = ProtectionPlan::full(&m);
            duplicate_module(&mut m, &plan, &DupConfig::default());
        }
        let prog = compile_module(&m, &BackendConfig::default());
        let report = predict_program(&m, &prog, BackendConfig::default().fold_compares);
        (prog, report)
    }

    const SRC: &str = "int main() { int a = 3; int b = a * 7 + 1; output(b); return b; }";

    #[test]
    fn unprotected_compute_penetrates() {
        // Without checkers, a corrupted value on the chain to output()
        // must escape: nothing discharges it.
        let (_, r) = report(SRC, false);
        assert!(!r.flagged.is_empty(), "raw program must have penetrating sites");
    }

    #[test]
    fn duplication_proves_sites_protected() {
        let (_, r) = report(SRC, true);
        assert!(
            r.protected > 0 && r.protected < r.sites,
            "duplication proves some but not all of {} sites ({} protected)",
            r.sites,
            r.protected
        );
        // And strictly more than the raw program proves (the checkers are
        // what discharge the corruption).
        let (_, raw) = report(SRC, false);
        assert!(r.protected > raw.protected, "checkers must prove more sites");
    }

    #[test]
    fn control_image_faults_flag_immediately() {
        let (prog, r) =
            report("int g(int x) { return x + 1; } int main() { int a = g(4); output(a); return a; }", true);
        // Call return-address pushes and stack/frame-pointer writes corrupt
        // the control image; the lint flags them without walking.
        let mut found = false;
        for (i, inst) in prog.insts.iter().enumerate() {
            let control = matches!(inst.kind, AKind::Call { .. })
                || matches!(inst.kind.fault_dest(), FaultDest::Gpr(Reg::Rsp | Reg::Rbp, _));
            if control {
                let p = r
                    .flagged
                    .iter()
                    .find(|p| p.idx == i as u32)
                    .expect("control-image site flagged");
                assert_eq!(p.sink, Sink::ControlImage, "{:?}", inst.kind);
                found = true;
            }
        }
        assert!(found, "program calls g() and sets up frames");
    }
}
