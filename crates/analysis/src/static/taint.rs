//! Layer-1 forward taint dataflow over the hardened machine program.
//!
//! For every fault-injectable instruction (the *site*), the engine asks:
//! can a bit-flip in that instruction's architected destination reach an
//! architectural sink before a validation compare discharges it? The fault
//! model matches the injector exactly: the flip lands *after* the
//! instruction executes, within the destination's width, so a corrupted
//! value always differs from its golden counterpart.
//!
//! The walk is per-path (depth-first over `(instruction, taint-state)`
//! states) rather than a joined fixpoint: the checker kill rule — "exactly
//! one compare side definitely tainted ⇒ the detector fires" — is only
//! sound on unmerged path states, because a join could combine one path
//! that taints the compared value with another that taints something else
//! entirely. States revisiting through loops converge because taint only
//! changes monotonically along most paths and the visited set dedups exact
//! repeats; a per-site state budget bounds pathological cases (exhaustion
//! flags the site conservatively).

use super::sinks::{Guards, Sink, Taint};
use flowery_backend::mir::{AKind, AOp, FaultDest, Loc, Reg};
use flowery_backend::AsmProgram;
use flowery_ir::module::Module;
use flowery_ir::value::FuncId;
use std::collections::HashSet;

/// Verdict for one fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every corruption path either reaches a detector or dies before any
    /// sink: a fault here cannot silently corrupt the output.
    Protected,
    /// Some path reaches the given sink unchecked.
    Penetrates(Sink),
}

impl Verdict {
    pub fn is_flagged(self) -> bool {
        matches!(self, Verdict::Penetrates(_))
    }
}

/// Per-program taint analysis context. Fields are crate-visible so the
/// bit-lattice engine ([`super::bits`]) reuses the same ABI tables.
pub struct TaintEngine<'a> {
    pub(crate) prog: &'a AsmProgram,
    guards: Guards,
    /// Function table index per instruction (`usize::MAX` if none).
    pub(crate) func_of: Vec<usize>,
    /// Return-value register per function table entry, if it returns one.
    pub(crate) ret_reg: Vec<Option<Loc>>,
    /// Argument registers per IR function id (callee view).
    pub(crate) arg_regs: Vec<Vec<Loc>>,
    /// Per-site state budget before conservative flagging.
    max_states: usize,
}

impl<'a> TaintEngine<'a> {
    pub fn new(m: &Module, prog: &'a AsmProgram) -> TaintEngine<'a> {
        let mut func_of = vec![usize::MAX; prog.insts.len()];
        for (fi, f) in prog.funcs.iter().enumerate() {
            for i in f.entry..f.end {
                func_of[i as usize] = fi;
            }
        }
        let ret_reg = prog
            .funcs
            .iter()
            .map(|f| {
                m.functions[f.ir_id.index()].ret_ty.map(|ty| {
                    if ty.is_float() {
                        Loc::Reg(Reg::Xmm0)
                    } else {
                        Loc::Reg(Reg::Rax)
                    }
                })
            })
            .collect();
        let arg_regs = m
            .functions
            .iter()
            .map(|f| {
                let (mut ni, mut nf) = (0, 0);
                let mut regs = Vec::new();
                for ty in &f.params {
                    if ty.is_float() {
                        if nf < Reg::FLOAT_ARGS.len() {
                            regs.push(Loc::Reg(Reg::FLOAT_ARGS[nf]));
                        }
                        nf += 1;
                    } else {
                        if ni < Reg::INT_ARGS.len() {
                            regs.push(Loc::Reg(Reg::INT_ARGS[ni]));
                        }
                        ni += 1;
                    }
                }
                regs
            })
            .collect();
        TaintEngine {
            prog,
            guards: Guards::compute(prog),
            func_of,
            ret_reg,
            arg_regs,
            max_states: 50_000,
        }
    }

    /// The guard table (shared with callers that classify branches).
    pub fn guards(&self) -> &Guards {
        &self.guards
    }

    /// The initial taint a fault at `idx` induces, or an immediate verdict.
    fn initial_taint(&self, idx: u32) -> Result<Taint, Verdict> {
        let inst = &self.prog.insts[idx as usize];
        match inst.kind.fault_dest() {
            FaultDest::None => Err(Verdict::Protected),
            FaultDest::Gpr(r, _) => Ok(Taint::definite(Loc::Reg(r))),
            FaultDest::Flags => Ok(Taint::definite(Loc::Flags)),
            FaultDest::MemVal(_) => match inst.kind {
                AKind::Mov { dst: AOp::Mem(m), .. } | AKind::MovSd { dst: AOp::Mem(m), .. } => {
                    Ok(match m.loc() {
                        // A frame slot or absolute global cell keeps its
                        // identity: later reads of the same cell definitely
                        // see the corruption (globals additionally alias
                        // the summary weakly — see `step`).
                        l @ (Loc::Frame(_) | Loc::Global(_)) => Taint::definite(l),
                        // A pointer-addressed cell loses its identity in
                        // the summary: later summary reads may or may not
                        // hit it.
                        _ => Taint::weak(Loc::Mem),
                    })
                }
                // Corrupted return address / saved frame pointer: control
                // integrity cannot be re-validated by value checks.
                _ => Err(Verdict::Penetrates(Sink::ControlImage)),
            },
        }
    }

    /// Analyze one fault site: can a flip in this instruction's destination
    /// escape to a sink?
    pub fn analyze_site(&self, idx: u32) -> Verdict {
        let init = match self.initial_taint(idx) {
            Ok(t) => t,
            Err(v) => return v,
        };
        let fi = self.func_of[idx as usize];
        if fi == usize::MAX {
            return Verdict::Penetrates(Sink::Unbounded);
        }
        let (lo, hi) = (self.prog.funcs[fi].entry, self.prog.funcs[fi].end);

        let mut stack: Vec<(u32, Taint)> = Vec::new();
        for s in self.prog.insts[idx as usize].kind.successors(idx) {
            if s >= lo && s < hi {
                stack.push((s, init.clone()));
            }
        }
        let mut visited: HashSet<(u32, Taint)> = HashSet::new();
        let mut budget = self.max_states;
        while let Some((j, taint)) = stack.pop() {
            if !visited.insert((j, taint.clone())) {
                continue;
            }
            if budget == 0 {
                return Verdict::Penetrates(Sink::Unbounded);
            }
            budget -= 1;
            match self.step(j, &taint) {
                Step::Sink(s) => return Verdict::Penetrates(s),
                Step::End => {}
                Step::Continue(t) => {
                    for s in self.prog.insts[j as usize].kind.successors(j) {
                        if s >= lo && s < hi {
                            stack.push((s, t.clone()));
                        }
                    }
                }
            }
        }
        Verdict::Protected
    }

    /// Transfer function for one instruction under one path state.
    fn step(&self, j: u32, taint: &Taint) -> Step {
        let inst = &self.prog.insts[j as usize];
        let k = &inst.kind;

        // Validation compare: the mismatch arm reaches a detector. With
        // exactly one side tainted and that side *definitely* corrupted,
        // the detector fires — the path ends. With both sides tainted
        // (replica correlation: both reload from the same corrupted cell)
        // the check passes corrupted-equals-corrupted; with only weak taint
        // the value may be clean and sail through. Either way, any
        // continuing execution leaves the compare with clean flags.
        if self.guards.compare_is_guarded(j) {
            let (lhs, rhs) = k.compare_operands().expect("guarded compare has operands");
            let lt = taint.op_value_tainted(&lhs);
            let rt = taint.op_value_tainted(&rhs);
            let definite = (lt && taint.op_definitely_tainted(&lhs)) || (rt && taint.op_definitely_tainted(&rhs));
            if lt != rt && definite {
                return Step::End;
            }
            let mut t = taint.clone();
            t.remove(Loc::Flags);
            return Step::cont(t);
        }

        match *k {
            AKind::Jcc { .. } => {
                if taint.contains(Loc::Flags) {
                    // A detector-armed jcc (the guard's own branch) either
                    // fires or falls onto the clean arm; a trampoline-
                    // guarded application branch is revalidated on every
                    // edge. Anything else silently takes a wrong direction.
                    if self.guards.jcc_has_detect_arm(j) || self.guards.branch_is_guarded(j) {
                        let mut t = taint.clone();
                        t.remove(Loc::Flags);
                        return Step::cont(t);
                    }
                    return Step::Sink(Sink::Branch);
                }
                Step::cont(taint.clone())
            }
            AKind::Out { src, .. } => {
                if taint.op_value_tainted(&src) {
                    return Step::Sink(Sink::Output);
                }
                Step::cont(taint.clone())
            }
            AKind::Call { func, .. } => {
                if taint.memory_visible() {
                    return Step::Sink(Sink::MemEscape);
                }
                for &a in &self.arg_regs[func.index()] {
                    if taint.contains(a) {
                        return Step::Sink(Sink::CallArg);
                    }
                }
                // The callee ran on clean inputs; on return the
                // caller-saved state is callee-derived, hence clean.
                let mut t = taint.clone();
                for r in Reg::GPR_POOL {
                    t.remove(Loc::Reg(r));
                }
                for r in Reg::XMM_POOL {
                    t.remove(Loc::Reg(r));
                }
                t.remove(Loc::Flags);
                Step::cont(t)
            }
            AKind::Ret => {
                if taint.memory_visible() {
                    return Step::Sink(Sink::MemEscape);
                }
                let fi = self.func_of[j as usize];
                if let Some(rr) = self.ret_reg[fi] {
                    if taint.contains(rr) {
                        return Step::Sink(Sink::RetVal);
                    }
                }
                Step::End
            }
            _ => {
                // Ordinary dataflow: a definitely-tainted input propagates
                // definite taint, a weakly-tainted one weak taint; clean
                // input strongly kills precise destinations (the write
                // replaces the corrupted value). A memory-summary write
                // always degrades to weak: the cell's identity is lost.
                // Reads additionally pick up *weak* taint through the
                // Global↔Mem may-alias closure.
                let reads = k.reads();
                let def_in = reads.iter().any(|l| taint.def.contains(l));
                let weak_in = reads.iter().any(|l| taint.weak.contains(l) || taint.mem_aliases(*l));
                let mut t = taint.clone();
                for w in k.writes() {
                    if w.is_strong() {
                        t.def.remove(&w);
                        t.weak.remove(&w);
                        if def_in {
                            t.def.insert(w);
                        } else if weak_in {
                            t.weak.insert(w);
                        }
                    } else if def_in || weak_in {
                        t.weak.insert(Loc::Mem);
                    }
                }
                Step::cont(t)
            }
        }
    }
}

enum Step {
    /// Escaped through a sink.
    Sink(Sink),
    /// Path terminated (detected, or taint fully discharged).
    End,
    Continue(Taint),
}

impl Step {
    fn cont(t: Taint) -> Step {
        if t.is_empty() {
            Step::End
        } else {
            Step::Continue(t)
        }
    }
}

/// Convenience: which IR function id owns instruction `idx`?
pub fn prov_func(prog: &AsmProgram, idx: u32) -> Option<FuncId> {
    prog.func_of(idx).map(|f| f.ir_id)
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

    const SRC: &str = "int main() { int a = 3; int b = a * 7 + 1; output(b); return b; }";

    #[test]
    fn unprotected_compute_penetrates() {
        let (m, prog) = program(SRC, false);
        let engine = TaintEngine::new(&m, &prog);
        // Without checkers, a corrupted value on the chain to output()
        // must escape: nothing discharges the taint.
        let escaped = (0..prog.insts.len() as u32)
            .filter(|&i| !matches!(prog.insts[i as usize].kind.fault_dest(), FaultDest::None))
            .filter(|&i| engine.analyze_site(i).is_flagged())
            .count();
        assert!(escaped > 0, "raw program must have penetrating sites");
    }

    #[test]
    fn duplication_proves_sites_protected() {
        let (m, prog) = program(SRC, true);
        let engine = TaintEngine::new(&m, &prog);
        let (mut protected, mut sites) = (0, 0);
        for i in 0..prog.insts.len() as u32 {
            if matches!(prog.insts[i as usize].kind.fault_dest(), FaultDest::None) {
                continue;
            }
            sites += 1;
            if engine.analyze_site(i) == Verdict::Protected {
                protected += 1;
            }
        }
        assert!(
            protected > 0 && protected < sites,
            "duplication proves some but not all of {sites} sites ({protected} protected)"
        );
        // And strictly more than the raw program proves (the checkers are
        // what discharge the taint).
        let (mr, pr) = program(SRC, false);
        let raw_engine = TaintEngine::new(&mr, &pr);
        let raw_protected = (0..pr.insts.len() as u32)
            .filter(|&i| !matches!(pr.insts[i as usize].kind.fault_dest(), FaultDest::None))
            .filter(|&i| raw_engine.analyze_site(i) == Verdict::Protected)
            .count();
        assert!(protected > raw_protected, "checkers must prove more sites");
    }

    #[test]
    fn guarded_kill_requires_definite_taint() {
        // Weak (memory-summary) taint must survive a one-sided guarded
        // compare: the compared value may be clean even though the summary
        // is dirty, so the detector cannot be assumed to fire. This is the
        // engine-level distinction behind Taint::{def,weak}.
        let t = Taint::weak(Loc::Mem);
        assert!(!t.is_empty());
        assert!(t.contains(Loc::Mem));
        let mut d = Taint::definite(Loc::Reg(Reg::Rax));
        assert!(d.contains(Loc::Reg(Reg::Rax)));
        d.remove(Loc::Reg(Reg::Rax));
        assert!(d.is_empty());
    }

    #[test]
    fn control_image_faults_flag_immediately() {
        let (m, prog) =
            program("int g(int x) { return x + 1; } int main() { int a = g(4); output(a); return a; }", true);
        let engine = TaintEngine::new(&m, &prog);
        // Call return-address pushes corrupt the control image; the engine
        // must flag them without walking.
        let mut found = false;
        for i in 0..prog.insts.len() as u32 {
            if matches!(prog.insts[i as usize].kind, AKind::Call { .. }) {
                assert_eq!(engine.analyze_site(i), Verdict::Penetrates(Sink::ControlImage));
                found = true;
            }
        }
        assert!(found, "program calls output()");
    }
}
