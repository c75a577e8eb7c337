//! Sink and guard definitions for the lint query of the bit engine
//! ([`super::bits`]).
//!
//! A *sink* is an architectural escape point: once a corruptible value
//! reaches one without an intervening validation compare, the fault can
//! become a silent data corruption. A *guard* is a compare whose mismatch
//! arm transfers to a detector (`ud2.detect`) — the machine-code shape of a
//! duplication checker, a Flowery patch check, or an assembly-hardening
//! read-back verification.

use flowery_backend::mir::{AKind, AsmRole};
use flowery_backend::AsmProgram;
use flowery_ir::IrRole;
use serde::{Deserialize, Serialize};

/// The architectural sink a corrupted value escaped through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sink {
    /// A deviated operand reaches an output port (`out.*`).
    Output,
    /// Deviated flags steer an unguarded conditional branch.
    Branch,
    /// A deviated argument register flows into a call.
    CallArg,
    /// A deviated return value (rax/xmm0) leaves the function.
    RetVal,
    /// Corrupted non-frame memory (global/heap image) outlives the
    /// function or is visible to a callee.
    MemEscape,
    /// The fault corrupts the control image itself: the stack or frame
    /// pointer, a pushed return address or saved frame pointer.
    ControlImage,
}

impl Sink {
    /// Every sink, in the order the lint reports one when a single step
    /// reaches several (escaping memory before the call argument or return
    /// value that goes with it).
    pub const ALL: [Sink; 6] = [
        Sink::ControlImage,
        Sink::MemEscape,
        Sink::CallArg,
        Sink::RetVal,
        Sink::Output,
        Sink::Branch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Sink::Output => "output",
            Sink::Branch => "branch-flags",
            Sink::CallArg => "call-arg",
            Sink::RetVal => "ret-val",
            Sink::MemEscape => "mem-escape",
            Sink::ControlImage => "control-image",
        }
    }
}

/// Precomputed guard classification for every instruction of a program.
#[derive(Debug, Clone)]
pub struct Guards {
    /// `cmp`/`test`/`ucomi` whose flag consumer branches to a detector:
    /// the validation compares of checkers, Flowery patches, and hardening.
    guarded_compare: Vec<bool>,
    /// `jcc` with one arm leading straight to a detector (the consumer of a
    /// guarded compare). Corrupted flags here either fire the detector or
    /// fall onto the clean arm — never a silent wrong direction.
    detect_jcc: Vec<bool>,
    /// Application `jcc` whose *every* successor enters a Flowery
    /// branch-check trampoline (patch code revalidating the direction
    /// against the recorded expectation).
    guarded_branch: Vec<bool>,
}

impl Guards {
    pub fn compute(prog: &AsmProgram) -> Guards {
        let n = prog.insts.len();
        let mut guarded_compare = vec![false; n];
        let mut detect_jcc = vec![false; n];
        let mut guarded_branch = vec![false; n];
        for i in 0..n {
            let inst = &prog.insts[i];
            if let AKind::Jcc { target, .. } = inst.kind {
                if leads_to_detect(prog, target) || leads_to_detect(prog, i as u32 + 1) {
                    detect_jcc[i] = true;
                }
            }
            if inst.kind.is_compare()
                && (matches!(inst.ir_role, IrRole::Checker | IrRole::Patch) || inst.role == AsmRole::Harden)
                && i + 1 < n
                && detect_jcc_at(prog, i + 1)
            {
                guarded_compare[i] = true;
            }
        }
        for i in 0..n {
            if let AKind::Jcc { target, .. } = prog.insts[i].kind {
                if !detect_jcc[i]
                    && trampoline_guarded(prog, &guarded_compare, target)
                    && trampoline_guarded(prog, &guarded_compare, i as u32 + 1)
                {
                    guarded_branch[i] = true;
                }
            }
        }
        Guards { guarded_compare, detect_jcc, guarded_branch }
    }

    /// Is instruction `idx` a validation compare backed by a detector?
    pub fn compare_is_guarded(&self, idx: u32) -> bool {
        self.guarded_compare.get(idx as usize).copied().unwrap_or(false)
    }

    /// Is `idx` a `jcc` with a detector arm (a guard's own branch)?
    pub fn jcc_has_detect_arm(&self, idx: u32) -> bool {
        self.detect_jcc.get(idx as usize).copied().unwrap_or(false)
    }

    /// Is `idx` an application branch whose direction is revalidated by
    /// Flowery trampolines on every outgoing edge?
    pub fn branch_is_guarded(&self, idx: u32) -> bool {
        self.guarded_branch.get(idx as usize).copied().unwrap_or(false)
    }
}

fn detect_jcc_at(prog: &AsmProgram, i: usize) -> bool {
    match prog.insts[i].kind {
        AKind::Jcc { target, .. } => leads_to_detect(prog, target) || leads_to_detect(prog, i as u32 + 1),
        _ => false,
    }
}

/// Following unconditional jumps only, is the first real instruction from
/// `idx` a detector trap? (Linker sentinels / out-of-range targets: no.)
fn leads_to_detect(prog: &AsmProgram, mut idx: u32) -> bool {
    for _ in 0..8 {
        let Some(inst) = prog.insts.get(idx as usize) else {
            return false;
        };
        match inst.kind {
            AKind::Jmp { target } => idx = target,
            AKind::DetectTrap => return true,
            _ => return false,
        }
    }
    false
}

/// Following jumps, does `idx` enter a run of Patch-role instructions that
/// contains a guarded compare within a few steps (a branch-check
/// trampoline)?
fn trampoline_guarded(prog: &AsmProgram, guarded_compare: &[bool], mut idx: u32) -> bool {
    for _ in 0..8 {
        let Some(inst) = prog.insts.get(idx as usize) else {
            return false;
        };
        match inst.kind {
            AKind::Jmp { target } => idx = target,
            _ if inst.ir_role == IrRole::Patch => {
                if guarded_compare[idx as usize] {
                    return true;
                }
                idx += 1;
            }
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_backend::{compile_module, BackendConfig};
    use flowery_passes::{duplicate_module, DupConfig, ProtectionPlan};

    #[test]
    fn guards_exist_only_in_protected_code() {
        let src = "int main() { int a = 2; int b = a * 3 + 1; output(b); return b; }";
        let raw = flowery_lang::compile("t", src).unwrap();
        let raw_prog = compile_module(&raw, &BackendConfig::default());
        let raw_guards = Guards::compute(&raw_prog);
        assert!(
            (0..raw_prog.insts.len() as u32).all(|i| !raw_guards.compare_is_guarded(i)),
            "no validation compares without protection"
        );

        let mut m = raw.clone();
        let plan = ProtectionPlan::full(&m);
        duplicate_module(&mut m, &plan, &DupConfig::default());
        let prog = compile_module(&m, &BackendConfig::default());
        let guards = Guards::compute(&prog);
        let guarded: Vec<u32> = (0..prog.insts.len() as u32).filter(|&i| guards.compare_is_guarded(i)).collect();
        assert!(!guarded.is_empty(), "duplication checkers must be recognized");
        for &i in &guarded {
            assert!(prog.insts[i as usize].kind.is_compare());
            assert!(guards.jcc_has_detect_arm(i + 1), "a guarded compare is consumed by a detector-armed jcc");
        }
    }
}
