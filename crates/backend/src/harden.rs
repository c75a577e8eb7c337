//! Assembly-level hardening — the implementation option the paper sketches
//! but does not build (§8 *Other Implementation Options*: "it is also
//! possible to implement the patches at assembly level. We do not choose
//! this way since one rarely has a convenient backend compiler to do so").
//! This repository *has* the backend, so the remaining penetration classes
//! that are unfixable at IR level (call and mapping penetration, plus the
//! residual store-write corruption) get read-back verification here:
//!
//! - **argument moves** (call penetration): after `mov rdi, [slot]`,
//!   insert `cmp rdi, [slot]` + `jne detect` — a fault in the argument
//!   register is caught before the call;
//! - **parameter spills / return moves**: same read-back on the callee and
//!   return paths;
//! - **store writes** (residual store penetration): after `mov [p], v`,
//!   insert `cmp v, [p]` + `jne detect` — corruption of the stored value
//!   (or the value register) is caught immediately;
//! - **frame saves** (mapping penetration): after `push rbp`, insert
//!   `cmp rbp, [rsp]` + `jne detect`.
//!
//! Each check is a flags-safe insertion point (no live flags cross these
//! movs in code produced by this backend) and jumps to a per-program
//! detector island on mismatch.

use crate::mir::{AInst, AKind, AOp, AsmFunc, AsmProgram, AsmRole, MemRef, Reg, CC};
use serde::{Deserialize, Serialize};

/// Which read-back verifications to insert.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HardenConfig {
    /// Verify calling-convention argument moves (call penetration).
    pub verify_args: bool,
    /// Verify callee parameter spills.
    pub verify_param_spills: bool,
    /// Verify return-value moves.
    pub verify_ret_moves: bool,
    /// Verify application store writes (residual store penetration).
    pub verify_stores: bool,
    /// Verify the prologue's frame-pointer save (mapping penetration).
    pub verify_frame_saves: bool,
}

impl Default for HardenConfig {
    fn default() -> HardenConfig {
        HardenConfig {
            verify_args: true,
            verify_param_spills: true,
            verify_ret_moves: true,
            verify_stores: true,
            verify_frame_saves: true,
        }
    }
}

/// Statistics from a hardening run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardenStats {
    pub arg_checks: usize,
    pub spill_checks: usize,
    pub ret_checks: usize,
    pub store_checks: usize,
    pub frame_checks: usize,
}

impl HardenStats {
    pub fn total(&self) -> usize {
        self.arg_checks + self.spill_checks + self.ret_checks + self.store_checks + self.frame_checks
    }
}

/// The verification pair to append after instruction `inst`, if any.
fn check_for(inst: &AInst, cfg: &HardenConfig, stats: &mut HardenStats) -> Option<(AKind, u8)> {
    match (&inst.kind, inst.role) {
        // Argument move: `mov argreg, src` — re-compare against the source.
        (AKind::Mov { w, dst: AOp::Reg(r), src }, AsmRole::ArgMove) if cfg.verify_args => {
            stats.arg_checks += 1;
            Some((AKind::Cmp { w: *w, lhs: AOp::Reg(*r), rhs: *src }, *w))
        }
        (AKind::MovSd { dst: AOp::Reg(r), src }, AsmRole::ArgMove) if cfg.verify_args => {
            // Float read-back via ucomi. Equal bit patterns compare
            // equal; a corrupted value compares not-equal, below, or
            // unordered — the `jne` + `jb` pair after the check covers all
            // three (unordered sets CF).
            stats.arg_checks += 1;
            Some((AKind::Ucomi { lhs: *r, rhs: *src }, 8))
        }
        // Callee parameter spill / return move / store write: memory
        // destination — read it back against the source register.
        (AKind::Mov { w, dst: AOp::Mem(m), src: AOp::Reg(r) }, AsmRole::ParamSpill) if cfg.verify_param_spills => {
            stats.spill_checks += 1;
            Some((AKind::Cmp { w: *w, lhs: AOp::Reg(*r), rhs: AOp::Mem(*m) }, *w))
        }
        (AKind::Mov { w, dst: AOp::Mem(m), src: AOp::Reg(r) }, AsmRole::RetMove) if cfg.verify_ret_moves => {
            stats.ret_checks += 1;
            Some((AKind::Cmp { w: *w, lhs: AOp::Reg(*r), rhs: AOp::Mem(*m) }, *w))
        }
        (AKind::Mov { w, dst: AOp::Mem(m), src: AOp::Reg(r) }, AsmRole::Compute) if cfg.verify_stores => {
            stats.store_checks += 1;
            Some((AKind::Cmp { w: *w, lhs: AOp::Reg(*r), rhs: AOp::Mem(*m) }, *w))
        }
        (AKind::MovSd { dst: AOp::Mem(m), src: AOp::Reg(r) }, AsmRole::Compute) if cfg.verify_stores => {
            stats.store_checks += 1;
            Some((AKind::Ucomi { lhs: *r, rhs: AOp::Mem(*m) }, 8))
        }
        // Frame save: `push rbp` -> compare rbp with the just-pushed slot.
        (AKind::Push { src: AOp::Reg(Reg::Rbp) }, AsmRole::Prologue) if cfg.verify_frame_saves => {
            stats.frame_checks += 1;
            Some((
                AKind::Cmp {
                    w: 8,
                    lhs: AOp::Reg(Reg::Rbp),
                    rhs: AOp::Mem(MemRef { base: Some(Reg::Rsp), disp: 0 }),
                },
                8,
            ))
        }
        _ => None,
    }
}

/// Insert read-back verification into a linked program. Returns the
/// hardened program and statistics.
pub fn harden_program(prog: &AsmProgram, cfg: &HardenConfig) -> (AsmProgram, HardenStats) {
    let mut stats = HardenStats::default();
    // Plan: for each old instruction, how many instructions are emitted
    // (1, or 3 with a check pair).
    let checks: Vec<Option<(AKind, u8)>> = prog.insts.iter().map(|i| check_for(i, cfg, &mut stats)).collect();

    // Old index -> new index.
    let mut new_index = Vec::with_capacity(prog.insts.len() + 1);
    let mut acc = 0u32;
    for c in &checks {
        new_index.push(acc);
        acc += if c.is_some() { 4 } else { 1 };
    }
    let detect_index = acc; // the detector island at the end

    let mut insts: Vec<AInst> = Vec::with_capacity(acc as usize + 1);
    for (i, inst) in prog.insts.iter().enumerate() {
        let mut patched = *inst;
        // Retarget control flow through the mapping.
        match &mut patched.kind {
            AKind::Jcc { target, .. } | AKind::Jmp { target } if (*target as usize) < new_index.len() => {
                *target = new_index[*target as usize];
            }
            AKind::Call { target, .. } => {
                *target = new_index[*target as usize];
            }
            _ => {}
        }
        insts.push(patched);
        if let Some((check, _w)) = checks[i] {
            for kind in [
                check,
                // `jne` catches value mismatches; `jb` catches CF=1 cases
                // (unordered float read-backs). Redundant but harmless for
                // integer checks, where a mismatch always clears ZF.
                AKind::Jcc { cc: CC::Ne, target: detect_index },
                AKind::Jcc { cc: CC::B, target: detect_index },
            ] {
                insts.push(AInst {
                    kind,
                    role: AsmRole::Harden,
                    prov: inst.prov,
                    ir_role: inst.ir_role,
                });
            }
        }
    }
    debug_assert_eq!(insts.len() as u32, detect_index);
    insts.push(AInst {
        kind: AKind::DetectTrap,
        role: AsmRole::Harden,
        prov: None,
        ir_role: flowery_ir::IrRole::Patch,
    });

    let funcs: Vec<AsmFunc> = prog
        .funcs
        .iter()
        .map(|f| AsmFunc {
            name: f.name.clone(),
            ir_id: f.ir_id,
            entry: new_index[f.entry as usize],
            end: if (f.end as usize) < new_index.len() {
                new_index[f.end as usize]
            } else {
                detect_index
            },
            frame_size: f.frame_size,
        })
        .collect();

    let main_entry = new_index[prog.main_entry as usize];
    let static_sites = insts.iter().filter(|i| i.kind.is_fault_site()).count();
    (AsmProgram { insts, funcs, main_entry, static_sites }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::{compile_module, BackendConfig};
    use crate::machine::{AsmFaultSpec, Machine};
    use flowery_ir::interp::{ExecConfig, ExecStatus};

    fn compiled(src: &str) -> (flowery_ir::Module, AsmProgram) {
        let m = flowery_lang::compile("h", src).unwrap();
        let prog = compile_module(&m, &BackendConfig::default());
        (m, prog)
    }

    const CALL_SRC: &str = "int add(int a, int b) { return a + b; }\n\
                            int main() { int r = add(20, 22); output(r); return r; }";

    #[test]
    fn hardening_preserves_golden_behaviour() {
        let (m, prog) = compiled(CALL_SRC);
        let golden = Machine::new(&m, &prog).run(&ExecConfig::default(), None);
        let (hard, stats) = harden_program(&prog, &HardenConfig::default());
        assert!(stats.total() > 0);
        assert!(stats.arg_checks > 0);
        assert!(stats.frame_checks > 0);
        let r = Machine::new(&m, &hard).run(&ExecConfig::default(), None);
        assert_eq!(r.status, golden.status);
        assert_eq!(r.output, golden.output);
        assert!(r.dyn_insts > golden.dyn_insts);
    }

    #[test]
    fn arg_register_faults_are_detected() {
        let (m, prog) = compiled(CALL_SRC);
        let (hard, _) = harden_program(&prog, &HardenConfig::default());
        let mach = Machine::new(&m, &hard);
        let golden = mach.run(&ExecConfig::default(), None);
        let exec = ExecConfig::with_budget_for(golden.dyn_insts);
        // Sweep every site; count SDCs attributable to ArgMove faults on
        // the hardened program: the read-back must convert them into
        // detections.
        let mut arg_sdc = 0;
        let mut arg_detected = 0;
        let mut site = 0u64;
        // Map site index to instruction by re-running with each site.
        while site < golden.fault_sites {
            let r = mach.run(&exec, Some(AsmFaultSpec::single(site, 5)));
            if let Some(idx) = r.injected_inst {
                if hard.insts[idx as usize].role == AsmRole::ArgMove {
                    match r.status {
                        ExecStatus::Detected => arg_detected += 1,
                        ExecStatus::Completed(_) if r.output != golden.output => arg_sdc += 1,
                        _ => {}
                    }
                }
            }
            site += 1;
        }
        assert!(arg_detected > 0, "hardened arg moves must detect faults");
        assert_eq!(arg_sdc, 0, "no arg-move fault may escape as SDC");
    }

    #[test]
    fn store_writes_are_verified() {
        let src = "global int g[2];\n\
                   int main() { g[0] = 41; g[1] = g[0] + 1; output(g[1]); return g[1]; }";
        let (m, prog) = compiled(src);
        let (hard, stats) = harden_program(&prog, &HardenConfig::default());
        assert!(stats.store_checks > 0);
        let mach = Machine::new(&m, &hard);
        let golden = mach.run(&ExecConfig::default(), None);
        let exec = ExecConfig::with_budget_for(golden.dyn_insts);
        let mut escaped = 0;
        for site in 0..golden.fault_sites {
            let r = mach.run(&exec, Some(AsmFaultSpec::single(site, 3)));
            if let Some(idx) = r.injected_inst {
                let inst = &hard.insts[idx as usize];
                let is_store_write =
                    inst.role == AsmRole::Compute && matches!(inst.kind, AKind::Mov { dst: AOp::Mem(_), .. });
                if is_store_write {
                    if let ExecStatus::Completed(_) = r.status {
                        if r.output != golden.output {
                            escaped += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(escaped, 0, "store-write corruption must be caught by read-back");
    }

    #[test]
    fn selective_config_respected() {
        let (_, prog) = compiled(CALL_SRC);
        let none = HardenConfig {
            verify_args: false,
            verify_param_spills: false,
            verify_ret_moves: false,
            verify_stores: false,
            verify_frame_saves: false,
        };
        let (hard, stats) = harden_program(&prog, &none);
        assert_eq!(stats.total(), 0);
        // Only the detector island was appended.
        assert_eq!(hard.insts.len(), prog.insts.len() + 1);
        let only_args = HardenConfig { verify_args: true, ..none };
        let (_, s2) = harden_program(&prog, &only_args);
        assert!(s2.arg_checks > 0);
        assert_eq!(s2.store_checks, 0);
    }

    #[test]
    fn control_flow_survives_retargeting() {
        // A branchy, recursive program stresses jump/call retargeting.
        let src = "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
                   int main() { int r = fib(9); output(r); return r; }";
        let (m, prog) = compiled(src);
        let golden = Machine::new(&m, &prog).run(&ExecConfig::default(), None);
        let (hard, _) = harden_program(&prog, &HardenConfig::default());
        let r = Machine::new(&m, &hard).run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Completed(34));
        assert_eq!(r.status, golden.status);
        assert_eq!(r.output, golden.output);
    }
}
