//! Machine-simulator and interpreter edge cases: the simulators must be
//! total — every abnormal situation maps to a classified trap, never a
//! host panic.

use flowery_backend::{compile_module, AsmFaultSpec, BackendConfig, Machine};
use flowery_ir::interp::{ExecConfig, ExecStatus, Interpreter, TrapKind};

fn both(src: &str, cfg: &ExecConfig) -> (ExecStatus, ExecStatus) {
    let m = flowery_lang::compile("e", src).unwrap();
    let ir = Interpreter::new(&m).run(cfg, None);
    let prog = compile_module(&m, &BackendConfig::default());
    let asm = Machine::new(&m, &prog).run(cfg, None);
    (ir.status, asm.status)
}

#[test]
fn runaway_recursion_traps_at_both_layers() {
    let src = "int f(int n) { return f(n + 1); }\nint main() { return f(0); }";
    let (ir, asm) = both(src, &ExecConfig::default());
    assert!(matches!(ir, ExecStatus::Trapped(TrapKind::CallDepth | TrapKind::StackOverflow)), "{ir:?}");
    assert!(
        matches!(asm, ExecStatus::Trapped(TrapKind::StackOverflow | TrapKind::CallDepth)),
        "{asm:?}"
    );
}

#[test]
fn infinite_loop_hits_instruction_budget() {
    let src = "int main() { int x = 1; while (x > 0) { x = 1; } return x; }";
    let cfg = ExecConfig { max_dyn_insts: 10_000, ..Default::default() };
    let (ir, asm) = both(src, &cfg);
    assert_eq!(ir, ExecStatus::Trapped(TrapKind::InstLimit));
    assert_eq!(asm, ExecStatus::Trapped(TrapKind::InstLimit));
}

#[test]
fn output_flood_traps() {
    let src = "int main() { int i; for (i = 0; i < 100000; i = i + 1) { output(i); } return 0; }";
    let cfg = ExecConfig { max_output: 4096, ..Default::default() };
    let (ir, asm) = both(src, &cfg);
    assert_eq!(ir, ExecStatus::Trapped(TrapKind::OutputFlood));
    assert_eq!(asm, ExecStatus::Trapped(TrapKind::OutputFlood));
}

#[test]
fn wild_pointer_access_is_a_due() {
    // Out-of-bounds array index on purpose (the language does not bounds
    // check, exactly like C).
    let src = "global int g[2];\nint main() { return g[1000000]; }";
    let (ir, asm) = both(src, &ExecConfig::default());
    assert!(matches!(ir, ExecStatus::Trapped(TrapKind::OobLoad)), "{ir:?}");
    assert!(matches!(asm, ExecStatus::Trapped(TrapKind::OobLoad)), "{asm:?}");
}

#[test]
fn corrupted_return_address_is_contained() {
    // Inject into the call's pushed return address: every outcome must be
    // a classified status (frequently BadControl / weird-but-contained).
    let src = "int f(int x) { return x * 3; }\nint main() { int r = f(7); output(r); return r; }";
    let m = flowery_lang::compile("e", src).unwrap();
    let prog = compile_module(&m, &BackendConfig::default());
    let mach = Machine::new(&m, &prog);
    let golden = mach.run(&ExecConfig::default(), None);
    let exec = ExecConfig::with_budget_for(golden.dyn_insts);
    // Find the call instruction's dynamic site index by sweeping.
    let mut saw_call_injection = false;
    for site in 0..golden.fault_sites {
        for bit in [0u32, 8, 33, 63] {
            let r = mach.run(&exec, Some(AsmFaultSpec::single(site, bit)));
            if let Some(idx) = r.injected_inst {
                if matches!(prog.insts[idx as usize].kind, flowery_backend::AKind::Call { .. }) {
                    saw_call_injection = true;
                    // No panic happened (we are here); status is classified.
                }
            }
        }
    }
    assert!(saw_call_injection, "the sweep must hit the call's return-address push");
}

#[test]
fn every_bit_position_is_safe_on_every_site() {
    // Exhaustive site x selected-bits sweep on a small program, both layers.
    let src = "global float w[3] = {1.5, -2.5, 3.25};\n\
               int main() { float s = 0.0; int i; for (i = 0; i < 3; i = i + 1) { s = s + w[i] * w[i]; } output(s); return int(s); }";
    let m = flowery_lang::compile("e", src).unwrap();
    let interp = Interpreter::new(&m);
    let golden = interp.run(&ExecConfig::default(), None);
    let exec = ExecConfig::with_budget_for(golden.dyn_insts);
    for site in 0..golden.fault_sites {
        for bit in [0u32, 1, 31, 52, 63] {
            let _ = interp.run(&exec, Some(flowery_ir::interp::FaultSpec::single(site, bit)));
            let _ = interp.run(&exec, Some(flowery_ir::interp::FaultSpec::double(site, bit, 63 - bit)));
        }
    }
    let prog = compile_module(&m, &BackendConfig::default());
    let mach = Machine::new(&m, &prog);
    let g = mach.run(&ExecConfig::default(), None);
    for site in (0..g.fault_sites).step_by(2) {
        for bit in [0u32, 7, 31, 63] {
            let _ = mach.run(&exec, Some(AsmFaultSpec::single(site, bit)));
            let _ = mach.run(&exec, Some(AsmFaultSpec::double(site, bit, (bit + 11) % 64)));
        }
    }
}

#[test]
fn double_bit_faults_change_outcome_population() {
    use flowery_inject::{run_asm_campaign, CampaignConfig};
    let m = flowery_workloads::workload("is", flowery_workloads::Scale::Tiny).compile();
    let prog = compile_module(&m, &BackendConfig::default());
    let single = CampaignConfig::with_trials(500);
    let double = CampaignConfig {
        fault_model: flowery_inject::ModelSpec::DoubleBitReg,
        ..CampaignConfig::with_trials(500)
    };
    let rs = run_asm_campaign(&m, &prog, &single);
    let rd = run_asm_campaign(&m, &prog, &double);
    assert_eq!(rs.counts.total(), rd.counts.total());
    // Two flips strictly reduce the chance of a fully benign outcome
    // relative to one flip in expectation (can't assert strictly, but the
    // populations must differ).
    assert_ne!(
        (rs.counts.benign, rs.counts.sdc, rs.counts.due),
        (rd.counts.benign, rd.counts.sdc, rd.counts.due)
    );
}

#[test]
fn detected_status_is_terminal_and_immediate() {
    // A program that calls detect_error through protection: once Detected,
    // output must reflect only what happened before.
    use flowery_passes::{duplicate_module, DupConfig, ProtectionPlan};
    let mut m =
        flowery_lang::compile("e", "int main() { int a = 1; output(a); int b = a + 1; output(b); return b; }").unwrap();
    let plan = ProtectionPlan::full(&m);
    duplicate_module(&mut m, &plan, &DupConfig::default());
    let interp = Interpreter::new(&m);
    let golden = interp.run(&ExecConfig::default(), None);
    for site in 0..golden.fault_sites {
        let r = interp.run(&ExecConfig::default(), Some(flowery_ir::interp::FaultSpec::single(site, 13)));
        if r.status == ExecStatus::Detected {
            assert!(r.output.len() <= golden.output.len(), "a detected run cannot out-produce the golden run");
        }
    }
}
