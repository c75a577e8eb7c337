//! Print/parse round-trip over every workload: the textual IR emitted by
//! the printer must parse back into a module with identical behaviour at
//! both layers (and identical protection behaviour after duplication). The
//! parser reads untrusted text, so mutated printouts must come back as a
//! `ParseError`, never a panic.

use flowery_ir::interp::{ExecConfig, ExecStatus, FaultSpec, Interpreter, IrScratch, TrapKind};
use flowery_ir::printer::print_module;
use flowery_ir::textparse::parse_module;
use flowery_workloads::{all_workloads, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn all_workloads_round_trip_through_text() {
    for w in all_workloads(Scale::Tiny) {
        let m = w.compile();
        let text = print_module(&m);
        let m2 = parse_module(&text)
            .unwrap_or_else(|e| panic!("{}: {e}\nfirst lines:\n{}", w.name, &text[..text.len().min(600)]));
        flowery_ir::verify::verify_module(&m2).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let r1 = Interpreter::new(&m).run(&ExecConfig::default(), None);
        let r2 = Interpreter::new(&m2).run(&ExecConfig::default(), None);
        assert_eq!(r1.status, r2.status, "{}", w.name);
        assert_eq!(r1.output, r2.output, "{}", w.name);
        assert_eq!(r1.dyn_insts, r2.dyn_insts, "{}", w.name);
        assert_eq!(r1.fault_sites, r2.fault_sites, "{}", w.name);
    }
}

#[test]
fn protected_module_round_trips() {
    use flowery_passes::{duplicate_module, DupConfig, ProtectionPlan};
    let mut m = flowery_workloads::workload("is", Scale::Tiny).compile();
    let plan = ProtectionPlan::full(&m);
    duplicate_module(&mut m, &plan, &DupConfig::default());
    let text = print_module(&m);
    let m2 = parse_module(&text).expect("protected module parses");
    let r1 = Interpreter::new(&m).run(&ExecConfig::default(), None);
    let r2 = Interpreter::new(&m2).run(&ExecConfig::default(), None);
    assert_eq!(r1.status, r2.status);
    assert_eq!(r1.output, r2.output);
    // Note: IrRole markers are printed as comments and not round-tripped;
    // behaviour (including checker firing) is, because the structure is.
    let prog1 = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
    let prog2 = flowery_backend::compile_module(&m2, &flowery_backend::BackendConfig::default());
    let a1 = flowery_backend::Machine::new(&m, &prog1).run(&ExecConfig::default(), None);
    let a2 = flowery_backend::Machine::new(&m2, &prog2).run(&ExecConfig::default(), None);
    assert_eq!(a1.status, a2.status);
    assert_eq!(a1.output, a2.output);
}

#[test]
fn machine_listing_prints_for_all_workloads() {
    for w in all_workloads(Scale::Tiny) {
        let m = w.compile();
        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let listing = flowery_backend::print_program(&prog);
        assert!(listing.contains("main:"), "{}", w.name);
        assert!(listing.contains("push %rbp"), "{}", w.name);
        assert!(listing.lines().count() > prog.insts.len(), "{}", w.name);
    }
}

#[test]
fn a_global_closing_before_it_opens_is_a_parse_error() {
    let err = parse_module("@amat = global 36 x f64] [4623, 0]\n").expect_err("malformed global");
    assert_eq!(err.line, 1, "{err}");
}

#[test]
fn a_module_without_main_traps_instead_of_panicking() {
    let text = print_module(&flowery_workloads::workload("crc32", Scale::Tiny).compile());
    let m = parse_module(&text.replace("@main(", "@start(")).expect("a renamed function still parses");
    assert!(m.main_func().is_none(), "test premise: no @main");
    let (interp, cfg, fault) = (Interpreter::new(&m), ExecConfig::default(), FaultSpec::single(0, 1));
    let (snapshots, runs) = catch_unwind(AssertUnwindSafe(|| {
        let set = interp.capture_snapshots_auto(&cfg);
        let fast_forwarded = interp.run_fast_forward(&cfg, fault, &set, &mut IrScratch::new()).0;
        let runs = [
            ("plain", interp.run(&cfg, None)),
            ("profiled", interp.profile_run(&cfg)),
            ("captured", set.golden().clone()),
            ("faulty", interp.run(&cfg, Some(fault))),
            ("fast-forwarded", fast_forwarded),
        ];
        (set.len(), runs)
    }))
    .expect("no run may panic");
    assert_eq!(snapshots, 0, "nothing executes, so nothing is captured");
    for (what, r) in runs {
        assert_eq!(r.status, ExecStatus::Trapped(TrapKind::BadControl), "{what}");
        assert_eq!((r.dyn_insts, r.fault_sites, r.injected_at), (0, 0, None), "{what}");
    }
}

/// Bytes a mutation writes: the printer's punctuation, digits, and letters
/// that start its keywords and types.
const ALPHABET: &[u8] = b"[]{}()@%=,:; x-.0123456789ifpglobaldefinebr";

#[test]
fn mutated_printouts_parse_or_fail_but_never_panic() {
    const MUTANTS: u64 = 300;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: usize| {
        // xorshift64*: a fixed stream, so every run tries the same mutants.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
    };
    let mut panics = Vec::new();
    for w in all_workloads(Scale::Tiny) {
        let text = print_module(&w.compile()).into_bytes();
        for k in 0..MUTANTS {
            let mut t = text.clone();
            let at = next(t.len());
            match next(3) {
                0 => t[at] = ALPHABET[next(ALPHABET.len())],
                1 => {
                    t.remove(at);
                }
                _ => t.insert(at, ALPHABET[next(ALPHABET.len())]),
            }
            let t = String::from_utf8(t).expect("ASCII in, ASCII out");
            if catch_unwind(AssertUnwindSafe(|| parse_module(&t))).is_err() {
                let line = t[..at].lines().count();
                panics.push(format!("{} mutant {k} (line {line})", w.name));
            }
        }
    }
    assert!(panics.is_empty(), "parse_module panicked on: {panics:?}");
}
