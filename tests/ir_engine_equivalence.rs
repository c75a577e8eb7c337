//! Differential tests for the IR layer's engine against its reference
//! semantics. Every IR run executes the one pre-decoded translation, in a
//! fast loop or a bookkept one; `common/ir_oracle.rs` is an independent
//! from-boot interpreter over `InstKind`. Four paths must match the oracle
//! on status, output, dynamic instructions, fault sites, injection site
//! and profile counts, for every fault model: the plain run, the profiled
//! run, a snapshot capture's golden, and a trial fast-forwarded from a
//! snapshot — through an instruction-spaced set and the site-spaced set
//! campaigns capture — which may end where it rejoins the golden run. The
//! rejoined trials are counted, so the rejoin rule is held against the
//! oracle on trials that take it, and three programs are built so that a
//! rejoin rule blind to memory, to output bytes or to the site count would
//! return a wrong result.
//!
//! Two angles, as in `exec_equivalence.rs` for the machine layer:
//! * a property test over random MiniC programs with faults across every
//!   effect, including sites before the first snapshot and runs cut short
//!   by the instruction budget and the output limit;
//! * a sweep of all 16 workloads x {raw, ID, Flowery} x all six registered
//!   fault models, with snapshots off and on, and calls past the depth
//!   limit.

mod common;
#[path = "common/ir_oracle.rs"]
mod ir_oracle;

use flowery_faultmodel::ModelSpec;
use flowery_ir::interp::substrate;
use flowery_ir::interp::{
    ExecConfig, ExecResult, ExecStatus, FaultEffect, FaultSpec, Interpreter, IrLayer, IrScratch, TrapKind,
};
use flowery_ir::Module;
use flowery_passes::{apply_flowery, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery_workloads::{workload, Scale, NAMES};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn assert_same(got: &ExecResult, want: &ExecResult, ctx: &str) {
    assert_eq!(got.status, want.status, "{ctx}");
    assert_eq!(got.output, want.output, "{ctx}");
    assert_eq!(got.dyn_insts, want.dyn_insts, "{ctx}");
    assert_eq!(got.fault_sites, want.fault_sites, "{ctx}");
    assert_eq!(got.injected_at, want.injected_at, "{ctx}");
    assert_eq!(got.profile, want.profile, "{ctx}");
}

/// `spec` under `cfg`: the oracle, then the engine's plain run, profiled
/// run, and trial fast-forwarded through a snapshot set captured every
/// `interval` instructions and through the self-tuning site-spaced set —
/// all must agree, as must the captures' goldens. Returns how many of the
/// fast-forwarded trials rejoined the golden run; the oracle's full run of
/// each must be the golden's but for where its fault landed.
fn check(m: &Module, cfg: &ExecConfig, interval: u64, specs: &[FaultSpec], ctx: &str) -> u64 {
    let interp = Interpreter::new(m);
    let profiled = ExecConfig { profile: true, ..cfg.clone() };
    for (c, what) in [(cfg, "plain"), (&profiled, "profiled")] {
        let want = ir_oracle::run(m, c, None);
        assert_same(&interp.run(c, None), &want, &format!("{ctx}: fault-free {what} run"));
        let golden = interp.capture_snapshots(c, interval).golden().clone();
        assert_same(&golden, &want, &format!("{ctx}: {what} capture's golden"));
        let golden = interp.capture_snapshots_auto(c).golden().clone();
        assert_same(&golden, &want, &format!("{ctx}: {what} site-spaced capture's golden"));
    }
    let golden = ir_oracle::run(m, cfg, None);
    let sets = [
        ("instruction", interp.capture_snapshots(cfg, interval)),
        ("site", interp.capture_snapshots_auto(cfg)),
    ];
    let mut scratch = IrScratch::new();
    let mut rejoined = 0;
    for spec in specs {
        let want = ir_oracle::run(m, cfg, Some(*spec));
        assert_same(&interp.run(cfg, Some(*spec)), &want, &format!("{ctx}: {spec:?}"));
        for (cadence, set) in &sets {
            let (ff, _, rejoins) = substrate::trial::<IrLayer>(&interp, cfg, *spec, Some(set), &mut scratch);
            let what = format!("{ctx}: {spec:?} fast-forwarded through the {cadence}-spaced set");
            assert_same(&ff, &want, &what);
            if rejoins {
                rejoined += 1;
                let as_golden = ExecResult { injected_at: want.injected_at, ..golden.clone() };
                assert_same(&as_golden, &want, &format!("{what}: rejoined"));
            }
            scratch.recycle_output(ff.output);
        }
        let want = ir_oracle::run(m, &profiled, Some(*spec));
        assert_same(&interp.run(&profiled, Some(*spec)), &want, &format!("{ctx}: {spec:?} profiled"));
    }
    rejoined
}

/// Random-program cases run and trials of theirs that rejoined, summed
/// over the property's cases (which run one after another in one test).
static RANDOM_CASES: AtomicU64 = AtomicU64::new(0);
static RANDOM_REJOINS: AtomicU64 = AtomicU64::new(0);
const RANDOM_CASE_COUNT: u32 = 24;

proptest! {
    #![proptest_config(ProptestConfig { cases: RANDOM_CASE_COUNT, max_shrink_iters: 50, ..ProptestConfig::default() })]

    #[test]
    fn every_path_matches_the_oracle_on_random_programs(
        (src, faults, interval) in (
            common::program_strategy(),
            prop::collection::vec((0.0f64..1.0, 0u8..64, 0u8..6), 6..12),
            64u64..512,
        )
    ) {
        let m = flowery_lang::compile("gen", &src)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));
        let golden = Interpreter::new(&m).run(&ExecConfig::default(), None);
        prop_assert!(golden.status.is_completed(), "golden must complete: {:?}", golden.status);
        let sites = golden.fault_sites.max(1);

        // Site 0 and the last site bracket the run; the first precedes
        // every snapshot. The six kinds are the six fault models' effects.
        let ends = [(0.0, 5, 0), (1.0, 9, 0)];
        let specs: Vec<FaultSpec> = ends.iter().chain(&faults).map(|&(frac, bit, kind)| {
            let site = ((frac * sites as f64) as u64).min(sites - 1);
            match kind {
                1 => FaultSpec::with_effect(site, bit as u32, FaultEffect::Burst { width: 2 + bit % 7 }),
                2 => FaultSpec::with_effect(site, bit as u32, FaultEffect::Flags),
                3 => FaultSpec::with_effect(site, bit as u32, FaultEffect::Mem { offset: bit as u64 * 131 }),
                4 => FaultSpec::with_effect(site, bit as u32, FaultEffect::Jump { target: bit as u64 * 17 }),
                5 => FaultSpec::double(site, bit as u32, (bit as u32 + 13) % 64),
                _ => FaultSpec::single(site, bit as u32),
            }
        }).collect();
        // A tight budget so livelocked trials run it out on every path.
        let cfg = ExecConfig { max_dyn_insts: golden.dyn_insts * 2 + 10_000, ..ExecConfig::default() };
        RANDOM_REJOINS.fetch_add(check(&m, &cfg, interval, &specs, &src), Ordering::Relaxed);
        if RANDOM_CASES.fetch_add(1, Ordering::Relaxed) + 1 == u64::from(RANDOM_CASE_COUNT) {
            prop_assert!(RANDOM_REJOINS.load(Ordering::Relaxed) > 0, "no random-program trial rejoined the golden run");
        }

        // Runs cut short: the budget and the output limit trip mid-run.
        let short = ExecConfig { max_dyn_insts: golden.dyn_insts / 2, ..cfg.clone() };
        check(&m, &short, interval, &specs[..3], &format!("instruction budget\n{src}"));
        let mute = ExecConfig { max_output: golden.output.len() / 2, ..cfg };
        check(&m, &mute, interval, &specs[..3], &format!("output limit\n{src}"));
    }
}

/// Every fault model the build registers, including one parameterized
/// burst width.
fn all_models() -> [ModelSpec; 6] {
    [
        ModelSpec::SingleBitReg,
        ModelSpec::DoubleBitReg,
        ModelSpec::MultiBit(4),
        ModelSpec::FlagsPc,
        ModelSpec::MemCell,
        ModelSpec::ControlFlow,
    ]
}

/// All 16 workloads x {raw, ID, Flowery} x all six fault models, plus the
/// traps the random programs cannot reach: calls past the depth limit.
#[test]
fn every_path_matches_the_oracle_on_all_workloads_and_models() {
    const TRIALS: u64 = 4;
    const SEED: u64 = 0x00C0_FFEE;
    let mut rejoined = 0;
    for name in NAMES {
        let raw = workload(name, Scale::Tiny).compile();
        for variant in ["raw", "id", "flowery"] {
            let mut m = raw.clone();
            if variant != "raw" {
                let plan = ProtectionPlan::full(&m);
                duplicate_module(&mut m, &plan, &DupConfig::default());
            }
            if variant == "flowery" {
                apply_flowery(&mut m, &FloweryConfig::default());
            }
            let golden = Interpreter::new(&m).run(&ExecConfig::default(), None);
            let cfg = ExecConfig::with_budget_for(golden.dyn_insts);
            let specs: Vec<FaultSpec> = all_models()
                .into_iter()
                .flat_map(|model| (0..TRIALS).map(move |t| model.sample_ir(SEED, t, golden.fault_sites)))
                .collect();
            rejoined += check(&m, &cfg, 4096, &specs, &format!("{name}/{variant}"));

            let shallow = ExecConfig { max_call_depth: 2, ..cfg };
            let r = Interpreter::new(&m).run(&shallow, None);
            if r.status == ExecStatus::Trapped(TrapKind::CallDepth) {
                check(&m, &shallow, 4096, &specs[..2], &format!("{name}/{variant} call depth"));
            }
        }
    }
    assert!(rejoined > 0, "no workload trial rejoined the golden run");
}

/// Programs whose faults can leave a trial's frames equal to the golden's
/// at a later snapshot while one other part of its state differs: memory
/// (a corrupted value stored, then its slot overwritten), output bytes (a
/// corrupted value printed, then overwritten) and the site count (a flipped
/// branch takes an arm of stores only, as long as the other and storing
/// the same value, so every slot keeps what the golden writes there). A
/// trial rejoining there would take the golden's result where the oracle's
/// differs. Every site with a few bits and the flag flip, through sets
/// spaced every 8 instructions.
#[test]
fn rejoins_are_refused_where_memory_output_or_sites_differ() {
    let programs = [
        (
            "memory",
            "global int arr[64];\n\
             int main() { int i; int s = 0;\n\
               for (i = 0; i < 64; i = i + 1) { arr[i] = i * 7; }\n\
               for (i = 0; i < 64; i = i + 1) { s = s + arr[i]; }\n\
               output(s); return 0; }",
        ),
        (
            "output",
            "int main() { int i; for (i = 0; i < 40; i = i + 1) { output(i * 3); } return 0; }",
        ),
        (
            "sites",
            "int main() { int i; int x = 0;\n\
               for (i = 0; i < 40; i = i + 1) { if (i >= 0) { x = x + 0; } else { x = 0; x = 0; x = 0; } }\n\
               output(x); return 0; }",
        ),
    ];
    for (what, src) in programs {
        let m = flowery_lang::compile(what, src).unwrap();
        let golden = Interpreter::new(&m).run(&ExecConfig::default(), None);
        let cfg = ExecConfig::with_budget_for(golden.dyn_insts);
        let specs: Vec<FaultSpec> = (0..golden.fault_sites)
            .flat_map(|site| {
                [0, 1, 40]
                    .map(|bit| FaultSpec::single(site, bit))
                    .into_iter()
                    .chain([FaultSpec::with_effect(site, 0, FaultEffect::Flags)])
            })
            .collect();
        let rejoined = check(&m, &cfg, 8, &specs, what);
        assert!(rejoined > 0, "{what}: test premise: trials rejoin the golden run");
    }
}
