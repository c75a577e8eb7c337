//! Soundness gate for the static bit-lattice prune (`--static-prune`).
//!
//! The prune's contract: a (site, bit) pair the analyzer proves masked
//! may be resolved as Benign *without executing the trial*. That claim is
//! falsifiable by direct experiment — inject exactly the proven-masked
//! pairs and check nothing deviates — and this suite does so three ways:
//!
//! 1. **Differential proptest** — on random MiniC programs (generator
//!    shared with the other property suites), every sampled proven-masked
//!    pair must execute to a Benign outcome. A single SDC/Detected/DUE
//!    from a proven pair is a hard counterexample to the bit engine.
//! 2. **Workload sweep** — the same differential check on all 16 Table-1
//!    benchmarks × raw/id/flowery at Tiny scale (the CI soundness gate).
//! 3. **Pruned-vs-full agreement** — `run_units` with `static_prune` on
//!    must reproduce the unpruned campaign's per-unit counts, Wilson CI,
//!    SDC attributions, and region tallies bit-for-bit, while actually
//!    pruning a nonzero number of trials (so the equality is not vacuous).
//! 4. **Verdict pins** — the same 48 workload programs must reproduce
//!    pinned `(sites, proven pairs, table fingerprint)` triples, recorded
//!    from the per-path walk the joined fixpoint replaced.
//! 5. **Lint pins** — the same 48 programs must reproduce pinned
//!    `predict_program` reports `(sites, protected, flagged hash)`,
//!    recorded from the per-instruction worklist the leader walk replaced.

mod common;

use common::program_strategy;
use flowery_analysis::statline::analyze_bits;
use flowery_analysis::{predict_program, StaticReport};
use flowery_backend::{compile_module, AsmFaultSpec, BackendConfig, Machine};
use flowery_harness::{build_matrix, program_hash, run_units, GoldenCache, HarnessConfig, MatrixSpec, RunOptions};
use flowery_inject::{classify, Outcome};
use flowery_ir::interp::ExecConfig;
use flowery_ir::{fnv1a, Module};
use flowery_passes::{apply_flowery, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery_workloads::{workload, Scale, NAMES};
use proptest::prelude::*;

fn protect(mut m: Module, pass: &str) -> Module {
    if pass != "raw" {
        let plan = ProtectionPlan::full(&m);
        duplicate_module(&mut m, &plan, &DupConfig::default());
        if pass == "flowery" {
            apply_flowery(&mut m, &FloweryConfig::default());
        }
    }
    m
}

/// Inject up to `budget` proven-masked (site, bit) pairs of `m` and return
/// `(pairs tested, deviations)` — any non-Benign outcome from a proven
/// pair is a deviation. Pairs are spread deterministically across the
/// dynamic site trace so early and late program phases are both covered.
fn inject_proven_masked(m: &Module, budget: usize) -> (usize, Vec<String>) {
    let bcfg = BackendConfig::default();
    let prog = compile_module(m, &bcfg);
    let table = analyze_bits(m, &prog);
    let exec = ExecConfig::default();
    let mach = Machine::new(m, &prog);
    let golden = mach.run(&exec, None);
    let sites = mach.site_trace(&exec, 100_000);

    // Every dynamic (site, masked bit-family) pair, site-major. Sampled
    // at a stride that fits the budget: family `bit` at dynamic site `i`.
    let candidates: Vec<(u64, u32)> = sites
        .iter()
        .enumerate()
        .flat_map(|(i, &inst)| {
            let v = table.verdicts[inst as usize];
            (0..64)
                .filter(move |&b| (v.proven_masked >> b) & 1 == 1)
                .map(move |b| (i as u64, b))
        })
        .collect();
    let stride = (candidates.len() / budget.max(1)).max(1);
    let mut tested = 0;
    let mut deviations = Vec::new();
    for &(site, bit) in candidates.iter().step_by(stride) {
        tested += 1;
        let r = mach.run(&exec, Some(AsmFaultSpec::single(site, bit)));
        let outcome = classify(r.status, &r.output, golden.status, &golden.output);
        if outcome != Outcome::Benign {
            deviations.push(format!(
                "site {site} (inst {} = {:?}) bit {bit}: {outcome:?}",
                sites[site as usize], prog.insts[sites[site as usize] as usize].kind
            ));
        }
    }
    (tested, deviations)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, max_shrink_iters: 0, ..ProptestConfig::default() })]

    #[test]
    fn proven_masked_pairs_are_benign_on_random_programs(src in program_strategy()) {
        let raw = flowery_lang::compile("prop", &src).unwrap();
        for pass in ["raw", "id"] {
            let m = protect(raw.clone(), pass);
            let (tested, deviations) = inject_proven_masked(&m, 160);
            prop_assert!(
                deviations.is_empty(),
                "[{pass}] {} of {tested} proven-masked pairs deviated:\n{}\n{src}",
                deviations.len(),
                deviations.join("\n")
            );
        }
    }
}

#[test]
fn proven_masked_pairs_are_benign_on_all_workloads() {
    let mut total_tested = 0usize;
    let mut failures = Vec::new();
    for name in NAMES {
        let raw = workload(name, Scale::Tiny).compile();
        for pass in ["raw", "id", "flowery"] {
            let m = protect(raw.clone(), pass);
            let (tested, deviations) = inject_proven_masked(&m, 60);
            total_tested += tested;
            if !deviations.is_empty() {
                failures.push(format!("{name}/{pass}: {}", deviations.join("; ")));
            }
        }
    }
    assert!(total_tested > 500, "the sweep must exercise a real sample, got {total_tested}");
    assert!(
        failures.is_empty(),
        "proven-masked pairs deviated on {} workload variants:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn pruned_campaign_agrees_with_full_campaign() {
    let spec = MatrixSpec {
        benches: vec!["crc32".into(), "quicksort".into()],
        scale: Scale::Tiny,
        levels: vec![1.0],
        profile_trials: 100,
        ..Default::default()
    };
    let units = build_matrix(&spec);
    let cfg = HarnessConfig {
        max_trials: 400,
        batch_size: 100,
        min_trials: 100,
        ci_target: Some(0.05),
        threads: 2,
        ..Default::default()
    };
    let full = run_units(&units, &cfg, &GoldenCache::new(), RunOptions::default());
    let pruned_cfg = HarnessConfig { static_prune: true, ..cfg };
    let pruned = run_units(&units, &pruned_cfg, &GoldenCache::new(), RunOptions::default());

    assert_eq!(full.units.len(), pruned.units.len());
    let mut pruned_total = 0;
    for (f, p) in full.units.iter().zip(&pruned.units) {
        assert_eq!(f.key, p.key);
        assert_eq!(f.trials, p.trials, "{}: Wilson early-stop point must not move", f.key.id());
        assert_eq!(f.counts, p.counts, "{}: outcome counts must be bit-identical", f.key.id());
        assert_eq!(f.sdc, p.sdc, "{}: Wilson estimate must be unbiased under pruning", f.key.id());
        assert_eq!(f.sdc_insts, p.sdc_insts, "{}: SDC attributions must match", f.key.id());
        assert_eq!(f.region_counts, p.region_counts, "{}: region tallies must match", f.key.id());
        assert_eq!(f.pruned, 0, "unpruned campaigns record no pruned trials");
        pruned_total += p.pruned;
    }
    assert!(pruned_total > 0, "the agreement must not be vacuous — some trials must actually prune");
    assert!(pruned.metrics.bits_proven_masked > 0, "proven-pair metric records the table mass");
    // Metrics count every executed batch, including in-flight batches past
    // the Wilson early-stop prefix that the unit tally drops — so >=.
    assert!(pruned.metrics.bits_pruned_trials_saved >= pruned_total, "metrics cover the unit tallies");
    assert_eq!(full.metrics.bits_pruned_trials_saved, 0);
}

/// `(sites, proven_pairs, BitTable::fingerprint(program_hash))` of one
/// program's bit table.
type Pin = (u32, u64, u64);

/// Pins for every workload x raw/id/flowery at Tiny scale, recorded from
/// the per-path walk (a depth-first search over distinct path states) that
/// the joined fixpoint replaced; any differing verdict moves a fingerprint.
#[rustfmt::skip]
const VERDICT_PINS: &[(&str, [Pin; 3])] = &[
    ("backprop", [(516, 8964, 0x4c2714555f591273), (1035, 20288, 0xb63842ce33b4d18d), (1188, 23304, 0x82745554b3aebb1f)]),
    ("bfs", [(234, 3806, 0xb0d64f606b0ca0cb), (446, 7665, 0x91e8d2f7266d1827), (567, 9836, 0x42a5155d0328c15d)]),
    ("pathfinder", [(319, 4763, 0xf2bd5e57752de335), (614, 11013, 0x55d7e01eea43f97a), (805, 13958, 0x5b50e253d9d0960e)]),
    ("lud", [(364, 6606, 0x4cdf9815d1032390), (737, 15149, 0xf0c74a3d595a6b54), (876, 17900, 0xb337ce5496839af4)]),
    ("needle", [(354, 5815, 0x89e8ca05c50fd6ef), (661, 12063, 0x6ed7dd97def241a6), (830, 14878, 0xb4a52e0d9cc5acaa)]),
    ("knn", [(231, 3626, 0x92a3aec367659a04), (454, 8475, 0x675d53bba14c8cd2), (565, 10804, 0x589c88df8218e8ee)]),
    ("ep", [(353, 5698, 0xed6d11431b3d8214), (721, 13790, 0x3dbf1550a17d7bee), (840, 16580, 0x37e07616122e6ab9)]),
    ("cg", [(526, 8981, 0x83dddea7346aebb1), (1096, 20450, 0x3800e22d51003577), (1248, 23594, 0xc97f9e1744cdf6da)]),
    ("is", [(262, 4454, 0x35f403ff3f12685b), (514, 8545, 0x372dc8c3a44d7204), (633, 10636, 0x56a3c56ec33f40f0)]),
    ("fft2", [(547, 9864, 0x1010b96e038a6eb4), (1172, 22031, 0x4ff2af2f32194bff), (1313, 25136, 0xdd6def2d4bd09314)]),
    ("quicksort", [(347, 5290, 0x7c7ed97e7f2e18d4), (647, 10656, 0x9f9652f6955cead8), (806, 13242, 0xbbbdd814a93f5f5c)]),
    ("basicmath", [(261, 3792, 0x8dc846119326a41c), (511, 9139, 0x80ed3b68e2dd34ea), (610, 11152, 0xcd2c5744f1a15929)]),
    ("susan", [(366, 6040, 0x3c9b22a8800ea222), (691, 13949, 0xb1fc294273a06791), (926, 18016, 0x1cb6b38df2bbd5c6)]),
    ("crc32", [(132, 2354, 0x1d4fd2041960c47b), (248, 5113, 0x410b8b4579539db2), (306, 6310, 0x872660ea09bcb587)]),
    ("stringsearch", [(291, 4658, 0xa68d9edd833cb1f0), (482, 8621, 0xfa3f0940f5cd1feb), (609, 10754, 0xaf70dffb9a41d9c8)]),
    ("patricia", [(374, 5630, 0x106b078411453280), (684, 12924, 0xebd7f5224d1b3fa5), (895, 16764, 0x7e5f238ff5feb21c)]),
];

#[test]
fn bit_tables_reproduce_the_verdict_pins() {
    let got: Vec<(&str, [Pin; 3])> = NAMES
        .iter()
        .map(|&name| {
            let raw = workload(name, Scale::Tiny).compile();
            let row = ["raw", "id", "flowery"].map(|pass| {
                let m = protect(raw.clone(), pass);
                let prog = compile_module(&m, &BackendConfig::default());
                let table = analyze_bits(&m, &prog);
                (table.sites, table.proven_pairs, table.fingerprint(program_hash(&prog)))
            });
            (name, row)
        })
        .collect();
    let rows: String = got
        .iter()
        .map(|(name, r)| {
            let cells: Vec<String> = r.iter().map(|(s, p, f)| format!("({s}, {p}, {f:#018x})")).collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    assert_eq!(got, VERDICT_PINS, "bit tables moved; the tables now read:\n{rows}");
}

/// `(sites, protected, FNV-1a of the flagged list)` of one program's
/// `predict_program` report; each flagged site hashes as its index, sink
/// and category.
type LintPin = (u64, u64, u64);

fn lint_pin(report: &StaticReport) -> LintPin {
    let flagged: String = report
        .flagged
        .iter()
        .map(|p| format!("{} {} {}\n", p.idx, p.sink.name(), p.category.name()))
        .collect();
    (report.sites, report.protected, fnv1a(flagged.as_bytes()))
}

/// Lint pins for every workload x raw/id/flowery at Tiny scale and full
/// protection, recorded from the per-instruction worklist (one in-state
/// per instruction, every instruction stepped) that the leader walk
/// replaced; a moved verdict, sink or category moves a pin.
#[rustfmt::skip]
const LINT_PINS: &[(&str, [LintPin; 3])] = &[
    ("backprop", [(516, 134, 0xf6efdef0c065d95e), (1035, 790, 0x3da345c8dff23bfc), (1188, 996, 0xf4e1143799a839a0)]),
    ("bfs", [(234, 56, 0x87ad4fcf7a88b4b6), (446, 283, 0x9a417bedd5ddeb16), (567, 450, 0xdcc53e6cc512c16b)]),
    ("pathfinder", [(319, 69, 0x4b934a02e932116c), (614, 398, 0x71b40c9cd297ae3d), (805, 635, 0x5dfa2f76b2d983ad)]),
    ("lud", [(364, 98, 0xab4cc993bbe5431e), (737, 547, 0xc4c52b62e4f3b586), (876, 737, 0xca96ed3fafaa9a88)]),
    ("needle", [(354, 86, 0x35fa4bc4c6deea78), (661, 450, 0x6429741711745701), (830, 675, 0xfc2641e5c9398b08)]),
    ("knn", [(231, 53, 0x29cf47960739b1ce), (454, 285, 0x894b9ac1229baa58), (565, 444, 0x59b0d4e2f52e4041)]),
    ("ep", [(353, 86, 0x335aae3291d337df), (721, 490, 0x326cb3b6b36690ca), (840, 661, 0xc362edb89c48b54d)]),
    ("cg", [(526, 134, 0x74a2c8d26eb92d33), (1096, 820, 0xdc529958275872a0), (1248, 1028, 0xacfc2ca29135a492)]),
    ("is", [(262, 66, 0x1f20805d8f1b8bfb), (514, 356, 0x18434e53ff9e118e), (633, 518, 0x86e7ec80548f7679)]),
    ("fft2", [(547, 147, 0x113e472a62cf6d92), (1172, 883, 0x5d4b1e7ae1f1a5f5), (1313, 1087, 0x2ee528d258bf9f2b)]),
    ("quicksort", [(347, 79, 0x1ee99d8728993f3c), (647, 420, 0x54617e808e0450f8), (806, 632, 0xac5f50730b97a718)]),
    ("basicmath", [(261, 57, 0x91944c1a88e1abf4), (511, 336, 0x42b4380dcf39b621), (610, 471, 0x290d867481d1abb3)]),
    ("susan", [(366, 89, 0x0f953039e4fce6dd), (691, 430, 0xb98b32d75bd540fd), (926, 749, 0x94e2aa21d6f8f791)]),
    ("crc32", [(132, 32, 0x854b4b18689a4c82), (248, 153, 0x8bf883161dc3065f), (306, 233, 0x7afbac86a07ba1c5)]),
    ("stringsearch", [(291, 68, 0xf495741b368e56de), (482, 277, 0xa60d4257c9146ded), (609, 436, 0xc96a9288036dfd46)]),
    ("patricia", [(374, 73, 0x36fe0d2592c9ae91), (684, 407, 0xe983a0436483c5dc), (895, 674, 0x397ce5bb49507e67)]),
];

#[test]
fn lint_reports_reproduce_the_lint_pins() {
    let bcfg = BackendConfig::default();
    let got: Vec<(&str, [LintPin; 3])> = NAMES
        .iter()
        .map(|&name| {
            let raw = workload(name, Scale::Tiny).compile();
            let row = ["raw", "id", "flowery"].map(|pass| {
                let m = protect(raw.clone(), pass);
                let prog = compile_module(&m, &bcfg);
                lint_pin(&predict_program(&m, &prog, bcfg.fold_compares))
            });
            (name, row)
        })
        .collect();
    let rows: String = got
        .iter()
        .map(|(name, r)| {
            let cells: Vec<String> = r.iter().map(|(s, p, f)| format!("({s}, {p}, {f:#018x})")).collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    assert_eq!(got, LINT_PINS, "lint reports moved; they now read:\n{rows}");
}
