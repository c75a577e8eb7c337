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

mod common;

use common::program_strategy;
use flowery_analysis::statline::analyze_bits;
use flowery_backend::{compile_module, AsmFaultSpec, BackendConfig, Machine};
use flowery_harness::{build_matrix, program_hash, run_units, GoldenCache, HarnessConfig, MatrixSpec, RunOptions};
use flowery_inject::{classify, Outcome};
use flowery_ir::interp::ExecConfig;
use flowery_ir::Module;
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
