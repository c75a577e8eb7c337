//! Every snapshot a capture takes, held against the from-boot oracle at the
//! same point. Captures run on each layer's recording loop, in stretches
//! between due points; the oracles (`common/{asm,ir}_oracle.rs`) step one
//! instruction at a time and stop by at each snapshot's instruction count.
//! There the two must agree on the site counter, the state as the snapshot
//! file encodes it against no predecessor, the output length, and every
//! page either side has touched; the golden results and the site traces
//! must agree too.
//!
//! Both layers, both cadences (site-spaced with the count cap at 128 and at
//! a unit's trial count, instruction-spaced with and without a budget trap
//! on a due point), trace caps 0 and 2²², on the Tiny workloads and on
//! random programs.

#[path = "common/asm_oracle.rs"]
mod asm_oracle;
mod common;
#[path = "common/ir_oracle.rs"]
mod ir_oracle;

use common::program_strategy;
use flowery_backend::{compile_module, AsmLayer, AsmProgram, BackendConfig, Machine};
use flowery_harness::GoldenCache;
use flowery_ir::interp::memory::BaseImage;
use flowery_ir::interp::snapio::w_leb;
use flowery_ir::interp::snapshot::AUTO_SITE_CADENCE;
use flowery_ir::interp::substrate::{self, RunResult};
use flowery_ir::interp::{Cadence, ExecConfig, Interpreter, IrLayer, SnapshotSet, Substrate};
use flowery_ir::Module;
use flowery_workloads::{all_workloads, Scale};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The oracle's fault-free run of one layer, stopping by at `points`.
type Visit<'a, G> = &'a dyn Fn(&ExecConfig, &[u64], ir_oracle::AtPoint<'_>, &mut dyn FnMut(u32)) -> G;

/// The instruction counts a capture every `every` instructions stops at in
/// a run of `end`: every multiple of `every` below it, and the budget itself
/// when the budget trap ends the run.
fn points_every(every: u64, end: u64, cfg: &ExecConfig) -> Vec<u64> {
    (1..)
        .map(|m| m * every)
        .take_while(|&d| d < end || d == cfg.max_dyn_insts)
        .collect()
}

/// The captures of one program under `cfg`: the self-tuning cadence capped
/// at 128 and at 40 trials, and an instruction cadence of about 40 steps,
/// each at trace caps 0 and 2²². Checks where each takes its first (site
/// cadence) or every (instruction cadence) snapshot, so that a recording
/// loop that stops nowhere cannot pass unseen.
fn captures<S: Substrate>(exec: &S::Exec<'_>, cfg: &ExecConfig) -> Vec<(String, SnapshotSet<S>)> {
    let golden = substrate::run::<S>(exec, cfg, None);
    let (end, sites) = (golden.head().dyn_insts, golden.head().fault_sites);
    let every = (end / 40).max(1);
    let mut out = Vec::new();
    for trace_cap in [0, GoldenCache::SITE_TRACE_CAP] {
        for trials in [u64::MAX, 40] {
            let set = substrate::capture_for::<S>(exec, cfg, trace_cap, trials);
            let label = format!("sites, {trials} trials, trace cap {trace_cap}");
            // Widening keeps the first snapshot, due at the first cadence step.
            let first = set.snapshots().first().map(|s| s.fault_sites);
            assert!(
                sites <= AUTO_SITE_CADENCE || first == Some(AUTO_SITE_CADENCE),
                "{label}: first at {first:?}"
            );
            out.push((label, set));
        }
        let set = substrate::capture::<S>(exec, cfg, Cadence::Insts(every), None, trace_cap);
        let at: Vec<u64> = set.snapshots().iter().map(|s| s.dyn_insts).collect();
        assert_eq!(at, points_every(every, end, cfg), "every {every} instructions: snapshot points");
        out.push((format!("every {every} instructions, trace cap {trace_cap}"), set));
    }
    out
}

/// Hold every snapshot of `sets` against the oracle's state at its point,
/// and each set's golden result and site trace against the oracle's run.
fn check<S: Substrate>(
    what: &str,
    m: &Module,
    cfg: &ExecConfig,
    sets: &[(String, SnapshotSet<S>)],
    visit: Visit<'_, S::Golden>,
) {
    let points: BTreeSet<u64> = sets
        .iter()
        .flat_map(|(_, set)| set.snapshots().iter().map(|s| s.dyn_insts))
        .collect();
    let points: Vec<u64> = points.into_iter().collect();
    let base = BaseImage::new(m, cfg.mem_size, cfg.stack_size).unwrap();
    let mut image = base.image();
    let mut next = vec![0usize; sets.len()];
    let mut touched = BTreeSet::new();
    let mut trace = Vec::new();
    let golden = visit(
        cfg,
        &points,
        &mut |dyn_insts, sites, state, mem| {
            touched.extend(mem.drain_dirty_pages());
            for ((label, set), next) in sets.iter().zip(&mut next) {
                let Some(snap) = set.snapshots().get(*next).filter(|s| s.dyn_insts == dyn_insts) else {
                    continue;
                };
                *next += 1;
                let at = format!("{what}, {label}, snapshot at {dyn_insts} instructions");
                assert_eq!(snap.fault_sites, sites, "{at}: site counter");
                let mut encoded = Vec::new();
                S::encode_snap(&mut encoded, &snap.state, None);
                w_leb(&mut encoded, snap.output_len as u64);
                assert_eq!(encoded, state, "{at}: state");
                image.reset_to(&base, &snap.pages);
                for &page in touched.iter().chain(snap.pages.keys()) {
                    assert!(image.page_slice(page) == mem.page_slice(page), "{at}: page {page}");
                }
            }
        },
        &mut |pos| trace.push(pos),
    );
    for ((label, set), next) in sets.iter().zip(next) {
        assert_eq!(next, set.len(), "{what}, {label}: snapshots the oracle never stopped at");
        assert!(
            !set.snapshots().windows(2).any(|w| w[0].dyn_insts >= w[1].dyn_insts),
            "{what}, {label}: order"
        );
        assert_eq!(set.golden(), &golden, "{what}, {label}: golden result");
        let want = if set.sites().serves(GoldenCache::SITE_TRACE_CAP) {
            &trace[..]
        } else {
            &[]
        };
        assert_eq!(&set.sites().trace()[..], want, "{what}, {label}: site trace");
    }
}

fn check_ir(what: &str, m: &Module, cfg: &ExecConfig) {
    let interp = Interpreter::new(m);
    let sets = captures::<IrLayer>(&interp, cfg);
    check(&format!("{what} (ir)"), m, cfg, &sets, &|cfg, points, at, site| {
        ir_oracle::visit(m, cfg, points, at, site)
    });
}

fn check_asm(what: &str, m: &Module, p: &AsmProgram, cfg: &ExecConfig) {
    let mach = Machine::new(m, p);
    let sets = captures::<AsmLayer>(&mach, cfg);
    check(&format!("{what} (asm)"), m, cfg, &sets, &|cfg, points, at, site| {
        asm_oracle::visit(m, p, cfg, points, at, site)
    });
}

fn check_both(what: &str, m: &Module) {
    let p = compile_module(m, &BackendConfig::default());
    let cfg = ExecConfig::default();
    check_ir(what, m, &cfg);
    check_asm(what, m, &p, &cfg);
}

#[test]
fn every_snapshot_of_the_tiny_workloads_matches_the_oracle() {
    for w in all_workloads(Scale::Tiny) {
        check_both(w.name, &w.compile());
    }
}

#[test]
fn a_capture_due_where_the_budget_traps_is_taken_before_the_trap() {
    // The instruction budget ends the run on a due point of the instruction
    // cadence (and one either side of it): the recording loop's one compare
    // must capture there, then trap, as the oracle's run does.
    let m = flowery_workloads::workload("crc32", Scale::Tiny).compile();
    let p = compile_module(&m, &BackendConfig::default());
    let (interp, mach) = (Interpreter::new(&m), Machine::new(&m, &p));
    let (ir_end, asm_end) = (
        interp.run(&ExecConfig::default(), None).dyn_insts,
        mach.run(&ExecConfig::default(), None).dyn_insts,
    );
    for offset in [0, 1, u64::MAX] {
        let budget = |end: u64| ExecConfig {
            max_dyn_insts: (end / 200 * 100).wrapping_add(offset),
            ..ExecConfig::default()
        };
        let (ir_cfg, asm_cfg) = (budget(ir_end), budget(asm_end));
        let ir = vec![(
            "every 100".to_string(),
            substrate::capture::<IrLayer>(&interp, &ir_cfg, Cadence::Insts(100), None, 0),
        )];
        let asm = vec![(
            "every 100".to_string(),
            substrate::capture::<AsmLayer>(&mach, &asm_cfg, Cadence::Insts(100), None, 0),
        )];
        let ir_at: Vec<u64> = ir[0].1.snapshots().iter().map(|s| s.dyn_insts).collect();
        let asm_at: Vec<u64> = asm[0].1.snapshots().iter().map(|s| s.dyn_insts).collect();
        for (at, cfg) in [(ir_at, &ir_cfg), (asm_at, &asm_cfg)] {
            assert_eq!(at, points_every(100, cfg.max_dyn_insts + 1, cfg), "budget {}", cfg.max_dyn_insts);
        }
        assert!(!ir[0].1.golden().head().status.is_completed(), "test premise: the budget traps");
        assert!(!asm[0].1.golden().head().status.is_completed(), "test premise: the budget traps");
        check(
            &format!("budget {} (ir)", ir_cfg.max_dyn_insts),
            &m,
            &ir_cfg,
            &ir,
            &|cfg, points, at, site| ir_oracle::visit(&m, cfg, points, at, site),
        );
        check(
            &format!("budget {} (asm)", asm_cfg.max_dyn_insts),
            &m,
            &asm_cfg,
            &asm,
            &|cfg, points, at, site| asm_oracle::visit(&m, &p, cfg, points, at, site),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, max_shrink_iters: 100, ..ProptestConfig::default() })]

    #[test]
    fn every_snapshot_of_a_random_program_matches_the_oracle(src in program_strategy()) {
        let m = flowery_lang::compile("prop", &src)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));
        check_both("random program", &m);
    }
}
