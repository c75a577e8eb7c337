//! Traced mode: the per-layer numbers.
//!
//! One full staged repetition gives the harness-level spans and counters;
//! then the same campaign is driven by hand, on one thread and a shortened
//! schedule (the first two batches of every unit), through each crate's
//! public functions, with a span around every call. Spans live in memory
//! and are written to `benchmark/out/trace-<workload>.json` at the end.
//! End-to-end metrics never come from here.

use crate::catalog::{unit_of, PER_LAYER};
use crate::staged::{copy_dir, prepare_resume, prewarm, run_rep};
use crate::stats::{disk_bytes, least_squares, percentile};
use crate::verify::{fingerprints, load_expected, mismatches};
use crate::workloads::Workload;
use crate::{work_dir, Metrics, RunResult, OUT_DIR};
use flowery::analysis::statline::analyze_bits;
use flowery::backend::{compile_module, jit_stats, AsmProgram, AsmSnapshotSet, ExecMode, Machine};
use flowery::harness::{
    build_matrix, compact, load_checkpoint_full, matrix_fingerprint, module_hash, program_hash, run_units, BatchRecord,
    CheckpointLog, GoldenCache, HarnessConfig, Layer, RunOptions, SnapshotStore, StaticPrior, TrialUnit, UnitKey,
    Variant,
};
use flowery::inject::campaign::{AsmTrialRunner, IrTrialRunner};
use flowery::inject::{profile_sdc, CampaignConfig, Outcome, OutcomeCounts};
use flowery::ir::interp::{Interpreter, IrSnapshotSet};
use flowery::ir::value::{FuncId, InstId};
use flowery::ir::Module;
use flowery::passes::{apply_flowery, choose_protection, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery::workloads::Scale;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Trials per unit of the two engines the workload does not run on: enough
/// for 1,000 samples per engine over 48 units.
const OTHER_ENGINE_TRIALS: u64 = 32;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    unit: Option<u32>,
}

/// In-memory span recorder. Spans nest by call order: the parent of a
/// span is the one that was open when it started.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Summed duration per span name, in seconds.
    totals: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, unit: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`; its duration in seconds.
    fn exit(&mut self, id: u32) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close in the order they nest");
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        let secs = (end_ns - span.start_ns) as f64 / 1e9;
        *self.totals.entry(span.name).or_insert(0.0) += secs;
        secs
    }

    /// A leaf span around `f`.
    fn time<R>(&mut self, name: &'static str, unit: Option<u32>, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, unit);
        let r = f();
        self.exit(id);
        r
    }

    fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Write every span, plus self time (span minus its children) summed
    /// by name.
    fn write(&self, path: &Path, unit_ids: &[String]) -> Result<(), String> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p as usize] = self_ns[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut self_by_name: BTreeMap<&str, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&self_ns) {
            *self_by_name.entry(s.name).or_insert(0.0) += *ns as f64 / 1e9;
        }
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::from("{\n\"units\": [");
        out.push_str(&unit_ids.iter().map(|u| format!("\"{u}\"")).collect::<Vec<_>>().join(", "));
        out.push_str("],\n\"self_s_by_name\": {");
        let rows: Vec<String> = self_by_name.iter().map(|(n, s)| format!("\"{n}\": {s}")).collect();
        out.push_str(&rows.join(", "));
        out.push_str("},\n\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"unit\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.unit),
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n}\n");
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Per-trial samples of one engine: seconds and instructions executed.
#[derive(Default)]
struct Samples {
    points: Vec<(f64, f64)>,
    ff_insts: u64,
    exec_insts: u64,
}

impl Samples {
    fn push(&mut self, secs: f64, ff_insts: u64, exec_insts: u64) {
        self.points.push((exec_insts as f64, secs));
        self.ff_insts += ff_insts;
        self.exec_insts += exec_insts;
    }

    fn secs(&self) -> f64 {
        self.points.iter().map(|p| p.1).sum()
    }

    fn guest_mips(&self) -> f64 {
        let secs = self.secs();
        if secs == 0.0 {
            0.0
        } else {
            self.exec_insts as f64 / secs / 1e6
        }
    }

    fn percentile_us(&self, p: f64) -> f64 {
        let mut secs: Vec<f64> = self.points.iter().map(|p| p.1).collect();
        secs.sort_by(f64::total_cmp);
        percentile(&secs, p) * 1e6
    }

    /// Fast-forwarded share of the work trials would otherwise redo.
    fn ff_ratio(&self) -> f64 {
        let work = self.ff_insts + self.exec_insts;
        if work == 0 {
            0.0
        } else {
            self.ff_insts as f64 / work as f64
        }
    }

    /// Least-squares fit of trial time on instructions executed:
    /// (fixed cost per trial in µs, cost per instruction in ns).
    fn fit(&self) -> (f64, f64) {
        let (intercept, slope) = least_squares(&self.points);
        (intercept * 1e6, slope * 1e9)
    }
}

/// What a unit's hand-driven trials tallied, for the engine comparison.
#[derive(Default, PartialEq)]
struct Tally {
    counts: OutcomeCounts,
    sdc_insts: Vec<u32>,
    sdc_by_inst: HashMap<(FuncId, InstId), u64>,
    pruned: u64,
}

impl Tally {
    fn merge(&mut self, batch: &Tally) {
        self.counts.merge(&batch.counts);
        self.sdc_insts.extend_from_slice(&batch.sdc_insts);
        for (loc, n) in &batch.sdc_by_inst {
            *self.sdc_by_inst.entry(*loc).or_insert(0) += n;
        }
        self.pruned += batch.pruned;
    }
}

struct Hand<'a> {
    w: &'a Workload,
    cfg: HarnessConfig,
    tr: Tracer,
    counts: BTreeMap<&'static str, f64>,
    engines: BTreeMap<&'static str, Samples>,
    store: SnapshotStore,
    log: CheckpointLog,
    /// Wall time of the trial loops with and without span recording.
    traced_loop_s: f64,
    untraced_loop_s: f64,
}

impl Hand<'_> {
    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0.0) += n as f64;
    }

    /// `build_matrix`, re-done call by call.
    fn build_units(&mut self, seed: u64) -> Vec<TrialUnit> {
        let spec = self.w.spec(seed);
        let mut units = Vec::new();
        let names: &[&str] = if self.w.benches.is_empty() {
            &flowery::workloads::NAMES
        } else {
            self.w.benches
        };
        for &name in names {
            let workload = flowery::workloads::workload(name, Scale::Standard);
            self.count("lang.src_bytes", workload.source.len() as u64);
            let raw = Arc::new(self.tr.time("lang.compile_s", None, || workload.compile()));
            let raw_prog = Arc::new(self.compile(&raw));
            units.push(TrialUnit::ir(UnitKey::new(name, Variant::Raw, 0.0, Layer::Ir), raw.clone()));
            units.push(TrialUnit::asm(
                UnitKey::new(name, Variant::Raw, 0.0, Layer::Asm),
                raw.clone(),
                raw_prog.clone(),
            ));
            self.count("passes.ir_insts", raw.static_size() as u64);
            let profile = spec.levels.iter().any(|&l| (l - 1.0).abs() >= 1e-9).then(|| {
                let mut cfg = CampaignConfig::with_trials(spec.profile_trials);
                cfg.seed = spec.profile_seed;
                cfg.threads = spec.threads;
                self.count("inject.profile_trials", spec.profile_trials);
                self.tr.time("inject.profile_s", None, || profile_sdc(&raw, &cfg))
            });
            for &level in &spec.levels {
                let plan = self.tr.time("passes.select_s", None, || match &profile {
                    Some(profile) if (level - 1.0).abs() >= 1e-9 => choose_protection(&raw, profile, level),
                    _ => ProtectionPlan::full(&raw),
                });
                let mut id = (*raw).clone();
                self.tr
                    .time("passes.duplicate_s", None, || duplicate_module(&mut id, &plan, &DupConfig::default()));
                let mut fl = id.clone();
                self.tr
                    .time("passes.flowery_s", None, || apply_flowery(&mut fl, &FloweryConfig::default()));
                self.count("passes.ir_insts", (id.static_size() + fl.static_size()) as u64);
                let (id, fl) = (Arc::new(id), Arc::new(fl));
                let id_prog = Arc::new(self.compile(&id));
                let fl_prog = Arc::new(self.compile(&fl));
                units.push(
                    TrialUnit::ir(UnitKey::new(name, Variant::Id, level, Layer::Ir), id.clone())
                        .with_raw(raw.clone(), None),
                );
                units.push(
                    TrialUnit::asm(UnitKey::new(name, Variant::Id, level, Layer::Asm), id, id_prog)
                        .with_raw(raw.clone(), Some(raw_prog.clone())),
                );
                units.push(
                    TrialUnit::asm(UnitKey::new(name, Variant::Flowery, level, Layer::Asm), fl, fl_prog)
                        .with_raw(raw.clone(), Some(raw_prog.clone())),
                );
            }
        }
        units
    }

    fn compile(&mut self, m: &Module) -> AsmProgram {
        let backend = flowery::backend::BackendConfig::default();
        let p = self.tr.time("backend.compile_s", None, || compile_module(m, &backend));
        self.count("backend.mir_insts", p.insts.len() as u64);
        p
    }

    /// Trials `range` of a unit's schedule, one `run_trial` call each; the
    /// tally and the loop's wall time. With `record`, every trial gets a
    /// span and a sample.
    fn trial_loop(
        &mut self,
        uid: u32,
        span: &'static str,
        engine: &'static str,
        range: std::ops::Range<u64>,
        record: bool,
        mut run_trial: impl FnMut(u64) -> TrialOutcome,
    ) -> (Tally, f64) {
        let mut tally = Tally::default();
        let started = Instant::now();
        // The unrecorded loop is one span, so its time is not booked as the
        // enclosing unit's self time.
        let parent = self
            .tr
            .enter(if record { "trace.trial_loop" } else { "trace.untraced_loop" }, Some(uid));
        for i in range {
            let t = if record {
                let id = self.tr.enter(span, Some(uid));
                let t = run_trial(i);
                let secs = self.tr.exit(id);
                self.engines.entry(engine).or_default().push(secs, t.ff_insts, t.exec_insts);
                t
            } else {
                run_trial(i)
            };
            tally.counts.record(t.outcome);
            tally.pruned += u64::from(t.pruned);
            if t.outcome == Outcome::Sdc {
                if let Some(idx) = t.injected_inst {
                    tally.sdc_insts.push(idx);
                }
                if let Some(loc) = t.injected_at {
                    *tally.sdc_by_inst.entry(loc).or_insert(0) += 1;
                }
            }
        }
        self.tr.exit(parent);
        (tally, started.elapsed().as_secs_f64())
    }

    /// A unit's shortened schedule, batch by batch: each batch runs once
    /// with spans and once without (alternating which goes first, so
    /// neither always has the warmer cache), must tally alike both times,
    /// and is appended to the hand-written checkpoint as the engine would.
    /// The difference between the two loops' times is the tracing overhead.
    fn run_batches(
        &mut self,
        uid: u32,
        key: &UnitKey,
        span: &'static str,
        engine: &'static str,
        prune_table: u64,
        mut run_trial: impl FnMut(u64) -> TrialOutcome,
    ) -> Result<Tally, String> {
        let mut unit = Tally::default();
        for batch in 0..self.cfg.max_batches() {
            let size = self.cfg.batch_size;
            let range = batch * size..((batch + 1) * size).min(self.cfg.max_trials);
            let traced_first = (u64::from(uid) + batch) % 2 == 0;
            let (first, first_s) = self.trial_loop(uid, span, engine, range.clone(), traced_first, &mut run_trial);
            let (second, second_s) = self.trial_loop(uid, span, engine, range, !traced_first, &mut run_trial);
            if first != second {
                return Err(format!("{key}: recording spans changed the trials' outcomes"));
            }
            let (traced_s, untraced_s) = if traced_first { (first_s, second_s) } else { (second_s, first_s) };
            self.traced_loop_s += traced_s;
            self.untraced_loop_s += untraced_s;

            let rec = BatchRecord {
                unit: key.clone(),
                batch,
                counts: first.counts,
                sdc_by_inst: first.sdc_by_inst.clone(),
                sdc_insts: first.sdc_insts.clone(),
                fault_model: self.cfg.effective_model(),
                region_counts: Vec::new(),
                prune_table,
                pruned: first.pruned,
            };
            self.count("harness.ckpt_records", 1);
            let log = &self.log;
            self.tr.time("harness.ckpt_append_s", Some(uid), || log.record_batch(&rec))?;
            unit.merge(&first);
        }
        Ok(unit)
    }

    fn asm_unit(&mut self, uid: u32, unit: &TrialUnit) -> Result<Tally, String> {
        let u = Some(uid);
        let (m, p) = (&*unit.module, &**unit.program.as_ref().expect("asm unit has a program"));
        let exec = self.cfg.exec.clone();
        let hash = program_hash(p);
        let golden = self.tr.time("backend.golden_s", u, || Machine::new(m, p).run(&exec, None));
        let mut runner = AsmTrialRunner::with_golden(m, p, golden, &exec);
        let set = self.tr.time("backend.snap_capture_s", u, || runner.build_snapshots());
        self.count("backend.snap_count", set.len() as u64);
        let bytes = self.tr.time("backend.snapio_encode_s", u, || set.to_bytes(hash));
        self.count("backend.snapio_bytes", bytes.len() as u64);
        self.tr
            .time("backend.snapio_decode_s", u, || AsmSnapshotSet::from_bytes(&bytes, m, p, hash))
            .map_err(|e| format!("{}: snapshot set does not decode: {e}", unit.key))?;
        let store = &self.store;
        let saved = self.tr.time("harness.snapstore_save_s", u, || store.save_asm(&set, hash));
        let loaded = self.tr.time("harness.snapstore_load_s", u, || store.load_asm(m, p, hash));
        if !saved || loaded.is_none() {
            return Err(format!("{}: snapshot store round trip failed", unit.key));
        }
        let prior = self.cfg.static_prune.then(|| {
            let table = Arc::new(self.tr.time("analysis.bits_s", u, || analyze_bits(m, p)));
            self.count("analysis.bits_proven_pairs", table.proven_pairs);
            let cap = GoldenCache::SITE_TRACE_CAP;
            let map = self
                .tr
                .time("backend.site_trace_s", u, || Machine::new(m, p).site_trace(&exec, cap));
            let table_hash = table.fingerprint(hash);
            StaticPrior::new(table, Arc::new(map), table_hash)
        });
        let set = Arc::new(set);
        runner.attach_snapshots(set.clone());

        let (seed, model) = (self.cfg.seed, self.cfg.effective_model());
        let engine = exec.executor;
        // The first trial pays the engine's lazy translation; keep it out
        // of the samples (trials are pure, so running one twice is free).
        self.tr
            .time("backend.first_trial_s", u, || runner.run_trial_model(seed, 0, model, &[]));
        let prune_table = prior.as_ref().map_or(0, |p| p.table_hash());
        let tally =
            self.run_batches(uid, &unit.key, trial_span(engine), engine.name(), prune_table, |i| match &prior {
                Some(prior) => {
                    let (t, pruned) = runner.run_trial_model_pruned(seed, i, model, &[], &|s| prior.masked_inst(s));
                    TrialOutcome::asm(t, pruned)
                }
                None => TrialOutcome::asm(runner.run_trial_model(seed, i, model, &[]), false),
            })?;

        for other in [ExecMode::Native, ExecMode::Compiled, ExecMode::Interp] {
            if other == engine {
                continue;
            }
            let exec = flowery::ir::interp::ExecConfig { executor: other, ..exec.clone() };
            let mut runner = AsmTrialRunner::with_golden(m, p, set.golden().clone(), &exec);
            runner.attach_snapshots(set.clone());
            self.tr
                .time("backend.first_trial_s", u, || runner.run_trial_model(seed, 0, model, &[]));
            let n = OTHER_ENGINE_TRIALS.min(self.cfg.max_trials);
            self.trial_loop(uid, trial_span(other), other.name(), 0..n, true, |i| {
                TrialOutcome::asm(runner.run_trial_model(seed, i, model, &[]), false)
            });
        }
        Ok(tally)
    }

    fn ir_unit(&mut self, uid: u32, unit: &TrialUnit) -> Result<Tally, String> {
        let u = Some(uid);
        let m = &*unit.module;
        let exec = self.cfg.exec.clone();
        let hash = module_hash(m);
        let golden = self.tr.time("ir.golden_s", u, || Interpreter::new(m).run(&exec, None));
        let mut runner = IrTrialRunner::with_golden(m, golden, &exec);
        let set = self.tr.time("ir.snap_capture_s", u, || runner.build_snapshots());
        self.count("ir.snap_count", set.len() as u64);
        let bytes = self.tr.time("ir.snapio_encode_s", u, || set.to_bytes(hash));
        self.count("ir.snapio_bytes", bytes.len() as u64);
        self.tr
            .time("ir.snapio_decode_s", u, || IrSnapshotSet::from_bytes(&bytes, m, hash))
            .map_err(|e| format!("{}: snapshot set does not decode: {e}", unit.key))?;
        let store = &self.store;
        let saved = self.tr.time("harness.snapstore_save_s", u, || store.save_ir(&set, hash));
        let loaded = self.tr.time("harness.snapstore_load_s", u, || store.load_ir(m, hash));
        if !saved || loaded.is_none() {
            return Err(format!("{}: snapshot store round trip failed", unit.key));
        }
        runner.attach_snapshots(Arc::new(set));
        let (seed, model) = (self.cfg.seed, self.cfg.effective_model());
        self.tr
            .time("ir.first_trial_s", u, || runner.run_trial_model(seed, 0, model, &[]));
        self.run_batches(uid, &unit.key, "ir.trial", "ir", 0, |i| {
            let t = runner.run_trial_model(seed, i, model, &[]);
            TrialOutcome {
                outcome: t.outcome,
                injected_inst: None,
                injected_at: t.injected_at,
                ff_insts: t.ff_insts,
                exec_insts: t.exec_insts,
                pruned: false,
            }
        })
    }
}

/// The two layers' trial outcomes under one shape.
struct TrialOutcome {
    outcome: Outcome,
    injected_inst: Option<u32>,
    injected_at: Option<(FuncId, InstId)>,
    ff_insts: u64,
    exec_insts: u64,
    pruned: bool,
}

impl TrialOutcome {
    fn asm(t: flowery::inject::campaign::AsmTrialOutcome, pruned: bool) -> TrialOutcome {
        TrialOutcome {
            outcome: t.outcome,
            injected_inst: t.injected_inst,
            injected_at: None,
            ff_insts: t.ff_insts,
            exec_insts: t.exec_insts,
            pruned,
        }
    }
}

/// `a / b`, or 0 where the workload gave the denominator nothing to count.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn trial_span(engine: ExecMode) -> &'static str {
    match engine {
        ExecMode::Native => "backend.native.trial",
        ExecMode::Compiled => "backend.compiled.trial",
        ExecMode::Interp => "backend.interp.trial",
    }
}

pub fn traced(w: &Workload, seed: u64) -> Result<RunResult, String> {
    let work = work_dir()?;
    let result = traced_in(w, seed, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn traced_in(w: &Workload, seed: u64, work: &Path) -> Result<RunResult, String> {
    let cfg = w.config(seed);
    let (mut attempted, mut failed) = (0u64, 0u64);

    // 1. One full staged repetition: harness-level spans and counters.
    let full_dir = work.join("full");
    if w.resume {
        let prep = work.join("prep");
        prepare_resume(w, seed, &prep)?;
        copy_dir(&prep, &full_dir)?;
    }
    let full = run_rep(w, seed, &full_dir)?;
    let mut bad: Vec<String> = full.report.pending.iter().map(|k| k.id()).collect();
    if let Some(pinned) = load_expected(w, seed)? {
        bad.extend(mismatches(&pinned, &fingerprints(&full.report.units)));
    }
    attempted += full.units.len() as u64;
    failed += bad.len() as u64;
    let _ = std::fs::remove_dir_all(&full_dir);

    // 2. The same campaign by hand, shortened, one thread.
    let short = HarnessConfig {
        max_trials: cfg.max_trials.min(2 * w.batch),
        min_trials: cfg.min_trials.min(2 * w.batch),
        threads: 1,
        ..cfg.clone()
    };
    let hand_log = work.join("hand.jsonl");
    let mut hand = Hand {
        w,
        cfg: short.clone(),
        tr: Tracer::new(),
        counts: BTreeMap::new(),
        engines: BTreeMap::new(),
        store: SnapshotStore::at(work.join("hand.snaps")),
        log: CheckpointLog::create(&hand_log, &short.header())?,
        traced_loop_s: 0.0,
        untraced_loop_s: 0.0,
    };
    let root = hand.tr.enter("trace.hand_driven", None);
    let jit_before = jit_stats();

    let build = hand.tr.enter("trace.build_units", None);
    let hand_units = hand.build_units(seed);
    hand.tr.exit(build);
    // Mirror-drift guard: if `build_matrix` changes, this file must too.
    let reference = hand.tr.time("harness.build_matrix_s", None, || build_matrix(&w.spec(seed)));
    if matrix_fingerprint(&hand_units) != matrix_fingerprint(&reference) {
        return Err("the hand-built matrix no longer matches build_matrix(): update trace.rs".into());
    }
    drop(reference);
    let units: Vec<TrialUnit> = hand_units.into_iter().filter(|u| w.keeps(u)).collect();

    let mut tallies = Vec::new();
    for (uid, unit) in units.iter().enumerate() {
        let span = hand.tr.enter("trace.unit", Some(uid as u32));
        let tally = match unit.key.layer {
            Layer::Asm => hand.asm_unit(uid as u32, unit)?,
            Layer::Ir => hand.ir_unit(uid as u32, unit)?,
        };
        hand.tr.exit(span);
        tallies.push(tally);
    }
    let jit = jit_stats();
    let Hand {
        mut tr,
        mut counts,
        engines,
        log,
        traced_loop_s,
        untraced_loop_s,
        ..
    } = hand;
    drop(log);
    counts.insert("harness.ckpt_bytes", disk_bytes(&hand_log) as f64);
    counts.insert("harness.snapstore_bytes", disk_bytes(&work.join("hand.snaps")) as f64);
    tr.time("harness.ckpt_load_s", None, || load_checkpoint_full(&hand_log))
        .map(|_| ())?;
    tr.time("harness.ckpt_compact_s", None, || compact(&hand_log))?;

    // 3. The engine on the same shortened schedule, warm cache, 1 and 2
    // threads. What it adds over the hand-driven trials is scheduling.
    let cache = GoldenCache::new();
    tr.time("trace.prewarm_short", None, || prewarm(&units, &cache, &short));
    let one = tr.time("harness.run_units_1t_s", None, || {
        run_units(&units, &short, &cache, RunOptions::default())
    });
    let two_cfg = HarnessConfig { threads: 2, ..short.clone() };
    let two = tr.time("harness.run_units_2t_s", None, || {
        run_units(&units, &two_cfg, &cache, RunOptions::default())
    });
    tr.exit(root);

    // Hand-driven and engine results must be the same campaign.
    attempted += units.len() as u64;
    for ((unit, tally), (a, b)) in units.iter().zip(&tallies).zip(one.units.iter().zip(&two.units)) {
        let same = |r: &flowery::harness::UnitResult| {
            r.counts == tally.counts
                && r.sdc_insts == tally.sdc_insts
                && r.sdc_by_inst == tally.sdc_by_inst
                && r.pruned == tally.pruned
        };
        if !same(a) || !same(b) {
            bad.push(unit.key.id());
            failed += 1;
        }
    }
    if one.units.len() != units.len() || two.units.len() != units.len() {
        failed += 1;
        bad.push("(engine left units pending on the short schedule)".into());
    }
    for id in &bad {
        eprintln!("[ledger] {} traced: unit {id} failed", w.name);
    }

    let unit_ids: Vec<String> = units.iter().map(|u| u.key.id()).collect();
    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}.json", w.name));
    tr.write(&trace_path, &unit_ids)?;
    eprintln!("[ledger] {} traced: {} spans -> {}", w.name, tr.spans.len(), trace_path.display());

    // 4. Assemble every per-layer metric; what the workload does not
    // exercise stays 0.
    let mut values: BTreeMap<&str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    for m in &PER_LAYER {
        if m.unit == "s" {
            values.insert(m.name, tr.total(m.name));
        }
    }
    for (name, n) in &counts {
        if let Some(v) = values.get_mut(name) {
            *v = *n;
        }
    }
    let mut put = |name: &'static str, v: f64| {
        assert!(values.insert(name, v).is_some(), "metric '{name}' is not in the catalog");
    };
    let profile_s = tr.total("inject.profile_s");
    if profile_s > 0.0 {
        put("inject.profile_trials_per_s", counts["inject.profile_trials"] / profile_s);
    }
    put("backend.jit_compile_s", (jit.compile_ms - jit_before.compile_ms) / 1e3);
    put("backend.jit_programs", (jit.programs - jit_before.programs) as f64);
    put("backend.jit_code_bytes", (jit.code_bytes - jit_before.code_bytes) as f64);
    put("backend.jit_fallbacks", jit.fallbacks as f64);
    let empty = Samples::default();
    let engine = |name: &str| engines.get(name).unwrap_or(&empty);
    for (e, mips, p50, p99) in [
        (
            "native",
            "backend.native.guest_mips",
            "backend.native.trial_us_p50",
            "backend.native.trial_us_p99",
        ),
        (
            "compiled",
            "backend.compiled.guest_mips",
            "backend.compiled.trial_us_p50",
            "backend.compiled.trial_us_p99",
        ),
        (
            "interp",
            "backend.interp.guest_mips",
            "backend.interp.trial_us_p50",
            "backend.interp.trial_us_p99",
        ),
        ("ir", "ir.guest_mips", "ir.trial_us_p50", "ir.trial_us_p99"),
    ] {
        put(mips, engine(e).guest_mips());
        put(p50, engine(e).percentile_us(50.0));
        put(p99, engine(e).percentile_us(99.0));
    }
    let (fixed_us, ns_per_inst) = engine("native").fit();
    put("backend.native.trial_fixed_us", fixed_us);
    put("backend.native.ns_per_inst", ns_per_inst);
    let (fixed_us, ns_per_inst) = engine("ir").fit();
    put("ir.trial_fixed_us", fixed_us);
    put("ir.ns_per_inst", ns_per_inst);
    put("backend.ff_ratio", engine(cfg.exec.executor.name()).ff_ratio());
    put("ir.ff_ratio", engine("ir").ff_ratio());

    let asm_decided: u64 = full
        .report
        .units
        .iter()
        .filter(|u| u.key.layer == Layer::Asm)
        .map(|u| u.trials)
        .sum();
    let pruned: u64 = full.report.units.iter().map(|u| u.pruned).sum();
    if asm_decided > 0 {
        put("analysis.masked_draw_frac", ratio(pruned as f64, asm_decided as f64));
    }

    put("harness.build_matrix_s", full.build_matrix_s);
    put("harness.prewarm_s", full.prewarm_s);
    put("harness.run_units_s", full.run_units_s);
    put("harness.region_records_s", full.region_records_s);
    let (t1, t2) = (tr.total("harness.run_units_1t_s"), tr.total("harness.run_units_2t_s"));
    put("harness.parallel_eff", ratio(t1, 2.0 * t2));
    let hand_trial_s = engine(cfg.exec.executor.name()).secs() + engine("ir").secs();
    put("harness.sched_overhead_frac", 1.0 - ratio(hand_trial_s, t1));
    let m = &full.report.metrics;
    put("harness.cache_hit_rate", m.cache_hit_rate);
    put("harness.snap_shared", m.snap_shared as f64);
    put("harness.goldens_run", m.goldens_run as f64);
    put("harness.decided_trials", full.decided_trials as f64);
    put("harness.executed_trials", full.executed_trials as f64);
    let wasted = full.executed_trials.saturating_sub(full.decided_trials);
    put("harness.wasted_batch_frac", ratio(wasted as f64, full.executed_trials as f64));
    put("harness.unit_fail_share", ratio(failed as f64, attempted as f64));
    put("harness.trace_overhead_frac", ratio(traced_loop_s - untraced_loop_s, untraced_loop_s));

    let metrics: Metrics = values
        .into_iter()
        .map(|(name, v)| (name.to_string(), (v, unit_of(name))))
        .collect();
    Ok(RunResult { attempted, failed: failed.min(attempted), metrics })
}
