//! The campaign coordinator: owns the experiment plan, the checkpoint,
//! and the lease table; workers connect over TCP and drain the schedule.
//!
//! ## Determinism
//!
//! The coordinator never trusts arrival order. Results are merged
//! idempotently into the same [`UnitProgress`] fold the in-process engine
//! uses (duplicates are dropped after an equality check; conflicting
//! duplicates abort the campaign), and at the end the checkpoint is
//! [`compact`]ed into canonical form — so a distributed run's checkpoint
//! is byte-identical to a single-process run of the same plan, including
//! after worker deaths and lease requeues.
//!
//! ## Failure model
//!
//! Worker death is detected two ways, whichever fires first: the
//! per-connection read timeout (3× the heartbeat interval) and the lease
//! deadline in the [`LeaseTable`] (refreshed by any frame from the
//! holder). Both paths requeue the worker's outstanding batches; because
//! every batch is a pure function of `(seed, indices)`, a batch that was
//! secretly completed anyway just merges as a duplicate.
//!
//! Ctrl-C (or [`flowery_harness::shutdown::request`]) starts a drain:
//! workers get `Shutdown` at their next lease request, in-flight results
//! are still merged, and the checkpoint is flushed in the same format
//! `--resume` reads.

use crate::lease::LeaseTable;
use crate::protocol::{ClientMsg, PlanSpec, ScopeSpec, ServerMsg, PROTO_VERSION};
use crate::{framing, FrameError};
use flowery_harness::checkpoint::{compact, load as load_checkpoint, write_canonical_full, CheckpointLog, Header};
use flowery_harness::{
    build_matrix, compose_units, fold_task_result, matrix_fingerprint, plan_diff, region_fingerprint, run_units,
    Baseline, BatchOutcome, BatchRecord, CampaignReport, DiffReport, DiffTask, DiffUnitReport, DistStats, GoldenCache,
    HarnessConfig, Layer, Metrics, RegionTaskResult, RunOptions, TrialUnit, UnitKey, UnitProgress, WorkerStats,
};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Coordinator knobs. The defaults suit a LAN; tests shrink the
/// intervals.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Address to listen on, e.g. `0.0.0.0:7070` (`:0` for an ephemeral
    /// port, see [`Coordinator::local_addr`]).
    pub addr: String,
    /// Checkpoint path; written during the run, compacted at the end.
    pub checkpoint: PathBuf,
    /// Preload an existing checkpoint instead of truncating it.
    pub resume: bool,
    /// Expected heartbeat cadence; the per-connection read timeout is 3×
    /// this and lease deadlines are 4×.
    pub heartbeat_ms: u64,
    /// Batches granted per lease (all from one unit).
    pub lease_batches: usize,
    /// How long a drain waits for workers to disconnect before
    /// finalizing anyway.
    pub drain_grace_ms: u64,
    /// Local threads for building the matrix (profiling campaigns).
    pub threads: usize,
    /// Print live progress to stderr.
    pub verbose: bool,
    /// Incremental mode: a baseline checkpoint to diff against. Workers
    /// then lease region-scoped batches for changed regions only, and the
    /// coordinator writes the *composed* region checkpoint at the end
    /// (next diff's baseline) instead of a batch log. Run such a
    /// coordinator with [`serve_diff`], not [`serve`].
    pub baseline: Option<PathBuf>,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            addr: "127.0.0.1:7070".into(),
            checkpoint: PathBuf::from("campaign.jsonl"),
            resume: false,
            heartbeat_ms: 2000,
            lease_batches: 4,
            drain_grace_ms: 30_000,
            threads: 0,
            verbose: false,
            baseline: None,
        }
    }
}

/// What `run` hands back: the deterministic report plus the
/// distribution-side counters.
pub struct DistReport {
    pub report: CampaignReport,
    pub stats: DistStats,
    /// True when the run drained early (Ctrl-C / requested shutdown) and
    /// undecided units remain.
    pub interrupted: bool,
}

/// What a diff-mode run hands back: the composed incremental report plus
/// the distribution-side counters.
pub struct DistDiffReport {
    pub report: DiffReport,
    pub stats: DistStats,
    /// True when the run drained early; incomplete region profiles were
    /// still composed, but no composed checkpoint was written.
    pub interrupted: bool,
}

/// Diff-mode coordinator state: the plan from [`plan_diff`] plus the
/// fragments workers have reported so far. Fragments are folded in batch
/// order at finalize, so the composed result is bit-identical to a local
/// `flowery diff` of the same plan regardless of worker count or arrival
/// order.
struct DiffState {
    reports: Vec<DiffUnitReport>,
    tasks: Vec<DiffTask>,
    /// Wire form of each task, indexed like `tasks`.
    specs: Vec<ScopeSpec>,
    batches_per_task: Vec<u64>,
    /// Per task: batch index → that slice's result.
    frags: Vec<HashMap<u64, RegionTaskResult>>,
    region_fp: u64,
}

struct CoordState {
    progress: Vec<UnitProgress>,
    leases: LeaseTable,
    workers: HashMap<u64, WorkerStats>,
    next_worker_id: u64,
    log: Option<CheckpointLog>,
    batches_merged: u64,
    shutting_down: bool,
    finalized: bool,
    error: Option<String>,
    /// `Some` switches the coordinator to incremental (diff) mode.
    diff: Option<DiffState>,
}

impl CoordState {
    fn all_decided(&self) -> bool {
        match &self.diff {
            Some(d) => (0..d.tasks.len()).all(|ti| d.frags[ti].len() as u64 >= d.batches_per_task[ti]),
            None => self.progress.iter().all(|p| p.decided().is_some()),
        }
    }

    fn live_workers(&self) -> u64 {
        self.workers.values().filter(|w| w.live).count() as u64
    }

    fn dist_stats(&self) -> DistStats {
        let mut per_worker: Vec<WorkerStats> = self.workers.values().cloned().collect();
        per_worker.sort_by_key(|w| w.id);
        DistStats {
            workers_live: self.live_workers(),
            leases_outstanding: self.leases.outstanding(),
            batches_requeued: self.leases.requeues(),
            per_worker,
        }
    }
}

struct Ctx {
    units: Vec<TrialUnit>,
    key_index: HashMap<UnitKey, usize>,
    plan: PlanSpec,
    hcfg: HarnessConfig,
    header: Header,
    fingerprint: u64,
    ccfg: CoordinatorConfig,
    start: Instant,
    state: Mutex<CoordState>,
}

impl Ctx {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn lease_ttl_ms(&self) -> u64 {
        self.ccfg.heartbeat_ms * 4
    }
}

/// A bound coordinator, ready to [`run`](Coordinator::run). Binding is
/// split from running so callers (tests, scripts) can learn the actual
/// port of an `:0` listen address before starting workers.
pub struct Coordinator {
    listener: TcpListener,
    ctx: Arc<Ctx>,
}

impl Coordinator {
    pub fn bind(plan: PlanSpec, hcfg: HarnessConfig, ccfg: CoordinatorConfig) -> Result<Coordinator, String> {
        let units = build_matrix(&plan.to_spec(ccfg.threads));
        if units.is_empty() {
            return Err("plan produces an empty matrix".into());
        }
        let fingerprint = matrix_fingerprint(&units);
        let header = hcfg.header();
        let max_batches = hcfg.max_batches();
        let mut progress: Vec<UnitProgress> = units.iter().map(|_| UnitProgress::new(max_batches)).collect();
        let key_index: HashMap<UnitKey, usize> = units.iter().enumerate().map(|(i, u)| (u.key.clone(), i)).collect();

        // Incremental mode: plan the diff up front. Workers never see the
        // baseline — only the per-region scope specs derived from it.
        let diff = match &ccfg.baseline {
            Some(base) => {
                if ccfg.resume {
                    return Err("--resume is not supported for an incremental (diff) serve".into());
                }
                let baseline = Baseline::load(base, &header)?;
                if baseline.pre_region && ccfg.verbose {
                    eprintln!("  [serve] baseline {} predates region records; every region runs fresh", base.display());
                }
                let cache = GoldenCache::new();
                let (reports, tasks) = plan_diff(&units, &hcfg, &cache, &baseline, &HashMap::new());
                let specs: Vec<ScopeSpec> = tasks
                    .iter()
                    .map(|t| ScopeSpec {
                        unit: units[t.unit_index].key.clone(),
                        region: t.region.clone(),
                        trials: t.trials,
                        seed: t.seed,
                        mass: t.mass,
                    })
                    .collect();
                let batches_per_task: Vec<u64> = tasks.iter().map(|t| t.trials.div_ceil(hcfg.batch_size)).collect();
                let frags = tasks.iter().map(|_| HashMap::new()).collect();
                let region_fp = region_fingerprint(&units, &cache, &hcfg);
                Some(DiffState { reports, tasks, specs, batches_per_task, frags, region_fp })
            }
            None => None,
        };

        // Resume: preload the existing log; otherwise start fresh. Diff
        // mode keeps no batch log — the composed region checkpoint is
        // written whole at finalize.
        let log = if diff.is_some() {
            None
        } else if ccfg.resume && ccfg.checkpoint.exists() {
            let (h, records) = load_checkpoint(&ccfg.checkpoint)?;
            // Executor differences are provenance, not schedule: engines
            // are bit-identical, so mixed-executor resumes are sound.
            if let Some(why) = h.describe_mismatch(&header) {
                return Err(format!(
                    "{}: checkpoint was written with different campaign parameters — {why}",
                    ccfg.checkpoint.display()
                ));
            }
            for rec in &records {
                let Some(&ui) = key_index.get(&rec.unit) else { continue };
                if rec.batch >= max_batches || progress[ui].has_batch(rec.batch) {
                    continue;
                }
                progress[ui].insert(rec.batch, BatchOutcome::from_record(rec), &header);
            }
            Some(CheckpointLog::append_to(&ccfg.checkpoint)?)
        } else {
            Some(CheckpointLog::create(&ccfg.checkpoint, &header)?)
        };

        let listener = TcpListener::bind(&ccfg.addr).map_err(|e| format!("bind {}: {e}", ccfg.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener nonblocking: {e}"))?;

        let leases = match &diff {
            Some(d) => LeaseTable::with_limits(d.batches_per_task.clone()),
            None => LeaseTable::new(units.len(), max_batches),
        };
        let state = CoordState {
            progress,
            leases,
            workers: HashMap::new(),
            next_worker_id: 1,
            log,
            batches_merged: 0,
            shutting_down: false,
            finalized: false,
            error: None,
            diff,
        };
        let ctx = Arc::new(Ctx {
            units,
            key_index,
            plan,
            hcfg,
            header,
            fingerprint,
            ccfg,
            start: Instant::now(),
            state: Mutex::new(state),
        });
        Ok(Coordinator { listener, ctx })
    }

    /// The actual listen address (resolves `:0`).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// Accept workers and run the campaign to completion (or drain on a
    /// requested shutdown). Returns the same deterministic report a local
    /// run of the plan produces.
    pub fn run(self) -> Result<DistReport, String> {
        if self.ctx.state.lock().unwrap().diff.is_some() {
            return Err("coordinator was bound with a baseline; use run_diff / serve_diff".into());
        }
        let (ctx, interrupted) = self.run_loop()?;
        finalize(&ctx, interrupted)
    }

    /// Diff-mode counterpart of [`run`](Coordinator::run): drain the
    /// scoped schedule, fold worker fragments in batch order, compose, and
    /// write the composed region checkpoint. Bit-identical to a local
    /// `flowery diff` of the same plan and baseline.
    pub fn run_diff(self) -> Result<DistDiffReport, String> {
        if self.ctx.state.lock().unwrap().diff.is_none() {
            return Err("coordinator has no baseline; use run / serve".into());
        }
        let (ctx, interrupted) = self.run_loop()?;
        finalize_diff(&ctx, interrupted)
    }

    fn run_loop(self) -> Result<(Arc<Ctx>, bool), String> {
        let ctx = self.ctx;
        let mut handlers = Vec::new();
        let mut last_render = Instant::now();
        let interrupted = loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let ctx = ctx.clone();
                    handlers.push(std::thread::spawn(move || handle_connection(stream, &ctx)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("accept: {e}")),
            }
            {
                let mut st = ctx.state.lock().unwrap();
                st.leases.expire(ctx.now_ms());
                if let Some(e) = &st.error {
                    let e = e.clone();
                    st.shutting_down = true;
                    drop(st);
                    drain(&ctx);
                    return Err(e);
                }
                if st.all_decided() {
                    break false;
                }
                if flowery_harness::shutdown::requested() {
                    break true;
                }
                if ctx.ccfg.verbose && last_render.elapsed() >= Duration::from_secs(2) {
                    last_render = Instant::now();
                    eprintln!("  [serve] {}", st.dist_stats().render());
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        };

        drain(&ctx);
        for h in handlers {
            let _ = h.join();
        }
        Ok((ctx, interrupted))
    }
}

/// Tell workers to stop (at their next lease request) and wait for them
/// to disconnect, up to the configured grace period. In-flight results
/// keep merging during the wait.
fn drain(ctx: &Ctx) {
    ctx.state.lock().unwrap().shutting_down = true;
    let deadline = Instant::now() + Duration::from_millis(ctx.ccfg.drain_grace_ms);
    while Instant::now() < deadline {
        if ctx.state.lock().unwrap().live_workers() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Flush + compact the checkpoint, then fold it into the final report
/// without executing anything (goldens are computed locally for the
/// per-unit reference fields).
fn finalize(ctx: &Ctx, interrupted: bool) -> Result<DistReport, String> {
    let stats = {
        let mut st = ctx.state.lock().unwrap();
        st.finalized = true;
        st.log = None; // close the writer before rewriting the file
        st.dist_stats()
    };
    compact(&ctx.ccfg.checkpoint)?;
    let (_, records) = load_checkpoint(&ctx.ccfg.checkpoint)?;
    let cache = GoldenCache::new();
    let report = run_units(
        &ctx.units,
        &ctx.hcfg,
        &cache,
        RunOptions { preloaded: records, replay_only: true, ..Default::default() },
    );
    Ok(DistReport { report, stats, interrupted })
}

/// Diff-mode finalize: fold every task's fragments in batch-index order
/// (the same order a local run executes them), compose the per-unit
/// reports, and — on a clean completion — write the composed region
/// checkpoint, the next diff's baseline.
fn finalize_diff(ctx: &Ctx, interrupted: bool) -> Result<DistDiffReport, String> {
    let (stats, diff) = {
        let mut st = ctx.state.lock().unwrap();
        st.finalized = true;
        (st.dist_stats(), st.diff.take())
    };
    let mut d = diff.ok_or("coordinator is not in diff mode")?;
    let metrics = Metrics::with_mode(ctx.hcfg.exec.executor);
    for rep in &d.reports {
        let (reused, rerun, _) = rep.fate_counts();
        metrics.record_region_plan(rep.regions.len() as u64, reused, rerun, rep.trials_saved);
    }
    for (ti, task) in d.tasks.iter().enumerate() {
        let mut batches: Vec<u64> = d.frags[ti].keys().copied().collect();
        batches.sort_unstable();
        for b in batches {
            let r = &d.frags[ti][&b];
            let engine = ctx.units[task.unit_index].engine(&ctx.hcfg.exec, true);
            metrics.record_batch(&r.counts, r.ff_insts, r.exec_insts, engine);
            fold_task_result(&mut d.reports[task.unit_index].regions[task.region_index].profile, r);
        }
    }
    compose_units(&mut d.reports);
    let metrics = metrics.snapshot(ctx.units.len(), 0, GoldenCache::new().stats());
    let report = DiffReport { units: d.reports, metrics };
    if !interrupted {
        write_canonical_full(&ctx.ccfg.checkpoint, &ctx.header, &[], &report.records())?;
    }
    Ok(DistDiffReport { report, stats, interrupted })
}

/// Per-connection protocol loop. Any read failure releases the worker's
/// leases; the distinction between a clean goodbye, a closed socket, and
/// a heartbeat timeout only matters for logging.
fn handle_connection(mut stream: TcpStream, ctx: &Ctx) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(ctx.ccfg.heartbeat_ms * 3)));
    let mut worker_id: Option<u64> = None;
    let end: Result<&str, FrameError> = loop {
        let msg: ClientMsg = match framing::read_frame(&mut stream) {
            Ok(m) => m,
            Err(e) => break Err(e),
        };
        if let Some(id) = worker_id {
            ctx.state.lock().unwrap().leases.touch(id, ctx.now_ms(), ctx.lease_ttl_ms());
        }
        match msg {
            ClientMsg::Hello { proto_version } => {
                if proto_version != PROTO_VERSION {
                    let msg = format!("protocol version {proto_version} != {PROTO_VERSION}");
                    let _ = framing::write_frame(&mut stream, &ServerMsg::Error { msg });
                    break Ok("version mismatch");
                }
                let id = {
                    let mut st = ctx.state.lock().unwrap();
                    let id = st.next_worker_id;
                    st.next_worker_id += 1;
                    st.workers.insert(id, WorkerStats::new(id));
                    id
                };
                worker_id = Some(id);
                let welcome = ServerMsg::Welcome {
                    worker_id: id,
                    plan: ctx.plan.clone(),
                    cfg: ctx.hcfg.clone(),
                    heartbeat_ms: ctx.ccfg.heartbeat_ms,
                };
                if framing::write_frame(&mut stream, &welcome).is_err() {
                    break Ok("welcome write failed");
                }
            }
            ClientMsg::Ready { fingerprint, models_hash } => {
                if fingerprint != ctx.fingerprint {
                    let msg = format!(
                        "matrix fingerprint {fingerprint:016x} != coordinator's {:016x} (divergent build?)",
                        ctx.fingerprint
                    );
                    let _ = framing::write_frame(&mut stream, &ServerMsg::Error { msg });
                    break Ok("fingerprint mismatch");
                }
                let ours = flowery_faultmodel::registry_hash();
                if models_hash != ours {
                    let msg = format!(
                        "fault-model registry {models_hash:016x} != coordinator's {ours:016x} \
                         (divergent model sets would sample different faults)"
                    );
                    let _ = framing::write_frame(&mut stream, &ServerMsg::Error { msg });
                    break Ok("fault-model registry mismatch");
                }
            }
            ClientMsg::LeaseRequest => {
                let Some(id) = worker_id else {
                    break Ok("lease before hello");
                };
                let resp = {
                    let mut st = ctx.state.lock().unwrap();
                    if st.finalized || st.shutting_down {
                        ServerMsg::Shutdown { reason: "campaign draining".into() }
                    } else if st.all_decided() {
                        ServerMsg::Shutdown { reason: "campaign complete".into() }
                    } else {
                        let CoordState { leases, progress, diff, .. } = &mut *st;
                        match diff {
                            Some(d) => {
                                let grant = leases.claim(
                                    id,
                                    ctx.now_ms(),
                                    ctx.lease_ttl_ms(),
                                    ctx.ccfg.lease_batches,
                                    |ti| d.frags[ti].len() as u64 >= d.batches_per_task[ti],
                                    |ti, b| d.frags[ti].contains_key(&b),
                                );
                                match grant.first() {
                                    Some(&(ti, _)) => ServerMsg::ScopedLease {
                                        scope: ti as u32,
                                        spec: d.specs[ti].clone(),
                                        batches: grant.iter().map(|&(_, b)| b).collect(),
                                        region_fingerprint: d.region_fp,
                                    },
                                    None => ServerMsg::Wait { ms: 200 },
                                }
                            }
                            None => {
                                let grant = leases.claim(
                                    id,
                                    ctx.now_ms(),
                                    ctx.lease_ttl_ms(),
                                    ctx.ccfg.lease_batches,
                                    |ui| progress[ui].decided().is_some(),
                                    |ui, b| progress[ui].has_batch(b),
                                );
                                match grant.first() {
                                    Some(&(ui, _)) => ServerMsg::Lease {
                                        unit: ctx.units[ui].key.clone(),
                                        batches: grant.iter().map(|&(_, b)| b).collect(),
                                    },
                                    None => ServerMsg::Wait { ms: 200 },
                                }
                            }
                        }
                    }
                };
                let shutdown = matches!(resp, ServerMsg::Shutdown { .. });
                if framing::write_frame(&mut stream, &resp).is_err() || shutdown {
                    break Ok(if shutdown { "shutdown sent" } else { "lease write failed" });
                }
            }
            ClientMsg::Completed { record, ff_insts, exec_insts } => {
                let Some(id) = worker_id else {
                    break Ok("result before hello");
                };
                if let Err(e) = merge_result(ctx, id, record, ff_insts, exec_insts) {
                    ctx.state.lock().unwrap().error.get_or_insert(e);
                    break Ok("merge conflict");
                }
            }
            ClientMsg::ScopedCompleted { scope, record, ff_insts, exec_insts } => {
                let Some(id) = worker_id else {
                    break Ok("result before hello");
                };
                if let Err(e) = merge_scoped(ctx, id, scope, record, ff_insts, exec_insts) {
                    ctx.state.lock().unwrap().error.get_or_insert(e);
                    break Ok("merge conflict");
                }
            }
            ClientMsg::Heartbeat => {} // the touch above is the whole effect
            ClientMsg::Goodbye => break Ok("goodbye"),
        }
    };
    if let Some(id) = worker_id {
        let mut st = ctx.state.lock().unwrap();
        st.leases.release_worker(id);
        if let Some(w) = st.workers.get_mut(&id) {
            w.live = false;
        }
        if ctx.ccfg.verbose {
            match &end {
                Ok(why) => eprintln!("  [serve] worker {id} disconnected ({why})"),
                Err(e) => eprintln!("  [serve] worker {id} lost ({e})"),
            }
        }
    }
}

/// Idempotent merge of one remotely executed batch: exact duplicates are
/// dropped, conflicting duplicates are fatal (they mean a diverging
/// worker — the campaign's determinism guarantee is gone).
fn merge_result(ctx: &Ctx, worker: u64, record: BatchRecord, ff_insts: u64, exec_insts: u64) -> Result<(), String> {
    let mut st = ctx.state.lock().unwrap();
    if st.finalized {
        return Ok(());
    }
    if st.diff.is_some() {
        return Err(format!("worker {worker} sent an unscoped result to an incremental (diff) coordinator"));
    }
    let Some(&ui) = ctx.key_index.get(&record.unit) else {
        return Err(format!("worker {worker} reported unknown unit {}", record.unit));
    };
    if record.batch >= ctx.header.max_batches() {
        return Err(format!(
            "worker {worker} reported out-of-schedule batch {} of {}",
            record.batch, record.unit
        ));
    }
    if record.fault_model != ctx.header.fault_model {
        return Err(format!(
            "worker {worker} reported batch {} of {} under model `{}` (schedule runs `{}`)",
            record.batch, record.unit, record.fault_model, ctx.header.fault_model
        ));
    }
    if record.unit.layer == Layer::Asm && (record.prune_table != 0) != (ctx.header.static_prune != 0) {
        return Err(format!(
            "worker {worker} reported batch {} of {} with prune provenance {:#x} (schedule's static_prune is {:#x})",
            record.batch, record.unit, record.prune_table, ctx.header.static_prune
        ));
    }
    st.leases.complete((ui, record.batch), worker);
    if st.progress[ui].has_batch(record.batch) {
        let existing = st.progress[ui].batch(record.batch).unwrap().to_record(
            record.unit.clone(),
            record.batch,
            ctx.header.fault_model,
        );
        if existing != record {
            return Err(format!("conflicting duplicate for batch {} of {}", record.batch, record.unit));
        }
        return Ok(()); // idempotent: a requeued batch re-ran identically
    }
    if let Some(log) = &st.log {
        log.record_batch(&record)?;
    }
    let outcome = BatchOutcome::from_record(&record);
    st.progress[ui].insert(record.batch, outcome, &ctx.header);
    st.batches_merged += 1;
    if let Some(w) = st.workers.get_mut(&worker) {
        w.batches += 1;
        w.ff_insts += ff_insts;
        w.exec_insts += exec_insts;
    }
    Ok(())
}

/// Idempotent merge of one remotely executed *scoped* batch: the fragment
/// is parked under its (task, batch) slot; folding into region profiles
/// happens at finalize, in batch order, so arrival order never matters.
fn merge_scoped(
    ctx: &Ctx,
    worker: u64,
    scope: u32,
    record: BatchRecord,
    ff_insts: u64,
    exec_insts: u64,
) -> Result<(), String> {
    let mut st = ctx.state.lock().unwrap();
    if st.finalized {
        return Ok(());
    }
    let CoordState { diff, leases, workers, batches_merged, .. } = &mut *st;
    let Some(d) = diff else {
        return Err(format!("worker {worker} sent a scoped result to a non-diff coordinator"));
    };
    let ti = scope as usize;
    let Some(spec) = d.specs.get(ti) else {
        return Err(format!("worker {worker} reported unknown scope {scope}"));
    };
    if record.unit != spec.unit {
        return Err(format!(
            "worker {worker} reported scope {scope} under unit {} (scope belongs to {})",
            record.unit, spec.unit
        ));
    }
    if record.batch >= d.batches_per_task[ti] {
        return Err(format!(
            "worker {worker} reported out-of-schedule batch {} of scope {scope} (`{}` of {})",
            record.batch, spec.region, spec.unit
        ));
    }
    if record.fault_model != ctx.header.fault_model {
        return Err(format!(
            "worker {worker} reported batch {} of scope {scope} under model `{}` (schedule runs `{}`)",
            record.batch, record.fault_model, ctx.header.fault_model
        ));
    }
    if record.prune_table != 0 || record.pruned != 0 {
        return Err(format!(
            "worker {worker} reported pruned trials in scoped batch {} of scope {scope} \
             (scoped re-sampling is never prunable)",
            record.batch
        ));
    }
    let batch = record.batch;
    let frag = RegionTaskResult {
        counts: record.counts,
        sdc_by_inst: record.sdc_by_inst,
        sdc_insts: record.sdc_insts,
        ff_insts,
        exec_insts,
    };
    leases.complete((ti, batch), worker);
    if let Some(existing) = d.frags[ti].get(&batch) {
        if *existing != frag {
            return Err(format!(
                "conflicting duplicate for batch {batch} of scope {scope} (`{}` of {})",
                spec.region, spec.unit
            ));
        }
        return Ok(()); // idempotent: a requeued batch re-ran identically
    }
    d.frags[ti].insert(batch, frag);
    *batches_merged += 1;
    if let Some(w) = workers.get_mut(&worker) {
        w.batches += 1;
        w.ff_insts += ff_insts;
        w.exec_insts += exec_insts;
    }
    Ok(())
}

/// Convenience wrapper: bind and run in one call (the `flowery serve`
/// entry point).
pub fn serve(plan: PlanSpec, hcfg: HarnessConfig, ccfg: CoordinatorConfig) -> Result<DistReport, String> {
    let coord = Coordinator::bind(plan, hcfg, ccfg)?;
    let mut out = std::io::stderr();
    let _ = writeln!(out, "  [serve] listening on {}", coord.local_addr()?);
    coord.run()
}

/// Bind and run an incremental (diff) coordinator in one call (the
/// `flowery serve --baseline` entry point). `ccfg.baseline` must be set.
pub fn serve_diff(plan: PlanSpec, hcfg: HarnessConfig, ccfg: CoordinatorConfig) -> Result<DistDiffReport, String> {
    if ccfg.baseline.is_none() {
        return Err("serve_diff needs a baseline checkpoint".into());
    }
    let coord = Coordinator::bind(plan, hcfg, ccfg)?;
    let mut out = std::io::stderr();
    let _ = writeln!(out, "  [serve] listening on {} (incremental)", coord.local_addr()?);
    coord.run_diff()
}
