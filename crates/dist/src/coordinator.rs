//! The campaign coordinator: owns the experiment plan, the checkpoint,
//! and the lease table; workers connect over TCP and drain the schedule.
//!
//! ## Determinism
//!
//! The coordinator never trusts arrival order. Results pass the same
//! admission rule and merge idempotently into the same [`UnitProgress`]
//! fold the in-process engine uses (duplicates are dropped after an
//! equality check; conflicting duplicates abort the campaign), and the
//! checkpoint goes through the same [`open`] → [`seal`] lifecycle — so a
//! distributed run's checkpoint is byte-identical to a single-process
//! run of the same plan, including after worker deaths and lease requeues.
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
use crate::protocol::{ClientMsg, PlanSpec, ServerMsg, PROTO_VERSION};
use crate::{framing, FrameError};
use flowery_harness::checkpoint::{
    load as load_checkpoint, open, refused_note, seal, write_canonical_full, CheckpointLog, Header,
};
use flowery_harness::{
    build_matrix, compose_diff, matrix_fingerprint, plan_diff, region_fingerprint, region_records, run_units, Baseline,
    BatchRecord, CampaignReport, DiffReport, DiffTask, DiffUnitReport, DistStats, GoldenCache, HarnessConfig, Metrics,
    RunOptions, TrialUnit, UnitKey, UnitProgress, WorkerStats,
};
use std::collections::HashMap;
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

/// What a run hands back: the deterministic report — the same a local
/// run of the plan produces — plus the distribution-side counters.
pub struct DistReport<R = CampaignReport> {
    pub report: R,
    pub stats: DistStats,
    /// True when the run drained early (Ctrl-C / requested shutdown):
    /// undecided units remain, or — in diff mode — incomplete region
    /// profiles were composed and no composed checkpoint was written.
    pub interrupted: bool,
}

/// What a diff-mode run hands back.
pub type DistDiffReport = DistReport<DiffReport>;

/// Diff mode: the plan from [`plan_diff`]. Its tasks are the coordinator's
/// schedulable items — each drains into its own [`UnitProgress`] exactly
/// like a unit, and the decided prefixes are folded in batch order at
/// finalize, so the composed result is bit-identical to a local
/// `flowery diff` of the same plan regardless of worker count or arrival
/// order.
struct DiffPlan {
    reports: Vec<DiffUnitReport>,
    tasks: Vec<DiffTask>,
    region_fp: u64,
    /// Region-plan counters plus every merged scoped batch.
    metrics: Metrics,
}

struct CoordState {
    /// One per schedulable item: the matrix's units, or the diff plan's
    /// tasks.
    progress: Vec<UnitProgress>,
    leases: LeaseTable,
    workers: HashMap<u64, WorkerStats>,
    next_worker_id: u64,
    /// The batch log; diff mode keeps none (the composed region checkpoint
    /// is written whole at finalize).
    log: Option<CheckpointLog>,
    shutting_down: bool,
    finalized: bool,
    error: Option<String>,
}

impl CoordState {
    fn all_decided(&self) -> bool {
        self.progress.iter().all(|p| p.decided().is_some())
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
    /// Per item: the stopping and admission rule — the campaign header, or its
    /// [`Header::for_region`] form for a diff task.
    rules: Vec<Header>,
    /// `Some` switches the coordinator to incremental (diff) mode.
    diff: Option<DiffPlan>,
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
                let metrics = Metrics::with_mode(hcfg.exec.executor);
                let (reports, tasks) = plan_diff(&units, &hcfg, &cache, &baseline, &HashMap::new(), &metrics);
                let region_fp = region_fingerprint(&units, &cache, &hcfg);
                Some(DiffPlan { reports, tasks, region_fp, metrics })
            }
            None => None,
        };
        let rules: Vec<Header> = match &diff {
            Some(d) => d.tasks.iter().map(|t| header.for_region(t.scope.trials)).collect(),
            None => vec![header.clone(); units.len()],
        };
        let mut progress: Vec<UnitProgress> = rules.iter().map(|r| UnitProgress::new(r.max_batches())).collect();

        let log = if diff.is_some() {
            None
        } else {
            let resume = ccfg.resume && ccfg.checkpoint.exists();
            let (log, preloaded) = open(&ccfg.checkpoint, &header, resume)?;
            if resume && ccfg.verbose {
                let (n, path) = (preloaded.len(), ccfg.checkpoint.display());
                eprintln!("  [serve] resuming: {n} batches from {path}{}", refused_note(&header, &preloaded));
            }
            for rec in &preloaded {
                let Some(&ui) = key_index.get(&rec.unit) else { continue };
                if header.admit(rec).is_ok() {
                    progress[ui].insert(rec.batch, rec.outcome(), &header);
                }
            }
            Some(log)
        };

        let listener = TcpListener::bind(&ccfg.addr).map_err(|e| format!("bind {}: {e}", ccfg.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener nonblocking: {e}"))?;

        let state = CoordState {
            leases: LeaseTable::with_limits(rules.iter().map(Header::max_batches).collect()),
            progress,
            workers: HashMap::new(),
            next_worker_id: 1,
            log,
            shutting_down: false,
            finalized: false,
            error: None,
        };
        let ctx = Arc::new(Ctx {
            units,
            key_index,
            plan,
            hcfg,
            rules,
            diff,
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
        let (ctx, interrupted) = self.run_loop(false)?;
        finalize(&ctx, interrupted)
    }

    /// Diff-mode counterpart of [`run`](Coordinator::run): drain the
    /// scoped schedule, fold worker fragments in batch order, compose, and
    /// write the composed region checkpoint. Bit-identical to a local
    /// `flowery diff` of the same plan and baseline.
    pub fn run_diff(self) -> Result<DistDiffReport, String> {
        let (ctx, interrupted) = self.run_loop(true)?;
        finalize_diff(&ctx, interrupted)
    }

    fn run_loop(self, diff: bool) -> Result<(Arc<Ctx>, bool), String> {
        let ctx = self.ctx;
        if ctx.diff.is_some() != diff {
            return Err(
                "a coordinator bound with a baseline runs with run_diff / serve_diff, one without with run / serve"
                    .into(),
            );
        }
        let mode = if diff { " (incremental)" } else { "" };
        eprintln!("  [serve] listening on {}{mode}", self.listener.local_addr().map_err(|e| e.to_string())?);
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

/// Fold the batch log into the final report without executing anything
/// (goldens are computed locally for the per-unit reference fields), then
/// seal it exactly as a local campaign does: region records on a clean
/// finish, close, compact.
fn finalize(ctx: &Ctx, interrupted: bool) -> Result<DistReport, String> {
    let (stats, log) = {
        let mut st = ctx.state.lock().unwrap();
        st.finalized = true;
        (st.dist_stats(), st.log.take())
    };
    let log = log.ok_or("coordinator keeps no batch log")?;
    let (_, records) = load_checkpoint(&ctx.ccfg.checkpoint)?;
    let cache = GoldenCache::new();
    let report = run_units(
        &ctx.units,
        &ctx.hcfg,
        &cache,
        RunOptions { preloaded: records, replay_only: true, ..Default::default() },
    );
    let regions = (!interrupted).then(|| region_records(&ctx.units, &report.units, &cache, &ctx.hcfg));
    seal(&ctx.ccfg.checkpoint, log, &regions.unwrap_or_default())?;
    Ok(DistReport { report, stats, interrupted })
}

/// Diff-mode finalize: fold every task's batches in batch-index order (the
/// same order a local run merges them), compose the per-unit reports, and
/// — on a clean completion — write the composed region checkpoint, the
/// next diff's baseline.
fn finalize_diff(ctx: &Ctx, interrupted: bool) -> Result<DistDiffReport, String> {
    let plan = ctx.diff.as_ref().ok_or("coordinator is not in diff mode")?;
    let (stats, tallies) = {
        let mut st = ctx.state.lock().unwrap();
        st.finalized = true;
        let tallies: Vec<_> = st.progress.iter().map(|p| Some(p.merged())).collect();
        (st.dist_stats(), tallies)
    };
    let report = DiffReport {
        units: compose_diff(plan.reports.clone(), &plan.tasks, tallies),
        metrics: plan.metrics.snapshot(ctx.units.len(), 0, GoldenCache::new().stats()),
        interrupted,
        error: None,
    };
    if !interrupted {
        write_canonical_full(&ctx.ccfg.checkpoint, &ctx.hcfg.header(), &[], &report.records())?;
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
                let (ours, models) = (ctx.fingerprint, flowery_faultmodel::registry_hash());
                let msg = if fingerprint != ours {
                    format!("matrix fingerprint {fingerprint:016x} != coordinator's {ours:016x} (divergent build?)")
                } else if models_hash != models {
                    format!(
                        "fault-model registry {models_hash:016x} != coordinator's {models:016x} \
                         (divergent model sets would sample different faults)"
                    )
                } else {
                    continue;
                };
                let _ = framing::write_frame(&mut stream, &ServerMsg::Error { msg });
                break Ok("build mismatch");
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
                        let CoordState { leases, progress, .. } = &mut *st;
                        let grant = leases.claim(
                            id,
                            ctx.now_ms(),
                            ctx.lease_ttl_ms(),
                            ctx.ccfg.lease_batches,
                            |i| progress[i].decided().is_some(),
                            |i, b| progress[i].has_batch(b),
                        );
                        let batches = grant.iter().map(|&(_, b)| b).collect();
                        match (grant.first(), &ctx.diff) {
                            (None, _) => ServerMsg::Wait { ms: 200 },
                            (Some(&(ui, _)), None) => ServerMsg::Lease { unit: ctx.units[ui].key.clone(), batches },
                            (Some(&(ti, _)), Some(d)) => ServerMsg::ScopedLease {
                                scope: ti as u32,
                                spec: d.tasks[ti].scope.clone(),
                                batches,
                                region_fingerprint: d.region_fp,
                            },
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
                if let Err(e) = merge_result(ctx, id, None, record, ff_insts, exec_insts) {
                    ctx.state.lock().unwrap().error.get_or_insert(e);
                    break Ok("merge conflict");
                }
            }
            ClientMsg::ScopedCompleted { scope, record, ff_insts, exec_insts } => {
                let Some(id) = worker_id else {
                    break Ok("result before hello");
                };
                if let Err(e) = merge_result(ctx, id, Some(scope), record, ff_insts, exec_insts) {
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

/// Idempotent merge of one remotely executed batch — of a unit, or of
/// diff task `scope`. The record must pass the item's admission rule
/// (here a refusal means a diverging worker, so it is fatal); exact
/// duplicates are dropped, conflicting ones are fatal too (the campaign's
/// determinism guarantee is gone). Batches land in the item's
/// [`UnitProgress`], so arrival order never matters.
fn merge_result(
    ctx: &Ctx,
    worker: u64,
    scope: Option<u32>,
    record: BatchRecord,
    ff_insts: u64,
    exec_insts: u64,
) -> Result<(), String> {
    let mut st = ctx.state.lock().unwrap();
    if st.finalized {
        return Ok(());
    }
    let item = match (scope, &ctx.diff) {
        (None, None) => *ctx
            .key_index
            .get(&record.unit)
            .ok_or_else(|| format!("worker {worker} reported unknown unit {}", record.unit))?,
        (Some(scope), Some(d)) => {
            let task = d
                .tasks
                .get(scope as usize)
                .ok_or_else(|| format!("worker {worker} reported unknown scope {scope}"))?;
            if record.unit != task.scope.unit {
                return Err(format!(
                    "worker {worker} reported scope {scope} under unit {} (scope belongs to {})",
                    record.unit, task.scope.unit
                ));
            }
            scope as usize
        }
        (None, Some(_)) => {
            return Err(format!("worker {worker} sent an unscoped result to an incremental (diff) coordinator"))
        }
        (Some(_), None) => return Err(format!("worker {worker} sent a scoped result to a non-diff coordinator")),
    };
    let rule = &ctx.rules[item];
    if let Err(why) = rule.admit(&record) {
        return Err(format!(
            "worker {worker} reported batch {} of {} (model `{}`, prune table {:#x}, {} pruned), refused as {why:?}: \
             the schedule runs {} batches under `{}` with static_prune {:#x}",
            record.batch,
            record.unit,
            record.fault_model,
            record.prune_table,
            record.pruned,
            rule.max_batches(),
            rule.fault_model,
            rule.static_prune
        ));
    }
    st.leases.complete((item, record.batch), worker);
    if let Some(existing) = st.progress[item].batch(record.batch) {
        if BatchRecord::new(record.unit.clone(), record.batch, rule.fault_model, existing) != record {
            return Err(format!("conflicting duplicate for batch {} of {}", record.batch, record.unit));
        }
        return Ok(()); // idempotent: a requeued batch re-ran identically
    }
    if let Some(log) = &st.log {
        log.record_batch(&record)?;
    }
    if let Some(d) = &ctx.diff {
        let engine = ctx.units[d.tasks[item].unit_index].engine(&ctx.hcfg.exec);
        d.metrics.record_batch(&record.counts, ff_insts, exec_insts, engine);
    }
    st.progress[item].insert(record.batch, record.outcome(), rule);
    if let Some(w) = st.workers.get_mut(&worker) {
        w.batches += 1;
        w.ff_insts += ff_insts;
        w.exec_insts += exec_insts;
    }
    Ok(())
}

/// Bind and run in one call (the `flowery serve` entry point).
pub fn serve(plan: PlanSpec, hcfg: HarnessConfig, ccfg: CoordinatorConfig) -> Result<DistReport, String> {
    Coordinator::bind(plan, hcfg, ccfg)?.run()
}

/// Bind and run an incremental (diff) coordinator in one call (the
/// `flowery serve --baseline` entry point). `ccfg.baseline` must be set.
pub fn serve_diff(plan: PlanSpec, hcfg: HarnessConfig, ccfg: CoordinatorConfig) -> Result<DistDiffReport, String> {
    Coordinator::bind(plan, hcfg, ccfg)?.run_diff()
}
