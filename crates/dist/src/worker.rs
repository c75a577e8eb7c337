//! The campaign worker: connects to a coordinator, builds the experiment
//! matrix locally from the wire plan, and drains leased batches through
//! the same [`UnitRunner`] the in-process engine uses.
//!
//! Everything heavy is worker-local and persistent across reconnects: the
//! [`GoldenCache`] (goldens + snapshot sets) and the built matrix survive
//! a dropped connection, so a reconnect resumes at full speed. A
//! background thread heartbeats on the coordinator's advertised cadence
//! so lease deadlines stay refreshed even mid-batch.

use crate::protocol::{ClientMsg, PlanSpec, ServerMsg, PROTO_VERSION};
use crate::{framing, FrameError};
use flowery_harness::{
    build_matrix, matrix_fingerprint, region_fingerprint, BatchRecord, GoldenCache, TrialUnit, UnitRunner,
};
use std::collections::hash_map::{Entry, HashMap};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address, e.g. `10.0.0.1:7070`.
    pub connect: String,
    /// Local threads for building the matrix (profiling campaigns).
    pub threads: usize,
    /// Connection attempts beyond the first before giving up. Progress
    /// (completed batches) resets the budget, so a long campaign can ride
    /// out many separate drops.
    pub max_reconnects: u32,
    /// Base reconnect backoff; doubles per consecutive failed attempt.
    pub backoff_ms: u64,
    /// Print per-lease progress to stderr.
    pub verbose: bool,
    /// Override the coordinator's machine-layer engine for locally executed
    /// trials. Sound because engines are bit-identical: results merge
    /// byte-for-byte regardless of which engine each worker ran. `None`
    /// keeps whatever the `Welcome`'d config selects.
    pub executor: Option<flowery_backend::ExecMode>,
    /// Test hook: after this many completed batches (across sessions),
    /// hard-close the socket without a goodbye — simulates a crash so
    /// tests can exercise lease requeue.
    pub die_after_batches: Option<u64>,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            connect: "127.0.0.1:7070".into(),
            threads: 0,
            max_reconnects: 5,
            backoff_ms: 500,
            verbose: false,
            executor: None,
            die_after_batches: None,
        }
    }
}

/// What a worker did before stopping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Batches executed and reported (across all sessions).
    pub batches: u64,
    /// Reconnect attempts that were actually made.
    pub reconnects: u32,
    /// True when the `die_after_batches` test hook fired.
    pub died: bool,
}

enum SessionEnd {
    /// Coordinator said the campaign is over (or draining).
    Shutdown,
    /// The `die_after_batches` hook fired.
    Died,
    /// Unrecoverable protocol failure — do not reconnect.
    Fatal(String),
}

/// Run a worker until the coordinator shuts the campaign down (the
/// `flowery work` entry point).
pub fn work(cfg: WorkerConfig) -> Result<WorkerSummary, String> {
    let cache = GoldenCache::new();
    let mut matrix: Option<(PlanSpec, Vec<TrialUnit>, u64)> = None;
    let mut batches = 0u64;
    let mut reconnects = 0u32;
    let mut attempt = 0u32;
    loop {
        let before = batches;
        match session(&cfg, &cache, &mut matrix, &mut batches) {
            Ok(SessionEnd::Shutdown) => return Ok(WorkerSummary { batches, reconnects, died: false }),
            Ok(SessionEnd::Died) => return Ok(WorkerSummary { batches, reconnects, died: true }),
            Ok(SessionEnd::Fatal(msg)) => return Err(msg),
            Err(e) => {
                if batches > before {
                    attempt = 0; // the drop came after real progress; fresh budget
                }
                if attempt >= cfg.max_reconnects {
                    return Err(format!("{e} (giving up after {attempt} reconnect attempts)"));
                }
                attempt += 1;
                reconnects += 1;
                let delay = cfg.backoff_ms.saturating_mul(1u64 << attempt.min(6));
                if cfg.verbose {
                    eprintln!("  [work] connection lost ({e}); retrying in {delay}ms");
                }
                std::thread::sleep(Duration::from_millis(delay));
            }
        }
    }
}

/// One connection's lifetime: handshake, lease loop, disconnect.
/// `Err` means the transport failed and a reconnect may help.
fn session(
    cfg: &WorkerConfig,
    cache: &GoldenCache,
    matrix: &mut Option<(PlanSpec, Vec<TrialUnit>, u64)>,
    batches_done: &mut u64,
) -> Result<SessionEnd, String> {
    let stream = TcpStream::connect(&cfg.connect).map_err(|e| format!("connect {}: {e}", cfg.connect))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let writer = Arc::new(Mutex::new(stream));
    let send = |msg: &ClientMsg| -> Result<(), String> {
        framing::write_frame(&mut *writer.lock().unwrap(), msg).map_err(|e| format!("send: {e}"))
    };

    send(&ClientMsg::Hello { proto_version: PROTO_VERSION })?;
    let (worker_id, plan, mut hcfg, heartbeat_ms) = match read(&mut reader)? {
        ServerMsg::Welcome { worker_id, plan, cfg, heartbeat_ms } => (worker_id, plan, cfg, heartbeat_ms),
        ServerMsg::Error { msg } => return Ok(SessionEnd::Fatal(format!("coordinator rejected us: {msg}"))),
        other => return Ok(SessionEnd::Fatal(format!("expected Welcome, got {other:?}"))),
    };
    if let Some(mode) = cfg.executor {
        hcfg.exec.executor = mode;
    }

    // Build (or reuse) the matrix; both sides must agree bit-for-bit.
    if matrix.as_ref().is_none_or(|(p, _, _)| *p != plan) {
        if cfg.verbose {
            eprintln!("  [work] worker {worker_id}: building matrix for {} bench(es)", plan.benches.len().max(1));
        }
        let units = build_matrix(&plan.to_spec(cfg.threads));
        let fp = matrix_fingerprint(&units);
        *matrix = Some((plan, units, fp));
    }
    let (_, units, fingerprint) = matrix.as_ref().unwrap();
    send(&ClientMsg::Ready {
        fingerprint: *fingerprint,
        models_hash: flowery_faultmodel::registry_hash(),
    })?;

    // Heartbeat on the coordinator's cadence until the session ends.
    let stop = Arc::new(AtomicBool::new(false));
    let hb = {
        let writer = writer.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut last = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                if last.elapsed() >= Duration::from_millis(heartbeat_ms) {
                    last = Instant::now();
                    if framing::write_frame(&mut *writer.lock().unwrap(), &ClientMsg::Heartbeat).is_err() {
                        return;
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };
    let finish = |end: Result<SessionEnd, String>| {
        stop.store(true, Ordering::Relaxed);
        let _ = hb.join();
        end
    };

    // One runner per leased item: a unit, or one scoped task of it.
    let mut runners: HashMap<(usize, Option<u32>), UnitRunner<'_>> = HashMap::new();
    // Region fingerprint for scoped (diff) leases, computed at most once
    // per session — the partition golden runs are served by the persistent
    // cache, so this is cheap after the first session.
    let mut region_fp: Option<u64> = None;
    loop {
        if let Err(e) = send(&ClientMsg::LeaseRequest) {
            return finish(Err(e));
        }
        let resp = match read(&mut reader) {
            Ok(r) => r,
            Err(e) => return finish(Err(e)),
        };
        // Both lease kinds are the same work: batches of one item.
        let (unit, scoped, batches) = match resp {
            ServerMsg::Lease { unit, batches } => (unit, None, batches),
            ServerMsg::ScopedLease { scope, spec, batches, region_fingerprint: theirs } => {
                let ours = *region_fp.get_or_insert_with(|| region_fingerprint(units, cache, &hcfg));
                if ours != theirs {
                    return finish(Ok(SessionEnd::Fatal(format!(
                        "region fingerprint {ours:016x} != coordinator's {theirs:016x} \
                         (divergent region partition would scope trials wrongly)"
                    ))));
                }
                (spec.unit.clone(), Some((scope, spec)), batches)
            }
            ServerMsg::Wait { ms } => {
                std::thread::sleep(Duration::from_millis(ms.min(1000)));
                continue;
            }
            ServerMsg::Shutdown { reason } => {
                if cfg.verbose {
                    eprintln!("  [work] worker {worker_id}: shutdown ({reason})");
                }
                let _ = send(&ClientMsg::Goodbye);
                return finish(Ok(SessionEnd::Shutdown));
            }
            ServerMsg::Error { msg } => return finish(Ok(SessionEnd::Fatal(msg))),
            ServerMsg::Welcome { .. } => return finish(Ok(SessionEnd::Fatal("unexpected second welcome".into()))),
        };
        let Some(ui) = units.iter().position(|u| u.key == unit) else {
            return finish(Ok(SessionEnd::Fatal(format!("leased unknown unit {unit}"))));
        };
        if cfg.verbose {
            let what = scoped.as_ref().map_or(String::new(), |(_, s)| format!("`{}` in ", s.region));
            eprintln!("  [work] worker {worker_id}: {} batches of {what}{unit}", batches.len());
        }
        let runner = match runners.entry((ui, scoped.as_ref().map(|(scope, _)| *scope))) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let scope = scoped.as_ref().map(|(_, scope)| scope);
                match UnitRunner::for_item(&units[ui], cache, &hcfg, scope) {
                    Ok(runner) => v.insert(runner),
                    Err(why) => return finish(Ok(SessionEnd::Fatal(format!("cannot run the lease: {why}")))),
                }
            }
        };
        for b in batches {
            let out = runner.run_batch(&hcfg, b);
            let record = BatchRecord::new(unit.clone(), b, hcfg.fault_model, &out);
            let (ff_insts, exec_insts) = (out.ff_insts, out.exec_insts);
            let msg = match &scoped {
                None => ClientMsg::Completed { record, ff_insts, exec_insts },
                Some((scope, _)) => ClientMsg::ScopedCompleted { scope: *scope, record, ff_insts, exec_insts },
            };
            if let Err(e) = send(&msg) {
                return finish(Err(e));
            }
            *batches_done += 1;
            if cfg.die_after_batches.is_some_and(|n| *batches_done >= n) {
                // Crash simulation: sever the socket so the
                // coordinator sees a hard close, not a goodbye.
                let _ = writer.lock().unwrap().shutdown(std::net::Shutdown::Both);
                return finish(Ok(SessionEnd::Died));
            }
        }
    }
}

fn read(reader: &mut TcpStream) -> Result<ServerMsg, String> {
    framing::read_frame(reader).map_err(|e: FrameError| format!("read: {e}"))
}
