//! End-to-end distributed-execution guarantees: a coordinator plus
//! in-process workers produce a checkpoint byte-identical to a
//! single-process run of the same plan — including after a worker crash
//! mid-lease, a duplicate result, a partial resume, and a handshake
//! rejection.

use flowery_dist::{
    framing, work, ClientMsg, Coordinator, CoordinatorConfig, PlanSpec, ServerMsg, WorkerConfig, PROTO_VERSION,
};
use flowery_harness::{
    build_matrix, load_checkpoint, matrix_fingerprint, open, refused_note, region_records, run_units, seal,
    write_canonical, BatchRecord, GoldenCache, HarnessConfig, RunOptions, UnitRunner,
};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

fn plan() -> PlanSpec {
    PlanSpec {
        benches: vec!["crc32".into()],
        tiny: true,
        levels_permille: vec![1000],
        profile_trials: 0,
        profile_seed: 0,
        sources: Vec::new(),
    }
}

fn hcfg(trials: u64, batch: u64) -> HarnessConfig {
    HarnessConfig {
        batch_size: batch,
        max_trials: trials,
        min_trials: trials,
        ci_target: None,
        seed: 0xD157,
        threads: 2,
        ..Default::default()
    }
}

fn ccfg(checkpoint: &Path, lease_batches: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        addr: "127.0.0.1:0".into(),
        checkpoint: checkpoint.to_path_buf(),
        resume: false,
        heartbeat_ms: 200,
        lease_batches,
        drain_grace_ms: 5000,
        threads: 2,
        verbose: false,
        baseline: None,
    }
}

fn wcfg(addr: &str) -> WorkerConfig {
    WorkerConfig { connect: addr.into(), threads: 2, ..Default::default() }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("flowery-dist-it-{}-{name}.jsonl", std::process::id()))
}

/// The single-process ground truth — what `flowery campaign` leaves
/// behind: same plan, same schedule, opened, run and sealed (region
/// records included).
fn reference_bytes(plan: &PlanSpec, cfg: &HarnessConfig, name: &str) -> (PathBuf, Vec<u8>) {
    let path = tmp(name);
    let units = build_matrix(&plan.to_spec(2));
    let cache = GoldenCache::new();
    let (log, _) = open(&path, &cfg.header(), false).unwrap();
    let r = run_units(&units, cfg, &cache, RunOptions { checkpoint: Some(&log), ..Default::default() });
    assert!(!r.interrupted && r.error.is_none());
    seal(&path, log, &region_records(&units, &r.units, &cache, cfg)).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

#[test]
fn distributed_checkpoint_is_byte_identical_including_after_worker_death() {
    let plan = plan();
    let cfg = hcfg(120, 30); // 4 batches × 5 units = 20 batches
    let (_ref_path, want) = reference_bytes(&plan, &cfg, "death-ref");

    let ck = tmp("death-dist");
    let _ = std::fs::remove_file(&ck);
    let coord = Coordinator::bind(plan.clone(), cfg.clone(), ccfg(&ck, 4)).unwrap();
    let addr = coord.local_addr().unwrap().to_string();
    let run = std::thread::spawn(move || coord.run());

    // Phase 1: a lone worker that crashes two batches into its 4-batch
    // lease (hard socket close, no goodbye).
    let crash = work(WorkerConfig { die_after_batches: Some(2), max_reconnects: 0, ..wcfg(&addr) }).unwrap();
    assert!(crash.died);
    assert_eq!(crash.batches, 2);

    // Phase 2: two healthy workers drain the rest concurrently.
    let spawn = |addr: String| std::thread::spawn(move || work(wcfg(&addr)));
    let w1 = spawn(addr.clone());
    let w2 = spawn(addr);
    let s1 = w1.join().unwrap().unwrap();
    let s2 = w2.join().unwrap().unwrap();
    assert!(!s1.died && !s2.died);

    let dist = run.join().unwrap().unwrap();
    assert!(!dist.interrupted);
    assert_eq!(dist.report.units.len(), 5);
    assert!(dist.report.pending.is_empty());
    assert_eq!(
        dist.stats.batches_requeued, 2,
        "the crashed worker's unfinished lease batches were requeued"
    );
    assert_eq!(
        dist.stats.per_worker.iter().map(|w| w.batches).sum::<u64>(),
        20,
        "{:?}",
        dist.stats.per_worker
    );
    assert!(dist.stats.per_worker.iter().all(|w| !w.live));

    let got = std::fs::read(&ck).unwrap();
    assert_eq!(got, want, "distributed checkpoint differs from the single-process bytes");

    // The deterministic fold agrees with a plain local run of the plan.
    let units = build_matrix(&plan.to_spec(2));
    let local = run_units(&units, &cfg, &GoldenCache::new(), RunOptions::default());
    assert_eq!(
        serde_json::to_string(&dist.report.units).unwrap(),
        serde_json::to_string(&local.units).unwrap(),
        "distributed report differs from the local report"
    );

    // Re-serving the finished checkpoint with `--resume` replays it
    // without executing anything and leaves the bytes untouched.
    let coord =
        Coordinator::bind(plan.clone(), cfg.clone(), CoordinatorConfig { resume: true, ..ccfg(&ck, 4) }).unwrap();
    let dist = coord.run().unwrap();
    assert!(!dist.interrupted);
    assert_eq!(dist.report.units.len(), 5);
    assert_eq!(std::fs::read(&ck).unwrap(), want, "resume of a complete checkpoint must not change it");
}

#[test]
fn partial_checkpoint_resumes_to_identical_bytes() {
    let plan = plan();
    let cfg = hcfg(90, 30); // 3 batches × 5 units = 15 batches
    let (ref_path, want) = reference_bytes(&plan, &cfg, "resume-ref");

    // Truncate the finished checkpoint to header + 6 records — a campaign
    // killed mid-flight.
    let full = std::fs::read_to_string(&ref_path).unwrap();
    let partial: Vec<&str> = full.lines().take(7).collect();
    let ck = tmp("resume-dist");
    std::fs::write(&ck, format!("{}\n", partial.join("\n"))).unwrap();

    let coord = Coordinator::bind(plan, cfg, CoordinatorConfig { resume: true, ..ccfg(&ck, 2) }).unwrap();
    let addr = coord.local_addr().unwrap().to_string();
    let run = std::thread::spawn(move || coord.run());
    let s = work(wcfg(&addr)).unwrap();
    let dist = run.join().unwrap().unwrap();
    assert!(!dist.interrupted);
    assert_eq!(s.batches, 9, "only the missing batches are executed");
    assert_eq!(
        std::fs::read(&ck).unwrap(),
        want,
        "resumed checkpoint differs from the uninterrupted bytes"
    );
}

#[test]
fn duplicate_results_merge_idempotently_and_bad_handshakes_are_rejected() {
    let plan = plan();
    let cfg = hcfg(60, 30); // 2 batches × 5 units = 10 batches
    let (_ref_path, want) = reference_bytes(&plan, &cfg, "dup-ref");

    let ck = tmp("dup-dist");
    let _ = std::fs::remove_file(&ck);
    let coord = Coordinator::bind(plan.clone(), cfg.clone(), ccfg(&ck, 2)).unwrap();
    let addr = coord.local_addr().unwrap().to_string();
    let run = std::thread::spawn(move || coord.run());

    // A stale-version client is turned away before any lease.
    let mut s = TcpStream::connect(&addr).unwrap();
    framing::write_frame(&mut s, &ClientMsg::Hello { proto_version: PROTO_VERSION + 1 }).unwrap();
    assert!(matches!(framing::read_frame(&mut s).unwrap(), ServerMsg::Error { .. }));
    drop(s);

    // A divergent-build client (wrong fingerprint) is turned away too.
    let mut s = TcpStream::connect(&addr).unwrap();
    framing::write_frame(&mut s, &ClientMsg::Hello { proto_version: PROTO_VERSION }).unwrap();
    let ServerMsg::Welcome { .. } = framing::read_frame(&mut s).unwrap() else {
        panic!("expected welcome")
    };
    let models_hash = flowery_faultmodel::registry_hash();
    framing::write_frame(&mut s, &ClientMsg::Ready { fingerprint: 0, models_hash }).unwrap();
    assert!(matches!(framing::read_frame(&mut s).unwrap(), ServerMsg::Error { .. }));
    drop(s);

    // A client with a divergent fault-model registry (e.g. a pre-model
    // build, whose Ready defaults to hash 0) is refused before leasing.
    let mut s = TcpStream::connect(&addr).unwrap();
    framing::write_frame(&mut s, &ClientMsg::Hello { proto_version: PROTO_VERSION }).unwrap();
    let ServerMsg::Welcome { .. } = framing::read_frame(&mut s).unwrap() else {
        panic!("expected welcome")
    };
    let units = build_matrix(&plan.to_spec(2));
    let fingerprint = matrix_fingerprint(&units);
    framing::write_frame(&mut s, &ClientMsg::Ready { fingerprint, models_hash: 0 }).unwrap();
    let ServerMsg::Error { msg } = framing::read_frame(&mut s).unwrap() else {
        panic!("expected registry-mismatch error")
    };
    assert!(msg.contains("fault-model registry"), "{msg}");
    drop(s);

    // A hand-rolled client leases two batches, reports the first one
    // TWICE, then says goodbye — the duplicate must be dropped and the
    // unreported batch requeued.
    let mut s = TcpStream::connect(&addr).unwrap();
    framing::write_frame(&mut s, &ClientMsg::Hello { proto_version: PROTO_VERSION }).unwrap();
    let ServerMsg::Welcome { cfg: wire_cfg, .. } = framing::read_frame(&mut s).unwrap() else {
        panic!("expected welcome")
    };
    assert_eq!(wire_cfg, cfg, "schedule travels verbatim");
    framing::write_frame(&mut s, &ClientMsg::Ready { fingerprint, models_hash }).unwrap();
    framing::write_frame(&mut s, &ClientMsg::LeaseRequest).unwrap();
    let ServerMsg::Lease { unit, batches } = framing::read_frame(&mut s).unwrap() else {
        panic!("expected lease")
    };
    assert_eq!(batches.len(), 2);
    let ui = units.iter().position(|u| u.key == unit).unwrap();
    let cache = GoldenCache::new();
    let out = UnitRunner::new(&units[ui], &cache, &cfg).run_batch(&cfg, batches[0]);
    let msg = ClientMsg::Completed {
        record: BatchRecord::new(unit, batches[0], cfg.effective_model(), &out),
        ff_insts: out.ff_insts,
        exec_insts: out.exec_insts,
    };
    framing::write_frame(&mut s, &msg).unwrap();
    framing::write_frame(&mut s, &msg).unwrap();
    framing::write_frame(&mut s, &ClientMsg::Goodbye).unwrap();
    drop(s);

    // A real worker finishes the campaign (re-running the requeued batch).
    let s = work(wcfg(&addr)).unwrap();
    let dist = run.join().unwrap().unwrap();
    assert!(!dist.interrupted && dist.report.pending.is_empty());
    assert_eq!(s.batches, 9, "one batch was already merged by the raw client");
    assert!(dist.stats.batches_requeued >= 1, "{:?}", dist.stats);
    let by_id: Vec<u64> = dist.stats.per_worker.iter().map(|w| w.batches).collect();
    assert_eq!(by_id.iter().sum::<u64>(), 10, "duplicate was not double-counted: {by_id:?}");
    assert_eq!(std::fs::read(&ck).unwrap(), want);
}

/// The drift this suite pins down: a checkpoint whose *header* matches the
/// campaign but which carries batch records no campaign of that header
/// could have written. Every loader must refuse exactly those records —
/// and say so — and both resume paths must re-run what they displaced and
/// converge on the uninterrupted canonical bytes.
#[test]
fn foreign_records_under_a_matching_header_are_refused_by_both_resume_paths() {
    let plan = plan();
    let cfg = hcfg(90, 30); // 3 batches × 5 units
    let (ref_path, want) = reference_bytes(&plan, &cfg, "foreign-ref");
    let (header, batches) = load_checkpoint(&ref_path).unwrap();
    let is_asm = |r: &BatchRecord| r.unit.layer == flowery_harness::Layer::Asm;

    // Keep batch 0 of every unit, then forge: (a) every batch 1 restamped
    // with another fault model, (b) every assembly batch 2 claiming a
    // prune table this unpruned schedule never used, (c) one batch far
    // outside the 3-batch schedule.
    let mut forged: Vec<BatchRecord> = batches.iter().filter(|r| r.batch == 0).cloned().collect();
    for rec in &batches {
        let mut rec = rec.clone();
        match rec.batch {
            1 => rec.fault_model = flowery_faultmodel::ModelSpec::FlagsPc,
            2 if is_asm(&rec) => rec.prune_table = 0xfeed,
            _ => continue,
        }
        forged.push(rec);
    }
    forged.push(BatchRecord { batch: 40, ..batches[0].clone() });
    let asm_units = batches.iter().filter(|r| r.batch == 0 && is_asm(r)).count() as u64;
    let refused = 6 + asm_units;
    let line = format!(" ({refused} refused: 5 fault-model, {asm_units} prune-provenance, 1 out-of-schedule)");
    assert_eq!(refused_note(&header, &forged), line);

    // `campaign --resume`: refused records are skipped and counted, their
    // batches re-executed, and the sealed file is the reference.
    let local = tmp("foreign-local");
    write_canonical(&local, &header, &forged).unwrap();
    let units = build_matrix(&plan.to_spec(2));
    let (log, preloaded) = open(&local, &cfg.header(), true).unwrap();
    let cache = GoldenCache::new();
    let r = run_units(
        &units,
        &cfg,
        &cache,
        RunOptions { checkpoint: Some(&log), preloaded, ..Default::default() },
    );
    assert_eq!(r.metrics.records_refused, refused);
    assert_eq!(r.metrics.batches_reused, 5, "only the five genuine batch-0 records replay");
    seal(&local, log, &region_records(&units, &r.units, &cache, &cfg)).unwrap();
    assert_eq!(std::fs::read(&local).unwrap(), want, "campaign --resume diverged");

    // `serve --resume`: the coordinator preloads through the same rule, so
    // workers re-run exactly the displaced batches.
    let ck = tmp("foreign-dist");
    write_canonical(&ck, &header, &forged).unwrap();
    let coord = Coordinator::bind(plan, cfg, CoordinatorConfig { resume: true, ..ccfg(&ck, 2) }).unwrap();
    let addr = coord.local_addr().unwrap().to_string();
    let run = std::thread::spawn(move || coord.run());
    let s = work(wcfg(&addr)).unwrap();
    let dist = run.join().unwrap().unwrap();
    assert!(!dist.interrupted);
    assert_eq!(s.batches, 10, "batches 1 and 2 of all five units run again");
    assert_eq!(std::fs::read(&ck).unwrap(), want, "serve --resume diverged");
}
