//! Graceful-drain guarantee, isolated in its own test binary because it
//! drives the process-global shutdown flag: a requested shutdown
//! (Ctrl-C) mid-campaign flushes a resumable checkpoint, and resuming
//! it finishes with bytes identical to an uninterrupted run.

use flowery_dist::{work, Coordinator, CoordinatorConfig, PlanSpec, WorkerConfig};
use flowery_harness::{
    build_matrix, open, region_records, run_units, seal, shutdown, GoldenCache, HarnessConfig, RunOptions,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("flowery-dist-drain-{}-{name}.jsonl", std::process::id()))
}

#[test]
fn requested_shutdown_drains_to_a_resumable_checkpoint() {
    let plan = PlanSpec {
        benches: vec!["crc32".into()],
        tiny: true,
        levels_permille: vec![1000],
        profile_trials: 0,
        profile_seed: 0,
        sources: Vec::new(),
    };
    // 40 batches × 5 units: long enough that the campaign is mid-flight
    // when the shutdown lands, short enough to finish after resume.
    let cfg = HarnessConfig {
        batch_size: 30,
        max_trials: 1200,
        min_trials: 1200,
        ci_target: None,
        seed: 0xD157,
        threads: 2,
        ..Default::default()
    };

    // Uninterrupted single-process reference.
    let ref_path = tmp("ref");
    let units = build_matrix(&plan.to_spec(2));
    let cache = GoldenCache::new();
    let (log, _) = open(&ref_path, &cfg.header(), false).unwrap();
    let r = run_units(&units, &cfg, &cache, RunOptions { checkpoint: Some(&log), ..Default::default() });
    assert!(!r.interrupted);
    seal(&ref_path, log, &region_records(&units, &r.units, &cache, &cfg)).unwrap();
    let want = std::fs::read(&ref_path).unwrap();

    let ck = tmp("dist");
    let _ = std::fs::remove_file(&ck);
    let ccfg = CoordinatorConfig {
        addr: "127.0.0.1:0".into(),
        checkpoint: ck.clone(),
        resume: false,
        heartbeat_ms: 200,
        lease_batches: 2,
        drain_grace_ms: 5000,
        threads: 2,
        verbose: false,
        baseline: None,
    };

    shutdown::reset();
    let coord = Coordinator::bind(plan.clone(), cfg.clone(), ccfg.clone()).unwrap();
    let addr = coord.local_addr().unwrap().to_string();
    let run = std::thread::spawn(move || coord.run());
    let wrk = {
        let addr = addr.clone();
        std::thread::spawn(move || work(WorkerConfig { connect: addr, threads: 2, ..Default::default() }))
    };

    // "Ctrl-C" once some batches have landed in the checkpoint.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let lines = std::fs::read_to_string(&ck).map(|s| s.lines().count()).unwrap_or(0);
        if lines >= 4 {
            break; // header + a few records: mid-campaign
        }
        assert!(Instant::now() < deadline, "no progress before the simulated Ctrl-C");
        std::thread::sleep(Duration::from_millis(5));
    }
    shutdown::request();

    let s = wrk.join().unwrap().unwrap();
    assert!(!s.died, "worker must exit via the coordinator's shutdown");
    let dist = run.join().unwrap().unwrap();
    shutdown::reset();
    assert!(dist.interrupted, "the drain must report the campaign as unfinished");
    assert!(!dist.report.pending.is_empty());

    // The drained checkpoint is canonical (compacted on drain): every
    // line, header included, appears verbatim in the uninterrupted run's
    // file — records are pure, so partial progress is a strict subset.
    let drained = std::fs::read_to_string(&ck).unwrap();
    let full: std::collections::HashSet<&str> = std::str::from_utf8(&want).unwrap().lines().collect();
    for line in drained.lines() {
        assert!(full.contains(line), "drained line not in the full run: {line}");
    }
    assert!(drained.lines().count() < full.len(), "the campaign really was interrupted");

    // Resume with a fresh coordinator + worker and finish.
    let coord = Coordinator::bind(plan, cfg, CoordinatorConfig { resume: true, ..ccfg }).unwrap();
    let addr = coord.local_addr().unwrap().to_string();
    let run = std::thread::spawn(move || coord.run());
    let s2 = work(WorkerConfig { connect: addr, threads: 2, ..Default::default() }).unwrap();
    let dist = run.join().unwrap().unwrap();
    assert!(!dist.interrupted);
    assert_eq!(dist.report.units.len(), 5);
    assert_eq!(s.batches + s2.batches, 200, "every batch ran exactly once across the interrupt");
    assert_eq!(
        std::fs::read(&ck).unwrap(),
        want,
        "resumed checkpoint differs from the uninterrupted bytes"
    );
}
