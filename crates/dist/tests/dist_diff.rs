//! Distributed incremental campaigns: a diff-mode coordinator plus
//! workers must produce the same composed report — and the same composed
//! checkpoint bytes — as a local `flowery diff` of the same plan and
//! baseline, with only the changed regions re-executed.

use flowery_dist::{read_frame, serve_diff, work, write_frame, ClientMsg, ScopeSpec, ServerMsg};
use flowery_dist::{Coordinator, CoordinatorConfig, PlanSpec, WorkerConfig};
use flowery_harness::checkpoint::write_canonical_full;
use flowery_harness::{build_matrix, region_fingerprint, run_diff, unit_region_set};
use flowery_harness::{Baseline, GoldenCache, HarnessConfig};
use flowery_regions::Fate;
use std::collections::HashMap;
use std::path::PathBuf;

const SRC: &str = "int helper(int x) { return x * 3 + 1; } \
     int main() { int s = 0; int i; for (i = 0; i < 10; i = i + 1) { s = s + helper(i); } output(s); return 0; }";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("flowery-dist-diff-{}-{name}.jsonl", std::process::id()))
}

fn plan(src: &str) -> PlanSpec {
    PlanSpec {
        benches: vec![],
        tiny: true,
        levels_permille: vec![1000],
        profile_trials: 0,
        profile_seed: 0,
        sources: vec![("probe".into(), src.into())],
    }
}

fn hcfg() -> HarnessConfig {
    HarnessConfig {
        batch_size: 25,
        max_trials: 100,
        min_trials: 25,
        ci_target: None,
        seed: 0xD1FF,
        threads: 2,
        ..Default::default()
    }
}

#[test]
fn distributed_diff_matches_local_diff_bit_for_bit() {
    let cfg = hcfg();
    let cache = GoldenCache::new();

    // Baseline campaign over the original source, written as a composed
    // region checkpoint (exactly what `flowery diff --out` produces).
    let base_units = build_matrix(&plan(SRC).to_spec(2));
    let empty = Baseline {
        header: cfg.header(),
        regions: HashMap::new(),
        pre_region: true,
    };
    let base = run_diff(&base_units, &cfg, &cache, &empty, &HashMap::new(), None);
    let base_path = tmp("base");
    write_canonical_full(&base_path, &cfg.header(), &[], &base.records()).unwrap();

    // Edit helper only; the local diff is the ground truth.
    let edited = plan(&SRC.replace("x * 3 + 1", "x * 3 + 2"));
    let units = build_matrix(&edited.to_spec(2));
    let baseline = Baseline::load(&base_path, &cfg.header()).unwrap();
    let local = run_diff(&units, &cfg, &cache, &baseline, &HashMap::new(), None);
    let local_path = tmp("local");
    write_canonical_full(&local_path, &cfg.header(), &[], &local.records()).unwrap();

    // The same diff, distributed: coordinator plans from the baseline,
    // two workers drain the scoped leases.
    let ck = tmp("composed");
    let _ = std::fs::remove_file(&ck);
    let ccfg = CoordinatorConfig {
        addr: "127.0.0.1:0".into(),
        checkpoint: ck.clone(),
        heartbeat_ms: 200,
        lease_batches: 2,
        drain_grace_ms: 5000,
        threads: 2,
        baseline: Some(base_path.clone()),
        ..Default::default()
    };
    let coord = Coordinator::bind(edited.clone(), cfg.clone(), ccfg).unwrap();
    let addr = coord.local_addr().unwrap().to_string();
    let run = std::thread::spawn(move || coord.run_diff());
    let spawn = |addr: String| {
        std::thread::spawn(move || work(WorkerConfig { connect: addr, threads: 2, ..Default::default() }))
    };
    let w1 = spawn(addr.clone());
    let w2 = spawn(addr);
    let s1 = w1.join().unwrap().unwrap();
    let s2 = w2.join().unwrap().unwrap();
    let dist = run.join().unwrap().unwrap();

    assert!(!dist.interrupted);
    assert_eq!(dist.report.units, local.units, "distributed diff diverged from the local diff");
    assert_eq!(
        std::fs::read(&ck).unwrap(),
        std::fs::read(&local_path).unwrap(),
        "composed checkpoint differs from the local bytes"
    );
    // Only the edited function re-ran; everything else was reused without
    // a single remote trial.
    for u in &dist.report.units {
        let helper = u.regions.iter().find(|r| r.name == "helper").unwrap();
        assert_eq!(helper.fate, Fate::Rerun, "{}", u.key);
        assert!(
            u.regions.iter().filter(|r| r.name != "helper").all(|r| r.fate == Fate::Reused),
            "{}",
            u.key
        );
        assert!(u.trials_saved > 0, "{}", u.key);
    }
    let total: u64 = s1.batches + s2.batches;
    let expected: u64 = dist
        .report
        .units
        .iter()
        .flat_map(|u| &u.regions)
        .filter(|r| r.fate != Fate::Reused)
        .map(|r| r.planned_trials.div_ceil(cfg.batch_size))
        .sum();
    assert_eq!(total, expected, "workers ran exactly the changed regions' batches");

    // Re-serving the composed checkpoint as the next baseline finds
    // nothing to do: the coordinator completes without any worker.
    let ccfg = CoordinatorConfig {
        addr: "127.0.0.1:0".into(),
        checkpoint: tmp("composed2"),
        heartbeat_ms: 200,
        drain_grace_ms: 1000,
        threads: 2,
        baseline: Some(ck),
        ..Default::default()
    };
    let again = serve_diff(edited, cfg, ccfg).unwrap();
    assert!(!again.interrupted);
    assert!(again.report.units.iter().all(|u| u.trials_run == 0));
}

#[test]
fn a_lease_planned_against_another_program_is_refused_not_run() {
    // A scripted coordinator grants one scoped lease whose region mass is
    // off by one — what a coordinator that observed a different build of
    // the unit would send. The worker must end the session naming the
    // disagreement, without running (or reporting) a single batch.
    let (cfg, plan) = (hcfg(), plan(SRC));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let connect = listener.local_addr().unwrap().to_string();
    let worker =
        std::thread::spawn(move || work(WorkerConfig { connect, threads: 2, max_reconnects: 0, ..Default::default() }));
    let (mut stream, _) = listener.accept().unwrap();
    let next = |stream: &mut std::net::TcpStream| read_frame::<_, ClientMsg>(stream);

    assert!(matches!(next(&mut stream), Ok(ClientMsg::Hello { .. })));
    let welcome = ServerMsg::Welcome {
        worker_id: 1,
        plan: plan.clone(),
        cfg: cfg.clone(),
        heartbeat_ms: 200,
    };
    write_frame(&mut stream, &welcome).unwrap();
    while !matches!(next(&mut stream).unwrap(), ClientMsg::LeaseRequest) {}

    let (units, cache) = (build_matrix(&plan.to_spec(2)), GoldenCache::new());
    let observed = unit_region_set(&units[0], &cache, &cfg).get("helper").unwrap().site_mass;
    let lease = ServerMsg::ScopedLease {
        scope: 0,
        spec: ScopeSpec {
            unit: units[0].key.clone(),
            region: "helper".into(),
            trials: 25,
            seed: 1,
            mass: observed + 1,
        },
        batches: vec![0],
        region_fingerprint: region_fingerprint(&units, &cache, &cfg),
    };
    write_frame(&mut stream, &lease).unwrap();

    let err = worker.join().unwrap().unwrap_err();
    assert!(err.contains("`helper`"), "{err}");
    assert!(err.contains(&observed.to_string()) && err.contains(&(observed + 1).to_string()), "{err}");
    while let Ok(msg) = next(&mut stream) {
        assert!(matches!(msg, ClientMsg::Heartbeat), "the refused lease produced {msg:?}");
    }
}
