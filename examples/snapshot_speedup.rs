//! Wall-clock comparison: injection campaigns with snapshot fast-forward
//! versus from-scratch execution of every trial, on workloads whose
//! golden runs are long enough that the average trial skips a large
//! prefix. Cross-checks that both modes produce exactly the same counts —
//! snapshots change timing, never results.
//!
//! A second section measures the v2 subsystem on the full Raw/ID/Flowery
//! matrix: cross-variant sharing (variants capture only the suffix past
//! the divergence point) and persistence (a resumed campaign loads every
//! set from the `.snaps` store instead of re-capturing). The numbers are
//! also written to `BENCH_snapshots.json` as a machine-readable record.
//!
//! Run with `cargo run --release --example snapshot_speedup`.

use flowery::backend::{compile_module, BackendConfig};
use flowery::harness::{build_matrix, run_units, GoldenCache, HarnessConfig, MatrixSpec, RunOptions, SnapshotStore};
use flowery::inject::{run_asm_campaign, run_ir_campaign, CampaignConfig};
use flowery::ir::interp::{ExecConfig, Interpreter};
use flowery::ir::Module;
use flowery::passes::{apply_flowery, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery::workloads::{workload, Scale};
use std::time::Instant;

fn main() {
    let trials = 2000u64;
    let benches = ["crc32", "pathfinder", "quicksort", "fft2"];
    let mut cfg = CampaignConfig::with_trials(trials);
    cfg.seed = 0x51C2_3001;
    let mut off = cfg.clone();
    off.snapshots = false;

    println!(
        "{} trials per campaign, {} threads\n",
        trials,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>9} {:>8}",
        "bench", "layer", "scratch", "fast-fwd", "speedup", "skipped"
    );

    let mut rows = Vec::new();
    let (mut total_off, mut total_on) = (0.0f64, 0.0f64);
    for name in benches {
        let m = workload(name, Scale::Standard).compile();

        let t0 = Instant::now();
        let ir_off = run_ir_campaign(&m, &off);
        let d_off = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let ir_on = run_ir_campaign(&m, &cfg);
        let d_on = t0.elapsed().as_secs_f64();
        assert_eq!(ir_off.counts, ir_on.counts, "{name}: IR counts must not change");
        assert_eq!(ir_off.sdc_by_inst, ir_on.sdc_by_inst);
        let skipped = ir_on.ff_insts as f64 / (ir_on.ff_insts + ir_on.exec_insts).max(1) as f64;
        println!(
            "{:<12} {:>10} {:>11.2}s {:>11.2}s {:>8.2}x {:>7.0}%",
            name,
            "ir",
            d_off,
            d_on,
            d_off / d_on,
            skipped * 100.0
        );
        rows.push(row(name, "ir", d_off, d_on, skipped));
        total_off += d_off;
        total_on += d_on;

        let prog = compile_module(&m, &BackendConfig::default());
        let t0 = Instant::now();
        let asm_off = run_asm_campaign(&m, &prog, &off);
        let d_off = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let asm_on = run_asm_campaign(&m, &prog, &cfg);
        let d_on = t0.elapsed().as_secs_f64();
        assert_eq!(asm_off.counts, asm_on.counts, "{name}: asm counts must not change");
        assert_eq!(asm_off.sdc_insts, asm_on.sdc_insts);
        let skipped = asm_on.ff_insts as f64 / (asm_on.ff_insts + asm_on.exec_insts).max(1) as f64;
        println!(
            "{:<12} {:>10} {:>11.2}s {:>11.2}s {:>8.2}x {:>7.0}%",
            name,
            "asm",
            d_off,
            d_on,
            d_off / d_on,
            skipped * 100.0
        );
        rows.push(row(name, "asm", d_off, d_on, skipped));
        total_off += d_off;
        total_on += d_on;
    }

    println!(
        "\ntotal: {total_off:.2}s from scratch vs {total_on:.2}s fast-forwarded ({:.2}x)",
        total_off / total_on
    );

    // ---- v2: cross-variant sharing + persistent store -----------------
    // The full matrix over the same benchmarks: Raw at both layers plus
    // ID (both layers) and Flowery (assembly) at full protection, with
    // raw twins attached so the cache can share golden prefixes.
    let spec = MatrixSpec {
        benches: benches.iter().map(|s| s.to_string()).collect(),
        ..MatrixSpec::default()
    };
    let units = build_matrix(&spec);
    let variant_units = units.iter().filter(|u| u.raw.is_some()).count();
    let hcfg = HarnessConfig {
        batch_size: 300,
        max_trials: 1200,
        min_trials: 1200,
        ci_target: None,
        seed: 0x51C2_3001,
        ..Default::default()
    };
    let mut hoff = hcfg.clone();
    hoff.snapshots = false;
    let store_dir = std::env::temp_dir().join(format!("flowery-bench-snaps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    println!(
        "\nv2 matrix: {} units ({} variant) x {} trials",
        units.len(),
        variant_units,
        hcfg.max_trials
    );
    let t0 = Instant::now();
    let r_off = run_units(&units, &hoff, &GoldenCache::new(), RunOptions::default());
    let d_scratch = t0.elapsed().as_secs_f64();

    // Fresh campaign: raw units capture in full, variants capture only
    // their post-divergence suffix, every set lands in the store. Acquire
    // the sets up front so the capture cost is timed in isolation.
    let fresh_cache = GoldenCache::with_store(SnapshotStore::at(&store_dir));
    let d_capture = acquire_all(&units, &fresh_cache, &hcfg.exec);
    let t0 = Instant::now();
    let r_fresh = run_units(&units, &hcfg, &fresh_cache, RunOptions::default());
    let d_fresh = d_capture + t0.elapsed().as_secs_f64();
    let fresh = fresh_cache.stats();
    for (a, b) in r_off.units.iter().zip(&r_fresh.units) {
        assert_eq!(a.counts, b.counts, "{}: snapshots must not change results", a.key);
    }

    // Resume: every snapshot set (and hence every golden) loads back from
    // disk — zero capture executions. The acquisition delta is the
    // capture time a `--resume` saves.
    let resume_cache = GoldenCache::with_store(SnapshotStore::at(&store_dir));
    let d_load = acquire_all(&units, &resume_cache, &hcfg.exec);
    let resumed = resume_cache.stats();
    assert_eq!(resumed.snap_captures, 0, "resume must not re-capture: {resumed:?}");
    assert_eq!(resumed.goldens_run, 0, "resume must not re-run goldens: {resumed:?}");

    let saved = d_capture - d_load;
    println!(
        "  scratch (no snapshots): {d_scratch:.2}s, ff_ratio {:.0}%",
        r_off.metrics.ff_ratio * 100.0
    );
    println!(
        "  fresh campaign:         {d_fresh:.2}s, ff_ratio {:.0}%, {} captures ({} shared-prefix) in {d_capture:.2}s",
        r_fresh.metrics.ff_ratio * 100.0,
        fresh.snap_captures,
        fresh.snap_shared,
    );
    println!(
        "  store-backed resume:    {} sets loaded in {d_load:.2}s, capture time saved {saved:.2}s",
        resumed.snap_loads
    );

    // ---- v2: cross-variant sharing, late-phase protection --------------
    // At full protection the divergence point sits at the first protected
    // instruction, so the matrix above shares ~nothing — sharing pays off
    // when protection targets the late phase of a run (the paper's
    // selective plans when the vulnerable code executes late). Measure a
    // finalization-protected workload: variants reuse the raw set's
    // golden prefix and capture only the post-divergence suffix.
    let exec = ExecConfig::default();
    let raw = flowery::lang::compile("late", LATE_SRC).expect("late workload compiles");
    let raw_prog = compile_module(&raw, &BackendConfig::default());
    let mut id = raw.clone();
    duplicate_module(&mut id, &late_only(&raw), &DupConfig::default());
    let mut fl = id.clone();
    apply_flowery(&mut fl, &FloweryConfig::default());

    // Prime the raw sets outside the timed region so the suffix timings
    // charge only the variant captures themselves.
    let cache = GoldenCache::new();
    let _ = cache.ir_snapshots_for(&raw, None, &exec);
    let _ = cache.asm_snapshots_for(&raw, &raw_prog, None, &exec);
    let mut shared_sets = 0usize;
    let mut variant_sets = 0usize;
    let (mut d_full, mut d_suffix) = (0.0f64, 0.0f64);
    for m in [&id, &fl] {
        let p = compile_module(m, &BackendConfig::default());

        // Full captures (no twin) versus shared-suffix captures.
        let t0 = Instant::now();
        let _ = Interpreter::new(m).capture_snapshots_auto(&exec);
        d_full += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let s = cache.ir_snapshots_for(m, Some(&raw), &exec);
        d_suffix += t0.elapsed().as_secs_f64();
        variant_sets += 1;
        shared_sets += usize::from(s.shared_snaps() > 0);

        let t0 = Instant::now();
        let _ = flowery::backend::Machine::new(m, &p).capture_snapshots_auto(&exec);
        d_full += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let a = cache.asm_snapshots_for(m, &p, Some((&raw, &raw_prog)), &exec);
        d_suffix += t0.elapsed().as_secs_f64();
        variant_sets += 1;
        shared_sets += usize::from(a.shared_snaps() > 0);
    }
    let shared_rate = shared_sets as f64 / variant_sets.max(1) as f64;
    println!(
        "\nlate-phase protection ({} variant sets): {} shared-prefix ({:.0}%), full capture {:.2}s vs shared {:.2}s",
        variant_sets,
        shared_sets,
        shared_rate * 100.0,
        d_full,
        d_suffix
    );

    let json = format!(
        "{{\n  \"trials_per_campaign\": {trials},\n  \"campaigns\": [\n{}\n  ],\n  \"v2\": {{\n    \
         \"matrix_units\": {},\n    \"matrix_variant_units\": {variant_units},\n    \"trials_per_unit\": {},\n    \
         \"scratch_secs\": {d_scratch:.3},\n    \"fresh_secs\": {d_fresh:.3},\n    \
         \"capture_secs\": {d_capture:.3},\n    \"load_secs\": {d_load:.3},\n    \
         \"capture_saved_on_resume_secs\": {saved:.3},\n    \
         \"ff_ratio_without\": {:.4},\n    \"ff_ratio_with\": {:.4},\n    \
         \"snap_captures\": {},\n    \"snap_shared\": {},\n    \"snap_loads\": {},\n    \
         \"late_scenario\": {{\n      \"variant_sets\": {variant_sets},\n      \"shared_sets\": {shared_sets},\n      \
         \"shared_prefix_hit_rate\": {shared_rate:.4},\n      \"full_capture_secs\": {d_full:.3},\n      \
         \"shared_capture_secs\": {d_suffix:.3}\n    }}\n  }}\n}}\n",
        rows.join(",\n"),
        units.len(),
        hcfg.max_trials,
        r_off.metrics.ff_ratio,
        r_fresh.metrics.ff_ratio,
        fresh.snap_captures,
        fresh.snap_shared,
        resumed.snap_loads,
    );
    std::fs::write("BENCH_snapshots.json", json).expect("write BENCH_snapshots.json");
    println!("wrote BENCH_snapshots.json");
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// A checksum-style workload whose vulnerable phase (`finish`) runs after
/// a long unprotected prologue. `main` comes first so the protected tail
/// lands after it in the assembly stream and positional divergence stays
/// late at both layers.
const LATE_SRC: &str = "\
global int arr[16] = {7, 2, 9, 4, 1, 8, 3, 6, 5, 0, 11, 13, 12, 10, 15, 14};
int main() {
  int i; int s = 0;
  for (i = 0; i < 60000; i = i + 1) {
    s = s + arr[((s + i) % 16 + 16) % 16] * (i % 13 + 1);
  }
  output(s);
  s = finish(s);
  output(s);
  return s & 65535;
}
int finish(int x) {
  int j; int t = x;
  for (j = 0; j < 400; j = j + 1) {
    t = t + arr[(t % 16 + 16) % 16] * (j + 1);
    arr[((t + j) % 16 + 16) % 16] = t % 251;
  }
  return t;
}
";

/// Protect only `finish` — the paper's selective protection with the
/// budget on the late phase.
fn late_only(m: &Module) -> ProtectionPlan {
    let mut plan = ProtectionPlan::full(m);
    for (f, set) in m.functions.iter().zip(plan.per_func.iter_mut()) {
        if f.name != "finish" {
            set.clear();
        }
    }
    plan
}

/// Fetch every unit's snapshot set through the cache (captures on a fresh
/// store, loads on a populated one) and return the wall-clock cost.
fn acquire_all(units: &[flowery::harness::TrialUnit], cache: &GoldenCache, exec: &ExecConfig) -> f64 {
    let t0 = Instant::now();
    for u in units {
        match (&u.program, &u.raw_program) {
            (Some(p), rp) => {
                let raw = u.raw.as_deref().zip(rp.as_deref());
                let _ = cache.asm_snapshots_for(&u.module, p, raw, exec);
            }
            _ => {
                let _ = cache.ir_snapshots_for(&u.module, u.raw.as_deref(), exec);
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

fn row(bench: &str, layer: &str, scratch: f64, fastfwd: f64, skipped: f64) -> String {
    format!(
        "    {{\"bench\": \"{bench}\", \"layer\": \"{layer}\", \"scratch_secs\": {scratch:.3}, \
         \"fastfwd_secs\": {fastfwd:.3}, \"speedup\": {:.3}, \"ff_ratio\": {skipped:.4}}}",
        scratch / fastfwd
    )
}
