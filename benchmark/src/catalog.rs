//! Every name the benchmark prints, in one place. `BENCHMARK.json` is
//! `campaign-ledger --describe`; the README gives each definition.

use crate::modes::DEFAULT_SECONDS;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// Bounds are three times the widest spread (quartile distance over
/// median, ten seeds) seen on a quiet two-core sandbox, and the largest
/// the driver allows for the clocks: the sandbox host slows by up to 1.6x
/// for minutes at a time (README, "Sizing").
pub const END_TO_END: [MetricDef; 5] = [
    e2e("campaign_wall_s", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("trials_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("disk_mb", "MB", "lower", 0.05),
];

/// Why each workload exists, for `BENCHMARK.json` (one line each).
pub const WORKLOAD_WHY: [(&str, &str); 5] = [
    (
        "asm_native",
        "48 asm units x 1500 trials on the native JIT: backend::jit and snapshot restore do the work, ir::interp none",
    ),
    (
        "ir_interp",
        "32 IR units x 500 trials: ir::interp::eval does the work and backend none, so an asm-only change shows nothing",
    ),
    (
        "sweep_setup",
        "Fig. 2 levels on half the programs, 112 units x one 50-trial batch: profile, golden, capture and 94 MB of persisted snapshots are half the wall",
    ),
    (
        "adaptive_pruned",
        "40 units, both layers, CI early stop and static prune: bit tables, prior and scheduler overshoot weigh most",
    ),
    (
        "resume_default",
        "second half of an interrupted 40-unit campaign on the default engine: checkpoint parse and snapshot decode, the read side",
    ),
];

pub const PER_LAYER: [MetricDef; 72] = [
    layer("lang.compile_s", "s", "lower"),
    layer("lang.src_bytes", "B", "lower"),
    layer("passes.select_s", "s", "lower"),
    layer("passes.duplicate_s", "s", "lower"),
    layer("passes.flowery_s", "s", "lower"),
    layer("passes.ir_insts", "count", "lower"),
    layer("inject.profile_s", "s", "lower"),
    layer("inject.profile_trials_per_s", "1/s", "higher"),
    layer("backend.compile_s", "s", "lower"),
    layer("backend.mir_insts", "count", "lower"),
    layer("backend.golden_s", "s", "lower"),
    layer("backend.snap_capture_s", "s", "lower"),
    layer("backend.snap_count", "count", "lower"),
    layer("backend.snapio_encode_s", "s", "lower"),
    layer("backend.snapio_decode_s", "s", "lower"),
    layer("backend.snapio_bytes", "B", "lower"),
    layer("backend.site_trace_s", "s", "lower"),
    layer("backend.jit_compile_s", "s", "lower"),
    layer("backend.jit_programs", "count", "lower"),
    layer("backend.jit_code_bytes", "B", "lower"),
    layer("backend.jit_fallbacks", "count", "lower"),
    layer("backend.native.guest_mips", "MIPS", "higher"),
    layer("backend.native.trial_us_p50", "us", "lower"),
    layer("backend.native.trial_us_p99", "us", "lower"),
    layer("backend.native.trial_fixed_us", "us", "lower"),
    layer("backend.native.ns_per_inst", "ns", "lower"),
    layer("backend.compiled.guest_mips", "MIPS", "higher"),
    layer("backend.compiled.trial_us_p50", "us", "lower"),
    layer("backend.compiled.trial_us_p99", "us", "lower"),
    layer("backend.interp.guest_mips", "MIPS", "higher"),
    layer("backend.interp.trial_us_p50", "us", "lower"),
    layer("backend.interp.trial_us_p99", "us", "lower"),
    layer("backend.ff_ratio", "ratio", "higher"),
    layer("ir.golden_s", "s", "lower"),
    layer("ir.snap_capture_s", "s", "lower"),
    layer("ir.snap_count", "count", "lower"),
    layer("ir.snapio_encode_s", "s", "lower"),
    layer("ir.snapio_decode_s", "s", "lower"),
    layer("ir.snapio_bytes", "B", "lower"),
    layer("ir.guest_mips", "MIPS", "higher"),
    layer("ir.trial_us_p50", "us", "lower"),
    layer("ir.trial_us_p99", "us", "lower"),
    layer("ir.trial_fixed_us", "us", "lower"),
    layer("ir.ns_per_inst", "ns", "lower"),
    layer("ir.ff_ratio", "ratio", "higher"),
    layer("analysis.bits_s", "s", "lower"),
    layer("analysis.bits_proven_pairs", "count", "higher"),
    layer("analysis.masked_draw_frac", "ratio", "higher"),
    layer("harness.build_matrix_s", "s", "lower"),
    layer("harness.prewarm_s", "s", "lower"),
    layer("harness.run_units_s", "s", "lower"),
    layer("harness.run_units_1t_s", "s", "lower"),
    layer("harness.run_units_2t_s", "s", "lower"),
    layer("harness.parallel_eff", "ratio", "higher"),
    layer("harness.sched_overhead_frac", "ratio", "lower"),
    layer("harness.region_records_s", "s", "lower"),
    layer("harness.ckpt_append_s", "s", "lower"),
    layer("harness.ckpt_records", "count", "lower"),
    layer("harness.ckpt_bytes", "B", "lower"),
    layer("harness.ckpt_load_s", "s", "lower"),
    layer("harness.ckpt_compact_s", "s", "lower"),
    layer("harness.snapstore_save_s", "s", "lower"),
    layer("harness.snapstore_load_s", "s", "lower"),
    layer("harness.snapstore_bytes", "B", "lower"),
    layer("harness.cache_hit_rate", "ratio", "higher"),
    layer("harness.snap_shared", "count", "higher"),
    layer("harness.goldens_run", "count", "lower"),
    layer("harness.decided_trials", "count", "lower"),
    layer("harness.executed_trials", "count", "lower"),
    layer("harness.wasted_batch_frac", "ratio", "lower"),
    layer("harness.unit_fail_share", "ratio", "lower"),
    layer("harness.trace_overhead_frac", "ratio", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the catalog"))
}

/// The content of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOAD_WHY
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| format!("    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}", m.name, m.unit, m.better))
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
