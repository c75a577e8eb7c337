//! The experiment matrix: benchmark × variant × layer decomposed into
//! [`TrialUnit`]s, the schedulable atoms of a campaign — with the selection
//! profiles that decide what its partial protection levels duplicate
//! ([`plan_matrix`]).

use crate::cache::{asm_hash, module_hash, GoldenCache};
use crate::checkpoint::ProfileRecord;
use crate::engine::{run_units, CampaignReport, HarnessConfig, RunOptions};
use flowery_backend::{compile_module, AsmLayer, AsmProgram, BackendConfig, Machine};
use flowery_faultmodel::ModelSpec;
use flowery_ir::interp::{ExecConfig, ExecMode, IrLayer, Substrate};
use flowery_ir::Module;
use flowery_passes::select::{build_profile, SdcProfile};
use flowery_passes::{apply_flowery, choose_protection, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery_workloads::Scale;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The execution layer a unit injects faults at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Layer {
    /// IR interpreter — the "LLVM level" of the paper.
    Ir,
    /// Machine simulator — the "assembly level".
    Asm,
}

/// The protection variant of a unit's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Variant {
    /// Unprotected baseline.
    Raw,
    /// Instruction duplication.
    Id,
    /// Instruction duplication + the Flowery mitigation.
    Flowery,
}

/// Stable identity of one cell of the experiment matrix. Keys are plain
/// data (no floats) so they hash, order, and round-trip exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UnitKey {
    pub bench: String,
    pub variant: Variant,
    /// Protection level in permille (1000 = full); 0 for [`Variant::Raw`].
    pub level_permille: u32,
    pub layer: Layer,
}

impl UnitKey {
    pub fn new(bench: &str, variant: Variant, level: f64, layer: Layer) -> UnitKey {
        UnitKey {
            bench: bench.to_string(),
            variant,
            level_permille: (level * 1000.0).round() as u32,
            layer,
        }
    }

    /// Protection level as a fraction.
    pub fn level(&self) -> f64 {
        self.level_permille as f64 / 1000.0
    }

    /// The string form used in checkpoint logs and progress output,
    /// e.g. `quicksort/Id@700/Asm`.
    pub fn id(&self) -> String {
        format!("{}/{:?}@{}/{:?}", self.bench, self.variant, self.level_permille, self.layer)
    }
}

impl fmt::Display for UnitKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

/// One schedulable campaign: a program and the layer to inject at.
///
/// A unit carries its program's content key once it has been printed
/// ([`TrialUnit::content_key`]), so build a unit for another program with
/// [`TrialUnit::ir`] or [`TrialUnit::asm`], never by editing or
/// struct-updating one that may hold a key.
#[derive(Clone)]
pub struct TrialUnit {
    pub key: UnitKey,
    pub module: Arc<Module>,
    /// Compiled program; present exactly when `key.layer == Layer::Asm`.
    pub program: Option<Arc<AsmProgram>>,
    /// [`module_hash`] of an IR unit, [`asm_hash`] of an assembly one.
    content: OnceLock<u64>,
}

impl TrialUnit {
    pub fn ir(key: UnitKey, module: Arc<Module>) -> TrialUnit {
        assert_eq!(key.layer, Layer::Ir);
        TrialUnit { key, module, program: None, content: OnceLock::new() }
    }

    pub fn asm(key: UnitKey, module: Arc<Module>, program: Arc<AsmProgram>) -> TrialUnit {
        assert_eq!(key.layer, Layer::Asm);
        TrialUnit {
            key,
            module,
            program: Some(program),
            content: OnceLock::new(),
        }
    }

    /// The key the golden cache files this unit's program under: the
    /// [`module_hash`] of an IR unit, the [`asm_hash`] of an assembly
    /// unit. The program is printed on first use only (`cache` counts it)
    /// and the key kept from then on.
    pub fn content_key(&self, cache: &GoldenCache) -> u64 {
        *self.content.get_or_init(|| cache.printed(self.print_key()))
    }

    fn print_key(&self) -> u64 {
        match &self.program {
            None => module_hash(&self.module),
            Some(p) => asm_hash(&self.module, p),
        }
    }

    /// A pass-through: the raw twin once seeded cross-variant snapshot
    /// sharing, which is gone. Kept only because `benchmark/src/trace.rs`
    /// calls it; retired with ROADMAP item 1(a).
    pub fn with_raw(self, _module: Arc<Module>, _program: Option<Arc<AsmProgram>>) -> TrialUnit {
        self
    }

    /// The machine of this (assembly) unit's program.
    pub(crate) fn machine(&self) -> Machine<'_> {
        Machine::new(&self.module, self.program.as_ref().expect("asm unit has a program"))
    }

    /// The region (function) holding machine instruction `idx` of this
    /// assembly unit; `OTHER_REGION` for an index outside every function.
    pub(crate) fn inst_region(&self, idx: u32) -> &str {
        let program = self.program.as_ref().expect("asm unit has a program");
        let func = program.funcs.iter().find(|f| (f.entry..f.end).contains(&idx));
        func.map_or(flowery_regions::OTHER_REGION, |f| f.name.as_str())
    }

    /// The id region `name` has in this unit's site log (the layer's
    /// `Substrate::site_regions` numbering): its function's position, or
    /// one past the machine functions for their `OTHER_REGION`.
    pub(crate) fn region_id(&self, name: &str) -> Option<usize> {
        let Some(program) = &self.program else {
            return self.module.functions.iter().position(|f| f.name == name);
        };
        let func = program.funcs.iter().position(|f| f.name == name);
        func.or((name == flowery_regions::OTHER_REGION).then_some(program.funcs.len()))
    }

    /// The engine this unit's trials execute on under `exec` — what the
    /// unit's substrate actually runs, for instruction attribution.
    pub fn engine(&self, exec: &ExecConfig) -> ExecMode {
        match self.key.layer {
            Layer::Ir => IrLayer::engine(exec),
            Layer::Asm => AsmLayer::engine(exec),
        }
    }
}

/// Parameters for building the standard study matrix from workload names.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Workload names; empty means all benchmarks.
    pub benches: Vec<String>,
    /// Out-of-tree programs as `(name, MiniC source)`, compiled exactly
    /// like a workload and appended after `benches`. Sources must already
    /// be known to compile (validate before building); names must not
    /// collide with built-in benchmarks.
    pub sources: Vec<(String, String)>,
    pub scale: Scale,
    /// Protection levels for the Id / Flowery variants.
    pub levels: Vec<f64>,
    /// Trials for the per-instruction SDC profile driving selective
    /// protection (only used for levels below 1.0).
    pub profile_trials: u64,
    pub profile_seed: u64,
    pub backend: BackendConfig,
    pub threads: usize,
}

impl MatrixSpec {
    /// Whether some level is partial: only those select by profile.
    pub fn needs_profile(&self) -> bool {
        self.levels.iter().any(|&l| !is_full(l))
    }
}

impl Default for MatrixSpec {
    fn default() -> MatrixSpec {
        MatrixSpec {
            benches: Vec::new(),
            sources: Vec::new(),
            scale: Scale::Standard,
            levels: vec![1.0],
            profile_trials: 1200,
            profile_seed: 0x51C2_3001 ^ 0x9E37_79B9,
            backend: BackendConfig::default(),
            threads: 0,
        }
    }
}

/// Content fingerprint of a built matrix: folds every unit's key together
/// with its program's content key (the one it carries, else printed). Two
/// parties that build the matrix independently from the same plan compare
/// fingerprints to catch a nondeterministic build or divergent code up
/// front, rather than as corrupt results (the ledger's hand re-drive in
/// `benchmark/` does).
pub fn matrix_fingerprint(units: &[TrialUnit]) -> u64 {
    let mut text = String::new();
    for u in units {
        let key = u.content.get().copied().unwrap_or_else(|| u.print_key());
        text.push_str(&format!("{}:{key:016x}\n", u.key.id()));
    }
    flowery_ir::fnv1a(text.as_bytes())
}

fn is_full(level: f64) -> bool {
    (level - 1.0).abs() < 1e-9
}

/// The protection recipe, stated once: `raw` duplicated at each of
/// `spec.levels` — everything at full protection, below it the instructions
/// an SDC profile of `spec.profile_trials` IR-level injections ranks highest
/// (the profile runs, in memory, only when some level needs it) — and the
/// Flowery patches applied on top. One `(level, Id, Id+Flowery)` per level,
/// in order.
pub fn protect(raw: &Module, spec: &MatrixSpec) -> Vec<(f64, Module, Module)> {
    protect_with(raw, spec, spec.needs_profile().then(|| profile_of(raw, spec)).as_ref())
}

/// [`protect`] under an already-run selection `profile`.
fn protect_with(raw: &Module, spec: &MatrixSpec, profile: Option<&SdcProfile>) -> Vec<(f64, Module, Module)> {
    let protect_at = |&level: &f64| {
        let plan = match profile {
            Some(profile) if !is_full(level) => choose_protection(raw, profile, level),
            _ => ProtectionPlan::full(raw),
        };
        let mut id = raw.clone();
        duplicate_module(&mut id, &plan, &DupConfig::default());
        let mut flowery = id.clone();
        apply_flowery(&mut flowery, &FloweryConfig::default());
        (level, id, flowery)
    };
    spec.levels.iter().map(protect_at).collect()
}

/// The selection profile pass: the SDC profile of each of the `raw` IR
/// units' programs, by name — from its record in `stored` when one matches
/// its content, seed and trial count, else from one [`run_units`] pass over
/// the raw IR under the profile schedule (`cfg`'s engine settings, which
/// never change an outcome) plus one profiled fault-free pass for the
/// execution counts. Each profile it runs is appended to `opts.checkpoint`,
/// whose batch records its trials never enter; `opts.progress` may stop it.
fn profile_pass(
    raw: &[TrialUnit],
    spec: &MatrixSpec,
    cfg: &HarnessConfig,
    cache: &GoldenCache,
    stored: &[ProfileRecord],
    opts: RunOptions<'_>,
) -> (HashMap<String, SdcProfile>, CampaignReport) {
    let sched = HarnessConfig {
        max_trials: spec.profile_trials,
        ci_target: None,
        seed: spec.profile_seed,
        fault_model: ModelSpec::SingleBitReg,
        detectors: Vec::new(),
        static_prune: false,
        ..cfg.clone()
    };
    let (mut profiles, mut units) = (HashMap::new(), Vec::new());
    for unit in raw {
        let made = (unit.key.bench.as_str(), unit.content_key(cache), sched.seed, sched.max_trials);
        match stored
            .iter()
            .find(|r| (r.program.as_str(), r.module_hash, r.seed, r.trials) == made)
        {
            Some(rec) => _ = profiles.insert(unit.key.bench.clone(), rec.profile.clone()),
            None => units.push(unit.clone()),
        }
    }
    if units.is_empty() {
        return (profiles, CampaignReport::default());
    }
    let mut report = run_units(&units, &sched, cache, RunOptions { progress: opts.progress, ..Default::default() });
    for result in &report.units {
        let unit = units.iter().find(|u| u.key == result.key).expect("a unit of this pass");
        let counts = cache.exec_profile(&unit.module, &sched.exec);
        let rec = ProfileRecord {
            program: result.key.bench.clone(),
            module_hash: unit.content_key(cache),
            seed: sched.seed,
            trials: sched.max_trials,
            profile: build_profile(&unit.module, &counts, &result.sdc_by_inst, result.trials),
        };
        if let Some(Err(e)) = opts.checkpoint.map(|log| log.record_profile(&rec)) {
            report.error.get_or_insert(e);
        }
        profiles.insert(rec.program, rec.profile);
    }
    report.metrics = report.metrics.with_cache(cache.stats());
    (profiles, report)
}

/// The raw IR unit of program `name`.
fn raw_ir(name: &str, module: Module) -> TrialUnit {
    TrialUnit::ir(UnitKey::new(name, Variant::Raw, 0.0, Layer::Ir), Arc::new(module))
}

/// The selection profile of `raw` alone, run in memory.
fn profile_of(raw: &Module, spec: &MatrixSpec) -> SdcProfile {
    let cfg = HarnessConfig { threads: spec.threads, ..HarnessConfig::default() };
    let units = [raw_ir("raw", raw.clone())];
    let (mut profiles, report) = profile_pass(&units, spec, &cfg, &GoldenCache::new(), &[], RunOptions::default());
    if let Some(e) = report.error {
        panic!("selection profile: {e}");
    }
    profiles.remove("raw").expect("a finished pass profiles every program")
}

/// Parameters of [`profile_sdc`], kept for `benchmark/src/trace.rs` until
/// ROADMAP item 1.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub trials: u64,
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
}

impl CampaignConfig {
    pub fn with_trials(trials: u64) -> CampaignConfig {
        CampaignConfig { trials, seed: HarnessConfig::default().seed, threads: 0 }
    }
}

/// The selection profile of `m` under `cfg`, run in memory; kept for
/// `benchmark/src/trace.rs` until ROADMAP item 1.
pub fn profile_sdc(m: &Module, cfg: &CampaignConfig) -> SdcProfile {
    let mut spec = MatrixSpec {
        profile_trials: cfg.trials,
        threads: cfg.threads,
        ..MatrixSpec::default()
    };
    spec.profile_seed = cfg.seed;
    profile_of(m, &spec)
}

/// Build the standard matrix: for every benchmark, Raw at both layers,
/// Id at both layers per level, and Id+Flowery at the assembly layer per
/// level (the paper's protagonist configuration). The selection profiles
/// run in memory, on a cache dropped before this returns.
pub fn build_matrix(spec: &MatrixSpec) -> Vec<TrialUnit> {
    let cfg = HarnessConfig { threads: spec.threads, ..HarnessConfig::default() };
    let (units, report) = plan_matrix(spec, &cfg, &GoldenCache::new(), &[], RunOptions::default());
    match report.error {
        Some(e) => panic!("selection profile: {e}"),
        None => units,
    }
}

/// [`build_matrix`] for a campaign: the selection profiles come from
/// `stored` or run on the campaign's own `cache` (sharing the Raw@Ir
/// snapshot sets) and are appended to `opts.checkpoint` before any campaign
/// trial starts. Returns the matrix — none when the pass failed or was
/// stopped before every profile finished — and the pass's report.
pub fn plan_matrix(
    spec: &MatrixSpec,
    cfg: &HarnessConfig,
    cache: &GoldenCache,
    stored: &[ProfileRecord],
    opts: RunOptions<'_>,
) -> (Vec<TrialUnit>, CampaignReport) {
    let names: Vec<&str> = if spec.benches.is_empty() && spec.sources.is_empty() {
        flowery_workloads::NAMES.to_vec()
    } else {
        spec.benches.iter().map(|s| s.as_str()).collect()
    };
    // Each module and program is final once built: shrunk to fit, as the
    // campaign holds it to the end.
    let finished = |mut m: Module| {
        m.shrink_to_fit();
        m
    };
    let compiled = |m: &Module| {
        let mut p = compile_module(m, &spec.backend);
        p.shrink_to_fit();
        Arc::new(p)
    };
    let mut raw: Vec<TrialUnit> = names
        .iter()
        .map(|&name| raw_ir(name, finished(flowery_workloads::workload(name, spec.scale).compile())))
        .collect();
    for (name, src) in &spec.sources {
        let m =
            flowery_lang::compile(name, src).unwrap_or_else(|e| panic!("matrix source '{name}' does not compile: {e}"));
        raw.push(raw_ir(name, finished(m)));
    }
    let profiled = if spec.needs_profile() { raw.as_slice() } else { &[] };
    let (profiles, report) = profile_pass(profiled, spec, cfg, cache, stored, opts);
    if report.error.is_some() || !report.pending.is_empty() {
        return (Vec::new(), report);
    }
    // The Raw@Ir units are the profile pass's own, and keep the content
    // keys it printed.
    let mut units = Vec::new();
    for raw_unit in raw {
        let (name, m) = (raw_unit.key.bench.clone(), raw_unit.module.clone());
        let name = name.as_str();
        units.push(raw_unit);
        units.push(TrialUnit::asm(UnitKey::new(name, Variant::Raw, 0.0, Layer::Asm), m.clone(), compiled(&m)));
        for (level, id, flowery) in protect_with(&m, spec, profiles.get(name)) {
            let (id, fl) = (Arc::new(finished(id)), Arc::new(finished(flowery)));
            let (id_prog, fl_prog) = (compiled(&id), compiled(&fl));
            units.push(TrialUnit::ir(UnitKey::new(name, Variant::Id, level, Layer::Ir), id.clone()));
            units.push(TrialUnit::asm(UnitKey::new(name, Variant::Id, level, Layer::Asm), id, id_prog));
            units.push(TrialUnit::asm(UnitKey::new(name, Variant::Flowery, level, Layer::Asm), fl, fl_prog));
        }
    }
    (units, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_keys_are_stable_and_exact() {
        let k = UnitKey::new("quicksort", Variant::Id, 0.7, Layer::Asm);
        assert_eq!(k.level_permille, 700);
        assert!((k.level() - 0.7).abs() < 1e-12);
        assert_eq!(k.id(), "quicksort/Id@700/Asm");
        let json = serde_json::to_string(&k).unwrap();
        let back: UnitKey = serde_json::from_str(&json).unwrap();
        assert_eq!(k, back);
    }

    #[test]
    fn matrix_shape_for_one_bench() {
        let spec = MatrixSpec {
            benches: vec!["crc32".into()],
            scale: Scale::Tiny,
            levels: vec![1.0],
            ..Default::default()
        };
        let units = build_matrix(&spec);
        // Raw@Ir, Raw@Asm, Id@Ir, Id@Asm, Flowery@Asm.
        assert_eq!(units.len(), 5);
        for u in &units {
            assert_eq!(u.program.is_some(), u.key.layer == Layer::Asm, "{}", u.key);
        }
        let ids: Vec<String> = units.iter().map(|u| u.key.id()).collect();
        assert!(ids.contains(&"crc32/Raw@0/Ir".to_string()));
        assert!(ids.contains(&"crc32/Flowery@1000/Asm".to_string()));
    }

    #[test]
    fn matrix_programs_keep_no_spare_capacity() {
        let spec = MatrixSpec {
            benches: vec!["crc32".into()],
            scale: Scale::Tiny,
            levels: vec![0.5, 1.0],
            profile_trials: 40,
            ..Default::default()
        };
        for u in build_matrix(&spec) {
            for f in &u.module.functions {
                assert_eq!(f.insts.capacity(), f.insts.len(), "{}: {}", u.key, f.name);
                assert!(f.blocks.iter().all(|b| b.insts.capacity() == b.insts.len()), "{}: {}", u.key, f.name);
            }
            if let Some(p) = &u.program {
                assert_eq!(p.insts.capacity(), p.insts.len(), "{}", u.key);
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let spec = MatrixSpec {
            benches: vec!["crc32".into()],
            scale: Scale::Tiny,
            levels: vec![1.0],
            ..Default::default()
        };
        let a = build_matrix(&spec);
        let b = build_matrix(&spec);
        assert_eq!(matrix_fingerprint(&a), matrix_fingerprint(&b), "same plan, same fingerprint");
        assert_ne!(
            matrix_fingerprint(&a),
            matrix_fingerprint(&a[1..]),
            "different units, different fingerprint"
        );
    }
}
