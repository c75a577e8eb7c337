//! The experiment matrix: benchmark × variant × layer decomposed into
//! [`TrialUnit`]s, the schedulable atoms of a campaign.

use flowery_backend::{compile_module, AsmLayer, AsmProgram, BackendConfig, Machine};
use flowery_ir::interp::{ExecConfig, ExecMode, IrLayer, Substrate};
use flowery_ir::Module;
use flowery_passes::{apply_flowery, choose_protection, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use flowery_workloads::Scale;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

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
#[derive(Clone)]
pub struct TrialUnit {
    pub key: UnitKey,
    pub module: Arc<Module>,
    /// Compiled program; present exactly when `key.layer == Layer::Asm`.
    pub program: Option<Arc<AsmProgram>>,
}

impl TrialUnit {
    pub fn ir(key: UnitKey, module: Arc<Module>) -> TrialUnit {
        assert_eq!(key.layer, Layer::Ir);
        TrialUnit { key, module, program: None }
    }

    pub fn asm(key: UnitKey, module: Arc<Module>, program: Arc<AsmProgram>) -> TrialUnit {
        assert_eq!(key.layer, Layer::Asm);
        TrialUnit { key, module, program: Some(program) }
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
/// with the content hash of its program (printed IR, plus the machine
/// listing for assembly units). Two parties that build the matrix
/// independently from the same plan compare fingerprints to catch a
/// nondeterministic build or divergent code up front, rather than as
/// corrupt results (the ledger's hand re-drive in `benchmark/` does).
pub fn matrix_fingerprint(units: &[TrialUnit]) -> u64 {
    let mut text = String::new();
    for u in units {
        text.push_str(&u.key.id());
        text.push_str(&format!(":{:016x}", crate::cache::module_hash(&u.module)));
        if let Some(p) = &u.program {
            text.push_str(&format!(":{:016x}", crate::cache::program_hash(p)));
        }
        text.push('\n');
    }
    flowery_ir::fnv1a(text.as_bytes())
}

/// The protection recipe, stated once: `raw` duplicated at each of
/// `spec.levels` — everything at full protection, below it the instructions
/// an SDC profile of `spec.profile_trials` IR-level injections ranks highest
/// (the profile runs only when some level needs it) — and the Flowery patches
/// applied on top. One `(level, Id, Id+Flowery)` per level, in order.
pub fn protect(raw: &Module, spec: &MatrixSpec) -> Vec<(f64, Module, Module)> {
    let full = |level: f64| (level - 1.0).abs() < 1e-9;
    let needs_profile = spec.levels.iter().any(|&l| !full(l));
    let profile = needs_profile.then(|| {
        let mut cfg = flowery_inject::CampaignConfig::with_trials(spec.profile_trials);
        cfg.seed = spec.profile_seed;
        cfg.threads = spec.threads;
        flowery_inject::profile_sdc(raw, &cfg)
    });
    let protect_at = |&level: &f64| {
        let plan = match &profile {
            Some(profile) if !full(level) => choose_protection(raw, profile, level),
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

/// Build the standard matrix: for every benchmark, Raw at both layers,
/// Id at both layers per level, and Id+Flowery at the assembly layer per
/// level (the paper's protagonist configuration).
pub fn build_matrix(spec: &MatrixSpec) -> Vec<TrialUnit> {
    let names: Vec<&str> = if spec.benches.is_empty() && spec.sources.is_empty() {
        flowery_workloads::NAMES.to_vec()
    } else {
        spec.benches.iter().map(|s| s.as_str()).collect()
    };
    let mut programs: Vec<(String, Arc<Module>)> = names
        .iter()
        .map(|&name| (name.to_string(), Arc::new(flowery_workloads::workload(name, spec.scale).compile())))
        .collect();
    for (name, src) in &spec.sources {
        let m =
            flowery_lang::compile(name, src).unwrap_or_else(|e| panic!("matrix source '{name}' does not compile: {e}"));
        programs.push((name.clone(), Arc::new(m)));
    }
    let mut units = Vec::new();
    for (name, raw) in &programs {
        let name = name.as_str();
        let raw = raw.clone();
        let raw_prog = Arc::new(compile_module(&raw, &spec.backend));
        units.push(TrialUnit::ir(UnitKey::new(name, Variant::Raw, 0.0, Layer::Ir), raw.clone()));
        units.push(TrialUnit::asm(UnitKey::new(name, Variant::Raw, 0.0, Layer::Asm), raw.clone(), raw_prog));
        for (level, id, flowery) in protect(&raw, spec) {
            let id = Arc::new(id);
            let id_prog = Arc::new(compile_module(&id, &spec.backend));
            let fl = Arc::new(flowery);
            let fl_prog = Arc::new(compile_module(&fl, &spec.backend));
            units.push(TrialUnit::ir(UnitKey::new(name, Variant::Id, level, Layer::Ir), id.clone()));
            units.push(TrialUnit::asm(UnitKey::new(name, Variant::Id, level, Layer::Asm), id, id_prog));
            units.push(TrialUnit::asm(UnitKey::new(name, Variant::Flowery, level, Layer::Asm), fl, fl_prog));
        }
    }
    units
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
