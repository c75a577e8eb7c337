//! The five workloads: which cells of the study matrix each one runs, on
//! which engine, for how many trials. Trial counts are sized so one staged
//! repetition takes 1-2 s on two cores (see README, "Sizing").

use flowery::backend::ExecMode;
use flowery::harness::{build_matrix, HarnessConfig, Layer, MatrixSpec, TrialUnit};

/// `--seed` default; also the CLI's `--seed` default, so `--check-cli`
/// compares like with like.
pub const DEFAULT_SEED: u64 = 0x51C2_3001;
/// Worker threads of every timed run (the sandbox has two cores).
pub const THREADS: usize = 2;

/// Every other program of Table 1, in table order: half the matrix for
/// the three workloads that run every variant at both layers, so a
/// repetition stays under two seconds. Keeps the largest program (susan) and programs
/// of all three suites.
pub const HALF: &[&str] = &["backprop", "pathfinder", "needle", "ep", "is", "quicksort", "susan", "stringsearch"];

pub struct Workload {
    pub name: &'static str,
    /// Programs of the matrix; empty means all 16.
    pub benches: &'static [&'static str],
    /// Protection levels of the Id / Flowery variants.
    pub levels: &'static [f64],
    /// Trials of the SDC profile that drives selective protection (only
    /// run for levels below 1.0).
    pub profile_trials: u64,
    /// Restrict the matrix to one injection layer.
    pub layer: Option<Layer>,
    /// `None` leaves `HarnessConfig::default()`'s engine in place: the one
    /// users get without flags.
    pub executor: Option<ExecMode>,
    /// Trials per scheduling batch.
    pub batch: u64,
    pub max_trials: u64,
    pub ci_target: Option<f64>,
    pub static_prune: bool,
    /// Timed part is the second half of an interrupted campaign.
    pub resume: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "asm_native",
        benches: &[],
        levels: &[1.0],
        profile_trials: 100,
        layer: Some(Layer::Asm),
        executor: Some(ExecMode::Native),
        batch: 250,
        max_trials: 1500,
        ci_target: None,
        static_prune: false,
        resume: false,
    },
    Workload {
        name: "ir_interp",
        benches: &[],
        levels: &[1.0],
        profile_trials: 100,
        layer: Some(Layer::Ir),
        executor: Some(ExecMode::Native),
        batch: 250,
        max_trials: 500,
        ci_target: None,
        static_prune: false,
        resume: false,
    },
    Workload {
        name: "sweep_setup",
        benches: HALF,
        levels: &[0.3, 0.5, 0.7, 1.0],
        profile_trials: 100,
        layer: None,
        executor: Some(ExecMode::Native),
        batch: 50,
        max_trials: 50,
        ci_target: None,
        static_prune: false,
        resume: false,
    },
    Workload {
        name: "adaptive_pruned",
        benches: HALF,
        levels: &[1.0],
        profile_trials: 100,
        layer: None,
        executor: Some(ExecMode::Native),
        batch: 250,
        max_trials: 1000,
        ci_target: Some(0.03),
        static_prune: true,
        resume: false,
    },
    Workload {
        name: "resume_default",
        benches: HALF,
        levels: &[1.0],
        profile_trials: 100,
        layer: None,
        executor: None,
        batch: 250,
        max_trials: 500,
        ci_target: None,
        static_prune: false,
        resume: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The matrix plan. The seed reaches the program only through the
    /// generated schedule: fault sampling and the selection profile.
    pub fn spec(&self, seed: u64) -> MatrixSpec {
        MatrixSpec {
            benches: self.benches.iter().map(|b| b.to_string()).collect(),
            levels: self.levels.to_vec(),
            profile_trials: self.profile_trials,
            // At the default seed this is `MatrixSpec::default()`'s
            // profile seed, which the CLI always uses.
            profile_seed: seed ^ 0x9E37_79B9,
            threads: THREADS,
            ..MatrixSpec::default()
        }
    }

    pub fn config(&self, seed: u64) -> HarnessConfig {
        let mut cfg = HarnessConfig {
            batch_size: self.batch,
            max_trials: self.max_trials,
            min_trials: 500.min(self.max_trials),
            ci_target: self.ci_target,
            seed,
            threads: THREADS,
            static_prune: self.static_prune,
            ..HarnessConfig::default()
        };
        if let Some(e) = self.executor {
            cfg.exec.executor = e;
        }
        cfg
    }

    pub fn keeps(&self, unit: &TrialUnit) -> bool {
        self.layer.is_none_or(|l| unit.key.layer == l)
    }

    /// `build_matrix` restricted to this workload's layer.
    pub fn units(&self, seed: u64) -> Vec<TrialUnit> {
        let mut units = build_matrix(&self.spec(seed));
        units.retain(|u| self.keeps(u));
        units
    }
}
