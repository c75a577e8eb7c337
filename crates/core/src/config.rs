//! Experiment configuration shared by every figure/table pipeline.

use flowery_backend::BackendConfig;
use flowery_workloads::Scale;
use serde::{Deserialize, Serialize};

/// Full study configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Workload input scale.
    #[serde(skip)]
    pub scale: Scale,
    /// Fault-injection campaigns per configuration (paper: 3,000).
    pub trials: u64,
    /// Campaigns used to estimate per-instruction SDC probabilities for
    /// selective protection.
    pub profile_trials: u64,
    /// Protection levels (paper: 30%, 50%, 70%, 100%).
    pub levels: Vec<f64>,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for campaigns (0 = all cores).
    pub threads: usize,
    /// Trials per scheduling batch of the campaign harness.
    pub batch_size: u64,
    /// Adaptive stopping: target half-width of the 95% Wilson CI on each
    /// unit's SDC rate. `None` runs the full `trials` everywhere.
    pub ci_target: Option<f64>,
    /// Floor below which adaptive stopping never fires.
    pub min_trials: u64,
    /// Backend knobs (ablation axes).
    #[serde(skip)]
    pub backend: BackendConfig,
    /// Fast-forward trials from golden-run snapshots (bit-identical
    /// results; default on — turn off to measure the speedup or to pin
    /// down a suspected snapshot divergence).
    pub snapshots: bool,
    /// Byte budget for each snapshot set's page overlays (`None` =
    /// unbounded): capture runs widen their cadence and drop every other
    /// snapshot while over budget, bounding memory on store-heavy
    /// workloads at some fast-forward granularity cost.
    pub snapshot_budget: Option<u64>,
    /// Print progress to stderr.
    pub verbose: bool,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            scale: Scale::Standard,
            trials: 3000,
            profile_trials: 1200,
            levels: vec![0.3, 0.5, 0.7, 1.0],
            seed: 0x51C2_3001,
            threads: 0,
            batch_size: 250,
            ci_target: None,
            min_trials: 500,
            backend: BackendConfig::default(),
            snapshots: true,
            snapshot_budget: None,
            verbose: false,
        }
    }
}

impl ExperimentConfig {
    /// A cheap configuration for tests and Criterion benches: fewer trials,
    /// same protocol.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig { trials: 250, profile_trials: 150, ..Default::default() }
    }

    /// Even cheaper: single level, minimal trials (smoke tests).
    pub fn smoke() -> ExperimentConfig {
        ExperimentConfig {
            trials: 120,
            profile_trials: 80,
            levels: vec![1.0],
            scale: Scale::Tiny,
            ..Default::default()
        }
    }

    /// Harness parameters for the campaign engine.
    pub fn harness(&self) -> flowery_harness::HarnessConfig {
        flowery_harness::HarnessConfig {
            batch_size: self.batch_size.clamp(1, self.trials.max(1)),
            max_trials: self.trials,
            min_trials: self.min_trials.min(self.trials),
            ci_target: self.ci_target,
            seed: self.seed,
            threads: self.threads,
            snapshots: self.snapshots,
            exec: self.exec(),
            ..Default::default()
        }
    }

    fn exec(&self) -> flowery_ir::interp::ExecConfig {
        flowery_ir::interp::ExecConfig { snapshot_budget: self.snapshot_budget, ..Default::default() }
    }

    pub(crate) fn campaign(&self) -> flowery_inject::CampaignConfig {
        flowery_inject::CampaignConfig {
            trials: self.trials,
            seed: self.seed,
            threads: self.threads,
            snapshots: self.snapshots,
            golden_profile: false,
            exec: self.exec(),
            ..Default::default()
        }
    }

    pub(crate) fn profile_campaign(&self) -> flowery_inject::CampaignConfig {
        flowery_inject::CampaignConfig {
            trials: self.profile_trials,
            seed: self.seed ^ 0x9E37_79B9,
            ..self.campaign()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_protocol() {
        let c = ExperimentConfig::default();
        assert_eq!(c.trials, 3000);
        assert_eq!(c.levels, vec![0.3, 0.5, 0.7, 1.0]);
    }

    #[test]
    fn quick_is_cheaper() {
        assert!(ExperimentConfig::quick().trials < ExperimentConfig::default().trials);
        assert_eq!(ExperimentConfig::smoke().levels, vec![1.0]);
    }
}
