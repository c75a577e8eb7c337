//! The reference campaign the harness is held against: trials `0..trials`
//! of one program run one after another on one `TrialRunner` and folded,
//! in trial order, into one `BatchOutcome` — no worker pool, no batches, no
//! golden cache, no checkpoint. Test code only; include it with
//! `#[path = "common/serial_fold.rs"] mod serial_fold;` (from a crate's
//! own `tests/`, `#[path = "../../../tests/common/serial_fold.rs"]`).
#![allow(dead_code)]

use flowery_inject::campaign::{InjectLayer, TrialRunner};
use flowery_inject::{BatchOutcome, ModelSpec};

/// The default schedule's seed (`HarnessConfig::default().seed`).
pub const SEED: u64 = 0x0F10_EE41;

/// Trials `0..trials` of the campaign `seed` names, under `model` with no
/// detectors, folded in trial order.
pub fn serial_fold<S: InjectLayer>(
    runner: &mut TrialRunner<'_, S>,
    seed: u64,
    trials: u64,
    model: ModelSpec,
) -> BatchOutcome {
    let mut total = BatchOutcome::default();
    for i in 0..trials {
        total.record(&runner.run_trial_model(seed, i, model, &[]), None);
    }
    total
}
