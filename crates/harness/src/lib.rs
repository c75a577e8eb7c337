//! # flowery-harness
//!
//! The campaign engine behind the cross-layer study: it decomposes the
//! experiment matrix (benchmark × variant × layer) into fixed-size trial
//! batches and drains them with a single work-stealing scheduler, instead
//! of running each campaign behind its own thread-pool barrier.
//!
//! The subsystem is built from four pieces:
//!
//! * [`plan`] — [`UnitKey`]/[`TrialUnit`]: the schedulable atoms, plus
//!   [`protect`] (the protection recipe) and [`build_matrix`] /
//!   [`plan_matrix`] for the standard study matrix, whose selection profiles
//!   are one [`run_units`] pass;
//! * [`cache`] — [`GoldenCache`]: golden runs keyed by program content
//!   hash, shared across units and across the passes of a sweep;
//! * [`checkpoint`] — an append-only JSONL log of completed batches,
//!   finished selection profiles and programs' golden counts that makes
//!   interrupted campaigns resumable bit-for-bit;
//! * [`engine`] — [`run_units`]: batch scheduling, adaptive trial counts
//!   (Wilson 95% CI early stop), and live [`metrics`].
//!
//! Because each trial is a pure function of `(seed, trial index)`, the
//! engine's results are identical for any thread count, any interleaving,
//! and any interrupt/resume split — a campaign stopped early by the CI
//! rule reports exactly the counts a fixed-length campaign of the same
//! prefix would.

pub mod cache;
pub mod checkpoint;
pub mod engine;
pub mod explore;
pub mod incremental;
pub mod metrics;
pub mod plan;
pub mod prior;
pub mod progress;
pub mod shutdown;
pub mod snapstore;

pub use cache::{asm_hash, module_hash, program_hash, CacheStats, GoldenCache};
pub use checkpoint::{
    canonicalize, canonicalize_regions, compact, load as load_checkpoint, load_full as load_checkpoint_full, open,
    refused_note, seal, write_canonical, write_canonical_full, BatchRecord, CheckpointLog, GoldenRecord, Header,
    ProfileRecord, Refusal, RegionRecord,
};
pub use engine::{
    run_plain, run_units, run_units_after, status_printer, CampaignReport, Control, HarnessConfig, Progress,
    RunOptions, UnitResult, UnitRunner,
};
pub use explore::{explore, render_table, DesignPoint, ExploreReport, ExploreSpec, ModelFrontier, WorkloadReport};
pub use incremental::{
    region_records, run_diff, unit_region_set, unit_salt, Baseline, DiffReport, DiffUnitReport, RegionReport,
};
pub use metrics::MetricsSnapshot;
pub use plan::{
    build_matrix, matrix_fingerprint, plan_matrix, profile_sdc, protect, CampaignConfig, Layer, MatrixSpec, TrialUnit,
    UnitKey, Variant,
};
pub use prior::{prune_signature, StaticPrior};
pub use progress::BatchOutcome;
pub use snapstore::SnapshotStore;
