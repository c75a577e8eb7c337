//! Batch-level unit progress and the deterministic stopping rule.
//!
//! Shared by the engine ([`crate::engine`]) and the checkpoint compactor
//! ([`crate::checkpoint::canonicalize`]): both fold completed batches into
//! a `UnitProgress` and let the same prefix rule decide when a unit is
//! done, so a campaign sharded across processes stops at exactly the same
//! point as a single-process run. The rule is evaluated at each prefix
//! boundary in batch-index order, which makes the decision a pure function
//! of batch contents — never of completion order, thread count, or which
//! process executed what.

use crate::checkpoint::Header;
use flowery_inject::stats::wilson_half_width;
use flowery_inject::OutcomeCounts;
use std::collections::BTreeMap;

pub use flowery_inject::BatchOutcome;

/// Completed batches of one unit (only those that landed) plus the adaptive stopping decision.
pub(crate) struct UnitProgress {
    batches: BTreeMap<u64, BatchOutcome>,
    /// Schedule length in batches.
    max: u64,
    /// Contiguous completed batches from index 0.
    prefix: u64,
    /// Cumulative counts over the prefix (drives the stopping rule).
    cum: OutcomeCounts,
    /// Number of batches in the final result, once decided.
    decided: Option<u64>,
}

impl UnitProgress {
    pub fn new(max_batches: u64) -> UnitProgress {
        UnitProgress {
            batches: BTreeMap::new(),
            max: max_batches,
            prefix: 0,
            cum: OutcomeCounts::default(),
            decided: None,
        }
    }

    /// Store a finished batch and advance the stopping rule. Returns true
    /// when this insertion decided the unit. Inserting a batch that is
    /// already present is a no-op (idempotent merge: re-executed batches
    /// are pure re-runs and carry identical contents).
    pub fn insert(&mut self, batch: u64, data: BatchOutcome, rule: &Header) -> bool {
        self.batches.entry(batch).or_insert(data);
        let was_decided = self.decided.is_some();
        while self.prefix < self.max {
            let Some(done) = self.batches.get(&self.prefix) else {
                break;
            };
            self.cum.merge(&done.counts);
            self.prefix += 1;
            if self.decided.is_none() {
                let trials = self.prefix.saturating_mul(rule.batch_size).min(rule.max_trials);
                let full = self.prefix == self.max;
                let hit = rule
                    .ci_target
                    .is_some_and(|t| trials >= rule.min_trials && wilson_half_width(self.cum.sdc, trials) <= t);
                if full || hit {
                    self.decided = Some(self.prefix);
                }
            }
        }
        !was_decided && self.decided.is_some()
    }

    /// The decided batch count, once the stopping rule has fired.
    pub fn decided(&self) -> Option<u64> {
        self.decided
    }

    /// Whether batch `b` has been recorded.
    pub fn has_batch(&self, b: u64) -> bool {
        self.batches.contains_key(&b)
    }

    /// The decided prefix folded into one tally in batch-index order — or,
    /// while the unit is undecided, whatever contiguous prefix has landed.
    pub fn merged(&self) -> BatchOutcome {
        let mut total = BatchOutcome::default();
        for done in self.batches.range(..self.decided.unwrap_or(self.prefix)).map(|(_, b)| b) {
            total.merge(done);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{BatchRecord, MAGIC, VERSION};
    use crate::plan::{Layer, UnitKey, Variant};
    use flowery_faultmodel::ModelSpec;

    fn rule(batch_size: u64, max_trials: u64, min_trials: u64, ci_target: Option<f64>) -> Header {
        Header {
            magic: MAGIC.into(),
            version: VERSION,
            seed: 1,
            batch_size,
            max_trials,
            min_trials,
            ci_target,
            double_bit: false,
            fault_model: ModelSpec::SingleBitReg,
            detectors: Vec::new(),
            exec_mode: Default::default(),
            region_schema: 0,
            static_prune: 0,
        }
    }

    fn quiet(n: u64) -> BatchOutcome {
        BatchOutcome {
            counts: OutcomeCounts { benign: n, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let r = rule(10, 40, 10, None);
        let mut p = UnitProgress::new(4);
        assert!(!p.insert(0, quiet(10), &r));
        assert!(!p.insert(0, quiet(10), &r), "re-inserting must not re-count");
        assert!(p.has_batch(0) && !p.has_batch(1));
        assert!(!p.insert(1, quiet(10), &r));
        assert!(!p.insert(2, quiet(10), &r));
        assert!(p.insert(3, quiet(10), &r));
        assert_eq!(p.decided(), Some(4));
    }

    #[test]
    fn record_roundtrip_drops_instruction_counters() {
        let out = BatchOutcome {
            counts: OutcomeCounts { benign: 9, sdc: 1, ..Default::default() },
            sdc_insts: vec![4, 4, 9],
            ff_insts: 1000,
            exec_insts: 500,
            rejoined: 4,
            pruned: 3,
            prune_table: 0xfeed,
            ..Default::default()
        };
        let key = UnitKey::new("b", Variant::Raw, 0.0, Layer::Asm);
        let rec = BatchRecord::new(key.clone(), 7, ModelSpec::MemCell, &out);
        assert_eq!(rec.unit, key);
        assert_eq!(rec.batch, 7);
        assert_eq!(rec.fault_model, ModelSpec::MemCell);
        let back = rec.outcome();
        assert_eq!(back.counts, out.counts);
        assert_eq!(back.sdc_insts, out.sdc_insts);
        assert_eq!((back.ff_insts, back.rejoined), (0, 0), "metrics counters are not checkpointed");
        assert_eq!(back.pruned, 3, "prune provenance survives the roundtrip");
        assert_eq!(back.prune_table, 0xfeed);
    }
}
