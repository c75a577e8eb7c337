//! Fault-injection outcome classification (paper §2.1).

use flowery_ir::interp::ExecStatus;
use serde::{Deserialize, Serialize};

/// The four outcome classes of a fault-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// Execution completed with output identical to the golden run.
    Benign,
    /// Execution completed but the output differs — silent data corruption.
    Sdc,
    /// A duplication checker caught the fault (`detect_error` fired).
    Detected,
    /// Detectable unrecoverable error: trap, crash, livelock.
    Due,
}

/// Classify one faulty run against the golden run.
///
/// The return value of `main` counts as program output (the benchmarks
/// also emit explicit `output()` records; both must match for Benign).
pub fn classify(status: ExecStatus, output: &[u8], golden_status: ExecStatus, golden_output: &[u8]) -> Outcome {
    match status {
        ExecStatus::Detected => Outcome::Detected,
        ExecStatus::Trapped(_) => Outcome::Due,
        ExecStatus::Completed(_) => {
            if status == golden_status && output == golden_output {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }
    }
}

/// Aggregate outcome counts for one campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    pub benign: u64,
    pub sdc: u64,
    pub detected: u64,
    pub due: u64,
}

impl OutcomeCounts {
    pub fn record(&mut self, o: Outcome) {
        match o {
            Outcome::Benign => self.benign += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Detected => self.detected += 1,
            Outcome::Due => self.due += 1,
        }
    }

    /// All trials counted (saturating, as corrupt checkpoint counts may be).
    pub fn total(&self) -> u64 {
        [self.sdc, self.detected, self.due]
            .iter()
            .fold(self.benign, |t, &n| t.saturating_add(n))
    }

    fn rate(&self, n: u64) -> f64 {
        match self.total() {
            0 => 0.0,
            total => n as f64 / total as f64,
        }
    }

    /// SDC probability of the program under this campaign.
    pub fn sdc_rate(&self) -> f64 {
        self.rate(self.sdc)
    }

    pub fn detected_rate(&self) -> f64 {
        self.rate(self.detected)
    }

    pub fn due_rate(&self) -> f64 {
        self.rate(self.due)
    }

    /// Merge another campaign's counts (parallel shards), saturating.
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.benign = self.benign.saturating_add(other.benign);
        self.sdc = self.sdc.saturating_add(other.sdc);
        self.detected = self.detected.saturating_add(other.detected);
        self.due = self.due.saturating_add(other.due);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_ir::interp::memory::TrapKind;

    #[test]
    fn classification_rules() {
        let g = ExecStatus::Completed(42);
        let out = vec![1, 2, 3];
        assert_eq!(classify(ExecStatus::Completed(42), &out, g, &out), Outcome::Benign);
        assert_eq!(classify(ExecStatus::Completed(41), &out, g, &out), Outcome::Sdc);
        assert_eq!(classify(ExecStatus::Completed(42), &[1], g, &out), Outcome::Sdc);
        assert_eq!(classify(ExecStatus::Detected, &out, g, &out), Outcome::Detected);
        assert_eq!(classify(ExecStatus::Trapped(TrapKind::OobLoad), &out, g, &out), Outcome::Due);
    }

    #[test]
    fn counts_aggregate_and_merge() {
        let mut a = OutcomeCounts::default();
        a.record(Outcome::Sdc);
        a.record(Outcome::Sdc);
        a.record(Outcome::Benign);
        a.record(Outcome::Due);
        assert_eq!(a.total(), 4);
        assert_eq!(a.sdc_rate(), 0.5);
        let mut b = OutcomeCounts::default();
        b.record(Outcome::Detected);
        b.merge(&a);
        assert_eq!(b.total(), 5);
        assert_eq!(b.detected, 1);
        assert_eq!(b.sdc, 2);
    }

    #[test]
    fn empty_counts_have_zero_rates() {
        let c = OutcomeCounts::default();
        assert_eq!(c.sdc_rate(), 0.0);
        assert_eq!(c.due_rate(), 0.0);
        assert_eq!(c.detected_rate(), 0.0);
    }
}
