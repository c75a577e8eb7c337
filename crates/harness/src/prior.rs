//! The static-prune layer: a per-unit oracle mapping sampled fault specs
//! to bit-lattice masking proofs.
//!
//! [`StaticPrior`] pairs the per-program [`BitTable`] (which sampled bits
//! of which *static* instruction are proven masked) with the golden site
//! trace (which static instruction the `n`-th *dynamic* fault site is).
//! The harness consults it per trial: when the sampled (site, bit) pair is
//! proven masked, the trial resolves as Benign with golden-identical
//! attribution and zero execution. Crucially the sample draw itself is
//! untouched — pruned and unpruned campaigns consume the identical trial
//! stream, so outcome counts, Wilson intervals, SDC attributions, and
//! checkpoint records are bit-for-bit equal; only the work is skipped.
//! (No mass is moved between bins, so estimates stay unbiased by
//! construction — "renormalization" is the no-op of keeping the stream.)

use flowery_analysis::statline::bits::{BitTable, BITS_VERSION};
use flowery_backend::AsmFaultSpec;
use flowery_ir::fnv1a;
use flowery_ir::interp::FaultEffect;
use std::sync::Arc;

/// Provenance signature of the prune recipe itself: analyzer version plus
/// the engine's virtual-benign contract. Recorded (combined with each
/// unit's table fingerprint) in checkpoint headers and batch records;
/// resumes across differing signatures are refused rather than silently
/// mixed. `asm-key-2`: table fingerprints fold [`crate::cache::asm_hash`],
/// so a log pruned under the listing-only key is refused.
pub fn prune_signature() -> u64 {
    fnv1a(b"static-prune/virtual-benign/asm-key-2/") ^ fnv1a(BITS_VERSION.as_bytes())
}

/// Per-unit prune oracle (assembly layer only).
pub struct StaticPrior {
    table: Arc<BitTable>,
    /// `site_map[i]` = static instruction index of dynamic fault site `i`
    /// in the golden run (a prefix — sites beyond the cap go unpruned).
    site_map: Arc<Vec<u32>>,
    /// `table.fingerprint(content key)`, recorded for provenance.
    table_hash: u64,
}

impl StaticPrior {
    pub fn new(table: Arc<BitTable>, site_map: Arc<Vec<u32>>, table_hash: u64) -> StaticPrior {
        StaticPrior { table, site_map, table_hash }
    }

    /// The prune-table fingerprint recorded in batch records.
    pub fn table_hash(&self) -> u64 {
        self.table_hash
    }

    /// Mean vulnerable fraction of the table (flagged-first ordering key).
    pub fn mean_vulnerable(&self) -> f64 {
        self.table.mean_vulnerable()
    }

    /// Total proven-masked (site, bit) pairs in the table.
    pub fn proven_pairs(&self) -> u64 {
        self.table.proven_pairs
    }

    /// If `spec` is provably masked, the instruction index it would land
    /// on (the virtual trial's attribution); `None` means run it for real.
    ///
    /// Only the plain bit-flip effect is prunable: the proofs are about
    /// destination bit flips, not bursts, flag strikes, memory-cell hits,
    /// or control-edge redirects. A double-bit flip is masked iff both
    /// bits are individually masked (tracked deviations compose
    /// pointwise). Sites past the golden run's site count never fire —
    /// the sampler draws within it — and sites past the trace cap stay
    /// unpruned.
    pub fn masked_inst(&self, spec: &AsmFaultSpec) -> Option<u32> {
        if spec.effect != FaultEffect::Bits {
            return None;
        }
        let inst = *self.site_map.get(usize::try_from(spec.site_index).ok()?)?;
        let v = self.table.verdicts.get(inst as usize)?;
        if v.masked(spec.bit) && spec.second_bit.is_none_or(|b2| v.masked(b2)) {
            Some(inst)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_analysis::statline::bits::BitVerdict;

    fn prior(masked: u64) -> StaticPrior {
        let table = BitTable {
            verdicts: vec![BitVerdict { proven_masked: masked, vulnerable: !masked }],
            sites: 1,
            proven_pairs: masked.count_ones() as u64,
        };
        StaticPrior::new(Arc::new(table), Arc::new(vec![0]), 42)
    }

    #[test]
    fn masks_only_bit_effect_singles_and_composed_doubles() {
        let p = prior(0b1010);
        assert_eq!(p.masked_inst(&AsmFaultSpec::single(0, 1)), Some(0));
        assert_eq!(p.masked_inst(&AsmFaultSpec::single(0, 0)), None);
        assert_eq!(p.masked_inst(&AsmFaultSpec::double(0, 1, 3)), Some(0));
        assert_eq!(p.masked_inst(&AsmFaultSpec::double(0, 1, 2)), None, "both bits must be proven");
        let mut burst = AsmFaultSpec::single(0, 1);
        burst.effect = FaultEffect::Burst { width: 2 };
        assert_eq!(p.masked_inst(&burst), None, "only the plain bit-flip effect is prunable");
        assert_eq!(p.masked_inst(&AsmFaultSpec::single(7, 1)), None, "sites past the trace cap stay unpruned");
    }

    #[test]
    fn signature_is_stable_and_version_bound() {
        assert_eq!(prune_signature(), prune_signature());
        assert_ne!(prune_signature(), 0);
    }
}
