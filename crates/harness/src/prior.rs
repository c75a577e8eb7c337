//! The static-prune recipe and its trace-fed oracle.
//!
//! A pruned campaign hands each assembly unit's machine the per-program
//! [`BitTable`]'s proven-masked bits (`Machine::pruning`): when a trial's
//! sampled (site, bit) pair is proven masked at the instruction it lands
//! on, the run stops there and the trial resolves as Benign with
//! golden-identical attribution. The sample draw itself is untouched —
//! pruned and unpruned campaigns consume the identical trial stream, so
//! outcome counts, Wilson intervals, SDC attributions, and checkpoint
//! records are bit-for-bit equal; only the work past the site is skipped.
//! (No mass is moved between bins, so estimates stay unbiased by
//! construction — "renormalization" is the no-op of keeping the stream.)
//!
//! [`StaticPrior`] decides the same draws before a trial runs, from the
//! golden site trace: the independent check of the in-engine prune.

use flowery_analysis::statline::bits::{BitTable, BITS_VERSION};
use flowery_backend::AsmFaultSpec;
use flowery_ir::fnv1a;
use flowery_ir::interp::FaultEffect;
use std::sync::Arc;

/// Provenance signature of the prune recipe itself: analyzer version plus
/// the engine's contract. Recorded (combined with each unit's table
/// fingerprint) in checkpoint headers and batch records; resumes across
/// differing signatures are refused rather than silently mixed.
/// `asm-key-2`: table fingerprints fold [`crate::cache::asm_hash`], so a
/// log pruned under the listing-only key is refused. `in-step`: the prune
/// is decided where the fault lands, with no site-trace cap, so a program
/// past the old 2^22-site trace prunes draws a trace-capped log executed.
pub fn prune_signature() -> u64 {
    fnv1a(b"static-prune/in-step/asm-key-2/") ^ fnv1a(BITS_VERSION.as_bytes())
}

/// Per-unit prune oracle fed by the golden site trace (assembly layer
/// only). Kept for `benchmark/src/trace.rs` until ROADMAP 1(a).
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

    /// If `spec` is provably masked, the instruction index it would land
    /// on (the pruned trial's attribution); `None` means run it for real.
    ///
    /// Only the plain bit-flip effect is prunable: the proofs are about
    /// destination bit flips, not bursts, flag strikes, memory-cell hits,
    /// or control-edge redirects. A double-bit flip is masked iff both
    /// bits are individually masked (tracked deviations compose
    /// pointwise). Sites past the golden run's site count never fire (the
    /// sampler draws within it); past the trace cap they stay unpruned,
    /// where a pruning machine, deciding the same draws in its run, has no cap.
    pub fn masked_inst(&self, spec: &AsmFaultSpec) -> Option<u32> {
        let inst = *self.site_map.get(usize::try_from(spec.site_index).ok()?)?;
        let v = self.table.verdicts.get(inst as usize)?;
        let masked = v.masked(spec.bit) && spec.second_bit.is_none_or(|b2| v.masked(b2));
        (spec.effect == FaultEffect::Bits && masked).then_some(inst)
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
        // Pinned: a recipe change must move it on purpose, so a log pruned
        // under the old recipe is refused on resume.
        assert_eq!(prune_signature(), 0x3dff_df53_f9ac_6d2c);
    }
}
