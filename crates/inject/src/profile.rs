//! SDC profiling: estimate per-instruction SDC contribution on the
//! *unprotected* program, feeding the knapsack protection selection
//! (paper §3: "fault injection analysis is often used to assess the SDC
//! probabilities of each instruction").

use crate::campaign::{run_ir_campaign, CampaignConfig};
use flowery_ir::module::Module;
use flowery_passes::select::{build_profile, SdcProfile};

/// Run a profiling campaign and assemble the [`SdcProfile`] used by
/// [`flowery_passes::choose_protection`].
///
/// The golden execution profile rides along in the campaign's capture run
/// ([`CampaignConfig::golden_profile`]), so a profiling campaign costs the
/// same number of golden executions as a plain one — and with snapshots
/// enabled its trials fast-forward exactly like any other campaign's.
pub fn profile_sdc(m: &Module, cfg: &CampaignConfig) -> SdcProfile {
    let cfg = CampaignConfig { golden_profile: true, ..cfg.clone() };
    let campaign = run_ir_campaign(m, &cfg);
    let exec_profile = campaign
        .golden_profile
        .expect("a campaign with `golden_profile` set profiles its capture run");
    build_profile(m, &exec_profile, &campaign.sdc_by_inst, campaign.counts.total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_passes::choose_protection;

    #[test]
    fn profile_feeds_selection() {
        let m = flowery_lang::compile(
            "t",
            "int main() { int s = 0; int i; for (i = 0; i < 25; i = i + 1) { s = s + i * 3; } output(s); return s; }",
        )
        .unwrap();
        let prof = profile_sdc(&m, &CampaignConfig::with_trials(300));
        assert!(prof.trials >= 300);
        assert!(!prof.entries.is_empty());
        assert!(prof.entries.iter().any(|e| e.sdc_hits > 0), "some instruction causes SDCs");
        let plan = choose_protection(&m, &prof, 0.5);
        assert!(plan.selected_count() > 0);
        let full = choose_protection(&m, &prof, 1.0);
        assert!(full.selected_count() >= plan.selected_count());
    }

    #[test]
    fn profiled_campaign_is_identical_with_and_without_snapshots() {
        // Long enough that the site-spaced cadence captures snapshots, so
        // the snapshot path genuinely fast-forwards profiled trials.
        let m = flowery_lang::compile(
            "t",
            "int main() { int s = 0; int i; for (i = 0; i < 1200; i = i + 1) { s = s + i * 7; } output(s); return s % 97; }",
        )
        .unwrap();
        let mut on = CampaignConfig::with_trials(200);
        on.threads = 2;
        let mut off = on.clone();
        off.snapshots = false;
        let p_on = profile_sdc(&m, &on);
        let p_off = profile_sdc(&m, &off);
        assert_eq!(p_on, p_off, "snapshot fast-forward changed the SDC profile");

        // And the underlying campaign really skipped golden-prefix work.
        let mut cfg = on.clone();
        cfg.golden_profile = true;
        let c = run_ir_campaign(&m, &cfg);
        assert!(c.ff_insts > 0, "profiled campaign did not fast-forward");
        assert!(c.golden_profile.is_some());
    }
}
