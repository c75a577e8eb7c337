//! Region model for compositional campaigns (FastFlip-style).
//!
//! A *region* is a function body: at the IR layer a [`flowery_ir::module::Function`] of the
//! module, at the machine layer the contiguous `AsmProgram` instruction
//! range of the corresponding `AsmFunc`. Each region carries
//!
//! * a **content hash** over the region's instructions and the module's
//!   globals (which the instructions name only by index) plus a
//!   caller-supplied *salt* folding in everything else that shapes trial
//!   outcomes (variant, duplication level, layer, fault model, detectors,
//!   executor-visible memory geometry), and
//! * a **site mass**: the number of dynamic fault sites the golden run
//!   executes inside the region. Masses partition the golden run's total
//!   fault-site count, which is what makes per-region results compose.
//!
//! The composition rule: trials sample injection sites uniformly, so a
//! unit's outcome distribution is the mass-weighted mixture of its
//! regions' distributions. When every region's profile comes from the
//! same campaign the partition is exact — summing per-region counts
//! reproduces the monolithic tally bit-for-bit ([`compose_exact`]). When
//! profiles mix provenance (reused baseline regions + re-run changed
//! regions), [`compose_weighted`] recombines the per-region rates under
//! the *current* masses and propagates the per-region Wilson half-widths.
//!
//! Staleness caveat (documented in DESIGN.md §11): a fault injected in
//! region R can corrupt state that later misbehaves in region S. Reusing
//! R's profile after an edit to S is therefore an approximation — the
//! same one FastFlip makes — and holds to first order because R's trials
//! still classify against the *whole-program* golden output, which the
//! incremental engine recomputes for the edited program.

use flowery_backend::mir::AsmProgram;
use flowery_inject::stats::{wilson_half_width, Estimate};
use flowery_inject::OutcomeCounts;
use flowery_ir::fnv1a;
use flowery_ir::interp::SiteLog;
use flowery_ir::module::Module;
use flowery_ir::printer::{print_function, print_globals};
use flowery_ir::value::{FuncId, InstId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Version of the region partition + hash recipe. Stamped into checkpoint
/// headers; a checkpoint written under a different schema is never
/// composed with profiles built under this one. Version 2 folds the
/// module's globals into every region hash.
pub const REGION_SCHEMA_VERSION: u32 = 2;

/// Catch-all region for injection sites outside every function body
/// (machine-layer prologue/veneer code, or attribution fallback).
pub const OTHER_REGION: &str = "<other>";

/// Fold one more word into an FNV-style hash.
pub fn combine(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One region of one unit's program: identity, content hash, and golden
/// fault-site mass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Function name (shared across layers; machine regions are named
    /// after the IR function they were compiled from).
    pub name: String,
    /// Content hash: region instructions + caller salt.
    pub hash: u64,
    /// Dynamic fault sites the golden run executes in this region.
    pub site_mass: u64,
}

/// The full partition of one unit's program, sorted by region name.
/// Masses sum to the golden run's `fault_sites` count.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RegionSet {
    pub regions: Vec<Region>,
}

impl RegionSet {
    pub fn get(&self, name: &str) -> Option<&Region> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Total fault-site mass (equals the golden run's site count).
    pub fn total_mass(&self) -> u64 {
        self.regions.iter().map(|r| r.site_mass).sum()
    }
}

/// The content hash of each function of `module` as a region: its printed
/// text, the printed globals block and `salt`. A function's text names a
/// global by index, so without the block an edit to a global's
/// initializer alone would leave every region hash standing.
pub fn region_hashes(module: &Module, salt: u64) -> Vec<u64> {
    let salt = combine(fnv1a(print_globals(module).as_bytes()), salt);
    let hash = |(fi, f)| combine(fnv1a(print_function(module, FuncId(fi as u32), f).as_bytes()), salt);
    module.functions.iter().enumerate().map(hash).collect()
}

/// Partition an IR module into per-function regions. `sites` is the
/// module's observed site log (`substrate::observe::<IrLayer>`), whose
/// region ids are function indices; `salt` folds in the unit configuration
/// (variant, level, fault model, detectors, geometry) so the same function
/// under two configs hashes differently.
pub fn ir_region_set(module: &Module, sites: &SiteLog, salt: u64) -> RegionSet {
    let hashes = region_hashes(module, salt);
    let mut regions = Vec::new();
    for ((fi, func), hash) in module.functions.iter().enumerate().zip(hashes) {
        regions.push(Region { name: func.name.clone(), hash, site_mass: sites.mass(fi) });
    }
    regions.sort_by(|a, b| a.name.cmp(&b.name));
    RegionSet { regions }
}

/// Partition a machine program into per-function regions. Machine regions
/// are identified by the IR function they were compiled from, so the hash
/// is that function's IR region hash (the machine encoding is a
/// deterministic function of its text and the globals) plus the compiled
/// range length, which changes whenever its own codegen does. Absolute operand
/// addresses are deliberately excluded: an edit to one function must not
/// invalidate every function behind it just because code shifted.
/// `sites` is the program's observed site log
/// (`substrate::observe::<AsmLayer>`), whose region ids are positions in
/// `program.funcs`, one past them for sites outside every function body —
/// those fold into [`OTHER_REGION`].
pub fn asm_region_set(module: &Module, program: &AsmProgram, sites: &SiteLog, salt: u64) -> RegionSet {
    let hashes = region_hashes(module, salt);
    let mut regions = Vec::new();
    for (i, f) in program.funcs.iter().enumerate() {
        let (lo, hi) = (f.entry as usize, (f.end as usize).min(program.insts.len()));
        let hash = combine(hashes[f.ir_id.index()], (hi - lo) as u64);
        regions.push(Region { name: f.name.clone(), hash, site_mass: sites.mass(i) });
    }
    let other = sites.mass(program.funcs.len());
    if other > 0 {
        let salt = combine(fnv1a(print_globals(module).as_bytes()), salt);
        regions.push(Region {
            name: OTHER_REGION.into(),
            hash: combine(fnv1a(OTHER_REGION.as_bytes()), salt),
            site_mass: other,
        });
    }
    regions.sort_by(|a, b| a.name.cmp(&b.name));
    RegionSet { regions }
}

/// Per-region campaign results: everything needed to reuse this region's
/// answer in a later composed campaign.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RegionProfile {
    pub name: String,
    /// Content hash of the region the trials were run against.
    pub hash: u64,
    /// Golden fault-site mass at the time the trials were run.
    pub site_mass: u64,
    /// Trials whose injection site fell inside this region.
    pub trials: u64,
    pub counts: OutcomeCounts,
    /// IR layer: SDC attributions by static instruction, restricted to
    /// this region's function.
    #[serde(default)]
    pub sdc_by_inst: HashMap<(FuncId, InstId), u64>,
    /// Machine layer: program indices of SDC injections inside the region.
    #[serde(default)]
    pub sdc_insts: Vec<u32>,
}

impl RegionProfile {
    /// SDC rate with 95% Wilson interval over this region's trials.
    pub fn sdc(&self) -> Estimate {
        Estimate::proportion(self.counts.sdc, self.trials)
    }
}

/// Exact composition: per-region counts from a *single* campaign
/// partition the unit tally, so summing reproduces it bit-for-bit.
pub fn compose_exact(profiles: &[RegionProfile]) -> OutcomeCounts {
    let mut total = OutcomeCounts::default();
    for p in profiles {
        total.merge(&p.counts);
    }
    total
}

/// A mass-weighted whole-program estimate recombined from per-region
/// profiles of possibly mixed provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedEstimate {
    /// Mass-weighted SDC rate.
    pub value: f64,
    /// Propagated 95% half-width: sqrt(Σ w² · hw_r²).
    pub ci95: f64,
    /// Trials backing the estimate (reused + re-run).
    pub trials: u64,
    /// Total fault-site mass of the composition.
    pub mass: u64,
}

/// Mass-weighted composition under the *current* region masses: trials
/// sample sites uniformly, so the whole-program SDC rate is the mixture
/// `Σ (mass_r / M) · p̂_r`. Regions with zero mass contribute nothing
/// (the current program never executes a site there); regions with mass
/// but no trials contribute their weight at rate 0 with a full-width
/// interval so the uncertainty is not understated.
pub fn compose_weighted(profiles: &[RegionProfile]) -> WeightedEstimate {
    let mass: u64 = profiles.iter().map(|p| p.site_mass).sum();
    let trials: u64 = profiles.iter().map(|p| p.trials).sum();
    if mass == 0 {
        return WeightedEstimate { value: 0.0, ci95: 0.0, trials, mass };
    }
    let mut value = 0.0;
    let mut var = 0.0;
    for p in profiles {
        if p.site_mass == 0 {
            continue;
        }
        let w = p.site_mass as f64 / mass as f64;
        if p.trials == 0 {
            var += w * w * 0.25; // untested region: half-width 0.5
            continue;
        }
        value += w * p.counts.sdc as f64 / p.trials as f64;
        let hw = wilson_half_width(p.counts.sdc, p.trials);
        var += w * w * hw * hw;
    }
    WeightedEstimate { value, ci95: var.sqrt(), trials, mass }
}

/// Provenance of one region in an incremental campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fate {
    /// Hash matched the baseline: profile reused verbatim.
    Reused,
    /// Region exists in the baseline but its hash changed: re-run.
    Rerun,
    /// Region absent from the baseline: run fresh.
    New,
}

impl std::fmt::Display for Fate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Fate::Reused => "reused",
            Fate::Rerun => "re-run",
            Fate::New => "new",
        })
    }
}

/// One region's diff verdict: its current identity, its fate, and (for
/// reused regions) the baseline profile to carry forward.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDelta {
    pub region: Region,
    pub fate: Fate,
    /// Baseline profile when `fate == Reused`.
    pub baseline: Option<RegionProfile>,
}

/// Compare the current partition against baseline profiles. Returns the
/// per-region verdicts (in region-name order) plus the names of baseline
/// regions that no longer exist (deleted functions — their profiles are
/// simply dropped).
pub fn diff(current: &RegionSet, baseline: &[RegionProfile]) -> (Vec<RegionDelta>, Vec<String>) {
    let by_name: HashMap<&str, &RegionProfile> = baseline.iter().map(|p| (p.name.as_str(), p)).collect();
    let mut deltas = Vec::new();
    for r in &current.regions {
        let (fate, base) = match by_name.get(r.name.as_str()) {
            Some(p) if p.hash == r.hash => (Fate::Reused, Some((*p).clone())),
            Some(_) => (Fate::Rerun, None),
            None => (Fate::New, None),
        };
        deltas.push(RegionDelta { region: r.clone(), fate, baseline: base });
    }
    let dropped = baseline
        .iter()
        .filter(|p| current.get(&p.name).is_none())
        .map(|p| p.name.clone())
        .collect();
    (deltas, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_backend::{AsmLayer, Machine};
    use flowery_ir::interp::substrate::observe;
    use flowery_ir::interp::{ExecConfig, Interpreter, IrLayer};

    const SRC: &str = "int helper(int x) { return x * 3 + 1; } \
         int main() { int s = 0; int i; for (i = 0; i < 10; i = i + 1) { s = s + helper(i); } output(s); return 0; }";

    fn module() -> Module {
        flowery_lang::compile("t", SRC).expect("compiles")
    }

    #[test]
    fn ir_masses_partition_golden_sites() {
        let m = module();
        let (golden, sites) = observe::<IrLayer>(&Interpreter::new(&m), &ExecConfig::default(), 0);
        let set = ir_region_set(&m, &sites, 7);
        assert_eq!(set.total_mass(), golden.fault_sites, "region masses must partition the golden site count");
        assert!(set.regions.iter().all(|r| r.site_mass > 0), "both functions execute");
    }

    #[test]
    fn salt_and_content_change_hashes() {
        let m = module();
        let sites = observe::<IrLayer>(&Interpreter::new(&m), &ExecConfig::default(), 0).1;
        let a = ir_region_set(&m, &sites, 1);
        let b = ir_region_set(&m, &sites, 2);
        assert_eq!(a.regions.len(), b.regions.len());
        assert!(a.regions.iter().zip(&b.regions).all(|(x, y)| x.hash != y.hash), "salt feeds every hash");

        let m2 = flowery_lang::compile("t", &SRC.replace("x * 3 + 1", "x * 3 + 2")).unwrap();
        let sites2 = observe::<IrLayer>(&Interpreter::new(&m2), &ExecConfig::default(), 0).1;
        let c = ir_region_set(&m2, &sites2, 1);
        let changed: Vec<_> = a
            .regions
            .iter()
            .zip(&c.regions)
            .filter(|(x, y)| x.hash != y.hash)
            .map(|(x, _)| x.name.clone())
            .collect();
        assert_eq!(changed, vec!["helper".to_string()], "only the edited function re-hashes");
    }

    #[test]
    fn asm_masses_partition_golden_sites() {
        let m = module();
        let program = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let (golden, sites) = observe::<AsmLayer>(&Machine::new(&m, &program), &ExecConfig::default(), 0);
        let set = asm_region_set(&m, &program, &sites, 7);
        assert_eq!(
            set.total_mass(),
            golden.fault_sites,
            "asm region masses must partition the golden site count"
        );
    }

    #[test]
    fn exact_composition_sums_counts() {
        let a = RegionProfile {
            name: "a".into(),
            trials: 10,
            counts: OutcomeCounts { benign: 6, sdc: 2, detected: 1, due: 1 },
            ..Default::default()
        };
        let b = RegionProfile {
            name: "b".into(),
            trials: 5,
            counts: OutcomeCounts { benign: 5, ..Default::default() },
            ..Default::default()
        };
        let total = compose_exact(&[a, b]);
        assert_eq!(total, OutcomeCounts { benign: 11, sdc: 2, detected: 1, due: 1 });
    }

    #[test]
    fn weighted_composition_matches_pooled_rate_on_uniform_sampling() {
        // Two regions sampled proportionally to mass: the weighted rate
        // equals the pooled rate.
        let a = RegionProfile {
            name: "a".into(),
            site_mass: 300,
            trials: 300,
            counts: OutcomeCounts { benign: 270, sdc: 30, ..Default::default() },
            ..Default::default()
        };
        let b = RegionProfile {
            name: "b".into(),
            site_mass: 100,
            trials: 100,
            counts: OutcomeCounts { benign: 90, sdc: 10, ..Default::default() },
            ..Default::default()
        };
        let w = compose_weighted(&[a.clone(), b.clone()]);
        let pooled = (a.counts.sdc + b.counts.sdc) as f64 / 400.0;
        assert!((w.value - pooled).abs() < 1e-12);
        assert!(w.ci95 > 0.0 && w.ci95 < 0.1);
        assert_eq!(w.trials, 400);
        assert_eq!(w.mass, 400);
    }

    #[test]
    fn diff_classifies_fates() {
        let cur = RegionSet {
            regions: vec![
                Region { name: "a".into(), hash: 1, site_mass: 5 },
                Region { name: "b".into(), hash: 9, site_mass: 5 },
                Region { name: "c".into(), hash: 3, site_mass: 5 },
            ],
        };
        let base = vec![
            RegionProfile { name: "a".into(), hash: 1, ..Default::default() },
            RegionProfile { name: "b".into(), hash: 2, ..Default::default() },
            RegionProfile { name: "gone".into(), hash: 4, ..Default::default() },
        ];
        let (deltas, dropped) = diff(&cur, &base);
        let fates: Vec<_> = deltas.iter().map(|d| (d.region.name.as_str(), d.fate)).collect();
        assert_eq!(fates, vec![("a", Fate::Reused), ("b", Fate::Rerun), ("c", Fate::New)]);
        assert!(deltas[0].baseline.is_some());
        assert_eq!(dropped, vec!["gone".to_string()]);
    }

    #[test]
    fn roundtrip_region_profile() {
        let p = RegionProfile {
            name: "main".into(),
            hash: 42,
            site_mass: 100,
            trials: 50,
            counts: OutcomeCounts { benign: 40, sdc: 10, ..Default::default() },
            sdc_by_inst: [((FuncId(0), InstId(3)), 7u64)].into_iter().collect(),
            sdc_insts: vec![1, 2, 2],
        };
        let text = serde::json::to_string(&p.serialize_value());
        let v = serde::json::parse(&text).unwrap();
        let back = RegionProfile::deserialize_value(&v).unwrap();
        assert_eq!(back, p);
    }
}
