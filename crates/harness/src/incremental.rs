//! The incremental (`flowery diff`) campaign engine.
//!
//! A full campaign answers "what is this program's SDC rate" by sampling
//! the whole program. After a small edit, most regions (function bodies)
//! are byte-identical to the baseline run — their per-region profiles are
//! still valid answers. This module
//!
//! 1. partitions every unit into regions and hashes them
//!    ([`unit_region_set`], salted with everything that shapes outcomes);
//! 2. compares the partition against a baseline checkpoint's region
//!    records ([`Baseline`]), classifying each region reused / re-run /
//!    new;
//! 3. re-executes trials *only* for changed regions: each becomes a
//!    `Scope`d work item of the ordinary engine, its trials' injection
//!    sites drawn among the region's own and addressed by their global
//!    index (`TrialRunner::restrict`), with a region-local seed stream,
//!    so the plan is a pure function of the region content — independent
//!    of thread count and of what else changed;
//! 4. composes a whole-program answer from the mixed-provenance profiles
//!    under the current site masses ([`flowery_regions::compose_weighted`]).
//!
//! The composed result is written back as a region-record-only checkpoint,
//! which can serve as the baseline for the next diff.

use crate::cache::GoldenCache;
use crate::checkpoint::{self, Header, RegionRecord};
use crate::engine::{par_map, run_items, HarnessConfig, Progress, RunOptions, UnitResult, WorkItem};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::plan::{Layer, TrialUnit, UnitKey};
use crate::progress::BatchOutcome;
use flowery_backend::AsmLayer;
use flowery_inject::OutcomeCounts;
use flowery_ir::fnv1a;
use flowery_ir::interp::{Interpreter, IrLayer, SiteLog};
use flowery_ir::value::FuncId;
use flowery_regions::{
    combine, compose_exact, compose_weighted, diff, Fate, RegionProfile, RegionSet, WeightedEstimate,
    REGION_SCHEMA_VERSION,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Salt folded into every region hash of one unit: the unit identity plus
/// every campaign parameter that changes trial outcomes without changing
/// the program text (fault model, detectors, and the executor-visible
/// memory geometry). Two configs never share profiles.
pub fn unit_salt(key: &UnitKey, cfg: &HarnessConfig) -> u64 {
    let model = serde_json::to_string(&cfg.fault_model).unwrap_or_default();
    let detectors = serde_json::to_string(&cfg.detectors).unwrap_or_default();
    let mut h = fnv1a(key.id().as_bytes());
    h = combine(h, fnv1a(model.as_bytes()));
    h = combine(h, fnv1a(detectors.as_bytes()));
    h = combine(h, 0); // slot of a removed switch; keeps recorded region hashes valid
    h = combine(h, cfg.exec.mem_size);
    h = combine(h, cfg.exec.stack_size);
    h
}

/// The site observation of `unit`'s program, with a per-site trace of up
/// to `trace_cap` entries — what only the prune oracle reads, so every
/// other caller passes 0 and is served by any log, a stored one included.
pub(crate) fn observed(unit: &TrialUnit, cache: &GoldenCache, cfg: &HarnessConfig, trace_cap: usize) -> Arc<SiteLog> {
    let key = unit.content_key(cache);
    match unit.key.layer {
        Layer::Ir => cache.observation::<IrLayer>(&Interpreter::new(&unit.module), key, &cfg.exec, trace_cap),
        Layer::Asm => cache.observation::<AsmLayer>(&unit.machine(), key, &cfg.exec, trace_cap),
    }
}

/// Partition one unit into regions, with the site masses of its observed
/// golden site stream (at most one fault-free pass per distinct program
/// content, none when a snapshot set has it).
pub fn unit_region_set(unit: &TrialUnit, cache: &GoldenCache, cfg: &HarnessConfig) -> RegionSet {
    let salt = unit_salt(&unit.key, cfg);
    let sites = &observed(unit, cache, cfg, 0);
    match &unit.program {
        None => flowery_regions::ir_region_set(&unit.module, sites, salt),
        Some(program) => flowery_regions::asm_region_set(&unit.module, program, sites, salt),
    }
}

/// Build the region records a clean finalize writes: one per completed
/// unit, splitting the unit's tallies across its regions, in `results`
/// order. Units whose per-region tallies do not cover every trial (batches
/// replayed from a pre-region checkpoint) are skipped — a partial split
/// would compose wrongly, and the next full campaign will produce a
/// complete one. The records are built on `cfg.threads` threads.
pub fn region_records(
    units: &[TrialUnit],
    results: &[UnitResult],
    cache: &GoldenCache,
    cfg: &HarnessConfig,
) -> Vec<RegionRecord> {
    let by_key: HashMap<&UnitKey, &TrialUnit> = units.iter().map(|u| (&u.key, u)).collect();
    let record = |res: &UnitResult| region_record(by_key.get(&res.key)?, res, cache, cfg);
    par_map(results, cfg.workers(), record).into_iter().flatten().collect()
}

/// The region record of one completed unit (see [`region_records`]).
fn region_record(unit: &TrialUnit, res: &UnitResult, cache: &GoldenCache, cfg: &HarnessConfig) -> Option<RegionRecord> {
    let attributed: u64 = res.region_counts.iter().map(|(_, c)| c.total()).sum();
    if attributed != res.trials {
        return None;
    }
    let set = unit_region_set(unit, cache, cfg);
    // Attribution buckets outside the partition (e.g. trials whose fault
    // never landed, collected under OTHER_REGION at the IR layer) still
    // need a profile so trials stay fully accounted.
    let extra = res.region_counts.iter().filter(|(name, _)| set.get(name).is_none());
    let extra = extra.map(|(name, _)| (name, combine(fnv1a(name.as_bytes()), unit_salt(&unit.key, cfg)), 0));
    let parts = set.regions.iter().map(|r| (&r.name, r.hash, r.site_mass)).chain(extra);
    // Each profile takes the region's tally plus the slice of the unit's
    // static SDC maps that falls inside it (a unit fills only its own
    // layer's map).
    let mut profiles: Vec<RegionProfile> = parts
        .map(|(name, hash, site_mass)| {
            let counts = res
                .region_counts
                .iter()
                .find(|(n, _)| n == name)
                .map_or_else(Default::default, |(_, c)| *c);
            let here = |loc: &(FuncId, _)| unit.module.func(loc.0).name == *name;
            RegionProfile {
                name: name.clone(),
                hash,
                site_mass,
                trials: counts.total(),
                counts,
                sdc_by_inst: res
                    .sdc_by_inst
                    .iter()
                    .filter(|(loc, _)| here(loc))
                    .map(|(l, n)| (*l, *n))
                    .collect(),
                sdc_insts: res.sdc_insts.iter().copied().filter(|&i| unit.inst_region(i) == name).collect(),
            }
        })
        .collect();
    profiles.sort_by(|a, b| a.name.cmp(&b.name));
    Some(RegionRecord {
        unit: res.key.clone(),
        schema: REGION_SCHEMA_VERSION,
        regions: profiles,
    })
}

/// A baseline checkpoint's region records, validated against the current
/// campaign configuration.
#[derive(Debug)]
pub struct Baseline {
    pub header: Header,
    pub regions: HashMap<UnitKey, RegionRecord>,
    /// True when the baseline predates region records or this build's
    /// region-hash recipe: nothing can be reused, every region runs fresh.
    pub pre_region: bool,
}

impl Baseline {
    /// Load and validate a baseline. Refusals always name the differing
    /// field and both values — the checkpoint's and the requested one.
    pub fn load(path: &Path, requested: &Header) -> Result<Baseline, String> {
        let (header, _, regions) = checkpoint::load_full(path)?;
        header.require(requested, path, "baseline")?;
        if header.region_schema > REGION_SCHEMA_VERSION {
            return Err(format!(
                "{}: region-schema: checkpoint has {}, this build wants {}",
                path.display(),
                header.region_schema,
                REGION_SCHEMA_VERSION
            ));
        }
        // An older recipe's hashes match none of this build's: drop its
        // records, as if the log predated them.
        let pre_region = header.region_schema != REGION_SCHEMA_VERSION || regions.is_empty();
        let regions = checkpoint::canonicalize_regions(&header, regions)?
            .into_iter()
            .filter(|_| !pre_region)
            .map(|r| (r.unit.clone(), r))
            .collect();
        Ok(Baseline { header, regions, pre_region })
    }
}

/// One region's entry in a [`DiffUnitReport`]: provenance plus the profile
/// that went into the composition.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    pub name: String,
    pub fate: Fate,
    /// Trials the plan allotted this region (0 for reused regions and for
    /// regions with no site mass).
    pub planned_trials: u64,
    pub profile: RegionProfile,
}

/// One unit's incremental result.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffUnitReport {
    pub key: UnitKey,
    /// Per-region provenance and profiles, in region-name order.
    pub regions: Vec<RegionReport>,
    /// Baseline regions that no longer exist (deleted functions).
    pub dropped: Vec<String>,
    /// Mass-weighted whole-program SDC estimate under current masses.
    pub composed: WeightedEstimate,
    /// Raw pooled counts across all profiles (reference only — the
    /// weighted estimate is the calibrated answer for mixed provenance).
    pub counts: OutcomeCounts,
    pub trials_run: u64,
    pub trials_saved: u64,
}

impl DiffUnitReport {
    /// How many regions were (reused, re-run, new).
    pub fn fate_counts(&self) -> (u64, u64, u64) {
        let count = |fate| self.regions.iter().filter(|r| r.fate == fate).count() as u64;
        (count(Fate::Reused), count(Fate::Rerun), count(Fate::New))
    }
}

/// Outcome of one incremental run.
pub struct DiffReport {
    pub units: Vec<DiffUnitReport>,
    pub metrics: MetricsSnapshot,
    /// The progress callback or an error stopped the run: some re-run
    /// regions are incomplete, so [`DiffReport::records`] is no baseline.
    pub interrupted: bool,
    /// Why a work item was refused (see `UnitRunner::for_item`), if one was.
    pub error: Option<String>,
}

impl DiffReport {
    /// The region records of the composed result, ready to write as a
    /// checkpoint (the next diff's baseline).
    pub fn records(&self) -> Vec<RegionRecord> {
        self.units
            .iter()
            .map(|u| RegionRecord {
                unit: u.key.clone(),
                schema: REGION_SCHEMA_VERSION,
                regions: u.regions.iter().map(|r| r.profile.clone()).collect(),
            })
            .collect()
    }
}

/// Trials allotted to a region: its mass share of the unit schedule,
/// floored at one batch so small regions still get a measurable sample.
fn planned_trials(cfg: &HarnessConfig, mass: u64, total_mass: u64) -> u64 {
    if mass == 0 || total_mass == 0 {
        return 0;
    }
    let share = (cfg.max_trials as u128 * mass as u128).div_ceil(total_mass as u128) as u64;
    share.clamp(cfg.batch_size.min(cfg.max_trials), cfg.max_trials)
}

/// A region-scoped re-run of `unit`: `trials` trials whose injection sites
/// are drawn from the `mass` fault sites executed inside `region`, on a
/// region-local seed stream (depends only on the campaign seed and the
/// region name, never on what else changed). Every trial is a pure
/// function of `(seed, trial index)`, so the engine's workers may run its
/// batches in any order; the runner resolves `region` against its own
/// observation of the unit and refuses a `mass` that differs from the one
/// it observed (see `UnitRunner::for_item`).
/// Batches index `trials` in [`HarnessConfig::batch_size`] chunks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Scope {
    pub unit: UnitKey,
    pub region: String,
    pub trials: u64,
    pub seed: u64,
    pub mass: u64,
}

/// One schedulable re-run of a diff plan: which region report it fills
/// and what to run.
struct DiffTask {
    unit_index: usize,
    region_index: usize,
    scope: Scope,
}

/// Plan an incremental campaign without executing anything: classify
/// every region against the baseline, carry reused profiles (re-weighted
/// to current masses), and emit one [`DiffTask`] per runnable changed
/// region, in (unit, region) order.
fn plan_diff(
    units: &[TrialUnit],
    cfg: &HarnessConfig,
    cache: &GoldenCache,
    baseline: &Baseline,
    metrics: &Metrics,
) -> (Vec<DiffUnitReport>, Vec<DiffTask>) {
    let mut reports: Vec<DiffUnitReport> = Vec::new();
    let mut tasks: Vec<DiffTask> = Vec::new();

    for (ui, unit) in units.iter().enumerate() {
        let set = unit_region_set(unit, cache, cfg);
        let total_mass = set.total_mass();
        let base: &[RegionProfile] = baseline.regions.get(&unit.key).map(|r| r.regions.as_slice()).unwrap_or(&[]);
        let (deltas, dropped) = diff(&set, base);
        let mut regions = Vec::new();
        let mut trials_saved = 0u64;
        for d in deltas {
            let planned = planned_trials(cfg, d.region.site_mass, total_mass);
            match d.fate {
                Fate::Reused => {
                    trials_saved += planned;
                    // Carry the baseline trials; re-weight to the current
                    // mass (the mixture weights must describe the current
                    // program, not the baseline's call profile).
                    let mut p = d.baseline.expect("reused region has a baseline profile");
                    p.site_mass = d.region.site_mass;
                    regions.push(RegionReport {
                        name: d.region.name,
                        fate: Fate::Reused,
                        planned_trials: 0,
                        profile: p,
                    });
                }
                fate => {
                    if planned > 0 {
                        tasks.push(DiffTask {
                            unit_index: ui,
                            region_index: regions.len(),
                            scope: Scope {
                                unit: unit.key.clone(),
                                region: d.region.name.clone(),
                                trials: planned,
                                seed: cfg.seed ^ fnv1a(d.region.name.as_bytes()),
                                mass: d.region.site_mass,
                            },
                        });
                    }
                    regions.push(RegionReport {
                        name: d.region.name.clone(),
                        fate,
                        planned_trials: planned,
                        profile: RegionProfile {
                            name: d.region.name,
                            hash: d.region.hash,
                            site_mass: d.region.site_mass,
                            ..RegionProfile::default()
                        },
                    });
                }
            }
        }
        let reused = regions.iter().filter(|r| r.fate == Fate::Reused).count() as u64;
        let rerun = regions.iter().filter(|r| r.fate == Fate::Rerun).count() as u64;
        metrics.record_region_plan(regions.len() as u64, reused, rerun, trials_saved);
        reports.push(DiffUnitReport {
            key: unit.key.clone(),
            regions,
            dropped,
            composed: WeightedEstimate { value: 0.0, ci95: 0.0, trials: 0, mass: 0 },
            counts: OutcomeCounts::default(),
            trials_run: 0,
            trials_saved,
        });
    }
    (reports, tasks)
}

/// Finish a planned diff: fold every task's tally (in `tasks` order;
/// `None` = nothing ran) into its region profile, and compose each unit's
/// estimate, pooled counts and trials-run total.
fn compose_diff(
    mut reports: Vec<DiffUnitReport>,
    tasks: &[DiffTask],
    tallies: impl IntoIterator<Item = Option<BatchOutcome>>,
) -> Vec<DiffUnitReport> {
    for (task, tally) in tasks.iter().zip(tallies) {
        let profile = &mut reports[task.unit_index].regions[task.region_index].profile;
        let total = tally.unwrap_or_default();
        profile.counts = total.counts;
        profile.trials = total.counts.total();
        profile.sdc_by_inst = total.sdc_by_inst;
        profile.sdc_insts = total.sdc_insts;
    }
    for rep in &mut reports {
        let profiles: Vec<RegionProfile> = rep.regions.iter().map(|r| r.profile.clone()).collect();
        rep.composed = compose_weighted(&profiles);
        rep.counts = compose_exact(&profiles);
        rep.trials_run = rep
            .regions
            .iter()
            .filter(|r| r.fate != Fate::Reused)
            .map(|r| r.profile.trials)
            .sum();
    }
    reports
}

/// Run an incremental campaign: reuse baseline profiles for unchanged
/// regions, re-execute changed/new regions as scoped items of the one
/// engine (batch-level stealing, `progress` polled after every batch),
/// and compose.
pub fn run_diff(
    units: &[TrialUnit],
    cfg: &HarnessConfig,
    cache: &GoldenCache,
    baseline: &Baseline,
    progress: Option<Progress<'_>>,
) -> DiffReport {
    let metrics = Metrics::with_mode(cfg.exec.executor);
    let (reports, tasks) = plan_diff(units, cfg, cache, baseline, &metrics);
    let items: Vec<WorkItem<'_>> = tasks
        .iter()
        .map(|t| WorkItem { unit: &units[t.unit_index], scope: Some(&t.scope) })
        .collect();
    let drained = run_items(&items, cfg, cache, metrics, RunOptions { progress, ..Default::default() });
    DiffReport {
        units: compose_diff(reports, &tasks, drained.tallies),
        metrics: drained.metrics,
        interrupted: drained.interrupted,
        error: drained.error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Variant;
    use std::sync::Arc;

    const SRC: &str = "int helper(int x) { return x * 3 + 1; } \
         int main() { int s = 0; int i; for (i = 0; i < 10; i = i + 1) { s = s + helper(i); } output(s); return 0; }";

    fn ir_unit(src: &str) -> TrialUnit {
        let m = Arc::new(flowery_lang::compile("t", src).unwrap());
        TrialUnit::ir(UnitKey::new("t", Variant::Raw, 0.0, Layer::Ir), m)
    }

    fn asm_unit(src: &str) -> TrialUnit {
        let m = Arc::new(flowery_lang::compile("t", src).unwrap());
        let p = Arc::new(flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default()));
        TrialUnit::asm(UnitKey::new("t", Variant::Raw, 0.0, Layer::Asm), m, p)
    }

    fn small_cfg() -> HarnessConfig {
        HarnessConfig {
            batch_size: 25,
            max_trials: 100,
            min_trials: 25,
            ci_target: None,
            threads: 2,
            ..HarnessConfig::default()
        }
    }

    fn empty_baseline(cfg: &HarnessConfig) -> Baseline {
        Baseline {
            header: cfg.header(),
            regions: HashMap::new(),
            pre_region: true,
        }
    }

    #[test]
    fn salt_separates_configs() {
        let cfg = small_cfg();
        let mut other = small_cfg();
        other.fault_model = flowery_faultmodel::ModelSpec::FlagsPc;
        let key = UnitKey::new("t", Variant::Raw, 0.0, Layer::Ir);
        assert_ne!(unit_salt(&key, &cfg), unit_salt(&key, &other));
        let key2 = UnitKey::new("t", Variant::Id, 1.0, Layer::Ir);
        assert_ne!(unit_salt(&key, &cfg), unit_salt(&key2, &cfg));
    }

    #[test]
    fn empty_baseline_runs_everything_fresh() {
        let unit = ir_unit(SRC);
        let cfg = small_cfg();
        let cache = GoldenCache::new();
        let report = run_diff(&[unit], &cfg, &cache, &empty_baseline(&cfg), None);
        let u = &report.units[0];
        let (reused, rerun, new) = u.fate_counts();
        assert_eq!((reused, rerun), (0, 0));
        assert_eq!(new, 2, "helper and main are both new");
        assert!(u.trials_run > 0);
        assert_eq!(u.trials_saved, 0);
        assert_eq!(u.counts.total(), u.trials_run);
        assert!(u.composed.mass > 0);
        assert_eq!(report.metrics.regions_total, 2);
        assert_eq!(report.metrics.regions_rerun, 0);
    }

    #[test]
    fn single_function_edit_reruns_exactly_that_region() {
        let cfg = small_cfg();
        let cache = GoldenCache::new();
        // Baseline campaign over the original program.
        let base_units = [ir_unit(SRC)];
        let base = run_diff(&base_units, &cfg, &cache, &empty_baseline(&cfg), None);
        let baseline = Baseline {
            header: cfg.header(),
            regions: base.records().into_iter().map(|r| (r.unit.clone(), r)).collect(),
            pre_region: false,
        };
        // Edit helper only.
        let edited = [ir_unit(&SRC.replace("x * 3 + 1", "x * 3 + 2"))];
        let report = run_diff(&edited, &cfg, &cache, &baseline, None);
        let u = &report.units[0];
        let (reused, rerun, new) = u.fate_counts();
        assert_eq!((reused, rerun, new), (1, 1, 0), "only the edited function re-runs");
        let helper = u.regions.iter().find(|r| r.name == "helper").unwrap();
        assert_eq!(helper.fate, Fate::Rerun);
        let main = u.regions.iter().find(|r| r.name == "main").unwrap();
        assert_eq!(main.fate, Fate::Reused);
        let base_main = &base.units[0].regions.iter().find(|r| r.name == "main").unwrap().profile;
        assert_eq!(main.profile.counts, base_main.counts, "reused profile carried verbatim");
        assert!(u.trials_saved > 0);
        assert_eq!(report.metrics.regions_rerun, 1);
        assert_eq!(report.metrics.region_trials_saved, u.trials_saved);
    }

    #[test]
    fn identical_program_reuses_everything_and_composes_identically() {
        let cfg = small_cfg();
        let cache = GoldenCache::new();
        let units = [asm_unit(SRC)];
        let base = run_diff(&units, &cfg, &cache, &empty_baseline(&cfg), None);
        let baseline = Baseline {
            header: cfg.header(),
            regions: base.records().into_iter().map(|r| (r.unit.clone(), r)).collect(),
            pre_region: false,
        };
        let again = run_diff(&units, &cfg, &cache, &baseline, None);
        let u = &again.units[0];
        assert_eq!(u.trials_run, 0, "nothing changed, nothing runs");
        assert!(u.regions.iter().all(|r| r.fate == Fate::Reused));
        assert_eq!(u.counts, base.units[0].counts);
        assert_eq!(u.composed, base.units[0].composed);
    }

    #[test]
    fn diff_is_thread_count_independent() {
        let cache = GoldenCache::new();
        let units = [ir_unit(SRC)];
        let mut one = small_cfg();
        one.threads = 1;
        let mut four = small_cfg();
        four.threads = 4;
        let a = run_diff(&units, &one, &cache, &empty_baseline(&one), None);
        let b = run_diff(&units, &four, &cache, &empty_baseline(&four), None);
        assert_eq!(a.units[0].regions, b.units[0].regions);
        assert_eq!(a.units[0].counts, b.units[0].counts);
    }

    #[test]
    fn re_runs_are_ordinary_engine_items_with_progress_and_stop() {
        use crate::engine::Control;
        use std::sync::atomic::{AtomicU64, Ordering};
        let cfg = small_cfg();
        let cache = GoldenCache::new();
        let units = [ir_unit(SRC), asm_unit(SRC)];
        // The callback sees every scoped batch, exactly like a campaign's...
        let polls = AtomicU64::new(0);
        let count = |snap: &MetricsSnapshot| {
            polls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(snap.regions_total, 4, "the plan is accounted before the first batch");
            Control::Continue
        };
        let full = run_diff(&units, &cfg, &cache, &empty_baseline(&cfg), Some(&count));
        assert!(!full.interrupted);
        assert_eq!(polls.load(Ordering::Relaxed), full.metrics.batches);
        let planned: u64 = full.units.iter().flat_map(|u| &u.regions).map(|r| r.planned_trials).sum();
        assert_eq!(full.metrics.trials, planned, "every planned trial ran, batch by batch");
        // ...and may stop it: in-flight batches finish, undecided regions
        // stay empty, and the report says so instead of posing as a baseline.
        let stop = |_: &MetricsSnapshot| Control::Stop;
        let cut = run_diff(&units, &cfg, &cache, &empty_baseline(&cfg), Some(&stop));
        assert!(cut.interrupted);
        assert!(cut.metrics.trials < planned);
    }

    #[test]
    fn a_scope_this_build_cannot_honour_is_refused_with_a_reason() {
        use crate::engine::UnitRunner;
        let (unit, cfg, cache) = (asm_unit(SRC), small_cfg(), GoldenCache::new());
        let mass = unit_region_set(&unit, &cache, &cfg).get("helper").unwrap().site_mass;
        let scope = |region: &str, mass| Scope {
            unit: unit.key.clone(),
            region: region.into(),
            trials: 25,
            seed: 1,
            mass,
        };
        let refusal = |scope: &Scope| UnitRunner::for_item(&unit, &cache, &cfg, Some(scope)).err();
        assert_eq!(refusal(&scope("helper", mass)), None);
        let unknown = refusal(&scope("gone", mass)).expect("no such region");
        assert!(unknown.contains("`gone`"), "{unknown}");
        let stale = scope("helper", mass + 1);
        let why = refusal(&stale).expect("another program's mass");
        assert!(why.contains(&mass.to_string()) && why.contains(&(mass + 1).to_string()), "{why}");
        // The engine stops on the refusal; it neither panics nor runs the item.
        let items = [WorkItem { unit: &unit, scope: Some(&stale) }];
        let metrics = Metrics::with_mode(cfg.exec.executor);
        let drained = run_items(&items, &cfg, &cache, metrics, RunOptions::default());
        assert_eq!(drained.error, Some(why));
        assert!(drained.tallies[0].is_none() && drained.interrupted);
    }

    #[test]
    fn baseline_refusal_names_both_values() {
        let dir = std::env::temp_dir().join(format!("fl-incr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.jsonl");
        let cfg = small_cfg();
        checkpoint::write_canonical_full(&path, &cfg.header(), &[], &[], &[], &[]).unwrap();
        let mut other = small_cfg();
        other.seed ^= 1;
        let err = Baseline::load(&path, &other.header()).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        assert!(err.contains("checkpoint has") && err.contains("this campaign wants"), "{err}");
        // A foreign region schema is named with both values too.
        let mut h = cfg.header();
        h.region_schema = REGION_SCHEMA_VERSION + 7;
        checkpoint::write_canonical_full(&path, &h, &[], &[], &[], &[]).unwrap();
        let err = Baseline::load(&path, &cfg.header()).unwrap_err();
        assert!(err.contains("region-schema"), "{err}");
        assert!(
            err.contains(&(REGION_SCHEMA_VERSION + 7).to_string()) && err.contains(&REGION_SCHEMA_VERSION.to_string()),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
