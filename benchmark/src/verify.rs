//! Correctness gate: per-unit result fingerprints, compared three ways.
//!
//! * against `expected/<workload>.json`, pinned by `--pin` under the
//!   reference configuration (`interp` engine, snapshots off, prune off,
//!   one thread — never the configuration being timed). The file holds the
//!   default seed only;
//! * for any seed, against a reference re-execution, inside the run, of
//!   batch 0 of a seeded sample of units under that same configuration;
//! * between the repetitions of one run, which must agree exactly.

use crate::stats::{fnv1a, json_field, splitmix};
use crate::workloads::{Workload, DEFAULT_SEED};
use flowery::backend::ExecMode;
use flowery::harness::{BatchRecord, GoldenCache, HarnessConfig, TrialUnit, UnitResult, UnitRunner};
use flowery::ir::value::{FuncId, InstId};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a unit's campaign produced, reduced to what must not change.
/// `pruned` is left out: it is zero under the reference configuration by
/// definition, and is checked between repetitions instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub trials: u64,
    pub counts: [u64; 4],
    pub sdc_insts: u64,
    pub sdc_by_inst: u64,
}

fn hash_sdc_insts(insts: &[u32]) -> u64 {
    let bytes: Vec<u8> = insts.iter().flat_map(|i| i.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn hash_sdc_by_inst(map: &HashMap<(FuncId, InstId), u64>) -> u64 {
    // HashMap order differs between runs; the fingerprint must not.
    let mut entries: Vec<(u32, u32, u64)> = map.iter().map(|((f, i), n)| (f.0, i.0, *n)).collect();
    entries.sort_unstable();
    let bytes: Vec<u8> = entries
        .iter()
        .flat_map(|(f, i, n)| f.to_le_bytes().into_iter().chain(i.to_le_bytes()).chain(n.to_le_bytes()))
        .collect();
    fnv1a(&bytes)
}

pub fn fingerprint(u: &UnitResult) -> Fingerprint {
    Fingerprint {
        trials: u.trials,
        counts: [u.counts.benign, u.counts.sdc, u.counts.detected, u.counts.due],
        sdc_insts: hash_sdc_insts(&u.sdc_insts),
        sdc_by_inst: hash_sdc_by_inst(&u.sdc_by_inst),
    }
}

pub type Fingerprints = BTreeMap<String, Fingerprint>;

pub fn fingerprints(units: &[UnitResult]) -> Fingerprints {
    units.iter().map(|u| (u.key.id(), fingerprint(u))).collect()
}

/// The configuration results are pinned under: same trial schedule,
/// nothing that is being timed.
pub fn reference_config(w: &Workload, seed: u64) -> HarnessConfig {
    let mut cfg = w.config(seed);
    cfg.exec.executor = ExecMode::Interp;
    cfg.snapshots = false;
    cfg.static_prune = false;
    cfg.threads = 1;
    cfg
}

pub fn expected_path(w: &Workload) -> PathBuf {
    // Relative to the repository root, where `run.sh` starts the binary.
    Path::new("benchmark/expected").join(format!("{}.json", w.name))
}

pub fn render_expected(w: &Workload, seed: u64, prints: &Fingerprints) -> String {
    let mut out = format!("{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"units\": {{\n", w.name);
    for (i, (id, f)) in prints.iter().enumerate() {
        let [benign, sdc, detected, due] = f.counts;
        out.push_str(&format!(
            "    \"{id}\": [{}, {benign}, {sdc}, {detected}, {due}, \"{:016x}\", \"{:016x}\"]{}\n",
            f.trials,
            f.sdc_insts,
            f.sdc_by_inst,
            if i + 1 == prints.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Load the pinned fingerprints; `Ok(None)` when the file pins another
/// seed than `seed` (only the default seed is checked in).
pub fn load_expected(w: &Workload, seed: u64) -> Result<Option<Fingerprints>, String> {
    if seed != DEFAULT_SEED {
        return Ok(None);
    }
    let path = expected_path(w);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let root = flowery::serde_json::value_from_str(&text).map_err(|e| bad(&e.to_string()))?;
    let field = |name: &str| json_field(&root, name).ok_or_else(|| bad(&format!("no `{name}`")));
    if field("seed")?.as_u64() != Some(seed) {
        return Ok(None);
    }
    let mut prints = Fingerprints::new();
    for (id, row) in field("units")?.as_map().ok_or_else(|| bad("`units` is not a map"))? {
        let row = row
            .as_seq()
            .filter(|r| r.len() == 7)
            .ok_or_else(|| bad("unit row is not 7 long"))?;
        let num = |i: usize| row[i].as_u64().ok_or_else(|| bad("unit row holds a non-number"));
        let hex = |i: usize| {
            row[i]
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| bad("unit row holds a bad hash"))
        };
        let print = Fingerprint {
            trials: num(0)?,
            counts: [num(1)?, num(2)?, num(3)?, num(4)?],
            sdc_insts: hex(5)?,
            sdc_by_inst: hex(6)?,
        };
        prints.insert(id.clone(), print);
    }
    Ok(Some(prints))
}

/// Unit ids on which `got` differs from `want`, missing units included.
pub fn mismatches(want: &Fingerprints, got: &Fingerprints) -> Vec<String> {
    let mut bad: Vec<String> = want
        .iter()
        .filter(|(id, f)| got.get(*id) != Some(f))
        .map(|(id, _)| id.clone())
        .collect();
    bad.extend(got.keys().filter(|id| !want.contains_key(*id)).cloned());
    bad
}

/// Re-execute batch 0 of a seeded sample of `units` under the reference
/// configuration and compare with the batch-0 records the timed campaign
/// checkpointed. Units are visited in a seeded order by two threads until
/// `budget` is spent (every thread finishes the unit it holds), so a
/// different seed audits different units. Returns how many units were
/// checked and the ids that disagree.
pub fn reference_check(
    w: &Workload,
    seed: u64,
    units: &[TrialUnit],
    records: &[BatchRecord],
    budget: Duration,
) -> (usize, Vec<String>) {
    let cfg = reference_config(w, seed);
    let batch0: BTreeMap<String, &BatchRecord> =
        records.iter().filter(|r| r.batch == 0).map(|r| (r.unit.id(), r)).collect();
    let mut order: Vec<usize> = (0..units.len()).collect();
    let mut state = seed ^ fnv1a(w.name.as_bytes());
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    let next = AtomicUsize::new(0);
    let checked = AtomicUsize::new(0);
    let bad = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while start.elapsed() < budget {
                    let Some(&ui) = order.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        return;
                    };
                    let unit = &units[ui];
                    let got = UnitRunner::new(unit, &GoldenCache::new(), &cfg).run_batch(&cfg, 0);
                    let same = batch0.get(&unit.key.id()).is_some_and(|rec| {
                        rec.counts == got.counts && rec.sdc_insts == got.sdc_insts && rec.sdc_by_inst == got.sdc_by_inst
                    });
                    checked.fetch_add(1, Ordering::Relaxed);
                    if !same {
                        bad.lock().expect("no panics while held").push(unit.key.id());
                    }
                }
            });
        }
    });
    (checked.into_inner(), bad.into_inner().expect("no panics while held"))
}
