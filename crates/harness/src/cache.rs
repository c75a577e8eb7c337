//! Golden-run and snapshot-set cache keyed by program content.
//!
//! Every campaign needs a fault-free reference execution (the *golden
//! run*) to classify outcomes against and to derive the fault-site count.
//! Golden runs are pure functions of the program content, so the cache
//! keys them by a content hash — of the printed IR, or of the machine
//! listing and the globals its memory image is built from ([`asm_hash`]) —
//! which a campaign unit prints once and carries
//! ([`TrialUnit::content_key`](crate::TrialUnit::content_key)): two units
//! over identical programs share one golden execution.
//!
//! Snapshot sets are served the same way, with one extra source ahead of a
//! fresh capture run: **the persistent store** — sets saved next to the
//! checkpoint by a previous run load back without executing anything, so
//! the trials of a `--resume` need zero golden re-executions and zero
//! re-captures. A golden lookup tries a set in memory, then the store, then
//! a run; a campaign's results ask it only for programs whose counts the
//! checkpoint's golden records lack, so a sealed log asks it nothing.
//!
//! The capture run is also the golden run and the *site observation* (the
//! golden order of fault sites by region, which region masses, scoped
//! trials and the prune oracle read), and the set's file keeps the log, so a
//! cold campaign executes each program content once and a warm store
//! nothing. [`CacheStats::observations`]
//! counts the passes left: units without snapshots, lookups needing the
//! trace a stored log dropped, and `flowery diff`'s plan. Every map is
//! single-flight: a second asker waits for the first instead of executing.

use crate::snapstore::SnapshotStore;
use flowery_analysis::statline::{analyze_bits, BitTable};
use flowery_backend::{print_program, AsmLayer, AsmProgram, AsmSnapshotSet, MachResult, Machine};
use flowery_inject::campaign::{InjectLayer, TrialRunner};
use flowery_ir::interp::substrate;
use flowery_ir::interp::{
    ExecConfig, ExecResult, Interpreter, IrLayer, IrSnapshotSet, Profile, SiteLog, SnapshotSet, Substrate,
};
use flowery_ir::printer::{print_globals, print_module};
use flowery_ir::{fnv1a, Module};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Content hash of a module (its printed IR) — FNV-1a over the canonical
/// textual form, which keeps checkpoint logs portable.
pub fn module_hash(m: &Module) -> u64 {
    fnv1a(print_module(m).as_bytes())
}

/// Content hash of a compiled program's machine listing alone; campaigns
/// key assembly programs by [`asm_hash`].
pub fn program_hash(p: &AsmProgram) -> u64 {
    fnv1a(print_program(p).as_bytes())
}

/// Content key of an assembly program: its machine listing and `m`'s
/// globals, whose initial values the listing does not show.
pub fn asm_hash(m: &Module, p: &AsmProgram) -> u64 {
    fnv1a((print_program(p) + &print_globals(m)).as_bytes())
}

/// Point-in-time cache counters; how each snapshot set was obtained.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups served from the in-memory maps.
    pub hits: u64,
    /// Lookups that had to go further (store or execution).
    pub misses: u64,
    /// Plain golden executions (not part of a snapshot capture).
    pub goldens_run: u64,
    /// Snapshot capture executions.
    pub snap_captures: u64,
    /// Wall time of those captures, summed over the threads that ran them.
    pub snap_capture_secs: f64,
    /// Snapshots held by the captured sets (not by loaded ones).
    pub snaps_kept: u64,
    /// Wall time inside the static bit analysis, summed over the threads
    /// that ran it.
    pub bits_secs: f64,
    /// Snapshot sets loaded from the persistent store — zero executions.
    pub snap_loads: u64,
    /// Site observation passes (one fault-free execution each).
    pub observations: u64,
    /// Bytes of snapshot files the persistent store read, refused ones
    /// included.
    pub snap_bytes_read: u64,
    /// Bytes of snapshot files the persistent store published.
    pub snap_bytes_written: u64,
    /// Module or program texts printed to make a content key: one per
    /// campaign unit at most (a unit keeps its key), one per call of the
    /// single-program lookups.
    pub content_hashes: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        match self.hits + self.misses {
            0 => 0.0,
            lookups => self.hits as f64 / lookups as f64,
        }
    }
}

/// Values keyed by content hash, each in its own slot, which whoever makes
/// the value holds locked while it does.
type Memo<T> = Mutex<HashMap<u64, Arc<Mutex<Option<Arc<T>>>>>>;

/// One layer's share of the cache, keyed by program content hash.
pub(crate) struct LayerMaps<S: Substrate> {
    goldens: Memo<S::Golden>,
    snaps: Memo<SnapshotSet<S>>,
    /// Site observations: the golden order of fault sites by region.
    sites: Memo<SiteLog>,
}

impl<S: Substrate> Default for LayerMaps<S> {
    fn default() -> LayerMaps<S> {
        LayerMaps {
            goldens: Mutex::default(),
            snaps: Mutex::default(),
            sites: Mutex::default(),
        }
    }
}

/// A layer the cache serves: where its maps are.
pub(crate) trait CacheLayer: Substrate {
    fn maps(cache: &GoldenCache) -> &LayerMaps<Self>;
}

impl CacheLayer for IrLayer {
    fn maps(cache: &GoldenCache) -> &LayerMaps<IrLayer> {
        &cache.ir
    }
}

impl CacheLayer for AsmLayer {
    fn maps(cache: &GoldenCache) -> &LayerMaps<AsmLayer> {
        &cache.asm
    }
}

/// Thread-safe golden-run / snapshot-set cache with provenance accounting.
#[derive(Default)]
pub struct GoldenCache {
    ir: LayerMaps<IrLayer>,
    asm: LayerMaps<AsmLayer>,
    /// Static bit-verdict tables (the prune oracle's proof side).
    bit_tables: Memo<BitTable>,
    /// Persistent home for snapshot sets, when the campaign has one.
    store: Option<SnapshotStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    goldens_run: AtomicU64,
    snap_captures: AtomicU64,
    snap_capture_nanos: AtomicU64,
    snaps_kept: AtomicU64,
    bits_nanos: AtomicU64,
    snap_loads: AtomicU64,
    observations: AtomicU64,
    content_hashes: AtomicU64,
}

impl GoldenCache {
    pub fn new() -> GoldenCache {
        GoldenCache::default()
    }

    /// A cache that persists captured snapshot sets to `store` and serves
    /// future lookups from it.
    pub fn with_store(store: SnapshotStore) -> GoldenCache {
        GoldenCache { store: Some(store), ..GoldenCache::default() }
    }

    /// `map[key]`, else made by `make` and stored. The slot stays locked
    /// while `make` runs, so a racing asker waits for the value instead of
    /// executing it twice.
    fn memo<T>(&self, map: &Memo<T>, key: u64, make: impl FnOnce() -> Arc<T>) -> Arc<T> {
        let slot = map.lock().unwrap().entry(key).or_default().clone();
        let mut slot = slot.lock().unwrap();
        if let Some(v) = slot.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        slot.insert(make()).clone()
    }

    /// Fill `map[key]` with `v` unless it holds a value or is being made —
    /// never waits, so a maker may seed the other maps.
    fn seed<T>(map: &Memo<T>, key: u64, v: impl FnOnce() -> Arc<T>) {
        let slot = map.lock().unwrap().entry(key).or_default().clone();
        if let Ok(mut held) = slot.try_lock() {
            held.get_or_insert_with(v);
        };
    }

    /// `hash`, a content key just printed, counted in
    /// [`CacheStats::content_hashes`].
    pub(crate) fn printed(&self, hash: u64) -> u64 {
        self.content_hashes.fetch_add(1, Ordering::Relaxed);
        hash
    }

    /// Golden run of the program `exec` is bound to, whose content key is
    /// `key`, computed at most once per distinct program content.
    pub(crate) fn golden<S: CacheLayer>(&self, exec: &S::Exec<'_>, key: u64, cfg: &ExecConfig) -> Arc<S::Golden> {
        // A snapshot set carries the golden result, so a set in memory or in
        // the store serves the lookup without executing anything.
        let make = || match self.in_memory::<S>(key).or_else(|| self.load_set::<S>(exec, key, cfg)) {
            Some(set) => Arc::new(set.golden().clone()),
            None => {
                self.goldens_run.fetch_add(1, Ordering::Relaxed);
                Arc::new(substrate::run::<S>(exec, cfg, None))
            }
        };
        self.memo(&S::maps(self).goldens, key, make)
    }

    /// The set for `key` in the snapshot map, unless it is being made.
    fn in_memory<S: CacheLayer>(&self, key: u64) -> Option<Arc<SnapshotSet<S>>> {
        let slot = S::maps(self).snaps.lock().unwrap().get(&key).cloned();
        slot.and_then(|slot| slot.try_lock().ok()?.clone())
    }

    /// Golden run of `m` at the IR layer. Prints `m` to key it, every call.
    pub fn ir_golden(&self, m: &Module, exec: &ExecConfig) -> Arc<ExecResult> {
        self.golden::<IrLayer>(&Interpreter::new(m), self.printed(module_hash(m)), exec)
    }

    /// Golden run of `p` at the assembly layer. Prints `p` to key it, every
    /// call.
    pub fn asm_golden(&self, m: &Module, p: &AsmProgram, exec: &ExecConfig) -> Arc<MachResult> {
        self.golden::<AsmLayer>(&Machine::new(m, p), self.printed(asm_hash(m, p)), exec)
    }

    /// The site observation of `exec`'s program (content key `key`), from
    /// the memo, a set in memory, the store, or else one fault-free pass
    /// ([`substrate::observe`]; never a capture, which costs more) that
    /// seeds the golden map.
    pub(crate) fn observation<S: CacheLayer>(&self, exec: &S::Exec<'_>, key: u64, cfg: &ExecConfig) -> Arc<SiteLog> {
        let maps = S::maps(self);
        let make = || {
            let set = self.in_memory::<S>(key).or_else(|| self.load_set::<S>(exec, key, cfg));
            set.map(|set| set.sites().clone()).unwrap_or_else(|| {
                self.observations.fetch_add(1, Ordering::Relaxed);
                let (golden, log) = substrate::observe::<S>(exec, cfg, 0);
                Self::seed(&maps.goldens, key, || Arc::new(golden));
                log
            })
        };
        self.memo(&maps.sites, key, make)
    }

    /// The per-instruction execution counts of `m`'s golden run: one
    /// profiled fault-free pass (captures and stored sets keep no profile),
    /// counted as a golden run.
    pub(crate) fn exec_profile(&self, m: &Module, cfg: &ExecConfig) -> Profile {
        self.goldens_run.fetch_add(1, Ordering::Relaxed);
        let golden = Interpreter::new(m).profile_run(cfg);
        golden.profile.expect("a profiled run returns its counts")
    }

    /// Upper bound on the site trace a trace-fed prune oracle
    /// ([`crate::StaticPrior`]) is given: past this many sites, its draws go
    /// unpruned. Campaigns keep no trace and have no such bound. Kept for
    /// `benchmark/src/trace.rs` until ROADMAP 1(a).
    pub const SITE_TRACE_CAP: usize = 1 << 22;

    /// Static bit-verdict table for `p`, whose content key is `key`,
    /// computed at most once per distinct program content. Pure static
    /// analysis — no execution; its time goes to [`CacheStats::bits_secs`].
    pub(crate) fn asm_bits(&self, m: &Module, p: &AsmProgram, key: u64) -> Arc<BitTable> {
        let make = || {
            let start = std::time::Instant::now();
            let table = analyze_bits(m, p);
            self.bits_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            Arc::new(table)
        };
        self.memo(&self.bit_tables, key, make)
    }

    /// A trial runner for `exec`'s program (content key `key`) on the cached
    /// golden, or why none can run ([`TrialRunner::refusal`]). With
    /// `snapshots` on, the set is fetched first: its capture run doubles as
    /// the golden run and the observation and keeps at most `trials`
    /// snapshots. Without, the observation pass is the golden run.
    pub(crate) fn runner<'u, S: CacheLayer + InjectLayer>(
        &self,
        exec: S::Exec<'u>,
        key: u64,
        snapshots: bool,
        cfg: &ExecConfig,
        trials: u64,
    ) -> Result<TrialRunner<'u, S>, String> {
        let refused = |golden| TrialRunner::<S>::refusal(golden).map_or(Ok(()), Err);
        if snapshots {
            let set = self.snapshots_for::<S>(&exec, key, cfg, trials);
            refused(set.golden())?;
            let mut r = TrialRunner::from_golden(exec, set.golden().clone(), cfg);
            r.attach_snapshots(set);
            Ok(r)
        } else {
            self.observation::<S>(&exec, key, cfg);
            let g = self.golden::<S>(&exec, key, cfg);
            refused(&g)?;
            Ok(TrialRunner::from_golden(exec, (*g).clone(), cfg))
        }
    }

    /// The persisted set for `key`, when the store has one captured under
    /// `cfg`'s memory geometry. It seeds the snapshot map, so whichever
    /// lookup asked first, the file is read once.
    fn load_set<S: CacheLayer>(&self, exec: &S::Exec<'_>, key: u64, cfg: &ExecConfig) -> Option<Arc<SnapshotSet<S>>> {
        let store = self.store.as_ref()?;
        let set = store.load::<S>(exec, key)?;
        if !set.matches_geometry(cfg.mem_size, cfg.stack_size) {
            store.refused::<S>(key, "snapshot file: captured under another memory geometry");
            return None;
        }
        self.snap_loads.fetch_add(1, Ordering::Relaxed);
        let set = Arc::new(set);
        Self::seed(&S::maps(self).snaps, key, || set.clone());
        Some(set)
    }

    /// Snapshot set for fast-forwarded trials over `exec`'s program (content
    /// key `key`), obtained (in order of preference) from the in-memory
    /// cache, the persistent store, or a fresh capture that keeps at most
    /// `trials` snapshots. A set in memory or in the store serves any trial
    /// count (a trial is bit-identical from
    /// any snapshot). The set's golden result and site log seed the
    /// golden and observation maps, so later lookups of either are free.
    pub(crate) fn snapshots_for<S: CacheLayer>(
        &self,
        exec: &S::Exec<'_>,
        key: u64,
        cfg: &ExecConfig,
        trials: u64,
    ) -> Arc<SnapshotSet<S>> {
        let maps = S::maps(self);
        let make = || {
            let set = self.load_set::<S>(exec, key, cfg).unwrap_or_else(|| {
                let start = std::time::Instant::now();
                let set = substrate::capture_for::<S>(exec, cfg, trials);
                self.snap_capture_nanos
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                self.snaps_kept.fetch_add(set.len() as u64, Ordering::Relaxed);
                self.snap_captures.fetch_add(1, Ordering::Relaxed);
                if let Some(st) = &self.store {
                    st.save(&set, key);
                }
                Arc::new(set)
            });
            Self::seed(&maps.goldens, key, || Arc::new(set.golden().clone()));
            Self::seed(&maps.sites, key, || set.sites().clone());
            set
        };
        self.memo(&maps.snaps, key, make)
    }

    /// Snapshot set for fast-forwarded IR trials over `m`: from the cache,
    /// the persistent store, or a fresh capture, in that order of preference.
    /// Prints `m` to key it, every call.
    pub fn ir_snapshots_for(&self, m: &Module, exec: &ExecConfig) -> Arc<IrSnapshotSet> {
        let key = self.printed(module_hash(m));
        self.snapshots_for::<IrLayer>(&Interpreter::new(m), key, exec, u64::MAX)
    }

    /// [`GoldenCache::ir_snapshots_for`] at the assembly layer.
    pub fn asm_snapshots_for(&self, m: &Module, p: &AsmProgram, exec: &ExecConfig) -> Arc<AsmSnapshotSet> {
        let key = self.printed(asm_hash(m, p));
        self.snapshots_for::<AsmLayer>(&Machine::new(m, p), key, exec, u64::MAX)
    }

    /// Sample every counter at once.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            goldens_run: self.goldens_run.load(Ordering::Relaxed),
            snap_captures: self.snap_captures.load(Ordering::Relaxed),
            snap_capture_secs: self.snap_capture_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            snaps_kept: self.snaps_kept.load(Ordering::Relaxed),
            bits_secs: self.bits_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            snap_loads: self.snap_loads.load(Ordering::Relaxed),
            observations: self.observations.load(Ordering::Relaxed),
            snap_bytes_read: self.store.as_ref().map_or(0, SnapshotStore::bytes_read),
            snap_bytes_written: self.store.as_ref().map_or(0, SnapshotStore::bytes_written),
            content_hashes: self.content_hashes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(src: &str) -> Module {
        flowery_lang::compile("t", src).unwrap()
    }

    const LOOP_SRC: &str =
        "int main() { int i; int s = 0; for (i = 0; i < 900; i = i + 1) { s = s + i; } output(s); return 0; }";

    #[test]
    fn identical_content_hits_distinct_content_misses() {
        let a = module("int main() { output(7); return 0; }");
        let b = module("int main() { output(7); return 0; }");
        let c = module("int main() { output(8); return 0; }");
        let cache = GoldenCache::new();
        let exec = ExecConfig::default();
        let g1 = cache.ir_golden(&a, &exec);
        let g2 = cache.ir_golden(&b, &exec);
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        assert!(Arc::ptr_eq(&g1, &g2), "same content must share one golden run");
        let _ = cache.ir_golden(&c, &exec);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().goldens_run, 2);
        assert!((cache.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_sets_are_shared_by_content() {
        let a = module(LOOP_SRC);
        let b = module(LOOP_SRC);
        let cache = GoldenCache::new();
        let exec = ExecConfig::default();
        let s1 = cache.ir_snapshots_for(&a, &exec);
        let s2 = cache.ir_snapshots_for(&b, &exec);
        assert!(Arc::ptr_eq(&s1, &s2), "same content must share one snapshot set");
        assert!(!s1.is_empty(), "a multi-thousand-instruction run must snapshot");
        assert_eq!(s1.golden().dyn_insts, cache.ir_golden(&a, &exec).dyn_insts);
        // The capture seeded the golden map: that lookup was a hit, and no
        // plain golden execution ever ran.
        let st = cache.stats();
        assert_eq!(st.snap_captures, 1);
        assert_eq!(st.goldens_run, 0, "capture run doubles as the golden run");
    }

    #[test]
    fn racing_askers_capture_once() {
        // Two threads ask for one set at the same moment: the second waits
        // for the first's capture instead of running its own.
        let m = module(&LOOP_SRC.replace("900", "60000"));
        let (cache, exec, start) = (GoldenCache::new(), ExecConfig::default(), std::sync::Barrier::new(2));
        let ask = || {
            start.wait();
            cache.ir_snapshots_for(&m, &exec)
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(ask), s.spawn(ask));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().snap_captures, 1);
    }

    #[test]
    fn layers_are_cached_independently() {
        let m = module("int main() { output(3); return 0; }");
        let p = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let cache = GoldenCache::new();
        let exec = ExecConfig::default();
        let _ = cache.ir_golden(&m, &exec);
        let _ = cache.asm_golden(&m, &p, &exec);
        assert_eq!(cache.stats().misses, 2, "IR and assembly goldens are distinct entries");
        let _ = cache.asm_golden(&m, &p, &exec);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn store_backed_cache_loads_instead_of_recapturing() {
        let dir = std::env::temp_dir().join(format!("flcache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = module(LOOP_SRC);
        let p = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let exec = ExecConfig::default();

        // First campaign: captures and persists.
        let first = GoldenCache::with_store(SnapshotStore::at(&dir));
        let s1 = first.ir_snapshots_for(&m, &exec);
        let a1 = first.asm_snapshots_for(&m, &p, &exec);
        let st = first.stats();
        assert_eq!(st.snap_captures, 2);
        assert_eq!(st.snap_loads, 0);
        assert_eq!(st.snap_bytes_read, 0);
        let written = st.snap_bytes_written;
        assert!(written > 0, "the captured sets are written");

        // Resumed campaign: loads both sets, executes nothing.
        let resumed = GoldenCache::with_store(SnapshotStore::at(&dir));
        let s2 = resumed.ir_snapshots_for(&m, &exec);
        let a2 = resumed.asm_snapshots_for(&m, &p, &exec);
        let st = resumed.stats();
        assert_eq!(st.snap_loads, 2, "resume must load from the store");
        assert_eq!(st.snap_captures, 0, "resume must not re-capture");
        assert_eq!(st.goldens_run, 0, "resume must not re-run goldens");
        assert_eq!((st.snap_bytes_read, st.snap_bytes_written), (written, 0), "resume reads what was written");
        assert_eq!(s2.golden(), s1.golden());
        assert_eq!(a2.golden(), a1.golden());
        // The loaded sets also seeded the golden maps.
        assert_eq!(resumed.ir_golden(&m, &exec).dyn_insts, s1.golden().dyn_insts);
        assert_eq!(resumed.stats().goldens_run, 0);
        // Their site logs answer masses without executing — a pruning
        // machine's lookup too: no campaign lookup asks for a trace.
        let (ir_key, asm_key) = (module_hash(&m), asm_hash(&m, &p));
        let mach = Machine::new(&m, &p).pruning(vec![u64::MAX; p.insts.len()]);
        let log = resumed.observation::<AsmLayer>(&mach, asm_key, &exec);
        assert_eq!(resumed.stats().observations, 0, "a stored log serves a pruned unit's lookup");
        assert!(log.trace().is_empty(), "a stored log keeps no trace");
        assert_eq!(log.mass(0), a1.sites().mass(0));
        assert!(Arc::ptr_eq(&resumed.observation::<AsmLayer>(&mach, asm_key, &exec), &log));

        // A replay with no golden records asks the store: each golden
        // lookup loads its stored set, which then serves the seal's site
        // logs and a runner — one read of each file, executing nothing.
        let replay = GoldenCache::with_store(SnapshotStore::at(&dir));
        assert_eq!(replay.ir_golden(&m, &exec).dyn_insts, s1.golden().dyn_insts);
        assert_eq!(replay.asm_golden(&m, &p, &exec).cycles, a1.golden().cycles);
        let ir_log = replay.observation::<IrLayer>(&Interpreter::new(&m), ir_key, &exec);
        let asm_log = replay.observation::<AsmLayer>(&mach, asm_key, &exec);
        let st = replay.stats();
        assert_eq!((st.snap_loads, st.observations, st.goldens_run), (2, 0, 0));
        assert_eq!(ir_log.mass(0), s1.sites().mass(0));
        assert_eq!(asm_log.mass(0), a1.sites().mass(0));
        assert_eq!(replay.ir_snapshots_for(&m, &exec).len(), s1.len());
        assert_eq!(replay.stats().snap_loads, 2);
        assert_eq!(replay.stats().snap_bytes_read, written, "each file is read once");

        // A geometry mismatch refuses the file and recaptures.
        let small = ExecConfig { mem_size: 2 << 20, ..ExecConfig::default() };
        let strict = GoldenCache::with_store(SnapshotStore::at(&dir));
        let s3 = strict.ir_snapshots_for(&m, &small);
        assert!(s3.matches_geometry(small.mem_size, small.stack_size));
        assert_eq!(strict.stats().snap_captures, 1, "wrong geometry must recapture");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
