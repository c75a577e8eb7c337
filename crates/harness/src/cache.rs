//! Golden-run and snapshot-set cache keyed by program content.
//!
//! Every campaign needs a fault-free reference execution (the *golden
//! run*) to classify outcomes against and to derive the fault-site count.
//! Golden runs are pure functions of the program text, so the cache keys
//! them by a content hash of the printed IR / machine listing: two units
//! over byte-identical programs share one golden execution, and the
//! golden counts every [`UnitResult`](crate::UnitResult) carries (what the
//! study's overhead tables read) come from the campaign goldens for free.
//!
//! Snapshot sets are served the same way, with one extra source ahead of a
//! fresh capture run: **the persistent store** — sets saved next to the
//! checkpoint by a previous run load back without executing anything, so
//! the trials of a `--resume` need zero golden re-executions and zero
//! re-captures.
//!
//! The capture run is also the golden run and the *site observation* (the
//! golden order of fault sites by region, which region masses, scoped
//! trials and the prune oracle read), and the set's file keeps the log, so a
//! cold campaign executes each program content once and a warm store (a
//! resumed or merged seal included) nothing. [`CacheStats::observations`]
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
use flowery_ir::printer::print_module;
use flowery_ir::{fnv1a, Module};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Content hash of a module (its printed IR) — FNV-1a over the canonical
/// textual form, which keeps checkpoint logs portable.
pub fn module_hash(m: &Module) -> u64 {
    fnv1a(print_module(m).as_bytes())
}

/// Content hash of a compiled program (its machine listing).
pub fn program_hash(p: &AsmProgram) -> u64 {
    fnv1a(print_program(p).as_bytes())
}

/// Point-in-time cache counters; how each snapshot set was obtained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-memory maps.
    pub hits: u64,
    /// Lookups that had to go further (store or execution).
    pub misses: u64,
    /// Plain golden executions (not part of a snapshot capture).
    pub goldens_run: u64,
    /// Snapshot capture executions.
    pub snap_captures: u64,
    /// Snapshot sets loaded from the persistent store — zero executions.
    pub snap_loads: u64,
    /// Site observation passes (one fault-free execution each).
    pub observations: u64,
    /// Bytes of snapshot files the persistent store read, refused ones
    /// included.
    pub snap_bytes_read: u64,
    /// Bytes of snapshot files the persistent store published.
    pub snap_bytes_written: u64,
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

/// A layer the cache serves: what keys its programs and where its maps are.
pub(crate) trait CacheLayer: Substrate {
    /// Content hash of the program `exec` is bound to.
    fn key(exec: &Self::Exec<'_>) -> u64;

    fn maps(cache: &GoldenCache) -> &LayerMaps<Self>;
}

impl CacheLayer for IrLayer {
    fn key(exec: &Interpreter<'_>) -> u64 {
        module_hash(IrLayer::module(exec))
    }

    fn maps(cache: &GoldenCache) -> &LayerMaps<IrLayer> {
        &cache.ir
    }
}

impl CacheLayer for AsmLayer {
    fn key(exec: &Machine<'_>) -> u64 {
        program_hash(exec.program())
    }

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
    snap_loads: AtomicU64,
    observations: AtomicU64,
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

    /// `map[key]` when `serves` accepts it, else made by `make` and stored.
    /// The slot stays locked while `make` runs, so a racing asker waits
    /// for the value instead of executing it twice.
    fn memo<T>(&self, map: &Memo<T>, key: u64, serves: impl Fn(&T) -> bool, make: impl FnOnce() -> Arc<T>) -> Arc<T> {
        let slot = map.lock().unwrap().entry(key).or_default().clone();
        let mut slot = slot.lock().unwrap();
        if let Some(v) = slot.as_ref().filter(|v| serves(v)) {
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

    /// Golden run of the program `exec` is bound to, computed at most once
    /// per distinct program content.
    pub(crate) fn golden<S: CacheLayer>(&self, exec: &S::Exec<'_>, cfg: &ExecConfig) -> Arc<S::Golden> {
        let key = S::key(exec);
        // A persisted snapshot set carries the golden result, so a pure
        // checkpoint replay (`--resume` of a finished run) serves even its
        // merge-time golden lookups without executing anything.
        let make = || match self.load_set::<S>(exec, key, cfg) {
            Some(set) => Arc::new(set.golden().clone()),
            None => {
                self.goldens_run.fetch_add(1, Ordering::Relaxed);
                Arc::new(substrate::run::<S>(exec, cfg, None))
            }
        };
        self.memo(&S::maps(self).goldens, key, |_| true, make)
    }

    /// Golden run of `m` at the IR layer.
    pub fn ir_golden(&self, m: &Module, exec: &ExecConfig) -> Arc<ExecResult> {
        self.golden::<IrLayer>(&Interpreter::new(m), exec)
    }

    /// Golden run of `p` at the assembly layer.
    pub fn asm_golden(&self, m: &Module, p: &AsmProgram, exec: &ExecConfig) -> Arc<MachResult> {
        self.golden::<AsmLayer>(&Machine::new(m, p), exec)
    }

    /// The site observation of `exec`'s program with a per-site trace of up
    /// to `trace_cap` entries, from the memo, a set in memory, the store, or
    /// else one fault-free pass ([`substrate::observe`]; never a capture,
    /// which costs more) that seeds the golden map. A log recorded with a
    /// smaller cap never serves.
    pub(crate) fn observation<S: CacheLayer>(
        &self,
        exec: &S::Exec<'_>,
        cfg: &ExecConfig,
        trace_cap: usize,
    ) -> Arc<SiteLog> {
        let (key, maps) = (S::key(exec), S::maps(self));
        let make = || {
            let in_memory = maps.snaps.lock().unwrap().get(&key).cloned();
            let set = in_memory.and_then(|slot| slot.try_lock().ok()?.clone());
            let set = set.or_else(|| self.load_set::<S>(exec, key, cfg));
            match set.map(|set| set.sites().clone()).filter(|log| log.serves(trace_cap)) {
                Some(log) => log,
                None => {
                    self.observations.fetch_add(1, Ordering::Relaxed);
                    let (golden, log) = substrate::observe::<S>(exec, cfg, trace_cap);
                    Self::seed(&maps.goldens, key, || Arc::new(golden));
                    log
                }
            }
        };
        self.memo(&maps.sites, key, |log| log.serves(trace_cap), make)
    }

    /// The per-instruction execution counts of `m`'s golden run: one
    /// profiled fault-free pass (captures and stored sets keep no profile),
    /// counted as a golden run.
    pub(crate) fn exec_profile(&self, m: &Module, cfg: &ExecConfig) -> Profile {
        self.goldens_run.fetch_add(1, Ordering::Relaxed);
        let golden = Interpreter::new(m).profile_run(cfg);
        golden.profile.expect("a profiled run returns its counts")
    }

    /// Upper bound on prunable dynamic sites per program: past this many,
    /// the site trace stops and later sites simply go unpruned (sound —
    /// pruning is an optimization, never a requirement). Region masses and
    /// indices are never cut short by it.
    pub const SITE_TRACE_CAP: usize = 1 << 22;

    /// Static bit-verdict table for `p`, computed at most once per
    /// distinct program content. Pure static analysis — no execution.
    pub fn asm_bits(&self, m: &Module, p: &AsmProgram) -> Arc<BitTable> {
        self.memo(&self.bit_tables, program_hash(p), |_| true, || Arc::new(analyze_bits(m, p)))
    }

    /// A trial runner for `exec`'s program on the cached golden, or why none
    /// can run ([`TrialRunner::refusal`]). With `snapshots` on, the set is
    /// fetched first: its capture run doubles as the golden run and the
    /// observation (keeping `trace_cap` entries of trace). Without, the
    /// observation pass is the golden run.
    pub(crate) fn runner<'u, S: CacheLayer + InjectLayer>(
        &self,
        exec: S::Exec<'u>,
        snapshots: bool,
        cfg: &ExecConfig,
        trace_cap: usize,
    ) -> Result<TrialRunner<'u, S>, String> {
        let refused = |golden| TrialRunner::<S>::refusal(golden).map_or(Ok(()), Err);
        if snapshots {
            let set = self.snapshots_for::<S>(&exec, cfg, trace_cap);
            refused(set.golden())?;
            let mut r = TrialRunner::from_golden(exec, set.golden().clone(), cfg);
            r.attach_snapshots(set);
            Ok(r)
        } else {
            self.observation::<S>(&exec, cfg, trace_cap);
            let g = self.golden::<S>(&exec, cfg);
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

    /// Snapshot set for fast-forwarded trials over `exec`'s program,
    /// obtained (in order of preference) from the in-memory cache, the
    /// persistent store, or a fresh capture whose site log keeps `trace_cap`
    /// entries of trace. The set's golden result and site log seed the
    /// golden and observation maps, so later lookups of either are free.
    pub(crate) fn snapshots_for<S: CacheLayer>(
        &self,
        exec: &S::Exec<'_>,
        cfg: &ExecConfig,
        trace_cap: usize,
    ) -> Arc<SnapshotSet<S>> {
        let (key, maps) = (S::key(exec), S::maps(self));
        let make = || {
            let set = self.load_set::<S>(exec, key, cfg).unwrap_or_else(|| {
                let set = substrate::capture_auto::<S>(exec, cfg, trace_cap);
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
        self.memo(&maps.snaps, key, |_| true, make)
    }

    /// Snapshot set for fast-forwarded IR trials over `m`: from the cache,
    /// the persistent store, or a fresh capture, in that order of preference.
    pub fn ir_snapshots_for(&self, m: &Module, exec: &ExecConfig) -> Arc<IrSnapshotSet> {
        self.snapshots_for::<IrLayer>(&Interpreter::new(m), exec, 0)
    }

    /// [`GoldenCache::ir_snapshots_for`] at the assembly layer.
    pub fn asm_snapshots_for(&self, m: &Module, p: &AsmProgram, exec: &ExecConfig) -> Arc<AsmSnapshotSet> {
        self.snapshots_for::<AsmLayer>(&Machine::new(m, p), exec, 0)
    }

    /// Sample every counter at once.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            goldens_run: self.goldens_run.load(Ordering::Relaxed),
            snap_captures: self.snap_captures.load(Ordering::Relaxed),
            snap_loads: self.snap_loads.load(Ordering::Relaxed),
            observations: self.observations.load(Ordering::Relaxed),
            snap_bytes_read: self.store.as_ref().map_or(0, SnapshotStore::bytes_read),
            snap_bytes_written: self.store.as_ref().map_or(0, SnapshotStore::bytes_written),
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
        // Their site logs answer masses without executing; the trace a
        // pruned unit asks for was never stored, so that lookup observes.
        let mach = Machine::new(&m, &p);
        let log = resumed.observation::<AsmLayer>(&mach, &exec, 0);
        assert_eq!(resumed.stats().observations, 0, "a stored log serves an untraced lookup");
        let traced = resumed.observation::<AsmLayer>(&mach, &exec, GoldenCache::SITE_TRACE_CAP);
        assert_eq!(resumed.stats().observations, 1, "a stored log keeps no trace");
        assert_eq!(traced.trace().len() as u64, a1.golden().fault_sites);
        assert_eq!(log.mass(0), traced.mass(0));
        assert!(Arc::ptr_eq(&resumed.observation::<AsmLayer>(&mach, &exec, 0), &traced));

        // A replay builds no runner: its seal finds each log in the set a
        // golden lookup loaded, or else in the store — executing nothing.
        let replay = GoldenCache::with_store(SnapshotStore::at(&dir));
        let _ = replay.ir_golden(&m, &exec);
        let from_set = replay.observation::<IrLayer>(&Interpreter::new(&m), &exec, 0);
        let from_store = replay.observation::<AsmLayer>(&mach, &exec, 0);
        let st = replay.stats();
        assert_eq!((st.snap_loads, st.observations, st.goldens_run), (2, 0, 0));
        assert_eq!(from_set.mass(0), s1.sites().mass(0));
        assert_eq!(from_store.mass(0), a1.sites().mass(0));

        // A geometry mismatch refuses the file and recaptures.
        let small = ExecConfig { mem_size: 2 << 20, ..ExecConfig::default() };
        let strict = GoldenCache::with_store(SnapshotStore::at(&dir));
        let s3 = strict.ir_snapshots_for(&m, &small);
        assert!(s3.matches_geometry(small.mem_size, small.stack_size));
        assert_eq!(strict.stats().snap_captures, 1, "wrong geometry must recapture");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
