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
//! Since the capture run doubles as the golden run (its result seeds the
//! golden maps), enabling snapshots never adds an execution.
//!
//! The one other fault-free pass is the *site observation*: the golden
//! order of fault sites by region, from which region masses, region-scoped
//! trials and the prune oracle's site map derive. It is lazy — a pruned
//! unit, a scoped work item and the seal's region records ask for it — and
//! not persisted, so sealing a campaign (a resumed one too) executes every
//! program once more; [`CacheStats::observations`] counts those passes.

use crate::snapstore::SnapshotStore;
use flowery_analysis::statline::{analyze_bits, BitTable};
use flowery_backend::{print_program, AsmLayer, AsmProgram, AsmSnapshotSet, MachResult, Machine};
use flowery_inject::campaign::{InjectLayer, TrialRunner};
use flowery_ir::interp::substrate;
use flowery_ir::interp::{
    ExecConfig, ExecResult, Interpreter, IrLayer, IrSnapshotSet, SiteLog, SnapshotSet, Substrate,
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

/// One layer's share of the cache, keyed by program content hash.
pub(crate) struct LayerMaps<S: Substrate> {
    goldens: Mutex<HashMap<u64, Arc<S::Golden>>>,
    snaps: Mutex<HashMap<u64, Arc<SnapshotSet<S>>>>,
    /// Site observations: the golden order of fault sites by region.
    sites: Mutex<HashMap<u64, Arc<SiteLog>>>,
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
    bit_tables: Mutex<HashMap<u64, Arc<BitTable>>>,
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

    /// `map[key]`, made by `make` on a miss — outside the lock, executions
    /// being the expensive part; of two racing makers the first insert wins.
    fn memo<T>(&self, map: &Mutex<HashMap<u64, Arc<T>>>, key: u64, make: impl FnOnce() -> T) -> Arc<T> {
        if let Some(v) = map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = Arc::new(make());
        map.lock().unwrap().entry(key).or_insert(v).clone()
    }

    /// Golden run of the program `exec` is bound to, computed at most once
    /// per distinct program content.
    pub(crate) fn golden<S: CacheLayer>(&self, exec: &S::Exec<'_>, cfg: &ExecConfig) -> Arc<S::Golden> {
        let key = S::key(exec);
        self.memo(&S::maps(self).goldens, key, || match self.load_set::<S>(exec, key, cfg) {
            // A persisted snapshot set carries the golden result, so a pure
            // checkpoint replay (`--resume` of a finished run) serves even
            // its merge-time golden lookups without executing anything.
            Some(set) => {
                let golden = set.golden().clone();
                S::maps(self).snaps.lock().unwrap().entry(key).or_insert(Arc::new(set));
                golden
            }
            None => {
                self.goldens_run.fetch_add(1, Ordering::Relaxed);
                substrate::run::<S>(exec, cfg, None)
            }
        })
    }

    /// Golden run of `m` at the IR layer.
    pub fn ir_golden(&self, m: &Module, exec: &ExecConfig) -> Arc<ExecResult> {
        self.golden::<IrLayer>(&Interpreter::new(m), exec)
    }

    /// Golden run of `p` at the assembly layer.
    pub fn asm_golden(&self, m: &Module, p: &AsmProgram, exec: &ExecConfig) -> Arc<MachResult> {
        self.golden::<AsmLayer>(&Machine::new(m, p), exec)
    }

    /// The site observation of `exec`'s program: one fault-free pass
    /// ([`substrate::observe`]) per distinct program content. `trace_cap`
    /// bounds the per-site trace it keeps; a campaign passes one value
    /// throughout, so whoever asks first — a pruned runner, a scoped item,
    /// the seal — pays the only pass.
    pub(crate) fn observation<S: CacheLayer>(
        &self,
        exec: &S::Exec<'_>,
        cfg: &ExecConfig,
        trace_cap: usize,
    ) -> Arc<SiteLog> {
        self.memo(&S::maps(self).sites, S::key(exec), || {
            self.observations.fetch_add(1, Ordering::Relaxed);
            substrate::observe::<S>(exec, cfg, trace_cap).1
        })
    }

    /// Upper bound on prunable dynamic sites per program: past this many,
    /// the site trace stops and later sites simply go unpruned (sound —
    /// pruning is an optimization, never a requirement). Region masses and
    /// indices are never cut short by it.
    pub const SITE_TRACE_CAP: usize = 1 << 22;

    /// Static bit-verdict table for `p`, computed at most once per
    /// distinct program content. Pure static analysis — no execution.
    pub fn asm_bits(&self, m: &Module, p: &AsmProgram) -> Arc<BitTable> {
        self.memo(&self.bit_tables, program_hash(p), || analyze_bits(m, p))
    }

    /// A trial runner for `exec`'s program on the cached golden. With
    /// `snapshots` on, the set is fetched first: its capture run doubles as
    /// the golden run (and seeds the golden cache), so no separate golden
    /// execution happens.
    pub(crate) fn runner<'u, S: CacheLayer + InjectLayer>(
        &self,
        exec: S::Exec<'u>,
        snapshots: bool,
        cfg: &ExecConfig,
    ) -> TrialRunner<'u, S> {
        if snapshots {
            let set = self.snapshots_for::<S>(&exec, cfg);
            let mut r = TrialRunner::from_golden(exec, set.golden().clone(), cfg);
            r.attach_snapshots(set);
            r
        } else {
            let g = self.golden::<S>(&exec, cfg);
            TrialRunner::from_golden(exec, (*g).clone(), cfg)
        }
    }

    /// The persisted set for `key`, when the store has one captured under
    /// `cfg`'s memory geometry.
    fn load_set<S: CacheLayer>(&self, exec: &S::Exec<'_>, key: u64, cfg: &ExecConfig) -> Option<SnapshotSet<S>> {
        let store = self.store.as_ref()?;
        let set = store.load::<S>(exec, key)?;
        if !set.matches_geometry(cfg.mem_size, cfg.stack_size) {
            store.refused::<S>(key, "snapshot file: captured under another memory geometry");
            return None;
        }
        self.snap_loads.fetch_add(1, Ordering::Relaxed);
        Some(set)
    }

    /// Snapshot set for fast-forwarded trials over `exec`'s program,
    /// obtained (in order of preference) from the in-memory cache, the
    /// persistent store, or a fresh capture. The set's golden result seeds
    /// the golden cache, so subsequent [`GoldenCache::golden`] calls for the
    /// same content are free.
    pub(crate) fn snapshots_for<S: CacheLayer>(&self, exec: &S::Exec<'_>, cfg: &ExecConfig) -> Arc<SnapshotSet<S>> {
        let key = S::key(exec);
        self.memo(&S::maps(self).snaps, key, || {
            let set = self.load_set::<S>(exec, key, cfg).unwrap_or_else(|| {
                let set = substrate::capture_auto::<S>(exec, cfg);
                self.snap_captures.fetch_add(1, Ordering::Relaxed);
                if let Some(st) = &self.store {
                    st.save(&set, key);
                }
                set
            });
            // The capture (or the loaded file) carries the golden result: seed
            // the golden map so no plain golden execution ever repeats it.
            let goldens = &S::maps(self).goldens;
            goldens
                .lock()
                .unwrap()
                .entry(key)
                .or_insert_with(|| Arc::new(set.golden().clone()));
            set
        })
    }

    /// Snapshot set for fast-forwarded IR trials over `m`: from the cache,
    /// the persistent store, or a fresh capture, in that order of preference.
    pub fn ir_snapshots_for(&self, m: &Module, exec: &ExecConfig) -> Arc<IrSnapshotSet> {
        self.snapshots_for::<IrLayer>(&Interpreter::new(m), exec)
    }

    /// [`GoldenCache::ir_snapshots_for`] at the assembly layer.
    pub fn asm_snapshots_for(&self, m: &Module, p: &AsmProgram, exec: &ExecConfig) -> Arc<AsmSnapshotSet> {
        self.snapshots_for::<AsmLayer>(&Machine::new(m, p), exec)
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

        // Resumed campaign: loads both sets, executes nothing.
        let resumed = GoldenCache::with_store(SnapshotStore::at(&dir));
        let s2 = resumed.ir_snapshots_for(&m, &exec);
        let a2 = resumed.asm_snapshots_for(&m, &p, &exec);
        let st = resumed.stats();
        assert_eq!(st.snap_loads, 2, "resume must load from the store");
        assert_eq!(st.snap_captures, 0, "resume must not re-capture");
        assert_eq!(st.goldens_run, 0, "resume must not re-run goldens");
        assert_eq!(s2.golden(), s1.golden());
        assert_eq!(a2.golden(), a1.golden());
        // The loaded sets also seeded the golden maps.
        assert_eq!(resumed.ir_golden(&m, &exec).dyn_insts, s1.golden().dyn_insts);
        assert_eq!(resumed.stats().goldens_run, 0);

        // A geometry mismatch refuses the file and recaptures.
        let small = ExecConfig { mem_size: 2 << 20, ..ExecConfig::default() };
        let strict = GoldenCache::with_store(SnapshotStore::at(&dir));
        let s3 = strict.ir_snapshots_for(&m, &small);
        assert!(s3.matches_geometry(small.mem_size, small.stack_size));
        assert_eq!(strict.stats().snap_captures, 1, "wrong geometry must recapture");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
