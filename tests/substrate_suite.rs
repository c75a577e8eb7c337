//! One snapshot / fast-forward / persistence suite, instantiated for both
//! injection layers. Everything under test is the shared machinery of
//! `flowery_ir::interp::{substrate, snapshot, snapio}`; a layer contributes
//! only its `Substrate` impl, so every behaviour is asserted at both layers
//! on the same programs.

use flowery_backend::{compile_module, AsmLayer, AsmProgram, BackendConfig, MachResult, Machine};
use flowery_harness::{GoldenCache, SnapshotStore};
use flowery_ir::interp::snapio::w_leb;
use flowery_ir::interp::snapshot::{AUTO_MAX_SNAPS, AUTO_SITE_CADENCE};
use flowery_ir::interp::substrate::{self, RunResult};
use flowery_ir::interp::{Cadence, ExecConfig, ExecResult, ExecStatus, FaultSpec, Interpreter, IrLayer};
use flowery_ir::interp::{Scratch, SiteLog, SnapshotSet, Substrate, PAGE_SIZE};
use flowery_ir::{Callee, FuncId, InstId, InstKind, Module};
use std::sync::Arc;

/// What the suite needs from a layer beyond its `Substrate` impl: an
/// executor for a module, the cache's set for it, where a fault landed and an
/// independent count of each region's fault sites.
trait Layer: Substrate {
    /// What the executor binds besides the module.
    type Program;
    fn compile(m: &Module) -> Self::Program;
    fn bind<'a>(m: &'a Module, p: &'a Self::Program) -> Self::Exec<'a>;
    fn cached(cache: &GoldenCache, m: &Module, p: &Self::Program, cfg: &ExecConfig) -> Arc<SnapshotSet<Self>>;
    /// Where `result`'s fault landed, in the coordinate of
    /// `Substrate::site_regions`.
    fn landed(result: &Self::Golden) -> Option<u32>;
    /// Fault sites executed per region, counted from `golden`'s execution
    /// profile with the layer's static site predicate.
    fn profile_masses(m: &Module, p: &Self::Program, golden: &Self::Golden) -> Vec<u64>;
}

impl Layer for IrLayer {
    type Program = ();
    fn compile(_: &Module) {}
    fn bind<'a>(m: &'a Module, _: &'a ()) -> Interpreter<'a> {
        Interpreter::new(m)
    }
    fn cached(cache: &GoldenCache, m: &Module, _: &(), cfg: &ExecConfig) -> Arc<SnapshotSet<IrLayer>> {
        cache.ir_snapshots_for(m, cfg)
    }
    fn landed(result: &ExecResult) -> Option<u32> {
        result.injected_at.map(|(f, _)| f.0)
    }
    /// Compute results other than `alloca` addresses and call returns.
    fn profile_masses(m: &Module, _: &(), golden: &ExecResult) -> Vec<u64> {
        let counts = &golden.profile.as_ref().expect("profiled run").counts;
        let is_site = |f: usize, i: usize| {
            let kind = &m.functions[f].inst(InstId(i as u32)).kind;
            m.result_ty(FuncId(f as u32), InstId(i as u32)).is_some()
                && !matches!(kind, InstKind::Alloca { .. } | InstKind::Call { callee: Callee::Func(_), .. })
        };
        let mass = |f: usize| (0..counts[f].len()).filter(|&i| is_site(f, i)).map(|i| counts[f][i]).sum();
        (0..counts.len()).map(mass).collect()
    }
}

impl Layer for AsmLayer {
    type Program = AsmProgram;
    fn compile(m: &Module) -> AsmProgram {
        compile_module(m, &BackendConfig::default())
    }
    fn bind<'a>(m: &'a Module, p: &'a AsmProgram) -> Machine<'a> {
        Machine::new(m, p)
    }
    fn cached(cache: &GoldenCache, m: &Module, p: &AsmProgram, cfg: &ExecConfig) -> Arc<SnapshotSet<AsmLayer>> {
        cache.asm_snapshots_for(m, p, cfg)
    }
    fn landed(result: &MachResult) -> Option<u32> {
        result.injected_inst
    }
    fn profile_masses(_: &Module, p: &AsmProgram, golden: &MachResult) -> Vec<u64> {
        let counts = golden.profile.as_ref().expect("profiled run");
        let site = |i: &u32| p.insts[*i as usize].kind.is_fault_site();
        let mass = |f: &flowery_backend::mir::AsmFunc| (f.entry..f.end).filter(site).map(|i| counts[i as usize]).sum();
        p.funcs.iter().map(mass).collect()
    }
}

fn module(src: &str) -> Module {
    flowery_lang::compile("suite", src).unwrap_or_else(|e| panic!("suite program must compile: {e}\n{src}"))
}

/// A loop with stores and calls, so snapshots carry memory and call-stack
/// state: sum of squares of 0..8 = 140.
fn loop_module() -> Module {
    module(
        "int sq(int x) { return x * x; }\n\
         int main() { int acc = 0; int i;\n\
           for (i = 0; i < 8; i = i + 1) { acc = acc + sq(i); }\n\
           output(acc); return acc; }",
    )
}

/// A loop that cycles writes through an 8-page global array, so every
/// snapshot window rewrites pages and the overlay grows without bound
/// unless capped.
fn store_heavy_module(iters: u32) -> Module {
    module(&format!(
        "global int arr[4096];\n\
         int main() {{ int i;\n\
           for (i = 0; i < {iters}; i = i + 1) {{ arr[i & 4095] = i; }}\n\
           output(arr[7]); return arr[7]; }}"
    ))
}

/// A long loop, then one call to a helper at the *end* of the run, so late
/// fault sites have many snapshots behind them.
fn late_call_module() -> Module {
    module(
        "int main() { int acc = 0; int i;\n\
           for (i = 0; i < 200; i = i + 1) { acc = acc + i; }\n\
           int r = fin(acc); output(r); return r; }\n\
         int fin(int x) { return x * 3; }",
    )
}

fn limits(max_dyn_insts: u64) -> ExecConfig {
    ExecConfig { max_dyn_insts, ..ExecConfig::default() }
}

fn fast_forward_is_bit_identical<S: Layer>() {
    // Every site of the loop module, restored vs scratch, tiny interval so
    // several snapshots exist.
    let m = loop_module();
    let p = S::compile(&m);
    let exec = S::bind(&m, &p);
    let cfg = limits(10_000);
    let set = substrate::capture::<S>(&exec, &cfg, Cadence::Insts(16), None);
    assert!(set.len() > 2, "expected several snapshots");
    assert_eq!(set.golden().head().status, ExecStatus::Completed(140));
    let mut scratch = Scratch::new();
    for site in 0..set.golden().head().fault_sites {
        for bit in [0u32, 1, 5, 17, 31, 62, 63] {
            let spec = FaultSpec::single(site, bit);
            let scratch_res = substrate::run::<S>(&exec, &cfg, Some(spec));
            let (ff_res, skipped) = substrate::trial(&exec, &cfg, spec, Some(&set), &mut scratch);
            assert_eq!(ff_res, scratch_res, "site {site} bit {bit}");
            assert!(skipped <= scratch_res.head().dyn_insts);
            scratch.recycle_output(ff_res.into_output());
        }
    }
}

fn capture_golden_matches_plain_run<S: Layer>() {
    let m = loop_module();
    let p = S::compile(&m);
    let exec = S::bind(&m, &p);
    let cfg = ExecConfig::default();
    let plain = substrate::run::<S>(&exec, &cfg, None);
    let set = substrate::capture::<S>(&exec, &cfg, Cadence::Insts(32), None);
    assert_eq!(set.golden(), &plain);
}

fn profiled_fast_forward_matches_scratch<S: Layer>() {
    // Capture with profiling on: the golden result carries the profile, the
    // snapshots carry none, and a profiled trial over the set produces
    // counts identical to a profiled scratch run — the profile_sdc path.
    let m = late_call_module();
    let p = S::compile(&m);
    let exec = S::bind(&m, &p);
    let cfg = ExecConfig { profile: true, ..limits(100_000) };
    let set = substrate::capture::<S>(&exec, &cfg, Cadence::Insts(64), None);
    assert!(set.len() > 2, "expected several snapshots");
    assert_eq!(set.golden(), &substrate::run::<S>(&exec, &cfg, None));
    let mut scratch = Scratch::new();
    for site in 0..set.golden().head().fault_sites {
        let spec = FaultSpec::single(site, 5);
        let scratch_res = substrate::run::<S>(&exec, &cfg, Some(spec));
        let (ff_res, _) = substrate::trial(&exec, &cfg, spec, Some(&set), &mut scratch);
        assert_eq!(ff_res, scratch_res, "site {site}: profile counts must match");
    }
}

fn profiled_trials_restore_nothing<S: Layer>() {
    // A snapshot holds no profile accumulator, so a profiled trial with a
    // set attached runs from the start — where the same fault unprofiled
    // restores a snapshot — and still equals a scratch run.
    let m = late_call_module();
    let p = S::compile(&m);
    let exec = S::bind(&m, &p);
    let plain_cfg = limits(100_000);
    let prof_cfg = ExecConfig { profile: true, ..plain_cfg.clone() };
    let set = substrate::capture::<S>(&exec, &plain_cfg, Cadence::Insts(64), None);
    let mut scratch = Scratch::new();
    let spec = FaultSpec::single(set.golden().head().fault_sites - 1, 1);
    let (_, skipped) = substrate::trial(&exec, &plain_cfg, spec, Some(&set), &mut scratch);
    assert!(skipped > 0, "test premise: the unprofiled trial restores a snapshot");
    let (ff_res, skipped) = substrate::trial(&exec, &prof_cfg, spec, Some(&set), &mut scratch);
    assert_eq!(skipped, 0, "a profiled trial must start from scratch");
    assert_eq!(ff_res, substrate::run::<S>(&exec, &prof_cfg, Some(spec)));
}

fn auto_capture_is_site_spaced_and_capped<S: Layer>() {
    let m = store_heavy_module(8192);
    let p = S::compile(&m);
    let exec = S::bind(&m, &p);
    let cfg = limits(2_000_000);
    let set = substrate::capture_for::<S>(&exec, &cfg, u64::MAX);
    assert!(matches!(set.cadence(), Cadence::Sites(_)), "auto capture spaces by fault sites");
    assert!(set.len() <= AUTO_MAX_SNAPS, "{} snapshots over the cap", set.len());
    assert!(set.len() > AUTO_MAX_SNAPS / 4, "self-tuning should land near the cap, got {}", set.len());
    assert!(set.interval() > AUTO_SITE_CADENCE, "test premise: the cap thinned the set");
    assert_eq!(set.golden(), &substrate::run::<S>(&exec, &cfg, None));
    // Site-spaced snapshots: consecutive snapshots are at least one (final)
    // cadence step apart in site index, even where sites are sparse.
    let k = set.interval();
    for pair in set.snapshots().windows(2) {
        assert!(pair[1].fault_sites - pair[0].fault_sites >= k, "cadence respected");
    }
    // The thinned set still fast-forwards bit-identically.
    let mut scratch = Scratch::new();
    for site in (0..set.golden().head().fault_sites).step_by(1009) {
        let spec = FaultSpec::single(site, 7);
        let scratch_res = substrate::run::<S>(&exec, &cfg, Some(spec));
        let (ff_res, _) = substrate::trial(&exec, &cfg, spec, Some(&set), &mut scratch);
        assert_eq!(ff_res, scratch_res, "site {site}");
        scratch.recycle_output(ff_res.into_output());
    }
}

const HASH: u64 = 0x1234_5678_9ABC_DEF0;

fn round_trip_is_bit_identical<S: Layer>() {
    // The loop carries call-stack state; the store-heavy run rewrites a few
    // blocks of a multi-page array between snapshots, so its page versions
    // share their other blocks.
    let shared: usize = [loop_module(), store_heavy_module(128)].iter().map(round_trips::<S>).sum();
    assert!(shared > 0, "test premise: consecutive snapshots share blocks");
}

/// Round-trips a set of `m` through its file and checks it; returns the
/// blocks consecutive snapshots share.
fn round_trips<S: Layer>(m: &Module) -> usize {
    let p = S::compile(m);
    let exec = S::bind(m, &p);
    let cfg = limits(10_000);
    let set = substrate::capture::<S>(&exec, &cfg, Cadence::Insts(16), None);
    assert!(set.len() > 2);
    let profiled = ExecConfig { profile: true, ..cfg.clone() };
    let with_profile = substrate::capture::<S>(&exec, &profiled, Cadence::Insts(16), None);
    assert!(
        with_profile.to_bytes(HASH) == set.to_bytes(HASH),
        "the golden profile must not reach the file"
    );
    let loaded = SnapshotSet::<S>::decode(&set.to_bytes(HASH), &exec, HASH).unwrap();
    assert_eq!(loaded.golden(), set.golden());
    assert_eq!(loaded.cadence(), set.cadence());
    assert_eq!(loaded.len(), set.len());
    for (a, b) in loaded.snapshots().iter().zip(set.snapshots()) {
        assert_eq!(a.dyn_insts, b.dyn_insts);
        assert_eq!(a.fault_sites, b.fault_sites);
        assert_eq!(a.output_len, b.output_len);
        assert_eq!(format!("{:?}", a.state), format!("{:?}", b.state));
        assert_eq!(a.pages.len(), b.pages.len());
        for (k, v) in &a.pages {
            for (i, (x, y)) in v.iter().zip(b.pages[k].iter()).enumerate() {
                assert_eq!(x.as_deref(), y.as_deref(), "page {k} block {i} differs");
            }
        }
    }
    // Arc sharing survives the round trip: where the original set shares a
    // page version, or a block, between consecutive snapshots, the loaded
    // set does too.
    let mut shared_blocks = 0;
    for (lw, ow) in loaded.snapshots().windows(2).zip(set.snapshots().windows(2)) {
        for (k, ov) in &ow[0].pages {
            let ov2 = &ow[1].pages[k];
            let (lv, lv2) = (&lw[0].pages[k], &lw[1].pages[k]);
            if Arc::ptr_eq(ov, ov2) {
                assert!(Arc::ptr_eq(lv, lv2), "page {k} duplicated on load");
            }
            for (i, (ob, ob2)) in ov.iter().zip(ov2.iter()).enumerate() {
                if let (Some(ob), Some(ob2)) = (ob, ob2) {
                    if Arc::ptr_eq(ob, ob2) {
                        shared_blocks += 1;
                        let (lb, lb2) = (lv[i].as_ref().unwrap(), lv2[i].as_ref().unwrap());
                        assert!(Arc::ptr_eq(lb, lb2), "page {k} block {i} duplicated on load");
                    }
                }
            }
        }
    }
    // Fast-forward from the loaded set is bit-identical at every site.
    let (mut s1, mut s2) = (Scratch::new(), Scratch::new());
    for site in 0..set.golden().head().fault_sites {
        let spec = FaultSpec::single(site, 3);
        let fresh = substrate::trial(&exec, &cfg, spec, Some(&set), &mut s1);
        let reloaded = substrate::trial(&exec, &cfg, spec, Some(&loaded), &mut s2);
        assert_eq!(fresh, reloaded, "site {site}");
    }
    shared_blocks
}

fn identical_rewrites_keep_the_page_version<S: Layer>() {
    // Every iteration stores the value the global already holds: its page
    // is dirty in every snapshot window, yet after the first store no
    // snapshot re-stores it — each keeps its predecessor's page `Arc`.
    let m = module(
        "global int g[4];\n\
         int main() { int i; int s = 0;\n\
           for (i = 0; i < 200; i = i + 1) { g[1] = 7; s = s + g[1]; }\n\
           output(s); return s; }",
    );
    let p = S::compile(&m);
    let exec = S::bind(&m, &p);
    let cfg = limits(100_000);
    let page = (flowery_ir::interp::Memory::layout_globals(&m)[0] / PAGE_SIZE) as u32;
    let set = substrate::capture::<S>(&exec, &cfg, Cadence::Insts(16), None);
    let holding: Vec<_> = set.snapshots().iter().filter_map(|s| s.pages.get(&page)).collect();
    assert!(holding.len() > 8, "test premise: the global's page is in the overlays");
    for pair in holding.windows(2) {
        assert!(Arc::ptr_eq(pair[0], pair[1]), "an identical rewrite must keep the page version");
    }
    let loaded = SnapshotSet::<S>::decode(&set.to_bytes(HASH), &exec, HASH).unwrap();
    let reloaded: Vec<_> = loaded.snapshots().iter().filter_map(|s| s.pages.get(&page)).collect();
    assert!(reloaded.windows(2).all(|pair| Arc::ptr_eq(pair[0], pair[1])), "and so must a decoded set");
    let mut scratch = Scratch::new();
    for site in (0..set.golden().head().fault_sites).step_by(7) {
        let spec = FaultSpec::single(site, 2);
        let (ff_res, _) = substrate::trial(&exec, &cfg, spec, Some(&loaded), &mut scratch);
        assert_eq!(ff_res, substrate::run::<S>(&exec, &cfg, Some(spec)), "site {site}");
    }
}

/// `bytes` with `edit` applied to the body and the trailing checksum redone.
fn resealed(bytes: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let body = out.len() - 8;
    edit(&mut out[..body]);
    let sum = flowery_ir::fnv1a(&out[..body]);
    out[body..].copy_from_slice(&sum.to_le_bytes());
    out
}

/// `bytes` re-stamped as format `version` (the `u32` after the magic).
fn stamped(bytes: &[u8], version: u32) -> Vec<u8> {
    resealed(bytes, |b| b[8..12].copy_from_slice(&version.to_le_bytes()))
}

fn rejects_corruption_and_mismatches<S: Layer>() {
    let m = loop_module();
    let p = S::compile(&m);
    let exec = S::bind(&m, &p);
    let set = substrate::capture::<S>(&exec, &limits(10_000), Cadence::Insts(16), None);
    let bytes = set.to_bytes(HASH);
    let load = |b: &[u8], hash: u64| SnapshotSet::<S>::decode(b, &exec, hash);
    assert!(load(&bytes, HASH).is_ok());

    // Any flipped byte fails the checksum.
    for pos in [0usize, 9, bytes.len() / 2, bytes.len() - 9] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        let err = load(&bad, HASH).unwrap_err();
        assert!(
            err.contains("checksum") || err.contains("magic") || err.contains("version"),
            "pos {pos}: {err}"
        );
    }
    // Truncation is rejected, never a panic: at every length through the
    // envelope and the head, then (each cut re-hashes the file) every 7th.
    for cut in (0..bytes.len().min(4096)).chain((4096..bytes.len()).step_by(7)) {
        assert!(load(&bytes[..cut], HASH).is_err(), "cut {cut}");
    }
    // Wrong content hash.
    let err = load(&bytes, HASH ^ 1).unwrap_err();
    assert!(err.contains("hash"), "{err}");
    // Another format version — the next, version 4 of the builds that
    // stored blocks raw, version 3 of the builds that stored whole pages,
    // version 2 of the builds that kept no site log, and version 1 of the
    // builds that still wrote a first-execution table and per-snapshot
    // profiles — is refused before anything past it is read, even with a
    // valid checksum.
    let err = load(&stamped(&bytes, 6), HASH).unwrap_err();
    assert!(err.contains("version 6"), "{err}");
    for old in [1, 2, 3, 4] {
        let err = load(&stamped(&bytes, old), HASH).unwrap_err();
        assert!(err.contains(&format!("version {old}")) && err.contains("expected 5"), "{err}");
    }
    // The other layer's magic is refused even with a valid checksum.
    let other = if S::MAGIC == b"FLSNAPIR" { b"FLSNAPAS" } else { b"FLSNAPIR" };
    let wrong = resealed(&bytes, |b| b[..8].copy_from_slice(other));
    let err = load(&wrong, HASH).unwrap_err();
    assert!(err.contains("magic"), "{err}");

    // A store holding a version-4 file: the cache refuses it, captures once,
    // overwrites the file, and serves the trials a fresh capture serves.
    let dir = std::env::temp_dir().join(format!("flsuite-v4-{}-{}", S::NAME, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = limits(10_000);
    let fresh = S::cached(&GoldenCache::with_store(SnapshotStore::at(&dir)), &m, &p, &cfg);
    let file = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    let written = std::fs::read(&file).unwrap();
    std::fs::write(&file, stamped(&written, 4)).unwrap();
    let cache = GoldenCache::with_store(SnapshotStore::at(&dir));
    let recaptured = S::cached(&cache, &m, &p, &cfg);
    assert_eq!((cache.stats().snap_loads, cache.stats().snap_captures), (0, 1));
    assert_eq!(std::fs::read(&file).unwrap(), written, "the refused file must be overwritten");
    let (mut s1, mut s2) = (Scratch::new(), Scratch::new());
    for site in 0..fresh.golden().head().fault_sites {
        let spec = FaultSpec::single(site, 11);
        let served = substrate::trial(&exec, &cfg, spec, Some(&*recaptured), &mut s2);
        assert_eq!(served, substrate::trial(&exec, &cfg, spec, Some(&*fresh), &mut s1), "site {site}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regions `exec`'s positions map to.
fn regions<S: Layer>(exec: &S::Exec<'_>) -> usize {
    *S::site_regions(exec).iter().max().unwrap() as usize + 1
}

/// Asserts `a` and `b` give every region the same mass and every
/// `(region, k)` — one past the mass and one region past the last too —
/// the same global index.
fn same_log(a: &SiteLog, b: &SiteLog, regions: usize) {
    for r in 0..=regions {
        assert_eq!(a.mass(r), b.mass(r), "region {r}");
        for k in 0..=a.mass(r) {
            assert_eq!(a.index(r, k), b.index(r, k), "region {r}, k {k}");
        }
    }
}

/// The fields of the SITES tail `log` encodes to: the region count, then
/// per region its run count and, per run, the sites skipped since the
/// region's previous run ended and its length (a run ends where the next
/// region-local index stops being consecutive).
fn sites_tail(log: &SiteLog, regions: usize) -> Vec<u64> {
    let mut fields = vec![regions as u64];
    for r in 0..regions {
        let idx: Vec<u64> = (0..log.mass(r)).map(|k| log.index(r, k).unwrap()).collect();
        let starts: Vec<usize> = (0..idx.len()).filter(|&k| k == 0 || idx[k - 1] + 1 != idx[k]).collect();
        fields.push(starts.len() as u64);
        let mut floor = 0;
        for (j, &k) in starts.iter().enumerate() {
            let len = starts.get(j + 1).unwrap_or(&idx.len()) - k;
            fields.extend([idx[k] - floor, len as u64]);
            floor = idx[k] + len as u64;
        }
    }
    fields
}

fn capture_log_is_the_observation<S: Layer>() {
    // One recorder pass captures and logs: the capture's site log is the
    // observation's — masses and every index — but keeps no trace, which
    // only an observation records, up to its cap.
    let m = loop_module();
    let p = S::compile(&m);
    let exec = S::bind(&m, &p);
    let cfg = limits(10_000);
    let n = regions::<S>(&exec);
    let (golden, observed) = substrate::observe::<S>(&exec, &cfg, usize::MAX);
    let set = substrate::capture::<S>(&exec, &cfg, Cadence::Insts(16), None);
    assert!(set.len() > 2, "expected several snapshots");
    assert_eq!(set.golden(), &golden);
    same_log(set.sites(), &observed, n);
    assert!(set.sites().trace().is_empty(), "a capture keeps no trace");
    assert_eq!(observed.trace().len() as u64, golden.head().fault_sites);
    let (_, capped) = substrate::observe::<S>(&exec, &cfg, 5);
    assert_eq!(capped.trace()[..], observed.trace()[..5]);
    same_log(&capped, &observed, n);

    // A stored set round-trips masses and indices, and no trace.
    let loaded = SnapshotSet::<S>::decode(&set.to_bytes(HASH), &exec, HASH).unwrap();
    same_log(loaded.sites(), &observed, n);
    assert!(loaded.sites().trace().is_empty());
}

fn site_log_tail_never_decodes_to_a_panic<S: Layer>() {
    // Every field of the SITES tail, re-sealed with a valid checksum and
    // set to a hostile value, is refused or decodes to a log whose every
    // index lies inside the run — `SiteLog::index` never panics.
    let m = loop_module();
    let p = S::compile(&m);
    let exec = S::bind(&m, &p);
    let set = substrate::capture::<S>(&exec, &limits(10_000), Cadence::Insts(16), None);
    let (n, sites) = (regions::<S>(&exec), set.golden().head().fault_sites);
    let bytes = set.to_bytes(HASH);
    let fields = sites_tail(set.sites(), n);
    let coded = |fields: &[u64]| {
        let mut w = Vec::new();
        fields.iter().for_each(|&v| w_leb(&mut w, v));
        w
    };
    let tail = bytes.len() - 8 - coded(&fields).len();
    assert!(bytes[tail..bytes.len() - 8] == coded(&fields), "the file ends with the SITES tail");
    let mut refused = 0;
    for field in 0..fields.len() {
        let was = fields[field];
        for v in [0, 1, was.wrapping_sub(1), was + 1, sites, u64::MAX] {
            let mut hostile = fields.clone();
            hostile[field] = v;
            let mut bad = [&bytes[..tail], &coded(&hostile)].concat();
            bad.extend_from_slice(&flowery_ir::fnv1a(&bad).to_le_bytes());
            let Ok(loaded) = SnapshotSet::<S>::decode(&bad, &exec, HASH) else {
                refused += 1;
                continue;
            };
            for r in 0..=n {
                for k in 0..=loaded.sites().mass(r).min(sites) {
                    assert!(loaded.sites().index(r, k).is_none_or(|i| i < sites), "field {field} = {v}");
                }
            }
        }
    }
    assert!(refused > 0, "hostile tails must be refused");
    // A cut inside the tail, or a run dropped from it, is refused too.
    let cut = bytes.len() - (bytes.len() - tail) / 2;
    assert!(SnapshotSet::<S>::decode(&resealed(&bytes[..cut], |_| ()), &exec, HASH).is_err());
}

fn region_sites_index_the_golden_stream<S: Layer>() {
    // A region's k-th site is an ordinary global site: for every region
    // and every k below its mass, a fault at `index(region, k)` lands
    // inside that region.
    let m = loop_module();
    let p = S::compile(&m);
    let exec = S::bind(&m, &p);
    let cfg = limits(10_000);
    let profiled = ExecConfig { profile: true, ..cfg.clone() };
    let (golden, sites) = substrate::observe::<S>(&exec, &profiled, usize::MAX);
    assert_eq!(golden, substrate::run::<S>(&exec, &profiled, None), "observing must not perturb the run");
    let region_of = S::site_regions(&exec);
    let regions = *region_of.iter().max().unwrap() as usize + 1;
    let masses: Vec<u64> = (0..regions).map(|r| sites.mass(r)).collect();
    assert_eq!(masses.iter().sum::<u64>(), golden.head().fault_sites, "masses partition the site stream");
    assert_eq!(masses, S::profile_masses(&m, &p, &golden), "log masses equal the profile's");
    assert!(masses.iter().filter(|&&mass| mass > 0).count() >= 2, "both functions execute sites");

    let trace = sites.trace();
    assert_eq!(trace.len() as u64, golden.head().fault_sites);
    for (region, &mass) in masses.iter().enumerate() {
        let mut previous = None;
        for k in 0..mass {
            let site = sites.index(region, k).expect("k is below the mass");
            assert!(previous < Some(site), "region {region}: indices must increase with k");
            previous = Some(site);
            assert_eq!(region_of[trace[site as usize] as usize] as usize, region);
            let faulty = substrate::run::<S>(&exec, &cfg, Some(FaultSpec::single(site, 0)));
            let landed = S::landed(&faulty).map(|pos| region_of[pos as usize] as usize);
            assert_eq!(landed, Some(region), "region {region}, k {k}: site {site}");
        }
        assert_eq!(sites.index(region, mass), None, "region {region}: the mass is the bound");
    }
    // Without a trace cap nothing but the run-length map is kept.
    assert!(substrate::observe::<S>(&exec, &cfg, 0).1.trace().is_empty());
}

macro_rules! suite {
    ($layer:ident, $S:ty, [$($test:ident),* $(,)?]) => {
        mod $layer {
            $(
                #[test]
                fn $test() {
                    super::$test::<$S>();
                }
            )*
        }
    };
}

macro_rules! both_layers {
    ($($test:ident),* $(,)?) => {
        suite!(ir, flowery_ir::interp::IrLayer, [$($test),*]);
        suite!(asm, flowery_backend::AsmLayer, [$($test),*]);
    };
}

both_layers![
    fast_forward_is_bit_identical,
    capture_golden_matches_plain_run,
    profiled_fast_forward_matches_scratch,
    profiled_trials_restore_nothing,
    auto_capture_is_site_spaced_and_capped,
    round_trip_is_bit_identical,
    identical_rewrites_keep_the_page_version,
    rejects_corruption_and_mismatches,
    capture_log_is_the_observation,
    site_log_tail_never_decodes_to_a_panic,
    region_sites_index_the_golden_stream,
];
