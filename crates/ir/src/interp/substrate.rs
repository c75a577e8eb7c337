//! One injection substrate for both layers.
//!
//! The paper's result is a *difference* between the same experiment run at
//! two layers, so the two injectors must share everything except the layer
//! itself. A layer implements [`Substrate`] on a marker type — what its
//! executor is, what architectural state a snapshot of it holds, how a run
//! starts and continues, and how that state is written to a file — and gets
//! the rest from here and from [`snapshot`](super::snapshot) /
//! [`snapio`](super::snapio), written once and monomorphised: snapshot
//! capture on a cadence widened at a count cap, scratch-image recycling,
//! restore + fast-forward, the file codec, and (in the crates above) the
//! trial runner, the campaign loop, the golden cache and the snapshot store.
//!
//! Only a running trial holds a dense memory image (one per [`Scratch`],
//! recycled): snapshot sets and scratch runners keep the pristine base as a
//! compact [`BaseImage`], the globals' pages and the geometry.

use crate::interp::memory::{BaseImage, Memory, PageMap};
use crate::interp::snapio::Cursor;
use crate::interp::snapshot::{Cadence, Recorder, SiteLog, SnapshotSet, AUTO_MAX_SNAPS, AUTO_SITE_CADENCE};
use crate::interp::{ExecConfig, ExecMode, ExecStatus, FaultSpec};
use crate::module::Module;
use std::fmt::Debug;
use std::sync::Arc;

/// The layer-independent part of a run's result.
pub struct RunHead<'a> {
    pub status: ExecStatus,
    pub output: &'a [u8],
    pub dyn_insts: u64,
    pub fault_sites: u64,
}

/// What the shared machinery needs to read from a layer's result type.
pub trait RunResult: Clone + Debug + PartialEq {
    fn head(&self) -> RunHead<'_>;

    /// The output buffer, for recycling.
    fn into_output(self) -> Vec<u8>;
}

/// An injection layer. Implemented on a marker type
/// ([`IrLayer`](super::IrLayer) here, `AsmLayer` in `flowery-backend`); the
/// associated types are the only things that genuinely differ per layer.
pub trait Substrate: Sized + Debug + 'static {
    /// Magic of this layer's snapshot files.
    const MAGIC: &'static [u8; 8];
    /// Short layer name: snapshot-store file prefix and error messages.
    const NAME: &'static str;

    /// The layer's executor, bound to one program.
    type Exec<'a>;
    /// Architectural state a snapshot holds besides the counters and the
    /// memory overlay.
    type State: Clone + Debug;
    /// Result of one run.
    type Golden: RunResult;
    /// Per-worker recycled buffers beyond the memory image and the output
    /// vector.
    type Pool: Default;

    fn module<'a>(exec: &'a Self::Exec<'_>) -> &'a Module;

    /// The engine that executes a trial under `config`.
    fn engine(config: &ExecConfig) -> ExecMode;

    /// The region (function) of each code position the engine reports to
    /// [`Recorder::note_site`] — IR: a function index, which is its own
    /// region; assembly: a program index, mapped to its `AsmFunc` (one past
    /// the last for positions outside every body).
    fn site_regions(exec: &Self::Exec<'_>) -> Vec<u32>;

    /// The state a run starts from: a copy of a snapshot's, or — with
    /// `from == None` — program start on the pristine image `mem` (which
    /// boot may write to, e.g. a sentinel return address).
    fn start(exec: &Self::Exec<'_>, from: Option<&Self::State>, mem: &mut Memory, pool: &mut Self::Pool)
        -> Self::State;

    /// Execute from `start` to completion, optionally injecting `fault`
    /// and capturing snapshots into `recorder`. Returns the result plus the
    /// memory image so the caller can recycle it.
    fn run_suffix(
        exec: &Self::Exec<'_>,
        config: &ExecConfig,
        fault: Option<FaultSpec>,
        start: Start<Self>,
        recorder: Option<&mut Recorder<Self>>,
        pool: &mut Self::Pool,
    ) -> (Self::Golden, Memory);

    /// Set-level file payload: the golden result.
    fn encode_head(w: &mut Vec<u8>, golden: &Self::Golden);
    fn decode_head(c: &mut Cursor) -> Result<Self::Golden, String>;

    /// Per-snapshot file payload: the state, coded against `prev`, the
    /// previous snapshot's state (`None` for the first), which the decoder
    /// already holds when it reaches it.
    fn encode_snap(w: &mut Vec<u8>, state: &Self::State, prev: Option<&Self::State>);
    fn decode_snap(c: &mut Cursor, exec: &Self::Exec<'_>, prev: Option<&Self::State>) -> Result<Self::State, String>;
}

/// A substrate whose executor binds a module plus one compiled artifact.
/// Inherent impls must live in the crate that defines the type, so the
/// four-argument `SnapshotSet::from_bytes(bytes, module, program, hash)` of
/// a layer defined downstream is written here, against this trait.
pub trait Linked: Substrate {
    type Program;

    fn bind<'a>(module: &'a Module, program: &'a Self::Program) -> Self::Exec<'a>;
}

/// Everything mutable a run starts from — either fresh program state or a
/// restored snapshot. All counters are absolute, which is what makes
/// restored runs bit-identical to scratch runs.
pub struct Start<S: Substrate> {
    pub mem: Memory,
    pub output: Vec<u8>,
    pub dyn_insts: u64,
    pub fault_sites: u64,
    pub state: S::State,
}

impl<S: Substrate> Start<S> {
    /// Program start on the pristine image `mem`.
    pub fn boot(exec: &S::Exec<'_>, mut mem: Memory, output: Vec<u8>, pool: &mut S::Pool) -> Start<S> {
        let state = S::start(exec, None, &mut mem, pool);
        Start { mem, output, dyn_insts: 0, fault_sites: 0, state }
    }
}

/// Per-worker reusable buffers for trial execution: the scratch memory
/// image (reset via dirty-page reverts, never reallocated) — the one dense
/// image a running trial holds — the compact pristine base it reverts to
/// when no snapshot set supplies one, the output buffer, and the layer's
/// own pool.
pub struct Scratch<S: Substrate> {
    base: Option<BaseImage>,
    mem: Option<Memory>,
    output: Vec<u8>,
    pool: S::Pool,
}

impl<S: Substrate> Default for Scratch<S> {
    fn default() -> Scratch<S> {
        Scratch {
            base: None,
            mem: None,
            output: Vec::new(),
            pool: S::Pool::default(),
        }
    }
}

impl<S: Substrate> Scratch<S> {
    pub fn new() -> Scratch<S> {
        Scratch::default()
    }

    /// Hand a trial's output buffer back for reuse once it has been
    /// classified (the result no longer needs it).
    pub fn recycle_output(&mut self, mut output: Vec<u8>) {
        output.clear();
        self.output = output;
    }
}

/// Execute `main` to completion under `config` on a fresh memory image,
/// optionally injecting a fault.
pub fn run<S: Substrate>(exec: &S::Exec<'_>, config: &ExecConfig, fault: Option<FaultSpec>) -> S::Golden {
    let mut pool = S::Pool::default();
    let mem = pristine::<S>(exec, config).image();
    let start = Start::boot(exec, mem, Vec::new(), &mut pool);
    S::run_suffix(exec, config, fault, start, None, &mut pool).0
}

/// The site log of one fault-free run (see [`capture`]), which captures no
/// snapshot; honors `config.profile`, so the same pass can be the profiled
/// run.
pub fn observe<S: Substrate>(exec: &S::Exec<'_>, config: &ExecConfig, trace_cap: usize) -> (S::Golden, Arc<SiteLog>) {
    let set = record::<S>(exec, config, Cadence::Insts(u64::MAX), None, trace_cap);
    (set.golden, set.sites)
}

/// Run one faulty trial on `scratch`'s recycled buffers. With a snapshot
/// `set` and profiling off, the nearest snapshot at-or-before the injection
/// site is restored instead of executing the golden prefix; returns the
/// result plus the number of dynamic instructions so skipped. Either way
/// the result is bit-identical to `run(exec, config, Some(fault))`.
///
/// The memory image is made once, from the compact base (the set's, or one
/// built once per scratch), and never reallocated: every page the previous
/// trial dirtied is reverted to the base, then the snapshot's overlay is
/// applied. Sound because a page never marked dirty is byte-identical to
/// the base image.
pub fn trial<S: Substrate>(
    exec: &S::Exec<'_>,
    config: &ExecConfig,
    fault: FaultSpec,
    set: Option<&SnapshotSet<S>>,
    scratch: &mut Scratch<S>,
) -> (S::Golden, u64) {
    let fits = |b: &BaseImage| b.has_geometry(config.mem_size, config.stack_size);
    if set.is_none() && !scratch.base.as_ref().is_some_and(fits) {
        scratch.base = Some(pristine::<S>(exec, config));
    }
    let base = set.map_or_else(|| scratch.base.as_ref().expect("built above"), |set| &set.base);
    let mut mem = scratch
        .mem
        .take()
        .filter(|m| m.size() == base.size && m.stack_limit() == base.stack_limit)
        .unwrap_or_else(|| base.image());
    let mut output = std::mem::take(&mut scratch.output);
    output.clear();
    // A snapshot holds no profile accumulator, so a profiled trial (and one
    // whose site precedes the first snapshot) runs from the start, still on
    // the recycled image.
    let snap = set.filter(|_| !config.profile).and_then(|set| set.nearest(fault.site_index));
    mem.reset_to(base, snap.map_or(&PageMap::new(), |snap| &snap.pages));
    if let Some((snap, set)) = snap.zip(set) {
        output.extend_from_slice(&set.golden.head().output[..snap.output_len]);
    }
    let state = S::start(exec, snap.map(|snap| &snap.state), &mut mem, &mut scratch.pool);
    let (dyn_insts, fault_sites) = snap.map_or((0, 0), |snap| (snap.dyn_insts, snap.fault_sites));
    let start = Start { mem, output, dyn_insts, fault_sites, state };
    let (res, mem) = S::run_suffix(exec, config, Some(fault), start, None, &mut scratch.pool);
    scratch.mem = Some(mem);
    (res, dyn_insts)
}

/// One fault-free run that captures a snapshot on `cadence` and logs the
/// golden order of fault sites by region (see [`SiteLog`]), keeping no
/// per-site trace. Honors `config.profile` for the golden result only.
/// `max_snaps` caps the set by widening the cadence (`None` keeps
/// `cadence` exact).
pub fn capture<S: Substrate>(
    exec: &S::Exec<'_>,
    config: &ExecConfig,
    cadence: Cadence,
    max_snaps: Option<usize>,
) -> SnapshotSet<S> {
    record(exec, config, cadence, max_snaps, 0)
}

/// [`capture`], keeping the per-site trace up to `trace_cap` entries.
fn record<S: Substrate>(
    exec: &S::Exec<'_>,
    config: &ExecConfig,
    cadence: Cadence,
    max_snaps: Option<usize>,
    trace_cap: usize,
) -> SnapshotSet<S> {
    let base = pristine::<S>(exec, config);
    let mut pool = S::Pool::default();
    let start = Start::boot(exec, base.image(), Vec::new(), &mut pool);
    let log = SiteLog::new(S::site_regions(exec), trace_cap);
    let mut rec = Recorder::new(base, cadence, max_snaps, log);
    let (golden, _mem) = S::run_suffix(exec, config, None, start, Some(&mut rec), &mut pool);
    rec.finish(golden)
}

/// The compact pristine image of `exec`'s program under `config`'s geometry.
fn pristine<S: Substrate>(exec: &S::Exec<'_>, config: &ExecConfig) -> BaseImage {
    BaseImage::new(S::module(exec), config.mem_size, config.stack_size).unwrap_or_else(|e| panic!("{e}"))
}

/// Self-tuning capture for a unit that runs `trials` trials: a snapshot
/// every [`AUTO_SITE_CADENCE`] fault sites, the cadence doubling whenever
/// the set would exceed `min(AUTO_MAX_SNAPS, trials)`. A trial restores at
/// most one snapshot, so a larger set keeps snapshots no trial of the unit
/// will use; `u64::MAX` trials caps it at [`AUTO_MAX_SNAPS`].
pub fn capture_for<S: Substrate>(exec: &S::Exec<'_>, config: &ExecConfig, trials: u64) -> SnapshotSet<S> {
    let cap = usize::try_from(trials).map_or(AUTO_MAX_SNAPS, |t| t.clamp(1, AUTO_MAX_SNAPS));
    capture(exec, config, Cadence::Sites(AUTO_SITE_CADENCE), Some(cap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::inst::BinOp;
    use crate::interp::{Interpreter, IrLayer, IrScratch, PAGE_SIZE};
    use crate::types::Type;
    use crate::value::Op;

    #[test]
    fn scratch_trials_recycle_one_memory_image() {
        // Snapshots off: a runner's trials must revert one image by dirty
        // pages against a once-built base, not allocate an image per trial.
        // The initialised global gives the base a heap-allocated prefix, so
        // a rebuilt base would show as a new prefix pointer.
        let mut mb = ModuleBuilder::new("m");
        mb.global_i64("g", &[1]);
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let slot = fb.alloca(Type::I64, 1);
        let v = fb.bin(BinOp::Add, Type::I64, Op::ci64(40), Op::ci64(2));
        fb.store(Type::I64, Op::inst(v), Op::inst(slot));
        let r = fb.load(Type::I64, Op::inst(slot));
        fb.output_i64(Op::inst(r));
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig::default();

        let mut scratch = IrScratch::new();
        let image =
            |s: &IrScratch| (s.base.as_ref().unwrap().prefix.as_ptr(), s.mem.as_ref().unwrap().page_slice(0).as_ptr());
        // The first trial corrupts the stored value; the second must not see it.
        let first = trial::<IrLayer>(&interp, &cfg, FaultSpec::single(0, 3), None, &mut scratch).0;
        assert!(!scratch.base.as_ref().unwrap().prefix.is_empty(), "test premise: the base owns a prefix");
        let allocation = image(&scratch);
        let second = trial::<IrLayer>(&interp, &cfg, FaultSpec::single(1, 0), None, &mut scratch).0;
        assert_eq!(
            image(&scratch),
            allocation,
            "the second trial must reuse the first trial's base and image"
        );
        assert_eq!(first, interp.run(&cfg, Some(FaultSpec::single(0, 3))));
        assert_eq!(second, interp.run(&cfg, Some(FaultSpec::single(1, 0))));
        assert_ne!(first.output, second.output, "test premise: the trials differ");

        // A different geometry rebuilds the base instead of reverting to a wrong one.
        let small = ExecConfig { mem_size: 2 << 20, ..cfg.clone() };
        let third = trial::<IrLayer>(&interp, &small, FaultSpec::single(0, 3), None, &mut scratch).0;
        assert_eq!(scratch.mem.as_ref().unwrap().size(), small.mem_size);
        assert_eq!(third, interp.run(&small, Some(FaultSpec::single(0, 3))));
    }

    #[test]
    fn sets_hold_the_globals_pages_whatever_the_memory_size() {
        // `main` sums an initialised global into a zeroed one and prints it.
        let mut mb = ModuleBuilder::new("m");
        let init = mb.global_i64("init", &[40, 2]);
        let sum = mb.global_zeroed("sum", Type::I64, 1024);
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let second = fb.gep(Op::Global(init), Op::ci64(1), Type::I64);
        let a = fb.load(Type::I64, Op::Global(init));
        let b = fb.load(Type::I64, Op::inst(second));
        let v = fb.bin(BinOp::Add, Type::I64, Op::inst(a), Op::inst(b));
        fb.store(Type::I64, Op::inst(v), Op::Global(sum));
        let r = fb.load(Type::I64, Op::Global(sum));
        fb.output_i64(Op::inst(r));
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let interp = Interpreter::new(&m);
        let small = ExecConfig::default();
        let large = ExecConfig { mem_size: 256 << 20, ..small.clone() };

        let (a, b) = (interp.capture_snapshots(&small, 2), interp.capture_snapshots(&large, 2));
        assert_eq!(a.base.prefix, b.base.prefix, "the base is the globals, not the geometry");
        assert_eq!(a.base.prefix.len() as u64, PAGE_SIZE * 2, "the guard page and the one globals page");
        assert!(a.matches_geometry(small.mem_size, small.stack_size));
        assert!(
            b.matches_geometry(large.mem_size, large.stack_size)
                && !b.matches_geometry(small.mem_size, small.stack_size)
        );
        assert_eq!(a.golden().output, b.golden().output);
        assert!(!a.is_empty(), "test premise: the set holds snapshots");
        let fault = FaultSpec::single(b.golden().fault_sites - 1, 2);
        let restored = trial::<IrLayer>(&interp, &large, fault, Some(&b), &mut IrScratch::new());
        assert!(restored.1 > 0, "test premise: the trial fast-forwards");
        assert_eq!(restored.0, interp.run(&large, Some(fault)));
    }
}
