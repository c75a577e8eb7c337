//! One injection substrate for both layers.
//!
//! The paper's result is a *difference* between the same experiment run at
//! two layers, so the two injectors must share everything except the layer
//! itself. A layer implements [`Substrate`] on a marker type — what its
//! executor is, what architectural state a snapshot of it holds, how a run
//! starts and continues, and how that state is written to a file — and gets
//! the rest from here and from [`snapshot`](super::snapshot) /
//! [`snapio`](super::snapio), written once and monomorphised: snapshot
//! capture on a cadence with budget widening, scratch-image recycling,
//! restore + fast-forward, the file codec, and (in the crates above) the
//! trial runner, the campaign loop, the golden cache and the snapshot store.

use crate::interp::memory::{Memory, PageMap};
use crate::interp::snapio::Cursor;
use crate::interp::snapshot::{Cadence, Recorder, SiteLog, Snapshot, SnapshotSet, AUTO_MAX_SNAPS, AUTO_SITE_CADENCE};
use crate::interp::{ExecConfig, ExecMode, ExecStatus, FaultSpec};
use crate::module::Module;
use std::fmt::Debug;

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

    /// Set-level file payload: the golden result. The decoder validates
    /// every shape against `exec`'s program.
    fn encode_head(w: &mut Vec<u8>, golden: &Self::Golden);
    fn decode_head(c: &mut Cursor, exec: &Self::Exec<'_>) -> Result<Self::Golden, String>;

    /// Per-snapshot file payload: the state and the output length (its
    /// place in the byte order is the layer's).
    fn encode_snap(w: &mut Vec<u8>, state: &Self::State, output_len: usize);
    fn decode_snap(c: &mut Cursor, exec: &Self::Exec<'_>) -> Result<(Self::State, usize), String>;
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

    /// Resume at `snap` on `mem`, which already holds its overlay, with
    /// `output` holding the golden output up to that point.
    fn resume(
        exec: &S::Exec<'_>,
        snap: &Snapshot<S>,
        mut mem: Memory,
        output: Vec<u8>,
        pool: &mut S::Pool,
    ) -> Start<S> {
        Start {
            state: S::start(exec, Some(&snap.state), &mut mem, pool),
            mem,
            output,
            dyn_insts: snap.dyn_insts,
            fault_sites: snap.fault_sites,
        }
    }
}

/// Per-worker reusable buffers for trial execution: the scratch memory
/// image (reset via dirty-page reverts, never reallocated), the pristine
/// base it reverts to when no snapshot set supplies one, the output buffer,
/// and the layer's own pool.
pub struct Scratch<S: Substrate> {
    base: Option<Memory>,
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
    let mem = Memory::new(S::module(exec), config.mem_size, config.stack_size);
    let start = Start::boot(exec, mem, Vec::new(), &mut pool);
    S::run_suffix(exec, config, fault, start, None, &mut pool).0
}

/// One fault-free run that logs the golden order of fault sites by region
/// (see [`SiteLog`]), keeping the per-site trace up to `trace_cap` entries.
/// Honors `config.profile`, so the same pass can be the profiled run.
pub fn observe<S: Substrate>(exec: &S::Exec<'_>, config: &ExecConfig, trace_cap: usize) -> (S::Golden, SiteLog) {
    let mut pool = S::Pool::default();
    let mem = Memory::new(S::module(exec), config.mem_size, config.stack_size);
    let mut rec = Recorder::observer(SiteLog::new(S::site_regions(exec), trace_cap));
    let start = Start::boot(exec, mem, Vec::new(), &mut pool);
    let (golden, _mem) = S::run_suffix(exec, config, None, start, Some(&mut rec), &mut pool);
    let mut log = rec.sites.expect("an observer keeps its log");
    log.close(golden.head().fault_sites);
    (golden, log)
}

/// Run one faulty trial on `scratch`'s recycled buffers. With a snapshot
/// `set` and profiling off, the nearest snapshot at-or-before the injection
/// site is restored instead of executing the golden prefix; returns the
/// result plus the number of dynamic instructions so skipped. Either way
/// the result is bit-identical to `run(exec, config, Some(fault))`.
///
/// The memory image is never reallocated: every page the previous trial
/// dirtied is reverted to the pristine base (the set's, or one built once
/// per scratch), then the snapshot's overlay is applied. Sound because a
/// page never marked dirty is byte-identical to the base image.
pub fn trial<S: Substrate>(
    exec: &S::Exec<'_>,
    config: &ExecConfig,
    fault: FaultSpec,
    set: Option<&SnapshotSet<S>>,
    scratch: &mut Scratch<S>,
) -> (S::Golden, u64) {
    let own_base = set.is_none().then(|| {
        let built = scratch
            .base
            .take()
            .filter(|b| b.has_geometry(config.mem_size, config.stack_size));
        built.unwrap_or_else(|| Memory::new(S::module(exec), config.mem_size, config.stack_size))
    });
    let base = set.map_or_else(|| own_base.as_ref().expect("built above"), |set| &set.base);
    let mut mem = scratch
        .mem
        .take()
        .filter(|m| m.size() == base.size() && m.stack_limit() == base.stack_limit())
        .unwrap_or_else(|| base.clone());
    let mut output = std::mem::take(&mut scratch.output);
    output.clear();
    // A snapshot holds no profile accumulator, so a profiled trial (and one
    // whose site precedes the first snapshot) runs from the start, still on
    // the recycled image.
    let snap = set
        .filter(|_| !config.profile)
        .and_then(|set| Some((set.nearest(fault.site_index)?, set.golden.head().output)));
    let start = match snap {
        Some((snap, golden_output)) => {
            mem.reset_to(base, &snap.pages);
            output.extend_from_slice(&golden_output[..snap.output_len]);
            Start::resume(exec, snap, mem, output, &mut scratch.pool)
        }
        None => {
            mem.reset_to(base, &PageMap::new());
            Start::boot(exec, mem, output, &mut scratch.pool)
        }
    };
    let skipped = start.dyn_insts;
    let (res, mem) = S::run_suffix(exec, config, Some(fault), start, None, &mut scratch.pool);
    scratch.mem = Some(mem);
    if own_base.is_some() {
        scratch.base = own_base;
    }
    (res, skipped)
}

/// One fault-free run that captures a snapshot on `cadence`. Honors
/// `config.profile` for the golden result only. `max_snaps` caps the set by
/// widening the cadence (`None` keeps `cadence` exact, budget permitting).
pub fn capture<S: Substrate>(
    exec: &S::Exec<'_>,
    config: &ExecConfig,
    cadence: Cadence,
    max_snaps: Option<usize>,
) -> SnapshotSet<S> {
    let base = Memory::new(S::module(exec), config.mem_size, config.stack_size);
    let mut pool = S::Pool::default();
    let mut rec = Recorder::new(cadence, config.snapshot_budget, max_snaps);
    let start = Start::boot(exec, base.clone(), Vec::new(), &mut pool);
    let (golden, _mem) = S::run_suffix(exec, config, None, start, Some(&mut rec), &mut pool);
    rec.finish(base, golden)
}

/// Self-tuning capture: a snapshot every [`AUTO_SITE_CADENCE`] fault sites,
/// the cadence doubling whenever the set would exceed [`AUTO_MAX_SNAPS`].
pub fn capture_auto<S: Substrate>(exec: &S::Exec<'_>, config: &ExecConfig) -> SnapshotSet<S> {
    capture(exec, config, Cadence::Sites(AUTO_SITE_CADENCE), Some(AUTO_MAX_SNAPS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::inst::BinOp;
    use crate::interp::{Interpreter, IrLayer, IrScratch};
    use crate::types::Type;
    use crate::value::Op;

    #[test]
    fn scratch_trials_recycle_one_memory_image() {
        // Snapshots off: a runner's trials must revert one image by dirty
        // pages against a once-built base, not allocate an image per trial.
        let mut mb = ModuleBuilder::new("m");
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
        let image = |s: &IrScratch| {
            (
                s.base.as_ref().unwrap().page_slice(0).as_ptr(),
                s.mem.as_ref().unwrap().page_slice(0).as_ptr(),
            )
        };
        // The first trial corrupts the stored value; the second must not see it.
        let first = trial::<IrLayer>(&interp, &cfg, FaultSpec::single(0, 3), None, &mut scratch).0;
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
}
