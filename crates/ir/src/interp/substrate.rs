//! One injection substrate for both layers.
//!
//! The paper's result is a *difference* between the same experiment run at
//! two layers, so the two injectors must share everything except the layer
//! itself. A layer implements [`Substrate`] on a marker type — what its
//! executor is, what architectural state a snapshot of it holds, how a run
//! starts and continues, and how that state is written to a file — and gets
//! the rest from here and from [`snapshot`](super::snapshot) /
//! [`snapio`](super::snapio), written once and monomorphised: snapshot
//! capture on a cadence with budget widening, shared-prefix capture off a
//! raw variant's set, scratch-image recycling, restore + fast-forward, the
//! file codec, and (in the crates above) the trial runner, the campaign
//! loop, the golden cache and the snapshot store.

use crate::interp::memory::{Memory, PageMap, PAGE_SIZE};
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
    /// Per-static-instruction execution counts, in the layer's shape.
    type Profile: Clone + Debug + PartialEq;

    fn head(&self) -> RunHead<'_>;

    /// The output buffer (for recycling) and the profile, when one was
    /// collected.
    fn into_parts(self) -> (Vec<u8>, Option<Self::Profile>);
}

/// The profile shape of substrate `S`.
pub type ProfileOf<S> = <<S as Substrate>::Golden as RunResult>::Profile;

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
    /// Architectural state a snapshot holds besides the counters, the
    /// profile accumulator and the memory overlay.
    type State: Clone + Debug;
    /// Result of one run.
    type Golden: RunResult;
    /// First-execution table of a fresh capture run: `dyn_insts` at which
    /// each code position first executed, `u64::MAX` = never.
    type FirstExec: Debug + PartialEq;
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

    /// An all-`u64::MAX` first-execution table for `exec`'s program.
    fn first_exec_table(exec: &Self::Exec<'_>) -> Self::FirstExec;

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

    /// First dynamic instruction (snapshot-hook convention: not yet
    /// started) at which `exec`'s golden trace can diverge from `raw`'s,
    /// given `raw`'s first-execution table. `u64::MAX` = never on the raw
    /// trace; `None` = the two programs are too different to share a prefix
    /// (the caller has already checked that `exec`'s globals extend `raw`'s).
    fn divergence(exec: &Self::Exec<'_>, raw: &Self::Exec<'_>, first_exec: &Self::FirstExec) -> Option<u64>;

    /// Re-shape a raw-variant snapshot state taken below the divergence
    /// point for `exec`'s program; `None` if it has no counterpart there.
    fn translate(exec: &Self::Exec<'_>, state: &Self::State) -> Option<Self::State>;

    /// Set-level file payload: the golden result and the first-execution
    /// table. The decoder validates every shape against `exec`'s program.
    fn encode_head(w: &mut Vec<u8>, golden: &Self::Golden, first_exec: Option<&Self::FirstExec>);
    #[allow(clippy::type_complexity)]
    fn decode_head(c: &mut Cursor, exec: &Self::Exec<'_>) -> Result<(Self::Golden, Option<Self::FirstExec>), String>;

    /// Per-snapshot file payload: the state, the output length (its place
    /// in the byte order is the layer's) and the profile accumulator.
    fn encode_snap(w: &mut Vec<u8>, state: &Self::State, output_len: usize, profile: Option<&ProfileOf<Self>>);
    #[allow(clippy::type_complexity)]
    fn decode_snap(
        c: &mut Cursor,
        exec: &Self::Exec<'_>,
    ) -> Result<(Self::State, usize, Option<ProfileOf<Self>>), String>;
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
    /// Profile accumulator restored from a snapshot (`None` starts fresh).
    pub profile: Option<ProfileOf<S>>,
}

impl<S: Substrate> Start<S> {
    /// Program start on the pristine image `mem`.
    pub fn boot(exec: &S::Exec<'_>, mut mem: Memory, output: Vec<u8>, pool: &mut S::Pool) -> Start<S> {
        let state = S::start(exec, None, &mut mem, pool);
        Start {
            mem,
            output,
            dyn_insts: 0,
            fault_sites: 0,
            state,
            profile: None,
        }
    }

    /// Resume at `snap` on `mem`, which already holds its overlay, with
    /// `output` holding the golden output up to that point.
    fn resume(
        exec: &S::Exec<'_>,
        snap: &Snapshot<S>,
        mut mem: Memory,
        output: Vec<u8>,
        profiled: bool,
        pool: &mut S::Pool,
    ) -> Start<S> {
        Start {
            state: S::start(exec, Some(&snap.state), &mut mem, pool),
            mem,
            output,
            dyn_insts: snap.dyn_insts,
            fault_sites: snap.fault_sites,
            profile: if profiled { snap.profile.clone() } else { None },
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
/// `set`, the nearest snapshot at-or-before the injection site is restored
/// instead of executing the golden prefix; returns the result plus the
/// number of dynamic instructions so skipped. Either way the result is
/// bit-identical to `run(exec, config, Some(fault))`.
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
    // A profiled trial can only restore a snapshot that carries the profile
    // accumulator; otherwise (and for sites earlier than the first
    // snapshot) it runs from the start, still on the recycled image.
    let snap = set.and_then(|set| {
        let snap = set.nearest(fault.site_index)?;
        (!config.profile || snap.profile.is_some()).then_some((snap, set.golden.head().output))
    });
    let start = match snap {
        Some((snap, golden_output)) => {
            mem.reset_to(base, &snap.pages);
            output.extend_from_slice(&golden_output[..snap.output_len]);
            Start::resume(exec, snap, mem, output, config.profile, &mut scratch.pool)
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
/// `config.profile`: each snapshot then carries the profile accumulator at
/// that point, so profiled campaigns fast-forward too. `max_snaps` caps the
/// set by widening the cadence (`None` keeps `cadence` exact, budget
/// permitting).
pub fn capture<S: Substrate>(
    exec: &S::Exec<'_>,
    config: &ExecConfig,
    cadence: Cadence,
    max_snaps: Option<usize>,
) -> SnapshotSet<S> {
    let base = Memory::new(S::module(exec), config.mem_size, config.stack_size);
    let mut pool = S::Pool::default();
    let first_exec = Some(S::first_exec_table(exec));
    let mut rec = Recorder::new(cadence, config.snapshot_budget, max_snaps, first_exec, Vec::new());
    let start = Start::boot(exec, base.clone(), Vec::new(), &mut pool);
    let (golden, _mem) = S::run_suffix(exec, config, None, start, Some(&mut rec), &mut pool);
    rec.finish(base, golden)
}

/// Self-tuning capture: a snapshot every [`AUTO_SITE_CADENCE`] fault sites,
/// the cadence doubling whenever the set would exceed [`AUTO_MAX_SNAPS`].
pub fn capture_auto<S: Substrate>(exec: &S::Exec<'_>, config: &ExecConfig) -> SnapshotSet<S> {
    capture(exec, config, Cadence::Sites(AUTO_SITE_CADENCE), Some(AUTO_MAX_SNAPS))
}

/// Build a hardened variant's snapshot set by *sharing* the golden prefix
/// of `raw_set`, a fresh capture of the raw program it was derived from.
/// Every raw snapshot taken before the two golden traces can diverge
/// ([`Substrate::divergence`]) is also a valid snapshot of the variant
/// (pages `Arc`-shared, state re-shaped by [`Substrate::translate`]), and
/// one suffix-only run *from the last of them* produces the variant's
/// golden result and its remaining snapshots.
///
/// Returns `None` when nothing is shareable — profiling requested (profile
/// accumulators do not map between programs), mismatched memory geometry,
/// a raw set that is itself derived, incompatible program shells, or
/// divergence before the first snapshot — and the caller captures afresh.
pub fn capture_from<S: Substrate>(
    exec: &S::Exec<'_>,
    config: &ExecConfig,
    raw: &S::Exec<'_>,
    raw_set: &SnapshotSet<S>,
) -> Option<SnapshotSet<S>> {
    if config.profile || !raw_set.matches_geometry(config.mem_size, config.stack_size) {
        return None;
    }
    // The variant may *extend* the raw global list (Flowery appends its
    // expectation/guard cells): existing globals keep their addresses and
    // only appended — i.e. post-divergence — code references the new ones.
    let (module, raw_module) = (S::module(exec), S::module(raw));
    if !module.globals.starts_with(&raw_module.globals) {
        return None;
    }
    let d = S::divergence(exec, raw, raw_set.first_exec.as_ref()?)?;
    let shared: Vec<Snapshot<S>> = raw_set
        .snaps
        .iter()
        .take_while(|s| s.dyn_insts <= d)
        .map_while(|s| {
            Some(Snapshot {
                dyn_insts: s.dyn_insts,
                fault_sites: s.fault_sites,
                output_len: s.output_len,
                state: S::translate(exec, &s.state)?,
                profile: None,
                pages: s.pages.clone(),
            })
        })
        .collect();
    let last = shared.last()?;
    // The appended globals live in [raw_end, var_end). Those bytes hold
    // their initializers below the divergence point, but a raw overlay page
    // covering them carries raw heap bytes (zeros) instead — restoring it
    // would wipe the variant's initializers, so such sets cannot be shared.
    let (raw_end, var_end) = (Memory::globals_end(raw_module), Memory::globals_end(module));
    if var_end > raw_end {
        let appended = (raw_end / PAGE_SIZE) as u32..=((var_end - 1) / PAGE_SIZE) as u32;
        if last.pages.keys().any(|p| appended.contains(p)) {
            return None;
        }
    }
    let base = Memory::new(module, config.mem_size, config.stack_size);
    let mut mem = base.clone();
    mem.reset_to(&base, &last.pages);
    // The overlay pages already live in the recorder's cumulative map;
    // clear the dirty marks `reset_to` left so the first sync does not
    // re-copy them (which would break `Arc` sharing with the raw set).
    mem.drain_dirty_pages();
    let mut pool = S::Pool::default();
    let output = raw_set.golden.head().output[..last.output_len].to_vec();
    let start = Start::resume(exec, last, mem, output, false, &mut pool);
    let mut rec = Recorder::new(raw_set.cadence, config.snapshot_budget, None, None, shared);
    let (golden, _mem) = S::run_suffix(exec, config, None, start, Some(&mut rec), &mut pool);
    let mut set = rec.finish(base, golden);
    set.shared_snaps = set.snaps.iter().take_while(|s| s.dyn_insts <= d).count();
    Some(set)
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
