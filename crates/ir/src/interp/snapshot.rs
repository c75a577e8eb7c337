//! Periodic execution snapshots for fast-forwarded fault-injection trials,
//! written once for both injection layers (see [`Substrate`]).
//!
//! A fault-injection trial is bit-identical to the golden run up to its
//! injection site, so re-executing that prefix is pure waste — for late
//! sites, >90% of the trial. During one golden run on its recording loop
//! (the fast loop, stopping at each due point) the layer's engine captures a
//! [`Snapshot`] on a [`Cadence`], no more than its unit has trials; a trial
//! restores the nearest one at-or-before its injection site, runs the suffix.
//!
//! The invariant (enforced by differential tests at both layers): restored
//! execution is **byte-identical** to scratch execution, because every
//! counter in a snapshot is absolute and every restored byte equals what a
//! scratch run would have computed at that point.

use crate::interp::memory::{BaseImage, Memory, PageMap, PageRecorder};
use crate::interp::substrate::{RunResult, Substrate};
use std::sync::Arc;

/// When the recorder captures. Trials draw their injection sites uniformly
/// over *fault sites*, not dynamic instructions, so site-spaced snapshots
/// put restore points where the trials actually land — sites cluster late
/// in duplicated code, where uniform instruction spacing leaves long
/// suffixes to re-execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// Capture every `k` dynamic instructions (the v1 behavior).
    Insts(u64),
    /// Capture every `k` fault sites (adaptive: matches the uniform-over-
    /// sites trial distribution).
    Sites(u64),
}

impl Cadence {
    /// The numeric spacing, whichever axis it is measured on.
    pub fn value(self) -> u64 {
        match self {
            Cadence::Insts(k) | Cadence::Sites(k) => k,
        }
    }

    /// The cadence one widening step coarser (spacing doubled).
    pub fn widened(self) -> Cadence {
        match self {
            Cadence::Insts(k) => Cadence::Insts(k.saturating_mul(2)),
            Cadence::Sites(k) => Cadence::Sites(k.saturating_mul(2)),
        }
    }

    /// The counter value one cadence step past `(dyn_insts, fault_sites)`.
    fn next_after(self, dyn_insts: u64, fault_sites: u64) -> u64 {
        match self {
            Cadence::Insts(k) => dyn_insts + k,
            Cadence::Sites(k) => fault_sites + k,
        }
    }
}

/// Starting cadence for self-tuning captures: every 64 fault sites, widened
/// by the [`Recorder`] whenever the set exceeds [`AUTO_MAX_SNAPS`].
pub const AUTO_SITE_CADENCE: u64 = 64;

/// Snapshot-count cap for self-tuning captures. Each time the cap is hit
/// the cadence doubles and every other snapshot is dropped, so the final
/// set of a long run holds 64..=128 snapshots; a unit of fewer trials
/// lowers the cap to its trial count ([`capture_for`](crate::interp::substrate::capture_for)).
pub const AUTO_MAX_SNAPS: usize = 128;

/// One point-in-time capture of a layer's execution state.
///
/// `pages` is cumulative: it holds every page that has differed from the
/// base since program start, so a restore is `base + pages`, never a walk over
/// earlier snapshots. Page versions and their blocks are `Arc`-shared
/// across snapshots — each snapshot only pays for the blocks rewritten
/// since the previous one.
#[derive(Debug)]
pub struct Snapshot<S: Substrate> {
    /// Dynamic instructions executed before this point (absolute).
    pub dyn_insts: u64,
    /// Fault sites executed before this point (absolute). The site with
    /// this index has *not* yet executed.
    pub fault_sites: u64,
    /// Output bytes emitted so far; the bytes themselves are a prefix of
    /// the golden output and are restored from there.
    pub output_len: usize,
    /// The layer's architectural state (IR: stack pointer and call stack;
    /// asm: instruction pointer, register file and cycle counter).
    pub state: S::State,
    /// Cumulative dirty-page overlay against the base image.
    pub pages: PageMap,
}

/// All snapshots from one golden run, plus what a restore needs: the
/// pristine post-init memory image in compact form and the golden result,
/// and the run's site log. Built once per cached golden, shared read-only
/// across worker threads.
#[derive(Debug)]
pub struct SnapshotSet<S: Substrate> {
    pub(crate) base: BaseImage,
    pub(crate) golden: S::Golden,
    pub(crate) cadence: Cadence,
    pub(crate) snaps: Vec<Snapshot<S>>,
    pub(crate) sites: Arc<SiteLog>,
}

impl<S: Substrate> SnapshotSet<S> {
    /// The fault-free result of the capture run.
    pub fn golden(&self) -> &S::Golden {
        &self.golden
    }

    /// Snapshot cadence in dynamic instructions or fault sites.
    pub fn cadence(&self) -> Cadence {
        self.cadence
    }

    /// Numeric cadence spacing (see [`Cadence::value`]).
    pub fn interval(&self) -> u64 {
        self.cadence.value()
    }

    /// Number of captured snapshots.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// True when no snapshot was captured (program shorter than interval).
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// The captured snapshots, in execution order.
    pub fn snapshots(&self) -> &[Snapshot<S>] {
        &self.snaps
    }

    /// The capture run's site log: the observation of the same program.
    pub fn sites(&self) -> &Arc<SiteLog> {
        &self.sites
    }

    /// True when the set was captured under the given memory geometry —
    /// restoring into a differently-sized image would be unsound, so
    /// callers holding a deserialized set must check before attaching it.
    pub fn matches_geometry(&self, mem_size: u64, stack_size: u64) -> bool {
        self.base.has_geometry(mem_size, stack_size)
    }

    /// The last snapshot whose fault-site counter has not yet passed
    /// `site_index` — i.e. the injection site is still in the future.
    pub(crate) fn nearest(&self, site_index: u64) -> Option<&Snapshot<S>> {
        let i = self.snaps.partition_point(|s| s.fault_sites <= site_index);
        i.checked_sub(1).map(|i| &self.snaps[i])
    }
}

/// The golden order of fault sites, run-length encoded by region (function):
/// what every recorder run ([`capture`](crate::interp::substrate::capture))
/// collects through [`Recorder::note_site`]. It maps a region's own site
/// stream onto the global one that sampling, snapshot restore points and
/// the static prune share — the `k`-th site executed inside a region is an
/// ordinary global site index ([`SiteLog::index`]). Holds O(region
/// transitions); only an observation
/// ([`observe`](crate::interp::substrate::observe)) also keeps a per-site
/// trace, up to the cap its caller asks for.
#[derive(Debug)]
pub struct SiteLog {
    /// Region of each code position ([`Substrate::site_regions`]); empty
    /// once the recording is closed.
    region_of: Vec<u32>,
    /// Per region, its maximal runs of consecutive sites, each as (sites of
    /// the region before the run, global index of the run's first site).
    pub(crate) runs: Vec<Vec<(u64, u64)>>,
    /// Per region, the fault sites executed inside it (in closed runs).
    pub(crate) masses: Vec<u64>,
    /// Region of the latest site (`u32::MAX` before the first).
    last: u32,
    /// Code position of each site, up to `trace_cap` of them.
    trace: Vec<u32>,
    trace_cap: usize,
}

impl SiteLog {
    pub(crate) fn new(region_of: Vec<u32>, trace_cap: usize) -> SiteLog {
        let regions = region_of.iter().max().map_or(0, |&r| r as usize + 1);
        SiteLog {
            region_of,
            runs: vec![Vec::new(); regions],
            masses: vec![0; regions],
            last: u32::MAX,
            trace: Vec::new(),
            trace_cap,
        }
    }

    #[inline]
    fn note(&mut self, pos: u32, site: u64) {
        let region = self.region_of[pos as usize];
        if self.last != region {
            self.turn(region, site);
        }
        if self.trace.len() < self.trace_cap {
            self.trace.push(pos);
        }
    }

    /// End the current run at global site `site`, crediting its sites to
    /// its region, and start one in `region` (none for `u32::MAX`).
    #[cold]
    fn turn(&mut self, region: u32, site: u64) {
        if let Some(&(before, first)) = self.runs.get(self.last as usize).and_then(|runs| runs.last()) {
            self.masses[self.last as usize] = before + (site - first);
        }
        self.last = region;
        if let Some(runs) = self.runs.get_mut(region as usize) {
            runs.push((self.masses[region as usize], site));
        }
    }

    /// End the recording of a run of `sites` fault sites: close the last
    /// run, and drop the position table only recording needs.
    pub(crate) fn close(&mut self, sites: u64) {
        self.turn(u32::MAX, sites);
        self.region_of = Vec::new();
    }

    /// Fault sites executed inside `region` (0 for one the program lacks).
    /// Over all regions they sum to the run's `fault_sites`.
    pub fn mass(&self, region: usize) -> u64 {
        self.masses.get(region).copied().unwrap_or(0)
    }

    /// Global index of the `k`-th fault site executed inside `region`;
    /// `None` at or past the region's mass.
    pub fn index(&self, region: usize, k: u64) -> Option<u64> {
        if k >= self.mass(region) {
            return None;
        }
        let runs = &self.runs[region];
        let (before, first) = runs[runs.partition_point(|&(before, _)| before <= k) - 1];
        Some(first + (k - before))
    }

    /// Code position of each fault site in execution order, up to the cap
    /// the log was made with (later sites go unmapped); empty for a
    /// capture's log and a stored one.
    pub fn trace(&self) -> &[u32] {
        &self.trace
    }
}

/// Capture-side hook threaded through a layer's golden run: the engine's
/// recording loop runs in stretches to [`Recorder::stretch_end`], noting
/// each fault site, and captures wherever [`Recorder::due`] holds.
pub struct Recorder<S: Substrate> {
    /// The run's pristine image, which stored blocks are compared against.
    base: BaseImage,
    cadence: Cadence,
    next: u64,
    /// Snapshot-count cap for self-tuning captures; `None` preserves the
    /// caller's explicit cadence exactly.
    max_snaps: Option<usize>,
    pages: PageRecorder,
    snaps: Vec<Snapshot<S>>,
    /// Where every fault site of the run is logged.
    sites: SiteLog,
}

impl<S: Substrate> Recorder<S> {
    pub(crate) fn new(base: BaseImage, cadence: Cadence, max_snaps: Option<usize>, sites: SiteLog) -> Recorder<S> {
        assert!(cadence.value() > 0, "snapshot cadence must be positive");
        Recorder {
            base,
            cadence,
            next: cadence.value(),
            max_snaps,
            pages: PageRecorder::default(),
            snaps: Vec::new(),
            sites,
        }
    }

    /// Whether a snapshot is due with `dyn_insts` instructions and
    /// `fault_sites` sites executed and the next instruction not started.
    #[inline]
    pub fn due(&self, dyn_insts: u64, fault_sites: u64) -> bool {
        match self.cadence {
            Cadence::Insts(_) => dyn_insts >= self.next,
            Cadence::Sites(_) => fault_sites >= self.next,
        }
    }

    /// Where a recording stretch stops, `(limit, site)`: before the
    /// instruction that would pass `limit` (budget or due point), or right
    /// after the fault site that brings the site counter to `site`.
    #[inline]
    pub fn stretch_end(&self, max_dyn: u64) -> (u64, u64) {
        match self.cadence {
            Cadence::Insts(_) => (max_dyn.min(self.next), u64::MAX),
            Cadence::Sites(_) => (max_dyn, self.next),
        }
    }

    /// Report that the instruction at code position `pos` (the layer's
    /// [`Substrate::site_regions`] coordinate) executed as fault site
    /// number `site` of the run.
    #[inline]
    pub fn note_site(&mut self, pos: u32, site: u64) {
        self.sites.note(pos, site);
    }

    /// Capture the engine's state at `(dyn_insts, fault_sites)`, then widen
    /// the cadence while the set is over its count cap.
    pub fn capture(&mut self, dyn_insts: u64, fault_sites: u64, output_len: usize, state: S::State, mem: &mut Memory) {
        let pages = self.pages.sync(mem, &self.base);
        self.snaps.push(Snapshot { dyn_insts, fault_sites, output_len, state, pages });
        while self.max_snaps.is_some_and(|m| self.snaps.len() > m) && self.snaps.len() > 1 {
            self.widen();
        }
        self.next = self.cadence.next_after(dyn_insts, fault_sites);
    }

    /// Double the cadence and keep every other snapshot (starting with the
    /// first, so early injection sites keep a nearby restore point).
    fn widen(&mut self) {
        self.cadence = self.cadence.widened();
        let mut keep = false;
        self.snaps.retain(|_| {
            keep = !keep;
            keep
        });
    }

    /// Close the capture run into a set. The recorded cadence is the one
    /// after any widening, so the set's reported spacing matches the
    /// snapshots it actually holds.
    pub(crate) fn finish(mut self, golden: S::Golden) -> SnapshotSet<S> {
        self.sites.close(golden.head().fault_sites);
        let (base, cadence, snaps, sites) = (self.base, self.cadence, self.snaps, Arc::new(self.sites));
        SnapshotSet { base, golden, cadence, snaps, sites }
    }
}
