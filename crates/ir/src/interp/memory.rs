//! Flat, bounds-checked memory image shared by the IR interpreter (and
//! mirrored by the machine simulator in `flowery-backend`).
//!
//! Layout:
//!
//! ```text
//!   0x0000 .. 0x1000   reserved null guard page (all access traps)
//!   0x1000 .. G        module globals, in declaration order, aligned
//!   G      .. L        free (heap; unused by the current workloads)
//!   L      .. top      stack, growing downward from `top`
//! ```
//!
//! Faulty executions frequently produce wild pointers; every access is
//! bounds- and guard-checked so those become `Trap`s (the paper's DUE
//! outcome) rather than UB in the host.
//!
//! The pristine post-init state is a compact [`BaseImage`]; only a running
//! trial holds a dense [`Memory`], made from it and reverted to it by page.

use crate::module::{GlobalInit, Module};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Base address of the globals segment.
pub const GLOBAL_BASE: u64 = 0x1000;

/// Granularity of dirty tracking and snapshot deltas.
pub const PAGE_SIZE: u64 = 4096;

/// Granularity of sharing inside a stored page version. Smaller blocks
/// store fewer unchanged bytes but pay a pointer each; at 256 bytes a
/// snapshot set's changed bytes (14 % of its page bytes) stop shrinking
/// faster than the pointers grow.
pub const BLOCK_SIZE: usize = 256;

/// Blocks in a page; a trailing partial page uses only its first
/// `len.div_ceil(BLOCK_SIZE)`, the last of them possibly short.
pub const PAGE_BLOCKS: usize = PAGE_SIZE as usize / BLOCK_SIZE;

/// One stored version of a page, block by block: a block's bytes, or `None`
/// where the block equals the base image. A block unchanged since the
/// page's previous version is that version's `Arc`.
pub type Page = [Option<Arc<[u8]>>; PAGE_BLOCKS];

/// A sparse page image: page index → page version. Pages absent from the
/// map are identical to the base image. Versions are `Arc`-shared so
/// successive snapshots of a stable working set cost one pointer per page,
/// and a rewritten page stores only the blocks that changed.
pub type PageMap = HashMap<u32, Arc<Page>>;

/// Why an execution stopped abnormally. These map to the paper's DUE
/// (detected unrecoverable error) failure class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrapKind {
    /// Load outside mapped memory or inside the null guard page.
    OobLoad,
    /// Store outside mapped memory or inside the null guard page.
    OobStore,
    /// Integer division by zero (or overflowing INT_MIN / -1).
    DivFault,
    /// Dynamic instruction budget exhausted (fault-induced livelock).
    InstLimit,
    /// Call depth exceeded (fault-induced runaway recursion).
    CallDepth,
    /// Stack pointer escaped the stack segment.
    StackOverflow,
    /// Control reached an `unreachable` terminator / bad control transfer.
    BadControl,
    /// Output stream exceeded its limit (fault-induced output flood).
    OutputFlood,
}

/// The stable numbering of [`TrapKind`]: the code a trap has in snapshot
/// files and in the native engine's exit codes.
pub fn trap_code(t: TrapKind) -> u8 {
    match t {
        TrapKind::OobLoad => 0,
        TrapKind::OobStore => 1,
        TrapKind::DivFault => 2,
        TrapKind::InstLimit => 3,
        TrapKind::CallDepth => 4,
        TrapKind::StackOverflow => 5,
        TrapKind::BadControl => 6,
        TrapKind::OutputFlood => 7,
    }
}

/// The trap numbered `c` by [`trap_code`], if any.
pub fn trap_from(c: u8) -> Option<TrapKind> {
    Some(match c {
        0 => TrapKind::OobLoad,
        1 => TrapKind::OobStore,
        2 => TrapKind::DivFault,
        3 => TrapKind::InstLimit,
        4 => TrapKind::CallDepth,
        5 => TrapKind::StackOverflow,
        6 => TrapKind::BadControl,
        7 => TrapKind::OutputFlood,
        _ => return None,
    })
}

/// Byte-addressed memory image.
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    /// Lowest valid stack address; below this is the heap/global area.
    stack_limit: u64,
    /// One bit per [`PAGE_SIZE`] page, set by every successful store. The
    /// snapshot machinery uses it to capture cheap deltas and to revert a
    /// scratch image between trials; plain executions pay only the two
    /// bit-set operations per store.
    dirty: Vec<u64>,
    /// Length of the prefix of the base this image was made from or
    /// [rebased](Memory::rebase) to.
    based: usize,
}

/// The pristine post-init image in compact form: the geometry plus the
/// bytes up to the end of the last page the globals initialise; every byte
/// above `prefix` is zero. Snapshot sets and scratch runners hold this; only
/// a running trial holds a dense [`Memory`] ([`BaseImage::image`]).
#[derive(Debug)]
pub struct BaseImage {
    pub(crate) size: u64,
    pub(crate) stack_limit: u64,
    pub(crate) prefix: Box<[u8]>,
}

impl BaseImage {
    /// The image of `m` in `size` bytes with a `stack_size` stack. The
    /// geometry may be untrusted (a snapshot file's): it is checked without
    /// overflow, and nothing is allocated in proportion to `size`.
    pub fn new(m: &Module, size: u64, stack_size: u64) -> Result<BaseImage, String> {
        let stack_limit = size
            .checked_sub(stack_size)
            .filter(|&limit| limit >= GLOBAL_BASE + 0x1000)
            .ok_or("memory too small")?;
        let (addrs, end) = place_globals(m);
        if end > stack_limit {
            return Err("globals overflow memory image".into());
        }
        let mut prefix = Vec::new();
        for (g, at) in m.globals.iter().zip(addrs) {
            let GlobalInit::Elems(vals) = &g.init else { continue };
            let (at, w) = (at as usize, g.elem.size() as usize);
            // Globals ascend, so the prefix only grows.
            prefix.resize(align_up((at + w * vals.len()) as u64, PAGE_SIZE).min(size) as usize, 0);
            for (i, v) in vals.iter().enumerate() {
                prefix[at + i * w..at + (i + 1) * w].copy_from_slice(&v.to_le_bytes()[..w]);
            }
        }
        Ok(BaseImage { size, stack_limit, prefix: prefix.into() })
    }

    /// Copy the base image's bytes at `at..at + dst.len()` into `dst`: the
    /// prefix's where it holds them, zeros above it. The range lies within
    /// one page, so it is either inside the page-aligned prefix or above it.
    fn fill(&self, dst: &mut [u8], at: usize) {
        match self.prefix.get(at..at + dst.len()) {
            Some(init) => dst.copy_from_slice(init),
            None => dst.fill(0),
        }
    }

    /// True when the block `bytes` equals the base image's at `at` (see
    /// [`BaseImage::fill`]).
    fn holds(&self, bytes: &[u8], at: usize) -> bool {
        const ZEROS: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];
        self.prefix.get(at..at + bytes.len()).unwrap_or(&ZEROS[..bytes.len()]) == bytes
    }

    /// True for an image of `mem_size` bytes with a `stack_size` stack.
    pub fn has_geometry(&self, mem_size: u64, stack_size: u64) -> bool {
        self.size == mem_size && mem_size.checked_sub(stack_size) == Some(self.stack_limit)
    }

    /// The dense image, with an empty dirty set: a zeroed allocation with
    /// the prefix copied in. No dense base is copied.
    pub fn image(&self) -> Memory {
        let mut bytes = vec![0u8; self.size as usize];
        bytes[..self.prefix.len()].copy_from_slice(&self.prefix);
        let (dirty, based) = (vec![0u64; self.size.div_ceil(PAGE_SIZE).div_ceil(64) as usize], self.prefix.len());
        Memory { bytes, stack_limit: self.stack_limit, dirty, based }
    }
}

/// Address of every global of `m` in declaration order, and the end of the
/// globals segment: the one walk that places them.
fn place_globals(m: &Module) -> (Vec<u64>, u64) {
    let mut end = GLOBAL_BASE;
    let addrs = m.globals.iter().map(|g| {
        let at = align_up(end, g.elem.align());
        end = at + g.size();
        at
    });
    (addrs.collect(), end)
}

impl Memory {
    /// The image of [`BaseImage::new`]; panics on a geometry it refuses. A
    /// convenience for tests and oracles: the substrate keeps the
    /// [`BaseImage`] and makes its images from it.
    pub fn new(m: &Module, size: u64, stack_size: u64) -> Memory {
        BaseImage::new(m, size, stack_size).unwrap_or_else(|e| panic!("{e}")).image()
    }

    /// Address of each global, in declaration order.
    pub fn layout_globals(m: &Module) -> Vec<u64> {
        place_globals(m).0
    }

    /// End of the globals segment (first free heap byte).
    pub fn globals_end(m: &Module) -> u64 {
        place_globals(m).1
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Lowest valid stack address.
    pub fn stack_limit(&self) -> u64 {
        self.stack_limit
    }

    /// Initial stack pointer (top of memory, 16-byte aligned).
    pub fn initial_sp(&self) -> u64 {
        self.size() & !0xF
    }

    #[inline(always)]
    fn in_bounds(&self, addr: u64, width: u64) -> bool {
        addr >= GLOBAL_BASE && addr.checked_add(width).is_some_and(|end| end <= self.size())
    }

    /// Checked load of `width` bytes (1/2/4/8), little-endian, zero-extended.
    pub fn load(&self, addr: u64, width: u64) -> Result<u64, TrapKind> {
        if !self.in_bounds(addr, width) {
            return Err(TrapKind::OobLoad);
        }
        let (a, mut buf) = (addr as usize, [0u8; 8]);
        buf[..width as usize].copy_from_slice(&self.bytes[a..a + width as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Checked store of the low `width` bytes of `val`, little-endian.
    pub fn store(&mut self, addr: u64, width: u64, val: u64) -> Result<(), TrapKind> {
        if !self.in_bounds(addr, width) {
            return Err(TrapKind::OobStore);
        }
        self.mark_dirty(addr, width);
        let a = addr as usize;
        self.bytes[a..a + width as usize].copy_from_slice(&val.to_le_bytes()[..width as usize]);
        Ok(())
    }

    /// Width-specialized checked load for engines that know the access
    /// width statically (the machine layer's pre-lowered executor): the
    /// byte copy compiles to one fixed-size move instead of a variable
    /// `memcpy`. Semantics are identical to [`Memory::load`] with `W`.
    #[inline(always)]
    pub fn load_w<const W: usize>(&self, addr: u64) -> Result<u64, TrapKind> {
        if !self.in_bounds(addr, W as u64) {
            return Err(TrapKind::OobLoad);
        }
        let a = addr as usize;
        let mut buf = [0u8; 8];
        buf[..W].copy_from_slice(&self.bytes[a..a + W]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Width-specialized checked store; see [`Memory::load_w`].
    #[inline(always)]
    pub fn store_w<const W: usize>(&mut self, addr: u64, val: u64) -> Result<(), TrapKind> {
        if !self.in_bounds(addr, W as u64) {
            return Err(TrapKind::OobStore);
        }
        self.mark_dirty(addr, W as u64);
        let a = addr as usize;
        self.bytes[a..a + W].copy_from_slice(&val.to_le_bytes()[..W]);
        Ok(())
    }

    // ---- page-granular dirty tracking (snapshot fast-forward) ----------

    #[inline]
    fn mark_dirty(&mut self, addr: u64, width: u64) {
        let first = (addr / PAGE_SIZE) as usize;
        let last = ((addr + width - 1) / PAGE_SIZE) as usize;
        self.dirty[first >> 6] |= 1 << (first & 63);
        if last != first {
            self.dirty[last >> 6] |= 1 << (last & 63);
        }
    }

    /// Raw view for native execution engines: base pointer and length of
    /// the byte image, the stack limit, and the dirty-page bitset words
    /// (one bit per [`PAGE_SIZE`] page, little-endian within each u64 —
    /// the same layout [`Memory::drain_dirty_pages`] consumes).
    ///
    /// Safety contract for callers that write through these pointers:
    /// stay inside `[GLOBAL_BASE, len)` for data and uphold the dirty
    /// invariant — every store must set the bit of every page it touches,
    /// or a later [`Memory::reset_to`] will silently keep stale bytes.
    pub fn raw_parts_mut(&mut self) -> RawMemoryParts {
        RawMemoryParts {
            bytes: self.bytes.as_mut_ptr(),
            len: self.bytes.len() as u64,
            stack_limit: self.stack_limit,
            dirty: self.dirty.as_mut_ptr(),
            dirty_words: self.dirty.len(),
        }
    }

    /// Byte range of one page (shorter for a trailing partial page).
    fn page_range(&self, page: u32) -> std::ops::Range<usize> {
        let start = page as usize * PAGE_SIZE as usize;
        start..(start + PAGE_SIZE as usize).min(self.bytes.len())
    }

    /// The bytes of one page (shorter for a trailing partial page).
    pub fn page_slice(&self, page: u32) -> &[u8] {
        &self.bytes[self.page_range(page)]
    }

    /// Pages written since the last drain, in ascending order; clears the
    /// dirty set.
    pub fn drain_dirty_pages(&mut self) -> Vec<u32> {
        let out = self.dirty_pages().collect();
        self.dirty.fill(0);
        out
    }

    /// Pages written since the last drain, in ascending order.
    fn dirty_pages(&self) -> impl Iterator<Item = u32> + '_ {
        let words = self.dirty.iter().enumerate().filter(|&(_, &word)| word != 0);
        words.flat_map(|(w, &word)| (0..64).filter(move |b| word >> b & 1 != 0).map(move |b| w as u32 * 64 + b))
    }

    fn mark_page(&mut self, page: u32) {
        self.dirty[page as usize >> 6] |= 1 << (page & 63);
    }

    /// Revert this image, made from any base of the same geometry, to
    /// `base`'s own: the pages under either base's prefix are reverted with
    /// the dirty ones, and every other page is zero in both.
    pub(crate) fn rebase(&mut self, base: &BaseImage) {
        (0..self.based.max(base.prefix.len()).div_ceil(PAGE_SIZE as usize) as u32).for_each(|p| self.mark_page(p));
        self.reset_to(base, &PageMap::new());
        self.based = base.prefix.len();
    }

    /// True when this image equals `base` overlaid with `pages` (see
    /// [`Memory::reset_to`]), compared on every dirty page and every page
    /// of the overlay: any other page equals the base on both sides. The
    /// dirty set is left as it is.
    pub(crate) fn matches(&self, base: &BaseImage, pages: &PageMap) -> bool {
        let overlay_only = pages
            .keys()
            .copied()
            .filter(|&page| self.dirty[page as usize >> 6] & 1 << (page & 63) == 0);
        self.dirty_pages().chain(overlay_only).all(|page| {
            let range = self.page_range(page);
            let version = pages.get(&page);
            self.bytes[range.clone()].chunks(BLOCK_SIZE).enumerate().all(|(i, bytes)| {
                match version.and_then(|v| v[i].as_deref()) {
                    Some(stored) => stored == bytes,
                    None => base.holds(bytes, range.start + i * BLOCK_SIZE),
                }
            })
        })
    }

    /// Revert this image to `base` overlaid with `pages`, touching only
    /// pages known to differ: every currently dirty page is restored from
    /// `base`'s prefix, or zero-filled above it, then the overlay pages are
    /// applied block by block, a stored block's bytes or the base's where
    /// the version stores none (and marked dirty, so a later `reset_to`
    /// knows to revert them again).
    ///
    /// Correctness rests on the invariant that a page never marked dirty
    /// is byte-identical to `base` — which holds because this image
    /// started as `base`'s image and every store marks its pages.
    pub fn reset_to(&mut self, base: &BaseImage, pages: &PageMap) {
        debug_assert_eq!(self.size(), base.size, "snapshot base size mismatch");
        for page in self.drain_dirty_pages() {
            if !pages.contains_key(&page) {
                let range = self.page_range(page);
                base.fill(&mut self.bytes[range.clone()], range.start);
            }
        }
        for (&page, blocks) in pages {
            let range = self.page_range(page);
            let chunks = self.bytes[range.clone()].chunks_mut(BLOCK_SIZE);
            for ((i, dst), block) in chunks.enumerate().zip(blocks.iter()) {
                match block {
                    Some(data) => dst.copy_from_slice(data),
                    None => base.fill(dst, range.start + i * BLOCK_SIZE),
                }
            }
            self.mark_page(page);
        }
    }
}

/// Raw pointers into a [`Memory`], for native execution engines. See
/// [`Memory::raw_parts_mut`] for the safety contract.
pub struct RawMemoryParts {
    pub bytes: *mut u8,
    pub len: u64,
    pub stack_limit: u64,
    pub dirty: *mut u64,
    pub dirty_words: usize,
}

/// Accumulates the cumulative page overlay of a snapshot chain: after each
/// [`PageRecorder::sync`], the returned map turns the base image into the
/// current one. A dirty page is compared block by block with its current
/// version: unchanged blocks are shared by `Arc`, blocks equal to the base
/// are stored as nothing, and a page none of whose blocks changed keeps its
/// version. A run with a stable working set thus pays one block copy per
/// block actually rewritten, not a page per snapshot.
#[derive(Default)]
pub struct PageRecorder {
    cum: PageMap,
}

impl PageRecorder {
    /// Fold the pages dirtied since the last sync into the cumulative
    /// overlay, against the run's pristine `base`, and return a snapshot
    /// of it.
    pub fn sync(&mut self, mem: &mut Memory, base: &BaseImage) -> PageMap {
        let unstored = Page::default();
        for page in mem.drain_dirty_pages() {
            let range = mem.page_range(page);
            let old = self.cum.get(&page).map_or(&unstored, |p| &**p);
            let mut new = Page::default();
            for (i, bytes) in mem.bytes[range.clone()].chunks(BLOCK_SIZE).enumerate() {
                new[i] = match &old[i] {
                    Some(kept) if **kept == *bytes => Some(kept.clone()),
                    _ if base.holds(bytes, range.start + i * BLOCK_SIZE) => None,
                    _ => Some(Arc::from(bytes)),
                };
            }
            if !same_blocks(old, &new) {
                self.cum.insert(page, Arc::new(new));
            }
        }
        self.cum.clone()
    }

    /// Mark dirty again every page of `mem` that differs from the base
    /// (a sync drains them), as [`Memory::rebase`] needs.
    pub(crate) fn redirty(&self, mem: &mut Memory) {
        self.cum.keys().for_each(|&page| mem.mark_page(page));
    }
}

/// True when two page versions hold the same block at every index: both
/// the base's, or one shared copy.
fn same_blocks(a: &Page, b: &Page) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
        (x, y) => x.is_none() && y.is_none(),
    })
}

/// Round `v` up to a multiple of `align` (a power of two).
pub fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    #[test]
    fn null_page_traps() {
        let m = Module::default();
        let mem = Memory::new(&m, 1 << 20, 1 << 16);
        assert_eq!(mem.load(0, 8), Err(TrapKind::OobLoad));
        assert_eq!(mem.load(0xFFF, 1), Err(TrapKind::OobLoad));
        let mut mem = mem;
        assert_eq!(mem.store(8, 4, 1), Err(TrapKind::OobStore));
    }

    #[test]
    fn out_of_range_traps() {
        let m = Module::default();
        let mut mem = Memory::new(&m, 1 << 20, 1 << 16);
        let sz = mem.size();
        assert_eq!(mem.load(sz, 1), Err(TrapKind::OobLoad));
        assert_eq!(mem.load(sz - 4, 8), Err(TrapKind::OobLoad));
        assert_eq!(mem.store(u64::MAX - 2, 8, 0), Err(TrapKind::OobStore));
        assert!(mem.store(sz - 8, 8, 0xdead).is_ok());
    }

    #[test]
    fn round_trip_widths() {
        let m = Module::default();
        let mut mem = Memory::new(&m, 1 << 20, 1 << 16);
        for (w, v) in [(1u64, 0xABu64), (2, 0xBEEF), (4, 0xDEADBEEF), (8, 0x0123456789ABCDEF)] {
            mem.store(0x2000, w, v).unwrap();
            assert_eq!(mem.load(0x2000, w).unwrap(), v);
        }
    }

    #[test]
    fn globals_materialized() {
        let mut mb = ModuleBuilder::new("m");
        mb.global_i64("a", &[10, 20]);
        mb.global_f64("b", &[1.5]);
        let m = mb.finish();
        let mem = Memory::new(&m, 1 << 20, 1 << 16);
        let addrs = Memory::layout_globals(&m);
        assert_eq!(mem.load(addrs[0], 8).unwrap(), 10);
        assert_eq!(mem.load(addrs[0] + 8, 8).unwrap(), 20);
        assert_eq!(f64::from_bits(mem.load(addrs[1], 8).unwrap()), 1.5);
        assert_eq!(Memory::globals_end(&m), addrs[1] + 8);
    }

    use crate::module::Module;

    #[test]
    fn a_recorded_image_rebases_to_any_base_of_its_geometry() {
        // Initialised globals ending on different pages; an image of each,
        // written before and after a recorder's sync drained its dirty set,
        // must come back as the other's base, page for page.
        let globals = |n: usize| {
            let mut mb = ModuleBuilder::new("m");
            mb.global_i64("g", &vec![7; n]);
            BaseImage::new(&mb.finish(), 1 << 20, 1 << 16).unwrap()
        };
        let (long, short) = (globals(2000), globals(2));
        for (from, to) in [(&long, &short), (&short, &long)] {
            let mut mem = from.image();
            let mut rec = PageRecorder::default();
            mem.store(GLOBAL_BASE + 5 * PAGE_SIZE, 8, 1).unwrap();
            rec.sync(&mut mem, from);
            mem.store(GLOBAL_BASE + 9 * PAGE_SIZE, 8, 2).unwrap();
            rec.redirty(&mut mem);
            mem.rebase(to);
            let fresh = to.image();
            assert!((0..(to.size / PAGE_SIZE) as u32).all(|p| mem.page_slice(p) == fresh.page_slice(p)));
            assert!(mem.drain_dirty_pages().is_empty(), "a rebased image is pristine");
        }
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 4), 12);
    }

    #[test]
    fn dirty_tracking_and_reset_roundtrip() {
        let m = Module::default();
        let base = BaseImage::new(&m, 1 << 20, 1 << 16).unwrap();
        let mut mem = base.image();
        assert!(mem.drain_dirty_pages().is_empty(), "fresh image is clean");
        // A store spanning a page boundary dirties both pages.
        mem.store(2 * PAGE_SIZE - 4, 8, 0xAABBCCDD_EEFF0011).unwrap();
        mem.store(0x2000, 8, 42).unwrap();
        let dirty = mem.drain_dirty_pages();
        assert_eq!(dirty, vec![1, 2]);
        assert!(mem.drain_dirty_pages().is_empty(), "drain clears the set");

        // Build an overlay from a recorder, then reset a scratch image.
        let mut golden = base.image();
        let mut rec = PageRecorder::default();
        golden.store(0x2000, 8, 7).unwrap();
        let pages1 = rec.sync(&mut golden, &base);
        golden.store(0x5000, 8, 9).unwrap();
        let pages2 = rec.sync(&mut golden, &base);
        assert_eq!(pages1.len(), 1);
        assert_eq!(pages2.len(), 2);

        let mut scratch = base.image();
        scratch.store(0x7000, 8, 0xDEAD).unwrap(); // trial-local damage
        scratch.reset_to(&base, &pages2);
        assert_eq!(scratch.load(0x2000, 8).unwrap(), 7);
        assert_eq!(scratch.load(0x5000, 8).unwrap(), 9);
        assert_eq!(scratch.load(0x7000, 8).unwrap(), 0, "trial damage reverted");
        // Resetting to the earlier overlay must undo the later one.
        scratch.reset_to(&base, &pages1);
        assert_eq!(scratch.load(0x2000, 8).unwrap(), 7);
        assert_eq!(scratch.load(0x5000, 8).unwrap(), 0);
    }

    /// Globals of every init kind: a page and a half of initialised
    /// elements, a zeroed array past them, then a byte global initialised
    /// after the zeroed one — it, not the zeroed array, ends the prefix.
    fn module_with_globals() -> Module {
        let mut mb = ModuleBuilder::new("m");
        mb.global_i64("a", &(0..768).map(|i| i * 3 + 1).collect::<Vec<_>>());
        mb.global_zeroed("z", Type::I64, 2048);
        mb.global_init("c", Type::I8, vec![0xAB, 0xCD]);
        mb.global_zeroed("tail", Type::I64, 4096);
        mb.finish()
    }

    #[test]
    fn base_image_prefix_ends_at_the_last_initialised_page() {
        let m = module_with_globals();
        let addrs = Memory::layout_globals(&m);
        let base = BaseImage::new(&m, 1 << 20, 1 << 16).unwrap();
        assert_eq!(base.prefix.len() as u64, align_up(addrs[2] + 2, PAGE_SIZE));
        assert!((base.prefix.len() as u64) < Memory::globals_end(&m), "the zeroed tail is not stored");
        let empty = BaseImage::new(&Module::default(), 1 << 20, 1 << 16).unwrap();
        assert!(empty.prefix.is_empty(), "no initialised global, no prefix");
    }

    #[test]
    fn memory_new_is_the_base_image_byte_for_byte() {
        let m = module_with_globals();
        let base = BaseImage::new(&m, 1 << 20, 1 << 16).unwrap();
        let (mem, image) = (Memory::new(&m, 1 << 20, 1 << 16), base.image());
        assert_eq!(mem.bytes, image.bytes);
        assert_eq!((mem.size(), mem.stack_limit()), (base.size, base.stack_limit));
        assert_eq!(mem.bytes[..base.prefix.len()], base.prefix[..]);
        assert!(mem.bytes[base.prefix.len()..].iter().all(|&b| b == 0));
        let addrs = Memory::layout_globals(&m);
        assert_eq!(mem.load(addrs[0] + 767 * 8, 8).unwrap(), 767 * 3 + 1);
        assert_eq!(mem.load(addrs[2], 2).unwrap(), 0xCDAB);
    }

    #[test]
    fn reset_to_restores_the_prefix_and_zero_fills_above_it() {
        let m = module_with_globals();
        let addrs = Memory::layout_globals(&m);
        let base = BaseImage::new(&m, 1 << 20, 1 << 16).unwrap();
        let above = base.prefix.len() as u64 + 3 * PAGE_SIZE;
        let mut mem = base.image();
        mem.store(addrs[0] + 8, 8, 0xDEAD).unwrap();
        mem.store(addrs[2], 1, 0).unwrap();
        mem.store(above, 8, 0xBEEF).unwrap();
        mem.reset_to(&base, &PageMap::new());
        assert_eq!(mem.load(addrs[0] + 8, 8).unwrap(), 4, "initialised global restored");
        assert_eq!(mem.load(addrs[2], 1).unwrap(), 0xAB, "initialised global restored");
        assert_eq!(mem.load(above, 8).unwrap(), 0, "page above the prefix zero-filled");
        assert_eq!(mem.bytes, Memory::new(&m, 1 << 20, 1 << 16).bytes);
        assert!(mem.drain_dirty_pages().is_empty());
    }

    #[test]
    fn base_image_refuses_impossible_geometry_without_allocating() {
        let m = module_with_globals();
        let stack = 1 << 16;
        for (size, stack_size) in [(u64::MAX, u64::MAX), (stack, stack), (0, 0), (0x1000, u64::MAX)] {
            assert!(BaseImage::new(&m, size, stack_size).is_err(), "{size:#x}/{stack_size:#x}");
        }
        let err = BaseImage::new(&m, Memory::globals_end(&m) + stack - 1, stack).unwrap_err();
        assert!(err.contains("globals"), "{err}");
        // A huge geometry is only two numbers until an image is made.
        for size in [1 << 40, u64::MAX] {
            let huge = BaseImage::new(&m, size, stack).unwrap();
            assert!(huge.has_geometry(size, stack) && !huge.has_geometry(1 << 20, stack));
            assert_eq!(huge.prefix, BaseImage::new(&m, 1 << 20, stack).unwrap().prefix);
        }
    }
}
