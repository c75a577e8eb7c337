//! Stable binary serialization for [`SnapshotSet`] — persisted next to a
//! campaign checkpoint so `--resume` skips the capture runs.
//!
//! Format, one envelope for both layers (fixed-width integers
//! little-endian; `leb` an unsigned LEB128; `Δ` the `leb` of the wrapping
//! difference from the previous snapshot's value, 0 before the first):
//!
//! ```text
//!   magic "FLSNAPIR" / "FLSNAPAS" | version u32 | content_hash u64
//!   mem_size u64 | stack_size u64            (base image is rebuilt, not stored)
//!   cadence tag u8 + value u64
//!   HEAD: golden result                      (the layer's payload)
//!   snapshot count leb
//!   per snapshot: Δdyn_insts, Δfault_sites, Δoutput length
//!                 SNAP: state, against the previous snapshot's (the layer's payload)
//!                 page DELTA: record count leb, per record (ascending page):
//!                   pages skipped since the previous record leb
//!                   fresh mask u16 | base mask u16
//!                   each fresh block as RUNS against its previous version
//!   SITES (the capture run's SiteLog, no trace): region count leb,
//!         per region: run count leb, per run: sites skipped since the
//!         region's previous run ended leb, run length leb
//!   fnv1a-64 checksum over everything above
//! ```
//!
//! RUNS code a byte string, XORed with what the reader holds there, as
//! (zero run leb, literal run leb, literal bytes) pairs; a literal run
//! holds no zero byte. The length is the program's, never the file's (a
//! block's from its page, a frame's slot count from its function, the
//! register count), and a run past it is refused, so run coding cannot
//! inflate an allocation. A block is coded against its previous version or
//! the base image's bytes; the layers code registers and call-stack frames
//! against the previous snapshot's.
//!
//! Page overlays are cumulative and `Arc`-shared across snapshots, so each
//! snapshot stores only the pages whose version `Arc` is new. A page version
//! is [`PAGE_BLOCKS`](crate::interp::memory::PAGE_BLOCKS) blocks of
//! [`BLOCK_SIZE`] bytes (a trailing partial page has fewer, the last
//! possibly short): bit `i` of the fresh mask stores block `i`, of the base
//! mask resets it to the base image; any other block is the page's previous
//! version's. The loader rebuilds each overlay as `prev.clone()` plus the
//! delta, which round-trips the sharing of pages and of blocks.
//!
//! Loading never panics on bad input: the checksum is verified before any
//! parsing, and every length/index is validated against the program the
//! executor is bound to. Every encoding is canonical (no overlong LEB128,
//! no needless run or mask bit), so a file that loads re-encodes to itself.
//!
//! The base image is rebuilt from that program as a compact [`BaseImage`]
//! (the globals' pages), so the file's `mem_size` is never allocated: a
//! geometry with no room for the stack and the globals is refused (checked
//! without overflow), any other waits for the caller's `matches_geometry`.

use crate::fnv1a;
use crate::interp::memory::{trap_code, trap_from, BaseImage, Page, PageMap, BLOCK_SIZE, PAGE_SIZE};
use crate::interp::snapshot::{Cadence, SiteLog, Snapshot, SnapshotSet, AUTO_MAX_SNAPS};
use crate::interp::substrate::{Linked, RunResult, Substrate};
use crate::interp::ExecStatus;
use crate::module::Module;
use std::sync::Arc;

/// Version 1 held per-snapshot profiles and a first-execution table, 2 no
/// SITES, 3 whole pages, 4 raw blocks and a golden profile: all refused.
const VERSION: u32 = 5;

// ---- writer helpers -------------------------------------------------------

pub fn w_u16(w: &mut Vec<u8>, v: u16) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub fn w_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub fn w_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

/// Unsigned LEB128: seven bits a byte, low first, the top bit set on every
/// byte but the last.
pub fn w_leb(w: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        w.push(v as u8 | 0x80);
        v >>= 7;
    }
    w.push(v as u8);
}

pub fn w_bytes(w: &mut Vec<u8>, b: &[u8]) {
    w_leb(w, b.len() as u64);
    w.extend_from_slice(b);
}

/// `x` — what is stored XOR what the reader holds — as RUNS (see the
/// module docs).
pub fn w_runs(w: &mut Vec<u8>, x: &[u8]) {
    let mut at = 0;
    while at < x.len() {
        let zeros = x[at..].iter().take_while(|&&b| b == 0).count();
        let lit = x[at + zeros..].iter().take_while(|&&b| b != 0).count();
        w_leb(w, zeros as u64);
        w_leb(w, lit as u64);
        w.extend_from_slice(&x[at + zeros..at + zeros + lit]);
        at += zeros + lit;
    }
}

/// `words` as RUNS of their little-endian bytes against `held` (zeros past
/// its end).
pub fn w_words(w: &mut Vec<u8>, words: &[u64], held: &[u64]) {
    let held = held.iter().chain(std::iter::repeat(&0));
    let x: Vec<u8> = words.iter().zip(held).flat_map(|(v, h)| (v ^ h).to_le_bytes()).collect();
    w_runs(w, &x);
}

/// A presence tag, then the value's own encoding.
pub fn w_opt<T>(w: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        None => w.push(0),
        Some(v) => {
            w.push(1);
            put(w, v);
        }
    }
}

pub fn w_status(w: &mut Vec<u8>, status: ExecStatus) {
    match status {
        ExecStatus::Completed(v) => {
            w.push(0);
            w_u64(w, v);
        }
        ExecStatus::Detected => w.push(1),
        ExecStatus::Trapped(t) => {
            w.push(2);
            w.push(trap_code(t));
        }
    }
}

// ---- reader ---------------------------------------------------------------

/// Bounds-checked reader over a checksum-verified file body.
pub struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.b.len() - self.pos < n {
            return Err("snapshot file: truncated".into());
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The reader side of [`w_leb`]; refuses an overlong encoding (a last
    /// byte of 0 after the first, or bits past the 64th).
    pub fn leb(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if (shift > 0 && b == 0) || (shift == 63 && b > 1) {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("snapshot file: bad LEB128".into())
    }

    /// A [`Cursor::leb`] that must fit a `u32` (an index).
    pub fn leb32(&mut self) -> Result<u32, String> {
        u32::try_from(self.leb()?).map_err(|_| "snapshot file: index out of range".to_string())
    }

    /// A count of items of at least a byte each, bounded by the bytes left.
    pub fn count(&mut self) -> Result<usize, String> {
        let n = self.leb()?;
        if n > (self.b.len() - self.pos) as u64 {
            return Err("snapshot file: length field exceeds file size".into());
        }
        Ok(n as usize)
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.count()?;
        Ok(self.take(n)?.to_vec())
    }

    /// The reader side of [`w_opt`]; `what` names the field in the error.
    pub fn opt<T>(
        &mut self,
        what: &str,
        get: impl FnOnce(&mut Cursor<'a>) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            t => Err(format!("snapshot file: bad {what} tag {t}")),
        }
    }

    /// The reader side of [`w_runs`]: XOR the RUNS at the cursor into
    /// `held`. Refuses a run that passes its end and any pair the writer
    /// would not emit.
    pub fn xor_bytes(&mut self, held: &mut [u8]) -> Result<(), String> {
        let mut at = 0;
        while at < held.len() {
            let (zeros, lit) = (self.leb()?, self.leb()?);
            if zeros.checked_add(lit).is_none_or(|n| n > (held.len() - at) as u64) {
                return Err("snapshot file: a run passes the end of its field".into());
            }
            let (start, lit) = (at + zeros as usize, lit as usize);
            let bytes = self.take(lit)?;
            if (at > 0 && zeros == 0) || (lit == 0 && start != held.len()) || bytes.contains(&0) {
                return Err("snapshot file: bad run coding".into());
            }
            held[start..start + lit].iter_mut().zip(bytes).for_each(|(h, b)| *h ^= b);
            at = start + lit;
        }
        Ok(())
    }

    /// [`Cursor::xor_bytes`] into the little-endian bytes of `held`.
    pub fn xor_words(&mut self, held: &mut [u64]) -> Result<(), String> {
        let mut x: Vec<u8> = held.iter().flat_map(|h| h.to_le_bytes()).collect();
        self.xor_bytes(&mut x)?;
        held.iter_mut()
            .zip(x.chunks_exact(8))
            .for_each(|(h, b)| *h = u64::from_le_bytes(b.try_into().unwrap()));
        Ok(())
    }

    /// Fill the empty `log` with the runs of a run of `sites` fault sites,
    /// refused unless [`SiteLog::index`] is total on them: the runs are
    /// non-empty, a region's ascend inside `sites`, and the masses (the
    /// runs' lengths) sum to `sites`.
    fn site_log(&mut self, log: &mut SiteLog, sites: u64) -> Result<(), String> {
        let bad = || "snapshot file: bad site log".to_string();
        if self.count()? != log.masses.len() {
            return Err(bad());
        }
        let mut total = 0u64;
        for (mass, runs) in log.masses.iter_mut().zip(&mut log.runs) {
            let mut floor = 0u64;
            for _ in 0..self.count()? {
                let (skip, len) = (self.leb()?, self.leb()?);
                let first = floor.checked_add(skip).ok_or_else(bad)?;
                floor = first.checked_add(len).filter(|&end| len > 0 && end <= sites).ok_or_else(bad)?;
                runs.push((*mass, first));
                *mass += len;
            }
            total = total.checked_add(*mass).ok_or_else(bad)?;
        }
        if total != sites {
            return Err(bad());
        }
        Ok(())
    }

    pub fn status(&mut self) -> Result<ExecStatus, String> {
        Ok(match self.u8()? {
            0 => ExecStatus::Completed(self.u64()?),
            1 => ExecStatus::Detected,
            2 => {
                let c = self.u8()?;
                ExecStatus::Trapped(trap_from(c).ok_or_else(|| format!("snapshot file: unknown trap kind {c}"))?)
            }
            t => return Err(format!("snapshot file: bad status tag {t}")),
        })
    }
}

/// What a reader holds for block `i` (`len` bytes) of `page` before its
/// next version: the block of `old`, its previous version, or the base's.
fn held<'a>(base: &'a BaseImage, old: &'a Page, page: u32, i: usize, len: usize) -> &'a [u8] {
    static ZEROS: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];
    let at = page as usize * PAGE_SIZE as usize + i * BLOCK_SIZE;
    old[i].as_deref().or(base.prefix.get(at..at + len)).unwrap_or(&ZEROS[..len])
}

impl<S: Substrate> SnapshotSet<S> {
    /// Serialize to the stable on-disk format. `content_hash` covers the
    /// program this set was captured from; the loader refuses a file whose
    /// hash does not match.
    pub fn to_bytes(&self, content_hash: u64) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(S::MAGIC);
        w_u32(&mut w, VERSION);
        w_u64(&mut w, content_hash);
        w_u64(&mut w, self.base.size);
        w_u64(&mut w, self.base.size - self.base.stack_limit);
        w.push(match self.cadence {
            Cadence::Insts(_) => 0,
            Cadence::Sites(_) => 1,
        });
        w_u64(&mut w, self.cadence.value());
        S::encode_head(&mut w, &self.golden);
        w_leb(&mut w, self.snaps.len() as u64);
        let (empty, unstored) = (PageMap::new(), Page::default());
        let mut x = [0u8; BLOCK_SIZE];
        let mut prev: Option<&Snapshot<S>> = None;
        for s in &self.snaps {
            let (dyn_insts, fault_sites, output_len) =
                prev.map_or((0, 0, 0), |p| (p.dyn_insts, p.fault_sites, p.output_len));
            w_leb(&mut w, s.dyn_insts.wrapping_sub(dyn_insts));
            w_leb(&mut w, s.fault_sites.wrapping_sub(fault_sites));
            w_leb(&mut w, s.output_len.wrapping_sub(output_len) as u64);
            S::encode_snap(&mut w, &s.state, prev.map(|p| &p.state));
            // Overlays only grow; encode the pages whose version is new,
            // each against its previous version.
            let prev_pages = prev.map_or(&empty, |p| &p.pages);
            debug_assert!(prev_pages.keys().all(|k| s.pages.contains_key(k)));
            let mut delta: Vec<(u32, &Page, &Page)> = s
                .pages
                .iter()
                .filter_map(|(&k, v)| match prev_pages.get(&k) {
                    Some(old) if Arc::ptr_eq(old, v) => None,
                    old => Some((k, &**v, old.map_or(&unstored, |old| &**old))),
                })
                .collect();
            delta.sort_unstable_by_key(|&(k, ..)| k);
            w_leb(&mut w, delta.len() as u64);
            let mut next = 0;
            for (k, new, old) in delta {
                let (mut fresh, mut based) = (0u16, 0u16);
                for (i, (n, o)) in new.iter().zip(old).enumerate() {
                    match (n, o) {
                        (Some(n), Some(o)) if Arc::ptr_eq(n, o) => {}
                        (Some(_), _) => fresh |= 1 << i,
                        (None, Some(_)) => based |= 1 << i,
                        (None, None) => {}
                    }
                }
                w_leb(&mut w, u64::from(k) - next);
                next = u64::from(k) + 1;
                w_u16(&mut w, fresh);
                w_u16(&mut w, based);
                for (i, block) in new.iter().enumerate().filter(|&(i, _)| fresh & 1 << i != 0) {
                    let data = block.as_deref().expect("a fresh block is stored");
                    let x = &mut x[..data.len()];
                    let held = held(&self.base, old, k, i, data.len());
                    x.iter_mut().zip(data).zip(held).for_each(|((x, d), h)| *x = d ^ h);
                    w_runs(&mut w, x);
                }
            }
            prev = Some(s);
        }
        w_leb(&mut w, self.sites.masses.len() as u64);
        for (&mass, runs) in self.sites.masses.iter().zip(&self.sites.runs) {
            w_leb(&mut w, runs.len() as u64);
            let mut floor = 0;
            for (i, &(before, first)) in runs.iter().enumerate() {
                let len = runs.get(i + 1).map_or(mass, |r| r.0) - before;
                w_leb(&mut w, first - floor);
                w_leb(&mut w, len);
                floor = first + len;
            }
        }
        let c = fnv1a(&w);
        w_u64(&mut w, c);
        w
    }

    /// Deserialize a set previously written by [`SnapshotSet::to_bytes`]
    /// for the program `exec` is bound to. Rejects corrupt, truncated,
    /// version-mismatched, or wrong-content files with a descriptive error
    /// — never panics.
    pub fn decode(bytes: &[u8], exec: &S::Exec<'_>, content_hash: u64) -> Result<SnapshotSet<S>, String> {
        if bytes.len() < S::MAGIC.len() + 8 {
            return Err("snapshot file: truncated".into());
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(body) != stored {
            return Err("snapshot file: checksum mismatch (corrupt or truncated)".into());
        }
        let mut c = Cursor { b: body, pos: 0 };
        if c.take(S::MAGIC.len())? != S::MAGIC {
            return Err(format!("snapshot file: bad magic (not an {} snapshot set)", S::NAME));
        }
        let version = c.u32()?;
        if version != VERSION {
            return Err(format!("snapshot file: unsupported format version {version} (expected {VERSION})"));
        }
        if c.u64()? != content_hash {
            return Err("snapshot file: content hash mismatch".into());
        }
        let (mem_size, stack_size) = (c.u64()?, c.u64()?);
        let base = BaseImage::new(S::module(exec), mem_size, stack_size)
            .map_err(|e| format!("snapshot file: implausible memory geometry ({e})"))?;
        let cadence = match c.u8()? {
            0 => Cadence::Insts(c.u64()?),
            1 => Cadence::Sites(c.u64()?),
            t => return Err(format!("snapshot file: bad cadence tag {t}")),
        };
        if cadence.value() == 0 {
            return Err("snapshot file: zero cadence".into());
        }
        let golden = S::decode_head(&mut c)?;
        // A campaign's set holds at most `AUTO_MAX_SNAPS`: no file reserves more.
        let count = c.count()?;
        let mut snaps: Vec<Snapshot<S>> = Vec::with_capacity(count.min(AUTO_MAX_SNAPS));
        let head = golden.head();
        for _ in 0..count {
            let prev = snaps.last();
            let (d, f, o) = prev.map_or((0, 0, 0), |p| (p.dyn_insts, p.fault_sites, p.output_len as u64));
            // Time moves forward (a Δ that wraps went back), never past the
            // golden run's end: what `nearest` and the rejoin walk rely on.
            let dyn_insts = d.checked_add(c.leb()?).filter(|&n| n > d && n <= head.dyn_insts);
            let fault_sites = f.checked_add(c.leb()?).filter(|&n| n <= head.fault_sites);
            let output_len = o.checked_add(c.leb()?).filter(|&n| n <= head.output.len() as u64);
            let (Some(dyn_insts), Some(fault_sites), Some(output_len)) = (dyn_insts, fault_sites, output_len) else {
                return Err("snapshot file: snapshot counters out of order or past the golden run's".into());
            };
            let state = S::decode_snap(&mut c, exec, prev.map(|p| &p.state))?;
            let mut pages = prev.map_or_else(PageMap::new, |p| p.pages.clone());
            let mut next = 0u64;
            for _ in 0..c.count()? {
                let page = u32::try_from(next.saturating_add(c.leb()?))
                    .ok()
                    .filter(|&p| u64::from(p) * PAGE_SIZE < base.size)
                    .ok_or("snapshot file: bad page record")?;
                let start = u64::from(page) * PAGE_SIZE;
                next = u64::from(page) + 1;
                let (fresh, based) = (c.u16()?, c.u16()?);
                let len = (base.size - start).min(PAGE_SIZE) as usize;
                if fresh & based != 0 || u32::from(fresh | based) >> len.div_ceil(BLOCK_SIZE) != 0 {
                    return Err("snapshot file: bad block masks".into());
                }
                let mut blocks = pages.get(&page).map_or_else(Page::default, |old| (**old).clone());
                for i in 0..blocks.len() {
                    if based & 1 << i != 0 {
                        // Only a stored block has a base to go back to.
                        if blocks[i].take().is_none() {
                            return Err("snapshot file: bad block masks".into());
                        }
                    } else if fresh & 1 << i != 0 {
                        let mut x = [0u8; BLOCK_SIZE];
                        let x = &mut x[..BLOCK_SIZE.min(len - i * BLOCK_SIZE)];
                        // A stored block was decoded from a page of this length.
                        x.copy_from_slice(held(&base, &blocks, page, i, x.len()));
                        c.xor_bytes(x)?;
                        blocks[i] = Some(Arc::from(&*x));
                    }
                }
                pages.insert(page, Arc::new(blocks));
            }
            let output_len = output_len as usize;
            snaps.push(Snapshot { dyn_insts, fault_sites, output_len, state, pages });
        }
        let mut sites = SiteLog::new(S::site_regions(exec), 0);
        c.site_log(&mut sites, head.fault_sites)?;
        sites.close(head.fault_sites);
        let sites = Arc::new(sites);
        if c.pos != body.len() {
            return Err("snapshot file: trailing garbage".into());
        }
        Ok(SnapshotSet { base, golden, cadence, snaps, sites })
    }
}

impl<S: Linked> SnapshotSet<S> {
    /// [`SnapshotSet::decode`] for the executor of `module` + `program`.
    pub fn from_bytes(
        bytes: &[u8],
        module: &Module,
        program: &S::Program,
        content_hash: u64,
    ) -> Result<SnapshotSet<S>, String> {
        Self::decode(bytes, &S::bind(module, program), content_hash)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::inst::{BinOp, IPred};
    use crate::interp::{ExecConfig, Interpreter, IrSnapshotSet};
    use crate::module::Module;
    use crate::types::Type;
    use crate::value::Op;

    /// `main` prints `i * 3` for `i` in `0..50`.
    fn printing_loop() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], None);
        let i = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(0), Op::inst(i));
        let (head, body, exit) = (fb.new_block("head"), fb.new_block("body"), fb.new_block("exit"));
        fb.jmp(head);
        fb.switch_to(head);
        let iv = fb.load(Type::I64, Op::inst(i));
        let more = fb.icmp(IPred::Slt, Type::I64, Op::inst(iv), Op::ci64(50));
        fb.br(Op::inst(more), body, exit);
        fb.switch_to(body);
        let iv = fb.load(Type::I64, Op::inst(i));
        let v = fb.bin(BinOp::Mul, Type::I64, Op::inst(iv), Op::ci64(3));
        fb.output_i64(Op::inst(v));
        let next = fb.bin(BinOp::Add, Type::I64, Op::inst(iv), Op::ci64(1));
        fb.store(Type::I64, Op::inst(next), Op::inst(i));
        fb.jmp(head);
        fb.switch_to(exit);
        fb.ret(None);
        mb.add_func(fb.finish());
        mb.finish()
    }

    /// Sets whose counters a writer never emits, sealed with a valid
    /// checksum: the decoder refuses each.
    #[test]
    fn sealed_files_that_reorder_time_are_refused() {
        let m = printing_loop();
        let interp = Interpreter::new(&m);
        let capture = || interp.capture_snapshots(&ExecConfig::default(), 40);
        let load = |set: &IrSnapshotSet| IrSnapshotSet::from_bytes(&set.to_bytes(7), &m, 7);
        let set = capture();
        assert!(set.len() >= 4, "test premise: several snapshots");
        assert!(load(&set).is_ok(), "the intact file loads");
        type Edit = fn(&mut IrSnapshotSet);
        let edits: [(&str, Edit); 5] = [
            ("two snapshots' counters swapped", |set| {
                let (a, b) = set.snaps.split_at_mut(2);
                let (a, b) = (&mut a[1], &mut b[0]);
                std::mem::swap(&mut a.dyn_insts, &mut b.dyn_insts);
                std::mem::swap(&mut a.fault_sites, &mut b.fault_sites);
                std::mem::swap(&mut a.output_len, &mut b.output_len);
            }),
            ("a snapshot at its predecessor's instruction count", |set| {
                set.snaps[2].dyn_insts = set.snaps[1].dyn_insts;
            }),
            ("fault sites that descend", |set| set.snaps[2].fault_sites = set.snaps[1].fault_sites - 1),
            ("output that shrinks", |set| set.snaps[2].output_len = set.snaps[1].output_len - 1),
            ("a snapshot past the golden run's end", |set| {
                let last = set.snaps.last_mut().unwrap();
                (last.dyn_insts, last.fault_sites) = (set.golden.dyn_insts + 1, set.golden.fault_sites);
            }),
        ];
        for (what, edit) in edits {
            let mut bad = capture();
            edit(&mut bad);
            let err = load(&bad).expect_err(what);
            assert!(err.contains("snapshot counters"), "{what}: {err}");
        }
    }
}
