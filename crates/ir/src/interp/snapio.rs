//! Stable binary serialization for [`SnapshotSet`] — persisted next to a
//! campaign checkpoint so `--resume` skips the capture runs.
//!
//! Format (all integers little-endian), one envelope for both layers:
//!
//! ```text
//!   magic "FLSNAPIR" / "FLSNAPAS" | version u32 | content_hash u64
//!   mem_size u64 | stack_size u64            (base image is rebuilt, not stored)
//!   cadence tag u8 + value u64
//!   HEAD: golden result                      (the layer's payload)
//!   snapshot count u64
//!   per snapshot: dyn_insts u64, fault_sites u64,
//!                 SNAP: state, output length (the layer's payload)
//!                 page DELTA: record count u64, per record (ascending page):
//!                   page u32 | fresh mask u16 | base mask u16
//!                   the fresh blocks' bytes, in block order
//!   SITES (the capture run's SiteLog, no trace): region count u64,
//!         per region: mass u64, runs as u64s [sites before, first site]...
//!   fnv1a-64 checksum over everything above
//! ```
//!
//! Page overlays are cumulative and `Arc`-shared across snapshots, so each
//! snapshot stores only the pages whose version `Arc` differs from the
//! predecessor's entry. A page version is
//! [`PAGE_BLOCKS`](crate::interp::memory::PAGE_BLOCKS) blocks of
//! [`BLOCK_SIZE`] bytes (a trailing partial page has fewer, the last
//! possibly short): bit `i` of the fresh mask stores block `i`'s bytes, bit
//! `i` of the base mask resets it to the base image, and a block in neither
//! is inherited from the page's previous version (the base's, for a page
//! new to the overlay). The loader rebuilds each overlay as `prev.clone()`
//! plus the delta, which round-trips the sharing of pages and of blocks
//! without duplicating either.
//!
//! Loading never panics on bad input: the checksum is verified before any
//! parsing, and every length/index is validated against the program the
//! executor is bound to.
//!
//! The base image is rebuilt from that program as a compact [`BaseImage`]
//! (the globals' pages), so the file's `mem_size` is never allocated: a
//! geometry with no room for the stack and the globals is refused (checked
//! without overflow), any other waits for the caller's `matches_geometry`.

use crate::fnv1a;
use crate::interp::memory::{trap_code, trap_from, BaseImage, Page, PageMap, BLOCK_SIZE, PAGE_SIZE};
use crate::interp::snapshot::{Cadence, SiteLog, Snapshot, SnapshotSet};
use crate::interp::substrate::{Linked, RunResult, Substrate};
use crate::interp::ExecStatus;
use crate::module::Module;
use std::sync::Arc;

/// Version 1 also held a first-execution table, a shared-snapshot count and
/// a profile option per snapshot; version 2 had no SITES; version 3 stored
/// every changed page whole (page u32, length u32, bytes). Such files are
/// refused and recaptured.
const VERSION: u32 = 4;

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

pub fn w_bytes(w: &mut Vec<u8>, b: &[u8]) {
    w_u64(w, b.len() as u64);
    w.extend_from_slice(b);
}

pub fn w_u64s(w: &mut Vec<u8>, vs: &[u64]) {
    w_u64(w, vs.len() as u64);
    for &v in vs {
        w_u64(w, v);
    }
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

    /// A count of items that each occupy at least `elem` bytes — bounds the
    /// allocation a corrupt length field could otherwise trigger.
    pub fn count(&mut self, elem: usize) -> Result<usize, String> {
        let n = self.u64()?;
        let remaining = (self.b.len() - self.pos) as u64;
        if n.saturating_mul(elem as u64) > remaining {
            return Err("snapshot file: length field exceeds file size".into());
        }
        Ok(n as usize)
    }

    pub fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.count(1)?;
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

    /// Fill the empty `log` with the masses and runs of a run of `sites`
    /// fault sites, refused unless [`SiteLog::index`] is total on them: the
    /// masses sum to `sites`; run `i` covers the region's sites `[before_i,
    /// before_{i+1})` (the last ends at the mass) from global site `first_i`,
    /// and the runs start at 0, are non-empty and ascend inside the run.
    fn site_log(&mut self, log: &mut SiteLog, sites: u64) -> Result<(), String> {
        let bad = || "snapshot file: bad site log".to_string();
        if self.u64()? != log.masses.len() as u64 {
            return Err(bad());
        }
        for (mass, runs) in log.masses.iter_mut().zip(&mut log.runs) {
            *mass = self.u64()?;
            let words = self.u64s()?;
            *runs = words.chunks_exact(2).map(|w| (w[0], w[1])).collect();
            let mut ok = words.len() % 2 == 0 && runs.first().map_or(*mass, |r| r.0) == 0;
            let mut floor = 0;
            for (i, &(before, first)) in runs.iter().enumerate() {
                let end = runs.get(i + 1).map_or(*mass, |r| r.0);
                ok &= before < end && first >= floor;
                floor = first.saturating_add(end.saturating_sub(before));
            }
            if !ok || floor > sites {
                return Err(bad());
            }
        }
        match log.masses.iter().try_fold(0u64, |total, &m| total.checked_add(m)) {
            Some(total) if total == sites => Ok(()),
            _ => Err(bad()),
        }
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
        w_u64(&mut w, self.snaps.len() as u64);
        let (empty, unstored) = (PageMap::new(), Page::default());
        let mut prev = &empty;
        for s in &self.snaps {
            w_u64(&mut w, s.dyn_insts);
            w_u64(&mut w, s.fault_sites);
            S::encode_snap(&mut w, &s.state, s.output_len);
            // Overlays only grow; encode the pages whose version is new,
            // each against its previous version.
            debug_assert!(prev.keys().all(|k| s.pages.contains_key(k)));
            let mut delta: Vec<(u32, &Page, &Page)> = s
                .pages
                .iter()
                .filter_map(|(&k, v)| match prev.get(&k) {
                    Some(old) if Arc::ptr_eq(old, v) => None,
                    old => Some((k, &**v, old.map_or(&unstored, |old| &**old))),
                })
                .collect();
            delta.sort_unstable_by_key(|&(k, ..)| k);
            w_u64(&mut w, delta.len() as u64);
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
                w_u32(&mut w, k);
                w_u16(&mut w, fresh);
                w_u16(&mut w, based);
                let stored = new
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| b.as_deref().filter(|_| fresh & 1 << i != 0));
                for data in stored {
                    w.extend_from_slice(data);
                }
            }
            prev = &s.pages;
        }
        w_u64(&mut w, self.sites.masses.len() as u64);
        for (&mass, runs) in self.sites.masses.iter().zip(&self.sites.runs) {
            w_u64(&mut w, mass);
            w_u64s(&mut w, &runs.iter().flat_map(|&(before, first)| [before, first]).collect::<Vec<_>>());
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
        let golden = S::decode_head(&mut c, exec)?;
        let n_snaps = c.count(8)?;
        let mut snaps = Vec::with_capacity(n_snaps);
        let mut prev = PageMap::new();
        for _ in 0..n_snaps {
            let dyn_insts = c.u64()?;
            let fault_sites = c.u64()?;
            let (state, output_len) = S::decode_snap(&mut c, exec)?;
            if output_len > golden.head().output.len() {
                return Err("snapshot file: snapshot output length exceeds golden output".into());
            }
            let n_delta = c.count(8)?;
            let mut pages = prev.clone();
            let mut last = None;
            for _ in 0..n_delta {
                let (page, fresh, based) = (c.u32()?, c.u16()?, c.u16()?);
                let start = u64::from(page) * PAGE_SIZE;
                if start >= base.size || last >= Some(page) {
                    return Err("snapshot file: bad page record".into());
                }
                last = Some(page);
                let len = (base.size - start).min(PAGE_SIZE) as usize;
                if fresh & based != 0 || u32::from(fresh | based) >> len.div_ceil(BLOCK_SIZE) != 0 {
                    return Err("snapshot file: bad block masks".into());
                }
                let mut blocks = prev.get(&page).map_or_else(Page::default, |old| (**old).clone());
                for (i, block) in blocks.iter_mut().enumerate() {
                    if based & 1 << i != 0 {
                        *block = None;
                    } else if fresh & 1 << i != 0 {
                        let at = i * BLOCK_SIZE;
                        *block = Some(Arc::from(c.take(BLOCK_SIZE.min(len - at))?));
                    }
                }
                pages.insert(page, Arc::new(blocks));
            }
            prev = pages.clone();
            snaps.push(Snapshot { dyn_insts, fault_sites, output_len, state, pages });
        }
        let mut sites = SiteLog::new(S::site_regions(exec), 0);
        c.site_log(&mut sites, golden.head().fault_sites)?;
        sites.close(golden.head().fault_sites);
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
