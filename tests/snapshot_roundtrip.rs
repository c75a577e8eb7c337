//! Persistence round-trip for snapshot sets: capture → serialize →
//! deserialize → fast-forward must be **bit-identical** to fast-forward
//! off the freshly captured set (and hence to scratch execution, which
//! `snapshot_equivalence.rs` pins) at every sampled fault site, at both
//! layers. Corrupt, truncated, or mismatched files must be rejected with
//! an error — never a panic, never a silently wrong set.

use flowery_ir::interp::substrate;
use flowery_ir::interp::{ExecConfig, FaultSpec, Interpreter, IrScratch, IrSnapshotSet, PAGE_SIZE};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The system allocator, noting the largest single allocation the current
/// thread makes inside [`largest_allocation`].
struct Noting;

thread_local! {
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the note is a const-initialised thread-local
// `Cell` that never allocates.
unsafe impl GlobalAlloc for Noting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().map(|m| m.max(layout.size()))));
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Noting = Noting;

/// `f`'s result and the largest single allocation it made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(Some(0)));
    let out = f();
    (out, LARGEST.with(|l| l.replace(None)).expect("set above"))
}

fn program(outer: u32, inner: u32, modulus: u32) -> String {
    format!(
        "global int arr[16] = {{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}};\n\
         int work(int x) {{\n\
           int j; int t = x;\n\
           for (j = 0; j < {inner}; j = j + 1) {{\n\
             t = t + arr[((t + j) % 16 + 16) % 16] * (j + 1);\n\
             arr[(t % 16 + 16) % 16] = t % {modulus};\n\
           }}\n\
           return t;\n\
         }}\n\
         int main() {{\n\
           int i; int s = 0;\n\
           for (i = 0; i < {outer}; i = i + 1) {{\n\
             s = s + work(i);\n\
             if (s % 5 == 0) {{ output(s); }}\n\
           }}\n\
           output(s);\n\
           return s & 65535;\n\
         }}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, max_shrink_iters: 50, ..ProptestConfig::default() })]

    #[test]
    fn reloaded_sets_fast_forward_bit_identically(
        ((outer, inner), modulus, bit) in ((10u32..60, 4u32..20), 97u32..9973, 0u8..64)
    ) {
        let src = program(outer, inner, modulus);
        let m = flowery_lang::compile("snapio", &src)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));
        let hash = 0xD15C0 ^ (u64::from(outer) << 32) ^ u64::from(inner);
        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());

        // Unprofiled sets, then profiled ones: a file keeps no golden
        // profile, so the loaded golden is the captured one without it.
        for profile in [false, true] {
            let exec = ExecConfig { profile, ..ExecConfig::default() };

            // IR layer: every Nth fault site, spanning the whole dynamic range.
            let interp = Interpreter::new(&m);
            let set = interp.capture_snapshots_auto(&exec);
            let loaded = flowery_ir::interp::IrSnapshotSet::from_bytes(&set.to_bytes(hash), &m, hash);
            prop_assert!(loaded.is_ok(), "round trip must load: {:?}", loaded.err());
            let loaded = loaded.unwrap();
            let golden = flowery_ir::interp::ExecResult { profile: None, ..set.golden().clone() };
            prop_assert_eq!(loaded.golden(), &golden, "golden run survives the round trip");
            prop_assert_eq!(loaded.len(), set.len());
            let sites = set.golden().fault_sites;
            let step = (sites / 24).max(1);
            let mut scratch = IrScratch::new();
            // Trials run under the campaign's livelock budget (4x the golden
            // run), as `TrialRunner` does: a flipped loop counter must not
            // spin to the 200M-instruction default — that, not the codec,
            // was what made this suite the tier-1 long pole.
            let trial = ExecConfig { profile, ..ExecConfig::with_budget_for(set.golden().dyn_insts) };
            for site in (0..sites).step_by(step as usize) {
                let spec = FaultSpec::single(site, u32::from(bit));
                let (fresh, s1, _) = substrate::trial(&interp, &trial, spec, Some(&set), &mut scratch);
                let (reload, s2, _) = substrate::trial(&interp, &trial, spec, Some(&loaded), &mut scratch);
                prop_assert_eq!(s1, s2, "skipped prefix @ site {}", site);
                prop_assert_eq!(&fresh, &reload, "IR trial @ site {} bit {} profile {}\n{}", site, bit, profile, &src);
            }

            // Assembly layer.
            let mach = flowery_backend::Machine::new(&m, &prog);
            let set = mach.capture_snapshots_auto(&exec);
            let loaded = flowery_backend::AsmSnapshotSet::from_bytes(&set.to_bytes(hash), &m, &prog, hash);
            prop_assert!(loaded.is_ok(), "asm round trip must load: {:?}", loaded.err());
            let loaded = loaded.unwrap();
            let golden = flowery_backend::MachResult { profile: None, ..set.golden().clone() };
            prop_assert_eq!(loaded.golden(), &golden);
            let sites = set.golden().fault_sites;
            let step = (sites / 24).max(1);
            let mut scratch = flowery_backend::AsmScratch::new();
            let trial = ExecConfig { profile, ..ExecConfig::with_budget_for(set.golden().dyn_insts) };
            for site in (0..sites).step_by(step as usize) {
                let spec = flowery_backend::AsmFaultSpec::single(site, u32::from(bit));
                let (fresh, s1, _) = substrate::trial(&mach, &trial, spec, Some(&set), &mut scratch);
                let (reload, s2, _) = substrate::trial(&mach, &trial, spec, Some(&loaded), &mut scratch);
                prop_assert_eq!(s1, s2, "asm skipped prefix @ site {}", site);
                prop_assert_eq!(&fresh, &reload, "asm trial @ site {} bit {} profile {}\n{}", site, bit, profile, &src);
            }
        }
    }
}

/// Flip every byte of `bytes` in turn (restoring it afterwards) and demand
/// that `load` rejects each corrupted file.
fn every_flip_is_rejected(bytes: &mut [u8], what: &str, load: impl Fn(&[u8]) -> bool) {
    for i in 0..bytes.len() {
        bytes[i] ^= 0x40;
        assert!(!load(bytes), "{what}: flip at byte {i} of {} must be rejected", bytes.len());
        bytes[i] ^= 0x40;
    }
    assert!(load(bytes), "{what}: the restored file must load again");
}

/// Every single-byte corruption and every truncation must fail the
/// checksum (or a later validation) — `from_bytes` returns `Err`, it
/// never panics and never yields a set.
///
/// Each flip re-hashes the whole file, so the sweep's cost is quadratic in
/// the file size. The sets here are captured at a coarse explicit cadence
/// on a short program: a few snapshots, each with its page delta, in a
/// file small enough to flip *every* byte — every field of the envelope
/// (magic, version, content hash, geometry, cadence), the head payload,
/// every snapshot header and page-delta header, page data, the site log's
/// masses and runs, and the checksum — where the old stride-13 sweep over an auto-cadence set
/// skipped twelve bytes in thirteen.
#[test]
fn corrupted_and_mismatched_files_are_rejected() {
    let src = program(6, 4, 251);
    let m = flowery_lang::compile("snapio", &src).unwrap();
    let exec = ExecConfig::default();
    let interp = Interpreter::new(&m);
    let cadence = interp.run(&exec, None).dyn_insts / 4;
    let set = interp.capture_snapshots(&exec, cadence);
    assert!(set.len() >= 3, "want several snapshots (and page deltas) in the file, got {}", set.len());
    assert!(
        set.sites().mass(0) > 0 && set.sites().mass(1) > 0,
        "want runs of two regions in the site log"
    );
    let mut bytes = set.to_bytes(42);
    assert!(bytes.len() < 96 << 10, "keep the sweep cheap: {} bytes", bytes.len());
    assert_eq!(bytes[8..12], 5u32.to_le_bytes(), "the sweep covers the current format, version 5");
    let load = |b: &[u8]| flowery_ir::interp::IrSnapshotSet::from_bytes(b, &m, 42).is_ok();

    // Wrong module hash: the file is intact but belongs to another program.
    assert!(flowery_ir::interp::IrSnapshotSet::from_bytes(&bytes, &m, 43).is_err());

    every_flip_is_rejected(&mut bytes, "ir", load);

    // Truncations, including mid-header and the empty file.
    for len in [0, 4, 8, 11, 20, bytes.len() / 2, bytes.len() - 1] {
        assert!(!load(&bytes[..len]), "truncation to {len} bytes must be rejected");
    }

    // A bumped version field (bytes 8..12, after the 8-byte magic) must be
    // rejected even with the checksum recomputed to match.
    let vbump = resealed(&bytes, |b| b[8] = b[8].wrapping_add(1));
    let err = flowery_ir::interp::IrSnapshotSet::from_bytes(&vbump, &m, 42).unwrap_err();
    assert!(err.contains("version"), "want a version error, got: {err}");

    // Same checks on the assembly format.
    let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
    let mach = flowery_backend::Machine::new(&m, &prog);
    let cadence = mach.run(&exec, None).dyn_insts / 4;
    let set = mach.capture_snapshots(&exec, cadence);
    assert!(set.len() >= 3, "want several snapshots (and page deltas) in the file, got {}", set.len());
    assert!(
        set.sites().mass(0) > 0 && set.sites().mass(1) > 0,
        "want runs of two regions in the site log"
    );
    let mut bytes = set.to_bytes(42);
    assert!(bytes.len() < 96 << 10, "keep the sweep cheap: {} bytes", bytes.len());
    let load = |b: &[u8]| flowery_backend::AsmSnapshotSet::from_bytes(b, &m, &prog, 42).is_ok();
    assert!(flowery_backend::AsmSnapshotSet::from_bytes(&bytes, &m, &prog, 43).is_err());
    every_flip_is_rejected(&mut bytes, "asm", load);
    for len in [0, 4, 8, 11, 20, bytes.len() / 2, bytes.len() - 1] {
        assert!(!load(&bytes[..len]), "asm truncation to {len} bytes must be rejected");
    }
}

/// `bytes` with `edit` applied to the body and the checksum recomputed.
fn resealed(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut body = bytes[..bytes.len() - 8].to_vec();
    edit(&mut body);
    let sum = flowery_ir::fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Decode `bad` with `load`, demanding an `Err` naming one of `words`, no
/// panic, and no allocation larger than the file or `shape`, the largest
/// that loading the intact file makes (the snapshot list, a frame's slots).
fn refused_cheaply<T>(what: &str, bad: &[u8], words: &[&str], shape: usize, load: impl Fn(&[u8]) -> Result<T, String>) {
    let (loaded, largest) = largest_allocation(|| catch_unwind(AssertUnwindSafe(|| load(bad))));
    let Err(err) = loaded.unwrap_or_else(|_| panic!("{what}: the decoder panicked")) else {
        panic!("{what}: loaded");
    };
    assert!(words.iter().any(|w| err.contains(w)), "{what}: {err}");
    assert!(
        largest <= bad.len().max(shape),
        "{what}: a {largest}-byte allocation from a {}-byte file",
        bad.len()
    );
}

/// RUNS of `x` (see `snapio`).
fn runs(x: &[u8]) -> Vec<u8> {
    let mut w = Vec::new();
    flowery_ir::interp::snapio::w_runs(&mut w, x);
    w
}

/// One (zero run, literal run) pair and its literal bytes.
fn pair(zeros: usize, literal: &[u8]) -> Vec<u8> {
    let mut w = Vec::new();
    flowery_ir::interp::snapio::w_leb(&mut w, zeros as u64);
    flowery_ir::interp::snapio::w_bytes(&mut w, literal);
    w
}

/// Block records a writer never emits, each in a file whose checksum is
/// valid: the decoder must return `Err` — no panic — and allocate nothing
/// larger than the file or than loading the intact file does. The memory size leaves a trailing partial page of
/// 1,000 bytes (four blocks, the last 232 bytes long) at the stack top; a
/// record of that page, the last of its snapshot's, is found by its bytes:
/// the pages skipped since the snapshot's previous record, its masks, and
/// its fresh blocks coded against their previous versions.
#[test]
fn crafted_block_records_are_refused() {
    let m = flowery_lang::compile("snapio", &program(30, 6, 251)).unwrap();
    let cfg = ExecConfig { mem_size: (4 << 20) + 1000, ..ExecConfig::default() };
    let interp = Interpreter::new(&m);
    let set = interp.capture_snapshots(&cfg, interp.run(&cfg, None).dyn_insts / 32);
    let bytes = set.to_bytes(42);
    let load = |b: &[u8]| IrSnapshotSet::from_bytes(b, &m, 42);
    let (intact, shape) = largest_allocation(|| load(&bytes));
    assert!(intact.is_ok_and(|l| l.matches_geometry(cfg.mem_size, cfg.stack_size)));

    // The last snapshot that re-stores the stack top, so that a cut inside
    // its record leaves most of the file.
    let top = (cfg.mem_size / PAGE_SIZE) as u32;
    let snaps = set.snapshots();
    let k = (1..snaps.len())
        .rev()
        .find(|&k| !Arc::ptr_eq(&snaps[k - 1].pages[&top], &snaps[k].pages[&top]))
        .expect("test premise: the stack top changes between snapshots");
    let (old, new) = (&snaps[k - 1].pages[&top], &snaps[k].pages[&top]);
    let below = snaps[k]
        .pages
        .iter()
        .filter(|&(&p, v)| p < top && snaps[k - 1].pages.get(&p).is_none_or(|o| !Arc::ptr_eq(o, v)))
        .map(|(&p, _)| p + 1)
        .max()
        .unwrap_or(0);
    let (mut fresh, mut based) = (0u16, 0u16);
    let mut coded = Vec::new();
    for (i, (n, o)) in new.iter().zip(old.iter()).enumerate() {
        match (n, o) {
            (Some(n), Some(o)) if Arc::ptr_eq(n, o) => {}
            (Some(n), _) => {
                fresh |= 1 << i;
                let x: Vec<u8> = match o {
                    Some(o) => n.iter().zip(o.iter()).map(|(a, b)| a ^ b).collect(),
                    None => n.to_vec(),
                };
                coded.push((n.len(), runs(&x)));
            }
            (None, Some(_)) => based |= 1 << i,
            (None, None) => {}
        }
    }
    let mut record = Vec::new();
    flowery_ir::interp::snapio::w_leb(&mut record, u64::from(top - below));
    record.extend_from_slice(&[fresh.to_le_bytes(), based.to_le_bytes()].concat());
    let head = record.len();
    record.extend(coded.iter().flat_map(|(_, c)| c.clone()));
    let at = bytes
        .windows(record.len())
        .position(|w| w == record)
        .expect("the record is in the file");
    let masks = |fresh: u16, based: u16| {
        resealed(&bytes, |b| {
            b[at + head - 4..at + head - 2].copy_from_slice(&fresh.to_le_bytes());
            b[at + head - 2..at + head].copy_from_slice(&based.to_le_bytes());
        })
    };
    let (first_len, first) = &coded[0];
    let first_block = |runs: Vec<u8>| resealed(&bytes, |b| drop(b.splice(at + head..at + head + first.len(), runs)));
    let cases = [
        ("a fresh bit past the partial page's four blocks", masks(fresh | 1 << 4, based)),
        ("a base bit past the partial page's four blocks", masks(fresh, based | 1 << 15)),
        ("overlapping fresh and base masks", masks(fresh, based | fresh)),
        ("a truncated fresh block", resealed(&bytes, |b| b.truncate(at + head + first.len() / 2))),
        ("a zero run past the block's end", first_block(pair(first_len + 1, &[]))),
        ("a literal run past the block's end", first_block(pair(0, &vec![7; first_len + 1]))),
    ];
    for (what, bad) in cases {
        refused_cheaply(what, &bad, &["block", "truncated", "run"], shape, load);
    }
}

/// A tiny reader over a v5 IR file, for finding a field to craft.
struct Fields<'a>(&'a [u8], usize);

impl Fields<'_> {
    fn skip(&mut self, n: usize) {
        self.1 += n;
    }

    fn leb(&mut self) -> u64 {
        let mut v = 0;
        for shift in (0..).step_by(7) {
            let b = self.0[self.1];
            self.1 += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return v;
            }
        }
        unreachable!()
    }

    /// Step over RUNS coding `len` bytes.
    fn runs(&mut self, len: usize) {
        let mut at = 0;
        while at < len {
            let (zeros, lit) = (self.leb() as usize, self.leb() as usize);
            self.skip(lit);
            at += zeros + lit;
        }
    }
}

/// Frames a writer never emits: the first snapshot's bottom frame, `main`,
/// with its value runs replaced. The file holds no slot count — the reader
/// takes `main`'s — so a frame coded with a slot more or fewer than its
/// function has leaves a run that passes the end or stops short of it. A
/// literal run split in two codes the right bytes, but not as the writer
/// would: it is refused too, so that every file that loads re-encodes to
/// itself.
#[test]
fn crafted_frames_are_refused() {
    let m = flowery_lang::compile("snapio", &program(30, 6, 251)).unwrap();
    let cfg = ExecConfig::default();
    let interp = Interpreter::new(&m);
    let set = interp.capture_snapshots(&cfg, interp.run(&cfg, None).dyn_insts / 32);
    let bytes = set.to_bytes(42);
    let load = |b: &[u8]| IrSnapshotSet::from_bytes(b, &m, 42);
    let shape = largest_allocation(|| load(&bytes)).1;
    let golden = set.golden();
    // The envelope, the head (completed status, output, counters, no
    // injection), the snapshot count and the first snapshot's counters,
    // stack pointer and frame count.
    let mut f = Fields(&bytes, 45);
    assert!(matches!(golden.status, flowery_ir::interp::ExecStatus::Completed(_)));
    f.skip(9);
    let out = f.leb() as usize;
    f.skip(out + 17);
    for _ in 0..4 {
        f.leb();
    }
    f.skip(8);
    f.leb();
    let main = f.leb() as usize;
    assert_eq!(m.functions[main].name, "main", "test premise: the bottom frame runs main");
    f.leb();
    f.leb();
    f.skip(9);
    let (start, slots) = (f.1, m.functions[main].insts.len());
    f.runs(slots * 8);
    let values = |runs: Vec<u8>| resealed(&bytes, |b| drop(b.splice(start..f.1, runs)));
    assert_eq!(values(bytes[start..f.1].to_vec()), bytes, "test premise: the runs found are the frame's");
    let cases = [
        ("a literal run past the frame's slot count", values(pair(0, &vec![1; slots * 8 + 1]))),
        (
            "a frame coded with one slot more than its function",
            values(runs(&vec![0; slots * 8 + 8])),
        ),
        (
            "a frame coded with one slot fewer than its function",
            values(runs(&vec![0; slots * 8 - 8])),
        ),
        (
            "a literal run split in two",
            values([pair(0, &[1; 4]), pair(0, &vec![1; slots * 8 - 4])].concat()),
        ),
    ];
    for (what, bad) in cases {
        refused_cheaply(what, &bad, &["run"], shape, load);
    }
}

/// Every single-byte edit of a small file at each layer, resealed so the
/// checksum passes: the decoder refuses the mutant, or loads a set that
/// encodes back to the mutant byte for byte (every encoding is canonical).
/// It never panics, and allocates no more than the file or twice what
/// loading the intact file does.
#[test]
fn resealed_mutants_are_refused_or_reencode_to_themselves() {
    fn sweep(what: &str, bytes: &[u8], load: impl Fn(&[u8]) -> Result<Vec<u8>, String>) {
        let (intact, shape) = largest_allocation(|| load(bytes));
        assert_eq!(intact.as_deref(), Ok(bytes), "{what}: the intact file re-encodes to itself");
        let mut loaded = 0;
        for i in 0..bytes.len() - 8 {
            for edit in [0x01u8, 0x80, 0xff] {
                let bad = resealed(bytes, |b| b[i] ^= edit);
                let (out, largest) = largest_allocation(|| catch_unwind(AssertUnwindSafe(|| load(&bad))));
                let out = out.unwrap_or_else(|_| panic!("{what}: byte {i} ^ {edit:#x} panicked"));
                if let Ok(again) = out {
                    assert!(again == bad, "{what}: byte {i} ^ {edit:#x} loaded but re-encodes otherwise");
                    loaded += 1;
                }
                assert!(
                    largest <= bad.len().max(2 * shape),
                    "{what}: byte {i} ^ {edit:#x}: a {largest}-byte allocation"
                );
            }
        }
        assert!(loaded > 0, "{what}: some mutants (a literal byte, a stack pointer) load");
    }
    let m = flowery_lang::compile("snapio", &program(6, 4, 251)).unwrap();
    let exec = ExecConfig::default();
    let interp = Interpreter::new(&m);
    let set = interp.capture_snapshots(&exec, interp.run(&exec, None).dyn_insts / 4);
    assert!(set.len() >= 3, "want several snapshots, got {}", set.len());
    sweep("ir", &set.to_bytes(42), |b| IrSnapshotSet::from_bytes(b, &m, 42).map(|s| s.to_bytes(42)));
    let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
    let mach = flowery_backend::Machine::new(&m, &prog);
    let set = mach.capture_snapshots(&exec, mach.run(&exec, None).dyn_insts / 4);
    assert!(set.len() >= 3, "want several snapshots, got {}", set.len());
    sweep("asm", &set.to_bytes(42), |b| {
        flowery_backend::AsmSnapshotSet::from_bytes(b, &m, &prog, 42).map(|s| s.to_bytes(42))
    });
}

/// `bytes` with its memory geometry (bytes 20..36: after the magic, the
/// version and the content hash) replaced and the checksum recomputed.
fn with_geometry(bytes: &[u8], mem_size: u64, stack_size: u64) -> Vec<u8> {
    resealed(bytes, |b| {
        b[20..28].copy_from_slice(&mem_size.to_le_bytes());
        b[28..36].copy_from_slice(&stack_size.to_le_bytes());
    })
}

/// A file whose checksum is valid but whose memory geometry is absurd is
/// refused, or loads as a set `matches_geometry` refuses — the loader never
/// panics and never allocates the `mem_size` the file claims.
#[test]
fn untrusted_geometry_is_refused_without_allocating() {
    // 4,800 bytes of globals: more than the one page above the guard page.
    let src = "global int table[600];\n\
               int main() {\n\
                 int i; int s = 0;\n\
                 for (i = 0; i < 40; i = i + 1) { table[i * 15] = i * i; s = s + table[i * 15]; }\n\
                 output(s);\n\
                 return s & 255;\n\
               }\n";
    let m = flowery_lang::compile("geometry", src).unwrap();
    let exec = ExecConfig::default();
    let ir = Interpreter::new(&m).capture_snapshots(&exec, 64).to_bytes(42);
    let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
    let asm = flowery_backend::Machine::new(&m, &prog)
        .capture_snapshots(&exec, 64)
        .to_bytes(42);
    let (mem, stack) = (exec.mem_size, exec.stack_size);
    let cases = [
        ("mem_size u64::MAX", u64::MAX, stack, false),
        ("mem_size = stack_size = u64::MAX", u64::MAX, u64::MAX, true),
        ("room for the stack, not the globals", mem, mem - 0x2000, true),
        ("a 1 TB image", 1 << 40, stack, false),
    ];
    for (what, mem_size, stack_size, must_fail) in cases {
        let loaded = [
            flowery_ir::interp::IrSnapshotSet::from_bytes(&with_geometry(&ir, mem_size, stack_size), &m, 42)
                .map(|set| set.matches_geometry(mem, stack)),
            flowery_backend::AsmSnapshotSet::from_bytes(&with_geometry(&asm, mem_size, stack_size), &m, &prog, 42)
                .map(|set| set.matches_geometry(mem, stack)),
        ];
        for (layer, loaded) in ["ir", "asm"].into_iter().zip(loaded) {
            match loaded {
                Err(e) => assert!(e.contains("geometry"), "{layer}, {what}: want a geometry error, got: {e}"),
                Ok(matches) => {
                    assert!(!must_fail, "{layer}, {what}: must be refused");
                    assert!(!matches, "{layer}, {what}: the set must not match the campaign's geometry");
                }
            }
        }
    }
    // The unmodified geometries, rewritten in place, still load and match.
    assert!(flowery_ir::interp::IrSnapshotSet::from_bytes(&with_geometry(&ir, mem, stack), &m, 42)
        .is_ok_and(|set| set.matches_geometry(mem, stack)));
    assert!(
        flowery_backend::AsmSnapshotSet::from_bytes(&with_geometry(&asm, mem, stack), &m, &prog, 42)
            .is_ok_and(|set| set.matches_geometry(mem, stack))
    );
}
