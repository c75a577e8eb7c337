//! Persistence round-trip for snapshot sets: capture → serialize →
//! deserialize → fast-forward must be **bit-identical** to fast-forward
//! off the freshly captured set (and hence to scratch execution, which
//! `snapshot_equivalence.rs` pins) at every sampled fault site, at both
//! layers. Corrupt, truncated, or mismatched files must be rejected with
//! an error — never a panic, never a silently wrong set.

use flowery_ir::interp::{ExecConfig, FaultSpec, Interpreter, IrScratch};
use proptest::prelude::*;

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

        // Unprofiled sets, then profiled ones (which also persist the
        // per-snapshot profile accumulators).
        for profile in [false, true] {
            let exec = ExecConfig { profile, ..ExecConfig::default() };

            // IR layer: every Nth fault site, spanning the whole dynamic range.
            let interp = Interpreter::new(&m);
            let set = interp.capture_snapshots_auto(&exec);
            let loaded = flowery_ir::interp::IrSnapshotSet::from_bytes(&set.to_bytes(hash), &m, hash);
            prop_assert!(loaded.is_ok(), "round trip must load: {:?}", loaded.err());
            let loaded = loaded.unwrap();
            prop_assert_eq!(loaded.golden(), set.golden(), "golden run survives the round trip");
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
                let (fresh, s1) = interp.run_fast_forward(&trial, spec, &set, &mut scratch);
                let (reload, s2) = interp.run_fast_forward(&trial, spec, &loaded, &mut scratch);
                prop_assert_eq!(s1, s2, "skipped prefix @ site {}", site);
                prop_assert_eq!(&fresh, &reload, "IR trial @ site {} bit {} profile {}\n{}", site, bit, profile, &src);
            }

            // Assembly layer.
            let mach = flowery_backend::Machine::new(&m, &prog);
            let set = mach.capture_snapshots_auto(&exec);
            let loaded = flowery_backend::AsmSnapshotSet::from_bytes(&set.to_bytes(hash), &m, &prog, hash);
            prop_assert!(loaded.is_ok(), "asm round trip must load: {:?}", loaded.err());
            let loaded = loaded.unwrap();
            prop_assert_eq!(loaded.golden(), set.golden());
            let sites = set.golden().fault_sites;
            let step = (sites / 24).max(1);
            let mut scratch = flowery_backend::AsmScratch::new();
            let trial = ExecConfig { profile, ..ExecConfig::with_budget_for(set.golden().dyn_insts) };
            for site in (0..sites).step_by(step as usize) {
                let spec = flowery_backend::AsmFaultSpec::single(site, u32::from(bit));
                let (fresh, s1) = mach.run_fast_forward(&trial, spec, &set, &mut scratch);
                let (reload, s2) = mach.run_fast_forward(&trial, spec, &loaded, &mut scratch);
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
/// every snapshot header and page-delta header, page data and the
/// checksum — where the old stride-13 sweep over an auto-cadence set
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
    let mut bytes = set.to_bytes(42);
    assert!(bytes.len() < 96 << 10, "keep the sweep cheap: {} bytes", bytes.len());
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
    let mut vbump = bytes.clone();
    vbump[8] = vbump[8].wrapping_add(1);
    let body_len = vbump.len() - 8;
    let sum = flowery_ir::fnv1a(&vbump[..body_len]); // the checksum the writer uses
    vbump[body_len..].copy_from_slice(&sum.to_le_bytes());
    let err = flowery_ir::interp::IrSnapshotSet::from_bytes(&vbump, &m, 42).unwrap_err();
    assert!(err.contains("version"), "want a version error, got: {err}");

    // Same checks on the assembly format.
    let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
    let mach = flowery_backend::Machine::new(&m, &prog);
    let cadence = mach.run(&exec, None).dyn_insts / 4;
    let set = mach.capture_snapshots(&exec, cadence);
    assert!(set.len() >= 3, "want several snapshots (and page deltas) in the file, got {}", set.len());
    let mut bytes = set.to_bytes(42);
    assert!(bytes.len() < 96 << 10, "keep the sweep cheap: {} bytes", bytes.len());
    let load = |b: &[u8]| flowery_backend::AsmSnapshotSet::from_bytes(b, &m, &prog, 42).is_ok();
    assert!(flowery_backend::AsmSnapshotSet::from_bytes(&bytes, &m, &prog, 43).is_err());
    every_flip_is_rejected(&mut bytes, "asm", load);
    for len in [0, 4, 8, 11, 20, bytes.len() / 2, bytes.len() - 1] {
        assert!(!load(&bytes[..len]), "asm truncation to {len} bytes must be rejected");
    }
}
