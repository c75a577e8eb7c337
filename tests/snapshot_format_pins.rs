//! Format stability of persisted snapshot sets: the FNV-1a of
//! `to_bytes(hash)` for one fixed program, at each layer. A file written by
//! any build of the same format version must still load, so these bytes
//! may never change while `snapio::VERSION` stays 5.
//!
//! Version 1 was written by every build through PR 17 (pins `ab3a…29dc` /
//! `5d49…2e8e` IR, `72f9…119f` / `1a2b…d29e` asm, golden profile off / on):
//! it also held the first-execution table, a shared-snapshot count and a
//! profile option per snapshot. Version 2 dropped them (pins `0a12…9b10` /
//! `169c…cf07` IR, `f406…bed5` / `289a…ec1e` asm). Version 3 appended the
//! capture run's site log (pins `862a…a2cd` / `8f11…a121` IR, `1bf1…dee0` /
//! `5a54…5dc6` asm). Version 4 stored a changed page as the 256-byte blocks
//! that differ from its previous version (pins `7d1b…c918` / `db5a…0293`
//! IR, `8bd5…9dcd` / `d5fc…2e8a` asm). Version 5 codes each fresh block,
//! frame and register file as zero-run-coded XOR against what the reader
//! already holds, counters and site runs as LEB128 deltas, and drops the
//! golden profile, so no earlier pin carries over; each test also checks
//! that the pinned bytes decode to a set that encodes back to them, which
//! holds only if decoding keeps every shared page and block.

use flowery_backend::{compile_module, AsmSnapshotSet, BackendConfig, Machine};
use flowery_ir::interp::{ExecConfig, Interpreter, IrSnapshotSet};

const SRC: &str = "global int arr[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};\n\
    int work(int x) {\n\
      int j; int t = x;\n\
      for (j = 0; j < 12; j = j + 1) {\n\
        t = t + arr[((t + j) % 16 + 16) % 16] * (j + 1);\n\
        arr[(t % 16 + 16) % 16] = t % 1009;\n\
      }\n\
      return t;\n\
    }\n\
    int main() {\n\
      int i; int s = 0;\n\
      for (i = 0; i < 40; i = i + 1) {\n\
        s = s + work(i);\n\
        if (s % 5 == 0) { output(s); }\n\
      }\n\
      output(s);\n\
      return s & 65535;\n\
    }\n";

const HASH: u64 = 0x5EED_F10E_0000_0013;

/// Version-5 pins.
const IR_V5: u64 = 0x766c_71e1_1121_4c92;
const ASM_V5: u64 = 0x9918_7b1e_296a_4831;

#[test]
fn ir_set_bytes_are_pinned() {
    let m = flowery_lang::compile("pins", SRC).unwrap();
    let set = Interpreter::new(&m).capture_snapshots_auto(&ExecConfig::default());
    assert!(set.len() > 8, "the pinned program must snapshot: {}", set.len());
    let bytes = set.to_bytes(HASH);
    assert_eq!(flowery_ir::fnv1a(&bytes), IR_V5, "IR set bytes changed");
    let decoded = IrSnapshotSet::from_bytes(&bytes, &m, HASH).expect("the pinned file loads");
    assert!(decoded.to_bytes(HASH) == bytes, "IR decode must keep the sharing");
}

#[test]
fn asm_set_bytes_are_pinned() {
    let m = flowery_lang::compile("pins", SRC).unwrap();
    let p = compile_module(&m, &BackendConfig::default());
    let set = Machine::new(&m, &p).capture_snapshots_auto(&ExecConfig::default());
    assert!(set.len() > 8, "the pinned program must snapshot: {}", set.len());
    let bytes = set.to_bytes(HASH);
    assert_eq!(flowery_ir::fnv1a(&bytes), ASM_V5, "asm set bytes changed");
    let decoded = AsmSnapshotSet::from_bytes(&bytes, &m, &p, HASH).expect("the pinned file loads");
    assert!(decoded.to_bytes(HASH) == bytes, "asm decode must keep the sharing");
}
