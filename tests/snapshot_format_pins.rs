//! Format stability of persisted snapshot sets: the FNV-1a of
//! `to_bytes(hash)` for one fixed program, at each layer, with the golden
//! profile on and off. A file written by any build of the same format
//! version must still load, so these bytes may never change while
//! `snapio::VERSION` stays 2.
//!
//! Version 1 was written by every build through PR 17 (pins `ab3a…29dc` /
//! `5d49…2e8e` IR, `72f9…119f` / `1a2b…d29e` asm): it also held the
//! first-execution table, a shared-snapshot count and a profile option per
//! snapshot. The build that removed cross-variant prefix sharing dropped
//! them, recorded the four pins below, and refuses a version-1 file.

use flowery_backend::{compile_module, BackendConfig, Machine};
use flowery_ir::interp::{ExecConfig, Interpreter};

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

fn cfg(profile: bool) -> ExecConfig {
    ExecConfig { profile, ..ExecConfig::default() }
}

#[test]
fn ir_set_bytes_are_pinned() {
    let m = flowery_lang::compile("pins", SRC).unwrap();
    let interp = Interpreter::new(&m);
    for (profile, pin) in [(false, 0x0a12_7a6b_5c43_9b10_u64), (true, 0x169c_a988_6310_cf07)] {
        let set = interp.capture_snapshots_auto(&cfg(profile));
        assert!(set.len() > 8, "the pinned program must snapshot: {}", set.len());
        assert_eq!(flowery_ir::fnv1a(&set.to_bytes(HASH)), pin, "IR set bytes changed (profile {profile})");
    }
}

#[test]
fn asm_set_bytes_are_pinned() {
    let m = flowery_lang::compile("pins", SRC).unwrap();
    let p = compile_module(&m, &BackendConfig::default());
    let mach = Machine::new(&m, &p);
    for (profile, pin) in [(false, 0xf406_af9a_04ee_bed5_u64), (true, 0x289a_689e_3356_ec1e)] {
        let set = mach.capture_snapshots_auto(&cfg(profile));
        assert!(set.len() > 8, "the pinned program must snapshot: {}", set.len());
        assert_eq!(flowery_ir::fnv1a(&set.to_bytes(HASH)), pin, "asm set bytes changed (profile {profile})");
    }
}
