//! Native x86-64 JIT executor (`--executor native`).
//!
//! The whole [`AsmProgram`] is lowered once per [`crate::machine::Machine`]
//! to host machine code in an mmap'd buffer (see `lower` for the
//! encoding scheme) and every trial then runs as real machine code. The
//! engine is bit-identical to the threaded-code engine (`exec.rs`)
//! by construction:
//!
//! - Guest registers stay in the `State::regs` slot array (host `rbp`
//!   points at it); every instruction loads its operands canonically and
//!   stores the full 64-bit slot back, exactly like `exec.rs`.
//! - Guest flags are computed eagerly into the `Rflags` slot. For
//!   add/sub/cmp/and/or/xor/ucomi the host flags at the guest width *are*
//!   the guest flags, captured via `pushfq` and masked to CF|ZF|SF|OF
//!   (0x8C1); imul and shifts recompute ZF/SF with a `test` at the guest
//!   width first, because the guest models them as logic flags.
//! - Guest memory accesses are bounds-checked with one unsigned compare
//!   (`addr - GLOBAL_BASE > size - GLOBAL_BASE - width`), and every store
//!   sets its page bits in the [`Memory`] dirty bitset with `bts`, so
//!   snapshot capture, `reset_to` scratch reuse, and fast-forward keep
//!   working unchanged underneath the native code.
//! - Injection and the instruction budget need no per-step checks: both
//!   are proven clear for a whole basic block by two compares at the
//!   block's entry. When a guard trips — the armed fault site or the
//!   dyn-instruction limit falls within the block — the code exits with
//!   `EXIT_STEP` and the driver advances exactly one instruction through
//!   the fully bookkept `crate::exec::step` path (fault application,
//!   attribution, jump redirects, `last_mem_write`, budget traps), then
//!   re-enters the native code. Disarmed runs (`trap_site = u64::MAX`)
//!   never trip the site guard, so golden runs stay native end to end.
//!
//! Snapshot-recorder and profile runs route to the threaded-code engine's
//! bookkept loop, which drives the recorder hooks; plain trials — the hot
//! path of every campaign — run native. On non-x86-64/non-Linux hosts, or
//! when `FLOWERY_JIT_FORCE_FALLBACK` is set, compilation reports a
//! [`FallbackReason`] and the engine degrades to `compiled` with a logged
//! note; results are identical either way.

mod encoder;
mod lower;

use crate::exec::{exec_compiled, step, TrialRun};
use crate::machine::MachResult;
use crate::mir::{AsmProgram, Reg};
use crate::snapshot::AsmLayer;
use flowery_ir::inst::Intrinsic;
use flowery_ir::interp::memory::{trap_from, TrapKind};
use flowery_ir::interp::snapshot::Recorder;
use flowery_ir::interp::{ops, ExecStatus, Memory, GLOBAL_BASE};
use std::sync::Mutex;

// ---- the native ABI --------------------------------------------------------

/// Shared state block between the Rust driver and the generated code. The
/// generated code addresses fields as `[rbx + OFF_*]`, so the layout is
/// frozen by `repr(C)` and pinned by the `env_offsets` test. Fields the
/// assembly touches sit in the first 0x78 bytes so every access encodes
/// with a disp8.
#[repr(C)]
pub(crate) struct Env {
    /// `State::regs` base (held in host rbp).
    pub regs: *mut u64,
    /// Guest memory image base (held in host r12).
    pub mem: *mut u8,
    /// Dirty-page bitset base.
    pub dirty: *mut u64,
    /// `size - GLOBAL_BASE - w` for w = 1, 2, 4, 8: the bounds-check
    /// limits (`addr - GLOBAL_BASE` must be <= limit, unsigned).
    pub limit1: u64,
    pub limit2: u64,
    pub limit4: u64,
    pub limit8: u64,
    pub stack_limit: u64,
    pub max_dyn: u64,
    /// Armed fault-site index; `u64::MAX` = disarmed.
    pub trap_site: u64,
    /// Live counters (held in r13/r14/r15; synced back on exit).
    pub dyn_insts: u64,
    pub cycles: u64,
    pub fault_sites: u64,
    /// Exit payload: the resume instruction index of an `EXIT_STEP` bail.
    pub aux: u64,
    /// Dirty-marking fast path: the page index the generated code most
    /// recently marked, `u64::MAX` when nothing is cached. Stores to the
    /// same page (the common case — stack traffic) skip the bitset RMW.
    /// Sound because the bitset is only ever *set* during a native run;
    /// any clearing happens between runs, and each run starts uncached.
    pub last_page: u64,
    /// Per-instruction guarded entry table.
    pub table: *const u64,
    /// Output vector, appended to by the `h_out` helper (Rust side only).
    pub out_vec: *mut Vec<u8>,
    pub max_output: u64,
}

pub(crate) const OFF_REGS: i32 = 0x00;
pub(crate) const OFF_MEM: i32 = 0x08;
pub(crate) const OFF_DIRTY: i32 = 0x10;
pub(crate) const OFF_LIMIT1: i32 = 0x18;
pub(crate) const OFF_LIMIT2: i32 = 0x20;
pub(crate) const OFF_LIMIT4: i32 = 0x28;
pub(crate) const OFF_LIMIT8: i32 = 0x30;
pub(crate) const OFF_STACK_LIMIT: i32 = 0x38;
pub(crate) const OFF_MAX_DYN: i32 = 0x40;
pub(crate) const OFF_TRAP_SITE: i32 = 0x48;
pub(crate) const OFF_DYN: i32 = 0x50;
pub(crate) const OFF_CYCLES: i32 = 0x58;
pub(crate) const OFF_SITES: i32 = 0x60;
pub(crate) const OFF_AUX: i32 = 0x68;
pub(crate) const OFF_LAST_PAGE: i32 = 0x70;
pub(crate) const OFF_TABLE: i32 = 0x78;

/// Exit codes returned in `rax` by the generated code.
pub(crate) const EXIT_COMPLETED: u64 = 0;
pub(crate) const EXIT_DETECTED: u64 = 1;
/// A block-entry guard tripped (armed site or budget within the block):
/// single-step from `aux` through [`step`], then re-enter.
pub(crate) const EXIT_STEP: u64 = 2;
/// Trap exits are `EXIT_TRAP_BASE + trap_code(kind)` (the numbering
/// `flowery_ir::interp::memory::trap_code` fixes).
pub(crate) const EXIT_TRAP_BASE: u64 = 16;

fn trap_kind(code: u64) -> TrapKind {
    u8::try_from(code).ok().and_then(trap_from).unwrap_or(TrapKind::OutputFlood)
}

// ---- runtime helpers called from generated code ----------------------------

/// Append one output record (tag byte + payload). Returns nonzero when the
/// output has overflowed its budget, which the caller turns into an
/// `OutputFlood` trap — matching `exec.rs`, which also pushes first and
/// checks after.
///
/// # Safety
///
/// `env` must point at a live `Env` whose `out_vec` points at a live
/// `Vec<u8>` that nothing else borrows for the duration of the call.
unsafe extern "C" fn h_out(env: *mut Env, tag: u64, val: u64) -> u64 {
    // SAFETY: only generated code calls this, passing the `Env` that
    // `exec_native` built on its stack for the current entry (Env layout:
    // `rbx` holds it); its `out_vec` is that trial's `State::output`, which
    // the driver does not touch while the native code runs.
    let env = &mut *env;
    let out = &mut *env.out_vec;
    out.push(tag as u8);
    if tag == 3 {
        out.push(val as u8);
    } else {
        out.extend_from_slice(&val.to_le_bytes());
    }
    (out.len() > env.max_output as usize) as u64
}

fn math_intr(code: u64) -> Intrinsic {
    match code {
        0 => Intrinsic::Sqrt,
        1 => Intrinsic::Sin,
        2 => Intrinsic::Cos,
        3 => Intrinsic::Exp,
        4 => Intrinsic::Log,
        5 => Intrinsic::Fabs,
        6 => Intrinsic::Floor,
        _ => Intrinsic::Pow,
    }
}

extern "C" fn h_math1(code: u64, a: u64) -> u64 {
    ops::eval_math(math_intr(code), &[a])
}

extern "C" fn h_math2(code: u64, a: u64, b: u64) -> u64 {
    ops::eval_math(math_intr(code), &[a, b])
}

/// `f64 -> i64` with Rust saturating-cast semantics (the guest contract;
/// host `cvttsd2si` would yield INT_MIN on overflow/NaN instead).
extern "C" fn h_f64_to_i64(bits: u64) -> u64 {
    (f64::from_bits(bits) as i64) as u64
}

extern "C" fn h_f32_to_i64(bits: u64) -> u64 {
    ((f32::from_bits(bits as u32) as f64) as i64) as u64
}

/// Helper entry addresses handed to the lowering for `movabs; call`.
pub(crate) struct Helpers {
    pub out: u64,
    pub math1: u64,
    pub math2: u64,
    pub f64_to_i64: u64,
    pub f32_to_i64: u64,
}

fn helpers() -> Helpers {
    Helpers {
        out: h_out as *const () as usize as u64,
        math1: h_math1 as *const () as usize as u64,
        math2: h_math2 as *const () as usize as u64,
        f64_to_i64: h_f64_to_i64 as *const () as usize as u64,
        f32_to_i64: h_f32_to_i64 as *const () as usize as u64,
    }
}

// ---- fallback + observability ----------------------------------------------

/// Why native compilation was unavailable for a program. The engine then
/// runs the trial through `compiled` — bit-identical, just slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Not an x86-64 Linux host.
    UnsupportedHost,
    /// `FLOWERY_JIT_FORCE_FALLBACK` was set.
    Forced,
    /// The executable mapping could not be created.
    MmapFailed,
    /// The program used a form the lowering cannot encode.
    Unencodable,
}

impl FallbackReason {
    pub fn name(self) -> &'static str {
        match self {
            FallbackReason::UnsupportedHost => "unsupported-host",
            FallbackReason::Forced => "forced",
            FallbackReason::MmapFailed => "mmap-failed",
            FallbackReason::Unencodable => "unencodable",
        }
    }

    fn index(self) -> usize {
        match self {
            FallbackReason::UnsupportedHost => 0,
            FallbackReason::Forced => 1,
            FallbackReason::MmapFailed => 2,
            FallbackReason::Unencodable => 3,
        }
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const REASONS: [FallbackReason; 4] = [
    FallbackReason::UnsupportedHost,
    FallbackReason::Forced,
    FallbackReason::MmapFailed,
    FallbackReason::Unencodable,
];

#[derive(Default)]
struct JitStats {
    programs: u64,
    compile_ns: u64,
    code_bytes: u64,
    fallbacks: u64,
    by_reason: [u64; 4],
}

static STATS: Mutex<JitStats> = Mutex::new(JitStats {
    programs: 0,
    compile_ns: 0,
    code_bytes: 0,
    fallbacks: 0,
    by_reason: [0; 4],
});

/// Process-wide JIT observability counters, as exported into
/// `--metrics-json` by the harness.
#[derive(Debug, Clone, Default)]
pub struct JitStatsSnapshot {
    /// Programs successfully compiled to native code.
    pub programs: u64,
    /// Cumulative compile time over those programs, in milliseconds.
    pub compile_ms: f64,
    /// Cumulative emitted code bytes.
    pub code_bytes: u64,
    /// Programs that fell back to the `compiled` engine.
    pub fallbacks: u64,
    /// Fallbacks by reason name (only reasons that occurred).
    pub fallback_reasons: Vec<(String, u64)>,
}

/// Snapshot the process-wide JIT counters.
pub fn jit_stats() -> JitStatsSnapshot {
    let s = STATS.lock().unwrap();
    JitStatsSnapshot {
        programs: s.programs,
        compile_ms: s.compile_ns as f64 / 1e6,
        code_bytes: s.code_bytes,
        fallbacks: s.fallbacks,
        fallback_reasons: REASONS
            .iter()
            .filter(|r| s.by_reason[r.index()] > 0)
            .map(|r| (r.name().to_string(), s.by_reason[r.index()]))
            .collect(),
    }
}

fn record_fallback(reason: FallbackReason) -> FallbackReason {
    let first = {
        let mut s = STATS.lock().unwrap();
        s.fallbacks += 1;
        s.by_reason[reason.index()] += 1;
        s.by_reason[reason.index()] == 1
    };
    if first {
        eprintln!("flowery: native executor unavailable ({reason}); falling back to compiled");
    }
    reason
}

fn record_compile(ns: u64, bytes: usize) {
    let mut s = STATS.lock().unwrap();
    s.programs += 1;
    s.compile_ns += ns;
    s.code_bytes += bytes as u64;
}

// ---- executable buffer -----------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod buf {
    use core::ffi::c_void;

    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const PROT_EXEC: i32 = 4;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;

    /// An anonymous mapping holding generated code and its entry tables;
    /// writable during construction, sealed to read+execute before use
    /// (never writable and executable at once: `write` refuses a sealed
    /// buffer).
    pub struct ExecBuf {
        ptr: *mut u8,
        len: usize,
        sealed: bool,
    }

    // SAFETY: `ptr` is a private mapping owned by this value alone and,
    // once sealed, read+execute only (W^X); `len` and `sealed` are plain
    // data. The only mutations (`write`, `seal`) take `&mut self` and
    // `write` panics after `seal`, so shared references across threads
    // only ever read or execute the mapping.
    unsafe impl Send for ExecBuf {}
    // SAFETY: as for `Send` above.
    unsafe impl Sync for ExecBuf {}

    impl ExecBuf {
        pub fn new(len: usize) -> Option<ExecBuf> {
            let len = len.max(1);
            // SAFETY: a fresh anonymous private mapping with a null hint
            // touches no existing memory; failure is `MAP_FAILED` (-1),
            // checked below.
            let ptr =
                unsafe { mmap(core::ptr::null_mut(), len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0) };
            if ptr as isize == -1 {
                return None;
            }
            Some(ExecBuf { ptr: ptr as *mut u8, len, sealed: false })
        }

        pub fn write(&mut self, off: usize, bytes: &[u8]) {
            assert!(!self.sealed, "write to a sealed ExecBuf");
            assert!(off + bytes.len() <= self.len);
            // SAFETY: the range is inside the mapping (asserted above) and
            // still read+write, because the buffer is not sealed (W^X);
            // `bytes` cannot alias a mapping this value owns exclusively.
            unsafe {
                core::ptr::copy_nonoverlapping(bytes.as_ptr(), self.ptr.add(off), bytes.len());
            }
        }

        pub fn write_u64(&mut self, off: usize, v: u64) {
            self.write(off, &v.to_le_bytes());
        }

        /// Flip the mapping from read+write to read+execute (the W^X
        /// transition). Returns false when `mprotect` fails.
        pub fn seal(&mut self) -> bool {
            // SAFETY: `ptr`/`len` are exactly the mapping `new` created.
            self.sealed = unsafe { mprotect(self.ptr as *mut c_void, self.len, PROT_READ | PROT_EXEC) == 0 };
            self.sealed
        }

        pub fn ptr(&self) -> *const u8 {
            self.ptr
        }
    }

    impl Drop for ExecBuf {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the mapping `new` created. Entry and
            // table pointers into it are only used while the owning
            // `JitProgram` is borrowed, so none outlives this value.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

// ---- the compiled artifact -------------------------------------------------

type Entry = unsafe extern "C" fn(*mut Env, u64) -> u64;

/// A program compiled to host machine code: the sealed executable buffer,
/// plus the guarded entry table (absolute addresses, one per instruction
/// position, with a trailing `BadControl` entry so `ip == len` dispatches
/// like `exec.rs`'s failed bounds check).
pub struct JitProgram {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    buf: buf::ExecBuf,
    table_off: usize,
    len: usize,
    /// Emitted code bytes (before the table), for observability.
    pub code_bytes: usize,
}

impl JitProgram {
    /// Compile `program`, or report why the native engine is unavailable
    /// for it. Stats and the once-per-reason fallback log happen here.
    pub fn build(program: &AsmProgram) -> Result<JitProgram, FallbackReason> {
        if std::env::var_os("FLOWERY_JIT_FORCE_FALLBACK").is_some_and(|v| !v.is_empty() && v != "0") {
            return Err(record_fallback(FallbackReason::Forced));
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            let _ = program;
            Err(record_fallback(FallbackReason::UnsupportedHost))
        }
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let t0 = std::time::Instant::now();
            let emitted = match lower::emit(program, &helpers()) {
                Ok(e) => e,
                Err(r) => return Err(record_fallback(r)),
            };
            let code_bytes = emitted.code.len();
            let table_off = code_bytes.div_ceil(8) * 8;
            let n = program.insts.len() + 1;
            let total = table_off + n * 8;
            let Some(mut b) = buf::ExecBuf::new(total) else {
                return Err(record_fallback(FallbackReason::MmapFailed));
            };
            b.write(0, &emitted.code);
            let base = b.ptr() as u64;
            for (i, &off) in emitted.offsets.iter().enumerate() {
                b.write_u64(table_off + i * 8, base + off as u64);
            }
            if !b.seal() {
                return Err(record_fallback(FallbackReason::MmapFailed));
            }
            record_compile(t0.elapsed().as_nanos() as u64, code_bytes);
            Ok(JitProgram { buf: b, table_off, len: program.insts.len(), code_bytes })
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn entry(&self) -> Entry {
        // SAFETY: the buffer is sealed read+execute (W^X) and `lower::emit`
        // puts the entry stub at offset 0, following the `Entry` ABI
        // (System V: `rdi` = `*mut Env`, `rsi` = start ip, exit code in
        // `rax`, callee-saved registers restored).
        unsafe { std::mem::transmute::<*const u8, Entry>(self.buf.ptr()) }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn table(&self) -> *const u64 {
        // SAFETY: `build` allocated `table_off + (len + 1) * 8` bytes, so
        // the table start is inside the mapping (table bounds).
        unsafe { self.buf.ptr().add(self.table_off) as *const u64 }
    }
}

// ---- the trial driver ------------------------------------------------------

/// Execute one trial natively. Recorder/profile runs and fallback cases
/// route to the `compiled` engine (bit-identical); everything else enters
/// the generated code, re-entering after the (at most one) injection
/// detour through [`step`].
pub(crate) fn exec_native(run: TrialRun<'_, '_>) -> (MachResult, Memory) {
    if run.recorder.is_some() || run.st.profile.is_some() {
        // Capture and profile runs stay on the threaded-code engine's
        // bookkept loop, which drives the recorder hooks. Plain trials —
        // the campaign hot path — run native.
        return exec_compiled(run);
    }
    if run.machine.jit().is_err() {
        return exec_compiled(run);
    }

    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    {
        unreachable!("jit() cannot succeed on unsupported hosts");
    }
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let TrialRun { machine, config, fault, mut st, mut ip, recorder: _ } = run;
        let jit = machine.jit().expect("checked above");
        let prog = machine.compiled();
        let insts = &machine.program.insts[..];
        let len = insts.len();
        debug_assert_eq!(len, jit.len);
        let mut armed = fault;
        let mut no_recorder: Option<&mut Recorder<AsmLayer>> = None;

        let raw = st.mem.raw_parts_mut();
        if raw.len < GLOBAL_BASE + 8 {
            // Degenerate geometry the bounds-check limits cannot encode.
            return exec_compiled(TrialRun { machine, config, fault, st, ip, recorder: None });
        }

        let status = loop {
            if ip as usize > len {
                break ExecStatus::Trapped(TrapKind::BadControl);
            }
            let raw = st.mem.raw_parts_mut();
            let mut env = Env {
                regs: st.regs.as_mut_ptr(),
                mem: raw.bytes,
                dirty: raw.dirty,
                limit1: raw.len - GLOBAL_BASE - 1,
                limit2: raw.len - GLOBAL_BASE - 2,
                limit4: raw.len - GLOBAL_BASE - 4,
                limit8: raw.len - GLOBAL_BASE - 8,
                stack_limit: raw.stack_limit,
                max_dyn: config.max_dyn_insts,
                trap_site: armed.map_or(u64::MAX, |f| f.site_index),
                dyn_insts: st.dyn_insts,
                cycles: st.cycles,
                fault_sites: st.fault_sites,
                aux: 0,
                last_page: u64::MAX,
                table: jit.table(),
                out_vec: &mut st.output as *mut Vec<u8>,
                max_output: config.max_output as u64,
            };
            // SAFETY: entry ABI as in `JitProgram::entry`. `env` matches
            // the `OFF_*` layout (pinned by `env_offsets_match_asm_constants`)
            // and its pointers are live for the call: `regs`, `output` and
            // the memory image belong to `st`, which the native code alone
            // touches until it returns, and the image is not resized. Table
            // bounds: `ip <= len` was checked above and the table has
            // `len + 1` entries.
            let code = unsafe { (jit.entry())(&mut env, ip as u64) };
            st.dyn_insts = env.dyn_insts;
            st.cycles = env.cycles;
            st.fault_sites = env.fault_sites;
            match code {
                EXIT_COMPLETED => break ExecStatus::Completed(st.regs[Reg::Rax.index()]),
                EXIT_DETECTED => break ExecStatus::Detected,
                EXIT_STEP => {
                    // A block guard tripped: the armed site or the budget
                    // falls within the block. Advance one instruction on the
                    // fully bookkept path (injection, budget trap, whatever
                    // applies) and re-enter; the next guard re-decides.
                    ip = env.aux as u32;
                    match step(machine, config, prog, insts, &mut st, &mut ip, &mut armed, &mut no_recorder) {
                        Ok(()) => {}
                        Err(s) => break s,
                    }
                }
                c => break ExecStatus::Trapped(trap_kind(c - EXIT_TRAP_BASE)),
            }
        };
        st.finish(status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::offset_of;

    #[test]
    fn env_offsets_match_asm_constants() {
        assert_eq!(offset_of!(Env, regs), OFF_REGS as usize);
        assert_eq!(offset_of!(Env, mem), OFF_MEM as usize);
        assert_eq!(offset_of!(Env, dirty), OFF_DIRTY as usize);
        assert_eq!(offset_of!(Env, limit1), OFF_LIMIT1 as usize);
        assert_eq!(offset_of!(Env, limit2), OFF_LIMIT2 as usize);
        assert_eq!(offset_of!(Env, limit4), OFF_LIMIT4 as usize);
        assert_eq!(offset_of!(Env, limit8), OFF_LIMIT8 as usize);
        assert_eq!(offset_of!(Env, stack_limit), OFF_STACK_LIMIT as usize);
        assert_eq!(offset_of!(Env, max_dyn), OFF_MAX_DYN as usize);
        assert_eq!(offset_of!(Env, trap_site), OFF_TRAP_SITE as usize);
        assert_eq!(offset_of!(Env, dyn_insts), OFF_DYN as usize);
        assert_eq!(offset_of!(Env, cycles), OFF_CYCLES as usize);
        assert_eq!(offset_of!(Env, fault_sites), OFF_SITES as usize);
        assert_eq!(offset_of!(Env, aux), OFF_AUX as usize);
        assert_eq!(offset_of!(Env, last_page), OFF_LAST_PAGE as usize);
        assert_eq!(offset_of!(Env, table), OFF_TABLE as usize);
    }

    /// W^X: once sealed, the buffer refuses writes instead of faulting.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    #[should_panic(expected = "write to a sealed ExecBuf")]
    fn write_after_seal_panics() {
        let mut b = buf::ExecBuf::new(64).expect("mmap");
        b.write(0, &[0xC3]);
        assert!(b.seal());
        b.write(0, &[0x90]);
    }

    #[test]
    fn trap_codes_round_trip() {
        for k in [
            TrapKind::OobLoad,
            TrapKind::OobStore,
            TrapKind::DivFault,
            TrapKind::InstLimit,
            TrapKind::CallDepth,
            TrapKind::StackOverflow,
            TrapKind::BadControl,
            TrapKind::OutputFlood,
        ] {
            assert_eq!(trap_kind(u64::from(flowery_ir::interp::memory::trap_code(k))), k);
        }
    }
}
