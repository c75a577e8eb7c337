//! The machine simulator ("assembly level" in the paper's terminology).
//!
//! Executes a linked [`AsmProgram`] over the same memory image and output
//! encoding as the IR interpreter, so fault-free runs of the two layers are
//! bit-identical. Fault injection flips a single bit in the *architected
//! destination* of a randomly chosen dynamic instruction — GPR/XMM bits,
//! a condition flag, or the value just written to memory — mirroring
//! PIN-based injectors (paper §4.3).

use crate::exec::TrialRun;
use crate::mir::{flags, AInst, AsmProgram, FaultDest, Reg};
use crate::snapshot::{AsmLayer, AsmSnapshotSet, AsmState};
use flowery_ir::interp::snapshot::Recorder;
use flowery_ir::interp::substrate::{self, Start};
use flowery_ir::interp::{mem_fault_region, Cadence, ExecConfig, ExecMode, ExecStatus, FaultEffect, Memory};
use flowery_ir::module::Module;
use flowery_ir::types::Type;
use serde::{Deserialize, Serialize};

/// Return-address sentinel marking the bottom of the call stack.
pub(crate) const SENTINEL: u64 = u64::MAX - 1;

/// A fault to inject during one machine run: the layers share one spec,
/// addressed by the global index of a fault site.
pub type AsmFaultSpec = flowery_ir::interp::FaultSpec;

/// Result of a machine execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachResult {
    pub status: ExecStatus,
    /// Tagged output records, same encoding as the IR interpreter.
    pub output: Vec<u8>,
    /// All executed instructions.
    pub dyn_insts: u64,
    /// Executed instructions that were fault sites.
    pub fault_sites: u64,
    /// Modelled cycle count (the §7.2 overhead metric).
    pub cycles: u64,
    /// Program index of the instruction the fault landed on, if any.
    pub injected_inst: Option<u32>,
    /// The drawn flip is proven masked at `injected_inst`, where the run
    /// stopped ([`Machine::pruning`]; status `Completed(0)`): Benign by proof.
    pub pruned: bool,
    /// Per-instruction execution counts (when profiling).
    pub profile: Option<Vec<u64>>,
}

/// Reusable machine for one program+module pair. Which engine executes
/// trials is chosen per run by [`ExecConfig::executor`]; the threaded-code
/// translation is built lazily on first use and reused for every trial
/// after that.
pub struct Machine<'p> {
    pub(crate) program: &'p AsmProgram,
    pub(crate) module: &'p Module,
    compiled: std::sync::OnceLock<crate::exec::CompiledProgram>,
    /// Host machine code for the native engine, or the reason it is
    /// unavailable for this program/host (see [`Machine::jit`]).
    jit: std::sync::OnceLock<Result<crate::jit::JitProgram, crate::jit::FallbackReason>>,
    /// Per instruction index, the sampled bits proven masked there; empty
    /// on a machine that does not prune ([`Machine::pruning`]).
    masked: Box<[u64]>,
}

impl<'p> Machine<'p> {
    pub fn new(module: &'p Module, program: &'p AsmProgram) -> Machine<'p> {
        Machine {
            program,
            module,
            compiled: std::sync::OnceLock::new(),
            jit: std::sync::OnceLock::new(),
            masked: Box::default(),
        }
    }

    /// This machine, pruning: bit `b` of `masked[i]` proves a flip of sampled
    /// bit `b` (mod 64) at instruction `i` masked, and a [`FaultEffect::Bits`]
    /// fault proven so (both bits of a double) stops the run at its site.
    pub fn pruning(self, masked: Vec<u64>) -> Machine<'p> {
        Machine { masked: masked.into(), ..self }
    }

    /// Whether `spec`, landing on instruction `ip`, is proven masked.
    pub(crate) fn proven_masked(&self, ip: u32, spec: &AsmFaultSpec) -> bool {
        let m = self.masked.get(ip as usize).copied().unwrap_or(0);
        let masked = |bit: u32| (m >> (bit % 64)) & 1 == 1;
        spec.effect == FaultEffect::Bits && masked(spec.bit) && spec.second_bit.is_none_or(masked)
    }

    /// The program this machine executes.
    pub fn program(&self) -> &'p AsmProgram {
        self.program
    }

    /// The threaded-code translation of this program, built on first use.
    pub(crate) fn compiled(&self) -> &crate::exec::CompiledProgram {
        self.compiled.get_or_init(|| crate::exec::CompiledProgram::build(self.program))
    }

    /// The native-code translation of this program, built (once) on first
    /// native-mode run. `Err` carries the fallback reason — unsupported
    /// host, forced fallback, or an unencodable program — and native runs
    /// then take the `compiled` path instead.
    pub(crate) fn jit(&self) -> Result<&crate::jit::JitProgram, crate::jit::FallbackReason> {
        self.jit
            .get_or_init(|| crate::jit::JitProgram::build(self.program))
            .as_ref()
            .map_err(|e| *e)
    }

    /// Execute from `main` under `config`, optionally injecting a fault.
    pub fn run(&self, config: &ExecConfig, fault: Option<AsmFaultSpec>) -> MachResult {
        substrate::run::<AsmLayer>(self, config, fault)
    }

    /// One fault-free run that captures a snapshot every `interval` dynamic
    /// instructions (see [`substrate::capture`]).
    pub fn capture_snapshots(&self, config: &ExecConfig, interval: u64) -> AsmSnapshotSet {
        substrate::capture(self, config, Cadence::Insts(interval), None)
    }

    /// Self-tuning site-spaced capture (see [`substrate::capture_for`]).
    pub fn capture_snapshots_auto(&self, config: &ExecConfig) -> AsmSnapshotSet {
        substrate::capture_for(self, config, u64::MAX)
    }

    /// Execute from `start` (fresh or restored), optionally capturing
    /// snapshots: `native` runs on the JIT, `compiled` and `interp` on the
    /// threaded-code engine (see [`crate::exec`]). Returns the result plus
    /// the memory image so callers can recycle it.
    pub(crate) fn exec(
        &self,
        config: &ExecConfig,
        fault: Option<AsmFaultSpec>,
        start: Start<AsmLayer>,
        recorder: Option<&mut Recorder<AsmLayer>>,
    ) -> (MachResult, Memory) {
        let AsmState { cycles, ip, regs } = start.state;
        let st = State {
            regs,
            mem: start.mem,
            output: start.output,
            dyn_insts: start.dyn_insts,
            fault_sites: start.fault_sites,
            cycles,
            injected_inst: None,
            pruned: false,
            profile: config.profile.then(|| vec![0u64; self.program.insts.len()]),
            last_ip: 0,
            last_mem_write: None,
        };
        let run = TrialRun { machine: self, config, fault, st, ip, recorder };
        match config.executor {
            ExecMode::Native => crate::jit::exec_native(run),
            ExecMode::Compiled | ExecMode::Interp => crate::exec::exec_compiled(run),
        }
    }

    /// Fault-free dynamic site trace: `trace[i]` is the instruction index
    /// of the `i`-th fault site the golden run executes — the map from a
    /// `FaultSpec::site_index` to the static instruction a fault would
    /// land on, for the first `cap` sites (one [`substrate::observe`] pass).
    /// Kept for `benchmark/src/trace.rs` until ROADMAP 1(a); a campaign
    /// prunes in the run instead ([`Machine::pruning`]).
    pub fn site_trace(&self, config: &ExecConfig, cap: usize) -> Vec<u32> {
        substrate::observe::<AsmLayer>(self, config, cap).1.trace().to_vec()
    }
}

pub(crate) struct State {
    pub(crate) regs: [u64; Reg::COUNT],
    pub(crate) mem: Memory,
    pub(crate) output: Vec<u8>,
    pub(crate) dyn_insts: u64,
    pub(crate) fault_sites: u64,
    pub(crate) cycles: u64,
    pub(crate) injected_inst: Option<u32>,
    pub(crate) pruned: bool,
    pub(crate) profile: Option<Vec<u64>>,
    pub(crate) last_ip: u32,
    /// (addr, width) of the most recent memory write, for MemVal injection.
    pub(crate) last_mem_write: Option<(u64, u8)>,
}

impl State {
    /// Consume the state into a result, handing the memory image back for
    /// reuse.
    pub(crate) fn finish(self, status: ExecStatus) -> (MachResult, Memory) {
        (
            MachResult {
                status,
                output: self.output,
                dyn_insts: self.dyn_insts,
                fault_sites: self.fault_sites,
                cycles: self.cycles,
                injected_inst: self.injected_inst,
                pruned: self.pruned,
                profile: self.profile,
            },
            self.mem,
        )
    }
}

impl Machine<'_> {
    /// Apply a fault to the instruction's architected destination (or, for
    /// the wider effects, to flags / a memory cell). Control-flow redirects
    /// are handled by the dispatch loop, which owns `ip`.
    pub(crate) fn apply_fault(&self, st: &mut State, inst: &AInst, spec: AsmFaultSpec) {
        // Bit mask within a `bits`-wide destination: the classic one-or-two
        // bit flip, or a contiguous burst for multi-bit upsets.
        let mask = |bits: u32| -> u64 {
            match spec.effect {
                FaultEffect::Burst { width } => {
                    let mut m = 0u64;
                    for k in 0..width as u32 {
                        m ^= 1u64 << ((spec.bit + k) % bits);
                    }
                    m
                }
                _ => {
                    let mut m = 1u64 << (spec.bit % bits);
                    if let Some(b2) = spec.second_bit {
                        m |= 1u64 << (b2 % bits);
                    }
                    m
                }
            }
        };
        match spec.effect {
            FaultEffect::Bits | FaultEffect::Burst { .. } => match inst.kind.fault_dest() {
                FaultDest::Gpr(r, w) => {
                    st.regs[r.index()] ^= mask(w as u32 * 8);
                }
                FaultDest::Flags => {
                    let n = flags::CONDITION_BITS.len();
                    let mut which = flags::CONDITION_BITS[(spec.bit as usize) % n];
                    match spec.effect {
                        FaultEffect::Burst { width } => {
                            for k in 1..width as usize {
                                which ^= flags::CONDITION_BITS[(spec.bit as usize + k) % n];
                            }
                        }
                        _ => {
                            if let Some(b2) = spec.second_bit {
                                which |= flags::CONDITION_BITS[(b2 as usize) % n];
                            }
                        }
                    }
                    st.regs[Reg::Rflags.index()] ^= which;
                }
                FaultDest::MemVal(w) => {
                    if let Some((addr, ww)) = st.last_mem_write {
                        let w = w.min(ww);
                        if let Ok(v) = st.mem.load(addr, w as u64) {
                            let _ = st.mem.store(addr, w as u64, v ^ mask(w as u32 * 8));
                        }
                    }
                }
                FaultDest::None => {}
            },
            FaultEffect::Flags => {
                // Flags/PC corruption model: hit the condition bits no
                // matter what the site instruction writes.
                let n = flags::CONDITION_BITS.len();
                let mut which = flags::CONDITION_BITS[(spec.bit as usize) % n];
                if let Some(b2) = spec.second_bit {
                    which |= flags::CONDITION_BITS[(b2 as usize) % n];
                }
                st.regs[Reg::Rflags.index()] ^= which;
            }
            FaultEffect::Mem { offset } => {
                // The same deterministic cell as the IR interpreter's.
                let (lo, hi) = mem_fault_region(self.module, &st.mem);
                let addr = lo + offset % (hi - lo);
                if let Ok(b) = st.mem.load(addr, 1) {
                    let _ = st.mem.store(addr, 1, b ^ (1u64 << (spec.bit % 8)));
                }
            }
            FaultEffect::Jump { .. } => {} // dispatch loop redirects ip
        }
    }
}

pub(crate) fn width_ty(w: u8) -> Type {
    match w {
        1 => Type::I8,
        2 => Type::I16,
        4 => Type::I32,
        _ => Type::I64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::{compile_module, BackendConfig};
    use flowery_ir::builder::{FuncBuilder, ModuleBuilder};
    use flowery_ir::value::Op;

    fn run_main(build: impl FnOnce(&mut FuncBuilder)) -> MachResult {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        build(&mut fb);
        mb.add_func(fb.finish());
        let m = mb.finish();
        flowery_ir::verify::verify_module(&m).unwrap();
        let prog = compile_module(&m, &BackendConfig::default());
        Machine::new(&m, &prog).run(&ExecConfig::default(), None)
    }

    #[test]
    fn signed_flags_drive_conditions() {
        // -5 < 3 signed but not unsigned: both predicates via flags.
        let r = run_main(|fb| {
            let slt = fb.icmp(flowery_ir::IPred::Slt, Type::I64, Op::ci64(-5), Op::ci64(3));
            let ult = fb.icmp(flowery_ir::IPred::Ult, Type::I64, Op::ci64(-5), Op::ci64(3));
            let z1 = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(slt));
            let z2 = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(ult));
            let sh = fb.bin(flowery_ir::BinOp::Shl, Type::I64, Op::inst(z1), Op::ci64(1));
            let s = fb.bin(flowery_ir::BinOp::Or, Type::I64, Op::inst(sh), Op::inst(z2));
            fb.ret(Some(Op::inst(s)));
        });
        assert_eq!(r.status, ExecStatus::Completed(0b10));
    }

    #[test]
    fn overflow_flag_set_correctly_for_sub() {
        // i64::MIN - 1 wraps; signed compare must still be right via OF.
        let r = run_main(|fb| {
            let c = fb.icmp(flowery_ir::IPred::Slt, Type::I64, Op::ci64(i64::MIN), Op::ci64(1));
            let z = fb.cast(flowery_ir::CastKind::Zext, Type::I1, Type::I64, Op::inst(c));
            fb.ret(Some(Op::inst(z)));
        });
        assert_eq!(r.status, ExecStatus::Completed(1));
    }

    #[test]
    fn narrow_width_arithmetic_wraps_in_registers() {
        let r = run_main(|fb| {
            let a = fb.bin(flowery_ir::BinOp::Add, Type::I8, Op::cint(Type::I8, 200), Op::cint(Type::I8, 100));
            let z = fb.cast(flowery_ir::CastKind::Zext, Type::I8, Type::I64, Op::inst(a));
            fb.ret(Some(Op::inst(z)));
        });
        assert_eq!(r.status, ExecStatus::Completed((200u64 + 100) & 0xFF));
    }

    #[test]
    fn division_uses_rax_rdx_correctly() {
        let r = run_main(|fb| {
            let q = fb.bin(flowery_ir::BinOp::SDiv, Type::I64, Op::ci64(-47), Op::ci64(5));
            let rem = fb.bin(flowery_ir::BinOp::SRem, Type::I64, Op::ci64(-47), Op::ci64(5));
            let s = fb.bin(flowery_ir::BinOp::Mul, Type::I64, Op::inst(q), Op::ci64(100));
            let t = fb.bin(flowery_ir::BinOp::Add, Type::I64, Op::inst(s), Op::inst(rem));
            fb.ret(Some(Op::inst(t)));
        });
        // -47 / 5 = -9 rem -2 -> -9*100 + -2 = -902
        assert_eq!(r.status, ExecStatus::Completed((-902i64) as u64));
    }

    #[test]
    fn float_compare_flags_and_select() {
        let r = run_main(|fb| {
            let c = fb.fcmp(flowery_ir::FPred::Ogt, Type::F64, Op::cf64(2.5), Op::cf64(1.5));
            let sel = fb.select(Type::I64, Op::inst(c), Op::ci64(7), Op::ci64(9));
            fb.ret(Some(Op::inst(sel)));
        });
        assert_eq!(r.status, ExecStatus::Completed(7));
    }

    #[test]
    fn fault_on_flags_flips_branch() {
        // cmp 1, 2 -> jl taken normally; corrupting the flags at the cmp
        // must be able to change the outcome.
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let c = fb.icmp(flowery_ir::IPred::Slt, Type::I64, Op::ci64(1), Op::ci64(2));
        let t = fb.new_block("t");
        let e = fb.new_block("e");
        fb.br(Op::inst(c), t, e);
        fb.switch_to(t);
        fb.ret(Some(Op::ci64(111)));
        fb.switch_to(e);
        fb.ret(Some(Op::ci64(222)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let prog = compile_module(&m, &BackendConfig::default());
        let mach = Machine::new(&m, &prog);
        let golden = mach.run(&ExecConfig::default(), None);
        assert_eq!(golden.status, ExecStatus::Completed(111));
        // Find the cmp's site and flip a condition flag.
        let mut flipped = false;
        for site in 0..golden.fault_sites {
            for bit in 0..4 {
                let r = mach.run(&ExecConfig::default(), Some(AsmFaultSpec::single(site, bit)));
                if r.status == ExecStatus::Completed(222) {
                    flipped = true;
                }
            }
        }
        assert!(flipped, "a flags fault must be able to steer the branch");
    }

    #[test]
    fn profile_counts_executed_instructions() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let v = fb.bin(flowery_ir::BinOp::Add, Type::I64, Op::ci64(40), Op::ci64(2));
        fb.ret(Some(Op::inst(v)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let prog = compile_module(&m, &BackendConfig::default());
        let r = Machine::new(&m, &prog).run(&ExecConfig { profile: true, ..ExecConfig::default() }, None);
        let p = r.profile.unwrap();
        assert_eq!(p.len(), prog.insts.len());
        assert_eq!(p.iter().sum::<u64>(), r.dyn_insts);
        // Straight-line program: every instruction from entry to ret runs once.
        assert!(p.iter().filter(|&&c| c == 1).count() >= 5);
    }
}
