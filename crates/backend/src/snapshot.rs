//! The assembly injection layer: [`AsmLayer`]'s [`Substrate`] impl for
//! [`Machine`] — what a machine snapshot holds, how a run boots and
//! continues, and how that state is laid out in a snapshot file. Capture,
//! restore, fast-forward, persistence and the trial runner are the shared
//! ones in `flowery_ir::interp`.

use crate::machine::{AsmFaultSpec, MachResult, Machine, SENTINEL};
use crate::mir::{AsmProgram, Reg};
use flowery_ir::interp::snapio::{w_bytes, w_leb, w_opt, w_status, w_u32, w_u64, w_words, Cursor};
use flowery_ir::interp::snapshot::Recorder;
use flowery_ir::interp::substrate::{Linked, RunHead, RunResult, Start, Substrate};
use flowery_ir::interp::{ExecConfig, ExecMode, Memory, Scratch, SnapshotSet};
use flowery_ir::module::Module;

/// The assembly injection layer (marker type).
#[derive(Debug, Clone, Copy)]
pub struct AsmLayer;

/// All snapshots from one golden machine run.
pub type AsmSnapshotSet = SnapshotSet<AsmLayer>;

/// Per-worker reusable buffers for machine trials.
pub type AsmScratch = Scratch<AsmLayer>;

/// What a machine snapshot holds besides counters and memory.
#[derive(Debug, Clone, Copy)]
pub struct AsmState {
    /// Modelled cycles accumulated before this point.
    pub(crate) cycles: u64,
    /// Next instruction to execute.
    pub(crate) ip: u32,
    /// The whole register file, flags included.
    pub(crate) regs: [u64; Reg::COUNT],
}

impl RunResult for MachResult {
    fn head(&self) -> RunHead<'_> {
        RunHead {
            status: self.status,
            output: &self.output,
            dyn_insts: self.dyn_insts,
            fault_sites: self.fault_sites,
        }
    }

    fn into_output(self) -> Vec<u8> {
        self.output
    }
}

impl Substrate for AsmLayer {
    const MAGIC: &'static [u8; 8] = b"FLSNAPAS";
    const NAME: &'static str = "asm";

    type Exec<'a> = Machine<'a>;
    type State = AsmState;
    type Golden = MachResult;
    type Pool = ();

    fn module<'a>(exec: &'a Machine<'_>) -> &'a Module {
        exec.module
    }

    fn engine(config: &ExecConfig) -> ExecMode {
        config.executor
    }

    fn site_regions(exec: &Machine<'_>) -> Vec<u32> {
        let program = exec.program;
        let mut region_of = vec![program.funcs.len() as u32; program.insts.len()];
        for (i, f) in program.funcs.iter().enumerate() {
            region_of[f.entry as usize..(f.end as usize).min(program.insts.len())].fill(i as u32);
        }
        region_of
    }

    /// Fresh machine state: zeroed registers, sentinel return address
    /// pushed for `main`, entry ip.
    fn start(exec: &Machine<'_>, from: Option<&AsmState>, mem: &mut Memory, _pool: &mut ()) -> AsmState {
        if let Some(s) = from {
            return *s;
        }
        let mut regs = [0u64; Reg::COUNT];
        let sp = mem.initial_sp() - 8;
        mem.store(sp, 8, SENTINEL).expect("initial stack in bounds");
        regs[Reg::Rsp.index()] = sp;
        AsmState { cycles: 0, ip: exec.program.main_entry, regs }
    }

    fn run_suffix(
        exec: &Machine<'_>,
        config: &ExecConfig,
        fault: Option<AsmFaultSpec>,
        start: Start<AsmLayer>,
        recorder: Option<&mut Recorder<AsmLayer>>,
        _pool: &mut (),
    ) -> (MachResult, Memory) {
        exec.exec(config, fault, start, recorder)
    }

    fn encode_head(w: &mut Vec<u8>, r: &MachResult) {
        w_status(w, r.status);
        w_bytes(w, &r.output);
        w_u64(w, r.dyn_insts);
        w_u64(w, r.fault_sites);
        w_u64(w, r.cycles);
        w_opt(w, r.injected_inst, w_u32);
    }

    fn decode_head(c: &mut Cursor) -> Result<MachResult, String> {
        Ok(MachResult {
            status: c.status()?,
            output: c.bytes()?,
            dyn_insts: c.u64()?,
            fault_sites: c.u64()?,
            cycles: c.u64()?,
            injected_inst: c.opt("injected_inst", Cursor::u32)?,
            pruned: false,
            profile: None,
        })
    }

    /// Cycles as a delta, the ip, and the register file against the
    /// previous snapshot's.
    fn encode_snap(w: &mut Vec<u8>, state: &AsmState, prev: Option<&AsmState>) {
        let (cycles, regs) = prev.map_or((0, &[][..]), |p| (p.cycles, &p.regs[..]));
        w_leb(w, state.cycles.wrapping_sub(cycles));
        w_leb(w, state.ip.into());
        w_words(w, &state.regs, regs);
    }

    fn decode_snap(c: &mut Cursor, exec: &Machine<'_>, prev: Option<&AsmState>) -> Result<AsmState, String> {
        let (cycles, mut regs) = prev.map_or((0, [0; Reg::COUNT]), |p| (p.cycles, p.regs));
        let cycles = cycles.wrapping_add(c.leb()?);
        let ip = c.leb32()?;
        if ip as usize > exec.program.insts.len() {
            return Err("snapshot file: snapshot ip out of range".into());
        }
        c.xor_words(&mut regs)?;
        Ok(AsmState { cycles, ip, regs })
    }
}

impl Linked for AsmLayer {
    type Program = AsmProgram;

    fn bind<'a>(module: &'a Module, program: &'a AsmProgram) -> Machine<'a> {
        Machine::new(module, program)
    }
}
