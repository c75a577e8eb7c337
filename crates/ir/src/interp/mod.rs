//! The IR interpreter ("LLVM level" in the paper's terminology): one
//! pre-decoded translation of the module and one loop over it (`compiled`),
//! run fast for golden runs and plain trials and bookkept for the
//! injection, profiles and snapshot captures; `eval` drives it.
//!
//! Executes a verified [`Module`] with:
//! - dynamic-instruction counting and per-static-instruction profiling,
//! - a program output stream (the SDC comparand),
//! - a single-bit fault-injection hook on instruction *results* — the exact
//!   LLFI-style fault model of the paper (§4.3): stores, branches and void
//!   calls produce no result and therefore are not IR-level fault sites.

pub mod memory;
pub mod ops;
pub mod snapio;
pub mod snapshot;
pub mod substrate;

mod compiled;
mod eval;

pub use eval::{mem_fault_region, Interpreter, IrLayer};
pub use memory::{Memory, TrapKind, GLOBAL_BASE, PAGE_SIZE};
pub use snapshot::{Cadence, SiteLog, SnapshotSet};
pub use substrate::{Scratch, Substrate};

use crate::module::Module;
use crate::value::{FuncId, InstId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// All snapshots from one IR golden run.
pub type IrSnapshotSet = SnapshotSet<IrLayer>;

/// Per-worker reusable buffers for IR trials.
pub type IrScratch = Scratch<IrLayer>;

impl IrSnapshotSet {
    /// [`SnapshotSet::decode`] for `module`'s interpreter.
    pub fn from_bytes(bytes: &[u8], module: &Module, module_hash: u64) -> Result<IrSnapshotSet, String> {
        Self::decode(bytes, &Interpreter::new(module), module_hash)
    }
}

/// How machine-layer trials execute. Two engines exist, the threaded-code
/// engine and the native JIT; `interp` and `compiled` are two loops of the
/// first. All three settings are bit-identical by contract — every
/// observable stream (status, output, instruction/site/cycle counts,
/// attribution, snapshots) matches exactly — so the switch exists for
/// performance, provenance, and differential testing, never for results.
/// The IR layer ignores the selection: every run takes its one pre-decoded
/// loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// `interp` — the threaded-code engine's bookkept loop: every
    /// instruction goes through its `step()`, the loop snapshot captures
    /// and profiled runs take under every setting.
    Interp,
    /// `compiled` — the threaded-code engine's fast loop: each instruction
    /// is pre-lowered to a specialized micro-op indexed by program
    /// position, with counters kept in locals.
    #[default]
    Compiled,
    /// `native` — the JIT executor: the whole program is lowered to host
    /// x86-64 machine code in an executable buffer. Falls back to
    /// `compiled` (with a logged reason) on unsupported hosts.
    Native,
}

impl ExecMode {
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Interp => "interp",
            ExecMode::Compiled => "compiled",
            ExecMode::Native => "native",
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ExecMode, String> {
        match s {
            "interp" => Ok(ExecMode::Interp),
            "compiled" => Ok(ExecMode::Compiled),
            "native" => Ok(ExecMode::Native),
            other => Err(format!("unknown executor `{other}` (known: interp, compiled, native)")),
        }
    }
}

impl Serialize for ExecMode {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for ExecMode {
    fn deserialize_value(v: &serde::Value) -> Result<ExecMode, serde::Error> {
        let s = v.as_str().ok_or_else(|| serde::Error::expected("executor string", v))?;
        s.parse().map_err(serde::Error)
    }
}

/// Execution limits and switches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Total memory image size in bytes.
    pub mem_size: u64,
    /// Stack reservation at the top of memory.
    pub stack_size: u64,
    /// Hard dynamic-instruction budget; exceeding it traps with
    /// [`TrapKind::InstLimit`] (fault-induced livelock -> DUE).
    pub max_dyn_insts: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Maximum output bytes before [`TrapKind::OutputFlood`].
    pub max_output: usize,
    /// Collect per-static-instruction execution counts.
    pub profile: bool,
    /// Machine-layer execution engine. Results are bit-identical across
    /// engines; defaults to the threaded-code executor.
    #[serde(default)]
    pub executor: ExecMode,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            mem_size: 4 << 20,
            stack_size: 1 << 20,
            max_dyn_insts: 200_000_000,
            max_call_depth: 512,
            max_output: 1 << 20,
            profile: false,
            executor: ExecMode::default(),
        }
    }
}

impl ExecConfig {
    /// Budget relative to a known fault-free dynamic instruction count:
    /// generous enough to never clip healthy runs, tight enough to catch
    /// fault-induced livelock quickly.
    pub fn with_budget_for(golden_dyn_insts: u64) -> ExecConfig {
        ExecConfig {
            max_dyn_insts: golden_dyn_insts.saturating_mul(4).max(100_000),
            ..Default::default()
        }
    }
}

/// What a fault does when its site is reached. All effects apply *at* the
/// fault site and depend only on machine state at that point, which is
/// what keeps snapshot fast-forward bit-identical to scratch execution
/// for every model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEffect {
    /// Flip the spec's bit (plus the optional second bit) in the
    /// instruction's destination — the classic LLFI/PIN datapath model.
    #[default]
    Bits,
    /// Flip `width` adjacent bits starting at the spec's bit (multi-bit
    /// upset / burst error).
    Burst { width: u8 },
    /// Corrupt condition state: at the IR level the result's low bit (the
    /// bit branches consume), at the assembly level the condition flags.
    Flags,
    /// Flip one bit of a memory cell at a deterministic address derived
    /// from `offset` (globals segment when present, else the stack
    /// segment). The instruction's own result is left intact.
    Mem { offset: u64 },
    /// Control-flow edge corruption: after the site executes, redirect
    /// control to a deterministic target derived from `target` (a block
    /// of the current function at the IR level, an absolute program index
    /// at the assembly level).
    Jump { target: u64 },
}

/// A fault to inject during one run, at either layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Zero-based index among the *fault sites* the whole run executes —
    /// IR: dynamic instructions that write a result; assembly: instructions
    /// with an architected destination. When the counter reaches this index
    /// the destination is corrupted. A fault confined to one region is the
    /// same thing: the region's `k`-th site has a global index
    /// ([`snapshot::SiteLog::index`]).
    pub site_index: u64,
    /// Bit position to flip; taken modulo the destination width.
    pub bit: u32,
    /// Optional second bit for the multi-bit fault model the paper lists
    /// as emerging (§2.2); `None` = the standard single-bit model.
    pub second_bit: Option<u32>,
    /// What happens at the site. Defaults to [`FaultEffect::Bits`], the
    /// pre-existing single/double-bit destination flip.
    #[serde(default)]
    pub effect: FaultEffect,
}

impl FaultSpec {
    /// The standard single-bit fault.
    pub fn single(site_index: u64, bit: u32) -> FaultSpec {
        FaultSpec { site_index, bit, second_bit: None, effect: FaultEffect::Bits }
    }

    /// A double-bit fault in the same destination.
    pub fn double(site_index: u64, bit: u32, second: u32) -> FaultSpec {
        FaultSpec {
            site_index,
            bit,
            second_bit: Some(second),
            effect: FaultEffect::Bits,
        }
    }

    /// A fault with an explicit effect.
    pub fn with_effect(site_index: u64, bit: u32, effect: FaultEffect) -> FaultSpec {
        FaultSpec { site_index, bit, second_bit: None, effect }
    }
}

/// How an execution finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecStatus {
    /// Ran to completion; payload is `main`'s return value (canonical bits).
    Completed(u64),
    /// A duplication checker caught the error (`detect_error` fired).
    Detected,
    /// Abnormal termination (the paper's DUE class).
    Trapped(TrapKind),
}

impl ExecStatus {
    pub fn is_completed(self) -> bool {
        matches!(self, ExecStatus::Completed(_))
    }
}

/// Per-static-instruction dynamic execution counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    /// `counts[func][inst]` = number of executions of that instruction.
    pub counts: Vec<Vec<u64>>,
}

impl Profile {
    pub fn count(&self, f: FuncId, i: InstId) -> u64 {
        self.counts.get(f.index()).and_then(|v| v.get(i.index())).copied().unwrap_or(0)
    }
}

/// The result of one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecResult {
    pub status: ExecStatus,
    /// Tagged output records; byte-compared against the golden run to
    /// classify SDCs.
    pub output: Vec<u8>,
    /// All executed instructions, terminators included (Table 1's DI count).
    pub dyn_insts: u64,
    /// Executed instructions that wrote a result (= IR-level fault sites).
    pub fault_sites: u64,
    /// Where the fault (if any) actually landed.
    pub injected_at: Option<(FuncId, InstId)>,
    /// Present when profiling was requested.
    pub profile: Option<Profile>,
}

impl ExecResult {
    /// True if this run completed with output identical to `golden`.
    pub fn matches_output(&self, golden: &ExecResult) -> bool {
        self.status == golden.status && self.output == golden.output
    }
}

/// Output record tags.
pub(crate) const TAG_I64: u8 = 1;
pub(crate) const TAG_F64: u8 = 2;
pub(crate) const TAG_BYTE: u8 = 3;

/// Decode an output stream into a human-readable form (examples/debugging).
pub fn decode_output(bytes: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            TAG_I64 if i + 9 <= bytes.len() => {
                let v = i64::from_le_bytes(bytes[i + 1..i + 9].try_into().unwrap());
                out.push(format!("i64:{v}"));
                i += 9;
            }
            TAG_F64 if i + 9 <= bytes.len() => {
                let v = f64::from_bits(u64::from_le_bytes(bytes[i + 1..i + 9].try_into().unwrap()));
                out.push(format!("f64:{v}"));
                i += 9;
            }
            TAG_BYTE if i + 2 <= bytes.len() => {
                out.push(format!("byte:{}", bytes[i + 1]));
                i += 2;
            }
            _ => {
                out.push(format!("?:{}", bytes[i]));
                i += 1;
            }
        }
    }
    out
}
