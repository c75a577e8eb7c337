//! Machine IR: an x86-64-flavoured instruction set with physical registers,
//! RFLAGS, and a handful of pseudo-instructions (output ports, math ops).
//!
//! Every instruction carries *provenance* — which IR instruction it was
//! lowered from and what micro-role it plays — which is what lets the
//! root-cause analyzer attribute assembly-level SDCs to the paper's five
//! penetration categories.

use flowery_ir::value::{FuncId, InstId};
use flowery_ir::IrRole;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Physical registers. General-purpose, SSE, and the flags register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Reg {
    Rax,
    Rbx,
    Rcx,
    Rdx,
    Rsi,
    Rdi,
    Rbp,
    Rsp,
    R8,
    R9,
    R10,
    R11,
    Xmm0,
    Xmm1,
    Xmm2,
    Xmm3,
    Xmm4,
    Xmm5,
    Xmm6,
    Xmm7,
    /// Status flags (ZF/SF/OF/CF packed; see [`flags`]).
    Rflags,
}

impl Reg {
    /// Dense index for register files.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Number of registers.
    pub const COUNT: usize = 21;

    /// True for the SSE registers.
    pub fn is_xmm(self) -> bool {
        matches!(
            self,
            Reg::Xmm0 | Reg::Xmm1 | Reg::Xmm2 | Reg::Xmm3 | Reg::Xmm4 | Reg::Xmm5 | Reg::Xmm6 | Reg::Xmm7
        )
    }

    /// GPR scratch pool used by the fast allocator, in allocation order.
    /// `rbp`/`rsp` are reserved; the pool is caller-saved so calls flush it.
    pub const GPR_POOL: [Reg; 9] =
        [Reg::Rax, Reg::Rcx, Reg::Rdx, Reg::Rsi, Reg::Rdi, Reg::R8, Reg::R9, Reg::R10, Reg::R11];

    /// XMM scratch pool.
    pub const XMM_POOL: [Reg; 8] =
        [Reg::Xmm0, Reg::Xmm1, Reg::Xmm2, Reg::Xmm3, Reg::Xmm4, Reg::Xmm5, Reg::Xmm6, Reg::Xmm7];

    /// SysV-style integer argument registers.
    pub const INT_ARGS: [Reg; 6] = [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::Rcx, Reg::R8, Reg::R9];

    /// SysV-style float argument registers.
    pub const FLOAT_ARGS: [Reg; 8] =
        [Reg::Xmm0, Reg::Xmm1, Reg::Xmm2, Reg::Xmm3, Reg::Xmm4, Reg::Xmm5, Reg::Xmm6, Reg::Xmm7];

    pub fn name(self) -> &'static str {
        match self {
            Reg::Rax => "rax",
            Reg::Rbx => "rbx",
            Reg::Rcx => "rcx",
            Reg::Rdx => "rdx",
            Reg::Rsi => "rsi",
            Reg::Rdi => "rdi",
            Reg::Rbp => "rbp",
            Reg::Rsp => "rsp",
            Reg::R8 => "r8",
            Reg::R9 => "r9",
            Reg::R10 => "r10",
            Reg::R11 => "r11",
            Reg::Xmm0 => "xmm0",
            Reg::Xmm1 => "xmm1",
            Reg::Xmm2 => "xmm2",
            Reg::Xmm3 => "xmm3",
            Reg::Xmm4 => "xmm4",
            Reg::Xmm5 => "xmm5",
            Reg::Xmm6 => "xmm6",
            Reg::Xmm7 => "xmm7",
            Reg::Rflags => "rflags",
        }
    }
}

/// Flag bit positions within the `Rflags` register value.
pub mod flags {
    /// Carry flag (unsigned below).
    pub const CF: u64 = 1 << 0;
    /// Zero flag.
    pub const ZF: u64 = 1 << 6;
    /// Sign flag.
    pub const SF: u64 = 1 << 7;
    /// Overflow flag.
    pub const OF: u64 = 1 << 11;
    /// The bits a datapath fault may flip (the architecturally meaningful
    /// condition bits).
    pub const CONDITION_BITS: [u64; 4] = [CF, ZF, SF, OF];
}

/// Memory reference: `[base + disp]` (absolute when `base` is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRef {
    pub base: Option<Reg>,
    pub disp: i64,
}

impl MemRef {
    pub fn rbp(disp: i64) -> MemRef {
        MemRef { base: Some(Reg::Rbp), disp }
    }

    pub fn abs(addr: u64) -> MemRef {
        MemRef { base: None, disp: addr as i64 }
    }
}

/// Instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AOp {
    Reg(Reg),
    Imm(i64),
    Mem(MemRef),
}

/// ALU opcodes (two-operand, destination register form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AluOp {
    Add,
    Sub,
    Imul,
    And,
    Or,
    Xor,
}

/// Shift opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShiftOp {
    Shl,
    Shr,
    Sar,
}

/// SSE scalar double arithmetic opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SseOp {
    AddSd,
    SubSd,
    MulSd,
    DivSd,
}

/// Condition codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CC {
    E,
    Ne,
    L,
    Le,
    G,
    Ge,
    B,
    Be,
    A,
    Ae,
}

impl CC {
    pub fn name(self) -> &'static str {
        match self {
            CC::E => "e",
            CC::Ne => "ne",
            CC::L => "l",
            CC::Le => "le",
            CC::G => "g",
            CC::Ge => "ge",
            CC::B => "b",
            CC::Be => "be",
            CC::A => "a",
            CC::Ae => "ae",
        }
    }
}

/// Pseudo output-port record kinds (mirrors the IR output intrinsics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutKind {
    I64,
    F64,
    Byte,
}

/// Math pseudo-instruction kinds (modelled libm operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MathKind {
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
    Fabs,
    Floor,
    Pow,
}

/// One machine instruction. `w` fields are operand widths in bytes
/// (1/2/4/8). Control-flow targets are absolute instruction indices after
/// linking.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AKind {
    /// `mov` in all its forms (reg<-reg/imm/mem, mem<-reg/imm). Loads
    /// zero-extend to the canonical 64-bit form.
    Mov { w: u8, dst: AOp, src: AOp },
    /// Sign-extending load/move.
    MovSx { wd: u8, ws: u8, dst: Reg, src: AOp },
    /// Address computation.
    Lea { dst: Reg, mem: MemRef },
    /// Two-operand ALU op: `dst = dst op src` (width-wrapped). Writes flags.
    Alu { op: AluOp, w: u8, dst: Reg, src: AOp },
    /// Shift: `dst = dst shift amt` (amt = imm or cl).
    Shift { op: ShiftOp, w: u8, dst: Reg, amt: AOp },
    /// Sign-extend rax into rdx (cqo/cdq family).
    Cqo { w: u8 },
    /// Zero rdx (before unsigned div).
    ZeroRdx,
    /// Signed or unsigned divide of rdx:rax by `src`; quotient -> rax,
    /// remainder -> rdx.
    Div { w: u8, signed: bool, src: AOp },
    /// Compare: sets flags from `lhs - rhs`.
    Cmp { w: u8, lhs: AOp, rhs: AOp },
    /// Bit test: sets flags from `lhs & rhs`.
    Test { w: u8, lhs: AOp, rhs: AOp },
    /// Materialize a condition into a byte register.
    SetCC { cc: CC, dst: Reg },
    /// Conditional move.
    Cmov { cc: CC, w: u8, dst: Reg, src: AOp },
    /// Conditional jump (reads flags).
    Jcc { cc: CC, target: u32 },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Direct call (pushes the return address).
    Call { func: FuncId, target: u32 },
    /// Return (pops the return address).
    Ret,
    /// Push a 64-bit value.
    Push { src: AOp },
    /// Pop into a register.
    Pop { dst: Reg },
    /// SSE scalar move (xmm<->xmm/mem). Isel always emits `w` = 8; the
    /// width stays because the engines run this through `Mov`'s arms.
    MovSd { w: u8, dst: AOp, src: AOp },
    /// SSE scalar arithmetic: `dst = dst op src`.
    Sse { op: SseOp, dst: Reg, src: AOp },
    /// Double compare -> flags (`ucomisd`).
    Ucomi { lhs: Reg, rhs: AOp },
    /// Int -> double conversion (`cvtsi2sd`).
    Cvtsi2f { dst: Reg, src: AOp },
    /// Double -> int conversion, truncating (`cvttsd2si`).
    Cvtf2si { dst: Reg, src: AOp },
    /// Bit-move between GPR and XMM (`movq`/`movd`).
    MovQ { w: u8, dst: Reg, src: Reg },
    /// Math pseudo (modelled libm): reads xmm args, writes `dst`.
    Math { kind: MathKind, dst: Reg, a: Reg, b: Option<Reg> },
    /// Output-port pseudo (no destination).
    Out { kind: OutKind, src: AOp },
    /// Duplication-checker detector pseudo: halts with `Detected`.
    DetectTrap,
}

/// The micro-role of a machine instruction relative to its IR provenance —
/// the key input to penetration classification (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsmRole {
    /// The instruction that performs the IR operation's actual work.
    Compute,
    /// Reload of a stack-homed value into a register to feed an operand.
    /// When feeding a store, this is the *store penetration* site.
    OperandReload,
    /// Store-back of a freshly computed result into its stack home.
    ResultSpill,
    /// `set<cc>` materializing a comparison result.
    FlagMaterialize,
    /// `test`/`cmp` emitted to (re)establish flags for an unfused branch —
    /// the *branch penetration* site.
    FlagSet,
    /// Calling-convention argument move — the *call penetration* site.
    ArgMove,
    /// Callee-side spill of an incoming parameter register.
    ParamSpill,
    /// Move of a return value between `rax`/`xmm0` and its destination.
    RetMove,
    /// Address arithmetic for `gep`/`alloca`.
    AddrCompute,
    /// Function prologue (`push rbp`, frame setup) — *mapping penetration*.
    Prologue,
    /// Function epilogue (`pop rbp`, `ret`) — *mapping penetration*.
    Epilogue,
    /// Control transfer (`jmp`/`jcc`/`call`/`ret` body).
    Control,
    /// Read-back verification inserted by assembly-level hardening
    /// ([`crate::harden`]).
    Harden,
}

/// A machine instruction with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AInst {
    pub kind: AKind,
    pub role: AsmRole,
    /// The IR instruction this was lowered from, if any.
    pub prov: Option<(FuncId, InstId)>,
    /// The IR-level role (App/Shadow/Checker/Patch) of the provenance, baked
    /// in so analyses do not need the IR module at hand.
    pub ir_role: IrRole,
}

/// Where a fault lands for a given instruction: the architected destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDest {
    /// A written register, with the written width in bytes.
    Gpr(Reg, u8),
    /// The flags register (condition bits only).
    Flags,
    /// The value written to memory (width in bytes). The address is known
    /// only at runtime.
    MemVal(u8),
    /// No architected destination (pure control / output).
    None,
}

/// An abstract storage location for static dataflow over machine code.
///
/// The memory model is field-sensitive: frame slots are tracked
/// per-displacement (they are the spill homes the -O0-style allocator uses
/// and never alias each other within a function), and absolute global cells
/// are tracked per-address. Only pointer-based accesses and the stack
/// push/pop area collapse into the [`Loc::Mem`] summary location, and since
/// globals remain addressable through pointers, `Global` and `Mem` are
/// weakly aliased by the static engine. Displacements are kept as `i32`
/// so a location is one word; one outside that range is summary memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Loc {
    Reg(Reg),
    Flags,
    /// `[rbp + disp]` frame slot, keyed by byte displacement.
    Frame(i32),
    /// Absolute global cell, keyed by address (`[disp]` with no base).
    Global(i32),
    /// Summary of all remaining memory (pointer accesses, push/pop area).
    Mem,
}

impl MemRef {
    /// The abstract [`Loc`] this reference addresses.
    pub fn loc(&self) -> Loc {
        match (self.base, i32::try_from(self.disp)) {
            (Some(Reg::Rbp), Ok(d)) => Loc::Frame(d),
            (None, Ok(d)) => Loc::Global(d),
            _ => Loc::Mem,
        }
    }
}

impl AKind {
    /// Intra-procedural successors of the instruction at flat index `idx`.
    /// `Call` falls through (the callee returns); `Ret` and `DetectTrap`
    /// terminate the path. A `jcc` yields its target, then the fall-through.
    pub fn successors(&self, idx: u32) -> impl Iterator<Item = u32> {
        let (a, b) = match *self {
            AKind::Jmp { target } => (Some(target), None),
            AKind::Jcc { target, .. } => (Some(target), Some(idx + 1)),
            AKind::Ret | AKind::DetectTrap => (None, None),
            _ => (Some(idx + 1), None),
        };
        a.into_iter().chain(b)
    }

    /// True for the flag-setting compare family (`cmp`/`test`/`ucomi`).
    pub fn is_compare(&self) -> bool {
        matches!(self, AKind::Cmp { .. } | AKind::Test { .. } | AKind::Ucomi { .. })
    }

    /// The architected destination of this instruction (static view).
    pub fn fault_dest(&self) -> FaultDest {
        match *self {
            AKind::Mov { w, dst, .. } | AKind::MovSd { w, dst, .. } => match dst {
                AOp::Reg(r) => FaultDest::Gpr(r, w),
                AOp::Mem(_) => FaultDest::MemVal(w),
                AOp::Imm(_) => FaultDest::None,
            },
            AKind::MovSx { wd, dst, .. } => FaultDest::Gpr(dst, wd),
            AKind::Lea { dst, .. } => FaultDest::Gpr(dst, 8),
            AKind::Alu { w, dst, .. } => FaultDest::Gpr(dst, w),
            AKind::Shift { w, dst, .. } => FaultDest::Gpr(dst, w),
            AKind::Cqo { .. } | AKind::ZeroRdx => FaultDest::Gpr(Reg::Rdx, 8),
            // div writes both rax and rdx; attribute to rax (quotient).
            AKind::Div { w, .. } => FaultDest::Gpr(Reg::Rax, w),
            AKind::Cmp { .. } | AKind::Test { .. } | AKind::Ucomi { .. } => FaultDest::Flags,
            AKind::SetCC { dst, .. } => FaultDest::Gpr(dst, 1),
            AKind::Cmov { w, dst, .. } => FaultDest::Gpr(dst, w),
            AKind::Jcc { .. } | AKind::Jmp { .. } | AKind::Ret => FaultDest::None,
            // A call's architected write is the pushed return address.
            AKind::Call { .. } => FaultDest::MemVal(8),
            AKind::Push { .. } => FaultDest::MemVal(8),
            AKind::Pop { dst } => FaultDest::Gpr(dst, 8),
            AKind::Sse { dst, .. } => FaultDest::Gpr(dst, 8),
            AKind::Cvtsi2f { dst, .. } | AKind::Cvtf2si { dst, .. } => FaultDest::Gpr(dst, 8),
            AKind::MovQ { w, dst, .. } => FaultDest::Gpr(dst, w),
            AKind::Math { dst, .. } => FaultDest::Gpr(dst, 8),
            AKind::Out { .. } | AKind::DetectTrap => FaultDest::None,
        }
    }

    /// True if a fault can be injected into this instruction (it has an
    /// architected destination) — mirrors PIN-style destination-register
    /// injection.
    pub fn is_fault_site(&self) -> bool {
        !matches!(self.fault_dest(), FaultDest::None)
    }

    /// Approximate cycle cost, used for the §7.2 overhead experiments.
    pub fn cycles(&self) -> u64 {
        match self {
            AKind::Mov { dst: AOp::Mem(_), .. } | AKind::MovSd { dst: AOp::Mem(_), .. } => 2,
            AKind::Mov { src: AOp::Mem(_), .. }
            | AKind::MovSd { src: AOp::Mem(_), .. }
            | AKind::MovSx { src: AOp::Mem(_), .. } => 3,
            AKind::Mov { .. } | AKind::MovSd { .. } | AKind::MovSx { .. } | AKind::Lea { .. } | AKind::MovQ { .. } => 1,
            AKind::Alu { op: AluOp::Imul, .. } => 3,
            AKind::Alu { .. } | AKind::Shift { .. } | AKind::Cqo { .. } | AKind::ZeroRdx => 1,
            AKind::Div { .. } => 20,
            AKind::Cmp { .. } | AKind::Test { .. } | AKind::SetCC { .. } | AKind::Cmov { .. } => 1,
            AKind::Ucomi { .. } => 2,
            AKind::Jcc { .. } | AKind::Jmp { .. } => 1,
            AKind::Call { .. } | AKind::Ret => 2,
            AKind::Push { .. } | AKind::Pop { .. } => 1,
            AKind::Sse { op: SseOp::DivSd, .. } => 14,
            AKind::Sse { .. } => 4,
            AKind::Cvtsi2f { .. } | AKind::Cvtf2si { .. } => 4,
            AKind::Math { kind: MathKind::Fabs | MathKind::Floor, .. } => 2,
            AKind::Math { kind: MathKind::Sqrt, .. } => 15,
            AKind::Math { .. } => 40,
            AKind::Out { .. } => 1,
            AKind::DetectTrap => 1,
        }
    }
}

/// A compiled function's metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsmFunc {
    pub name: String,
    pub ir_id: FuncId,
    /// Index of the first instruction in the flat program.
    pub entry: u32,
    /// Index one past the last instruction.
    pub end: u32,
    /// Frame size in bytes (below the saved rbp).
    pub frame_size: u64,
}

/// A fully linked machine program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsmProgram {
    pub insts: Vec<AInst>,
    pub funcs: Vec<AsmFunc>,
    /// Entry index of `main`.
    pub main_entry: u32,
    /// Static count of fault-injectable instructions.
    pub static_sites: usize,
}

impl AsmProgram {
    /// Drop the spare capacity instruction selection left behind. The
    /// program is unchanged.
    pub fn shrink_to_fit(&mut self) {
        self.insts.shrink_to_fit();
        self.funcs.shrink_to_fit();
    }

    /// The function containing instruction index `idx`.
    pub fn func_of(&self, idx: u32) -> Option<&AsmFunc> {
        self.funcs.iter().find(|f| f.entry <= idx && idx < f.end)
    }
}

// ---- printing ---------------------------------------------------------------

fn op_str(op: &AOp) -> String {
    match op {
        AOp::Reg(r) => format!("%{}", r.name()),
        AOp::Imm(v) => format!("${v}"),
        AOp::Mem(m) => {
            let disp = if m.disp < 0 {
                format!("-{:#x}", m.disp.unsigned_abs())
            } else {
                format!("{:#x}", m.disp)
            };
            match m.base {
                Some(b) => format!("{disp}(%{})", b.name()),
                None => disp,
            }
        }
    }
}

impl fmt::Display for AKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sfx = |w: u8| match w {
            1 => "b",
            2 => "w",
            4 => "l",
            _ => "q",
        };
        match self {
            AKind::Mov { w, dst, src } => write!(f, "mov{} {}, {}", sfx(*w), op_str(src), op_str(dst)),
            AKind::MovSx { wd, ws, dst, src } => {
                write!(f, "movs{}{} {}, %{}", sfx(*ws), sfx(*wd), op_str(src), dst.name())
            }
            AKind::Lea { dst, mem } => write!(f, "lea {}, %{}", op_str(&AOp::Mem(*mem)), dst.name()),
            AKind::Alu { op, w, dst, src } => {
                let name = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::Imul => "imul",
                    AluOp::And => "and",
                    AluOp::Or => "or",
                    AluOp::Xor => "xor",
                };
                write!(f, "{name}{} {}, %{}", sfx(*w), op_str(src), dst.name())
            }
            AKind::Shift { op, w, dst, amt } => {
                let name = match op {
                    ShiftOp::Shl => "shl",
                    ShiftOp::Shr => "shr",
                    ShiftOp::Sar => "sar",
                };
                write!(f, "{name}{} {}, %{}", sfx(*w), op_str(amt), dst.name())
            }
            AKind::Cqo { .. } => write!(f, "cqo"),
            AKind::ZeroRdx => write!(f, "xorq %rdx, %rdx"),
            AKind::Div { signed, src, .. } => {
                write!(f, "{} {}", if *signed { "idiv" } else { "div" }, op_str(src))
            }
            AKind::Cmp { w, lhs, rhs } => write!(f, "cmp{} {}, {}", sfx(*w), op_str(rhs), op_str(lhs)),
            AKind::Test { w, lhs, rhs } => write!(f, "test{} {}, {}", sfx(*w), op_str(rhs), op_str(lhs)),
            AKind::SetCC { cc, dst } => write!(f, "set{} %{}", cc.name(), dst.name()),
            AKind::Cmov { cc, dst, src, .. } => {
                write!(f, "cmov{} {}, %{}", cc.name(), op_str(src), dst.name())
            }
            AKind::Jcc { cc, target } => write!(f, "j{} .L{target}", cc.name()),
            AKind::Jmp { target } => write!(f, "jmp .L{target}"),
            AKind::Call { target, .. } => write!(f, "callq .L{target}"),
            AKind::Ret => write!(f, "retq"),
            AKind::Push { src } => write!(f, "push {}", op_str(src)),
            AKind::Pop { dst } => write!(f, "pop %{}", dst.name()),
            AKind::MovSd { w, dst, src } => {
                write!(f, "movs{} {}, {}", if *w == 4 { "s" } else { "d" }, op_str(src), op_str(dst))
            }
            AKind::Sse { op, dst, src } => {
                let name = match op {
                    SseOp::AddSd => "addsd",
                    SseOp::SubSd => "subsd",
                    SseOp::MulSd => "mulsd",
                    SseOp::DivSd => "divsd",
                };
                write!(f, "{name} {}, %{}", op_str(src), dst.name())
            }
            AKind::Ucomi { lhs, rhs } => write!(f, "ucomisd {}, %{}", op_str(rhs), lhs.name()),
            AKind::Cvtsi2f { dst, src } => write!(f, "cvtsi2sd {}, %{}", op_str(src), dst.name()),
            AKind::Cvtf2si { dst, src } => write!(f, "cvttsd2si {}, %{}", op_str(src), dst.name()),
            AKind::MovQ { dst, src, .. } => write!(f, "movq %{}, %{}", src.name(), dst.name()),
            AKind::Math { kind, dst, a, b } => {
                let name = match kind {
                    MathKind::Sqrt => "sqrtsd",
                    MathKind::Sin => "call.sin",
                    MathKind::Cos => "call.cos",
                    MathKind::Exp => "call.exp",
                    MathKind::Log => "call.log",
                    MathKind::Fabs => "andpd.abs",
                    MathKind::Floor => "roundsd.floor",
                    MathKind::Pow => "call.pow",
                };
                match b {
                    Some(b) => write!(f, "{name} %{}, %{}, %{}", a.name(), b.name(), dst.name()),
                    None => write!(f, "{name} %{}, %{}", a.name(), dst.name()),
                }
            }
            AKind::Out { kind, src } => {
                let k = match kind {
                    OutKind::I64 => "i64",
                    OutKind::F64 => "f64",
                    OutKind::Byte => "byte",
                };
                write!(f, "out.{k} {}", op_str(src))
            }
            AKind::DetectTrap => write!(f, "ud2.detect"),
        }
    }
}

/// Render a program listing (debugging / documentation).
pub fn print_program(p: &AsmProgram) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for func in &p.funcs {
        let _ = writeln!(s, "{}: # frame {} bytes", func.name, func.frame_size);
        for i in func.entry..func.end {
            let inst = &p.insts[i as usize];
            let _ = writeln!(s, "  .L{i}: {}  # {:?}", inst.kind, inst.role);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_refs_key_cells_by_displacement_and_fold_the_rest_into_the_summary() {
        let at = |base, disp| MemRef { base, disp }.loc();
        assert_eq!(at(Some(Reg::Rbp), -8), Loc::Frame(-8));
        assert_eq!(at(None, 0x1000), Loc::Global(0x1000));
        assert_eq!(at(Some(Reg::Rcx), 8), Loc::Mem, "pointer access");
        // A displacement no `i32` holds must not alias a tracked cell.
        assert_eq!(at(None, 0x1_0000_1000), Loc::Mem);
        assert_eq!(at(Some(Reg::Rbp), i64::MIN), Loc::Mem);
    }

    #[test]
    fn fault_dest_classification() {
        let mov_rm = AKind::Mov {
            w: 8,
            dst: AOp::Reg(Reg::Rax),
            src: AOp::Mem(MemRef::rbp(-8)),
        };
        assert_eq!(mov_rm.fault_dest(), FaultDest::Gpr(Reg::Rax, 8));
        let mov_mr = AKind::Mov {
            w: 4,
            dst: AOp::Mem(MemRef::rbp(-16)),
            src: AOp::Reg(Reg::Rcx),
        };
        assert_eq!(mov_mr.fault_dest(), FaultDest::MemVal(4));
        let cmp = AKind::Cmp { w: 8, lhs: AOp::Reg(Reg::Rax), rhs: AOp::Imm(0) };
        assert_eq!(cmp.fault_dest(), FaultDest::Flags);
        assert_eq!(AKind::Ret.fault_dest(), FaultDest::None);
        assert!(!AKind::Jmp { target: 0 }.is_fault_site());
        assert!(AKind::Push { src: AOp::Reg(Reg::Rbp) }.is_fault_site());
    }

    #[test]
    fn cycle_model_sane() {
        assert!(AKind::Div { w: 8, signed: true, src: AOp::Reg(Reg::Rcx) }.cycles() > 10);
        assert_eq!(AKind::Lea { dst: Reg::Rax, mem: MemRef::rbp(0) }.cycles(), 1);
        let load = AKind::Mov {
            w: 8,
            dst: AOp::Reg(Reg::Rax),
            src: AOp::Mem(MemRef::rbp(-8)),
        };
        let store = AKind::Mov {
            w: 8,
            dst: AOp::Mem(MemRef::rbp(-8)),
            src: AOp::Reg(Reg::Rax),
        };
        assert!(load.cycles() > store.cycles());
    }

    #[test]
    fn display_att_flavour() {
        let i = AKind::Mov {
            w: 8,
            dst: AOp::Reg(Reg::Rax),
            src: AOp::Mem(MemRef::rbp(-0x40)),
        };
        assert_eq!(i.to_string(), "movq -0x40(%rbp), %rax");
        let c = AKind::Cmp { w: 4, lhs: AOp::Reg(Reg::Rax), rhs: AOp::Imm(10) };
        assert_eq!(c.to_string(), "cmpl $10, %rax");
        let t = AKind::Test { w: 1, lhs: AOp::Reg(Reg::Rax), rhs: AOp::Imm(1) };
        assert_eq!(t.to_string(), "testb $1, %rax");
    }

    #[test]
    fn reg_pools_disjoint_from_frame_regs() {
        assert!(!Reg::GPR_POOL.contains(&Reg::Rbp));
        assert!(!Reg::GPR_POOL.contains(&Reg::Rsp));
        for r in Reg::XMM_POOL {
            assert!(r.is_xmm());
        }
    }
}
