//! The IR layer's [`Substrate`]: [`Interpreter`], its frames and snapshot
//! state, and the driver that picks an instantiation of the one pre-decoded
//! loop ([`compiled`](super::compiled)) for each stretch of a run.

use crate::interp::compiled::{Book, Compiled, ARMED, BOOK, FAST, REC};
use crate::interp::memory::{Memory, TrapKind, GLOBAL_BASE};
use crate::interp::snapio::{w_bytes, w_leb, w_opt, w_status, w_u32, w_u64, w_words, Cursor};
use crate::interp::snapshot::{Cadence, Recorder};
use crate::interp::substrate::{self, RunHead, RunResult, Start, Substrate};
use crate::interp::{ExecConfig, ExecMode, ExecResult, ExecStatus, FaultSpec, Profile};
use crate::interp::{IrScratch, IrSnapshotSet};
use crate::module::Module;
use crate::value::{BlockId, FuncId, InstId};
use std::sync::OnceLock;

/// One activation record. `Clone` deep-copies the value/param vectors —
/// used when a snapshot captures the call stack.
#[derive(Clone, Debug)]
pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) block: BlockId,
    /// Index of the next instruction within the block.
    pub(crate) ip: usize,
    /// Result slots, one per instruction-arena entry (canonical bits).
    pub(crate) values: Vec<u64>,
    /// Parameter values.
    pub(crate) params: Vec<u64>,
    /// Stack pointer to restore when this frame returns.
    pub(crate) saved_sp: u64,
    /// Instruction in the *caller* that receives the return value.
    pub(crate) ret_dest: Option<InstId>,
}

/// Recycles frame value/param buffers (and the stack vector itself) across
/// calls and across trials, so steady-state execution allocates nothing.
#[derive(Default)]
pub struct FramePool {
    bufs: Vec<Vec<u64>>,
    stacks: Vec<Vec<Frame>>,
}

impl FramePool {
    /// An empty buffer, reusing a retired one when available.
    fn take_buf(&mut self) -> Vec<u64> {
        let mut v = self.bufs.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// A frame entering `func` at its first instruction, with `n` zeroed
    /// result slots and no parameters yet.
    pub(super) fn frame(&mut self, func: FuncId, n: usize, saved_sp: u64, ret_dest: Option<InstId>) -> Frame {
        let (mut values, params, block) = (self.take_buf(), self.take_buf(), BlockId(0));
        values.resize(n, 0);
        Frame { func, block, ip: 0, values, params, saved_sp, ret_dest }
    }

    /// A copy of `src` in a recycled buffer.
    fn take_copy(&mut self, src: &[u64]) -> Vec<u64> {
        let mut v = self.take_buf();
        v.extend_from_slice(src);
        v
    }

    pub(super) fn free_frame(&mut self, f: Frame) {
        self.bufs.push(f.values);
        self.bufs.push(f.params);
    }

    fn take_stack(&mut self) -> Vec<Frame> {
        self.stacks.pop().unwrap_or_default()
    }

    fn free_stack(&mut self, mut s: Vec<Frame>) {
        for f in s.drain(..) {
            self.free_frame(f);
        }
        self.stacks.push(s);
    }

    /// Deep-copy a snapshot's call stack into recycled buffers.
    pub(crate) fn clone_stack(&mut self, src: &[Frame]) -> Vec<Frame> {
        let mut s = self.take_stack();
        for f in src {
            let values = self.take_copy(&f.values);
            let params = self.take_copy(&f.params);
            s.push(Frame { values, params, ..*f });
        }
        s
    }
}

/// The IR injection layer (the paper's "LLVM level"): marker type carrying
/// the [`Substrate`] impl for [`Interpreter`].
#[derive(Debug, Clone, Copy)]
pub struct IrLayer;

/// What an IR snapshot holds besides counters and memory: the stack pointer
/// and the call stack, deep-cloned.
#[derive(Clone, Debug)]
pub struct IrState {
    pub(crate) sp: u64,
    pub(crate) stack: Vec<Frame>,
}

/// Interpreter for one module. Reusable across runs; each [`Interpreter::run`]
/// call builds fresh memory. The pre-decoded translation every run executes
/// is built lazily on first use and reused for every run after that.
pub struct Interpreter<'m> {
    module: &'m Module,
    compiled: OnceLock<Compiled<'m>>,
}

impl<'m> Interpreter<'m> {
    pub fn new(module: &'m Module) -> Interpreter<'m> {
        Interpreter { module, compiled: OnceLock::new() }
    }

    fn compiled(&self) -> &Compiled<'m> {
        self.compiled.get_or_init(|| Compiled::build(self.module))
    }

    /// Execute `main` to completion under `config`, optionally injecting a
    /// fault.
    pub fn run(&self, config: &ExecConfig, fault: Option<FaultSpec>) -> ExecResult {
        substrate::run::<IrLayer>(self, config, fault)
    }

    /// One fault-free run that captures a snapshot every `interval` dynamic
    /// instructions (see [`substrate::capture`]).
    pub fn capture_snapshots(&self, config: &ExecConfig, interval: u64) -> IrSnapshotSet {
        substrate::capture(self, config, Cadence::Insts(interval), None)
    }

    /// Self-tuning site-spaced capture (see [`substrate::capture_for`]).
    pub fn capture_snapshots_auto(&self, config: &ExecConfig) -> IrSnapshotSet {
        substrate::capture_for(self, config, u64::MAX)
    }

    /// Run one faulty trial from the nearest snapshot at-or-before the
    /// injection site (see [`substrate::trial`]); bit-identical to
    /// `run(config, Some(fault))`.
    pub fn run_fast_forward(
        &self,
        config: &ExecConfig,
        fault: FaultSpec,
        set: &IrSnapshotSet,
        scratch: &mut IrScratch,
    ) -> (ExecResult, u64) {
        substrate::trial(self, config, fault, Some(set), scratch)
    }

    /// Execute from `start` (fresh or restored), optionally capturing
    /// snapshots into `recorder`. Returns the result plus the memory image
    /// so callers can recycle it.
    fn exec(
        &self,
        config: &ExecConfig,
        fault: Option<FaultSpec>,
        mut run: Start<IrLayer>,
        recorder: Option<&mut Recorder<IrLayer>>,
        pool: &mut FramePool,
    ) -> (ExecResult, Memory) {
        let profile = config.profile.then(|| Profile {
            counts: self.module.functions.iter().map(|f| vec![0u64; f.insts.len()]).collect(),
        });
        let mut book = Book { injected_at: None, profile, recorder };
        let code = self.compiled();
        let status = loop {
            if run.state.stack.is_empty() {
                break ExecStatus::Trapped(TrapKind::BadControl);
            }
            // Recorder runs take the recording loop, capturing between its
            // stretches; profile runs take the bookkept loop throughout;
            // plain runs take the fast loop, armed until the injection is
            // due, and the bookkept loop for that one op.
            let stretch = if let Some(rec) = book.recorder.as_deref_mut() {
                if rec.due(run.dyn_insts, run.fault_sites) {
                    rec.capture(run.dyn_insts, run.fault_sites, run.output.len(), run.state.clone(), &mut run.mem);
                }
                code.run::<REC>(config, fault, &mut run, pool, &mut book)
            } else if book.profile.is_some() {
                code.run::<BOOK>(config, fault, &mut run, pool, &mut book)
            } else if fault.is_some() && book.injected_at.is_none() {
                code.run::<ARMED>(config, fault, &mut run, pool, &mut book)
                    .and_then(|()| code.run::<BOOK>(config, fault, &mut run, pool, &mut book))
            } else {
                code.run::<FAST>(config, fault, &mut run, pool, &mut book)
            };
            if let Err(s) = stretch {
                break s;
            }
        };
        let Start { mem, output, dyn_insts, fault_sites, state } = run;
        pool.free_stack(state.stack);
        let Book { injected_at, profile, .. } = book;
        (ExecResult { status, output, dyn_insts, fault_sites, injected_at, profile }, mem)
    }

    /// Count fault sites and dynamic instructions of a fault-free run.
    pub fn profile_run(&self, config: &ExecConfig) -> ExecResult {
        let cfg = ExecConfig { profile: true, ..config.clone() };
        self.run(&cfg, None)
    }
}

impl RunResult for ExecResult {
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

impl Substrate for IrLayer {
    const MAGIC: &'static [u8; 8] = b"FLSNAPIR";
    const NAME: &'static str = "ir";

    type Exec<'a> = Interpreter<'a>;
    type State = IrState;
    type Golden = ExecResult;
    type Pool = FramePool;

    fn module<'a>(exec: &'a Interpreter<'_>) -> &'a Module {
        exec.module
    }

    /// The IR layer ignores `--executor` (see [`ExecMode`]).
    fn engine(_config: &ExecConfig) -> ExecMode {
        ExecMode::Interp
    }

    fn site_regions(exec: &Interpreter<'_>) -> Vec<u32> {
        (0..exec.module.functions.len() as u32).collect()
    }

    fn start(exec: &Interpreter<'_>, from: Option<&IrState>, mem: &mut Memory, pool: &mut FramePool) -> IrState {
        if let Some(s) = from {
            return IrState { sp: s.sp, stack: pool.clone_stack(&s.stack) };
        }
        let sp = mem.initial_sp();
        // A module without `@main` (only an unverified one) starts with an
        // empty call stack, which `exec` traps as `BadControl`.
        let Some(main) = exec.module.main_func() else {
            return IrState { sp, stack: pool.take_stack() };
        };
        let f = exec.module.func(main);
        let mut frame = pool.frame(main, f.insts.len(), sp, None);
        // Nothing passes `main` arguments: any parameters it declares read 0.
        frame.params.resize(f.params.len(), 0);
        let mut stack = pool.take_stack();
        stack.push(frame);
        IrState { sp, stack }
    }

    fn run_suffix(
        exec: &Interpreter<'_>,
        config: &ExecConfig,
        fault: Option<FaultSpec>,
        start: Start<IrLayer>,
        recorder: Option<&mut Recorder<IrLayer>>,
        pool: &mut FramePool,
    ) -> (ExecResult, Memory) {
        exec.exec(config, fault, start, recorder, pool)
    }

    fn encode_head(w: &mut Vec<u8>, r: &ExecResult) {
        w_status(w, r.status);
        w_bytes(w, &r.output);
        w_u64(w, r.dyn_insts);
        w_u64(w, r.fault_sites);
        w_opt(w, r.injected_at, |w, (f, i)| {
            w_u32(w, f.0);
            w_u32(w, i.0);
        });
    }

    fn decode_head(c: &mut Cursor) -> Result<ExecResult, String> {
        Ok(ExecResult {
            status: c.status()?,
            output: c.bytes()?,
            dyn_insts: c.u64()?,
            fault_sites: c.u64()?,
            injected_at: c.opt("injected_at", |c| Ok((FuncId(c.u32()?), InstId(c.u32()?))))?,
            profile: None,
        })
    }

    /// The stack pointer, then each frame, its values and parameters coded
    /// against the previous snapshot's frame at the same depth when that
    /// runs the same function.
    fn encode_snap(w: &mut Vec<u8>, state: &IrState, prev: Option<&IrState>) {
        w_u64(w, state.sp);
        w_leb(w, state.stack.len() as u64);
        let prev = prev.map_or(&[][..], |p| &p.stack[..]);
        for (depth, f) in state.stack.iter().enumerate() {
            w_leb(w, f.func.0.into());
            w_leb(w, f.block.0.into());
            w_leb(w, f.ip as u64);
            w_u64(w, f.saved_sp);
            w_opt(w, f.ret_dest, |w, i| w_leb(w, i.0.into()));
            let held = prev.get(depth).filter(|p| p.func == f.func);
            w_words(w, &f.values, held.map_or(&[], |p| &p.values));
            w_words(w, &f.params, held.map_or(&[], |p| &p.params));
        }
    }

    fn decode_snap(c: &mut Cursor, exec: &Interpreter<'_>, prev: Option<&IrState>) -> Result<IrState, String> {
        let m = exec.module;
        let sp = c.u64()?;
        let n_frames = c.count()?;
        if n_frames == 0 {
            return Err("snapshot file: empty call stack".into());
        }
        let prev = prev.map_or(&[][..], |p| &p.stack[..]);
        // Sized by the previous stack, never by the file's count alone.
        let mut stack: Vec<Frame> = Vec::with_capacity(n_frames.min(prev.len() + 1));
        for depth in 0..n_frames {
            let func = FuncId(c.leb32()?);
            let block = BlockId(c.leb32()?);
            let ip = c.leb()?;
            let saved_sp = c.u64()?;
            let ret_dest = c.opt("ret_dest", |c| Ok(InstId(c.leb32()?)))?;
            let f = m
                .functions
                .get(func.index())
                .ok_or("snapshot file: frame function out of range")?;
            let b = f.blocks.get(block.index()).ok_or("snapshot file: frame block out of range")?;
            if ip > b.insts.len() as u64 {
                return Err("snapshot file: frame shape does not match module".into());
            }
            let ip = ip as usize;
            // A return lands in a result slot of the caller, and the bottom
            // frame has no caller.
            let lands =
                |c: &Frame, d: InstId| d.index() < m.func(c.func).insts.len() && m.result_ty(c.func, d).is_some();
            if ret_dest.is_some_and(|d| stack.last().is_none_or(|caller| !lands(caller, d))) {
                return Err("snapshot file: frame ret_dest names no result slot of its caller".into());
            }
            // The slot counts are the function's (and the held frame's).
            let held = prev.get(depth).filter(|p| p.func == func);
            let mut values = held.map_or_else(|| vec![0; f.insts.len()], |p| p.values.clone());
            let mut params = held.map_or_else(|| vec![0; f.params.len()], |p| p.params.clone());
            c.xor_words(&mut values)?;
            c.xor_words(&mut params)?;
            stack.push(Frame { func, block, ip, values, params, saved_sp, ret_dest });
        }
        Ok(IrState { sp, stack })
    }
}

/// The address range memory-cell faults land in: the globals segment when
/// the module has one, else the stack segment. Both are a pure function of
/// the module and memory geometry, so the same spec flips the same cell
/// whether a trial runs from scratch or from a restored snapshot.
pub fn mem_fault_region(module: &Module, mem: &Memory) -> (u64, u64) {
    let globals_end = Memory::globals_end(module);
    if globals_end > GLOBAL_BASE {
        (GLOBAL_BASE, globals_end)
    } else {
        (mem.stack_limit(), mem.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::inst::{BinOp, IPred, InstKind, Intrinsic};
    use crate::interp::{ExecStatus, TrapKind};
    use crate::types::Type;
    use crate::value::Op;
    use crate::verify::verify_module;

    /// Build: main() { s = 0; for i in 0..10 { s += i } ; output_i64(s); ret s }
    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new("loop");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let s = fb.alloca(Type::I64, 1);
        let i = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(0), Op::inst(s));
        fb.store(Type::I64, Op::ci64(0), Op::inst(i));
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        fb.jmp(header);
        fb.switch_to(header);
        let iv = fb.load(Type::I64, Op::inst(i));
        let c = fb.icmp(IPred::Slt, Type::I64, Op::inst(iv), Op::ci64(10));
        fb.br(Op::inst(c), body, exit);
        fb.switch_to(body);
        let sv = fb.load(Type::I64, Op::inst(s));
        let iv2 = fb.load(Type::I64, Op::inst(i));
        let ns = fb.bin(BinOp::Add, Type::I64, Op::inst(sv), Op::inst(iv2));
        fb.store(Type::I64, Op::inst(ns), Op::inst(s));
        let ni = fb.bin(BinOp::Add, Type::I64, Op::inst(iv2), Op::ci64(1));
        fb.store(Type::I64, Op::inst(ni), Op::inst(i));
        fb.jmp(header);
        fb.switch_to(exit);
        let r = fb.load(Type::I64, Op::inst(s));
        fb.output_i64(Op::inst(r));
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        mb.finish()
    }

    #[test]
    fn loop_sums_correctly() {
        let m = loop_module();
        verify_module(&m).unwrap();
        let interp = Interpreter::new(&m);
        let r = interp.run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Completed(45));
        assert_eq!(crate::interp::decode_output(&r.output), vec!["i64:45"]);
        assert!(r.dyn_insts > 50);
        assert!(r.fault_sites > 0);
        assert!(r.fault_sites < r.dyn_insts, "stores/branches are not sites");
    }

    #[test]
    fn profile_counts_loop_body() {
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let r = interp.profile_run(&ExecConfig::default());
        let p = r.profile.unwrap();
        // The loop-body add executes 10 times.
        let f = FuncId(0);
        // find the Add instruction ids
        let adds: Vec<InstId> = m.functions[0]
            .insts
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d.kind, InstKind::Bin { op: BinOp::Add, .. }))
            .map(|(i, _)| InstId(i as u32))
            .collect();
        for a in adds {
            assert_eq!(p.count(f, a), 10);
        }
    }

    #[test]
    fn function_calls_and_recursion() {
        // fib(n) recursive
        let mut mb = ModuleBuilder::new("fib");
        let fib = mb.declare_func("fib", vec![Type::I64], Some(Type::I64));
        let mut fb = FuncBuilder::new("fib", vec![Type::I64], Some(Type::I64));
        let base = fb.new_block("base");
        let rec = fb.new_block("rec");
        let c = fb.icmp(IPred::Slt, Type::I64, Op::param(0), Op::ci64(2));
        fb.br(Op::inst(c), base, rec);
        fb.switch_to(base);
        fb.ret(Some(Op::param(0)));
        fb.switch_to(rec);
        let n1 = fb.bin(BinOp::Sub, Type::I64, Op::param(0), Op::ci64(1));
        let n2 = fb.bin(BinOp::Sub, Type::I64, Op::param(0), Op::ci64(2));
        let f1 = fb.call(fib, vec![Op::inst(n1)]);
        let f2 = fb.call(fib, vec![Op::inst(n2)]);
        let s = fb.bin(BinOp::Add, Type::I64, Op::inst(f1), Op::inst(f2));
        fb.ret(Some(Op::inst(s)));
        mb.define_func(fib, fb.finish());

        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let r = fb.call(fib, vec![Op::ci64(10)]);
        fb.output_i64(Op::inst(r));
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        verify_module(&m).unwrap();
        let interp = Interpreter::new(&m);
        let r = interp.run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Completed(55));
    }

    #[test]
    fn fault_flips_result_bit() {
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let golden = interp.run(&ExecConfig::default(), None);
        // Inject into the very last fault site (the final load of s), bit 1.
        let spec = FaultSpec::single(golden.fault_sites - 1, 1);
        let faulty = interp.run(&ExecConfig::default(), Some(spec));
        assert!(faulty.injected_at.is_some());
        // 45 ^ 2 = 47
        assert_eq!(faulty.status, ExecStatus::Completed(47));
        assert!(!faulty.matches_output(&golden));
    }

    #[test]
    fn fault_can_be_benign() {
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let golden = interp.run(&ExecConfig::default(), None);
        // Inject into the loop-exit compare's *first* execution, which only
        // affects an intermediate i; flipping a high bit of the bool (mod 1
        // bit width -> bit 0) flips the branch though. Instead flip the
        // *alloca result* high bit? That would corrupt addresses. Use a
        // benign case: flip bit of iv load at final iteration-compare; the
        // simplest reliable benign case is flipping the same site twice is
        // not possible, so instead assert that SOME site is benign.
        let mut any_benign = false;
        for site in 0..golden.fault_sites {
            let r = interp.run(&ExecConfig::default(), Some(FaultSpec::single(site, 0)));
            if r.matches_output(&golden) {
                any_benign = true;
                break;
            }
        }
        assert!(any_benign, "expected at least one benign site");
    }

    #[test]
    fn fault_in_pointer_traps() {
        // A gep result IS a fault site; flipping a high bit yields a wild
        // pointer and the access traps (DUE).
        let mut mb = ModuleBuilder::new("p");
        let g = mb.global_i64("data", &[1, 2, 3]);
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let p = fb.gep(Op::Global(g), Op::ci64(1), Type::I64);
        let v = fb.load(Type::I64, Op::inst(p));
        fb.ret(Some(Op::inst(v)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let interp = Interpreter::new(&m);
        let r = interp.run(&ExecConfig::default(), Some(FaultSpec::single(0, 60)));
        assert!(matches!(r.status, ExecStatus::Trapped(TrapKind::OobLoad)), "{:?}", r.status);
    }

    #[test]
    fn allocas_and_call_returns_are_not_fault_sites() {
        // A function whose body is nothing but allocas and a call: the only
        // sites are the callee's compute instructions.
        let mut mb = ModuleBuilder::new("s");
        let callee = mb.declare_func("f", vec![], Some(Type::I64));
        let mut fb = FuncBuilder::new("f", vec![], Some(Type::I64));
        let v = fb.bin(BinOp::Add, Type::I64, Op::ci64(1), Op::ci64(2));
        fb.ret(Some(Op::inst(v)));
        mb.define_func(callee, fb.finish());
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let _a = fb.alloca(Type::I64, 4);
        let _b = fb.alloca(Type::I64, 4);
        let r = fb.call(callee, vec![]);
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let res = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(res.status, ExecStatus::Completed(3));
        assert_eq!(res.fault_sites, 1, "only the callee's add is a site");
    }

    #[test]
    fn inst_limit_catches_livelock() {
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig { max_dyn_insts: 20, ..Default::default() };
        let r = interp.run(&cfg, None);
        assert_eq!(r.status, ExecStatus::Trapped(TrapKind::InstLimit));
    }

    #[test]
    fn detect_error_halts_with_detected() {
        let mut mb = ModuleBuilder::new("d");
        let mut fb = FuncBuilder::new("main", vec![], None);
        fb.intrinsic(Intrinsic::DetectError, vec![]);
        fb.ret(None);
        mb.add_func(fb.finish());
        let m = mb.finish();
        let interp = Interpreter::new(&m);
        let r = interp.run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Detected);
    }

    #[test]
    fn globals_readable_and_writable() {
        let mut mb = ModuleBuilder::new("g");
        let g = mb.global_i64("data", &[7, 8, 9]);
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let p1 = fb.gep(Op::Global(g), Op::ci64(2), Type::I64);
        let v = fb.load(Type::I64, Op::inst(p1));
        let p0 = fb.gep(Op::Global(g), Op::ci64(0), Type::I64);
        fb.store(Type::I64, Op::inst(v), Op::inst(p0));
        let v2 = fb.load(Type::I64, Op::inst(p0));
        fb.ret(Some(Op::inst(v2)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        verify_module(&m).unwrap();
        let r = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Completed(9));
    }

    #[test]
    fn main_parameters_read_zero() {
        // Nothing passes `main` arguments, though a module may declare some.
        let mut mb = ModuleBuilder::new("p");
        let mut fb = FuncBuilder::new("main", vec![Type::I64], None);
        fb.output_i64(Op::param(0));
        fb.ret(None);
        mb.add_func(fb.finish());
        let m = mb.finish();
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig::default();
        for r in [interp.run(&cfg, None), interp.capture_snapshots(&cfg, 1).golden().clone()] {
            assert_eq!(r.status, ExecStatus::Completed(0));
            assert_eq!(crate::interp::decode_output(&r.output), ["i64:0"]);
        }
    }

    #[test]
    fn call_depth_trap() {
        let mut mb = ModuleBuilder::new("rec");
        let f = mb.declare_func("inf", vec![], None);
        let mut fb = FuncBuilder::new("inf", vec![], None);
        fb.call(f, vec![]);
        fb.ret(None);
        mb.define_func(f, fb.finish());
        let mut fb = FuncBuilder::new("main", vec![], None);
        fb.call(f, vec![]);
        fb.ret(None);
        mb.add_func(fb.finish());
        let m = mb.finish();
        let r = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Trapped(TrapKind::CallDepth));
    }

    /// main() { output(fib(12)) } with a recursive fib.
    fn fib12() -> Module {
        let mut mb = ModuleBuilder::new("fib");
        let fib = mb.declare_func("fib", vec![Type::I64], Some(Type::I64));
        let mut fb = FuncBuilder::new("fib", vec![Type::I64], Some(Type::I64));
        let base = fb.new_block("base");
        let rec = fb.new_block("rec");
        let c = fb.icmp(IPred::Slt, Type::I64, Op::param(0), Op::ci64(2));
        fb.br(Op::inst(c), base, rec);
        fb.switch_to(base);
        fb.ret(Some(Op::param(0)));
        fb.switch_to(rec);
        let n1 = fb.bin(BinOp::Sub, Type::I64, Op::param(0), Op::ci64(1));
        let n2 = fb.bin(BinOp::Sub, Type::I64, Op::param(0), Op::ci64(2));
        let f1 = fb.call(fib, vec![Op::inst(n1)]);
        let f2 = fb.call(fib, vec![Op::inst(n2)]);
        let s = fb.bin(BinOp::Add, Type::I64, Op::inst(f1), Op::inst(f2));
        fb.ret(Some(Op::inst(s)));
        mb.define_func(fib, fb.finish());
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let r = fb.call(fib, vec![Op::ci64(12)]);
        fb.output_i64(Op::inst(r));
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        mb.finish()
    }

    /// A capture of fib(12) with one snapshot's call stack edited by
    /// `tamper`, re-checksummed, must be refused by the decoder with an
    /// error naming `field` — never handed to the engine.
    fn refused_after(tamper: impl Fn(&mut Vec<Frame>), field: &str) {
        let m = fib12();
        let cfg = ExecConfig { max_dyn_insts: 100_000, ..Default::default() };
        let mut set = Interpreter::new(&m).capture_snapshots(&cfg, 64);
        let deep = set
            .snaps
            .iter_mut()
            .find(|s| s.state.stack.len() > 2)
            .expect("a mid-recursion snapshot");
        tamper(&mut deep.state.stack);
        let err = IrSnapshotSet::from_bytes(&set.to_bytes(7), &m, 7).expect_err("a frame the engine cannot run");
        assert!(err.contains(field), "{err}");
    }

    #[test]
    fn snapshot_frames_short_of_their_params_are_refused() {
        // The file holds no slot count: the reader takes the function's,
        // and the runs coded for none do not fill it.
        refused_after(|stack| stack.iter_mut().for_each(|f| f.params.clear()), "run");
    }

    #[test]
    fn a_snapshot_without_frames_is_refused() {
        refused_after(|stack| stack.clear(), "empty call stack");
    }

    #[test]
    fn return_slots_outside_the_callers_results_are_refused() {
        refused_after(|stack| stack[1].ret_dest = Some(InstId(10_000)), "ret_dest");
        refused_after(|stack| stack[0].ret_dest = Some(InstId(0)), "ret_dest");
    }

    #[test]
    fn fast_forward_recursion_restores_deep_stacks() {
        // fib(12): snapshots land mid-recursion, so restore must rebuild a
        // multi-frame call stack with correct saved_sp/ret_dest chains.
        let m = fib12();
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig { max_dyn_insts: 100_000, ..Default::default() };
        let set = interp.capture_snapshots(&cfg, 64);
        assert!(
            set.snapshots().iter().any(|s| s.state.stack.len() > 2),
            "snapshots should catch deep recursion"
        );
        let mut scratch = IrScratch::new();
        let golden = set.golden();
        for site in (0..golden.fault_sites).step_by(31) {
            let spec = FaultSpec::double(site, 3, 41);
            let scratch_res = interp.run(&cfg, Some(spec));
            let (ff_res, _) = interp.run_fast_forward(&cfg, spec, &set, &mut scratch);
            assert_eq!(ff_res.status, scratch_res.status, "site {site}");
            assert_eq!(ff_res.output, scratch_res.output, "site {site}");
            assert_eq!(ff_res.dyn_insts, scratch_res.dyn_insts, "site {site}");
            assert_eq!(ff_res.fault_sites, scratch_res.fault_sites, "site {site}");
            assert_eq!(ff_res.injected_at, scratch_res.injected_at, "site {site}");
        }
    }
}
