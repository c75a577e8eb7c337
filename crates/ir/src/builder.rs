//! Ergonomic construction API for IR, used by the MiniC lowering, the
//! transformation passes and tests.

use crate::inst::{BinOp, Callee, CastKind, FPred, IPred, InstData, InstKind, Intrinsic, Terminator};
use crate::module::{Block, Function, Global, GlobalInit, Module};
use crate::types::Type;
use crate::value::{BlockId, FuncId, GlobalId, InstId, Op};

/// Builds one function; append instructions to a *current block* cursor.
pub struct FuncBuilder {
    func: Function,
    cur: Option<BlockId>,
}

impl FuncBuilder {
    /// Start a function. The entry block is created and made current.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret_ty: Option<Type>) -> FuncBuilder {
        let mut func = Function {
            name: name.into(),
            params,
            ret_ty,
            insts: Vec::new(),
            blocks: Vec::new(),
        };
        let entry = func.add_block("entry");
        FuncBuilder { func, cur: Some(entry) }
    }

    /// Create (but do not switch to) a new block.
    pub fn new_block(&mut self, label: impl Into<String>) -> BlockId {
        self.func.add_block(label)
    }

    /// Make `b` the current insertion block.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = Some(b);
    }

    /// The current insertion block.
    pub fn current(&self) -> BlockId {
        self.cur.expect("no current block (already terminated?)")
    }

    /// True if the current block has been terminated (no insertion point).
    pub fn is_terminated(&self) -> bool {
        self.cur.is_none()
    }

    /// Append `data` to the current block; returns its id (usable as a value
    /// if the instruction produces a result).
    pub fn push(&mut self, data: InstData) -> InstId {
        let cur = self.current();
        let id = self.func.add_inst(data);
        self.func.block_mut(cur).insts.push(id);
        id
    }

    fn push_kind(&mut self, kind: InstKind) -> InstId {
        self.push(InstData::new(kind))
    }

    // ---- instruction shorthands -------------------------------------------------

    pub fn alloca(&mut self, elem: Type, count: u32) -> InstId {
        self.push_kind(InstKind::Alloca { elem, count })
    }

    /// Insert an `alloca` into the *entry block*, after any existing entry
    /// allocas, regardless of the current cursor. This mirrors Clang `-O0`,
    /// which hoists all locals to the function entry so loops do not grow
    /// the stack.
    pub fn alloca_entry(&mut self, elem: Type, count: u32) -> InstId {
        let id = self.func.add_inst(InstData::new(InstKind::Alloca { elem, count }));
        let entry = self.func.entry();
        let pos = self
            .func
            .block(entry)
            .insts
            .iter()
            .take_while(|&&i| matches!(self.func.inst(i).kind, InstKind::Alloca { .. }))
            .count();
        self.func.block_mut(entry).insts.insert(pos, id);
        id
    }

    pub fn load(&mut self, ty: Type, ptr: Op) -> InstId {
        self.push_kind(InstKind::Load { ptr, ty })
    }

    pub fn store(&mut self, ty: Type, val: Op, ptr: Op) -> InstId {
        self.push_kind(InstKind::Store { val, ptr, ty })
    }

    pub fn bin(&mut self, op: BinOp, ty: Type, lhs: Op, rhs: Op) -> InstId {
        self.push_kind(InstKind::Bin { op, ty, lhs, rhs })
    }

    pub fn icmp(&mut self, pred: IPred, ty: Type, lhs: Op, rhs: Op) -> InstId {
        self.push_kind(InstKind::ICmp { pred, ty, lhs, rhs })
    }

    pub fn fcmp(&mut self, pred: FPred, ty: Type, lhs: Op, rhs: Op) -> InstId {
        self.push_kind(InstKind::FCmp { pred, ty, lhs, rhs })
    }

    pub fn cast(&mut self, kind: CastKind, from: Type, to: Type, val: Op) -> InstId {
        self.push_kind(InstKind::Cast { kind, from, to, val })
    }

    pub fn gep(&mut self, base: Op, index: Op, elem: Type) -> InstId {
        self.push_kind(InstKind::Gep { base, index, elem })
    }

    pub fn call(&mut self, callee: FuncId, args: Vec<Op>) -> InstId {
        self.push_kind(InstKind::Call { callee: Callee::Func(callee), args })
    }

    pub fn intrinsic(&mut self, which: Intrinsic, args: Vec<Op>) -> InstId {
        self.push_kind(InstKind::Call { callee: Callee::Intrinsic(which), args })
    }

    pub fn output_i64(&mut self, v: Op) -> InstId {
        self.intrinsic(Intrinsic::OutputI64, vec![v])
    }

    pub fn output_f64(&mut self, v: Op) -> InstId {
        self.intrinsic(Intrinsic::OutputF64, vec![v])
    }

    // ---- terminators ------------------------------------------------------------

    /// Terminate the current block; the cursor becomes empty.
    pub fn terminate(&mut self, t: Terminator) {
        let cur = self.current();
        self.func.block_mut(cur).term = t;
        self.cur = None;
    }

    pub fn br(&mut self, cond: Op, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::Br { cond, then_bb, else_bb });
    }

    pub fn jmp(&mut self, dest: BlockId) {
        self.terminate(Terminator::Jmp { dest });
    }

    pub fn ret(&mut self, val: Option<Op>) {
        self.terminate(Terminator::Ret { val });
    }

    /// Finish and return the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Immutable view of the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }
}

/// Builds a module: globals plus functions.
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder { module: Module::new(name) }
    }

    /// Add a zero-initialized global array.
    pub fn global_zeroed(&mut self, name: impl Into<String>, elem: Type, count: u64) -> GlobalId {
        self.module
            .add_global(Global { name: name.into(), elem, count, init: GlobalInit::Zero })
    }

    /// Add a global with explicit element values (canonical bit patterns).
    pub fn global_init(&mut self, name: impl Into<String>, elem: Type, values: Vec<u64>) -> GlobalId {
        let count = values.len() as u64;
        self.module.add_global(Global {
            name: name.into(),
            elem,
            count,
            init: GlobalInit::Elems(values),
        })
    }

    /// Add a global initialized from `i64` values.
    pub fn global_i64(&mut self, name: impl Into<String>, values: &[i64]) -> GlobalId {
        self.global_init(name, Type::I64, values.iter().map(|&v| v as u64).collect())
    }

    /// Add a global initialized from `f64` values.
    pub fn global_f64(&mut self, name: impl Into<String>, values: &[f64]) -> GlobalId {
        self.global_init(name, Type::F64, values.iter().map(|v| v.to_bits()).collect())
    }

    /// Reserve a function slot so calls can reference it before its body is
    /// built (needed for recursion / forward references).
    pub fn declare_func(&mut self, name: impl Into<String>, params: Vec<Type>, ret_ty: Option<Type>) -> FuncId {
        self.module.add_function(Function {
            name: name.into(),
            params,
            ret_ty,
            insts: Vec::new(),
            blocks: vec![Block {
                label: "entry".into(),
                insts: Vec::new(),
                term: Terminator::Unreachable,
            }],
        })
    }

    /// Replace a declared function's body with a built one (names must match).
    pub fn define_func(&mut self, id: FuncId, func: Function) {
        assert_eq!(self.module.functions[id.index()].name, func.name, "define_func name mismatch");
        self.module.functions[id.index()] = func;
    }

    /// Add a completed function.
    pub fn add_func(&mut self, func: Function) -> FuncId {
        self.module.add_function(func)
    }

    pub fn finish(self) -> Module {
        self.module
    }

    pub fn module(&self) -> &Module {
        &self.module
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn builds_loop_function() {
        // sum = 0; for (i = 0; i < n; i++) sum += i; return sum;
        let mut fb = FuncBuilder::new("sum_to_n", vec![Type::I64], Some(Type::I64));
        let sum = fb.alloca(Type::I64, 1);
        let i = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(0), Op::inst(sum));
        fb.store(Type::I64, Op::ci64(0), Op::inst(i));
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        fb.jmp(header);

        fb.switch_to(header);
        let iv = fb.load(Type::I64, Op::inst(i));
        let c = fb.icmp(IPred::Slt, Type::I64, Op::inst(iv), Op::param(0));
        fb.br(Op::inst(c), body, exit);

        fb.switch_to(body);
        let s = fb.load(Type::I64, Op::inst(sum));
        let iv2 = fb.load(Type::I64, Op::inst(i));
        let ns = fb.bin(BinOp::Add, Type::I64, Op::inst(s), Op::inst(iv2));
        fb.store(Type::I64, Op::inst(ns), Op::inst(sum));
        let ni = fb.bin(BinOp::Add, Type::I64, Op::inst(iv2), Op::ci64(1));
        fb.store(Type::I64, Op::inst(ni), Op::inst(i));
        fb.jmp(header);

        fb.switch_to(exit);
        let r = fb.load(Type::I64, Op::inst(sum));
        fb.ret(Some(Op::inst(r)));

        let f = fb.finish();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.name, "sum_to_n");
        assert!(matches!(
            f.block(BlockId(3)).term,
            Terminator::Ret { val: Some(Op::Value(Value::Inst(_))) }
        ));
    }

    #[test]
    fn module_builder_declares_and_defines() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global_i64("data", &[1, 2, 3]);
        let fid = mb.declare_func("main", vec![], Some(Type::I8));
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I8));
        let p = fb.gep(Op::Global(g), Op::ci64(1), Type::I64);
        let v = fb.load(Type::I64, Op::inst(p));
        let t = fb.cast(CastKind::Trunc, Type::I64, Type::I8, Op::inst(v));
        fb.ret(Some(Op::inst(t)));
        mb.define_func(fid, fb.finish());
        let m = mb.finish();
        assert_eq!(m.main_func(), Some(fid));
        assert_eq!(m.global(g).count, 3);
    }

    #[test]
    #[should_panic(expected = "no current block")]
    fn pushing_after_terminate_panics() {
        let mut fb = FuncBuilder::new("f", vec![], None);
        fb.ret(None);
        fb.alloca(Type::I64, 1);
    }
}
