//! Module, function and basic-block containers, plus the mutation helpers
//! used by transformation passes (block splitting, instruction insertion,
//! use replacement).

use crate::inst::{InstData, Terminator};
use crate::types::Type;
use crate::value::{BlockId, FuncId, GlobalId, InstId, Op, Value};
use serde::{Deserialize, Serialize};

/// Initial contents of a global variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GlobalInit {
    /// Zero-filled.
    Zero,
    /// Element-wise initial values as canonical 64-bit patterns.
    Elems(Vec<u64>),
}

/// A module-level global array (scalars are arrays of length 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Global {
    pub name: String,
    pub elem: Type,
    pub count: u64,
    pub init: GlobalInit,
}

impl Global {
    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.elem.size() * self.count
    }
}

/// A basic block: a label, a list of instruction ids, and a terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    pub label: String,
    pub insts: Vec<InstId>,
    pub term: Terminator,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    pub name: String,
    pub params: Vec<Type>,
    pub ret_ty: Option<Type>,
    /// Instruction arena; `Block::insts` holds indices into it. Slots are
    /// never removed (passes detach ids from blocks instead), so `InstId`s
    /// stay stable across transformations.
    pub insts: Vec<InstData>,
    /// Blocks; index 0 is the entry block.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    pub fn inst(&self, id: InstId) -> &InstData {
        &self.insts[id.index()]
    }

    pub fn inst_mut(&mut self, id: InstId) -> &mut InstData {
        &mut self.insts[id.index()]
    }

    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Allocate a new instruction in the arena (not yet placed in a block).
    pub fn add_inst(&mut self, data: InstData) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(data);
        id
    }

    /// Append a fresh, empty block and return its id.
    pub fn add_block(&mut self, label: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            label: label.into(),
            insts: Vec::new(),
            term: Terminator::Unreachable,
        });
        id
    }

    /// Split `block` before position `at` (0-based index into its
    /// instruction list). The new block receives the instructions from `at`
    /// onward plus the original terminator; `block` is terminated with a
    /// jump to the new block. Returns the new block's id.
    ///
    /// This is the primitive the duplication pass uses to insert checkers —
    /// and precisely the operation that, at the assembly level, forces the
    /// -O0 register allocator to flush its intra-block register cache (the
    /// root of store and branch penetration; paper §6.1/§6.2).
    pub fn split_block(&mut self, block: BlockId, at: usize) -> BlockId {
        let label = format!("{}.cont{}", self.blocks[block.index()].label, self.blocks.len());
        let new_id = self.add_block(label);
        let src = &mut self.blocks[block.index()];
        let tail: Vec<InstId> = src.insts.split_off(at);
        let term = std::mem::replace(&mut src.term, Terminator::Jmp { dest: new_id });
        let dst = &mut self.blocks[new_id.index()];
        dst.insts = tail;
        dst.term = term;
        new_id
    }

    /// Replace every use of value `from` (in instruction operands and
    /// terminators) with operand `to`. Returns the number of uses rewritten.
    pub fn replace_all_uses(&mut self, from: Value, to: Op) -> usize {
        let mut n = 0;
        let from_op = Op::Value(from);
        for inst in &mut self.insts {
            for op in inst.operands_mut() {
                if *op == from_op {
                    *op = to;
                    n += 1;
                }
            }
        }
        for block in &mut self.blocks {
            if let Some(op) = block.term.operand_mut() {
                if *op == from_op {
                    *op = to;
                    n += 1;
                }
            }
        }
        n
    }

    /// Number of *static* instructions currently reachable from blocks
    /// (terminators included, matching how the paper counts program size).
    pub fn static_size(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }

    /// Iterate `(BlockId, &Block)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// All instruction ids currently attached to blocks, in layout order.
    pub fn live_insts(&self) -> Vec<InstId> {
        self.blocks.iter().flat_map(|b| b.insts.iter().copied()).collect()
    }

    /// Find which block currently holds instruction `id`, with its position.
    pub fn position_of(&self, id: InstId) -> Option<(BlockId, usize)> {
        for (bi, b) in self.iter_blocks() {
            if let Some(pos) = b.insts.iter().position(|&i| i == id) {
                return Some((bi, pos));
            }
        }
        None
    }
}

/// A whole program: globals plus functions. `main` must exist to execute.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Module {
    pub name: String,
    pub globals: Vec<Global>,
    pub functions: Vec<Function>,
}

impl Module {
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            globals: Vec::new(),
            functions: Vec::new(),
        }
    }

    /// Drop the spare capacity that building and transforming left in the
    /// instruction arenas and block lists. The content is unchanged.
    pub fn shrink_to_fit(&mut self) {
        for f in &mut self.functions {
            f.insts.shrink_to_fit();
            f.blocks.iter_mut().for_each(|b| b.insts.shrink_to_fit());
            f.blocks.shrink_to_fit();
        }
        self.functions.shrink_to_fit();
        self.globals.shrink_to_fit();
    }

    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Look up a function by name.
    pub fn find_func(&self, name: &str) -> Option<FuncId> {
        self.functions.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// Look up a global by name.
    pub fn find_global(&self, name: &str) -> Option<GlobalId> {
        self.globals.iter().position(|g| g.name == name).map(|i| GlobalId(i as u32))
    }

    /// The `main` entry function.
    pub fn main_func(&self) -> Option<FuncId> {
        self.find_func("main")
    }

    /// Result type of instruction `id` in function `f`.
    pub fn result_ty(&self, f: FuncId, id: InstId) -> Option<Type> {
        self.functions[f.index()]
            .inst(id)
            .result_ty(|callee| self.functions[callee.index()].ret_ty)
    }

    /// The type of an operand in the context of function `f`.
    pub fn op_ty(&self, f: FuncId, op: Op) -> Option<Type> {
        match op {
            Op::Const(c) => Some(c.ty()),
            Op::Global(_) => Some(Type::Ptr),
            Op::Value(Value::Param(i)) => self.functions[f.index()].params.get(i as usize).copied(),
            Op::Value(Value::Inst(id)) => self.result_ty(f, id),
        }
    }

    /// Total static instruction count across all functions.
    pub fn static_size(&self) -> usize {
        self.functions.iter().map(|f| f.static_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, InstKind};

    fn tiny_func() -> Function {
        let mut f = Function {
            name: "f".into(),
            params: vec![Type::I32],
            ret_ty: Some(Type::I32),
            insts: vec![],
            blocks: vec![],
        };
        let b0 = f.add_block("entry");
        let add = f.add_inst(InstData::new(InstKind::Bin {
            op: BinOp::Add,
            ty: Type::I32,
            lhs: Op::param(0),
            rhs: Op::ci32(1),
        }));
        let mul = f.add_inst(InstData::new(InstKind::Bin {
            op: BinOp::Mul,
            ty: Type::I32,
            lhs: Op::inst(add),
            rhs: Op::ci32(2),
        }));
        f.block_mut(b0).insts = vec![add, mul];
        f.block_mut(b0).term = Terminator::Ret { val: Some(Op::inst(mul)) };
        f
    }

    #[test]
    fn split_block_moves_tail_and_terminator() {
        let mut f = tiny_func();
        let new_bb = f.split_block(BlockId(0), 1);
        assert_eq!(f.block(BlockId(0)).insts.len(), 1);
        assert_eq!(f.block(new_bb).insts.len(), 1);
        assert!(matches!(f.block(BlockId(0)).term, Terminator::Jmp { dest } if dest == new_bb));
        assert!(matches!(f.block(new_bb).term, Terminator::Ret { .. }));
    }

    #[test]
    fn replace_all_uses_rewrites_operands_and_terminators() {
        let mut f = tiny_func();
        let add = InstId(0);
        let n = f.replace_all_uses(Value::Inst(add), Op::ci32(42));
        assert_eq!(n, 1);
        match &f.inst(InstId(1)).kind {
            InstKind::Bin { lhs, .. } => assert_eq!(*lhs, Op::ci32(42)),
            other => panic!("unexpected {other:?}"),
        }
        let n2 = f.replace_all_uses(Value::Inst(InstId(1)), Op::ci32(7));
        assert_eq!(n2, 1);
        assert!(matches!(f.block(BlockId(0)).term, Terminator::Ret { val: Some(v) } if v == Op::ci32(7)));
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new("t");
        let f = tiny_func();
        let fid = m.add_function(f);
        assert_eq!(m.find_func("f"), Some(fid));
        assert_eq!(m.find_func("g"), None);
        assert_eq!(m.result_ty(fid, InstId(0)), Some(Type::I32));
        assert_eq!(m.op_ty(fid, Op::param(0)), Some(Type::I32));
        assert_eq!(m.op_ty(fid, Op::cf64(1.0)), Some(Type::F64));
    }

    #[test]
    fn static_size_counts_terminators() {
        let f = tiny_func();
        assert_eq!(f.static_size(), 3);
    }

    #[test]
    fn position_of_finds_block() {
        let f = tiny_func();
        assert_eq!(f.position_of(InstId(1)), Some((BlockId(0), 1)));
        let mut f2 = f.clone();
        let nb = f2.split_block(BlockId(0), 1);
        assert_eq!(f2.position_of(InstId(1)), Some((nb, 0)));
    }
}
