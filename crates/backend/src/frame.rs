//! Stack frame layout for the fast (-O0-style) allocator.
//!
//! Every IR value gets a *stack home* below `rbp`; `alloca`s additionally
//! get a contiguous region for their storage. Parameters are spilled to
//! homes in the prologue. This is the "everything lives in memory" shape of
//! `-O0` code that gives rise to the paper's store penetration.

use flowery_ir::inst::InstKind;
use flowery_ir::interp::memory::align_up;
use flowery_ir::module::{Function, Module};
use flowery_ir::value::{FuncId, InstId};

/// Sentinel for "no slot".
const NO_SLOT: i64 = i64::MIN;

/// Frame layout of one function: rbp-relative displacements (all negative).
#[derive(Debug, Clone)]
pub struct FrameLayout {
    /// Total frame size in bytes, 16-aligned.
    pub size: u64,
    /// Home of each instruction result, indexed by `InstId`.
    value_slot: Vec<i64>,
    /// Home of each parameter.
    param_slot: Vec<i64>,
    /// Base displacement of each `alloca`'s storage region.
    alloca_region: Vec<i64>,
}

impl FrameLayout {
    /// Compute the layout for `func`.
    pub fn compute(m: &Module, fid: FuncId, func: &Function) -> FrameLayout {
        let mut off: u64 = 0;
        let mut bump = |bytes: u64, align: u64| -> i64 {
            off = align_up(off + bytes, align);
            -(off as i64)
        };

        let param_slot: Vec<i64> = func.params.iter().map(|_| bump(8, 8)).collect();

        let mut value_slot = vec![NO_SLOT; func.insts.len()];
        let mut alloca_region = vec![NO_SLOT; func.insts.len()];
        for &iid in &func.live_insts() {
            let data = func.inst(iid);
            if let InstKind::Alloca { elem, count } = data.kind {
                let bytes = elem.size() * count as u64;
                alloca_region[iid.index()] = bump(bytes, elem.align().max(8));
            }
            if m.result_ty(fid, iid).is_some() {
                value_slot[iid.index()] = bump(8, 8);
            }
        }

        FrameLayout {
            size: align_up(off, 16),
            value_slot,
            param_slot,
            alloca_region,
        }
    }

    /// Home displacement of an instruction result.
    pub fn slot(&self, id: InstId) -> i64 {
        let s = self.value_slot[id.index()];
        assert_ne!(s, NO_SLOT, "instruction %{} has no stack home", id.0);
        s
    }

    /// Home displacement of a parameter.
    pub fn param(&self, idx: u32) -> i64 {
        self.param_slot[idx as usize]
    }

    /// Storage region displacement of an `alloca`.
    pub fn alloca(&self, id: InstId) -> i64 {
        let s = self.alloca_region[id.index()];
        assert_ne!(s, NO_SLOT, "%{} is not an alloca", id.0);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowery_ir::builder::{FuncBuilder, ModuleBuilder};
    use flowery_ir::types::Type;
    use flowery_ir::value::Op;

    #[test]
    fn slots_are_distinct_and_frame_aligned() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![Type::I64, Type::F64], Some(Type::I64));
        let a = fb.alloca(Type::I8, 40);
        let l = fb.load(Type::I8, Op::inst(a));
        let z = fb.cast(flowery_ir::CastKind::Zext, Type::I8, Type::I64, Op::inst(l));
        fb.ret(Some(Op::inst(z)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let fid = m.main_func().unwrap();
        let layout = FrameLayout::compute(&m, fid, m.func(fid));
        assert_eq!(layout.size % 16, 0);
        let mut seen = std::collections::HashSet::new();
        for d in [
            layout.param(0),
            layout.param(1),
            layout.slot(a),
            layout.slot(l),
            layout.slot(z),
            layout.alloca(a),
        ] {
            assert!(d < 0);
            assert!((-d) as u64 <= layout.size);
            assert!(seen.insert(d), "slot collision at {d}");
        }
        // The alloca region must hold 40 bytes without overlapping its own
        // address slot.
        assert!((layout.alloca(a) - layout.slot(a)).unsigned_abs() >= 8);
    }

    #[test]
    #[should_panic(expected = "not an alloca")]
    fn alloca_lookup_panics_for_non_alloca() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let v = fb.bin(flowery_ir::BinOp::Add, Type::I64, Op::ci64(1), Op::ci64(2));
        fb.ret(Some(Op::inst(v)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let fid = m.main_func().unwrap();
        let layout = FrameLayout::compute(&m, fid, m.func(fid));
        layout.alloca(v);
    }
}
