//! Control-flow analyses: predecessors, reverse postorder, dominators.
//!
//! Used by the verifier (defs dominate uses) and by the passes crate
//! (duplication must know where values are available).

use crate::module::Function;
use crate::value::BlockId;

/// Predecessor lists for every block.
pub fn predecessors(f: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for (bid, block) in f.iter_blocks() {
        for s in block.term.successors() {
            preds[s.index()].push(bid);
        }
    }
    preds
}

/// Blocks in reverse postorder from the entry. Unreachable blocks are
/// excluded.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let n = f.blocks.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    let mut stack: Vec<(BlockId, usize)> = Vec::new();
    if n == 0 {
        return post;
    }
    visited[0] = true;
    stack.push((BlockId(0), 0));
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let succs = f.block(b).term.successors();
        if *i < succs.len() {
            let s = succs[*i];
            *i += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Immediate-dominator tree computed with the Cooper–Harvey–Kennedy
/// iterative algorithm.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// `idom[b]` = immediate dominator of `b`; entry's idom is itself.
    /// `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
}

impl DomTree {
    pub fn compute(f: &Function) -> DomTree {
        let n = f.blocks.len();
        let rpo = reverse_postorder(f);
        let mut rpo_number = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_number[b.index()] = i;
        }
        let preds = predecessors(f);
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if n == 0 {
            return DomTree { idom };
        }
        idom[0] = Some(BlockId(0));
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // unprocessed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => self_intersect(&idom, &rpo_number, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        DomTree { idom }
    }

    /// Is `a` reachable from the entry?
    pub fn reachable(&self, b: BlockId) -> bool {
        self.idom.get(b.index()).is_some_and(|i| i.is_some())
    }

    /// Immediate dominator (entry maps to itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.index()).copied().flatten()
    }

    /// Does block `a` dominate block `b`? (Reflexive.)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.reachable(a) || !self.reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let id = self.idom[cur.index()].expect("reachable block has idom");
            if id == cur {
                return false; // reached entry
            }
            cur = id;
        }
    }
}

/// A program point inside a function: an instruction's position within its
/// block, or the block's terminator (`TERM_POS`).
pub type Point = (BlockId, usize);

/// Position marker for a block's terminator, ordered after every body
/// instruction of the block.
pub const TERM_POS: usize = usize::MAX;

/// Positions of every live instruction: `InstId -> (block, index)`.
/// Detached instructions are absent.
pub fn inst_points(f: &Function) -> std::collections::HashMap<crate::value::InstId, Point> {
    let mut map = std::collections::HashMap::new();
    for (bid, block) in f.iter_blocks() {
        for (i, &iid) in block.insts.iter().enumerate() {
            map.insert(iid, (bid, i));
        }
    }
    map
}

impl DomTree {
    /// Does program point `a` dominate program point `b`? Within one block,
    /// earlier positions dominate later ones (reflexively); across blocks
    /// this is block dominance. Used by the sphere-of-replication invariant
    /// lint: a checker guards a sync point only if it dominates it.
    pub fn dominates_point(&self, a: Point, b: Point) -> bool {
        if a.0 == b.0 {
            return self.reachable(a.0) && a.1 <= b.1;
        }
        self.dominates(a.0, b.0)
    }
}

fn self_intersect(idom: &[Option<BlockId>], rpo_number: &[usize], mut a: BlockId, mut b: BlockId) -> BlockId {
    while a != b {
        while rpo_number[a.index()] > rpo_number[b.index()] {
            a = idom[a.index()].expect("processed block");
        }
        while rpo_number[b.index()] > rpo_number[a.index()] {
            b = idom[b.index()].expect("processed block");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{IPred, Terminator};
    use crate::types::Type;
    use crate::value::Op;

    /// Diamond: entry -> {l, r} -> join
    fn diamond() -> Function {
        let mut fb = FuncBuilder::new("d", vec![Type::I32], Some(Type::I32));
        let l = fb.new_block("l");
        let r = fb.new_block("r");
        let j = fb.new_block("j");
        let c = fb.icmp(IPred::Slt, Type::I32, Op::param(0), Op::ci32(0));
        fb.br(Op::inst(c), l, r);
        fb.switch_to(l);
        fb.jmp(j);
        fb.switch_to(r);
        fb.jmp(j);
        fb.switch_to(j);
        fb.ret(Some(Op::ci32(0)));
        fb.finish()
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        let (e, l, r, j) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert!(dt.dominates(e, l));
        assert!(dt.dominates(e, j));
        assert!(!dt.dominates(l, j));
        assert!(!dt.dominates(r, j));
        assert_eq!(dt.idom(j), Some(e));
        assert!(dt.dominates(j, j));
    }

    #[test]
    fn unreachable_blocks_are_not_reachable() {
        let mut f = diamond();
        let dead = f.add_block("dead");
        f.block_mut(dead).term = Terminator::Ret { val: Some(Op::ci32(1)) };
        let dt = DomTree::compute(&f);
        assert!(!dt.reachable(dead));
        assert!(!dt.dominates(BlockId(0), dead));
    }

    #[test]
    fn rpo_starts_at_entry() {
        let f = diamond();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
    }

    #[test]
    fn predecessors_of_join() {
        let f = diamond();
        let preds = predecessors(&f);
        let mut p = preds[3].clone();
        p.sort();
        assert_eq!(p, vec![BlockId(1), BlockId(2)]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn point_dominance_orders_within_and_across_blocks() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        let (e, l, j) = (BlockId(0), BlockId(1), BlockId(3));
        // Within a block: earlier dominates later, terminator comes last.
        assert!(dt.dominates_point((e, 0), (e, 1)));
        assert!(dt.dominates_point((e, 0), (e, TERM_POS)));
        assert!(!dt.dominates_point((e, TERM_POS), (e, 0)));
        // Across blocks: plain block dominance.
        assert!(dt.dominates_point((e, TERM_POS), (j, 0)));
        assert!(!dt.dominates_point((l, 0), (j, 0)));
        // inst_points covers the entry's compare.
        let pts = inst_points(&f);
        assert!(pts.values().any(|&p| p == (e, 0)));
    }

    #[test]
    fn loop_dominators() {
        // entry -> header <-> body, header -> exit
        let mut fb = FuncBuilder::new("l", vec![Type::I32], None);
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        fb.jmp(header);
        fb.switch_to(header);
        let c = fb.icmp(IPred::Slt, Type::I32, Op::param(0), Op::ci32(10));
        fb.br(Op::inst(c), body, exit);
        fb.switch_to(body);
        fb.jmp(header);
        fb.switch_to(exit);
        fb.ret(None);
        let f = fb.finish();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(body), Some(header));
        assert_eq!(dt.idom(exit), Some(header));
        assert!(dt.dominates(header, body));
        assert!(!dt.dominates(body, exit));
    }
}
