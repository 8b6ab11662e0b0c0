//! Control-flow-graph utilities: predecessors, reverse post-order,
//! reachability.

use crate::function::{BlockId, Function};
use crate::inst::Op;

/// Precomputed CFG adjacency for a function, in compressed rows: the
/// successors of every block in one edge array and the predecessors in
/// another, each sliced by a per-block offset table.
///
/// Successors are in terminator order (`on_true` before `on_false`);
/// predecessors are in ascending block order, a block listed once per edge
/// (a `condbr` with both edges into one block lists its block twice).
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// `succs[succ_start[b]..succ_start[b + 1]]` are the successors of `b`.
    succ_start: Vec<u32>,
    succs: Vec<BlockId>,
    /// `preds[pred_start[b]..pred_start[b + 1]]` are the predecessors of `b`.
    pred_start: Vec<u32>,
    preds: Vec<BlockId>,
}

impl Cfg {
    /// Build the CFG of `func`.
    #[must_use]
    pub fn new(func: &Function) -> Self {
        let mut cfg = Cfg::default();
        cfg.rebuild(func);
        cfg
    }

    /// Recompute the CFG of `func` in place, reusing this CFG's buffers: a
    /// pass that edits terminators refreshes its CFG without allocating
    /// once the buffers are large enough.
    pub fn rebuild(&mut self, func: &Function) {
        let n = func.blocks.len();
        self.succ_start.clear();
        self.succs.clear();
        // At most two successors per block.
        self.succ_start.reserve(n + 1);
        self.succs.reserve(2 * n);
        self.succ_start.push(0);
        for b in func.block_ids() {
            match func.terminator(b).map(|t| &func.inst(t).op) {
                Some(Op::Br { target }) => self.succs.push(*target),
                Some(Op::CondBr { on_true, on_false, .. }) => {
                    self.succs.extend([*on_true, *on_false]);
                }
                _ => {}
            }
            self.succ_start.push(self.succs.len() as u32);
        }
        // Predecessors by counting sort over the successor rows, visited in
        // ascending block order.
        self.pred_start.clear();
        self.pred_start.resize(n + 1, 0);
        for s in &self.succs {
            self.pred_start[s.index() + 1] += 1;
        }
        for i in 0..n {
            self.pred_start[i + 1] += self.pred_start[i];
        }
        self.preds.clear();
        self.preds.resize(self.succs.len(), BlockId(0));
        // `pred_start[s]` is the next free slot of row `s` while filling;
        // afterwards every row start has moved one row down, so shift back.
        for b in 0..n {
            for k in self.succ_start[b]..self.succ_start[b + 1] {
                let s = self.succs[k as usize].index();
                self.preds[self.pred_start[s] as usize] = BlockId(b as u32);
                self.pred_start[s] += 1;
            }
        }
        self.pred_start.rotate_right(1);
        self.pred_start[0] = 0;
    }

    /// Number of blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.succ_start.len().saturating_sub(1)
    }

    /// True if the function has no blocks (never the case for built
    /// functions, which always have an entry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successors of `b`.
    #[must_use]
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        let i = b.index();
        &self.succs[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// Predecessors of `b`.
    #[must_use]
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        let i = b.index();
        &self.preds[self.pred_start[i] as usize..self.pred_start[i + 1] as usize]
    }

    /// Blocks reachable from the entry.
    #[must_use]
    pub fn reachable(&self) -> Vec<bool> {
        let n = self.len();
        let mut seen = vec![false; n];
        if n == 0 {
            return seen;
        }
        let mut work = vec![BlockId(0)];
        seen[0] = true;
        while let Some(b) = work.pop() {
            for &s in self.succs(b) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    work.push(s);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::IntPredicate;
    use crate::types::Ty;

    /// entry -> header; header -> (body, exit); body -> header.
    fn loop_fn() -> Function {
        let mut b = FunctionBuilder::new("f", &[("n", Ty::I32)], None);
        let n = b.param(0);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        b.br(header);
        b.switch_to(header);
        let zero = b.const_i32(0);
        let c = b.icmp(IntPredicate::Slt, zero, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn preds_and_succs() {
        let f = loop_fn();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1)]);
        assert_eq!(cfg.succs(BlockId(1)), &[BlockId(2), BlockId(3)]);
        let mut preds = cfg.preds(BlockId(1)).to_vec();
        preds.sort();
        assert_eq!(preds, vec![BlockId(0), BlockId(2)]);
    }

    #[test]
    fn reachability_flags_unreachable_blocks() {
        let mut b = FunctionBuilder::new("g", &[], None);
        let dead = b.append_block("dead");
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish().unwrap();
        let cfg = Cfg::new(&f);
        let r = cfg.reachable();
        assert!(r[0]);
        assert!(!r[dead.index()]);
    }
}
