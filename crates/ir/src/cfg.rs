//! Control-flow-graph utilities: predecessors, reverse post-order,
//! reachability.

use crate::function::{BlockId, Function};

/// Precomputed CFG adjacency for a function.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
}

impl Cfg {
    /// Build the CFG of `func`.
    #[must_use]
    pub fn new(func: &Function) -> Self {
        let n = func.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for b in func.block_ids() {
            let ss = func.successors(b);
            for s in &ss {
                preds[s.index()].push(b);
            }
            succs[b.index()] = ss;
        }
        Cfg { succs, preds }
    }

    /// Number of blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True if the function has no blocks (never the case for built
    /// functions, which always have an entry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Successors of `b`.
    #[must_use]
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Predecessors of `b`.
    #[must_use]
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
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
