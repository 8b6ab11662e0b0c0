//! Dominator and post-dominator trees (Cooper–Harvey–Kennedy iterative
//! algorithm).
//!
//! Post-dominance is computed on the reverse CFG, optionally with some edges
//! cut, augmented with one virtual exit node that every successor-less block
//! feeds; the PDG builder in `cgpa-analysis` derives control dependences from
//! it, and the pipeline transform collapses unneeded branches to immediate
//! post-dominators.

use crate::cfg::Cfg;
use crate::function::{BlockId, Function};

/// Index space for dominance computations: real blocks are `0..n`; the
/// post-dominator tree adds a virtual exit at index `n`.
pub type NodeIdx = usize;

/// A (post-)dominator tree over block indices.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// `idom[v]` is the immediate dominator of `v`; `None` for the root and
    /// for unreachable nodes.
    idom: Vec<Option<NodeIdx>>,
    root: NodeIdx,
    /// Number of *real* blocks (excludes any virtual exit).
    num_blocks: usize,
}

impl DomTree {
    /// Compute the dominator tree of `func` rooted at the entry block.
    #[must_use]
    pub fn dominators(_func: &Function, cfg: &Cfg) -> Self {
        let n = cfg.len();
        let succs: Vec<Vec<NodeIdx>> = (0..n)
            .map(|i| cfg.succs(BlockId(i as u32)).iter().map(|b| b.index()).collect())
            .collect();
        let idom = compute_idoms(n, 0, &succs);
        DomTree { idom, root: 0, num_blocks: n }
    }

    /// Compute the post-dominator tree of `func` with the `cut` edges
    /// removed, rooted at a virtual exit node with index `func.blocks.len()`.
    ///
    /// Every block left without a successor (a `ret` block, or a latch whose
    /// only edge was cut) feeds the virtual exit. Cutting a loop's
    /// `(latch, header)` back edges gives the intra-iteration view that the
    /// PDG builder and the pipeline transform use. Blocks on infinite loops
    /// (none in this workspace's kernels) would be unreachable in the reverse
    /// graph and report no post-dominator.
    #[must_use]
    pub fn post_dominators(_func: &Function, cfg: &Cfg, cut: &[(BlockId, BlockId)]) -> Self {
        let n = cfg.len();
        let exit = n;
        // Successor map of the reverse graph: each kept edge `u -> v` becomes
        // `v -> u`, and the virtual exit leads to every successor-less block.
        let mut succs_rev: Vec<Vec<NodeIdx>> = vec![Vec::new(); n + 1];
        for u in 0..n {
            let ub = BlockId(u as u32);
            let mut has_succ = false;
            for &v in cfg.succs(ub) {
                if !cut.contains(&(ub, v)) {
                    succs_rev[v.index()].push(u);
                    has_succ = true;
                }
            }
            if !has_succ {
                succs_rev[exit].push(u);
            }
        }
        let idom = compute_idoms(n + 1, exit, &succs_rev);
        DomTree { idom, root: exit, num_blocks: n }
    }

    /// The root node (entry block index, or the virtual exit for post-dom).
    #[must_use]
    pub fn root(&self) -> NodeIdx {
        self.root
    }

    /// The virtual-exit index for post-dominator trees (equals the number of
    /// real blocks).
    #[must_use]
    pub fn virtual_exit(&self) -> NodeIdx {
        self.num_blocks
    }

    /// Immediate dominator of node `v` (block index or virtual exit), or
    /// `None` for the root / unreachable nodes.
    #[must_use]
    pub fn idom(&self, v: NodeIdx) -> Option<NodeIdx> {
        self.idom.get(v).copied().flatten()
    }

    /// True if `a` dominates `b` (reflexive).
    #[must_use]
    pub fn dominates(&self, a: NodeIdx, b: NodeIdx) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// True if block `a` strictly dominates block `b`.
    #[must_use]
    pub fn strictly_dominates(&self, a: NodeIdx, b: NodeIdx) -> bool {
        a != b && self.dominates(a, b)
    }
}

/// Cooper–Harvey–Kennedy "A Simple, Fast Dominance Algorithm".
fn compute_idoms(n: usize, root: NodeIdx, succs: &[Vec<NodeIdx>]) -> Vec<Option<NodeIdx>> {
    // Post-order numbering from root.
    let mut postorder: Vec<NodeIdx> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut stack: Vec<(NodeIdx, usize)> = vec![(root, 0)];
    visited[root] = true;
    while let Some(&mut (v, ref mut next)) = stack.last_mut() {
        if *next < succs[v].len() {
            let s = succs[v][*next];
            *next += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            postorder.push(v);
            stack.pop();
        }
    }
    let mut po_num = vec![usize::MAX; n];
    for (i, &v) in postorder.iter().enumerate() {
        po_num[v] = i;
    }
    // Predecessor map restricted to reachable nodes.
    let mut preds: Vec<Vec<NodeIdx>> = vec![Vec::new(); n];
    for v in 0..n {
        if visited[v] {
            for &s in &succs[v] {
                preds[s].push(v);
            }
        }
    }

    let mut idom: Vec<Option<NodeIdx>> = vec![None; n];
    idom[root] = Some(root);
    let mut changed = true;
    while changed {
        changed = false;
        for &v in postorder.iter().rev() {
            if v == root {
                continue;
            }
            let mut new_idom: Option<NodeIdx> = None;
            for &p in &preds[v] {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &po_num, p, cur),
                });
            }
            if new_idom.is_some() && idom[v] != new_idom {
                idom[v] = new_idom;
                changed = true;
            }
        }
    }
    // Convention: the root has no immediate dominator in the public API.
    idom[root] = None;
    idom
}

fn intersect(
    idom: &[Option<NodeIdx>],
    po_num: &[usize],
    mut a: NodeIdx,
    mut b: NodeIdx,
) -> NodeIdx {
    while a != b {
        while po_num[a] < po_num[b] {
            a = idom[a].expect("reachable node has idom during intersect");
        }
        while po_num[b] < po_num[a] {
            b = idom[b].expect("reachable node has idom during intersect");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::IntPredicate;
    use crate::types::Ty;

    /// Diamond: entry -> (l, r) -> join -> ret.
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", &[("c", Ty::I1)], None);
        let c = b.param(0);
        let l = b.append_block("l");
        let r = b.append_block("r");
        let j = b.append_block("j");
        b.cond_br(c, l, r);
        b.switch_to(l);
        b.br(j);
        b.switch_to(r);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        assert_eq!(dom.idom(1), Some(0));
        assert_eq!(dom.idom(2), Some(0));
        assert_eq!(dom.idom(3), Some(0)); // join's idom is entry, not l or r
        assert!(dom.dominates(0, 3));
        assert!(!dom.dominates(1, 3));
        assert!(dom.dominates(3, 3));
        assert!(!dom.strictly_dominates(3, 3));
    }

    #[test]
    fn diamond_post_dominators() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let pdom = DomTree::post_dominators(&f, &cfg, &[]);
        let exit = pdom.virtual_exit();
        assert_eq!(exit, 4);
        // join post-dominates everything; l/r post-dominate only themselves.
        assert_eq!(pdom.idom(3), Some(exit));
        assert_eq!(pdom.idom(1), Some(3));
        assert_eq!(pdom.idom(2), Some(3));
        assert_eq!(pdom.idom(0), Some(3));
        assert!(pdom.dominates(3, 0));
        assert!(!pdom.dominates(1, 0));
    }

    #[test]
    fn loop_post_dominators() {
        // entry -> header; header -> (body, exit); body -> header.
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
        let f = b.finish().unwrap();
        let cfg = Cfg::new(&f);
        let pdom = DomTree::post_dominators(&f, &cfg, &[]);
        // The loop body does NOT post-dominate the header (the header can
        // skip it), which is what creates the control dependence of the body
        // on the header's branch.
        assert!(!pdom.dominates(body.index(), header.index()));
        assert!(pdom.dominates(exit.index(), header.index()));
    }
}
