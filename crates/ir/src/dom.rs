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
        let idom = compute_idoms(&Forward(cfg), n, 0);
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
        let reverse = Reverse::new(cfg, cut);
        let idom = compute_idoms(&reverse, n + 1, n);
        DomTree { idom, root: n, num_blocks: n }
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

/// A graph as [`compute_idoms`] walks it: successors by position, where a
/// position may hold an edge the graph leaves out, and predecessors.
trait Graph {
    /// Number of successor positions of `v`.
    fn succ_slots(&self, v: NodeIdx) -> usize;
    /// The successor at position `k` of `v`, or `None` for a left-out edge.
    fn succ(&self, v: NodeIdx, k: usize) -> Option<NodeIdx>;
    /// Call `f` on every predecessor of `v`.
    fn for_each_pred(&self, v: NodeIdx, f: impl FnMut(NodeIdx));
}

/// The CFG itself.
struct Forward<'a>(&'a Cfg);

impl Graph for Forward<'_> {
    fn succ_slots(&self, v: NodeIdx) -> usize {
        self.0.succs(BlockId(v as u32)).len()
    }

    fn succ(&self, v: NodeIdx, k: usize) -> Option<NodeIdx> {
        Some(self.0.succs(BlockId(v as u32))[k].index())
    }

    fn for_each_pred(&self, v: NodeIdx, mut f: impl FnMut(NodeIdx)) {
        self.0.preds(BlockId(v as u32)).iter().for_each(|p| f(p.index()));
    }
}

/// The reverse CFG with some edges cut, plus a virtual exit (index `n`)
/// that leads to every block left without a successor. Each kept edge
/// `u -> v` becomes `v -> u`.
struct Reverse<'a> {
    cfg: &'a Cfg,
    cut: &'a [(BlockId, BlockId)],
    /// Blocks without a kept successor, ascending: the exit's successors.
    sinks: Vec<NodeIdx>,
}

impl<'a> Reverse<'a> {
    fn new(cfg: &'a Cfg, cut: &'a [(BlockId, BlockId)]) -> Self {
        let mut r = Reverse { cfg, cut, sinks: Vec::new() };
        r.sinks = (0..cfg.len()).filter(|&u| r.kept_succs(u).next().is_none()).collect();
        r
    }

    /// The kept CFG successors of block `u`.
    fn kept_succs(&self, u: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        let ub = BlockId(u as u32);
        self.cfg.succs(ub).iter().filter(move |&&v| !self.cut.contains(&(ub, v))).map(|v| v.index())
    }

    fn exit(&self) -> NodeIdx {
        self.cfg.len()
    }
}

impl Graph for Reverse<'_> {
    fn succ_slots(&self, v: NodeIdx) -> usize {
        if v == self.exit() {
            self.sinks.len()
        } else {
            self.cfg.preds(BlockId(v as u32)).len()
        }
    }

    fn succ(&self, v: NodeIdx, k: usize) -> Option<NodeIdx> {
        if v == self.exit() {
            return Some(self.sinks[k]);
        }
        let vb = BlockId(v as u32);
        let u = self.cfg.preds(vb)[k];
        (!self.cut.contains(&(u, vb))).then_some(u.index())
    }

    fn for_each_pred(&self, v: NodeIdx, mut f: impl FnMut(NodeIdx)) {
        if v == self.exit() {
            return;
        }
        let mut any = false;
        for s in self.kept_succs(v) {
            any = true;
            f(s);
        }
        if !any {
            f(self.exit());
        }
    }
}

/// Cooper–Harvey–Kennedy "A Simple, Fast Dominance Algorithm" over the
/// `n` nodes of `g`.
fn compute_idoms(g: &impl Graph, n: usize, root: NodeIdx) -> Vec<Option<NodeIdx>> {
    // Post-order numbering from root.
    let mut postorder: Vec<NodeIdx> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut stack: Vec<(NodeIdx, usize)> = vec![(root, 0)];
    visited[root] = true;
    while let Some(&mut (v, ref mut next)) = stack.last_mut() {
        if *next < g.succ_slots(v) {
            let s = g.succ(v, *next);
            *next += 1;
            if let Some(s) = s.filter(|&s| !visited[s]) {
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

    // Only reachable nodes ever get an immediate dominator, so skipping
    // predecessors without one also skips the unreachable ones.
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
            g.for_each_pred(v, |p| {
                if idom[p].is_none() {
                    return;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &po_num, p, cur),
                });
            });
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
