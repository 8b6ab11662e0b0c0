//! Control-dependence computation (Ferrante–Ottenstein–Warren).

use cgpa_ir::cfg::Cfg;
use cgpa_ir::dom::DomTree;
use cgpa_ir::{BlockId, Function};

/// Control dependences of a function: for each block, the set of
/// (conditional) branch *blocks* it is control-dependent on.
#[derive(Debug, Clone)]
pub struct ControlDeps {
    /// `deps[b]` = blocks whose terminator decides whether `b` executes.
    deps: Vec<Vec<BlockId>>,
}

impl ControlDeps {
    /// Compute control dependences with the classic FOW walk on the CFG with
    /// `back_edges` removed: for each edge `(u, v)` where `v` does not
    /// post-dominate `u`, every node on the post-dominator-tree path from `v`
    /// up to (excluding) `ipdom(u)` is control-dependent on `u`.
    ///
    /// Passing a target loop's `(latch, header)` back edges gives the
    /// standard DSWP treatment: the loop body becomes acyclic, so an
    /// inner-loop header's self-dependence is still found (inner back edges
    /// stay), while the *target* loop's cross-iteration control is handled
    /// separately by the PDG builder as a blanket loop-carried edge from
    /// every exit branch to every loop instruction. With no edges removed, a
    /// loop header is control-dependent on its own exit branch — that is
    /// what makes loop bodies re-execute.
    #[must_use]
    pub fn compute(func: &Function, cfg: &Cfg, back_edges: &[(BlockId, BlockId)]) -> Self {
        let pdom = DomTree::post_dominators(func, cfg, back_edges);
        let mut deps: Vec<Vec<BlockId>> = vec![Vec::new(); func.blocks.len()];
        for u in func.block_ids() {
            let succs = || cfg.succs(u).iter().copied().filter(|&v| !back_edges.contains(&(u, v)));
            if succs().count() < 2 {
                continue; // only conditional branches create control deps
            }
            let stop = pdom.idom(u.index());
            for v in succs() {
                let mut w = Some(v.index());
                while let Some(cur) = w {
                    if Some(cur) == stop || cur == pdom.virtual_exit() {
                        break;
                    }
                    if !deps[cur].contains(&u) {
                        deps[cur].push(u);
                    }
                    w = pdom.idom(cur);
                }
            }
        }
        ControlDeps { deps }
    }

    /// Branch blocks that decide whether `b` executes.
    #[must_use]
    pub fn deps_of(&self, b: BlockId) -> &[BlockId] {
        &self.deps[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_ir::builder::FunctionBuilder;
    use cgpa_ir::inst::IntPredicate;
    use cgpa_ir::Ty;

    #[test]
    fn diamond_arms_depend_on_head() {
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
        let f = b.finish().unwrap();
        let cfg = Cfg::new(&f);
        let cd = ControlDeps::compute(&f, &cfg, &[]);
        assert_eq!(cd.deps_of(l), &[BlockId(0)]);
        assert_eq!(cd.deps_of(r), &[BlockId(0)]);
        assert!(cd.deps_of(j).is_empty());
        assert!(cd.deps_of(BlockId(0)).is_empty());
    }

    #[test]
    fn loop_header_depends_on_itself() {
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
        let cd = ControlDeps::compute(&f, &cfg, &[]);
        // Body is controlled by the header branch; the header re-executes
        // depending on its own branch (via the back edge walk).
        assert_eq!(cd.deps_of(body), &[header]);
        assert_eq!(cd.deps_of(header), &[header]);
        assert!(cd.deps_of(exit).is_empty());
    }

    #[test]
    fn acyclic_view_drops_target_self_dep_but_keeps_inner() {
        // Outer loop containing an inner loop:
        // entry -> oh; oh -> (ih, exit); ih -> (ib, ol); ib -> ih; ol -> oh.
        let mut b = FunctionBuilder::new("nest", &[("n", Ty::I32), ("m", Ty::I32)], None);
        let n = b.param(0);
        let m = b.param(1);
        let oh = b.append_block("oh");
        let ih = b.append_block("ih");
        let ib = b.append_block("ib");
        let ol = b.append_block("ol");
        let ex = b.append_block("ex");
        let zero = b.const_i32(0);
        b.br(oh);
        b.switch_to(oh);
        let c1 = b.icmp(IntPredicate::Slt, zero, n);
        b.cond_br(c1, ih, ex);
        b.switch_to(ih);
        let c2 = b.icmp(IntPredicate::Slt, zero, m);
        b.cond_br(c2, ib, ol);
        b.switch_to(ib);
        b.br(ih);
        b.switch_to(ol);
        b.br(oh);
        b.switch_to(ex);
        b.ret(None);
        let f = b.finish().unwrap();
        let cfg = Cfg::new(&f);
        // Remove only the *outer* back edge (ol -> oh).
        let cd = ControlDeps::compute(&f, &cfg, &[(ol, oh)]);
        // The outer header no longer depends on itself…
        assert!(!cd.deps_of(oh).contains(&oh));
        // …but the inner header still self-depends via the inner back edge.
        assert!(cd.deps_of(ih).contains(&ih));
        assert!(cd.deps_of(ib).contains(&ih));
        // Inner region depends on the outer branch.
        assert!(cd.deps_of(ih).contains(&oh));
    }
}
