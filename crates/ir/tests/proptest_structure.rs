//! Property tests on IR structural analyses: dominators, loops, and the
//! CFG simplifier, over randomly generated structured CFGs.

use cgpa_ir::builder::FunctionBuilder;
use cgpa_ir::cfg::Cfg;
use cgpa_ir::dom::DomTree;
use cgpa_ir::inst::IntPredicate;
use cgpa_ir::loops::LoopInfo;
use cgpa_ir::opt::simplify_cfg;
use cgpa_ir::verify::verify;
use cgpa_ir::{BinOp, BlockId, Function, Ty};
use proptest::prelude::*;

/// A structured random function: a chain of regions, each either a
/// straight block, an if-diamond, or a counted self-loop.
#[derive(Debug, Clone, Copy)]
enum Region {
    Straight,
    Diamond,
    Loop,
}

fn region() -> impl Strategy<Value = Region> {
    prop_oneof![Just(Region::Straight), Just(Region::Diamond), Just(Region::Loop)]
}

fn build(regions: &[Region]) -> Function {
    let mut b = FunctionBuilder::new("r", &[("n", Ty::I32), ("c", Ty::I1)], Some(Ty::I32));
    let n = b.param(0);
    let cond = b.param(1);
    let one = b.const_i32(1);
    let zero = b.const_i32(0);
    let mut acc = zero;
    for (ri, r) in regions.iter().enumerate() {
        match r {
            Region::Straight => {
                acc = b.binary(BinOp::Add, acc, one);
            }
            Region::Diamond => {
                let t = b.append_block(&format!("t{ri}"));
                let f = b.append_block(&format!("f{ri}"));
                let j = b.append_block(&format!("j{ri}"));
                b.cond_br(cond, t, f);
                b.switch_to(t);
                let tv = b.binary(BinOp::Add, acc, one);
                b.br(j);
                b.switch_to(f);
                let fv = b.binary(BinOp::Sub, acc, one);
                b.br(j);
                b.switch_to(j);
                let p = b.phi(Ty::I32, &format!("m{ri}"));
                b.add_phi_incoming(p, t, tv);
                b.add_phi_incoming(p, f, fv);
                acc = p;
            }
            Region::Loop => {
                let pre = b.current_block();
                let h = b.append_block(&format!("h{ri}"));
                let body = b.append_block(&format!("b{ri}"));
                let ex = b.append_block(&format!("e{ri}"));
                b.br(h);
                b.switch_to(h);
                let i = b.phi(Ty::I32, &format!("i{ri}"));
                let s = b.phi(Ty::I32, &format!("s{ri}"));
                let cc = b.icmp(IntPredicate::Slt, i, n);
                b.cond_br(cc, body, ex);
                b.switch_to(body);
                let i2 = b.binary(BinOp::Add, i, one);
                let s2 = b.binary(BinOp::Add, s, i);
                b.br(h);
                b.add_phi_incoming(i, pre, zero);
                b.add_phi_incoming(i, body, i2);
                b.add_phi_incoming(s, pre, acc);
                b.add_phi_incoming(s, body, s2);
                b.switch_to(ex);
                acc = s;
            }
        }
    }
    b.ret(Some(acc));
    b.finish().expect("structured function verifies")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn dominator_tree_is_consistent(regions in proptest::collection::vec(region(), 1..8)) {
        let f = build(&regions);
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        // Entry dominates every reachable block; idom strictly dominates.
        let reach = cfg.reachable();
        for b in f.block_ids() {
            if !reach[b.index()] { continue; }
            prop_assert!(dom.dominates(0, b.index()));
            if let Some(id) = dom.idom(b.index()) {
                prop_assert!(dom.strictly_dominates(id, b.index()));
            }
        }
    }

    #[test]
    fn loop_count_matches_generated_regions(regions in proptest::collection::vec(region(), 1..8)) {
        let f = build(&regions);
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        let expected = regions.iter().filter(|r| matches!(r, Region::Loop)).count();
        prop_assert_eq!(li.loops().len(), expected);
        for l in li.loops() {
            prop_assert_eq!(l.depth, 1); // regions never nest
            prop_assert_eq!(l.latches.len(), 1);
            prop_assert!(l.contains(l.header));
        }
    }

    #[test]
    fn post_dominators_root_every_reachable_block(regions in proptest::collection::vec(region(), 1..8)) {
        let f = build(&regions);
        let cfg = Cfg::new(&f);
        let pdom = DomTree::post_dominators(&f, &cfg, &[]);
        let exit = pdom.virtual_exit();
        for b in f.block_ids() {
            if cfg.reachable()[b.index()] {
                prop_assert!(pdom.dominates(exit, b.index()),
                    "virtual exit must post-dominate {b}");
            }
        }
    }

    #[test]
    fn simplify_cfg_preserves_verification(regions in proptest::collection::vec(region(), 1..8)) {
        let mut f = build(&regions);
        let before_blocks = f.blocks.len();
        let removed = simplify_cfg(&mut f);
        verify(&f).expect("simplified function verifies");
        prop_assert!(removed <= before_blocks);
        // Entry must still reach the return.
        let cfg = Cfg::new(&f);
        let reach = cfg.reachable();
        let has_ret = f.block_ids().any(|b| {
            reach[b.index()]
                && f.terminator(b)
                    .is_some_and(|t| matches!(f.inst(t).op, cgpa_ir::Op::Ret { .. }))
        });
        prop_assert!(has_ret);
    }
}

#[test]
fn block_ids_are_dense_and_stable() {
    let f = build(&[Region::Diamond, Region::Loop, Region::Straight]);
    for (i, _) in f.blocks.iter().enumerate() {
        assert_eq!(BlockId(i as u32).index(), i);
    }
}
