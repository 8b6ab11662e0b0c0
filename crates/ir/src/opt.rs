//! CFG cleanup: removal of empty forwarding blocks.
//!
//! The pipeline transform collapses un-needed branches into unconditional
//! jumps, leaving chains of empty blocks; each would cost one FSM state per
//! traversal. This pass redirects predecessors straight to the target, the
//! same cleanup a production HLS flow (LegUp's `-simplifycfg`) performs
//! before scheduling.

use crate::cfg::Cfg;
use crate::function::{BlockId, Function};
use crate::inst::Op;

/// Remove blocks that contain only an unconditional branch, rewiring their
/// predecessors and fixing phis in the targets. Returns the number of
/// blocks removed.
///
/// A forwarding block is kept when removing it would create a duplicate
/// CFG edge into a block with phis (the phi could no longer distinguish the
/// paths).
pub fn simplify_cfg(func: &mut Function) -> usize {
    // One CFG, refreshed in place after every removal.
    let mut cfg = Cfg::new(func);
    let mut removed_total = 0;
    while simplify_once(func, &cfg) {
        removed_total += 1;
        cfg.rebuild(func);
    }
    removed_total
}

fn block_has_phis(func: &Function, b: BlockId) -> bool {
    func.block(b).insts.first().is_some_and(|&i| matches!(func.inst(i).op, Op::Phi { .. }))
}

/// Remove the first removable forwarding block, if there is one; `cfg` is
/// the CFG of `func` as it stands.
fn simplify_once(func: &mut Function, cfg: &Cfg) -> bool {
    // Find one removable forwarding block per pass (keeps the bookkeeping
    // simple; the driver loops to a fixpoint).
    for b in func.block_ids() {
        if b.0 == 0 {
            continue; // never remove the entry block
        }
        let insts = &func.block(b).insts;
        if insts.len() != 1 {
            continue;
        }
        let term = insts[0];
        let Op::Br { target } = func.inst(term).op else { continue };
        if target == b {
            continue; // self loop
        }
        let preds = cfg.preds(b);
        if preds.is_empty() {
            continue; // unreachable; harmless
        }
        // Duplicate-edge check: a pred that already reaches `target`
        // directly would appear twice in target's phi incoming lists.
        if block_has_phis(func, target) {
            let conflict = preds.iter().any(|p| cfg.succs(*p).contains(&target));
            if conflict {
                continue;
            }
            // Phis in `b` itself cannot exist (only a br); phis in `target`
            // with incoming from `b` get one entry per pred of `b`; a pred
            // with a conditional branch whose BOTH targets are `b` would
            // also duplicate.
            let both_edges =
                preds.iter().any(|p| cfg.succs(*p).iter().filter(|s| **s == b).count() > 1);
            if both_edges {
                continue;
            }
        }
        // Rewire: every pred's terminator b -> target.
        for &p in preds {
            let Some(t) = func.terminator(p) else { continue };
            let new_op = match func.inst(t).op.clone() {
                Op::Br { target: bt } if bt == b => Op::Br { target },
                Op::Br { target: bt } => Op::Br { target: bt },
                Op::CondBr { cond, on_true, on_false } => Op::CondBr {
                    cond,
                    on_true: if on_true == b { target } else { on_true },
                    on_false: if on_false == b { target } else { on_false },
                },
                other => other,
            };
            func.insts[t.index()].op = new_op;
        }
        // Fix phis in target: replace incoming-from-b with one entry per
        // pred of b (same value: b defines nothing).
        for k in 0..func.block(target).insts.len() {
            let i = func.block(target).insts[k];
            if let Op::Phi { incomings, .. } = &mut func.insts[i.index()].op {
                let mut new_inc = Vec::with_capacity(incomings.len());
                for (ib, iv) in incomings.iter() {
                    if *ib == b {
                        for &p in preds {
                            new_inc.push((p, *iv));
                        }
                    } else {
                        new_inc.push((*ib, *iv));
                    }
                }
                *incomings = new_inc;
            }
        }
        // Detach the block: make it a self-loop so its stale edge into
        // `target` disappears from the CFG (the block itself is now
        // unreachable; ids stay stable and the scheduler never visits it).
        func.insts[term.index()].op = Op::Br { target: b };
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::IntPredicate;
    use crate::types::Ty;
    use crate::verify::verify;

    /// entry -> a(empty) -> b(empty) -> exit(ret).
    #[test]
    fn forwarding_chain_collapses() {
        let mut fb = FunctionBuilder::new("f", &[], None);
        let a = fb.append_block("a");
        let bb = fb.append_block("b");
        let exit = fb.append_block("exit");
        fb.br(a);
        fb.switch_to(a);
        fb.br(bb);
        fb.switch_to(bb);
        fb.br(exit);
        fb.switch_to(exit);
        fb.ret(None);
        let mut f = fb.finish().unwrap();
        let removed = simplify_cfg(&mut f);
        assert_eq!(removed, 2);
        // Entry now jumps straight to exit.
        assert_eq!(f.successors(f.entry()), vec![exit]);
        verify(&f).unwrap();
    }

    /// A diamond with empty arms and a phi must NOT collapse (duplicate
    /// edges would break the phi).
    #[test]
    fn empty_diamond_arms_with_phi_survive() {
        let mut fb = FunctionBuilder::new("d", &[("c", Ty::I1)], None);
        let c = fb.param(0);
        let l = fb.append_block("l");
        let r = fb.append_block("r");
        let j = fb.append_block("j");
        fb.cond_br(c, l, r);
        fb.switch_to(l);
        fb.br(j);
        fb.switch_to(r);
        fb.br(j);
        fb.switch_to(j);
        let one = fb.const_i32(1);
        let two = fb.const_i32(2);
        let p = fb.phi(Ty::I32, "p");
        fb.add_phi_incoming(p, l, one);
        fb.add_phi_incoming(p, r, two);
        fb.ret(None);
        let mut f = fb.finish().unwrap();
        // Removing `l` would leave entry with edges to both j (via l) and r;
        // removing either arm creates a duplicate-pred conflict for `p`
        // after the second removal. The pass may remove at most one arm.
        let _ = simplify_cfg(&mut f);
        verify(&f).unwrap();
        // Values still distinguishable: j has 2 incoming phi entries.
        let Op::Phi { incomings, .. } = &f.inst(f.block(j).insts[0]).op else { panic!() };
        assert_eq!(incomings.len(), 2);
    }

    /// Loop latch forwarding block merges into the header's preds.
    #[test]
    fn loop_latch_chain_collapses_with_phi_fix() {
        let mut fb = FunctionBuilder::new("l", &[("n", Ty::I32)], None);
        let n = fb.param(0);
        let header = fb.append_block("header");
        let body = fb.append_block("body");
        let hop = fb.append_block("hop");
        let exit = fb.append_block("exit");
        let zero = fb.const_i32(0);
        let one = fb.const_i32(1);
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Ty::I32, "i");
        let c = fb.icmp(IntPredicate::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.binary(crate::inst::BinOp::Add, i, one);
        fb.br(hop);
        fb.switch_to(hop);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(None);
        fb.add_phi_incoming(i, fb.entry_block(), zero);
        fb.add_phi_incoming(i, hop, i2);
        let mut f = fb.finish().unwrap();
        let removed = simplify_cfg(&mut f);
        assert_eq!(removed, 1);
        verify(&f).unwrap();
        // The phi's latch incoming now names `body` directly.
        let Op::Phi { incomings, .. } = &f.inst(f.block(header).insts[0]).op else { panic!() };
        assert!(incomings.iter().any(|(b, _)| *b == body));
    }
}
