//! Post-dominance and control dependence checked against their brute-force
//! definitions over generated CFGs, both on the whole CFG and with one
//! loop's back edges cut (the PDG builder's intra-iteration view). The
//! compressed-row `Cfg` and dominance are checked on the same CFGs against a
//! naive per-block build and against reachability.

use cgpa_analysis::control::ControlDeps;
use cgpa_ir::builder::FunctionBuilder;
use cgpa_ir::cfg::Cfg;
use cgpa_ir::dom::DomTree;
use cgpa_ir::loops::LoopInfo;
use cgpa_ir::{BlockId, Function, Ty};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// An open structured region while a token stream is being built.
enum Frame {
    If { join: BlockId },
    IfElse { other: BlockId, join: BlockId, in_else: bool },
    While { header: BlockId, exit: BlockId },
    DoWhile { header: BlockId, exit: BlockId },
}

/// Build a function from a token stream. Tokens open and close `if`,
/// `if/else`, `while` and `do/while` regions, break out of the innermost
/// loop, or return early, so the CFG has nested loops, several exits and
/// bottom-tested latches. Every block reaches a `ret`.
fn build(tokens: &[u8]) -> Function {
    let mut b = FunctionBuilder::new("g", &[("c", Ty::I1)], None);
    let c = b.param(0);
    let mut frames: Vec<Frame> = Vec::new();
    let close = |b: &mut FunctionBuilder, frames: &mut Vec<Frame>| match frames.pop() {
        Some(Frame::If { join }) => {
            b.br(join);
            b.switch_to(join);
        }
        Some(Frame::IfElse { other, join, in_else: false }) => {
            b.br(join);
            b.switch_to(other);
            frames.push(Frame::IfElse { other, join, in_else: true });
        }
        Some(Frame::IfElse { join, .. }) => {
            b.br(join);
            b.switch_to(join);
        }
        Some(Frame::While { header, exit }) => {
            b.br(header);
            b.switch_to(exit);
        }
        Some(Frame::DoWhile { header, exit }) => {
            b.cond_br(c, header, exit);
            b.switch_to(exit);
        }
        None => {}
    };
    for &t in tokens {
        match t {
            0 => {
                let next = b.append_block("s");
                b.br(next);
                b.switch_to(next);
            }
            1 => {
                let then = b.append_block("then");
                let join = b.append_block("join");
                b.cond_br(c, then, join);
                b.switch_to(then);
                frames.push(Frame::If { join });
            }
            2 => {
                let then = b.append_block("then");
                let other = b.append_block("else");
                let join = b.append_block("join");
                b.cond_br(c, then, other);
                b.switch_to(then);
                frames.push(Frame::IfElse { other, join, in_else: false });
            }
            3 => {
                let header = b.append_block("wh");
                let body = b.append_block("wb");
                let exit = b.append_block("wx");
                b.br(header);
                b.switch_to(header);
                b.cond_br(c, body, exit);
                b.switch_to(body);
                frames.push(Frame::While { header, exit });
            }
            4 => {
                let header = b.append_block("dh");
                let exit = b.append_block("dx");
                b.br(header);
                b.switch_to(header);
                frames.push(Frame::DoWhile { header, exit });
            }
            5 => close(&mut b, &mut frames),
            6 => {
                let exit = frames.iter().rev().find_map(|f| match f {
                    Frame::While { exit, .. } | Frame::DoWhile { exit, .. } => Some(*exit),
                    _ => None,
                });
                if let Some(exit) = exit {
                    let cont = b.append_block("cont");
                    b.cond_br(c, exit, cont);
                    b.switch_to(cont);
                }
            }
            _ => {
                let ret = b.append_block("ret");
                let cont = b.append_block("cont");
                b.cond_br(c, ret, cont);
                b.switch_to(ret);
                b.ret(None);
                b.switch_to(cont);
            }
        }
    }
    while !frames.is_empty() {
        close(&mut b, &mut frames);
    }
    b.ret(None);
    b.finish().expect("generated function verifies")
}

/// Successor lists of `cfg` with the `cut` edges removed.
fn cut_succs(cfg: &Cfg, cut: &[(BlockId, BlockId)]) -> Vec<Vec<usize>> {
    (0..cfg.len())
        .map(|u| {
            let ub = BlockId(u as u32);
            cfg.succs(ub).iter().filter(|v| !cut.contains(&(ub, **v))).map(|v| v.index()).collect()
        })
        .collect()
}

/// Blocks that reach a block without successors in `succs` (inverted to
/// `preds`) along a path that avoids `avoid`.
fn escapes(succs: &[Vec<usize>], preds: &[Vec<usize>], avoid: Option<usize>) -> Vec<bool> {
    let mut seen = vec![false; succs.len()];
    let mut stack: Vec<usize> =
        (0..succs.len()).filter(|&v| Some(v) != avoid && succs[v].is_empty()).collect();
    for &v in &stack {
        seen[v] = true;
    }
    while let Some(v) = stack.pop() {
        for &p in &preds[v] {
            if Some(p) != avoid && !seen[p] {
                seen[p] = true;
                stack.push(p);
            }
        }
    }
    seen
}

/// `pdom[a][b]`: removing `a` cuts every path from `b` to a block without
/// successors (and `a` post-dominates itself).
fn brute_post_dominance(succs: &[Vec<usize>], preds: &[Vec<usize>]) -> Vec<Vec<bool>> {
    (0..succs.len())
        .map(|a| {
            let esc = escapes(succs, preds, Some(a));
            (0..succs.len()).map(|b| b == a || !esc[b]).collect()
        })
        .collect()
}

/// The CFG built the naive way: one successor list per block from its
/// terminator, and one predecessor list per block filled by visiting the
/// blocks in order.
fn naive_rows(f: &Function) -> (Vec<Vec<BlockId>>, Vec<Vec<BlockId>>) {
    let succs: Vec<Vec<BlockId>> = f.block_ids().map(|b| f.successors(b)).collect();
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids() {
        for s in &succs[b.index()] {
            preds[s.index()].push(b);
        }
    }
    (succs, preds)
}

/// `cfg` returns exactly the naive rows, in the same order.
fn check_rows(f: &Function) -> Result<(), TestCaseError> {
    let cfg = Cfg::new(f);
    let (succs, preds) = naive_rows(f);
    prop_assert_eq!(cfg.len(), f.blocks.len());
    for b in f.block_ids() {
        prop_assert_eq!(cfg.succs(b), succs[b.index()].as_slice(), "succs of {}", b);
        prop_assert_eq!(cfg.preds(b), preds[b.index()].as_slice(), "preds of {}", b);
    }
    Ok(())
}

/// Blocks reachable from the entry without passing through `avoid`.
fn reach_avoiding(succs: &[Vec<usize>], avoid: Option<usize>) -> Vec<bool> {
    let mut seen = vec![false; succs.len()];
    if avoid == Some(0) {
        return seen;
    }
    let mut stack = vec![0];
    seen[0] = true;
    while let Some(v) = stack.pop() {
        for &s in &succs[v] {
            if Some(s) != avoid && !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Dominance against its definition: `a` dominates reachable `b` when
/// removing `a` leaves `b` unreachable from the entry.
fn check_dominators(f: &Function) -> Result<(), TestCaseError> {
    let cfg = Cfg::new(f);
    let n = cfg.len();
    let succs = cut_succs(&cfg, &[]);
    let reachable = reach_avoiding(&succs, None);
    let tree = DomTree::dominators(f, &cfg);
    for a in 0..n {
        let without_a = reach_avoiding(&succs, Some(a));
        for b in (0..n).filter(|&b| reachable[b]) {
            let want = a == b || (reachable[a] && !without_a[b]);
            prop_assert_eq!(tree.dominates(a, b), want, "does {} dominate {}?", a, b);
        }
    }
    Ok(())
}

fn check(f: &Function, cut: &[(BlockId, BlockId)]) -> Result<(), TestCaseError> {
    let cfg = Cfg::new(f);
    let n = cfg.len();
    let succs = cut_succs(&cfg, cut);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, ss) in succs.iter().enumerate() {
        for &v in ss {
            preds[v].push(u);
        }
    }
    // The generator guarantees every block reaches an exit, so no block is
    // vacuously post-dominated by everything.
    prop_assert!(escapes(&succs, &preds, None).iter().all(|&e| e), "a block reaches no exit");
    let pdom = brute_post_dominance(&succs, &preds);

    let tree = DomTree::post_dominators(f, &cfg, cut);
    for b in 0..n {
        prop_assert!(tree.dominates(tree.virtual_exit(), b));
        for (a, pdom_a) in pdom.iter().enumerate() {
            prop_assert_eq!(tree.dominates(a, b), pdom_a[b], "does {} post-dominate {}?", a, b);
        }
    }

    let cd = ControlDeps::compute(f, &cfg, cut);
    for (y, pdom_y) in pdom.iter().enumerate() {
        // FOW: `y` depends on `x` when some edge `x -> z` has `y`
        // post-dominating `z`, and `y` does not strictly post-dominate `x`.
        let expected: BTreeSet<BlockId> = (0..n)
            .filter(|&x| succs[x].iter().any(|&z| pdom_y[z]) && (x == y || !pdom_y[x]))
            .map(|x| BlockId(x as u32))
            .collect();
        let got = cd.deps_of(BlockId(y as u32));
        let got_set: BTreeSet<BlockId> = got.iter().copied().collect();
        prop_assert_eq!(got_set.len(), got.len(), "duplicate deps of {}", y);
        prop_assert_eq!(got_set, expected, "control deps of block {}", y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn control_deps_match_brute_force(
        tokens in proptest::collection::vec(0u8..8, 1..24),
        pick in 0usize..8,
    ) {
        let f = build(&tokens);
        check_rows(&f)?;
        check_dominators(&f)?;
        check(&f, &[])?;
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        let loops = LoopInfo::compute(&f, &cfg, &dom);
        if !loops.loops().is_empty() {
            let l = &loops.loops()[pick % loops.loops().len()];
            let cut: Vec<_> = l.latches.iter().map(|&latch| (latch, l.header)).collect();
            check(&f, &cut)?;
        }
    }
}

/// A `condbr` with both edges into one block lists that block twice as a
/// successor and itself twice as its predecessor; an unreachable block keeps
/// its own rows and is still a predecessor of its successor.
#[test]
fn cfg_rows_keep_duplicate_edges_and_unreachable_blocks() {
    let mut b = FunctionBuilder::new("dup", &[("c", Ty::I1)], None);
    let c = b.param(0);
    let both = b.append_block("both");
    let dead = b.append_block("dead");
    let exit = b.append_block("exit");
    b.cond_br(c, both, both);
    b.switch_to(both);
    b.br(exit);
    b.switch_to(dead);
    b.cond_br(c, exit, both);
    b.switch_to(exit);
    b.ret(None);
    let f = b.finish().expect("verifies");
    check_rows(&f).unwrap();
    let cfg = Cfg::new(&f);
    let entry = f.entry();
    assert_eq!(cfg.succs(entry), &[both, both]);
    assert_eq!(cfg.preds(both), &[entry, entry, dead]);
    assert_eq!(cfg.preds(exit), &[both, dead]);
    assert!(cfg.preds(dead).is_empty());
    assert_eq!(cfg.reachable(), vec![true, true, false, true]);
    check_dominators(&f).unwrap();
    let dom = DomTree::dominators(&f, &cfg);
    assert_eq!(dom.idom(dead.index()), None);
    assert_eq!(dom.idom(exit.index()), Some(both.index()));
}
