//! IR verifier: structural and type invariants.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::{BlockId, Function};
use crate::inst::{BinOp, CastKind, InstId, IntPredicate, Op};
use crate::types::Ty;
use crate::value::{ValueDef, ValueId};
use std::error::Error;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A block has no instructions or does not end in a terminator.
    MissingTerminator { func: String, block: BlockId },
    /// A terminator appears before the end of a block.
    EarlyTerminator { func: String, block: BlockId, inst: InstId },
    /// A phi's incoming blocks don't exactly match the block's predecessors.
    PhiPredecessorMismatch { func: String, block: BlockId, inst: InstId },
    /// A phi appears after a non-phi instruction in its block.
    PhiNotAtBlockStart { func: String, block: BlockId, inst: InstId },
    /// Operand type doesn't satisfy the opcode's requirements.
    TypeMismatch { func: String, inst: InstId, detail: String },
    /// A non-phi use is not dominated by its definition.
    UseNotDominated { func: String, inst: InstId, value: ValueId },
    /// The function has no blocks, so no entry block.
    NoEntryBlock { func: String },
    /// Value `index` is not parameter `index` (parameters are the first
    /// values, in order).
    BadParam { func: String, index: usize },
    /// A block lists, or a value names as its definition, an unknown
    /// instruction.
    BadInstRef { func: String, inst: InstId },
    /// An instruction reads or defines an unknown value.
    BadValueRef { func: String, inst: InstId },
    /// An instruction's block, branch target or phi incoming block is out
    /// of range.
    BadBlockRef { func: String, inst: InstId },
    /// An instruction names a result although its op yields no value,
    /// names none although it does, or names a value that records another
    /// definition.
    BadResult { func: String, inst: InstId },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::MissingTerminator { func, block } => {
                write!(f, "function `{func}`: block {block} does not end in a terminator")
            }
            VerifyError::EarlyTerminator { func, block, inst } => {
                write!(f, "function `{func}`: terminator {inst} before end of block {block}")
            }
            VerifyError::PhiPredecessorMismatch { func, block, inst } => {
                write!(
                    f,
                    "function `{func}`: phi {inst} in block {block} does not match predecessors"
                )
            }
            VerifyError::PhiNotAtBlockStart { func, block, inst } => {
                write!(f, "function `{func}`: phi {inst} is not at the start of block {block}")
            }
            VerifyError::TypeMismatch { func, inst, detail } => {
                write!(f, "function `{func}`: type error at {inst}: {detail}")
            }
            VerifyError::UseNotDominated { func, inst, value } => {
                write!(f, "function `{func}`: use of {value} at {inst} is not dominated by its definition")
            }
            VerifyError::NoEntryBlock { func } => write!(f, "function `{func}` has no blocks"),
            VerifyError::BadParam { func, index } => {
                write!(f, "function `{func}`: value %{index} is not parameter {index}")
            }
            VerifyError::BadInstRef { func, inst } => {
                write!(f, "function `{func}`: reference to unknown instruction {inst}")
            }
            VerifyError::BadValueRef { func, inst } => {
                write!(f, "function `{func}`: {inst} refers to an unknown value")
            }
            VerifyError::BadBlockRef { func, inst } => {
                write!(f, "function `{func}`: {inst} refers to an unknown block")
            }
            VerifyError::BadResult { func, inst } => {
                write!(f, "function `{func}`: {inst} does not name exactly the value its op yields")
            }
        }
    }
}

impl Error for VerifyError {}

/// Verify structural and type invariants of `func`.
///
/// # Errors
/// Returns the first violation found. Checks: every block, instruction and
/// value id the function refers to exists, and parameters are its first
/// values; an instruction names a result exactly when its op yields a
/// value, and that value records it as its definition; every block ends
/// in exactly one terminator at its end; phis sit at block starts and
/// cover exactly the block's predecessors; every op is at operand types
/// the execution semantics define; every non-phi use
/// is dominated by its definition.
pub fn verify(func: &Function) -> Result<(), VerifyError> {
    check_references(func)?;
    check_results(func)?;

    // Block-local structure.
    for b in func.block_ids() {
        let block = func.block(b);
        let Some(&last) = block.insts.last() else {
            return Err(VerifyError::MissingTerminator { func: func.name.clone(), block: b });
        };
        if !func.inst(last).op.is_terminator() {
            return Err(VerifyError::MissingTerminator { func: func.name.clone(), block: b });
        }
        let mut seen_non_phi = false;
        for &i in &block.insts {
            let inst = func.inst(i);
            if inst.op.is_terminator() && i != last {
                return Err(VerifyError::EarlyTerminator {
                    func: func.name.clone(),
                    block: b,
                    inst: i,
                });
            }
            match inst.op {
                Op::Phi { .. } => {
                    if seen_non_phi {
                        return Err(VerifyError::PhiNotAtBlockStart {
                            func: func.name.clone(),
                            block: b,
                            inst: i,
                        });
                    }
                }
                _ => seen_non_phi = true,
            }
        }
    }

    let cfg = Cfg::new(func);

    // Phi incoming sets match predecessors (order-insensitive), for
    // reachable blocks.
    let reachable = cfg.reachable();
    let (mut preds, mut inc): (Vec<BlockId>, Vec<BlockId>) = (Vec::new(), Vec::new());
    for b in func.block_ids() {
        if !reachable[b.index()] {
            continue;
        }
        preds.clear();
        preds.extend_from_slice(cfg.preds(b));
        preds.sort_unstable();
        preds.dedup();
        for &i in &func.block(b).insts {
            if let Op::Phi { incomings, .. } = &func.inst(i).op {
                inc.clear();
                inc.extend(incomings.iter().map(|(bb, _)| *bb));
                inc.sort_unstable();
                inc.dedup();
                if inc != preds {
                    return Err(VerifyError::PhiPredecessorMismatch {
                        func: func.name.clone(),
                        block: b,
                        inst: i,
                    });
                }
            }
        }
    }

    type_check(func)?;

    // Dominance of uses.
    let dom = DomTree::dominators(func, &cfg);
    let mut inst_pos = vec![usize::MAX; func.insts.len()];
    for b in func.block_ids() {
        for (pos, &i) in func.block(b).insts.iter().enumerate() {
            inst_pos[i.index()] = pos;
        }
    }
    for b in func.block_ids() {
        if !reachable[b.index()] {
            continue;
        }
        for &i in &func.block(b).insts {
            let inst = func.inst(i);
            if let Op::Phi { incomings, .. } = &inst.op {
                // A phi use must be dominated by its def at the end of the
                // incoming edge's source block. An edge out of an
                // unreachable block is never taken, so its value is
                // unconstrained (as for any use inside unreachable code).
                for (from, v) in incomings {
                    if !reachable[from.index()] {
                        continue;
                    }
                    if let Some(def) = func.def_of(*v) {
                        let def_block = func.inst(def).block;
                        if !dom.dominates(def_block.index(), from.index()) {
                            return Err(VerifyError::UseNotDominated {
                                func: func.name.clone(),
                                inst: i,
                                value: *v,
                            });
                        }
                    }
                }
                continue;
            }
            for v in inst.op.operands() {
                let Some(def) = func.def_of(v) else { continue };
                let def_block = func.inst(def).block;
                let ok = if def_block == b {
                    inst_pos[def.index()] < inst_pos[i.index()]
                } else {
                    dom.dominates(def_block.index(), b.index())
                };
                if !ok {
                    return Err(VerifyError::UseNotDominated {
                        func: func.name.clone(),
                        inst: i,
                        value: v,
                    });
                }
            }
        }
    }

    Ok(())
}

/// The first check [`verify`] runs: the function has an entry block, every
/// block, instruction and value id it refers to is in range, and parameter
/// `i` is value `i`. The remaining checks (and every consumer of a
/// verified function) can then index freely.
fn check_references(func: &Function) -> Result<(), VerifyError> {
    let name = || func.name.clone();
    let (n_blocks, n_insts, n_values) = (func.blocks.len(), func.insts.len(), func.values.len());
    if n_blocks == 0 {
        return Err(VerifyError::NoEntryBlock { func: name() });
    }
    for (index, (_, ty)) in func.params.iter().enumerate() {
        let is_param = |vd: &ValueDef| match *vd {
            ValueDef::Param { index: i, ty: t } => i as usize == index && t == *ty,
            _ => false,
        };
        if !func.values.get(index).is_some_and(is_param) {
            return Err(VerifyError::BadParam { func: name(), index });
        }
    }
    let listed = func.blocks.iter().flat_map(|b| b.insts.iter().copied());
    let defining = func.values.iter().filter_map(ValueDef::def_inst);
    if let Some(inst) = listed.chain(defining).find(|i| i.index() >= n_insts) {
        return Err(VerifyError::BadInstRef { func: name(), inst });
    }
    let bad_block = |b: &BlockId| b.index() >= n_blocks;
    for (idx, inst) in func.insts.iter().enumerate() {
        let i = InstId(idx as u32);
        if inst.op.operands().chain(inst.result).any(|v| v.index() >= n_values) {
            return Err(VerifyError::BadValueRef { func: name(), inst: i });
        }
        let bad = bad_block(&inst.block)
            || match &inst.op {
                Op::Phi { incomings, .. } => incomings.iter().any(|(b, _)| bad_block(b)),
                Op::Br { target } => bad_block(target),
                Op::CondBr { on_true, on_false, .. } => bad_block(on_true) || bad_block(on_false),
                _ => false,
            };
        if bad {
            return Err(VerifyError::BadBlockRef { func: name(), inst: i });
        }
    }
    Ok(())
}

/// Instructions and their results name each other: an instruction names a
/// result exactly when its op yields a value, the value records that
/// instruction as its definition, and every instruction a value records
/// names it. So every value a verified function reads has one instruction
/// that writes it (or is a parameter or constant).
fn check_results(func: &Function) -> Result<(), VerifyError> {
    let bad = |inst: InstId| Err(VerifyError::BadResult { func: func.name.clone(), inst });
    for (idx, inst) in func.insts.iter().enumerate() {
        let i = InstId(idx as u32);
        let yields = inst.op.result_ty(|v| func.value_ty(v)).is_some();
        if inst.result.is_some() != yields || inst.result.is_some_and(|r| func.def_of(r) != Some(i))
        {
            return bad(i);
        }
    }
    for (idx, vd) in func.values.iter().enumerate() {
        match vd.def_inst() {
            Some(i) if func.inst(i).result != Some(ValueId(idx as u32)) => return bad(i),
            _ => {}
        }
    }
    Ok(())
}

/// Every op is at operand types the execution semantics (`cgpa-sim`'s
/// `exec::eval_*`) define, and no others, so a verified function never
/// asks an executor for an op it lacks:
///
/// - a binary op takes two operands of one type: an integer op two `i32`s
///   or `i64`s, a float op two `f32`s or `f64`s, and `and`, `or` and `xor`
///   also two `i1`s (no op takes pointers);
/// - `icmp` takes two `i32`s, `i64`s or pointers, and two `i1`s for `eq`
///   and `ne`; `fcmp` two `f32`s or `f64`s; `select` an `i1` and two arms
///   of one type;
/// - a cast is one of the conversions [`cast_is_defined`] lists;
/// - addresses are pointers, a gep index is an `i32` or `i64`, and queue
///   selectors are `i32`s;
/// - branch conditions are `i1`, and returns and phi incomings match their
///   declared type.
fn type_check(func: &Function) -> Result<(), VerifyError> {
    let err = |inst: InstId, detail: String| VerifyError::TypeMismatch {
        func: func.name.clone(),
        inst,
        detail,
    };
    let ty = |v: ValueId| func.value_ty(v);
    for (idx, inst) in func.insts.iter().enumerate() {
        let i = InstId(idx as u32);
        match &inst.op {
            Op::Binary { op, lhs, rhs } => {
                if ty(*lhs) != ty(*rhs) {
                    return Err(err(i, format!("binary operands {} vs {}", ty(*lhs), ty(*rhs))));
                }
                let ok = match ty(*lhs) {
                    Ty::I32 | Ty::I64 => !op.is_float(),
                    Ty::F32 | Ty::F64 => op.is_float(),
                    Ty::I1 => matches!(op, BinOp::And | BinOp::Or | BinOp::Xor),
                    Ty::Ptr => false,
                };
                if !ok {
                    return Err(err(i, format!("{} on {}", op.mnemonic(), ty(*lhs))));
                }
            }
            Op::ICmp { pred, lhs, rhs } => {
                let ok = ty(*lhs) == ty(*rhs)
                    && match ty(*lhs) {
                        Ty::I32 | Ty::I64 | Ty::Ptr => true,
                        Ty::I1 => matches!(pred, IntPredicate::Eq | IntPredicate::Ne),
                        Ty::F32 | Ty::F64 => false,
                    };
                if !ok {
                    return Err(err(i, format!("icmp {pred:?} on {} vs {}", ty(*lhs), ty(*rhs))));
                }
            }
            Op::FCmp { lhs, rhs, .. } => {
                if ty(*lhs) != ty(*rhs) || !ty(*lhs).is_float() {
                    return Err(err(i, format!("fcmp on {} vs {}", ty(*lhs), ty(*rhs))));
                }
            }
            Op::Select { cond, on_true, on_false } => {
                if ty(*cond) != Ty::I1 {
                    return Err(err(i, "select condition must be i1".to_string()));
                }
                if ty(*on_true) != ty(*on_false) {
                    return Err(err(i, "select arm type mismatch".to_string()));
                }
            }
            Op::Cast { kind, value, to } => {
                let from = ty(*value);
                if !cast_is_defined(*kind, from, *to) {
                    return Err(err(i, format!("cast {kind:?} from {from} to {to}")));
                }
            }
            Op::Load { addr, .. } | Op::Store { addr, .. } => {
                if ty(*addr) != Ty::Ptr {
                    return Err(err(i, "memory address must be ptr".to_string()));
                }
            }
            Op::Gep { base, index, .. } => {
                if ty(*base) != Ty::Ptr {
                    return Err(err(i, "gep base must be ptr".to_string()));
                }
                if let Some(ix) = index {
                    if !matches!(ty(*ix), Ty::I32 | Ty::I64) {
                        return Err(err(i, "gep index must be an integer".to_string()));
                    }
                }
            }
            Op::CondBr { cond, .. } => {
                if ty(*cond) != Ty::I1 {
                    return Err(err(i, "branch condition must be i1".to_string()));
                }
            }
            Op::Ret { value } => match (value, func.ret_ty) {
                (Some(v), Some(rt)) => {
                    if ty(*v) != rt {
                        return Err(err(i, format!("return {} from fn returning {rt}", ty(*v))));
                    }
                }
                (None, None) => {}
                _ => return Err(err(i, "return arity mismatch".to_string())),
            },
            Op::Phi { ty: pty, incomings } => {
                for (_, v) in incomings {
                    if ty(*v) != *pty {
                        return Err(err(i, format!("phi incoming {} vs {pty}", ty(*v))));
                    }
                }
            }
            Op::Produce { worker_sel, .. } => {
                if ty(*worker_sel) != Ty::I32 {
                    return Err(err(i, "produce worker selector must be i32".to_string()));
                }
            }
            Op::Consume { channel_sel, .. } => {
                if ty(*channel_sel) != Ty::I32 {
                    return Err(err(i, "consume channel selector must be i32".to_string()));
                }
            }
            Op::ProduceBroadcast { .. }
            | Op::ParallelFork { .. }
            | Op::ParallelJoin { .. }
            | Op::StoreLiveout { .. }
            | Op::RetrieveLiveout { .. }
            | Op::Br { .. } => {}
        }
    }
    Ok(())
}

/// The casts the execution semantics define: `sext` `i1 -> i32` and
/// `i32 -> i64`; `zext` `i1 -> i32`, `i1 -> i64` and `i32 -> i64`; `trunc`
/// `i64 -> i32` and `i32 -> i1`; `sitofp` `i32 -> f32`, `i32 -> f64` and
/// `i64 -> f64`; `fptosi` `f32 -> i32`, `f64 -> i32` and `f64 -> i64`;
/// `fpcast` between `f32` and `f64`; and `ptrcast` between `ptr` and `i32`.
fn cast_is_defined(kind: CastKind, from: Ty, to: Ty) -> bool {
    use CastKind as K;
    use Ty as T;
    matches!(
        (kind, from, to),
        (K::SExt, T::I1, T::I32)
            | (K::SExt, T::I32, T::I64)
            | (K::ZExt, T::I1, T::I32 | T::I64)
            | (K::ZExt, T::I32, T::I64)
            | (K::Trunc, T::I64, T::I32)
            | (K::Trunc, T::I32, T::I1)
            | (K::SiToFp, T::I32, T::F32 | T::F64)
            | (K::SiToFp, T::I64, T::F64)
            | (K::FpToSi, T::F32 | T::F64, T::I32)
            | (K::FpToSi, T::F64, T::I64)
            | (K::FpCast, T::F32, T::F64)
            | (K::FpCast, T::F64, T::F32)
            | (K::PtrCast, T::Ptr, T::I32)
            | (K::PtrCast, T::I32, T::Ptr)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::IntPredicate;

    #[test]
    fn missing_terminator_detected() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let c1 = b.const_i32(1);
        let c2 = b.const_i32(2);
        b.binary(BinOp::Add, c1, c2);
        let f = b.finish_unverified();
        assert!(matches!(verify(&f), Err(VerifyError::MissingTerminator { .. })));
    }

    #[test]
    fn type_mismatch_detected() {
        let mut b = FunctionBuilder::new("f", &[("x", Ty::I32), ("y", Ty::F64)], None);
        let x = b.param(0);
        let y = b.param(1);
        b.binary(BinOp::Add, x, y);
        b.ret(None);
        let f = b.finish_unverified();
        assert!(matches!(verify(&f), Err(VerifyError::TypeMismatch { .. })));
    }

    #[test]
    fn float_opcode_on_ints_detected() {
        let mut b = FunctionBuilder::new("f", &[("x", Ty::I32)], None);
        let x = b.param(0);
        b.binary(BinOp::FAdd, x, x);
        b.ret(None);
        let f = b.finish_unverified();
        assert!(matches!(verify(&f), Err(VerifyError::TypeMismatch { .. })));
    }

    #[test]
    fn phi_mismatch_detected() {
        let mut b = FunctionBuilder::new("f", &[("c", Ty::I1)], None);
        let c = b.param(0);
        let t = b.append_block("t");
        let j = b.append_block("j");
        b.cond_br(c, t, j);
        b.switch_to(t);
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Ty::I32, "p");
        // Only one incoming, but j has two predecessors.
        let z = b.const_i32(0);
        b.add_phi_incoming(p, t, z);
        b.ret(None);
        let f = b.finish_unverified();
        assert!(matches!(verify(&f), Err(VerifyError::PhiPredecessorMismatch { .. })));
    }

    #[test]
    fn use_before_def_detected() {
        // Build: entry branches to (a, b); a defines v; b uses v.
        let mut bld = FunctionBuilder::new("f", &[("c", Ty::I1)], None);
        let c = bld.param(0);
        let a = bld.append_block("a");
        let bb = bld.append_block("b");
        bld.cond_br(c, a, bb);
        bld.switch_to(a);
        let one = bld.const_i32(1);
        let v = bld.binary(BinOp::Add, one, one);
        bld.ret(None);
        bld.switch_to(bb);
        bld.binary(BinOp::Add, v, one);
        bld.ret(None);
        let f = bld.finish_unverified();
        assert!(matches!(verify(&f), Err(VerifyError::UseNotDominated { .. })));
    }

    #[test]
    fn phi_incoming_from_unreachable_block_is_unconstrained() {
        // entry -> h; dead (unreachable) -> h. The incoming value on the
        // dead edge is defined in h itself, which does not dominate dead.
        let mut b = FunctionBuilder::new("f", &[], None);
        let entry = b.entry_block();
        let h = b.append_block("h");
        let dead = b.append_block("dead");
        let e = b.append_block("e");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Ty::I32, "i");
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(e);
        b.switch_to(dead);
        b.br(h);
        b.switch_to(e);
        b.ret(None);
        b.add_phi_incoming(i, entry, zero);
        b.add_phi_incoming(i, dead, i2);
        assert_eq!(verify(&b.finish_unverified()), Ok(()));
    }

    #[test]
    fn valid_loop_passes() {
        let mut b = FunctionBuilder::new("f", &[("n", Ty::I32)], Some(Ty::I32));
        let n = b.param(0);
        let entry = b.entry_block();
        let h = b.append_block("h");
        let e = b.append_block("e");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Ty::I32, "i");
        let i2 = b.binary(BinOp::Add, i, one);
        let cc = b.icmp(IntPredicate::Slt, i2, n);
        b.cond_br(cc, h, e);
        b.switch_to(e);
        b.ret(Some(i2));
        b.add_phi_incoming(i, entry, zero);
        b.add_phi_incoming(i, h, i2);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn out_of_range_references_are_errors() {
        let build = || {
            let mut b = FunctionBuilder::new("f", &[("x", Ty::I32)], None);
            let x = b.param(0);
            b.binary(BinOp::Add, x, x);
            b.ret(None);
            b.finish_unverified()
        };
        assert_eq!(verify(&build()), Ok(()));

        let mut f = build();
        f.blocks.clear();
        assert!(matches!(verify(&f), Err(VerifyError::NoEntryBlock { .. })));

        let mut f = build();
        f.params.push(("y".into(), Ty::I32));
        assert!(matches!(verify(&f), Err(VerifyError::BadParam { index: 1, .. })));

        let mut f = build();
        f.blocks[0].insts.push(InstId(99));
        assert!(matches!(verify(&f), Err(VerifyError::BadInstRef { inst: InstId(99), .. })));

        let mut f = build();
        f.insts[0].op = Op::Binary { op: BinOp::Add, lhs: ValueId(0), rhs: ValueId(99) };
        assert!(matches!(verify(&f), Err(VerifyError::BadValueRef { inst: InstId(0), .. })));

        let mut f = build();
        f.insts[1].op = Op::Br { target: BlockId(7) };
        let e = verify(&f).unwrap_err();
        assert!(matches!(e, VerifyError::BadBlockRef { inst: InstId(1), .. }), "{e:?}");
        assert!(e.to_string().contains("unknown block"), "{e}");
    }

    /// `fn f(a: ptr, n: i32) -> i32 { x = n + n; store n, a; ret x }`, its
    /// add and its store.
    fn add_and_store() -> (Function, InstId, InstId) {
        let mut b = FunctionBuilder::new("f", &[("a", Ty::Ptr), ("n", Ty::I32)], Some(Ty::I32));
        let (a, n) = (b.param(0), b.param(1));
        let x = b.binary(BinOp::Add, n, n);
        let st = b.store(a, n);
        b.ret(Some(x));
        let f = b.finish().unwrap();
        (f, InstId(0), st)
    }

    #[test]
    fn a_valueless_op_that_names_a_result_is_an_error() {
        let (mut f, add, st) = add_and_store();
        f.insts[st.index()].result = f.insts[add.index()].result;
        assert_eq!(verify(&f), Err(VerifyError::BadResult { func: "f".into(), inst: st }));
    }

    #[test]
    fn a_valued_op_that_names_no_result_is_an_error() {
        let (mut f, add, _) = add_and_store();
        f.insts[add.index()].result = None;
        let e = verify(&f).unwrap_err();
        assert_eq!(e, VerifyError::BadResult { func: "f".into(), inst: add });
        assert!(e.to_string().contains("does not name exactly the value its op yields"), "{e}");
    }

    #[test]
    fn a_result_and_its_definition_name_each_other() {
        // The add names a parameter as its result.
        let (mut f, add, _) = add_and_store();
        f.insts[add.index()].result = Some(ValueId(1));
        assert_eq!(verify(&f), Err(VerifyError::BadResult { func: "f".into(), inst: add }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = VerifyError::MissingTerminator { func: "f".into(), block: BlockId(2) };
        assert!(e.to_string().contains("bb2"));
    }
}
