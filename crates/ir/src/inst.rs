//! Instructions, opcodes, and the CGPA pipeline primitives of Table 1.

use crate::function::{BlockId, QueueId};
use crate::types::Ty;
use crate::value::ValueId;
use std::fmt;

/// A handle to an instruction inside one [`Function`].
///
/// [`Function`]: crate::function::Function
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    /// The index of this instruction in its function's instruction table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "!{}", self.0)
    }
}

/// Binary arithmetic / logical opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition (also used for pointer-sized arithmetic).
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Signed integer division.
    SDiv,
    /// Signed integer remainder.
    SRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
}

impl BinOp {
    /// True for the floating-point opcodes.
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// True for multiplication opcodes (integer or float).
    ///
    /// The CGPA replicable-placement heuristic treats multiplies as
    /// heavyweight: replicable sections containing them are *not* duplicated
    /// into parallel workers (paper §3.3).
    #[must_use]
    pub fn is_multiply(self) -> bool {
        matches!(self, BinOp::Mul | BinOp::FMul)
    }

    /// Mnemonic used by the printer.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::SRem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntPredicate {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Slt,
    /// Signed less or equal.
    Sle,
    /// Signed greater than.
    Sgt,
    /// Signed greater or equal.
    Sge,
    /// Unsigned less than.
    Ult,
    /// Unsigned greater or equal.
    Uge,
}

impl IntPredicate {
    /// Mnemonic used by the printer.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            IntPredicate::Eq => "eq",
            IntPredicate::Ne => "ne",
            IntPredicate::Slt => "slt",
            IntPredicate::Sle => "sle",
            IntPredicate::Sgt => "sgt",
            IntPredicate::Sge => "sge",
            IntPredicate::Ult => "ult",
            IntPredicate::Uge => "uge",
        }
    }
}

/// Floating-point comparison predicates (ordered semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloatPredicate {
    /// Ordered equal.
    Oeq,
    /// Ordered not equal.
    One,
    /// Ordered less than.
    Olt,
    /// Ordered less or equal.
    Ole,
    /// Ordered greater than.
    Ogt,
    /// Ordered greater or equal.
    Oge,
}

impl FloatPredicate {
    /// Mnemonic used by the printer.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FloatPredicate::Oeq => "oeq",
            FloatPredicate::One => "one",
            FloatPredicate::Olt => "olt",
            FloatPredicate::Ole => "ole",
            FloatPredicate::Ogt => "ogt",
            FloatPredicate::Oge => "oge",
        }
    }
}

/// Scalar conversion kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Sign-extend a narrower integer to a wider one.
    SExt,
    /// Zero-extend a narrower integer to a wider one.
    ZExt,
    /// Truncate a wider integer to a narrower one.
    Trunc,
    /// Signed integer to float.
    SiToFp,
    /// Float to signed integer (round toward zero).
    FpToSi,
    /// Float precision change (`f32` ↔ `f64`).
    FpCast,
    /// Reinterpret a pointer as `i32` or back (no bits change).
    PtrCast,
}

/// The operation performed by an [`Inst`].
///
/// Besides the conventional SSA operations, this includes the CGPA
/// primitives of the paper's Table 1, inserted by the pipeline transform:
///
/// | Class | Primitive | Variant |
/// |---|---|---|
/// | 1 | `parallel_fork` | [`Op::ParallelFork`] |
/// | 1 | `parallel_join` | [`Op::ParallelJoin`] |
/// | 2 | `produce` | [`Op::Produce`] |
/// | 2 | `produce_broadcast` | [`Op::ProduceBroadcast`] |
/// | 2 | `consume` | [`Op::Consume`] |
/// | 3 | `store_liveout` | [`Op::StoreLiveout`] |
/// | 3 | `retrieve_liveout` | [`Op::RetrieveLiveout`] |
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Two-operand arithmetic/logic. Both operands and the result share one
    /// type.
    Binary { op: BinOp, lhs: ValueId, rhs: ValueId },
    /// Integer (or pointer) comparison producing `i1`.
    ICmp { pred: IntPredicate, lhs: ValueId, rhs: ValueId },
    /// Float comparison producing `i1`.
    FCmp { pred: FloatPredicate, lhs: ValueId, rhs: ValueId },
    /// `cond ? on_true : on_false`.
    Select { cond: ValueId, on_true: ValueId, on_false: ValueId },
    /// Scalar conversion to type `to`.
    Cast { kind: CastKind, value: ValueId, to: Ty },
    /// Load a `ty` from `addr`.
    Load { addr: ValueId, ty: Ty },
    /// Store `value` to `addr`.
    Store { addr: ValueId, value: ValueId },
    /// Address computation: `base + index * scale + offset` (all in bytes).
    /// `index` is optional for plain struct-field offsets.
    Gep { base: ValueId, index: Option<ValueId>, scale: u32, offset: i32 },
    /// Unconditional branch.
    Br { target: BlockId },
    /// Conditional branch on an `i1`.
    CondBr { cond: ValueId, on_true: BlockId, on_false: BlockId },
    /// Return from the function.
    Ret { value: Option<ValueId> },
    /// SSA phi node; one incoming value per predecessor block.
    Phi { ty: Ty, incomings: Vec<(BlockId, ValueId)> },

    /// Class 2: push `value` to channel `worker_sel % channels` of `queue`.
    ///
    /// `worker_sel` implements the round-robin distribution of Figure 1(e)
    /// (`produce(Qs, i & MASK, nodelist)`).
    Produce { queue: QueueId, worker_sel: ValueId, value: ValueId },
    /// Class 2: push `value` to *every* channel of `queue`.
    ProduceBroadcast { queue: QueueId, value: ValueId },
    /// Class 2: pop one value of type `ty` from channel
    /// `channel_sel % channels` of `queue`.
    ///
    /// A parallel-stage worker passes its worker id (it owns one channel);
    /// a sequential stage consuming from parallel producers passes its
    /// iteration counter to pop channels round-robin, as in Figure 1(e).
    Consume { queue: QueueId, channel_sel: ValueId, ty: Ty },
    /// Class 1: invoke all hardware workers for `loop_id` in the same cycle
    /// (constraint 1 of §3.4). `live_ins` are passed by value to the tasks.
    ParallelFork { loop_id: u32, live_ins: Vec<ValueId> },
    /// Class 1: stall until all workers of `loop_id` raise their finish
    /// signal.
    ParallelJoin { loop_id: u32 },
    /// Class 3: latch `value` into liveout register `slot` (scheduled with
    /// the loop-exit branch per constraint 4 of §3.4).
    StoreLiveout { slot: u32, value: ValueId },
    /// Class 3: read liveout register `slot` (executed in the parent after
    /// `parallel_join`).
    RetrieveLiveout { slot: u32, ty: Ty },
}

impl Op {
    /// The type of the value this operation produces, given a resolver for
    /// operand types. Returns `None` for operations with no result.
    pub fn result_ty(&self, ty_of: impl Fn(ValueId) -> Ty) -> Option<Ty> {
        match self {
            Op::Binary { lhs, .. } => Some(ty_of(*lhs)),
            Op::ICmp { .. } | Op::FCmp { .. } => Some(Ty::I1),
            Op::Select { on_true, .. } => Some(ty_of(*on_true)),
            Op::Cast { to, .. } => Some(*to),
            Op::Load { ty, .. } => Some(*ty),
            Op::Gep { .. } => Some(Ty::Ptr),
            Op::Phi { ty, .. } => Some(*ty),
            Op::Consume { ty, .. } => Some(*ty),
            Op::RetrieveLiveout { ty, .. } => Some(*ty),
            Op::Store { .. }
            | Op::Br { .. }
            | Op::CondBr { .. }
            | Op::Ret { .. }
            | Op::Produce { .. }
            | Op::ProduceBroadcast { .. }
            | Op::ParallelFork { .. }
            | Op::ParallelJoin { .. }
            | Op::StoreLiveout { .. } => None,
        }
    }

    /// All value operands, in a fixed order, without allocating.
    #[must_use]
    pub fn operands(&self) -> Operands<'_> {
        let fixed = |vals: &[ValueId]| {
            let mut buf = [ValueId(0); 3];
            buf[..vals.len()].copy_from_slice(vals);
            OperandsInner::Fixed { buf, next: 0, len: vals.len() as u8 }
        };
        Operands(match self {
            Op::Binary { lhs, rhs, .. } | Op::ICmp { lhs, rhs, .. } | Op::FCmp { lhs, rhs, .. } => {
                fixed(&[*lhs, *rhs])
            }
            Op::Select { cond, on_true, on_false } => fixed(&[*cond, *on_true, *on_false]),
            Op::Cast { value, .. } => fixed(&[*value]),
            Op::Load { addr, .. } => fixed(&[*addr]),
            Op::Store { addr, value } => fixed(&[*addr, *value]),
            Op::Gep { base, index: Some(index), .. } => fixed(&[*base, *index]),
            Op::Gep { base, index: None, .. } => fixed(&[*base]),
            Op::CondBr { cond, .. } => fixed(&[*cond]),
            Op::Ret { value } => fixed(value.as_slice()),
            Op::Phi { incomings, .. } => OperandsInner::Phi(incomings.iter()),
            Op::Produce { worker_sel, value, .. } => fixed(&[*worker_sel, *value]),
            Op::ProduceBroadcast { value, .. } => fixed(&[*value]),
            Op::ParallelFork { live_ins, .. } => OperandsInner::Slice(live_ins.iter()),
            Op::StoreLiveout { value, .. } => fixed(&[*value]),
            Op::Consume { channel_sel, .. } => fixed(&[*channel_sel]),
            Op::Br { .. } | Op::ParallelJoin { .. } | Op::RetrieveLiveout { .. } => fixed(&[]),
        })
    }

    /// Rewrite every value operand through `f` (used by the pipeline
    /// transform when cloning instructions into task functions).
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Op::Binary { lhs, rhs, .. } | Op::ICmp { lhs, rhs, .. } | Op::FCmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Op::Select { cond, on_true, on_false } => {
                *cond = f(*cond);
                *on_true = f(*on_true);
                *on_false = f(*on_false);
            }
            Op::Cast { value, .. } => *value = f(*value),
            Op::Load { addr, .. } => *addr = f(*addr),
            Op::Store { addr, value } => {
                *addr = f(*addr);
                *value = f(*value);
            }
            Op::Gep { base, index, .. } => {
                *base = f(*base);
                if let Some(i) = index {
                    *i = f(*i);
                }
            }
            Op::CondBr { cond, .. } => *cond = f(*cond),
            Op::Ret { value } => {
                if let Some(v) = value {
                    *v = f(*v);
                }
            }
            Op::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    *v = f(*v);
                }
            }
            Op::Produce { worker_sel, value, .. } => {
                *worker_sel = f(*worker_sel);
                *value = f(*value);
            }
            Op::ProduceBroadcast { value, .. } => *value = f(*value),
            Op::ParallelFork { live_ins, .. } => {
                for v in live_ins {
                    *v = f(*v);
                }
            }
            Op::StoreLiveout { value, .. } => *value = f(*value),
            Op::Consume { channel_sel, .. } => *channel_sel = f(*channel_sel),
            Op::Br { .. } | Op::ParallelJoin { .. } | Op::RetrieveLiveout { .. } => {}
        }
    }

    /// True for block terminators (`br`, `condbr`, `ret`).
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. })
    }

    /// True for memory accesses (`load`/`store`). Queue operations are not
    /// memory accesses; they target dedicated FIFO hardware.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }

    /// True for the Class 2 queue primitives (`produce`, `consume`,
    /// `produce_broadcast`).
    #[must_use]
    pub fn is_queue_op(&self) -> bool {
        matches!(self, Op::Produce { .. } | Op::ProduceBroadcast { .. } | Op::Consume { .. })
    }

    /// True if the operation has an effect other than producing its result:
    /// stores, queue pushes/pops, forks/joins, and liveout writes.
    ///
    /// The SCC classifier uses this: an SCC is *replicable* only if none of
    /// its instructions has a side effect (paper §3.3).
    #[must_use]
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            Op::Store { .. }
                | Op::Produce { .. }
                | Op::ProduceBroadcast { .. }
                | Op::Consume { .. }
                | Op::ParallelFork { .. }
                | Op::ParallelJoin { .. }
                | Op::StoreLiveout { .. }
        )
    }

    /// True if duplicating this instruction in several workers is *heavy* per
    /// the paper's heuristic: loads and multiplies disqualify a replicable
    /// section from duplication into the parallel stage.
    #[must_use]
    pub fn is_heavyweight(&self) -> bool {
        match self {
            Op::Load { .. } => true,
            Op::Binary { op, .. } => op.is_multiply(),
            _ => false,
        }
    }
}

/// The value operands of one [`Op`], in [`Op::operands`] order.
#[derive(Debug, Clone)]
pub struct Operands<'a>(OperandsInner<'a>);

#[derive(Debug, Clone)]
enum OperandsInner<'a> {
    /// Up to three operands held inline.
    Fixed { buf: [ValueId; 3], next: u8, len: u8 },
    /// A `parallel_fork`'s live-ins.
    Slice(std::slice::Iter<'a, ValueId>),
    /// A phi's incoming values.
    Phi(std::slice::Iter<'a, (BlockId, ValueId)>),
}

impl Iterator for Operands<'_> {
    type Item = ValueId;

    #[inline]
    fn next(&mut self) -> Option<ValueId> {
        match &mut self.0 {
            OperandsInner::Fixed { buf, next, len } => {
                let v = buf[..usize::from(*len)].get(usize::from(*next)).copied()?;
                *next += 1;
                Some(v)
            }
            OperandsInner::Slice(it) => it.next().copied(),
            OperandsInner::Phi(it) => it.next().map(|&(_, v)| v),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            OperandsInner::Fixed { next, len, .. } => usize::from(len - next),
            OperandsInner::Slice(it) => it.len(),
            OperandsInner::Phi(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Operands<'_> {}

impl std::iter::FusedIterator for Operands<'_> {}

/// One instruction: an [`Op`] placed in a block, possibly producing a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// The block the instruction belongs to.
    pub block: BlockId,
    /// The SSA value this instruction defines, if any.
    pub result: Option<ValueId>,
    /// Optional debug name carried into the printer and Verilog emitter.
    pub name: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> ValueId {
        ValueId(n)
    }

    #[test]
    fn operands_of_store_and_gep() {
        let st = Op::Store { addr: v(1), value: v(2) };
        assert_eq!(st.operands().collect::<Vec<_>>(), vec![v(1), v(2)]);
        let gep = Op::Gep { base: v(3), index: Some(v(4)), scale: 8, offset: 16 };
        assert_eq!(gep.operands().collect::<Vec<_>>(), vec![v(3), v(4)]);
        let gep2 = Op::Gep { base: v(3), index: None, scale: 0, offset: 4 };
        assert_eq!(gep2.operands().collect::<Vec<_>>(), vec![v(3)]);
    }

    /// Every variant's operands, as literals: the order is part of the
    /// contract (the verifier, scheduler, PDG and executors all walk it).
    #[test]
    fn operands_of_every_variant_in_order() {
        let q = QueueId(2);
        let bb = BlockId;
        let table: Vec<(Op, Vec<ValueId>)> = vec![
            (Op::Binary { op: BinOp::Sub, lhs: v(1), rhs: v(2) }, vec![v(1), v(2)]),
            (Op::ICmp { pred: IntPredicate::Slt, lhs: v(3), rhs: v(1) }, vec![v(3), v(1)]),
            (Op::FCmp { pred: FloatPredicate::Olt, lhs: v(5), rhs: v(4) }, vec![v(5), v(4)]),
            (Op::Select { cond: v(7), on_true: v(8), on_false: v(9) }, vec![v(7), v(8), v(9)]),
            (Op::Cast { kind: CastKind::SExt, value: v(6), to: Ty::I64 }, vec![v(6)]),
            (Op::Load { addr: v(4), ty: Ty::F64 }, vec![v(4)]),
            (Op::Store { addr: v(2), value: v(1) }, vec![v(2), v(1)]),
            (Op::Gep { base: v(3), index: Some(v(4)), scale: 8, offset: 16 }, vec![v(3), v(4)]),
            (Op::Gep { base: v(3), index: None, scale: 0, offset: 4 }, vec![v(3)]),
            (Op::Br { target: bb(1) }, vec![]),
            (Op::CondBr { cond: v(9), on_true: bb(1), on_false: bb(2) }, vec![v(9)]),
            (Op::Ret { value: Some(v(11)) }, vec![v(11)]),
            (Op::Ret { value: None }, vec![]),
            (
                Op::Phi {
                    ty: Ty::I32,
                    incomings: vec![(bb(0), v(1)), (bb(3), v(7)), (bb(2), v(1))],
                },
                vec![v(1), v(7), v(1)],
            ),
            (Op::Phi { ty: Ty::I32, incomings: vec![] }, vec![]),
            (Op::Produce { queue: q, worker_sel: v(12), value: v(13) }, vec![v(12), v(13)]),
            (Op::ProduceBroadcast { queue: q, value: v(14) }, vec![v(14)]),
            (Op::Consume { queue: q, channel_sel: v(15), ty: Ty::I1 }, vec![v(15)]),
            (
                Op::ParallelFork { loop_id: 3, live_ins: vec![v(4), v(0), v(9), v(2)] },
                vec![v(4), v(0), v(9), v(2)],
            ),
            (Op::ParallelFork { loop_id: 3, live_ins: vec![] }, vec![]),
            (Op::ParallelJoin { loop_id: 3 }, vec![]),
            (Op::StoreLiveout { slot: 1, value: v(16) }, vec![v(16)]),
            (Op::RetrieveLiveout { slot: 1, ty: Ty::Ptr }, vec![]),
        ];
        for (op, want) in &table {
            let it = op.operands();
            assert_eq!(it.len(), want.len(), "{op:?}");
            assert_eq!(it.collect::<Vec<_>>(), *want, "{op:?}");
            // Exhausted iterators stay exhausted.
            let mut it = op.operands();
            it.by_ref().for_each(drop);
            assert_eq!((it.next(), it.len()), (None, 0), "{op:?}");
        }
    }

    #[test]
    fn map_operands_rewrites_everything() {
        let mut op = Op::Select { cond: v(0), on_true: v(1), on_false: v(2) };
        op.map_operands(|x| ValueId(x.0 + 10));
        assert_eq!(op.operands().collect::<Vec<_>>(), vec![v(10), v(11), v(12)]);
    }

    #[test]
    fn side_effects_and_weight() {
        assert!(Op::Store { addr: v(0), value: v(1) }.has_side_effect());
        assert!(Op::Consume { queue: QueueId(0), channel_sel: v(9), ty: Ty::I32 }.has_side_effect());
        assert!(!Op::Load { addr: v(0), ty: Ty::I32 }.has_side_effect());
        assert!(Op::Load { addr: v(0), ty: Ty::I32 }.is_heavyweight());
        assert!(Op::Binary { op: BinOp::FMul, lhs: v(0), rhs: v(1) }.is_heavyweight());
        assert!(!Op::Binary { op: BinOp::Add, lhs: v(0), rhs: v(1) }.is_heavyweight());
    }

    #[test]
    fn result_types() {
        let tys = |_v: ValueId| Ty::F64;
        assert_eq!(
            Op::Binary { op: BinOp::FAdd, lhs: v(0), rhs: v(1) }.result_ty(tys),
            Some(Ty::F64)
        );
        assert_eq!(
            Op::ICmp { pred: IntPredicate::Eq, lhs: v(0), rhs: v(1) }.result_ty(tys),
            Some(Ty::I1)
        );
        assert_eq!(
            Op::Gep { base: v(0), index: None, scale: 0, offset: 0 }.result_ty(tys),
            Some(Ty::Ptr)
        );
        assert_eq!(Op::Br { target: BlockId(0) }.result_ty(tys), None);
    }

    #[test]
    fn terminator_and_queue_classification() {
        assert!(Op::Ret { value: None }.is_terminator());
        assert!(!Op::Phi { ty: Ty::I32, incomings: vec![] }.is_terminator());
        assert!(Op::Produce { queue: QueueId(1), worker_sel: v(0), value: v(1) }.is_queue_op());
        assert!(!Op::Load { addr: v(0), ty: Ty::I32 }.is_queue_op());
    }
}
