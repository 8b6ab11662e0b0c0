//! The op model: what hardware each IR operation needs, and how long it
//! takes, on a 200 MHz Stratix-IV-class target.
//!
//! [`op_timing`] is the one place an operation is classified. It names the
//! functional [`Unit`] the op binds to together with its latency, chaining
//! and port use; the scheduler and [`verify_schedule`], the area model and
//! the MIPS baseline's issue table (`cgpa_sim::mips`) all read that answer,
//! so a new op or unit is added here and nowhere else.
//!
//! Latencies follow typical LegUp/Altera megafunction characterizations at
//! ~200 MHz: single-cycle integer ALU ops chain combinationally (up to a
//! depth limit per state), multipliers and floating-point units are
//! pipelined multi-cycle units, dividers are long iterative units. Memory
//! and queue operations have a one-cycle issue and variable completion — the
//! simulator supplies the stall cycles.
//!
//! An op's width is its result type; for binary ops that is also the type
//! of both operands. The consumers use the unit and the width differently:
//!
//! - **Latency**: `fadd`, `fmul` and `fdiv` take longer at `f64`; every
//!   other unit has one latency.
//! - **Scheduler**: only multi-cycle units (`imul`, `idiv`, `fadd`, `fmul`,
//!   `fdiv`, `fcmp`) are shared, and one unit of a kind serves both float
//!   widths, so two ops on the same multi-cycle unit never share a state —
//!   an `f32` and an `f64` `fadd` included. Single-cycle units chain freely.
//! - **Area**: [`AreaModel`] prices the 32-bit and 64-bit `fadd`, `fmul`
//!   and `fdiv` as separate units; every other kind is one unit whatever
//!   its width.
//! - **MIPS**: the soft core charges `fadd` and `fmul` by width and `fdiv`
//!   flat.
//!
//! [`verify_schedule`]: crate::schedule::verify_schedule
//! [`AreaModel`]: crate::area::AreaModel

use cgpa_ir::{BinOp, Function, Inst, Op, Ty};

/// Combinational chain depth allowed within one FSM state.
pub const CHAIN_LIMIT: u32 = 3;

/// A functional-unit kind: the datapath hardware an operation binds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Unit {
    /// Integer adder: `add`, `sub` and address arithmetic (`gep`).
    Add,
    /// Bitwise `and`, `or`, `xor`.
    Logic,
    /// Shifter: `shl`, `lshr`, `ashr`.
    Shift,
    /// Integer comparator.
    ICmp,
    /// 2:1 multiplexer.
    Select,
    /// Integer multiplier.
    IMul,
    /// Integer divider: `sdiv`, `srem`.
    IDiv,
    /// Floating-point adder: `fadd`, `fsub`.
    FAdd,
    /// Floating-point multiplier.
    FMul,
    /// Floating-point divider.
    FDiv,
    /// Floating-point comparator.
    FCmp,
}

impl Unit {
    /// Cycles an op occupies the unit; `wide` is an `f64` result.
    fn latency(self, wide: bool) -> u32 {
        match (self, wide) {
            (Unit::Add | Unit::Logic | Unit::Shift | Unit::ICmp | Unit::Select, _) => 1,
            (Unit::IMul | Unit::FCmp, _) => 2,
            (Unit::IDiv, _) => 16,
            (Unit::FAdd, false) => 3,
            (Unit::FAdd, true) => 4,
            (Unit::FMul, false) => 4,
            (Unit::FMul, true) => 5,
            (Unit::FDiv, false) => 16,
            (Unit::FDiv, true) => 24,
        }
    }
}

/// Timing class of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Cycles the operation occupies its state (1 for simple ops; memory
    /// and queue ops add data-dependent stalls on top in the simulator).
    pub latency: u32,
    /// True if the op can share a state with its producers (combinational
    /// chaining).
    pub chainable: bool,
    /// True for ops that use a memory or queue port and therefore must be
    /// the only *port* op in their state (constraint 3 of §3.4 keeps queue
    /// and memory ops apart; we additionally serialize same-kind port ops
    /// because each worker owns a single cache port).
    pub port_op: bool,
    /// The functional unit the op binds to, if any. Ports, queues,
    /// fork/join, liveouts, casts, phis and terminators use none.
    pub unit: Option<Unit>,
}

impl OpTiming {
    /// The unit the op books for its whole state: its unit if that is a
    /// multi-cycle one. Two ops never book the same unit in one state.
    pub(crate) fn shared_unit(&self) -> Option<Unit> {
        self.unit.filter(|_| !self.chainable)
    }
}

/// The timing of `op` given its result type (float latencies differ by
/// width).
#[must_use]
pub fn op_timing(op: &Op, ty: Option<Ty>) -> OpTiming {
    let unit = |u: Unit| {
        let latency = u.latency(ty == Some(Ty::F64));
        OpTiming { latency, chainable: latency == 1, port_op: false, unit: Some(u) }
    };
    let fixed = |latency, chainable, port_op| OpTiming { latency, chainable, port_op, unit: None };
    let (comb, port) = (fixed(1, true, false), fixed(1, false, true));
    match op {
        Op::Binary { op: b, .. } => unit(match b {
            BinOp::Add | BinOp::Sub => Unit::Add,
            BinOp::And | BinOp::Or | BinOp::Xor => Unit::Logic,
            BinOp::Shl | BinOp::LShr | BinOp::AShr => Unit::Shift,
            BinOp::Mul => Unit::IMul,
            BinOp::SDiv | BinOp::SRem => Unit::IDiv,
            BinOp::FAdd | BinOp::FSub => Unit::FAdd,
            BinOp::FMul => Unit::FMul,
            BinOp::FDiv => Unit::FDiv,
        }),
        Op::ICmp { .. } => unit(Unit::ICmp),
        Op::FCmp { .. } => unit(Unit::FCmp),
        Op::Select { .. } => unit(Unit::Select),
        Op::Gep { .. } => unit(Unit::Add),
        Op::Cast { .. } | Op::StoreLiveout { .. } | Op::RetrieveLiveout { .. } => comb,
        Op::Load { .. } | Op::Store { .. } => port,
        Op::Produce { .. } | Op::ProduceBroadcast { .. } | Op::Consume { .. } => port,
        Op::ParallelFork { .. } | Op::ParallelJoin { .. } => fixed(1, false, false),
        // Terminators evaluate as part of next-state logic; phis are
        // register updates on state transitions.
        Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. } | Op::Phi { .. } => {
            fixed(0, true, false)
        }
    }
}

/// [`op_timing`] of an instruction of `func`, typed by its result.
pub(crate) fn inst_timing(func: &Function, inst: &Inst) -> OpTiming {
    op_timing(&inst.op, inst.result.map(|r| func.value_ty(r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_ir::ValueId;

    fn v(n: u32) -> ValueId {
        ValueId(n)
    }

    #[test]
    fn integer_alu_chains() {
        let t = op_timing(&Op::Binary { op: BinOp::Add, lhs: v(0), rhs: v(1) }, Some(Ty::I32));
        assert!(t.chainable);
        assert_eq!(t.latency, 1);
        assert!(!t.port_op);
    }

    #[test]
    fn float_units_are_multicycle() {
        let t32 = op_timing(&Op::Binary { op: BinOp::FMul, lhs: v(0), rhs: v(1) }, Some(Ty::F32));
        let t64 = op_timing(&Op::Binary { op: BinOp::FMul, lhs: v(0), rhs: v(1) }, Some(Ty::F64));
        assert!(!t32.chainable);
        assert!(t64.latency > t32.latency);
        // One unit kind serves both widths, and the scheduler books it.
        assert_eq!(t32.unit, Some(Unit::FMul));
        assert_eq!(t64.shared_unit(), Some(Unit::FMul));
    }

    #[test]
    fn single_cycle_units_are_not_booked() {
        let gep = op_timing(
            &Op::Gep { base: v(0), index: Some(v(1)), scale: 4, offset: 0 },
            Some(Ty::Ptr),
        );
        assert_eq!(gep.unit, Some(Unit::Add));
        assert_eq!(gep.shared_unit(), None);
        let load = op_timing(&Op::Load { addr: v(0), ty: Ty::F64 }, Some(Ty::F64));
        assert_eq!(load.unit, None);
    }

    #[test]
    fn memory_and_queue_ops_are_port_ops() {
        assert!(op_timing(&Op::Load { addr: v(0), ty: Ty::I32 }, Some(Ty::I32)).port_op);
        assert!(op_timing(&Op::Store { addr: v(0), value: v(1) }, None).port_op);
        assert!(
            op_timing(
                &Op::Consume { queue: cgpa_ir::QueueId(0), channel_sel: v(0), ty: Ty::I32 },
                Some(Ty::I32)
            )
            .port_op
        );
    }

    #[test]
    fn control_is_free() {
        assert_eq!(op_timing(&Op::Br { target: cgpa_ir::BlockId(0) }, None).latency, 0);
        assert_eq!(
            op_timing(&Op::Phi { ty: Ty::I32, incomings: vec![] }, Some(Ty::I32)).latency,
            0
        );
    }
}
