//! Finite-state-machine representation of a scheduled task.

use cgpa_ir::{BlockId, Function, InstId};
use std::fmt;

/// Index of a state in an [`Fsm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// Index into [`Fsm::states`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// One FSM state: the operations issued in it and its base duration.
///
/// Port operations (memory, queues) may extend the stay with data-dependent
/// stalls; the simulator handles that. Phi nodes never appear here — they
/// are register updates evaluated on the transition into a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// The block this state belongs to.
    pub block: BlockId,
    /// Instructions issued in this state, in chain order. The block
    /// terminator, if present, is always last.
    pub ops: Vec<InstId>,
    /// Minimum cycles spent in this state (max over op latencies, at least
    /// 1).
    pub min_cycles: u32,
}

/// A scheduled task: blocks flattened into a state sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fsm {
    /// All states. States of one block are contiguous and in execution
    /// order.
    pub states: Vec<State>,
    /// First state of each block (indexed by block id).
    pub block_entry: Vec<StateId>,
    /// State of each instruction (`None` for phis and unscheduled
    /// terminators of empty blocks — every terminator is scheduled, so in
    /// practice only phis are `None`).
    pub state_of: Vec<Option<StateId>>,
}

impl Fsm {
    /// The entry state (first state of block 0).
    #[must_use]
    pub fn entry(&self) -> StateId {
        self.block_entry[0]
    }

    /// Last state of `block`.
    #[must_use]
    pub fn block_last(&self, block: BlockId) -> StateId {
        let first = self.block_entry[block.index()].index();
        let mut last = first;
        while last + 1 < self.states.len() && self.states[last + 1].block == block {
            last += 1;
        }
        StateId(last as u32)
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if there are no states (never for scheduled functions).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Sum of `min_cycles` over a block's states — the block's best-case
    /// duration.
    #[must_use]
    pub fn block_min_cycles(&self, block: BlockId) -> u32 {
        self.states.iter().filter(|s| s.block == block).map(|s| s.min_cycles).sum()
    }

    /// Count of registers implied by the schedule: values used in a later
    /// state than their definition (plus phis). Feeds the area model.
    #[must_use]
    pub fn register_count(&self, func: &Function) -> usize {
        // Mark each scheduled definition that a user in another state reads.
        let mut crosses = vec![false; func.insts.len()];
        for (uidx, user) in func.insts.iter().enumerate() {
            let Some(use_state) = self.state_of[uidx] else { continue };
            for v in user.op.operands() {
                let Some(def) = func.def_of(v) else { continue };
                if self.state_of[def.index()].is_some_and(|s| s != use_state) {
                    crosses[def.index()] = true;
                }
            }
        }
        func.insts
            .iter()
            .zip(&crosses)
            .filter(|(inst, &cross)| cross || matches!(inst.op, cgpa_ir::Op::Phi { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::schedule_function;
    use cgpa_ir::builder::FunctionBuilder;
    use cgpa_ir::inst::IntPredicate;
    use cgpa_ir::{BinOp, Ty};

    fn loop_fn() -> Function {
        let mut b = FunctionBuilder::new("f", &[("p", Ty::Ptr), ("n", Ty::I32)], None);
        let p = b.param(0);
        let n = b.param(1);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let addr = b.gep(p, i, 4, 0);
        let x = b.load(addr, Ty::F32);
        let y = b.binary(BinOp::FMul, x, x);
        b.store(addr, y);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        b.finish().unwrap()
    }

    #[test]
    fn block_boundaries_are_consistent() {
        let f = loop_fn();
        let fsm = schedule_function(&f);
        for b in f.block_ids() {
            let first = fsm.block_entry[b.index()];
            let last = fsm.block_last(b);
            assert!(first <= last);
            // Every state in [first, last] belongs to b; neighbours don't.
            for s in first.index()..=last.index() {
                assert_eq!(fsm.states[s].block, b);
            }
            if last.index() + 1 < fsm.len() {
                assert_ne!(fsm.states[last.index() + 1].block, b);
            }
        }
    }

    #[test]
    fn entry_state_is_block_zero() {
        let f = loop_fn();
        let fsm = schedule_function(&f);
        assert_eq!(fsm.entry(), fsm.block_entry[0]);
        assert_eq!(fsm.states[fsm.entry().index()].block, f.entry());
    }

    #[test]
    fn block_min_cycles_sums_states() {
        let f = loop_fn();
        let fsm = schedule_function(&f);
        let body = cgpa_ir::BlockId(2);
        let by_hand: u32 =
            fsm.states.iter().filter(|s| s.block == body).map(|s| s.min_cycles).sum();
        assert_eq!(fsm.block_min_cycles(body), by_hand);
        // Body contains a load (>=1), fmul (4 for f32), store: at least 7.
        assert!(by_hand >= 7, "body min cycles {by_hand}");
    }

    #[test]
    fn register_count_includes_cross_state_values_and_phis() {
        let f = loop_fn();
        let fsm = schedule_function(&f);
        let regs = fsm.register_count(&f);
        // At least: i phi, load result (used by fmul next state), fmul
        // result (used by store).
        assert!(regs >= 3, "registers = {regs}");
    }
}
