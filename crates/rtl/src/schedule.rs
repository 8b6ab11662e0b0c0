//! The FSM scheduler (paper §3.4, "RTL Generation").
//!
//! A list scheduler splits each basic block into FSM states:
//!
//! - single-cycle integer operations chain combinationally within a state up
//!   to [`CHAIN_LIMIT`] levels;
//! - multi-cycle units (multipliers, floating-point, dividers) take
//!   registered inputs, so they start a new state whenever an operand was
//!   computed in the current one; one unit of each kind exists per worker
//!   (resource sharing), so two same-kind multi-cycle ops never share a
//!   state;
//! - memory and queue accesses ("port ops") each occupy a dedicated state —
//!   this enforces the paper's constraint 3 (produce/consume never scheduled
//!   with memory operations, eq. 3) and models the single cache port each
//!   worker owns;
//! - `store_liveout` is co-scheduled with its block's terminator
//!   (constraint 4, eq. 4);
//! - `parallel_fork`/`parallel_join` get dedicated states, so one fork
//!   invokes all workers of a loop in the same cycle (constraint 1, eq. 1)
//!   and forks of different loops are always in different cycles
//!   (constraint 2, eq. 2).
//!
//! [`verify_schedule`] re-checks all of these on any FSM and is exercised by
//! property tests.
//!
//! [`CHAIN_LIMIT`]: crate::timing::CHAIN_LIMIT

use crate::fsm::{Fsm, State, StateId};
use crate::timing::{op_timing, CHAIN_LIMIT};
use cgpa_ir::{BlockId, Function, InstId, Op, ValueId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A violation found by [`verify_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// An instruction that should be scheduled is not.
    Unscheduled(InstId),
    /// A state mixes queue and memory operations (violates eq. 3) or holds
    /// two port operations.
    PortConflict(StateId),
    /// A `store_liveout` is not co-scheduled with its block terminator
    /// (violates eq. 4).
    LiveoutNotWithBranch(InstId),
    /// Two `parallel_fork`s share a state (violates eq. 2).
    ForkConflict(StateId),
    /// A value is used before its producing state completes.
    DataHazard { def: InstId, user: InstId },
    /// Two multi-cycle operations of the same kind share a state (the
    /// worker has one functional unit per kind).
    UnitConflict(StateId),
    /// The FSM is not a state sequence over this function (for example one
    /// scheduled from another function); see [`check_fsm`].
    Malformed(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Unscheduled(i) => write!(f, "instruction {i} was not scheduled"),
            ScheduleError::PortConflict(s) => write!(f, "state {s} holds conflicting port ops"),
            ScheduleError::LiveoutNotWithBranch(i) => {
                write!(f, "store_liveout {i} is not scheduled with its branch")
            }
            ScheduleError::ForkConflict(s) => write!(f, "state {s} holds two parallel_forks"),
            ScheduleError::DataHazard { def, user } => {
                write!(f, "value of {def} used by {user} before it is ready")
            }
            ScheduleError::UnitConflict(s) => {
                write!(f, "state {s} double-books a shared functional unit")
            }
            ScheduleError::Malformed(e) => write!(f, "malformed FSM: {e}"),
        }
    }
}

impl Error for ScheduleError {}

/// How a scheduled value becomes available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Avail {
    /// Usable in the same state, at this chain depth.
    InState { state: usize, depth: u32 },
    /// Registered at the end of this state; usable from the next state on.
    AfterState { state: usize },
}

/// Schedule `func` into an FSM.
///
/// ```
/// use cgpa_ir::{builder::FunctionBuilder, BinOp, Ty};
/// use cgpa_rtl::schedule::{schedule_function, verify_schedule};
///
/// let mut b = FunctionBuilder::new("mac", &[("x", Ty::F32), ("y", Ty::F32)], Some(Ty::F32));
/// let x = b.param(0);
/// let y = b.param(1);
/// let m = b.binary(BinOp::FMul, x, y);     // multi-cycle unit
/// let s = b.binary(BinOp::FAdd, m, x);     // waits for the product
/// b.ret(Some(s));
/// let f = b.finish().unwrap();
///
/// let fsm = schedule_function(&f);
/// verify_schedule(&f, &fsm).unwrap();
/// assert!(fsm.len() >= 2); // fmul and fadd cannot share a state
/// ```
#[must_use]
pub fn schedule_function(func: &Function) -> Fsm {
    let mut states: Vec<State> = Vec::new();
    let mut block_entry: Vec<StateId> = Vec::with_capacity(func.blocks.len());
    let mut state_of: Vec<Option<StateId>> = vec![None; func.insts.len()];
    // Availability of values *within the current block*.
    let mut avail: HashMap<ValueId, Avail> = HashMap::new();

    for b in func.block_ids() {
        avail.clear();
        let first_state = states.len();
        block_entry.push(StateId(first_state as u32));
        // Each block starts with one (possibly empty) state.
        states.push(State { block: b, ops: Vec::new(), min_cycles: 1 });

        for &iid in &func.block(b).insts {
            let inst = func.inst(iid);
            if matches!(inst.op, Op::Phi { .. }) {
                // Phis are register updates on block entry: available from
                // the block's first state at depth 0.
                if let Some(r) = inst.result {
                    avail.insert(r, Avail::InState { state: first_state, depth: 0 });
                }
                continue;
            }
            let ty = inst.result.map(|r| func.value_ty(r));
            let t = op_timing(&inst.op, ty);

            let cur = states.len() - 1;
            // Earliest state/depth from operands defined in this block.
            let mut min_state = first_state;
            let mut from_current_reg = false; // operand registered in cur
            let depth_at = |s: usize| -> u32 {
                let mut d = 0;
                for v in inst.op.operands() {
                    if let Some(Avail::InState { state, depth }) = avail.get(&v) {
                        if *state == s {
                            d = d.max(*depth);
                        }
                    }
                }
                d
            };
            for v in inst.op.operands() {
                match avail.get(&v) {
                    Some(Avail::InState { state, .. }) => min_state = min_state.max(*state),
                    Some(Avail::AfterState { state }) => {
                        min_state = min_state.max(state + 1);
                        if *state == cur {
                            from_current_reg = true;
                        }
                    }
                    None => {}
                }
            }

            let is_fork_join = matches!(inst.op, Op::ParallelFork { .. } | Op::ParallelJoin { .. });
            let is_queue = inst.op.is_queue_op();
            let cur_has_mem = states[cur].ops.iter().any(|&i| func.inst(i).op.is_memory());
            let cur_has_queue = states[cur].ops.iter().any(|&i| func.inst(i).op.is_queue_op());
            let cur_same_queue = is_queue
                && states[cur].ops.iter().any(|&i| {
                    queue_id_of(&func.inst(i).op) == queue_id_of(&inst.op)
                        && queue_id_of(&inst.op).is_some()
                });
            let cur_has_port = cur_has_mem || cur_has_queue;
            let cur_has_fork = states[cur].ops.iter().any(|&i| {
                matches!(func.inst(i).op, Op::ParallelFork { .. } | Op::ParallelJoin { .. })
            });
            let cur_kind_conflict = !t.chainable
                && !t.port_op
                && states[cur].ops.iter().any(|&i| {
                    unit_kind(&func.inst(i).op) == unit_kind(&inst.op)
                        && unit_kind(&inst.op).is_some()
                });

            let place_state = if is_queue {
                // Queue ops on *different* queues are independent FIFO
                // handshakes and may share a state (eq. 3 only separates
                // them from memory ops). Operands must be available — a
                // consume's dout in the same state counts (combinational).
                let need_new = from_current_reg
                    || min_state > cur
                    || cur_has_mem
                    || cur_same_queue
                    || cur_has_fork;
                if need_new {
                    states.push(State { block: b, ops: Vec::new(), min_cycles: 1 });
                }
                states.len() - 1
            } else if t.port_op || is_fork_join {
                // Dedicated state for memory accesses and fork/join.
                let need_new = !states[cur].ops.is_empty()
                    || from_current_reg
                    || min_state > cur
                    || cur_has_port
                    || cur_has_fork;
                if need_new || states[cur].block != b {
                    states.push(State { block: b, ops: Vec::new(), min_cycles: 1 });
                }
                states.len() - 1
            } else if t.chainable {
                let d = depth_at(cur);
                if min_state > cur || from_current_reg {
                    // Operands not ready within current state.
                    states.push(State { block: b, ops: Vec::new(), min_cycles: 1 });
                    states.len() - 1
                } else if d + 1 > CHAIN_LIMIT {
                    states.push(State { block: b, ops: Vec::new(), min_cycles: 1 });
                    states.len() - 1
                } else {
                    cur
                }
            } else {
                // Multi-cycle: registered inputs; new state if an operand is
                // produced in the current state or a same-kind unit is busy.
                let operand_in_cur = inst.op.operands().iter().any(
                    |v| matches!(avail.get(v), Some(Avail::InState { state, .. }) if *state == cur),
                ) || from_current_reg;
                if operand_in_cur || min_state > cur || cur_kind_conflict || cur_has_port {
                    states.push(State { block: b, ops: Vec::new(), min_cycles: 1 });
                    states.len() - 1
                } else {
                    cur
                }
            };

            let sid = StateId(place_state as u32);
            states[place_state].ops.push(iid);
            states[place_state].min_cycles = states[place_state].min_cycles.max(t.latency.max(1));
            state_of[iid.index()] = Some(sid);

            // Record result availability. A consume's data is the FIFO's
            // combinational `dout`, so dependents (including the branch
            // testing a consumed exit flag) may share its state; loads and
            // multi-cycle units register their results.
            let is_consume = matches!(inst.op, Op::Consume { .. });
            if let Some(r) = inst.result {
                let a = if (t.chainable && !t.port_op) || is_consume {
                    let d = depth_at(place_state);
                    Avail::InState { state: place_state, depth: d + 1 }
                } else {
                    Avail::AfterState { state: place_state }
                };
                avail.insert(r, a);
            }

            // Memory states close (the cache port is busy); queue states
            // stay open for more handshakes and combinational users.
            if (t.port_op && !is_queue) || is_fork_join {
                states.push(State { block: b, ops: Vec::new(), min_cycles: 1 });
            }
        }

        // Drop a trailing empty state (created after a port op at block
        // end), unless the block would become empty.
        while states.len() > first_state + 1
            && states.last().is_some_and(|s| s.ops.is_empty() && s.block == b)
        {
            states.pop();
        }
    }

    Fsm { states, block_entry, state_of }
}

/// Schedule `func` and verify the result in one step.
///
/// This is the entry point compile flows use: a schedule that violates the
/// paper's constraints surfaces as a typed [`ScheduleError`] the caller can
/// recover from (e.g. by degrading to a simpler pipeline shape) instead of
/// tripping an assertion downstream in simulation or RTL emission.
///
/// # Errors
/// The first [`ScheduleError`] found by [`verify_schedule`].
pub fn try_schedule_function(func: &Function) -> Result<Fsm, ScheduleError> {
    let fsm = schedule_function(func);
    verify_schedule(func, &fsm)?;
    Ok(fsm)
}

/// The queue a queue-op targets.
fn queue_id_of(op: &Op) -> Option<cgpa_ir::QueueId> {
    match op {
        Op::Produce { queue, .. }
        | Op::ProduceBroadcast { queue, .. }
        | Op::Consume { queue, .. } => Some(*queue),
        _ => None,
    }
}

/// The shared-functional-unit kind of an op, if it uses one.
fn unit_kind(op: &Op) -> Option<&'static str> {
    match op {
        Op::Binary { op: b, .. } => match b {
            cgpa_ir::BinOp::Mul => Some("imul"),
            cgpa_ir::BinOp::SDiv | cgpa_ir::BinOp::SRem => Some("idiv"),
            cgpa_ir::BinOp::FAdd | cgpa_ir::BinOp::FSub => Some("fadd"),
            cgpa_ir::BinOp::FMul => Some("fmul"),
            cgpa_ir::BinOp::FDiv => Some("fdiv"),
            _ => None,
        },
        Op::FCmp { .. } => Some("fcmp"),
        _ => None,
    }
}

/// Check that `fsm` is a state sequence over exactly `func`: every block
/// owns a contiguous, non-empty run of states starting at its
/// `block_entry`, the run starts with the entry block, every non-phi
/// instruction is listed by exactly its own block and held by exactly one
/// state of that block, and `state_of` has one entry per instruction that
/// names the state holding it. [`verify_schedule`] runs this first; the
/// simulator runs it before it lowers an FSM.
///
/// # Errors
/// [`ScheduleError::Unscheduled`] for a non-phi instruction no state holds,
/// [`ScheduleError::Malformed`] for any other mismatch.
pub fn check_fsm(func: &Function, fsm: &Fsm) -> Result<(), ScheduleError> {
    let malformed = |e: String| Err(ScheduleError::Malformed(e));
    let mut block_of: Vec<Option<BlockId>> = vec![None; func.insts.len()];
    for b in func.block_ids() {
        for &i in &func.block(b).insts {
            let Some(slot) = block_of.get_mut(i.index()) else {
                return malformed(format!("block {b} lists unknown instruction {i}"));
            };
            if slot.replace(b).is_some() || func.inst(i).block != b {
                return malformed(format!("{i} is not listed exactly once, in its own block"));
            }
        }
    }
    if fsm.block_entry.len() != func.blocks.len() {
        return malformed(format!(
            "{} block entries for {} blocks",
            fsm.block_entry.len(),
            func.blocks.len()
        ));
    }
    if fsm.state_of.len() != func.insts.len() {
        return malformed(format!(
            "{} instruction states for {} instructions",
            fsm.state_of.len(),
            func.insts.len()
        ));
    }
    let mut first_state: Vec<Option<usize>> = vec![None; func.blocks.len()];
    let mut scheduled = vec![false; func.insts.len()];
    for (sidx, state) in fsm.states.iter().enumerate() {
        let b = state.block.index();
        if b >= func.blocks.len() {
            return malformed(format!("state S{sidx} belongs to unknown block {}", state.block));
        }
        let continues = sidx > 0 && fsm.states[sidx - 1].block == state.block;
        match first_state[b] {
            None => first_state[b] = Some(sidx),
            Some(_) if continues => {}
            Some(_) => {
                return malformed(format!("block {} has non-contiguous states", state.block))
            }
        }
        for &i in &state.ops {
            if block_of.get(i.index()).copied().flatten() != Some(state.block) {
                return malformed(format!(
                    "state S{sidx} holds {i}, which is not in block {}",
                    state.block
                ));
            }
            if std::mem::replace(&mut scheduled[i.index()], true) {
                return malformed(format!("{i} is scheduled twice"));
            }
            if fsm.state_of[i.index()] != Some(StateId(sidx as u32)) {
                return malformed(format!(
                    "state_of does not place {i} in S{sidx}, which holds it"
                ));
            }
        }
    }
    for b in func.block_ids() {
        if first_state[b.index()] != Some(fsm.block_entry[b.index()].index()) {
            return malformed(format!("block {b} does not start at its FSM entry state"));
        }
    }
    if first_state.first().copied().flatten() != Some(0) {
        return malformed("the FSM does not start in the entry block".to_string());
    }
    for (idx, inst) in func.insts.iter().enumerate() {
        if scheduled[idx] {
            continue;
        }
        let i = InstId(idx as u32);
        if fsm.state_of[idx].is_some() {
            return malformed(format!("state_of places {i} in a state that does not hold it"));
        }
        if !matches!(inst.op, Op::Phi { .. }) {
            return Err(ScheduleError::Unscheduled(i));
        }
    }
    Ok(())
}

/// Check the scheduling invariants (paper eqs. 1–4 plus data hazards) on a
/// produced FSM, after [`check_fsm`] has checked its structure.
///
/// # Errors
/// Returns the first violation found.
pub fn verify_schedule(func: &Function, fsm: &Fsm) -> Result<(), ScheduleError> {
    check_fsm(func, fsm)?;

    for (sidx, state) in fsm.states.iter().enumerate() {
        let sid = StateId(sidx as u32);
        let mut mem = 0;
        let mut queue = 0;
        let mut forks = 0;
        let mut kinds: Vec<&'static str> = Vec::new();
        for &i in &state.ops {
            let op = &func.inst(i).op;
            if op.is_memory() {
                mem += 1;
            }
            if op.is_queue_op() {
                queue += 1;
            }
            if matches!(op, Op::ParallelFork { .. }) {
                forks += 1;
            }
            if let Some(k) = unit_kind(op) {
                if kinds.contains(&k) {
                    return Err(ScheduleError::UnitConflict(sid));
                }
                kinds.push(k);
            }
        }
        // Eq. 3: queue and memory ops never share a state; one memory op
        // per state (single cache port); one op per queue per state.
        if mem > 1 || (mem >= 1 && queue >= 1) {
            return Err(ScheduleError::PortConflict(sid));
        }
        let mut qids: Vec<cgpa_ir::QueueId> = Vec::new();
        for &i in &state.ops {
            if let Some(q) = queue_id_of(&func.inst(i).op) {
                if qids.contains(&q) {
                    return Err(ScheduleError::PortConflict(sid));
                }
                qids.push(q);
            }
        }
        // Eq. 2.
        if forks > 1 {
            return Err(ScheduleError::ForkConflict(sid));
        }
        // Eq. 4: store_liveout with the terminator.
        for &i in &state.ops {
            if matches!(func.inst(i).op, Op::StoreLiveout { .. }) {
                let last = fsm.block_last(state.block);
                let term_state = func.terminator(state.block).and_then(|t| fsm.state_of[t.index()]);
                if term_state != Some(sid) || last != sid {
                    return Err(ScheduleError::LiveoutNotWithBranch(i));
                }
            }
        }
    }

    // Data hazards: a same-block use must not precede the producer's state;
    // uses of multi-cycle/port results must be in strictly later states.
    for (uidx, user) in func.insts.iter().enumerate() {
        let Some(us) = fsm.state_of[uidx] else { continue };
        if matches!(user.op, Op::Phi { .. }) {
            continue;
        }
        for v in user.op.operands() {
            let Some(def) = func.def_of(v) else { continue };
            let dinst = func.inst(def);
            if dinst.block != user.block || matches!(dinst.op, Op::Phi { .. }) {
                continue;
            }
            let Some(ds) = fsm.state_of[def.index()] else { continue };
            let dt = op_timing(&dinst.op, dinst.result.map(|r| func.value_ty(r)));
            // Consume data is combinational FIFO output: same-state uses
            // are legal.
            let consume = matches!(dinst.op, Op::Consume { .. });
            let ok = if (dt.chainable && !dt.port_op) || consume { us >= ds } else { us > ds };
            if !ok {
                return Err(ScheduleError::DataHazard { def, user: InstId(uidx as u32) });
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, QueueId, Ty};

    /// A body with chains, a float op, a load and a store.
    fn sample() -> Function {
        let mut b = FunctionBuilder::new("f", &[("p", Ty::Ptr), ("n", Ty::I32)], None);
        let p = b.param(0);
        let n = b.param(1);
        let one = b.const_i32(1);
        let a1 = b.binary(BinOp::Add, n, one);
        let a2 = b.binary(BinOp::Add, a1, one);
        let a3 = b.binary(BinOp::Add, a2, one);
        let a4 = b.binary(BinOp::Add, a3, one); // exceeds chain limit
        let addr = b.gep(p, a4, 4, 0);
        let x = b.load(addr, Ty::F32);
        let y = b.binary(BinOp::FMul, x, x);
        b.store(addr, y);
        b.ret(None);
        b.finish().unwrap()
    }

    #[test]
    fn chains_break_at_limit() {
        let f = sample();
        let fsm = schedule_function(&f);
        verify_schedule(&f, &fsm).unwrap();
        // a1..a3 chain in one state; a4 starts a new one.
        let s_a1 = fsm.state_of[0].unwrap();
        let s_a3 = fsm.state_of[2].unwrap();
        let s_a4 = fsm.state_of[3].unwrap();
        assert_eq!(s_a1, s_a3);
        assert_ne!(s_a3, s_a4);
    }

    #[test]
    fn port_ops_get_dedicated_states() {
        let f = sample();
        let fsm = schedule_function(&f);
        for (i, inst) in f.insts.iter().enumerate() {
            if inst.op.is_memory() {
                let s = fsm.state_of[i].unwrap();
                assert_eq!(fsm.states[s.index()].ops, vec![InstId(i as u32)]);
            }
        }
    }

    #[test]
    fn multicycle_sets_state_duration() {
        let f = sample();
        let fsm = schedule_function(&f);
        let fmul_idx = f
            .insts
            .iter()
            .position(|i| matches!(i.op, Op::Binary { op: BinOp::FMul, .. }))
            .unwrap();
        let s = fsm.state_of[fmul_idx].unwrap();
        assert_eq!(fsm.states[s.index()].min_cycles, 4); // f32 fmul
    }

    #[test]
    fn queue_and_memory_never_share_a_state() {
        // produce right after a load: the verifier enforces eq. 3.
        let mut b = FunctionBuilder::new("q", &[("p", Ty::Ptr), ("w", Ty::I32)], None);
        let p = b.param(0);
        let w = b.param(1);
        let x = b.load(p, Ty::I32);
        b.produce(QueueId(0), w, x);
        b.ret(None);
        let f = b.finish().unwrap();
        let fsm = schedule_function(&f);
        verify_schedule(&f, &fsm).unwrap();
        let load_s = fsm.state_of[0].unwrap();
        let prod_s = fsm.state_of[1].unwrap();
        assert_ne!(load_s, prod_s);
    }

    #[test]
    fn store_liveout_rides_with_the_return() {
        let mut b = FunctionBuilder::new("lo", &[("v", Ty::I32)], None);
        let v = b.param(0);
        b.store_liveout(0, v);
        b.ret(None);
        let f = b.finish().unwrap();
        let fsm = schedule_function(&f);
        verify_schedule(&f, &fsm).unwrap();
        assert_eq!(fsm.state_of[0], fsm.state_of[1]); // same state as ret
    }

    #[test]
    fn forks_of_different_loops_are_separated() {
        let mut b = FunctionBuilder::new("forks", &[("x", Ty::I32)], None);
        let x = b.param(0);
        b.parallel_fork(0, vec![x]);
        b.parallel_join(0);
        b.parallel_fork(1, vec![x]);
        b.parallel_join(1);
        b.ret(None);
        let f = b.finish().unwrap();
        let fsm = schedule_function(&f);
        verify_schedule(&f, &fsm).unwrap();
        let s0 = fsm.state_of[0].unwrap();
        let s2 = fsm.state_of[2].unwrap();
        assert_ne!(s0, s2);
    }

    #[test]
    fn loop_blocks_schedule_and_verify() {
        let mut b = FunctionBuilder::new("loop", &[("n", Ty::I32)], Some(Ty::I32));
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
        let c = b.icmp(IntPredicate::Slt, i2, n);
        b.cond_br(c, h, e);
        b.switch_to(e);
        b.ret(Some(i2));
        b.add_phi_incoming(i, entry, zero);
        b.add_phi_incoming(i, h, i2);
        let f = b.finish().unwrap();
        let fsm = schedule_function(&f);
        verify_schedule(&f, &fsm).unwrap();
        // The loop body is a single state: phi (free), add+icmp+branch
        // chained.
        assert_eq!(fsm.block_min_cycles(h), 1);
    }
}
