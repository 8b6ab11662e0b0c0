//! The decoded program form of a function, and the datapath that runs it.
//!
//! [`Program`] is the one decoded form in this crate. A function is lowered
//! into it against a [`Cut`], the states its instructions are grouped
//! into: a task FSM's states, once, when an [`HwSystem`](crate::HwSystem)
//! is built (both simulation engines step workers through the result), or
//! one state per block for the reference interpreter
//! ([`interp`](crate::interp)), once per call. Lowering resolves everything
//! the IR would otherwise make the hot loop look up:
//!
//! - operands and results become dense register indices (one slot per IR
//!   value; constants are preloaded at reset);
//! - binary ops, compares, selects, casts and geps become the typed
//!   register ops of [`exec`](crate::exec), resolved against the
//!   function's declared types;
//! - loads, stores, liveout writes and returns carry their type;
//! - each state's exit is precomputed: fall through to the next state of
//!   the block, or take a jump/branch edge that carries its target state,
//!   whether it is a back edge, and its phi copy list (the copies read
//!   every source before writing, so they are parallel);
//! - each state records where its trailing run of [`RegOp`]s starts, unless
//!   it returns. A state that is all register ops is *register-only*: it
//!   reads and writes only its worker's registers, so nobody else can
//!   observe it, and the event-driven engine runs a worker through a chain
//!   of them in one step ("run-ahead", see [`step_worker`]). A load
//!   followed only by register ops in its state lets that engine take the
//!   load's response step when it issues the load ([`respond_ahead`]).
//!
//! Registers are untyped: each holds its value's bits in
//! [`Value::to_bits`] layout, and no op checks a tag. Types are checked
//! once, before the first instruction or cycle. Lowering takes only a
//! [`Verified`] function, so both cuts share one precondition: the IR
//! verifier (every id in range, one terminator per block, a result named
//! exactly by each op that yields a value, every use dominated by its
//! definition, and every op at operand types the semantics define). It
//! then rejects an op the cut's target does not run (a worker's host
//! primitives, the interpreter's queue and liveout ports). A worker's
//! lowering ([`lower`]) also checks that the FSM covers the function and
//! orders every in-block use after its definition, and that every queue
//! and liveout register it names exists and every queue port carries the
//! queue's element type. Tagged [`Value`]s enter only at the boundaries,
//! each checked there: arguments against the parameter types
//! ([`Program::reset`]), memory reads and queue pops at the type the op
//! declares, and liveouts a parent retrieves. So every register read sees a
//! written value of its declared type, and a malformed function or a
//! mistyped argument is rejected up front ([`HwError::Malformed`],
//! [`InterpError`]) instead of tripping an executor mid-run.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic, clippy::unreachable)
)]

use crate::cache::CacheSystem;
use crate::exec::{reg, Reg, RegOp};
use crate::fault::FaultPlan;
use crate::fifo::QueueState;
use crate::hw::HwError;
use crate::interp::InterpError;
use crate::mem::{OutOfRange, SimMemory};
use crate::stats::WorkerStats;
use crate::value::Value;
use cgpa_ir::verify::{verify, VerifyError};
use cgpa_ir::{BlockId, Function, InstId, Op, QueueInfo, Ty, ValueDef};
use cgpa_rtl::schedule::check_fsm;
use cgpa_rtl::Fsm;

/// One lowered operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroOp {
    /// A register op: it reads and writes only registers.
    Reg(RegOp),
    /// Load a `ty` from the pointer in `addr`; on a worker, through its
    /// cache port, blocking the worker.
    Load { dst: Reg, addr: Reg, ty: Ty },
    /// Store the `ty` in `value` to the pointer in `addr`; on a worker,
    /// through the store buffer (fire and forget).
    Store { addr: Reg, value: Reg, ty: Ty },
    /// Push to channel `sel % channels` of `queue` (workers only).
    Produce { queue: u32, sel: Reg, value: Reg },
    /// Push to every channel of `queue` (workers only).
    Broadcast { queue: u32, value: Reg },
    /// Pop an element of `beats` beats from channel `sel % channels`
    /// (workers only).
    Consume { queue: u32, sel: Reg, dst: Reg, beats: u32 },
    /// Latch the `ty` in `value` into liveout register `slot` (workers
    /// only).
    StoreLiveout { slot: u32, value: Reg, ty: Ty },
    /// `parallel_fork` of loop `loop_id`; its live-ins are the
    /// instruction's operands (interpreter only).
    Fork { loop_id: u32 },
    /// `parallel_join` (interpreter only).
    Join,
    /// `retrieve_liveout` of the `ty` in liveout register `slot`
    /// (interpreter only).
    Retrieve { dst: Reg, slot: u32, ty: Ty },
}

/// A control-flow edge out of a block's last state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    /// First state of the target block.
    pub(crate) next: u32,
    /// The target state does not lie after the source state (a loop back
    /// edge, counted as one iteration).
    back: bool,
    /// The phi copies of this edge: `Program::copies[copies.0..copies.1]`.
    pub(crate) copies: (u32, u32),
}

/// What a state does once its ops have executed and its cycles elapsed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exit {
    /// Fall through to the next state of the same block.
    Next,
    /// Unconditional branch.
    Jump(Edge),
    /// Conditional branch on an `i1` register.
    Branch { cond: Reg, on_true: Edge, on_false: Edge },
    /// Finish, optionally returning a register of the function's return
    /// type.
    Ret(Option<(Reg, Ty)>),
}

/// One lowered state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StateProg {
    /// The state's ops: `Program::ops[start..end]`, in schedule order.
    pub(crate) start: u32,
    pub(crate) end: u32,
    /// Minimum cycles spent in the state.
    min_cycles: u32,
    pub(crate) exit: Exit,
    /// The terminator a `Jump`, `Branch` or `Ret` exit was lowered from.
    pub(crate) term: InstId,
    /// Ops `reg_tail..end` are all [`RegOp`]s and the exit is not `Ret`
    /// (`u32::MAX` when it is): from there on the state touches only its
    /// worker's registers. When `reg_tail == start` the state is
    /// register-only, and a worker may run through it ahead of the clock.
    reg_tail: u32,
}

/// A function lowered against a [`Cut`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Program {
    /// All states' micro-ops, state after state.
    pub(crate) ops: Vec<MicroOp>,
    /// The IR instruction each micro-op was lowered from.
    pub(crate) op_inst: Vec<InstId>,
    /// Per state, in cut order (an FSM's state ids are unchanged).
    pub(crate) states: Vec<StateProg>,
    /// Phi copies `(source, destination)` of every edge.
    copies: Vec<(Reg, Reg)>,
    /// The phi each copy was lowered from.
    pub(crate) copy_phi: Vec<InstId>,
    /// The register file at reset, one register per IR value: constants,
    /// and zeros elsewhere.
    init: Vec<u64>,
    /// Parameter types; parameters occupy the first registers.
    params: Vec<Ty>,
}

/// The states a function is lowered into.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cut<'a> {
    /// A worker's FSM states, with their minimum cycles. Queue and liveout
    /// ports lower; host primitives do not.
    Fsm(&'a Fsm),
    /// One state per block, for the reference interpreter. Host primitives
    /// lower when `host` is set (a parent run with an accelerator
    /// attached); queue and liveout ports never do.
    Blocks { host: bool },
}

/// A function that passed [`cgpa_ir::verify::verify`], the one
/// precondition of [`Program::new`] for either cut.
pub(crate) struct Verified<'a>(&'a Function);

impl<'a> Verified<'a> {
    /// `func`, once the IR verifier accepts it.
    pub(crate) fn new(func: &'a Function) -> Result<Self, VerifyError> {
        verify(func)?;
        Ok(Verified(func))
    }
}

impl Program {
    /// Lower `func` against `cut`, or name the first instruction the cut's
    /// target does not run. An FSM cut must pass [`check_fsm`].
    pub(crate) fn new(func: Verified<'_>, cut: Cut<'_>) -> Result<Program, InstId> {
        let Verified(func) = func;
        let mut prog = Program {
            init: func
                .values
                .iter()
                .map(|vd| match vd {
                    ValueDef::Const(c) => Value::from(*c).to_bits(),
                    _ => 0,
                })
                .collect(),
            params: func.params.iter().map(|&(_, ty)| ty).collect(),
            ..Program::default()
        };
        // Each state's block, instructions and minimum cycles.
        let states: Vec<(BlockId, &[InstId], u32)> = match cut {
            Cut::Fsm(fsm) => {
                fsm.states.iter().map(|s| (s.block, &s.ops[..], s.min_cycles)).collect()
            }
            Cut::Blocks { .. } => {
                func.block_ids().map(|b| (b, &func.block(b).insts[..], 1)).collect()
            }
        };
        for (sidx, &(block, insts, min_cycles)) in states.iter().enumerate() {
            let start = prog.ops.len() as u32;
            for &iid in insts {
                prog.lower_op(func, iid, cut)?;
            }
            let last_of_block = states.get(sidx + 1).is_none_or(|s| s.0 != block);
            let (exit, term) = if last_of_block {
                prog.lower_exit(func, cut, sidx, block)
            } else {
                (Exit::Next, InstId(0))
            };
            let end = prog.ops.len() as u32;
            let reg_tail = if matches!(exit, Exit::Ret(_)) {
                u32::MAX
            } else {
                let ops = &prog.ops[start as usize..];
                end - ops.iter().rev().take_while(|op| matches!(op, MicroOp::Reg(_))).count() as u32
            };
            prog.states.push(StateProg { start, end, min_cycles, exit, term, reg_tail });
        }
        Ok(prog)
    }

    /// The register file at reset with `args` in the parameter registers,
    /// or why `args` do not fit the parameters: a count or a type that
    /// differs.
    pub(crate) fn reset(&self, args: &[Value]) -> Result<Vec<u64>, InterpError> {
        let expected = self.params.len();
        if args.len() != expected {
            return Err(InterpError::BadArity { expected, got: args.len() });
        }
        let mut regs = self.init.clone();
        for (index, (arg, &ty)) in args.iter().zip(&self.params).enumerate() {
            if arg.ty() != ty {
                return Err(InterpError::BadArgument { index, expected: ty, got: arg.ty() });
            }
            regs[index] = arg.to_bits();
        }
        Ok(regs)
    }

    /// Lower one instruction of a state, or return it when the cut's target
    /// does not run it. Phis run on the edges into their block, and
    /// terminators become the state's exit.
    fn lower_op(&mut self, func: &Function, iid: InstId, cut: Cut<'_>) -> Result<(), InstId> {
        let inst = func.inst(iid);
        // Only the ops that yield a value read `dst`, and the verifier
        // makes each of them name its result.
        let dst = inst.result.map_or(Reg::MAX, reg);
        let (worker, host) = match cut {
            Cut::Fsm(_) => (true, false),
            Cut::Blocks { host } => (false, host),
        };
        let op = if let Some(op) = RegOp::decode(func, &inst.op, dst) {
            MicroOp::Reg(op)
        } else {
            match inst.op {
                Op::Phi { .. } | Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. } => {
                    return Ok(())
                }
                Op::Load { addr, ty } => MicroOp::Load { dst, addr: reg(addr), ty },
                Op::Store { addr, value } => {
                    MicroOp::Store { addr: reg(addr), value: reg(value), ty: func.value_ty(value) }
                }
                Op::Produce { queue, worker_sel, value } if worker => {
                    MicroOp::Produce { queue: queue.0, sel: reg(worker_sel), value: reg(value) }
                }
                Op::ProduceBroadcast { queue, value } if worker => {
                    MicroOp::Broadcast { queue: queue.0, value: reg(value) }
                }
                Op::Consume { queue, channel_sel, ty } if worker => MicroOp::Consume {
                    queue: queue.0,
                    sel: reg(channel_sel),
                    dst,
                    beats: ty.fifo_beats(),
                },
                Op::StoreLiveout { slot, value } if worker => {
                    MicroOp::StoreLiveout { slot, value: reg(value), ty: func.value_ty(value) }
                }
                Op::ParallelFork { loop_id, .. } if host => MicroOp::Fork { loop_id },
                Op::ParallelJoin { .. } if host => MicroOp::Join,
                Op::RetrieveLiveout { slot, ty } if host => MicroOp::Retrieve { dst, slot, ty },
                _ => return Err(iid),
            }
        };
        self.ops.push(op);
        self.op_inst.push(iid);
        Ok(())
    }

    /// The exit of state `sidx`, the last state of `block`, and the
    /// terminator it was lowered from: the block's last instruction. Each
    /// edge carries the phi copies of its target's leading phis. Only an
    /// edge out of an unreachable block can lack a phi's incoming value; it
    /// is never taken, and copies the phi onto itself.
    fn lower_exit(
        &mut self,
        func: &Function,
        cut: Cut<'_>,
        sidx: usize,
        block: BlockId,
    ) -> (Exit, InstId) {
        let mut edge = |to: BlockId| {
            let start = self.copies.len() as u32;
            for &i in &func.block(to).insts {
                let phi = func.inst(i);
                let (Op::Phi { incomings, .. }, Some(dst)) = (&phi.op, phi.result) else { break };
                let src = incomings.iter().find(|(b, _)| *b == block).map_or(dst, |&(_, v)| v);
                self.copies.push((reg(src), reg(dst)));
                self.copy_phi.push(i);
            }
            let next = match cut {
                Cut::Fsm(fsm) => fsm.block_entry[to.index()].0,
                Cut::Blocks { .. } => to.0,
            };
            Edge { next, back: next as usize <= sidx, copies: (start, self.copies.len() as u32) }
        };
        let insts = &func.block(block).insts;
        let term = insts[insts.len() - 1];
        let exit = match func.inst(term).op {
            Op::Br { target } => Exit::Jump(edge(target)),
            Op::CondBr { cond, on_true, on_false } => {
                Exit::Branch { cond: reg(cond), on_true: edge(on_true), on_false: edge(on_false) }
            }
            Op::Ret { value } => Exit::Ret(value.map(|v| (reg(v), func.value_ty(v)))),
            // Not a terminator: the verifier rejects that.
            _ => Exit::Ret(None),
        };
        (exit, term)
    }

    /// Take `edge`'s phi copies on `regs`. The copies are parallel: every
    /// source is read into `staged` before any destination is written.
    #[inline(always)]
    pub(crate) fn copy_phis(&self, edge: Edge, regs: &mut [u64], staged: &mut Vec<u64>) {
        let copies = &self.copies[edge.copies.0 as usize..edge.copies.1 as usize];
        staged.clear();
        staged.extend(copies.iter().map(|&(src, _)| regs[src as usize]));
        for (&(_, dst), &v) in copies.iter().zip(staged.iter()) {
            regs[dst as usize] = v;
        }
    }

    /// The micro-op a worker in `state` would execute next at `cursor`,
    /// with the instruction it was lowered from, if the cursor lies inside
    /// the state.
    pub(crate) fn op_at(&self, state: usize, cursor: usize) -> Option<(MicroOp, InstId)> {
        let st = self.states.get(state)?;
        if cursor < st.start as usize || cursor >= st.end as usize {
            return None;
        }
        Some((*self.ops.get(cursor)?, *self.op_inst.get(cursor)?))
    }
}

/// Why a function cannot be lowered (becomes [`HwError::Malformed`]).
type LowerError = String;

/// Lower `func`, scheduled as `fsm`, onto the datapath of a system with
/// `queues` and `liveouts` liveout registers, after checking that it runs
/// there.
pub(crate) fn lower(
    func: &Function,
    fsm: &Fsm,
    queues: &[QueueInfo],
    liveouts: usize,
) -> Result<Program, LowerError> {
    let verified = Verified::new(func).map_err(|e| e.to_string())?;
    check_fsm(func, fsm).map_err(|e| e.to_string())?;
    check_schedule_order(func, fsm)?;
    check_ports(func, fsm, queues, liveouts)?;
    Program::new(verified, Cut::Fsm(fsm))
        .map_err(|i| format!("{i}: {:?} does not run on a worker", func.inst(i).op))
}

/// Within each block, every operand defined by a non-phi instruction of
/// the same block is computed by an op that runs earlier in schedule
/// order (an earlier state, or earlier in the same state). Uses across
/// blocks are covered by the verifier's dominance check; terminators and
/// phi copies run after every op of their block.
fn check_schedule_order(func: &Function, fsm: &Fsm) -> Result<(), LowerError> {
    // Whether each value's defining op has run, walking states in order
    // (a block's states are contiguous, so a same-block definition that is
    // still unset here runs later than its use).
    let mut defined = vec![false; func.values.len()];
    for state in &fsm.states {
        for &i in &state.ops {
            let inst = func.inst(i);
            if inst.op.is_terminator() {
                continue;
            }
            for v in inst.op.operands() {
                let Some(def) = func.def_of(v) else { continue };
                let dinst = func.inst(def);
                let same_block = dinst.block == state.block;
                if same_block && !matches!(dinst.op, Op::Phi { .. }) && !defined[v.index()] {
                    return Err(format!("{i} reads {v} before {def} computes it"));
                }
            }
            if let Some(r) = inst.result {
                defined[r.index()] = true;
            }
        }
    }
    Ok(())
}

/// Every queue and liveout register an op names exists, and every queue
/// port carries the queue's element type.
fn check_ports(
    func: &Function,
    fsm: &Fsm,
    queues: &[QueueInfo],
    liveouts: usize,
) -> Result<(), LowerError> {
    for &i in fsm.states.iter().flat_map(|s| &s.ops) {
        let op = &func.inst(i).op;
        let (queue, ty) = match *op {
            Op::Produce { queue, value, .. } | Op::ProduceBroadcast { queue, value } => {
                (queue, func.value_ty(value))
            }
            Op::Consume { queue, ty, .. } => (queue, ty),
            Op::StoreLiveout { slot, .. } if slot as usize >= liveouts => {
                return Err(format!("{op:?} targets unknown liveout register {slot}"));
            }
            _ => continue,
        };
        match queues.get(queue.index()) {
            Some(q) if q.channels > 0 && q.elem_ty == ty => {}
            Some(q) if q.channels > 0 => {
                let elem = q.elem_ty;
                return Err(format!("{op:?} carries {ty} through queue {} of {elem}", queue.0));
            }
            _ => return Err(format!("{op:?} targets unknown queue {}", queue.0)),
        }
    }
    Ok(())
}

/// Longest run-ahead window, in log entries after the first. Bounds the
/// per-worker log of [`Worker::ahead`] (a register-only loop would
/// otherwise run ahead to its exit in one step).
const MAX_AHEAD: usize = 64;

/// A state a worker entered during run-ahead, or the cycle a merged load's
/// response arrived in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entered {
    /// The cycle in which the worker moved into the state: the last cycle
    /// of the state before it.
    pub(crate) at: u64,
    /// The state entered.
    pub(crate) state: u32,
    /// The move took a loop back edge.
    pub(crate) back: bool,
    /// The load response the worker waited on arrived in cycle `at`: its
    /// stall ends there (see [`StepOutcome::MemAhead`]).
    pub(crate) resumed: bool,
}

/// One hardware worker: an FSM instance over a lowered task function.
#[derive(Debug)]
pub(crate) struct Worker {
    /// Index into the function/FSM/program tables.
    pub(crate) func: usize,
    regs: Vec<u64>,
    /// Phi staging buffer (copies on an edge are parallel).
    staged: Vec<u64>,
    pub(crate) state: usize,
    pub(crate) entered: bool,
    /// Next micro-op to execute (an index into the program's op table).
    pub(crate) cursor: usize,
    min_left: u32,
    extra_wait: u32,
    /// Cycle an outstanding load completes at.
    pub(crate) mem_wait: Option<u64>,
    pub(crate) finished: bool,
    pub(crate) ret: Option<Value>,
    pub(crate) stats: WorkerStats,
    /// The current run-ahead window: every state entered since the step
    /// that returned [`StepOutcome::Ahead`], in order, the last one being
    /// the state the worker waits to enter. Empty outside a window. The
    /// step that opens the window records its trace events from here, and
    /// the diagnostic dumps read the worker's per-cycle FSM state from here
    /// while the window lasts.
    pub(crate) ahead: Vec<Entered>,
}

impl Worker {
    /// A worker at reset, its parameter registers holding `args`, or why
    /// `args` do not fit the program's parameters.
    pub(crate) fn new(func: usize, prog: &Program, args: &[Value]) -> Result<Self, LowerError> {
        let regs = prog.reset(args).map_err(|e| e.to_string())?;
        Ok(Worker { regs, ..Worker::inert(func) })
    }

    /// A worker at reset with an empty register file: the base of
    /// [`Worker::new`], and the stand-in for a worker whose program failed
    /// to lower (the system reports that before stepping anything).
    pub(crate) fn inert(func: usize) -> Self {
        Worker {
            func,
            regs: Vec::new(),
            staged: Vec::new(),
            state: 0,
            entered: false,
            cursor: 0,
            min_left: 0,
            extra_wait: 0,
            mem_wait: None,
            finished: false,
            ret: None,
            stats: WorkerStats::default(),
            ahead: Vec::new(),
        }
    }

    /// End a sleep: close the run-ahead window, if any.
    pub(crate) fn wake(&mut self) {
        self.ahead.clear();
    }

    /// The FSM state the per-cycle stepper would show after stepping this
    /// worker in cycle `cycle` (no earlier than the step that opened the
    /// window), for a worker inside a run-ahead window.
    pub(crate) fn state_at(&self, cycle: u64) -> Option<u32> {
        self.ahead.iter().take_while(|e| e.at <= cycle).last().map(|e| e.state)
    }

    /// The cycle the response to a merged load arrives in, for a worker
    /// inside its window that the per-cycle stepper would still show
    /// waiting for it after stepping the worker in cycle `cycle`.
    pub(crate) fn awaiting_at(&self, cycle: u64) -> Option<u64> {
        self.ahead.iter().find(|e| e.resumed).map(|e| e.at).filter(|&resp| cycle < resp)
    }

    /// The bits register `r` holds.
    #[inline]
    fn reg(&self, r: Reg) -> u64 {
        self.regs[r as usize]
    }

    /// Burn `k` of the remaining cycles of a state whose ops have all
    /// executed: transfer beats first, then `min_cycles` down to (never
    /// through) its final cycle, exactly as `k` per-cycle steps would.
    pub(crate) fn burn(&mut self, k: u64) {
        let from_beats = k.min(u64::from(self.extra_wait));
        self.extra_wait -= from_beats as u32;
        let from_min = (k - from_beats) as u32;
        debug_assert!(self.min_left > from_min, "bulk burn crossed a state boundary");
        self.min_left -= from_min;
    }
}

/// How a worker spent one evaluated cycle, and the cycles it has already
/// been run through after it. The event-driven engine puts a worker whose
/// outcome is not `Active` to sleep until it is due again, and credits the
/// slept cycles by this classification when it wakes; the classification
/// must mirror exactly what the per-cycle stepper would record for those
/// cycles. `Ahead` and `MemAhead` come only from the event-driven engine
/// (the per-cycle stepper passes a horizon that turns both off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Clock-gated by an injected stall window; accrues `idle`.
    Frozen,
    /// Waiting on a memory response arriving at `until`; accrues
    /// `stall_mem` until then.
    MemWait {
        /// Cycle the response arrives.
        until: u64,
    },
    /// Blocked on a FIFO handshake; accrues a per-queue push or pop wait
    /// until another worker moves the queue.
    FifoWait {
        /// Queue the handshake is against.
        queue: u32,
        /// The channel it waits on; `u32::MAX` (any) for a broadcast.
        chan: u32,
        /// True when blocked pushing (full), false when starved popping.
        push: bool,
    },
    /// Burning deterministic multi-cycle state latency (remaining
    /// `min_cycles` or extra transfer beats); accrues `busy` and touches
    /// no shared state until the transition at `until`.
    Burn {
        /// Cycle of the state transition.
        until: u64,
    },
    /// Ran ahead through register-only states; accrues `busy` and touches
    /// no shared state until it enters, at `until`, the state
    /// [`run_ahead`] stopped before.
    Ahead {
        /// Cycle the worker enters the state it stopped before.
        until: u64,
    },
    /// Issued a load and took its response step at issue time (see
    /// [`respond_ahead`]): accrues `stall_mem_read` until the response
    /// arrives at `resp`, then `busy`, and touches no shared state until
    /// it enters, at `until`, the state it stopped before.
    MemAhead {
        /// Cycle the response arrives.
        resp: u64,
        /// Cycle the worker enters the state it stopped before.
        until: u64,
    },
    /// Touched shared state or is mid-state; re-evaluate next cycle.
    Active,
}

/// The shared hardware one worker step can touch.
pub(crate) struct Shared<'a> {
    pub(crate) queues: &'a mut [QueueState],
    pub(crate) cache: &'a mut CacheSystem,
    pub(crate) mem: &'a mut SimMemory,
    pub(crate) liveouts: &'a mut [Option<Value>],
    pub(crate) fault: &'a mut Option<FaultPlan>,
}

/// The channel of a queue with `channels` channels that the `i32`
/// selector bits `sel` pick.
#[inline]
fn channel(sel: u64, channels: usize) -> usize {
    (sel as u32 as i32 as usize) % channels
}

/// Advance one worker by one cycle.
///
/// Within one cycle a worker executes every ready operation of its current
/// state up to its cursor: combinational/pipelined ops are free, all queue
/// handshakes of the state fire together (independent FIFO ports), a load
/// blocks until the cache responds, a store retires through the store
/// buffer. The state ends when every op has executed and `min_cycles`
/// elapsed.
///
/// A worker that leaves a state in this cycle then runs ahead (see
/// [`run_ahead`]) through register-only states that end before `horizon`.
/// A worker that issues a load whose state is register ops from there on
/// takes the load's response step at once if its state ends before
/// `horizon` (see [`respond_ahead`]), and so sleeps once through the
/// memory wait and the run-ahead after it. A `horizon` of `cycle + 1` or
/// less turns both off.
pub(crate) fn step_worker(
    prog: &Program,
    w: &mut Worker,
    hw: &mut Shared<'_>,
    cycle: u64,
    wi: usize,
    horizon: u64,
) -> Result<StepOutcome, HwError> {
    debug_assert!(!w.finished, "finished workers leave the live list");
    let st = &prog.states[w.state];
    if !w.entered {
        w.entered = true;
        w.cursor = st.start as usize;
        w.min_left = st.min_cycles;
    }
    // Outstanding load?
    if let Some(done) = w.mem_wait {
        if cycle < done {
            w.stats.stall_mem_read += 1;
            return Ok(StepOutcome::MemWait { until: done });
        }
        w.mem_wait = None; // data arrived; continue this cycle
    }
    let out_of_range = |e: OutOfRange| HwError::OutOfRange {
        worker: wi as u32,
        cycle,
        addr: e.addr,
        width: e.width,
    };

    // Execute ops from the cursor.
    while w.cursor < st.end as usize {
        match prog.ops[w.cursor] {
            MicroOp::Load { dst, addr, ty } => {
                let a = w.reg(addr) as u32;
                w.regs[dst as usize] = hw.mem.read_value(a, ty).map_err(out_of_range)?.to_bits();
                let mut done = hw.cache.request(cycle, a);
                if let Some(plan) = hw.fault.as_mut() {
                    done += plan.mem_penalty(cycle);
                }
                w.cursor += 1;
                w.stats.busy += 1;
                let resp = done.max(cycle + 1);
                if w.cursor >= st.reg_tail as usize {
                    if let Some(until) = respond_ahead(prog, w, cycle, resp, horizon) {
                        return Ok(StepOutcome::MemAhead { resp, until });
                    }
                }
                w.mem_wait = Some(resp);
                return Ok(StepOutcome::MemWait { until: resp });
            }
            MicroOp::Store { addr, value, ty } => {
                // Store buffer: fire and forget; the access still occupies
                // its bank.
                let a = w.reg(addr) as u32;
                let v = Value::from_bits(ty, w.reg(value));
                hw.mem.write_value(a, v).map_err(out_of_range)?;
                let _ = hw.cache.request(cycle, a);
            }
            MicroOp::Produce { queue, sel, value } => {
                let n_queues = hw.queues.len();
                let q = &mut hw.queues[queue as usize];
                let chan = channel(w.reg(sel), q.channels());
                if !q.can_push(chan) {
                    return Ok(fifo_wait(w, queue, chan as u32, true));
                }
                q.set_cycle(cycle);
                q.push_bits(chan, w.reg(value));
                if let Some(plan) = hw.fault.as_mut() {
                    let ordinal = q.elems_pushed - 1;
                    if let Some(c) = plan.queue_corruption(queue as usize, n_queues, ordinal) {
                        q.apply_corruption(chan, c);
                    }
                }
                w.extra_wait += q.elem_beats() as u32 - 1; // extra 32-bit beats
            }
            MicroOp::Broadcast { queue, value } => {
                let n_queues = hw.queues.len();
                let q = &mut hw.queues[queue as usize];
                if !q.can_push_all() {
                    return Ok(fifo_wait(w, queue, u32::MAX, true));
                }
                q.set_cycle(cycle);
                q.push_all_bits(w.reg(value));
                if let Some(plan) = hw.fault.as_mut() {
                    // `push_all` counted one element push per channel.
                    let n_chan = q.channels() as u64;
                    for c in 0..q.channels() {
                        let ordinal = q.elems_pushed - n_chan + c as u64;
                        if let Some(cor) = plan.queue_corruption(queue as usize, n_queues, ordinal)
                        {
                            q.apply_corruption(c, cor);
                        }
                    }
                }
                w.extra_wait += q.elem_beats() as u32 - 1;
            }
            MicroOp::Consume { queue, sel, dst, beats } => {
                let q = &mut hw.queues[queue as usize];
                let chan = channel(w.reg(sel), q.channels());
                if !q.can_pop(chan) {
                    return Ok(fifo_wait(w, queue, chan as u32, false));
                }
                q.set_cycle(cycle);
                match q.pop_checked(queue, chan) {
                    Ok(v) => w.regs[dst as usize] = v.to_bits(),
                    // The caller fills `detail` with the whole-system dump.
                    Err(kind) => return Err(HwError::Fault { cycle, kind, detail: String::new() }),
                }
                w.extra_wait += beats - 1;
            }
            MicroOp::StoreLiveout { slot, value, ty } => {
                hw.liveouts[slot as usize] = Some(Value::from_bits(ty, w.reg(value)))
            }
            // A worker's lowering rejects host primitives.
            MicroOp::Fork { .. } | MicroOp::Join | MicroOp::Retrieve { .. } => {}
            MicroOp::Reg(op) => op.exec(&mut w.regs),
        }
        w.cursor += 1;
    }

    // All ops executed: burn any remaining beat/latency cycles, then leave.
    w.stats.busy += 1;
    if w.extra_wait > 0 {
        w.extra_wait -= 1;
        return Ok(burn_outcome(w, cycle));
    }
    if w.min_left > 1 {
        w.min_left -= 1;
        return Ok(burn_outcome(w, cycle));
    }
    let back = advance(prog, &st.exit, w);
    if w.finished || horizon <= cycle + 1 {
        return Ok(StepOutcome::Active);
    }
    debug_assert!(w.ahead.is_empty(), "a worker steps only once its window closed");
    w.ahead.push(Entered { at: cycle, state: w.state as u32, back, resumed: false });
    let until = run_ahead(prog, w, cycle + 1, horizon);
    if w.ahead.len() == 1 {
        w.ahead.clear();
        return Ok(StepOutcome::Active);
    }
    Ok(StepOutcome::Ahead { until })
}

/// Take now, in the step that issues a load in `cycle`, the step the
/// per-cycle stepper takes in `resp`, when the load's response arrives,
/// and run the rest of the load's state with it: the register ops after
/// the load, its remaining transfer beats and `min_cycles`, and its exit.
/// Then run ahead from the next state (see [`run_ahead`]). The caller has
/// checked that the rest of the state is register ops and that its exit
/// is not `Ret`, so nobody else can observe any of it; the load's value
/// was read at issue.
///
/// Declines, leaving the worker to wait on memory, when the state would
/// not end before `horizon` (the next timed fault boundary). Otherwise
/// returns the cycle the worker enters the state it stopped before, and
/// logs the window in [`Worker::ahead`]: the issue step, the response
/// (`resumed`), and each state entered.
fn respond_ahead(
    prog: &Program,
    w: &mut Worker,
    cycle: u64,
    resp: u64,
    horizon: u64,
) -> Option<u64> {
    debug_assert!(w.ahead.is_empty(), "a worker steps only once its window closed");
    let st = &prog.states[w.state];
    // The state's last cycle: the response cycle, then one per remaining
    // transfer beat, then `min_cycles` down to its final cycle.
    let last = resp + u64::from(w.extra_wait) + u64::from(w.min_left.max(1)) - 1;
    if last >= horizon {
        return None;
    }
    run_regs(prog, w, w.cursor, st.end as usize);
    let state = w.state as u32;
    let back = advance(prog, &st.exit, w);
    w.extra_wait = 0;
    w.ahead.push(Entered { at: cycle, state, back: false, resumed: false });
    if last > resp {
        w.ahead.push(Entered { at: resp, state, back: false, resumed: true });
    }
    let resumed = last == resp;
    w.ahead.push(Entered { at: last, state: w.state as u32, back, resumed });
    Some(run_ahead(prog, w, last + 1, horizon))
}

/// Execute the ops `prog.ops[from..to]` on a worker's registers; the
/// caller has checked (by the state's `reg_tail`) that all are
/// [`RegOp`]s.
#[inline(always)]
fn run_regs(prog: &Program, w: &mut Worker, from: usize, to: usize) {
    for op in &prog.ops[from..to] {
        if let MicroOp::Reg(op) = op {
            op.exec(&mut w.regs);
        }
    }
}

/// Run a worker that enters `w.state` in cycle `entry`, its move into it
/// already logged in [`Worker::ahead`], ahead through that state and the
/// register-only states that follow: execute each one's ops and exit now,
/// as of the cycle the per-cycle stepper would, and log the move out of it.
/// Stops before a state with a port op or a `Ret` exit, before a state
/// that would not end before `horizon` (the next timed fault boundary),
/// and once the log holds [`MAX_AHEAD`] entries after the first.
///
/// Returns the cycle the worker enters the state it stopped before. Every
/// cycle from `entry` until then is busy.
fn run_ahead(prog: &Program, w: &mut Worker, mut entry: u64, horizon: u64) -> u64 {
    loop {
        let st = &prog.states[w.state];
        let last = entry + u64::from(st.min_cycles.max(1)) - 1;
        if st.reg_tail != st.start || last >= horizon || w.ahead.len() > MAX_AHEAD {
            break;
        }
        run_regs(prog, w, st.start as usize, st.end as usize);
        let back = advance(prog, &st.exit, w);
        w.ahead.push(Entered { at: last, state: w.state as u32, back, resumed: false });
        entry = last + 1;
    }
    entry
}

/// Record one cycle blocked on a queue handshake.
#[inline]
fn fifo_wait(w: &mut Worker, queue: u32, chan: u32, push: bool) -> StepOutcome {
    w.stats.credit_fifo(queue, push, 1);
    StepOutcome::FifoWait { queue, chan, push }
}

/// The cycle at which a worker that has executed all of its state's ops
/// will transition (pure busy burn until then): one cycle per remaining
/// transfer beat, then `min_cycles` down to its final cycle.
#[inline]
fn burn_outcome(w: &Worker, cycle: u64) -> StepOutcome {
    let left = u64::from(w.extra_wait) + u64::from(w.min_left.saturating_sub(1));
    StepOutcome::Burn { until: cycle + left + 1 }
}

/// Transition after a completed state; true when it took a loop back
/// edge.
#[inline(always)]
fn advance(prog: &Program, exit: &Exit, w: &mut Worker) -> bool {
    let edge = match *exit {
        Exit::Next => {
            w.state += 1;
            w.entered = false;
            return false;
        }
        Exit::Jump(edge) => edge,
        Exit::Branch { cond, on_true, on_false } => {
            if w.reg(cond) != 0 {
                on_true
            } else {
                on_false
            }
        }
        Exit::Ret(value) => {
            w.ret = value.map(|(r, ty)| Value::from_bits(ty, w.reg(r)));
            w.finished = true;
            return false;
        }
    };
    prog.copy_phis(edge, &mut w.regs, &mut w.staged);
    if edge.back {
        w.stats.iterations += 1;
    }
    w.state = edge.next as usize;
    w.entered = false;
    edge.back
}
