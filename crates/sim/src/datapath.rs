//! Decoded datapath: each task FSM is lowered once, when an
//! [`HwSystem`](crate::HwSystem) is built, into flat per-state micro-op
//! tables, and both simulation engines step workers through those tables.
//!
//! Lowering resolves everything the IR would otherwise make the hot loop
//! look up on every worker-cycle:
//!
//! - operands and results become dense register indices (one slot per IR
//!   value; constants are preloaded at reset);
//! - binary ops, compares, casts and geps call the tagged `exec::eval_*`
//!   evaluators (shared with the reference interpreter) on register
//!   values, so undefined combinations still surface as
//!   [`HwError::Unsupported`];
//! - loads carry their width;
//! - each state's exit is precomputed: fall through to the next state of
//!   the block, or take a jump/branch edge that carries its target state,
//!   whether it is a back edge, and its phi copy list.
//!
//! Lowering first runs the IR verifier (every id in range, dominance) and
//! then checks that the FSM covers the function and orders every in-block
//! use after its definition. Every register read therefore sees a written
//! value, and a malformed function is rejected up front with
//! [`HwError::Malformed`] instead of tripping the datapath mid-run.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic, clippy::unreachable)
)]

use crate::cache::CacheSystem;
use crate::exec::{eval_binary, eval_cast, eval_fcmp, eval_gep, eval_icmp};
use crate::fault::FaultPlan;
use crate::fifo::QueueState;
use crate::hw::HwError;
use crate::mem::{OutOfRange, SimMemory};
use crate::stats::WorkerStats;
use crate::value::Value;
use cgpa_ir::{
    BinOp, BlockId, CastKind, FloatPredicate, Function, InstId, IntPredicate, Op, Ty, ValueDef,
    ValueId,
};
use cgpa_rtl::schedule::check_fsm;
use cgpa_rtl::Fsm;

/// A register: a dense index into a worker's register file, which holds
/// one slot per IR value of the task function.
type Reg = u32;

/// One lowered operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroOp {
    /// Binary op, evaluated by [`eval_binary`].
    Binary { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// Integer compare, evaluated by [`eval_icmp`].
    ICmp { pred: IntPredicate, dst: Reg, a: Reg, b: Reg },
    /// Float compare, evaluated by [`eval_fcmp`].
    FCmp { pred: FloatPredicate, dst: Reg, a: Reg, b: Reg },
    /// `cond ? on_true : on_false`.
    Select { dst: Reg, cond: Reg, on_true: Reg, on_false: Reg },
    /// Scalar conversion, evaluated by [`eval_cast`].
    Cast { kind: CastKind, to: Ty, dst: Reg, src: Reg },
    /// `base + index * scale + offset`, evaluated by [`eval_gep`].
    Gep { dst: Reg, base: Reg, index: Option<Reg>, scale: u32, offset: i32 },
    /// Load a `ty` through the worker's cache port; blocks the worker.
    Load { dst: Reg, addr: Reg, ty: Ty },
    /// Store through the store buffer (fire and forget).
    Store { addr: Reg, value: Reg },
    /// Push to channel `sel % channels` of `queue`.
    Produce { queue: u32, sel: Reg, value: Reg },
    /// Push to every channel of `queue`.
    Broadcast { queue: u32, value: Reg },
    /// Pop an element of `beats` beats from channel `sel % channels`.
    Consume { queue: u32, sel: Reg, dst: Reg, beats: u32 },
    /// Latch `value` into liveout register `slot`.
    StoreLiveout { slot: u32, value: Reg },
    /// A host-only primitive: executing it is [`HwError::Unsupported`]
    /// with message `Program::unsupported[what]`.
    Unsupported { what: u32 },
}

/// A control-flow edge out of a block's last state.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// First state of the target block.
    next: u32,
    /// The target state does not lie after the source state (a loop back
    /// edge, counted as one iteration).
    back: bool,
    /// The phi copies of this edge: `Program::copies[copies.0..copies.1]`.
    copies: (u32, u32),
}

/// What a state does once its ops have executed and its cycles elapsed.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// Fall through to the next state of the same block.
    Next,
    /// Unconditional branch.
    Jump(Edge),
    /// Conditional branch on an `i1` register.
    Branch { cond: Reg, on_true: Edge, on_false: Edge },
    /// Finish the task, optionally returning a register.
    Ret(Option<Reg>),
}

/// One lowered FSM state.
#[derive(Debug, Clone, Copy)]
struct StateProg {
    /// The state's ops: `Program::ops[start..end]`, in schedule order.
    start: u32,
    end: u32,
    /// Minimum cycles spent in the state.
    min_cycles: u32,
    exit: Exit,
}

/// A task function lowered against its FSM.
#[derive(Debug, Clone, Default)]
pub(crate) struct Program {
    /// All states' micro-ops, state after state.
    ops: Vec<MicroOp>,
    /// The IR instruction each micro-op was lowered from (diagnostics).
    op_inst: Vec<InstId>,
    /// Per FSM state, in FSM order (state ids are unchanged).
    states: Vec<StateProg>,
    /// Phi copies `(source, destination)` of every edge.
    copies: Vec<(Reg, Reg)>,
    /// The register file at reset: constants, and zeros elsewhere.
    init: Vec<Value>,
    /// Parameter count; parameters occupy the first registers.
    params: usize,
    /// Messages of the host-only primitives.
    unsupported: Vec<String>,
}

impl Program {
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

/// Lower `func`, scheduled as `fsm`, for a system whose queues have
/// `queue_channels[q]` channels and which has `liveouts` liveout registers.
pub(crate) fn lower(
    func: &Function,
    fsm: &Fsm,
    queue_channels: &[u32],
    liveouts: usize,
) -> Result<Program, LowerError> {
    cgpa_ir::verify::verify(func).map_err(|e| e.to_string())?;
    check_fsm(func, fsm).map_err(|e| e.to_string())?;
    check_schedule_order(func, fsm)?;

    let mut prog = Program {
        init: func
            .values
            .iter()
            .map(|vd| match vd {
                ValueDef::Const(c) => Value::from(*c),
                other => Value::zero(other.ty()),
            })
            .collect(),
        params: func.params.len(),
        ..Program::default()
    };
    for (sidx, state) in fsm.states.iter().enumerate() {
        let start = prog.ops.len() as u32;
        for &iid in &state.ops {
            let inst = func.inst(iid);
            if let Some(op) = lower_op(func, iid, queue_channels, liveouts, &mut prog)? {
                prog.ops.push(op);
                prog.op_inst.push(iid);
            } else if !matches!(inst.op, Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. }) {
                return Err(format!("{:?} cannot be scheduled in a state", inst.op));
            }
        }
        let last_of_block = fsm.states.get(sidx + 1).is_none_or(|s| s.block != state.block);
        let exit = if last_of_block {
            lower_exit(func, fsm, sidx, state.block, &mut prog)?
        } else {
            Exit::Next
        };
        prog.states.push(StateProg {
            start,
            end: prog.ops.len() as u32,
            min_cycles: state.min_cycles,
            exit,
        });
    }
    Ok(prog)
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

fn reg(v: ValueId) -> Reg {
    v.0
}

/// Lower one scheduled instruction; `None` for terminators, which become
/// the state's [`Exit`].
fn lower_op(
    func: &Function,
    iid: InstId,
    queue_channels: &[u32],
    liveouts: usize,
    prog: &mut Program,
) -> Result<Option<MicroOp>, LowerError> {
    let inst = func.inst(iid);
    let result = || inst.result.map(reg).ok_or_else(|| format!("{:?}", inst.op));
    let queue = |q: cgpa_ir::QueueId| match queue_channels.get(q.index()) {
        Some(&c) if c > 0 => Ok(q.0),
        _ => Err(format!("{:?} targets unknown queue {}", inst.op, q.0)),
    };
    Ok(Some(match &inst.op {
        Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. } | Op::Phi { .. } => return Ok(None),
        &Op::Binary { op, lhs, rhs } => {
            MicroOp::Binary { op, dst: result()?, a: reg(lhs), b: reg(rhs) }
        }
        &Op::ICmp { pred, lhs, rhs } => {
            MicroOp::ICmp { pred, dst: result()?, a: reg(lhs), b: reg(rhs) }
        }
        &Op::FCmp { pred, lhs, rhs } => {
            MicroOp::FCmp { pred, dst: result()?, a: reg(lhs), b: reg(rhs) }
        }
        &Op::Select { cond, on_true, on_false } => MicroOp::Select {
            dst: result()?,
            cond: reg(cond),
            on_true: reg(on_true),
            on_false: reg(on_false),
        },
        &Op::Cast { kind, value, to } => {
            MicroOp::Cast { kind, to, dst: result()?, src: reg(value) }
        }
        &Op::Gep { base, index, scale, offset } => {
            MicroOp::Gep { dst: result()?, base: reg(base), index: index.map(reg), scale, offset }
        }
        &Op::Load { addr, ty } => MicroOp::Load { dst: result()?, addr: reg(addr), ty },
        &Op::Store { addr, value } => MicroOp::Store { addr: reg(addr), value: reg(value) },
        &Op::Produce { queue: q, worker_sel, value } => {
            MicroOp::Produce { queue: queue(q)?, sel: reg(worker_sel), value: reg(value) }
        }
        &Op::ProduceBroadcast { queue: q, value } => {
            MicroOp::Broadcast { queue: queue(q)?, value: reg(value) }
        }
        &Op::Consume { queue: q, channel_sel, ty } => MicroOp::Consume {
            queue: queue(q)?,
            sel: reg(channel_sel),
            dst: result()?,
            beats: ty.fifo_beats(),
        },
        &Op::StoreLiveout { slot, value } => {
            if slot as usize >= liveouts {
                return Err(format!("{:?} targets unknown liveout register {slot}", inst.op));
            }
            MicroOp::StoreLiveout { slot, value: reg(value) }
        }
        other
        @ (Op::ParallelFork { .. } | Op::ParallelJoin { .. } | Op::RetrieveLiveout { .. }) => {
            prog.unsupported.push(format!("{other:?}"));
            MicroOp::Unsupported { what: prog.unsupported.len() as u32 - 1 }
        }
    }))
}

/// The exit of state `sidx`, the last state of `block`: its terminator.
fn lower_exit(
    func: &Function,
    fsm: &Fsm,
    sidx: usize,
    block: BlockId,
    prog: &mut Program,
) -> Result<Exit, LowerError> {
    let Some(term) = func.terminator(block) else {
        return Err(format!("block {block} does not end in a terminator"));
    };
    let mut edge = |to: BlockId| -> Result<Edge, LowerError> {
        let next = fsm.block_entry[to.index()].0;
        let start = prog.copies.len() as u32;
        for &i in &func.block(to).insts {
            let phi = func.inst(i);
            let Op::Phi { incomings, .. } = &phi.op else { break };
            let Some(r) = phi.result else { return Err(format!("{:?}", phi.op)) };
            // The verifier matches a reachable block's phis to its
            // predecessors; only an edge out of an unreachable block can
            // lack an incoming value, and it is never taken.
            if let Some(&(_, v)) = incomings.iter().find(|(b, _)| *b == block) {
                prog.copies.push((reg(v), reg(r)));
            }
        }
        let copies = (start, prog.copies.len() as u32);
        Ok(Edge { next, back: next as usize <= sidx, copies })
    };
    Ok(match &func.inst(term).op {
        &Op::Br { target } => Exit::Jump(edge(target)?),
        &Op::CondBr { cond, on_true, on_false } => {
            Exit::Branch { cond: reg(cond), on_true: edge(on_true)?, on_false: edge(on_false)? }
        }
        Op::Ret { value } => Exit::Ret(value.map(reg)),
        other => return Err(format!("{other:?} ends block {block}")),
    })
}

/// One hardware worker: an FSM instance over a lowered task function.
#[derive(Debug)]
pub(crate) struct Worker {
    /// Index into the function/FSM/program tables.
    pub(crate) func: usize,
    regs: Vec<Value>,
    /// Phi staging buffer (copies on an edge are parallel).
    staged: Vec<Value>,
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
}

impl Worker {
    /// A worker at reset, its parameter registers holding `args`, or why
    /// `args` do not fit the program's parameter list.
    pub(crate) fn new(func: usize, prog: &Program, args: &[Value]) -> Result<Self, LowerError> {
        if args.len() != prog.params {
            return Err(format!("expected {} arguments, got {}", prog.params, args.len()));
        }
        let mut regs = prog.init.clone();
        regs[..args.len()].copy_from_slice(args);
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
        }
    }

    #[inline]
    fn reg(&self, r: Reg) -> Value {
        self.regs[r as usize]
    }

    #[inline]
    fn set(&mut self, r: Reg, v: Value) {
        self.regs[r as usize] = v;
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

/// How a worker spent one evaluated cycle. The event-driven engine uses
/// this to decide whether (and how far) the whole system can skip ahead,
/// and to bulk-credit the skipped cycles; the classification must mirror
/// exactly what the per-cycle stepper would record for those cycles.
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
    /// until another worker moves the queue (which only happens on an
    /// evaluated cycle).
    FifoWait {
        /// Queue the handshake is against.
        queue: u32,
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

fn unsupported(what: &str, v: Value) -> HwError {
    HwError::Unsupported(format!("expected {what}, got {v:?}"))
}

#[inline]
fn as_bool(v: Value) -> Result<bool, HwError> {
    match v {
        Value::I1(b) => Ok(b),
        other => Err(unsupported("i1", other)),
    }
}

#[inline]
fn as_ptr(v: Value) -> Result<u32, HwError> {
    match v {
        Value::Ptr(p) => Ok(p),
        other => Err(unsupported("ptr", other)),
    }
}

/// A channel selector: `i32`, or a pointer used as one.
#[inline]
fn as_selector(v: Value) -> Result<i32, HwError> {
    match v {
        Value::I32(x) => Ok(x),
        Value::Ptr(p) => Ok(p as i32),
        other => Err(unsupported("i32", other)),
    }
}

/// Advance one worker by one cycle.
///
/// Within one cycle a worker executes every ready operation of its current
/// state up to its cursor: combinational/pipelined ops are free, all queue
/// handshakes of the state fire together (independent FIFO ports), a load
/// blocks until the cache responds, a store retires through the store
/// buffer. The state ends when every op has executed and `min_cycles`
/// elapsed.
pub(crate) fn step_worker(
    prog: &Program,
    w: &mut Worker,
    hw: &mut Shared<'_>,
    cycle: u64,
    wi: usize,
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
            MicroOp::Binary { op, dst, a, b } => {
                let r = eval_binary(op, w.reg(a), w.reg(b))?;
                w.set(dst, r);
            }
            MicroOp::ICmp { pred, dst, a, b } => {
                let r = eval_icmp(pred, w.reg(a), w.reg(b))?;
                w.set(dst, r);
            }
            MicroOp::FCmp { pred, dst, a, b } => {
                let r = eval_fcmp(pred, w.reg(a), w.reg(b))?;
                w.set(dst, r);
            }
            MicroOp::Select { dst, cond, on_true, on_false } => {
                let r = if as_bool(w.reg(cond))? { w.reg(on_true) } else { w.reg(on_false) };
                w.set(dst, r);
            }
            MicroOp::Cast { kind, to, dst, src } => {
                let r = eval_cast(kind, w.reg(src), to)?;
                w.set(dst, r);
            }
            MicroOp::Gep { dst, base, index, scale, offset } => {
                let r = eval_gep(w.reg(base), index.map(|i| w.reg(i)), scale, offset)?;
                w.set(dst, r);
            }
            MicroOp::Load { dst, addr, ty } => {
                let a = as_ptr(w.reg(addr))?;
                let v = hw.mem.read_value(a, ty).map_err(out_of_range)?;
                w.set(dst, v);
                let mut done = hw.cache.request(cycle, a);
                if let Some(plan) = hw.fault.as_mut() {
                    done += plan.mem_penalty(cycle);
                }
                w.cursor += 1;
                w.stats.busy += 1;
                let until = done.max(cycle + 1);
                w.mem_wait = Some(until);
                return Ok(StepOutcome::MemWait { until });
            }
            MicroOp::Store { addr, value } => {
                // Store buffer: fire and forget; the access still occupies
                // its bank.
                let a = as_ptr(w.reg(addr))?;
                hw.mem.write_value(a, w.reg(value)).map_err(out_of_range)?;
                let _ = hw.cache.request(cycle, a);
            }
            MicroOp::Produce { queue, sel, value } => {
                let n_queues = hw.queues.len();
                let q = &mut hw.queues[queue as usize];
                let chan = (as_selector(w.reg(sel))? as usize) % q.channels();
                if !q.can_push(chan) {
                    return Ok(fifo_wait(w, queue, true));
                }
                let v = w.reg(value);
                q.set_cycle(cycle);
                q.push(chan, v);
                if let Some(plan) = hw.fault.as_mut() {
                    let ordinal = q.elems_pushed - 1;
                    if let Some(c) = plan.queue_corruption(queue as usize, n_queues, ordinal) {
                        q.apply_corruption(chan, c);
                    }
                }
                w.extra_wait += v.ty().fifo_beats() - 1; // extra 32-bit beats
            }
            MicroOp::Broadcast { queue, value } => {
                let n_queues = hw.queues.len();
                let q = &mut hw.queues[queue as usize];
                if !q.can_push_all() {
                    return Ok(fifo_wait(w, queue, true));
                }
                let v = w.reg(value);
                q.set_cycle(cycle);
                q.push_all(v);
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
                w.extra_wait += v.ty().fifo_beats() - 1;
            }
            MicroOp::Consume { queue, sel, dst, beats } => {
                let q = &mut hw.queues[queue as usize];
                let chan = (as_selector(w.reg(sel))? as usize) % q.channels();
                if !q.can_pop(chan) {
                    return Ok(fifo_wait(w, queue, false));
                }
                q.set_cycle(cycle);
                match q.pop_checked(queue, chan) {
                    Ok(v) => w.set(dst, v),
                    // The caller fills `detail` with the whole-system dump.
                    Err(kind) => return Err(HwError::Fault { cycle, kind, detail: String::new() }),
                }
                w.extra_wait += beats - 1;
            }
            MicroOp::StoreLiveout { slot, value } => {
                hw.liveouts[slot as usize] = Some(w.reg(value));
            }
            MicroOp::Unsupported { what } => {
                let msg = prog.unsupported.get(what as usize).cloned().unwrap_or_default();
                return Err(HwError::Unsupported(msg));
            }
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
    advance(prog, &st.exit, w)?;
    Ok(StepOutcome::Active)
}

/// Record one cycle blocked on a queue handshake.
#[inline]
fn fifo_wait(w: &mut Worker, queue: u32, push: bool) -> StepOutcome {
    w.stats.credit_fifo(queue, push, 1);
    StepOutcome::FifoWait { queue, push }
}

/// The cycle at which a worker that has executed all of its state's ops
/// will transition (pure busy burn until then): one cycle per remaining
/// transfer beat, then `min_cycles` down to its final cycle.
#[inline]
fn burn_outcome(w: &Worker, cycle: u64) -> StepOutcome {
    let left = u64::from(w.extra_wait) + u64::from(w.min_left.saturating_sub(1));
    StepOutcome::Burn { until: cycle + left + 1 }
}

/// Transition after a completed state.
fn advance(prog: &Program, exit: &Exit, w: &mut Worker) -> Result<(), HwError> {
    let edge = match *exit {
        Exit::Next => {
            w.state += 1;
            w.entered = false;
            return Ok(());
        }
        Exit::Jump(edge) => edge,
        Exit::Branch { cond, on_true, on_false } => {
            if as_bool(w.reg(cond))? {
                on_true
            } else {
                on_false
            }
        }
        Exit::Ret(value) => {
            w.ret = value.map(|r| w.reg(r));
            w.finished = true;
            return Ok(());
        }
    };
    // Phi copies are parallel: read every source before writing.
    let copies = &prog.copies[edge.copies.0 as usize..edge.copies.1 as usize];
    w.staged.clear();
    w.staged.extend(copies.iter().map(|&(src, _)| w.regs[src as usize]));
    for (&(_, dst), &v) in copies.iter().zip(&w.staged) {
        w.regs[dst as usize] = v;
    }
    if edge.back {
        w.stats.iterations += 1;
    }
    w.state = edge.next as usize;
    w.entered = false;
    Ok(())
}
