//! Functional reference interpreter for original (un-transformed) kernel
//! functions.
//!
//! Every hardware run in this workspace is validated against this
//! interpreter: same inputs, same simulated memory layout, same results.
//! A hook trait lets the MIPS timing model ride along without duplicating
//! the semantics.
//!
//! Each call decodes its function once, then runs the decoded form:
//!
//! - every block's non-phi instructions up to its first terminator become
//!   dense steps over a register file (one slot per IR value): the typed
//!   register ops of [`exec`](crate::exec), shared with the datapath, and
//!   load, store, branch, return and fork/join/liveout steps, each keeping
//!   the `InstId` it came from;
//! - every edge carries the phi copies of its target's leading phis, so a
//!   block entry does not scan the block for phis.
//!
//! The decoded run keeps the interpreter's observable contract: the
//! `executed` count (phis and terminators included), fuel (one unit per
//! non-phi instruction), `BadArity`, the hook order the MIPS model relies
//! on (`on_inst` for each phi after its edge's `on_branch`, then for each
//! instruction before it runs; `on_mem` before the access), and each
//! error's text. The interpreter does not run the verifier, so a read can
//! find a value no instruction has defined yet; that is an error, raised
//! lazily when the read happens: the run tracks which registers hold a
//! value and reports the first missing read in the order the operands are
//! read.

use crate::exec::{reg, Reg, RegOp};
use crate::mem::{OutOfRange, SimMemory};
use crate::value::Value;
use cgpa_ir::{BlockId, Function, InstId, Op, Ty, ValueDef, ValueId};
use std::error::Error;
use std::fmt;

/// Observation hooks for a functional run.
pub trait ExecHooks {
    /// Called once per executed instruction (including terminators; phis are
    /// reported too, as register moves).
    fn on_inst(&mut self, func: &Function, inst: InstId);
    /// Called for each data access: address, size, store?
    fn on_mem(&mut self, addr: u32, size: u32, store: bool);
    /// Called at each executed branch: `taken` is true for conditional
    /// branches that branch away from fall-through (timing models charge a
    /// penalty).
    fn on_branch(&mut self, taken: bool);
}

/// The accelerator callback used by [`run_with_accelerator`]: takes the
/// forked loop's id, the live-in values, and memory; returns the liveout
/// register contents.
pub type Accelerator<'a> =
    dyn FnMut(u32, &[Value], &mut SimMemory) -> Result<Vec<Option<Value>>, String> + 'a;

/// Hooks that observe nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl ExecHooks for NoHooks {
    fn on_inst(&mut self, _: &Function, _: InstId) {}
    fn on_mem(&mut self, _: u32, _: u32, _: bool) {}
    fn on_branch(&mut self, _: bool) {}
}

/// Why a functional run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Step budget exhausted (diverging loop or runaway input).
    OutOfFuel,
    /// Argument count doesn't match the signature.
    BadArity { expected: usize, got: usize },
    /// The function executed an accelerator-only primitive, or an op/value
    /// combination the execution semantics do not define.
    UnsupportedOp(String),
    /// A load or store fell outside simulated memory.
    OutOfRange {
        /// First byte of the access.
        addr: u32,
        /// Access width in bytes.
        width: u32,
    },
}

impl From<OutOfRange> for InterpError {
    fn from(e: OutOfRange) -> Self {
        InterpError::OutOfRange { addr: e.addr, width: e.width }
    }
}

impl From<crate::exec::ExecError> for InterpError {
    fn from(e: crate::exec::ExecError) -> Self {
        InterpError::UnsupportedOp(e.0)
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfFuel => f.write_str("interpreter ran out of fuel"),
            InterpError::BadArity { expected, got } => {
                write!(f, "expected {expected} arguments, got {got}")
            }
            InterpError::UnsupportedOp(op) => {
                write!(f, "cannot interpret {op}")
            }
            InterpError::OutOfRange { addr, width } => {
                write!(f, "{}", OutOfRange { addr: *addr, width: *width })
            }
        }
    }
}

impl Error for InterpError {}

/// Run `func` functionally.
///
/// Returns the `ret` value (if any) and the number of executed
/// instructions.
///
/// # Errors
/// See [`InterpError`]. Accelerator primitives (`parallel_fork`, …) are
/// rejected; use [`run_with_accelerator`] for transformed parent functions.
pub fn run_function(
    func: &Function,
    args: &[Value],
    mem: &mut SimMemory,
    fuel: u64,
    hooks: &mut impl ExecHooks,
) -> Result<(Option<Value>, u64), InterpError> {
    let mut reject =
        |_: u32, _: &[Value], _: &mut SimMemory| -> Result<Vec<Option<Value>>, String> {
            Err("no accelerator attached".to_string())
        };
    run_impl(func, args, mem, fuel, hooks, &mut reject, false)
}

/// Run a transformed *parent* function: `parallel_fork` hands the live-in
/// values and memory to `accelerator`, which returns the liveout register
/// contents; `parallel_join` is a no-op (the accelerator ran to
/// completion); `retrieve_liveout` reads the returned registers.
///
/// # Errors
/// See [`InterpError`]; accelerator failures surface as
/// [`InterpError::UnsupportedOp`] with the accelerator's message.
pub fn run_with_accelerator(
    func: &Function,
    args: &[Value],
    mem: &mut SimMemory,
    fuel: u64,
    accelerator: &mut Accelerator<'_>,
) -> Result<(Option<Value>, u64), InterpError> {
    run_impl(func, args, mem, fuel, &mut NoHooks, accelerator, true)
}

fn run_impl(
    func: &Function,
    args: &[Value],
    mem: &mut SimMemory,
    fuel: u64,
    hooks: &mut impl ExecHooks,
    accelerator: &mut Accelerator<'_>,
    allow_primitives: bool,
) -> Result<(Option<Value>, u64), InterpError> {
    if args.len() != func.params.len() {
        return Err(InterpError::BadArity { expected: func.params.len(), got: args.len() });
    }
    run(func, &Decoded::new(func, allow_primitives), args, mem, fuel, hooks, accelerator)
}

/// One decoded instruction, or one of the two markers that are not
/// instructions (`Again`, `Undefine`).
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A register op.
    Reg(RegOp),
    /// Load a `ty` from the pointer in `addr`.
    Load { dst: Reg, addr: Reg, ty: Ty },
    /// Store `value` to the pointer in `addr`.
    Store { addr: Reg, value: Reg },
    /// Unconditional branch.
    Br(Edge),
    /// Conditional branch on an `i1` register.
    CondBr { cond: Reg, on_true: Edge, on_false: Edge },
    /// Return, optionally a register.
    Ret(Option<Reg>),
    /// `parallel_fork` of loop `loop_id` with live-ins
    /// `Decoded::live_ins[live_ins.0..live_ins.1]`.
    Fork { loop_id: u32, live_ins: (u32, u32) },
    /// `parallel_join`: the accelerator already ran to completion.
    Join,
    /// `retrieve_liveout` of liveout register `slot`.
    Retrieve { dst: Reg, slot: u32 },
    /// An op this run cannot interpret: executing it is
    /// [`InterpError::UnsupportedOp`] with the op's `Debug` text.
    Unsupported,
    /// The end of a block without a terminator, whose first op is `start`:
    /// the block runs again, re-entered over the edge that entered it.
    Again { start: u32 },
    /// A valueless op that names a result leaves that value undefined.
    Undefine(Reg),
}

/// A control-flow edge.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// First op of the target block; `u32::MAX` for a block the function
    /// does not have.
    to: u32,
    /// The target's phi copies: `Decoded::phis[phis.0..phis.1]`.
    phis: (u32, u32),
}

/// One phi of an edge's target block, in block order.
#[derive(Debug, Clone, Copy)]
struct PhiCopy {
    /// The phi.
    inst: InstId,
    /// `(source, destination)`; `None` when the phi has no result or no
    /// incoming value from the edge's source block.
    copy: Option<(Reg, Reg)>,
    /// The edge's source block.
    from: BlockId,
}

/// A function decoded for one run: per block, its non-phi instructions up
/// to the first terminator, each with the instruction it came from, and
/// per edge the phi copies of its target.
#[derive(Debug)]
struct Decoded {
    /// Every block's steps, block after block (the entry block first),
    /// each with the instruction it came from (a marker's is never
    /// reported).
    ops: Vec<(Step, InstId)>,
    phis: Vec<PhiCopy>,
    live_ins: Vec<Reg>,
}

impl Decoded {
    fn new(func: &Function, allow_primitives: bool) -> Decoded {
        // A valued op that names no result writes the sink, the register
        // after every value's, which nothing reads.
        let sink = func.values.len() as Reg;
        let mut d = Decoded { ops: Vec::new(), phis: Vec::new(), live_ins: Vec::new() };
        // Each block's first op, and the edges to patch with them.
        let mut block_start = Vec::with_capacity(func.blocks.len());
        for (bi, block) in func.blocks.iter().enumerate() {
            let from = BlockId(bi as u32);
            let start = d.ops.len() as u32;
            block_start.push(start);
            let mut terminated = false;
            for &iid in &block.insts {
                let inst = func.inst(iid);
                let dst = inst.result.map_or(sink, reg);
                let mut edge = |to: BlockId| decode_edge(func, from, to, &mut d.phis);
                let step = if let Some(op) = RegOp::decode(func, &inst.op, dst) {
                    Step::Reg(op)
                } else {
                    match &inst.op {
                        // Leading phis run on the edges into the block;
                        // others never run.
                        Op::Phi { .. } => continue,
                        &Op::Load { addr, ty } => Step::Load { dst, addr: reg(addr), ty },
                        &Op::Store { addr, value } => {
                            Step::Store { addr: reg(addr), value: reg(value) }
                        }
                        &Op::Br { target } => Step::Br(edge(target)),
                        &Op::CondBr { cond, on_true, on_false } => Step::CondBr {
                            cond: reg(cond),
                            on_true: edge(on_true),
                            on_false: edge(on_false),
                        },
                        Op::Ret { value } => Step::Ret(value.map(reg)),
                        Op::ParallelFork { loop_id, live_ins } if allow_primitives => {
                            let first = d.live_ins.len() as u32;
                            d.live_ins.extend(live_ins.iter().map(|&v| reg(v)));
                            Step::Fork {
                                loop_id: *loop_id,
                                live_ins: (first, d.live_ins.len() as u32),
                            }
                        }
                        Op::ParallelJoin { .. } if allow_primitives => Step::Join,
                        &Op::RetrieveLiveout { slot, .. } if allow_primitives => {
                            Step::Retrieve { dst, slot }
                        }
                        _ => Step::Unsupported,
                    }
                };
                d.ops.push((step, iid));
                terminated = inst.op.is_terminator();
                if terminated {
                    break;
                }
                let valueless = matches!(step, Step::Store { .. } | Step::Fork { .. } | Step::Join);
                if let (true, Some(r)) = (valueless, inst.result) {
                    d.ops.push((Step::Undefine(reg(r)), iid));
                }
            }
            if !terminated {
                let last = block.insts.last().copied().unwrap_or(InstId(0));
                d.ops.push((Step::Again { start }, last));
            }
        }
        // Edges were decoded with target block indices.
        let patch =
            |e: &mut Edge| e.to = block_start.get(e.to as usize).copied().unwrap_or(u32::MAX);
        for (step, _) in &mut d.ops {
            match step {
                Step::Br(e) => patch(e),
                Step::CondBr { on_true, on_false, .. } => {
                    patch(on_true);
                    patch(on_false);
                }
                _ => {}
            }
        }
        d
    }
}

/// The edge `from → to` with the phi copies of `to`'s leading phis.
fn decode_edge(func: &Function, from: BlockId, to: BlockId, phis: &mut Vec<PhiCopy>) -> Edge {
    let first = phis.len() as u32;
    for &i in func.blocks.get(to.index()).map_or(&[][..], |b| &b.insts) {
        let inst = func.inst(i);
        let Op::Phi { incomings, .. } = &inst.op else { break };
        let src = incomings.iter().find(|(b, _)| *b == from).map(|&(_, v)| reg(v));
        phis.push(PhiCopy { inst: i, copy: src.zip(inst.result.map(reg)), from });
    }
    Edge { to: to.0, phis: (first, phis.len() as u32) }
}

/// Run `code`, decoded from `func`, from the entry block. The run tracks
/// which registers hold a value and fails a read of one that does not.
///
/// Every instruction counts as executed and reaches `on_inst` before it
/// runs (a phi when its edge is taken, after the branch's `on_branch`); an
/// access reaches `on_mem` before it touches memory. Each non-phi
/// instruction spends one unit of fuel.
#[allow(clippy::too_many_lines)]
fn run(
    func: &Function,
    code: &Decoded,
    args: &[Value],
    mem: &mut SimMemory,
    fuel: u64,
    hooks: &mut impl ExecHooks,
    accelerator: &mut Accelerator<'_>,
) -> Result<(Option<Value>, u64), InterpError> {
    // One register per IR value, and the sink. Parameters and constants
    // hold values from the start.
    let mut regs = vec![Value::I1(false); func.values.len() + 1];
    let mut defined = vec![false; regs.len()];
    for (i, v) in args.iter().enumerate() {
        regs[i] = *v;
        defined[i] = true;
    }
    for (i, vd) in func.values.iter().enumerate() {
        if let ValueDef::Const(c) = vd {
            regs[i] = Value::from(*c);
            defined[i] = true;
        }
    }
    let mut executed = 0u64;
    let mut liveout_regs: Vec<Option<Value>> = Vec::new();
    // Phi staging buffer: the copies of an edge are parallel.
    let mut staged: Vec<Value> = Vec::new();
    // The edge that entered the current block (none, with no copies, on
    // the entry block's first entry).
    let mut entered = Edge { to: 0, phis: (0, 0) };
    let mut pc = 0;
    macro_rules! get {
        ($r:expr) => {{
            let r = $r as usize;
            if !defined[r] {
                return Err(undefined(r));
            }
            regs[r]
        }};
    }
    macro_rules! set {
        ($r:expr, $v:expr) => {{
            let r = $r as usize;
            regs[r] = $v;
            defined[r] = true;
        }};
    }
    // An instruction starts: count it, spend fuel, report it.
    macro_rules! start {
        ($inst:expr) => {{
            executed += 1;
            if executed > fuel {
                return Err(InterpError::OutOfFuel);
            }
            hooks.on_inst(func, $inst);
        }};
    }
    // Run the phi copies of an edge. They are parallel: every source is
    // read before any destination is written.
    macro_rules! copy_phis {
        ($edge:expr) => {{
            let edge: Edge = $edge;
            let copies = &code.phis[edge.phis.0 as usize..edge.phis.1 as usize];
            staged.clear();
            for c in copies {
                let Some((src, _)) = c.copy else { return Err(malformed_phi(c.inst, c.from)) };
                staged.push(get!(src));
                hooks.on_inst(func, c.inst);
                executed += 1;
            }
            for (c, &v) in copies.iter().zip(&staged) {
                if let Some((_, dst)) = c.copy {
                    set!(dst, v);
                }
            }
        }};
    }
    macro_rules! take {
        ($edge:expr) => {{
            let edge: Edge = $edge;
            copy_phis!(edge);
            entered = edge;
            pc = edge.to as usize;
            continue;
        }};
    }
    loop {
        let (step, iid) = code.ops[pc];
        match step {
            Step::Reg(op) => {
                start!(iid);
                if let Some(r) = first_undefined(op, &regs, &defined) {
                    return Err(undefined(r as usize));
                }
                op.exec(&mut regs)?;
                defined[op.dst() as usize] = true;
            }
            Step::Load { dst, addr, ty } => {
                start!(iid);
                let a = as_ptr(get!(addr))?;
                hooks.on_mem(a, ty.size_bytes(), false);
                let v = mem.read_value(a, ty)?;
                set!(dst, v);
            }
            Step::Store { addr, value } => {
                start!(iid);
                let a = as_ptr(get!(addr))?;
                let v = get!(value);
                hooks.on_mem(a, v.ty().size_bytes(), true);
                mem.write_value(a, v)?;
            }
            Step::Br(edge) => {
                start!(iid);
                hooks.on_branch(false);
                take!(edge);
            }
            Step::CondBr { cond, on_true, on_false } => {
                start!(iid);
                let taken = as_bool(get!(cond))?;
                hooks.on_branch(taken);
                take!(if taken { on_true } else { on_false });
            }
            Step::Ret(value) => {
                start!(iid);
                let ret = match value {
                    Some(r) => Some(get!(r)),
                    None => None,
                };
                return Ok((ret, executed));
            }
            Step::Fork { loop_id, live_ins } => {
                start!(iid);
                let regs = &code.live_ins[live_ins.0 as usize..live_ins.1 as usize];
                let mut vals_in = Vec::with_capacity(regs.len());
                for &r in regs {
                    vals_in.push(get!(r));
                }
                let out =
                    accelerator(loop_id, &vals_in, mem).map_err(InterpError::UnsupportedOp)?;
                // Liveout registers are shared hardware: later loops'
                // slots extend/overwrite earlier ones.
                if out.len() > liveout_regs.len() {
                    liveout_regs.resize(out.len(), None);
                }
                for (i, r) in out.into_iter().enumerate() {
                    if r.is_some() {
                        liveout_regs[i] = r;
                    }
                }
            }
            Step::Join => start!(iid),
            Step::Retrieve { dst, slot } => {
                start!(iid);
                let v = liveout_regs.get(slot as usize).copied().flatten().ok_or_else(|| {
                    InterpError::UnsupportedOp(format!("liveout {slot} never stored"))
                })?;
                set!(dst, v);
            }
            Step::Unsupported => {
                start!(iid);
                let op = &func.inst(iid).op;
                return Err(InterpError::UnsupportedOp(format!("{op:?}")));
            }
            Step::Again { start } => {
                copy_phis!(entered);
                pc = start as usize;
                continue;
            }
            Step::Undefine(r) => defined[r as usize] = false,
        }
        pc += 1;
    }
}

/// The first register `op` reads that holds no value: a select reads its condition, and then only the arm it picks
/// (a condition that is not an `i1` fails in [`RegOp::exec`] first).
fn first_undefined(op: RegOp, regs: &[Value], defined: &[bool]) -> Option<Reg> {
    let missing = |r: Reg| !defined[r as usize];
    if let RegOp::Select { cond, on_true, on_false, .. } = op {
        if missing(cond) {
            return Some(cond);
        }
        let arm = match regs[cond as usize] {
            Value::I1(true) => on_true,
            Value::I1(false) => on_false,
            _ => return None,
        };
        return missing(arm).then_some(arm);
    }
    op.reads().into_iter().flatten().find(|&r| missing(r))
}

#[cold]
#[inline(never)]
fn undefined(r: usize) -> InterpError {
    InterpError::UnsupportedOp(format!("read of undefined value {:?}", ValueId(r as u32)))
}

#[inline]
fn as_bool(v: Value) -> Result<bool, InterpError> {
    match v {
        Value::I1(b) => Ok(b),
        other => Err(mistyped("i1", other)),
    }
}

#[inline]
fn as_ptr(v: Value) -> Result<u32, InterpError> {
    match v {
        Value::Ptr(p) => Ok(p),
        other => Err(mistyped("ptr", other)),
    }
}

#[cold]
#[inline(never)]
fn malformed_phi(iid: InstId, pred: BlockId) -> InterpError {
    InterpError::UnsupportedOp(format!("phi {iid:?} has no result or no incoming from {pred:?}"))
}

#[cold]
#[inline(never)]
fn mistyped(want: &str, got: Value) -> InterpError {
    InterpError::UnsupportedOp(format!("expected {want}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Ty};

    /// `fn sum(a: ptr, n: i32) -> f64` — sums `n` doubles.
    fn sum_fn() -> Function {
        let mut b = FunctionBuilder::new("sum", &[("a", Ty::Ptr), ("n", Ty::I32)], Some(Ty::F64));
        let a = b.param(0);
        let n = b.param(1);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        let zf = b.const_f64(0.0);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let s = b.phi(Ty::F64, "s");
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let p = b.gep(a, i, 8, 0);
        let x = b.load(p, Ty::F64);
        let s2 = b.binary(BinOp::FAdd, s, x);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(s));
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(s, b.entry_block(), zf);
        b.add_phi_incoming(s, body, s2);
        b.finish().unwrap()
    }

    #[test]
    fn sums_an_array() {
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 16);
        let base = mem.alloc(10 * 8, 8);
        for i in 0..10 {
            mem.write_f64(base + i * 8, f64::from(i));
        }
        let (ret, executed) =
            run_function(&f, &[Value::Ptr(base), Value::I32(10)], &mut mem, 100_000, &mut NoHooks)
                .unwrap();
        assert_eq!(ret, Some(Value::F64(45.0)));
        assert!(executed > 50);
    }

    #[test]
    fn zero_iterations() {
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 12);
        let (ret, _) =
            run_function(&f, &[Value::Ptr(64), Value::I32(0)], &mut mem, 1000, &mut NoHooks)
                .unwrap();
        assert_eq!(ret, Some(Value::F64(0.0)));
    }

    #[test]
    fn fuel_limits_divergence() {
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 16);
        let base = mem.alloc(8 * 1000, 8);
        let err =
            run_function(&f, &[Value::Ptr(base), Value::I32(1000)], &mut mem, 100, &mut NoHooks)
                .unwrap_err();
        assert_eq!(err, InterpError::OutOfFuel);
    }

    #[test]
    fn arity_checked() {
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 12);
        let err = run_function(&f, &[Value::I32(3)], &mut mem, 100, &mut NoHooks).unwrap_err();
        assert_eq!(err, InterpError::BadArity { expected: 2, got: 1 });
    }

    #[test]
    fn malformed_functions_are_typed_errors() {
        // `v` is defined only on the branch not taken, so `ret v` reads an
        // undefined value (the verifier would reject the missing dominance).
        let mut b = FunctionBuilder::new("f", &[("n", Ty::I32)], Some(Ty::I32));
        let n = b.param(0);
        let def = b.append_block("def");
        let exit = b.append_block("exit");
        let no = b.const_bool(false);
        b.cond_br(no, def, exit);
        b.switch_to(def);
        let v = b.binary(BinOp::Add, n, n);
        b.br(exit);
        b.switch_to(exit);
        b.ret(Some(v));
        let f = b.finish_unverified();
        let mut mem = SimMemory::new(1 << 12);
        let err = run_function(&f, &[Value::I32(1)], &mut mem, 100, &mut NoHooks).unwrap_err();
        assert!(matches!(&err, InterpError::UnsupportedOp(m) if m.contains("undefined")), "{err}");

        // A phi with no incoming value for the edge actually taken.
        let mut b = FunctionBuilder::new("g", &[], Some(Ty::I32));
        let exit = b.append_block("exit");
        b.br(exit);
        b.switch_to(exit);
        let p = b.phi(Ty::I32, "p");
        b.ret(Some(p));
        let f = b.finish_unverified();
        let err = run_function(&f, &[], &mut mem, 100, &mut NoHooks).unwrap_err();
        assert!(matches!(&err, InterpError::UnsupportedOp(m) if m.contains("phi")), "{err}");
    }

    #[test]
    fn hooks_observe_memory_traffic() {
        struct Count {
            loads: u32,
            branches: u32,
        }
        impl ExecHooks for Count {
            fn on_inst(&mut self, _: &Function, _: InstId) {}
            fn on_mem(&mut self, _: u32, _: u32, store: bool) {
                if !store {
                    self.loads += 1;
                }
            }
            fn on_branch(&mut self, _: bool) {
                self.branches += 1;
            }
        }
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 16);
        let base = mem.alloc(5 * 8, 8);
        let mut hooks = Count { loads: 0, branches: 0 };
        run_function(&f, &[Value::Ptr(base), Value::I32(5)], &mut mem, 10_000, &mut hooks).unwrap();
        assert_eq!(hooks.loads, 5);
        assert!(hooks.branches >= 11); // entry + 6 header + 5 latches
    }

    /// Every hook call of a run, in order: each instruction's op name, each
    /// access, each branch.
    #[derive(Default)]
    struct Log(Vec<String>);

    impl ExecHooks for Log {
        fn on_inst(&mut self, func: &Function, inst: InstId) {
            let op = format!("{:?}", func.inst(inst).op);
            self.0.push(op.split([' ', '{']).next().unwrap_or_default().to_string());
        }
        fn on_mem(&mut self, addr: u32, size: u32, store: bool) {
            self.0.push(format!("{} {addr:#x}/{size}", if store { "store" } else { "load" }));
        }
        fn on_branch(&mut self, taken: bool) {
            self.0.push(format!("branch {taken}"));
        }
    }

    #[test]
    fn hooks_see_each_phi_after_its_branch_and_each_access_before_it_lands() {
        let f = sum_fn();
        let mut mem = SimMemory::new(1 << 12);
        let base = mem.alloc(8, 8);
        let mut log = Log::default();
        let (_, executed) =
            run_function(&f, &[Value::Ptr(base), Value::I32(1)], &mut mem, 100, &mut log).unwrap();
        let load = format!("load {base:#x}/8");
        let want = [
            "Br",
            "branch false",
            "Phi",
            "Phi",
            "ICmp",
            "CondBr",
            "branch true",
            "Gep",
            "Load",
            &load,
            "Binary",
            "Binary",
            "Br",
            "branch false",
            "Phi",
            "Phi",
            "ICmp",
            "CondBr",
            "branch false",
            "Ret",
        ];
        assert_eq!(log.0, want);
        // Phis and terminators count as executed instructions.
        assert_eq!(executed, 15);
    }

    #[test]
    fn undefined_reads_fail_lazily_in_read_order() {
        // `p` and `i` are defined only on the branch not taken. A select
        // reads only the arm it picks; a gep reads its index before its
        // base.
        let build = |pick_defined: bool| {
            let mut b = FunctionBuilder::new("f", &[("a", Ty::Ptr), ("n", Ty::I32)], Some(Ty::Ptr));
            let (a, n) = (b.param(0), b.param(1));
            let def = b.append_block("def");
            let exit = b.append_block("exit");
            let no = b.const_bool(false);
            let pick = b.const_bool(pick_defined);
            b.cond_br(no, def, exit);
            b.switch_to(def);
            let p = b.gep(a, n, 4, 0);
            let i = b.binary(BinOp::Add, n, n);
            b.br(exit);
            b.switch_to(exit);
            let s = b.select(pick, a, p);
            let g = b.gep(s, i, 4, 0);
            b.ret(Some(g));
            (b.finish_unverified(), p, i)
        };
        let mut mem = SimMemory::new(1 << 12);
        let args = [Value::Ptr(64), Value::I32(1)];
        let undefined = |v: cgpa_ir::ValueId| {
            InterpError::UnsupportedOp(format!("read of undefined value {v:?}"))
        };
        let (f, p, _) = build(false);
        assert_eq!(run_function(&f, &args, &mut mem, 100, &mut NoHooks), Err(undefined(p)));
        let (f, _, i) = build(true);
        assert_eq!(run_function(&f, &args, &mut mem, 100, &mut NoHooks), Err(undefined(i)));
    }

    #[test]
    fn a_block_without_a_terminator_runs_again_over_the_edge_that_entered_it() {
        let mut b = FunctionBuilder::new("f", &[], Some(Ty::I32));
        let body = b.append_block("body");
        let seven = b.const_i32(7);
        b.br(body);
        b.switch_to(body);
        let p = b.phi(Ty::I32, "p");
        let one = b.const_i32(1);
        b.binary(BinOp::Add, p, one);
        b.add_phi_incoming(p, b.entry_block(), seven);
        let f = b.finish_unverified();
        let mut mem = SimMemory::new(1 << 12);
        let mut log = Log::default();
        let err = run_function(&f, &[], &mut mem, 5, &mut log).unwrap_err();
        assert_eq!(err, InterpError::OutOfFuel);
        // Fuel runs out at the third `add`, before it is reported.
        assert_eq!(log.0, ["Br", "branch false", "Phi", "Binary", "Phi", "Binary", "Phi"]);
    }

    #[test]
    fn a_valueless_op_that_names_a_result_leaves_it_undefined() {
        let mut b = FunctionBuilder::new("f", &[("a", Ty::Ptr), ("n", Ty::I32)], Some(Ty::I32));
        let (a, n) = (b.param(0), b.param(1));
        let x = b.binary(BinOp::Add, n, n);
        let st = b.store(a, n);
        b.ret(Some(x));
        let mut f = b.finish_unverified();
        f.insts[st.0 as usize].result = Some(x);
        let mut mem = SimMemory::new(1 << 12);
        let err = run_function(&f, &[Value::Ptr(64), Value::I32(1)], &mut mem, 100, &mut NoHooks)
            .unwrap_err();
        assert_eq!(err, InterpError::UnsupportedOp(format!("read of undefined value {x:?}")));
    }
}
