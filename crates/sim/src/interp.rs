//! Functional reference interpreter for original (un-transformed) kernel
//! functions.
//!
//! Every hardware run in this workspace is validated against this
//! interpreter: same inputs, same simulated memory layout, same results.
//! A hook trait lets the MIPS timing model ride along without duplicating
//! the semantics.

use crate::exec::{eval_binary, eval_cast, eval_fcmp, eval_gep, eval_icmp};
use crate::mem::{OutOfRange, SimMemory};
use crate::value::Value;
use cgpa_ir::{BlockId, Function, InstId, Op};
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

#[allow(clippy::too_many_lines)]
fn run_impl(
    func: &Function,
    args: &[Value],
    mem: &mut SimMemory,
    fuel: u64,
    hooks: &mut impl ExecHooks,
    accelerator: &mut Accelerator<'_>,
    allow_primitives: bool,
) -> Result<(Option<Value>, u64), InterpError> {
    let mut liveout_regs: Vec<Option<Value>> = Vec::new();
    if args.len() != func.params.len() {
        return Err(InterpError::BadArity { expected: func.params.len(), got: args.len() });
    }
    let mut vals: Vec<Option<Value>> = vec![None; func.values.len()];
    for (i, v) in args.iter().enumerate() {
        vals[i] = Some(*v);
    }
    // Constants.
    for (i, vd) in func.values.iter().enumerate() {
        if let cgpa_ir::ValueDef::Const(c) = vd {
            vals[i] = Some(Value::from(*c));
        }
    }

    let mut executed = 0u64;
    let mut block = func.entry();
    let mut prev_block: Option<BlockId> = None;
    // Phi staging buffer, reused across block entries.
    let mut updates: Vec<(cgpa_ir::ValueId, Value)> = Vec::new();
    let undefined = 'run: loop {
        // Operand `v`. Reading one that no instruction has defined yet ends
        // the run with an error rather than a panic; every such read leaves
        // through the one `break 'run`, which keeps the hot path a load and a
        // branch.
        macro_rules! get {
            ($v:expr) => {
                match vals[$v.index()] {
                    Some(x) => x,
                    None => break 'run $v,
                }
            };
        }
        // Phi updates: evaluate in parallel against the predecessor.
        if let Some(pb) = prev_block {
            for &iid in &func.block(block).insts {
                let inst = func.inst(iid);
                let Op::Phi { incomings, .. } = &inst.op else { break };
                let (Some((_, v)), Some(r)) =
                    (incomings.iter().find(|(b, _)| *b == pb), inst.result)
                else {
                    return Err(malformed_phi(iid, pb));
                };
                updates.push((r, get!(*v)));
                hooks.on_inst(func, iid);
                executed += 1;
            }
            for (r, v) in updates.drain(..) {
                vals[r.index()] = Some(v);
            }
        }

        for &iid in &func.block(block).insts {
            let inst = func.inst(iid);
            if matches!(inst.op, Op::Phi { .. }) {
                continue; // handled on entry
            }
            executed += 1;
            if executed > fuel {
                return Err(InterpError::OutOfFuel);
            }
            hooks.on_inst(func, iid);
            let result: Option<Value> = match &inst.op {
                Op::Binary { op, lhs, rhs } => Some(eval_binary(*op, get!(*lhs), get!(*rhs))?),
                Op::ICmp { pred, lhs, rhs } => Some(eval_icmp(*pred, get!(*lhs), get!(*rhs))?),
                Op::FCmp { pred, lhs, rhs } => Some(eval_fcmp(*pred, get!(*lhs), get!(*rhs))?),
                Op::Select { cond, on_true, on_false } => {
                    Some(if as_bool(get!(*cond))? { get!(*on_true) } else { get!(*on_false) })
                }
                Op::Cast { kind, value, to } => Some(eval_cast(*kind, get!(*value), *to)?),
                Op::Gep { base, index, scale, offset } => {
                    let index = match index {
                        Some(i) => Some(get!(*i)),
                        None => None,
                    };
                    Some(eval_gep(get!(*base), index, *scale, *offset)?)
                }
                Op::Load { addr, ty } => {
                    let a = as_ptr(get!(*addr))?;
                    hooks.on_mem(a, ty.size_bytes(), false);
                    Some(mem.read_value(a, *ty)?)
                }
                Op::Store { addr, value } => {
                    let a = as_ptr(get!(*addr))?;
                    let v = get!(*value);
                    hooks.on_mem(a, v.ty().size_bytes(), true);
                    mem.write_value(a, v)?;
                    None
                }
                Op::Br { target } => {
                    hooks.on_branch(false);
                    prev_block = Some(block);
                    block = *target;
                    break;
                }
                Op::CondBr { cond, on_true, on_false } => {
                    let taken = as_bool(get!(*cond))?;
                    hooks.on_branch(taken);
                    prev_block = Some(block);
                    block = if taken { *on_true } else { *on_false };
                    break;
                }
                Op::Ret { value } => {
                    let ret = match value {
                        Some(v) => Some(get!(*v)),
                        None => None,
                    };
                    return Ok((ret, executed));
                }
                Op::ParallelFork { loop_id, live_ins } if allow_primitives => {
                    let mut vals_in = Vec::with_capacity(live_ins.len());
                    for v in live_ins {
                        vals_in.push(get!(*v));
                    }
                    let regs =
                        accelerator(*loop_id, &vals_in, mem).map_err(InterpError::UnsupportedOp)?;
                    // Liveout registers are shared hardware: later loops'
                    // slots extend/overwrite earlier ones.
                    if regs.len() > liveout_regs.len() {
                        liveout_regs.resize(regs.len(), None);
                    }
                    for (i, r) in regs.into_iter().enumerate() {
                        if r.is_some() {
                            liveout_regs[i] = r;
                        }
                    }
                    None
                }
                Op::ParallelJoin { .. } if allow_primitives => None,
                Op::RetrieveLiveout { slot, .. } if allow_primitives => {
                    Some(liveout_regs.get(*slot as usize).copied().flatten().ok_or_else(|| {
                        InterpError::UnsupportedOp(format!("liveout {slot} never stored"))
                    })?)
                }
                op => {
                    return Err(InterpError::UnsupportedOp(format!("{op:?}")));
                }
            };
            if let Some(r) = inst.result {
                vals[r.index()] = result;
            }
        }
    };
    Err(InterpError::UnsupportedOp(format!("read of undefined value {undefined:?}")))
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
}
