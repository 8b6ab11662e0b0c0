//! Functional reference interpreter for original (un-transformed) kernel
//! functions.
//!
//! Every hardware run in this workspace is validated against this
//! interpreter: same inputs, same simulated memory layout, same results.
//! A hook trait lets the MIPS timing model ride along without duplicating
//! the semantics.
//!
//! Each call lowers its function into the datapath's decoded form (the
//! crate-private `datapath::Program`), cut into one state per block (the
//! block's non-phi instructions up to its first terminator), and runs
//! that. The run keeps
//! the interpreter's observable contract: the `executed` count (phis and
//! terminators included), fuel (one unit per non-phi instruction),
//! `BadArity`, the hook order the MIPS model relies on (`on_inst` for each
//! phi after its edge's `on_branch`, then for each instruction before it
//! runs; `on_mem` before the access), and each error's text. The
//! interpreter checks that every id the function names is in range, but
//! does not run the verifier, so a read can find a value no instruction
//! has defined yet; that is an error, raised lazily when the read happens:
//! the run tracks which registers hold a value and reports the first
//! missing read in the order the operands are read.

use crate::datapath::{Cut, Exit, MicroOp, Program, ENTRY};
use crate::exec::{as_bool, as_ptr, reg, Reg, RegOp};
use crate::mem::{OutOfRange, SimMemory};
use crate::value::Value;
use cgpa_ir::verify::{check_references, VerifyError};
use cgpa_ir::{BlockId, Function, InstId, ValueDef, ValueId};
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
    /// The function cannot run at all: it names a block, instruction or
    /// value it does not have (checked before the run), or the run reached
    /// a block with no terminator and no instruction that spends fuel,
    /// which would run again forever.
    Malformed(VerifyError),
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
            InterpError::Malformed(e) => write!(f, "cannot interpret malformed {e}"),
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
    run(func, args, mem, fuel, hooks, &mut reject, false)
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
    run(func, args, mem, fuel, &mut NoHooks, accelerator, true)
}

/// Run `func` from the entry block, lowered one state per block. The run
/// tracks which registers hold a value and fails a read of one that does
/// not.
///
/// Every instruction counts as executed and reaches `on_inst` before it
/// runs (a phi when its edge is taken, after the branch's `on_branch`); an
/// access reaches `on_mem` before it touches memory. Each non-phi
/// instruction spends one unit of fuel. Host primitives run only when
/// `primitives` is set.
#[allow(clippy::too_many_lines)]
fn run(
    func: &Function,
    args: &[Value],
    mem: &mut SimMemory,
    fuel: u64,
    hooks: &mut impl ExecHooks,
    accelerator: &mut Accelerator<'_>,
    primitives: bool,
) -> Result<(Option<Value>, u64), InterpError> {
    if args.len() != func.params.len() {
        return Err(InterpError::BadArity { expected: func.params.len(), got: args.len() });
    }
    check_references(func).map_err(InterpError::Malformed)?;
    let prog = Program::new(func, Cut::Blocks);
    let missing = prog.missing();
    // Parameters and constants hold values from the start.
    let mut regs = prog.init.clone();
    regs[..args.len()].copy_from_slice(args);
    let mut defined: Vec<bool> = (0..regs.len())
        .map(|i| i < args.len() || matches!(func.values.get(i), Some(ValueDef::Const(_))))
        .collect();
    let mut executed = 0u64;
    let mut liveout_regs: Vec<Option<Value>> = Vec::new();
    // Phi staging buffer: the copies of an edge are parallel.
    let mut staged: Vec<Value> = Vec::new();
    // The current state, and the edge that entered it with the block that
    // edge leaves.
    let mut state = 0;
    let mut entered = (ENTRY, BlockId(0));
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
    loop {
        let st = &prog.states[state];
        let ops = st.start as usize..st.end as usize;
        for (&op, &iid) in prog.ops[ops.clone()].iter().zip(&prog.op_inst[ops]) {
            match op {
                MicroOp::Reg(op) => {
                    start!(iid);
                    if let Some(r) = first_undefined(op, &regs, &defined) {
                        return Err(undefined(r as usize));
                    }
                    op.exec(&mut regs)?;
                    defined[op.dst() as usize] = true;
                }
                MicroOp::Load { dst, addr, ty } => {
                    start!(iid);
                    let a = as_ptr(get!(addr))?;
                    hooks.on_mem(a, ty.size_bytes(), false);
                    let v = mem.read_value(a, ty)?;
                    set!(dst, v);
                }
                MicroOp::Store { addr, value } => {
                    start!(iid);
                    let a = as_ptr(get!(addr))?;
                    let v = get!(value);
                    hooks.on_mem(a, v.ty().size_bytes(), true);
                    mem.write_value(a, v)?;
                }
                MicroOp::Fork { loop_id } if primitives => {
                    start!(iid);
                    let mut vals_in = Vec::new();
                    for v in func.inst(iid).op.operands() {
                        vals_in.push(get!(reg(v)));
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
                MicroOp::Join if primitives => start!(iid),
                MicroOp::Retrieve { dst, slot } if primitives => {
                    start!(iid);
                    let v =
                        liveout_regs.get(slot as usize).copied().flatten().ok_or_else(|| {
                            InterpError::UnsupportedOp(format!("liveout {slot} never stored"))
                        })?;
                    set!(dst, v);
                }
                MicroOp::Undefine(r) => defined[r as usize] = false,
                // Unsupported ops (queue and liveout ports), and host
                // primitives outside `run_with_accelerator`.
                _ => {
                    start!(iid);
                    let op = &func.inst(iid).op;
                    return Err(InterpError::UnsupportedOp(format!("{op:?}")));
                }
            }
        }
        let (edge, from) = match st.exit {
            Exit::Next => {
                state += 1;
                continue;
            }
            Exit::Jump(edge) => {
                start!(st.term);
                hooks.on_branch(false);
                (edge, st.block)
            }
            Exit::Branch { cond, on_true, on_false } => {
                start!(st.term);
                let taken = as_bool(get!(cond))?;
                hooks.on_branch(taken);
                (if taken { on_true } else { on_false }, st.block)
            }
            Exit::Ret(value) => {
                start!(st.term);
                let ret = match value {
                    Some(r) => Some(get!(r)),
                    None => None,
                };
                return Ok((ret, executed));
            }
            // With no instruction to spend fuel, the block would run again
            // forever.
            Exit::Again if st.start == st.end => {
                let (func, block) = (func.name.clone(), st.block);
                return Err(InterpError::Malformed(VerifyError::MissingTerminator { func, block }));
            }
            Exit::Again => entered,
        };
        // The copies are parallel: every source is read before any
        // destination is written.
        let copies = edge.copies.0 as usize..edge.copies.1 as usize;
        staged.clear();
        for (&(src, _), &phi) in
            prog.copies[copies.clone()].iter().zip(&prog.copy_phi[copies.clone()])
        {
            if src == missing {
                return Err(malformed_phi(phi, from));
            }
            staged.push(get!(src));
            hooks.on_inst(func, phi);
            executed += 1;
        }
        for (&(_, dst), &v) in prog.copies[copies].iter().zip(&staged) {
            set!(dst, v);
        }
        entered = (edge, from);
        state = edge.next as usize;
    }
}

/// The first register `op` reads that holds no value: a select reads its
/// condition, and then only the arm it picks (a condition that is not an
/// `i1` fails in [`RegOp::exec`] first).
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

#[cold]
#[inline(never)]
fn malformed_phi(iid: InstId, pred: BlockId) -> InterpError {
    InterpError::UnsupportedOp(format!("phi {iid:?} has no result or no incoming from {pred:?}"))
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

    /// Run `f` with no arguments: the error's text.
    fn run_err(f: &Function) -> String {
        let mut mem = SimMemory::new(1 << 12);
        run_function(f, &[], &mut mem, 100, &mut NoHooks).unwrap_err().to_string()
    }

    #[test]
    fn a_branch_to_a_missing_block_is_a_typed_error() {
        let mut b = FunctionBuilder::new("f", &[], None);
        b.br(BlockId(7));
        let err = run_err(&b.finish_unverified());
        assert!(err.contains("refers to an unknown block"), "{err}");
    }

    #[test]
    fn a_missing_instruction_is_a_typed_error() {
        let mut b = FunctionBuilder::new("f", &[], None);
        b.ret(None);
        let mut f = b.finish_unverified();
        f.blocks[0].insts.insert(0, InstId(9));
        let err = run_err(&f);
        assert!(err.contains("reference to unknown instruction"), "{err}");
    }

    #[test]
    fn a_missing_value_is_a_typed_error() {
        let mut b = FunctionBuilder::new("f", &[], Some(Ty::I32));
        b.ret(Some(ValueId(9)));
        let err = run_err(&b.finish_unverified());
        assert!(err.contains("refers to an unknown value"), "{err}");
    }

    #[test]
    fn a_block_with_no_terminator_and_no_instruction_fails_instead_of_hanging() {
        // `entry: br body; body:` with nothing in `body`, or only a phi:
        // running `body` again spends no fuel.
        for phi in [false, true] {
            let mut b = FunctionBuilder::new("f", &[], Some(Ty::I32));
            let body = b.append_block("body");
            let seven = b.const_i32(7);
            b.br(body);
            b.switch_to(body);
            if phi {
                let p = b.phi(Ty::I32, "p");
                b.add_phi_incoming(p, b.entry_block(), seven);
            }
            let f = b.finish_unverified();
            let (tx, rx) = std::sync::mpsc::channel();
            let run = std::thread::spawn(move || {
                let mut mem = SimMemory::new(1 << 12);
                let _ = tx.send(run_function(&f, &[], &mut mem, 1000, &mut NoHooks));
            });
            // A run that never stops fails here, instead of hanging the test.
            let wait = std::time::Duration::from_secs(10);
            let err = rx.recv_timeout(wait).expect("the run did not stop").unwrap_err();
            run.join().expect("the run thread finished");
            let want = format!("block {body} does not end in a terminator");
            assert!(err.to_string().contains(&want), "{err}");
        }
    }
}
