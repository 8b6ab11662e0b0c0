//! Functional reference interpreter for original (un-transformed) kernel
//! functions.
//!
//! Every hardware run in this workspace is validated against this
//! interpreter: same inputs, same simulated memory layout, same results.
//! A hook trait lets the MIPS timing model ride along without duplicating
//! the semantics.
//!
//! Each call checks the arity, then lowers its function into the
//! datapath's decoded form (the crate-private `datapath::Program`), cut
//! into one state per block, and runs that. Lowering takes only a function
//! that passes the IR verifier, exactly as a worker's does; a function the
//! verifier rejects is [`InterpError::Malformed`], and one that holds an
//! op the run cannot execute (a queue or liveout port, or a host primitive
//! outside [`run_with_accelerator`]) is [`InterpError::UnsupportedOp`].
//! Each argument's type is then checked against its parameter's
//! ([`InterpError::BadArgument`]). All of this happens before the first
//! instruction runs, so every register a run reads holds a value of its
//! declared type that an earlier instruction wrote, and the registers hold
//! untyped bits. The run keeps the interpreter's observable contract: the
//! `executed` count (phis and terminators included), fuel (one unit per
//! non-phi instruction), `BadArity`, the hook order the MIPS model relies
//! on (`on_inst` for each phi after its edge's `on_branch`, then for each
//! instruction before it runs; `on_mem` before the access), and each
//! error's text.

use crate::datapath::{Cut, Exit, MicroOp, Program, Verified};
use crate::exec::reg;
use crate::mem::{OutOfRange, SimMemory};
use crate::value::Value;
use cgpa_ir::verify::VerifyError;
use cgpa_ir::{Function, InstId, Ty};
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
    /// Argument `index` is not of its parameter's type (checked before the
    /// first instruction).
    BadArgument {
        /// Position of the argument.
        index: usize,
        /// The parameter's declared type.
        expected: Ty,
        /// The argument's type.
        got: Ty,
    },
    /// The function holds an op the run cannot execute (a queue or liveout
    /// port, or a host primitive outside [`run_with_accelerator`]), or the
    /// accelerator failed or never stored a retrieved liveout.
    UnsupportedOp(String),
    /// Liveout register `slot` holds a value of another type than the
    /// `retrieve_liveout` that reads it.
    BadLiveout {
        /// The liveout register.
        slot: u32,
        /// The type the retrieval declares.
        expected: Ty,
        /// The type of the value the accelerator stored.
        got: Ty,
    },
    /// A load or store fell outside simulated memory.
    OutOfRange {
        /// First byte of the access.
        addr: u32,
        /// Access width in bytes.
        width: u32,
    },
    /// The function fails the IR verifier (checked before the run).
    Malformed(VerifyError),
}

impl From<OutOfRange> for InterpError {
    fn from(e: OutOfRange) -> Self {
        InterpError::OutOfRange { addr: e.addr, width: e.width }
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfFuel => f.write_str("interpreter ran out of fuel"),
            InterpError::BadArity { expected, got } => {
                write!(f, "expected {expected} arguments, got {got}")
            }
            InterpError::BadArgument { index, expected, got } => {
                write!(f, "argument {index}: expected {expected}, got {got}")
            }
            InterpError::UnsupportedOp(op) => {
                write!(f, "cannot interpret {op}")
            }
            InterpError::BadLiveout { slot, expected, got } => {
                write!(f, "liveout {slot}: expected {expected}, got {got}")
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

/// Run `func` from the entry block, lowered one state per block.
///
/// Every instruction counts as executed and reaches `on_inst` before it
/// runs (a phi when its edge is taken, after the branch's `on_branch`); an
/// access reaches `on_mem` before it touches memory. Each non-phi
/// instruction spends one unit of fuel. Host primitives lower only when
/// `primitives` is set.
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
    let verified = Verified::new(func).map_err(InterpError::Malformed)?;
    let prog = Program::new(verified, Cut::Blocks { host: primitives })
        .map_err(|i| InterpError::UnsupportedOp(format!("{:?}", func.inst(i).op)))?;
    // Parameters and constants hold values from the start.
    let mut regs = prog.reset(args)?;
    let mut executed = 0u64;
    let mut liveout_regs: Vec<Option<Value>> = Vec::new();
    // Phi staging buffer: the copies of an edge are parallel.
    let mut staged: Vec<u64> = Vec::new();
    let mut state = 0;
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
        // Ops run in place: copying each one out of the table first
        // compiled to a markedly slower loop.
        for (op, &iid) in prog.ops[ops.clone()].iter().zip(&prog.op_inst[ops]) {
            start!(iid);
            match *op {
                MicroOp::Reg(ref op) => op.exec(&mut regs),
                MicroOp::Load { dst, addr, ty } => {
                    let a = regs[addr as usize] as u32;
                    hooks.on_mem(a, ty.size_bytes(), false);
                    regs[dst as usize] = mem.read_value(a, ty)?.to_bits();
                }
                MicroOp::Store { addr, value, ty } => {
                    let a = regs[addr as usize] as u32;
                    hooks.on_mem(a, ty.size_bytes(), true);
                    mem.write_value(a, Value::from_bits(ty, regs[value as usize]))?;
                }
                MicroOp::Fork { loop_id } => {
                    let live_in = |v| Value::from_bits(func.value_ty(v), regs[reg(v) as usize]);
                    let vals_in: Vec<Value> = func.inst(iid).op.operands().map(live_in).collect();
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
                MicroOp::Join => {}
                MicroOp::Retrieve { dst, slot, ty } => {
                    let v =
                        liveout_regs.get(slot as usize).copied().flatten().ok_or_else(|| {
                            InterpError::UnsupportedOp(format!("liveout {slot} never stored"))
                        })?;
                    if v.ty() != ty {
                        return Err(InterpError::BadLiveout { slot, expected: ty, got: v.ty() });
                    }
                    regs[dst as usize] = v.to_bits();
                }
                // Lowering for the interpreter rejects queue and liveout
                // ports.
                MicroOp::Produce { .. }
                | MicroOp::Broadcast { .. }
                | MicroOp::Consume { .. }
                | MicroOp::StoreLiveout { .. } => {}
            }
        }
        let edge = match st.exit {
            Exit::Next => {
                state += 1;
                continue;
            }
            Exit::Jump(edge) => {
                start!(st.term);
                hooks.on_branch(false);
                edge
            }
            Exit::Branch { cond, on_true, on_false } => {
                start!(st.term);
                let taken = regs[cond as usize] != 0;
                hooks.on_branch(taken);
                if taken {
                    on_true
                } else {
                    on_false
                }
            }
            Exit::Ret(value) => {
                start!(st.term);
                return Ok((value.map(|(r, ty)| Value::from_bits(ty, regs[r as usize])), executed));
            }
        };
        for &phi in &prog.copy_phi[edge.copies.0 as usize..edge.copies.1 as usize] {
            hooks.on_inst(func, phi);
            executed += 1;
        }
        prog.copy_phis(edge, &mut regs, &mut staged);
        state = edge.next as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, BlockId, Ty, ValueId};

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
