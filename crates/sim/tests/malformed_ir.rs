//! Malformed IR through both executors: the reference interpreter and a
//! single worker lower only functions the IR verifier accepts, so each
//! function below, which the verifier rejects, fails before it runs, with
//! the verifier's error, in `run_function`, `run_with_accelerator` and
//! both simulator engines alike.

use cgpa_ir::builder::FunctionBuilder;
use cgpa_ir::verify::verify;
use cgpa_ir::{BinOp, BlockId, Function, InstId, Ty, ValueId};
use cgpa_sim::interp::{run_function, run_with_accelerator, NoHooks};
use cgpa_sim::{HwConfig, HwError, HwSystem, InterpError, SimEngine, SimMemory, Value};

/// One malformed function: what is wrong with it, text the verifier's
/// error must contain, the function, and arguments of the right arity.
struct Row {
    what: &'static str,
    want: &'static str,
    func: Function,
    args: Vec<Value>,
}

/// `fn f(a: ptr, n: i32) -> ptr`: `p = a + 4n` and `i = n + n` are defined
/// only on the branch not taken; the exit block reads them through a
/// select and a gep.
fn select_and_gep_read_values_defined_on_the_branch_not_taken() -> Function {
    let mut b = FunctionBuilder::new("f", &[("a", Ty::Ptr), ("n", Ty::I32)], Some(Ty::Ptr));
    let (a, n) = (b.param(0), b.param(1));
    let def = b.append_block("def");
    let exit = b.append_block("exit");
    let no = b.const_bool(false);
    b.cond_br(no, def, exit);
    b.switch_to(def);
    let p = b.gep(a, n, 4, 0);
    let i = b.binary(BinOp::Add, n, n);
    b.br(exit);
    b.switch_to(exit);
    let s = b.select(no, a, p);
    let g = b.gep(s, i, 4, 0);
    b.ret(Some(g));
    b.finish_unverified()
}

/// `fn f(n: i32) -> i32`: `ret v` reads a value defined only on the branch
/// not taken.
fn ret_reads_a_value_defined_on_the_branch_not_taken() -> Function {
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
    b.finish_unverified()
}

/// `entry: br exit; exit: p = phi []; ret p`.
fn phi_without_an_incoming_for_its_edge() -> Function {
    let mut b = FunctionBuilder::new("g", &[], Some(Ty::I32));
    let exit = b.append_block("exit");
    b.br(exit);
    b.switch_to(exit);
    let p = b.phi(Ty::I32, "p");
    b.ret(Some(p));
    b.finish_unverified()
}

/// `entry: br body; body: p = phi [entry: 7]; p + 1` and no terminator.
fn block_without_a_terminator() -> Function {
    let mut b = FunctionBuilder::new("f", &[], Some(Ty::I32));
    let body = b.append_block("body");
    let seven = b.const_i32(7);
    b.br(body);
    b.switch_to(body);
    let p = b.phi(Ty::I32, "p");
    let one = b.const_i32(1);
    b.binary(BinOp::Add, p, one);
    b.add_phi_incoming(p, b.entry_block(), seven);
    b.finish_unverified()
}

/// `entry: br body; body:` with nothing in `body`.
fn empty_block() -> Function {
    let mut b = FunctionBuilder::new("f", &[], None);
    let body = b.append_block("body");
    b.br(body);
    b.finish_unverified()
}

/// `x = n + n; store n, a; ret x`, with the store's result set to `x` or
/// the add's cleared.
fn add_and_store(store_names_x: bool) -> Function {
    let mut b = FunctionBuilder::new("f", &[("a", Ty::Ptr), ("n", Ty::I32)], Some(Ty::I32));
    let (a, n) = (b.param(0), b.param(1));
    let x = b.binary(BinOp::Add, n, n);
    let st = b.store(a, n);
    b.ret(Some(x));
    let mut f = b.finish_unverified();
    if store_names_x {
        f.insts[st.index()].result = Some(x);
    } else {
        f.insts[0].result = None;
    }
    f
}

fn branch_to_an_unknown_block() -> Function {
    let mut b = FunctionBuilder::new("f", &[], None);
    b.br(BlockId(7));
    b.finish_unverified()
}

fn unknown_instruction() -> Function {
    let mut b = FunctionBuilder::new("f", &[], None);
    b.ret(None);
    let mut f = b.finish_unverified();
    f.blocks[0].insts.insert(0, InstId(9));
    f
}

fn unknown_value() -> Function {
    let mut b = FunctionBuilder::new("f", &[], Some(Ty::I32));
    b.ret(Some(ValueId(9)));
    b.finish_unverified()
}

fn rows() -> Vec<Row> {
    let ptr_i32 = vec![Value::Ptr(64), Value::I32(1)];
    let row = |what, want, func, args: &[Value]| Row { what, want, func, args: args.to_vec() };
    vec![
        row(
            "a select and a gep read values defined on the branch not taken",
            "is not dominated by its definition",
            select_and_gep_read_values_defined_on_the_branch_not_taken(),
            &ptr_i32,
        ),
        row(
            "a ret reads a value defined on the branch not taken",
            "is not dominated by its definition",
            ret_reads_a_value_defined_on_the_branch_not_taken(),
            &[Value::I32(1)],
        ),
        row(
            "a phi has no incoming value for its edge",
            "does not match predecessors",
            phi_without_an_incoming_for_its_edge(),
            &[],
        ),
        row(
            "a block has no terminator",
            "block bb1 does not end in a terminator",
            block_without_a_terminator(),
            &[],
        ),
        row("a block is empty", "block bb1 does not end in a terminator", empty_block(), &[]),
        row(
            "a store names a result",
            "does not name exactly the value its op yields",
            add_and_store(true),
            &ptr_i32,
        ),
        row(
            "an add names no result",
            "does not name exactly the value its op yields",
            add_and_store(false),
            &ptr_i32,
        ),
        row(
            "a branch names an unknown block",
            "refers to an unknown block",
            branch_to_an_unknown_block(),
            &[],
        ),
        row(
            "a block lists an unknown instruction",
            "reference to unknown instruction",
            unknown_instruction(),
            &[],
        ),
        row("a ret reads an unknown value", "refers to an unknown value", unknown_value(), &[]),
    ]
}

#[test]
fn every_executor_rejects_malformed_ir_with_the_verifiers_error() {
    for Row { what, want, func, args } in rows() {
        let e = verify(&func).expect_err(what);
        assert!(e.to_string().contains(want), "{what}: {e}");
        let malformed = Err(InterpError::Malformed(e.clone()));

        let mut mem = SimMemory::new(1 << 12);
        assert_eq!(run_function(&func, &args, &mut mem, 1000, &mut NoHooks), malformed, "{what}");
        let mut accelerator = |_: u32, _: &[Value], _: &mut SimMemory| Ok(Vec::new());
        let run = run_with_accelerator(&func, &args, &mut mem, 1000, &mut accelerator);
        assert_eq!(run, malformed, "{what}");

        for engine in [SimEngine::EventDriven, SimEngine::PerCycle] {
            let cfg = HwConfig { engine, ..HwConfig::default() };
            let err = HwSystem::for_single(&func, &args, cfg).run(&mut mem).unwrap_err();
            let HwError::Malformed { worker: 0, inst } = &err else {
                panic!("{what}, {engine:?}: {err:?}");
            };
            assert!(inst.contains(&e.to_string()), "{what}, {engine:?}: {err}");
        }
    }
}
