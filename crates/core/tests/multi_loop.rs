//! Multi-loop programs: every outermost loop becomes its own accelerator
//! with its own `loop_id`, and the parent forks them in sequence —
//! exercising scheduling constraints 1 and 2 (eqs. 1–2) end to end.

use cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Function, Op, Ty};
use cgpa_sim::interp::{run_function, NoHooks};
use cgpa_sim::{run_with_accelerator, HwConfig, HwSystem, SimMemory, Value};

/// Two hot loops in one function:
/// `for i { b[i] = a[i] * 3 }  then  for j { s += b[j]*b[j] }  return s`.
fn two_loop_program() -> (Function, MemoryModel) {
    let mut bld = FunctionBuilder::new(
        "two",
        &[("a", Ty::Ptr), ("b", Ty::Ptr), ("n", Ty::I32)],
        Some(Ty::I32),
    );
    let a = bld.param(0);
    let bp = bld.param(1);
    let n = bld.param(2);
    let h1 = bld.append_block("h1");
    let b1 = bld.append_block("b1");
    let mid = bld.append_block("mid");
    let h2 = bld.append_block("h2");
    let b2 = bld.append_block("b2");
    let exit = bld.append_block("exit");
    let zero = bld.const_i32(0);
    let one = bld.const_i32(1);
    let three = bld.const_i32(3);
    bld.br(h1);
    // Loop 1: scale.
    bld.switch_to(h1);
    let i = bld.phi(Ty::I32, "i");
    let c1 = bld.icmp(IntPredicate::Slt, i, n);
    bld.cond_br(c1, b1, mid);
    bld.switch_to(b1);
    let pa = bld.gep(a, i, 4, 0);
    let x = bld.load(pa, Ty::I32);
    let y = bld.binary(BinOp::Mul, x, three);
    let pb = bld.gep(bp, i, 4, 0);
    bld.store(pb, y);
    let i2 = bld.binary(BinOp::Add, i, one);
    bld.br(h1);
    bld.switch_to(mid);
    bld.br(h2);
    // Loop 2: sum.
    bld.switch_to(h2);
    let j = bld.phi(Ty::I32, "j");
    let s = bld.phi(Ty::I32, "s");
    let c2 = bld.icmp(IntPredicate::Slt, j, n);
    bld.cond_br(c2, b2, exit);
    bld.switch_to(b2);
    let pb2 = bld.gep(bp, j, 4, 0);
    let v = bld.load(pb2, Ty::I32);
    let vv = bld.binary(BinOp::Mul, v, v);
    let s2 = bld.binary(BinOp::Add, s, vv);
    let j2 = bld.binary(BinOp::Add, j, one);
    bld.br(h2);
    bld.switch_to(exit);
    bld.ret(Some(s));
    bld.add_phi_incoming(i, bld.entry_block(), zero);
    bld.add_phi_incoming(i, b1, i2);
    bld.add_phi_incoming(j, mid, zero);
    bld.add_phi_incoming(j, b2, j2);
    bld.add_phi_incoming(s, mid, zero);
    bld.add_phi_incoming(s, b2, s2);
    let f = bld.finish().unwrap();

    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    // `b` is written by loop 1 (distinct per iteration) and read by loop 2.
    let rb = mm.add_region("b", 4, false, true);
    mm.bind_param(0, ra);
    mm.bind_param(1, rb);
    (f, mm)
}

#[test]
fn both_loops_become_accelerators_with_distinct_ids() {
    let (f, mm) = two_loop_program();
    let prog = CgpaCompiler::new(CgpaConfig::default()).compile_program(&f, &mm).unwrap();
    assert_eq!(prog.accelerators.len(), 2);
    assert_eq!(prog.accelerators[0].pipeline.loop_id, 0);
    assert_eq!(prog.accelerators[1].pipeline.loop_id, 1);
    assert_eq!(prog.accelerators[0].shape, "P"); // scale: pure map
    assert_eq!(prog.accelerators[1].shape, "P-S"); // sum: map + reduction

    // Constraint 2 observable: the parent has two forks in different FSM
    // states.
    let forks: Vec<_> = prog
        .parent
        .insts
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i.op, Op::ParallelFork { .. }))
        .map(|(idx, _)| cgpa_ir::InstId(idx as u32))
        .collect();
    assert_eq!(forks.len(), 2);
    let fsm = cgpa_rtl::schedule::schedule_function(&prog.parent);
    cgpa_rtl::schedule::verify_schedule(&prog.parent, &fsm).unwrap();
    assert_ne!(fsm.state_of[forks[0].index()], fsm.state_of[forks[1].index()]);
}

#[test]
fn multi_loop_program_runs_and_matches_reference() {
    let (f, mm) = two_loop_program();
    let prog = CgpaCompiler::new(CgpaConfig::default()).compile_program(&f, &mm).unwrap();

    let n = 60u32;
    let mut mem = SimMemory::new(1 << 16);
    let a = mem.alloc(4 * n, 4);
    let b = mem.alloc(4 * n, 4);
    for i in 0..n {
        mem.write_i32(a + 4 * i, i as i32 - 20);
        mem.write_i32(b + 4 * i, 0);
    }
    let args = vec![Value::Ptr(a), Value::Ptr(b), Value::I32(n as i32)];

    let mut ref_mem = mem.clone();
    let (ref_ret, _) = run_function(&f, &args, &mut ref_mem, 10_000_000, &mut NoHooks).unwrap();

    let mut hw_mem = mem.clone();
    let mut forks_seen = Vec::new();
    let (hw_ret, _) = run_with_accelerator(
        &prog.parent,
        &args,
        &mut hw_mem,
        10_000_000,
        &mut |loop_id: u32, live_ins: &[Value], m: &mut SimMemory| {
            forks_seen.push(loop_id);
            let pm = &prog.accelerators[loop_id as usize].pipeline;
            let mut sys = HwSystem::for_pipeline(pm, live_ins, HwConfig::default());
            sys.run(m).map_err(|e| e.to_string())?;
            Ok(sys.liveouts().to_vec())
        },
    )
    .unwrap();
    assert_eq!(forks_seen, vec![0, 1]);
    assert_eq!(hw_ret, ref_ret);
    assert_eq!(hw_mem.read_bytes(0, hw_mem.size()), ref_mem.read_bytes(0, ref_mem.size()));
}

#[test]
fn loopless_program_is_rejected() {
    let mut b = FunctionBuilder::new("s", &[("x", Ty::I32)], Some(Ty::I32));
    let x = b.param(0);
    b.ret(Some(x));
    let f = b.finish().unwrap();
    let err = CgpaCompiler::default().compile_program(&f, &MemoryModel::new());
    assert!(matches!(err, Err(cgpa::compiler::CompileError::NoTargetLoop)));
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Pins `compile_program`'s output: every accelerator's printed task module,
/// its rewritten parent, its FSMs and its Verilog, then the final parent. A
/// deliberate change to the compiler's output has to update the hash.
#[test]
fn compile_program_output_matches_golden_fingerprint() {
    use cgpa_ir::printer::{print_function, print_module};
    let (f, mm) = two_loop_program();
    let compiler = CgpaCompiler::new(CgpaConfig::default());
    let prog = compiler.compile_program(&f, &mm).unwrap();
    let mut text = String::new();
    for acc in &prog.accelerators {
        text.push_str(&print_module(&acc.pipeline.module));
        text.push_str(&print_function(&acc.pipeline.parent));
        text.push_str(&format!("{:?}", acc.fsms));
        text.push_str(&compiler.emit_verilog(acc));
    }
    text.push_str(&print_function(&prog.parent));
    assert_eq!(
        format!("{:016x}", fnv1a(text.as_bytes())),
        "399b92b648e5d973",
        "compile_program output drifted"
    );
}
