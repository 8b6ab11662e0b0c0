//! A program with two hot loops: CGPA compiles each into its own
//! accelerator (own loop id, tasks, and FIFOs) and the rewritten parent
//! forks them in sequence — scheduling constraint 2 (eq. 2) keeps the two
//! `parallel_fork`s in different cycles.
//!
//! ```text
//! cargo run --release --example multi_loop_program
//! ```

use cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Ty};
use cgpa_sim::{interp, run_with_accelerator, HwConfig, HwSystem, SimMemory, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Loop 1 scales an array; loop 2 computes the sum of squares of the
    // result. Loop 2's input is loop 1's output — the parent sequences the
    // accelerators.
    let mut bld = FunctionBuilder::new(
        "scale_then_sumsq",
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
    let func = bld.finish()?;

    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let rb = mm.add_region("b", 4, false, true);
    mm.bind_param(0, ra);
    mm.bind_param(1, rb);

    let prog = CgpaCompiler::new(CgpaConfig::default()).compile_program(&func, &mm)?;
    println!("{} accelerated loops:", prog.accelerators.len());
    for acc in &prog.accelerators {
        println!(
            "  loop {}: shape {} ({} tasks, {} queues)",
            acc.pipeline.loop_id,
            acc.shape,
            acc.pipeline.tasks.len(),
            acc.pipeline.queues.len()
        );
    }

    // Workload + run.
    let n_items = 200u32;
    let mut mem = SimMemory::new(1 << 18);
    let abuf = mem.alloc(4 * n_items, 4);
    let bbuf = mem.alloc(4 * n_items, 4);
    for k in 0..n_items {
        mem.write_i32(abuf + 4 * k, k as i32 % 13 - 6);
    }
    let args = vec![Value::Ptr(abuf), Value::Ptr(bbuf), Value::I32(n_items as i32)];
    let mut ref_mem = mem.clone();
    let (ref_ret, _) =
        interp::run_function(&func, &args, &mut ref_mem, 100_000_000, &mut interp::NoHooks)?;
    let mut cycles = Vec::new();
    let (ret, _) = run_with_accelerator(
        &prog.parent,
        &args,
        &mut mem,
        100_000_000,
        &mut |loop_id: u32, live_ins: &[Value], m: &mut SimMemory| {
            let pm = &prog.accelerators[loop_id as usize].pipeline;
            let mut sys = HwSystem::for_pipeline(pm, live_ins, HwConfig::default());
            let stats = sys.run(m).map_err(|e| e.to_string())?;
            cycles.push((loop_id, stats.cycles));
            Ok(sys.liveouts().to_vec())
        },
    )?;
    for (id, cy) in &cycles {
        println!("loop {id} accelerator: {cy} cycles");
    }
    println!("program result (sum of squares): {ret:?}, reference: {ref_ret:?}");
    assert_eq!(ret, ref_ret);
    assert_eq!(mem.read_bytes(0, mem.size()), ref_mem.read_bytes(0, ref_mem.size()));
    println!("results match");
    Ok(())
}
