//! Negative tests: the flow harness must *catch* bad inputs — unsound
//! alias annotations that parallelize a genuinely sequential loop, and
//! undersized simulations.

use cgpa::compiler::{CgpaCompiler, CgpaConfig, CompileError};
use cgpa::flows::{run_cgpa, run_mips, FlowError};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Function, Ty};
use cgpa_kernels::{BuiltKernel, ReferenceCache};
use cgpa_pipeline::PartitionError;
use cgpa_sim::{SimMemory, Value};

/// `for (i = 0; i < n; i++) *acc = *acc + a[i];` — a memory-carried
/// reduction through one cell.
fn acc_loop() -> Function {
    let mut b =
        FunctionBuilder::new("acc", &[("a", Ty::Ptr), ("acc", Ty::Ptr), ("n", Ty::I32)], None);
    let a = b.param(0);
    let acc = b.param(1);
    let n = b.param(2);
    let header = b.append_block("header");
    let body = b.append_block("body");
    let exit = b.append_block("exit");
    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Ty::I32, "i");
    let c = b.icmp(IntPredicate::Slt, i, n);
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let pa = b.gep(a, i, 4, 0);
    let x = b.load(pa, Ty::I32);
    let cur = b.load(acc, Ty::I32);
    let s = b.binary(BinOp::Add, cur, x);
    b.store(acc, s);
    let i2 = b.binary(BinOp::Add, i, one);
    b.br(header);
    b.switch_to(exit);
    b.ret(None);
    b.add_phi_incoming(i, b.entry_block(), zero);
    b.add_phi_incoming(i, body, i2);
    b.finish().unwrap()
}

fn workload(func: Function, model: MemoryModel) -> BuiltKernel {
    let mut mem = SimMemory::new(1 << 16);
    let a = mem.alloc(4 * 64, 4);
    let acc = mem.alloc(4, 4);
    for i in 0..64 {
        mem.write_i32(a + 4 * i, i as i32 + 1);
    }
    mem.write_i32(acc, 0);
    BuiltKernel {
        name: "acc".to_string(),
        domain: "test",
        description: "memory-carried accumulator",
        func,
        model,
        mem,
        args: vec![Value::Ptr(a), Value::Ptr(acc), Value::I32(64)],
        iterations: 64,
        reference_cache: ReferenceCache::default(),
    }
}

#[test]
fn sound_annotations_reject_the_sequential_loop() {
    // Honest model: `acc` is read-write, NOT distinct per iteration.
    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let racc = mm.add_region("acc", 4, false, false);
    mm.bind_param(0, ra);
    mm.bind_param(1, racc);
    let k = workload(acc_loop(), mm);
    let err = CgpaCompiler::new(CgpaConfig::default()).compile(&k.func, &k.model).unwrap_err();
    assert!(matches!(err, CompileError::Partition(PartitionError::NoParallelWork)));
}

#[test]
fn unsound_annotations_are_caught_by_verification() {
    // A *lying* model claims the accumulator cell is touched by a different
    // address every iteration. The partitioner then believes the loop is
    // parallel; the harness must catch the wrong result rather than report
    // a bogus speedup.
    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let racc = mm.add_region("acc", 4, false, true); // FALSE claim
    mm.bind_param(0, ra);
    mm.bind_param(1, racc);
    let k = workload(acc_loop(), mm);
    match run_cgpa(&k, CgpaConfig::default()) {
        Err(FlowError::Mismatch(msg)) => {
            // The report pinpoints the corrupted words.
            assert!(msg.contains("differing word"), "diff report missing: {msg}");
        }
        Err(FlowError::Compile(_)) => {} // also acceptable: refused earlier
        Ok(r) => {
            // If the round-robin interleaving happens to produce the right
            // sum the run could pass — integer addition is commutative and
            // each worker read-modify-writes non-atomically, so in practice
            // updates are lost. Accept only a verified-correct result.
            panic!("unsound annotation produced a 'verified' run: {r:?}");
        }
        Err(other) => panic!("unexpected failure mode: {other}"),
    }
}

#[test]
fn a_mistyped_argument_is_an_interp_error_not_a_panic() {
    // The IR verifier checks instruction types, not the runtime arguments:
    // the accumulator's `Ptr` parameter is passed an `I32`, so its first
    // load has no address.
    let mut k = workload(acc_loop(), MemoryModel::new());
    k.args[1] = Value::I32(64);
    match run_mips(&k) {
        Err(FlowError::Interp(msg)) => assert!(msg.contains("expected ptr"), "{msg}"),
        other => panic!("expected an interp error, got {other:?}"),
    }
}

#[test]
fn fuel_exhaustion_is_reported_not_hung() {
    use cgpa_kernels::em3d;
    use cgpa_sim::{HwConfig, HwSystem};
    let k = em3d::build(&em3d::Params::fixed(200, 200, 8, 16), 1);
    let compiled = CgpaCompiler::new(CgpaConfig::default()).compile(&k.func, &k.model).unwrap();
    let cfg = HwConfig { fuel_cycles: 50, ..HwConfig::default() };
    // Drive the accelerator directly with the kernel head pointer.
    let mut mem = k.mem.clone();
    let mut sys = HwSystem::for_pipeline(&compiled.pipeline, &k.args[..1], cfg);
    let err = sys.run(&mut mem).unwrap_err();
    assert!(matches!(err, cgpa_sim::HwError::Timeout { .. }));
}

/// The accumulator loop with the reduction poisoned by a `Ptr * Ptr`
/// multiply — both operands are int-like so the IR verifier accepts it,
/// but the execution model gives it no semantics.
fn ptr_mul_loop() -> Function {
    let mut b =
        FunctionBuilder::new("acc", &[("a", Ty::Ptr), ("acc", Ty::Ptr), ("n", Ty::I32)], None);
    let a = b.param(0);
    let acc = b.param(1);
    let n = b.param(2);
    let header = b.append_block("header");
    let body = b.append_block("body");
    let exit = b.append_block("exit");
    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Ty::I32, "i");
    let c = b.icmp(IntPredicate::Slt, i, n);
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let pa = b.gep(a, i, 4, 0);
    let bad = b.binary(BinOp::Mul, pa, pa); // Ptr x Ptr: verifier-legal, unexecutable
    b.store(acc, bad);
    let i2 = b.binary(BinOp::Add, i, one);
    b.br(header);
    b.switch_to(exit);
    b.ret(None);
    b.add_phi_incoming(i, b.entry_block(), zero);
    b.add_phi_incoming(i, body, i2);
    b.finish().unwrap()
}

#[test]
fn unsupported_op_is_a_typed_error_on_every_rung() {
    use cgpa::compiler::DegradedCompile;
    use cgpa_sim::{run_function, HwConfig, HwSystem, InterpError, NoHooks};

    // Honest model: `acc` is read-write through one cell, so every pipeline
    // shape is refused and the degradation ladder lands on the sequential
    // rung — exactly where the bad op must surface as an error.
    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let racc = mm.add_region("acc", 4, false, false);
    mm.bind_param(0, ra);
    mm.bind_param(1, racc);
    let k = workload(ptr_mul_loop(), mm);

    // Functional interpreter: typed error naming the op, not a panic.
    let mut mem = k.mem.clone();
    let err = run_function(&k.func, &k.args, &mut mem, 1_000_000, &mut NoHooks).unwrap_err();
    assert!(matches!(err, InterpError::UnsupportedOp(_)), "want UnsupportedOp, got {err:?}");
    assert!(err.to_string().contains("Mul"), "error should name the op: {err}");

    // Degraded compile still accepts the kernel (nothing about the op is
    // structurally wrong) — and the cycle-level simulator then reports the
    // op as `HwError::Unsupported` instead of aborting the process,
    // whichever rung the ladder landed on.
    let degraded =
        CgpaCompiler::new(CgpaConfig::default()).compile_degraded(&k.func, &k.model).unwrap();
    let mut mem = k.mem.clone();
    let err = match &degraded {
        DegradedCompile::Pipeline { compiled, .. } => {
            // The parent's live-ins are exactly the kernel arguments here.
            let mut sys = HwSystem::for_pipeline(&compiled.pipeline, &k.args, HwConfig::default());
            sys.run(&mut mem).unwrap_err()
        }
        DegradedCompile::Sequential { .. } => {
            let mut sys = HwSystem::for_single(&k.func, &k.args, HwConfig::default());
            sys.run(&mut mem).unwrap_err()
        }
    };
    assert!(
        matches!(err, cgpa_sim::HwError::Unsupported(_)),
        "want HwError::Unsupported, got {err:?}"
    );
}
