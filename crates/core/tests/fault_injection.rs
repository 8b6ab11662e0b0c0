//! Fault-injection matrix and graceful-degradation acceptance tests.
//!
//! The robustness contract under test:
//!
//! - **timing faults** (worker stalls, cache-port contention, memory-latency
//!   bursts) are *tolerated* — the run completes and verifies bit-exactly
//!   against the functional reference;
//! - **data faults** (dropped/duplicated FIFO beats, payload bit flips) are
//!   *detected* — a typed [`HwError::Fault`] with a diagnostic dump, never a
//!   panic and never a silent mismatch;
//! - kernels the partitioner rejects still compile through the degradation
//!   ladder (P2 → P1 → sequential), with the rung recorded in the
//!   [`RunResult`].
//!
//! [`RunResult`]: cgpa::flows::RunResult

use cgpa::compiler::{CgpaCompiler, CgpaConfig, CompileError, DegradationRung};
use cgpa::flows::{run, run_cgpa, run_cgpa_tuned, FlowError, HwTuning, RunResult, RunSpec, Target};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Ty};
use cgpa_kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel, ReferenceCache};
use cgpa_pipeline::{PartitionError, ReplicablePlacement};
use cgpa_sim::{FaultClass, FaultKind, FaultPlan, HwError};
use cgpa_sim::{SimMemory, Value};

/// A default CGPA(P1) run of `k` with `plan` armed.
fn run_with_faults(k: &BuiltKernel, plan: FaultPlan) -> Result<RunResult, FlowError> {
    run(k, &RunSpec { faults: Some(plan), ..RunSpec::new(Target::Cgpa(CgpaConfig::default())) })
}

/// A run of `config` through the degradation ladder.
fn run_degraded(k: &BuiltKernel, config: CgpaConfig) -> Result<RunResult, FlowError> {
    run(k, &RunSpec { degrade: true, ..RunSpec::new(Target::Cgpa(config)) })
}

/// All five paper benchmarks at matrix-friendly sizes (same parameters the
/// compiler's Table 2 shape test uses).
fn small_suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 16, clusters: 3, features: 4 }, 1),
        hash_index::build(&hash_index::Params { items: 16, buckets: 8, scatter: 4 }, 1),
        ks::build(&ks::Params { a_cells: 6, b_cells: 6, scatter: 4 }, 1),
        em3d::build(&em3d::Params::fixed(8, 8, 3, 4), 1),
        gaussblur::build(&gaussblur::Params { width: 32 }, 1),
    ]
}

/// The tentpole matrix: five kernels × six fault classes × three seeds.
/// Every cell must either tolerate the fault (bit-exact result) or detect
/// it as a typed `HwError::Fault` — never panic, never silently mismatch.
#[test]
fn fault_matrix_tolerates_or_detects() {
    for k in &small_suite() {
        for class in FaultClass::ALL {
            for seed in [11u64, 23, 47] {
                let plan = FaultPlan::single(class, seed);
                let cell = format!("kernel={} class={class} seed={seed}", k.name);
                match run_with_faults(k, plan) {
                    Ok(r) => {
                        let plan_out = r.faults.expect("plan armed");
                        // A clean finish is bit-exact (the flow verifies
                        // memory + return value internally). A data fault
                        // may only pass cleanly if it never struck.
                        assert!(
                            class.is_timing_only() || !plan_out.corruption_fired(),
                            "{cell}: corrupting fault fired but run passed verification"
                        );
                    }
                    Err(FlowError::Hw(HwError::Fault { kind, detail, .. })) => {
                        assert!(
                            !class.is_timing_only(),
                            "{cell}: timing-only fault was flagged as {kind}"
                        );
                        // The diagnostic dump names workers and queues.
                        assert!(
                            detail.contains("worker") && detail.contains("queue"),
                            "{cell}: diagnostic dump is missing state: {detail}"
                        );
                    }
                    Err(other) => panic!("{cell}: unexpected failure: {other}"),
                }
            }
        }
    }
}

/// The same plan on the same kernel is cycle-for-cycle reproducible.
#[test]
fn injected_runs_are_deterministic() {
    let k = em3d::build(&em3d::Params::fixed(8, 8, 3, 4), 1);
    let run = |seed| {
        let plan = FaultPlan::single(FaultClass::StallWorker, seed);
        run_with_faults(&k, plan).expect("timing fault tolerated")
    };
    let (a, b) = (run(11), run(11));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.faults.expect("plan armed").fired(), b.faults.expect("plan armed").fired());
}

/// A stall that actually lands costs cycles but not correctness.
#[test]
fn tolerated_stall_slows_the_pipeline_down() {
    let k = em3d::build(&em3d::Params::fixed(8, 8, 3, 4), 1);
    let clean = run_cgpa(&k, CgpaConfig::default()).unwrap();
    // Freeze worker 0 for 500 cycles right after startup.
    let plan =
        FaultPlan::new(vec![FaultKind::StallWorker { worker: 0, at_cycle: 10, cycles: 500 }]);
    let faulted = run_with_faults(&k, plan).expect("stall tolerated");
    assert!(
        faulted.faults.as_ref().is_some_and(FaultPlan::any_fired),
        "stall window overlaps the run"
    );
    assert!(
        faulted.cycles > clean.cycles,
        "stalled run ({}) should be slower than clean run ({})",
        faulted.cycles,
        clean.cycles
    );
}

/// A bit flip aimed at the first element of queue 0 is guaranteed to strike
/// and must surface as a parity detection carrying the state dump.
#[test]
fn aimed_bit_flip_is_caught_with_diagnostics() {
    let k = em3d::build(&em3d::Params::fixed(8, 8, 3, 4), 1);
    let plan = FaultPlan::new(vec![FaultKind::BitFlip { queue: 0, at_push: 0, bit: 7 }]);
    let err = run_with_faults(&k, plan).expect_err("corrupted beat must not verify");
    match err {
        FlowError::Hw(HwError::Fault { kind, detail, .. }) => {
            let msg = kind.to_string();
            assert!(msg.contains("parity"), "expected a parity detection, got: {msg}");
            assert!(detail.contains("occupancy"), "dump lacks queue occupancy: {detail}");
        }
        other => panic!("expected HwError::Fault, got: {other}"),
    }
}

/// A fully sequential linked-list reduction: every instruction sits on the
/// cross-iteration dependence chain, so the partitioner rejects it
/// ([`PartitionError::NoParallelWork`]) and only the sequential rung fits.
fn sequential_only_kernel() -> BuiltKernel {
    // Node layout: val f64 @0, next ptr @12; elem 16. acc is one f64 cell.
    let mut mm = MemoryModel::new();
    let nodes = mm.add_region("nodes", 16, false, true);
    let acc = mm.add_region("acc", 8, false, false);
    mm.bind_param(0, nodes);
    mm.bind_param(1, acc);
    mm.field_pointee(nodes, 12, nodes);

    let mut b = FunctionBuilder::new("listsum", &[("head", Ty::Ptr), ("acc", Ty::Ptr)], None);
    let head = b.param(0);
    let accp = b.param(1);
    let header = b.append_block("header");
    let body = b.append_block("body");
    let exit = b.append_block("exit");
    b.br(header);
    b.switch_to(header);
    let p = b.phi(Ty::Ptr, "p");
    let null = b.const_ptr(0);
    let done = b.icmp(IntPredicate::Eq, p, null);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let x = b.load(p, Ty::F64);
    let cur = b.load(accp, Ty::F64);
    let s = b.binary(BinOp::FAdd, cur, x);
    b.store(accp, s);
    let naddr = b.field(p, 12);
    let next = b.load(naddr, Ty::Ptr);
    b.br(header);
    b.switch_to(exit);
    b.ret(None);
    b.add_phi_incoming(p, b.entry_block(), head);
    b.add_phi_incoming(p, body, next);
    let func = b.finish().expect("listsum verifies");

    let n = 24u32;
    let mut mem = SimMemory::new(1 << 16);
    let acc_cell = mem.alloc(8, 8);
    mem.write_f64(acc_cell, 0.0);
    let mut addrs = Vec::new();
    for _ in 0..n {
        addrs.push(mem.alloc(16, 8));
    }
    for (i, &a) in addrs.iter().enumerate() {
        mem.write_f64(a, 0.5 + i as f64);
        mem.write_ptr(a + 12, addrs.get(i + 1).copied().unwrap_or(0));
    }
    BuiltKernel {
        name: "listsum".to_string(),
        domain: "synthetic",
        description: "fully sequential linked-list reduction",
        func,
        model: mm,
        mem,
        args: vec![Value::Ptr(addrs[0]), Value::Ptr(acc_cell)],
        iterations: u64::from(n),
        reference_cache: ReferenceCache::default(),
    }
}

/// The plain compile path rejects the sequential-only kernel outright.
#[test]
fn sequential_only_kernel_fails_plain_compile() {
    let k = sequential_only_kernel();
    let err = CgpaCompiler::new(CgpaConfig::default()).compile(&k.func, &k.model);
    assert!(
        matches!(err, Err(CompileError::Partition(PartitionError::NoParallelWork))),
        "expected NoParallelWork, got: {err:?}"
    );
}

/// The degradation ladder walks P2 → P1 → sequential, records every failed
/// rung, and the run reports the rung it landed on.
#[test]
fn degradation_ladder_lands_on_sequential_rung() {
    let k = sequential_only_kernel();
    let cfg = CgpaConfig { placement: ReplicablePlacement::Replicated, ..CgpaConfig::default() };

    let compiler = CgpaCompiler::new(cfg);
    let degraded =
        compiler.compile_degraded(&k.func, &k.model).expect("sequential fallback schedules");
    assert_eq!(degraded.rung(), DegradationRung::Sequential);

    let r = run_degraded(&k, cfg).expect("fallback run");
    assert_eq!(r.rung, Some(DegradationRung::Sequential));
    assert_eq!(r.config, "CGPA(seq-fallback)");
    assert!(r.cycles > 0);
}

/// A kernel that compiles as requested reports the top rung, not a
/// fallback.
#[test]
fn feasible_kernel_reports_top_rung() {
    let k = em3d::build(&em3d::Params::fixed(8, 8, 3, 4), 1);
    let r = run_degraded(&k, CgpaConfig::default()).expect("em3d compiles at the top rung");
    assert_eq!(r.rung, Some(DegradationRung::Pipelined));
    assert_eq!(r.config, "CGPA(P1)");
}

/// A geometric-series scatter: a pure-register f64 recurrence anchors the
/// sequential stage and streams its running product to the parallel stage,
/// so the cross queue carries two-beat (f64) elements.
fn prefix_product_kernel() -> BuiltKernel {
    let mut mm = MemoryModel::new();
    let out = mm.add_region("out", 8, false, true);
    mm.bind_param(0, out);

    let mut b = FunctionBuilder::new("prefixprod", &[("out", Ty::Ptr), ("n", Ty::I32)], None);
    let op = b.param(0);
    let n = b.param(1);
    let header = b.append_block("header");
    let body = b.append_block("body");
    let exit = b.append_block("exit");
    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    let onef = b.const_f64(1.0);
    let ratio = b.const_f64(1.01);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Ty::I32, "i");
    let prod = b.phi(Ty::F64, "prod");
    let c = b.icmp(IntPredicate::Slt, i, n);
    b.cond_br(c, body, exit);
    b.switch_to(body);
    // Sequential recurrence: prod *= 1.01 (contains a multiply, so it is
    // heavyweight-replicable and anchors a sequential stage under P1).
    let prod2 = b.binary(BinOp::FMul, prod, ratio);
    // Parallel tail: out[i] = prod2^3 (pure function of the cross value).
    let sq = b.binary(BinOp::FMul, prod2, prod2);
    let cube = b.binary(BinOp::FMul, sq, prod2);
    let oa = b.gep(op, i, 8, 0);
    b.store(oa, cube);
    let i2 = b.binary(BinOp::Add, i, one);
    b.br(header);
    b.switch_to(exit);
    b.ret(None);
    b.add_phi_incoming(i, b.entry_block(), zero);
    b.add_phi_incoming(i, body, i2);
    b.add_phi_incoming(prod, b.entry_block(), onef);
    b.add_phi_incoming(prod, body, prod2);
    let func = b.finish().expect("prefixprod verifies");

    let n = 32u32;
    let mut mem = SimMemory::new(1 << 16);
    let obase = mem.alloc(8 * n, 8);
    BuiltKernel {
        name: "prefixprod".to_string(),
        domain: "synthetic",
        description: "geometric series with a two-beat cross value",
        func,
        model: mm,
        mem,
        args: vec![Value::Ptr(obase), Value::I32(n as i32)],
        iterations: u64::from(n),
        reference_cache: ReferenceCache::default(),
    }
}

/// Satellite (d): an undersized FIFO (1 beat/channel, below the two beats
/// an f64 element needs) deadlocks, and the `Deadlock` detail names the
/// blocked queue and its occupancy.
#[test]
fn deadlock_detail_names_blocked_queue_and_occupancy() {
    let k = prefix_product_kernel();
    // Sanity: at the paper's 16-beat depth the pipeline works.
    run_cgpa_tuned(&k, CgpaConfig::default(), HwTuning::default())
        .expect("prefixprod pipelines at default depth");

    let tuning = HwTuning { fifo_depth_beats: 1, ..HwTuning::default() };
    let err = run_cgpa_tuned(&k, CgpaConfig::default(), tuning)
        .expect_err("one-beat FIFOs cannot carry an f64 element");
    match err {
        FlowError::Hw(HwError::Deadlock { detail, .. }) => {
            assert!(
                detail.contains("blocked pushing queue")
                    || detail.contains("blocked popping queue"),
                "dump does not name the blocked queue: {detail}"
            );
            assert!(detail.contains("occupancy"), "dump lacks queue occupancy: {detail}");
        }
        other => panic!("expected HwError::Deadlock, got: {other}"),
    }
}
