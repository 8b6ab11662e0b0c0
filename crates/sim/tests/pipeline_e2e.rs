//! End-to-end: analyze → partition → transform → schedule → simulate, and
//! check functional equivalence against the reference interpreter.
//!
//! This is the workspace's equivalent of the paper's "all the Verilog
//! designs of our benchmarks passed the verification".

use cgpa_analysis::alias::{MemoryModel, PointsTo};
use cgpa_analysis::classify::classify_sccs;
use cgpa_analysis::pdg::build_pdg;
use cgpa_analysis::Condensation;
use cgpa_ir::builder::FunctionBuilder;
use cgpa_ir::cfg::Cfg;
use cgpa_ir::dom::DomTree;
use cgpa_ir::inst::IntPredicate;
use cgpa_ir::loops::LoopInfo;
use cgpa_ir::{BinOp, Function, Ty};
use cgpa_pipeline::transform::TransformConfig;
use cgpa_pipeline::{
    partition_loop, transform_loop, PartitionConfig, PipelineModule, ReplicablePlacement,
};
use cgpa_sim::interp::{run_function, NoHooks};
use cgpa_sim::{HwConfig, HwSystem, SimMemory, Value};

/// em3d-shaped loop with a float-heavy update (as em3d's inner loop is):
/// `for (; p; p = p->next) { count++; v = p->val; p->val = (v*2)*(v*2)*v; }`
/// node layout: val f64 @0, next ptr @8; elem 16.
fn list_kernel() -> (Function, MemoryModel) {
    let mut mm = MemoryModel::new();
    let nodes = mm.add_region("nodes", 16, false, true);
    mm.bind_param(0, nodes);
    mm.field_pointee(nodes, 8, nodes);
    let mut b = FunctionBuilder::new("list", &[("head", Ty::Ptr)], Some(Ty::I32));
    let head = b.param(0);
    let header = b.append_block("header");
    let body = b.append_block("body");
    let exit = b.append_block("exit");
    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    b.br(header);
    b.switch_to(header);
    let p = b.phi(Ty::Ptr, "p");
    let count = b.phi(Ty::I32, "count");
    let null = b.const_ptr(0);
    let done = b.icmp(IntPredicate::Eq, p, null);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let vaddr = b.field(p, 0);
    let x = b.load(vaddr, Ty::F64);
    let two = b.const_f64(2.0);
    let y = b.binary(BinOp::FMul, x, two);
    let y2 = b.binary(BinOp::FMul, y, y);
    let y3 = b.binary(BinOp::FMul, y2, x);
    b.store(vaddr, y3);
    let naddr = b.field(p, 8);
    let next = b.load(naddr, Ty::Ptr);
    let c2 = b.binary(BinOp::Add, count, one);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(count));
    b.add_phi_incoming(p, b.entry_block(), head);
    b.add_phi_incoming(p, body, next);
    b.add_phi_incoming(count, b.entry_block(), zero);
    b.add_phi_incoming(count, body, c2);
    (b.finish().unwrap(), mm)
}

fn build_pipeline(
    f: &Function,
    mm: &MemoryModel,
    placement: ReplicablePlacement,
    workers: u32,
) -> PipelineModule {
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(f, &cfg);
    let li = LoopInfo::compute(f, &cfg, &dom);
    let target = li.single_outermost().unwrap();
    let pt = PointsTo::compute(f, mm);
    let pdg = build_pdg(f, &cfg, target, &pt, mm);
    let cond = Condensation::compute(&pdg);
    let classes = classify_sccs(f, &pdg, &cond);
    let pc = PartitionConfig { placement };
    let plan = partition_loop(f, &pdg, &cond, &classes, pc).unwrap();
    transform_loop(f, &cfg, target, &pdg, &cond, &plan, TransformConfig { workers, loop_id: 0 })
        .unwrap()
}

/// Lay out a linked list of `n` nodes, values 0..n, scattered with padding.
fn build_list(mem: &mut SimMemory, n: u32) -> u32 {
    let mut addrs = Vec::new();
    for i in 0..n {
        mem.pad((i * 37) % 160); // irregular spacing
        let a = mem.alloc(16, 8);
        addrs.push(a);
    }
    for (i, &a) in addrs.iter().enumerate() {
        mem.write_f64(a, i as f64);
        let next = addrs.get(i + 1).copied().unwrap_or(0);
        mem.write_ptr(a + 8, next);
    }
    addrs[0]
}

fn run_both(placement: ReplicablePlacement, workers: u32, n: u32) {
    let (f, mm) = list_kernel();
    let pm = build_pipeline(&f, &mm, placement, workers);

    let mut mem_hw = SimMemory::new(1 << 20);
    let head = build_list(&mut mem_hw, n);
    let mut mem_ref = mem_hw.clone();

    // Reference.
    let (ret, _) =
        run_function(&f, &[Value::Ptr(head)], &mut mem_ref, 10_000_000, &mut NoHooks).unwrap();

    // Hardware.
    let mut sys = HwSystem::for_pipeline(&pm, &[Value::Ptr(head)], HwConfig::default());
    let stats = sys.run(&mut mem_hw).unwrap();

    // Memory equivalence over the whole address space.
    assert_eq!(
        mem_hw.read_bytes(0, mem_hw.size()),
        mem_ref.read_bytes(0, mem_ref.size()),
        "memory mismatch for {placement:?} x{workers}"
    );
    // Liveout equivalence (count).
    assert_eq!(sys.liveouts()[0], ret, "liveout mismatch");
    assert!(stats.cycles > 0);
}

#[test]
fn p1_pipeline_matches_reference_4_workers() {
    run_both(ReplicablePlacement::Pipelined, 4, 101);
}

#[test]
fn p1_pipeline_matches_reference_1_worker() {
    run_both(ReplicablePlacement::Pipelined, 1, 33);
}

#[test]
fn p1_pipeline_matches_reference_8_workers() {
    run_both(ReplicablePlacement::Pipelined, 8, 64);
}

#[test]
fn p2_replicated_matches_reference() {
    run_both(ReplicablePlacement::Replicated, 4, 77);
}

#[test]
fn empty_list_terminates_immediately() {
    let (f, mm) = list_kernel();
    let pm = build_pipeline(&f, &mm, ReplicablePlacement::Pipelined, 4);
    let mut mem = SimMemory::new(1 << 16);
    let mut sys = HwSystem::for_pipeline(&pm, &[Value::Ptr(0)], HwConfig::default());
    let stats = sys.run(&mut mem).unwrap();
    assert_eq!(sys.liveouts()[0], Some(Value::I32(0)));
    assert!(stats.cycles < 100);
}

#[test]
fn pipelining_beats_sequential_hls_on_this_loop() {
    let (f, mm) = list_kernel();
    let pm = build_pipeline(&f, &mm, ReplicablePlacement::Pipelined, 4);

    let n = 512;
    let mut mem_a = SimMemory::new(1 << 21);
    let head = build_list(&mut mem_a, n);
    let mut mem_b = mem_a.clone();

    let mut seq = HwSystem::for_single(&f, &[Value::Ptr(head)], HwConfig::default());
    let seq_stats = seq.run(&mut mem_a).unwrap();

    let mut par = HwSystem::for_pipeline(&pm, &[Value::Ptr(head)], HwConfig::default());
    let par_stats = par.run(&mut mem_b).unwrap();

    let speedup = seq_stats.cycles as f64 / par_stats.cycles as f64;
    assert!(
        speedup > 1.5,
        "expected coarse-grained pipelining to win: {} vs {} (x{speedup:.2})",
        seq_stats.cycles,
        par_stats.cycles
    );
}

#[test]
fn stats_accounting_is_consistent() {
    let (f, mm) = list_kernel();
    let pm = build_pipeline(&f, &mm, ReplicablePlacement::Pipelined, 4);
    let n = 512;
    let mut mem = SimMemory::new(1 << 21);
    let head = build_list(&mut mem, n);
    let mut sys = HwSystem::for_pipeline(&pm, &[Value::Ptr(head)], HwConfig::default());
    let stats = sys.run(&mut mem).unwrap();

    // 1 sequential + 4 parallel workers.
    assert_eq!(stats.workers.len(), 5);
    // Every worker's cycle accounting covers the whole run.
    for (i, w) in stats.workers.iter().enumerate() {
        assert_eq!(w.total(), stats.cycles, "worker {i} accounting");
        // All workers see all n+1 header/dispatch arrivals (control
        // equivalence: every task iterates identically).
        assert_eq!(w.iterations, u64::from(n) + 1, "worker {i} iterations");
    }
    // Each node pointer crosses the round-robin queue once (n+1 produces
    // including the final null), the exit flag broadcast goes to 4 channels.
    assert!(stats.fifo_beats >= u64::from(n));
    // Each iteration loads next + val and stores val.
    assert!(stats.cache.accesses >= u64::from(3 * n));
    // Every scheduled task passes the paper's scheduling constraints.
    for t in &pm.tasks {
        let tf = &pm.module.funcs[t.func_index];
        let fsm = cgpa_rtl::schedule::schedule_function(tf);
        cgpa_rtl::schedule::verify_schedule(tf, &fsm).unwrap();
    }
}
