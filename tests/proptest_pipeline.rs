//! Property-based end-to-end fuzzing: random loop bodies are compiled
//! through the full CGPA flow and the pipelined hardware must be
//! bit-identical to the functional reference, with the event-driven
//! engine agreeing with the per-cycle reference on every statistic.
//!
//! The generator emits loops of the shape
//! `for (i = 0; i < n; i++) { t = expr(a[i], …); s (+)= t; b[i] = t' }`
//! with a random arithmetic DAG, an optional reduction, and an optional
//! conditional update — covering P, P-S, and S-P-S partitions. A loop the
//! partitioner rejects (`NoParallelWork`) is an acceptable outcome; a loop
//! it accepts must execute correctly.

use cgpa_repro::analysis::MemoryModel;
use cgpa_repro::cgpa::compiler::{CgpaCompiler, CgpaConfig, CompileError};
use cgpa_repro::ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Function, Ty};
use cgpa_repro::pipeline::PartitionError;
use cgpa_repro::sim::interp::{run_function, NoHooks};
use cgpa_repro::sim::{run_with_accelerator, HwConfig, HwSystem, SimEngine, SimMemory, Value};
use proptest::prelude::*;

/// One random arithmetic node: combine two earlier values.
#[derive(Debug, Clone, Copy)]
enum Node {
    Add(usize, usize),
    Mul(usize, usize),
    Xor(usize, usize),
    Shl(usize),
}

#[derive(Debug, Clone)]
struct LoopSpec {
    nodes: Vec<Node>,
    /// Include `s += t` (creates a sequential reduction stage).
    reduce: bool,
    /// Guard the store with `t > 0` (adds control flow).
    conditional_store: bool,
    trip: u32,
}

fn node_strategy(max_idx: usize) -> impl Strategy<Value = Node> {
    let idx = 0..max_idx;
    prop_oneof![
        (idx.clone(), 0..max_idx).prop_map(|(a, b)| Node::Add(a, b)),
        (0..max_idx, 0..max_idx).prop_map(|(a, b)| Node::Mul(a, b)),
        (0..max_idx, 0..max_idx).prop_map(|(a, b)| Node::Xor(a, b)),
        (0..max_idx).prop_map(Node::Shl),
    ]
}

fn loop_spec() -> impl Strategy<Value = LoopSpec> {
    (1usize..7, any::<bool>(), any::<bool>(), 3u32..40).prop_flat_map(
        |(n_nodes, reduce, conditional_store, trip)| {
            // Build incrementally so each node only references earlier ones
            // (index 0 is the loaded a[i]).
            let nodes = proptest::collection::vec(node_strategy(n_nodes), n_nodes..=n_nodes);
            nodes.prop_map(move |raw| {
                let fixed = raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, n)| {
                        let cap = i + 1; // values 0..=i available
                        match n {
                            Node::Add(a, b) => Node::Add(a % cap, b % cap),
                            Node::Mul(a, b) => Node::Mul(a % cap, b % cap),
                            Node::Xor(a, b) => Node::Xor(a % cap, b % cap),
                            Node::Shl(a) => Node::Shl(a % cap),
                        }
                    })
                    .collect();
                LoopSpec { nodes: fixed, reduce, conditional_store, trip }
            })
        },
    )
}

/// Author the loop in IR.
fn build_kernel(spec: &LoopSpec) -> (Function, MemoryModel) {
    let mut b = FunctionBuilder::new(
        "fuzz",
        &[("a", Ty::Ptr), ("out", Ty::Ptr), ("n", Ty::I32)],
        Some(Ty::I32),
    );
    let a = b.param(0);
    let out = b.param(1);
    let n = b.param(2);
    let header = b.append_block("header");
    let body = b.append_block("body");
    let store_bb = b.append_block("store");
    let join = b.append_block("join");
    let exit = b.append_block("exit");
    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Ty::I32, "i");
    let s = b.phi(Ty::I32, "s");
    let c = b.icmp(IntPredicate::Slt, i, n);
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let pa = b.gep(a, i, 4, 0);
    let x = b.load(pa, Ty::I32);
    let mut vals = vec![x];
    for node in &spec.nodes {
        let v = match *node {
            Node::Add(p, q) => b.binary(BinOp::Add, vals[p], vals[q]),
            Node::Mul(p, q) => b.binary(BinOp::Mul, vals[p], vals[q]),
            Node::Xor(p, q) => b.binary(BinOp::Xor, vals[p], vals[q]),
            Node::Shl(p) => {
                let sh = b.const_i32(1);
                b.binary(BinOp::Shl, vals[p], sh)
            }
        };
        vals.push(v);
    }
    let t = *vals.last().expect("nodes nonempty");
    let s2 = if spec.reduce { b.binary(BinOp::Add, s, t) } else { s };
    if spec.conditional_store {
        let pos = b.icmp(IntPredicate::Sgt, t, zero);
        b.cond_br(pos, store_bb, join);
    } else {
        b.br(store_bb);
    }
    b.switch_to(store_bb);
    let po = b.gep(out, i, 4, 0);
    b.store(po, t);
    b.br(join);
    b.switch_to(join);
    let i2 = b.binary(BinOp::Add, i, one);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(s));
    b.add_phi_incoming(i, b.entry_block(), zero);
    b.add_phi_incoming(i, join, i2);
    b.add_phi_incoming(s, b.entry_block(), zero);
    b.add_phi_incoming(s, join, s2);
    let f = b.finish().expect("fuzz kernel verifies");

    let mut mm = MemoryModel::new();
    let ra = mm.add_region("a", 4, true, false);
    let rout = mm.add_region("out", 4, false, true);
    mm.bind_param(0, ra);
    mm.bind_param(1, rout);
    (f, mm)
}

fn check(spec: &LoopSpec, workers: u32) -> Result<(), TestCaseError> {
    let (f, mm) = build_kernel(spec);
    let mut mem = SimMemory::new(1 << 16);
    let a = mem.alloc(4 * spec.trip, 4);
    let out = mem.alloc(4 * spec.trip, 4);
    for i in 0..spec.trip {
        mem.write_i32(a + 4 * i, (i as i32).wrapping_mul(2654435761u32 as i32) >> 8);
        mem.write_i32(out + 4 * i, -1);
    }
    let args = vec![Value::Ptr(a), Value::Ptr(out), Value::I32(spec.trip as i32)];

    let compiler = CgpaCompiler::new(CgpaConfig { workers, ..CgpaConfig::default() });
    let compiled = match compiler.compile(&f, &mm) {
        Ok(c) => c,
        Err(CompileError::Partition(PartitionError::NoParallelWork)) => return Ok(()),
        Err(e) => return Err(TestCaseError::fail(format!("compile: {e}"))),
    };

    let mut ref_mem = mem.clone();
    let (ref_ret, _) = run_function(&f, &args, &mut ref_mem, 10_000_000, &mut NoHooks)
        .map_err(|e| TestCaseError::fail(format!("reference: {e}")))?;

    let mut hw_mem = mem.clone();
    let pm = &compiled.pipeline;
    let (hw_ret, _) = run_with_accelerator(
        &pm.parent,
        &args,
        &mut hw_mem,
        10_000_000,
        &mut |_loop_id: u32, live_ins: &[Value], m: &mut SimMemory| {
            let per_cycle = HwConfig { engine: SimEngine::PerCycle, ..HwConfig::default() };
            let mut rf = HwSystem::for_pipeline(pm, live_ins, per_cycle);
            let mut rf_mem = m.clone();
            let rs = rf.run(&mut rf_mem).map_err(|e| format!("per-cycle engine: {e}"))?;
            let mut sys = HwSystem::for_pipeline(pm, live_ins, HwConfig::default());
            let es = sys.run(m).map_err(|e| e.to_string())?;
            let agree = es.cycles == rs.cycles
                && es.workers == rs.workers
                && es.queues == rs.queues
                && es.cache == rs.cache
                && es.fifo_beats == rs.fifo_beats
                && sys.liveouts() == rf.liveouts()
                && m.read_bytes(0, m.size()) == rf_mem.read_bytes(0, rf_mem.size());
            if !agree {
                return Err(format!("engines disagree: {es:?} vs {rs:?}"));
            }
            Ok(sys.liveouts().to_vec())
        },
    )
    .map_err(|e| TestCaseError::fail(format!("hw: {e} (shape {})", compiled.shape)))?;

    prop_assert_eq!(hw_ret, ref_ret, "return mismatch (shape {})", compiled.shape);
    prop_assert_eq!(
        hw_mem.read_bytes(0, hw_mem.size()),
        ref_mem.read_bytes(0, ref_mem.size()),
        "memory mismatch (shape {})",
        compiled.shape
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_loops_pipeline_correctly_4_workers(spec in loop_spec()) {
        check(&spec, 4)?;
    }

    #[test]
    fn random_loops_pipeline_correctly_2_workers(spec in loop_spec()) {
        check(&spec, 2)?;
    }
}
