//! Reproduction of the paper's Table 2 pipeline partitions plus full
//! functional validation of every kernel's pipelined accelerator.

use cgpa_analysis::alias::PointsTo;
use cgpa_analysis::classify::classify_sccs;
use cgpa_analysis::pdg::build_pdg;
use cgpa_analysis::Condensation;
use cgpa_ir::cfg::Cfg;
use cgpa_ir::dom::DomTree;
use cgpa_ir::loops::LoopInfo;
use cgpa_kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_pipeline::transform::TransformConfig;
use cgpa_pipeline::{
    partition_loop, transform_loop, PartitionConfig, PipelineModule, ReplicablePlacement,
};
use cgpa_sim::{HwConfig, HwSystem, SimMemory, Value};

fn pipeline_of(
    k: &BuiltKernel,
    placement: ReplicablePlacement,
    workers: u32,
) -> Result<(String, PipelineModule), String> {
    let f = &k.func;
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(f, &cfg);
    let li = LoopInfo::compute(f, &cfg, &dom);
    let target = li.single_outermost().ok_or("no single outer loop")?;
    let pt = PointsTo::compute(f, &k.model);
    let pdg = build_pdg(f, &cfg, target, &pt, &k.model);
    let cond = Condensation::compute(&pdg);
    let classes = classify_sccs(f, &pdg, &cond);
    let pc = PartitionConfig { placement };
    let plan = partition_loop(f, &pdg, &cond, &classes, pc).map_err(|e| e.to_string())?;
    let shape = plan.shape();
    let pm = transform_loop(
        f,
        &cfg,
        target,
        &pdg,
        &cond,
        &plan,
        TransformConfig { workers, loop_id: 0 },
    )
    .map_err(|e| e.to_string())?;
    Ok((shape, pm))
}

fn check_hw_matches_reference(k: &BuiltKernel, pm: &PipelineModule) {
    let (ref_mem, ref_ret) = k.reference();
    let mut hw_mem: SimMemory = k.mem.clone();
    // Run the rewritten parent; parallel_fork dispatches to the cycle-level
    // accelerator, exactly as the MIPS core invokes the synthesized
    // hardware on the DE4 system.
    let mut cycles = 0u64;
    let (hw_ret, _) = cgpa_sim::run_with_accelerator(
        &pm.parent,
        &k.args,
        &mut hw_mem,
        2_000_000_000,
        &mut |_loop_id: u32, live_ins: &[Value], mem: &mut SimMemory| {
            let mut sys = HwSystem::for_pipeline(pm, live_ins, HwConfig::default());
            let stats = sys.run(mem).map_err(|e| e.to_string())?;
            cycles = stats.cycles;
            Ok(sys.liveouts().to_vec())
        },
    )
    .expect("parent run completes");
    assert!(cycles > 0);
    assert_eq!(
        hw_mem.read_bytes(0, hw_mem.size()),
        ref_mem.read_bytes(0, ref_mem.size()),
        "{}: memory state mismatch",
        k.name
    );
    assert_eq!(hw_ret, ref_ret, "{}: return value mismatch", k.name);
}

// ---- Table 2, column P1 ---------------------------------------------------

#[test]
fn kmeans_partitions_p_s() {
    let k = kmeans::build(&kmeans::Params { points: 40, clusters: 4, features: 6 }, 7);
    let (shape, pm) = pipeline_of(&k, ReplicablePlacement::Pipelined, 4).unwrap();
    assert_eq!(shape, "P-S", "paper Table 2: K-means is P-S");
    check_hw_matches_reference(&k, &pm);
}

#[test]
fn hash_index_partitions_s_p_s() {
    let k = hash_index::build(&hash_index::Params { items: 120, buckets: 32, scatter: 16 }, 7);
    let (shape, pm) = pipeline_of(&k, ReplicablePlacement::Pipelined, 4).unwrap();
    assert_eq!(shape, "S-P-S", "paper Table 2: Hash-indexing is S-P-S");
    check_hw_matches_reference(&k, &pm);
}

#[test]
fn ks_partitions_s_p_s() {
    let k = ks::build(&ks::Params { a_cells: 10, b_cells: 12, scatter: 8 }, 7);
    let (shape, pm) = pipeline_of(&k, ReplicablePlacement::Pipelined, 4).unwrap();
    assert_eq!(shape, "S-P-S", "paper Table 2: ks is S-P-S");
    check_hw_matches_reference(&k, &pm);
}

#[test]
fn em3d_partitions_s_p() {
    let k = em3d::build(&em3d::Params::fixed(40, 40, 5, 16), 7);
    let (shape, pm) = pipeline_of(&k, ReplicablePlacement::Pipelined, 4).unwrap();
    assert_eq!(shape, "S-P", "paper Table 2: em3d is S-P");
    check_hw_matches_reference(&k, &pm);
}

#[test]
fn gaussblur_partitions_s_p() {
    let k = gaussblur::build(&gaussblur::Params { width: 96 }, 7);
    let (shape, pm) = pipeline_of(&k, ReplicablePlacement::Pipelined, 4).unwrap();
    assert_eq!(shape, "S-P", "paper Table 2: 1D-Gaussblur is S-P");
    check_hw_matches_reference(&k, &pm);
}

// ---- Table 2, column P2 ----------------------------------------------------

#[test]
fn em3d_p2_partitions_p() {
    let k = em3d::build(&em3d::Params::fixed(30, 30, 4, 8), 9);
    let (shape, pm) = pipeline_of(&k, ReplicablePlacement::Replicated, 4).unwrap();
    assert_eq!(shape, "P", "paper Table 2: em3d P2 is P");
    check_hw_matches_reference(&k, &pm);
}

#[test]
fn gaussblur_p2_partitions_p() {
    let k = gaussblur::build(&gaussblur::Params { width: 64 }, 9);
    let (shape, pm) = pipeline_of(&k, ReplicablePlacement::Replicated, 4).unwrap();
    assert_eq!(shape, "P", "paper Table 2: 1D-Gaussblur P2 is P");
    check_hw_matches_reference(&k, &pm);
}
