//! Benchmark suite assembly for the `experiments` binary.

use cgpa::compiler::CgpaConfig;
use cgpa::dse::{host_threads, par_map_capped};
use cgpa::flows::{
    run, run_cgpa, run_cgpa_tuned, run_legup, run_mips, FlowError, HwTuning, RunSpec, Target,
};
use cgpa::report::BenchmarkReport;
use cgpa_kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_pipeline::ReplicablePlacement;

/// Workload scale for the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSet {
    /// Small inputs for CI-speed runs.
    Quick,
    /// Paper-scale inputs (default for the experiments binary).
    Full,
}

/// Build the five benchmarks at the requested scale.
#[must_use]
pub fn bench_kernels(set: KernelSet, seed: u64) -> Vec<BuiltKernel> {
    match set {
        KernelSet::Quick => vec![
            kmeans::build(&kmeans::Params { points: 64, clusters: 4, features: 8 }, seed),
            hash_index::build(&hash_index::Params { items: 256, buckets: 64, scatter: 24 }, seed),
            ks::build(&ks::Params { a_cells: 24, b_cells: 24, scatter: 16 }, seed),
            em3d::build(&em3d::Params::fixed(128, 128, 8, 32), seed),
            gaussblur::build(&gaussblur::Params { width: 512 }, seed),
        ],
        KernelSet::Full => vec![
            kmeans::build(&kmeans::Params::default(), seed),
            hash_index::build(&hash_index::Params::default(), seed),
            ks::build(&ks::Params::default(), seed),
            em3d::build(&em3d::Params::default(), seed),
            gaussblur::build(&gaussblur::Params::default(), seed),
        ],
    }
}

/// Whether the paper reports a P2 variant for this kernel (Table 2/3: em3d
/// and 1D-Gaussblur only).
#[must_use]
pub fn has_p2(name: &str) -> bool {
    matches!(name, "em3d" | "gaussblur")
}

/// Run all configurations for one kernel. The four flows (MIPS, LegUp,
/// CGPA-P1 and, where the paper reports it, CGPA-P2) run concurrently.
///
/// # Errors
/// Forwards the first flow error (in MIPS, LegUp, P1, P2 order).
pub fn report_for(k: &BuiltKernel, workers: u32) -> Result<BenchmarkReport, FlowError> {
    let p1_cfg = CgpaConfig { workers, ..CgpaConfig::default() };
    let p2_cfg =
        CgpaConfig { workers, placement: ReplicablePlacement::Replicated, ..CgpaConfig::default() };
    let (mips, legup, p1, p2) = std::thread::scope(|s| {
        let mips = s.spawn(|| run_mips(k));
        let legup = s.spawn(|| run_legup(k));
        let p1 = s.spawn(move || run_cgpa(k, p1_cfg));
        let p2 = has_p2(&k.name).then(|| s.spawn(move || run_cgpa(k, p2_cfg)));
        (
            mips.join().expect("mips flow"),
            legup.join().expect("legup flow"),
            p1.join().expect("p1 flow"),
            p2.map(|h| h.join().expect("p2 flow")),
        )
    });
    Ok(BenchmarkReport {
        name: k.name.clone(),
        mips: mips?,
        legup: legup?,
        cgpa_p1: p1?,
        cgpa_p2: p2.transpose()?,
    })
}

/// Run the whole suite, one kernel per thread (each kernel fans out further
/// across its configurations in [`report_for`]).
///
/// # Errors
/// Forwards the first flow error (in kernel order).
pub fn full_report(
    set: KernelSet,
    workers: u32,
    seed: u64,
) -> Result<Vec<BenchmarkReport>, FlowError> {
    let kernels = bench_kernels(set, seed);
    par_map_capped(&kernels, host_threads(), |k| report_for(k, workers)).into_iter().collect()
}

/// Ablation: FIFO depth sweep (the paper fixes 16 beats in §4.1 — how much
/// decoupling do the kernels actually need?).
///
/// # Errors
/// Forwards the first flow error.
pub fn fifo_depth_sweep(k: &BuiltKernel, depths: &[usize]) -> Result<Vec<(usize, u64)>, FlowError> {
    par_map_capped(depths, host_threads(), |&d| {
        let r = run_cgpa_tuned(
            k,
            CgpaConfig::default(),
            HwTuning { fifo_depth_beats: d, ..HwTuning::default() },
        )?;
        Ok((d, r.cycles))
    })
    .into_iter()
    .collect()
}

/// Ablation: miss-latency sweep — how well does decoupled pipelining
/// tolerate variable memory latency vs sequential HLS (the paper's
/// "Tolerating Variable Latency" benefit, §2.2)?
///
/// Returns `(miss_latency, legup_cycles, cgpa_cycles)`.
///
/// # Errors
/// Forwards the first flow error.
pub fn miss_latency_sweep(
    k: &BuiltKernel,
    latencies: &[u32],
) -> Result<Vec<(u32, u64, u64)>, FlowError> {
    par_map_capped(latencies, host_threads(), |&ml| {
        let tuning = HwTuning { miss_latency: ml, ..HwTuning::default() };
        let legup = run(k, &RunSpec { tuning, ..RunSpec::new(Target::Legup) })?.cycles;
        let cgpa = run_cgpa_tuned(k, CgpaConfig::default(), tuning)?.cycles;
        Ok((ml, legup, cgpa))
    })
    .into_iter()
    .collect()
}

/// Appendix B scalability: CGPA(P1) cycles for several worker counts.
///
/// # Errors
/// Forwards the first flow error.
pub fn scalability_sweep(
    k: &BuiltKernel,
    worker_counts: &[u32],
) -> Result<Vec<(u32, u64)>, FlowError> {
    par_map_capped(worker_counts, host_threads(), |&w| {
        let r = run_cgpa(k, CgpaConfig { workers: w, ..CgpaConfig::default() })?;
        Ok((w, r.cycles))
    })
    .into_iter()
    .collect()
}
