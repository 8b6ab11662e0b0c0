//! The three workloads: their kernels, the operations of one pass, and each
//! operation run through the toolchain's public flows (the untraced path).

use cgpa::compiler::{CgpaCompiler, CgpaConfig, Compiled};
use cgpa::dse::{CompileCache, DseLattice, DEFAULT_AREA_BUDGET_ALUT};
use cgpa::flows::{run_cgpa_dse, run_cgpa_tuned, run_legup, HwTuning, RunResult};
use cgpa::geomean;
use cgpa_kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_pipeline::ReplicablePlacement;
use cgpa_sim::mips::{run_mips, MipsConfig};
use cgpa_sim::{SimMemory, Value};
use std::ops::AddAssign;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-full", "dse", "compile-sweep"];

/// Kernel names in paper Table 2 order, the order `build_kernels` returns.
const KERNELS: [&str; 5] = ["kmeans", "hash_index", "ks", "em3d", "gaussblur"];

/// Interpreter fuel the flows grant the MIPS model and the parent function.
pub const INTERP_FUEL: u64 = 4_000_000_000;

/// Input size of a workload's kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs, for many short simulations.
    Quick,
    /// The kernels' default, paper-scale inputs.
    Full,
}

/// Generate the five kernels at `scale` from `seed`.
#[must_use]
pub fn build_kernels(scale: Scale, seed: u64) -> Vec<BuiltKernel> {
    match scale {
        Scale::Quick => vec![
            kmeans::build(&kmeans::Params { points: 64, clusters: 4, features: 8 }, seed),
            hash_index::build(&hash_index::Params { items: 256, buckets: 64, scatter: 24 }, seed),
            ks::build(&ks::Params { a_cells: 24, b_cells: 24, scatter: 16 }, seed),
            em3d::build(&em3d::Params::fixed(128, 128, 8, 32), seed),
            gaussblur::build(&gaussblur::Params { width: 512 }, seed),
        ],
        Scale::Full => vec![
            kmeans::build(&kmeans::Params::default(), seed),
            hash_index::build(&hash_index::Params::default(), seed),
            ks::build(&ks::Params::default(), seed),
            em3d::build(&em3d::Params::default(), seed),
            gaussblur::build(&gaussblur::Params::default(), seed),
        ],
    }
}

/// One checked operation; `k` indexes the workload's kernels.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// A MIPS soft-core run, compared with the functional reference.
    Mips { k: usize },
    /// A LegUp-style sequential accelerator (`run_legup`).
    Legup { k: usize },
    /// A CGPA compile and simulation (`run_cgpa_tuned`).
    Cgpa { k: usize, config: CgpaConfig, tuning: HwTuning },
    /// An exploration of `DseLattice::default()` with a fresh compile cache
    /// (`run_cgpa_dse`).
    Dse { k: usize },
    /// CGPA compiles plus Verilog emission of every kernel at every
    /// `sweep_configs` entry, with no simulation.
    Compile,
}

impl Op {
    /// Display label, e.g. `em3d CGPA(P2) w4`.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            Op::Mips { k } => format!("{} MIPS", KERNELS[k]),
            Op::Legup { k } => format!("{} LegUp", KERNELS[k]),
            Op::Cgpa { k, config, .. } => {
                format!("{} CGPA({}) w{}", KERNELS[k], placement(&config), config.workers)
            }
            Op::Dse { k } => format!("{} DSE", KERNELS[k]),
            Op::Compile => "compile sweep".to_string(),
        }
    }
}

fn placement(config: &CgpaConfig) -> &'static str {
    match config.placement {
        ReplicablePlacement::Pipelined => "P1",
        ReplicablePlacement::Replicated => "P2",
    }
}

fn is_p1(config: &CgpaConfig) -> bool {
    matches!(config.placement, ReplicablePlacement::Pipelined)
}

/// A workload: the scale of its kernels and the operations of one pass.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Input size of the kernels.
    pub scale: Scale,
    /// Operations of one pass, in order.
    pub ops: Vec<Op>,
}

impl Workload {
    /// The workload called `name`, if there is one.
    #[must_use]
    pub fn named(name: &str) -> Option<Workload> {
        let name = WORKLOADS.into_iter().find(|w| *w == name)?;
        let p1 = |workers| CgpaConfig { workers, ..CgpaConfig::default() };
        let p2 = |workers| CgpaConfig {
            workers,
            placement: ReplicablePlacement::Replicated,
            ..CgpaConfig::default()
        };
        let kernels = 0..KERNELS.len();
        let (scale, ops) = match name {
            "paper-full" => {
                let tuning = HwTuning::default();
                let mut ops = Vec::new();
                for k in kernels {
                    ops.extend([
                        Op::Mips { k },
                        Op::Legup { k },
                        Op::Cgpa { k, config: p1(4), tuning },
                    ]);
                    // The paper reports P2 for these two kernels only.
                    if matches!(KERNELS[k], "em3d" | "gaussblur") {
                        ops.push(Op::Cgpa { k, config: p2(4), tuning });
                    }
                }
                (Scale::Full, ops)
            }
            "dse" => (Scale::Quick, kernels.map(|k| Op::Dse { k }).collect()),
            "compile-sweep" => (Scale::Full, vec![Op::Compile]),
            _ => return None,
        };
        Some(Workload { name, scale, ops })
    }

    /// The deterministic design outputs of a pass, from its operations'
    /// signatures in `ops` order; 0 where the workload has none.
    #[must_use]
    pub fn design(&self, sigs: &[Sig]) -> Design {
        let ops = || self.ops.iter().zip(sigs);
        let p1_of = |k: usize| {
            ops().find_map(|(op, sig)| {
                matches!(op, Op::Cgpa { k: ok, config, .. } if *ok == k && is_p1(config))
                    .then_some(sig)
            })
        };
        // The operations the cycle geomean, and the area and energy geomeans,
        // cover.
        let (cycles, scored): (Vec<&Sig>, Vec<&Sig>) = match self.name {
            "paper-full" => {
                let p1: Vec<&Sig> = (0..KERNELS.len()).filter_map(&p1_of).collect();
                (p1.clone(), p1)
            }
            "dse" => (sigs.iter().collect(), sigs.iter().collect()),
            _ => (Vec::new(), Vec::new()),
        };
        let speedups: Vec<f64> = ops()
            .filter_map(|(op, legup)| match op {
                Op::Legup { k } => p1_of(*k).map(|p1| legup.cycles as f64 / p1.cycles as f64),
                _ => None,
            })
            .collect();
        let gm = |values: Vec<f64>| geomean(&values).unwrap_or(0.0);
        Design {
            cycles_geomean: gm(cycles.iter().map(|s| s.cycles as f64).collect()),
            speedup_vs_legup_geomean: gm(speedups),
            alut_geomean: gm(scored.iter().map(|s| f64::from(s.alut)).collect()),
            energy_uj_geomean: gm(scored.iter().map(|s| f64::from_bits(s.energy_bits)).collect()),
            verilog_kb: sigs.iter().map(|s| s.verilog_bytes as f64).sum::<f64>() / 1024.0,
        }
    }
}

/// `compile-sweep`: every worker count and placement the kernels compile at.
#[must_use]
pub fn sweep_configs() -> Vec<CgpaConfig> {
    [1, 2, 4, 8, 16]
        .into_iter()
        .flat_map(|workers| {
            [
                CgpaConfig { workers, ..CgpaConfig::default() },
                CgpaConfig {
                    workers,
                    placement: ReplicablePlacement::Replicated,
                    ..CgpaConfig::default()
                },
            ]
        })
        .collect()
}

/// The paper-facing outputs of one pass. Every pass reproduces them, so they
/// compare exactly across commits.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Design {
    /// Geomean of simulated cycles.
    pub cycles_geomean: f64,
    /// Geomean over kernels of LegUp cycles / CGPA P1 cycles.
    pub speedup_vs_legup_geomean: f64,
    /// Geomean of estimated ALUTs.
    pub alut_geomean: f64,
    /// Geomean of modelled energy, in µJ.
    pub energy_uj_geomean: f64,
    /// Emitted Verilog, in KiB.
    pub verilog_kb: f64,
}

/// The deterministic outputs of one operation. Every later pass, traced or
/// not, must reproduce the baseline pass's signature exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sig {
    /// Simulated cycles: of the MIPS core, the accelerator, or the DSE
    /// recommendation.
    pub cycles: u64,
    /// Estimated ALUTs of the accelerator or the DSE recommendation.
    pub alut: u32,
    /// Modelled energy in µJ, as raw bits so that it compares exactly.
    pub energy_bits: u64,
    /// Bytes of emitted Verilog.
    pub verilog_bytes: u64,
    /// DSE: cycles summed over every evaluated lattice point.
    pub points_cycles: u64,
}

impl Sig {
    /// The signature of a scored accelerator run.
    #[must_use]
    pub fn scored(cycles: u64, alut: u32, energy_uj: f64) -> Sig {
        Sig { cycles, alut, energy_bits: energy_uj.to_bits(), ..Sig::default() }
    }
}

/// Lattice and compile-cache counters of DSE operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct DseCounts {
    /// Evaluated lattice points.
    pub points: u64,
    /// Points that failed to compile or simulate.
    pub skipped: u64,
    /// Compiler invocations.
    pub compiles: u64,
    /// Compile-cache hits.
    pub cache_hits: u64,
}

impl AddAssign for DseCounts {
    fn add_assign(&mut self, other: DseCounts) {
        self.points += other.points;
        self.skipped += other.skipped;
        self.compiles += other.compiles;
        self.cache_hits += other.cache_hits;
    }
}

/// What an untraced operation produced.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Its deterministic outputs.
    pub sig: Sig,
    /// Accelerator cycles it simulated (LegUp, CGPA and DSE points).
    pub accel_cycles: u64,
    /// Explorer counters, for a DSE operation.
    pub dse: Option<DseCounts>,
}

impl Outcome {
    fn of(sig: Sig) -> Outcome {
        Outcome { sig, accel_cycles: 0, dse: None }
    }

    fn accelerator(r: RunResult) -> Outcome {
        Outcome {
            accel_cycles: r.cycles,
            ..Outcome::of(Sig::scored(r.cycles, r.alut, r.energy_uj))
        }
    }
}

/// Run `op` through the toolchain's public flows.
///
/// # Errors
/// The flow's error, or a failed check, as text.
pub fn run_op(op: &Op, kernels: &[BuiltKernel]) -> Result<Outcome, String> {
    match *op {
        Op::Mips { k } => {
            let k = &kernels[k];
            // `flows::run_mips` does not check its output; this does.
            let mut mem = k.mem.clone();
            let run = run_mips(&k.func, &k.args, &mut mem, INTERP_FUEL, &MipsConfig::default())
                .map_err(|e| e.to_string())?;
            verify(k, &mem, run.ret, &k.reference())?;
            Ok(Outcome::of(Sig { cycles: run.cycles, ..Sig::default() }))
        }
        Op::Legup { k } => {
            run_legup(&kernels[k]).map(Outcome::accelerator).map_err(|e| e.to_string())
        }
        Op::Cgpa { k, config, tuning } => run_cgpa_tuned(&kernels[k], config, tuning)
            .map(Outcome::accelerator)
            .map_err(|e| e.to_string()),
        Op::Dse { k } => {
            let k = &kernels[k];
            let report = run_cgpa_dse(
                k,
                &DseLattice::default(),
                HwTuning::default(),
                DEFAULT_AREA_BUDGET_ALUT,
                &CompileCache::new(),
            )
            .map_err(|e| e.to_string())?;
            let best = report
                .recommended
                .as_ref()
                .ok_or_else(|| format!("{}: no recommended design point", k.name))?;
            let points_cycles = report.evaluated.iter().map(|o| o.cycles).sum();
            Ok(Outcome {
                sig: Sig { points_cycles, ..Sig::scored(best.cycles, best.alut, best.energy_uj) },
                accel_cycles: points_cycles,
                dse: Some(DseCounts {
                    points: report.evaluated.len() as u64,
                    skipped: report.skipped.len() as u64,
                    compiles: report.compiles,
                    cache_hits: report.cache_hits,
                }),
            })
        }
        Op::Compile => {
            let mut bytes = 0;
            for (config, k) in
                sweep_configs().into_iter().flat_map(|c| kernels.iter().map(move |k| (c, k)))
            {
                let compiler = CgpaCompiler::new(config);
                let compiled = compiler.compile(&k.func, &k.model).map_err(|e| e.to_string())?;
                let verilog = compiler.emit_verilog(&compiled);
                check_design(k, &config, &compiled, &verilog)?;
                bytes += verilog.len() as u64;
            }
            Ok(Outcome::of(Sig { verilog_bytes: bytes, ..Sig::default() }))
        }
    }
}

/// Compare a run's final memory image and return value with the kernel's
/// functional reference.
///
/// # Errors
/// Which of the two differs.
pub fn verify(
    k: &BuiltKernel,
    mem: &SimMemory,
    ret: Option<Value>,
    reference: &(SimMemory, Option<Value>),
) -> Result<(), String> {
    let (ref_mem, ref_ret) = reference;
    if mem.read_bytes(0, mem.size()) != ref_mem.read_bytes(0, ref_mem.size()) {
        return Err(format!("{}: memory image differs from the reference", k.name));
    }
    if ret != *ref_ret {
        return Err(format!("{}: returned {ret:?}, reference {ref_ret:?}", k.name));
    }
    Ok(())
}

/// Check a compiled design as the paper reports it: a P1 pipeline has the
/// kernel's Table 2 shape, and the Verilog holds the FIFO library, the
/// top-level accelerator and its testbench.
///
/// # Errors
/// The first check that fails.
pub fn check_design(
    k: &BuiltKernel,
    config: &CgpaConfig,
    compiled: &Compiled,
    verilog: &str,
) -> Result<(), String> {
    let table2 = match k.name.as_str() {
        "kmeans" => "P-S",
        "hash_index" | "ks" => "S-P-S",
        _ => "S-P",
    };
    if is_p1(config) && compiled.shape != table2 {
        return Err(format!("{}: P1 shape {} is not Table 2's {table2}", k.name, compiled.shape));
    }
    let top = format!("{}_acc", compiled.pipeline.module.name);
    let testbench = format!("tb_{top}");
    for module in ["cgpa_fifo", top.as_str(), testbench.as_str()] {
        if !verilog.contains(&format!("module {module}")) {
            return Err(format!("{}: the Verilog lacks module {module}", k.name));
        }
    }
    Ok(())
}
