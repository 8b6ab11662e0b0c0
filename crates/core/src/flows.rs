//! The three evaluation configurations of paper §4.1:
//!
//! 1. **MIPS** — the kernel runs on the MIPS soft core.
//! 2. **LegUp** — sequential HLS: the whole kernel becomes one FSM worker
//!    with one cache port.
//! 3. **CGPA** — the coarse-grained pipeline (P1 or P2), with one cache
//!    port per worker.
//!
//! Both accelerators run through [`run`] (or [`run_compiled`] for a design
//! compiled earlier), described by a [`RunSpec`]. One body simulates the
//! design, verifies memory and return value against the functional
//! reference, and only then scores area and power.

use crate::compiler::{
    CgpaCompiler, CgpaConfig, CompileError, Compiled, DegradationRung, DegradedCompile,
};
use crate::profile::ProfileError;
use cgpa_kernels::{BuiltKernel, CheckError};
use cgpa_obs::{Recorder, Track};
use cgpa_pipeline::ReplicablePlacement;
use cgpa_rtl::area::{estimate_area, fifo_area, AreaModel, AreaReport};
use cgpa_rtl::power::{energy_efficiency, evaluate, ActivityTrace, PowerModel};
use cgpa_sim::cache::CacheConfig;
use cgpa_sim::interp::run_with_accelerator;
use cgpa_sim::mips::{run_mips as sim_run_mips, MipsConfig};
use cgpa_sim::{
    FaultPlan, HwConfig, HwError, HwSystem, InterpError, SimEngine, SimMemory, SystemStats, Value,
};
use std::error::Error;
use std::fmt;

/// The design-space explorer, [`crate::dse::explore`]: the library's one
/// configuration search.
pub use crate::dse::explore as run_cgpa_dse;

/// Instruction budget of the MIPS core and of a fork's parent function.
const INTERP_FUEL: u64 = 4_000_000_000;

/// Result of one kernel run under one configuration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Configuration label ("MIPS", "LegUp", "CGPA(P1)", "CGPA(P2)").
    pub config: String,
    /// Kernel cycles.
    pub cycles: u64,
    /// ALUT usage (0 for the MIPS flow — the core is not synthesized per
    /// kernel).
    pub alut: u32,
    /// Average power in mW (accelerator flows only).
    pub power_mw: f64,
    /// Energy in µJ.
    pub energy_uj: f64,
    /// Energy efficiency (loop iterations per µJ; see EXPERIMENTS.md).
    pub efficiency: f64,
    /// Pipeline shape, when applicable.
    pub shape: Option<String>,
    /// Detailed simulator statistics, when applicable.
    pub stats: Option<SystemStats>,
    /// Degradation rung the compile landed on (None unless the run's
    /// [`RunSpec`] set `degrade`).
    pub rung: Option<DegradationRung>,
    /// The armed fault plan after the run, recording which faults fired
    /// (None when the run's [`RunSpec`] armed no plan).
    pub faults: Option<FaultPlan>,
}

/// Flow failure.
#[derive(Debug)]
pub enum FlowError {
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed.
    Hw(HwError),
    /// Interpretation failed: the MIPS run, a CGPA parent, or, when
    /// `reference` names the kernel, its functional reference.
    Interp {
        /// The kernel whose reference failed, if it was the reference.
        reference: Option<String>,
        /// Why the run failed.
        error: InterpError,
    },
    /// A CGPA parent finished without forking its accelerator.
    ForkNeverExecuted,
    /// The hardware result disagrees with the reference (a correctness bug).
    Mismatch(String),
    /// A run's statistics do not fit its compiled pipeline.
    Profile(ProfileError),
    /// A design-space exploration found no lattice point that compiles and
    /// simulates; the text names the first skipped point and its reason.
    NoFeasiblePoint(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Compile(e) => write!(f, "compile: {e}"),
            FlowError::Hw(e) => write!(f, "simulate: {e}"),
            FlowError::Interp { reference: None, error } => write!(f, "interpret: {error}"),
            FlowError::Interp { reference: Some(k), error } => {
                write!(f, "interpret: {k}: reference: {error}")
            }
            FlowError::ForkNeverExecuted => f.write_str("interpret: fork never executed"),
            FlowError::Mismatch(e) => write!(f, "verification: {e}"),
            FlowError::Profile(e) => write!(f, "profile: {e}"),
            FlowError::NoFeasiblePoint(e) => write!(f, "explore: {e}"),
        }
    }
}

impl Error for FlowError {}

impl FlowError {
    /// A run's interpreter failure, outside the reference.
    fn interp(error: InterpError) -> Self {
        FlowError::Interp { reference: None, error }
    }
}

impl From<CompileError> for FlowError {
    fn from(e: CompileError) -> Self {
        FlowError::Compile(e)
    }
}

impl From<HwError> for FlowError {
    fn from(e: HwError) -> Self {
        FlowError::Hw(e)
    }
}

impl From<ProfileError> for FlowError {
    fn from(e: ProfileError) -> Self {
        FlowError::Profile(e)
    }
}

/// Run the kernel on the MIPS soft-core model.
///
/// # Errors
/// [`FlowError::Interp`] on interpreter failures; [`FlowError::Mismatch`]
/// when the result disagrees with the functional reference.
pub fn run_mips(k: &BuiltKernel) -> Result<RunResult, FlowError> {
    cache_reference(k)?;
    let mut mem = k.mem.clone();
    let run = sim_run_mips(&k.func, &k.args, &mut mem, INTERP_FUEL, &MipsConfig::default())
        .map_err(FlowError::interp)?;
    verify_memory(k, &mem, run.ret)?;
    Ok(RunResult {
        config: "MIPS".to_string(),
        cycles: run.cycles,
        alut: 0,
        power_mw: 0.0,
        energy_uj: 0.0,
        efficiency: 0.0,
        shape: None,
        stats: None,
        rung: None,
        faults: None,
    })
}

/// Microarchitectural knobs for ablation studies (the paper fixes these in
/// §4.1: FIFO depth 16, and discusses the memory system in Appendix B).
#[derive(Debug, Clone, Copy)]
pub struct HwTuning {
    /// FIFO depth per channel in 32-bit beats.
    pub fifo_depth_beats: usize,
    /// Cache miss latency in cycles.
    pub miss_latency: u32,
    /// D-cache lines (shrinking this below the working set makes a run
    /// memory-latency-dominated — the slow-memory regime `experiments bench`
    /// runs the design-space explorer in).
    pub cache_lines: u32,
    /// D-cache banks (ports). `None` derives one port per worker, clamped
    /// to the 8-port cache of §4.1 — the paper's configuration; the
    /// design-space explorer sets explicit values to trade ports for area.
    /// See [`HwTuning::cache_config`].
    pub cache_banks: Option<u32>,
    /// Simulation engine (event-driven scheduler vs per-cycle reference).
    /// Cycle counts and statistics are identical either way; only wall-clock
    /// time differs.
    pub engine: SimEngine,
}

impl Default for HwTuning {
    fn default() -> Self {
        HwTuning {
            fifo_depth_beats: 16,
            miss_latency: CacheConfig::default().miss_latency,
            cache_lines: CacheConfig::default().lines,
            cache_banks: None,
            engine: SimEngine::default(),
        }
    }
}

impl HwTuning {
    /// The D-cache of a design with `workers` worker instances: one port
    /// per worker (paper §3.1: dedicated memory ports) up to the 8-port
    /// cache of §4.1, unless [`HwTuning::cache_banks`] overrides the count.
    /// A zero override is passed through so [`CacheConfig::validate`] can
    /// reject it; the simulator clamps it to one port.
    #[must_use]
    pub fn cache_config(&self, workers: u32) -> CacheConfig {
        CacheConfig {
            banks: self.cache_banks.unwrap_or_else(|| workers.clamp(1, 8)),
            miss_latency: self.miss_latency,
            lines: self.cache_lines,
            ..CacheConfig::default()
        }
    }
}

/// The accelerator a [`RunSpec`] builds.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// LegUp-style sequential HLS: the whole kernel as one FSM worker with
    /// one cache port, whatever [`HwTuning::cache_banks`] says.
    Legup,
    /// A CGPA pipeline compiled with this configuration.
    Cgpa(CgpaConfig),
}

/// Everything an accelerator run takes besides the kernel.
#[derive(Debug, Clone)]
pub struct RunSpec<'r> {
    /// What to build.
    pub target: Target,
    /// Simulator knobs.
    pub tuning: HwTuning,
    /// A fault plan to arm on the simulator; [`RunResult::faults`] records
    /// which faults fired. A corrupting fault the hardware catches surfaces
    /// as [`FlowError::Hw`] wrapping [`HwError::Fault`].
    pub faults: Option<FaultPlan>,
    /// A recorder for end-to-end tracing: [`run`] records the compile and
    /// Verilog phases on trace process 1 (wall-clock µs), and each simulator
    /// fork records its own process from 2 up (one µs per simulated cycle).
    /// Both engines emit bit-identical simulator streams.
    pub recorder: Option<&'r Recorder>,
    /// Compile through the degradation ladder (P2 → P1 → sequential) and
    /// run the rung the compile lands on, recorded in [`RunResult::rung`].
    /// The sequential rung is the [`Target::Legup`] design labelled
    /// `CGPA(seq-fallback)`. Only [`run`] with a [`Target::Cgpa`] reads it;
    /// the ladder's compiles are not traced.
    pub degrade: bool,
}

impl RunSpec<'_> {
    /// A run of `target` with default knobs, no faults, no tracing and no
    /// degradation.
    #[must_use]
    pub fn new(target: Target) -> Self {
        RunSpec {
            target,
            tuning: HwTuning::default(),
            faults: None,
            recorder: None,
            degrade: false,
        }
    }
}

/// Run the kernel as a LegUp-style sequential accelerator: one FSM worker,
/// one cache port.
///
/// # Errors
/// See [`FlowError`]. The run is verified against the functional reference.
pub fn run_legup(k: &BuiltKernel) -> Result<RunResult, FlowError> {
    run(k, &RunSpec::new(Target::Legup))
}

/// Run the kernel as a CGPA pipelined accelerator.
///
/// # Errors
/// See [`FlowError`]. The run is verified against the functional reference.
pub fn run_cgpa(k: &BuiltKernel, config: CgpaConfig) -> Result<RunResult, FlowError> {
    run(k, &RunSpec::new(Target::Cgpa(config)))
}

/// [`run_cgpa`] with explicit microarchitectural knobs.
///
/// # Errors
/// See [`FlowError`].
pub fn run_cgpa_tuned(
    k: &BuiltKernel,
    config: CgpaConfig,
    tuning: HwTuning,
) -> Result<RunResult, FlowError> {
    run(k, &RunSpec { tuning, ..RunSpec::new(Target::Cgpa(config)) })
}

/// Build, simulate, verify and score the accelerator `spec` describes.
///
/// # Errors
/// See [`FlowError`]. With `degrade` set, [`FlowError::Compile`] means even
/// the sequential fallback failed to schedule.
pub fn run(k: &BuiltKernel, spec: &RunSpec<'_>) -> Result<RunResult, FlowError> {
    let Target::Cgpa(config) = spec.target else {
        return simulate(k, Design::Sequential("LegUp"), spec);
    };
    let compiler = CgpaCompiler::new(config);
    if spec.degrade {
        let degraded = compiler.compile_degraded(&k.func, &k.model)?;
        let rung = degraded.rung();
        let design = match &degraded {
            DegradedCompile::Pipeline { compiled, .. } => {
                Design::Pipeline(compiled, rung.placement().unwrap_or(config.placement))
            }
            DegradedCompile::Sequential { .. } => Design::Sequential("CGPA(seq-fallback)"),
        };
        return simulate(k, design, spec).map(|r| RunResult { rung: Some(rung), ..r });
    }
    let track = spec.recorder.map(|rec| {
        rec.name_process(1, format!("compile {}", k.name));
        rec.name_thread(1, 1, "compiler");
        Track { rec: rec.clone(), pid: 1, tid: 1 }
    });
    let compiled = compiler.compile_inner(&k.func, &k.model, track.as_ref())?;
    if track.is_some() {
        // Emit (and discard) the Verilog to record the backend's spans.
        let _ = compiler.emit_verilog_inner(&compiled, track.as_ref());
    }
    simulate(k, Design::Pipeline(&compiled, config.placement), spec)
}

/// [`run`] on an already-compiled pipeline, so sweeps can reuse one
/// compile. A [`Target::Cgpa`] spec should carry the configuration
/// `compiled` was built with (it labels the run); a [`Target::Legup`] spec
/// ignores `compiled`.
///
/// # Errors
/// See [`FlowError`].
pub fn run_compiled(
    k: &BuiltKernel,
    compiled: &Compiled,
    spec: &RunSpec<'_>,
) -> Result<RunResult, FlowError> {
    let design = match spec.target {
        Target::Legup => Design::Sequential("LegUp"),
        Target::Cgpa(config) => Design::Pipeline(compiled, config.placement),
    };
    simulate(k, design, spec)
}

/// The hardware the shared simulate→verify→score body builds: a
/// sequential design with the run's label, or a pipeline with the
/// placement it was compiled with (labelled `CGPA(P1)`/`CGPA(P2)`).
#[derive(Clone, Copy)]
enum Design<'c> {
    /// LegUp: the kernel itself as one FSM worker.
    Sequential(&'static str),
    /// CGPA: a compiled pipeline, forked from its parent.
    Pipeline(&'c Compiled, ReplicablePlacement),
}

/// Arm `spec`'s fault plan on `sys` and run it, tracing the run into
/// `spec`'s recorder (on trace process `pid`) when there is one, whether
/// or not it succeeds. Returns its statistics and fired fault plan.
fn run_system(
    sys: &mut HwSystem<'_>,
    mem: &mut SimMemory,
    spec: &RunSpec<'_>,
    pid: u32,
) -> Result<(SystemStats, Option<FaultPlan>), HwError> {
    if spec.recorder.is_some() {
        sys.enable_trace();
    }
    if let Some(plan) = &spec.faults {
        sys.inject_faults(plan.clone());
    }
    let result = sys.run(mem);
    if let (Some(rec), Some(trace)) = (spec.recorder, sys.take_trace()) {
        trace.replay_into(rec, pid);
    }
    Ok((result?, sys.fault_plan().cloned()))
}

fn simulate(
    k: &BuiltKernel,
    design: Design<'_>,
    spec: &RunSpec<'_>,
) -> Result<RunResult, FlowError> {
    let tuning = &spec.tuning;
    let cache = match design {
        Design::Sequential(_) => CacheConfig { banks: 1, ..tuning.cache_config(1) },
        Design::Pipeline(compiled, _) => tuning.cache_config(compiled.pipeline.worker_count()),
    };
    let hw_cfg = HwConfig {
        cache,
        fifo_depth_beats: tuning.fifo_depth_beats,
        engine: tuning.engine,
        ..HwConfig::default()
    };

    // Simulate. The LegUp system outlives this step: scoring reads its FSM.
    cache_reference(k)?;
    let mut mem = k.mem.clone();
    let mut single = None;
    let (ret, (stats, faults)) = match design {
        Design::Sequential(_) => {
            let sys = single.insert(HwSystem::for_single(&k.func, &k.args, hw_cfg));
            let run = run_system(sys, &mut mem, spec, 2)?;
            (sys.ret_value(), run)
        }
        Design::Pipeline(compiled, _) => {
            let pm = &compiled.pipeline;
            let mut captured = None;
            let mut hw_err: Option<HwError> = None;
            // Each fork gets its own trace process so a multi-invocation
            // parent cannot interleave two runs' cycle timelines on one
            // track.
            let mut next_pid = 2;
            let (ret, _) = run_with_accelerator(
                &pm.parent,
                &k.args,
                &mut mem,
                INTERP_FUEL,
                &mut |_loop_id: u32, live_ins: &[Value], mem: &mut SimMemory| {
                    let mut sys = HwSystem::for_scheduled(pm, &compiled.fsms, live_ins, hw_cfg);
                    next_pid += 1;
                    let run = run_system(&mut sys, mem, spec, next_pid - 1).map_err(|e| {
                        let msg = e.to_string();
                        hw_err = Some(e);
                        msg
                    })?;
                    captured = Some(run);
                    Ok(sys.liveouts().to_vec())
                },
            )
            .map_err(|e| hw_err.take().map_or_else(|| FlowError::interp(e), FlowError::Hw))?;
            let run = captured.ok_or(FlowError::ForkNeverExecuted)?;
            (ret, run)
        }
    };

    verify_memory(k, &mem, ret)?;

    // Score: one area per worker instance (one per sequential stage,
    // `workers` of the parallel stage), plus FIFO channel control.
    let amodel = AreaModel::default();
    let (label, shape, worker_areas, channels) = match design {
        Design::Sequential(label) => {
            let areas = single.iter().map(|sys| estimate_area(&amodel, &k.func, &sys.fsms()[0]));
            (label.to_string(), None, areas.collect(), 0)
        }
        Design::Pipeline(compiled, placement) => {
            let pm = &compiled.pipeline;
            let mut areas: Vec<AreaReport> = Vec::new();
            for task in &pm.tasks {
                let f = &pm.module.funcs[task.func_index];
                let a = estimate_area(&amodel, f, &compiled.fsms[task.func_index]);
                areas.extend(std::iter::repeat_n(a, pm.instances(task) as usize));
            }
            let channels = pm.queues.iter().map(|q| pm.module.queue(q.queue).channels).sum();
            (format!("CGPA({placement})"), Some(compiled.shape.clone()), areas, channels)
        }
    };
    let fifo = fifo_area(&amodel, channels);
    let alut = worker_areas.iter().map(AreaReport::total).sum::<u32>() + fifo.total();
    let trace = ActivityTrace {
        cycles: stats.cycles,
        workers: worker_areas.into_iter().zip(stats.workers.iter().map(|w| w.busy)).collect(),
        fifo_beats: stats.fifo_beats,
        cache_accesses: stats.cache.accesses,
        cache_ports: cache.banks,
        fifo_area: fifo,
    };
    let power = evaluate(&PowerModel::default(), &trace);
    Ok(RunResult {
        config: label,
        cycles: stats.cycles,
        alut,
        power_mw: power.power_mw,
        energy_uj: power.energy_uj,
        efficiency: energy_efficiency(k.iterations, &power),
        shape,
        stats: Some(stats),
        rung: None,
        faults,
    })
}

/// Interpret and cache the kernel's functional reference before a run
/// allocates its memory image (see `BuiltKernel::cache_reference`).
fn cache_reference(k: &BuiltKernel) -> Result<(), FlowError> {
    k.cache_reference().map_err(|e| reference_error(k, e))
}

fn reference_error(k: &BuiltKernel, error: InterpError) -> FlowError {
    FlowError::Interp { reference: Some(k.name.clone()), error }
}

/// Compare a run's memory and return value against the kernel's cached
/// functional reference.
fn verify_memory(k: &BuiltKernel, mem: &SimMemory, ret: Option<Value>) -> Result<(), FlowError> {
    k.check(mem, ret).map_err(|e| match e {
        CheckError::Reference(e) => reference_error(k, e),
        e => FlowError::Mismatch(format!("{}: {e}", k.name)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_kernels::em3d;

    fn small_em3d() -> BuiltKernel {
        em3d::build(&em3d::Params::fixed(60, 60, 4, 16), 5)
    }

    #[test]
    fn all_three_flows_agree_and_rank_as_expected() {
        let k = small_em3d();
        let mips = run_mips(&k).unwrap();
        let legup = run_legup(&k).unwrap();
        let cgpa = run_cgpa(&k, CgpaConfig::default()).unwrap();
        assert!(mips.cycles > legup.cycles, "specialization wins: {mips:?} vs {legup:?}");
        assert!(legup.cycles > cgpa.cycles, "pipelining wins: {} vs {}", legup.cycles, cgpa.cycles);
        assert_eq!(cgpa.shape.as_deref(), Some("S-P"));
        // CGPA area exceeds LegUp (4 workers + FIFOs).
        assert!(cgpa.alut > 2 * legup.alut);
        // Power and energy populated.
        assert!(cgpa.power_mw > legup.power_mw);
        assert!(legup.energy_uj > 0.0);
    }

    #[test]
    fn explorer_improves_a_memory_latency_dominated_config() {
        use crate::dse::{CompileCache, DseLattice, DEFAULT_AREA_BUDGET_ALUT};
        let k = small_em3d();
        // Two cache lines + 400-cycle misses: every access essentially goes
        // to DRAM, so a two-worker pipeline leaves most of the latency
        // exposed and the explorer finds a faster point on the lattice.
        let himem = HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() };
        let report = run_cgpa_dse(
            &k,
            &DseLattice::quick(),
            himem,
            DEFAULT_AREA_BUDGET_ALUT,
            &CompileCache::new(),
        )
        .unwrap();
        let w2 = report
            .evaluated
            .iter()
            .find(|o| o.point.workers == 2 && o.point.fifo_depth_beats == 16)
            .expect("the w2 fifo16 point is on the quick lattice");
        let best = report.best_cycles().expect("non-empty frontier");
        assert!(best < w2.cycles, "explorer found nothing: w2 fifo16 {} vs best {best}", w2.cycles);
    }

    /// The five paper kernels at test scale (as in `tests/full_suite.rs`).
    fn test_scale_suite() -> Vec<BuiltKernel> {
        use cgpa_kernels::{gaussblur, hash_index, kmeans, ks};
        vec![
            kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, 3),
            hash_index::build(&hash_index::Params { items: 128, buckets: 32, scatter: 16 }, 3),
            ks::build(&ks::Params { a_cells: 16, b_cells: 16, scatter: 12 }, 3),
            em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 3),
            gaussblur::build(&gaussblur::Params { width: 256 }, 3),
        ]
    }

    #[test]
    fn mips_runs_verify_on_every_kernel() {
        for k in &test_scale_suite() {
            let r = run_mips(k).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert!(r.cycles > 0, "{}", k.name);
        }
    }

    #[test]
    fn a_corrupted_mips_result_is_a_mismatch() {
        let k = small_em3d();
        let mut mem = k.mem.clone();
        let run =
            sim_run_mips(&k.func, &k.args, &mut mem, INTERP_FUEL, &MipsConfig::default()).unwrap();
        verify_memory(&k, &mem, run.ret).expect("an untouched MIPS result verifies");
        // Allocation starts at byte 64: flip the kernel's first data byte.
        let byte = mem.read_bytes(64, 1)[0];
        mem.write_bytes(64, &[byte ^ 0xff]);
        let err = verify_memory(&k, &mem, run.ret).unwrap_err();
        assert!(matches!(err, FlowError::Mismatch(_)), "{err}");
    }

    #[test]
    fn a_reference_failure_is_an_interp_error_naming_the_kernel() {
        let mut k = small_em3d();
        k.args.clear();
        // Reported before the run is simulated, and by the check itself.
        for err in [run_legup(&k).unwrap_err(), verify_memory(&k, &k.mem, None).unwrap_err()] {
            assert!(
                matches!(&err, FlowError::Interp { reference: Some(name), error: InterpError::BadArity { .. } } if name == "em3d"),
                "{err:?}"
            );
            assert!(err.to_string().starts_with("interpret: em3d: reference: "), "{err}");
        }
    }

    #[test]
    fn a_differently_sized_image_is_a_mismatch() {
        let k = small_em3d();
        let err = verify_memory(&k, &SimMemory::new(128), None).unwrap_err();
        assert!(matches!(&err, FlowError::Mismatch(m) if m.contains("memory size")), "{err}");
    }

    #[test]
    fn explicit_cache_banks_reach_the_simulated_cache() {
        let k = small_em3d();
        // One bank serializes every access; the default (one port per
        // worker) overlaps them. Fewer ports can never be faster.
        let one_bank = HwTuning { cache_banks: Some(1), ..HwTuning::default() };
        let narrow = run_cgpa_tuned(&k, CgpaConfig::default(), one_bank).unwrap();
        let wide = run_cgpa(&k, CgpaConfig::default()).unwrap();
        assert!(narrow.cycles >= wide.cycles, "{} < {}", narrow.cycles, wide.cycles);
        // A zero from a sweep is clamped by the cache model, not a panic.
        let zero = HwTuning { cache_banks: Some(0), ..HwTuning::default() };
        let r = run_cgpa_tuned(&k, CgpaConfig::default(), zero).unwrap();
        assert!(r.cycles >= wide.cycles);
    }

    #[test]
    fn p2_runs_and_is_labelled() {
        let k = small_em3d();
        let cfg = CgpaConfig {
            placement: cgpa_pipeline::ReplicablePlacement::Replicated,
            ..CgpaConfig::default()
        };
        let r = run_cgpa(&k, cfg).unwrap();
        assert_eq!(r.config, "CGPA(P2)");
        assert_eq!(r.shape.as_deref(), Some("P"));
    }
}
