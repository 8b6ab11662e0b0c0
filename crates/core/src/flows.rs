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
    CgpaCompiler, CgpaConfig, CompileError, Compiled, DegradationPolicy, DegradationRung,
    DegradedCompile,
};
use crate::profile::{Bottleneck, Profile, ProfileError};
use cgpa_kernels::BuiltKernel;
use cgpa_obs::{Recorder, Track};
use cgpa_pipeline::ReplicablePlacement;
use cgpa_rtl::area::{estimate_area, fifo_area, AreaModel, AreaReport};
use cgpa_rtl::power::{energy_efficiency, evaluate, ActivityTrace, PowerModel};
use cgpa_sim::cache::CacheConfig;
use cgpa_sim::interp::run_with_accelerator;
use cgpa_sim::mips::{run_mips as sim_run_mips, MipsConfig};
use cgpa_sim::{FaultPlan, HwConfig, HwError, HwSystem, SimEngine, SimMemory, SystemStats, Value};
use std::error::Error;
use std::fmt;

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
    /// Degradation rung the compile landed on (None when the run's
    /// [`RunSpec`] carried no degradation policy).
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
    /// Interpretation failed.
    Interp(String),
    /// The hardware result disagrees with the reference (a correctness bug).
    Mismatch(String),
    /// A run's statistics do not fit its compiled pipeline.
    Profile(ProfileError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Compile(e) => write!(f, "compile: {e}"),
            FlowError::Hw(e) => write!(f, "simulate: {e}"),
            FlowError::Interp(e) => write!(f, "interpret: {e}"),
            FlowError::Mismatch(e) => write!(f, "verification: {e}"),
            FlowError::Profile(e) => write!(f, "profile: {e}"),
        }
    }
}

impl Error for FlowError {}

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
/// [`FlowError::Interp`] on interpreter failures.
pub fn run_mips(k: &BuiltKernel) -> Result<RunResult, FlowError> {
    let mut mem = k.mem.clone();
    let run = sim_run_mips(&k.func, &k.args, &mut mem, INTERP_FUEL, &MipsConfig::default())
        .map_err(|e| FlowError::Interp(e.to_string()))?;
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
    /// memory-latency-dominated — the regime the profile-guided tuner is
    /// exercised in).
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
    /// Compile through the degradation ladder (P2 → P1 → sequential, as the
    /// policy allows) and run the rung the compile lands on, recorded in
    /// [`RunResult::rung`]. The sequential rung is the [`Target::Legup`]
    /// design labelled `CGPA(seq-fallback)`. Only [`run`] with a
    /// [`Target::Cgpa`] reads it; the ladder's compiles are not traced.
    pub degrade: Option<DegradationPolicy>,
}

impl RunSpec<'_> {
    /// A run of `target` with default knobs, no faults, no tracing and no
    /// degradation.
    #[must_use]
    pub fn new(target: Target) -> Self {
        RunSpec { target, tuning: HwTuning::default(), faults: None, recorder: None, degrade: None }
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
/// See [`FlowError`]. With a degradation policy, [`FlowError::Compile`]
/// means even the last permitted rung failed.
pub fn run(k: &BuiltKernel, spec: &RunSpec<'_>) -> Result<RunResult, FlowError> {
    let Target::Cgpa(config) = spec.target else {
        return simulate(k, Design::Sequential("LegUp"), spec);
    };
    let compiler = CgpaCompiler::new(config);
    if let Some(policy) = spec.degrade {
        let degraded = compiler.compile_degraded(&k.func, &k.model, policy)?;
        let rung = degraded.rung();
        let design = match &degraded {
            DegradedCompile::Pipeline { compiled, .. } => {
                Design::Pipeline(compiled, cgpa_label(rung.placement().unwrap_or(config.placement)))
            }
            DegradedCompile::Sequential { .. } => Design::Sequential("CGPA(seq-fallback)"),
        };
        return simulate(k, design, spec).map(|r| RunResult { rung: Some(rung), ..r });
    }
    let compiled = match spec.recorder {
        Some(rec) => {
            rec.name_process(1, format!("compile {}", k.name));
            rec.name_thread(1, 1, "compiler");
            let track = Track { rec: rec.clone(), pid: 1, tid: 1 };
            let compiled = compiler.compile_traced(&k.func, &k.model, &track)?;
            // Emit (and discard) the Verilog to record the backend's span.
            let _ = compiler.emit_verilog_traced(&compiled, &track);
            compiled
        }
        None => compiler.compile(&k.func, &k.model)?,
    };
    simulate(k, Design::Pipeline(&compiled, cgpa_label(config.placement)), spec)
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
        Target::Cgpa(config) => Design::Pipeline(compiled, cgpa_label(config.placement)),
    };
    simulate(k, design, spec)
}

/// The hardware the shared simulate→verify→score body builds, with the
/// run's label.
#[derive(Clone, Copy)]
enum Design<'c> {
    /// LegUp: the kernel itself as one FSM worker.
    Sequential(&'static str),
    /// CGPA: a compiled pipeline, forked from its parent.
    Pipeline(&'c Compiled, &'static str),
}

fn cgpa_label(placement: ReplicablePlacement) -> &'static str {
    match placement {
        ReplicablePlacement::Pipelined => "CGPA(P1)",
        ReplicablePlacement::Replicated => "CGPA(P2)",
    }
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
            .map_err(|e| {
                hw_err.take().map_or_else(|| FlowError::Interp(e.to_string()), FlowError::Hw)
            })?;
            let run =
                captured.ok_or_else(|| FlowError::Interp("fork never executed".to_string()))?;
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
            (label, None, areas.collect(), 0)
        }
        Design::Pipeline(compiled, label) => {
            let pm = &compiled.pipeline;
            let mut areas: Vec<AreaReport> = Vec::new();
            for task in &pm.tasks {
                let f = &pm.module.funcs[task.func_index];
                let a = estimate_area(&amodel, f, &compiled.fsms[task.func_index]);
                areas.extend(std::iter::repeat_n(a, pm.instances(task) as usize));
            }
            let channels = pm.queues.iter().map(|q| pm.module.queue(q.queue).channels).sum();
            (label, Some(compiled.shape.clone()), areas, channels)
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
        config: label.to_string(),
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

/// A pipeline run paired with its bottleneck profile (the tuner's output).
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The run (cycles, area, power, stats).
    pub result: RunResult,
    /// Stage/queue/memory rollup naming the limiting resource.
    pub profile: Profile,
}

/// Default marginal-speedup threshold for [`run_cgpa_tuned_auto`]: stop
/// when a step improves cycles by less than 2%.
pub const TUNE_MIN_GAIN: f64 = 0.02;

/// Iteration cap for the tuner (each step doubles one knob, so 6 steps
/// already cover a 64× range).
const TUNE_MAX_ITERS: usize = 6;
/// Parallel-stage worker ceiling (power of two; 8 cache ports of §4.1 plus
/// one doubling of headroom).
const TUNE_MAX_WORKERS: u32 = 16;
/// FIFO depth ceiling in beats per channel.
const TUNE_MAX_FIFO_DEPTH: usize = 256;

/// One compile→run→profile iteration of the tuner.
#[derive(Debug, Clone)]
pub struct TuneStep {
    /// Parallel-stage worker count of this step.
    pub workers: u32,
    /// FIFO depth of this step.
    pub fifo_depth_beats: usize,
    /// Measured kernel cycles.
    pub cycles: u64,
    /// This step's bottleneck verdict.
    pub bottleneck: String,
    /// Whether the step improved on the best-so-far by at least the
    /// threshold (the first step is always accepted as the baseline).
    pub accepted: bool,
}

/// The tuner's final configuration and its search trace.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Best run found (with its profile).
    pub best: ProfiledRun,
    /// Cycles of the starting configuration (the un-tuned baseline).
    pub baseline_cycles: u64,
    /// Every step tried, in order.
    pub steps: Vec<TuneStep>,
}

impl TuneOutcome {
    /// Baseline cycles over best cycles (1.0 = the tuner found nothing).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.best.result.cycles as f64
    }
}

/// The knob adjustment a profile's bottleneck verdict calls for: double
/// parallel-stage workers for a saturated parallel stage or a latency-bound
/// memory port, double FIFO depth for a full queue. `None` means no knob
/// addresses the verdict — a saturated sequential stage, conflict-bound
/// memory, a knob at its cap, or (the degenerate case) a verdict naming a
/// stage this profile does not carry (stats from another compile, a
/// deserialized profile) — and the tuner stops with its best-so-far outcome
/// instead of panicking.
#[must_use]
pub fn next_tune_step(
    profile: &Profile,
    mut config: CgpaConfig,
    mut tuning: HwTuning,
) -> Option<(CgpaConfig, HwTuning)> {
    let has_parallel_stage = profile.stages.iter().any(|s| s.parallel);
    match &profile.bottleneck {
        Bottleneck::QueueFull { .. } if tuning.fifo_depth_beats < TUNE_MAX_FIFO_DEPTH => {
            tuning.fifo_depth_beats *= 2;
            Some((config, tuning))
        }
        Bottleneck::Stage { stage, .. } => match profile.stage(*stage) {
            Some(s) if s.parallel && config.workers < TUNE_MAX_WORKERS => {
                config.workers *= 2; // stays a power of two
                Some((config, tuning))
            }
            // A sequential stage cannot be scaled; an absent stage cannot
            // even be classified.
            _ => None,
        },
        Bottleneck::MemoryPort { latency_bound: true, .. }
            if has_parallel_stage && config.workers < TUNE_MAX_WORKERS =>
        {
            // More workers = more ports = more misses in flight.
            config.workers *= 2;
            Some((config, tuning))
        }
        _ => None, // conflict-bound memory, or every knob at its cap
    }
}

/// Profile-guided auto-tuner: iterate compile→run→profile, doubling the
/// knob the bottleneck verdict indicts (see [`next_tune_step`]) until a
/// step improves cycles by less than `min_gain` (see [`TUNE_MIN_GAIN`]) or
/// the bottleneck is one no knob addresses.
///
/// # Errors
/// See [`FlowError`]. Every candidate run is verified against the
/// functional reference, exactly like [`run_cgpa`].
pub fn run_cgpa_tuned_auto(
    k: &BuiltKernel,
    mut config: CgpaConfig,
    mut tuning: HwTuning,
    min_gain: f64,
) -> Result<TuneOutcome, FlowError> {
    let mut steps: Vec<TuneStep> = Vec::new();
    let mut best: Option<ProfiledRun> = None;
    for _ in 0..TUNE_MAX_ITERS {
        let compiled = CgpaCompiler::new(config).compile(&k.func, &k.model)?;
        let spec = RunSpec { tuning, ..RunSpec::new(Target::Cgpa(config)) };
        let result = run_compiled(k, &compiled, &spec)?;
        let stats = result.stats.as_ref().expect("hardware runs capture stats");
        let profile = Profile::from_stats(&k.name, &result.config, &compiled, stats, &tuning)?;
        let cycles = result.cycles;
        // The first step is the baseline; later ones must beat the best by
        // `min_gain`.
        let accepted = best
            .as_ref()
            .is_none_or(|b| (cycles as f64) < b.result.cycles as f64 * (1.0 - min_gain));
        steps.push(TuneStep {
            workers: config.workers,
            fifo_depth_beats: tuning.fifo_depth_beats,
            cycles,
            bottleneck: profile.bottleneck_summary(),
            accepted,
        });
        if !accepted {
            break; // marginal speedup below threshold: stop climbing
        }
        let next = next_tune_step(&profile, config, tuning);
        best = Some(ProfiledRun { result, profile });
        let Some(next) = next else { break }; // no knob addresses this bottleneck
        (config, tuning) = next;
    }
    let best = best.ok_or_else(|| FlowError::Interp("tuner completed no iteration".to_string()))?;
    Ok(TuneOutcome { best, baseline_cycles: steps[0].cycles, steps })
}

/// Explore the design-space lattice for one kernel: compile each distinct
/// configuration once (memoized through `cache`), simulate every lattice
/// point concurrently, and report the (cycles, ALUTs, power) Pareto
/// frontier plus a recommended point under `area_budget_alut`. Partition
/// heuristics are the defaults; `env` supplies miss latency, cache lines
/// when the lattice does not sweep them, and the simulation engine. See
/// [`crate::dse`] for the building blocks.
///
/// # Errors
/// See [`crate::dse::explore`]: per-point failures are recorded in the
/// report, an error means no point was feasible.
pub fn run_cgpa_dse(
    k: &BuiltKernel,
    lattice: &crate::dse::DseLattice,
    env: HwTuning,
    area_budget_alut: u32,
    cache: &crate::dse::CompileCache,
) -> Result<crate::dse::DseReport, FlowError> {
    crate::dse::explore(k, lattice, CgpaConfig::default(), env, area_budget_alut, cache)
}

/// Compare a hardware run's memory and return value against the reference.
fn verify_memory(k: &BuiltKernel, mem: &SimMemory, ret: Option<Value>) -> Result<(), FlowError> {
    let (ref_mem, ref_ret) = k.reference();
    if mem.read_bytes(0, mem.size()) != ref_mem.read_bytes(0, ref_mem.size()) {
        let diffs = cgpa_sim::diff_memories(mem, &ref_mem, 8);
        return Err(FlowError::Mismatch(format!(
            "{}: memory state differs\n{}",
            k.name,
            cgpa_sim::render_diffs(&diffs, None)
        )));
    }
    if ret != ref_ret {
        return Err(FlowError::Mismatch(format!(
            "{}: return value {ret:?} != {ref_ret:?}",
            k.name
        )));
    }
    Ok(())
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
    fn tuner_improves_a_memory_latency_dominated_config() {
        let k = small_em3d();
        // Two cache lines + 400-cycle misses: every access essentially goes
        // to DRAM, so the profile indicts the memory port and the tuner
        // scales workers to get more misses in flight.
        let himem = HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() };
        let base = CgpaConfig { workers: 2, ..CgpaConfig::default() };
        let outcome = run_cgpa_tuned_auto(&k, base, himem, TUNE_MIN_GAIN).unwrap();
        assert!(
            outcome.best.result.cycles < outcome.baseline_cycles,
            "tuner found nothing: baseline {} vs best {}",
            outcome.baseline_cycles,
            outcome.best.result.cycles
        );
        assert!(outcome.steps.len() >= 2);
        assert!(outcome.speedup() > 1.0);
    }

    /// A hand-built profile whose bottleneck verdict names stage
    /// `bottleneck_stage`, while the profile itself only carries stages 0
    /// and 1 (1 parallel) — the shape of a profile deserialized from disk
    /// or assembled against a different compile.
    fn profile_with_bottleneck_stage(bottleneck_stage: usize) -> Profile {
        use crate::profile::{MemoryProfile, StageProfile};
        let stage = |idx: usize, parallel: bool| StageProfile {
            stage: idx,
            name: format!("k_stage{idx}"),
            parallel,
            workers: if parallel { 4 } else { 1 },
            busy: 900,
            stall_mem_read: 0,
            stall_mem_write: 0,
            stall_push: 0,
            stall_pop: 0,
            idle: 100,
            utilization: 0.9,
        };
        Profile {
            kernel: "k".to_string(),
            config: "CGPA(P1)".to_string(),
            shape: "S-P".to_string(),
            workers: 4,
            fifo_depth_beats: 16,
            cycles: 1000,
            stages: vec![stage(0, false), stage(1, true)],
            queues: Vec::new(),
            memory: MemoryProfile {
                ports: 5,
                accesses: 100,
                hits: 90,
                misses: 10,
                conflict_cycles: 0,
                read_stall_cycles: 0,
                write_stall_cycles: 0,
                stall_fraction: 0.0,
            },
            bottleneck: Bottleneck::Stage { stage: bottleneck_stage, utilization: 0.99 },
        }
    }

    #[test]
    fn tune_step_stops_when_the_bottleneck_names_an_absent_stage() {
        // Regression: this used to panic on `.expect("stage")` inside the
        // tuner loop. An out-of-band verdict must stop the climb instead.
        let p = profile_with_bottleneck_stage(7);
        assert!(p.stage(7).is_none());
        assert!(next_tune_step(&p, CgpaConfig::default(), HwTuning::default()).is_none());
        // The summary degrades to an index-only description, same as PR 4's
        // bottleneck_summary fix.
        assert!(p.bottleneck_summary().contains("not in profile"));
    }

    #[test]
    fn tune_step_scales_a_saturated_parallel_stage() {
        let p = profile_with_bottleneck_stage(1); // the parallel stage
        let (c, t) = next_tune_step(&p, CgpaConfig::default(), HwTuning::default()).unwrap();
        assert_eq!(c.workers, CgpaConfig::default().workers * 2);
        assert_eq!(t.fifo_depth_beats, HwTuning::default().fifo_depth_beats);
        // A sequential bottleneck stage has no knob.
        let p = profile_with_bottleneck_stage(0);
        assert!(next_tune_step(&p, CgpaConfig::default(), HwTuning::default()).is_none());
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
