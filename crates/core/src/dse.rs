//! Parallel design-space exploration over the CGPA configuration lattice —
//! the library's one configuration search.
//!
//! The paper's partitioner picks one design point (§4.1: 16-deep FIFOs, one
//! cache port per worker) and never sees the area/power models. This module
//! enumerates a configuration lattice per kernel (parallel-stage workers,
//! FIFO depth, cache geometry, P1/P2 placement), evaluates every point with
//! a scoped-thread fan-out, and scores each on three objectives at once:
//! simulated **cycles**, estimated **ALUTs**, and modelled **power**. Points
//! sharing a compiled design (same kernel IR, same [`CgpaConfig`]) pay for
//! compilation once via a content-hash [`CompileCache`]. The result is the
//! 3-objective Pareto frontier plus a recommended point under an area
//! budget (the DE4/Stratix IV envelope of the paper's evaluation,
//! [`DE4_ALUT_BUDGET`]).
//!
//! **Depth replay over identical hardware.** Configs can compile to the
//! same hardware: on a kernel whose replicable sections need no feeders,
//! P2 gives exactly the P1 design. Two designs are the same hardware when
//! their pipeline and FSMs are equal, which is everything a run simulates
//! and scores; the placement only labels the run. FIFO depth reaches the
//! simulator only through the push-side full check
//! (`QueueState::can_push`): a run in which no push ever blocked takes the
//! same path, cycle for cycle, at every deeper depth. The explorer
//! therefore walks each *chain* — the points sharing one hardware design
//! and one cache geometry, whatever config compiled it, differing only in
//! depth — shallowest first. Each depth of a chain simulates at most once
//! (a point at a depth already run takes that run's outcome, failure
//! included), and every point deeper than a successful run with zero
//! push-wait cycles on every worker replays that run's outcome instead of
//! simulating ([`DseReport::simulated`] counts the real runs). A failed
//! run never seeds a deeper replay. The rule is exact under two
//! assumptions: the explorer arms no fault plan (an injected duplicate
//! beat can exceed the nominal depth), and scoring never reads depth or
//! placement (the area model prices FIFO channels, not beats).
//! `crates/core/tests/dse.rs` checks every replayed outcome against a
//! brute-force run, so a model that starts pricing depth fails it.
//!
//! Every built-in lattice contains the paper's default point (4 workers,
//! 16-beat FIFOs, P1), so the best frontier point never loses to the
//! default configuration. `experiments bench` runs [`DseLattice::quick`] in
//! its slow-memory regime; a [`crate::profile::Profile`] of the
//! recommended point explains what still limits it.

use crate::compiler::{CgpaCompiler, CgpaConfig, CompileError, Compiled};
use crate::flows::{run_compiled, FlowError, HwTuning, RunResult, RunSpec, Target};
use cgpa_analysis::MemoryModel;
use cgpa_ir::printer::print_function;
use cgpa_ir::Function;
use cgpa_kernels::BuiltKernel;
use cgpa_pipeline::ReplicablePlacement;
use cgpa_rtl::area::DE4_ALUT_BUDGET;
use cgpa_rtl::power::{energy_delay_product, PowerReport, CLOCK_HZ};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Map `f` over `items` with at most `cap` scoped worker threads pulling
/// items off a shared cursor, preserving input order. The lattice can hold
/// hundreds of points, and one thread per point would oversubscribe the
/// host; plain `std::thread::scope` is enough — no pool, no extra
/// dependencies. The explorer and the bench harness share it.
pub fn par_map_capped<T, R, F>(items: &[T], cap: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cap = cap.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|s| {
        for _ in 0..cap {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                collected.lock().expect("a worker panicked holding the result lock").push((i, r));
            });
        }
    });
    let mut got = collected.into_inner().expect("scope propagates worker panics");
    got.sort_by_key(|&(i, _)| i);
    got.into_iter().map(|(_, r)| r).collect()
}

/// The configuration lattice the explorer enumerates, as independent axes.
#[derive(Debug, Clone)]
pub struct DseLattice {
    /// Parallel-stage worker counts (powers of two).
    pub workers: Vec<u32>,
    /// FIFO depths per channel in 32-bit beats.
    pub fifo_depths: Vec<usize>,
    /// D-cache line counts. Empty = inherit the environment's value
    /// ([`HwTuning::cache_lines`]) rather than sweeping the axis.
    pub cache_lines: Vec<u32>,
    /// D-cache bank (port) overrides; `None` derives one port per worker
    /// as the paper does (§4.1).
    pub cache_banks: Vec<Option<u32>>,
    /// Replicable-SCC duplication policies: P1 (pipelined) and/or P2
    /// (replicated). Points whose placement a kernel cannot compile are
    /// skipped with the compile error recorded.
    pub placements: Vec<ReplicablePlacement>,
}

impl Default for DseLattice {
    /// The full lattice: workers 1–16 and FIFO depth 16–256 in powers of
    /// two, under both the P1 and P2 placements. It contains the paper's
    /// default point (4 workers, 16-beat FIFOs, P1).
    fn default() -> Self {
        DseLattice {
            workers: vec![1, 2, 4, 8, 16],
            fifo_depths: vec![16, 32, 64, 128, 256],
            cache_lines: Vec::new(),
            cache_banks: vec![None],
            placements: vec![ReplicablePlacement::Pipelined, ReplicablePlacement::Replicated],
        }
    }
}

impl DseLattice {
    /// A small lattice for smoke runs (CI) and `experiments bench`'s
    /// slow-memory search: the worker axis stays full — it is the
    /// highest-leverage knob — but FIFO depth is sampled (16, 64, 256) and
    /// the placement axis is P1 only. It still contains the default point.
    #[must_use]
    pub fn quick() -> Self {
        DseLattice {
            workers: vec![1, 2, 4, 8, 16],
            fifo_depths: vec![16, 64, 256],
            cache_lines: Vec::new(),
            cache_banks: vec![None],
            placements: vec![ReplicablePlacement::Pipelined],
        }
    }

    /// Materialize the cross product of all axes under environment `env`.
    #[must_use]
    pub fn points(&self, env: &HwTuning) -> Vec<DsePoint> {
        let lines: &[u32] =
            if self.cache_lines.is_empty() { &[env.cache_lines] } else { &self.cache_lines };
        let mut out = Vec::new();
        for &placement in &self.placements {
            for &workers in &self.workers {
                for &fifo_depth_beats in &self.fifo_depths {
                    for &cache_lines in lines {
                        for &cache_banks in &self.cache_banks {
                            out.push(DsePoint {
                                workers,
                                placement,
                                fifo_depth_beats,
                                cache_lines,
                                cache_banks,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// One candidate configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsePoint {
    /// Parallel-stage worker count.
    pub workers: u32,
    /// P1 vs P2 placement.
    pub placement: ReplicablePlacement,
    /// FIFO depth per channel in beats.
    pub fifo_depth_beats: usize,
    /// D-cache lines.
    pub cache_lines: u32,
    /// D-cache banks; `None` = one port per worker (clamped to 8).
    pub cache_banks: Option<u32>,
}

impl DsePoint {
    /// Compact human-readable label, e.g. `P1 w4 fifo16 lines512`.
    #[must_use]
    pub fn label(&self) -> String {
        let banks = match self.cache_banks {
            Some(b) => format!(" banks{b}"),
            None => String::new(),
        };
        format!(
            "{} w{} fifo{} lines{}{banks}",
            self.placement, self.workers, self.fifo_depth_beats, self.cache_lines
        )
    }

    /// The compiler configuration of this point (partition heuristics come
    /// from `base`).
    #[must_use]
    pub fn config(&self, base: &CgpaConfig) -> CgpaConfig {
        CgpaConfig { workers: self.workers, placement: self.placement, partition: base.partition }
    }

    /// The simulator knobs of this point; miss latency and engine come from
    /// the environment `env`.
    #[must_use]
    pub fn tuning(&self, env: &HwTuning) -> HwTuning {
        HwTuning {
            fifo_depth_beats: self.fifo_depth_beats,
            cache_lines: self.cache_lines,
            cache_banks: self.cache_banks,
            miss_latency: env.miss_latency,
            engine: env.engine,
        }
    }
}

/// A fully evaluated design point: the three objectives plus secondary
/// metrics.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// The configuration.
    pub point: DsePoint,
    /// Objective 1: simulated kernel cycles (minimize).
    pub cycles: u64,
    /// Objective 2: estimated ALUTs (minimize).
    pub alut: u32,
    /// Objective 3: modelled average power in mW (minimize).
    pub power_mw: f64,
    /// Energy in µJ.
    pub energy_uj: f64,
    /// Energy-delay product in µJ·s (tie-breaker between frontier points).
    pub edp: f64,
}

/// `a` dominates `b` when `a` is no worse on every objective and strictly
/// better on at least one.
#[must_use]
pub fn dominates(a: &DseOutcome, b: &DseOutcome) -> bool {
    a.cycles <= b.cycles
        && a.alut <= b.alut
        && a.power_mw <= b.power_mw
        && (a.cycles < b.cycles || a.alut < b.alut || a.power_mw < b.power_mw)
}

/// The non-dominated subset of `outcomes` (input order preserved).
#[must_use]
pub fn pareto_frontier(outcomes: &[DseOutcome]) -> Vec<DseOutcome> {
    outcomes.iter().filter(|c| !outcomes.iter().any(|o| dominates(o, c))).cloned().collect()
}

/// Compile-cache counters. `compiles` counts actual compiler invocations
/// (successes only — failed compiles are re-validated each run, they are
/// cheap and never cached); `hits` counts lookups served from the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCacheStats {
    /// Compiler invocations that produced (and cached) a design.
    pub compiles: u64,
    /// Lookups answered without compiling.
    pub hits: u64,
}

/// Content-addressed compile memoization: designs are keyed on a hash of
/// the kernel's printed IR text and its memory model plus every
/// [`CgpaConfig`] field that feeds the compiler, so the N simulation configs
/// sharing one compiled design pay for compilation once — and a second
/// exploration over the same kernels compiles nothing at all. Shareable
/// across threads; cached designs come back as [`Arc<Compiled>`].
#[derive(Debug, Default)]
pub struct CompileCache {
    entries: Mutex<HashMap<u64, Arc<Compiled>>>,
    compiles: AtomicU64,
    hits: AtomicU64,
}

impl CompileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// The content hash for (kernel IR, memory model, compiler config). The
    /// kernel is keyed by its printed IR text (the printer is stable and
    /// covers everything the compiler reads) and its memory model's `Debug`
    /// text; `config.partition` is not hashed: its only field is the
    /// placement, which the compiler takes from `config.placement`.
    #[must_use]
    pub fn key(func: &Function, model: &MemoryModel, config: &CgpaConfig) -> u64 {
        Self::design_key(Self::kernel_key(func, model), config)
    }

    /// The kernel's part of [`CompileCache::key`], which an exploration
    /// computes once for all its configs.
    fn kernel_key(func: &Function, model: &MemoryModel) -> u64 {
        let mut h = DefaultHasher::new();
        print_function(func).hash(&mut h);
        format!("{model:?}").hash(&mut h);
        h.finish()
    }

    /// [`CompileCache::key`] from the kernel's part.
    fn design_key(kernel: u64, config: &CgpaConfig) -> u64 {
        let mut h = DefaultHasher::new();
        kernel.hash(&mut h);
        config.workers.hash(&mut h);
        matches!(config.placement, ReplicablePlacement::Replicated).hash(&mut h);
        h.finish()
    }

    /// The cached design for (`func`, `config`), compiling on a miss.
    ///
    /// Compiles are deterministic, so on a concurrent same-key miss either
    /// thread's design is interchangeable; the first insert wins.
    ///
    /// # Errors
    /// [`CompileError`] from a fresh compile; failures are not cached.
    pub fn get_or_compile(
        &self,
        func: &Function,
        model: &MemoryModel,
        config: CgpaConfig,
    ) -> Result<Arc<Compiled>, CompileError> {
        self.get_or_compile_keyed(Self::kernel_key(func, model), func, model, config)
    }

    /// [`CompileCache::get_or_compile`] with the kernel's part of the key
    /// computed by the caller.
    fn get_or_compile_keyed(
        &self,
        kernel: u64,
        func: &Function,
        model: &MemoryModel,
        config: CgpaConfig,
    ) -> Result<Arc<Compiled>, CompileError> {
        let key = Self::design_key(kernel, &config);
        if let Some(hit) = self.entries.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        let compiled = Arc::new(CgpaCompiler::new(config).compile(func, model)?);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("cache lock")
            .entry(key)
            .or_insert_with(|| Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Counters since construction.
    #[must_use]
    pub fn stats(&self) -> CompileCacheStats {
        CompileCacheStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// Number of cached designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// True when nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One kernel's exploration result.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Kernel name.
    pub kernel: String,
    /// The area budget the recommendation was made under.
    pub area_budget_alut: u32,
    /// Every feasible point with its objectives, lattice order.
    pub evaluated: Vec<DseOutcome>,
    /// Points that failed to compile or simulate, with the reason (e.g. the
    /// P2 placement on a kernel with no replicable section).
    pub skipped: Vec<(DsePoint, String)>,
    /// The non-dominated subset of `evaluated`.
    pub frontier: Vec<DseOutcome>,
    /// Fastest frontier point fitting the area budget (falls back to the
    /// smallest frontier point when nothing fits).
    pub recommended: Option<DseOutcome>,
    /// Runs this exploration actually simulated, failed ones included: at
    /// most one per distinct (hardware design, cache geometry, FIFO depth).
    /// The other points took the outcome of a run of the same hardware at
    /// their depth or, push-free, at a shallower one.
    pub simulated: u64,
    /// Compiler invocations this exploration performed (one per distinct
    /// `CgpaConfig` on a cold cache; zero on a warm one).
    pub compiles: u64,
    /// Compile-cache hits this exploration observed.
    pub cache_hits: u64,
}

impl DseReport {
    /// Cycles of the fastest frontier point.
    #[must_use]
    pub fn best_cycles(&self) -> Option<u64> {
        self.frontier.iter().map(|o| o.cycles).min()
    }
}

fn outcome_of(point: DsePoint, r: &RunResult) -> DseOutcome {
    let power = PowerReport {
        power_mw: r.power_mw,
        energy_uj: r.energy_uj,
        runtime_s: r.cycles as f64 / CLOCK_HZ,
    };
    DseOutcome {
        point,
        cycles: r.cycles,
        alut: r.alut,
        power_mw: r.power_mw,
        energy_uj: r.energy_uj,
        edp: energy_delay_product(&power),
    }
}

/// A feasible point with its compiler config and compiled design. Points
/// whose configs compile to the same hardware share one `Arc`.
type Sim = (DsePoint, CgpaConfig, Arc<Compiled>);

/// A point's index into the `Sim` list and its outcome or failure text.
type PointRun = (usize, Result<DseOutcome, String>);

/// Whether two compiled designs are the same hardware: the same pipeline
/// (task module, parent, tasks, queues, liveouts) and the same FSMs, which
/// is everything a run simulates and scores. The placement a design was
/// compiled under only labels its runs.
fn same_hardware(a: &Compiled, b: &Compiled) -> bool {
    a.pipeline == b.pipeline && a.fsms == b.fsms
}

/// Split `sims` into FIFO-depth chains: the indices of points that share
/// one design and one cache geometry, each chain sorted shallowest first
/// (ties keep lattice order). Chains come in order of their first point.
fn depth_chains(sims: &[Sim]) -> Vec<Vec<usize>> {
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for (i, (p, _, design)) in sims.iter().enumerate() {
        let same_chain = |&j: &usize| {
            let (q, _, qdesign) = &sims[j];
            Arc::ptr_eq(qdesign, design)
                && q.cache_lines == p.cache_lines
                && q.cache_banks == p.cache_banks
        };
        match chains.iter_mut().find(|c| c.first().is_some_and(same_chain)) {
            Some(c) => c.push(i),
            None => chains.push(vec![i]),
        }
    }
    for c in &mut chains {
        c.sort_by_key(|&i| sims[i].0.fifo_depth_beats);
    }
    chains
}

/// Evaluate one FIFO-depth chain of `sims`: each point's index and outcome,
/// and the number of runs simulated. Each depth simulates at most once: a
/// point at the depth of the last run takes its outcome, failure text
/// included. Points simulate until a run succeeds without a single
/// push-wait cycle; every deeper point then replays that run's outcome,
/// because depth only gates pushes.
fn run_chain(
    k: &BuiltKernel,
    env: &HwTuning,
    sims: &[Sim],
    chain: &[usize],
) -> (Vec<PointRun>, u64) {
    // The last run's depth and result, and whether it seeds every deeper
    // point.
    let mut last: Option<(usize, Result<DseOutcome, String>)> = None;
    let mut seeds = false;
    let mut simulated = 0;
    let outcomes = chain
        .iter()
        .map(|&i| {
            let (p, cfg, design) = &sims[i];
            if let Some((_, r)) =
                last.as_ref().filter(|(depth, _)| seeds || *depth == p.fifo_depth_beats)
            {
                return (i, r.clone().map(|o| DseOutcome { point: *p, ..o }));
            }
            simulated += 1;
            let spec = RunSpec { tuning: p.tuning(env), ..RunSpec::new(Target::Cgpa(*cfg)) };
            let run = run_compiled(k, design, &spec);
            seeds = run.as_ref().is_ok_and(|r| {
                r.stats.as_ref().is_some_and(|s| s.workers.iter().all(|w| w.stall_push() == 0))
            });
            let r = run.map(|r| outcome_of(*p, &r)).map_err(|e| e.to_string());
            last = Some((p.fifo_depth_beats, r.clone()));
            (i, r)
        })
        .collect();
    (outcomes, simulated)
}

/// Explore `lattice` for kernel `k`: compile each distinct configuration
/// once through `cache`, simulate the FIFO-depth chains of each distinct
/// hardware design concurrently (replaying push-free runs at deeper
/// depths, see the module doc), and report the 3-objective Pareto
/// frontier plus a recommendation under `area_budget_alut`. Partition
/// heuristics are [`CgpaConfig::default`]'s; miss latency, cache lines
/// when the lattice does not sweep them, and the simulation engine come
/// from `env`.
///
/// Points with invalid cache geometry (a zero on a sweep axis) are
/// rejected up front via [`cgpa_sim::cache::CacheConfig::validate`] and
/// recorded in [`DseReport::skipped`].
///
/// # Errors
/// [`FlowError::NoFeasiblePoint`] when *no* lattice point is feasible;
/// per-point failures (compile or simulate) are recorded in
/// [`DseReport::skipped`] instead.
pub fn explore(
    k: &BuiltKernel,
    lattice: &DseLattice,
    env: HwTuning,
    area_budget_alut: u32,
    cache: &CompileCache,
) -> Result<DseReport, FlowError> {
    let stats_before = cache.stats();
    let mut skipped: Vec<(DsePoint, String)> = Vec::new();
    let mut points: Vec<DsePoint> = Vec::new();
    for p in lattice.points(&env) {
        match p.tuning(&env).cache_config(p.workers).validate() {
            Ok(()) => points.push(p),
            Err(e) => skipped.push((p, e.to_string())),
        }
    }

    // Group points by compiler config: each group shares one design.
    let base = CgpaConfig::default();
    let mut groups: Vec<(CgpaConfig, Vec<DsePoint>)> = Vec::new();
    for p in points {
        let cfg = p.config(&base);
        match groups.iter_mut().find(|(c, _)| *c == cfg) {
            Some((_, ps)) => ps.push(p),
            None => groups.push((cfg, vec![p])),
        }
    }

    let cap = host_threads();
    // Phase 1: compile each group once, through the memoizing cache.
    let kernel = CompileCache::kernel_key(&k.func, &k.model);
    let compiled = par_map_capped(&groups, cap, |(cfg, _)| {
        cache.get_or_compile_keyed(kernel, &k.func, &k.model, *cfg).map_err(|e| e.to_string())
    });

    // Each group takes the design of the first earlier group that compiled
    // to the same hardware, so their points share FIFO-depth chains.
    let mut sims: Vec<Sim> = Vec::new();
    let mut designs: Vec<Arc<Compiled>> = Vec::new();
    for ((cfg, ps), c) in groups.iter().zip(compiled) {
        match c {
            Ok(design) => {
                let design = match designs.iter().find(|d| same_hardware(d, &design)) {
                    Some(twin) => Arc::clone(twin),
                    None => {
                        designs.push(Arc::clone(&design));
                        design
                    }
                };
                sims.extend(ps.iter().map(|&p| (p, *cfg, Arc::clone(&design))));
            }
            Err(e) => skipped.extend(ps.iter().map(|&p| (p, format!("compile: {e}")))),
        }
    }
    // Phase 2: simulate each FIFO-depth chain, shallowest point first; a
    // run that never blocked a push seeds every deeper point of its chain.
    let mut runs = Vec::with_capacity(sims.len());
    let mut simulated = 0;
    for (outcomes, n) in
        par_map_capped(&depth_chains(&sims), cap, |chain| run_chain(k, &env, &sims, chain))
    {
        runs.extend(outcomes);
        simulated += n;
    }
    runs.sort_by_key(|&(i, _)| i);
    let mut evaluated: Vec<DseOutcome> = Vec::new();
    for ((p, _, _), (_, r)) in sims.iter().zip(runs) {
        match r {
            Ok(o) => evaluated.push(o),
            Err(e) => skipped.push((*p, format!("simulate: {e}"))),
        }
    }
    if evaluated.is_empty() {
        let why = skipped
            .first()
            .map_or_else(|| "empty lattice".to_string(), |(p, e)| format!("{}: {e}", p.label()));
        return Err(FlowError::NoFeasiblePoint(format!("no feasible design point ({why})")));
    }

    let frontier = pareto_frontier(&evaluated);
    // Recommend the fastest frontier point that fits the budget; when none
    // fits, the smallest one (the least-infeasible design).
    let mut fits: Vec<&DseOutcome> =
        frontier.iter().filter(|o| o.alut <= area_budget_alut).collect();
    fits.sort_by(|a, b| a.cycles.cmp(&b.cycles).then_with(|| a.edp.total_cmp(&b.edp)));
    let recommended = match fits.first() {
        Some(o) => Some((**o).clone()),
        None => frontier.iter().min_by_key(|o| o.alut).cloned(),
    };

    let stats_after = cache.stats();
    Ok(DseReport {
        kernel: k.name.clone(),
        area_budget_alut,
        evaluated,
        skipped,
        frontier,
        recommended,
        simulated,
        compiles: stats_after.compiles - stats_before.compiles,
        cache_hits: stats_after.hits - stats_before.hits,
    })
}

/// The fan-out width of the explorer and of the experiment sweeps: the
/// host's available parallelism, read once per process (reading it can open
/// the cgroup quota files).
#[must_use]
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(4, usize::from))
}

/// The default area budget: the DE4's Stratix IV envelope.
pub const DEFAULT_AREA_BUDGET_ALUT: u32 = DE4_ALUT_BUDGET;

#[cfg(test)]
mod tests {
    use super::*;

    fn o(cycles: u64, alut: u32, power_mw: f64) -> DseOutcome {
        DseOutcome {
            point: DsePoint {
                workers: 1,
                placement: ReplicablePlacement::Pipelined,
                fifo_depth_beats: 16,
                cache_lines: 512,
                cache_banks: None,
            },
            cycles,
            alut,
            power_mw,
            energy_uj: 0.0,
            edp: 0.0,
        }
    }

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        assert!(dominates(&o(10, 10, 1.0), &o(20, 10, 1.0)));
        assert!(!dominates(&o(10, 10, 1.0), &o(10, 10, 1.0))); // equal: no
        assert!(!dominates(&o(10, 20, 1.0), &o(20, 10, 1.0))); // trade-off
    }

    #[test]
    fn frontier_drops_dominated_points_only() {
        let all = vec![o(10, 30, 1.0), o(20, 20, 1.0), o(30, 10, 1.0), o(25, 25, 1.0)];
        let f = pareto_frontier(&all);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|p| p.cycles != 25));
    }

    #[test]
    fn capped_map_preserves_order() {
        let items: Vec<u32> = (0..37).collect();
        let doubled = par_map_capped(&items, 4, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // Degenerate caps.
        assert_eq!(par_map_capped(&items, 0, |x| *x), items);
        assert!(par_map_capped(&Vec::<u32>::new(), 3, |x| *x).is_empty());
    }
}
