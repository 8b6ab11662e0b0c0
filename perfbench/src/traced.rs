//! The traced decomposition. Each operation is performed as the sequence of
//! layer calls its flow makes inside `cgpa::flows` and `cgpa::dse::explore`,
//! with a `cgpa_obs` span around every call. The decomposition follows those
//! flows call for call, so an operation's signature must equal the untraced
//! flow's; the benchmark counts any difference as a failed operation.

use crate::workload::{check_design, sweep_configs, verify, Op, Sig, INTERP_FUEL};
use cgpa::compiler::{CgpaCompiler, CgpaConfig, Compiled};
use cgpa::dse::{pareto_frontier, DseLattice, DseOutcome, DsePoint, DEFAULT_AREA_BUDGET_ALUT};
use cgpa::flows::HwTuning;
use cgpa_analysis::{build_pdg, classify_sccs, Condensation, PointsTo};
use cgpa_ir::cfg::Cfg;
use cgpa_ir::dom::DomTree;
use cgpa_ir::loops::LoopInfo;
use cgpa_kernels::BuiltKernel;
use cgpa_obs::{Recorder, Span};
use cgpa_pipeline::transform::TransformConfig;
use cgpa_pipeline::{partition_loop, transform_loop, StageKind};
use cgpa_rtl::area::{estimate_area, fifo_area, AreaModel, AreaReport};
use cgpa_rtl::power::{
    energy_delay_product, evaluate, ActivityTrace, PowerModel, PowerReport, CLOCK_HZ,
};
use cgpa_rtl::schedule::{schedule_function, try_schedule_function};
use cgpa_sim::mips::{run_mips, MipsConfig};
use cgpa_sim::{
    run_with_accelerator, CacheConfig, HwConfig, HwSystem, SimMemory, SystemStats, Value,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Trace process of the benchmark's spans.
pub const PID: u32 = 1;
/// Trace track of the benchmark's spans: operations run one at a time.
pub const TID: u32 = 1;

/// The layer an operation's root span charges: whatever the decomposition
/// does not hand to a named layer.
const ROOT: &str = "core.unattributed";

/// Self time per layer and per-layer counts, summed over traced operations.
#[derive(Debug, Default)]
pub struct Totals {
    self_ns: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
    /// Wall time of the traced operations (their root spans).
    pub op_ns: u64,
}

impl Totals {
    /// Self time of `layer`, in ms.
    #[must_use]
    pub fn ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    /// Sum of count `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |&n| n as f64)
    }

    /// Add `other`'s sums to these.
    pub fn merge(&mut self, other: &Totals) {
        for (&layer, ns) in &other.self_ns {
            *self.self_ns.entry(layer).or_insert(0) += ns;
        }
        for (&name, n) in &other.counts {
            *self.counts.entry(name).or_insert(0) += n;
        }
        self.op_ns += other.op_ns;
    }
}

/// Records layer spans and charges each layer its self time: the span's
/// duration minus the part its child spans cover.
pub struct Tracer {
    rec: Recorder,
    op: Cell<u64>,
    /// Start and child time of every open span, innermost last.
    stack: RefCell<Vec<(Instant, u64)>>,
    totals: RefCell<Totals>,
}

/// An open layer span; it closes when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    layer: &'static str,
    _span: Span,
}

impl Tracer {
    /// A tracer recording into `rec`.
    #[must_use]
    pub fn new(rec: Recorder) -> Self {
        Tracer {
            rec,
            op: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            totals: RefCell::default(),
        }
    }

    /// Run operation `id` inside a root span named `label`. Every span the
    /// operation opens carries the same `op` id.
    pub fn op<T>(&self, id: u64, label: &str, f: impl FnOnce() -> T) -> T {
        self.op.set(id);
        let _root = self.open(ROOT, label, "op");
        f()
    }

    /// Open a span for `layer` (`<crate>.<layer>`).
    #[must_use]
    pub fn span(&self, layer: &'static str) -> Guard<'_> {
        let krate = layer.split('.').next().unwrap_or(layer);
        self.open(layer, layer, krate)
    }

    /// Run `f` inside a span for `layer`.
    pub fn time<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(layer);
        f()
    }

    /// Add `n` to count `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.totals.borrow_mut().counts.entry(name).or_insert(0) += n;
    }

    /// The self times and counts recorded so far.
    #[must_use]
    pub fn finish(self) -> Totals {
        self.totals.into_inner()
    }

    fn open(&self, layer: &'static str, name: &str, category: &str) -> Guard<'_> {
        let span = self.rec.span(PID, TID, name, category);
        span.arg("op", self.op.get());
        self.stack.borrow_mut().push((Instant::now(), 0));
        Guard { tracer: self, layer, _span: span }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let mut stack = self.tracer.stack.borrow_mut();
        let Some((start, child_ns)) = stack.pop() else { return };
        let ns = start.elapsed().as_nanos() as u64;
        let mut totals = self.tracer.totals.borrow_mut();
        *totals.self_ns.entry(self.layer).or_insert(0) += ns.saturating_sub(child_ns);
        match stack.last_mut() {
            Some(parent) => parent.1 += ns,
            None => totals.op_ns += ns,
        }
    }
}

/// Perform `op` as its layer calls, returning the signature the untraced
/// flow returns.
///
/// # Errors
/// The first error of a layer call or a check, as text.
pub fn run_op(tr: &Tracer, op: &Op, kernels: &[BuiltKernel]) -> Result<Sig, String> {
    match *op {
        Op::Mips { k } => {
            let k = &kernels[k];
            let mut mem = k.mem.clone();
            let run = tr
                .time("sim.mips", || {
                    run_mips(&k.func, &k.args, &mut mem, INTERP_FUEL, &MipsConfig::default())
                })
                .map_err(|e| e.to_string())?;
            tr.count("sim.mips_instructions", run.instructions);
            check(tr, k, &mem, run.ret)?;
            Ok(Sig { cycles: run.cycles, ..Sig::default() })
        }
        Op::Legup { k } => legup(tr, &kernels[k]),
        Op::Cgpa { k, config, tuning } => {
            let k = &kernels[k];
            let compiled = compile(tr, k, config)?;
            let run = flow(tr, k, &compiled, tuning)?;
            Ok(Sig::scored(run.cycles, run.alut, run.energy_uj))
        }
        Op::Dse { k } => explore(tr, &kernels[k]),
        Op::Compile => {
            let mut bytes = 0;
            for (config, k) in
                sweep_configs().into_iter().flat_map(|c| kernels.iter().map(move |k| (c, k)))
            {
                let compiled = compile(tr, k, config)?;
                let verilog =
                    tr.time("rtl.verilog", || CgpaCompiler::new(config).emit_verilog(&compiled));
                check_design(k, &config, &compiled, &verilog)?;
                bytes += verilog.len() as u64;
            }
            tr.count("rtl.verilog_bytes", bytes);
            Ok(Sig { verilog_bytes: bytes, ..Sig::default() })
        }
    }
}

/// Verification as the flows do it: re-interpret the kernel for its
/// reference result, then compare.
fn check(tr: &Tracer, k: &BuiltKernel, mem: &SimMemory, ret: Option<Value>) -> Result<(), String> {
    let reference = tr.time("kernels.reference", || k.reference());
    tr.count("kernels.reference_calls", 1);
    tr.time("core.verify", || verify(k, mem, ret, &reference))
}

/// `CgpaCompiler::compile`, phase by phase.
fn compile(tr: &Tracer, k: &BuiltKernel, config: CgpaConfig) -> Result<Compiled, String> {
    let _compile = tr.span("core.compile");
    let func = &k.func;
    let (cfg, loops) = tr.time("ir.loops", || {
        let cfg = Cfg::new(func);
        let dom = DomTree::dominators(func, &cfg);
        let loops = LoopInfo::compute(func, &cfg, &dom);
        (cfg, loops)
    });
    let target =
        loops.single_outermost().ok_or_else(|| format!("{}: no single outermost loop", k.name))?;
    let points_to = tr.time("analysis.alias", || PointsTo::compute(func, &k.model));
    let pdg = tr.time("analysis.pdg", || build_pdg(func, &cfg, target, &points_to, &k.model));
    tr.count("analysis.pdg_nodes", pdg.nodes.len() as u64);
    tr.count("analysis.pdg_edges", pdg.edges.len() as u64);
    let condensation = tr.time("analysis.scc", || Condensation::compute(&pdg));
    let classification = tr.time("analysis.classify", || classify_sccs(func, &pdg, &condensation));
    let mut partition = config.partition;
    partition.placement = config.placement;
    let plan = tr
        .time("pipeline.partition", || {
            partition_loop(func, &pdg, &condensation, &classification, partition)
        })
        .map_err(|e| e.to_string())?;
    let shape = plan.shape();
    let transform = TransformConfig { workers: config.workers, loop_id: 0 };
    let pipeline = tr
        .time("pipeline.transform", || {
            transform_loop(func, &cfg, target, &pdg, &condensation, &plan, transform)
        })
        .map_err(|e| e.to_string())?;
    tr.count("pipeline.tasks", pipeline.tasks.len() as u64);
    tr.count("pipeline.queues", pipeline.queues.len() as u64);
    let fsms = tr
        .time("rtl.schedule", || {
            pipeline.module.funcs.iter().map(try_schedule_function).collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    tr.count("rtl.fsm_states", fsms.iter().map(|f| f.states.len() as u64).sum());
    Ok(Compiled { pipeline, plan, shape, fsms, pdg, condensation, classification })
}

/// Simulator counters of one accelerator run.
fn count_sim(tr: &Tracer, stats: &SystemStats) {
    let workers = stats.workers.len() as u64;
    let evaluated = stats.cycles.saturating_sub(stats.skipped_cycles);
    tr.count("sim.hw_cycles", stats.cycles);
    tr.count("sim.skipped_cycles", stats.skipped_cycles);
    tr.count("sim.worker_cycles", workers * stats.cycles);
    tr.count("sim.evaluated_worker_cycles", workers * evaluated);
    tr.count("sim.cache_accesses", stats.cache.accesses);
    tr.count("sim.cache_hits", stats.cache.hits);
    tr.count("sim.cache_conflict_cycles", stats.cache.conflict_cycles);
    tr.count(
        "sim.stall_worker_cycles",
        stats.workers.iter().map(|w| w.stall_mem() + w.stall_fifo()).sum(),
    );
    tr.count("sim.fifo_beats", stats.fifo_beats);
}

/// `run_legup`: one FSM worker over the whole kernel, one cache port.
fn legup(tr: &Tracer, k: &BuiltKernel) -> Result<Sig, String> {
    let _flow = tr.span("core.flow");
    let hw = HwConfig {
        cache: CacheConfig { banks: 1, ..CacheConfig::default() },
        ..HwConfig::default()
    };
    let mut mem = k.mem.clone();
    let mut sys = tr.time("sim.hw_build", || HwSystem::for_single(&k.func, &k.args, hw));
    let stats = tr.time("sim.hw_run", || sys.run(&mut mem)).map_err(|e| e.to_string())?;
    count_sim(tr, &stats);
    check(tr, k, &mem, sys.ret_value())?;
    let fsm = tr.time("rtl.schedule", || schedule_function(&k.func));
    Ok(tr.time("rtl.score", || {
        let area = estimate_area(&AreaModel::default(), &k.func, &fsm);
        let alut = area.total();
        let busy = stats.workers.first().map_or(0, |w| w.busy);
        let activity = ActivityTrace {
            cycles: stats.cycles,
            workers: vec![(area, busy)],
            fifo_beats: 0,
            cache_accesses: stats.cache.accesses,
            cache_ports: 1,
            fifo_area: AreaReport::default(),
        };
        let power = evaluate(&PowerModel::default(), &activity);
        Sig::scored(stats.cycles, alut, power.energy_uj)
    }))
}

/// Cycles and objectives of one scored accelerator run.
struct Scored {
    cycles: u64,
    alut: u32,
    power_mw: f64,
    energy_uj: f64,
}

/// `run_compiled_tuned`: interpret the parent, simulate the accelerator at
/// its fork, verify, score.
fn flow(
    tr: &Tracer,
    k: &BuiltKernel,
    compiled: &Compiled,
    tuning: HwTuning,
) -> Result<Scored, String> {
    let _flow = tr.span("core.flow");
    let pm = &compiled.pipeline;
    let instances = |kind: StageKind| match kind {
        StageKind::Sequential => 1,
        StageKind::Parallel => pm.workers,
    };
    let worker_count: u32 = pm.tasks.iter().map(|t| instances(t.kind)).sum();
    let banks = tuning.cache_banks.map_or_else(|| worker_count.clamp(1, 8), |b| b.max(1));
    let hw = HwConfig {
        cache: CacheConfig {
            banks,
            miss_latency: tuning.miss_latency,
            lines: tuning.cache_lines,
            ..CacheConfig::default()
        },
        fifo_depth_beats: tuning.fifo_depth_beats,
        engine: tuning.engine,
        ..HwConfig::default()
    };
    let mut mem = k.mem.clone();
    let mut captured: Option<SystemStats> = None;
    let mut hw_err: Option<String> = None;
    let parent = {
        let _parent = tr.span("sim.parent");
        run_with_accelerator(
            &pm.parent,
            &k.args,
            &mut mem,
            INTERP_FUEL,
            &mut |_loop_id: u32, live_ins: &[Value], mem: &mut SimMemory| {
                let mut sys = tr.time("sim.hw_build", || HwSystem::for_pipeline(pm, live_ins, hw));
                match tr.time("sim.hw_run", || sys.run(mem)) {
                    Ok(stats) => {
                        captured = Some(stats);
                        Ok(sys.liveouts().to_vec())
                    }
                    Err(e) => {
                        hw_err = Some(e.to_string());
                        Err(e.to_string())
                    }
                }
            },
        )
    };
    let (ret, _) = parent.map_err(|e| hw_err.take().unwrap_or_else(|| e.to_string()))?;
    let stats = captured.ok_or_else(|| format!("{}: the accelerator never ran", k.name))?;
    count_sim(tr, &stats);
    check(tr, k, &mem, ret)?;
    Ok(tr.time("rtl.score", || {
        let model = AreaModel::default();
        let mut worker_areas: Vec<AreaReport> = Vec::new();
        for task in &pm.tasks {
            let f = &pm.module.funcs[task.func_index];
            let area = estimate_area(&model, f, &compiled.fsms[task.func_index]);
            worker_areas.extend(std::iter::repeat_n(area, instances(task.kind) as usize));
        }
        let channels: u32 = pm.queues.iter().map(|q| pm.module.queue(q.queue).channels).sum();
        let fifo = fifo_area(&model, channels);
        let alut = worker_areas.iter().map(AreaReport::total).sum::<u32>() + fifo.total();
        let activity = ActivityTrace {
            cycles: stats.cycles,
            workers: worker_areas.into_iter().zip(stats.workers.iter().map(|w| w.busy)).collect(),
            fifo_beats: stats.fifo_beats,
            cache_accesses: stats.cache.accesses,
            cache_ports: banks,
            fifo_area: fifo,
        };
        let power = evaluate(&PowerModel::default(), &activity);
        Scored { cycles: stats.cycles, alut, power_mw: power.power_mw, energy_uj: power.energy_uj }
    }))
}

/// `run_cgpa_dse` over the default lattice with a fresh cache, one point
/// after another on this thread: each distinct configuration compiles once,
/// every point simulates, and the recommendation follows `explore`'s rule.
fn explore(tr: &Tracer, k: &BuiltKernel) -> Result<Sig, String> {
    let env = HwTuning::default();
    let base = CgpaConfig::default();
    let mut groups: Vec<(CgpaConfig, Vec<DsePoint>)> = Vec::new();
    for p in DseLattice::default().points(&env) {
        let geometry = CacheConfig {
            lines: p.cache_lines,
            banks: p.cache_banks.unwrap_or_else(|| p.workers.clamp(1, 8)),
            ..CacheConfig::default()
        };
        if geometry.validate().is_err() {
            continue;
        }
        let config = p.config(&base);
        match groups.iter_mut().find(|(c, _)| *c == config) {
            Some((_, points)) => points.push(p),
            None => groups.push((config, vec![p])),
        }
    }
    let mut outcomes: Vec<DseOutcome> = Vec::new();
    for (config, points) in &groups {
        // As in `explore`, a configuration that fails to compile and a point
        // that fails to simulate are skipped.
        let Ok(design) = compile(tr, k, *config) else { continue };
        for p in points {
            let Ok(run) = flow(tr, k, &design, p.tuning(&env)) else { continue };
            let power = PowerReport {
                power_mw: run.power_mw,
                energy_uj: run.energy_uj,
                runtime_s: run.cycles as f64 / CLOCK_HZ,
            };
            outcomes.push(DseOutcome {
                point: *p,
                cycles: run.cycles,
                alut: run.alut,
                power_mw: run.power_mw,
                energy_uj: run.energy_uj,
                edp: energy_delay_product(&power),
            });
        }
    }
    let frontier = pareto_frontier(&outcomes);
    let mut fits: Vec<&DseOutcome> =
        frontier.iter().filter(|o| o.alut <= DEFAULT_AREA_BUDGET_ALUT).collect();
    fits.sort_by(|a, b| a.cycles.cmp(&b.cycles).then_with(|| a.edp.total_cmp(&b.edp)));
    let best = fits
        .first()
        .copied()
        .or_else(|| frontier.iter().min_by_key(|o| o.alut))
        .ok_or_else(|| format!("{}: no feasible design point", k.name))?;
    let points_cycles = outcomes.iter().map(|o| o.cycles).sum();
    Ok(Sig { points_cycles, ..Sig::scored(best.cycles, best.alut, best.energy_uj) })
}
