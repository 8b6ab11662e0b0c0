//! The CGPA compiler driver (paper Figure 3's analysis/transform/backend
//! pipeline).

use cgpa_analysis::classify::{classify_sccs, SccClass, SccClassification};
use cgpa_analysis::{build_pdg, Condensation, DepKind, MemoryModel, Pdg, PointsTo};
use cgpa_ir::cfg::Cfg;
use cgpa_ir::dom::DomTree;
use cgpa_ir::loops::{Loop, LoopInfo};
use cgpa_ir::Function;
use cgpa_obs::{Span, Track};
use cgpa_pipeline::transform::TransformConfig;
use cgpa_pipeline::{
    partition_loop, transform_loop, PartitionConfig, PartitionError, PipelineModule, PipelinePlan,
    ReplicablePlacement, StageKind, TransformError,
};
use cgpa_rtl::schedule::try_schedule_function;
use cgpa_rtl::{verilog, Fsm};
use std::error::Error;
use std::fmt;

/// How far the compiler stepped down the degradation ladder to produce a
/// working accelerator (paper configurations, most to least aggressive:
/// P2 replicated pipeline → P1 pipelined → single sequential worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationRung {
    /// P2: heavyweight replicable sections replicated across workers.
    Replicated,
    /// P1: heavyweight replicable sections kept in the pipeline.
    Pipelined,
    /// All pipeline shapes failed: one LegUp-shaped sequential FSM worker.
    Sequential,
}

impl fmt::Display for DegradationRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationRung::Replicated => f.write_str("P2"),
            DegradationRung::Pipelined => f.write_str("P1"),
            DegradationRung::Sequential => f.write_str("sequential"),
        }
    }
}

impl DegradationRung {
    /// The placement this rung compiles with (`None` for the sequential
    /// fallback, which bypasses partitioning entirely).
    #[must_use]
    pub fn placement(self) -> Option<ReplicablePlacement> {
        match self {
            DegradationRung::Replicated => Some(ReplicablePlacement::Replicated),
            DegradationRung::Pipelined => Some(ReplicablePlacement::Pipelined),
            DegradationRung::Sequential => None,
        }
    }
}

/// Outcome of [`CgpaCompiler::compile_degraded`].
#[derive(Debug)]
pub enum DegradedCompile {
    /// A pipeline compiled at `rung`; `attempts` lists the rungs that
    /// failed before it (empty when the first try succeeded).
    Pipeline {
        /// The compiled pipeline.
        compiled: Box<Compiled>,
        /// The rung it compiled at.
        rung: DegradationRung,
        /// Failed higher rungs and why.
        attempts: Vec<(DegradationRung, CompileError)>,
    },
    /// Every pipeline shape failed; the kernel runs as one sequential FSM
    /// worker (its schedule verified).
    Sequential {
        /// Failed pipeline rungs and why.
        attempts: Vec<(DegradationRung, CompileError)>,
    },
}

impl DegradedCompile {
    /// The rung this outcome landed on.
    #[must_use]
    pub fn rung(&self) -> DegradationRung {
        match self {
            DegradedCompile::Pipeline { rung, .. } => *rung,
            DegradedCompile::Sequential { .. } => DegradationRung::Sequential,
        }
    }
}

/// Compiler configuration (paper §4.1 defaults: 4 workers, 16-deep FIFOs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgpaConfig {
    /// Parallel-stage worker count (power of two).
    pub workers: u32,
    /// P1 (pipelined) vs P2 (replicated) placement of heavyweight
    /// replicable sections.
    pub placement: ReplicablePlacement,
    /// Partition heuristics.
    pub partition: PartitionConfig,
}

impl Default for CgpaConfig {
    fn default() -> Self {
        CgpaConfig {
            workers: 4,
            placement: ReplicablePlacement::Pipelined,
            partition: PartitionConfig::default(),
        }
    }
}

/// A compiled kernel: the pipeline, schedules, and analysis artifacts.
#[derive(Debug)]
pub struct Compiled {
    /// The transformed pipeline (tasks + queues + parent).
    pub pipeline: PipelineModule,
    /// The partition.
    pub plan: PipelinePlan,
    /// Table 2 shape string ("S-P-S", …).
    pub shape: String,
    /// FSM per task function (module function order).
    pub fsms: Vec<Fsm>,
    /// The PDG (kept for reporting/examples).
    pub pdg: Pdg,
    /// SCC condensation.
    pub condensation: Condensation,
    /// SCC classification.
    pub classification: SccClassification,
}

/// Compilation failure.
#[derive(Debug)]
pub enum CompileError {
    /// The function does not have exactly one outermost loop.
    NoTargetLoop,
    /// Partitioning failed.
    Partition(PartitionError),
    /// Transform failed.
    Transform(TransformError),
    /// A generated task failed schedule verification (internal bug guard).
    Schedule(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoTargetLoop => f.write_str("kernel must have one outermost loop"),
            CompileError::Partition(e) => write!(f, "partition: {e}"),
            CompileError::Transform(e) => write!(f, "transform: {e}"),
            CompileError::Schedule(e) => write!(f, "schedule: {e}"),
        }
    }
}

impl Error for CompileError {}

impl From<PartitionError> for CompileError {
    fn from(e: PartitionError) -> Self {
        CompileError::Partition(e)
    }
}

impl From<TransformError> for CompileError {
    fn from(e: TransformError) -> Self {
        CompileError::Transform(e)
    }
}

/// The compiler.
#[derive(Debug, Clone, Default)]
pub struct CgpaCompiler {
    /// Configuration.
    pub config: CgpaConfig,
}

impl CgpaCompiler {
    /// Create a compiler with `config`.
    #[must_use]
    pub fn new(config: CgpaConfig) -> Self {
        CgpaCompiler { config }
    }

    /// Run the full flow on `func` with the kernel's alias facts.
    ///
    /// # Errors
    /// See [`CompileError`].
    pub fn compile(&self, func: &Function, model: &MemoryModel) -> Result<Compiled, CompileError> {
        self.compile_inner(func, model, None)
    }

    /// [`CgpaCompiler::compile`], recording every phase as a span on `obs`
    /// when it is given (alias → PDG → SCC condensation → classification →
    /// partition → transform → per-task FSM scheduling), each annotated
    /// with its artifact sizes. The compiled result does not depend on
    /// `obs`.
    pub(crate) fn compile_inner(
        &self,
        func: &Function,
        model: &MemoryModel,
        obs: Option<&Track>,
    ) -> Result<Compiled, CompileError> {
        let compile_span = obs.map(|t| {
            let s = t.span(format!("compile {}", func.name), "compile");
            s.arg("workers", self.config.workers);
            s
        });
        let cfg = Cfg::new(func);
        let dom = DomTree::dominators(func, &cfg);
        let li = LoopInfo::compute(func, &cfg, &dom);
        let target = li.single_outermost().ok_or(CompileError::NoTargetLoop)?;
        let compiled = self.compile_loop(func, model, &cfg, target, 0, obs)?;
        if let Some(s) = &compile_span {
            s.arg("shape", compiled.shape.as_str());
            s.arg("fsm_states_total", compiled.fsms.iter().map(|f| f.states.len()).sum::<usize>());
        }
        Ok(compiled)
    }

    /// Compile one loop of `func`: analysis → partition → transform →
    /// per-task FSM scheduling, with fork/join id `loop_id`.
    fn compile_loop(
        &self,
        func: &Function,
        model: &MemoryModel,
        cfg: &Cfg,
        target: &Loop,
        loop_id: u32,
        obs: Option<&Track>,
    ) -> Result<Compiled, CompileError> {
        let pt = phase(
            obs,
            "alias",
            "analysis",
            || PointsTo::compute(func, model),
            |s, _| {
                s.arg("regions", model.regions().len());
                s.arg("values", func.values.len());
            },
        );
        let pdg = phase(
            obs,
            "pdg",
            "analysis",
            || build_pdg(func, cfg, target, &pt, model),
            |s, pdg| {
                s.arg("nodes", pdg.nodes.len());
                s.arg("edges", pdg.edges.len());
                s.arg("loop_carried_edges", pdg.edges.iter().filter(|e| e.loop_carried).count());
                s.arg(
                    "memory_edges",
                    pdg.edges.iter().filter(|e| e.kind == DepKind::Memory).count(),
                );
            },
        );
        let condensation = phase(
            obs,
            "scc condense",
            "analysis",
            || Condensation::compute(&pdg),
            |s, cond| {
                s.arg("sccs", cond.len());
                s.arg("dag_edges", cond.edges.len());
                s.arg("largest_scc", cond.sccs.iter().map(Vec::len).max().unwrap_or(0));
            },
        );
        let classification = phase(
            obs,
            "scc classify",
            "analysis",
            || classify_sccs(func, &pdg, &condensation),
            |s, classification| {
                let classes = classification.classes();
                let count = |letter: char| classes.iter().filter(|c| c.letter() == letter).count();
                s.arg("parallel", count('P'));
                s.arg("replicable", count('R'));
                s.arg("sequential", count('S'));
                let lightweight = classes
                    .iter()
                    .filter(|c| matches!(c, SccClass::Replicable { lightweight: true }))
                    .count();
                s.arg("lightweight_replicable", lightweight);
            },
        );
        let mut pconfig = self.config.partition;
        pconfig.placement = self.config.placement;
        let plan = phase(
            obs,
            "partition",
            "pipeline",
            || partition_loop(func, &pdg, &condensation, &classification, pconfig),
            |s, plan| match plan {
                Ok(plan) => {
                    s.arg("shape", plan.shape());
                    s.arg("stages", plan.stages.len());
                    s.arg(
                        "parallel_stages",
                        plan.stages.iter().filter(|st| st.kind == StageKind::Parallel).count(),
                    );
                    s.arg("duplicated_sccs", plan.duplicated.len());
                }
                Err(e) => s.arg("error", e.to_string()),
            },
        )?;
        let shape = plan.shape();
        let tconfig = TransformConfig { workers: self.config.workers, loop_id };
        let pipeline = phase(
            obs,
            "transform",
            "pipeline",
            || transform_loop(func, cfg, target, &pdg, &condensation, &plan, tconfig),
            |s, pipeline| match pipeline {
                Ok(pipeline) => {
                    s.arg("tasks", pipeline.tasks.len());
                    s.arg("queues", pipeline.queues.len());
                    s.arg("workers", pipeline.workers);
                    s.arg("live_ins", pipeline.live_ins.len());
                    s.arg("liveouts", pipeline.liveouts.len());
                }
                Err(e) => s.arg("error", e.to_string()),
            },
        )?;
        let mut fsms = Vec::new();
        for f in &pipeline.module.funcs {
            let name = format!("schedule {}", f.name);
            let fsm = phase(
                obs,
                name,
                "rtl",
                || try_schedule_function(f),
                |s, fsm| match fsm {
                    Ok(fsm) => {
                        s.arg("fsm_states", fsm.states.len());
                        s.arg("blocks", f.blocks.len());
                    }
                    Err(e) => s.arg("error", e.to_string()),
                },
            )
            .map_err(|e| CompileError::Schedule(e.to_string()))?;
            fsms.push(fsm);
        }
        Ok(Compiled { pipeline, plan, shape, fsms, pdg, condensation, classification })
    }

    /// [`CgpaCompiler::compile`] with graceful degradation: when a rung
    /// fails (partition infeasible, transform invariant broken, schedule
    /// rejected), step down the ladder P2 → P1 → single sequential worker
    /// instead of erroring. The ladder starts at the configured placement,
    /// so a P1 compiler never "upgrades" to P2.
    ///
    /// # Errors
    /// [`CompileError::Schedule`] when even the sequential fallback fails
    /// schedule verification.
    pub fn compile_degraded(
        &self,
        func: &Function,
        model: &MemoryModel,
    ) -> Result<DegradedCompile, CompileError> {
        let ladder: &[DegradationRung] = match self.config.placement {
            ReplicablePlacement::Replicated => {
                &[DegradationRung::Replicated, DegradationRung::Pipelined]
            }
            ReplicablePlacement::Pipelined => &[DegradationRung::Pipelined],
        };
        let mut attempts: Vec<(DegradationRung, CompileError)> = Vec::new();
        for &rung in ladder {
            let mut config = self.config;
            config.placement = rung.placement().unwrap_or(config.placement);
            match CgpaCompiler::new(config).compile(func, model) {
                Ok(compiled) => {
                    return Ok(DegradedCompile::Pipeline {
                        compiled: Box::new(compiled),
                        rung,
                        attempts,
                    })
                }
                Err(e) => attempts.push((rung, e)),
            }
        }
        // The LegUp-shaped fallback still has to schedule cleanly.
        try_schedule_function(func)
            .map_err(|e| CompileError::Schedule(format!("sequential fallback: {e}")))?;
        Ok(DegradedCompile::Sequential { attempts })
    }

    /// Emit the complete Verilog design: the primitive library, one module
    /// per worker, the top-level accelerator, and the testbench (§3.4,
    /// "Verilog Generation").
    #[must_use]
    pub fn emit_verilog(&self, compiled: &Compiled) -> String {
        self.emit_verilog_inner(compiled, None)
    }

    /// [`CgpaCompiler::emit_verilog`], recording one span per emitted worker
    /// module inside an enclosing `verilog` span (total output size) on
    /// `obs` when it is given.
    pub(crate) fn emit_verilog_inner(&self, compiled: &Compiled, obs: Option<&Track>) -> String {
        let span = obs.map(|t| t.span("verilog", "rtl"));
        let mut out = String::new();
        out.push_str(&verilog::emit_fifo_library());
        out.push('\n');
        let mut worker_insts = Vec::new();
        for task in &compiled.pipeline.tasks {
            let f = &compiled.pipeline.module.funcs[task.func_index];
            let fsm = &compiled.fsms[task.func_index];
            let name = format!("verilog {}", task.name);
            let text = phase(
                obs,
                name,
                "rtl",
                || verilog::emit_worker(f, fsm, &task.name),
                |s, text| {
                    s.arg("bytes", text.len());
                    s.arg("lines", text.lines().count());
                },
            );
            out.push_str(&text);
            out.push('\n');
            worker_insts.push((task.name.clone(), compiled.pipeline.instances(task)));
        }
        let channels: Vec<(String, u32, u32)> = compiled
            .pipeline
            .queues
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let info = compiled.pipeline.module.queue(q.queue);
                (format!("q{i}"), 32, info.channels)
            })
            .collect();
        let top_name = format!("{}_acc", compiled.pipeline.module.name);
        out.push_str(&verilog::emit_top(&top_name, &worker_insts, &channels));
        out.push('\n');
        out.push_str(&verilog::emit_testbench(&top_name));
        if let Some(s) = &span {
            s.arg("bytes", out.len());
            s.arg("modules", compiled.pipeline.tasks.len() + 2);
        }
        out
    }
}

/// Run one compile phase: inside a `name` span on `obs`, annotated by
/// `note` once `run` returns, or as a plain call when `obs` is `None`.
fn phase<R>(
    obs: Option<&Track>,
    name: impl Into<String>,
    cat: &str,
    run: impl FnOnce() -> R,
    note: impl FnOnce(&Span, &R),
) -> R {
    let Some(track) = obs else { return run() };
    let span = track.span(name, cat);
    let out = run();
    note(&span, &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_kernels::{em3d, gaussblur, hash_index, kmeans, ks};

    #[test]
    fn compiles_every_benchmark_to_table2_shapes() {
        let compiler = CgpaCompiler::default();
        let cases: Vec<(cgpa_kernels::BuiltKernel, &str)> = vec![
            (kmeans::build(&kmeans::Params { points: 16, clusters: 3, features: 4 }, 1), "P-S"),
            (
                hash_index::build(&hash_index::Params { items: 16, buckets: 8, scatter: 4 }, 1),
                "S-P-S",
            ),
            (ks::build(&ks::Params { a_cells: 6, b_cells: 6, scatter: 4 }, 1), "S-P-S"),
            (em3d::build(&em3d::Params::fixed(8, 8, 3, 4), 1), "S-P"),
            (gaussblur::build(&gaussblur::Params { width: 32 }, 1), "S-P"),
        ];
        for (k, expect) in cases {
            let c = compiler.compile(&k.func, &k.model).unwrap();
            assert_eq!(c.shape, expect, "{}", k.name);
        }
    }

    #[test]
    fn verilog_contains_library_workers_top_and_testbench() {
        let k = em3d::build(&em3d::Params::fixed(8, 8, 3, 4), 1);
        let compiler = CgpaCompiler::default();
        let c = compiler.compile(&k.func, &k.model).unwrap();
        let v = compiler.emit_verilog(&c);
        assert!(v.contains("module cgpa_fifo"));
        assert!(v.contains("module em3d_stage0"));
        assert!(v.contains("module em3d_stage1"));
        assert!(v.contains("module em3d_pipeline_acc"));
        assert!(v.contains("module tb_em3d_pipeline_acc"));
        // 4 parallel workers instantiated.
        assert_eq!(v.matches("em3d_stage1 em3d_stage1_u").count(), 4);
    }

    /// `for (i = 0; i < n; i++) { if (a[i] < 0) return 1; b[i] = 3 * a[i]; }
    /// return 0;` — a unique preheader, but two exit targets.
    fn early_exit_loop() -> (Function, MemoryModel) {
        use cgpa_ir::{BinOp, IntPredicate, Ty};
        let mut bld = cgpa_ir::FunctionBuilder::new(
            "early_exit",
            &[("a", Ty::Ptr), ("b", Ty::Ptr), ("n", Ty::I32)],
            Some(Ty::I32),
        );
        let (a, bp, n) = (bld.param(0), bld.param(1), bld.param(2));
        let header = bld.append_block("header");
        let body = bld.append_block("body");
        let cont = bld.append_block("cont");
        let found = bld.append_block("found");
        let done = bld.append_block("done");
        let zero = bld.const_i32(0);
        let one = bld.const_i32(1);
        let three = bld.const_i32(3);
        bld.br(header);
        bld.switch_to(header);
        let i = bld.phi(Ty::I32, "i");
        let more = bld.icmp(IntPredicate::Slt, i, n);
        bld.cond_br(more, body, done);
        bld.switch_to(body);
        let pa = bld.gep(a, i, 4, 0);
        let x = bld.load(pa, Ty::I32);
        let neg = bld.icmp(IntPredicate::Slt, x, zero);
        bld.cond_br(neg, found, cont);
        bld.switch_to(cont);
        let y = bld.binary(BinOp::Mul, x, three);
        let pb = bld.gep(bp, i, 4, 0);
        bld.store(pb, y);
        let i2 = bld.binary(BinOp::Add, i, one);
        bld.br(header);
        bld.switch_to(found);
        bld.ret(Some(one));
        bld.switch_to(done);
        bld.ret(Some(zero));
        bld.add_phi_incoming(i, bld.entry_block(), zero);
        bld.add_phi_incoming(i, cont, i2);
        let mut mm = MemoryModel::new();
        let ra = mm.add_region("a", 4, true, false);
        let rb = mm.add_region("b", 4, false, true);
        mm.bind_param(0, ra);
        mm.bind_param(1, rb);
        (bld.finish().unwrap(), mm)
    }

    #[test]
    fn an_early_exit_loop_reports_its_exit_count() {
        let (f, mm) = early_exit_loop();
        let compiler = CgpaCompiler::default();
        let err = compiler.compile(&f, &mm).unwrap_err();
        assert!(matches!(err, CompileError::Transform(TransformError::MultipleExits(2))), "{err}");
        let degraded = compiler.compile_degraded(&f, &mm).unwrap();
        let DegradedCompile::Sequential { attempts } = degraded else {
            panic!("an early-exit loop must fall back to the sequential rung")
        };
        assert_eq!(attempts.len(), 1);
        assert_eq!(attempts[0].0, DegradationRung::Pipelined);
        assert!(
            matches!(attempts[0].1, CompileError::Transform(TransformError::MultipleExits(2))),
            "{}",
            attempts[0].1
        );
    }

    #[test]
    fn straightline_function_is_rejected() {
        let mut b = cgpa_ir::FunctionBuilder::new("s", &[], None);
        b.ret(None);
        let f = b.finish().unwrap();
        let err = CgpaCompiler::default().compile(&f, &cgpa_analysis::MemoryModel::new());
        assert!(matches!(err, Err(CompileError::NoTargetLoop)));
    }
}

/// A whole program compiled loop by loop: every outermost loop becomes its
/// own pipelined accelerator (own `loop_id`, own task module and queues);
/// the final parent invokes them in order via `parallel_fork`/`join` —
/// this is where scheduling constraint 2 (eq. 2: forks of different loops
/// never share a cycle) becomes observable.
#[derive(Debug)]
pub struct CompiledProgram {
    /// One compiled pipeline per accelerated loop, in program order;
    /// `accelerators[i]` has `loop_id == i`.
    pub accelerators: Vec<Compiled>,
    /// The fully rewritten parent (every loop replaced by fork/join).
    pub parent: Function,
}

impl CgpaCompiler {
    /// Compile *every* outermost loop of `func` into its own accelerator
    /// (paper Figure 3: the profiling step identifies multiple hotspots).
    ///
    /// Loops are compiled in header order. Liveout register slots are
    /// shared hardware: each loop numbers its slots from 0, and the parent
    /// retrieves a loop's liveouts before forking the next.
    ///
    /// # Errors
    /// Fails if any loop fails to compile (see [`CompileError`]); a
    /// function with no loops reports [`CompileError::NoTargetLoop`].
    pub fn compile_program(
        &self,
        func: &Function,
        model: &MemoryModel,
    ) -> Result<CompiledProgram, CompileError> {
        let mut accelerators = Vec::new();
        let mut current = func.clone();
        loop {
            let cfg = Cfg::new(&current);
            let dom = DomTree::dominators(&current, &cfg);
            let li = LoopInfo::compute(&current, &cfg, &dom);
            let Some(target) = li.loops().iter().find(|l| l.depth == 1) else { break };
            let loop_id = accelerators.len() as u32;
            let compiled = self.compile_loop(&current, model, &cfg, target, loop_id, None)?;
            current = compiled.pipeline.parent.clone();
            accelerators.push(compiled);
        }
        if accelerators.is_empty() {
            return Err(CompileError::NoTargetLoop);
        }
        // The final parent must itself satisfy the scheduling constraints
        // (one fork per state, different loops in different cycles).
        try_schedule_function(&current)
            .map_err(|e| CompileError::Schedule(format!("parent: {e}")))?;
        Ok(CompiledProgram { accelerators, parent: current })
    }
}
