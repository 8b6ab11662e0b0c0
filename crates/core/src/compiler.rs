//! The CGPA compiler driver (paper Figure 3's analysis/transform/backend
//! pipeline).

use cgpa_analysis::classify::SccClassification;
use cgpa_analysis::obs::{
    build_pdg_traced, classify_traced, condensation_traced, points_to_traced,
};
use cgpa_analysis::{Condensation, MemoryModel, Pdg};
use cgpa_ir::cfg::Cfg;
use cgpa_ir::dom::DomTree;
use cgpa_ir::loops::LoopInfo;
use cgpa_ir::Function;
use cgpa_obs::Track;
use cgpa_pipeline::obs::{partition_traced, transform_traced};
use cgpa_pipeline::transform::TransformConfig;
use cgpa_pipeline::{
    PartitionConfig, PartitionError, PipelineModule, PipelinePlan, ReplicablePlacement,
    TransformError,
};
use cgpa_rtl::obs::{emit_worker_traced, schedule_traced};
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

/// Policy for graceful degradation: which fallback rungs a failed compile
/// may retry before giving up.
#[derive(Debug, Clone, Copy)]
pub struct DegradationPolicy {
    /// Retry weaker placements (P2 → P1) after a compile failure.
    pub allow_placement_fallback: bool,
    /// Fall back to a single sequential worker when every pipeline shape
    /// fails.
    pub allow_sequential_fallback: bool,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy { allow_placement_fallback: true, allow_sequential_fallback: true }
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

    /// [`CgpaCompiler::compile`] with every phase recorded as a span on
    /// `track` (alias → PDG → SCC condensation → classification →
    /// partition → transform → per-task FSM scheduling), each annotated
    /// with its artifact sizes. The compiled result is identical to the
    /// untraced flow.
    ///
    /// # Errors
    /// See [`CompileError`].
    pub fn compile_traced(
        &self,
        func: &Function,
        model: &MemoryModel,
        track: &Track,
    ) -> Result<Compiled, CompileError> {
        self.compile_inner(func, model, Some(track))
    }

    fn compile_inner(
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
        let pt = points_to_traced(func, model, obs);
        let pdg = build_pdg_traced(func, &cfg, target, &pt, model, obs);
        let condensation = condensation_traced(&pdg, obs);
        let classification = classify_traced(func, &pdg, &condensation, obs);
        let mut pconfig = self.config.partition;
        pconfig.placement = self.config.placement;
        let plan = partition_traced(func, &pdg, &condensation, &classification, pconfig, obs)?;
        let shape = plan.shape();
        let pipeline = transform_traced(
            func,
            &cfg,
            target,
            &pdg,
            &condensation,
            &plan,
            TransformConfig { workers: self.config.workers, loop_id: 0 },
            obs,
        )?;
        let mut fsms = Vec::new();
        for f in &pipeline.module.funcs {
            let fsm = schedule_traced(f, obs).map_err(|e| CompileError::Schedule(e.to_string()))?;
            fsms.push(fsm);
        }
        if let Some(s) = &compile_span {
            s.arg("shape", shape.as_str());
            s.arg("fsm_states_total", fsms.iter().map(|f| f.states.len()).sum::<usize>());
        }
        Ok(Compiled { pipeline, plan, shape, fsms, pdg, condensation, classification })
    }

    /// [`CgpaCompiler::compile`] with graceful degradation: when a rung
    /// fails (partition infeasible, transform invariant broken, schedule
    /// rejected), step down the ladder P2 → P1 → single sequential worker
    /// instead of erroring, as far as `policy` allows. The ladder starts at
    /// the configured placement, so a P1 compiler never "upgrades" to P2.
    ///
    /// # Errors
    /// The last rung's [`CompileError`] when every permitted rung fails
    /// (including schedule verification of the sequential fallback).
    pub fn compile_degraded(
        &self,
        func: &Function,
        model: &MemoryModel,
        policy: DegradationPolicy,
    ) -> Result<DegradedCompile, CompileError> {
        let ladder: &[DegradationRung] = match self.config.placement {
            ReplicablePlacement::Replicated => {
                &[DegradationRung::Replicated, DegradationRung::Pipelined]
            }
            ReplicablePlacement::Pipelined => &[DegradationRung::Pipelined],
        };
        let mut attempts: Vec<(DegradationRung, CompileError)> = Vec::new();
        for &rung in ladder {
            if !attempts.is_empty() && !policy.allow_placement_fallback {
                break;
            }
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
        if policy.allow_sequential_fallback {
            // The LegUp-shaped fallback still has to schedule cleanly.
            try_schedule_function(func)
                .map_err(|e| CompileError::Schedule(format!("sequential fallback: {e}")))?;
            return Ok(DegradedCompile::Sequential { attempts });
        }
        Err(attempts.pop().map_or(CompileError::NoTargetLoop, |(_, e)| e))
    }

    /// Emit the complete Verilog design: the primitive library, one module
    /// per worker, the top-level accelerator, and the testbench (§3.4,
    /// "Verilog Generation").
    #[must_use]
    pub fn emit_verilog(&self, compiled: &Compiled) -> String {
        self.emit_verilog_inner(compiled, None)
    }

    /// [`CgpaCompiler::emit_verilog`] with one span per emitted worker
    /// module (plus an enclosing `verilog` span with the total output size)
    /// recorded on `track`.
    #[must_use]
    pub fn emit_verilog_traced(&self, compiled: &Compiled, track: &Track) -> String {
        self.emit_verilog_inner(compiled, Some(track))
    }

    fn emit_verilog_inner(&self, compiled: &Compiled, obs: Option<&Track>) -> String {
        let span = obs.map(|t| t.span("verilog", "rtl"));
        let mut out = String::new();
        out.push_str(&verilog::emit_fifo_library());
        out.push('\n');
        let mut worker_insts = Vec::new();
        for task in &compiled.pipeline.tasks {
            let f = &compiled.pipeline.module.funcs[task.func_index];
            let fsm = &compiled.fsms[task.func_index];
            out.push_str(&emit_worker_traced(f, fsm, &task.name, obs));
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
            let target = target.clone();
            let pt = points_to_traced(&current, model, None);
            let pdg = build_pdg_traced(&current, &cfg, &target, &pt, model, None);
            let condensation = condensation_traced(&pdg, None);
            let classification = classify_traced(&current, &pdg, &condensation, None);
            let mut pconfig = self.config.partition;
            pconfig.placement = self.config.placement;
            let plan =
                partition_traced(&current, &pdg, &condensation, &classification, pconfig, None)?;
            let shape = plan.shape();
            let pipeline = transform_traced(
                &current,
                &cfg,
                &target,
                &pdg,
                &condensation,
                &plan,
                TransformConfig {
                    workers: self.config.workers,
                    loop_id: accelerators.len() as u32,
                },
                None,
            )?;
            let mut fsms = Vec::new();
            for f in &pipeline.module.funcs {
                let fsm =
                    try_schedule_function(f).map_err(|e| CompileError::Schedule(e.to_string()))?;
                fsms.push(fsm);
            }
            current = pipeline.parent.clone();
            accelerators.push(Compiled {
                pipeline,
                plan,
                shape,
                fsms,
                pdg,
                condensation,
                classification,
            });
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
