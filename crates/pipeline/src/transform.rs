//! The CGPA pipeline transform (paper §3.3, "Pipeline Transform").
//!
//! Generates one task function per pipeline stage, each *control-equivalent*
//! to the original loop: every task re-creates the loop's control skeleton
//! (it iterates exactly as often and exits at the same points), but its body
//! only contains the instructions assigned to its stage plus all duplicated
//! replicable sections. Cross-stage values travel through FIFO queue sets:
//!
//! - `produce(q, it & MASK, v)` / `consume(q, wid)` — round-robin
//!   distribution from a sequential producer to the parallel workers;
//! - `produce(q, wid, v)` / `consume(q, it & MASK)` — gathering parallel
//!   results into a later sequential stage;
//! - `produce_broadcast(q, v)` / `consume(q, …)` — per-iteration values every
//!   worker needs (loop-exit conditions, inputs of duplicated sections);
//! - single-channel queues for sequential→sequential edges.
//!
//! Parallel-stage tasks get the paper's two-loop-body dispatch
//! (Figure 1(e)): a dispatch block tests `(it & MASK) == WorkerID` and runs
//! either the full body (assigned iterations) or a reduced body containing
//! only the duplicated sections and broadcast consumes.
//!
//! Finally the parent function's loop is replaced by
//! `parallel_fork`/`parallel_join` and liveouts are read back with
//! `retrieve_liveout` (Table 1, class 1 and 3 primitives).

use crate::idset::IdSet;
use crate::plan::{PipelinePlan, StageKind};
use cgpa_analysis::pdg::DepKind;
use cgpa_analysis::{Condensation, Pdg, SccId};
use cgpa_ir::cfg::Cfg;
use cgpa_ir::dom::DomTree;
use cgpa_ir::loops::{Loop, LoopInfo};
use cgpa_ir::verify::VerifyError;
use cgpa_ir::{
    BinOp, BlockId, Const, Function, FunctionBuilder, InstId, IntPredicate, Module, Op, QueueId,
    Ty, ValueDef, ValueId,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

/// How a queue set moves data between stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Sequential producer → parallel consumers, one value per iteration to
    /// channel `it mod W`.
    RoundRobin,
    /// Parallel producers → sequential consumer, worker `w` pushes to
    /// channel `w`, the consumer pops channel `it mod W`.
    Gather,
    /// Sequential producer → sequential consumer, single channel.
    Direct,
    /// One producer → every channel, consumed every iteration (loop-exit
    /// conditions, duplicated-section inputs).
    Broadcast,
}

/// Metadata about one queue set created by the transform.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSpec {
    /// Queue id in the produced [`Module`].
    pub queue: QueueId,
    /// Data movement pattern.
    pub kind: QueueKind,
    /// The original-function value communicated.
    pub value: ValueId,
    /// Producing stage index.
    pub producer_stage: usize,
    /// Consuming stage index.
    pub consumer_stage: usize,
    /// Element type.
    pub elem_ty: Ty,
}

/// Metadata about one generated task function.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskInfo {
    /// Function name (`"<loop>_stage<k>"`).
    pub name: String,
    /// Stage index.
    pub stage: usize,
    /// Sequential or parallel.
    pub kind: StageKind,
    /// Index of the function in [`PipelineModule::module`].
    pub func_index: usize,
}

/// A loop live-out value and its owning stage.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveoutSpec {
    /// Liveout register slot.
    pub slot: u32,
    /// The original value.
    pub value: ValueId,
    /// Its type.
    pub ty: Ty,
    /// The sequential stage that stores it.
    pub owner_stage: usize,
}

/// The complete output of the pipeline transform.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineModule {
    /// Task functions plus queue declarations.
    pub module: Module,
    /// The rewritten parent function (loop replaced by fork/join).
    pub parent: Function,
    /// Per-stage task metadata.
    pub tasks: Vec<TaskInfo>,
    /// Queue metadata.
    pub queues: Vec<QueueSpec>,
    /// Original-function values passed to every task as parameters, in
    /// parameter order.
    pub live_ins: Vec<ValueId>,
    /// Loop live-outs stored/retrieved through liveout registers.
    pub liveouts: Vec<LiveoutSpec>,
    /// Parallel-stage worker count.
    pub workers: u32,
    /// Loop id used by fork/join.
    pub loop_id: u32,
}

impl PipelineModule {
    /// Worker instances of `task`: one for a sequential stage, `workers`
    /// for the parallel stage.
    #[must_use]
    pub fn instances(&self, task: &TaskInfo) -> u32 {
        match task.kind {
            StageKind::Sequential => 1,
            StageKind::Parallel => self.workers,
        }
    }

    /// Worker instances over all stages.
    #[must_use]
    pub fn worker_count(&self) -> u32 {
        self.tasks.iter().map(|t| self.instances(t)).sum()
    }
}

/// Transform configuration.
#[derive(Debug, Clone, Copy)]
pub struct TransformConfig {
    /// Number of parallel-stage workers (must be a power of two, as the
    /// round-robin selector is computed with a mask, following Fig. 1(e)).
    pub workers: u32,
    /// Loop id for the fork/join primitives.
    pub loop_id: u32,
}

impl Default for TransformConfig {
    fn default() -> Self {
        TransformConfig { workers: 4, loop_id: 0 }
    }
}

/// Why a transform failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// Worker count is not a power of two.
    BadWorkerCount(u32),
    /// The loop header has more than one predecessor outside the loop.
    MultiplePreheaders,
    /// The loop leaves to more than one block outside it (an early exit
    /// such as a `return` in the body); carries the exit-target count.
    MultipleExits(usize),
    /// The plan is not one the transform can realize: it does not have
    /// exactly one parallel stage, or an SCC's stage assignment is out of
    /// range or disagrees with the stage's SCC list.
    BadPlan(String),
    /// A liveout is produced by the parallel stage (no single owner).
    ParallelLiveout(String),
    /// Internal: a value needed by a task could not be resolved.
    UnresolvedValue(String),
    /// Internal: a generated task or the rewritten parent failed IR
    /// verification.
    Verify(VerifyError),
    /// Internal: a structural invariant did not hold (a would-be panic
    /// surfaced as an error so degradation ladders can retry).
    Internal(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::BadWorkerCount(w) => {
                write!(f, "worker count {w} is not a power of two")
            }
            TransformError::MultiplePreheaders => {
                f.write_str("target loop needs a unique preheader")
            }
            TransformError::MultipleExits(n) => {
                write!(f, "target loop has {n} exit targets; the transform needs exactly one")
            }
            TransformError::BadPlan(m) => write!(f, "malformed pipeline plan: {m}"),
            TransformError::ParallelLiveout(v) => {
                write!(f, "liveout {v} is defined in the parallel stage")
            }
            TransformError::UnresolvedValue(v) => {
                write!(f, "internal error: task value {v} could not be resolved")
            }
            TransformError::Verify(e) => {
                write!(f, "internal error: generated function fails verification: {e}")
            }
            TransformError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl Error for TransformError {}

/// A set of a function's instructions.
type InstSet = IdSet<InstId>;

/// What one cloned loop body needs, computed before any code is emitted.
/// Each task has a full body (its stage's SCCs plus the duplicated ones);
/// the parallel task also has the reduced body (duplicated SCCs only) that
/// runs on iterations assigned to other workers.
#[derive(Debug)]
struct BodyNeeds {
    /// Instructions cloned in the body.
    included: InstSet,
    /// Conditional branches kept in the body.
    branches: InstSet,
    /// Cross-stage values consumed by the body, with the block at whose top
    /// the communication happens (the def's block, or an inner loop's exit
    /// block when the value is an inner reduction hoisted out — the "last
    /// value" optimization). Values the reduced body consumes are needed
    /// every iteration, which forces a broadcast queue.
    cross: BTreeMap<ValueId, BlockId>,
}

/// Run the pipeline transform.
///
/// # Errors
/// See [`TransformError`].
#[allow(clippy::too_many_lines)]
pub fn transform_loop(
    func: &Function,
    cfg: &Cfg,
    target: &Loop,
    pdg: &Pdg,
    cond: &Condensation,
    plan: &PipelinePlan,
    config: TransformConfig,
) -> Result<PipelineModule, TransformError> {
    if config.workers == 0 || !config.workers.is_power_of_two() {
        return Err(TransformError::BadWorkerCount(config.workers));
    }
    check_plan(plan)?;

    // ---- basic maps -------------------------------------------------------
    let mut loop_insts = InstSet::new(func.insts.len());
    for i in target.insts(func) {
        loop_insts.insert(i);
    }
    let inst_stage =
        |i: InstId| -> Option<usize> { pdg.node_of(i).and_then(|n| plan.stage_of(cond.scc_of[n])) };

    // Live-ins: non-constant values defined outside the loop, used inside.
    let mut live_ins: Vec<ValueId> = Vec::new();
    for i in loop_insts.iter() {
        live_ins.extend(func.inst(i).op.operands().filter(|&v| match func.value(v) {
            ValueDef::Const(_) => false,
            ValueDef::Param { .. } => true,
            ValueDef::Inst { inst, .. } => !loop_insts.contains(*inst),
        }));
    }
    live_ins.sort_unstable();
    live_ins.dedup();

    // Live-outs: loop-defined values used outside the loop.
    let mut liveout_values: Vec<ValueId> = Vec::new();
    for (idx, inst) in func.insts.iter().enumerate() {
        if loop_insts.contains(InstId(idx as u32)) {
            continue;
        }
        liveout_values.extend(
            inst.op.operands().filter(|&v| func.def_of(v).is_some_and(|d| loop_insts.contains(d))),
        );
    }
    liveout_values.sort_unstable();
    liveout_values.dedup();
    let last_seq_stage = plan
        .stages
        .iter()
        .enumerate()
        .rev()
        .find(|(_, s)| s.kind == StageKind::Sequential)
        .map(|(i, _)| i);
    let mut liveouts: Vec<LiveoutSpec> = Vec::new();
    for (slot, &v) in liveout_values.iter().enumerate() {
        let d = func
            .def_of(v)
            .ok_or_else(|| TransformError::Internal(format!("liveout {v} has no def")))?;
        let owner = match inst_stage(d) {
            Some(s) if plan.stages[s].kind == StageKind::Sequential => s,
            Some(_) => return Err(TransformError::ParallelLiveout(format!("{v}"))),
            // Duplicated liveouts are computed identically by every task;
            // prefer a sequential owner, else let the parallel workers store
            // the (identical) value — all writers agree, so the register's
            // final content is well-defined.
            None => last_seq_stage.unwrap_or_else(|| plan.parallel_stage()),
        };
        liveouts.push(LiveoutSpec {
            slot: slot as u32,
            value: v,
            ty: func.value_ty(v),
            owner_stage: owner,
        });
    }

    // Post-dominators of the loop body with its back edges cut, for
    // collapsing un-needed branches.
    let back_edges: Vec<_> = target.latches.iter().map(|&l| (l, target.header)).collect();
    let pdom = DomTree::post_dominators(func, cfg, &back_edges);
    let dom = DomTree::dominators(func, cfg);
    let loop_info = LoopInfo::compute(func, cfg, &dom);

    // ---- per-body needs ----------------------------------------------------
    let insts_of = |scc: &SccId| cond.members(*scc).iter().map(|&n| pdg.nodes[n]);
    let mut dup_only = InstSet::new(func.insts.len());
    for i in plan.duplicated.iter().flat_map(insts_of) {
        dup_only.insert(i);
    }
    let num_stages = plan.num_stages();
    let mut needs: Vec<BodyNeeds> = Vec::with_capacity(num_stages);
    for stage in &plan.stages {
        let mut base = dup_only.clone();
        for i in stage.sccs.iter().flat_map(insts_of) {
            base.insert(i);
        }
        needs.push(compute_body_needs(func, pdg, target, &loop_info, base, &loop_insts)?);
    }
    // The parallel stage's reduced body.
    let reduced = compute_body_needs(func, pdg, target, &loop_info, dup_only, &loop_insts)?;

    // ---- queue creation ----------------------------------------------------
    let mut module = Module::new(format!("{}_pipeline", func.name));
    let mut queues: Vec<QueueSpec> = Vec::new();
    // (value, consumer stage) -> queue index in `queues`.
    let mut queue_of: HashMap<(ValueId, usize), usize> = HashMap::new();
    // Communication position of each queue (the consumer's choice governs
    // where both sides produce/consume).
    let mut queue_pos: Vec<BlockId> = Vec::new();
    for (t, need) in needs.iter().enumerate() {
        for (&v, &pos) in &need.cross {
            let d = func
                .def_of(v)
                .ok_or_else(|| TransformError::Internal(format!("cross value {v} has no def")))?;
            let producer = inst_stage(d).ok_or_else(|| {
                TransformError::Internal(format!("cross value {v} is not stage-assigned"))
            })?;
            debug_assert_ne!(producer, t, "cross value produced in its own stage");
            let consumer_parallel = plan.stages[t].kind == StageKind::Parallel;
            let producer_parallel = plan.stages[producer].kind == StageKind::Parallel;
            let kind = match (producer_parallel, consumer_parallel) {
                (false, false) => QueueKind::Direct,
                (false, true) if reduced.cross.contains_key(&v) => QueueKind::Broadcast,
                (false, true) => QueueKind::RoundRobin,
                (true, false) => QueueKind::Gather,
                (true, true) => unreachable!("`check_plan` allows one parallel stage only"),
            };
            let channels = match kind {
                QueueKind::Direct => 1,
                QueueKind::Broadcast if !consumer_parallel => 1,
                _ => config.workers,
            };
            let elem_ty = func.value_ty(v);
            let name = format!(
                "{}_s{}to{}",
                func.inst(d).name.clone().unwrap_or_else(|| format!("v{}", v.0)),
                producer,
                t
            );
            let qid = module.add_queue(name, elem_ty, channels);
            queue_of.insert((v, t), queues.len());
            queue_pos.push(pos);
            queues.push(QueueSpec {
                queue: qid,
                kind,
                value: v,
                producer_stage: producer,
                consumer_stage: t,
                elem_ty,
            });
        }
    }

    // Producer-side indexes: a queue whose communication block is the def's
    // own block produces right after the def; a hoisted queue produces at
    // the top of its communication block.
    let mut produces_by_stage: Vec<HashMap<ValueId, Vec<usize>>> = vec![HashMap::new(); num_stages];
    let mut top_produces_by_stage: Vec<BTreeMap<BlockId, Vec<usize>>> =
        vec![BTreeMap::new(); num_stages];
    for (qi, q) in queues.iter().enumerate() {
        let d = func.def_of(q.value).ok_or_else(|| {
            TransformError::Internal(format!("queue value {} has no def", q.value))
        })?;
        if func.inst(d).block == queue_pos[qi] {
            produces_by_stage[q.producer_stage].entry(q.value).or_default().push(qi);
        } else {
            top_produces_by_stage[q.producer_stage].entry(queue_pos[qi]).or_default().push(qi);
        }
    }

    // ---- emit task functions ------------------------------------------------
    let mut tasks: Vec<TaskInfo> = Vec::new();
    for (si, stage) in plan.stages.iter().enumerate() {
        let builder_ctx = TaskEmitter {
            func,
            target,
            config: &config,
            queues: &queues,
            queue_of: &queue_of,
            produces: &produces_by_stage[si],
            top_produces: &top_produces_by_stage[si],
            live_ins: &live_ins,
            liveouts: &liveouts,
            pdom: &pdom,
        };
        let name = format!("{}_stage{}", func.name, si);
        let mut task = match stage.kind {
            StageKind::Sequential => builder_ctx.emit_sequential(si, &needs[si], &name)?,
            StageKind::Parallel => builder_ctx.emit_parallel(si, &needs[si], &reduced, &name)?,
        };
        // Collapsed branches leave forwarding blocks; each would cost one
        // FSM state per iteration.
        cgpa_ir::opt::simplify_cfg(&mut task);
        let func_index = module.add_func(task);
        tasks.push(TaskInfo { name, stage: si, kind: stage.kind, func_index });
    }

    // ---- rewrite the parent --------------------------------------------------
    let mut parent = rewrite_parent(func, target, &live_ins, &liveouts, config.loop_id)?;
    cgpa_ir::opt::simplify_cfg(&mut parent);

    Ok(PipelineModule {
        module,
        parent,
        tasks,
        queues,
        live_ins,
        liveouts,
        workers: config.workers,
        loop_id: config.loop_id,
    })
}

/// Reject a plan the transform cannot realize. Plans are public data, so a
/// hand-built one is checked here rather than trusted: the queue kinds
/// assume exactly one parallel stage, and every assigned SCC must sit in
/// the stage it is assigned to.
fn check_plan(plan: &PipelinePlan) -> Result<(), TransformError> {
    let parallel = plan.stages.iter().filter(|s| s.kind == StageKind::Parallel).count();
    if parallel != 1 {
        return Err(TransformError::BadPlan(format!(
            "{parallel} parallel stages; the transform needs exactly one"
        )));
    }
    for (&scc, &s) in &plan.assignment {
        match plan.stages.get(s) {
            None => {
                return Err(TransformError::BadPlan(format!(
                    "{scc} is assigned to stage {s}, but the plan has {} stages",
                    plan.stages.len()
                )))
            }
            Some(stage) if !stage.sccs.contains(&scc) => {
                return Err(TransformError::BadPlan(format!(
                    "{scc} is assigned to stage {s}, which does not list it"
                )))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Fixpoint over one body: which conditional branches must be kept and which
/// cross-stage values are consumed, given the initially included
/// instructions. Each cross value carries its *communication block*: the
/// def's block, or — when the def lives in a nested loop and every use in
/// this body is outside it — the nested loop's exit block, so that only the
/// final ("last") value crosses the stage boundary instead of one value per
/// inner iteration.
fn compute_body_needs(
    func: &Function,
    pdg: &Pdg,
    target: &Loop,
    loops: &LoopInfo,
    included: InstSet,
    loop_insts: &InstSet,
) -> Result<BodyNeeds, TransformError> {
    let mut branches = InstSet::new(func.insts.len());
    for t in target.exit_branches(func) {
        branches.insert(t);
    }
    let mut cross: BTreeMap<ValueId, BlockId> = BTreeMap::new();
    let mut positions = InstSet::new(func.insts.len());
    // (cross value, using instruction), for every use found in a round.
    let mut uses: Vec<(ValueId, InstId)> = Vec::new();
    loop {
        let mut changed = false;
        // Positions whose control deps we must honour: included insts, kept
        // branches, and the communication points of consumed values
        // (represented by their block's terminator).
        positions.clear();
        positions.union_with(included.words());
        positions.union_with(branches.words());
        for &pos_block in cross.values() {
            if let Some(t) = func.terminator(pos_block) {
                positions.insert(t);
            }
        }
        // Branch closure via PDG control edges.
        for e in &pdg.edges {
            if e.kind != DepKind::Control {
                continue;
            }
            let to_inst = pdg.nodes[e.to];
            if !positions.contains(to_inst) {
                continue;
            }
            let from_inst = pdg.nodes[e.from];
            if matches!(func.inst(from_inst).op, Op::CondBr { .. }) && branches.insert(from_inst) {
                changed = true;
            }
        }
        // Cross values: operands of included insts and conditions of kept
        // branches whose def is a loop inst not included here.
        uses.clear();
        for inst in included.iter().chain(branches.iter()) {
            for v in func.inst(inst).op.operands() {
                if func.def_of(v).is_some_and(|d| loop_insts.contains(d) && !included.contains(d)) {
                    uses.push((v, inst));
                }
            }
        }
        // Group the uses by value.
        uses.sort_unstable();
        for group in uses.chunk_by(|a, b| a.0 == b.0) {
            let v = group[0].0;
            let pos = comm_block(func, target, loops, v, group.iter().map(|&(_, u)| u))?;
            if cross.insert(v, pos) != Some(pos) {
                changed = true;
            }
        }
        if !changed {
            return Ok(BodyNeeds { included, branches, cross });
        }
    }
}

/// The block at whose top value `v` crosses the stage boundary for a body
/// whose uses are `uses`: normally the def's block; hoisted to an inner
/// loop's unique exit block when every use lies outside that inner loop.
fn comm_block(
    func: &Function,
    target: &Loop,
    loops: &LoopInfo,
    v: ValueId,
    uses: impl Iterator<Item = InstId> + Clone,
) -> Result<BlockId, TransformError> {
    let d = func
        .def_of(v)
        .ok_or_else(|| TransformError::Internal(format!("cross value {v} has no def")))?;
    let db = func.inst(d).block;
    // Loops are sorted outermost-first; take the outermost nested loop the
    // hoist is legal for.
    for l in loops.loops() {
        if l.header == target.header || !l.blocks.is_subset(&target.blocks) {
            continue;
        }
        if !l.contains(db) {
            continue;
        }
        if uses.clone().any(|u| l.contains(func.inst(u).block)) {
            continue;
        }
        let mut exits: BTreeSet<BlockId> = BTreeSet::new();
        for &e in &l.exiting {
            for s in func.successors(e) {
                if !l.contains(s) {
                    exits.insert(s);
                }
            }
        }
        let mut exit_iter = exits.iter();
        if let (Some(&t), None) = (exit_iter.next(), exit_iter.next()) {
            if target.contains(t) {
                return Ok(t);
            }
        }
    }
    Ok(db)
}

/// Shared emission context for one task.
struct TaskEmitter<'a> {
    func: &'a Function,
    target: &'a Loop,
    config: &'a TransformConfig,
    queues: &'a [QueueSpec],
    queue_of: &'a HashMap<(ValueId, usize), usize>,
    produces: &'a HashMap<ValueId, Vec<usize>>,
    top_produces: &'a BTreeMap<BlockId, Vec<usize>>,
    live_ins: &'a [ValueId],
    liveouts: &'a [LiveoutSpec],
    pdom: &'a DomTree,
}

/// One body's cloning state.
struct BodyState {
    /// Original value → task value, by original [`ValueId`].
    map: Vec<Option<ValueId>>,
    /// Original block → cloned block, by original [`BlockId`].
    blocks: Vec<Option<BlockId>>,
    /// Cloned phis awaiting incoming fill: (task phi value, original inst).
    pending_phis: Vec<(ValueId, InstId)>,
}

impl BodyState {
    /// Nothing cloned yet from `func`.
    fn new(func: &Function) -> Self {
        BodyState {
            map: vec![None; func.values.len()],
            blocks: vec![None; func.blocks.len()],
            pending_phis: Vec::new(),
        }
    }

    /// A body that starts from `header`'s cloned values, with no blocks yet.
    fn after(header: &BodyState) -> Self {
        BodyState {
            map: header.map.clone(),
            blocks: vec![None; header.blocks.len()],
            pending_phis: Vec::new(),
        }
    }

    /// The task value of original value `v`, if cloned.
    fn value(&self, v: ValueId) -> Option<ValueId> {
        self.map[v.index()]
    }

    fn set_value(&mut self, v: ValueId, task_value: ValueId) {
        self.map[v.index()] = Some(task_value);
    }

    /// The clone of original block `ob`.
    ///
    /// # Panics
    /// If `ob` has no clone yet.
    fn block(&self, ob: BlockId) -> BlockId {
        self.blocks[ob.index()].expect("loop block is cloned")
    }
}

impl<'a> TaskEmitter<'a> {
    fn param_list(&self, parallel: bool) -> Vec<(String, Ty)> {
        let mut params: Vec<(String, Ty)> = self
            .live_ins
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let name = match self.func.value(v) {
                    ValueDef::Param { index, .. } => self.func.params[*index as usize].0.clone(),
                    _ => format!("livein{i}"),
                };
                (name, self.func.value_ty(v))
            })
            .collect();
        if parallel {
            params.push(("worker_id".to_string(), Ty::I32));
        }
        params
    }

    fn new_builder(&self, name: &str, parallel: bool) -> FunctionBuilder {
        let params = self.param_list(parallel);
        let param_refs: Vec<(&str, Ty)> = params.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let mut b = FunctionBuilder::new(name, &param_refs, None);
        if parallel {
            b.set_worker_id_param(self.live_ins.len() as u32);
        }
        b
    }

    /// Resolve an original value in a body context (constants, live-ins,
    /// already-cloned defs).
    fn resolve(
        &self,
        b: &mut FunctionBuilder,
        state: &BodyState,
        v: ValueId,
    ) -> Result<ValueId, TransformError> {
        if let Some(mv) = state.value(v) {
            return Ok(mv);
        }
        match self.func.value(v) {
            ValueDef::Const(c) => Ok(intern(b, *c)),
            _ => {
                if let Some(pos) = self.live_ins.iter().position(|&l| l == v) {
                    Ok(b.param(pos as u32))
                } else {
                    Err(TransformError::UnresolvedValue(format!("{v}")))
                }
            }
        }
    }

    /// The channel selector `it & (W-1)`.
    fn sel(&self, b: &mut FunctionBuilder, it: ValueId) -> ValueId {
        let mask = b.const_i32(self.config.workers as i32 - 1);
        b.binary(BinOp::And, it, mask)
    }

    /// Emit the produce op that sends `value` into queue set `q`.
    fn produce(
        &self,
        b: &mut FunctionBuilder,
        q: &QueueSpec,
        value: ValueId,
        it: ValueId,
        wid: Option<ValueId>,
    ) -> Result<(), TransformError> {
        match q.kind {
            QueueKind::RoundRobin => {
                let sel = self.sel(b, it);
                b.produce(q.queue, sel, value);
            }
            QueueKind::Gather => {
                let w = wid.ok_or_else(|| {
                    TransformError::Internal("gather producer is not a parallel task".to_string())
                })?;
                b.produce(q.queue, w, value);
            }
            QueueKind::Direct => {
                let zero = b.const_i32(0);
                b.produce(q.queue, zero, value);
            }
            QueueKind::Broadcast => {
                b.produce_broadcast(q.queue, value);
            }
        }
        Ok(())
    }

    /// Emit the produce ops for a freshly cloned definition.
    fn emit_produces(
        &self,
        b: &mut FunctionBuilder,
        orig_value: ValueId,
        task_value: ValueId,
        it: ValueId,
        wid: Option<ValueId>,
    ) -> Result<(), TransformError> {
        let Some(qis) = self.produces.get(&orig_value) else { return Ok(()) };
        for &qi in qis {
            self.produce(b, &self.queues[qi], task_value, it, wid)?;
        }
        Ok(())
    }

    /// Emit hoisted produces at the top of a cloned block (inner-loop exit
    /// values). They read values cloned earlier in the body. In the reduced
    /// body of a parallel task the value does not exist (the producing
    /// section only runs on assigned iterations), so unmapped values are
    /// skipped.
    fn emit_top_produces(
        &self,
        b: &mut FunctionBuilder,
        state: &BodyState,
        ob: BlockId,
        it: ValueId,
        wid: Option<ValueId>,
    ) -> Result<(), TransformError> {
        let Some(qis) = self.top_produces.get(&ob) else { return Ok(()) };
        for &qi in qis {
            let q = &self.queues[qi];
            let Some(task_value) = state.value(q.value) else { continue };
            self.produce(b, q, task_value, it, wid)?;
        }
        Ok(())
    }

    /// Emit the consume for a cross value in a body, mapping it.
    fn emit_consume(
        &self,
        b: &mut FunctionBuilder,
        state: &mut BodyState,
        stage: usize,
        v: ValueId,
        it: ValueId,
        wid: Option<ValueId>,
    ) {
        let qi = self.queue_of[&(v, stage)];
        let q = &self.queues[qi];
        let chan = match q.kind {
            QueueKind::RoundRobin | QueueKind::Broadcast => match wid {
                Some(w) => w,
                None => b.const_i32(0),
            },
            QueueKind::Gather => self.sel(b, it),
            QueueKind::Direct => b.const_i32(0),
        };
        let got = b.consume(q.queue, chan, q.elem_ty);
        state.set_value(v, got);
    }

    /// Clone the phis of original block `ob` that `included` keeps and that
    /// `state` does not map yet into the current block, queueing each for
    /// its incoming fill. Returns the original values of the new clones.
    fn clone_phis(
        &self,
        b: &mut FunctionBuilder,
        state: &mut BodyState,
        ob: BlockId,
        included: &InstSet,
    ) -> Result<Vec<ValueId>, TransformError> {
        let mut defs = Vec::new();
        for &oi in &self.func.block(ob).insts {
            let inst = self.func.inst(oi);
            if !matches!(inst.op, Op::Phi { .. }) {
                break;
            }
            let orig = inst
                .result
                .ok_or_else(|| TransformError::Internal("phi without a result".to_string()))?;
            if !included.contains(oi) || state.value(orig).is_some() {
                continue;
            }
            let pv = b.phi(self.func.value_ty(orig), inst.name.as_deref().unwrap_or("phi"));
            state.set_value(orig, pv);
            state.pending_phis.push((pv, oi));
            defs.push(orig);
        }
        Ok(defs)
    }

    /// Clone one body of the loop: the loop's control skeleton with only
    /// `needs.included` instructions kept (paper §3.3).
    ///
    /// Serves the sequential task's body and both bodies of the parallel
    /// task. Blocks the caller already created (the sequential task's
    /// header, which hosts the `it` phi) are reused, and phis `state`
    /// already maps are not cloned again: those are the header phis the
    /// caller placed in the sequential header or the parallel dispatch
    /// block. `header_target` is the block the latch jumps back to (the
    /// body's header clone for sequential tasks, the dispatch block for
    /// parallel tasks).
    #[allow(clippy::too_many_arguments)]
    fn clone_body(
        &self,
        b: &mut FunctionBuilder,
        state: &mut BodyState,
        stage: usize,
        needs: &BodyNeeds,
        header_target: Option<BlockId>,
        task_exit: BlockId,
        it: ValueId,
        wid: Option<ValueId>,
        label: &str,
    ) -> Result<(), TransformError> {
        for &ob in &self.target.blocks {
            if state.blocks[ob.index()].is_none() {
                let nb = b.append_block(&format!("{label}_{}", self.func.block(ob).name));
                state.blocks[ob.index()] = Some(nb);
            }
        }
        // Group cross values by their communication block.
        let mut cross_by_block: BTreeMap<BlockId, Vec<ValueId>> = BTreeMap::new();
        for (&v, &pos) in &needs.cross {
            cross_by_block.entry(pos).or_default().push(v);
        }
        for &ob in &self.target.blocks {
            b.switch_to(state.block(ob));
            // 1. Phis, then produces for phi-defined cross values, then
            // consumes placed at the top of the def block.
            for orig in self.clone_phis(b, state, ob, &needs.included)? {
                let newv = state.value(orig).expect("cloned phi is mapped");
                self.emit_produces(b, orig, newv, it, wid)?;
            }
            if let Some(vs) = cross_by_block.get(&ob) {
                for &v in vs {
                    self.emit_consume(b, state, stage, v, it, wid);
                }
            }
            self.emit_top_produces(b, state, ob, it, wid)?;
            // 2. Remaining instructions.
            for &oi in &self.func.block(ob).insts {
                let inst = self.func.inst(oi);
                match &inst.op {
                    Op::Phi { .. } => {}
                    op if op.is_terminator() => {
                        self.clone_terminator(
                            b,
                            state,
                            ob,
                            oi,
                            &needs.branches,
                            header_target,
                            task_exit,
                        )?;
                    }
                    op => {
                        if !needs.included.contains(oi) {
                            continue;
                        }
                        let op = map_operands(op, |v| self.resolve(b, state, v))?;
                        let (_, res) = b.push_raw(op, inst.name.clone());
                        if let (Some(orig), Some(newv)) = (inst.result, res) {
                            state.set_value(orig, newv);
                            self.emit_produces(b, orig, newv, it, wid)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Clone (or collapse) a block terminator.
    #[allow(clippy::too_many_arguments)]
    fn clone_terminator(
        &self,
        b: &mut FunctionBuilder,
        state: &mut BodyState,
        ob: BlockId,
        oi: InstId,
        branches: &InstSet,
        header_target: Option<BlockId>,
        task_exit: BlockId,
    ) -> Result<(), TransformError> {
        let map_target = |state: &BodyState, t: BlockId| -> BlockId {
            if !self.target.contains(t) {
                task_exit
            } else if t == self.target.header {
                header_target.unwrap_or_else(|| state.block(t))
            } else {
                state.block(t)
            }
        };
        match &self.func.inst(oi).op {
            Op::Br { target } => {
                let t = map_target(state, *target);
                b.br(t);
            }
            Op::CondBr { cond, on_true, on_false } => {
                if branches.contains(oi) {
                    let c = self.resolve(b, state, *cond)?;
                    let tt = map_target(state, *on_true);
                    let ft = map_target(state, *on_false);
                    b.cond_br(c, tt, ft);
                } else {
                    // Collapse to the acyclic immediate post-dominator.
                    let ip = self.pdom.idom(ob.index()).ok_or_else(|| {
                        TransformError::Internal(format!("loop block {ob} has no acyclic ipdom"))
                    })?;
                    let t = if ip == self.pdom.virtual_exit() {
                        task_exit
                    } else {
                        map_target(state, BlockId(ip as u32))
                    };
                    b.br(t);
                }
            }
            Op::Ret { .. } => {
                // A `ret` inside a loop cannot occur (the loop would not be
                // natural); treat as exit for robustness.
                b.br(task_exit);
            }
            other => {
                return Err(TransformError::Internal(format!("unexpected terminator {other:?}")))
            }
        }
        Ok(())
    }

    /// Fill the pending phi incomings of one body; edges from outside the
    /// loop come from the task's entry block.
    fn fill_phis(
        &self,
        b: &mut FunctionBuilder,
        state: &BodyState,
        entry_block: BlockId,
    ) -> Result<(), TransformError> {
        for &(pv, oi) in &state.pending_phis {
            let Op::Phi { incomings, .. } = &self.func.inst(oi).op else { unreachable!() };
            for (ob, ov) in incomings {
                let nb = if self.target.contains(*ob) { state.block(*ob) } else { entry_block };
                let nv = self.resolve(b, state, *ov)?;
                b.add_phi_incoming(pv, nb, nv);
            }
        }
        Ok(())
    }

    /// Close a task: store the liveouts `stage` owns (read from `state`) in
    /// the exit block, return, and verify.
    fn finish_task(
        &self,
        mut b: FunctionBuilder,
        stage: usize,
        task_exit: BlockId,
        state: &BodyState,
    ) -> Result<Function, TransformError> {
        b.switch_to(task_exit);
        for lo in self.liveouts {
            if lo.owner_stage == stage {
                let v = self.resolve(&mut b, state, lo.value)?;
                b.store_liveout(lo.slot, v);
            }
        }
        b.ret(None);

        b.finish().map_err(TransformError::Verify)
    }

    /// Emit a sequential-stage task.
    fn emit_sequential(
        &self,
        stage: usize,
        needs: &BodyNeeds,
        name: &str,
    ) -> Result<Function, TransformError> {
        let mut b = self.new_builder(name, false);
        let entry = b.entry_block();
        let task_exit = b.append_block("task_exit");

        let mut state = BodyState::new(self.func);

        // The `it` counter must exist before cloning (produce/consume
        // selectors use it), and phis must precede every other instruction
        // in the header clone, so build the header in three steps: the `it`
        // phi, the cloned header phis, then `it + 1` and any phi produces.
        let header_clone = b.append_block("header");
        state.blocks[self.target.header.index()] = Some(header_clone);
        b.switch_to(header_clone);
        let it = b.phi(Ty::I32, "it");
        let header_phi_defs =
            self.clone_phis(&mut b, &mut state, self.target.header, &needs.included)?;
        let one = b.const_i32(1);
        let it_next = b.binary(BinOp::Add, it, one);
        for orig in header_phi_defs {
            let newv = state.value(orig).expect("cloned phi is mapped");
            self.emit_produces(&mut b, orig, newv, it, None)?;
        }

        // Clone the body into the pre-built header and fresh blocks.
        self.clone_body(&mut b, &mut state, stage, needs, None, task_exit, it, None, "s")?;

        // Entry: jump to the header clone.
        b.switch_to(entry);
        b.br(header_clone);

        // it phi incomings: entry -> 0, every latch -> it_next.
        let zero = b.const_i32(0);
        b.add_phi_incoming(it, entry, zero);
        for &latch in &self.target.latches {
            b.add_phi_incoming(it, state.block(latch), it_next);
        }

        // Remaining phis.
        self.fill_phis(&mut b, &state, entry)?;

        self.finish_task(b, stage, task_exit, &state)
    }

    /// Emit a parallel-stage task with the two-loop-body dispatch of
    /// Figure 1(e): `full` runs on the worker's assigned iterations,
    /// `reduced` on every other iteration.
    fn emit_parallel(
        &self,
        stage: usize,
        full: &BodyNeeds,
        reduced: &BodyNeeds,
        name: &str,
    ) -> Result<Function, TransformError> {
        let mut b = self.new_builder(name, true);
        let wid = b.param(self.live_ins.len() as u32);
        let entry = b.entry_block();
        let dispatch = b.append_block("dispatch");
        let task_exit = b.append_block("task_exit");

        // Dispatch phis: it + every included header phi (these are exactly
        // the duplicated sections' loop-carried registers). Both bodies start
        // from them, so they are filled from both bodies' latches below.
        b.switch_to(dispatch);
        let it = b.phi(Ty::I32, "it");
        let mut header = BodyState::new(self.func);
        self.clone_phis(&mut b, &mut header, self.target.header, &full.included)?;
        let one = b.const_i32(1);
        let it_next = b.binary(BinOp::Add, it, one);
        let sel = self.sel(&mut b, it);
        let is_mine = b.icmp(IntPredicate::Eq, sel, wid);

        // Clone both bodies.
        let mut s1 = BodyState::after(&header);
        let mut s2 = BodyState::after(&header);
        self.clone_body(
            &mut b,
            &mut s1,
            stage,
            full,
            Some(dispatch),
            task_exit,
            it,
            Some(wid),
            "b1",
        )?;
        self.clone_body(
            &mut b,
            &mut s2,
            stage,
            reduced,
            Some(dispatch),
            task_exit,
            it,
            Some(wid),
            "b2",
        )?;

        // Dispatch terminator.
        b.switch_to(dispatch);
        b.cond_br(is_mine, s1.block(self.target.header), s2.block(self.target.header));

        // Entry.
        b.switch_to(entry);
        b.br(dispatch);

        // Dispatch phi incomings.
        let zero = b.const_i32(0);
        b.add_phi_incoming(it, entry, zero);
        for &latch in &self.target.latches {
            b.add_phi_incoming(it, s1.block(latch), it_next);
            b.add_phi_incoming(it, s2.block(latch), it_next);
        }
        for &(pv, oi) in &header.pending_phis {
            let Op::Phi { incomings, .. } = &self.func.inst(oi).op else {
                return Err(TransformError::Internal("dispatch phi source is not a phi".into()));
            };
            for (ob, ov) in incomings {
                if self.target.contains(*ob) {
                    let v1 = self.resolve(&mut b, &s1, *ov)?;
                    b.add_phi_incoming(pv, s1.block(*ob), v1);
                    let v2 = self.resolve(&mut b, &s2, *ov)?;
                    b.add_phi_incoming(pv, s2.block(*ob), v2);
                } else {
                    let init = self.resolve(&mut b, &s1, *ov)?;
                    b.add_phi_incoming(pv, entry, init);
                }
            }
        }

        // Body phis.
        self.fill_phis(&mut b, &s1, entry)?;
        self.fill_phis(&mut b, &s2, entry)?;

        // Duplicated liveouts (identical in every worker) are stored at the
        // exit when no sequential stage owns them.
        self.finish_task(b, stage, task_exit, &s1)
    }
}

/// Clone `op` with every operand mapped through `resolve`, or return the
/// first error.
fn map_operands(
    op: &Op,
    mut resolve: impl FnMut(ValueId) -> Result<ValueId, TransformError>,
) -> Result<Op, TransformError> {
    let mut op = op.clone();
    let mut err = None;
    op.map_operands(|v| match resolve(v) {
        Ok(mv) => mv,
        Err(e) => {
            err.get_or_insert(e);
            v
        }
    });
    err.map_or(Ok(op), Err)
}

/// Rewrite the parent: replace the loop with fork/join and retrieve
/// liveouts.
fn rewrite_parent(
    func: &Function,
    target: &Loop,
    live_ins: &[ValueId],
    liveouts: &[LiveoutSpec],
    loop_id: u32,
) -> Result<Function, TransformError> {
    // Unique preheader: the single predecessor of the header outside the
    // loop.
    let cfg = Cfg::new(func);
    let mut preheaders: Vec<BlockId> =
        cfg.preds(target.header).iter().copied().filter(|p| !target.contains(*p)).collect();
    preheaders.dedup();
    if preheaders.len() != 1 {
        return Err(TransformError::MultiplePreheaders);
    }
    let preheader = preheaders[0];

    // Exit targets: blocks outside the loop reached from exiting blocks.
    let mut exit_targets: Vec<BlockId> = Vec::new();
    for &e in &target.exiting {
        for &s in cfg.succs(e) {
            if !target.contains(s) && !exit_targets.contains(&s) {
                exit_targets.push(s);
            }
        }
    }
    if exit_targets.len() != 1 {
        return Err(TransformError::MultipleExits(exit_targets.len()));
    }
    let exit_target = exit_targets[0];

    let param_refs: Vec<(&str, Ty)> = func.params.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let mut b = FunctionBuilder::new(&func.name, &param_refs, func.ret_ty);
    // Original block → parent block, by original block index (loop blocks
    // have none).
    let mut block_map: Vec<Option<BlockId>> = vec![None; func.blocks.len()];
    block_map[0] = Some(b.entry_block());
    for ob in func.block_ids() {
        if ob.0 == 0 || target.contains(ob) {
            continue;
        }
        block_map[ob.index()] = Some(b.append_block(&func.block(ob).name));
    }
    let block_of = |ob: BlockId| block_map[ob.index()].expect("non-loop block is cloned");

    // Original value → parent value, by original value index.
    let mut map: Vec<Option<ValueId>> = vec![None; func.values.len()];
    for (i, _) in func.params.iter().enumerate() {
        map[i] = Some(b.param(i as u32));
    }

    let resolve = |b: &mut FunctionBuilder, map: &[Option<ValueId>], v: ValueId| {
        if let Some(mv) = map[v.index()] {
            return Ok(mv);
        }
        match func.value(v) {
            ValueDef::Const(c) => Ok(intern(b, *c)),
            _ => Err(TransformError::UnresolvedValue(format!("parent {v}"))),
        }
    };

    let mut pending_phis: Vec<(ValueId, InstId)> = Vec::new();
    for ob in func.block_ids() {
        if target.contains(ob) {
            continue;
        }
        b.switch_to(block_of(ob));
        for &oi in &func.block(ob).insts {
            let inst = func.inst(oi);
            match &inst.op {
                Op::Phi { .. } => {
                    let orig = inst.result.ok_or_else(|| {
                        TransformError::Internal("phi without a result".to_string())
                    })?;
                    let pv = b.phi(func.value_ty(orig), inst.name.as_deref().unwrap_or("phi"));
                    map[orig.index()] = Some(pv);
                    pending_phis.push((pv, oi));
                }
                Op::Br { target: t } if *t == target.header => {
                    // This is the preheader's jump into the loop: fork/join.
                    debug_assert_eq!(ob, preheader);
                    let mut args = Vec::new();
                    for &li in live_ins {
                        args.push(resolve(&mut b, &map, li)?);
                    }
                    b.parallel_fork(loop_id, args);
                    b.parallel_join(loop_id);
                    for lo in liveouts {
                        let rv = b.retrieve_liveout(lo.slot, lo.ty);
                        map[lo.value.index()] = Some(rv);
                    }
                    b.br(block_of(exit_target));
                }
                op if op.is_terminator() => {
                    let op = map_operands(op, |v| resolve(&mut b, &map, v))?;
                    // Remap block targets.
                    let op = match op {
                        Op::Br { target: t } => Op::Br { target: block_of(t) },
                        Op::CondBr { cond, on_true, on_false } => Op::CondBr {
                            cond,
                            on_true: block_of(on_true),
                            on_false: block_of(on_false),
                        },
                        other => other,
                    };
                    b.push_raw(op, inst.name.clone());
                }
                op => {
                    let op = map_operands(op, |v| resolve(&mut b, &map, v))?;
                    let (_, res) = b.push_raw(op, inst.name.clone());
                    if let (Some(orig), Some(newv)) = (inst.result, res) {
                        map[orig.index()] = Some(newv);
                    }
                }
            }
        }
    }

    // Fill parent phis: incoming edges from loop blocks move to the
    // preheader (the loop collapsed into it).
    for (pv, oi) in pending_phis {
        let Op::Phi { incomings, .. } = &func.inst(oi).op else { unreachable!() };
        for (ob, ov) in incomings {
            let nb = if target.contains(*ob) { block_of(preheader) } else { block_of(*ob) };
            let nv = resolve(&mut b, &map, *ov)?;
            b.add_phi_incoming(pv, nb, nv);
        }
    }

    b.finish().map_err(TransformError::Verify)
}

fn intern(b: &mut FunctionBuilder, c: Const) -> ValueId {
    match c {
        Const::I1(v) => b.const_bool(v),
        Const::I32(v) => b.const_i32(v),
        Const::I64(v) => b.const_i64(v),
        Const::F32(v) => b.const_f32(v),
        Const::F64(v) => b.const_f64(v),
        Const::Ptr(v) => b.const_ptr(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_loop, PartitionConfig, ReplicablePlacement};
    use cgpa_analysis::alias::{MemoryModel, PointsTo};
    use cgpa_analysis::classify::classify_sccs;
    use cgpa_analysis::pdg::build_pdg;
    use cgpa_analysis::Condensation;
    use cgpa_ir::dom::DomTree;
    use cgpa_ir::inst::IntPredicate;
    use cgpa_ir::loops::LoopInfo;
    use cgpa_ir::printer::print_module;

    /// em3d-like list loop: `for (; p; p = p->next) p->val *= 2.0;`
    /// layout: val f64 @0, next ptr @12, elem 16. Returns a count liveout.
    fn list_loop() -> (Function, MemoryModel) {
        let mut mm = MemoryModel::new();
        let nodes = mm.add_region("nodes", 16, false, true);
        mm.bind_param(0, nodes);
        mm.field_pointee(nodes, 12, nodes);
        let mut b = FunctionBuilder::new("list", &[("head", Ty::Ptr)], Some(Ty::I32));
        let head = b.param(0);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        b.br(header);
        b.switch_to(header);
        let p = b.phi(Ty::Ptr, "p");
        let count = b.phi(Ty::I32, "count");
        let null = b.const_ptr(0);
        let done = b.icmp(IntPredicate::Eq, p, null);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let vaddr = b.field(p, 0);
        let x = b.load(vaddr, Ty::F64);
        let two = b.const_f64(2.0);
        let y = b.binary(BinOp::FMul, x, two);
        b.store(vaddr, y);
        let naddr = b.field(p, 12);
        let next = b.load(naddr, Ty::Ptr);
        let count2 = b.binary(BinOp::Add, count, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(count));
        b.add_phi_incoming(p, b.entry_block(), head);
        b.add_phi_incoming(p, body, next);
        b.add_phi_incoming(count, b.entry_block(), zero);
        b.add_phi_incoming(count, body, count2);
        (b.finish().unwrap(), mm)
    }

    fn run_transform(
        f: &Function,
        mm: &MemoryModel,
        placement: ReplicablePlacement,
        workers: u32,
    ) -> PipelineModule {
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let li = LoopInfo::compute(f, &cfg, &dom);
        let target = li.single_outermost().unwrap();
        let pt = PointsTo::compute(f, mm);
        let pdg = build_pdg(f, &cfg, target, &pt, mm);
        let cond = Condensation::compute(&pdg);
        let classes = classify_sccs(f, &pdg, &cond);
        let pc = PartitionConfig { placement };
        let plan = partition_loop(f, &pdg, &cond, &classes, pc).unwrap();
        transform_loop(f, &cfg, target, &pdg, &cond, &plan, TransformConfig { workers, loop_id: 7 })
            .unwrap()
    }

    #[test]
    fn list_loop_produces_two_verified_tasks() {
        let (f, mm) = list_loop();
        let pm = run_transform(&f, &mm, ReplicablePlacement::Pipelined, 4);
        assert_eq!(pm.tasks.len(), 2);
        assert_eq!(pm.tasks[0].kind, StageKind::Sequential);
        assert_eq!(pm.tasks[1].kind, StageKind::Parallel);
        // Tasks were verified by FunctionBuilder::finish inside the
        // transform; re-verify for good measure.
        for t in &pm.tasks {
            cgpa_ir::verify::verify(&pm.module.funcs[t.func_index]).unwrap();
        }
        cgpa_ir::verify::verify(&pm.parent).unwrap();
    }

    #[test]
    fn list_loop_queue_set_matches_figure_1e() {
        let (f, mm) = list_loop();
        let pm = run_transform(&f, &mm, ReplicablePlacement::Pipelined, 4);
        // Expect: round-robin queue for the node pointer, broadcast for the
        // exit condition. (The count reduction is duplicated or sequential.)
        let kinds: Vec<QueueKind> = pm.queues.iter().map(|q| q.kind).collect();
        assert!(kinds.contains(&QueueKind::RoundRobin), "queues: {:?}", pm.queues);
        assert!(kinds.contains(&QueueKind::Broadcast), "queues: {:?}", pm.queues);
        for q in &pm.queues {
            if q.kind == QueueKind::RoundRobin || q.kind == QueueKind::Broadcast {
                assert_eq!(pm.module.queue(q.queue).channels, 4);
            }
        }
    }

    #[test]
    fn parallel_task_has_dispatch_and_two_bodies() {
        let (f, mm) = list_loop();
        let pm = run_transform(&f, &mm, ReplicablePlacement::Pipelined, 4);
        let par = &pm.module.funcs[pm.tasks[1].func_index];
        assert!(par.worker_id_param.is_some());
        let names: Vec<&str> = par.blocks.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"dispatch"));
        assert!(names.iter().any(|n| n.starts_with("b1_")));
        assert!(names.iter().any(|n| n.starts_with("b2_")));
        // The reduced body consumes the broadcast exit condition: the task
        // consumes from at least one queue in both bodies.
        let text = cgpa_ir::printer::print_function(par);
        assert!(text.contains("consume"), "parallel task:\n{text}");
    }

    #[test]
    fn parent_forks_joins_and_retrieves_liveout() {
        let (f, mm) = list_loop();
        let pm = run_transform(&f, &mm, ReplicablePlacement::Pipelined, 4);
        let h = pm.parent.op_histogram();
        assert_eq!(h.get("parallel_fork"), Some(&1));
        assert_eq!(h.get("parallel_join"), Some(&1));
        assert_eq!(h.get("retrieve_liveout"), Some(&1));
        assert_eq!(pm.liveouts.len(), 1);
        assert_eq!(pm.loop_id, 7);
        // The liveout (count) is owned by a sequential stage.
        assert_eq!(pm.tasks[pm.liveouts[0].owner_stage].kind, StageKind::Sequential);
    }

    #[test]
    fn sequential_stage_stores_the_liveout() {
        let (f, mm) = list_loop();
        let pm = run_transform(&f, &mm, ReplicablePlacement::Pipelined, 4);
        let owner = pm.liveouts[0].owner_stage;
        let task = &pm.module.funcs[pm.tasks[owner].func_index];
        assert_eq!(task.op_histogram().get("store_liveout"), Some(&1));
    }

    #[test]
    fn p2_replicates_traversal_into_workers() {
        let (f, mm) = list_loop();
        let pm = run_transform(&f, &mm, ReplicablePlacement::Replicated, 4);
        // Single parallel stage (plus possibly a sequential liveout owner).
        assert!(pm.tasks.iter().any(|t| t.kind == StageKind::Parallel));
        // No round-robin node-pointer queue: each worker traverses itself.
        assert!(
            pm.queues.iter().all(|q| q.kind != QueueKind::RoundRobin),
            "queues: {:?}",
            pm.queues
        );
        // Every worker loads the next pointer locally (redundant traversal).
        let par = pm.tasks.iter().find(|t| t.kind == StageKind::Parallel).unwrap();
        let text = cgpa_ir::printer::print_function(&pm.module.funcs[par.func_index]);
        let loads = text.matches("load ptr").count();
        assert!(loads >= 2, "expected redundant next-loads in both bodies:\n{text}");
    }

    #[test]
    fn rejects_non_power_of_two_workers() {
        let (f, mm) = list_loop();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        let target = li.single_outermost().unwrap();
        let pt = PointsTo::compute(&f, &mm);
        let pdg = build_pdg(&f, &cfg, target, &pt, &mm);
        let cond = Condensation::compute(&pdg);
        let classes = classify_sccs(&f, &pdg, &cond);
        let plan = partition_loop(&f, &pdg, &cond, &classes, PartitionConfig::default()).unwrap();
        let err = transform_loop(
            &f,
            &cfg,
            target,
            &pdg,
            &cond,
            &plan,
            TransformConfig { workers: 3, loop_id: 0 },
        )
        .unwrap_err();
        assert_eq!(err, TransformError::BadWorkerCount(3));
    }

    /// The list loop's partition, for tests that corrupt it.
    fn list_loop_plan() -> (Function, Cfg, Loop, Pdg, Condensation, PipelinePlan) {
        let (f, mm) = list_loop();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        let target = li.single_outermost().unwrap().clone();
        let pt = PointsTo::compute(&f, &mm);
        let pdg = build_pdg(&f, &cfg, &target, &pt, &mm);
        let cond = Condensation::compute(&pdg);
        let classes = classify_sccs(&f, &pdg, &cond);
        let plan = partition_loop(&f, &pdg, &cond, &classes, PartitionConfig::default()).unwrap();
        (f, cfg, target, pdg, cond, plan)
    }

    #[test]
    fn a_plan_with_two_parallel_stages_is_rejected() {
        let (f, cfg, target, pdg, cond, mut plan) = list_loop_plan();
        assert_eq!(plan.shape(), "S-P");
        plan.stages[0].kind = StageKind::Parallel;
        let err = transform_loop(&f, &cfg, &target, &pdg, &cond, &plan, TransformConfig::default())
            .unwrap_err();
        assert!(matches!(err, TransformError::BadPlan(_)), "{err}");
        assert!(err.to_string().contains("2 parallel stages"), "{err}");
    }

    #[test]
    fn an_out_of_range_stage_assignment_is_rejected() {
        let (f, cfg, target, pdg, cond, mut plan) = list_loop_plan();
        let scc = *plan.assignment.keys().next().unwrap();
        plan.assignment.insert(scc, plan.stages.len());
        let err = transform_loop(&f, &cfg, &target, &pdg, &cond, &plan, TransformConfig::default())
            .unwrap_err();
        assert!(matches!(err, TransformError::BadPlan(_)), "{err}");
        assert!(err.to_string().contains("but the plan has 2 stages"), "{err}");
    }

    #[test]
    fn module_printing_includes_queues_and_tasks() {
        let (f, mm) = list_loop();
        let pm = run_transform(&f, &mm, ReplicablePlacement::Pipelined, 4);
        let text = print_module(&pm.module);
        assert!(text.contains("queue q0"));
        assert!(text.contains("fn @list_stage0"));
        assert!(text.contains("fn @list_stage1"));
    }
}

#[cfg(test)]
mod hoisting_tests {
    use super::*;
    use crate::partition::{partition_loop, PartitionConfig};
    use cgpa_analysis::alias::{MemoryModel, PointsTo};
    use cgpa_analysis::classify::classify_sccs;
    use cgpa_analysis::pdg::build_pdg;
    use cgpa_analysis::Condensation;
    use cgpa_ir::inst::{FloatPredicate, IntPredicate};
    use cgpa_ir::loops::LoopInfo;

    /// ks-shaped nest: outer list traversal, inner counted loop computing a
    /// max, outer reduction of the inner max.
    fn nested_reduction() -> (Function, MemoryModel) {
        let mut mm = MemoryModel::new();
        let nodes = mm.add_region("nodes", 16, true, true);
        mm.bind_param(0, nodes);
        mm.field_pointee(nodes, 12, nodes);
        let mut b =
            FunctionBuilder::new("nest", &[("head", Ty::Ptr), ("m", Ty::I32)], Some(Ty::F32));
        let head = b.param(0);
        let m = b.param(1);
        let header = b.append_block("header");
        let abody = b.append_block("abody");
        let ih = b.append_block("ih");
        let ibody = b.append_block("ibody");
        let idone = b.append_block("idone");
        let exit = b.append_block("exit");
        let null = b.const_ptr(0);
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        let ninf = b.const_f32(f32::NEG_INFINITY);
        b.br(header);
        b.switch_to(header);
        let p = b.phi(Ty::Ptr, "p");
        let gmax = b.phi(Ty::F32, "gmax");
        let done = b.icmp(IntPredicate::Eq, p, null);
        b.cond_br(done, exit, abody);
        b.switch_to(abody);
        let w = b.load(p, Ty::F32);
        b.br(ih);
        b.switch_to(ih);
        let j = b.phi(Ty::I32, "j");
        let best = b.phi(Ty::F32, "best");
        let jc = b.icmp(IntPredicate::Slt, j, m);
        b.cond_br(jc, ibody, idone);
        b.switch_to(ibody);
        let jf = b.cast(cgpa_ir::CastKind::SiToFp, j, Ty::F32);
        let g = b.binary(BinOp::FMul, w, jf);
        let better = b.fcmp(FloatPredicate::Ogt, g, best);
        let best2 = b.select(better, g, best);
        let j2 = b.binary(BinOp::Add, j, one);
        b.br(ih);
        b.switch_to(idone);
        let gb = b.fcmp(FloatPredicate::Ogt, best, gmax);
        let gmax2 = b.select(gb, best, gmax);
        let naddr = b.field(p, 12);
        let next = b.load(naddr, Ty::Ptr);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(gmax));
        b.add_phi_incoming(p, b.entry_block(), head);
        b.add_phi_incoming(p, idone, next);
        b.add_phi_incoming(gmax, b.entry_block(), ninf);
        b.add_phi_incoming(gmax, idone, gmax2);
        b.add_phi_incoming(j, abody, zero);
        b.add_phi_incoming(j, ibody, j2);
        b.add_phi_incoming(best, abody, ninf);
        b.add_phi_incoming(best, ibody, best2);
        b.set_freq_hint(ih, 17.0);
        b.set_freq_hint(ibody, 16.0);
        (b.finish().unwrap(), mm)
    }

    #[test]
    fn inner_reduction_values_are_hoisted_to_the_loop_exit() {
        let (f, mm) = nested_reduction();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        let target = li.single_outermost().unwrap();
        let pt = PointsTo::compute(&f, &mm);
        let pdg = build_pdg(&f, &cfg, target, &pt, &mm);
        let cond = Condensation::compute(&pdg);
        let classes = classify_sccs(&f, &pdg, &cond);
        let plan = partition_loop(&f, &pdg, &cond, &classes, PartitionConfig::default()).unwrap();
        assert_eq!(plan.shape(), "S-P-S");
        let pm = transform_loop(&f, &cfg, target, &pdg, &cond, &plan, TransformConfig::default())
            .unwrap();

        // The post stage (outer reduction) consumes `best` — the inner
        // reduction's final value. Without hoisting it would stream one
        // value per inner iteration; with it, the post task contains no
        // clone of the inner loop at all.
        let post = pm.tasks.iter().find(|t| t.stage == 2).expect("post stage");
        let post_f = &pm.module.funcs[post.func_index];
        let h = post_f.op_histogram();
        // The post task never multiplies or compares inner indices: the
        // inner loop is gone.
        assert_eq!(h.get("fmul"), None, "inner body leaked into post stage");
        assert_eq!(h.get("cast"), None);
        // Exactly one consume per cross value per outer iteration: best
        // (gather) + exit flag (from stage 0).
        let consumes = h.get("consume").copied().unwrap_or(0);
        assert!(consumes <= 3, "post stage consumes {consumes} queues per iteration");
    }

    #[test]
    fn gather_queue_count_is_per_outer_iteration() {
        let (f, mm) = nested_reduction();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        let target = li.single_outermost().unwrap();
        let pt = PointsTo::compute(&f, &mm);
        let pdg = build_pdg(&f, &cfg, target, &pt, &mm);
        let cond = Condensation::compute(&pdg);
        let classes = classify_sccs(&f, &pdg, &cond);
        let plan = partition_loop(&f, &pdg, &cond, &classes, PartitionConfig::default()).unwrap();
        let pm = transform_loop(&f, &cfg, target, &pdg, &cond, &plan, TransformConfig::default())
            .unwrap();
        // No queue should carry the raw per-inner-iteration `g` values.
        for q in &pm.queues {
            let def = f.def_of(q.value).unwrap();
            let name = f.inst(def).name.clone().unwrap_or_default();
            assert_ne!(name, "g", "per-inner-iteration value crossed stages");
        }
    }
}
