//! The CGPA pipeline partitioner (paper §3.3, "Pipeline Partition").
//!
//! Adapted from PS-DSWP: SCCs of the condensed PDG are assigned to a
//! pipeline of at most `S → P → S` shape (a pre sequential stage, one
//! parallel stage of N workers, a post sequential stage). The CGPA-specific
//! part is the placement of *replicable* sections:
//!
//! - lightweight replicable chains (no load, no multiply) are **duplicated**
//!   into every worker — redundant computation is cheaper than a FIFO
//!   transfer;
//! - heavyweight ones (e.g. em3d's pointer-chasing traversal, Gaussblur's
//!   image fetch) anchor the pre sequential stage and *broadcast* or
//!   round-robin their results (placement "P1"), unless the caller opts into
//!   replicated data-level parallelism ("P2"), which copies them into every
//!   worker at the price of redundant memory traffic — the tradeoff the
//!   paper evaluates in Table 3.

use crate::plan::{PipelinePlan, StageKind, StagePlan};
use cgpa_analysis::classify::{is_side_effect_free, SccClass};
use cgpa_analysis::pdg::DepKind;
use cgpa_analysis::scc::SccEdge;
use cgpa_analysis::{Condensation, Pdg, SccClassification, SccId};
use cgpa_ir::Function;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Where heavyweight replicable sections (and their feeders) go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicablePlacement {
    /// "P1": decoupled pipelining — heavy replicable sections run once, in a
    /// sequential stage, and results flow through FIFOs.
    #[default]
    Pipelined,
    /// "P2": replicated data-level parallelism — heavy replicable sections
    /// are copied into every parallel worker and re-executed redundantly.
    Replicated,
}

/// Partitioner options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionConfig {
    /// P1 vs P2 placement of heavyweight replicable sections.
    pub placement: ReplicablePlacement,
}

/// Maximum frequency-weighted instruction count a duplicated section's
/// *feeder closure* (the per-iteration producers hoisted into the pre stage)
/// may have. Beyond this, communicating the section's value over a FIFO is
/// cheaper than feeding its duplicate copies — the paper's
/// computation-vs-communication tradeoff (§3.3).
const FEEDER_WEIGHT_LIMIT: f64 = 4.0;

/// Affinity demotion: a side-effect-free component of the parallel stage
/// whose results are consumed only by sequential stages is moved into the
/// consuming stage when its weight is at most this fraction of the parallel
/// stage's weight. This keeps cheap helper computation (K-means'
/// `new_centers` operand loads) with its consumer instead of streaming
/// fine-grained values through FIFOs, without ever demoting the dominant
/// parallel work (ks' gain computation fails the fraction test).
const DEMOTION_WEIGHT_FRACTION: f64 = 0.3;

/// Minimum fraction of the loop's frequency-weighted instruction count that
/// must end up in the parallel stage for pipelining to be worthwhile; below
/// this the loop is reported as having no parallel work and falls back to
/// sequential HLS.
const MIN_PARALLEL_FRACTION: f64 = 0.25;

/// Why a loop could not be partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// Every SCC is sequential or replicable; there is no parallel stage to
    /// build. (Such loops fall back to plain sequential HLS.)
    NoParallelWork,
    /// The dependence structure does not admit a forward pipeline.
    Unpartitionable(String),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoParallelWork => {
                f.write_str("loop has no parallel section to pipeline")
            }
            PartitionError::Unpartitionable(why) => {
                write!(f, "loop dependences do not admit a forward pipeline: {why}")
            }
        }
    }
}

impl Error for PartitionError {}

/// Union-find over SCC ids.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect() }
    }
    fn find(&mut self, x: u32) -> u32 {
        if self.parent[x as usize] != x {
            let root = self.find(self.parent[x as usize]);
            self.parent[x as usize] = root;
        }
        self.parent[x as usize]
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// Partition the target loop's condensed PDG into a pipeline plan.
///
/// # Errors
/// [`PartitionError::NoParallelWork`] when no SCC can populate a parallel
/// stage; [`PartitionError::Unpartitionable`] when sequential SCCs sit on a
/// cycle through the parallel stage that demotion cannot break, when an exit
/// branch would land outside the first stage, or when a feeder has side
/// effects.
/// ```
/// use cgpa_analysis::alias::{MemoryModel, PointsTo};
/// use cgpa_analysis::classify::classify_sccs;
/// use cgpa_analysis::pdg::build_pdg;
/// use cgpa_analysis::Condensation;
/// use cgpa_ir::cfg::Cfg;
/// use cgpa_ir::dom::DomTree;
/// use cgpa_ir::loops::LoopInfo;
/// use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Ty};
/// use cgpa_pipeline::{partition_loop, PartitionConfig};
///
/// // for (i = 0; i < n; i++) b[i] = a[i] * 2.0;
/// let mut mm = MemoryModel::new();
/// let ra = mm.add_region("a", 8, true, false);
/// let rb = mm.add_region("b", 8, false, true);
/// mm.bind_param(0, ra);
/// mm.bind_param(1, rb);
/// let mut bld = FunctionBuilder::new("map", &[("a", Ty::Ptr), ("b", Ty::Ptr), ("n", Ty::I32)], None);
/// let (a, bp, n) = (bld.param(0), bld.param(1), bld.param(2));
/// let header = bld.append_block("header");
/// let body = bld.append_block("body");
/// let exit = bld.append_block("exit");
/// let zero = bld.const_i32(0);
/// let one = bld.const_i32(1);
/// bld.br(header);
/// bld.switch_to(header);
/// let i = bld.phi(Ty::I32, "i");
/// let c = bld.icmp(IntPredicate::Slt, i, n);
/// bld.cond_br(c, body, exit);
/// bld.switch_to(body);
/// let pa = bld.gep(a, i, 8, 0);
/// let x = bld.load(pa, Ty::F64);
/// let two = bld.const_f64(2.0);
/// let y = bld.binary(BinOp::FMul, x, two);
/// let pb = bld.gep(bp, i, 8, 0);
/// bld.store(pb, y);
/// let i2 = bld.binary(BinOp::Add, i, one);
/// bld.br(header);
/// bld.switch_to(exit);
/// bld.ret(None);
/// bld.add_phi_incoming(i, bld.entry_block(), zero);
/// bld.add_phi_incoming(i, body, i2);
/// let f = bld.finish().unwrap();
///
/// let cfg = Cfg::new(&f);
/// let dom = DomTree::dominators(&f, &cfg);
/// let li = LoopInfo::compute(&f, &cfg, &dom);
/// let target = li.single_outermost().unwrap();
/// let pt = PointsTo::compute(&f, &mm);
/// let pdg = build_pdg(&f, &cfg, target, &pt, &mm);
/// let cond = Condensation::compute(&pdg);
/// let classes = classify_sccs(&f, &pdg, &cond);
/// let plan = partition_loop(&f, &pdg, &cond, &classes, PartitionConfig::default()).unwrap();
/// assert_eq!(plan.shape(), "P"); // pure data parallelism, induction duplicated
/// ```
pub fn partition_loop(
    func: &Function,
    pdg: &Pdg,
    cond: &Condensation,
    classes: &SccClassification,
    config: PartitionConfig,
) -> Result<PipelinePlan, PartitionError> {
    partition_with(func, pdg, cond, classes, config.placement, FEEDER_WEIGHT_LIMIT)
}

/// [`partition_loop`] with an explicit feeder-closure weight limit; a limit
/// of zero disables feeders.
fn partition_with(
    func: &Function,
    pdg: &Pdg,
    cond: &Condensation,
    classes: &SccClassification,
    placement: ReplicablePlacement,
    feeder_limit: f64,
) -> Result<PipelinePlan, PartitionError> {
    let n = cond.len();
    let all: Vec<SccId> = cond.topo_order().collect();

    // --- 1. Replicable chains: union side-effect-free SCCs linked by
    // loop-carried register edges (e.g. Gaussblur's shift registers and the
    // image fetch feeding them).
    let sef: Vec<bool> = all.iter().map(|&s| is_side_effect_free(func, pdg, cond, s)).collect();
    let mut uf = UnionFind::new(n);
    for e in &cond.edges {
        if e.kind == DepKind::Register && e.loop_carried && sef[e.from.index()] && sef[e.to.index()]
        {
            uf.union(e.from.0, e.to.0);
        }
    }
    let cluster_of: Vec<u32> = (0..n as u32).map(|i| uf.find(i)).collect();
    let mut clusters: BTreeMap<u32, Vec<SccId>> = BTreeMap::new();
    for (i, &c) in cluster_of.iter().enumerate() {
        clusters.entry(c).or_default().push(SccId(i as u32));
    }

    // A cluster is "carried" when it contains a replicable-class SCC or a
    // carried register edge between members: it cannot live in the parallel
    // stage as round-robin work.
    let mut carried_cluster: BTreeSet<u32> = BTreeSet::new();
    for (&cid, members) in &clusters {
        let internal_replicable =
            members.iter().any(|&s| matches!(classes.class(s), SccClass::Replicable { .. }));
        if internal_replicable || (members.len() > 1) {
            carried_cluster.insert(cid);
        }
    }

    let scc_heavy = |s: SccId| cgpa_analysis::classify::is_heavyweight(func, pdg, cond, s);

    // --- 2/3. Duplication set D and feeders F (fixpoint).
    // Candidates: carried clusters that are fully side-effect-free.
    // Lightweight ones are always duplicated; heavyweight ones only under P2.
    let mut duplicated: BTreeSet<SccId> = BTreeSet::new();
    let mut candidate_sets: BTreeMap<u32, Vec<SccId>> = BTreeMap::new();
    for (&cid, members) in &clusters {
        if !carried_cluster.contains(&cid) {
            continue;
        }
        if !members.iter().all(|&s| sef[s.index()]) {
            continue;
        }
        // Split rule (Gaussblur's R2/R3, Appendix A.2): a heavyweight
        // member *without* internal carried edges (a plain load feeding the
        // chain) is excluded from the duplicable subset — it becomes a
        // per-iteration feeder, broadcast from the pre stage under P1 or
        // replicated under P2. Members that are themselves carried (e.g.
        // em3d's pointer-chasing traversal) cannot be split off.
        let subset: Vec<SccId> = members
            .iter()
            .copied()
            .filter(|&s| !(classes.class(s) == SccClass::Parallel && scc_heavy(s)))
            .collect();
        if subset.is_empty() {
            continue;
        }
        let heavy = subset.iter().any(|&s| scc_heavy(s));
        let dup = match placement {
            ReplicablePlacement::Pipelined => !heavy,
            ReplicablePlacement::Replicated => true,
        };
        if dup {
            candidate_sets.insert(cid, subset);
        }
    }

    // Fixpoint: duplication requires every register/control input of the
    // cluster to come from (a) another duplicated cluster, (b) a
    // loop-invariant live-in (no producer SCC), or (c) a *feeder closure*:
    // side-effect-free SCCs whose values are demanded every iteration by
    // the duplicated section and nothing else, and whose total weight is
    // small enough that hoisting them into the pre stage beats
    // communication. Under P2 feeders are duplicated into the workers
    // instead of hoisted.
    let scc_weight = |s: SccId| -> f64 {
        cond.members(s)
            .iter()
            .map(|&node| func.block(func.inst(pdg.nodes[node]).block).freq_hint)
            .sum()
    };
    let mut feeders: BTreeSet<SccId> = BTreeSet::new();
    loop {
        duplicated.clear();
        for subset in candidate_sets.values() {
            duplicated.extend(subset.iter().copied());
        }
        feeders.clear();
        let mut drop_cluster: Option<u32> = None;
        'outer: for (&cid, subset) in &candidate_sets {
            for e in &cond.edges {
                if !matches!(e.kind, DepKind::Register | DepKind::Control) {
                    continue;
                }
                if !subset.contains(&e.to) || duplicated.contains(&e.from) {
                    continue;
                }
                let producer = e.from;
                // Control inputs from exit branches are satisfied by the
                // loop-control broadcast; they never block duplication.
                if e.kind == DepKind::Control
                    && cond.members(producer).iter().any(|m| pdg.exit_branches.contains(m))
                {
                    continue;
                }
                match feeder_closure(cond, &sef, &duplicated, producer) {
                    Some(closure)
                        if closure.iter().map(|&f| scc_weight(f)).sum::<f64>() <= feeder_limit =>
                    {
                        match placement {
                            ReplicablePlacement::Pipelined => feeders.extend(closure),
                            ReplicablePlacement::Replicated => duplicated.extend(closure),
                        }
                    }
                    _ => {
                        drop_cluster = Some(cid);
                        break 'outer;
                    }
                }
            }
        }
        match drop_cluster {
            Some(cid) => {
                candidate_sets.remove(&cid);
            }
            None => break,
        }
    }

    // --- 4/5. Initial parallel stage: class-parallel SCCs in free clusters.
    // SCCs made only of terminators are pure control: every task re-creates
    // branches anyway (control equivalence), so they are no one's "work".
    let control_only = |s: SccId| -> bool {
        cond.members(s).iter().all(|&n| func.inst(pdg.nodes[n]).op.is_terminator())
    };
    let mut parallel: BTreeSet<SccId> = BTreeSet::new();
    for &s in &all {
        if duplicated.contains(&s) || feeders.contains(&s) || control_only(s) {
            continue;
        }
        if classes.class(s) == SccClass::Parallel
            && !carried_cluster.contains(&cluster_of[s.index()])
        {
            parallel.insert(s);
        }
    }

    // --- 6. Demotion fixpoint: a sequential SCC that both feeds and
    // consumes the parallel stage would need to sit in the middle of it;
    // demote its parallel descendants to the post stage instead (this is
    // how K-means' membership compare ends up sequential, matching the
    // paper's Appendix A.1).
    let reach = |edges: &[SccEdge]| -> Vec<BTreeSet<u32>> {
        // Transitive successors per SCC over all edge kinds.
        let mut succ: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        for e in edges {
            succ[e.from.index()].insert(e.to.0);
        }
        // SCC ids are topologically ordered: propagate from high to low.
        for i in (0..n).rev() {
            let direct: Vec<u32> = succ[i].iter().copied().collect();
            for d in direct {
                let extra: Vec<u32> = succ[d as usize].iter().copied().collect();
                succ[i].extend(extra);
            }
        }
        succ
    };
    let reachable = reach(&cond.edges);

    loop {
        let mut demote: Option<SccId> = None;
        'search: for &x in &all {
            if parallel.contains(&x) || duplicated.contains(&x) || feeders.contains(&x) {
                continue;
            }
            let reaches_p = reachable[x.index()].iter().any(|&t| parallel.contains(&SccId(t)));
            let reached_from_p = parallel.iter().any(|p| reachable[p.index()].contains(&x.0));
            if reaches_p && reached_from_p {
                // Demote every parallel descendant of x.
                for &t in &reachable[x.index()] {
                    if parallel.contains(&SccId(t)) {
                        demote = Some(SccId(t));
                        break 'search;
                    }
                }
            }
        }
        match demote {
            Some(s) => {
                parallel.remove(&s);
            }
            None => break,
        }
    }

    if parallel.is_empty() {
        // Degenerate duplication: hoisting feeders ate the whole parallel
        // stage (a tiny reduction loop). Retry with feeders disabled so the
        // reduction pipelines as P-S instead.
        if !feeders.is_empty() && feeder_limit > 0.0 {
            return partition_with(func, pdg, cond, classes, placement, 0.0);
        }
        return Err(PartitionError::NoParallelWork);
    }

    // --- 7. Affinity demotion: side-effect-free parallel components whose
    // every result flows into sequential stages move there when cheap
    // relative to the parallel stage (see `DEMOTION_WEIGHT_FRACTION`).
    {
        let p_weight: f64 = parallel.iter().map(|&s| scc_weight(s)).sum();
        // ok_forward[s]: s is SEF and no path inside P from s reaches a
        // side-effecting P member. SCC ids are topological, so a reverse
        // sweep suffices.
        let mut ok_forward: Vec<bool> = vec![false; n];
        #[allow(clippy::needless_range_loop)]
        for i in (0..n).rev() {
            let s = SccId(i as u32);
            if !parallel.contains(&s) || !sef[i] {
                continue;
            }
            ok_forward[i] = cond
                .edges
                .iter()
                .all(|e| e.from != s || !parallel.contains(&e.to) || ok_forward[e.to.index()]);
        }
        // Weakly-connected components of the demotion candidates.
        let mut cuf = UnionFind::new(n);
        for e in &cond.edges {
            if ok_forward[e.from.index()] && ok_forward[e.to.index()] {
                cuf.union(e.from.0, e.to.0);
            }
        }
        let mut comps: BTreeMap<u32, Vec<SccId>> = BTreeMap::new();
        for (i, ok) in ok_forward.iter().enumerate() {
            if *ok {
                comps.entry(cuf.find(i as u32)).or_default().push(SccId(i as u32));
            }
        }
        for members in comps.values() {
            let w: f64 = members.iter().map(|&s| scc_weight(s)).sum();
            let feeds_sequential = members.iter().any(|&s| {
                cond.edges.iter().any(|e| {
                    e.from == s
                        && !parallel.contains(&e.to)
                        && !duplicated.contains(&e.to)
                        && !feeders.contains(&e.to)
                })
            });
            if feeds_sequential && w <= DEMOTION_WEIGHT_FRACTION * p_weight {
                for &s in members {
                    parallel.remove(&s);
                }
            }
        }
        if parallel.is_empty() {
            return Err(PartitionError::NoParallelWork);
        }
    }

    // Pipelining must be worthwhile: the parallel stage has to carry a
    // meaningful share of the loop's work.
    {
        let total: f64 = all.iter().map(|&s| scc_weight(s)).sum();
        let p_weight: f64 = parallel.iter().map(|&s| scc_weight(s)).sum();
        if total > 0.0 && p_weight / total < MIN_PARALLEL_FRACTION {
            return Err(PartitionError::NoParallelWork);
        }
    }

    // --- 8. Pre/post assignment for the remaining SCCs.
    let mut pre: Vec<SccId> = Vec::new();
    let mut post: Vec<SccId> = Vec::new();
    for &x in &all {
        if parallel.contains(&x) || duplicated.contains(&x) || control_only(x) {
            continue;
        }
        let reaches_p = reachable[x.index()].iter().any(|&t| parallel.contains(&SccId(t)));
        let reached_from_p = parallel.iter().any(|p| reachable[p.index()].contains(&x.0));
        if feeders.contains(&x) || (reaches_p && !reached_from_p) {
            if reached_from_p {
                return Err(PartitionError::Unpartitionable(format!(
                    "feeder {x} is reached from the parallel stage"
                )));
            }
            pre.push(x);
        } else if reached_from_p && reaches_p {
            return Err(PartitionError::Unpartitionable(format!(
                "{x} both feeds and consumes the parallel stage after demotion"
            )));
        } else {
            post.push(x);
        }
    }

    // --- 9. Exit branches must be computed in the first stage or locally in
    // every worker (duplicated): later stages learn the exit condition via
    // broadcast, which only flows forward.
    for &eb in &pdg.exit_branches {
        let s = cond.scc_of[eb];
        let ok = duplicated.contains(&s) || pre.contains(&s);
        if !ok {
            return Err(PartitionError::Unpartitionable(format!(
                "exit branch SCC {s} is not in the first stage and not duplicated"
            )));
        }
    }

    // --- 10. Assemble.
    let mut stages = Vec::new();
    let mut assignment: BTreeMap<SccId, usize> = BTreeMap::new();
    if !pre.is_empty() {
        for &s in &pre {
            assignment.insert(s, stages.len());
        }
        stages.push(StagePlan { kind: StageKind::Sequential, sccs: pre.clone() });
    }
    for &s in &parallel {
        assignment.insert(s, stages.len());
    }
    stages.push(StagePlan { kind: StageKind::Parallel, sccs: parallel.iter().copied().collect() });
    if !post.is_empty() {
        for &s in &post {
            assignment.insert(s, stages.len());
        }
        stages.push(StagePlan { kind: StageKind::Sequential, sccs: post.clone() });
    }

    let plan = PipelinePlan { stages, duplicated, feeders: feeders.clone(), assignment };

    // Final sanity: every non-duplicated edge flows forward.
    for e in &cond.edges {
        let (fs, ts) = (plan.stage_of(e.from), plan.stage_of(e.to));
        if let (Some(fs), Some(ts)) = (fs, ts) {
            if fs > ts {
                return Err(PartitionError::Unpartitionable(format!(
                    "dependence {} -> {} flows backward (stage {fs} -> {ts})",
                    e.from, e.to
                )));
            }
        }
        // Producers of duplicated SCCs must be duplicated or in stage 0.
        if plan.is_duplicated(e.to)
            && !plan.is_duplicated(e.from)
            && e.kind == DepKind::Register
            && plan.stage_of(e.from) != Some(0)
        {
            return Err(PartitionError::Unpartitionable(format!(
                "producer {} of duplicated section {} is not in the first stage",
                e.from, e.to
            )));
        }
    }

    Ok(plan)
}

/// Compute the feeder closure of `producer`: the transitive set of SCCs that
/// must execute every iteration in the pre stage so that a duplicated
/// section's inputs are available.
///
/// Returns `None` when the closure is illegal: a member has side effects, or
/// a member's value is also consumed by ordinary (round-robin) work — in
/// that case hoisting it would steal work from the parallel stage, and the
/// duplication candidate should be dropped instead (this is what keeps the
/// ks gain computation in the parallel stage while its max-reduction goes to
/// a post sequential stage).
fn feeder_closure(
    cond: &Condensation,
    sef: &[bool],
    duplicated: &BTreeSet<SccId>,
    producer: SccId,
) -> Option<BTreeSet<SccId>> {
    let mut closure = BTreeSet::new();
    let mut work = vec![producer];
    while let Some(s) = work.pop() {
        if !closure.insert(s) {
            continue;
        }
        if !sef[s.index()] {
            return None;
        }
        // Every register consumer of a feeder must itself be duplicated or a
        // feeder; otherwise the value is ordinary parallel/sequential work.
        for e in &cond.edges {
            if e.kind != DepKind::Register {
                continue;
            }
            if e.from == s && !duplicated.contains(&e.to) && !closure.contains(&e.to) {
                // Consumer outside the duplicated world: the closure is only
                // legal if that consumer will later be pulled in; pulling in
                // consumers grows toward the whole loop, so reject instead.
                return None;
            }
            if e.to == s && !duplicated.contains(&e.from) {
                work.push(e.from);
            }
        }
    }
    Some(closure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_analysis::alias::{MemoryModel, PointsTo};
    use cgpa_analysis::classify::classify_sccs;
    use cgpa_analysis::pdg::build_pdg;
    use cgpa_analysis::scc::Condensation;
    use cgpa_ir::builder::FunctionBuilder;
    use cgpa_ir::cfg::Cfg;
    use cgpa_ir::dom::DomTree;
    use cgpa_ir::inst::{BinOp, IntPredicate};
    use cgpa_ir::loops::LoopInfo;
    use cgpa_ir::{Function, Ty};

    fn analyze(
        f: &Function,
        mm: &MemoryModel,
        cfgc: PartitionConfig,
    ) -> Result<(Pdg, Condensation, PipelinePlan), PartitionError> {
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let li = LoopInfo::compute(f, &cfg, &dom);
        let target = li.single_outermost().expect("one loop");
        let pt = PointsTo::compute(f, mm);
        let pdg = build_pdg(f, &cfg, target, &pt, mm);
        let cond = Condensation::compute(&pdg);
        let classes = classify_sccs(f, &pdg, &cond);
        let plan = partition_loop(f, &pdg, &cond, &classes, cfgc)?;
        Ok((pdg, cond, plan))
    }

    /// `for (i=0; i<n; i++) b[i] = a[i] * 2.0;` — induction duplicated,
    /// everything else parallel: shape "P".
    fn map_loop() -> (Function, MemoryModel) {
        let mut mm = MemoryModel::new();
        let ra = mm.add_region("a", 8, true, false);
        let rb = mm.add_region("b", 8, false, true);
        mm.bind_param(0, ra);
        mm.bind_param(1, rb);
        let mut b =
            FunctionBuilder::new("map", &[("a", Ty::Ptr), ("b", Ty::Ptr), ("n", Ty::I32)], None);
        let a = b.param(0);
        let bp = b.param(1);
        let n = b.param(2);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let pa = b.gep(a, i, 8, 0);
        let x = b.load(pa, Ty::F64);
        let two = b.const_f64(2.0);
        let y = b.binary(BinOp::FMul, x, two);
        let pb = b.gep(bp, i, 8, 0);
        b.store(pb, y);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        (b.finish().unwrap(), mm)
    }

    #[test]
    fn map_loop_is_pure_parallel_with_duplicated_induction() {
        let (f, mm) = map_loop();
        let (pdg, cond, plan) = analyze(&f, &mm, PartitionConfig::default()).unwrap();
        assert_eq!(plan.shape(), "P");
        // Induction SCC duplicated; it contains the exit branch.
        let eb_scc = cond.scc_of[pdg.exit_branches[0]];
        assert!(plan.is_duplicated(eb_scc));
        assert!(plan.feeders.is_empty());
    }

    /// Adds a sum reduction: `for (..) { b[i] = a[i]*2; s += a[i]; }` —
    /// reduction consumes parallel loads → "P-S".
    fn map_reduce_loop() -> (Function, MemoryModel) {
        let mut mm = MemoryModel::new();
        let ra = mm.add_region("a", 8, true, false);
        let rb = mm.add_region("b", 8, false, true);
        mm.bind_param(0, ra);
        mm.bind_param(1, rb);
        let mut b = FunctionBuilder::new(
            "mapreduce",
            &[("a", Ty::Ptr), ("b", Ty::Ptr), ("n", Ty::I32)],
            Some(Ty::F64),
        );
        let a = b.param(0);
        let bp = b.param(1);
        let n = b.param(2);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        let zf = b.const_f64(0.0);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let s = b.phi(Ty::F64, "s");
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let pa = b.gep(a, i, 8, 0);
        let x = b.load(pa, Ty::F64);
        let two = b.const_f64(2.0);
        let y = b.binary(BinOp::FMul, x, two);
        let pb = b.gep(bp, i, 8, 0);
        b.store(pb, y);
        let s2 = b.binary(BinOp::FAdd, s, x);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(s));
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(s, b.entry_block(), zf);
        b.add_phi_incoming(s, body, s2);
        (b.finish().unwrap(), mm)
    }

    #[test]
    fn reduction_becomes_post_sequential_stage() {
        let (f, mm) = map_reduce_loop();
        let (_pdg, _cond, plan) = analyze(&f, &mm, PartitionConfig::default()).unwrap();
        // The s-reduction chain is side-effect-free and lightweight, but its
        // input (the load) is not duplicable as a feeder under P1? It is —
        // load is side-effect-free. But the load is *parallel work*, not a
        // chain member… the reduction consumes it per-iteration.
        // Expected: reduction cannot be duplicated (input from parallel
        // stage), so it lands in a post sequential stage: "P-S".
        assert_eq!(plan.shape(), "P-S");
    }

    /// Linked-list traversal with parallel body → "S-P" (em3d shape).
    fn list_loop() -> (Function, MemoryModel) {
        let mut mm = MemoryModel::new();
        let nodes = mm.add_region("nodes", 16, false, true);
        mm.bind_param(0, nodes);
        mm.field_pointee(nodes, 12, nodes);
        let mut b = FunctionBuilder::new("list", &[("head", Ty::Ptr)], None);
        let head = b.param(0);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        b.br(header);
        b.switch_to(header);
        let p = b.phi(Ty::Ptr, "p");
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
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(p, b.entry_block(), head);
        b.add_phi_incoming(p, body, next);
        (b.finish().unwrap(), mm)
    }

    #[test]
    fn list_traversal_is_s_p_under_p1() {
        let (f, mm) = list_loop();
        let (pdg, cond, plan) = analyze(&f, &mm, PartitionConfig::default()).unwrap();
        assert_eq!(plan.shape(), "S-P");
        // The traversal (heavy replicable, holds the exit branch) sits in
        // stage 0.
        let eb_scc = cond.scc_of[pdg.exit_branches[0]];
        assert_eq!(plan.stage_of(eb_scc), Some(0));
        assert!(!plan.is_duplicated(eb_scc));
    }

    #[test]
    fn list_traversal_is_replicated_under_p2() {
        let (f, mm) = list_loop();
        let cfgc = PartitionConfig { placement: ReplicablePlacement::Replicated };
        let (pdg, cond, plan) = analyze(&f, &mm, cfgc).unwrap();
        assert_eq!(plan.shape(), "P");
        let eb_scc = cond.scc_of[pdg.exit_branches[0]];
        assert!(plan.is_duplicated(eb_scc));
    }

    #[test]
    fn fully_sequential_loop_is_rejected() {
        // for (; p; p = p->next) sum via store to one cell: everything
        // sequential (store region not distinct per iteration).
        let mut mm = MemoryModel::new();
        let nodes = mm.add_region("nodes", 16, false, true);
        let acc = mm.add_region("acc", 8, false, false);
        mm.bind_param(0, nodes);
        mm.bind_param(1, acc);
        mm.field_pointee(nodes, 12, nodes);
        let mut b = FunctionBuilder::new("seq", &[("head", Ty::Ptr), ("acc", Ty::Ptr)], None);
        let head = b.param(0);
        let accp = b.param(1);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        b.br(header);
        b.switch_to(header);
        let p = b.phi(Ty::Ptr, "p");
        let null = b.const_ptr(0);
        let done = b.icmp(IntPredicate::Eq, p, null);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let x = b.load(p, Ty::F64);
        let cur = b.load(accp, Ty::F64);
        let s = b.binary(BinOp::FAdd, cur, x);
        b.store(accp, s);
        let naddr = b.field(p, 12);
        let next = b.load(naddr, Ty::Ptr);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(p, b.entry_block(), head);
        b.add_phi_incoming(p, body, next);
        let f = b.finish().unwrap();
        let err = analyze(&f, &mm, PartitionConfig::default()).unwrap_err();
        assert_eq!(err, PartitionError::NoParallelWork);
    }
}
