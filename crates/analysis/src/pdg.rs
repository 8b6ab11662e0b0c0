//! Program Dependence Graph construction for a target loop (paper §3.3).
//!
//! Nodes are the instructions of the target loop; edges are register,
//! control, and memory dependences, each flagged `loop_carried` with respect
//! to the *target* loop:
//!
//! - **Register**: SSA def→use. The only cross-iteration register flow in
//!   SSA is through phis at the target loop header, so an edge is
//!   loop-carried exactly when its use is such a phi and the incoming edge
//!   is a back edge of the target loop.
//! - **Control**: intra-iteration dependences come from the FOW walk on the
//!   loop body with the target's back edges removed
//!   ([`ControlDeps::compute`]); cross-iteration control is the
//!   standard DSWP blanket — every exit branch of the target loop carries a
//!   loop-carried control edge to *every* instruction of the loop (whether
//!   iteration `i+1` runs anything at all is decided by iteration `i`'s
//!   exit test). Phis additionally depend on the branches that decide which
//!   incoming edge executes.
//! - **Memory**: for every pair of may-aliasing accesses (at least one
//!   store), edges in *both* directions. This deliberately glues aliasing
//!   accesses into one SCC, which is what lets CGPA place each memory
//!   object's accesses into a single stage (paper §B.1). The edges are
//!   loop-carried unless the alias analysis proves the conflict
//!   intra-iteration (`distinct_per_iteration` regions).
//!
//! [`ControlDeps::compute`]: crate::control::ControlDeps::compute

use crate::alias::{AliasResult, MemoryModel, PointsTo};
use crate::control::ControlDeps;
use cgpa_ir::cfg::Cfg;
use cgpa_ir::loops::Loop;
use cgpa_ir::{Function, InstId, Op, ValueId};

/// The kind of a PDG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// SSA def→use.
    Register,
    /// Branch→instruction it controls (or phi whose incoming it decides).
    Control,
    /// Possible conflict between memory accesses.
    Memory,
}

/// One dependence edge between PDG node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PdgEdge {
    /// Source node index (into [`Pdg::nodes`]).
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Dependence kind.
    pub kind: DepKind,
    /// True if the dependence may span target-loop iterations.
    pub loop_carried: bool,
}

/// The program dependence graph of one target loop.
#[derive(Debug, Clone)]
pub struct Pdg {
    /// Instructions of the target loop, in block order.
    pub nodes: Vec<InstId>,
    /// Dependence edges (deduplicated), sorted by `(from, to, kind)`.
    pub edges: Vec<PdgEdge>,
    /// Node index of each instruction of the function, by [`InstId`];
    /// [`NOT_IN_LOOP`] outside the loop.
    node_index: Vec<u32>,
    /// Exit-branch node indices of the target loop.
    pub exit_branches: Vec<usize>,
}

impl Pdg {
    /// Node index of `inst`, if it belongs to the loop.
    #[must_use]
    pub fn node_of(&self, inst: InstId) -> Option<usize> {
        node_in(&self.node_index, inst)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the loop has no instructions (cannot happen for verified
    /// functions).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The `node_index` entry of an instruction outside the loop.
const NOT_IN_LOOP: u32 = u32::MAX;

/// The node of `inst` in a `node_index` table, if it is in the loop.
fn node_in(node_index: &[u32], inst: InstId) -> Option<usize> {
    node_index.get(inst.index()).copied().filter(|&n| n != NOT_IN_LOOP).map(|n| n as usize)
}

/// Build the PDG of `target` in `func`.
///
/// `points_to` and `model` supply the alias verdicts; pass a fresh
/// [`MemoryModel::new`] to get fully conservative memory dependences.
#[must_use]
pub fn build_pdg(
    func: &Function,
    cfg: &Cfg,
    target: &Loop,
    points_to: &PointsTo,
    model: &MemoryModel,
) -> Pdg {
    let nodes: Vec<InstId> = target.insts(func);
    let mut node_index = vec![NOT_IN_LOOP; func.insts.len()];
    for (i, id) in nodes.iter().enumerate() {
        node_index[id.index()] = i as u32;
    }
    let node_of = |i: InstId| node_in(&node_index, i);
    // Every dependence found, duplicates included; sorted and merged below.
    let mut edges: Vec<(usize, usize, DepKind, bool)> = Vec::new();
    let in_loop = |v: ValueId| func.def_of(v).and_then(node_of);

    // --- Register dependences --------------------------------------------
    for (to, &iid) in nodes.iter().enumerate() {
        let inst = func.inst(iid);
        if let Op::Phi { incomings, .. } = &inst.op {
            let is_header_phi = inst.block == target.header;
            for (from_block, v) in incomings {
                let Some(def_node) = in_loop(*v) else { continue };
                // Back-edge incoming of the target header phi ⇒ carried.
                let carried = is_header_phi && target.contains(*from_block);
                edges.push((def_node, to, DepKind::Register, carried));
            }
        } else {
            for v in inst.op.operands() {
                if let Some(def_node) = in_loop(v) {
                    edges.push((def_node, to, DepKind::Register, false));
                }
            }
        }
    }

    // --- Control dependences ----------------------------------------------
    let back_edges: Vec<_> = target.latches.iter().map(|l| (*l, target.header)).collect();
    let cd = ControlDeps::compute(func, cfg, &back_edges);
    for (to, &iid) in nodes.iter().enumerate() {
        let inst = func.inst(iid);
        for &dep_block in cd.deps_of(inst.block) {
            if !target.contains(dep_block) {
                continue;
            }
            if let Some(t) = func.terminator(dep_block) {
                if let Some(from) = node_of(t) {
                    edges.push((from, to, DepKind::Control, false));
                }
            }
        }
        // Phis also depend on the branches deciding their incoming edge.
        if let Op::Phi { incomings, .. } = &inst.op {
            for (from_block, _) in incomings {
                if !target.contains(*from_block) {
                    continue;
                }
                let own = func
                    .terminator(*from_block)
                    .filter(|&t| matches!(func.inst(t).op, Op::CondBr { .. }));
                let deciding = cd
                    .deps_of(*from_block)
                    .iter()
                    .filter(|&&d| target.contains(d))
                    .filter_map(|&d| func.terminator(d));
                let is_header_phi = inst.block == target.header;
                for t in own.into_iter().chain(deciding) {
                    if let Some(from) = node_of(t) {
                        edges.push((from, to, DepKind::Control, is_header_phi));
                    }
                }
            }
        }
    }
    // Blanket loop-carried control from every exit branch to every node:
    // iteration i's exit decision controls whether iteration i+1 happens.
    let exit_branches: Vec<usize> =
        target.exit_branches(func).into_iter().filter_map(node_of).collect();
    for &eb in &exit_branches {
        edges.extend((0..nodes.len()).map(|to| (eb, to, DepKind::Control, true)));
    }

    // --- Memory dependences -------------------------------------------------
    let mem_nodes: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, id)| func.inst(**id).op.is_memory())
        .map(|(i, _)| i)
        .collect();
    for (ai, &a) in mem_nodes.iter().enumerate() {
        for &b in &mem_nodes[ai..] {
            let (oa, ob) = (&func.inst(nodes[a]).op, &func.inst(nodes[b]).op);
            let a_store = matches!(oa, Op::Store { .. });
            let b_store = matches!(ob, Op::Store { .. });
            if !a_store && !b_store {
                continue; // load/load never conflicts
            }
            let (addr_a, size_a) = access_of(func, oa);
            let (addr_b, size_b) = access_of(func, ob);
            match points_to.alias(model, addr_a, size_a, addr_b, size_b) {
                AliasResult::NoAlias => {}
                AliasResult::MayAlias { loop_carried } => {
                    if a == b && !loop_carried {
                        // An access trivially aliases itself within an
                        // iteration; only a cross-iteration self conflict
                        // (e.g. `*p = …` re-writing one location every
                        // iteration) constrains the partition.
                        continue;
                    }
                    // Both directions: aliasing accesses must share a stage.
                    edges.push((a, b, DepKind::Memory, loop_carried));
                    edges.push((b, a, DepKind::Memory, loop_carried));
                }
            }
        }
    }

    // Collapse duplicate (from,to,kind) pairs: carried subsumes intra.
    edges.sort_unstable();
    let mut final_edges: Vec<PdgEdge> = Vec::with_capacity(edges.len());
    for (from, to, kind, carried) in edges {
        match final_edges.last_mut() {
            Some(e) if (e.from, e.to, e.kind) == (from, to, kind) => e.loop_carried |= carried,
            _ => final_edges.push(PdgEdge { from, to, kind, loop_carried: carried }),
        }
    }

    Pdg { nodes, edges: final_edges, node_index, exit_branches }
}

/// Address operand and access size of a memory op.
fn access_of(func: &Function, op: &Op) -> (ValueId, u32) {
    match op {
        Op::Load { addr, ty } => (*addr, ty.size_bytes()),
        Op::Store { addr, value } => (*addr, func.value_ty(*value).size_bytes()),
        _ => unreachable!("access_of on non-memory op"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_ir::builder::FunctionBuilder;
    use cgpa_ir::dom::DomTree;
    use cgpa_ir::inst::{BinOp, IntPredicate};
    use cgpa_ir::loops::LoopInfo;
    use cgpa_ir::Ty;

    /// em3d-like miniature:
    /// `for (; p; p = p->next) { q = p->other; p->val = q->val * 2.0; }`
    /// layout: val f64 @0, other ptr @8, next ptr @12.
    fn mini_em3d() -> (Function, MemoryModel) {
        let mut mm = MemoryModel::new();
        let nodes = mm.add_region("nodes", 16, false, true);
        let others = mm.add_region("others", 16, true, false);
        mm.bind_param(0, nodes);
        mm.field_pointee(nodes, 12, nodes);
        mm.field_pointee(nodes, 8, others);

        let mut b = FunctionBuilder::new("mini", &[("head", Ty::Ptr)], None);
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
        let oaddr = b.field(p, 8);
        let q = b.load(oaddr, Ty::Ptr);
        let vaddr = b.field(q, 0);
        let x = b.load(vaddr, Ty::F64);
        let two = b.const_f64(2.0);
        let y = b.binary(BinOp::FMul, x, two);
        let paddr = b.field(p, 0);
        b.store(paddr, y);
        let naddr = b.field(p, 12);
        let next = b.load(naddr, Ty::Ptr);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(p, b.entry_block(), head);
        b.add_phi_incoming(p, body, next);
        (b.finish().unwrap(), mm)
    }

    fn build(func: &Function, mm: &MemoryModel) -> Pdg {
        let cfg = Cfg::new(func);
        let dom = DomTree::dominators(func, &cfg);
        let li = LoopInfo::compute(func, &cfg, &dom);
        let target = li.single_outermost().unwrap();
        let pt = PointsTo::compute(func, mm);
        build_pdg(func, &cfg, target, &pt, mm)
    }

    #[test]
    fn nodes_cover_loop_insts_only() {
        let (f, mm) = mini_em3d();
        let pdg = build(&f, &mm);
        // Loop = header + body: phi, icmp, condbr, 4 geps, 3 loads, fmul,
        // store, br = 13 instructions.
        assert_eq!(pdg.len(), 13);
        assert_eq!(pdg.exit_branches.len(), 1);
    }

    #[test]
    fn traversal_register_cycle_is_carried() {
        let (f, mm) = mini_em3d();
        let pdg = build(&f, &mm);
        // Find the phi node and the next-load: edge load→phi carried.
        let phi = pdg.nodes.iter().position(|&i| matches!(f.inst(i).op, Op::Phi { .. })).unwrap();
        let carried_reg_into_phi =
            pdg.edges.iter().any(|e| e.to == phi && e.kind == DepKind::Register && e.loop_carried);
        assert!(carried_reg_into_phi);
    }

    #[test]
    fn exit_branch_blankets_all_nodes_carried() {
        let (f, mm) = mini_em3d();
        let pdg = build(&f, &mm);
        let eb = pdg.exit_branches[0];
        for to in 0..pdg.len() {
            assert!(
                pdg.edges.iter().any(|e| e.from == eb
                    && e.to == to
                    && e.kind == DepKind::Control
                    && e.loop_carried),
                "missing carried control edge to node {to}"
            );
        }
    }

    #[test]
    fn store_does_not_reach_cross_list_loads() {
        let (f, mm) = mini_em3d();
        let pdg = build(&f, &mm);
        // The store (p->val) must have NO memory edge to the load of q->val
        // (other list), and only intra-iteration memory edges otherwise.
        let store =
            pdg.nodes.iter().position(|&i| matches!(f.inst(i).op, Op::Store { .. })).unwrap();
        let mem_edges: Vec<_> = pdg
            .edges
            .iter()
            .filter(|e| e.kind == DepKind::Memory && (e.from == store || e.to == store))
            .collect();
        // p->val store vs p->next load: disjoint fields; q->val: other
        // region. So no memory edges at all.
        assert!(mem_edges.is_empty(), "unexpected memory edges: {mem_edges:?}");
    }

    #[test]
    fn conservative_model_creates_carried_memory_edges() {
        let (f, _) = mini_em3d();
        let mm = MemoryModel::new(); // no facts
        let pdg = build(&f, &mm);
        let store =
            pdg.nodes.iter().position(|&i| matches!(f.inst(i).op, Op::Store { .. })).unwrap();
        let carried = pdg
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Memory && e.from == store && e.loop_carried);
        assert!(carried);
    }

    #[test]
    fn body_is_control_dependent_on_header_branch() {
        let (f, mm) = mini_em3d();
        let pdg = build(&f, &mm);
        let eb = pdg.exit_branches[0];
        let store =
            pdg.nodes.iter().position(|&i| matches!(f.inst(i).op, Op::Store { .. })).unwrap();
        // Intra-iteration control edge from the header branch to body insts.
        assert!(pdg
            .edges
            .iter()
            .any(|e| e.from == eb && e.to == store && e.kind == DepKind::Control));
    }
}
