//! Tarjan SCC condensation of the PDG into a DAG (paper §3.3: "the compiler
//! consolidates all the strongly connected components in the PDG to create a
//! directed acyclic graph").

use crate::pdg::{DepKind, Pdg, PdgEdge};
use std::fmt;

/// A handle to one SCC of a [`Pdg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SccId(pub u32);

impl SccId {
    /// Index into [`Condensation::sccs`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SccId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scc{}", self.0)
    }
}

/// A cross-SCC dependence in the condensed DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SccEdge {
    /// Producing SCC.
    pub from: SccId,
    /// Consuming SCC.
    pub to: SccId,
    /// Dependence kind.
    pub kind: DepKind,
    /// True if any underlying PDG edge of this kind is loop-carried.
    pub loop_carried: bool,
}

/// The condensation of a PDG: SCC membership plus the DAG of cross-SCC
/// edges. SCC ids are assigned in *topological order* (`SccId(0)` has no
/// predecessors).
#[derive(Debug, Clone)]
pub struct Condensation {
    /// PDG node indices of each SCC.
    pub sccs: Vec<Vec<usize>>,
    /// SCC of each PDG node.
    pub scc_of: Vec<SccId>,
    /// Deduplicated cross-SCC edges.
    pub edges: Vec<SccEdge>,
}

impl Condensation {
    /// Run Tarjan's algorithm on `pdg` and condense.
    #[must_use]
    pub fn compute(pdg: &Pdg) -> Self {
        let n = pdg.len();
        // Successor rows in one array, in edge order: `succ[row[v]..row[v + 1]]`.
        let mut row = vec![0usize; n + 1];
        for e in &pdg.edges {
            row[e.from + 1] += 1;
        }
        for v in 0..n {
            row[v + 1] += row[v];
        }
        let mut fill = row.clone();
        let mut succ = vec![0usize; pdg.edges.len()];
        for e in &pdg.edges {
            succ[fill[e.from]] = e.to;
            fill[e.from] += 1;
        }

        // Iterative Tarjan.
        const UNSET: usize = usize::MAX;
        let mut index = vec![UNSET; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut comps: Vec<Vec<usize>> = Vec::new();

        // Explicit DFS frames: (node, next child position).
        for start in 0..n {
            if index[start] != UNSET {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(&mut (v, ref mut child)) = frames.last_mut() {
                if *child < row[v + 1] - row[v] {
                    let w = succ[row[v] + *child];
                    *child += 1;
                    if index[w] == UNSET {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (p, _)) = frames.last_mut() {
                        lowlink[p] = lowlink[p].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack invariant");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        comps.push(comp);
                    }
                }
            }
        }

        // Tarjan emits components in reverse topological order; flip so that
        // SccId(0) is a source of the DAG.
        comps.reverse();
        let mut scc_of = vec![SccId(0); n];
        for (ci, comp) in comps.iter().enumerate() {
            for &v in comp {
                scc_of[v] = SccId(ci as u32);
            }
        }
        // Cross-SCC edges, deduplicated by (from, to, kind), carried ORed,
        // in (from, to, kind) order.
        let mut cross: Vec<SccEdge> = pdg
            .edges
            .iter()
            .map(|e| SccEdge {
                from: scc_of[e.from],
                to: scc_of[e.to],
                kind: e.kind,
                loop_carried: e.loop_carried,
            })
            .filter(|e| e.from != e.to)
            .collect();
        cross.sort_unstable();
        let mut edges: Vec<SccEdge> = Vec::with_capacity(cross.len());
        for e in cross {
            match edges.last_mut() {
                Some(last) if (last.from, last.to, last.kind) == (e.from, e.to, e.kind) => {
                    last.loop_carried |= e.loop_carried;
                }
                _ => edges.push(e),
            }
        }

        Condensation { sccs: comps, scc_of, edges }
    }

    /// Number of SCCs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sccs.len()
    }

    /// True if the PDG was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sccs.is_empty()
    }

    /// PDG node members of `scc`.
    #[must_use]
    pub fn members(&self, scc: SccId) -> &[usize] {
        &self.sccs[scc.index()]
    }

    /// Internal PDG edges of `scc` (both endpoints inside).
    #[must_use]
    pub fn internal_edges<'p>(&self, pdg: &'p Pdg, scc: SccId) -> Vec<&'p PdgEdge> {
        pdg.edges
            .iter()
            .filter(|e| self.scc_of[e.from] == scc && self.scc_of[e.to] == scc)
            .collect()
    }

    /// SCC ids in topological order (which is just `0..len`).
    pub fn topo_order(&self) -> impl Iterator<Item = SccId> {
        (0..self.sccs.len() as u32).map(SccId)
    }

    /// Verify the edge set is acyclic w.r.t. the id order (debug aid).
    #[must_use]
    pub fn is_topologically_ordered(&self) -> bool {
        self.edges.iter().all(|e| e.from.0 < e.to.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias::{MemoryModel, PointsTo};
    use crate::pdg::build_pdg;
    use cgpa_ir::builder::FunctionBuilder;
    use cgpa_ir::cfg::Cfg;
    use cgpa_ir::dom::DomTree;
    use cgpa_ir::inst::{BinOp, IntPredicate};
    use cgpa_ir::loops::LoopInfo;
    use cgpa_ir::{Function, Op, Ty};

    /// Counted loop with an independent body:
    /// `for (i = 0; i < n; i++) a[i] = a[i] + 1.0;`
    fn doall() -> (Function, MemoryModel) {
        let mut mm = MemoryModel::new();
        let arr = mm.add_region("a", 8, false, true);
        mm.bind_param(0, arr);
        let mut b = FunctionBuilder::new("doall", &[("a", Ty::Ptr), ("n", Ty::I32)], None);
        let a = b.param(0);
        let n = b.param(1);
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
        let addr = b.gep(a, i, 8, 0);
        let x = b.load(addr, Ty::F64);
        let onef = b.const_f64(1.0);
        let y = b.binary(BinOp::FAdd, x, onef);
        b.store(addr, y);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        (b.finish().unwrap(), mm)
    }

    fn condense(f: &Function, mm: &MemoryModel) -> (crate::pdg::Pdg, Condensation) {
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let li = LoopInfo::compute(f, &cfg, &dom);
        let target = li.single_outermost().unwrap();
        let pt = PointsTo::compute(f, mm);
        let pdg = build_pdg(f, &cfg, target, &pt, mm);
        let cond = Condensation::compute(&pdg);
        (pdg, cond)
    }

    #[test]
    fn induction_forms_one_scc_and_body_another() {
        let (f, mm) = doall();
        let (pdg, cond) = condense(&f, &mm);
        // The induction SCC: {phi, icmp, add, condbr} glued by the carried
        // reg edge and the blanket control edge.
        let phi_node =
            pdg.nodes.iter().position(|&i| matches!(f.inst(i).op, Op::Phi { .. })).unwrap();
        let phi_scc = cond.scc_of[phi_node];
        assert_eq!(cond.members(phi_scc).len(), 4);
        // load/store/fadd/gep are in SCCs with no internal carried edges.
        let store_node =
            pdg.nodes.iter().position(|&i| matches!(f.inst(i).op, Op::Store { .. })).unwrap();
        let store_scc = cond.scc_of[store_node];
        assert_ne!(store_scc, phi_scc);
        assert!(cond.internal_edges(&pdg, store_scc).iter().all(|e| !e.loop_carried));
    }

    #[test]
    fn condensation_is_topological() {
        let (f, mm) = doall();
        let (_pdg, cond) = condense(&f, &mm);
        assert!(cond.is_topologically_ordered());
        // Every node is in exactly one SCC.
        let total: usize = cond.sccs.iter().map(Vec::len).sum();
        assert_eq!(total, _pdg.len());
    }

    #[test]
    fn memory_self_cycle_creates_one_scc() {
        let (f, mm) = doall();
        let (pdg, cond) = condense(&f, &mm);
        // a[i] load and store alias intra-iteration (bidirectional edges):
        // they must share an SCC together with the fadd between them.
        let load_node =
            pdg.nodes.iter().position(|&i| matches!(f.inst(i).op, Op::Load { .. })).unwrap();
        let store_node =
            pdg.nodes.iter().position(|&i| matches!(f.inst(i).op, Op::Store { .. })).unwrap();
        assert_eq!(cond.scc_of[load_node], cond.scc_of[store_node]);
    }
}
