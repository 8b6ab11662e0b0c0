//! SCC classification (paper §3.3): parallel / replicable / sequential,
//! plus the lightweight test that gates duplication of replicable sections
//! into the parallel stage ("only duplicates lightweight replicable sections
//! which do not contain load and multiply instructions").

use crate::pdg::Pdg;
use crate::scc::{Condensation, SccId};
use cgpa_ir::{Function, Op};

/// The paper's three-way classification of a PDG SCC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SccClass {
    /// No internal loop-carried dependence: iterations of this SCC can run
    /// concurrently (the em3d node update, K-means' `findNearestPoint`, …).
    Parallel,
    /// Internally loop-carried but free of side effects: safe to execute
    /// redundantly in several workers (induction variables, list traversal,
    /// shift-register chains, reductions over registers…).
    Replicable {
        /// True when the SCC contains no load and no multiply — the paper's
        /// rule for duplicating it into the parallel workers instead of
        /// dedicating a sequential stage to it.
        lightweight: bool,
    },
    /// Loop-carried *and* side-effecting: must run in a single sequential
    /// worker (hash-bucket insertion, `new_centers` accumulation, …).
    Sequential,
}

impl SccClass {
    /// Single-letter tag used in partition summaries ("P", "R", "S").
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            SccClass::Parallel => 'P',
            SccClass::Replicable { .. } => 'R',
            SccClass::Sequential => 'S',
        }
    }
}

/// Classification of every SCC of a condensation.
#[derive(Debug, Clone)]
pub struct SccClassification {
    classes: Vec<SccClass>,
}

impl SccClassification {
    /// Class of `scc`.
    #[must_use]
    pub fn class(&self, scc: SccId) -> SccClass {
        self.classes[scc.index()]
    }

    /// All classes, indexed by SCC id.
    #[must_use]
    pub fn classes(&self) -> &[SccClass] {
        &self.classes
    }
}

/// Classify every SCC of `cond`.
///
/// An SCC is **parallel** when none of its internal PDG edges is
/// loop-carried; otherwise it is **replicable** when none of its
/// instructions has a side effect (stores, queue ops), else **sequential**.
/// Replicable SCCs are further marked lightweight when they contain neither
/// loads nor multiplies.
#[must_use]
pub fn classify_sccs(func: &Function, pdg: &Pdg, cond: &Condensation) -> SccClassification {
    let mut classes = Vec::with_capacity(cond.len());
    for scc in cond.topo_order() {
        let internal_carried = cond.internal_edges(pdg, scc).iter().any(|e| e.loop_carried);
        let class = if !internal_carried {
            SccClass::Parallel
        } else {
            let side_effect =
                cond.members(scc).iter().any(|&n| func.inst(pdg.nodes[n]).op.has_side_effect());
            if side_effect {
                SccClass::Sequential
            } else {
                let lightweight =
                    !cond.members(scc).iter().any(|&n| func.inst(pdg.nodes[n]).op.is_heavyweight());
                SccClass::Replicable { lightweight }
            }
        };
        classes.push(class);
    }
    SccClassification { classes }
}

/// Convenience: true when `scc` consists only of side-effect-free
/// instructions (used by the partitioner to form replicable chains across
/// SCC boundaries).
#[must_use]
pub fn is_side_effect_free(func: &Function, pdg: &Pdg, cond: &Condensation, scc: SccId) -> bool {
    cond.members(scc).iter().all(|&n| !func.inst(pdg.nodes[n]).op.has_side_effect())
}

/// Convenience: true when `scc` contains a load or a multiply.
#[must_use]
pub fn is_heavyweight(func: &Function, pdg: &Pdg, cond: &Condensation, scc: SccId) -> bool {
    cond.members(scc).iter().any(|&n| func.inst(pdg.nodes[n]).op.is_heavyweight())
}

/// Statement-level section report for a classified loop, used by examples
/// and the Table 2 reproduction: which instructions belong to P/R/S
/// sections.
#[must_use]
pub fn section_summary(
    func: &Function,
    pdg: &Pdg,
    cond: &Condensation,
    cls: &SccClassification,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for scc in cond.topo_order() {
        let class = cls.class(scc);
        let tag = match class {
            SccClass::Replicable { lightweight: true } => "R(light)".to_string(),
            SccClass::Replicable { lightweight: false } => "R(heavy)".to_string(),
            other => other.letter().to_string(),
        };
        let ops: Vec<String> = cond
            .members(scc)
            .iter()
            .map(|&n| {
                let inst = func.inst(pdg.nodes[n]);
                match &inst.op {
                    Op::Binary { op, .. } => op.mnemonic().to_string(),
                    Op::Phi { .. } => format!("phi({})", inst.name.as_deref().unwrap_or("")),
                    Op::Load { .. } => "load".to_string(),
                    Op::Store { .. } => "store".to_string(),
                    Op::ICmp { .. } => "icmp".to_string(),
                    Op::FCmp { .. } => "fcmp".to_string(),
                    Op::CondBr { .. } => "condbr".to_string(),
                    Op::Br { .. } => "br".to_string(),
                    Op::Gep { .. } => "gep".to_string(),
                    Op::Select { .. } => "select".to_string(),
                    other2 => format!("{other2:?}").split(' ').next().unwrap_or("op").to_string(),
                }
            })
            .collect();
        let _ = writeln!(out, "{scc} [{tag}]: {}", ops.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias::{MemoryModel, PointsTo};
    use crate::pdg::build_pdg;
    use crate::scc::Condensation;
    use cgpa_ir::builder::FunctionBuilder;
    use cgpa_ir::cfg::Cfg;
    use cgpa_ir::dom::DomTree;
    use cgpa_ir::inst::{BinOp, IntPredicate};
    use cgpa_ir::loops::LoopInfo;
    use cgpa_ir::{Function, Ty};

    /// `for (i=0; i<n; i++) { s += a[i]; b[i] = a[i] * 2.0; }`
    /// a read-only, b distinct-per-iteration.
    fn mixed() -> (Function, MemoryModel) {
        let mut mm = MemoryModel::new();
        let ra = mm.add_region("a", 8, true, false);
        let rb = mm.add_region("b", 8, false, true);
        mm.bind_param(0, ra);
        mm.bind_param(1, rb);
        let mut b = FunctionBuilder::new(
            "mixed",
            &[("a", Ty::Ptr), ("b", Ty::Ptr), ("n", Ty::I32)],
            Some(Ty::F64),
        );
        let a = b.param(0);
        let bb = b.param(1);
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
        let s2 = b.binary(BinOp::FAdd, s, x);
        let two = b.const_f64(2.0);
        let y = b.binary(BinOp::FMul, x, two);
        let pb = b.gep(bb, i, 8, 0);
        b.store(pb, y);
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
    fn classifies_induction_reduction_and_body() {
        let (f, mm) = mixed();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        let target = li.single_outermost().unwrap();
        let pt = PointsTo::compute(&f, &mm);
        let pdg = build_pdg(&f, &cfg, target, &pt, &mm);
        let cond = Condensation::compute(&pdg);
        let cls = classify_sccs(&f, &pdg, &cond);

        // Induction SCC {i phi, icmp, condbr, add}: replicable lightweight.
        let phi_i = pdg
            .nodes
            .iter()
            .position(|&id| {
                matches!(f.inst(id).op, cgpa_ir::Op::Phi { .. })
                    && f.inst(id).name.as_deref() == Some("i")
            })
            .unwrap();
        assert_eq!(cls.class(cond.scc_of[phi_i]), SccClass::Replicable { lightweight: true });

        // Sum reduction {s phi, fadd}: replicable but… fadd is not a load or
        // mul, so lightweight (its inputs come from a load, which limits
        // duplication at partition time, not classification time).
        let phi_s = pdg
            .nodes
            .iter()
            .position(|&id| {
                matches!(f.inst(id).op, cgpa_ir::Op::Phi { .. })
                    && f.inst(id).name.as_deref() == Some("s")
            })
            .unwrap();
        assert_eq!(cls.class(cond.scc_of[phi_s]), SccClass::Replicable { lightweight: true });

        // The store SCC: no internal loop-carried edges (b distinct per
        // iteration) → parallel.
        let store = pdg
            .nodes
            .iter()
            .position(|&id| matches!(f.inst(id).op, cgpa_ir::Op::Store { .. }))
            .unwrap();
        assert_eq!(cls.class(cond.scc_of[store]), SccClass::Parallel);

        // Helper predicates.
        assert!(is_side_effect_free(&f, &pdg, &cond, cond.scc_of[phi_s]));
        assert!(!is_heavyweight(&f, &pdg, &cond, cond.scc_of[phi_s]));
        let summary = section_summary(&f, &pdg, &cond, &cls);
        assert!(summary.contains("R(light)"));
        assert!(summary.contains("P"));
    }

    #[test]
    fn conservative_memory_makes_stores_sequential() {
        let (f, _) = mixed();
        let mm = MemoryModel::new();
        let cfg = Cfg::new(&f);
        let dom = DomTree::dominators(&f, &cfg);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        let target = li.single_outermost().unwrap();
        let pt = PointsTo::compute(&f, &mm);
        let pdg = build_pdg(&f, &cfg, target, &pt, &mm);
        let cond = Condensation::compute(&pdg);
        let cls = classify_sccs(&f, &pdg, &cond);
        let store = pdg
            .nodes
            .iter()
            .position(|&id| matches!(f.inst(id).op, cgpa_ir::Op::Store { .. }))
            .unwrap();
        assert_eq!(cls.class(cond.scc_of[store]), SccClass::Sequential);
    }
}
