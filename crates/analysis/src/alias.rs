//! Region-based points-to and alias analysis.
//!
//! The paper prunes PDG memory edges with "a set of alias analyses"
//! (LLVM's, plus shape-analysis facts such as the bipartite disjointness of
//! em3d's two linked lists, citing Ghiya–Hendren). Those analyses operate on
//! whole C programs; here the equivalent facts are *declared* by each kernel
//! as a [`MemoryModel`] — a set of memory regions with per-region facts —
//! and this module propagates them through the SSA graph as a least
//! fixpoint. Everything not covered by a declaration degrades to
//! [`PtrFact::unknown`], which aliases everything: the analysis is
//! conservative, never unsound, exactly like the compiler stack it replaces
//! (see DESIGN.md §2).

use cgpa_ir::{Function, Op, Ty, ValueDef, ValueId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A handle to a declared memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A declared memory region: a pool of equally-sized elements (an array, or
/// all nodes of one linked list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// Debug name ("nodes", "coeffs", …).
    pub name: String,
    /// Element size in bytes; pointer arithmetic that is a multiple of this
    /// stays at the same intra-element offset.
    pub elem_size: u32,
    /// The target loop never stores to this region (e.g. K-means' cluster
    /// centers during the membership loop).
    pub read_only: bool,
    /// Every iteration of the target loop accesses a *different* element of
    /// this region (e.g. the node visited by an acyclic list traversal, or
    /// `a[i]` under an induction variable `i`). Dependences between accesses
    /// to such a region are intra-iteration only.
    ///
    /// This is the fact the paper obtains from shape analysis; kernels
    /// assert it explicitly and the workload generators uphold it.
    pub distinct_per_iteration: bool,
}

/// The set of regions a pointer may target (lattice: `Known ⊑ Any`;
/// bottom is `Known(∅)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionsFact {
    /// May point into exactly these regions.
    Known(BTreeSet<RegionId>),
    /// May point anywhere.
    Any,
}

/// The intra-element byte offset of a pointer (lattice:
/// `Bottom ⊑ Known(k) ⊑ Any`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetFact {
    /// No assignment reaches this value yet (fixpoint bottom).
    Bottom,
    /// Statically known offset from the element start.
    Known(i64),
    /// Offset unknown.
    Any,
}

impl OffsetFact {
    fn join(self, other: OffsetFact) -> OffsetFact {
        match (self, other) {
            (OffsetFact::Bottom, x) | (x, OffsetFact::Bottom) => x,
            (OffsetFact::Known(a), OffsetFact::Known(b)) if a == b => OffsetFact::Known(a),
            _ => OffsetFact::Any,
        }
    }

    /// The offset if statically known.
    #[must_use]
    pub fn known(self) -> Option<i64> {
        match self {
            OffsetFact::Known(k) => Some(k),
            _ => None,
        }
    }
}

/// What a pointer value may point to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtrFact {
    /// Regions the pointer may target.
    pub regions: RegionsFact,
    /// Byte offset from the start of a region element.
    pub offset: OffsetFact,
}

impl PtrFact {
    /// The unknown ("top") fact: may point anywhere.
    #[must_use]
    pub fn unknown() -> Self {
        PtrFact { regions: RegionsFact::Any, offset: OffsetFact::Any }
    }

    /// The bottom fact used to start the fixpoint.
    #[must_use]
    pub fn bottom() -> Self {
        PtrFact { regions: RegionsFact::Known(BTreeSet::new()), offset: OffsetFact::Bottom }
    }

    /// A fact naming exactly one region at element offset 0.
    #[must_use]
    pub fn region(r: RegionId) -> Self {
        PtrFact { regions: RegionsFact::Known(BTreeSet::from([r])), offset: OffsetFact::Known(0) }
    }

    /// True if nothing is known about the target regions.
    #[must_use]
    pub fn is_unknown(&self) -> bool {
        matches!(self.regions, RegionsFact::Any)
    }

    /// Least upper bound of two facts.
    #[must_use]
    pub fn join(&self, other: &PtrFact) -> PtrFact {
        let regions = match (&self.regions, &other.regions) {
            (RegionsFact::Known(a), RegionsFact::Known(b)) => {
                RegionsFact::Known(a.union(b).copied().collect())
            }
            _ => RegionsFact::Any,
        };
        PtrFact { regions, offset: self.offset.join(other.offset) }
    }

    /// The region set if known.
    #[must_use]
    pub fn known_regions(&self) -> Option<&BTreeSet<RegionId>> {
        match &self.regions {
            RegionsFact::Known(rs) => Some(rs),
            RegionsFact::Any => None,
        }
    }
}

/// Result of an alias query between two memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasResult {
    /// The accesses can never touch the same byte.
    NoAlias,
    /// The accesses may conflict. `loop_carried` is false when every region
    /// the accesses may share is `distinct_per_iteration`, in which case the
    /// conflict can only happen within one iteration of the target loop.
    MayAlias {
        /// May the conflict span target-loop iterations?
        loop_carried: bool,
    },
}

/// Kernel-declared memory regions and pointer bindings.
///
/// # Examples
///
/// em3d's bipartite lists:
///
/// ```
/// use cgpa_analysis::alias::MemoryModel;
///
/// let mut mm = MemoryModel::new();
/// let e_nodes = mm.add_region("e_nodes", 24, false, true);
/// let h_nodes = mm.add_region("h_nodes", 24, true, false);
/// let from_ptrs = mm.add_region("from_ptrs", 4, true, false);
/// // param 0 of the kernel is the head of the e-node list:
/// mm.bind_param(0, e_nodes);
/// // loading the `next` field (offset 20) of an e-node yields an e-node:
/// mm.field_pointee(e_nodes, 20, e_nodes);
/// // loading any slot of the from_nodes array yields an h-node:
/// mm.array_pointee(from_ptrs, h_nodes);
/// assert_eq!(mm.regions().len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryModel {
    regions: Vec<RegionInfo>,
    /// Pointer parameters → region they point into (offset 0).
    param_regions: BTreeMap<u32, RegionId>,
    /// Loading a pointer from `(region, elem offset)` yields a pointer into
    /// the mapped region. Offset `ANY_OFFSET` matches loads at any offset
    /// (for arrays of pointers).
    field_pointees: BTreeMap<(RegionId, i64), RegionId>,
}

/// Wildcard offset for [`MemoryModel::array_pointee`] entries describing
/// arrays of pointers (every slot points into the same region).
const ANY_OFFSET: i64 = i64::MIN;

impl MemoryModel {
    /// An empty model: every pointer is unknown, every pair of accesses
    /// conservatively aliases.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a region.
    pub fn add_region(
        &mut self,
        name: impl Into<String>,
        elem_size: u32,
        read_only: bool,
        distinct_per_iteration: bool,
    ) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionInfo {
            name: name.into(),
            elem_size,
            read_only,
            distinct_per_iteration,
        });
        id
    }

    /// Declare that pointer parameter `index` points into `region`.
    pub fn bind_param(&mut self, index: u32, region: RegionId) {
        self.param_regions.insert(index, region);
    }

    /// Declare that a pointer loaded from `region` at element `offset`
    /// points into `pointee`.
    pub fn field_pointee(&mut self, region: RegionId, offset: i64, pointee: RegionId) {
        self.field_pointees.insert((region, offset), pointee);
    }

    /// Declare that a pointer loaded from `region` at *any* offset points
    /// into `pointee` (arrays of pointers).
    pub fn array_pointee(&mut self, region: RegionId, pointee: RegionId) {
        self.field_pointees.insert((region, ANY_OFFSET), pointee);
    }

    /// All declared regions.
    #[must_use]
    pub fn regions(&self) -> &[RegionInfo] {
        &self.regions
    }

    /// Region metadata.
    ///
    /// # Panics
    /// Panics if `r` was not declared on this model.
    #[must_use]
    pub fn region(&self, r: RegionId) -> &RegionInfo {
        &self.regions[r.0 as usize]
    }

    fn pointee_of(&self, r: RegionId, offset: OffsetFact) -> Option<RegionId> {
        if let OffsetFact::Known(o) = offset {
            if let Some(&p) = self.field_pointees.get(&(r, o)) {
                return Some(p);
            }
        }
        self.field_pointees.get(&(r, ANY_OFFSET)).copied()
    }
}

/// Per-value points-to facts for one function.
#[derive(Debug, Clone)]
pub struct PointsTo {
    facts: Vec<PtrFact>,
}

impl PointsTo {
    /// Compute points-to facts for every pointer-typed value of `func`
    /// under `model`, by forward propagation to a least fixpoint.
    #[must_use]
    pub fn compute(func: &Function, model: &MemoryModel) -> Self {
        let n = func.values.len();
        let mut facts = vec![PtrFact::bottom(); n];

        // Seed: parameters and constants.
        for (i, v) in func.values.iter().enumerate() {
            match v {
                ValueDef::Param { index, ty } => {
                    if *ty == Ty::Ptr {
                        facts[i] = match model.param_regions.get(index) {
                            Some(&r) => PtrFact::region(r),
                            None => PtrFact::unknown(),
                        };
                    }
                }
                ValueDef::Const(c) => {
                    if c.ty() == Ty::Ptr {
                        // Null/constant pointers target no declared region.
                        facts[i] = PtrFact {
                            regions: RegionsFact::Known(BTreeSet::new()),
                            offset: OffsetFact::Known(0),
                        };
                    }
                }
                ValueDef::Inst { .. } => {}
            }
        }

        // Increasing fixpoint over instruction results; transfers are
        // monotone on the finite lattice, so this terminates.
        let order: Vec<_> = func.inst_ids_in_order().collect();
        loop {
            let mut changed = false;
            for &iid in &order {
                let inst = func.inst(iid);
                let Some(res) = inst.result else { continue };
                if func.value_ty(res) != Ty::Ptr {
                    continue;
                }
                let new = match &inst.op {
                    Op::Gep { base, index, scale, offset } => {
                        let base_fact = &facts[base.index()];
                        let regions = base_fact.regions.clone();
                        let off = match (base_fact.offset, index, &regions) {
                            (OffsetFact::Bottom, _, _) => OffsetFact::Bottom,
                            (OffsetFact::Known(bo), None, _) => {
                                OffsetFact::Known(bo + i64::from(*offset))
                            }
                            (OffsetFact::Known(bo), Some(_), RegionsFact::Known(rs)) => {
                                // Indexing in whole elements preserves the
                                // intra-element offset when the scale is a
                                // multiple of every region's element size.
                                let preserved = rs.iter().all(|r| {
                                    let es = model.region(*r).elem_size;
                                    es > 0 && scale % es == 0
                                });
                                if preserved {
                                    OffsetFact::Known(bo + i64::from(*offset))
                                } else {
                                    OffsetFact::Any
                                }
                            }
                            _ => OffsetFact::Any,
                        };
                        PtrFact { regions, offset: off }
                    }
                    Op::Load { addr, .. } => {
                        let addr_fact = facts[addr.index()].clone();
                        match addr_fact.regions {
                            RegionsFact::Known(rs) => {
                                let mut out = BTreeSet::new();
                                let mut all_known = true;
                                for &r in &rs {
                                    match model.pointee_of(r, addr_fact.offset) {
                                        Some(p) => {
                                            out.insert(p);
                                        }
                                        None => all_known = false,
                                    }
                                }
                                if all_known {
                                    PtrFact {
                                        regions: RegionsFact::Known(out),
                                        offset: OffsetFact::Known(0),
                                    }
                                } else {
                                    PtrFact::unknown()
                                }
                            }
                            RegionsFact::Any => PtrFact::unknown(),
                        }
                    }
                    Op::Phi { incomings, .. } => {
                        let mut acc = PtrFact::bottom();
                        for (_, v) in incomings {
                            acc = acc.join(&facts[v.index()]);
                        }
                        acc
                    }
                    Op::Select { on_true, on_false, .. } => {
                        facts[on_true.index()].join(&facts[on_false.index()])
                    }
                    Op::Cast { value, .. } => facts[value.index()].clone(),
                    // Values materialized from queues or liveouts are only
                    // seen in transformed tasks, which are never re-analyzed;
                    // be conservative anyway.
                    _ => PtrFact::unknown(),
                };
                // Monotone update: join with the previous fact.
                let joined = facts[res.index()].join(&new);
                if facts[res.index()] != joined {
                    facts[res.index()] = joined;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        PointsTo { facts }
    }

    /// The fact for `value`.
    #[must_use]
    pub fn fact(&self, value: ValueId) -> &PtrFact {
        &self.facts[value.index()]
    }

    /// Alias query between two memory accesses: addresses `a`/`b` with
    /// access byte sizes `size_a`/`size_b`.
    #[must_use]
    pub fn alias(
        &self,
        model: &MemoryModel,
        a: ValueId,
        size_a: u32,
        b: ValueId,
        size_b: u32,
    ) -> AliasResult {
        let fa = self.fact(a);
        let fb = self.fact(b);
        let (Some(ra), Some(rb)) = (fa.known_regions(), fb.known_regions()) else {
            return AliasResult::MayAlias { loop_carried: true };
        };
        let common: Vec<RegionId> = ra.intersection(rb).copied().collect();
        if common.is_empty() {
            return AliasResult::NoAlias;
        }
        // Same region, both offsets known: field disambiguation.
        if let (Some(oa), Some(ob)) = (fa.offset.known(), fb.offset.known()) {
            let a_end = oa + i64::from(size_a);
            let b_end = ob + i64::from(size_b);
            if a_end <= ob || b_end <= oa {
                return AliasResult::NoAlias;
            }
        }
        let loop_carried = !common.iter().all(|r| model.region(*r).distinct_per_iteration);
        AliasResult::MayAlias { loop_carried }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, Function};

    /// A toy em3d-like traversal:
    /// `for (; p; p = p->next) { q = p->other; x = q->val; p->val = x; }`
    /// Node layout: val f64 @0, other ptr @8, next ptr @12; elem 16.
    fn traversal() -> (Function, MemoryModel, Vec<ValueId>) {
        let mut mm = MemoryModel::new();
        let nodes = mm.add_region("nodes", 16, false, true);
        let others = mm.add_region("others", 16, true, false);
        mm.bind_param(0, nodes);
        mm.field_pointee(nodes, 12, nodes);
        mm.field_pointee(nodes, 8, others);

        let mut b = FunctionBuilder::new("trav", &[("head", Ty::Ptr)], None);
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
        let other_addr = b.field(p, 8);
        let q = b.load(other_addr, Ty::Ptr);
        let val_addr = b.field(q, 0);
        let _x = b.load(val_addr, Ty::F64);
        let pval_addr = b.field(p, 0);
        let x2 = b.load(pval_addr, Ty::F64);
        b.store(pval_addr, x2);
        let next_addr = b.field(p, 12);
        let next = b.load(next_addr, Ty::Ptr);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(p, b.entry_block(), head);
        b.add_phi_incoming(p, body, next);
        let f = b.finish().unwrap();
        (f, mm, vec![p, val_addr, pval_addr, next_addr, next])
    }

    #[test]
    fn phi_closes_the_traversal_cycle() {
        let (f, mm, vs) = traversal();
        let pt = PointsTo::compute(&f, &mm);
        let p_fact = pt.fact(vs[0]);
        assert!(!p_fact.is_unknown());
        // p points into "nodes" (one region) only, at offset 0.
        assert_eq!(p_fact.known_regions().unwrap().len(), 1);
        assert_eq!(p_fact.offset.known(), Some(0));
        // Loaded next pointer also points into nodes.
        let next_fact = pt.fact(vs[4]);
        assert_eq!(next_fact.regions, p_fact.regions);
    }

    #[test]
    fn cross_list_loads_do_not_alias_stores() {
        let (f, mm, vs) = traversal();
        let pt = PointsTo::compute(&f, &mm);
        // q->val (others) vs p->val (nodes): disjoint regions.
        assert_eq!(pt.alias(&mm, vs[1], 8, vs[2], 8), AliasResult::NoAlias);
    }

    #[test]
    fn field_offsets_disambiguate_within_a_region() {
        let (f, mm, vs) = traversal();
        let pt = PointsTo::compute(&f, &mm);
        // p->next (offset 12, 4 bytes) vs p->val (offset 0, 8 bytes).
        assert_eq!(pt.alias(&mm, vs[3], 4, vs[2], 8), AliasResult::NoAlias);
    }

    #[test]
    fn same_field_aliases_intra_iteration_only() {
        let (f, mm, vs) = traversal();
        let pt = PointsTo::compute(&f, &mm);
        // p->val store vs p->val load: same region + offset, region is
        // distinct-per-iteration, so not loop carried.
        assert_eq!(
            pt.alias(&mm, vs[2], 8, vs[2], 8),
            AliasResult::MayAlias { loop_carried: false }
        );
    }

    #[test]
    fn unknown_pointers_alias_conservatively() {
        let mut b = FunctionBuilder::new("u", &[("p", Ty::Ptr)], None);
        let p = b.param(0);
        let one = b.const_i32(1);
        b.store(p, one);
        b.ret(None);
        let f = b.finish().unwrap();
        let mm = MemoryModel::new();
        let pt = PointsTo::compute(&f, &mm);
        assert!(pt.fact(p).is_unknown());
        assert_eq!(pt.alias(&mm, p, 4, p, 4), AliasResult::MayAlias { loop_carried: true });
    }

    #[test]
    fn gep_index_with_element_scale_keeps_offset() {
        let mut mm = MemoryModel::new();
        let arr = mm.add_region("arr", 8, false, false);
        mm.bind_param(0, arr);
        let mut b = FunctionBuilder::new("g", &[("a", Ty::Ptr), ("i", Ty::I32)], None);
        let a = b.param(0);
        let i = b.param(1);
        let elem = b.gep(a, i, 8, 4); // &a[i] + 4
        let odd = b.gep(a, i, 3, 0); // non-multiple scale: offset unknown
        let one = b.const_i32(1);
        b.store(elem, one);
        b.store(odd, one);
        b.ret(None);
        let f = b.finish().unwrap();
        let pt = PointsTo::compute(&f, &mm);
        assert_eq!(pt.fact(elem).offset.known(), Some(4));
        assert_eq!(pt.fact(odd).offset, OffsetFact::Any);
        assert_eq!(pt.fact(odd).regions, pt.fact(elem).regions);
    }

    #[test]
    fn join_behaviour() {
        let r0 = RegionId(0);
        let r1 = RegionId(1);
        let a = PtrFact::region(r0);
        let b = PtrFact::region(r1);
        let j = a.join(&b);
        assert_eq!(j.known_regions().unwrap().len(), 2);
        assert_eq!(j.offset.known(), Some(0));
        let u = a.join(&PtrFact::unknown());
        assert!(u.is_unknown());
        let bo = a.join(&PtrFact::bottom());
        assert_eq!(bo, a);
    }

    #[test]
    fn offsets_that_differ_join_to_any() {
        let r0 = RegionId(0);
        let mut a = PtrFact::region(r0);
        a.offset = OffsetFact::Known(4);
        let b = PtrFact::region(r0);
        assert_eq!(a.join(&b).offset, OffsetFact::Any);
    }
}
