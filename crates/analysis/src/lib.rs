//! # cgpa-analysis — dependence analysis for CGPA
//!
//! This crate turns a [`cgpa_ir::Function`] and a target loop into the
//! Program Dependence Graph (PDG) that the CGPA partitioner consumes
//! (paper §3.3, "Building the PDG"), then condenses its strongly connected
//! components into a DAG and classifies each SCC as **parallel**,
//! **replicable**, or **sequential**.
//!
//! Pieces:
//! - [`alias`] — region-based points-to and alias queries. This substitutes
//!   for the LLVM alias/shape analyses the paper relies on (e.g. the
//!   Ghiya–Hendren disjointness results for em3d's two linked lists): each
//!   kernel declares memory *regions* with facts (`read_only`,
//!   `distinct_per_iteration`), and the analysis propagates region sets
//!   through the SSA graph with a conservative `Unknown` fallback.
//! - [`control`] — Ferrante–Ottenstein–Warren control dependences from the
//!   post-dominator tree.
//! - [`pdg`] — PDG construction: register, control, and memory dependence
//!   edges, each flagged loop-carried or intra-iteration with respect to the
//!   *target* loop.
//! - [`scc`] — Tarjan condensation of the PDG into a DAG of SCCs.
//! - [`classify`] — the paper's three-way classification plus the
//!   lightweight/heavyweight replicable distinction (no loads, no
//!   multiplies).

pub mod alias;
pub mod classify;
pub mod control;
pub mod pdg;
pub mod scc;

pub use alias::{AliasResult, MemoryModel, PointsTo, PtrFact, RegionId, RegionInfo};
pub use classify::{classify_sccs, SccClass, SccClassification};
pub use pdg::{build_pdg, DepKind, Pdg, PdgEdge};
pub use scc::{Condensation, SccId};
