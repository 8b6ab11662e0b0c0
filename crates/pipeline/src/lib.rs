//! # cgpa-pipeline — CGPA's pipeline partition and transform
//!
//! This crate implements the paper's core contribution (§3.3):
//!
//! 1. **Pipeline partition** ([`partition`]) — an adaptation of
//!    Parallel-Stage Decoupled Software Pipelining (PS-DSWP) that assigns
//!    the PDG's SCCs to pipeline stages: at most one *pre* sequential stage,
//!    one *parallel* stage with N workers, and one *post* sequential stage.
//!    Its distinguishing feature versus plain PS-DSWP is the treatment of
//!    *replicable* sections: lightweight ones (no loads, no multiplies) are
//!    duplicated into every worker; heavyweight ones either anchor a
//!    sequential stage that broadcasts their results (the default, "P1") or
//!    are forcibly replicated into the parallel workers ("P2", the paper's
//!    replicated data-level parallelism tradeoff).
//! 2. **Pipeline transform** ([`transform`]) — generates one task function
//!    per stage (control-equivalent to the original loop), wires
//!    cross-stage register and control dependences through FIFO queue sets
//!    using the Table 1 primitives, builds the two-loop-body dispatch for
//!    parallel workers (Figure 1(e)), and rewrites the parent function to
//!    `parallel_fork`/`parallel_join` plus liveout retrieval.

mod idset;
pub mod partition;
pub mod plan;
pub mod transform;

pub use partition::{partition_loop, PartitionConfig, PartitionError, ReplicablePlacement};
pub use plan::{PipelinePlan, StageKind, StagePlan};
pub use transform::{
    transform_loop, PipelineModule, QueueKind, QueueSpec, TaskInfo, TransformError,
};
