//! # cgpa — the Coarse-Grained Pipelined Accelerators framework
//!
//! Top-level crate of the CGPA reproduction (Liu, Ghosh, Johnson, August —
//! DAC 2014): an HLS framework that extracts coarse-grained pipeline
//! parallelism from single loops with irregular memory accesses and complex
//! control flow, without annotations.
//!
//! The full flow (paper Figure 3) is driven by [`compiler::CgpaCompiler`]:
//!
//! 1. analyses over the kernel IR (alias facts, PDG, SCC condensation,
//!    classification) — `cgpa-analysis`;
//! 2. pipeline partition and transform — `cgpa-pipeline`;
//! 3. FSM scheduling and Verilog emission — `cgpa-rtl`;
//! 4. cycle-level execution and validation — `cgpa-sim`.
//!
//! [`flows`] packages the three evaluation configurations of §4: the MIPS
//! soft core, LegUp-style sequential HLS, and CGPA (P1/P2), each returning
//! cycles, ALUTs, power and energy for the experiment harness. Both
//! accelerators run through [`flows::run`], described by a
//! [`flows::RunSpec`].
//!
//! ## Quickstart
//!
//! ```
//! use cgpa::compiler::{CgpaCompiler, CgpaConfig};
//! use cgpa_kernels::em3d;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = em3d::build(&em3d::Params::fixed(32, 32, 4, 8), 1);
//! let compiler = CgpaCompiler::new(CgpaConfig::default());
//! let compiled = compiler.compile(&kernel.func, &kernel.model)?;
//! assert_eq!(compiled.shape, "S-P"); // paper Table 2
//! # Ok(())
//! # }
//! ```

pub mod compiler;
pub mod dse;
pub mod flows;
pub mod profile;
pub mod report;

pub use compiler::{
    CgpaCompiler, CgpaConfig, CompileError, Compiled, DegradationRung, DegradedCompile,
};
pub use dse::{
    dominates, par_map_capped, pareto_frontier, schedule_hash, CompileCache, CompileCacheStats,
    DseLattice, DseOutcome, DsePoint, DseReport, DEFAULT_AREA_BUDGET_ALUT,
};
pub use flows::{
    run, run_cgpa, run_cgpa_dse, run_cgpa_tuned, run_compiled, run_legup, run_mips, FlowError,
    HwTuning, RunResult, RunSpec, Target,
};
pub use profile::{Bottleneck, MemoryProfile, Profile, ProfileError, QueueProfile, StageProfile};
pub use report::{geomean, pipeline_summary, BenchmarkReport};
