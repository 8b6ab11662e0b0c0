//! # cgpa-sim — functional and cycle-level simulation
//!
//! Substitute for the paper's evaluation platform (an Altera DE4 with a MIPS
//! soft core, §4.1). Three execution engines share one functional core:
//!
//! - [`interp`] — a functional reference interpreter for original kernel
//!   functions; every hardware run is checked against it.
//! - [`mips`] — the MIPS-soft-core timing model: the same interpreter with a
//!   per-instruction cost model, instruction fetch through an I-cache, and
//!   data accesses through the shared D-cache.
//! - [`hw`] — the cycle-level accelerator simulator: each worker executes
//!   its scheduled FSM (`cgpa-rtl`), lowered once into per-state micro-op
//!   tables when the system is built, stalls on FIFO back-pressure and cache
//!   misses, and communicates through the 32-bit × 16-deep FIFO channels the
//!   paper fixes.
//!
//! Supporting substrates: [`mem`] (byte-addressable simulated memory and
//! allocator), [`cache`] (direct-mapped, 512-line × 128-byte, banked
//! multi-port D-cache with a request crossbar), [`fifo`] (queue sets),
//! [`exec`] (bit-accurate operation semantics), [`stats`].

pub mod cache;
mod datapath;
pub mod diff;
pub mod exec;
pub mod fault;
pub mod fifo;
pub mod hw;
pub mod interp;
pub mod mem;
pub mod mips;
pub mod stats;
pub mod trace;
pub mod value;

pub use cache::{CacheConfig, CacheConfigError, CacheSystem};
pub use diff::{diff_memories, render_diffs, WordDiff};
pub use exec::ExecError;
pub use fault::{Corruption, FaultClass, FaultDetection, FaultKind, FaultPlan};
pub use fifo::QueueState;
pub use hw::{HwConfig, HwError, HwSystem, SimEngine};
pub use interp::{run_function, run_with_accelerator, ExecHooks, InterpError, NoHooks};
pub use mem::{OutOfRange, SimMemory};
pub use mips::{MipsConfig, MipsRun};
pub use stats::{QueueStats, QueueWait, SystemStats, WorkerStats};
pub use trace::{StallCause, Trace, TraceEvent};
pub use value::Value;
