//! # cgpa-rtl — RTL generation for CGPA tasks
//!
//! The compiler backend of the reproduction (paper §3.4): every task
//! function is scheduled into a finite state machine, honouring the paper's
//! four scheduling constraints (eqs. 1–4); the FSMs drive both the
//! cycle-level simulator in `cgpa-sim` (the stand-in for the paper's Altera
//! DE4 measurements) and the Verilog emitter.
//!
//! Modules:
//! - [`timing`] — per-operation latency/chainability, modelled on a 200 MHz
//!   Stratix-IV-class target;
//! - [`fsm`] — the FSM data structure;
//! - [`schedule`] — the list scheduler plus [`schedule::verify_schedule`],
//!   which re-checks constraints (1)–(4) on any produced FSM;
//! - [`area`] — ALUT estimation with per-kind functional-unit sharing;
//! - [`power`] — activity-based power/energy model;
//! - [`verilog`] — Verilog emission: one module per worker, the primitive
//!   library (FIFOs, arbiter), a top-level accelerator, and a testbench.

pub mod area;
pub mod fsm;
pub mod power;
pub mod schedule;
pub mod timing;
pub mod verilog;

pub use area::{estimate_area, AreaModel, AreaReport, DE4_ALUT_BUDGET};
pub use fsm::{Fsm, State, StateId};
pub use power::{energy_delay_product, PowerModel, PowerReport};
pub use schedule::{schedule_function, try_schedule_function, verify_schedule, ScheduleError};
pub use timing::{op_timing, OpTiming};
