//! Cycle-level simulation of CGPA accelerators (the stand-in for the
//! paper's FPGA measurements).
//!
//! Every worker executes its scheduled FSM (`cgpa-rtl`), lowered once when
//! the system is built into flat per-state micro-op tables (the decoded
//! datapath, `datapath.rs`): one state at a time, spending at least the
//! state's `min_cycles`, stalling on cache misses, bank conflicts, and FIFO
//! back-pressure. Workers of one pipeline all start in the same cycle
//! (`parallel_fork`, constraint 1) and the run ends when every worker has
//! raised its finish signal (`parallel_join`).
//!
//! The memory system is the shared banked D-cache of Figure 2: each worker
//! owns a request port; the request/response crossbar is modelled by bank
//! serialization inside [`CacheSystem`].

use crate::cache::{CacheConfig, CacheSystem};
use crate::datapath::{lower, step_worker, MicroOp, Program, Shared, StepOutcome, Worker};
use crate::fault::{FaultDetection, FaultPlan};
use crate::fifo::QueueState;
use crate::mem::SimMemory;
use crate::stats::SystemStats;
use crate::trace::{StallCause, Trace, TraceEvent};
use crate::value::Value;
use cgpa_ir::{Function, QueueInfo};
use cgpa_pipeline::{PipelineModule, StageKind};
use cgpa_rtl::schedule::schedule_function;
use cgpa_rtl::Fsm;
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Which scheduling engine [`HwSystem::run`] uses.
///
/// Both engines are cycle-exact: they produce bit-identical liveouts,
/// return values, cycle counts, and per-worker statistics (the
/// differential test matrix in `tests/differential_engines.rs` enforces
/// this). The event-driven engine is simply faster on runs with long
/// provably-idle windows (memory-latency-dominated phases, injected stall
/// windows, pipeline fill/drain bubbles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimEngine {
    /// Skip-ahead scheduler: when no worker can act, jump straight to the
    /// next wake-up cycle and bulk-credit the skipped stall/idle cycles.
    #[default]
    EventDriven,
    /// Cycle-by-cycle reference stepper.
    PerCycle,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct HwConfig {
    /// FIFO depth per channel, in 32-bit beats (paper: 16).
    pub fifo_depth_beats: usize,
    /// D-cache geometry; `banks` is the port count.
    pub cache: CacheConfig,
    /// Cycle budget before the run is declared hung.
    pub fuel_cycles: u64,
    /// Scheduling engine (identical results either way; see [`SimEngine`]).
    pub engine: SimEngine,
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig {
            fifo_depth_beats: 16,
            cache: CacheConfig::default(),
            fuel_cycles: 500_000_000,
            engine: SimEngine::default(),
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwError {
    /// Cycle budget exhausted.
    Timeout { cycle: u64 },
    /// No worker made progress for a long time (FIFO deadlock).
    Deadlock { cycle: u64, detail: String },
    /// A worker executed an operation the hardware model does not support
    /// (host-side primitives inside a task, or an op/value combination the
    /// execution semantics do not define).
    Unsupported(String),
    /// An injected hardware fault was caught by the FIFO protection layer
    /// or the hang detector. `detail` is a diagnostic dump of per-queue
    /// occupancy and per-worker FSM state at detection time.
    Fault {
        /// Detection cycle.
        cycle: u64,
        /// What tripped.
        kind: FaultDetection,
        /// Per-queue occupancy and per-worker FSM state dump.
        detail: String,
    },
    /// A worker's task function cannot be lowered onto the datapath: it
    /// fails the IR verifier, its FSM does not schedule it in dependence
    /// order, a value-producing op has no result register, or the worker's
    /// arguments do not match its parameters. Raised before any cycle runs.
    Malformed {
        /// Worker whose task function was rejected.
        worker: u32,
        /// The offending operation, or what is wrong with the function.
        inst: String,
    },
    /// A load or store fell outside simulated memory.
    OutOfRange {
        /// Worker that issued the access.
        worker: u32,
        /// Cycle the access was issued in.
        cycle: u64,
        /// First byte of the access.
        addr: u32,
        /// Access width in bytes.
        width: u32,
    },
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::Timeout { cycle } => write!(f, "simulation exceeded fuel at cycle {cycle}"),
            HwError::Deadlock { cycle, detail } => {
                write!(f, "pipeline deadlock at cycle {cycle}: {detail}")
            }
            HwError::Unsupported(s) => write!(f, "unsupported operation in hardware: {s}"),
            HwError::Fault { cycle, kind, detail } => {
                write!(f, "hardware fault detected at cycle {cycle}: {kind}\n{detail}")
            }
            HwError::Malformed { worker, inst } => {
                write!(f, "malformed instruction on worker {worker}: {inst}")
            }
            HwError::OutOfRange { worker, cycle, addr, width } => {
                write!(
                    f,
                    "worker {worker} made a {width}-byte access out of range at {addr:#x} \
                     in cycle {cycle}"
                )
            }
        }
    }
}

impl Error for HwError {}

impl HwError {
    /// The cycle the failure was detected on, for the errors that carry one.
    fn cycle(&self) -> Option<u64> {
        match self {
            HwError::Timeout { cycle }
            | HwError::Deadlock { cycle, .. }
            | HwError::Fault { cycle, .. }
            | HwError::OutOfRange { cycle, .. } => Some(*cycle),
            HwError::Unsupported(_) | HwError::Malformed { .. } => None,
        }
    }
}

impl From<crate::exec::ExecError> for HwError {
    fn from(e: crate::exec::ExecError) -> Self {
        HwError::Unsupported(e.0)
    }
}

/// The accelerator system: workers + FIFOs + shared cache.
pub struct HwSystem<'m> {
    funcs: Vec<&'m Function>,
    fsms: Cow<'m, [Fsm]>,
    /// Each task function lowered against its FSM (module function order).
    programs: Vec<Program>,
    /// Why lowering rejected the design; [`HwSystem::run`] reports it.
    malformed: Option<HwError>,
    workers: Vec<Worker>,
    queues: Vec<QueueState>,
    cache: CacheSystem,
    liveouts: Vec<Option<Value>>,
    cfg: HwConfig,
    trace: Option<Trace>,
    fault: Option<FaultPlan>,
    /// Design name for the trace's run label.
    design: String,
    /// Per-worker display label (task name, plus the worker index for
    /// parallel-stage instances).
    worker_labels: Vec<String>,
}

/// One worker to instantiate: its function index, arguments and label.
struct Instance {
    func: usize,
    args: Vec<Value>,
    label: String,
}

impl<'m> HwSystem<'m> {
    /// Build the system for a transformed pipeline: one worker per
    /// sequential stage, `workers` instances of the parallel stage, FIFO
    /// channels per the module's queue table. Schedules every task, then
    /// builds like [`HwSystem::for_scheduled`].
    ///
    /// `args` are the loop live-in values, in [`PipelineModule::live_ins`]
    /// order.
    #[must_use]
    pub fn for_pipeline(pm: &'m PipelineModule, args: &[Value], cfg: HwConfig) -> Self {
        let fsms: Vec<Fsm> = pm.module.funcs.iter().map(schedule_function).collect();
        Self::for_scheduled(pm, fsms, args, cfg)
    }

    /// [`HwSystem::for_pipeline`] over already-scheduled task FSMs, one per
    /// module function in module order (`Compiled::fsms`), borrowed or
    /// owned. Each task is lowered onto the decoded datapath here; a task
    /// that cannot be lowered makes [`HwSystem::run`] fail with
    /// [`HwError::Malformed`].
    #[must_use]
    pub fn for_scheduled(
        pm: &'m PipelineModule,
        fsms: impl Into<Cow<'m, [Fsm]>>,
        args: &[Value],
        cfg: HwConfig,
    ) -> Self {
        let mut instances = Vec::new();
        for task in &pm.tasks {
            match task.kind {
                StageKind::Sequential => instances.push(Instance {
                    func: task.func_index,
                    args: args.to_vec(),
                    label: task.name.clone(),
                }),
                StageKind::Parallel => {
                    for w in 0..pm.workers {
                        let mut a = args.to_vec();
                        a.push(Value::I32(w as i32));
                        let label = format!("{} w{w}", task.name);
                        instances.push(Instance { func: task.func_index, args: a, label });
                    }
                }
            }
        }
        let funcs = pm.module.funcs.iter().collect();
        let liveouts = pm.liveouts.len();
        Self::build(
            funcs,
            fsms.into(),
            &pm.module.queues,
            liveouts,
            instances,
            cfg,
            &pm.module.name,
        )
    }

    /// Build a single-worker system over one plain function (the LegUp-style
    /// sequential-HLS baseline). The worker gets one cache port.
    #[must_use]
    pub fn for_single(func: &'m Function, args: &[Value], cfg: HwConfig) -> Self {
        let fsms = vec![schedule_function(func)];
        let instance = Instance { func: 0, args: args.to_vec(), label: func.name.clone() };
        Self::build(vec![func], fsms.into(), &[], 0, vec![instance], cfg, &func.name)
    }

    /// Lower every function onto the datapath and instantiate the workers.
    /// The first worker (in index order) whose function or arguments are
    /// rejected becomes the [`HwError::Malformed`] the run reports.
    fn build(
        funcs: Vec<&'m Function>,
        fsms: Cow<'m, [Fsm]>,
        queues: &[QueueInfo],
        liveouts: usize,
        instances: Vec<Instance>,
        cfg: HwConfig,
        design: &str,
    ) -> Self {
        let channels: Vec<u32> = queues.iter().map(|q| q.channels).collect();
        let lowered: Vec<Result<Program, String>> = funcs
            .iter()
            .enumerate()
            .map(|(i, f)| match fsms.get(i) {
                Some(fsm) => lower(f, fsm, &channels, liveouts),
                None => Err(format!("no FSM for function `{}`", f.name)),
            })
            .collect();
        let mut malformed = None;
        let mut workers = Vec::with_capacity(instances.len());
        for (wi, inst) in instances.iter().enumerate() {
            let worker = match lowered.get(inst.func) {
                Some(Ok(prog)) => Worker::new(inst.func, prog, &inst.args),
                Some(Err(e)) => Err(e.clone()),
                None => Err(format!("no function {}", inst.func)),
            };
            let worker = worker.unwrap_or_else(|e| {
                let error = HwError::Malformed { worker: wi as u32, inst: e };
                malformed.get_or_insert(error);
                Worker::inert(inst.func)
            });
            workers.push(worker);
        }
        HwSystem {
            funcs,
            fsms,
            programs: lowered.into_iter().map(Result::unwrap_or_default).collect(),
            malformed,
            workers,
            queues: queues.iter().map(|q| QueueState::new(q, cfg.fifo_depth_beats)).collect(),
            cache: CacheSystem::new(cfg.cache),
            liveouts: vec![None; liveouts],
            cfg,
            trace: None,
            fault: None,
            design: design.to_string(),
            worker_labels: instances.into_iter().map(|i| i.label).collect(),
        }
    }

    /// Record the next [`HwSystem::run`]'s event log (worker FSM states,
    /// stall causes, back edges, finish flags, FIFO occupancies). Retrieve
    /// it with [`HwSystem::take_trace`] afterwards, whether the run
    /// succeeded or not.
    pub fn enable_trace(&mut self) {
        let queues = self.queues.iter().map(|q| q.name.clone()).collect();
        self.trace = Some(Trace::new(self.design.clone(), self.worker_labels.clone(), queues));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Arm a fault-injection plan for the next [`HwSystem::run`]. Timing
    /// faults (stalls, contention, latency bursts) slow the run down;
    /// data faults (beat drop/duplicate/flip) trip the FIFO protection
    /// layer and surface as [`HwError::Fault`].
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The armed fault plan; its per-fault fired flags update as the run
    /// executes.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Diagnostic dump: per-worker FSM state (including which queue a
    /// blocked worker waits on) and per-queue occupancy.
    #[must_use]
    pub fn dump_state(&self) -> String {
        let mut out = String::new();
        let blocked = |side: &str, queue: u32| {
            let q = &self.queues[queue as usize];
            format!(
                "blocked {side} queue '{}' (q{queue}, {} of {} beats occupied)",
                q.name,
                q.total_occupancy(),
                q.depth_beats * q.channels()
            )
        };
        for (i, w) in self.workers.iter().enumerate() {
            let pending = match self.programs.get(w.func) {
                Some(prog) if w.entered => prog.op_at(w.state, w.cursor),
                _ => None,
            };
            let desc = if w.finished {
                "done".to_string()
            } else if let Some(done) = w.mem_wait {
                format!("awaiting memory until cycle {done}")
            } else if let Some((op, inst)) = pending {
                match op {
                    MicroOp::Produce { queue, .. } | MicroOp::Broadcast { queue, .. } => {
                        blocked("pushing", queue)
                    }
                    MicroOp::Consume { queue, .. } => blocked("popping", queue),
                    _ => format!("executing {:?}", self.funcs[w.func].inst(inst).op),
                }
            } else {
                "between states".to_string()
            };
            let _ = writeln!(out, "  worker {i} in state S{}: {desc}", w.state);
        }
        for (qi, q) in self.queues.iter().enumerate() {
            let occ: Vec<String> = (0..q.channels()).map(|c| q.occupancy(c).to_string()).collect();
            let _ = writeln!(
                out,
                "  queue '{}' (q{qi}): occupancy [{}] beats, depth {} beats/channel",
                q.name,
                occ.join(", "),
                q.depth_beats
            );
        }
        out
    }

    /// Number of worker instances.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The FSMs (for area estimation).
    #[must_use]
    pub fn fsms(&self) -> &[Fsm] {
        &self.fsms
    }

    /// Liveout register contents after a run.
    #[must_use]
    pub fn liveouts(&self) -> &[Option<Value>] {
        &self.liveouts
    }

    /// Return value of worker 0 (single-worker mode).
    #[must_use]
    pub fn ret_value(&self) -> Option<Value> {
        self.workers[0].ret
    }

    /// Run to completion with the configured engine. Both engines record
    /// the same trace, so an armed trace does not change the engine.
    ///
    /// # Errors
    /// [`HwError::Malformed`] when a task could not be lowered (before any
    /// cycle runs), [`HwError::Timeout`] when fuel runs out,
    /// [`HwError::Deadlock`] when no worker progresses,
    /// [`HwError::Unsupported`] on host-only ops or undefined operand
    /// combinations, [`HwError::OutOfRange`] on an access outside memory,
    /// [`HwError::Fault`] when injected corruption is detected.
    pub fn run(&mut self, mem: &mut SimMemory) -> Result<SystemStats, HwError> {
        let result = self.run_impl(mem, self.cfg.engine == SimEngine::EventDriven);
        // Stamp the armed trace with where the run stopped.
        if let Some(trace) = &mut self.trace {
            let last_event = trace.events.last().map_or(0, |&e| crate::trace::cycle_of(e));
            trace.end_cycle = match &result {
                Ok(stats) => stats.cycles,
                Err(e) => e.cycle().unwrap_or(last_event) + 1,
            };
        }
        result
    }

    /// Progress watchdog window: scales with the fuel budget rather than a
    /// magic constant (fuel/2500 = 200k cycles at the 5×10⁸ default),
    /// floored so short-fuel runs still separate deadlock from timeout.
    fn watchdog_cycles(&self) -> u64 {
        (self.cfg.fuel_cycles / 2500).max(10_000)
    }

    /// The run loop. `skip_ahead = false` is the per-cycle reference
    /// stepper; `true` adds the event-driven layer: after a cycle in which
    /// every live worker is blocked (memory wait, FIFO handshake, injected
    /// stall) or deterministically burning state latency, jump straight to
    /// the earliest cycle anything new can happen and bulk-credit the
    /// skipped cycles to each worker under its current classification.
    /// Wake-up candidates are outstanding memory completions, the ends of
    /// multi-cycle states, timed fault-window boundaries, the watchdog
    /// deadline, and the fuel limit — so statistics, error cycles, and
    /// fault attribution stay exactly per-cycle-equivalent.
    fn run_impl(&mut self, mem: &mut SimMemory, skip_ahead: bool) -> Result<SystemStats, HwError> {
        if let Some(e) = &self.malformed {
            return Err(e.clone());
        }
        let fuel = self.cfg.fuel_cycles;
        let watchdog = self.watchdog_cycles();
        let n_workers = self.workers.len();
        let mut cycle: u64 = 0;
        let mut last_progress: u64 = 0;
        let mut skipped_cycles: u64 = 0;
        // Workers still running, in index order. Finished workers leave the
        // per-cycle loop entirely; their join-wait idle time is credited in
        // bulk from `finish_cycle` once the run completes.
        let mut live: Vec<usize> = (0..n_workers).collect();
        let mut finish_cycle: Vec<u64> = vec![0; n_workers];
        let mut classes: Vec<StepOutcome> = vec![StepOutcome::Active; n_workers];
        // Tracing scratch, allocated once and reused every traced cycle.
        let mut queue_occ_before: Vec<u32> = vec![0; self.queues.len()];
        let mut last_cause: Vec<Option<StallCause>> = vec![None; n_workers];

        while cycle < fuel {
            if live.is_empty() {
                break;
            }
            if self.trace.is_some() {
                for (qi, occ) in queue_occ_before.iter_mut().enumerate() {
                    *occ = self.queues[qi].total_occupancy() as u32;
                }
            }
            let mut progressed = false;
            let mut li = 0;
            while li < live.len() {
                let wi = live[li];
                if let Some(plan) = &mut self.fault {
                    if plan.stall_active(wi, n_workers, cycle) {
                        // Clock-gated this cycle: the FSM holds its state.
                        self.workers[wi].stats.idle += 1;
                        classes[wi] = StepOutcome::Frozen;
                        if let Some(trace) = &mut self.trace {
                            if last_cause[wi] != Some(StallCause::Frozen) {
                                trace.record(TraceEvent::Stall {
                                    cycle,
                                    worker: wi as u32,
                                    cause: StallCause::Frozen,
                                });
                                last_cause[wi] = Some(StallCause::Frozen);
                            }
                        }
                        li += 1;
                        continue;
                    }
                }
                let before_busy = self.workers[wi].stats.busy;
                let before_state = self.workers[wi].state;
                let before_iters = self.workers[wi].stats.iterations;
                let w = &mut self.workers[wi];
                let mut shared = Shared {
                    queues: &mut self.queues,
                    cache: &mut self.cache,
                    mem,
                    liveouts: &mut self.liveouts,
                    fault: &mut self.fault,
                };
                let stepped = step_worker(&self.programs[w.func], w, &mut shared, cycle, wi);
                match stepped {
                    Ok(outcome) => classes[wi] = outcome,
                    Err(HwError::Fault { cycle, kind, .. }) => {
                        return Err(HwError::Fault { cycle, kind, detail: self.dump_state() });
                    }
                    Err(other) => return Err(other),
                }
                let w = &self.workers[wi];
                progressed |= w.stats.busy != before_busy;
                if let Some(trace) = &mut self.trace {
                    if cycle == 0 || w.state != before_state {
                        trace.record(TraceEvent::State {
                            cycle,
                            worker: wi as u32,
                            state: w.state as u32,
                        });
                    }
                    let cause = cause_of(classes[wi]);
                    if last_cause[wi] != Some(cause) {
                        trace.record(TraceEvent::Stall { cycle, worker: wi as u32, cause });
                        last_cause[wi] = Some(cause);
                    }
                    // A step takes at most one transition: a back edge or
                    // the final `Ret`, never both.
                    if w.stats.iterations != before_iters {
                        trace.record(TraceEvent::Iteration { cycle, worker: wi as u32 });
                    }
                    if w.finished {
                        trace.record(TraceEvent::Finish { cycle, worker: wi as u32 });
                    }
                }
                if self.workers[wi].finished {
                    finish_cycle[wi] = cycle;
                    // Plain remove (not swap) keeps the remaining workers in
                    // index order — evaluation order is architecturally
                    // visible through FIFO handshakes.
                    live.remove(li);
                } else {
                    li += 1;
                }
            }
            if let Some(trace) = &mut self.trace {
                for (qi, &before) in queue_occ_before.iter().enumerate() {
                    let now = self.queues[qi].total_occupancy() as u32;
                    if now != before {
                        trace.record(TraceEvent::QueueOccupancy {
                            cycle,
                            queue: qi as u32,
                            beats: now,
                        });
                    }
                }
            }
            if progressed {
                last_progress = cycle;
            } else if cycle - last_progress > watchdog {
                return Err(self.no_progress_error(cycle));
            }
            // An Active worker forces the very next cycle to be evaluated,
            // so the skip machinery only engages on all-blocked/burning
            // cycles — the common case pays one branch.
            if skip_ahead
                && !live.is_empty()
                && !live.iter().any(|&wi| matches!(classes[wi], StepOutcome::Active))
            {
                // Earliest future cycle at which any worker can do anything
                // other than repeat this cycle's stall/burn bookkeeping.
                let mut wake = u64::MAX;
                let mut any_burn = false;
                for &wi in &live {
                    match classes[wi] {
                        StepOutcome::Active => unreachable!("gated above"),
                        StepOutcome::MemWait { until } => wake = wake.min(until),
                        StepOutcome::Burn { until } => {
                            any_burn = true;
                            wake = wake.min(until);
                        }
                        StepOutcome::Frozen | StepOutcome::FifoWait { .. } => {}
                    }
                }
                if let Some(plan) = &self.fault {
                    // A stall window opening or closing reclassifies a
                    // worker (idle vs stall) and must be observed on cycle.
                    wake = wake.min(plan.next_timed_boundary(cycle));
                }
                // Burning workers count as progress every cycle, so the
                // watchdog deadline only binds when none burn.
                let deadline = if any_burn {
                    u64::MAX
                } else {
                    last_progress.saturating_add(watchdog).saturating_add(1)
                };
                if wake.min(deadline).min(fuel) > cycle + 1 {
                    let (bulk, next_cycle) = if fuel <= wake && fuel <= deadline {
                        // Fuel exhausts first: credit up to the last
                        // simulated cycle, then exit with a timeout.
                        (fuel - 1 - cycle, fuel)
                    } else if deadline < wake {
                        // The per-cycle stepper would have declared the
                        // deadlock at exactly `deadline`.
                        (deadline - cycle, deadline)
                    } else {
                        (wake - 1 - cycle, wake)
                    };
                    if bulk > 0 {
                        // No queue changes inside the window, so the
                        // occupancy histograms need no credit here.
                        for &wi in &live {
                            credit(&mut self.workers[wi], classes[wi], bulk);
                        }
                        skipped_cycles += bulk;
                        if any_burn {
                            last_progress = cycle + bulk;
                        }
                    }
                    if deadline < wake && fuel > deadline {
                        return Err(self.no_progress_error(deadline));
                    }
                    cycle = next_cycle;
                    continue;
                }
            }
            cycle += 1;
        }
        if !live.is_empty() {
            if self.fault.as_ref().is_some_and(FaultPlan::corruption_fired) {
                let detail = self.dump_state();
                return Err(HwError::Fault { cycle, kind: FaultDetection::Hang, detail });
            }
            return Err(HwError::Timeout { cycle });
        }
        // Workers that finished early idled until the join; the last
        // simulated cycle is `cycle - 1`.
        let last = cycle.saturating_sub(1);
        for (wi, w) in self.workers.iter_mut().enumerate() {
            w.stats.idle += last - finish_cycle[wi];
        }
        // A duplicated beat that nobody pops survives to the join; flag it
        // instead of reporting a clean run.
        if self.fault.as_ref().is_some_and(FaultPlan::corruption_fired) {
            if let Some((qi, q)) = self.queues.iter().enumerate().find(|(_, q)| !q.is_drained()) {
                let kind = FaultDetection::UndrainedQueue {
                    queue: qi as u32,
                    beats: q.total_occupancy() as u32,
                };
                return Err(HwError::Fault { cycle, kind, detail: self.dump_state() });
            }
        }
        for q in &mut self.queues {
            q.settle_occupancy(cycle);
        }
        let fifo_beats = self.queues.iter().map(|q| q.beats_pushed + q.beats_popped).sum();
        Ok(SystemStats {
            cycles: cycle,
            workers: self.workers.iter().map(|w| w.stats.clone()).collect(),
            fifo_beats,
            queues: self.queues.iter().map(QueueState::stats).collect(),
            cache: self.cache.stats,
            skipped_cycles,
        })
    }

    /// The error the watchdog reports at `cycle`: a lost beat can starve a
    /// consumer forever, so attribute the hang to injected corruption when
    /// one fired, otherwise report a design deadlock.
    fn no_progress_error(&self, cycle: u64) -> HwError {
        let detail = self.dump_state();
        if self.fault.as_ref().is_some_and(FaultPlan::corruption_fired) {
            HwError::Fault { cycle, kind: FaultDetection::Hang, detail }
        } else {
            HwError::Deadlock { cycle, detail }
        }
    }
}

/// Credit `k` skipped cycles to a live worker according to its
/// classification for the just-evaluated cycle — exactly what `k` more
/// per-cycle steps would have recorded, since no wake-up event lies inside
/// the skipped window.
fn credit(w: &mut Worker, class: StepOutcome, k: u64) {
    match class {
        StepOutcome::Frozen => w.stats.idle += k,
        StepOutcome::MemWait { .. } => w.stats.stall_mem_read += k,
        StepOutcome::FifoWait { queue, push } => w.stats.credit_fifo(queue, push, k),
        StepOutcome::Burn { .. } => {
            w.stats.busy += k;
            // The wake-up bound guarantees `k` never reaches the state
            // transition itself.
            w.burn(k);
        }
        StepOutcome::Active => unreachable!("active workers are never skipped"),
    }
}

/// Waveform stall classification for a step outcome.
#[inline]
fn cause_of(o: StepOutcome) -> StallCause {
    match o {
        StepOutcome::Active | StepOutcome::Burn { .. } => StallCause::Busy,
        StepOutcome::MemWait { .. } => StallCause::MemRead,
        StepOutcome::FifoWait { push: true, .. } => StallCause::QueuePush,
        StepOutcome::FifoWait { push: false, .. } => StallCause::QueuePop,
        StepOutcome::Frozen => StallCause::Frozen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_function, NoHooks};
    use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Ty};

    /// `fn scale(a: ptr, n: i32)` — doubles n floats in place.
    fn scale_fn() -> Function {
        let mut b = FunctionBuilder::new("scale", &[("a", Ty::Ptr), ("n", Ty::I32)], None);
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
        let p = b.gep(a, i, 4, 0);
        let x = b.load(p, Ty::F32);
        let two = b.const_f32(2.0);
        let y = b.binary(BinOp::FMul, x, two);
        b.store(p, y);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        b.finish().unwrap()
    }

    #[test]
    fn single_worker_matches_reference() {
        let f = scale_fn();
        let n = 40u32;
        let mut mem_hw = SimMemory::new(1 << 16);
        let base = mem_hw.alloc(4 * n, 4);
        for i in 0..n {
            mem_hw.write_f32(base + 4 * i, i as f32);
        }
        let mut mem_ref = mem_hw.clone();

        let mut sys = HwSystem::for_single(
            &f,
            &[Value::Ptr(base), Value::I32(n as i32)],
            HwConfig::default(),
        );
        let stats = sys.run(&mut mem_hw).unwrap();
        run_function(
            &f,
            &[Value::Ptr(base), Value::I32(n as i32)],
            &mut mem_ref,
            1_000_000,
            &mut NoHooks,
        )
        .unwrap();
        for i in 0..n {
            assert_eq!(mem_hw.read_f32(base + 4 * i), mem_ref.read_f32(base + 4 * i));
        }
        assert!(stats.cycles > u64::from(n)); // several states per iteration
        assert_eq!(stats.workers.len(), 1);
        assert!(stats.cache.accesses >= u64::from(2 * n));
    }

    #[test]
    fn fsm_timing_includes_multicycle_states() {
        let f = scale_fn();
        let mut mem = SimMemory::new(1 << 16);
        let base = mem.alloc(4 * 8, 4);
        let mut sys =
            HwSystem::for_single(&f, &[Value::Ptr(base), Value::I32(8)], HwConfig::default());
        let stats = sys.run(&mut mem).unwrap();
        // Per iteration: >= gep/cmp states + load (2+) + fmul (4) + store.
        assert!(stats.cycles >= 8 * 8, "cycles = {}", stats.cycles);
    }

    #[test]
    fn timeout_reported() {
        let f = scale_fn();
        let mut mem = SimMemory::new(1 << 16);
        let base = mem.alloc(4 * 100, 4);
        let cfg = HwConfig { fuel_cycles: 10, ..HwConfig::default() };
        let mut sys = HwSystem::for_single(&f, &[Value::Ptr(base), Value::I32(100)], cfg);
        assert!(matches!(sys.run(&mut mem), Err(HwError::Timeout { .. })));
    }

    /// Hand-built two-task pipeline: stage0 produces 0..n round-robin;
    /// stage1 (2 workers) multiplies by 3 and stores to out[i].
    fn tiny_pipeline(n: i32) -> (cgpa_ir::Module, Vec<Function>) {
        let mut m = cgpa_ir::Module::new("tiny");
        let q = m.add_queue("vals", Ty::I32, 2);
        let qe = m.add_queue("end", Ty::I1, 2);

        // stage0(n)
        let mut b = FunctionBuilder::new("stage0", &[("n", Ty::I32)], None);
        let nn = b.param(0);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let c = b.icmp(IntPredicate::Slt, i, nn);
        let t = b.const_bool(true);
        let notc = b.binary(BinOp::Xor, c, t);
        b.produce_broadcast(qe, notc);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        b.produce(q, i, i);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        let s0 = b.finish().unwrap();

        // stage1(out, wid): loop { end = consume(qe, wid); if end break;
        //   if (it & 1) == wid { v = consume(q, wid); out[v] = 3*v } }
        let mut b = FunctionBuilder::new("stage1", &[("out", Ty::Ptr), ("wid", Ty::I32)], None);
        let out = b.param(0);
        let wid = b.param(1);
        b.set_worker_id_param(1);
        let dispatch = b.append_block("dispatch");
        let check = b.append_block("check");
        let work = b.append_block("work");
        let latch = b.append_block("latch");
        let exit = b.append_block("exit");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        let three = b.const_i32(3);
        b.br(dispatch);
        b.switch_to(dispatch);
        let it = b.phi(Ty::I32, "it");
        let end = b.consume(qe, wid, Ty::I1);
        b.cond_br(end, exit, check);
        b.switch_to(check);
        let sel = b.binary(BinOp::And, it, one);
        let mine = b.icmp(IntPredicate::Eq, sel, wid);
        b.cond_br(mine, work, latch);
        b.switch_to(work);
        let v = b.consume(q, wid, Ty::I32);
        let y = b.binary(BinOp::Mul, v, three);
        let p = b.gep(out, v, 4, 0);
        b.store(p, y);
        b.br(latch);
        b.switch_to(latch);
        let it2 = b.binary(BinOp::Add, it, one);
        b.br(dispatch);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(it, b.entry_block(), zero);
        b.add_phi_incoming(it, latch, it2);
        let s1 = b.finish().unwrap();
        let _ = n;
        (m, vec![s0, s1])
    }

    #[test]
    fn engines_match_on_single_worker() {
        let f = scale_fn();
        let n = 64u32;
        let mut mem_ev = SimMemory::new(1 << 16);
        let base = mem_ev.alloc(4 * n, 4);
        for i in 0..n {
            mem_ev.write_f32(base + 4 * i, i as f32);
        }
        let mut mem_ref = mem_ev.clone();
        let args = [Value::Ptr(base), Value::I32(n as i32)];

        let [event, per_cycle] = engines();
        let mut ev = HwSystem::for_single(&f, &args, event);
        let stats_ev = ev.run(&mut mem_ev).unwrap();
        let mut rf = HwSystem::for_single(&f, &args, per_cycle);
        let stats_rf = rf.run(&mut mem_ref).unwrap();

        assert_eq!(stats_ev.cycles, stats_rf.cycles);
        assert_eq!(stats_ev.workers, stats_rf.workers);
        assert_eq!(stats_ev.cache, stats_rf.cache);
        assert_eq!(stats_ev.fifo_beats, stats_rf.fifo_beats);
        assert_eq!(mem_ev.read_bytes(0, mem_ev.size()), mem_ref.read_bytes(0, mem_ref.size()));
        // The event engine actually skipped something on this
        // memory-latency-dominated loop; the reference never does.
        assert!(stats_ev.skipped_cycles > 0);
        assert_eq!(stats_rf.skipped_cycles, 0);
    }

    #[test]
    fn engines_match_under_timing_faults() {
        let f = scale_fn();
        let n = 48u32;
        let plan = FaultPlan::seeded(
            &[
                crate::fault::FaultClass::StallWorker,
                crate::fault::FaultClass::MemLatencyBurst,
                crate::fault::FaultClass::PortContention,
            ],
            7,
        );
        let mut mem_ev = SimMemory::new(1 << 16);
        let base = mem_ev.alloc(4 * n, 4);
        let mut mem_ref = mem_ev.clone();
        let args = [Value::Ptr(base), Value::I32(n as i32)];

        let [event, per_cycle] = engines();
        let mut ev = HwSystem::for_single(&f, &args, event);
        ev.inject_faults(plan.clone());
        let stats_ev = ev.run(&mut mem_ev).unwrap();
        let mut rf = HwSystem::for_single(&f, &args, per_cycle);
        rf.inject_faults(plan);
        let stats_rf = rf.run(&mut mem_ref).unwrap();

        assert_eq!(stats_ev.cycles, stats_rf.cycles);
        assert_eq!(stats_ev.workers, stats_rf.workers);
        assert_eq!(ev.fault_plan().unwrap().fired(), rf.fault_plan().unwrap().fired());
        assert_eq!(mem_ev.read_bytes(0, mem_ev.size()), mem_ref.read_bytes(0, mem_ref.size()));
    }

    /// Both engines' configurations.
    fn engines() -> [HwConfig; 2] {
        [SimEngine::EventDriven, SimEngine::PerCycle]
            .map(|engine| HwConfig { engine, ..HwConfig::default() })
    }

    #[test]
    fn malformed_function_is_rejected_not_a_panic() {
        // entry: br exit; dead: v = add 1, 2; br exit; exit: ret v
        // The return reads a value computed only in unreachable code.
        let mut b = FunctionBuilder::new("bad", &[], Some(Ty::I32));
        let dead = b.append_block("dead");
        let exit = b.append_block("exit");
        b.br(exit);
        b.switch_to(dead);
        let one = b.const_i32(1);
        let two = b.const_i32(2);
        let v = b.binary(BinOp::Add, one, two);
        b.br(exit);
        b.switch_to(exit);
        b.ret(Some(v));
        let f = b.finish_unverified();
        for cfg in engines() {
            let mut mem = SimMemory::new(1 << 12);
            let err = HwSystem::for_single(&f, &[], cfg).run(&mut mem).unwrap_err();
            assert!(matches!(err, HwError::Malformed { worker: 0, .. }), "{err:?}");
            assert!(err.to_string().contains("not dominated"), "{err}");
        }
    }

    /// `fn chain() -> i32`: `adds` chained integer adds, then `ret`.
    fn chain(adds: usize) -> Function {
        let mut b = FunctionBuilder::new("chain", &[], Some(Ty::I32));
        let one = b.const_i32(1);
        let mut v = one;
        for _ in 0..adds {
            v = b.binary(BinOp::Add, v, one);
        }
        b.ret(Some(v));
        b.finish().unwrap()
    }

    /// An FSM scheduled from a smaller or a larger function is an error
    /// for both the schedule checker and the simulator, not an index out
    /// of bounds.
    #[test]
    fn foreign_fsms_are_errors_in_both_directions() {
        let (short, long) = (chain(1), chain(3));
        for (func, donor) in [(&short, &long), (&long, &short)] {
            let fsm = schedule_function(donor);
            let err = cgpa_rtl::verify_schedule(func, &fsm).unwrap_err();
            assert!(matches!(err, cgpa_rtl::ScheduleError::Malformed(_)), "{err:?}");
            let instance = Instance { func: 0, args: Vec::new(), label: "chain".into() };
            let cfg = HwConfig::default();
            let mut sys =
                HwSystem::build(vec![func], vec![fsm].into(), &[], 0, vec![instance], cfg, "x");
            let err = sys.run(&mut SimMemory::new(1 << 12)).unwrap_err();
            assert!(matches!(err, HwError::Malformed { worker: 0, .. }), "{err:?}");
        }
    }

    #[test]
    fn foreign_fsm_and_bad_arity_are_malformed() {
        let f = scale_fn();
        let other = tiny_pipeline(4).1.remove(0);
        let fsms = vec![schedule_function(&other)];
        let args = vec![Value::Ptr(64), Value::I32(1)];
        let instance = Instance { func: 0, args, label: "scale".into() };
        let cfg = HwConfig { engine: SimEngine::PerCycle, ..HwConfig::default() };
        let mut sys = HwSystem::build(vec![&f], fsms.into(), &[], 0, vec![instance], cfg, "x");
        let mut mem = SimMemory::new(1 << 12);
        let err = sys.run(&mut mem).unwrap_err();
        assert!(matches!(err, HwError::Malformed { worker: 0, .. }), "{err:?}");

        let err = HwSystem::for_single(&f, &[Value::Ptr(64)], cfg).run(&mut mem).unwrap_err();
        assert!(err.to_string().contains("expected 2 arguments, got 1"), "{err}");
    }

    #[test]
    fn out_of_range_accesses_are_typed_errors() {
        // store i32 1, p / load f64, p — with p two bytes short of the end.
        let mut b = FunctionBuilder::new("poke", &[("p", Ty::Ptr)], None);
        let p = b.param(0);
        let one = b.const_i32(1);
        b.store(p, one);
        b.ret(None);
        let store = b.finish().unwrap();
        let mut b = FunctionBuilder::new("peek", &[("p", Ty::Ptr)], Some(Ty::F64));
        let p = b.param(0);
        let x = b.load(p, Ty::F64);
        b.ret(Some(x));
        let load = b.finish().unwrap();

        let mut mem = SimMemory::new(1 << 12);
        let addr = mem.size() - 2;
        let args = [Value::Ptr(addr)];
        for (f, width) in [(&store, 4), (&load, 8)] {
            for cfg in engines() {
                let err = HwSystem::for_single(f, &args, cfg).run(&mut mem).unwrap_err();
                assert!(
                    matches!(err, HwError::OutOfRange { worker: 0, addr: a, width: w, .. }
                        if a == addr && w == width),
                    "{}: {err:?}",
                    f.name
                );
            }
            let err = run_function(f, &args, &mut mem, 100, &mut NoHooks).unwrap_err();
            assert_eq!(err, crate::interp::InterpError::OutOfRange { addr, width });
        }
    }

    #[test]
    fn watchdog_scales_with_fuel() {
        let f = scale_fn();
        let mut mem = SimMemory::new(1 << 16);
        let base = mem.alloc(4, 4);
        let sys = HwSystem::for_single(&f, &[Value::Ptr(base), Value::I32(1)], HwConfig::default());
        assert_eq!(sys.watchdog_cycles(), 200_000); // default fuel: 5e8 / 2500
        let cfg = HwConfig { fuel_cycles: 1_000, ..HwConfig::default() };
        let sys = HwSystem::for_single(&f, &[Value::Ptr(base), Value::I32(1)], cfg);
        assert_eq!(sys.watchdog_cycles(), 10_000); // floored
    }

    #[test]
    fn two_stage_pipeline_streams_values() {
        let n = 32i32;
        let (mut m, funcs) = tiny_pipeline(n);
        for f in funcs {
            m.add_func(f);
        }
        let mut mem = SimMemory::new(1 << 16);
        let out = mem.alloc(4 * n as u32, 4);

        // Assemble a system by hand (mirrors what for_pipeline does).
        let funcs: Vec<&Function> = m.funcs.iter().collect();
        let fsms: Vec<Fsm> = funcs.iter().map(|f| schedule_function(f)).collect();
        let mut instances =
            vec![Instance { func: 0, args: vec![Value::I32(n)], label: "gen".into() }];
        for wid in 0..2 {
            let args = vec![Value::Ptr(out), Value::I32(wid)];
            instances.push(Instance { func: 1, args, label: format!("sink w{wid}") });
        }
        let mut sys = HwSystem::build(
            funcs,
            fsms.into(),
            &m.queues,
            0,
            instances,
            HwConfig::default(),
            "tiny",
        );
        let stats = sys.run(&mut mem).unwrap();
        for i in 0..n {
            assert_eq!(mem.read_i32(out + 4 * i as u32), 3 * i, "out[{i}]");
        }
        assert!(stats.fifo_beats > 0);
        assert_eq!(stats.workers.len(), 3);
    }
}
