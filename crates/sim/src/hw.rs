//! Cycle-level simulation of CGPA accelerators (the stand-in for the
//! paper's FPGA measurements).
//!
//! Every worker executes its scheduled FSM (`cgpa-rtl`): one state at a
//! time, spending at least the state's `min_cycles`, stalling on cache
//! misses, bank conflicts, and FIFO back-pressure. Workers of one pipeline
//! all start in the same cycle (`parallel_fork`, constraint 1) and the run
//! ends when every worker has raised its finish signal (`parallel_join`).
//!
//! The memory system is the shared banked D-cache of Figure 2: each worker
//! owns a request port; the request/response crossbar is modelled by bank
//! serialization inside [`CacheSystem`].

use crate::cache::{CacheConfig, CacheSystem};
use crate::exec::{eval_binary, eval_cast, eval_fcmp, eval_gep, eval_icmp};
use crate::fault::{FaultDetection, FaultPlan};
use crate::fifo::QueueState;
use crate::mem::SimMemory;
use crate::stats::{SystemStats, WorkerStats};
use crate::trace::{StallCause, Trace, TraceEvent};
use crate::value::Value;
use cgpa_ir::{Function, InstId, Module, Op, ValueId};
use cgpa_pipeline::{PipelineModule, StageKind};
use cgpa_rtl::schedule::schedule_function;
use cgpa_rtl::Fsm;
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
    /// A structurally malformed instruction reached the datapath (e.g. a
    /// value-producing op with no result register).
    Malformed {
        /// Worker that decoded the instruction.
        worker: u32,
        /// The offending operation.
        inst: String,
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
            | HwError::Fault { cycle, .. } => Some(*cycle),
            HwError::Unsupported(_) | HwError::Malformed { .. } => None,
        }
    }
}

impl From<crate::exec::ExecError> for HwError {
    fn from(e: crate::exec::ExecError) -> Self {
        HwError::Unsupported(e.0)
    }
}

/// One hardware worker: an FSM instance over a task function.
#[derive(Debug)]
struct Worker {
    /// Index into the function/FSM tables.
    func: usize,
    vals: Vec<Option<Value>>,
    state: usize,
    entered: bool,
    /// Next op (within the current state) to execute.
    cursor: usize,
    min_left: u32,
    extra_wait: u32,
    /// Cycle an outstanding load completes at.
    mem_wait: Option<u64>,
    finished: bool,
    ret: Option<Value>,
    stats: WorkerStats,
}

impl Worker {
    fn new(func_index: usize, func: &Function, args: &[Value]) -> Self {
        let mut vals = vec![None; func.values.len()];
        for (i, v) in args.iter().enumerate() {
            vals[i] = Some(*v);
        }
        for (i, vd) in func.values.iter().enumerate() {
            if let cgpa_ir::ValueDef::Const(c) = vd {
                vals[i] = Some(Value::from(*c));
            }
        }
        Worker {
            func: func_index,
            vals,
            state: 0,
            entered: false,
            cursor: 0,
            min_left: 0,
            extra_wait: 0,
            mem_wait: None,
            finished: false,
            ret: None,
            stats: WorkerStats::default(),
        }
    }
}

/// The accelerator system: workers + FIFOs + shared cache.
pub struct HwSystem<'m> {
    funcs: Vec<&'m Function>,
    fsms: Vec<Fsm>,
    workers: Vec<Worker>,
    queues: Vec<QueueState>,
    cache: CacheSystem,
    liveouts: Vec<Option<Value>>,
    cfg: HwConfig,
    fifo_total_channels: u32,
    trace: Option<Trace>,
    fault: Option<FaultPlan>,
    /// Design name for the trace's run label.
    design: String,
    /// Per-worker display label (task name, plus the worker index for
    /// parallel-stage instances).
    worker_labels: Vec<String>,
}

impl<'m> HwSystem<'m> {
    /// Build the system for a transformed pipeline: one worker per
    /// sequential stage, `workers` instances of the parallel stage, FIFO
    /// channels per the module's queue table.
    ///
    /// `args` are the loop live-in values, in [`PipelineModule::live_ins`]
    /// order.
    #[must_use]
    pub fn for_pipeline(pm: &'m PipelineModule, args: &[Value], cfg: HwConfig) -> Self {
        let module: &Module = &pm.module;
        let funcs: Vec<&Function> = module.funcs.iter().collect();
        let fsms: Vec<Fsm> = funcs.iter().map(|f| schedule_function(f)).collect();
        let mut workers = Vec::new();
        let mut worker_labels = Vec::new();
        for task in &pm.tasks {
            match task.kind {
                StageKind::Sequential => {
                    workers.push(Worker::new(task.func_index, funcs[task.func_index], args));
                    worker_labels.push(task.name.clone());
                }
                StageKind::Parallel => {
                    for w in 0..pm.workers {
                        let mut a = args.to_vec();
                        a.push(Value::I32(w as i32));
                        workers.push(Worker::new(task.func_index, funcs[task.func_index], &a));
                        worker_labels.push(format!("{} w{w}", task.name));
                    }
                }
            }
        }
        let queues: Vec<QueueState> =
            module.queues.iter().map(|q| QueueState::new(q, cfg.fifo_depth_beats)).collect();
        let fifo_total_channels = module.queues.iter().map(|q| q.channels).sum();
        let liveouts = vec![None; pm.liveouts.len()];
        HwSystem {
            funcs,
            fsms,
            workers,
            queues,
            cache: CacheSystem::new(cfg.cache),
            liveouts,
            cfg,
            fifo_total_channels,
            trace: None,
            fault: None,
            design: pm.module.name.clone(),
            worker_labels,
        }
    }

    /// Build a single-worker system over one plain function (the LegUp-style
    /// sequential-HLS baseline). The worker gets one cache port.
    #[must_use]
    pub fn for_single(func: &'m Function, args: &[Value], cfg: HwConfig) -> Self {
        let fsm = schedule_function(func);
        HwSystem {
            funcs: vec![func],
            fsms: vec![fsm],
            workers: vec![Worker::new(0, func, args)],
            queues: Vec::new(),
            cache: CacheSystem::new(cfg.cache),
            liveouts: Vec::new(),
            cfg,
            fifo_total_channels: 0,
            trace: None,
            fault: None,
            design: func.name.clone(),
            worker_labels: vec![func.name.clone()],
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
        for (i, w) in self.workers.iter().enumerate() {
            let ops = &self.fsms[w.func].states[w.state].ops;
            let desc = if w.finished {
                "done".to_string()
            } else if let Some(done) = w.mem_wait {
                format!("awaiting memory until cycle {done}")
            } else if w.entered && w.cursor < ops.len() {
                match &self.funcs[w.func].inst(ops[w.cursor]).op {
                    Op::Produce { queue, .. } | Op::ProduceBroadcast { queue, .. } => {
                        let q = &self.queues[queue.index()];
                        format!(
                            "blocked pushing queue '{}' (q{}, {} of {} beats occupied)",
                            q.name,
                            queue.index(),
                            q.total_occupancy(),
                            q.depth_beats * q.channels()
                        )
                    }
                    Op::Consume { queue, .. } => {
                        let q = &self.queues[queue.index()];
                        format!(
                            "blocked popping queue '{}' (q{}, {} of {} beats occupied)",
                            q.name,
                            queue.index(),
                            q.total_occupancy(),
                            q.depth_beats * q.channels()
                        )
                    }
                    op => format!("executing {op:?}"),
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

    /// Function index of worker `w` (into the module's function table).
    #[must_use]
    pub fn worker_func(&self, w: usize) -> usize {
        self.workers[w].func
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
    /// [`HwError::Timeout`] when fuel runs out, [`HwError::Deadlock`] when
    /// no worker progresses, [`HwError::Unsupported`] on host-only ops.
    pub fn run(&mut self, mem: &mut SimMemory) -> Result<SystemStats, HwError> {
        self.run_traced(mem, self.cfg.engine == SimEngine::EventDriven)
    }

    /// Run to completion with the per-cycle reference stepper, regardless
    /// of the configured engine. Retained for differential testing: the
    /// event-driven engine must match it bit- and cycle-exactly.
    ///
    /// # Errors
    /// Same as [`HwSystem::run`].
    pub fn run_reference(&mut self, mem: &mut SimMemory) -> Result<SystemStats, HwError> {
        self.run_traced(mem, false)
    }

    /// [`HwSystem::run_impl`], then stamp the armed trace with where the
    /// run stopped.
    fn run_traced(
        &mut self,
        mem: &mut SimMemory,
        skip_ahead: bool,
    ) -> Result<SystemStats, HwError> {
        let result = self.run_impl(mem, skip_ahead);
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

    /// Shared run loop. `skip_ahead = false` is the per-cycle reference
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
                    *occ = total_occupancy(&self.queues[qi]);
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
                let stepped = step_worker(
                    self.funcs[self.workers[wi].func],
                    &self.fsms[self.workers[wi].func],
                    &mut self.workers[wi],
                    &mut self.queues,
                    &mut self.cache,
                    mem,
                    &mut self.liveouts,
                    cycle,
                    wi,
                    &mut self.fault,
                );
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
                    let now = total_occupancy(&self.queues[qi]);
                    if now != before {
                        trace.record(TraceEvent::QueueOccupancy {
                            cycle,
                            queue: qi as u32,
                            beats: now,
                        });
                    }
                }
            }
            // One occupancy sample per simulated cycle. Skipped windows are
            // weighted in bulk below — occupancy cannot change while every
            // worker is blocked or burning, so both engines accumulate
            // identical histograms.
            for q in &mut self.queues {
                q.sample_occupancy(1);
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
                        self.bulk_credit(&live, &classes, bulk);
                        for q in &mut self.queues {
                            q.sample_occupancy(bulk);
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

    /// Credit `k` skipped cycles to every live worker according to its
    /// classification for the just-evaluated cycle — exactly what `k` more
    /// iterations of the per-cycle stepper would have recorded, given that
    /// no wake-up event lies inside the skipped window.
    fn bulk_credit(&mut self, live: &[usize], classes: &[StepOutcome], k: u64) {
        for &wi in live {
            let w = &mut self.workers[wi];
            match classes[wi] {
                StepOutcome::Frozen => w.stats.idle += k,
                StepOutcome::MemWait { .. } => w.stats.stall_mem_read += k,
                StepOutcome::FifoWait { queue, push } => w.stats.credit_fifo(queue, push, k),
                StepOutcome::Burn { .. } => {
                    w.stats.busy += k;
                    // Consume beat-transfer cycles first, then `min_cycles`
                    // down to 1, exactly as the per-cycle burn does. The
                    // wake-up bound guarantees `k` never reaches the state
                    // transition itself.
                    let from_beats = k.min(u64::from(w.extra_wait));
                    w.extra_wait -= from_beats as u32;
                    let from_min = (k - from_beats) as u32;
                    debug_assert!(w.min_left > from_min, "bulk burn crossed a state boundary");
                    w.min_left -= from_min;
                }
                StepOutcome::Active => unreachable!("active workers are never skipped"),
            }
        }
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

    /// Total FIFO channels (for area accounting).
    #[must_use]
    pub fn fifo_channels(&self) -> u32 {
        self.fifo_total_channels
    }
}

/// Total beat occupancy of a queue set across channels.
#[inline]
fn total_occupancy(q: &QueueState) -> u32 {
    (0..q.channels()).map(|c| q.occupancy(c) as u32).sum()
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

/// How a worker spent one evaluated cycle. The event-driven engine uses
/// this to decide whether (and how far) the whole system can skip ahead,
/// and to bulk-credit the skipped cycles; the classification must mirror
/// exactly what the per-cycle stepper would record for those cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    /// Clock-gated by an injected stall window; accrues `idle`.
    Frozen,
    /// Waiting on a memory response arriving at `until`; accrues
    /// `stall_mem` until then.
    MemWait {
        /// Cycle the response arrives.
        until: u64,
    },
    /// Blocked on a FIFO handshake; accrues a per-queue push or pop wait
    /// until another worker moves the queue (which only happens on an
    /// evaluated cycle).
    FifoWait {
        /// Queue the handshake is against.
        queue: u32,
        /// True when blocked pushing (full), false when starved popping.
        push: bool,
    },
    /// Burning deterministic multi-cycle state latency (remaining
    /// `min_cycles` or extra transfer beats); accrues `busy` and touches
    /// no shared state until the transition at `until`.
    Burn {
        /// Cycle of the state transition.
        until: u64,
    },
    /// Touched shared state or is mid-state; re-evaluate next cycle.
    Active,
}

/// Advance one worker by one cycle.
///
/// Within one cycle a worker executes every ready operation of its current
/// state up to its cursor: combinational/pipelined ops are free, all queue
/// handshakes of the state fire together (independent FIFO ports), a load
/// blocks until the cache responds, a store retires through the store
/// buffer. The state ends when every op has executed and `min_cycles`
/// elapsed.
#[allow(clippy::too_many_arguments)]
fn step_worker(
    func: &Function,
    fsm: &Fsm,
    w: &mut Worker,
    queues: &mut [QueueState],
    cache: &mut CacheSystem,
    mem: &mut SimMemory,
    liveouts: &mut [Option<Value>],
    cycle: u64,
    wi: usize,
    fault: &mut Option<FaultPlan>,
) -> Result<StepOutcome, HwError> {
    debug_assert!(!w.finished, "finished workers leave the live list");
    if !w.entered {
        w.entered = true;
        w.cursor = 0;
        w.min_left = fsm.states[w.state].min_cycles;
    }
    // Outstanding load?
    if let Some(done) = w.mem_wait {
        if cycle < done {
            w.stats.stall_mem_read += 1;
            return Ok(StepOutcome::MemWait { until: done });
        }
        w.mem_wait = None; // data arrived; continue this cycle
    }

    // Execute ops from the cursor.
    let ops: &[cgpa_ir::InstId] = &fsm.states[w.state].ops;
    while w.cursor < ops.len() {
        let iid = ops[w.cursor];
        let inst = func.inst(iid);
        match &inst.op {
            Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. } | Op::Phi { .. } => {
                w.cursor += 1; // terminators evaluate on state completion
            }
            Op::Load { .. } => {
                let (addr, _) = mem_effect(func, w, iid, mem, wi)?;
                let mut done = cache.request(cycle, addr);
                if let Some(plan) = fault.as_mut() {
                    done += plan.mem_penalty(cycle);
                }
                w.cursor += 1;
                w.stats.busy += 1;
                let until = done.max(cycle + 1);
                w.mem_wait = Some(until);
                return Ok(StepOutcome::MemWait { until });
            }
            Op::Store { .. } => {
                // Store buffer: fire and forget; the access still occupies
                // its bank.
                let (addr, _) = mem_effect(func, w, iid, mem, wi)?;
                let _ = cache.request(cycle, addr);
                w.cursor += 1;
            }
            Op::Produce { .. } | Op::ProduceBroadcast { .. } | Op::Consume { .. } => {
                match try_queue(func, w, iid, queues, cycle, wi, fault)? {
                    QueueOutcome::Blocked { queue, push } => {
                        w.stats.credit_fifo(queue, push, 1);
                        return Ok(StepOutcome::FifoWait { queue, push });
                    }
                    QueueOutcome::Done { beats } => {
                        w.cursor += 1;
                        w.extra_wait += beats - 1; // extra 32-bit beats
                    }
                }
            }
            Op::Binary { op, lhs, rhs } => {
                let r = eval_binary(*op, getv(w, *lhs), getv(w, *rhs))?;
                w.vals[result_ix(func, iid, wi)?] = Some(r);
                w.cursor += 1;
            }
            Op::ICmp { pred, lhs, rhs } => {
                let r = eval_icmp(*pred, getv(w, *lhs), getv(w, *rhs));
                w.vals[result_ix(func, iid, wi)?] = Some(r);
                w.cursor += 1;
            }
            Op::FCmp { pred, lhs, rhs } => {
                let r = eval_fcmp(*pred, getv(w, *lhs), getv(w, *rhs));
                w.vals[result_ix(func, iid, wi)?] = Some(r);
                w.cursor += 1;
            }
            Op::Select { cond, on_true, on_false } => {
                let r =
                    if getv(w, *cond).as_bool() { getv(w, *on_true) } else { getv(w, *on_false) };
                w.vals[result_ix(func, iid, wi)?] = Some(r);
                w.cursor += 1;
            }
            Op::Cast { kind, value, to } => {
                let r = eval_cast(*kind, getv(w, *value), *to)?;
                w.vals[result_ix(func, iid, wi)?] = Some(r);
                w.cursor += 1;
            }
            Op::Gep { base, index, scale, offset } => {
                let r = eval_gep(getv(w, *base), index.map(|v| getv(w, v)), *scale, *offset);
                w.vals[result_ix(func, iid, wi)?] = Some(r);
                w.cursor += 1;
            }
            Op::StoreLiveout { slot, value } => {
                liveouts[*slot as usize] = Some(getv(w, *value));
                w.cursor += 1;
            }
            other @ (Op::ParallelFork { .. }
            | Op::ParallelJoin { .. }
            | Op::RetrieveLiveout { .. }) => {
                return Err(HwError::Unsupported(format!("{other:?}")));
            }
        }
    }

    // All ops executed: burn any remaining beat/latency cycles, then leave.
    w.stats.busy += 1;
    if w.extra_wait > 0 {
        w.extra_wait -= 1;
        return Ok(burn_outcome(w, cycle));
    }
    if w.min_left > 1 {
        w.min_left -= 1;
        return Ok(burn_outcome(w, cycle));
    }
    advance(func, fsm, w);
    Ok(StepOutcome::Active)
}

/// The cycle at which a worker that has executed all of its state's ops
/// will transition (pure busy burn until then): one cycle per remaining
/// transfer beat, then `min_cycles` down to its final cycle.
#[inline]
fn burn_outcome(w: &Worker, cycle: u64) -> StepOutcome {
    let left = u64::from(w.extra_wait) + u64::from(w.min_left.saturating_sub(1));
    StepOutcome::Burn { until: cycle + left + 1 }
}

#[inline]
fn getv(w: &Worker, v: ValueId) -> Value {
    w.vals[v.index()].expect("operand evaluated in schedule order")
}

/// Result register of a value-producing op, or [`HwError::Malformed`] when
/// the instruction reached the datapath without one.
#[inline]
fn result_ix(func: &Function, inst: InstId, wi: usize) -> Result<usize, HwError> {
    let i = func.inst(inst);
    match i.result {
        Some(r) => Ok(r.index()),
        None => Err(HwError::Malformed { worker: wi as u32, inst: format!("{:?}", i.op) }),
    }
}

/// Perform the functional effect of a memory op; returns (address, is
/// store).
fn mem_effect(
    func: &Function,
    w: &mut Worker,
    inst: InstId,
    mem: &mut SimMemory,
    wi: usize,
) -> Result<(u32, bool), HwError> {
    let i = func.inst(inst);
    match &i.op {
        Op::Load { addr, ty } => {
            let a = w.vals[addr.index()].expect("load address").as_ptr();
            let v = mem.read_value(a, *ty);
            w.vals[result_ix(func, inst, wi)?] = Some(v);
            Ok((a, false))
        }
        Op::Store { addr, value } => {
            let a = w.vals[addr.index()].expect("store address").as_ptr();
            let v = w.vals[value.index()].expect("store value");
            mem.write_value(a, v);
            Ok((a, true))
        }
        _ => unreachable!("mem_effect on non-memory op"),
    }
}

enum QueueOutcome {
    Blocked { queue: u32, push: bool },
    Done { beats: u32 },
}

/// Attempt the queue operation, applying any armed push-side corruption and
/// checking beat protection on the pop side.
fn try_queue(
    func: &Function,
    w: &mut Worker,
    inst: InstId,
    queues: &mut [QueueState],
    cycle: u64,
    wi: usize,
    fault: &mut Option<FaultPlan>,
) -> Result<QueueOutcome, HwError> {
    let i = func.inst(inst);
    let n_queues = queues.len();
    match &i.op {
        Op::Produce { queue, worker_sel, value } => {
            let q = &mut queues[queue.index()];
            let chan =
                (w.vals[worker_sel.index()].expect("selector").as_i32() as usize) % q.channels();
            if !q.can_push(chan) {
                return Ok(QueueOutcome::Blocked { queue: queue.index() as u32, push: true });
            }
            let v = w.vals[value.index()].expect("produced value");
            q.push(chan, v);
            if let Some(plan) = fault.as_mut() {
                if let Some(c) = plan.queue_corruption(queue.index(), n_queues, q.elems_pushed - 1)
                {
                    q.apply_corruption(chan, c);
                }
            }
            Ok(QueueOutcome::Done { beats: v.ty().fifo_beats() })
        }
        Op::ProduceBroadcast { queue, value } => {
            let q = &mut queues[queue.index()];
            if !q.can_push_all() {
                return Ok(QueueOutcome::Blocked { queue: queue.index() as u32, push: true });
            }
            let v = w.vals[value.index()].expect("broadcast value");
            q.push_all(v);
            if let Some(plan) = fault.as_mut() {
                // `push_all` counted one element push per channel.
                let n_chan = q.channels() as u64;
                for c in 0..q.channels() {
                    let ordinal = q.elems_pushed - n_chan + c as u64;
                    if let Some(cor) = plan.queue_corruption(queue.index(), n_queues, ordinal) {
                        q.apply_corruption(c, cor);
                    }
                }
            }
            Ok(QueueOutcome::Done { beats: v.ty().fifo_beats() })
        }
        Op::Consume { queue, channel_sel, ty } => {
            let q = &mut queues[queue.index()];
            let chan =
                (w.vals[channel_sel.index()].expect("selector").as_i32() as usize) % q.channels();
            if !q.can_pop(chan) {
                return Ok(QueueOutcome::Blocked { queue: queue.index() as u32, push: false });
            }
            let v = match q.pop_checked(queue.index() as u32, chan) {
                Ok(v) => v,
                // Caller fills `detail` with the whole-system dump.
                Err(kind) => return Err(HwError::Fault { cycle, kind, detail: String::new() }),
            };
            w.vals[result_ix(func, inst, wi)?] = Some(v);
            Ok(QueueOutcome::Done { beats: ty.fifo_beats() })
        }
        _ => unreachable!("try_queue on non-queue op"),
    }
}

/// Transition after a completed state.
fn advance(func: &Function, fsm: &Fsm, w: &mut Worker) {
    let state = &fsm.states[w.state];
    let last_of_block = fsm.block_last(state.block).index() == w.state;
    if !last_of_block {
        w.state += 1;
        w.entered = false;
        return;
    }
    // Evaluate the terminator.
    let term = func.terminator(state.block).expect("verified blocks end in terminators");
    match &func.inst(term).op {
        Op::Br { target } => {
            phi_updates(func, w, state.block, *target);
            let next = fsm.block_entry[target.index()].index();
            if next <= w.state {
                w.stats.iterations += 1; // back edge
            }
            w.state = next;
            w.entered = false;
        }
        Op::CondBr { cond, on_true, on_false } => {
            let taken = w.vals[cond.index()].expect("branch condition").as_bool();
            let target = if taken { *on_true } else { *on_false };
            phi_updates(func, w, state.block, target);
            let next = fsm.block_entry[target.index()].index();
            if next <= w.state {
                w.stats.iterations += 1; // back edge
            }
            w.state = next;
            w.entered = false;
        }
        Op::Ret { value } => {
            w.ret = value.map(|v| w.vals[v.index()].expect("return value"));
            w.finished = true;
        }
        other => unreachable!("non-terminator {other:?} ends a block"),
    }
}

/// Parallel phi evaluation on the edge `from -> to`.
fn phi_updates(func: &Function, w: &mut Worker, from: cgpa_ir::BlockId, to: cgpa_ir::BlockId) {
    let mut updates: Vec<(ValueId, Value)> = Vec::new();
    for &iid in &func.block(to).insts {
        let inst = func.inst(iid);
        let Op::Phi { incomings, .. } = &inst.op else { break };
        let (_, v) = incomings
            .iter()
            .find(|(b, _)| *b == from)
            .expect("verified phi covers all predecessors");
        updates.push((inst.result.expect("phi result"), w.vals[v.index()].expect("incoming")));
    }
    for (r, v) in updates {
        w.vals[r.index()] = Some(v);
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

        let mut ev = HwSystem::for_single(&f, &args, HwConfig::default());
        let stats_ev = ev.run(&mut mem_ev).unwrap();
        let mut rf = HwSystem::for_single(&f, &args, HwConfig::default());
        let stats_rf = rf.run_reference(&mut mem_ref).unwrap();

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

        let mut ev = HwSystem::for_single(&f, &args, HwConfig::default());
        ev.inject_faults(plan.clone());
        let stats_ev = ev.run(&mut mem_ev).unwrap();
        let mut rf = HwSystem::for_single(&f, &args, HwConfig::default());
        rf.inject_faults(plan);
        let stats_rf = rf.run_reference(&mut mem_ref).unwrap();

        assert_eq!(stats_ev.cycles, stats_rf.cycles);
        assert_eq!(stats_ev.workers, stats_rf.workers);
        assert_eq!(ev.fault_plan().unwrap().fired(), rf.fault_plan().unwrap().fired());
        assert_eq!(mem_ev.read_bytes(0, mem_ev.size()), mem_ref.read_bytes(0, mem_ref.size()));
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
        let mut workers = vec![Worker::new(0, funcs[0], &[Value::I32(n)])];
        for wid in 0..2 {
            workers.push(Worker::new(1, funcs[1], &[Value::Ptr(out), Value::I32(wid)]));
        }
        let queues: Vec<QueueState> = m.queues.iter().map(|q| QueueState::new(q, 16)).collect();
        let mut sys = HwSystem {
            funcs,
            fsms,
            workers,
            queues,
            cache: CacheSystem::new(CacheConfig::default()),
            liveouts: Vec::new(),
            cfg: HwConfig::default(),
            fifo_total_channels: 4,
            trace: None,
            fault: None,
            design: "tiny".to_string(),
            worker_labels: vec!["gen".into(), "sink w0".into(), "sink w1".into()],
        };
        let stats = sys.run(&mut mem).unwrap();
        for i in 0..n {
            assert_eq!(mem.read_i32(out + 4 * i as u32), 3 * i, "out[{i}]");
        }
        assert!(stats.fifo_beats > 0);
        assert_eq!(stats.workers.len(), 3);
    }
}
