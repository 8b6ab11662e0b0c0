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
use crate::datapath::{lower, step_worker, Entered, MicroOp, Program, Shared, StepOutcome, Worker};
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
/// return values, cycle counts, per-worker statistics, trace events and
/// error reports (the differential test matrix in
/// `tests/differential_engines.rs` enforces this). The event-driven engine
/// is simply faster: it runs workers ahead through states nobody else can
/// observe and skips the cycles in which no worker has anything to do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimEngine {
    /// Event-driven scheduler: a worker runs ahead of the clock through
    /// register-only FSM states, then sleeps until its next memory or FIFO
    /// operation (or until the memory response, the queue handshake or
    /// the fault window it waits on) and is credited the slept cycles when
    /// it wakes; the clock jumps over cycles in which no worker is due.
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
    /// order, it holds a host primitive, an op names a queue or liveout
    /// register the system lacks or moves another type through a queue
    /// than its element type, or the worker's arguments do not match its
    /// parameters in count or type. Raised before any cycle runs.
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
            HwError::Malformed { .. } => None,
        }
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
        let lowered: Vec<Result<Program, String>> = funcs
            .iter()
            .enumerate()
            .map(|(i, f)| match fsms.get(i) {
                Some(fsm) => lower(f, fsm, queues, liveouts),
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
    /// blocked worker waits on) and per-queue occupancy, as the per-cycle
    /// stepper shows them in cycle `cycle` once it has stepped every worker
    /// before `next_worker`. A worker inside a run-ahead window is shown in
    /// the state its log places it in at that point.
    fn dump_at(&self, cycle: u64, next_worker: usize) -> String {
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
            let view = if i < next_worker { cycle } else { cycle.saturating_sub(1) };
            let pending = match self.programs.get(w.func) {
                Some(prog) if w.entered => prog.op_at(w.state, w.cursor),
                _ => None,
            };
            let (state, desc) = if let Some(state) = w.state_at(view) {
                // A window's states are register-only: all their ops run
                // in their first cycle, so the worker is between states,
                // unless it still waits on a merged load's response.
                let desc = match w.awaiting_at(view) {
                    Some(resp) => format!("awaiting memory until cycle {resp}"),
                    None => "between states".to_string(),
                };
                (state as usize, desc)
            } else if w.finished {
                (w.state, "done".to_string())
            } else if let Some(done) = w.mem_wait {
                (w.state, format!("awaiting memory until cycle {done}"))
            } else if let Some((op, inst)) = pending {
                let desc = match op {
                    MicroOp::Produce { queue, .. } | MicroOp::Broadcast { queue, .. } => {
                        blocked("pushing", queue)
                    }
                    MicroOp::Consume { queue, .. } => blocked("popping", queue),
                    _ => format!("executing {:?}", self.funcs[w.func].inst(inst).op),
                };
                (w.state, desc)
            } else {
                (w.state, "between states".to_string())
            };
            let _ = writeln!(out, "  worker {i} in state S{state}: {desc}");
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
    /// the same trace: a step that opens a run-ahead window records the
    /// window's state changes, back edges and the end of a merged memory
    /// wait at the cycles they belong to, and the run puts the trace in
    /// order when it ends, so an armed trace (or fault plan) changes
    /// neither the engine nor the workers it steps.
    ///
    /// # Errors
    /// [`HwError::Malformed`] when a task could not be lowered or a
    /// worker's arguments do not fit it (before any cycle runs),
    /// [`HwError::Timeout`] when fuel runs out, [`HwError::Deadlock`] when
    /// no worker progresses, [`HwError::OutOfRange`] on an access outside
    /// memory, [`HwError::Fault`] when injected corruption is detected.
    pub fn run(&mut self, mem: &mut SimMemory) -> Result<SystemStats, HwError> {
        let result = self.run_impl(mem, self.cfg.engine == SimEngine::EventDriven);
        // Order the armed trace, cut it where the run stopped, and stamp it
        // with the end of the run.
        if let Some(trace) = &mut self.trace {
            let (stop, end) = match &result {
                Ok(stats) => ((stats.cycles, 0), stats.cycles),
                Err((e, stop)) => (*stop, e.cycle().unwrap_or(0) + 1),
            };
            trace.order(stop);
            trace.end_cycle = end;
        }
        result.map_err(|(e, _)| e)
    }

    /// Progress watchdog window: scales with the fuel budget rather than a
    /// magic constant (fuel/2500 = 200k cycles at the 5×10⁸ default),
    /// floored so short-fuel runs still separate deadlock from timeout.
    fn watchdog_cycles(&self) -> u64 {
        (self.cfg.fuel_cycles / 2500).max(10_000)
    }

    /// The run loop. `event_driven = false` is the per-cycle reference
    /// stepper: every step counts as `Active`, so every live worker is due
    /// in every cycle. `true` steps the same way but adds three things:
    ///
    /// - **Run-ahead.** A worker that leaves a state runs straight on
    ///   through the register-only states after it (see
    ///   `datapath::run_ahead`), never past the next timed fault boundary.
    /// - **Merged load responses.** A worker that issues a load whose
    ///   state is register ops from there on takes the step its response
    ///   would wake it for at issue, and runs on from there (see
    ///   `datapath::respond_ahead`), under the same horizon.
    /// - **Sleep.** A worker whose step was not `Active` sleeps until it is
    ///   due again: after a memory wait, a burning state or a run-ahead
    ///   window (a merged load's wait included), at the cycle it ends; when
    ///   blocked on a FIFO handshake, once a later step moves its queue;
    ///   when frozen, at the next fault window edge. Every sleep ends at the
    ///   next timed fault boundary at the latest. On waking, [`credit`]
    ///   books the slept cycles once, under the outcome that put the worker
    ///   to sleep.
    ///
    /// A [`WakeSet`] holds who is due when. Each cycle steps only its due
    /// workers, in index order, and the clock then moves to the next cycle
    /// some worker is due in, jumping over the cycles between, or to the
    /// watchdog deadline or the fuel limit, whichever comes first.
    ///
    /// Statistics, error cycles, fault attribution, trace events and
    /// diagnostic dumps stay exactly per-cycle-equivalent: the step that
    /// opens a run-ahead window records the window's trace events at their
    /// own cycles, and while the window lasts the dumps read the worker's
    /// per-cycle state from its log. A failure also returns where the run
    /// stopped (see [`HwSystem::stop`]).
    fn run_impl(&mut self, mem: &mut SimMemory, event_driven: bool) -> Result<SystemStats, Stop> {
        if let Some(e) = &self.malformed {
            return Err((e.clone(), (0, 0)));
        }
        let n_workers = self.workers.len();
        let (fuel, watchdog) = (self.cfg.fuel_cycles, self.watchdog_cycles());
        // The cycle being simulated; the last cycle some worker was busy in,
        // as far as the loop looked (a sleeper's busy cycles count once it
        // wakes or the watchdog asks); the cycles in which none stepped.
        let (mut cycle, mut last_progress, mut skipped_cycles) = (0, 0, 0);
        // When each finished worker finished: its join-wait idle time is
        // credited in bulk from there once the run completes.
        let mut finish_cycle = vec![0; n_workers];
        // Tracing state: each queue's last recorded total occupancy (queues
        // start empty) and each worker's last recorded stall cause.
        let mut last_occ = vec![0; self.queues.len()];
        let mut last_cause = vec![None; n_workers];
        let (mut ws, mut live) = (WakeSet::new(n_workers, self.queues.len()), n_workers);
        while cycle < fuel && live > 0 {
            // Windows and sleeps starting now end at the next timed fault edge.
            let horizon = match &self.fault {
                _ if !event_driven => 0,
                Some(plan) => plan.next_timed_boundary(cycle),
                None => u64::MAX,
            };
            ws.begin(cycle);
            let mut progressed = false;
            for k in 0..ws.live.len() {
                let mut due = std::mem::take(&mut ws.slot(cycle)[k]);
                while due != 0 {
                    let wi = k * 64 + due.trailing_zeros() as usize;
                    due &= due - 1;
                    let slept = ws.rouse(wi);
                    if slept.class != StepOutcome::Active {
                        if slept.busy_from < cycle {
                            last_progress = cycle - 1;
                        }
                        let w = &mut self.workers[wi];
                        credit(w, slept, cycle);
                        w.wake();
                    }
                    let (outcome, busy) = self
                        .step_live(mem, &mut last_cause[wi], cycle, wi, horizon)
                        .map_err(|e| self.stop(e, cycle, wi))?;
                    progressed |= busy;
                    if ws.notify(&self.queues, wi, cycle) {
                        // Waiters above `wi` in this word are due in this cycle.
                        due |= std::mem::take(&mut ws.slot(cycle)[k]);
                    }
                    if self.workers[wi].finished {
                        finish_cycle[wi] = cycle;
                        clear(&mut ws.live, wi);
                        (ws.wake[wi], live) = (u64::MAX, live - 1);
                    } else {
                        let class = if event_driven { outcome } else { StepOutcome::Active };
                        let sleep = Sleep { class, from: cycle + 1, ..Sleep::AWAKE };
                        ws.sleep(wi, sleep, horizon, &self.queues);
                    }
                }
            }
            if let Some(trace) = &mut self.trace {
                for (qi, last) in last_occ.iter_mut().enumerate() {
                    let beats = self.queues[qi].total_occupancy() as u32;
                    if beats != *last {
                        trace.record(TraceEvent::QueueOccupancy { cycle, queue: qi as u32, beats });
                        *last = beats;
                    }
                }
            }
            let next = if live > 0 { ws.next_due(cycle) } else { cycle + 1 };
            if progressed {
                last_progress = cycle;
            }
            // A sleeper busy in a cycle stays busy until it is due, and its
            // busy cycles count once it wakes (above). The watchdog looks at
            // the sleepers only where it would fire without them: in this
            // cycle, or before the next one a worker is due in.
            let deadline = last_progress.saturating_add(watchdog).saturating_add(1);
            if deadline <= cycle || (deadline < next && deadline < fuel) {
                let busy_from = ws.busy_from();
                if busy_from <= cycle {
                    last_progress = cycle;
                } else if deadline <= cycle {
                    return Err(self.no_progress_error(cycle));
                }
                let deadline = last_progress.saturating_add(watchdog).saturating_add(1);
                if deadline < next.min(busy_from) && deadline < fuel {
                    // The per-cycle stepper declares the deadlock at exactly
                    // `deadline`.
                    return Err(self.no_progress_error(deadline));
                }
            }
            let next = next.min(fuel);
            if next > cycle + 1 {
                // No worker steps in the cycles between: jump them.
                skipped_cycles += next - 1 - cycle;
            }
            cycle = next;
        }
        if live > 0 {
            let error = if self.fault.as_ref().is_some_and(FaultPlan::corruption_fired) {
                HwError::Fault { cycle, kind: FaultDetection::Hang, detail: String::new() }
            } else {
                HwError::Timeout { cycle }
            };
            return Err(self.stop(error, cycle, 0));
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
                let error = HwError::Fault { cycle, kind, detail: String::new() };
                return Err(self.stop(error, cycle, 0));
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

    /// Step live worker `wi` in `cycle`: hold it if an injected stall
    /// window clock-gates it, else run [`step_worker`]; then record its
    /// trace events, those of the run-ahead window the step opened
    /// included, each at its own cycle (`last_cause` is its last recorded
    /// stall cause). Returns the outcome and whether the worker was busy.
    #[inline(always)]
    fn step_live(
        &mut self,
        mem: &mut SimMemory,
        last_cause: &mut Option<StallCause>,
        cycle: u64,
        wi: usize,
        horizon: u64,
    ) -> Result<(StepOutcome, bool), HwError> {
        let n_workers = self.workers.len();
        let frozen = self.fault.as_mut().is_some_and(|p| p.stall_active(wi, n_workers, cycle));
        if frozen {
            // Clock-gated this cycle: the FSM holds its state.
            self.workers[wi].stats.idle += 1;
            if let Some(trace) = &mut self.trace {
                record_cause(trace, last_cause, cycle, wi, StallCause::Frozen);
            }
            return Ok((StepOutcome::Frozen, false));
        }
        let w = &mut self.workers[wi];
        let before_busy = w.stats.busy;
        let before_state = w.state;
        let before_iters = w.stats.iterations;
        let mut shared = Shared {
            queues: &mut self.queues,
            cache: &mut self.cache,
            mem,
            liveouts: &mut self.liveouts,
            fault: &mut self.fault,
        };
        let prog = &self.programs[w.func];
        let outcome = step_worker(prog, w, &mut shared, cycle, wi, horizon)?;
        let w = &mut self.workers[wi];
        if let Some(trace) = &mut self.trace {
            // The step's own move, then the rest of the window it opened.
            let back = w.stats.iterations != before_iters;
            let step = [Entered { at: cycle, state: w.state as u32, back, resumed: false }];
            let log = if w.ahead.is_empty() { &step[..] } else { &w.ahead[..] };
            let (worker, mut state) = (wi as u32, before_state as u32);
            for (i, e) in log.iter().enumerate() {
                // Cycle 0 records every worker's first state.
                if e.state != state || e.at == 0 {
                    trace.record(TraceEvent::State { cycle: e.at, worker, state: e.state });
                    state = e.state;
                }
                // A worker's cause is `Busy` inside a window, except before
                // a merged load's response, where it waits on memory.
                if i == 0 {
                    record_cause(trace, last_cause, cycle, wi, cause_of(outcome));
                } else if e.resumed {
                    record_cause(trace, last_cause, e.at, wi, StallCause::Busy);
                }
                // A move takes at most one transition: a back edge or the
                // final `Ret`, never both.
                if e.back {
                    trace.record(TraceEvent::Iteration { cycle: e.at, worker });
                }
            }
            if w.finished {
                trace.record(TraceEvent::Finish { cycle, worker });
            }
        }
        Ok((outcome, w.stats.busy != before_busy))
    }

    /// The error the watchdog reports at the end of `cycle`: a lost beat
    /// can starve a consumer forever, so attribute the hang to injected
    /// corruption when one fired, otherwise report a design deadlock.
    fn no_progress_error(&self, cycle: u64) -> Stop {
        let detail = String::new();
        let error = if self.fault.as_ref().is_some_and(FaultPlan::corruption_fired) {
            HwError::Fault { cycle, kind: FaultDetection::Hang, detail }
        } else {
            HwError::Deadlock { cycle, detail }
        };
        self.stop(error, cycle + 1, 0)
    }

    /// A run that fails with `error` stops in `cycle` before worker
    /// `next_worker` steps: an error a step detects stops at that step,
    /// the watchdog's at the end of its cycle, running out of fuel before
    /// the fuel cycle. Fills the dump of a [`HwError::Fault`] or
    /// [`HwError::Deadlock`] from that point, and pairs the error with it:
    /// [`HwSystem::run`] keeps the trace events recorded before it.
    fn stop(&self, mut error: HwError, cycle: u64, next_worker: usize) -> Stop {
        if let HwError::Fault { detail, .. } | HwError::Deadlock { detail, .. } = &mut error {
            *detail = self.dump_at(cycle, next_worker);
        }
        (error, (cycle, next_worker))
    }
}

/// A failed run's error and where it stopped: in which cycle, before
/// stepping which worker (see [`HwSystem::stop`]).
type Stop = (HwError, (u64, usize));

/// A live worker's sleep: the outcome of its last step, which says what
/// each slept cycle counts as (see [`credit`]), and when it ends.
#[derive(Debug, Clone, Copy)]
struct Sleep {
    class: StepOutcome,
    /// The first slept cycle: the one after the worker's last step.
    from: u64,
    /// The first slept cycle the worker is busy in (`u64::MAX` if none);
    /// it stays busy from then on until it is due.
    busy_from: u64,
    /// For a FIFO sleeper, its channel's mutation count when it blocked.
    seen: u64,
}

impl Sleep {
    /// A worker that steps in the current cycle.
    const AWAKE: Sleep =
        Sleep { class: StepOutcome::Active, from: 0, busy_from: u64::MAX, seen: 0 };
}

/// Cycles the timing wheel of a [`WakeSet`] spans.
const SLOTS: u64 = 64;

/// Who is due when. Each mask is a bitset over worker indices, one `u64`
/// word per 64 workers.
struct WakeSet {
    /// Workers still running.
    live: Vec<u64>,
    /// Per worker: its sleep (stale while it steps), and the cycle it is
    /// due in at the latest (`u64::MAX` when only its queue can wake it).
    sleep: Vec<Sleep>,
    wake: Vec<u64>,
    /// The timing wheel: slot `c % SLOTS` holds the workers due in cycle
    /// `c`, for the `SLOTS` cycles from the current one; bit `s` of
    /// `occupied` is set when slot `s` holds any.
    slots: Vec<u64>,
    occupied: u64,
    /// Sleepers due `SLOTS` or more cycles after they fell asleep, and a
    /// lower bound on their wake cycles (see [`WakeSet::settle_far`]).
    far: Vec<u64>,
    far_min: u64,
    /// Per queue: the workers blocked on it, and its mutation count when
    /// they were last checked. A step that moves the count wakes those
    /// whose channel moved.
    waiters: Vec<Vec<u64>>,
    seen: Vec<u64>,
    /// Queues that may have a waiter, as a bitset over queue indices.
    waited: Vec<u64>,
}

impl WakeSet {
    /// `workers` live workers, all due in cycle 0, and `queues` queues.
    fn new(workers: usize, queues: usize) -> WakeSet {
        let words = workers.div_ceil(64);
        let mut live = vec![0; words];
        (0..workers).for_each(|wi| set(&mut live, wi));
        WakeSet {
            sleep: vec![Sleep::AWAKE; workers],
            wake: vec![0; workers],
            slots: [live.clone(), vec![0; (SLOTS as usize - 1) * words]].concat(),
            occupied: 1,
            far: vec![0; words],
            far_min: u64::MAX,
            waiters: vec![vec![0; words]; queues],
            seen: vec![0; queues],
            waited: vec![0; queues.div_ceil(64)],
            live,
        }
    }

    /// The wheel slot of cycle `c`.
    fn slot(&mut self, c: u64) -> &mut [u64] {
        let words = self.live.len();
        let at = (c % SLOTS) as usize * words;
        &mut self.slots[at..at + words]
    }

    /// Start cycle `cycle`: its slot holds the workers due in it.
    fn begin(&mut self, cycle: u64) {
        if self.far_min < cycle + SLOTS {
            self.settle_far(cycle + SLOTS);
        }
        self.occupied &= !(1 << (cycle % SLOTS));
    }

    /// Take due worker `wi` out of its sleep, which it returns.
    fn rouse(&mut self, wi: usize) -> &Sleep {
        if let StepOutcome::FifoWait { queue, .. } = self.sleep[wi].class {
            clear(&mut self.waiters[queue as usize], wi);
        }
        &self.sleep[wi]
    }

    /// Put worker `wi`, just stepped, to sleep: until the cycle the
    /// sleep's outcome ends in (the next one when `Active`), or `horizon`
    /// if sooner. A FIFO sleeper also wakes once a step moves its queue
    /// ([`WakeSet::notify`]).
    fn sleep(&mut self, wi: usize, mut sleep: Sleep, horizon: u64, queues: &[QueueState]) {
        let wake = match sleep.class {
            StepOutcome::Active => sleep.from,
            StepOutcome::MemWait { until } => until.min(horizon),
            StepOutcome::Burn { until } | StepOutcome::Ahead { until } => {
                sleep.busy_from = sleep.from;
                until.min(horizon)
            }
            StepOutcome::MemAhead { resp, until } => {
                sleep.busy_from = resp;
                until.min(horizon)
            }
            StepOutcome::FifoWait { queue, chan, .. } => {
                let queue = queue as usize;
                set(&mut self.waiters[queue], wi);
                set(&mut self.waited, queue);
                self.seen[queue] = queues[queue].mutations(u32::MAX);
                sleep.seen = queues[queue].mutations(chan);
                horizon
            }
            StepOutcome::Frozen => horizon,
        };
        self.sleep[wi] = sleep;
        self.schedule(wi, wake, sleep.from - 1);
    }

    /// Make worker `wi` due in `wake`, a cycle after the current one
    /// `cycle` (never when `u64::MAX`).
    fn schedule(&mut self, wi: usize, wake: u64, cycle: u64) {
        self.wake[wi] = wake;
        if wake < cycle + SLOTS {
            set(self.slot(wake), wi);
            self.occupied |= 1 << (wake % SLOTS);
        } else if wake != u64::MAX {
            set(&mut self.far, wi);
            self.far_min = self.far_min.min(wake);
        }
    }

    /// After worker `wi`'s step in `cycle`, wake each waiter whose channel
    /// the step moved (any channel of its queue for a broadcast). A waiter
    /// above `wi` is due in this cycle, as the loop steps it after `wi`
    /// (it goes back into this cycle's slot; true when one does); one
    /// below it in the next.
    fn notify(&mut self, queues: &[QueueState], wi: usize, cycle: u64) -> bool {
        let (mut from, mut now) = (0, false);
        while let Some(queue) = next_set(&self.waited, from) {
            from = queue + 1;
            let q = &queues[queue];
            if q.mutations(u32::MAX) == self.seen[queue] {
                continue;
            }
            self.seen[queue] = q.mutations(u32::MAX);
            let mut next = 0;
            while let Some(j) = next_set(&self.waiters[queue], next) {
                next = j + 1;
                let StepOutcome::FifoWait { chan, .. } = self.sleep[j].class else { continue };
                let wake = self.wake[j];
                if q.mutations(chan) == self.sleep[j].seen {
                    continue;
                }
                clear(&mut self.waiters[queue], j);
                // Void its timed wake (a far one drops out once unnamed).
                if wake < cycle + SLOTS {
                    let slot = self.slot(wake);
                    clear(slot, j);
                    if slot.iter().all(|&w| w == 0) {
                        self.occupied &= !(1 << (wake % SLOTS));
                    }
                }
                if j > wi {
                    set(self.slot(cycle), j);
                    now = true;
                } else {
                    self.schedule(j, cycle + 1, cycle);
                }
            }
        }
        now
    }

    /// Reschedule each far sleeper as if in cycle `limit - SLOTS`: the ones
    /// due before `limit` move onto the wheel, the ones no longer timed
    /// drop out, and `far_min` becomes exact.
    fn settle_far(&mut self, limit: u64) {
        self.far_min = u64::MAX;
        let mut from = 0;
        while let Some(wi) = next_set(&self.far, from) {
            from = wi + 1;
            clear(&mut self.far, wi);
            self.schedule(wi, self.wake[wi], limit - SLOTS);
        }
    }

    /// The first cycle after `cycle` a worker is due in (`u64::MAX` if
    /// only a queue can wake one).
    fn next_due(&mut self, cycle: u64) -> u64 {
        let first = cycle + 1;
        if self.occupied == 0 && self.far_min != u64::MAX {
            self.settle_far(first + SLOTS);
        }
        if self.occupied == 0 {
            return self.far_min;
        }
        first + u64::from(self.occupied.rotate_right((first % SLOTS) as u32).trailing_zeros())
    }

    /// The first cycle a sleeper is busy in (`u64::MAX` if none is).
    fn busy_from(&self) -> u64 {
        bits(&self.live).map(|wi| self.sleep[wi].busy_from).min().unwrap_or(u64::MAX)
    }
}

/// Set bit `i` of `mask`.
#[inline]
fn set(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

/// Clear bit `i` of `mask`.
#[inline]
fn clear(mask: &mut [u64], i: usize) {
    mask[i / 64] &= !(1 << (i % 64));
}

/// The first set bit of `mask` at or after `from`.
#[inline]
fn next_set(mask: &[u64], from: usize) -> Option<usize> {
    let mut k = from / 64;
    let mut word = mask.get(k)? & (u64::MAX << (from % 64));
    while word == 0 {
        k += 1;
        word = *mask.get(k)?;
    }
    Some(k * 64 + word.trailing_zeros() as usize)
}

/// The set bits of `mask`, ascending.
fn bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(next_set(mask, 0), |&i| next_set(mask, i + 1))
}

/// Credit the cycles a worker slept before `cycle` according to the
/// outcome that put it to sleep — exactly what per-cycle steps would have
/// recorded, since the worker is due again no later than anything can
/// change for it.
#[inline]
fn credit(w: &mut Worker, slept: &Sleep, cycle: u64) {
    let k = cycle - slept.from;
    match slept.class {
        StepOutcome::Frozen => w.stats.idle += k,
        StepOutcome::MemWait { .. } => w.stats.stall_mem_read += k,
        StepOutcome::FifoWait { queue, push, .. } => w.stats.credit_fifo(queue, push, k),
        StepOutcome::Burn { .. } => {
            w.stats.busy += k;
            // The wake-up bound guarantees `k` never reaches the state
            // transition itself.
            w.burn(k);
        }
        // The window's states already ran; only their cycles are left.
        StepOutcome::Ahead { .. } => w.stats.busy += k,
        StepOutcome::MemAhead { resp, .. } => {
            let waited = k.min(resp - slept.from);
            w.stats.stall_mem_read += waited;
            w.stats.busy += k - waited;
        }
        StepOutcome::Active => unreachable!("awake workers are never credited"),
    }
}

/// Record a stall-cause change of worker `wi` in `cycle`.
fn record_cause(
    trace: &mut Trace,
    last: &mut Option<StallCause>,
    cycle: u64,
    wi: usize,
    cause: StallCause,
) {
    if *last != Some(cause) {
        trace.record(TraceEvent::Stall { cycle, worker: wi as u32, cause });
        *last = Some(cause);
    }
}

/// Waveform stall classification for a step outcome.
#[inline]
fn cause_of(o: StepOutcome) -> StallCause {
    match o {
        StepOutcome::Active | StepOutcome::Burn { .. } | StepOutcome::Ahead { .. } => {
            StallCause::Busy
        }
        StepOutcome::MemWait { .. } | StepOutcome::MemAhead { .. } => StallCause::MemRead,
        StepOutcome::FifoWait { push: true, .. } => StallCause::QueuePush,
        StepOutcome::FifoWait { push: false, .. } => StallCause::QueuePop,
        StepOutcome::Frozen => StallCause::Frozen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_function, NoHooks};
    use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Op, Ty};

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

    #[test]
    fn phi_copies_on_an_edge_are_parallel() {
        // A loop whose back edge rotates three phis (`x, y, z = y, z, x`)
        // and also feeds one phi from another (`w = x`): copied one after
        // another in list order, each would read a value written on the
        // same edge.
        let mut b = FunctionBuilder::new("rotate", &[("n", Ty::I32)], Some(Ty::I32));
        let n = b.param(0);
        let header = b.append_block("header");
        let exit = b.append_block("exit");
        let entry = b.entry_block();
        let (zero, one) = (b.const_i32(0), b.const_i32(1));
        let (two, three, ten) = (b.const_i32(2), b.const_i32(3), b.const_i32(10));
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let x = b.phi(Ty::I32, "x");
        let y = b.phi(Ty::I32, "y");
        let z = b.phi(Ty::I32, "z");
        let w = b.phi(Ty::I32, "w");
        let i2 = b.binary(BinOp::Add, i, one);
        let more = b.icmp(IntPredicate::Slt, i2, n);
        b.cond_br(more, header, exit);
        b.switch_to(exit);
        let t = b.binary(BinOp::Mul, x, ten);
        let t = b.binary(BinOp::Add, t, w);
        b.ret(Some(t));
        for (phi, init, next) in
            [(i, zero, i2), (x, one, y), (y, two, z), (z, three, x), (w, zero, x)]
        {
            b.add_phi_incoming(phi, entry, init);
            b.add_phi_incoming(phi, header, next);
        }
        let f = b.finish().unwrap();
        for n in 1..=5 {
            let (mut x, mut y, mut z, mut w) = (1, 2, 3, 0);
            for _ in 1..n {
                (x, y, z, w) = (y, z, x, x);
            }
            let mut mem = SimMemory::new(1 << 12);
            let (want, _) =
                run_function(&f, &[Value::I32(n)], &mut mem, 1000, &mut NoHooks).unwrap();
            assert_eq!(want, Some(Value::I32(x * 10 + w)), "interpreter, n = {n}");
            for cfg in engines() {
                let mut sys = HwSystem::for_single(&f, &[Value::I32(n)], cfg);
                sys.run(&mut mem).unwrap();
                assert_eq!(sys.ret_value(), want, "n = {n}, {:?}", cfg.engine);
            }
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

    /// `check_ports`: a consume whose type differs from its queue's element
    /// type is malformed before any cycle runs.
    #[test]
    fn a_consume_of_another_type_than_its_queue_is_malformed() {
        let mut m = cgpa_ir::Module::new("mistyped");
        let q = m.add_queue("vals", Ty::I32, 1);
        let mut b = FunctionBuilder::new("sink", &[], Some(Ty::F32));
        let zero = b.const_i32(0);
        let v = b.consume(q, zero, Ty::F32);
        b.ret(Some(v));
        let f = b.finish().unwrap();
        for cfg in engines() {
            let fsms = vec![schedule_function(&f)];
            let instance = Instance { func: 0, args: Vec::new(), label: "sink".into() };
            let mut sys =
                HwSystem::build(vec![&f], fsms.into(), &m.queues, 0, vec![instance], cfg, "x");
            let err = sys.run(&mut SimMemory::new(1 << 12)).unwrap_err();
            assert!(matches!(err, HwError::Malformed { worker: 0, .. }), "{err:?}");
            assert!(err.to_string().contains("carries f32 through queue 0 of i32"), "{err}");
        }
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

    /// Build one worker per `(function, args)` over `funcs`, run it traced
    /// under `cfg`, and return the result, the VCD and the memory image.
    fn run_traced(
        funcs: &[Function],
        queues: &[QueueInfo],
        instances: &[(usize, Vec<Value>)],
        cfg: HwConfig,
        mem: &SimMemory,
    ) -> (Result<SystemStats, HwError>, String, SimMemory) {
        let fsms: Vec<Fsm> = funcs.iter().map(schedule_function).collect();
        let instances = instances
            .iter()
            .map(|(func, args)| Instance {
                func: *func,
                args: args.clone(),
                label: format!("f{func}"),
            })
            .collect();
        let mut sys =
            HwSystem::build(funcs.iter().collect(), fsms.into(), queues, 0, instances, cfg, "t");
        sys.enable_trace();
        let mut mem = mem.clone();
        let result = sys.run(&mut mem);
        let vcd = sys.take_trace().expect("trace armed").to_vcd("t");
        (result, vcd, mem)
    }

    /// Every engine-independent statistic of two runs agrees.
    fn assert_same_stats(ev: &SystemStats, rf: &SystemStats) {
        assert_eq!(ev.cycles, rf.cycles);
        assert_eq!(ev.workers, rf.workers);
        assert_eq!(ev.queues, rf.queues);
        assert_eq!(ev.cache, rf.cache);
        assert_eq!(ev.fifo_beats, rf.fifo_beats);
    }

    /// A producer (worker 0) streaming `0..n` into a one-channel `i32`
    /// queue, and a consumer (worker 1) that pops each value and then
    /// spends several register-only states on it (an int-to-float cast, a
    /// multi-cycle `fmul` and `fadd`, the loop compare) before it stores
    /// the sum of squares to `out`.
    fn stream_and_square() -> (cgpa_ir::Module, Vec<Function>) {
        let mut m = cgpa_ir::Module::new("squares");
        let q = m.add_queue("vals", Ty::I32, 1);

        let mut b = FunctionBuilder::new("producer", &[("n", Ty::I32)], None);
        let n = b.param(0);
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
        b.produce(q, zero, i);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        let producer = b.finish().unwrap();

        let mut b = FunctionBuilder::new("consumer", &[("out", Ty::Ptr), ("n", Ty::I32)], None);
        let out = b.param(0);
        let n = b.param(1);
        let header = b.append_block("header");
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        let fzero = b.const_f64(0.0);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, "i");
        let acc = b.phi(Ty::F64, "acc");
        let c = b.icmp(IntPredicate::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let v = b.consume(q, zero, Ty::I32);
        let x = b.cast(cgpa_ir::CastKind::SiToFp, v, Ty::F64);
        let y = b.binary(BinOp::FMul, x, x);
        let acc2 = b.binary(BinOp::FAdd, acc, y);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.store(out, acc);
        b.ret(None);
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(acc, b.entry_block(), fzero);
        b.add_phi_incoming(acc, body, acc2);
        let consumer = b.finish().unwrap();
        (m, vec![producer, consumer])
    }

    /// The producer blocks on a full 2-beat queue while the consumer pops
    /// and then works through register-only states: the producer must push
    /// on exactly the cycles it would under the per-cycle reference.
    #[test]
    fn a_blocked_producer_resumes_on_the_cycle_its_consumer_pops() {
        let (m, funcs) = stream_and_square();
        let fsm = schedule_function(&funcs[1]);
        let quiet = fsm
            .states
            .iter()
            .filter(|s| {
                s.ops.iter().all(|&i| {
                    !matches!(
                        funcs[1].inst(i).op,
                        Op::Load { .. }
                            | Op::Store { .. }
                            | Op::Consume { .. }
                            | Op::Produce { .. }
                            | Op::Ret { .. }
                    )
                })
            })
            .count();
        assert!(quiet >= 3, "the consumer has {quiet} register-only states");
        assert!(fsm.states.iter().any(|s| s.min_cycles > 1), "no multi-cycle state");

        let n = 24;
        let mut mem = SimMemory::new(1 << 12);
        let out = mem.alloc(8, 8);
        let instances = [(0, vec![Value::I32(n)]), (1, vec![Value::Ptr(out), Value::I32(n)])];
        let [event, per_cycle] = engines().map(|cfg| HwConfig { fifo_depth_beats: 2, ..cfg });
        let (ev, ev_vcd, ev_mem) = run_traced(&funcs, &m.queues, &instances, event, &mem);
        let (rf, rf_vcd, rf_mem) = run_traced(&funcs, &m.queues, &instances, per_cycle, &mem);
        let (ev, rf) = (ev.unwrap(), rf.unwrap());
        let squares: i32 = (0..n).map(|i| i * i).sum();
        assert_eq!(rf_mem.read_f64(out), f64::from(squares));
        assert!(rf.workers[0].stall_push() > 0, "the producer never waited on a push");
        assert_same_stats(&ev, &rf);
        assert!(ev_vcd == rf_vcd, "VCD waveforms differ between engines");
        assert_eq!(ev_mem.read_bytes(0, ev_mem.size()), rf_mem.read_bytes(0, rf_mem.size()));
    }

    /// `fn spin(p: ptr)`: `links` dependent `f64` multiplies, each its own
    /// multi-cycle state, then a block that loads an `f64` through `p`.
    fn spin(links: usize) -> Function {
        let mut b = FunctionBuilder::new("spin", &[("p", Ty::Ptr)], None);
        let p = b.param(0);
        let tail = b.append_block("tail");
        let exit = b.append_block("exit");
        let mut x = b.const_f64(1.5);
        for _ in 0..links {
            x = b.binary(BinOp::FMul, x, x);
        }
        b.br(tail);
        b.switch_to(tail);
        let zero = b.const_f64(0.0);
        let neg = b.fcmp(cgpa_ir::FloatPredicate::Olt, x, zero);
        let addr = b.select(neg, p, p);
        b.load(addr, Ty::F64);
        b.br(exit);
        b.switch_to(exit);
        b.ret(None);
        b.finish().unwrap()
    }

    /// `fn stuck() -> i32`: `links` dependent `f64` multiplies, each its
    /// own multi-cycle state, then a pop from queue 0, which nobody fills.
    fn stuck(links: usize) -> Function {
        let mut b = FunctionBuilder::new("stuck", &[], Some(Ty::I32));
        let tail = b.append_block("tail");
        let mut x = b.const_f64(1.5);
        for _ in 0..links {
            x = b.binary(BinOp::FMul, x, x);
        }
        let zero = b.const_i32(0);
        let big = b.fcmp(cgpa_ir::FloatPredicate::Ogt, x, x);
        let sel = b.select(big, zero, zero);
        b.br(tail);
        b.switch_to(tail);
        let v = b.consume(cgpa_ir::QueueId(0), sel, Ty::I32);
        b.ret(Some(v));
        b.finish().unwrap()
    }

    /// One worker blocks at once on an empty queue; the other is busy
    /// through a long run-ahead window and then blocks on it too, without
    /// a busy step. Both engines declare the deadlock one watchdog window
    /// after that window's last cycle, traced or not.
    #[test]
    fn a_deadlock_after_a_busy_sleep_is_declared_in_the_same_cycle() {
        let mut m = cgpa_ir::Module::new("stuck");
        m.add_queue("vals", Ty::I32, 1);
        let funcs = [stuck(0), stuck(40)];
        let instances = [(0, Vec::new()), (1, Vec::new())];
        let mem = SimMemory::new(1 << 12);
        let [(ev, ev_vcd, _), (rf, rf_vcd, _)] = engines().map(|cfg| {
            let cfg = HwConfig { fuel_cycles: 1_000_000, ..cfg };
            run_traced(&funcs, &m.queues, &instances, cfg, &mem)
        });
        let Err(rf @ HwError::Deadlock { cycle, .. }) = rf else { panic!("{rf:?}") };
        assert!(cycle > 10_100, "the window ended in cycle {}", cycle - 10_001);
        assert_eq!(ev.unwrap_err(), rf);
        assert!(ev_vcd == rf_vcd, "VCD waveforms differ between engines");
        let fsms: Vec<Fsm> = funcs.iter().map(schedule_function).collect();
        let [ev, rf] = engines().map(|cfg| {
            let cfg = HwConfig { fuel_cycles: 1_000_000, ..cfg };
            let instances = (0..2)
                .map(|func| Instance { func, args: Vec::new(), label: format!("w{func}") })
                .collect();
            let funcs = funcs.iter().collect();
            let mut sys =
                HwSystem::build(funcs, fsms.as_slice().into(), &m.queues, 0, instances, cfg, "t");
            sys.run(&mut mem.clone()).unwrap_err()
        });
        assert_eq!(ev, rf);
    }

    /// Two workers run ahead through register-only states and then make
    /// out-of-range loads; whichever the per-cycle reference meets first is
    /// the error both engines report.
    #[test]
    fn out_of_range_accesses_race_identically() {
        let mem = SimMemory::new(1 << 12);
        let bad = Value::Ptr(mem.size() - 2);
        for (links, first) in [([2, 6], 0), ([6, 2], 1)] {
            let funcs = links.map(spin);
            let instances = [(0, vec![bad]), (1, vec![bad])];
            let [(ev, ev_vcd, _), (rf, rf_vcd, _)] =
                engines().map(|cfg| run_traced(&funcs, &[], &instances, cfg, &mem));
            let (ev, rf) = (ev.unwrap_err(), rf.unwrap_err());
            assert_eq!(ev, rf, "engines report different errors");
            assert!(matches!(rf, HwError::OutOfRange { worker, .. } if worker == first), "{rf}");
            assert!(ev_vcd == rf_vcd, "VCD waveforms differ between engines");
        }
    }

    /// `fn tally(tag: i32, n: i32)`: for `i` in `0..n`, latch `tag + i`
    /// into liveout 0 from the loop body's last state, which ends in `br`
    /// (eq. 4 schedules the latch with the branch). `slow` puts a
    /// multi-cycle `sdiv` in front of the latch.
    fn tally(slow: bool) -> Function {
        let mut b = FunctionBuilder::new("tally", &[("tag", Ty::I32), ("n", Ty::I32)], None);
        let (tag, n) = (b.param(0), b.param(1));
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
        let x = if slow { b.binary(BinOp::SDiv, i, one) } else { i };
        let v = b.binary(BinOp::Add, tag, x);
        b.store_liveout(0, v);
        let i2 = b.binary(BinOp::Add, i, one);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.add_phi_incoming(i, b.entry_block(), zero);
        b.add_phi_incoming(i, body, i2);
        b.finish().unwrap()
    }

    /// Two workers latch the same liveout register from `br`-terminated
    /// loop states. The slow worker latches last in simulated time; the
    /// fast one latches its last value earlier, but in a later step of the
    /// event-driven engine. The latest write in simulated time wins on
    /// both engines.
    #[test]
    fn the_latest_liveout_write_in_simulated_time_wins() {
        let funcs = [tally(true), tally(false)];
        for f in &funcs {
            let fsm = schedule_function(f);
            let latch = |i: &cgpa_ir::InstId| matches!(f.inst(*i).op, Op::StoreLiveout { .. });
            let state = fsm.states.iter().find(|s| s.ops.iter().any(latch)).unwrap();
            assert!(state.ops.iter().any(|&i| matches!(f.inst(i).op, Op::Br { .. })));
        }
        let fsms: Vec<Fsm> = funcs.iter().map(schedule_function).collect();
        let [(ev, ev_live, ev_vcd), (rf, rf_live, rf_vcd)] = engines().map(|cfg| {
            let instances = [(1000, 10), (2000, 75)]
                .into_iter()
                .enumerate()
                .map(|(func, (tag, n))| Instance {
                    func,
                    args: vec![Value::I32(tag), Value::I32(n)],
                    label: format!("w{func}"),
                })
                .collect();
            let funcs = funcs.iter().collect();
            let mut sys =
                HwSystem::build(funcs, fsms.as_slice().into(), &[], 1, instances, cfg, "t");
            sys.enable_trace();
            let stats = sys.run(&mut SimMemory::new(1 << 12)).unwrap();
            let vcd = sys.take_trace().expect("trace armed").to_vcd("t");
            (stats, sys.liveouts().to_vec(), vcd)
        });
        assert_eq!(rf_live, [Some(Value::I32(1009))], "the slow worker does not latch last");
        assert_eq!(ev_live, rf_live, "engines latch different liveouts");
        assert_same_stats(&ev, &rf);
        assert!(ev_vcd == rf_vcd, "VCD waveforms differ between engines");
    }
}
