//! Bottleneck profiling: rolls the simulator's per-worker stall buckets up
//! to pipeline stages and names the resource that limits a run.
//!
//! The paper's argument (§3.3, Table 2) is that a coarse-grained pipeline
//! wins only when the *parallel* stage is the bottleneck — not a sequential
//! stage, a FIFO, or the memory port. A [`Profile`] makes that diagnosis
//! explicit: per-stage utilization (busy cycles over worker-cycles),
//! per-queue occupancy/wait statistics, memory-port pressure, and a single
//! [`Bottleneck`] verdict. It is a report, not a search: `experiments
//! profile` renders it for the default design, and `experiments bench`
//! renders the verdict for the point the design-space explorer
//! ([`crate::dse`]) recommends.
//!
//! Profiles are engine-independent: both simulation engines produce
//! bit-identical statistics (enforced by `tests/differential_engines.rs`),
//! so a profile built from an event-driven run equals the per-cycle one.

use crate::compiler::Compiled;
use crate::flows::HwTuning;
use cgpa_obs::json::Json;
use cgpa_pipeline::StageKind;
use cgpa_sim::SystemStats;
use std::error::Error;
use std::fmt::{self, Write as _};

/// Cycle buckets of one pipeline stage, summed over its worker instances.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Stage index (pipeline order).
    pub stage: usize,
    /// Task function name (`"<loop>_stage<k>"`).
    pub name: String,
    /// True for the parallel stage (scalable by adding workers).
    pub parallel: bool,
    /// Worker instances of this stage.
    pub workers: u32,
    /// Busy cycles, summed over the stage's workers.
    pub busy: u64,
    /// Load-response wait cycles.
    pub stall_mem_read: u64,
    /// Store back-pressure wait cycles (structurally zero under the
    /// fire-and-forget store buffer; kept for schema closure).
    pub stall_mem_write: u64,
    /// Cycles blocked pushing into full queues.
    pub stall_push: u64,
    /// Cycles starved popping from empty queues.
    pub stall_pop: u64,
    /// Idle cycles (finished early, or clock-gated by fault injection).
    pub idle: u64,
    /// `busy / (workers × kernel cycles)` — 1.0 means the stage never
    /// waits and the pipeline cannot go faster without scaling it.
    pub utilization: f64,
}

/// Occupancy and wait pressure of one inter-stage queue set.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueProfile {
    /// Queue index (module queue order).
    pub queue: u32,
    /// Queue name.
    pub name: String,
    /// Producing stage index.
    pub producer_stage: usize,
    /// Consuming stage index.
    pub consumer_stage: usize,
    /// Depth per channel in 32-bit beats.
    pub depth_beats: u32,
    /// Time-weighted mean occupancy in beats (per channel).
    pub mean_occupancy: f64,
    /// Fraction of (cycle, channel) samples with no room for an element.
    pub full_fraction: f64,
    /// Fraction of (cycle, channel) samples with no complete element.
    pub empty_fraction: f64,
    /// Producer cycles blocked pushing this queue, summed over workers.
    pub push_wait_cycles: u64,
    /// Consumer cycles starved popping this queue, summed over workers.
    pub pop_wait_cycles: u64,
}

/// Memory-system pressure over the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryProfile {
    /// Cache ports (banks).
    pub ports: u32,
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Cycles lost to bank conflicts.
    pub conflict_cycles: u64,
    /// Load-wait cycles summed over all workers.
    pub read_stall_cycles: u64,
    /// Store-wait cycles summed over all workers (structurally zero).
    pub write_stall_cycles: u64,
    /// Memory stall cycles over total worker-cycles.
    pub stall_fraction: f64,
}

/// The single resource that limits the run.
#[derive(Debug, Clone, PartialEq)]
pub enum Bottleneck {
    /// A stage is (near-)saturated or starves the rest of the pipeline.
    Stage {
        /// Stage index.
        stage: usize,
        /// Its utilization.
        utilization: f64,
    },
    /// Producers spend their wait time blocked on one full queue.
    QueueFull {
        /// Queue index.
        queue: u32,
        /// Its full fraction.
        full_fraction: f64,
    },
    /// Workers spend their wait time on memory responses.
    MemoryPort {
        /// Memory stall cycles over total worker-cycles.
        stall_fraction: f64,
        /// True when miss latency dominates (more outstanding requests
        /// help); false when bank conflicts dominate (more ports help,
        /// more workers hurt).
        latency_bound: bool,
    },
}

impl Bottleneck {
    /// Short machine-readable tag ("stage", "queue-full", "memory-port").
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Bottleneck::Stage { .. } => "stage",
            Bottleneck::QueueFull { .. } => "queue-full",
            Bottleneck::MemoryPort { .. } => "memory-port",
        }
    }
}

/// A serializable bottleneck report for one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Kernel name.
    pub kernel: String,
    /// Configuration label ("CGPA(P1)", "CGPA(P2)").
    pub config: String,
    /// Pipeline shape ("S-P", "S-P-S", …).
    pub shape: String,
    /// Parallel-stage worker count.
    pub workers: u32,
    /// FIFO depth per channel in beats.
    pub fifo_depth_beats: usize,
    /// Kernel cycles (fork to join).
    pub cycles: u64,
    /// Per-stage rollups, pipeline order.
    pub stages: Vec<StageProfile>,
    /// Per-queue statistics, module queue order.
    pub queues: Vec<QueueProfile>,
    /// Memory-system pressure.
    pub memory: MemoryProfile,
    /// The limiting resource.
    pub bottleneck: Bottleneck,
}

/// A parallel stage at or above this utilization is called saturated.
const SATURATION_THRESHOLD: f64 = 0.95;

/// Why [`Profile::from_stats`] could not roll a run up: its statistics come
/// from a different compile than the pipeline it was given, or the pipeline
/// itself gives the verdict nothing to name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The run has `got` workers; the pipeline instantiates `expected`.
    WorkerLayout {
        /// Worker instances the pipeline creates.
        expected: usize,
        /// Workers in the statistics.
        got: usize,
    },
    /// The pipeline has a queue the statistics do not carry.
    MissingQueue {
        /// Module queue index.
        queue: usize,
        /// Queues in the statistics.
        got: usize,
    },
    /// The pipeline has no stages, so no stage can be the bottleneck.
    NoStages,
    /// The queue that starves its consumer names a producer stage the
    /// pipeline does not have.
    UnknownProducer {
        /// Module queue index.
        queue: u32,
        /// The producer stage the queue names.
        stage: usize,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::WorkerLayout { expected, got } => {
                write!(f, "stats have {got} workers, the pipeline {expected}")
            }
            ProfileError::MissingQueue { queue, got } => {
                write!(f, "pipeline queue {queue} is not among the stats' {got} queues")
            }
            ProfileError::NoStages => write!(f, "the pipeline has no stages"),
            ProfileError::UnknownProducer { queue, stage } => {
                write!(f, "queue {queue} names producer stage {stage}, which is not a stage")
            }
        }
    }
}

impl Error for ProfileError {}

impl Profile {
    /// Roll a run's [`SystemStats`] up to the stage level using the
    /// compiled pipeline's worker layout (one worker per sequential stage,
    /// `workers` instances of the parallel stage, in task order — the
    /// exact order `HwSystem::for_pipeline` creates them). `tuning` is the
    /// run's: it supplies the FIFO depth and the cache port count.
    ///
    /// # Errors
    /// [`ProfileError`] when `stats` do not match the pipeline's worker or
    /// queue layout (stats from a different compile), or when the pipeline
    /// has no stage to name (see [`ProfileError::NoStages`] and
    /// [`ProfileError::UnknownProducer`]).
    pub fn from_stats(
        kernel: &str,
        config_label: &str,
        compiled: &Compiled,
        stats: &SystemStats,
        tuning: &HwTuning,
    ) -> Result<Profile, ProfileError> {
        let pm = &compiled.pipeline;
        let expected = pm.worker_count() as usize;
        if expected != stats.workers.len() {
            return Err(ProfileError::WorkerLayout { expected, got: stats.workers.len() });
        }
        let cycles = stats.cycles;
        let mut stages = Vec::new();
        let mut next_worker = 0usize;
        for task in &pm.tasks {
            let count = pm.instances(task) as usize;
            let ws = &stats.workers[next_worker..next_worker + count];
            next_worker += count;
            let busy: u64 = ws.iter().map(|w| w.busy).sum();
            let denom = (count as u64 * cycles) as f64;
            stages.push(StageProfile {
                stage: task.stage,
                name: task.name.clone(),
                parallel: task.kind == StageKind::Parallel,
                workers: count as u32,
                busy,
                stall_mem_read: ws.iter().map(|w| w.stall_mem_read).sum(),
                stall_mem_write: ws.iter().map(|w| w.stall_mem_write).sum(),
                stall_push: ws.iter().map(|w| w.stall_push()).sum(),
                stall_pop: ws.iter().map(|w| w.stall_pop()).sum(),
                idle: ws.iter().map(|w| w.idle).sum(),
                utilization: if denom > 0.0 { busy as f64 / denom } else { 0.0 },
            });
        }

        let mut queues = Vec::new();
        for spec in &pm.queues {
            let qi = spec.queue.index();
            let qs = stats
                .queues
                .get(qi)
                .ok_or(ProfileError::MissingQueue { queue: qi, got: stats.queues.len() })?;
            let (push_wait, pop_wait) = stats
                .workers
                .iter()
                .flat_map(|w| &w.queue_waits)
                .filter(|q| q.queue as usize == qi)
                .fold((0, 0), |(push, pop), q| (push + q.push, pop + q.pop));
            queues.push(QueueProfile {
                queue: qi as u32,
                name: qs.name.clone(),
                producer_stage: spec.producer_stage,
                consumer_stage: spec.consumer_stage,
                depth_beats: qs.depth_beats,
                mean_occupancy: qs.mean_occupancy(),
                full_fraction: qs.full_fraction(),
                empty_fraction: qs.empty_fraction(),
                push_wait_cycles: push_wait,
                pop_wait_cycles: pop_wait,
            });
        }

        let worker_cycles = stats.workers.len() as u64 * cycles;
        let read_stall: u64 = stats.workers.iter().map(|w| w.stall_mem_read).sum();
        let write_stall: u64 = stats.workers.iter().map(|w| w.stall_mem_write).sum();
        let memory = MemoryProfile {
            ports: tuning.cache_config(expected as u32).clamped().banks,
            accesses: stats.cache.accesses,
            hits: stats.cache.hits,
            misses: stats.cache.misses,
            conflict_cycles: stats.cache.conflict_cycles,
            read_stall_cycles: read_stall,
            write_stall_cycles: write_stall,
            stall_fraction: if worker_cycles > 0 {
                (read_stall + write_stall) as f64 / worker_cycles as f64
            } else {
                0.0
            },
        };

        let bottleneck = diagnose(&stages, &queues, &memory)?;
        Ok(Profile {
            kernel: kernel.to_string(),
            config: config_label.to_string(),
            shape: compiled.shape.clone(),
            workers: pm.workers,
            fifo_depth_beats: tuning.fifo_depth_beats,
            cycles,
            stages,
            queues,
            memory,
            bottleneck,
        })
    }

    /// The rollup for pipeline stage `stage`, or `None` when this profile
    /// does not carry it (a [`Bottleneck`] deserialized or assembled out of
    /// band may name such a stage — consumers must not unwrap).
    #[must_use]
    pub fn stage(&self, stage: usize) -> Option<&StageProfile> {
        self.stages.iter().find(|p| p.stage == stage)
    }

    /// The statistics for module queue `queue`, or `None` when this profile
    /// does not carry it.
    #[must_use]
    pub fn queue(&self, queue: u32) -> Option<&QueueProfile> {
        self.queues.iter().find(|p| p.queue == queue)
    }

    /// One-line description of the limiting resource.
    #[must_use]
    pub fn bottleneck_summary(&self) -> String {
        match &self.bottleneck {
            // A `Bottleneck` deserialized or assembled out of band may name a
            // stage/queue this profile does not carry; degrade to an
            // index-only summary instead of panicking.
            Bottleneck::Stage { stage, utilization } => match self.stage(*stage) {
                Some(s) => format!(
                    "stage {} `{}` ({}, {:.0}% utilized)",
                    stage,
                    s.name,
                    if s.parallel { "parallel" } else { "sequential" },
                    utilization * 100.0
                ),
                None => format!(
                    "stage {} (not in profile, {:.0}% utilized)",
                    stage,
                    utilization * 100.0
                ),
            },
            Bottleneck::QueueFull { queue, full_fraction } => match self.queue(*queue) {
                Some(q) => format!(
                    "queue {} `{}` full {:.0}% of the time (stage {} -> {})",
                    queue,
                    q.name,
                    full_fraction * 100.0,
                    q.producer_stage,
                    q.consumer_stage
                ),
                None => format!(
                    "queue {} (not in profile) full {:.0}% of the time",
                    queue,
                    full_fraction * 100.0
                ),
            },
            Bottleneck::MemoryPort { stall_fraction, latency_bound } => format!(
                "memory port ({:.0}% of worker-cycles stalled, {})",
                stall_fraction * 100.0,
                if *latency_bound { "latency-bound" } else { "conflict-bound" }
            ),
        }
    }

    /// Human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} [{}] shape {} · {} workers · FIFO depth {} · {} cycles",
            self.kernel, self.config, self.shape, self.workers, self.fifo_depth_beats, self.cycles
        );
        let _ = writeln!(out, "  bottleneck: {}", self.bottleneck_summary());
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  stage {} `{}` [{} x{}]: util {:>5.1}%  busy {}  mem {}  push {}  pop {}  idle {}",
                s.stage,
                s.name,
                if s.parallel { "par" } else { "seq" },
                s.workers,
                s.utilization * 100.0,
                s.busy,
                s.stall_mem_read + s.stall_mem_write,
                s.stall_push,
                s.stall_pop,
                s.idle
            );
        }
        for q in &self.queues {
            let _ = writeln!(
                out,
                "  queue {} `{}` ({}->{}): occ {:.1}/{} beats, full {:>4.1}%, empty {:>4.1}%, \
                 push-wait {}, pop-wait {}",
                q.queue,
                q.name,
                q.producer_stage,
                q.consumer_stage,
                q.mean_occupancy,
                q.depth_beats,
                q.full_fraction * 100.0,
                q.empty_fraction * 100.0,
                q.push_wait_cycles,
                q.pop_wait_cycles
            );
        }
        let m = &self.memory;
        let _ = writeln!(
            out,
            "  memory: {} ports, {} accesses ({} miss), conflicts {}, read-stall {}, \
             stall-frac {:.1}%",
            m.ports,
            m.accesses,
            m.misses,
            m.conflict_cycles,
            m.read_stall_cycles,
            m.stall_fraction * 100.0
        );
        out
    }

    /// The profile as a JSON object; fractions and means are rounded to
    /// six decimals.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let frac = |x: f64| Json::rounded(x, 6);
        let stages = self.stages.iter().map(|st| {
            Json::obj([
                ("stage", st.stage.into()),
                ("name", st.name.as_str().into()),
                ("parallel", st.parallel.into()),
                ("workers", st.workers.into()),
                ("busy", st.busy.into()),
                ("stall_mem_read", st.stall_mem_read.into()),
                ("stall_mem_write", st.stall_mem_write.into()),
                ("stall_push", st.stall_push.into()),
                ("stall_pop", st.stall_pop.into()),
                ("idle", st.idle.into()),
                ("utilization", frac(st.utilization)),
            ])
        });
        let queues = self.queues.iter().map(|q| {
            Json::obj([
                ("queue", q.queue.into()),
                ("name", q.name.as_str().into()),
                ("producer_stage", q.producer_stage.into()),
                ("consumer_stage", q.consumer_stage.into()),
                ("depth_beats", q.depth_beats.into()),
                ("mean_occupancy", frac(q.mean_occupancy)),
                ("full_fraction", frac(q.full_fraction)),
                ("empty_fraction", frac(q.empty_fraction)),
                ("push_wait_cycles", q.push_wait_cycles.into()),
                ("pop_wait_cycles", q.pop_wait_cycles.into()),
            ])
        });
        let m = &self.memory;
        let memory = Json::obj([
            ("ports", m.ports.into()),
            ("accesses", m.accesses.into()),
            ("hits", m.hits.into()),
            ("misses", m.misses.into()),
            ("conflict_cycles", m.conflict_cycles.into()),
            ("read_stall_cycles", m.read_stall_cycles.into()),
            ("write_stall_cycles", m.write_stall_cycles.into()),
            ("stall_fraction", frac(m.stall_fraction)),
        ]);
        let mut bottleneck = vec![("kind", self.bottleneck.tag().into())];
        match &self.bottleneck {
            Bottleneck::Stage { stage, utilization } => {
                bottleneck
                    .extend([("stage", (*stage).into()), ("utilization", frac(*utilization))]);
            }
            Bottleneck::QueueFull { queue, full_fraction } => {
                bottleneck
                    .extend([("queue", (*queue).into()), ("full_fraction", frac(*full_fraction))]);
            }
            Bottleneck::MemoryPort { stall_fraction, latency_bound } => {
                bottleneck.extend([
                    ("stall_fraction", frac(*stall_fraction)),
                    ("latency_bound", (*latency_bound).into()),
                ]);
            }
        }
        bottleneck.push(("summary", self.bottleneck_summary().into()));
        Json::obj([
            ("kernel", self.kernel.as_str().into()),
            ("config", self.config.as_str().into()),
            ("shape", self.shape.as_str().into()),
            ("workers", self.workers.into()),
            ("fifo_depth_beats", self.fifo_depth_beats.into()),
            ("cycles", self.cycles.into()),
            ("stages", Json::Arr(stages.collect())),
            ("queues", Json::Arr(queues.collect())),
            ("memory", memory),
            ("bottleneck", Json::obj(bottleneck)),
        ])
    }
}

/// Name the limiting resource from the stage/queue/memory rollups.
///
/// A (near-)saturated stage wins outright: it never waits, so nothing else
/// can be holding the pipeline back. Otherwise the dominant *wait* bucket
/// across all workers decides: push waits indict the fullest queue, pop
/// waits indict the starving queue's *producer* stage (the consumer is a
/// victim, not a cause), and memory waits indict the port — split into
/// latency-bound vs conflict-bound by which cost dominates.
///
/// # Errors
/// [`ProfileError::NoStages`] for an empty `stages`, and
/// [`ProfileError::UnknownProducer`] when the starving queue's producer is
/// not among `stages`.
fn diagnose(
    stages: &[StageProfile],
    queues: &[QueueProfile],
    memory: &MemoryProfile,
) -> Result<Bottleneck, ProfileError> {
    let Some(busiest) = stages.iter().max_by(|a, b| a.utilization.total_cmp(&b.utilization)) else {
        return Err(ProfileError::NoStages);
    };
    let busiest_verdict =
        Bottleneck::Stage { stage: busiest.stage, utilization: busiest.utilization };
    if busiest.utilization >= SATURATION_THRESHOLD {
        return Ok(busiest_verdict);
    }
    let push_total: u64 = queues.iter().map(|q| q.push_wait_cycles).sum();
    let pop_total: u64 = queues.iter().map(|q| q.pop_wait_cycles).sum();
    let mem_total = memory.read_stall_cycles + memory.write_stall_cycles;
    if mem_total >= push_total && mem_total >= pop_total && mem_total > 0 {
        return Ok(Bottleneck::MemoryPort {
            stall_fraction: memory.stall_fraction,
            latency_bound: memory.conflict_cycles * 2 <= mem_total,
        });
    }
    if push_total >= pop_total && push_total > 0 {
        let Some(q) = queues.iter().max_by_key(|q| q.push_wait_cycles) else {
            return Ok(busiest_verdict);
        };
        return Ok(Bottleneck::QueueFull { queue: q.queue, full_fraction: q.full_fraction });
    }
    if pop_total > 0 {
        let Some(q) = queues.iter().max_by_key(|q| q.pop_wait_cycles) else {
            return Ok(busiest_verdict);
        };
        let Some(producer) = stages.iter().find(|s| s.stage == q.producer_stage) else {
            return Err(ProfileError::UnknownProducer { queue: q.queue, stage: q.producer_stage });
        };
        return Ok(Bottleneck::Stage { stage: producer.stage, utilization: producer.utilization });
    }
    // No waits anywhere: the busiest stage is the answer even if unsaturated.
    Ok(busiest_verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CgpaCompiler, CgpaConfig};
    use crate::flows::{run_compiled, RunResult, RunSpec, Target};
    use cgpa_kernels::em3d;
    use cgpa_sim::SimEngine;

    fn em3d_profile(tuning: HwTuning) -> (RunResult, Profile) {
        let k = em3d::build(&em3d::Params::fixed(60, 60, 4, 16), 5);
        let config = CgpaConfig::default();
        let compiled = CgpaCompiler::new(config).compile(&k.func, &k.model).unwrap();
        let spec = RunSpec { tuning, ..RunSpec::new(Target::Cgpa(config)) };
        let result = run_compiled(&k, &compiled, &spec).unwrap();
        let stats = result.stats.as_ref().unwrap();
        let profile = Profile::from_stats(&k.name, &result.config, &compiled, stats, &tuning);
        (result, profile.unwrap())
    }

    #[test]
    fn profile_is_engine_independent_and_names_a_bottleneck() {
        let (result, ev) = em3d_profile(HwTuning::default());
        let (_, rf) = em3d_profile(HwTuning { engine: SimEngine::PerCycle, ..HwTuning::default() });
        assert_eq!(ev, rf);
        assert!(!ev.stages.is_empty());
        for s in &ev.stages {
            assert!((0.0..=1.0).contains(&s.utilization), "{s:?}");
        }
        assert!(!ev.bottleneck_summary().is_empty());
        // Every worker-cycle is attributed to exactly one bucket.
        let stats = result.stats.as_ref().unwrap();
        for w in &stats.workers {
            assert_eq!(w.total(), stats.cycles);
        }
    }

    fn stage(stage: usize, parallel: bool, busy: u64, util: f64) -> StageProfile {
        StageProfile {
            stage,
            name: format!("s{stage}"),
            parallel,
            workers: if parallel { 4 } else { 1 },
            busy,
            stall_mem_read: 0,
            stall_mem_write: 0,
            stall_push: 0,
            stall_pop: 0,
            idle: 0,
            utilization: util,
        }
    }

    fn queue(queue: u32, push: u64, pop: u64) -> QueueProfile {
        QueueProfile {
            queue,
            name: format!("q{queue}"),
            producer_stage: 0,
            consumer_stage: 1,
            depth_beats: 16,
            mean_occupancy: 4.0,
            full_fraction: 0.5,
            empty_fraction: 0.1,
            push_wait_cycles: push,
            pop_wait_cycles: pop,
        }
    }

    fn mem(read: u64, conflicts: u64) -> MemoryProfile {
        MemoryProfile {
            ports: 4,
            accesses: 100,
            hits: 90,
            misses: 10,
            conflict_cycles: conflicts,
            read_stall_cycles: read,
            write_stall_cycles: 0,
            stall_fraction: read as f64 / 4000.0,
        }
    }

    #[test]
    fn saturated_stage_wins() {
        let b = diagnose(
            &[stage(0, false, 990, 0.99), stage(1, true, 100, 0.1)],
            &[queue(0, 500, 0)],
            &mem(800, 0),
        );
        assert_eq!(b, Ok(Bottleneck::Stage { stage: 0, utilization: 0.99 }));
    }

    #[test]
    fn dominant_push_wait_blames_the_full_queue() {
        let b = diagnose(
            &[stage(0, false, 500, 0.5), stage(1, true, 400, 0.4)],
            &[queue(0, 900, 10), queue(1, 100, 10)],
            &mem(50, 0),
        );
        assert_eq!(b, Ok(Bottleneck::QueueFull { queue: 0, full_fraction: 0.5 }));
    }

    #[test]
    fn dominant_pop_wait_blames_the_producer_stage() {
        let b = diagnose(
            &[stage(0, false, 500, 0.5), stage(1, true, 400, 0.4)],
            &[queue(0, 10, 900)],
            &mem(50, 0),
        );
        assert_eq!(b, Ok(Bottleneck::Stage { stage: 0, utilization: 0.5 }));
    }

    #[test]
    fn no_stages_is_an_error_not_a_panic() {
        assert_eq!(diagnose(&[], &[queue(0, 5, 7)], &mem(50, 0)), Err(ProfileError::NoStages));
    }

    #[test]
    fn pop_starvation_by_an_absent_producer_is_an_error_not_a_panic() {
        // Queue 3 starves its consumer, but its producer (stage 0) is not
        // among the stages.
        let b = diagnose(&[stage(1, true, 400, 0.4)], &[queue(3, 10, 900)], &mem(50, 0));
        assert_eq!(b, Err(ProfileError::UnknownProducer { queue: 3, stage: 0 }));
    }

    #[test]
    fn dominant_memory_wait_blames_the_port() {
        let b = diagnose(
            &[stage(0, false, 300, 0.3), stage(1, true, 200, 0.2)],
            &[queue(0, 100, 100)],
            &mem(2000, 10),
        );
        match b.unwrap() {
            Bottleneck::MemoryPort { latency_bound, .. } => assert!(latency_bound),
            other => panic!("expected memory-port, got {other:?}"),
        }
    }

    #[test]
    fn conflict_heavy_memory_is_not_latency_bound() {
        let b = diagnose(&[stage(0, false, 300, 0.3)], &[], &mem(2000, 1500));
        match b.unwrap() {
            Bottleneck::MemoryPort { latency_bound, .. } => assert!(!latency_bound),
            other => panic!("expected memory-port, got {other:?}"),
        }
    }

    #[test]
    fn json_parses_back_with_every_field() {
        let p = Profile {
            kernel: "k\"q".into(),
            config: "CGPA(P1)".into(),
            shape: "S-P".into(),
            workers: 4,
            fifo_depth_beats: 16,
            cycles: 1000,
            stages: vec![stage(0, false, 900, 0.9), stage(1, true, 400, 0.1)],
            queues: vec![queue(0, 5, 7)],
            memory: mem(100, 0),
            bottleneck: Bottleneck::QueueFull { queue: 0, full_fraction: 0.5 },
        };
        let doc = Json::parse(&format!("{:#}", p.to_json())).expect("profile JSON parses");
        assert_eq!(doc, p.to_json());
        assert_eq!(doc.get("kernel").and_then(Json::as_str), Some("k\"q"));
        assert_eq!(doc.get("cycles").and_then(Json::as_u64), Some(1000));
        let stages = doc.get("stages").and_then(Json::as_arr).expect("stages");
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].get("utilization").and_then(Json::as_f64), Some(0.9));
        assert_eq!(stages[1].get("parallel"), Some(&Json::Bool(true)));
        let queue = &doc.get("queues").and_then(Json::as_arr).expect("queues")[0];
        assert_eq!(queue.get("push_wait_cycles").and_then(Json::as_u64), Some(5));
        assert_eq!(queue.get("mean_occupancy").and_then(Json::as_f64), Some(4.0));
        let memory = doc.get("memory").expect("memory");
        assert_eq!(memory.get("stall_fraction").and_then(Json::as_f64), Some(0.025));
        let b = doc.get("bottleneck").expect("bottleneck");
        assert_eq!(b.get("kind").and_then(Json::as_str), Some("queue-full"));
        assert_eq!(b.get("queue").and_then(Json::as_u64), Some(0));
        assert_eq!(b.get("full_fraction").and_then(Json::as_f64), Some(0.5));
        assert_eq!(b.get("summary").and_then(Json::as_str), Some(p.bottleneck_summary().as_str()));
        let text = p.render();
        assert!(text.contains("bottleneck: queue 0"));
    }

    #[test]
    fn summary_degrades_when_bottleneck_names_a_missing_stage_or_queue() {
        let mut p = Profile {
            kernel: "k".into(),
            config: "CGPA(P1)".into(),
            shape: "S-P".into(),
            workers: 4,
            fifo_depth_beats: 16,
            cycles: 1000,
            stages: vec![stage(0, false, 900, 0.9)],
            queues: vec![queue(0, 5, 7)],
            memory: mem(100, 0),
            bottleneck: Bottleneck::Stage { stage: 7, utilization: 0.42 },
        };
        assert_eq!(p.bottleneck_summary(), "stage 7 (not in profile, 42% utilized)");
        p.bottleneck = Bottleneck::QueueFull { queue: 9, full_fraction: 0.25 };
        assert_eq!(p.bottleneck_summary(), "queue 9 (not in profile) full 25% of the time");
        // The in-profile paths still resolve names.
        p.bottleneck = Bottleneck::Stage { stage: 0, utilization: 0.9 };
        assert!(p.bottleneck_summary().contains("`s0`"));
    }
}
