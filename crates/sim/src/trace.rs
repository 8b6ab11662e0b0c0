//! Execution tracing: one event log per hardware run, two exporters.
//!
//! A [`Trace`] records every observable change of a hardware run — each
//! worker's FSM state, stall cause, loop back edges and finish flag, plus
//! aggregate FIFO occupancy per queue. [`Trace::to_vcd`] renders it as a
//! Value Change Dump, viewable in GTKWave or any waveform viewer;
//! [`Trace::replay_into`] turns it into per-iteration spans and
//! FIFO-occupancy counters on a `cgpa-obs` [`Recorder`] (a Perfetto
//! trace). The pipeline fill/drain behaviour the paper describes in §2.2
//! (the sequential stage running ahead, workers stalling on empty FIFOs) is
//! directly visible in both.
//!
//! Both engines record the same log, so arming a trace does not force the
//! per-cycle stepper, and a traced run steps the same workers as an
//! untraced one. Finishes and queue handshakes happen only on cycles the
//! event-driven engine steps the worker in. A worker that runs ahead of the
//! clock through register-only states changes FSM state (and takes back
//! edges) on cycles the engine may not evaluate at all, and a worker whose
//! load response was taken at issue stops waiting on memory at the
//! response cycle; the step that opens such a window records its `State`,
//! `Iteration` and `Stall` events at once, each at its own cycle, from the
//! worker's run-ahead log. So a run records events out of order across
//! workers, and puts them in the per-cycle stepper's (cycle, worker) order
//! once, when it ends (see [`Trace::events`]).

use cgpa_obs::Recorder;
use std::fmt::Write as _;

/// Why a worker is not retiring work this cycle, as shown in the
/// `w{n}_cause` waveform variable. Mirrors the stall-attribution buckets
/// of [`WorkerStats`](crate::stats::WorkerStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Executing or burning state latency (not stalled).
    Busy,
    /// Waiting on a load response.
    MemRead,
    /// Blocked pushing into a full queue.
    QueuePush,
    /// Starved popping from an empty queue.
    QueuePop,
    /// Clock-gated by an injected stall window.
    Frozen,
}

impl StallCause {
    /// Numeric code emitted into the VCD stream.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            StallCause::Busy => 0,
            StallCause::MemRead => 1,
            StallCause::QueuePush => 2,
            StallCause::QueuePop => 3,
            StallCause::Frozen => 4,
        }
    }
}

/// One sampled change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A worker moved to a new FSM state.
    State {
        /// Cycle of the change.
        cycle: u64,
        /// Worker index.
        worker: u32,
        /// New state index.
        state: u32,
    },
    /// A worker raised its finish signal.
    Finish {
        /// Cycle of the change.
        cycle: u64,
        /// Worker index.
        worker: u32,
    },
    /// A queue's total occupancy (beats, summed over channels) changed.
    QueueOccupancy {
        /// Cycle of the change.
        cycle: u64,
        /// Queue index.
        queue: u32,
        /// New occupancy in beats.
        beats: u32,
    },
    /// A worker's stall classification changed.
    Stall {
        /// Cycle of the change.
        cycle: u64,
        /// Worker index.
        worker: u32,
        /// New classification.
        cause: StallCause,
    },
    /// A worker took a loop back edge, retiring its current iteration.
    Iteration {
        /// Cycle of the back edge.
        cycle: u64,
        /// Worker index.
        worker: u32,
    },
}

/// A recorded run.
///
/// ```
/// use cgpa_sim::trace::{Trace, TraceEvent};
///
/// let mut t = Trace::new("acc", vec!["loop".into()], vec![]);
/// t.record(TraceEvent::State { cycle: 0, worker: 0, state: 0 });
/// t.record(TraceEvent::Finish { cycle: 8, worker: 0 });
/// let vcd = t.to_vcd("acc");
/// assert!(vcd.contains("$var wire 1"));
/// assert!(vcd.contains("#8"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in the order the per-cycle stepper records them, once a
    /// hardware run has ended: by cycle, within a cycle by worker, each
    /// worker's events of a cycle in the order it took them, and the
    /// queue occupancies of the cycle after every worker's, in queue order.
    /// A failed run keeps the events recorded before the point where it
    /// stopped.
    pub events: Vec<TraceEvent>,
    /// Design name (labels the run in a replayed trace).
    pub design: String,
    /// Display label per traced worker, in worker order.
    pub workers: Vec<String>,
    /// Name per traced queue, in queue order.
    pub queues: Vec<String>,
    /// Where the run stopped: its cycle count, or the end of the cycle a
    /// failure was detected on. [`Trace::replay_into`] closes every span
    /// still open here.
    pub end_cycle: u64,
}

impl Trace {
    /// Create an empty trace for the given topology.
    #[must_use]
    pub fn new(design: impl Into<String>, workers: Vec<String>, queues: Vec<String>) -> Self {
        Trace { events: Vec::new(), design: design.into(), workers, queues, end_cycle: 0 }
    }

    /// Append an event. A hardware run records each worker's events in
    /// cycle order and leaves the order across workers to
    /// [`HwSystem::run`](crate::HwSystem::run), which sorts them when it
    /// ends.
    pub fn record(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// Put a hardware run's events in the order [`Trace::events`] states,
    /// and keep those before `stop`: the cycle the run stopped in and the
    /// first worker it did not step there. The sort is stable, so each
    /// worker's events of one cycle keep the order it recorded them in.
    pub(crate) fn order(&mut self, stop: (u64, usize)) {
        let workers = self.workers.len();
        let key = |e: &TraceEvent| match *e {
            TraceEvent::QueueOccupancy { cycle, .. } => (cycle, workers),
            TraceEvent::State { cycle, worker, .. }
            | TraceEvent::Finish { cycle, worker }
            | TraceEvent::Stall { cycle, worker, .. }
            | TraceEvent::Iteration { cycle, worker } => (cycle, worker as usize),
        };
        self.events.sort_by_key(key);
        let kept = self.events.partition_point(|e| key(e) < stop);
        self.events.truncate(kept);
    }

    /// Render the trace as a VCD document.
    #[must_use]
    pub fn to_vcd(&self, design_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date generated by cgpa-sim $end");
        let _ = writeln!(out, "$timescale 5ns $end"); // 200 MHz
        let _ = writeln!(out, "$scope module {design_name} $end");
        let mut state_ids = Vec::new();
        let mut fin_ids = Vec::new();
        let mut cause_ids = Vec::new();
        let mut queue_ids = Vec::new();
        for w in 0..self.workers.len() {
            let c = vcd_code(3 * w);
            let _ = writeln!(out, "$var integer 16 {c} w{w}_state $end");
            state_ids.push(c);
            let f = vcd_code(3 * w + 1);
            let _ = writeln!(out, "$var wire 1 {f} w{w}_finish $end");
            fin_ids.push(f);
            let s = vcd_code(3 * w + 2);
            let _ = writeln!(out, "$var integer 8 {s} w{w}_cause $end");
            cause_ids.push(s);
        }
        for q in 0..self.queues.len() {
            let c = vcd_code(3 * self.workers.len() + q);
            let _ = writeln!(out, "$var integer 16 {c} q{q}_beats $end");
            queue_ids.push(c);
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        let _ = writeln!(out, "$dumpvars");
        for w in 0..self.workers.len() {
            let _ = writeln!(out, "b0 {}", state_ids[w]);
            let _ = writeln!(out, "0{}", fin_ids[w]);
            let _ = writeln!(out, "b0 {}", cause_ids[w]);
        }
        for qid in &queue_ids {
            let _ = writeln!(out, "b0 {qid}");
        }
        let _ = writeln!(out, "$end");
        let mut last_cycle = u64::MAX;
        // Back edges have no waveform variable.
        for e in self.events.iter().filter(|e| !matches!(e, TraceEvent::Iteration { .. })) {
            let cycle = cycle_of(*e);
            if cycle != last_cycle {
                let _ = writeln!(out, "#{cycle}");
                last_cycle = cycle;
            }
            match *e {
                TraceEvent::State { worker, state, .. } => {
                    let _ = writeln!(out, "b{:b} {}", state, state_ids[worker as usize]);
                }
                TraceEvent::Finish { worker, .. } => {
                    let _ = writeln!(out, "1{}", fin_ids[worker as usize]);
                }
                TraceEvent::QueueOccupancy { queue, beats, .. } => {
                    let _ = writeln!(out, "b{:b} {}", beats, queue_ids[queue as usize]);
                }
                TraceEvent::Stall { worker, cause, .. } => {
                    let _ = writeln!(out, "b{:b} {}", cause.code(), cause_ids[worker as usize]);
                }
                TraceEvent::Iteration { .. } => unreachable!("filtered above"),
            }
        }
        out
    }

    /// Replay the run into `rec` on trace process `pid`: a `run` span on
    /// track 0, one span per loop iteration per worker on track `w + 1`
    /// (iteration *N* begins at the cycle after its back edge and ends at
    /// its own), and one FIFO-occupancy counter track per queue set. Spans
    /// a failed run left open close at [`Trace::end_cycle`].
    pub fn replay_into(&self, rec: &Recorder, pid: u32) {
        let tid = |worker: usize| worker as u32 + 1;
        let counter = |queue: usize| format!("q{queue} {} beats", self.queues[queue]);
        rec.name_process(pid, format!("sim {}", self.design));
        rec.name_thread(pid, 0, "pipeline");
        for (w, label) in self.workers.iter().enumerate() {
            rec.name_thread(pid, tid(w), label.clone());
        }
        // The run span and every worker's first iteration open at cycle 0;
        // counter tracks get an initial (empty-queue) sample so Perfetto
        // draws them from the origin.
        rec.begin_at(pid, 0, 0, format!("run {}", self.design), "sim");
        for w in 0..self.workers.len() {
            rec.begin_at(pid, tid(w), 0, "iter 0", "iteration");
        }
        for q in 0..self.queues.len() {
            rec.counter_at(pid, 0, 0, counter(q), 0.0);
        }
        let mut iterations = vec![0u64; self.workers.len()];
        let mut open = vec![true; self.workers.len()];
        for e in &self.events {
            match *e {
                // A back edge retires the current iteration: its span
                // covers every cycle up to and including this one, and the
                // next iteration opens at the boundary.
                TraceEvent::Iteration { cycle, worker } => {
                    let w = worker as usize;
                    iterations[w] += 1;
                    rec.end_at(pid, tid(w), cycle + 1);
                    let name = format!("iter {}", iterations[w]);
                    rec.begin_at(pid, tid(w), cycle + 1, name, "iteration");
                }
                // `Ret` ends the final iteration without a successor.
                TraceEvent::Finish { cycle, worker } => {
                    open[worker as usize] = false;
                    rec.end_at(pid, tid(worker as usize), cycle + 1);
                }
                TraceEvent::QueueOccupancy { cycle, queue, beats } => {
                    rec.counter_at(pid, 0, cycle, counter(queue as usize), f64::from(beats));
                }
                TraceEvent::State { .. } | TraceEvent::Stall { .. } => {}
            }
        }
        for w in (0..self.workers.len()).filter(|&w| open[w]) {
            rec.end_at(pid, tid(w), self.end_cycle);
        }
        rec.end_at(pid, 0, self.end_cycle);
    }
}

/// The VCD identifier code of signal `n`: bijective base 93 over printable
/// ASCII from `!` to `~` without `#`, so codes 0 to 92 are one character.
fn vcd_code(n: usize) -> String {
    let prefix = if n < 93 { String::new() } else { vcd_code(n / 93 - 1) };
    let d = (n % 93) as u8 + b'!';
    format!("{prefix}{}", char::from(d + u8::from(d >= b'#')))
}

fn cycle_of(e: TraceEvent) -> u64 {
    match e {
        TraceEvent::State { cycle, .. }
        | TraceEvent::Finish { cycle, .. }
        | TraceEvent::QueueOccupancy { cycle, .. }
        | TraceEvent::Stall { cycle, .. }
        | TraceEvent::Iteration { cycle, .. } => cycle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("toy", vec!["gen".into(), "sink".into()], vec!["vals".into()]);
        t.record(TraceEvent::State { cycle: 0, worker: 0, state: 0 });
        t.record(TraceEvent::State { cycle: 0, worker: 1, state: 0 });
        t.record(TraceEvent::QueueOccupancy { cycle: 3, queue: 0, beats: 1 });
        t.record(TraceEvent::Stall { cycle: 3, worker: 1, cause: StallCause::QueuePop });
        t.record(TraceEvent::State { cycle: 3, worker: 0, state: 2 });
        t.record(TraceEvent::State { cycle: 5, worker: 0, state: 0 });
        t.record(TraceEvent::Finish { cycle: 9, worker: 0 });
        t.record(TraceEvent::Finish { cycle: 9, worker: 1 });
        t
    }

    #[test]
    fn vcd_has_header_vars_and_timestamps() {
        let vcd = sample().to_vcd("toy");
        assert!(vcd.contains("$timescale 5ns $end"));
        assert!(vcd.contains("$scope module toy $end"));
        assert!(vcd.contains("w0_state"));
        assert!(vcd.contains("w1_finish"));
        assert!(vcd.contains("w1_cause"));
        assert!(vcd.contains("q0_beats"));
        assert!(vcd.contains("#3"));
        assert!(vcd.contains("#9"));
        assert!(vcd.contains("$enddefinitions $end"));
    }

    #[test]
    fn timestamps_are_emitted_once_per_cycle() {
        let vcd = sample().to_vcd("toy");
        assert_eq!(vcd.matches("#9").count(), 1);
        assert_eq!(vcd.matches("#3").count(), 1);
    }

    #[test]
    fn replay_numbers_iterations_and_closes_at_the_end() {
        use cgpa_obs::Event;
        let mut t = Trace::new("toy", vec!["gen".into()], vec!["vals".into()]);
        t.record(TraceEvent::Iteration { cycle: 4, worker: 0 });
        t.record(TraceEvent::QueueOccupancy { cycle: 4, queue: 0, beats: 2 });
        t.record(TraceEvent::Iteration { cycle: 9, worker: 0 });
        t.end_cycle = 12;
        let rec = Recorder::new();
        t.replay_into(&rec, 2);
        let timed: Vec<(char, u32, u64)> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Begin { tid, ts, .. } => Some(('B', *tid, *ts)),
                Event::End { tid, ts, .. } => Some(('E', *tid, *ts)),
                Event::Counter { tid, ts, .. } => Some(('C', *tid, *ts)),
                _ => None,
            })
            .collect();
        // No Finish: the run failed, so the open `iter 2` and run spans
        // close at the end cycle.
        assert_eq!(
            timed,
            [
                ('B', 0, 0),
                ('B', 1, 0),
                ('C', 0, 0),
                ('E', 1, 5),
                ('B', 1, 5),
                ('C', 0, 4),
                ('E', 1, 10),
                ('B', 1, 10),
                ('E', 1, 12),
                ('E', 0, 12)
            ]
        );
        let names: Vec<String> = rec
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Begin { name, .. } | Event::Counter { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(
            names,
            ["run toy", "iter 0", "q0 vals beats", "iter 1", "q0 vals beats", "iter 2"]
        );
    }

    /// A run records a window's events when the step that opens it runs;
    /// `order` puts them in (cycle, worker) order, queue occupancies last
    /// in their cycle, and keeps what comes before the stop.
    #[test]
    fn order_sorts_by_cycle_then_worker_and_cuts_at_the_stop() {
        let state = |cycle, worker| TraceEvent::State { cycle, worker, state: 1 };
        let busy = |cycle, worker| TraceEvent::Stall { cycle, worker, cause: StallCause::Busy };
        let queue = |cycle| TraceEvent::QueueOccupancy { cycle, queue: 0, beats: 1 };
        let mut run = Trace::new("toy", vec!["a".into(), "b".into()], vec!["q".into()]);
        // Worker 1's step in cycle 2 opens a window that moves it in cycle 4.
        run.events = vec![
            state(2, 0),
            state(2, 1),
            busy(2, 1),
            state(4, 1),
            queue(2),
            state(3, 0),
            queue(3),
            state(4, 0),
        ];
        let ordered = [
            state(2, 0),
            state(2, 1),
            busy(2, 1),
            queue(2),
            state(3, 0),
            queue(3),
            state(4, 0),
            state(4, 1),
        ];
        // A run stopped at worker 1's step in cycle 4, or before it in
        // cycle 4 or 3, or after cycle 4.
        for (stop, kept) in [((4, 1), 7), ((4, 0), 6), ((3, 1), 5), ((5, 0), 8)] {
            let mut t = run.clone();
            t.order(stop);
            assert_eq!(t.events, ordered[..kept], "stopped at {stop:?}");
        }
    }

    /// 128 workers and 64 queues declare 448 signals, past the 93
    /// one-character codes: every code stays unique and printable, the
    /// first 93 are the printable characters from `!` on without `#`, and
    /// the next ones have two characters.
    #[test]
    fn identifier_codes_stay_unique_and_printable_past_93_signals() {
        let t = Trace::new("wide", vec![String::new(); 128], vec![String::new(); 64]);
        let vcd = t.to_vcd("wide");
        let ids: Vec<&str> = vcd
            .lines()
            .filter(|l| l.starts_with("$var"))
            .map(|l| l.split_whitespace().nth(3).expect("id"))
            .collect();
        assert_eq!(ids.len(), 3 * 128 + 64);
        assert!(ids.iter().all(|c| c.bytes().all(|b| b.is_ascii_graphic() && b != b'#')));
        let singles: String = ids[..93].concat();
        let printable: String = ('!'..='~').filter(|&c| c != '#').collect();
        assert_eq!(singles, printable);
        assert_eq!(ids[93..].iter().map(|c| c.len()).collect::<Vec<_>>(), vec![2; ids.len() - 93]);
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }
}
