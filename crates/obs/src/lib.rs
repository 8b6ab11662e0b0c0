//! # cgpa-obs — structured tracing for the CGPA toolchain
//!
//! A zero-dependency span/event API with a Chrome-trace/Perfetto JSON
//! exporter. Two layers of the toolchain record into it:
//!
//! - the **compile pipeline** emits one span per phase (alias, PDG, SCC
//!   condensation, classification, partition, transform, FSM scheduling,
//!   Verilog emission) on a wall-clock timeline, each annotated with
//!   artifact-size counters (PDG nodes/edges, SCC counts by class, stage
//!   and worker counts, FSM states);
//! - the **simulator** emits per-iteration pipeline spans (iteration *N*
//!   enters/retires on worker *W*) and asynchronous FIFO-occupancy counter
//!   tracks on a cycle timeline, identically under both engines.
//!
//! The two timelines live in different trace *processes* (`pid`s), so a
//! single exported file shows compile-time and simulated-time side by side
//! without unit confusion: compile spans tick in microseconds, simulator
//! spans tick one trace-microsecond per simulated cycle.
//!
//! [`Recorder`] is clonable and thread-safe (an `Arc` around a mutexed
//! event list); [`Span`] is an RAII guard for wall-clock phases; [`Counter`]
//! is a handle for one counter track. [`Recorder::to_chrome_json`] renders
//! the whole recording in the Chrome trace-event format, which Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing` load directly.
//!
//! ```
//! use cgpa_obs::{Recorder, Track};
//!
//! let rec = Recorder::new();
//! rec.name_process(1, "compile demo");
//! let track = Track { rec: rec.clone(), pid: 1, tid: 1 };
//! {
//!     let span = track.span("pdg", "analysis");
//!     span.arg("nodes", 42u64);
//! } // span ends when dropped
//! let json = rec.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! assert!(json.contains("\"ph\":\"B\""));
//! ```

pub mod json;

use json::Json;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded trace event. Maps 1:1 onto Chrome trace-event phases
/// (`B`/`E`/`C`/`M`).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened (`ph: "B"`).
    Begin {
        /// Span name.
        name: String,
        /// Category tag.
        cat: String,
        /// Trace process.
        pid: u32,
        /// Trace thread (track within the process).
        tid: u32,
        /// Timestamp in trace microseconds.
        ts: u64,
        /// Key/value annotations (artifact sizes, cycle counts, …).
        args: Vec<(String, Json)>,
    },
    /// The innermost open span on `(pid, tid)` closed (`ph: "E"`).
    End {
        /// Trace process.
        pid: u32,
        /// Trace thread.
        tid: u32,
        /// Timestamp in trace microseconds.
        ts: u64,
    },
    /// A counter-track sample (`ph: "C"`).
    Counter {
        /// Counter track name.
        name: String,
        /// Trace process.
        pid: u32,
        /// Trace thread.
        tid: u32,
        /// Timestamp in trace microseconds.
        ts: u64,
        /// Sampled value.
        value: f64,
    },
    /// Process-name metadata (`ph: "M"`, `process_name`).
    ProcessName {
        /// Trace process.
        pid: u32,
        /// Display name.
        name: String,
    },
    /// Thread-name metadata (`ph: "M"`, `thread_name`).
    ThreadName {
        /// Trace process.
        pid: u32,
        /// Trace thread.
        tid: u32,
        /// Display name.
        name: String,
    },
}

impl Event {
    /// Timestamp of a timed event (`None` for metadata).
    #[must_use]
    pub fn ts(&self) -> Option<u64> {
        match self {
            Event::Begin { ts, .. } | Event::End { ts, .. } | Event::Counter { ts, .. } => {
                Some(*ts)
            }
            Event::ProcessName { .. } | Event::ThreadName { .. } => None,
        }
    }

    /// Trace process the event belongs to.
    #[must_use]
    pub fn pid(&self) -> u32 {
        match self {
            Event::Begin { pid, .. }
            | Event::End { pid, .. }
            | Event::Counter { pid, .. }
            | Event::ProcessName { pid, .. }
            | Event::ThreadName { pid, .. } => *pid,
        }
    }
}

/// Thread-safe event recorder. Cloning is cheap (shared `Arc`); every clone
/// appends to the same event list. Wall-clock timestamps are microseconds
/// since the recorder was created.
#[derive(Clone)]
pub struct Recorder {
    events: Arc<Mutex<Vec<Event>>>,
    origin: Instant,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.events.lock().map(|e| e.len()).unwrap_or(0);
        write!(f, "Recorder({n} events)")
    }
}

impl Recorder {
    /// Create an empty recorder; its wall clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder { events: Arc::new(Mutex::new(Vec::new())), origin: Instant::now() }
    }

    /// Microseconds elapsed since the recorder was created.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn push(&self, e: Event) {
        self.events.lock().expect("recorder poisoned").push(e);
    }

    /// Name a trace process (a Perfetto process group).
    pub fn name_process(&self, pid: u32, name: impl Into<String>) {
        self.push(Event::ProcessName { pid, name: name.into() });
    }

    /// Name a track within a process (a Perfetto thread lane).
    pub fn name_thread(&self, pid: u32, tid: u32, name: impl Into<String>) {
        self.push(Event::ThreadName { pid, tid, name: name.into() });
    }

    /// Open a span at an explicit timestamp (used by the simulator, whose
    /// clock is the cycle counter). Close it with [`Recorder::end_at`].
    pub fn begin_at(
        &self,
        pid: u32,
        tid: u32,
        ts: u64,
        name: impl Into<String>,
        cat: impl Into<String>,
    ) {
        self.push(Event::Begin {
            name: name.into(),
            cat: cat.into(),
            pid,
            tid,
            ts,
            args: Vec::new(),
        });
    }

    /// Close the innermost open span on `(pid, tid)` at `ts`.
    pub fn end_at(&self, pid: u32, tid: u32, ts: u64) {
        self.push(Event::End { pid, tid, ts });
    }

    /// Sample a counter track at an explicit timestamp.
    pub fn counter_at(&self, pid: u32, tid: u32, ts: u64, name: impl Into<String>, value: f64) {
        self.push(Event::Counter { name: name.into(), pid, tid, ts, value });
    }

    /// Open a wall-clock span; it ends (and records its end timestamp) when
    /// the returned guard drops. Attach annotations with [`Span::arg`].
    #[must_use]
    pub fn span(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<String>,
        cat: impl Into<String>,
    ) -> Span {
        let index = {
            let mut ev = self.events.lock().expect("recorder poisoned");
            ev.push(Event::Begin {
                name: name.into(),
                cat: cat.into(),
                pid,
                tid,
                ts: self.now_us(),
                args: Vec::new(),
            });
            ev.len() - 1
        };
        Span { rec: self.clone(), pid, tid, index }
    }

    /// Snapshot of every event recorded so far, in recording order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("recorder poisoned").clone()
    }

    /// Render the recording in the Chrome trace-event JSON format (loadable
    /// in Perfetto and `chrome://tracing`).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let events = self.events.lock().expect("recorder poisoned");
        let events = events.iter().map(Event::to_chrome).collect();
        Json::obj([("displayTimeUnit", "ms".into()), ("traceEvents", Json::Arr(events))])
            .to_string()
    }
}

impl Event {
    /// This event as one Chrome trace-event object.
    fn to_chrome(&self) -> Json {
        let metadata = |kind: &str, pid: u32, tid: u32, name: &str| {
            Json::obj([
                ("name", kind.into()),
                ("ph", "M".into()),
                ("pid", pid.into()),
                ("tid", tid.into()),
                ("args", Json::obj([("name", name.into())])),
            ])
        };
        match self {
            Event::Begin { name, cat, pid, tid, ts, args } => {
                let mut members = vec![
                    ("name", name.as_str().into()),
                    ("cat", cat.as_str().into()),
                    ("ph", "B".into()),
                    ("ts", (*ts).into()),
                    ("pid", (*pid).into()),
                    ("tid", (*tid).into()),
                ];
                if !args.is_empty() {
                    members.push(("args", Json::Obj(args.clone())));
                }
                Json::obj(members)
            }
            Event::End { pid, tid, ts } => Json::obj([
                ("ph", "E".into()),
                ("ts", (*ts).into()),
                ("pid", (*pid).into()),
                ("tid", (*tid).into()),
            ]),
            Event::Counter { name, pid, tid, ts, value } => Json::obj([
                ("name", name.as_str().into()),
                ("ph", "C".into()),
                ("ts", (*ts).into()),
                ("pid", (*pid).into()),
                ("tid", (*tid).into()),
                ("args", Json::obj([("value", (*value).into())])),
            ]),
            Event::ProcessName { pid, name } => metadata("process_name", *pid, 0, name),
            Event::ThreadName { pid, tid, name } => metadata("thread_name", *pid, *tid, name),
        }
    }
}

/// RAII guard for a wall-clock span opened by [`Recorder::span`] (or
/// [`Track::span`]). The span closes when the guard drops.
pub struct Span {
    rec: Recorder,
    pid: u32,
    tid: u32,
    index: usize,
}

impl Span {
    /// Attach a key/value annotation to the span's opening event (artifact
    /// sizes, names, configuration…). Visible in Perfetto's detail pane.
    pub fn arg(&self, key: impl Into<String>, value: impl Into<Json>) {
        let mut ev = self.rec.events.lock().expect("recorder poisoned");
        if let Some(Event::Begin { args, .. }) = ev.get_mut(self.index) {
            args.push((key.into(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let ts = self.rec.now_us();
        self.rec.end_at(self.pid, self.tid, ts);
    }
}

/// Handle for one counter track (a named value-over-time lane in Perfetto).
#[derive(Clone)]
pub struct Counter {
    rec: Recorder,
    pid: u32,
    tid: u32,
    name: String,
}

impl Counter {
    /// Create a handle for counter `name` on `(pid, tid)`.
    #[must_use]
    pub fn new(rec: &Recorder, pid: u32, tid: u32, name: impl Into<String>) -> Self {
        Counter { rec: rec.clone(), pid, tid, name: name.into() }
    }

    /// Sample the counter at an explicit timestamp.
    pub fn sample_at(&self, ts: u64, value: f64) {
        self.rec.counter_at(self.pid, self.tid, ts, self.name.clone(), value);
    }

    /// Sample the counter now (wall clock).
    pub fn sample(&self, value: f64) {
        let ts = self.rec.now_us();
        self.sample_at(ts, value);
    }
}

/// A `(recorder, pid, tid)` bundle: the context a compile phase needs to
/// record onto one track. Threading a `&Track` through the compiler keeps
/// the per-crate instrumentation signatures small.
#[derive(Clone)]
pub struct Track {
    /// The shared recorder.
    pub rec: Recorder,
    /// Trace process of this track.
    pub pid: u32,
    /// Track (thread) within the process.
    pub tid: u32,
}

impl Track {
    /// Open a wall-clock span on this track (ends on drop).
    #[must_use]
    pub fn span(&self, name: impl Into<String>, cat: impl Into<String>) -> Span {
        self.rec.span(self.pid, self.tid, name, cat)
    }

    /// Sample a counter on this track now.
    pub fn counter(&self, name: impl Into<String>, value: f64) {
        let ts = self.rec.now_us();
        self.rec.counter_at(self.pid, self.tid, ts, name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_guard_balances_begin_end() {
        let rec = Recorder::new();
        {
            let s = rec.span(1, 1, "outer", "test");
            s.arg("n", 3u64);
            let _inner = rec.span(1, 1, "inner", "test");
        }
        let ev = rec.events();
        assert_eq!(ev.len(), 4);
        assert!(matches!(&ev[0], Event::Begin { name, args, .. }
            if name == "outer" && args == &[("n".to_string(), Json::Num(3.0))]));
        assert!(matches!(&ev[1], Event::Begin { name, .. } if name == "inner"));
        // Inner ends before outer (drop order).
        assert!(matches!(ev[2], Event::End { .. }));
        assert!(matches!(ev[3], Event::End { .. }));
    }

    #[test]
    fn explicit_timestamps_and_counters_round_trip() {
        let rec = Recorder::new();
        rec.name_process(2, "sim");
        rec.name_thread(2, 1, "w0");
        rec.begin_at(2, 1, 0, "iter 0", "iter");
        rec.counter_at(2, 0, 3, "q0 beats", 4.0);
        rec.end_at(2, 1, 7);
        let j = rec.to_chrome_json();
        let v = json::Json::parse(&j).expect("exporter output parses");
        let events = v.get("traceEvents").and_then(json::Json::as_arr).expect("traceEvents");
        assert_eq!(events.len(), 5);
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(json::Json::as_str)).collect();
        assert_eq!(phases, ["M", "M", "B", "C", "E"]);
        assert_eq!(
            events[3].get("args").and_then(|a| a.get("value")).and_then(json::Json::as_f64),
            Some(4.0)
        );
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..10u64 {
                        rec.begin_at(1, t, i, format!("e{i}"), "t");
                        rec.end_at(1, t, i);
                    }
                });
            }
        });
        assert_eq!(rec.events().len(), 80);
        let j = rec.to_chrome_json();
        assert!(json::Json::parse(&j).is_ok());
    }

    #[test]
    fn json_escapes_special_characters_in_names() {
        let rec = Recorder::new();
        rec.begin_at(1, 1, 0, "a\"b\\c\n", "cat");
        rec.end_at(1, 1, 1);
        let j = rec.to_chrome_json();
        assert!(json::Json::parse(&j).is_ok(), "escaped output must parse: {j}");
    }

    #[test]
    fn chrome_json_is_a_fixed_point_of_parse_then_write() {
        let rec = Recorder::new();
        rec.name_process(2, "sim \"q\"");
        rec.name_thread(2, 1, "w0");
        {
            let s = rec.span(1, 1, "pdg", "analysis");
            s.arg("nodes", 42u64);
            s.arg("ratio", 0.25);
            s.arg("name", "a\tb");
            s.arg("ok", true);
        }
        rec.counter_at(2, 0, 3, "q0 beats", 4.0);
        let text = rec.to_chrome_json();
        assert_eq!(json::Json::parse(&text).expect("trace parses").to_string(), text);
    }
}
