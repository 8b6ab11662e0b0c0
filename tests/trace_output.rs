//! End-to-end checks on the Chrome-trace JSON a traced `cgpa::flows::run`
//! records.
//!
//! Two layers: the exported JSON must be structurally sound (parses, every
//! Begin has a matching End per thread, timestamps never run backwards), and
//! the simulator-side event stream must be bit-identical between the
//! per-cycle reference stepper and the event-driven engine — tracing rides
//! the architectural schedule, not the engine's evaluation order. The
//! compile track's events, timestamps aside, are pinned in
//! `tests/golden/compile_trace.txt`.

use std::collections::HashMap;
use std::fmt::Write as _;

use cgpa_repro::cgpa::compiler::CgpaConfig;
use cgpa_repro::cgpa::flows::{run, FlowError, HwTuning, RunResult, RunSpec, Target};
use cgpa_repro::kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_repro::obs::json::Json;
use cgpa_repro::obs::Recorder;
use cgpa_repro::pipeline::ReplicablePlacement;
use cgpa_repro::sim::{FaultClass, FaultPlan, HwError, SimEngine};

const COMPILE_GOLDEN: &str = include_str!("golden/compile_trace.txt");

fn suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, 9),
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 9),
    ]
}

/// A traced CGPA(P1) run and the recorder holding its trace.
fn traced(k: &BuiltKernel, engine: SimEngine) -> (RunResult, Recorder) {
    let recorder = Recorder::new();
    let spec = RunSpec {
        tuning: HwTuning { engine, ..HwTuning::default() },
        recorder: Some(&recorder),
        ..RunSpec::new(Target::Cgpa(CgpaConfig::default()))
    };
    let result = run(k, &spec).unwrap_or_else(|e| panic!("{}: traced run failed: {e}", k.name));
    (result, recorder)
}

fn field_u64(ev: &Json, key: &str) -> u64 {
    ev.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("event lacks `{key}`: {ev:?}"))
}

/// Parse the exported JSON and replay the stream, enforcing the Chrome-trace
/// invariants the viewer relies on.
fn check_well_formed(kernel: &str, json: &str) {
    let doc = Json::parse(json).unwrap_or_else(|e| panic!("{kernel}: trace does not parse: {e}"));
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "{kernel}: missing displayTimeUnit"
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{kernel}: traceEvents is not an array"));
    assert!(!events.is_empty(), "{kernel}: empty trace");

    // Per (pid, tid): span-stack depth for B/E balance, last timestamp for
    // monotonicity. Metadata events carry no ts and are exempt.
    let mut depth: HashMap<(u64, u64), i64> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), u64> = HashMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("event lacks ph");
        if ph == "M" {
            continue;
        }
        let key = (field_u64(ev, "pid"), field_u64(ev, "tid"));
        let ts = field_u64(ev, "ts");
        if let Some(prev) = last_ts.get(&key) {
            assert!(
                ts >= *prev,
                "{kernel}: timestamps run backwards on pid {} tid {} ({prev} -> {ts})",
                key.0,
                key.1
            );
        }
        last_ts.insert(key, ts);
        match ph {
            "B" => {
                assert!(ev.get("name").and_then(Json::as_str).is_some());
                *depth.entry(key).or_insert(0) += 1;
            }
            "E" => {
                let d = depth.entry(key).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "{kernel}: E without B on pid {} tid {}", key.0, key.1);
            }
            "C" => {
                let v = ev.get("args").and_then(|a| a.get("value")).and_then(Json::as_f64);
                assert!(v.is_some(), "{kernel}: counter without args.value");
            }
            other => panic!("{kernel}: unexpected phase `{other}`"),
        }
    }
    for (key, d) in depth {
        assert_eq!(d, 0, "{kernel}: unbalanced spans on pid {} tid {}", key.0, key.1);
    }
}

#[test]
fn trace_json_is_well_formed_for_both_engines() {
    for k in suite() {
        for engine in [SimEngine::PerCycle, SimEngine::EventDriven] {
            let (_, recorder) = traced(&k, engine);
            check_well_formed(&k.name, &recorder.to_chrome_json());
        }
    }
}

#[test]
fn compile_track_carries_every_phase_span() {
    let k = &suite()[0];
    let (_, recorder) = traced(k, SimEngine::EventDriven);
    let doc = Json::parse(&recorder.to_chrome_json()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let compile_spans: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("B")
                && e.get("pid").and_then(Json::as_u64) == Some(1)
        })
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for phase in
        ["compile kmeans", "alias", "pdg", "scc condense", "scc classify", "partition", "transform"]
    {
        assert!(
            compile_spans.contains(&phase),
            "missing compile span `{phase}`: {compile_spans:?}"
        );
    }
    assert!(compile_spans.iter().any(|n| n.starts_with("schedule ")), "no schedule span");
    assert!(compile_spans.iter().any(|n| n.starts_with("verilog")), "no verilog span");
}

#[test]
fn sim_track_has_run_span_iterations_and_queue_counters() {
    for k in suite() {
        let (result, recorder) = traced(&k, SimEngine::EventDriven);
        let doc = Json::parse(&recorder.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let sim: Vec<&Json> =
            events.iter().filter(|e| e.get("pid").and_then(Json::as_u64) == Some(2)).collect();
        assert!(!sim.is_empty(), "{}: no simulator events", k.name);

        // The pipeline-level run span opens at cycle 0 on tid 0 and is the
        // last thing closed on that track.
        let run_begin = sim
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("B")
                    && e.get("tid").and_then(Json::as_u64) == Some(0)
            })
            .unwrap_or_else(|| panic!("{}: no run span", k.name));
        assert_eq!(field_u64(run_begin, "ts"), 0);
        assert!(run_begin
            .get("name")
            .and_then(Json::as_str)
            .is_some_and(|n| n.starts_with("run ")));

        // Every worker thread opens `iter 0` at cycle 0 and ends up with at
        // least one iteration span.
        let iter_begins = sim
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("B")
                    && e.get("name").and_then(Json::as_str).is_some_and(|n| n.starts_with("iter "))
            })
            .count();
        assert!(iter_begins > 0, "{}: no iteration spans", k.name);
        let workers = result.stats.as_ref().map_or(0, |s| s.workers.len());
        let iter_zero_at_zero = sim
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("B")
                    && e.get("name").and_then(Json::as_str) == Some("iter 0")
                    && field_u64(e, "ts") == 0
            })
            .count();
        assert_eq!(iter_zero_at_zero, workers, "{}: iter 0 per worker at cycle 0", k.name);

        // FIFO occupancy shows up as counter tracks on the pipeline thread.
        let counters = sim
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect::<Vec<_>>();
        assert!(
            counters.iter().any(|n| n.ends_with(" beats")),
            "{}: no queue-occupancy counters: {counters:?}",
            k.name
        );
    }
}

/// Tracing must not observe the engine: the event-driven scheduler skips
/// quiescent cycles, but iteration back-edges and queue-occupancy changes
/// only happen on evaluated cycles, so the simulator-side event streams
/// (pid >= 2 — compile-track timestamps are wall-clock) match bit for bit.
#[test]
fn engines_emit_identical_sim_event_streams() {
    for k in suite() {
        let (_, per_cycle) = traced(&k, SimEngine::PerCycle);
        let (_, event_driven) = traced(&k, SimEngine::EventDriven);
        let sim_events =
            |rec: &Recorder| rec.events().into_iter().filter(|e| e.pid() >= 2).collect::<Vec<_>>();
        let (r, e) = (sim_events(&per_cycle), sim_events(&event_driven));
        assert_eq!(r.len(), e.len(), "{}: sim event counts differ", k.name);
        assert_eq!(r, e, "{}: sim event streams differ between engines", k.name);
    }
}

/// A run that fails still exports a balanced trace: every span it opened
/// closes where the failure was detected, after every event it recorded.
#[test]
fn failed_runs_close_every_span() {
    let k = em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 9);
    for seed in 0..6 {
        let recorder = Recorder::new();
        let spec = RunSpec {
            faults: Some(FaultPlan::single(FaultClass::DropBeat, seed)),
            recorder: Some(&recorder),
            ..RunSpec::new(Target::Cgpa(CgpaConfig::default()))
        };
        let err = run(&k, &spec).expect_err("a dropped beat is caught");
        assert!(
            matches!(err, FlowError::Hw(HwError::Fault { .. })),
            "seed {seed}: unexpected error {err}"
        );
        let kernel = format!("em3d/drop-beat seed {seed}");
        check_well_formed(&kernel, &recorder.to_chrome_json());
    }
}

/// The kernels of `tests/golden_sim.rs`, at its scale and seed.
fn golden_suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, 9),
        hash_index::build(&hash_index::Params { items: 128, buckets: 32, scatter: 16 }, 9),
        ks::build(&ks::Params { a_cells: 16, b_cells: 16, scatter: 12 }, 9),
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 9),
        gaussblur::build(&gaussblur::Params { width: 256 }, 9),
    ]
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The compile track (pid 1) of a traced run of `k` under `placement`: one
/// Chrome event per line, in recording order, with the wall-clock `ts`
/// deleted so only names, categories, args and nesting remain.
fn compile_track(k: &BuiltKernel, placement: ReplicablePlacement) -> Vec<String> {
    let recorder = Recorder::new();
    let spec = RunSpec {
        recorder: Some(&recorder),
        ..RunSpec::new(Target::Cgpa(CgpaConfig { placement, ..CgpaConfig::default() }))
    };
    run(k, &spec).unwrap_or_else(|e| panic!("{}: traced run failed: {e}", k.name));
    let doc = Json::parse(&recorder.to_chrome_json()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    events
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(1))
        .map(|e| match e {
            Json::Obj(members) => {
                Json::Obj(members.iter().filter(|(key, _)| key != "ts").cloned().collect())
                    .to_string()
            }
            other => panic!("{}: trace event is not an object: {other:?}", k.name),
        })
        .collect()
}

/// The compile track records the same phases, in the same order, with the
/// same annotations as the committed fingerprints: every golden-scale
/// kernel under P1, plus em3d and gaussblur under P2 (where replication
/// folds the whole loop into one parallel stage).
#[test]
fn compile_track_matches_golden_fingerprints() {
    let mut got = String::new();
    for k in golden_suite() {
        let mut placements = vec![("P1", ReplicablePlacement::Pipelined)];
        if matches!(k.name.as_str(), "em3d" | "gaussblur") {
            placements.push(("P2", ReplicablePlacement::Replicated));
        }
        for (label, placement) in placements {
            let lines = compile_track(&k, placement);
            let _ = writeln!(
                got,
                "{} {label} events={} trace={:016x}",
                k.name,
                lines.len(),
                fnv1a(lines.join("\n").as_bytes())
            );
        }
    }
    let want: String =
        COMPILE_GOLDEN.lines().filter(|l| !l.starts_with('#')).map(|l| format!("{l}\n")).collect();
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "compile trace drifted; full output:\n{got}");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "case count differs from the golden file; full output:\n{got}"
    );
}
