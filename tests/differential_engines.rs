//! Engine differential matrix: the event-driven scheduler must be
//! indistinguishable from the per-cycle reference stepper — bit-identical
//! liveouts (each flow already verifies memory and return value against the
//! functional reference), identical cycle counts, identical per-worker
//! statistics and byte-identical VCD waveforms — across every kernel,
//! placement, worker count, FIFO depth and memory regime, the sequential
//! fallback, and under injected timing faults.

use cgpa_repro::cgpa::compiler::{CgpaCompiler, CgpaConfig, Compiled};
use cgpa_repro::cgpa::flows::{run, FlowError, HwTuning, RunResult, RunSpec, Target};
use cgpa_repro::kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_repro::pipeline::ReplicablePlacement;
use cgpa_repro::sim::{
    run_with_accelerator, FaultClass, FaultPlan, HwConfig, HwSystem, SimEngine, SimMemory,
    TraceEvent, Value,
};

fn small_suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, 9),
        hash_index::build(&hash_index::Params { items: 128, buckets: 32, scatter: 16 }, 9),
        ks::build(&ks::Params { a_cells: 16, b_cells: 16, scatter: 12 }, 9),
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 9),
        gaussblur::build(&gaussblur::Params { width: 256 }, 9),
    ]
}

/// Kernels the paper reports a P2 (replicated) variant for.
fn has_p2(name: &str) -> bool {
    matches!(name, "em3d" | "gaussblur")
}

/// Run `target` under `engine` with the default tuning, optionally with a
/// fault plan armed.
fn run_on(
    k: &BuiltKernel,
    target: Target,
    faults: Option<&FaultPlan>,
    engine: SimEngine,
) -> Result<RunResult, FlowError> {
    run_tuned(k, target, HwTuning::default(), faults, engine)
}

/// [`run_on`] with `tuning` in place of the default.
fn run_tuned(
    k: &BuiltKernel,
    target: Target,
    tuning: HwTuning,
    faults: Option<&FaultPlan>,
    engine: SimEngine,
) -> Result<RunResult, FlowError> {
    let tuning = HwTuning { engine, ..tuning };
    run(k, &RunSpec { tuning, faults: faults.cloned(), ..RunSpec::new(target) })
}

/// Every engine-independent observable must match. `skipped_cycles` is the
/// one deliberately engine-dependent diagnostic and is excluded.
fn assert_same(kernel: &str, label: &str, ev: &RunResult, rf: &RunResult) {
    assert_eq!(ev.cycles, rf.cycles, "{kernel}/{label}: cycle counts differ");
    assert_eq!(ev.config, rf.config, "{kernel}/{label}: config labels differ");
    assert_eq!(ev.alut, rf.alut, "{kernel}/{label}: area differs");
    let (Some(es), Some(rs)) = (&ev.stats, &rf.stats) else {
        panic!("{kernel}/{label}: missing stats");
    };
    assert_eq!(es.cycles, rs.cycles, "{kernel}/{label}: stats.cycles differ");
    assert_eq!(es.workers.len(), rs.workers.len(), "{kernel}/{label}: worker counts differ");
    // Bucket-by-bucket so a mismatch names the worker and the stall cause
    // rather than dumping two whole stat vectors.
    for (w, (e, r)) in es.workers.iter().zip(&rs.workers).enumerate() {
        assert_eq!(e.busy, r.busy, "{kernel}/{label}: worker {w} busy differs");
        assert_eq!(
            e.stall_mem_read, r.stall_mem_read,
            "{kernel}/{label}: worker {w} stall_mem_read differs"
        );
        assert_eq!(
            e.stall_mem_write, r.stall_mem_write,
            "{kernel}/{label}: worker {w} stall_mem_write differs"
        );
        assert_eq!(
            e.queue_waits, r.queue_waits,
            "{kernel}/{label}: worker {w} per-queue waits differ"
        );
        assert_eq!(e.idle, r.idle, "{kernel}/{label}: worker {w} idle differs");
        assert_eq!(e.iterations, r.iterations, "{kernel}/{label}: worker {w} iterations differ");
        // The buckets are a partition of simulated time: they must sum to
        // the run's cycle count in both engines.
        assert_eq!(
            e.total(),
            es.cycles,
            "{kernel}/{label}: worker {w} buckets do not sum to cycles (event)"
        );
        assert_eq!(
            r.total(),
            rs.cycles,
            "{kernel}/{label}: worker {w} buckets do not sum to cycles (reference)"
        );
    }
    assert_eq!(es.queues, rs.queues, "{kernel}/{label}: queue stats differ");
    // Occupancy histograms are time-weighted: every channel's weights must
    // also sum to the run's cycle count.
    for q in &es.queues {
        for (ch, hist) in q.occupancy_hist.iter().enumerate() {
            assert_eq!(
                hist.iter().sum::<u64>(),
                es.cycles,
                "{kernel}/{label}: queue {} channel {ch} histogram mass != cycles",
                q.name
            );
        }
    }
    assert_eq!(es.fifo_beats, rs.fifo_beats, "{kernel}/{label}: fifo beats differ");
    assert_eq!(es.cache, rs.cache, "{kernel}/{label}: cache stats differ");
}

#[test]
fn p1_matches_reference_on_all_kernels() {
    for k in small_suite() {
        let target = Target::Cgpa(CgpaConfig::default());
        let ev = run_on(&k, target, None, SimEngine::EventDriven)
            .unwrap_or_else(|e| panic!("{}: event P1: {e}", k.name));
        let rf = run_on(&k, target, None, SimEngine::PerCycle)
            .unwrap_or_else(|e| panic!("{}: reference P1: {e}", k.name));
        assert_same(&k.name, "P1", &ev, &rf);
    }
}

#[test]
fn p1_matches_reference_across_worker_counts_fifo_depths_and_memory() {
    let slow_memory = HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() };
    let shallow = HwTuning { fifo_depth_beats: 2, ..HwTuning::default() };
    let variants = [
        ("1 worker", 1, HwTuning::default()),
        ("8 workers", 8, HwTuning::default()),
        ("2-beat FIFOs", 4, shallow),
        ("slow memory", 4, slow_memory),
    ];
    for k in small_suite() {
        for (label, workers, tuning) in variants {
            let target = Target::Cgpa(CgpaConfig { workers, ..CgpaConfig::default() });
            let ev = run_tuned(&k, target, tuning, None, SimEngine::EventDriven)
                .unwrap_or_else(|e| panic!("{}: event P1 {label}: {e}", k.name));
            let rf = run_tuned(&k, target, tuning, None, SimEngine::PerCycle)
                .unwrap_or_else(|e| panic!("{}: reference P1 {label}: {e}", k.name));
            assert_same(&k.name, &format!("P1 {label}"), &ev, &rf);
        }
    }
}

#[test]
fn p2_matches_reference_where_applicable() {
    for k in small_suite() {
        if !has_p2(&k.name) {
            continue;
        }
        let target = Target::Cgpa(CgpaConfig {
            placement: ReplicablePlacement::Replicated,
            ..CgpaConfig::default()
        });
        let ev = run_on(&k, target, None, SimEngine::EventDriven)
            .unwrap_or_else(|e| panic!("{}: event P2: {e}", k.name));
        let rf = run_on(&k, target, None, SimEngine::PerCycle)
            .unwrap_or_else(|e| panic!("{}: reference P2: {e}", k.name));
        assert_same(&k.name, "P2", &ev, &rf);
    }
}

#[test]
fn sequential_fallback_matches_reference() {
    for k in small_suite() {
        let ev = run_on(&k, Target::Legup, None, SimEngine::EventDriven)
            .unwrap_or_else(|e| panic!("{}: event seq: {e}", k.name));
        let rf = run_on(&k, Target::Legup, None, SimEngine::PerCycle)
            .unwrap_or_else(|e| panic!("{}: reference seq: {e}", k.name));
        assert_same(&k.name, "seq", &ev, &rf);
    }
}

#[test]
fn timing_faults_match_reference() {
    // Timing-only fault classes perturb scheduling without corrupting data:
    // the run must still verify, and both engines must agree on cycles,
    // stats, and which faults actually fired.
    let classes =
        [FaultClass::StallWorker, FaultClass::MemLatencyBurst, FaultClass::PortContention];
    for k in small_suite() {
        for seed in [1u64, 23] {
            let plan = FaultPlan::seeded(&classes, seed);
            let target = Target::Cgpa(CgpaConfig::default());
            let ev = run_on(&k, target, Some(&plan), SimEngine::EventDriven)
                .unwrap_or_else(|e| panic!("{}: event faults(seed {seed}): {e}", k.name));
            let rf = run_on(&k, target, Some(&plan), SimEngine::PerCycle)
                .unwrap_or_else(|e| panic!("{}: reference faults(seed {seed}): {e}", k.name));
            assert_same(&k.name, &format!("faults(seed {seed})"), &ev, &rf);
            let fired = |r: &RunResult| r.faults.as_ref().expect("plan armed").fired();
            assert_eq!(fired(&ev), fired(&rf), "{}: fired faults differ (seed {seed})", k.name);
        }
    }
}

#[test]
fn corrupting_faults_fail_identically() {
    // Corrupting classes are caught by the protection hardware; both engines
    // must detect at the same cycle with the same diagnosis (or both pass if
    // the fault lands somewhere harmless).
    let classes = [FaultClass::BitFlip, FaultClass::DropBeat, FaultClass::DuplicateBeat];
    for k in small_suite() {
        for seed in [5u64, 11] {
            let plan = FaultPlan::seeded(&classes, seed);
            let target = Target::Cgpa(CgpaConfig::default());
            let ev = run_on(&k, target, Some(&plan), SimEngine::EventDriven);
            let rf = run_on(&k, target, Some(&plan), SimEngine::PerCycle);
            match (ev, rf) {
                (Ok(ev), Ok(rf)) => {
                    assert_same(&k.name, &format!("corrupt(seed {seed})"), &ev, &rf);
                }
                (Err(e), Err(r)) => {
                    assert_eq!(
                        e.to_string(),
                        r.to_string(),
                        "{}: engines diagnose differently (seed {seed})",
                        k.name
                    );
                }
                (ev, rf) => panic!(
                    "{}: engines disagree on success (seed {seed}): event={:?} reference={:?}",
                    k.name,
                    ev.map(|r| r.cycles),
                    rf.map(|r| r.cycles)
                ),
            }
        }
    }
}

/// The VCD of every accelerator invocation of `k` on `compiled`, traced
/// under `engine`, and the cycles the engine skipped.
fn vcds(
    k: &BuiltKernel,
    compiled: &Compiled,
    tuning: &HwTuning,
    faults: Option<&FaultPlan>,
    engine: SimEngine,
) -> (Vec<String>, u64) {
    let pm = &compiled.pipeline;
    let cfg = HwConfig {
        cache: tuning.cache_config(pm.worker_count()),
        fifo_depth_beats: tuning.fifo_depth_beats,
        engine,
        ..HwConfig::default()
    };
    let mut mem = k.mem.clone();
    let (mut out, mut skipped) = (Vec::new(), 0);
    run_with_accelerator(
        &pm.parent,
        &k.args,
        &mut mem,
        1_000_000_000,
        &mut |_loop_id: u32, live_ins: &[Value], m: &mut SimMemory| {
            let mut sys = HwSystem::for_pipeline(pm, live_ins, cfg);
            sys.enable_trace();
            if let Some(plan) = faults {
                sys.inject_faults(plan.clone());
            }
            let stats = sys.run(m).map_err(|e| e.to_string())?;
            skipped += stats.skipped_cycles;
            out.push(sys.take_trace().expect("trace armed").to_vcd(&k.name));
            Ok(sys.liveouts().to_vec())
        },
    )
    .unwrap_or_else(|e| panic!("{}: traced run failed: {e}", k.name));
    (out, skipped)
}

#[test]
fn vcd_waveforms_match_reference() {
    // An armed trace does not force the per-cycle stepper: workers still run
    // ahead of the clock, and their state changes and back edges are
    // recorded from the run-ahead log at the cycles they belong to.
    let slow_memory = HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() };
    let timing = [FaultClass::StallWorker, FaultClass::MemLatencyBurst, FaultClass::PortContention];
    let plans = [None, Some(FaultPlan::seeded(&timing, 1)), Some(FaultPlan::seeded(&timing, 23))];
    for k in small_suite() {
        let mut placements = vec![ReplicablePlacement::Pipelined];
        if has_p2(&k.name) {
            placements.push(ReplicablePlacement::Replicated);
        }
        for placement in placements {
            let config = CgpaConfig { placement, ..CgpaConfig::default() };
            let compiled = CgpaCompiler::new(config)
                .compile(&k.func, &k.model)
                .unwrap_or_else(|e| panic!("{}: compile: {e}", k.name));
            let mut skipped = 0;
            for (regime, tuning) in [("default", HwTuning::default()), ("slow-memory", slow_memory)]
            {
                for plan in &plans {
                    let label = format!("{placement:?}/{regime}/faults={}", plan.is_some());
                    let (ev, ev_skipped) =
                        vcds(&k, &compiled, &tuning, plan.as_ref(), SimEngine::EventDriven);
                    let (rf, rf_skipped) =
                        vcds(&k, &compiled, &tuning, plan.as_ref(), SimEngine::PerCycle);
                    assert_eq!(rf_skipped, 0, "{}/{label}: the reference skipped cycles", k.name);
                    assert!(!ev.is_empty(), "{}/{label}: no accelerator invocation", k.name);
                    assert!(ev == rf, "{}/{label}: VCD waveforms differ between engines", k.name);
                    skipped += ev_skipped;
                }
            }
            assert!(skipped > 0, "{}/{placement:?}: the event engine never skipped", k.name);
        }
    }
}

/// A lone live worker is stepped from wake to wake (every LegUp run): its
/// traced waveform, statistics and memory image match the per-cycle
/// reference, with and without timing faults, which hand frozen cycles
/// back to the general loop.
#[test]
fn legup_vcd_waveforms_match_reference() {
    let timing = [FaultClass::StallWorker, FaultClass::MemLatencyBurst, FaultClass::PortContention];
    let plans = [None, Some(FaultPlan::seeded(&timing, 1)), Some(FaultPlan::seeded(&timing, 23))];
    for k in small_suite() {
        for plan in &plans {
            let [(ev, ev_vcd, ev_mem), (rf, rf_vcd, rf_mem)] =
                [SimEngine::EventDriven, SimEngine::PerCycle].map(|engine| {
                    let cfg = HwConfig { engine, ..HwConfig::default() };
                    let mut sys = HwSystem::for_single(&k.func, &k.args, cfg);
                    sys.enable_trace();
                    if let Some(plan) = plan {
                        sys.inject_faults(plan.clone());
                    }
                    let mut mem = k.mem.clone();
                    let stats = sys
                        .run(&mut mem)
                        .unwrap_or_else(|e| panic!("{}: LegUp {engine:?}: {e}", k.name));
                    (stats, sys.take_trace().expect("trace armed").to_vcd(&k.name), mem)
                });
            let label = format!("{}/faults={}", k.name, plan.is_some());
            assert_eq!(ev.cycles, rf.cycles, "{label}: cycle counts differ");
            assert_eq!(ev.workers, rf.workers, "{label}: worker stats differ");
            assert_eq!(ev.cache, rf.cache, "{label}: cache stats differ");
            assert!(ev.skipped_cycles > 0, "{label}: the event engine never skipped");
            assert!(ev_vcd == rf_vcd, "{label}: VCD waveforms differ between engines");
            assert!(ev_mem.read_bytes(0, ev_mem.size()) == rf_mem.read_bytes(0, rf_mem.size()));
        }
    }
}

/// Slow memory (400-cycle misses, 2 lines): a worker whose load's state is
/// register ops from there on takes the response step at issue and sleeps
/// through the whole wait. P1's traced waveforms match the reference.
#[test]
fn merged_memory_waits_match_reference_in_vcds() {
    let slow_memory = HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() };
    for k in small_suite() {
        let compiled = CgpaCompiler::new(CgpaConfig::default())
            .compile(&k.func, &k.model)
            .unwrap_or_else(|e| panic!("{}: compile: {e}", k.name));
        let (ev, ev_skipped) = vcds(&k, &compiled, &slow_memory, None, SimEngine::EventDriven);
        let (rf, _) = vcds(&k, &compiled, &slow_memory, None, SimEngine::PerCycle);
        assert!(ev_skipped > 0, "{}: the event engine never skipped", k.name);
        assert!(ev == rf, "{}: slow-memory VCD waveforms differ between engines", k.name);
    }
}

/// Corrupting faults under slow memory: when the protection layer or the
/// hang detector trips, some worker waits on a 400-cycle miss, which the
/// event engine may have merged with its response step. The diagnosis,
/// dump included, is identical on both engines.
#[test]
fn corrupting_faults_fail_identically_inside_merged_memory_waits() {
    let slow_memory = HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() };
    let classes = [FaultClass::BitFlip, FaultClass::DropBeat, FaultClass::DuplicateBeat];
    let mut waiting_dumps = 0;
    for k in small_suite() {
        for seed in [5u64, 11, 17] {
            let plan = FaultPlan::seeded(&classes, seed);
            let target = Target::Cgpa(CgpaConfig::default());
            let [ev, rf] = [SimEngine::EventDriven, SimEngine::PerCycle]
                .map(|engine| run_tuned(&k, target, slow_memory, Some(&plan), engine));
            match (ev, rf) {
                (Ok(ev), Ok(rf)) => {
                    assert_same(&k.name, &format!("slow corrupt(seed {seed})"), &ev, &rf);
                }
                (Err(e), Err(r)) => {
                    let (e, r) = (e.to_string(), r.to_string());
                    assert_eq!(e, r, "{}: engines diagnose differently (seed {seed})", k.name);
                    waiting_dumps += usize::from(r.contains("awaiting memory until cycle"));
                }
                (ev, rf) => panic!(
                    "{}: engines disagree on success (seed {seed}): event={:?} reference={:?}",
                    k.name,
                    ev.map(|r| r.cycles),
                    rf.map(|r| r.cycles)
                ),
            }
        }
    }
    assert!(waiting_dumps > 0, "no dump caught a worker waiting on memory");
}

/// P1 at 64 and 128 workers puts more than 64 and more than 128 workers
/// in one system, so the engines' per-worker bookkeeping spans two and
/// three 64-bit words: statistics and traced event streams match the
/// reference, with and without timing faults. (The event streams, from
/// which `Trace::to_vcd` renders the VCDs.)
#[test]
fn p1_matches_reference_past_one_mask_word() {
    let timing = [FaultClass::StallWorker, FaultClass::MemLatencyBurst, FaultClass::PortContention];
    let plans = [None, Some(FaultPlan::seeded(&timing, 1))];
    for k in small_suite().into_iter().take(2) {
        for workers in [64, 128] {
            let config = CgpaConfig { workers, ..CgpaConfig::default() };
            for plan in &plans {
                let label = format!("P1 {workers} workers/faults={}", plan.is_some());
                let [ev, rf] = [SimEngine::EventDriven, SimEngine::PerCycle].map(|engine| {
                    run_on(&k, Target::Cgpa(config), plan.as_ref(), engine)
                        .unwrap_or_else(|e| panic!("{}: {label} {engine:?}: {e}", k.name))
                });
                assert_same(&k.name, &label, &ev, &rf);
                let live = ev.stats.as_ref().map_or(0, |s| s.workers.len());
                assert!(live > workers as usize, "{}/{label}: only {live} workers", k.name);
            }
            let compiled = CgpaCompiler::new(config)
                .compile(&k.func, &k.model)
                .unwrap_or_else(|e| panic!("{}: compile: {e}", k.name));
            let [ev, rf] = [SimEngine::EventDriven, SimEngine::PerCycle]
                .map(|engine| event_streams(&k, &compiled, plans[1].as_ref(), engine));
            assert!(!ev.is_empty(), "{}/P1 {workers} workers: no accelerator invocation", k.name);
            assert!(ev == rf, "{}/P1 {workers} workers: trace events differ", k.name);
        }
    }
}

/// The trace event stream and end cycle of every accelerator invocation
/// of `k` on `compiled`, traced under `engine`.
fn event_streams(
    k: &BuiltKernel,
    compiled: &Compiled,
    faults: Option<&FaultPlan>,
    engine: SimEngine,
) -> Vec<(Vec<TraceEvent>, u64)> {
    let pm = &compiled.pipeline;
    let tuning = HwTuning::default();
    let cache = tuning.cache_config(pm.worker_count());
    let cfg = HwConfig { cache, engine, ..HwConfig::default() };
    let (mut mem, mut out) = (k.mem.clone(), Vec::new());
    run_with_accelerator(
        &pm.parent,
        &k.args,
        &mut mem,
        1_000_000_000,
        &mut |_loop_id: u32, live_ins: &[Value], m: &mut SimMemory| {
            let mut sys = HwSystem::for_pipeline(pm, live_ins, cfg);
            sys.enable_trace();
            if let Some(plan) = faults {
                sys.inject_faults(plan.clone());
            }
            sys.run(m).map_err(|e| e.to_string())?;
            let trace = sys.take_trace().expect("trace armed");
            out.push((trace.events, trace.end_cycle));
            Ok(sys.liveouts().to_vec())
        },
    )
    .unwrap_or_else(|e| panic!("{}: traced run failed: {e}", k.name));
    out
}

/// What one traced accelerator invocation left: its trace events, its end
/// cycle, and its error text (empty when it succeeded).
type TracedRun = (Vec<TraceEvent>, u64, String);

/// Every accelerator invocation of `k` on `compiled` under `engine`,
/// traced with `faults` armed and `fuel` cycles (the default when
/// `None`), up to and including the first that fails.
fn traced_until_failure(
    k: &BuiltKernel,
    compiled: &Compiled,
    tuning: &HwTuning,
    faults: &FaultPlan,
    fuel: Option<u64>,
    engine: SimEngine,
) -> Vec<TracedRun> {
    let pm = &compiled.pipeline;
    let fuel_cycles = fuel.unwrap_or(HwConfig::default().fuel_cycles);
    let cfg = HwConfig {
        cache: tuning.cache_config(pm.worker_count()),
        fifo_depth_beats: tuning.fifo_depth_beats,
        fuel_cycles,
        engine,
    };
    let (mut mem, mut out) = (k.mem.clone(), Vec::new());
    let _ = run_with_accelerator(
        &pm.parent,
        &k.args,
        &mut mem,
        1_000_000_000,
        &mut |_loop_id: u32, live_ins: &[Value], m: &mut SimMemory| {
            let mut sys = HwSystem::for_pipeline(pm, live_ins, cfg);
            sys.enable_trace();
            sys.inject_faults(faults.clone());
            let result = sys.run(m).map_err(|e| e.to_string());
            let trace = sys.take_trace().expect("trace armed");
            let error = result.as_ref().err().cloned().unwrap_or_default();
            out.push((trace.events, trace.end_cycle, error));
            result.map(|_| sys.liveouts().to_vec())
        },
    );
    out
}

/// Runs that fail, by a caught corruption, the hang detector or running
/// out of fuel, leave the same trace on both engines: the same events up
/// to the point the run stopped, the same end cycle and the same error
/// text, under default and slow memory and with the fuel cut anywhere
/// from the first invocation to never.
#[test]
fn failed_runs_leave_identical_traces() {
    let slow_memory = HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() };
    let classes = [FaultClass::BitFlip, FaultClass::DropBeat, FaultClass::DuplicateBeat];
    for k in small_suite() {
        let compiled = CgpaCompiler::new(CgpaConfig::default())
            .compile(&k.func, &k.model)
            .unwrap_or_else(|e| panic!("{}: compile: {e}", k.name));
        for (regime, tuning) in [("default", HwTuning::default()), ("slow-memory", slow_memory)] {
            for seed in [5u64, 11, 17, 23] {
                let plan = FaultPlan::seeded(&classes, seed);
                for fuel in [None, Some(3_000), Some(20_011)] {
                    let label = format!("{}/{regime}/seed {seed}/fuel {fuel:?}", k.name);
                    let [ev, rf] = [SimEngine::EventDriven, SimEngine::PerCycle].map(|engine| {
                        traced_until_failure(&k, &compiled, &tuning, &plan, fuel, engine)
                    });
                    let failed = rf.last().is_some_and(|(_, _, error)| !error.is_empty());
                    assert!(failed, "{label}: the run did not fail");
                    assert_eq!(ev.len(), rf.len(), "{label}: invocation counts differ");
                    for (i, (e, r)) in ev.iter().zip(&rf).enumerate() {
                        assert_eq!(e.2, r.2, "{label}: invocation {i}: errors differ");
                        assert_eq!(e.1, r.1, "{label}: invocation {i}: end cycles differ");
                        assert!(e.0 == r.0, "{label}: invocation {i}: trace events differ");
                    }
                }
            }
        }
    }
}
