//! Golden simulator fingerprint: both engines must reproduce, case for
//! case, the cycle counts and statistics committed in
//! `tests/golden/sim_stats.txt`.
//!
//! `tests/differential_engines.rs` compares the two engines with each
//! other, so a semantic drift they share would pass it. This file pins the
//! simulator's observable behaviour itself: every line holds a case's cycle
//! count and an FNV-1a hash over the `Debug` rendering of its
//! `SystemStats` (with the engine-dependent `skipped_cycles` zeroed), the
//! liveout registers and the return value. The file also pins the two
//! interpreted runs of each kernel: the MIPS model's cycles, instruction
//! count, I-cache and D-cache statistics and return value, and the
//! functional reference's executed-instruction count, an FNV-1a hash of its
//! final memory image and its return value. The test only reads the file;
//! a deliberate change to simulated behaviour has to update it by hand.
//!
//! `tests/golden/sim_skipped.txt` pins, for every event-driven case, the
//! `skipped_cycles` the hash leaves out: which cycles the event engine
//! evaluates. A cycle it evaluates without need (or skips by mistake)
//! changes that count and nothing else.
//!
//! Every case runs with a trace armed, which must move none of those
//! numbers, and `tests/golden/sim_traces.txt` pins what the traces hold:
//! per case, an FNV-1a hash over the `Debug` rendering of each
//! invocation's trace events and end cycle, the same on both engines. The
//! engines share the code that puts a trace in order, so only this file
//! catches an order both get wrong. (The hash covers the events rather
//! than the VCD, which leaves out back edges.)

use cgpa_repro::cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa_repro::cgpa::flows::HwTuning;
use cgpa_repro::kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_repro::pipeline::ReplicablePlacement;
use cgpa_repro::sim::cache::CacheStats;
use cgpa_repro::sim::mips::{run_mips, MipsConfig};
use cgpa_repro::sim::{
    run_function, run_with_accelerator, CacheConfig, FaultClass, FaultPlan, HwConfig, HwSystem,
    NoHooks, SimEngine, SimMemory, SystemStats, TraceEvent, Value,
};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/sim_stats.txt");
const GOLDEN_SKIPPED: &str = include_str!("golden/sim_skipped.txt");
const GOLDEN_TRACES: &str = include_str!("golden/sim_traces.txt");

fn small_suite() -> Vec<BuiltKernel> {
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

/// What one hardware run observably produced.
struct Observed {
    stats: Vec<SystemStats>,
    liveouts: Vec<Vec<Option<Value>>>,
    ret: Option<Value>,
    /// Each invocation's trace events and end cycle.
    traces: Vec<(Vec<TraceEvent>, u64)>,
}

/// The fingerprint, `skipped_cycles` and trace lines of a set of cases.
#[derive(Default)]
struct Lines {
    stats: String,
    skipped: String,
    traces: String,
}

impl Observed {
    /// Append the case's fingerprint, `skipped_cycles` and trace lines.
    fn lines(mut self, case: &str, out: &mut Lines) {
        let cycles: u64 = self.stats.iter().map(|s| s.cycles).sum();
        let mut skipped = 0;
        for s in &mut self.stats {
            skipped += s.skipped_cycles;
            s.skipped_cycles = 0;
        }
        let text = format!("{:?}|{:?}|{:?}", self.stats, self.liveouts, self.ret);
        let hash = fnv1a(text.as_bytes());
        let trace = fnv1a(format!("{:?}", self.traces).as_bytes());
        let _ = writeln!(out.stats, "{case} cycles={cycles} hash={hash:016x}");
        let _ = writeln!(out.skipped, "{case} skipped={skipped}");
        let _ = writeln!(out.traces, "{case} trace={trace:016x}");
    }
}

/// Arm a trace, and `faults` if any.
fn arm(sys: &mut HwSystem<'_>, faults: Option<&FaultPlan>) {
    sys.enable_trace();
    if let Some(plan) = faults {
        sys.inject_faults(plan.clone());
    }
}

/// The trace events and end cycle of `sys`'s last run.
fn take_trace(sys: &mut HwSystem<'_>) -> (Vec<TraceEvent>, u64) {
    let trace = sys.take_trace().expect("trace armed");
    (trace.events, trace.end_cycle)
}

/// Single-worker LegUp-style run of the whole kernel.
fn run_legup(k: &BuiltKernel, tuning: &HwTuning, faults: Option<&FaultPlan>) -> Observed {
    let cache = CacheConfig { banks: 1, ..tuning.cache_config(1) };
    let cfg = HwConfig { cache, engine: tuning.engine, ..HwConfig::default() };
    let mut mem = k.mem.clone();
    let mut sys = HwSystem::for_single(&k.func, &k.args, cfg);
    arm(&mut sys, faults);
    let stats = sys.run(&mut mem).unwrap_or_else(|e| panic!("{}: LegUp run: {e}", k.name));
    let traces = vec![take_trace(&mut sys)];
    Observed { stats: vec![stats], liveouts: Vec::new(), ret: sys.ret_value(), traces }
}

/// CGPA run: the parent interpreted, every fork simulated.
fn run_cgpa(
    k: &BuiltKernel,
    placement: ReplicablePlacement,
    tuning: &HwTuning,
    faults: Option<&FaultPlan>,
) -> Observed {
    let compiled = CgpaCompiler::new(CgpaConfig { placement, ..CgpaConfig::default() })
        .compile(&k.func, &k.model)
        .unwrap_or_else(|e| panic!("{}: compile: {e}", k.name));
    let pm = &compiled.pipeline;
    let cfg = HwConfig {
        cache: tuning.cache_config(pm.worker_count()),
        fifo_depth_beats: tuning.fifo_depth_beats,
        engine: tuning.engine,
        ..HwConfig::default()
    };
    let (mut stats, mut liveouts, mut traces) = (Vec::new(), Vec::new(), Vec::new());
    let mut mem = k.mem.clone();
    let (ret, _) = run_with_accelerator(
        &pm.parent,
        &k.args,
        &mut mem,
        1_000_000_000,
        &mut |_loop_id: u32, live_ins: &[Value], m: &mut SimMemory| {
            let mut sys = HwSystem::for_pipeline(pm, live_ins, cfg);
            arm(&mut sys, faults);
            stats.push(sys.run(m).map_err(|e| e.to_string())?);
            traces.push(take_trace(&mut sys));
            liveouts.push(sys.liveouts().to_vec());
            Ok(sys.liveouts().to_vec())
        },
    )
    .unwrap_or_else(|e| panic!("{}: {placement:?} run: {e}", k.name));
    Observed { stats, liveouts, ret, traces }
}

/// Every case's fingerprint, `skipped_cycles` and trace lines under
/// `engine`, in file order.
fn fingerprints(engine: SimEngine) -> Lines {
    let slow_memory = HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() };
    let timing = [FaultClass::StallWorker, FaultClass::MemLatencyBurst, FaultClass::PortContention];
    let plan = FaultPlan::seeded(&timing, 1);
    let mut out = Lines::default();
    for k in small_suite() {
        let mut targets = vec!["legup", "P1"];
        if matches!(k.name.as_str(), "em3d" | "gaussblur") {
            targets.push("P2");
        }
        for target in targets {
            for (regime, tuning) in [("default", HwTuning::default()), ("slow-memory", slow_memory)]
            {
                let tuning = HwTuning { engine, ..tuning };
                for (fault, faults) in [("none", None), ("timing", Some(&plan))] {
                    let observed = match target {
                        "legup" => run_legup(&k, &tuning, faults),
                        "P1" => run_cgpa(&k, ReplicablePlacement::Pipelined, &tuning, faults),
                        _ => run_cgpa(&k, ReplicablePlacement::Replicated, &tuning, faults),
                    };
                    let case = format!("{} {target} {regime} faults={fault}", k.name);
                    observed.lines(&case, &mut out);
                }
            }
        }
    }
    out
}

/// `accesses/hits/misses/conflict_cycles`.
fn cache_line(s: &CacheStats) -> String {
    format!("{}/{}/{}/{}", s.accesses, s.hits, s.misses, s.conflict_cycles)
}

/// Each kernel's MIPS run and functional reference run, in file order.
fn interpreted_runs() -> String {
    let mut out = String::new();
    for k in small_suite() {
        let mut mem = k.mem.clone();
        let run = run_mips(&k.func, &k.args, &mut mem, 1_000_000_000, &MipsConfig::default())
            .unwrap_or_else(|e| panic!("{}: MIPS run: {e}", k.name));
        let _ = writeln!(
            out,
            "{} mips cycles={} instructions={} icache={} dcache={} ret={:?}",
            k.name,
            run.cycles,
            run.instructions,
            cache_line(&run.icache),
            cache_line(&run.dcache),
            run.ret
        );
        let mut mem = k.mem.clone();
        let (ret, executed) = run_function(&k.func, &k.args, &mut mem, 1_000_000_000, &mut NoHooks)
            .unwrap_or_else(|e| panic!("{}: reference run: {e}", k.name));
        let image = fnv1a(mem.read_bytes(0, mem.size()));
        let _ =
            writeln!(out, "{} reference executed={executed} mem={image:016x} ret={ret:?}", k.name);
    }
    out
}

/// Whether a golden line pins an interpreted run rather than a simulation.
fn is_interpreted(line: &str) -> bool {
    matches!(line.split(' ').nth(1), Some("mips" | "reference"))
}

/// Compare `got` with the lines of `golden` that `keep` selects.
fn check_lines(what: &str, got: &str, golden: &str, keep: impl Fn(&str) -> bool) {
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#') && keep(l)).collect();
    for (g, w) in got.lines().zip(&want) {
        assert_eq!(g, *w, "{what}: fingerprint drifted; full output:\n{got}");
    }
    assert_eq!(
        got.lines().count(),
        want.len(),
        "{what}: case count differs from the golden file; full output:\n{got}"
    );
}

/// `engine`'s fingerprints and traces match the golden files.
fn check(engine: SimEngine) {
    let got = fingerprints(engine);
    check_lines(&format!("{engine:?}"), &got.stats, GOLDEN, |l| !is_interpreted(l));
    check_lines(&format!("{engine:?} traces"), &got.traces, GOLDEN_TRACES, |_| true);
}

#[test]
fn event_driven_engine_matches_golden_fingerprints() {
    check(SimEngine::EventDriven);
}

#[test]
fn per_cycle_engine_matches_golden_fingerprints() {
    check(SimEngine::PerCycle);
}

#[test]
fn mips_and_reference_runs_match_golden_fingerprints() {
    check_lines("MIPS and reference", &interpreted_runs(), GOLDEN, is_interpreted);
}

#[test]
fn event_driven_engine_evaluates_the_golden_cycles() {
    let got = fingerprints(SimEngine::EventDriven);
    check_lines("skipped cycles", &got.skipped, GOLDEN_SKIPPED, |_| true);
}
