//! FIFO depth only gates pushes: a pipeline run in which no push ever
//! waited on a full queue is replayed cycle for cycle at every deeper
//! depth, under both simulation engines. The design-space explorer relies
//! on this to reuse such a run for the deeper points of its FIFO-depth
//! chain instead of simulating them (`cgpa::dse`).
//!
//! Only two observables may differ between the depths: each queue's
//! `depth_beats` and the zero-padded tail of its occupancy histograms
//! (one bucket per beat of depth). A run that did wait on a push must, in
//! turn, change when the queues deepen — the counter-case below.

use cgpa_repro::cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa_repro::cgpa::flows::{run_cgpa_tuned, HwTuning};
use cgpa_repro::kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_repro::sim::{
    run_with_accelerator, HwConfig, HwSystem, SimEngine, SimMemory, SystemStats, Value, WorkerStats,
};

/// The golden simulator fingerprint's kernels (`tests/golden_sim.rs`).
fn golden_suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, 9),
        hash_index::build(&hash_index::Params { items: 128, buckets: 32, scatter: 16 }, 9),
        ks::build(&ks::Params { a_cells: 16, b_cells: 16, scatter: 12 }, 9),
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 9),
        gaussblur::build(&gaussblur::Params { width: 256 }, 9),
    ]
}

/// Everything one CGPA(P1) run observably produced, with the
/// depth-dependent fields normalized away.
struct Observed {
    /// Push-wait cycles over every worker of every fork.
    push_waits: u64,
    /// `Debug` of every fork's statistics, liveouts and the return value.
    text: String,
    /// The final memory image.
    mem: Vec<u8>,
}

/// Clear each queue's depth and trim the histograms' zero tail.
fn normalize(mut s: SystemStats) -> SystemStats {
    for q in &mut s.queues {
        q.depth_beats = 0;
        for hist in &mut q.occupancy_hist {
            while hist.last() == Some(&0) {
                hist.pop();
            }
        }
    }
    s
}

fn run_p1(k: &BuiltKernel, workers: u32, depth: usize, engine: SimEngine) -> Observed {
    let compiled = CgpaCompiler::new(CgpaConfig { workers, ..CgpaConfig::default() })
        .compile(&k.func, &k.model)
        .unwrap_or_else(|e| panic!("{}: compile: {e}", k.name));
    let pm = &compiled.pipeline;
    let cfg = HwConfig {
        cache: HwTuning::default().cache_config(pm.worker_count()),
        fifo_depth_beats: depth,
        engine,
        ..HwConfig::default()
    };
    let (mut stats, mut liveouts) = (Vec::new(), Vec::new());
    let mut mem = k.mem.clone();
    let (ret, _) = run_with_accelerator(
        &pm.parent,
        &k.args,
        &mut mem,
        1_000_000_000,
        &mut |_loop_id: u32, live_ins: &[Value], m: &mut SimMemory| {
            let mut sys = HwSystem::for_pipeline(pm, live_ins, cfg);
            stats.push(sys.run(m).map_err(|e| e.to_string())?);
            liveouts.push(sys.liveouts().to_vec());
            Ok(sys.liveouts().to_vec())
        },
    )
    .unwrap_or_else(|e| panic!("{} w{workers} fifo{depth}: {e}", k.name));
    let push_waits = stats.iter().flat_map(|s| &s.workers).map(WorkerStats::stall_push).sum();
    let stats: Vec<SystemStats> = stats.into_iter().map(normalize).collect();
    Observed { push_waits, text: format!("{stats:?}|{liveouts:?}|{ret:?}"), mem: mem.into_bytes() }
}

/// On every golden-scale kernel, under both engines: the shallowest depth
/// at which a P1 pipeline never waits on a push gives the same statistics
/// and memory image at twice and four times that depth.
#[test]
fn a_push_free_run_is_identical_at_every_deeper_depth() {
    for engine in [SimEngine::EventDriven, SimEngine::PerCycle] {
        for k in &golden_suite() {
            let mut checked = 0;
            for workers in [1, 4, 16] {
                let Some((depth, base)) = [8, 16, 32, 64]
                    .into_iter()
                    .map(|d| (d, run_p1(k, workers, d, engine)))
                    .find(|(_, o)| o.push_waits == 0)
                else {
                    continue;
                };
                for deeper in [2 * depth, 4 * depth] {
                    let what =
                        format!("{} w{workers} {engine:?} fifo{depth} vs fifo{deeper}", k.name);
                    let o = run_p1(k, workers, deeper, engine);
                    assert_eq!(o.push_waits, 0, "{what}: a deeper queue filled");
                    assert_eq!(o.text, base.text, "{what}: statistics differ");
                    assert!(o.mem == base.mem, "{what}: memory images differ");
                }
                checked += 1;
            }
            assert!(checked > 0, "{} {engine:?}: no push-free depth to check", k.name);
        }
    }
}

/// The counter-case: quick-scale ks (seed 42) at one worker waits on
/// pushes at 16 beats, so deepening its queues changes the run.
#[test]
fn a_run_that_waited_on_a_push_changes_with_depth() {
    let k = ks::build(&ks::Params { a_cells: 24, b_cells: 24, scatter: 16 }, 42);
    let cfg = CgpaConfig { workers: 1, ..CgpaConfig::default() };
    for engine in [SimEngine::EventDriven, SimEngine::PerCycle] {
        let at = |depth| {
            let tuning = HwTuning { fifo_depth_beats: depth, engine, ..HwTuning::default() };
            let r =
                run_cgpa_tuned(&k, cfg, tuning).unwrap_or_else(|e| panic!("ks fifo{depth}: {e}"));
            let stats = r.stats.expect("hardware runs capture stats");
            let push: u64 = stats.workers.iter().map(WorkerStats::stall_push).sum();
            (r.cycles, push)
        };
        let (shallow, shallow_push) = at(16);
        let (deep, deep_push) = at(32);
        assert!(shallow_push > 0, "{engine:?}: ks w1 never waited on a push at 16 beats");
        assert_eq!(
            (shallow, deep),
            (13_646, 13_643),
            "{engine:?}: ks w1 cycles at 16 and 32 beats"
        );
        assert_ne!(shallow_push, deep_push, "{engine:?}: push waits did not change with depth");
    }
}
