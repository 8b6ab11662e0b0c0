//! Design-space explorer acceptance tests: the explorer must strictly beat
//! the default design point on every kernel, memoization must be observable
//! (warm re-runs compile strictly less) and bit-exact (same Verilog, same
//! pipeline and FSMs), FIFO-depth replay must agree with simulating every
//! point, configs that compile to one hardware design simulate once, no
//! knob moves what one compiled design does apart from its stalls, the
//! runs simulated are pinned, and the Pareto frontier must be exactly the
//! non-dominated subset for arbitrary inputs.

use cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa::dse::{
    dominates, pareto_frontier, CompileCache, DseLattice, DseOutcome, DsePoint,
    DEFAULT_AREA_BUDGET_ALUT,
};
use cgpa::flows::{run_cgpa_dse, run_compiled, FlowError, HwTuning, RunSpec, Target};
use cgpa_kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_pipeline::ReplicablePlacement;
use cgpa_rtl::power::{energy_delay_product, PowerReport, CLOCK_HZ};
use cgpa_sim::{SimEngine, SystemStats};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

const SEED: u64 = 3;

/// `DseReport::simulated` per kernel and regime, checked by
/// `the_explorers_work_matches_golden`.
const GOLDEN_SIMULATED: &str = include_str!("../../../tests/golden/dse_simulated.txt");

/// The five paper kernels at test scale (matches `tests/full_suite.rs`).
fn suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, SEED),
        hash_index::build(&hash_index::Params { items: 128, buckets: 32, scatter: 16 }, SEED),
        ks::build(&ks::Params { a_cells: 16, b_cells: 16, scatter: 12 }, SEED),
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), SEED),
        gaussblur::build(&gaussblur::Params { width: 256 }, SEED),
    ]
}

/// High-miss-latency regime: the default point leaves most miss latency
/// exposed here, so beating it is not vacuous.
fn himem() -> HwTuning {
    HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() }
}

#[test]
fn explorer_strictly_beats_the_default_point_on_every_kernel() {
    let cache = CompileCache::new();
    let default = CgpaConfig::default();
    for k in &suite() {
        let report =
            run_cgpa_dse(k, &DseLattice::quick(), himem(), DEFAULT_AREA_BUDGET_ALUT, &cache)
                .unwrap_or_else(|e| panic!("{}: explorer failed: {e}", k.name));

        let at_default = report
            .evaluated
            .iter()
            .find(|o| {
                o.point.config(&default) == default
                    && o.point.fifo_depth_beats == HwTuning::default().fifo_depth_beats
            })
            .unwrap_or_else(|| panic!("{}: the default point was not evaluated", k.name));
        let best = report.best_cycles().expect("non-empty frontier");
        assert!(
            best < at_default.cycles,
            "{}: explorer best {best} cycles does not beat the default point's {}",
            k.name,
            at_default.cycles
        );

        // The frontier is drawn from the evaluated set and non-dominated
        // within it.
        for f in &report.frontier {
            assert!(
                !report.evaluated.iter().any(|o| dominates(o, f)),
                "{}: frontier point {} is dominated",
                k.name,
                f.point.label()
            );
        }

        // These kernels are tiny; the recommendation must fit the DE4.
        let rec = report.recommended.as_ref().expect("a recommendation");
        assert!(
            rec.alut <= report.area_budget_alut,
            "{}: recommended {} ALUTs over budget",
            k.name,
            rec.alut
        );
    }
}

#[test]
fn warm_cache_performs_strictly_fewer_compiles() {
    let k = kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, SEED);
    // Sweep the cache-line axis and include an invalid zero geometry: those
    // points must be skipped up front, not crash the exploration.
    let lattice = DseLattice {
        workers: vec![2, 4],
        fifo_depths: vec![16, 64],
        cache_lines: vec![0, 256],
        placements: vec![ReplicablePlacement::Pipelined],
        ..DseLattice::default()
    };
    let cache = CompileCache::new();

    let cold = run_cgpa_dse(&k, &lattice, HwTuning::default(), DEFAULT_AREA_BUDGET_ALUT, &cache)
        .expect("cold exploration");
    assert!(cold.compiles > 0, "cold run must compile something");
    assert_eq!(cold.cache_hits, 0, "cold run cannot hit an empty cache");
    // 2 workers × 2 fifos × lines=0 → four invalid-geometry skips.
    assert_eq!(cold.skipped.len(), 4, "skipped: {:?}", cold.skipped);
    assert!(
        cold.skipped.iter().all(|(p, why)| p.cache_lines == 0 && why.contains("lines")),
        "skips should name the zero-lines geometry: {:?}",
        cold.skipped
    );
    // Memoization within one run: 2 distinct worker counts, 4 valid points.
    assert_eq!(cold.compiles, 2);
    assert_eq!(cold.evaluated.len(), 4);

    let warm = run_cgpa_dse(&k, &lattice, HwTuning::default(), DEFAULT_AREA_BUDGET_ALUT, &cache)
        .expect("warm exploration");
    assert_eq!(warm.compiles, 0, "warm run must be served entirely from cache");
    assert!(warm.compiles < cold.compiles);
    assert!(warm.cache_hits > 0);
    assert_eq!(warm.evaluated.len(), cold.evaluated.len());
    assert_eq!(warm.best_cycles(), cold.best_cycles(), "cached designs must behave identically");
}

#[test]
fn memoized_compile_is_bit_identical_to_fresh() {
    let cache = CompileCache::new();
    for k in &suite() {
        let cfg = CgpaConfig::default();
        let first = cache.get_or_compile(&k.func, &k.model, cfg).expect("compile");
        let second = cache.get_or_compile(&k.func, &k.model, cfg).expect("cached compile");
        assert!(Arc::ptr_eq(&first, &second), "{}: second lookup must be a cache hit", k.name);

        let compiler = CgpaCompiler::new(cfg);
        let fresh = compiler.compile(&k.func, &k.model).expect("fresh compile");
        assert_eq!(
            compiler.emit_verilog(&first),
            compiler.emit_verilog(&fresh),
            "{}: memoized Verilog differs from fresh",
            k.name
        );
        assert!(
            first.pipeline == fresh.pipeline && first.fsms == fresh.fsms,
            "{}: memoized design differs from fresh",
            k.name
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.compiles as usize, suite().len());
    assert_eq!(stats.hits as usize, suite().len());
}

/// Assert two outcomes are equal field by field, floats by bit pattern.
fn assert_same_outcome(got: &DseOutcome, want: &DseOutcome, what: &str) {
    assert_eq!(got.point, want.point, "{what}: point");
    let label = want.point.label();
    assert_eq!(got.cycles, want.cycles, "{what} {label}: cycles");
    assert_eq!(got.alut, want.alut, "{what} {label}: alut");
    assert_eq!(got.power_mw.to_bits(), want.power_mw.to_bits(), "{what} {label}: power_mw");
    assert_eq!(got.energy_uj.to_bits(), want.energy_uj.to_bits(), "{what} {label}: energy_uj");
    assert_eq!(got.edp.to_bits(), want.edp.to_bits(), "{what} {label}: edp");
}

fn assert_same_outcomes(got: &[DseOutcome], want: &[DseOutcome], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (g, w) in got.iter().zip(want) {
        assert_same_outcome(g, w, what);
    }
}

/// The explorer's report with every point simulated directly: each
/// configuration compiles once, each point runs through `run_compiled`,
/// and the recommendation follows the explorer's rule.
struct BruteForce {
    evaluated: Vec<DseOutcome>,
    skipped: Vec<(DsePoint, String)>,
    frontier: Vec<DseOutcome>,
    recommended: Option<DseOutcome>,
}

/// What no lattice knob moves within one compiled design (DESIGN.md §10):
/// each worker's busy cycles and iterations, the FIFO beats and the cache
/// accesses. FIFO depth and cache geometry change stall cycles only.
type Invariants = (Vec<(u64, u64)>, u64, u64);

fn invariants(stats: &SystemStats) -> Invariants {
    let workers = stats.workers.iter().map(|w| (w.busy, w.iterations)).collect();
    (workers, stats.fifo_beats, stats.cache.accesses)
}

/// Simulate every point of `lattice` under `env`, on both engines, and
/// build the report the explorer must match from `env`'s engine's runs.
/// Every run of one compiled design, on either engine, must have the
/// design's first run's [`Invariants`].
fn brute_force(k: &BuiltKernel, lattice: &DseLattice, env: HwTuning) -> BruteForce {
    let base = CgpaConfig::default();
    let cache = CompileCache::new();
    let (mut evaluated, mut compile_skips, mut sim_skips) = (Vec::new(), Vec::new(), Vec::new());
    let mut designs: Vec<(CgpaConfig, DsePoint, Invariants)> = Vec::new();
    for p in lattice.points(&env) {
        let tuning = p.tuning(&env);
        assert!(tuning.cache_config(p.workers).validate().is_ok(), "built-in lattices are valid");
        let cfg = p.config(&base);
        let design = match cache.get_or_compile(&k.func, &k.model, cfg) {
            Ok(d) => d,
            Err(e) => {
                compile_skips.push((p, format!("compile: {e}")));
                continue;
            }
        };
        let run = |engine| {
            let tuning = HwTuning { engine, ..tuning };
            run_compiled(k, &design, &RunSpec { tuning, ..RunSpec::new(Target::Cgpa(cfg)) })
        };
        let other = match env.engine {
            SimEngine::EventDriven => SimEngine::PerCycle,
            SimEngine::PerCycle => SimEngine::EventDriven,
        };
        let result = run(env.engine);
        for (engine, r) in [(env.engine, result.as_ref().ok().cloned()), (other, run(other).ok())] {
            let Some(stats) = r.and_then(|r| r.stats) else { continue };
            let got = invariants(&stats);
            match designs.iter().find(|(c, ..)| *c == cfg) {
                Some((_, first, want)) => {
                    assert_eq!(&got, want, "{}: {engine:?} {p:?} vs {first:?}", k.name);
                }
                None => designs.push((cfg, p, got)),
            }
        }
        match result {
            Ok(r) => {
                let power = PowerReport {
                    power_mw: r.power_mw,
                    energy_uj: r.energy_uj,
                    runtime_s: r.cycles as f64 / CLOCK_HZ,
                };
                evaluated.push(DseOutcome {
                    point: p,
                    cycles: r.cycles,
                    alut: r.alut,
                    power_mw: r.power_mw,
                    energy_uj: r.energy_uj,
                    edp: energy_delay_product(&power),
                });
            }
            Err(e) => sim_skips.push((p, format!("simulate: {e}"))),
        }
    }
    let frontier = pareto_frontier(&evaluated);
    let mut fits: Vec<&DseOutcome> =
        frontier.iter().filter(|o| o.alut <= DEFAULT_AREA_BUDGET_ALUT).collect();
    fits.sort_by(|a, b| a.cycles.cmp(&b.cycles).then_with(|| a.edp.total_cmp(&b.edp)));
    let recommended = match fits.first() {
        Some(o) => Some((**o).clone()),
        None => frontier.iter().min_by_key(|o| o.alut).cloned(),
    };
    compile_skips.extend(sim_skips);
    BruteForce { evaluated, skipped: compile_skips, frontier, recommended }
}

/// FIFO-depth replay is exact: on every kernel, under the default lattice
/// and environment and under the quick lattice in the slow-memory regime,
/// the explorer's report equals one that simulates every point. A model
/// that starts pricing FIFO depth, or a simulator in which depth reaches
/// more than the push-side full check, fails here.
#[test]
fn depth_replay_matches_simulating_every_point() {
    let mut replayed_somewhere = false;
    for k in &suite() {
        for (regime, lattice, env) in [
            ("default", DseLattice::default(), HwTuning::default()),
            ("quick himem", DseLattice::quick(), himem()),
        ] {
            let what = format!("{} {regime}", k.name);
            let report =
                run_cgpa_dse(k, &lattice, env, DEFAULT_AREA_BUDGET_ALUT, &CompileCache::new())
                    .unwrap_or_else(|e| panic!("{what}: explorer failed: {e}"));
            let brute = brute_force(k, &lattice, env);
            assert_same_outcomes(&report.evaluated, &brute.evaluated, &format!("{what} evaluated"));
            assert_eq!(report.skipped, brute.skipped, "{what}: skipped");
            assert_same_outcomes(&report.frontier, &brute.frontier, &format!("{what} frontier"));
            match (&report.recommended, &brute.recommended) {
                (Some(got), Some(want)) => assert_same_outcome(got, want, &what),
                (got, want) => panic!("{what}: recommended {got:?}, brute force {want:?}"),
            }
            let simulated = usize::try_from(report.simulated).expect("fits");
            assert!(simulated <= report.evaluated.len() + report.skipped.len(), "{what}");
            replayed_somewhere |= simulated < report.evaluated.len();
        }
    }
    assert!(replayed_somewhere, "no exploration replayed a single point");
}

/// The lattice with only `placement`.
fn one_placement(placement: ReplicablePlacement) -> DseLattice {
    DseLattice { placements: vec![placement], ..DseLattice::default() }
}

/// kmeans compiles to the same hardware under P1 and P2 at every worker
/// count, so the default lattice simulates exactly the runs a P1-only one
/// does, and every P2 outcome is its P1 twin's with its own point.
#[test]
fn hardware_twins_simulate_once() {
    let k = &suite()[0];
    let env = HwTuning::default();
    let explore = |lattice: &DseLattice| {
        run_cgpa_dse(k, lattice, env, DEFAULT_AREA_BUDGET_ALUT, &CompileCache::new())
            .unwrap_or_else(|e| panic!("{}: explorer failed: {e}", k.name))
    };
    let both = explore(&DseLattice::default());
    let p1 = explore(&one_placement(ReplicablePlacement::Pipelined));
    assert_eq!(both.simulated, p1.simulated, "{}: P2 twins were simulated", k.name);
    assert!(both.skipped.is_empty(), "{}: skipped {:?}", k.name, both.skipped);
    let (twins, p2): (Vec<&DseOutcome>, Vec<&DseOutcome>) =
        both.evaluated.iter().partition(|o| o.point.placement == ReplicablePlacement::Pipelined);
    assert_eq!(twins.len(), p2.len());
    for o in p2 {
        let twin = twins
            .iter()
            .find(|t| DsePoint { placement: o.point.placement, ..t.point } == o.point)
            .unwrap_or_else(|| panic!("{}: no P1 twin of {}", k.name, o.point.label()));
        let want = DseOutcome { point: o.point, ..(*twin).clone() };
        assert_same_outcome(o, &want, &format!("{} P2 twin", k.name));
    }
}

/// The counter-case: em3d's P2 designs are not its P1 designs, so the
/// default lattice simulates the runs of a P1-only and a P2-only lattice.
#[test]
fn distinct_p2_designs_are_still_simulated() {
    let k = &suite()[3];
    let cache = CompileCache::new();
    for workers in DseLattice::default().workers {
        let [p1, p2] =
            [ReplicablePlacement::Pipelined, ReplicablePlacement::Replicated].map(|placement| {
                let cfg = CgpaConfig { workers, placement, ..CgpaConfig::default() };
                cache.get_or_compile(&k.func, &k.model, cfg).expect("compile")
            });
        assert!(
            p1.pipeline != p2.pipeline || p1.fsms != p2.fsms,
            "{}: P1 and P2 at {workers} workers are one design",
            k.name
        );
    }
    let env = HwTuning::default();
    let simulated = |lattice: &DseLattice| {
        run_cgpa_dse(k, lattice, env, DEFAULT_AREA_BUDGET_ALUT, &cache)
            .unwrap_or_else(|e| panic!("{}: explorer failed: {e}", k.name))
            .simulated
    };
    let both = simulated(&DseLattice::default());
    let p1 = simulated(&one_placement(ReplicablePlacement::Pipelined));
    let p2 = simulated(&one_placement(ReplicablePlacement::Replicated));
    assert_eq!(both, p1 + p2, "{}: a distinct P2 design was not simulated", k.name);
}

/// The explorer's work is pinned: the runs it simulates on every kernel
/// under the default lattice and under the quick lattice in the slow-memory
/// regime equal `tests/golden/dse_simulated.txt`. A change that moves them
/// on purpose updates that file by hand and says why (the test prints the
/// new lines on failure).
#[test]
fn the_explorers_work_matches_golden() {
    let mut got = String::new();
    for k in &suite() {
        for (regime, lattice, env) in [
            ("default", DseLattice::default(), HwTuning::default()),
            ("quick-himem", DseLattice::quick(), himem()),
        ] {
            let report =
                run_cgpa_dse(k, &lattice, env, DEFAULT_AREA_BUDGET_ALUT, &CompileCache::new())
                    .unwrap_or_else(|e| panic!("{} {regime}: explorer failed: {e}", k.name));
            let (simulated, evaluated) = (report.simulated, report.evaluated.len());
            let _ =
                writeln!(got, "{} {regime} simulated={simulated} evaluated={evaluated}", k.name);
        }
    }
    let want: Vec<&str> = GOLDEN_SIMULATED.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(got.lines().eq(want), "simulated runs differ from the golden file; got:\n{got}");
}

/// A lattice whose every point is rejected up front reports the typed
/// error, naming the first skipped point.
#[test]
fn a_lattice_without_a_valid_point_is_a_typed_error() {
    let k = kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, SEED);
    let lattice = DseLattice { cache_lines: vec![0], ..DseLattice::quick() };
    let err = run_cgpa_dse(
        &k,
        &lattice,
        HwTuning::default(),
        DEFAULT_AREA_BUDGET_ALUT,
        &CompileCache::new(),
    )
    .expect_err("every point has a zero-line cache");
    match err {
        FlowError::NoFeasiblePoint(msg) => {
            assert!(msg.starts_with("no feasible design point (P1 w1 fifo16 lines0: "), "{msg}");
        }
        other => panic!("expected NoFeasiblePoint, got {other}"),
    }
}

fn outcome(cycles: u64, alut: u32, power: f64) -> DseOutcome {
    DseOutcome {
        point: DsePoint {
            workers: 1,
            placement: ReplicablePlacement::Pipelined,
            fifo_depth_beats: 16,
            cache_lines: 512,
            cache_banks: None,
        },
        cycles,
        alut,
        power_mw: power,
        energy_uj: 0.0,
        edp: 0.0,
    }
}

proptest! {
    /// The frontier is exactly the non-dominated subset: no frontier point
    /// is dominated by any input, and every input is either on the frontier
    /// or dominated by some frontier point.
    #[test]
    fn pareto_frontier_has_no_dominated_points(
        raw in proptest::collection::vec((0u64..1000, 0u32..1000, 0u16..1000), 1..40)
    ) {
        let all: Vec<DseOutcome> =
            raw.iter().map(|&(c, a, p)| outcome(c, a, f64::from(p))).collect();
        let frontier = pareto_frontier(&all);
        prop_assert!(!frontier.is_empty());
        for f in &frontier {
            prop_assert!(
                !all.iter().any(|o| dominates(o, f)),
                "dominated point on frontier: {f:?}"
            );
        }
        for o in &all {
            let covered = frontier.iter().any(|f| {
                (f.cycles == o.cycles && f.alut == o.alut && f.power_mw == o.power_mw)
                    || dominates(f, o)
            });
            prop_assert!(covered, "point neither on frontier nor dominated: {o:?}");
        }
    }
}

/// The compiler reads the kernel's memory model, so the cache keys on it:
/// one function under two models (kmeans's own, and the empty model under
/// which every access may alias) compiles twice, and each design is the
/// one a direct compile with its own model gives.
#[test]
fn the_compile_cache_keys_on_the_memory_model() {
    let k = &suite()[0];
    let cfg = CgpaConfig::default();
    let compiler = CgpaCompiler::new(cfg);
    let cache = CompileCache::new();
    let mut designs = Vec::new();
    for model in [k.model.clone(), cgpa_analysis::MemoryModel::new()] {
        let cached = cache.get_or_compile(&k.func, &model, cfg).expect("cached compile");
        let fresh = compiler.compile(&k.func, &model).expect("fresh compile");
        let verilog = compiler.emit_verilog(&cached);
        assert_eq!(verilog, compiler.emit_verilog(&fresh), "cached Verilog differs from fresh");
        assert!(
            cached.pipeline == fresh.pipeline && cached.fsms == fresh.fsms,
            "cached design differs from fresh"
        );
        designs.push(verilog);
    }
    assert_eq!(cache.stats().compiles, 2, "the second model was served the first's design");
    assert_ne!(designs[0], designs[1], "the two models give kmeans one design");
}
