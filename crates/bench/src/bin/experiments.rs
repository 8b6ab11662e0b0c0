//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [table2|fig4|table3|tradeoff|scalability|ablation|topology|profile|bench|dse|all]
//!             [--quick] [--csv <dir>] [--json] [--label <name>]
//! experiments trace [--kernel <name>] [--out <file>] [--quick]
//! experiments compare <new.json> [--baseline <file>] [--max-regress <pct>]
//! ```
//!
//! `--csv <dir>` additionally writes machine-readable CSV files per
//! experiment for downstream plotting.
//!
//! `profile` renders each kernel's bottleneck report (per-stage
//! utilization, queue occupancy, memory pressure, and the limiting
//! resource); with `--json` it writes `PROFILE_<label>.json`.
//!
//! `bench` measures the harness itself: per-kernel wall-clock compile and
//! simulation time under both simulation engines (event-driven scheduler vs
//! per-cycle reference), simulated cycles, and speedup over LegUp, plus a
//! design-space search (the quick lattice) in the memory-latency-dominated
//! regime, comparing the default point with the recommended one.
//! With `--json` it writes `BENCH_<label>.json` (label from `--label`, the
//! `BENCH_LABEL` env var, or the current git short SHA) for regression
//! tracking; compare against the committed `BENCH_baseline.json`.
//!
//! `dse` explores the configuration lattice per kernel (workers × FIFO
//! depth × cache geometry × P1/P2 placement) with compiles memoized behind
//! a content-hash cache, and reports the (cycles, ALUTs, power) Pareto
//! frontier plus the recommended point under the DE4 area budget. With
//! `--json` it writes `DSE_<label>.json`; `--quick` samples the lattice.
//!
//! `trace` runs one kernel end to end with structured tracing (compile-phase
//! spans, Verilog emission, per-iteration pipeline spans, FIFO-occupancy
//! counters) and writes a Chrome-trace JSON loadable at
//! <https://ui.perfetto.dev>.
//!
//! `compare` diffs a `BENCH_*.json` against a baseline per kernel and
//! metric, failing (exit 1) when a simulated-cycle metric regresses past the
//! tolerance or a correctness invariant (CGPA beats LegUp; the searched
//! point never loses to the default one) flips. Wall-clock metrics are
//! reported but never gate.

use cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa::report::{geomean, BenchmarkReport};
use cgpa_bench::{bench_kernels, full_report, scalability_sweep, KernelSet};
use cgpa_obs::json::Json;
use std::borrow::Cow;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static CSV_DIR: RefCell<Option<std::path::PathBuf>> = const { RefCell::new(None) };
}

/// Display form of a geomean: the value, or "n/a" when no entry was
/// positive (a degraded run can zero out a whole column).
fn gm(values: &[f64]) -> Cow<'static, str> {
    match geomean(values) {
        Some(g) => Cow::Owned(format!("{g:.2}")),
        None => Cow::Borrowed("n/a"),
    }
}

/// Write a CSV file into the `--csv` directory, if one was given.
fn write_csv(name: &str, header: &str, rows: &[String]) {
    CSV_DIR.with(|c| {
        if let Some(dir) = c.borrow().as_ref() {
            let mut text = String::from(header);
            text.push('\n');
            for r in rows {
                text.push_str(r);
                text.push('\n');
            }
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, text).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if let Some(d) = &csv_dir {
        std::fs::create_dir_all(d).expect("create csv dir");
    }
    CSV_DIR.with(|c| *c.borrow_mut() = csv_dir);
    let set = if quick { KernelSet::Quick } else { KernelSet::Full };
    // Flags that consume the following argument: their operands are not
    // positional.
    let operand_of: Vec<usize> =
        ["--csv", "--label", "--kernel", "--out", "--baseline", "--max-regress"]
            .iter()
            .filter_map(|f| args.iter().position(|a| a == *f).map(|i| i + 1))
            .collect();
    let positionals: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !operand_of.contains(i))
        .map(|(_, a)| a.clone())
        .collect();
    let which = positionals.first().cloned().unwrap_or_else(|| "all".to_string());

    match which.as_str() {
        "bench" => bench(set, args.iter().any(|a| a == "--json"), &bench_label(&args)),
        "profile" => profile_cmd(set, args.iter().any(|a| a == "--json"), &bench_label(&args)),
        "dse" => dse_cmd(set, args.iter().any(|a| a == "--json"), &bench_label(&args)),
        "trace" => trace_cmd(
            set,
            flag_operand(&args, "--kernel").unwrap_or_else(|| "kmeans".to_string()).as_str(),
            flag_operand(&args, "--out").unwrap_or_else(|| "trace.json".to_string()).as_str(),
        ),
        "compare" => {
            let Some(new_path) = positionals.get(1) else {
                eprintln!(
                    "usage: experiments compare <new.json> [--baseline <file>] [--max-regress <pct>]"
                );
                std::process::exit(2);
            };
            let baseline = flag_operand(&args, "--baseline")
                .unwrap_or_else(|| "BENCH_baseline.json".to_string());
            let max_regress = flag_operand(&args, "--max-regress")
                .map(|p| {
                    p.parse::<f64>().unwrap_or_else(|_| {
                        eprintln!("--max-regress expects a percentage, got `{p}`");
                        std::process::exit(2);
                    })
                })
                .unwrap_or(5.0);
            compare_cmd(new_path, &baseline, max_regress);
        }
        "table2" => table2(set),
        "fig4" => fig4(set),
        "table3" => table3(set),
        "tradeoff" => tradeoff(set),
        "scalability" => scalability(set),
        "ablation" => ablation(set),
        "topology" => topology(set),
        "all" => {
            table2(set);
            let reports = run_suite(set);
            fig4_from(&reports);
            table3_from(&reports);
            tradeoff_from(&reports);
            scalability(set);
            ablation(set);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: experiments [table2|fig4|table3|tradeoff|scalability|ablation|topology|profile|bench|dse|trace|compare|all] [--quick] [--csv <dir>] [--json] [--label <name>]"
            );
            std::process::exit(2);
        }
    }
}

/// The operand following `flag`, if present.
fn flag_operand(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Label for `BENCH_<label>.json`: `--label` wins, then the `BENCH_LABEL`
/// environment variable, then the git short SHA, then `"local"`.
fn bench_label(args: &[String]) -> String {
    if let Some(l) = args.iter().position(|a| a == "--label").and_then(|i| args.get(i + 1)) {
        return l.clone();
    }
    if let Ok(l) = std::env::var("BENCH_LABEL") {
        if !l.is_empty() {
            return l;
        }
    }
    if let Ok(out) =
        std::process::Command::new("git").args(["rev-parse", "--short", "HEAD"]).output()
    {
        if out.status.success() {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    "local".to_string()
}

/// Miss latency for the memory-latency-dominated bench row: a slow-DRAM
/// regime where a single-worker accelerator spends most cycles waiting and
/// the event-driven engine can skip straight to each completion. The quick
/// inputs fit in the default 64 KB cache, so the row also shrinks the cache
/// to [`HIMEM_CACHE_LINES`] lines to make accesses actually miss.
const HIMEM_MISS_LATENCY: u32 = 400;

/// Cache lines for the memory-latency-dominated bench row.
const HIMEM_CACHE_LINES: u32 = 2;

/// Timing repetitions per measurement; the minimum is reported (runs are
/// deterministic, so the minimum is the least-noise estimate).
const BENCH_REPS: u32 = 3;

/// Run `f` [`BENCH_REPS`] times; return the minimum wall-clock in ms and
/// the last result.
fn timed_min<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..BENCH_REPS {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("BENCH_REPS >= 1"))
}

/// One kernel's measurements for the `bench` subcommand.
struct BenchEntry {
    name: String,
    compile_ms: f64,
    sim_ms_event: f64,
    sim_ms_reference: f64,
    legup_cycles: u64,
    cgpa_cycles: u64,
    skipped_cycles: u64,
    /// LegUp run wall-clock (simulation, verification and scoring) at
    /// [`HIMEM_MISS_LATENCY`], event engine.
    himem_ms_event: f64,
    /// The same at [`HIMEM_MISS_LATENCY`], per-cycle reference.
    himem_ms_reference: f64,
    /// Simulated cycles of the high-miss-latency run (identical under both
    /// engines, asserted).
    himem_cycles: u64,
    /// CGPA(P1) cycles of the default point (4 workers, 16-beat FIFOs) in
    /// the himem regime.
    himem_cgpa_cycles: u64,
    /// CGPA cycles of the point the explorer recommends in the himem
    /// regime.
    himem_tuned_cycles: u64,
    /// Worker count of the recommended point.
    tuned_workers: u32,
    /// FIFO depth (beats) of the recommended point.
    tuned_fifo_depth_beats: usize,
    /// Bottleneck verdict of the recommended point.
    tuned_bottleneck: String,
}

impl BenchEntry {
    /// Wall-clock ratio reference-stepper / event-engine (higher = the
    /// scheduler skips more).
    fn engine_speedup(&self) -> f64 {
        if self.sim_ms_event > 0.0 {
            self.sim_ms_reference / self.sim_ms_event
        } else {
            1.0
        }
    }

    /// Engine speedup in the memory-latency-dominated regime.
    fn himem_engine_speedup(&self) -> f64 {
        if self.himem_ms_event > 0.0 {
            self.himem_ms_reference / self.himem_ms_event
        } else {
            1.0
        }
    }

    /// Simulated-cycle speedup of CGPA(P1) over LegUp.
    fn speedup_vs_legup(&self) -> f64 {
        self.legup_cycles as f64 / self.cgpa_cycles.max(1) as f64
    }

    /// Simulated-cycle speedup of the recommended point over the default
    /// one, in the memory-latency-dominated regime.
    fn tuned_speedup(&self) -> f64 {
        self.himem_cgpa_cycles as f64 / self.himem_tuned_cycles.max(1) as f64
    }
}

/// Harness self-benchmark: wall-clock compile+sim per kernel under both
/// simulation engines, plus simulated cycles and speedup over LegUp.
fn bench(set: KernelSet, json: bool, label: &str) {
    use cgpa::dse::{CompileCache, DseLattice, DEFAULT_AREA_BUDGET_ALUT};
    use cgpa::flows::{run, run_cgpa_dse, run_compiled, HwTuning, RunSpec, Target};
    use cgpa_sim::{SimEngine, SystemStats};

    /// The two engines must agree on every engine-independent statistic
    /// (all but `skipped_cycles`); this is the invariant the differential
    /// tests enforce, re-checked on every bench run.
    fn assert_engines_agree(what: &str, ev: Option<&SystemStats>, rf: Option<&SystemStats>) {
        let (Some(ev), Some(rf)) = (ev, rf) else {
            panic!("{what}: a run reported no statistics");
        };
        assert_eq!(ev.cycles, rf.cycles, "{what}: engines disagree on cycles");
        assert_eq!(ev.workers, rf.workers, "{what}: engines disagree on per-worker buckets");
        assert_eq!(ev.queues, rf.queues, "{what}: engines disagree on queue statistics");
        assert_eq!(ev.cache, rf.cache, "{what}: engines disagree on cache statistics");
        assert_eq!(ev.fifo_beats, rf.fifo_beats, "{what}: engines disagree on FIFO beats");
    }

    println!("== Bench: harness wall-clock and simulated cycles (per kernel) ==");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>9} {:>9} {:>12} {:>12} {:>9}",
        "benchmark",
        "compile",
        "sim(ev)",
        "sim(ref)",
        "engine x",
        "himem x",
        "legup cyc",
        "cgpa cyc",
        "speedup"
    );
    let wall = Instant::now();
    let kernels = bench_kernels(set, 42);
    let cache = CompileCache::new();
    let entries: Vec<BenchEntry> = kernels
        .iter()
        .map(|k| {
            let cfg = CgpaConfig::default();
            let t = Instant::now();
            let compiled = CgpaCompiler::new(cfg).compile(&k.func, &k.model).unwrap_or_else(|e| {
                eprintln!("{}: compile failed: {e}", k.name);
                std::process::exit(1);
            });
            let compile_ms = t.elapsed().as_secs_f64() * 1e3;

            // Same work under each engine: the LegUp single-worker run (the
            // memory-latency-dominated case) plus the CGPA(P1) pipeline.
            let timed = |engine: SimEngine| {
                let tuning = HwTuning { engine, ..HwTuning::default() };
                let (ms, (legup, cgpa)) = timed_min(|| {
                    let legup = run(k, &RunSpec { tuning, ..RunSpec::new(Target::Legup) })
                        .unwrap_or_else(|e| {
                            eprintln!("{}: legup failed: {e}", k.name);
                            std::process::exit(1);
                        });
                    let spec = RunSpec { tuning, ..RunSpec::new(Target::Cgpa(cfg)) };
                    let cgpa = run_compiled(k, &compiled, &spec).unwrap_or_else(|e| {
                        eprintln!("{}: cgpa failed: {e}", k.name);
                        std::process::exit(1);
                    });
                    (legup, cgpa)
                });
                (ms, legup, cgpa)
            };
            let (sim_ms_event, legup_ev, cgpa_ev) = timed(SimEngine::EventDriven);
            let (sim_ms_reference, legup_ref, cgpa_ref) = timed(SimEngine::PerCycle);
            for (flow, ev, rf) in [("legup", &legup_ev, &legup_ref), ("cgpa", &cgpa_ev, &cgpa_ref)]
            {
                let what = format!("{} {flow}", k.name);
                assert_engines_agree(&what, ev.stats.as_ref(), rf.stats.as_ref());
            }

            // Memory-latency-dominated regime: single worker, one bank, a
            // cache too small for the working set, slow misses. Here nearly
            // every cycle is a stall the scheduler can jump over.
            let himem_tuning = HwTuning {
                miss_latency: HIMEM_MISS_LATENCY,
                cache_lines: HIMEM_CACHE_LINES,
                ..HwTuning::default()
            };
            let timed_himem = |engine: SimEngine| {
                let tuning = HwTuning { engine, ..himem_tuning };
                timed_min(|| {
                    run(k, &RunSpec { tuning, ..RunSpec::new(Target::Legup) }).unwrap_or_else(|e| {
                        eprintln!("{}: himem run failed: {e}", k.name);
                        std::process::exit(1);
                    })
                })
            };
            let (himem_ms_event, himem_ev) = timed_himem(SimEngine::EventDriven);
            let (himem_ms_reference, himem_ref) = timed_himem(SimEngine::PerCycle);
            let what = format!("{} himem", k.name);
            assert_engines_agree(&what, himem_ev.stats.as_ref(), himem_ref.stats.as_ref());

            // Design-space search in the same memory-starved regime. The
            // quick lattice contains the default point, so the recommended
            // point can only match or beat it; profile the recommended point
            // (a compile-cache hit) to name what still limits it.
            let report = run_cgpa_dse(
                k,
                &DseLattice::quick(),
                himem_tuning,
                DEFAULT_AREA_BUDGET_ALUT,
                &cache,
            )
            .unwrap_or_else(|e| {
                eprintln!("{}: slow-memory search failed: {e}", k.name);
                std::process::exit(1);
            });
            let default_fifo = HwTuning::default().fifo_depth_beats;
            let default_point = report
                .evaluated
                .iter()
                .find(|o| o.point.config(&cfg) == cfg && o.point.fifo_depth_beats == default_fifo)
                .expect("the quick lattice contains the default point");
            let best = report.recommended.as_ref().expect("a feasible search recommends a point");
            let best_profile =
                profile_of(k, best.point.config(&cfg), best.point.tuning(&himem_tuning), &cache)
                    .unwrap_or_else(|e| {
                        eprintln!("{}: slow-memory profile failed: {e}", k.name);
                        std::process::exit(1);
                    });

            let skipped = legup_ev.stats.as_ref().map_or(0, |s| s.skipped_cycles)
                + cgpa_ev.stats.as_ref().map_or(0, |s| s.skipped_cycles);
            let e = BenchEntry {
                name: k.name.clone(),
                compile_ms,
                sim_ms_event,
                sim_ms_reference,
                legup_cycles: legup_ev.cycles,
                cgpa_cycles: cgpa_ev.cycles,
                skipped_cycles: skipped,
                himem_ms_event,
                himem_ms_reference,
                himem_cycles: himem_ev.cycles,
                himem_cgpa_cycles: default_point.cycles,
                himem_tuned_cycles: best.cycles,
                tuned_workers: best.point.workers,
                tuned_fifo_depth_beats: best.point.fifo_depth_beats,
                tuned_bottleneck: best_profile.bottleneck_summary(),
            };
            println!(
                "{:<14} {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>8.2}x {:>8.2}x {:>12} {:>12} {:>8.2}x",
                e.name,
                e.compile_ms,
                e.sim_ms_event,
                e.sim_ms_reference,
                e.engine_speedup(),
                e.himem_engine_speedup(),
                e.legup_cycles,
                e.cgpa_cycles,
                e.speedup_vs_legup()
            );
            e
        })
        .collect();
    let total_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    println!();
    println!(
        "== Design-space search (quick lattice) at {HIMEM_MISS_LATENCY}-cycle misses, \
         {HIMEM_CACHE_LINES}-line cache (CGPA P1) =="
    );
    println!(
        "{:<14} {:>12} {:>12} {:>8} {:>8} {:>6}  bottleneck",
        "benchmark", "default cyc", "search cyc", "speedup", "workers", "fifo"
    );
    for e in &entries {
        println!(
            "{:<14} {:>12} {:>12} {:>7.2}x {:>8} {:>6}  {}",
            e.name,
            e.himem_cgpa_cycles,
            e.himem_tuned_cycles,
            e.tuned_speedup(),
            e.tuned_workers,
            e.tuned_fifo_depth_beats,
            e.tuned_bottleneck
        );
    }
    let speedups: Vec<f64> = entries.iter().map(BenchEntry::engine_speedup).collect();
    let himem: Vec<f64> = entries.iter().map(BenchEntry::himem_engine_speedup).collect();
    println!(
        "total {total_wall_ms:.1}ms; engine speedup geomean {}x default, {}x at {HIMEM_MISS_LATENCY}-cycle misses",
        gm(&speedups),
        gm(&himem)
    );
    println!();

    if json {
        write_json("BENCH", label, &bench_doc(label, set, &entries, total_wall_ms));
    }
}

/// Name of a kernel set in the JSON reports.
fn set_name(set: KernelSet) -> &'static str {
    match set {
        KernelSet::Quick => "quick",
        KernelSet::Full => "full",
    }
}

/// Write `doc`, pretty-printed, to `<kind>_<label>.json`.
fn write_json(kind: &str, label: &str, doc: &Json) {
    let path = format!("{kind}_{label}.json");
    std::fs::write(&path, format!("{doc:#}\n")).expect("write json report");
    eprintln!("wrote {path}");
}

/// The `BENCH_<label>.json` document. Wall-clock fields and engine
/// speedups are rounded to 3 decimals, cycle ratios to 4.
fn bench_doc(label: &str, set: KernelSet, entries: &[BenchEntry], total_wall_ms: f64) -> Json {
    let ms = |x: f64| Json::rounded(x, 3);
    let ratio = |x: f64| Json::rounded(x, 4);
    let kernels = entries.iter().map(|e| {
        Json::obj([
            ("name", e.name.as_str().into()),
            ("compile_ms", ms(e.compile_ms)),
            ("sim_ms_event", ms(e.sim_ms_event)),
            ("sim_ms_reference", ms(e.sim_ms_reference)),
            ("engine_speedup", ms(e.engine_speedup())),
            ("legup_cycles", e.legup_cycles.into()),
            ("cgpa_cycles", e.cgpa_cycles.into()),
            ("skipped_cycles", e.skipped_cycles.into()),
            ("himem_miss_latency", HIMEM_MISS_LATENCY.into()),
            ("himem_sim_ms_event", ms(e.himem_ms_event)),
            ("himem_sim_ms_reference", ms(e.himem_ms_reference)),
            ("himem_engine_speedup", ms(e.himem_engine_speedup())),
            ("himem_cycles", e.himem_cycles.into()),
            ("himem_cgpa_cycles", e.himem_cgpa_cycles.into()),
            ("himem_tuned_cycles", e.himem_tuned_cycles.into()),
            ("himem_tuned_speedup", ratio(e.tuned_speedup())),
            ("tuned_workers", e.tuned_workers.into()),
            ("tuned_fifo_depth_beats", e.tuned_fifo_depth_beats.into()),
            ("speedup_vs_legup", ratio(e.speedup_vs_legup())),
        ])
    });
    Json::obj([
        ("label", label.into()),
        ("set", set_name(set).into()),
        ("total_wall_ms", ms(total_wall_ms)),
        ("kernels", Json::Arr(kernels.collect())),
    ])
}

/// Compile `k` under `cfg` through `cache`, run it with `tuning`, and roll
/// the run up into its bottleneck profile.
fn profile_of(
    k: &cgpa_kernels::BuiltKernel,
    cfg: CgpaConfig,
    tuning: cgpa::flows::HwTuning,
    cache: &cgpa::dse::CompileCache,
) -> Result<cgpa::profile::Profile, cgpa::flows::FlowError> {
    use cgpa::flows::{run_compiled, RunSpec, Target};
    let compiled = cache.get_or_compile(&k.func, &k.model, cfg)?;
    let r = run_compiled(k, &compiled, &RunSpec { tuning, ..RunSpec::new(Target::Cgpa(cfg)) })?;
    let stats = r.stats.as_ref().expect("hardware runs capture stats");
    Ok(cgpa::profile::Profile::from_stats(&k.name, &r.config, &compiled, stats, &tuning)?)
}

/// Per-kernel bottleneck report: compile each kernel as CGPA(P1), run it,
/// and render the stage/queue/memory profile with the limiting-resource
/// verdict. With `json`, also write `PROFILE_<label>.json`.
fn profile_cmd(set: KernelSet, json: bool, label: &str) {
    use cgpa::dse::CompileCache;
    use cgpa::flows::HwTuning;

    println!("== Profile: per-kernel bottleneck report (CGPA P1, default tuning) ==");
    let kernels = bench_kernels(set, 42);
    let cache = CompileCache::new();
    let mut profiles = Vec::new();
    let mut csv_rows: Vec<String> = Vec::new();
    for k in &kernels {
        match profile_of(k, CgpaConfig::default(), HwTuning::default(), &cache) {
            Ok(profile) => {
                print!("{}", profile.render());
                csv_rows.push(format!(
                    "{},{},{},{:.4}",
                    k.name,
                    profile.bottleneck.tag(),
                    profile.cycles,
                    profile.stages.iter().map(|s| s.utilization).fold(0.0f64, f64::max)
                ));
                profiles.push(profile);
            }
            Err(e) => println!("{}: failed: {e}", k.name),
        }
    }
    println!();
    write_csv("profile", "benchmark,bottleneck,cycles,max_stage_utilization", &csv_rows);
    if json {
        write_json("PROFILE", label, &profile_doc(label, set, &profiles));
    }
}

/// The `PROFILE_<label>.json` document.
fn profile_doc(label: &str, set: KernelSet, profiles: &[cgpa::profile::Profile]) -> Json {
    Json::obj([
        ("label", label.into()),
        ("set", set_name(set).into()),
        ("profiles", Json::Arr(profiles.iter().map(cgpa::profile::Profile::to_json).collect())),
    ])
}

/// One DSE outcome as a JSON object (shared by `recommended` and the
/// frontier list); power and energy are rounded to 3 decimals, EDP to 6.
fn dse_point_doc(o: &cgpa::dse::DseOutcome) -> Json {
    let p = &o.point;
    Json::obj([
        ("label", p.label().into()),
        ("placement", p.placement.to_string().into()),
        ("workers", p.workers.into()),
        ("fifo_depth_beats", p.fifo_depth_beats.into()),
        ("cache_lines", p.cache_lines.into()),
        ("cache_banks", p.cache_banks.into()),
        ("cycles", o.cycles.into()),
        ("alut", o.alut.into()),
        ("power_mw", Json::rounded(o.power_mw, 3)),
        ("energy_uj", Json::rounded(o.energy_uj, 3)),
        ("edp", Json::rounded(o.edp, 6)),
    ])
}

/// One kernel's entry in `DSE_<label>.json`.
fn dse_kernel_doc(report: &cgpa::dse::DseReport, revalidated: bool) -> Json {
    Json::obj([
        ("name", report.kernel.as_str().into()),
        ("points_evaluated", report.evaluated.len().into()),
        ("points_skipped", report.skipped.len().into()),
        ("points_simulated", report.simulated.into()),
        ("compiles", report.compiles.into()),
        ("cache_hits", report.cache_hits.into()),
        ("best_cycles", report.best_cycles().into()),
        ("revalidated", revalidated.into()),
        ("recommended", report.recommended.as_ref().map_or(Json::Null, dse_point_doc)),
        ("frontier", Json::Arr(report.frontier.iter().map(dse_point_doc).collect())),
    ])
}

/// The `DSE_<label>.json` document over per-kernel entries.
fn dse_doc(label: &str, set: KernelSet, budget: u32, kernels: Vec<Json>) -> Json {
    Json::obj([
        ("label", label.into()),
        ("set", set_name(set).into()),
        ("area_budget_alut", budget.into()),
        ("kernels", Json::Arr(kernels)),
    ])
}

/// Design-space exploration: enumerate the configuration lattice per
/// kernel, evaluate every point (compiles memoized behind the content-hash
/// cache, push-free runs replayed at deeper FIFO depths), and report the
/// (cycles, ALUTs, power) Pareto frontier plus the recommended point under
/// the DE4 area budget. The recommended point is re-validated through the
/// warm cache — a cache hit plus a re-run that reproduces its cycles,
/// ALUTs, power and energy bit for bit. With `json`, writes
/// `DSE_<label>.json`.
fn dse_cmd(set: KernelSet, json: bool, label: &str) {
    use cgpa::dse::{CompileCache, DseLattice, DEFAULT_AREA_BUDGET_ALUT};
    use cgpa::flows::{run_cgpa_dse, run_compiled, HwTuning, RunSpec, Target};

    let budget = DEFAULT_AREA_BUDGET_ALUT;
    let lattice = if set == KernelSet::Quick { DseLattice::quick() } else { DseLattice::default() };
    let env = HwTuning::default();
    let cache = CompileCache::new();
    println!("== DSE: Pareto frontier per kernel (area budget {budget} ALUTs) ==");
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>8} {:>6} {:>8}  {:<26} {:>10} {:>8} {:>8}",
        "benchmark",
        "points",
        "skip",
        "sims",
        "compiles",
        "hits",
        "frontier",
        "recommended",
        "cycles",
        "alut",
        "mW"
    );
    let kernels = bench_kernels(set, 42);
    let mut csv_rows: Vec<String> = Vec::new();
    let mut kernel_docs = Vec::new();
    for k in &kernels {
        let report = match run_cgpa_dse(k, &lattice, env, budget, &cache) {
            Ok(r) => r,
            Err(e) => {
                println!("{:<12} failed: {e}", k.name);
                continue;
            }
        };
        // Warm-cache re-validation: compiling the recommended point again
        // must hit the cache (no compile), and simulating it afresh must
        // reproduce its objectives exactly — it may have been a replay.
        let revalidated = report.recommended.as_ref().is_some_and(|rec| {
            let before = cache.stats();
            let cfg = rec.point.config(&CgpaConfig::default());
            let Ok(design) = cache.get_or_compile(&k.func, &k.model, cfg) else {
                return false;
            };
            let after = cache.stats();
            let warm = after.hits > before.hits && after.compiles == before.compiles;
            let spec =
                RunSpec { tuning: rec.point.tuning(&env), ..RunSpec::new(Target::Cgpa(cfg)) };
            match run_compiled(k, &design, &spec) {
                Ok(rr) => {
                    warm && rr.cycles == rec.cycles
                        && rr.alut == rec.alut
                        && rr.power_mw.to_bits() == rec.power_mw.to_bits()
                        && rr.energy_uj.to_bits() == rec.energy_uj.to_bits()
                }
                Err(_) => false,
            }
        });
        let (rec_label, rec_cycles, rec_alut, rec_mw) = match &report.recommended {
            Some(r) => (
                r.point.label(),
                r.cycles.to_string(),
                r.alut.to_string(),
                format!("{:.1}", r.power_mw),
            ),
            None => ("-".to_string(), "-".to_string(), "-".to_string(), "-".to_string()),
        };
        println!(
            "{:<12} {:>6} {:>6} {:>6} {:>8} {:>6} {:>8}  {:<26} {:>10} {:>8} {:>8}",
            report.kernel,
            report.evaluated.len(),
            report.skipped.len(),
            report.simulated,
            report.compiles,
            report.cache_hits,
            report.frontier.len(),
            rec_label,
            rec_cycles,
            rec_alut,
            rec_mw,
        );
        csv_rows.push(format!(
            "{},{},{},{},{},{},{},{},{},{},{}",
            report.kernel,
            report.evaluated.len(),
            report.skipped.len(),
            report.simulated,
            report.compiles,
            report.cache_hits,
            report.frontier.len(),
            rec_label,
            rec_cycles,
            rec_alut,
            rec_mw,
        ));
        kernel_docs.push(dse_kernel_doc(&report, revalidated));
    }
    println!();
    write_csv(
        "dse",
        "benchmark,points,skipped,sims,compiles,cache_hits,frontier,recommended,cycles,alut,power_mw",
        &csv_rows,
    );
    if json {
        write_json("DSE", label, &dse_doc(label, set, budget, kernel_docs));
    }
}

/// Run one kernel end to end with structured tracing and write the
/// Chrome-trace JSON to `out` (load it at <https://ui.perfetto.dev>).
fn trace_cmd(set: KernelSet, kernel: &str, out: &str) {
    use cgpa::flows::{run, RunSpec, Target};
    use cgpa_obs::Recorder;

    let kernels = bench_kernels(set, 42);
    let Some(k) = kernels.iter().find(|k| k.name == kernel) else {
        let names: Vec<&str> = kernels.iter().map(|k| k.name.as_str()).collect();
        eprintln!("unknown kernel `{kernel}`; available: {}", names.join(", "));
        std::process::exit(2);
    };
    let recorder = Recorder::new();
    let spec =
        RunSpec { recorder: Some(&recorder), ..RunSpec::new(Target::Cgpa(CgpaConfig::default())) };
    match run(k, &spec) {
        Ok(result) => {
            let events = recorder.events().len();
            std::fs::write(out, recorder.to_chrome_json()).expect("write trace json");
            println!(
                "{}: {} in {} cycles (shape {})",
                k.name,
                result.config,
                result.cycles,
                result.shape.as_deref().unwrap_or("-")
            );
            eprintln!("wrote {out} ({events} events; open in https://ui.perfetto.dev)");
        }
        Err(e) => {
            eprintln!("{}: traced run failed: {e}", k.name);
            std::process::exit(1);
        }
    }
}

/// Simulated-cycle metrics gated by the regression tolerance. These are
/// deterministic (seeded inputs, cycle-exact engines), so any drift is a
/// real behaviour change.
const COMPARE_CYCLE_METRICS: [&str; 5] =
    ["legup_cycles", "cgpa_cycles", "himem_cycles", "himem_cgpa_cycles", "himem_tuned_cycles"];

/// Wall-clock metrics: reported for information, never gating (CI machines
/// are noisy).
const COMPARE_INFO_METRICS: [&str; 4] =
    ["compile_ms", "sim_ms_event", "sim_ms_reference", "himem_sim_ms_event"];

/// Correctness ratios that must not fall below 1.0 when the baseline holds
/// them: CGPA beating LegUp, and the slow-memory search never losing to
/// the default point.
const COMPARE_INVARIANTS: [&str; 2] = ["speedup_vs_legup", "himem_tuned_speedup"];

/// Load a `BENCH_*.json`, exiting with code 2 on I/O or parse failure.
fn load_bench_report(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    })
}

/// Numeric metric from a kernel entry, exiting with code 2 when the schema
/// does not carry it (stale baseline — regenerate with `bench --json`).
fn metric(doc_path: &str, kernel: &Json, name: &str) -> f64 {
    kernel.get(name).and_then(Json::as_f64).unwrap_or_else(|| {
        let kname = kernel.get("name").and_then(Json::as_str).unwrap_or("?");
        eprintln!(
            "{doc_path}: kernel {kname} lacks metric `{name}` — regenerate with \
             `experiments bench --quick --json`"
        );
        std::process::exit(2);
    })
}

/// Diff `new_path` against `baseline_path` per kernel and metric.
/// Exit codes: 0 clean, 1 regression or invariant flip, 2 usage/schema.
fn compare_cmd(new_path: &str, baseline_path: &str, max_regress_pct: f64) {
    let base = load_bench_report(baseline_path);
    let new = load_bench_report(new_path);
    let get_set = |d: &Json| d.get("set").and_then(Json::as_str).unwrap_or("?").to_string();
    let (base_set, new_set) = (get_set(&base), get_set(&new));
    let kernel_list = |d: &Json| -> Vec<Json> {
        d.get("kernels").and_then(Json::as_arr).map(<[Json]>::to_vec).unwrap_or_default()
    };
    let base_kernels = kernel_list(&base);
    let new_kernels = kernel_list(&new);

    println!(
        "== Compare {new_path} vs {baseline_path} (tolerance {max_regress_pct}% on simulated cycles) =="
    );
    let mut failures: Vec<String> = Vec::new();
    if base_set != new_set {
        failures
            .push(format!("kernel set changed: baseline ran `{base_set}`, new ran `{new_set}`"));
    }
    let names = |ks: &[Json]| -> Vec<String> {
        ks.iter().map(|k| k.get("name").and_then(Json::as_str).unwrap_or("?").to_string()).collect()
    };
    let (base_names, new_names) = (names(&base_kernels), names(&new_kernels));
    if base_names != new_names {
        failures.push(format!(
            "kernel list changed: baseline [{}] vs new [{}]",
            base_names.join(", "),
            new_names.join(", ")
        ));
    }

    for (bk, nk) in base_kernels.iter().zip(&new_kernels) {
        let kname = bk.get("name").and_then(Json::as_str).unwrap_or("?");
        for m in COMPARE_CYCLE_METRICS {
            let b = metric(baseline_path, bk, m);
            let n = metric(new_path, nk, m);
            let delta_pct = if b > 0.0 { (n - b) / b * 100.0 } else { 0.0 };
            let verdict = if n > b * (1.0 + max_regress_pct / 100.0) {
                failures.push(format!("{kname}/{m}: {b:.0} -> {n:.0} (+{delta_pct:.2}%)"));
                "REGRESSION"
            } else if (n - b).abs() > f64::EPSILON {
                "changed"
            } else {
                "ok"
            };
            if verdict != "ok" {
                println!(
                    "  {kname:<14} {m:<22} {b:>12.0} -> {n:>12.0} ({delta_pct:+.2}%) {verdict}"
                );
            }
        }
        for m in COMPARE_INVARIANTS {
            let b = metric(baseline_path, bk, m);
            let n = metric(new_path, nk, m);
            if b >= 1.0 && n < 1.0 {
                failures.push(format!(
                    "{kname}/{m}: invariant flipped ({b:.3} -> {n:.3}; must stay >= 1.0)"
                ));
                println!("  {kname:<14} {m:<22} {b:>12.3} -> {n:>12.3} INVARIANT FLIP");
            }
        }
        for m in COMPARE_INFO_METRICS {
            // Informational only: wall-clock noise must not gate CI.
            let b = metric(baseline_path, bk, m);
            let n = metric(new_path, nk, m);
            if b > 0.0 && (n - b).abs() / b > 0.5 {
                println!(
                    "  {kname:<14} {m:<22} {b:>12.3} -> {n:>12.3} ({:+.1}%, wall-clock, not gating)",
                    (n - b) / b * 100.0
                );
            }
        }
    }

    if failures.is_empty() {
        println!("clean: no simulated-cycle regressions past {max_regress_pct}%, invariants hold");
    } else {
        println!("{} failure(s):", failures.len());
        for f in &failures {
            println!("  FAIL {f}");
        }
        std::process::exit(1);
    }
}

fn run_suite(set: KernelSet) -> Vec<BenchmarkReport> {
    full_report(set, 4, 42).unwrap_or_else(|e| {
        eprintln!("suite failed: {e}");
        std::process::exit(1);
    })
}

/// Table 2: benchmark descriptions and derived pipeline partitions.
fn table2(set: KernelSet) {
    println!("== Table 2: benchmark descriptions and derived pipeline partitions ==");
    println!("{:<14} {:<20} {:>8} {:>8}  description", "benchmark", "domain", "P1", "P2");
    let compiler_p1 = CgpaCompiler::new(CgpaConfig::default());
    let compiler_p2 = CgpaCompiler::new(CgpaConfig {
        placement: cgpa_pipeline::ReplicablePlacement::Replicated,
        ..CgpaConfig::default()
    });
    for k in bench_kernels(set, 42) {
        let p1 = compiler_p1
            .compile(&k.func, &k.model)
            .map(|c| c.shape)
            .unwrap_or_else(|e| format!("err: {e}"));
        let p2 = if cgpa_bench::suite::has_p2(&k.name) {
            compiler_p2
                .compile(&k.func, &k.model)
                .map(|c| c.shape)
                .unwrap_or_else(|e| format!("err: {e}"))
        } else {
            "-".to_string()
        };
        println!("{:<14} {:<20} {:>8} {:>8}  {}", k.name, k.domain, p1, p2, k.description);
    }
    println!();
}

fn fig4(set: KernelSet) {
    fig4_from(&run_suite(set));
}

/// Figure 4: loop speedups over the MIPS soft core.
fn fig4_from(reports: &[BenchmarkReport]) {
    println!("== Figure 4: loop speedup, normalized to the MIPS software core ==");
    println!("{:<14} {:>12} {:>12} {:>14}", "benchmark", "LegUp", "CGPA", "CGPA/LegUp");
    let mut legup = Vec::new();
    let mut cgpa = Vec::new();
    let mut ratio = Vec::new();
    for r in reports {
        let l = r.legup_speedup();
        let c = r.cgpa_speedup();
        println!("{:<14} {:>11.2}x {:>11.2}x {:>13.2}x", r.name, l, c, r.cgpa_over_legup());
        legup.push(l);
        cgpa.push(c);
        ratio.push(r.cgpa_over_legup());
    }
    println!("{:<14} {:>11}x {:>11}x {:>13}x", "GeoMean", gm(&legup), gm(&cgpa), gm(&ratio));
    println!("paper:         LegUp 1.85x geomean; CGPA 6.0x geomean; CGPA/LegUp 3.3x (3.0-3.8x)");
    println!();
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{},{:.4},{:.4}",
                r.name,
                r.mips.cycles,
                r.legup.cycles,
                r.cgpa_p1.cycles,
                r.legup_speedup(),
                r.cgpa_speedup()
            )
        })
        .collect();
    write_csv(
        "fig4",
        "benchmark,mips_cycles,legup_cycles,cgpa_cycles,legup_speedup,cgpa_speedup",
        &rows,
    );
}

fn table3(set: KernelSet) {
    table3_from(&run_suite(set));
}

/// Table 3: ALUT / power / energy / energy efficiency.
fn table3_from(reports: &[BenchmarkReport]) {
    println!("== Table 3: area, power, energy ==");
    println!(
        "{:<14} {:<10} {:>8} {:>10} {:>12} {:>12}",
        "benchmark", "type", "ALUT", "power(mW)", "energy(uJ)", "eff(it/uJ)"
    );
    let mut overheads = Vec::new();
    let mut alut_ratios = Vec::new();
    for r in reports {
        let rows: Vec<(&str, &cgpa::flows::RunResult)> = {
            let mut v = vec![("LegUp", &r.legup), ("CGPA(P1)", &r.cgpa_p1)];
            if let Some(p2) = &r.cgpa_p2 {
                v.push(("CGPA(P2)", p2));
            }
            v
        };
        for (label, rr) in rows {
            println!(
                "{:<14} {:<10} {:>8} {:>10.1} {:>12.3} {:>12.2}",
                r.name, label, rr.alut, rr.power_mw, rr.energy_uj, rr.efficiency
            );
        }
        overheads.push(r.energy_overhead());
        alut_ratios.push(r.alut_ratio());
    }
    println!(
        "geomean CGPA(P1)/LegUp: ALUT {}x (paper ~4.1x), energy {}x (paper ~1.2x)",
        gm(&alut_ratios),
        gm(&overheads)
    );
    println!();
    let mut rows: Vec<String> = Vec::new();
    for r in reports {
        let mut push = |label: &str, rr: &cgpa::flows::RunResult| {
            rows.push(format!(
                "{},{label},{},{:.3},{:.4},{:.4}",
                r.name, rr.alut, rr.power_mw, rr.energy_uj, rr.efficiency
            ));
        };
        push("legup", &r.legup);
        push("cgpa_p1", &r.cgpa_p1);
        if let Some(p2) = &r.cgpa_p2 {
            push("cgpa_p2", p2);
        }
    }
    write_csv("table3", "benchmark,config,alut,power_mw,energy_uj,efficiency", &rows);
}

fn tradeoff(set: KernelSet) {
    tradeoff_from(&run_suite(set));
}

/// §4.2 Tradeoff: P1 vs P2 on em3d and Gaussblur.
fn tradeoff_from(reports: &[BenchmarkReport]) {
    println!("== Tradeoff: decoupled pipelining (P1) vs replicated data-level parallelism (P2) ==");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "P1 cycles", "P2 cycles", "P1 perf +", "P1 energy -"
    );
    for r in reports {
        let Some(p2) = &r.cgpa_p2 else { continue };
        let perf = (p2.cycles as f64 / r.cgpa_p1.cycles as f64 - 1.0) * 100.0;
        let energy = (1.0 - r.cgpa_p1.energy_uj / p2.energy_uj) * 100.0;
        println!(
            "{:<14} {:>12} {:>12} {:>11.1}% {:>11.1}%",
            r.name, r.cgpa_p1.cycles, p2.cycles, perf, energy
        );
    }
    println!("paper: P1 faster by 6% (em3d) / 15% (Gaussblur); energy lower by 11% / 14%");
    println!();
}

/// Figure 2 topology: stages, workers, FIFO channels, and cache ports per
/// kernel, plus per-stage area.
fn topology(set: KernelSet) {
    println!("== Figure 2: accelerator topology per kernel ==");
    let compiler = CgpaCompiler::new(CgpaConfig::default());
    for k in bench_kernels(set, 42) {
        match compiler.compile(&k.func, &k.model) {
            Ok(c) => print!("{}", cgpa::report::pipeline_summary(&c)),
            Err(e) => println!("{}: {e}", k.name),
        }
    }
    println!();
}

/// Extension ablations: FIFO-depth sensitivity (the paper fixes 16 beats)
/// and miss-latency tolerance (the decoupling benefit of §2.2).
fn ablation(set: KernelSet) {
    use cgpa_bench::suite::{fifo_depth_sweep, miss_latency_sweep};
    println!("== Ablation A: FIFO depth (CGPA P1 cycles; paper fixes depth 16) ==");
    let depths = [2usize, 4, 8, 16, 32];
    print!("{:<14}", "benchmark");
    for d in depths {
        print!(" {d:>8}b");
    }
    println!();
    for k in bench_kernels(set, 42) {
        match fifo_depth_sweep(&k, &depths) {
            Ok(rows) => {
                print!("{:<14}", k.name);
                for (_, cy) in rows {
                    print!(" {cy:>9}");
                }
                println!();
            }
            Err(e) => println!("{:<14} failed: {e}", k.name),
        }
    }
    println!();
    println!(
        "== Ablation B: miss-latency tolerance (LegUp vs CGPA slowdown, x over 12-cycle miss) =="
    );
    let lats = [12u32, 24, 48, 96];
    println!("{:<14} {:>16} {:>16}", "benchmark", "LegUp 12->96", "CGPA 12->96");
    for k in bench_kernels(set, 42) {
        match miss_latency_sweep(&k, &lats) {
            Ok(rows) => {
                let (l0, c0) = (rows[0].1 as f64, rows[0].2 as f64);
                let (ln, cn) = (rows[3].1 as f64, rows[3].2 as f64);
                println!("{:<14} {:>15.2}x {:>15.2}x", k.name, ln / l0, cn / c0);
            }
            Err(e) => println!("{:<14} failed: {e}", k.name),
        }
    }
    println!("(lower is better: a smaller factor means the design tolerates slow memory better)");
    println!();
}

/// Appendix B.1: worker-count sweep.
fn scalability(set: KernelSet) {
    println!("== Appendix B.1: scalability (CGPA P1 cycles by worker count) ==");
    let counts = [1u32, 2, 4, 8, 16];
    print!("{:<14}", "benchmark");
    for c in counts {
        print!(" {c:>10}w");
    }
    println!();
    let mut csv_rows: Vec<String> = Vec::new();
    for k in bench_kernels(set, 42) {
        match scalability_sweep(&k, &counts) {
            Ok(rows) => {
                print!("{:<14}", k.name);
                for (w, cycles) in rows {
                    print!(" {cycles:>11}");
                    csv_rows.push(format!("{},{w},{cycles}", k.name));
                }
                println!();
            }
            Err(e) => println!("{:<14} failed: {e}", k.name),
        }
    }
    write_csv("scalability", "benchmark,workers,cycles", &csv_rows);
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa::dse::{DseOutcome, DsePoint, DseReport};
    use cgpa_pipeline::ReplicablePlacement;

    /// A label comes from the command line or the environment; every report
    /// must still parse back with it intact.
    #[test]
    fn reports_escape_their_label() {
        let label = "q\"x";
        let entry = BenchEntry {
            name: "k".into(),
            compile_ms: 0.5,
            sim_ms_event: 1.25,
            sim_ms_reference: 2.5,
            legup_cycles: 400,
            cgpa_cycles: 100,
            skipped_cycles: 7,
            himem_ms_event: 1.0,
            himem_ms_reference: 3.0,
            himem_cycles: 900,
            himem_cgpa_cycles: 300,
            himem_tuned_cycles: 200,
            tuned_workers: 8,
            tuned_fifo_depth_beats: 16,
            tuned_bottleneck: "stage 0".into(),
        };
        let point = DsePoint {
            workers: 4,
            placement: ReplicablePlacement::Pipelined,
            fifo_depth_beats: 16,
            cache_lines: 512,
            cache_banks: None,
        };
        let outcome = DseOutcome {
            point,
            cycles: 100,
            alut: 5000,
            power_mw: 12.5,
            energy_uj: 0.5,
            edp: 1e-6,
        };
        let report = DseReport {
            kernel: "k".into(),
            area_budget_alut: 182_400,
            evaluated: vec![outcome.clone()],
            skipped: Vec::new(),
            frontier: vec![outcome.clone()],
            recommended: Some(outcome),
            simulated: 1,
            compiles: 1,
            cache_hits: 0,
        };
        let docs = [
            bench_doc(label, KernelSet::Quick, &[entry], 12.0),
            profile_doc(label, KernelSet::Quick, &[]),
            dse_doc(label, KernelSet::Quick, 182_400, vec![dse_kernel_doc(&report, true)]),
        ];
        for doc in docs {
            let parsed = Json::parse(&format!("{doc:#}")).expect("report parses");
            assert_eq!(parsed.get("label").and_then(Json::as_str), Some(label));
            assert_eq!(parsed, doc);
        }
    }
}
