//! `perfbench`: the CGPA toolchain's benchmark.
//!
//! ```text
//! perfbench --workload <paper-full|dse|compile-sweep>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload as a closed loop: one checked operation at a time on
//! one thread (`dse` keeps the explorer's own fan-out), in whole passes until
//! `--seconds` is spent, then prints a summary and one JSON result line.
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced and traced passes, reports the per-layer metrics and writes the
//! first traced pass as a Chrome trace. README.md describes the workloads,
//! the metrics and how to read the trace.

mod metrics;
mod traced;
mod workload;

use cgpa_kernels::BuiltKernel;
use cgpa_obs::Recorder;
use metrics::{median, quantile, ratio, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use traced::{Totals, Tracer};
use workload::{build_kernels, DseCounts, Op, Sig, Workload};

/// Where a traced run writes its Chrome trace, relative to the working
/// directory.
const TRACE_DIR: &str = "target/perfbench";

/// Layers the traced run times; each is reported as `<layer>_ms`.
const LAYERS: [&str; 19] = [
    "ir.loops",
    "analysis.alias",
    "analysis.pdg",
    "analysis.scc",
    "analysis.classify",
    "pipeline.partition",
    "pipeline.transform",
    "rtl.schedule",
    "rtl.verilog",
    "rtl.score",
    "sim.hw_build",
    "sim.hw_run",
    "sim.parent",
    "sim.mips",
    "kernels.reference",
    "core.compile",
    "core.flow",
    "core.verify",
    "core.unattributed",
];

/// Counts the traced run reports as summed, per pass.
const COUNTS: [&str; 14] = [
    "analysis.pdg_nodes",
    "analysis.pdg_edges",
    "pipeline.tasks",
    "pipeline.queues",
    "rtl.fsm_states",
    "rtl.verilog_bytes",
    "sim.hw_cycles",
    "sim.worker_cycles",
    "sim.evaluated_worker_cycles",
    "sim.cache_accesses",
    "sim.cache_conflict_cycles",
    "sim.fifo_beats",
    "sim.mips_instructions",
    "kernels.reference_calls",
];

const USAGE: &str = "usage: perfbench --workload <paper-full|dse|compile-sweep> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Command-line arguments.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    /// Seed of the kernels' generated inputs.
    seed: u64,
    /// Measurement budget; the pass under way when it runs out finishes.
    seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 42, seconds: 10.0, trace: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=3600.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Operations attempted and failed, with the first failure for the log.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, op: &Op, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| format!("{}: {e}", op.label()));
        }
    }
}

/// Why an operation failed: the toolchain or a check returned an error, or
/// its deterministic outputs differ from the baseline pass.
fn failure(got: Result<Sig, String>, baseline: Option<&Sig>) -> Option<String> {
    match (got, baseline) {
        (Err(e), _) => Some(e),
        (Ok(_), None) => Some("the baseline pass of this operation failed".to_string()),
        (Ok(sig), Some(base)) if sig != *base => {
            Some(format!("outputs drifted from the baseline pass: {sig:?} vs {base:?}"))
        }
        (Ok(_), Some(_)) => None,
    }
}

/// Generate the workload's kernels for one pass, timing the generation.
fn generate(w: &Workload, seed: u64, setup_s: &mut Vec<f64>) -> Vec<BuiltKernel> {
    let t = Instant::now();
    let kernels = build_kernels(w.scale, seed);
    setup_s.push(t.elapsed().as_secs_f64());
    kernels
}

/// Timings of the untraced passes.
#[derive(Debug, Default)]
struct Untraced {
    op_ms: Vec<f64>,
    pass_s: Vec<f64>,
    /// Accelerator cycles simulated, and the host seconds of the operations
    /// that simulated them.
    accel_cycles: u64,
    accel_s: f64,
    /// Explorer counters, and the host seconds of the DSE operations.
    dse: DseCounts,
    dse_s: f64,
}

impl Untraced {
    /// Run one untraced pass, timing every operation.
    fn pass(
        &mut self,
        w: &Workload,
        kernels: &[BuiltKernel],
        baseline: &[Option<Sig>],
        tally: &mut Tally,
    ) {
        let start = Instant::now();
        for (op, base) in w.ops.iter().zip(baseline) {
            let t = Instant::now();
            let got = workload::run_op(op, kernels);
            let s = t.elapsed().as_secs_f64();
            self.op_ms.push(s * 1e3);
            if let Ok(o) = &got {
                if o.accel_cycles > 0 {
                    self.accel_cycles += o.accel_cycles;
                    self.accel_s += s;
                }
                if let Some(d) = o.dse {
                    self.dse += d;
                    self.dse_s += s;
                }
            }
            tally.record(op, failure(got.map(|o| o.sig), base.as_ref()));
        }
        self.pass_s.push(start.elapsed().as_secs_f64());
    }
}

/// One benchmark run's result.
struct Report {
    tally: Tally,
    /// Timed passes (traced ones, for a traced run).
    passes: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// The first traced pass, for a traced run.
    trace: Option<Recorder>,
}

fn run(args: &Args) -> Result<Report, String> {
    let w = Workload::named(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    // Every pass gets freshly generated kernels, so nothing a kernel caches
    // about itself carries over between passes. Generation is the set-up,
    // timed apart from the operations.
    let mut setup_s = Vec::new();
    let mut tally = Tally::default();

    // The baseline pass is not timed: it warms caches and records every
    // operation's deterministic outputs, which each later pass must reproduce.
    let kernels = generate(&w, args.seed, &mut setup_s);
    let baseline: Vec<Option<Sig>> = w
        .ops
        .iter()
        .map(|op| {
            let got = workload::run_op(op, &kernels).map(|o| o.sig);
            let sig = got.as_ref().ok().copied();
            tally.record(op, got.err());
            sig
        })
        .collect();

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut untraced = Untraced::default();
    if !args.trace {
        while untraced.pass_s.is_empty() || start.elapsed() < budget {
            let kernels = generate(&w, args.seed, &mut setup_s);
            untraced.pass(&w, &kernels, &baseline, &mut tally);
        }
        let u = &untraced;
        let values = [
            median(&setup_s),
            ratio(u.op_ms.len() as f64, u.pass_s.iter().sum()),
            quantile(&u.op_ms, 0.5),
            quantile(&u.op_ms, 0.9),
            peak_rss_mb(),
        ];
        let metrics =
            END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect();
        return Ok(Report { tally, passes: u.pass_s.len(), metrics, trace: None });
    }

    // Traced run: untraced and traced passes alternate, so both see the same
    // machine state.
    let mut totals = Totals::default();
    let mut traced_s = Vec::new();
    let mut first_trace = None;
    let mut op_id = 0u64;
    while traced_s.is_empty() || start.elapsed() < budget {
        let kernels = generate(&w, args.seed, &mut setup_s);
        untraced.pass(&w, &kernels, &baseline, &mut tally);
        let kernels = generate(&w, args.seed, &mut setup_s);
        let rec = Recorder::new();
        rec.name_process(traced::PID, format!("perfbench {} seed {}", w.name, args.seed));
        rec.name_thread(traced::PID, traced::TID, "operations");
        let tracer = Tracer::new(rec.clone());
        let t = Instant::now();
        for (op, base) in w.ops.iter().zip(&baseline) {
            op_id += 1;
            let got = tracer.op(op_id, &op.label(), || traced::run_op(&tracer, op, &kernels));
            tally.record(op, failure(got, base.as_ref()));
        }
        traced_s.push(t.elapsed().as_secs_f64());
        totals.merge(&tracer.finish());
        first_trace.get_or_insert(rec);
    }
    let metrics = per_layer(&w, &baseline, &setup_s, &untraced, &totals, &traced_s, &tally);
    Ok(Report { tally, passes: traced_s.len(), metrics, trace: first_trace })
}

/// The traced run's metrics, in `PER_LAYER` order.
fn per_layer(
    w: &Workload,
    baseline: &[Option<Sig>],
    setup_s: &[f64],
    u: &Untraced,
    t: &Totals,
    traced_s: &[f64],
    tally: &Tally,
) -> Vec<(&'static str, &'static str, f64)> {
    let passes = traced_s.len() as f64;
    let sigs: Vec<Sig> = baseline.iter().map(|s| s.unwrap_or_default()).collect();
    let design = w.design(&sigs);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for layer in LAYERS {
        values.insert(format!("{layer}_ms"), t.ms(layer) / passes);
    }
    for name in COUNTS {
        values.insert(name.to_string(), t.count(name) / passes);
    }
    let dse = u.dse;
    let per_untraced_pass = |n: u64| ratio(n as f64, u.pass_s.len() as f64);
    for (name, value) in [
        ("sim_mcycles_per_s", ratio(u.accel_cycles as f64, u.accel_s) / 1e6),
        ("failed_ratio", ratio(tally.failed as f64, tally.attempted as f64)),
        ("cycles_geomean", design.cycles_geomean),
        ("speedup_vs_legup_geomean", design.speedup_vs_legup_geomean),
        ("alut_geomean", design.alut_geomean),
        ("energy_uj_geomean", design.energy_uj_geomean),
        ("verilog_kb", design.verilog_kb),
        (
            "sim.ns_per_evaluated_worker_cycle",
            ratio(t.ms("sim.hw_run") * 1e6, t.count("sim.evaluated_worker_cycles")),
        ),
        ("sim.skip_ratio", ratio(t.count("sim.skipped_cycles"), t.count("sim.hw_cycles"))),
        ("sim.cache_hit_ratio", ratio(t.count("sim.cache_hits"), t.count("sim.cache_accesses"))),
        (
            "sim.stall_fraction",
            ratio(t.count("sim.stall_worker_cycles"), t.count("sim.worker_cycles")),
        ),
        ("kernels.build_ms", median(setup_s) * 1e3),
        ("kernels.reference_share", ratio(t.ms("kernels.reference"), t.op_ns as f64 / 1e6)),
        ("core.dse_points", per_untraced_pass(dse.points)),
        ("core.dse_skipped", per_untraced_pass(dse.skipped)),
        ("core.dse_compiles", per_untraced_pass(dse.compiles)),
        ("core.dse_cache_hits", per_untraced_pass(dse.cache_hits)),
        (
            "core.dse_hit_ratio",
            ratio(dse.points.saturating_sub(dse.compiles) as f64, dse.points as f64),
        ),
        ("core.dse_ms_per_point", ratio(u.dse_s * 1e3, dse.points as f64)),
        ("obs.trace_overhead_ratio", ratio(median(traced_s), median(&u.pass_s)) - 1.0),
    ] {
        values.insert(name.to_string(), value);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} is not computed"));
            (name, unit, value)
        })
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`; 0 where `/proc`
/// is unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let report = run(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(rec) = &report.trace {
        let path =
            Path::new(TRACE_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, rec.to_chrome_json()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("trace: {} (load it in https://ui.perfetto.dev)", path.display());
    }
    let tally = &report.tally;
    if let Some(e) = &tally.first_error {
        eprintln!(
            "perfbench: {} of {} operations failed; first: {e}",
            tally.failed, tally.attempted
        );
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "{} seed {}: {} timed passes, {} operations checked, {} failed, {threads} host threads",
        args.workload, args.seed, report.passes, tally.attempted, tally.failed
    );
    for (name, unit, value) in &report.metrics {
        println!("  {name:<34} {value:>18.6} {unit}");
    }
    if args.trace && args.workload == "paper-full" {
        println!("  (the paper reports a 3.3x geomean speedup of CGPA over LegUp)");
    }
    println!("{}", metrics::result_json(tally.attempted, tally.failed, &report.metrics));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_obs::json::Json;
    use metrics::{is_valid_name, is_valid_unit};
    use workload::WORKLOADS;

    fn listed<'a>(doc: &'a Json, key: &str, field: &str) -> Vec<&'a str> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|e| {
                e.get(field)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("a {key} entry lacks {field}"))
            })
            .collect()
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_valid_name(name), "{name}");
            assert!(is_valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} is listed twice");
        }
        for w in WORKLOADS {
            assert!(is_valid_name(w) && seen.insert(w), "{w}");
            assert!(Workload::named(w).is_some(), "{w}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_metrics_the_code_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = registry.iter().map(|m| m.0).collect();
            let units: Vec<&str> = registry.iter().map(|m| m.1).collect();
            assert_eq!(listed(&doc, key, "name"), names, "{key}");
            assert_eq!(listed(&doc, key, "unit"), units, "{key}");
        }
        assert_eq!(listed(&doc, "workloads", "name"), WORKLOADS);
    }

    #[test]
    fn every_workload_reports_every_metric_with_no_failed_operation() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args { workload: workload.to_string(), seed: 42, seconds: 0.0, trace };
                let report = run(&args).expect("a known workload");
                let t = &report.tally;
                assert_eq!(t.failed, 0, "{workload}: {:?}", t.first_error);
                let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.0, m.1)).collect();
                assert_eq!(got, if trace { PER_LAYER } else { END_TO_END }, "{workload}");
                if trace {
                    let failed = report.metrics.iter().find(|m| m.0 == "failed_ratio");
                    assert_eq!(failed.map(|m| m.2), Some(0.0), "{workload}");
                    check_trace(&report.trace.expect("a traced pass"), workload);
                }
            }
        }
    }

    /// The trace parses, and every span carries the id of its operation.
    fn check_trace(rec: &Recorder, workload: &str) {
        let doc = Json::parse(&rec.to_chrome_json()).expect("the trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let spans: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("B")).collect();
        assert!(!spans.is_empty(), "{workload}");
        for span in spans {
            let op = span.get("args").and_then(|a| a.get("op")).and_then(Json::as_f64);
            assert!(op.is_some(), "{workload}: a span without an op id");
        }
    }
}
