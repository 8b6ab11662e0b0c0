//! The metric registry and the small statistics the benchmark reports.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units; a
//! self-test keeps the two in step.

/// Metrics of an untraced run (`--trace 0`), in output order: what a user of
/// the toolchain sees. Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of a traced run (`--trace 1`), in output order. Layer times
/// (`*_ms`) are self times per traced pass; counts are per pass. Every
/// workload reports every metric; one of a layer or an output the workload
/// bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Outputs of the whole run that apply to some workloads only.
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("failed_ratio", "ratio"),
    ("cycles_geomean", "cycles"),
    ("speedup_vs_legup_geomean", "x"),
    ("alut_geomean", "ALUT"),
    ("energy_uj_geomean", "uJ"),
    ("verilog_kb", "KiB"),
    // Layers, named by crate.
    ("ir.loops_ms", "ms"),
    ("analysis.alias_ms", "ms"),
    ("analysis.pdg_ms", "ms"),
    ("analysis.scc_ms", "ms"),
    ("analysis.classify_ms", "ms"),
    ("analysis.pdg_nodes", "count"),
    ("analysis.pdg_edges", "count"),
    ("pipeline.partition_ms", "ms"),
    ("pipeline.transform_ms", "ms"),
    ("pipeline.tasks", "count"),
    ("pipeline.queues", "count"),
    ("rtl.schedule_ms", "ms"),
    ("rtl.fsm_states", "count"),
    ("rtl.verilog_ms", "ms"),
    ("rtl.verilog_bytes", "bytes"),
    ("rtl.score_ms", "ms"),
    ("sim.hw_build_ms", "ms"),
    ("sim.hw_run_ms", "ms"),
    ("sim.hw_cycles", "cycles"),
    ("sim.worker_cycles", "cycles"),
    ("sim.evaluated_worker_cycles", "cycles"),
    ("sim.ns_per_evaluated_worker_cycle", "ns"),
    ("sim.skip_ratio", "ratio"),
    ("sim.cache_accesses", "count"),
    ("sim.cache_hit_ratio", "ratio"),
    ("sim.cache_conflict_cycles", "cycles"),
    ("sim.stall_fraction", "ratio"),
    ("sim.fifo_beats", "count"),
    ("sim.parent_ms", "ms"),
    ("sim.mips_ms", "ms"),
    ("sim.mips_instructions", "count"),
    ("kernels.build_ms", "ms"),
    ("kernels.reference_ms", "ms"),
    ("kernels.reference_calls", "count"),
    ("kernels.reference_share", "ratio"),
    ("core.compile_ms", "ms"),
    ("core.flow_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.dse_points", "count"),
    ("core.dse_skipped", "count"),
    ("core.dse_compiles", "count"),
    ("core.dse_cache_hits", "count"),
    ("core.dse_hit_ratio", "ratio"),
    ("core.dse_ms_per_point", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Linearly interpolated quantile `q` (0..=1) of `values`; 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the denominator was never measured.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
/// A metric name the result format accepts: a letter or digit, then at most
/// 63 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn is_valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
/// A unit the result format accepts: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
#[must_use]
pub fn is_valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The result line: one JSON object with the run's verdict and every metric
/// with its unit. Values keep all their digits; a non-finite value (never
/// produced by a correct run) renders as 0 to keep the line valid JSON.
#[must_use]
pub fn result_json(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(is_valid_name("sim.hw_run_ms"));
        assert!(!is_valid_name(".hidden"));
        assert!(!is_valid_name("a b"));
        assert!(is_valid_unit("Mcycles/s"));
        assert!(!is_valid_unit(""));
        assert!(!is_valid_unit("µs"));
    }
}
