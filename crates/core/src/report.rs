//! Experiment reporting helpers (speedups, geomeans, table formatting).

use crate::flows::RunResult;

/// All configurations of one benchmark, as one row group of the paper's
/// Figure 4 / Table 3.
#[derive(Debug, Clone)]
pub struct BenchmarkReport {
    /// Benchmark name.
    pub name: String,
    /// MIPS baseline.
    pub mips: RunResult,
    /// LegUp sequential HLS.
    pub legup: RunResult,
    /// CGPA P1.
    pub cgpa_p1: RunResult,
    /// CGPA P2, where applicable (em3d, Gaussblur).
    pub cgpa_p2: Option<RunResult>,
}

impl BenchmarkReport {
    /// LegUp speedup over MIPS (Figure 4's first bar).
    #[must_use]
    pub fn legup_speedup(&self) -> f64 {
        self.mips.cycles as f64 / self.legup.cycles as f64
    }

    /// CGPA speedup over MIPS (Figure 4's second bar).
    #[must_use]
    pub fn cgpa_speedup(&self) -> f64 {
        self.mips.cycles as f64 / self.cgpa_p1.cycles as f64
    }

    /// CGPA speedup over LegUp (the paper's headline 3.0–3.8×).
    #[must_use]
    pub fn cgpa_over_legup(&self) -> f64 {
        self.legup.cycles as f64 / self.cgpa_p1.cycles as f64
    }

    /// ALUT ratio CGPA(P1) / LegUp (Table 3 discussion: ≈ 4.1×).
    #[must_use]
    pub fn alut_ratio(&self) -> f64 {
        f64::from(self.cgpa_p1.alut) / f64::from(self.legup.alut)
    }

    /// Energy overhead CGPA(P1) / LegUp (Table 3: geomean ≈ 1.2×).
    #[must_use]
    pub fn energy_overhead(&self) -> f64 {
        self.cgpa_p1.energy_uj / self.legup.energy_uj
    }
}

/// Geometric mean of the positive, finite entries of `values`.
///
/// Returns `None` when no entry qualifies (empty input, or every value is
/// zero/negative/non-finite — reachable when a degraded `seq-fallback`
/// rung yields a failed or zero-cycle row). Non-positive entries are
/// skipped with a warning on stderr rather than poisoning the mean with a
/// NaN.
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    let usable: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0 && v.is_finite()).collect();
    if usable.len() < values.len() {
        eprintln!(
            "warning: geomean skipped {} non-positive value(s) of {}",
            values.len() - usable.len(),
            values.len()
        );
    }
    if usable.is_empty() {
        return None;
    }
    let log_sum: f64 = usable.iter().map(|v| v.ln()).sum();
    Some((log_sum / usable.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr(config: &str, cycles: u64, alut: u32, energy: f64) -> RunResult {
        RunResult {
            config: config.to_string(),
            cycles,
            alut,
            power_mw: 0.0,
            energy_uj: energy,
            efficiency: 0.0,
            shape: None,
            stats: None,
            rung: None,
            faults: None,
        }
    }

    #[test]
    fn ratios() {
        let rep = BenchmarkReport {
            name: "toy".into(),
            mips: rr("MIPS", 6000, 0, 0.0),
            legup: rr("LegUp", 3000, 1000, 10.0),
            cgpa_p1: rr("CGPA(P1)", 1000, 4100, 12.0),
            cgpa_p2: None,
        };
        assert!((rep.legup_speedup() - 2.0).abs() < 1e-12);
        assert!((rep.cgpa_speedup() - 6.0).abs() < 1e-12);
        assert!((rep.cgpa_over_legup() - 3.0).abs() < 1e-12);
        assert!((rep.alut_ratio() - 4.1).abs() < 1e-12);
        assert!((rep.energy_overhead() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_by_hand() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_total() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[0.0, -2.0, f64::NAN]), None);
        // Non-positive values are skipped, not propagated as NaN.
        assert!((geomean(&[2.0, 8.0, 0.0]).unwrap() - 4.0).abs() < 1e-12);
    }
}

/// Human-readable summary of a compiled pipeline: stages, workers, FSM
/// sizes, area breakdown, and the queue table — the at-a-glance view of
/// what the compiler built (used by `examples/quickstart.rs`).
#[must_use]
pub fn pipeline_summary(compiled: &crate::compiler::Compiled) -> String {
    use cgpa_pipeline::StageKind;
    use cgpa_rtl::area::{estimate_area, AreaModel};
    use std::fmt::Write as _;

    let mut out = String::new();
    let pm = &compiled.pipeline;
    let _ = writeln!(out, "pipeline `{}`: shape {}", pm.module.name, compiled.shape);
    let amodel = AreaModel::default();
    for t in &pm.tasks {
        let f = &pm.module.funcs[t.func_index];
        let fsm = &compiled.fsms[t.func_index];
        let area = estimate_area(&amodel, f, fsm);
        let (kind, copies) = match t.kind {
            StageKind::Sequential => ("sequential", 1),
            StageKind::Parallel => ("parallel", pm.workers),
        };
        let _ = writeln!(
            out,
            "  stage {} [{kind} x{copies}] `{}`: {} insts, {} states, {} ALUT/worker",
            t.stage,
            t.name,
            f.insts.len(),
            fsm.len(),
            area.total()
        );
    }
    if pm.queues.is_empty() {
        let _ = writeln!(out, "  no inter-stage queues");
    } else {
        let _ = writeln!(out, "  queues:");
        for q in &pm.queues {
            let info = pm.module.queue(q.queue);
            let _ = writeln!(
                out,
                "    {} {:?} {} x{} channels (stage {} -> {})",
                q.queue, q.kind, q.elem_ty, info.channels, q.producer_stage, q.consumer_stage
            );
        }
    }
    let _ = writeln!(
        out,
        "  duplicated replicable sections: {}; feeders: {}; liveouts: {}",
        compiled.plan.duplicated.len(),
        compiled.plan.feeders.len(),
        pm.liveouts.len()
    );
    out
}

#[cfg(test)]
mod summary_tests {
    use crate::compiler::{CgpaCompiler, CgpaConfig};
    use cgpa_kernels::em3d;

    #[test]
    fn summary_names_every_stage_and_queue() {
        let k = em3d::build(&em3d::Params::fixed(8, 8, 3, 4), 1);
        let c = CgpaCompiler::new(CgpaConfig::default()).compile(&k.func, &k.model).unwrap();
        let s = super::pipeline_summary(&c);
        assert!(s.contains("shape S-P"));
        assert!(s.contains("em3d_stage0"));
        assert!(s.contains("em3d_stage1"));
        assert!(s.contains("parallel x4"));
        assert!(s.contains("RoundRobin"));
        assert!(s.contains("Broadcast"));
    }
}
