//! `Profile::from_stats` against real runs: the memory profile reports the
//! cache ports the run simulated, and stats from a different compile are a
//! typed error rather than a panic.

use cgpa::compiler::{CgpaCompiler, CgpaConfig, Compiled};
use cgpa::flows::{run_compiled, run_legup, HwTuning, RunResult, RunSpec, Target};
use cgpa::profile::{Profile, ProfileError};
use cgpa_kernels::{em3d, BuiltKernel};

fn small_em3d() -> BuiltKernel {
    em3d::build(&em3d::Params::fixed(60, 60, 4, 16), 5)
}

/// Compile `k` as `config` and run it under `tuning`.
fn compile_and_run(k: &BuiltKernel, config: CgpaConfig, tuning: HwTuning) -> (Compiled, RunResult) {
    let compiled = CgpaCompiler::new(config).compile(&k.func, &k.model).unwrap();
    let spec = RunSpec { tuning, ..RunSpec::new(Target::Cgpa(config)) };
    let result = run_compiled(k, &compiled, &spec).unwrap();
    (compiled, result)
}

fn memory_ports(k: &BuiltKernel, tuning: HwTuning) -> u32 {
    let (compiled, r) = compile_and_run(k, CgpaConfig::default(), tuning);
    let stats = r.stats.as_ref().unwrap();
    Profile::from_stats(&k.name, &r.config, &compiled, stats, &tuning).unwrap().memory.ports
}

#[test]
fn profile_reports_the_cache_ports_the_run_simulated() {
    let k = small_em3d();
    // S-P with 4 parallel workers: 5 workers, one port each.
    assert_eq!(memory_ports(&k, HwTuning::default()), 5);
    let one_bank = HwTuning { cache_banks: Some(1), ..HwTuning::default() };
    assert_eq!(memory_ports(&k, one_bank), 1);
    // A zero override simulates (and so reports) one port.
    let zero = HwTuning { cache_banks: Some(0), ..HwTuning::default() };
    assert_eq!(memory_ports(&k, zero), 1);
}

#[test]
fn profile_rejects_stats_from_another_compile() {
    let k = small_em3d();
    let tuning = HwTuning::default();
    let (wide, _) = compile_and_run(&k, CgpaConfig::default(), tuning);
    let (narrow, r) =
        compile_and_run(&k, CgpaConfig { workers: 2, ..CgpaConfig::default() }, tuning);
    let stats = r.stats.unwrap();
    // 3 workers in the stats, 5 in the 4-worker pipeline.
    assert_eq!(
        Profile::from_stats(&k.name, &r.config, &wide, &stats, &tuning),
        Err(ProfileError::WorkerLayout { expected: 5, got: 3 })
    );
    let mut no_queues = stats.clone();
    no_queues.queues.clear();
    assert!(matches!(
        Profile::from_stats(&k.name, &r.config, &narrow, &no_queues, &tuning),
        Err(ProfileError::MissingQueue { got: 0, .. })
    ));
    // LegUp stats (one worker) against a pipeline.
    let legup = run_legup(&k).unwrap().stats.unwrap();
    assert!(Profile::from_stats(&k.name, "LegUp", &narrow, &legup, &tuning).is_err());
    assert!(Profile::from_stats(&k.name, &r.config, &narrow, &stats, &tuning).is_ok());
}
