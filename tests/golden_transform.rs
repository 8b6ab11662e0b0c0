//! Golden compiler fingerprint: every case must reproduce, line for line,
//! the compiled output committed in `tests/golden/transform.txt` (the
//! golden-scale suite) and `tests/golden/transform_full.txt` (the
//! full-scale kernels at seed 42, the inputs of perfbench's
//! `compile-sweep`).
//!
//! `tests/golden_sim.rs` pins what the accelerators do; this file pins
//! what the compiler emits. Each line holds a case's Table 2 shape, an
//! FNV-1a hash over the printed task module, the printed rewritten parent
//! and the `Debug` rendering of the task FSMs, and an FNV-1a hash of the
//! complete Verilog design. A case that fails to compile records its error
//! text instead. The test only reads the file; a deliberate change to the
//! compiler's output has to update it by hand.

use cgpa_repro::cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa_repro::ir::printer::{print_function, print_module};
use cgpa_repro::kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_repro::pipeline::ReplicablePlacement;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/transform.txt");
const GOLDEN_FULL: &str = include_str!("golden/transform_full.txt");

/// The kernels of `tests/golden_sim.rs`, at its scale and seed.
fn small_suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, 9),
        hash_index::build(&hash_index::Params { items: 128, buckets: 32, scatter: 16 }, 9),
        ks::build(&ks::Params { a_cells: 16, b_cells: 16, scatter: 12 }, 9),
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 9),
        gaussblur::build(&gaussblur::Params { width: 256 }, 9),
    ]
}

/// The full-scale kernels at seed 42.
fn full_suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params::default(), 42),
        hash_index::build(&hash_index::Params::default(), 42),
        ks::build(&ks::Params::default(), 42),
        em3d::build(&em3d::Params::default(), 42),
        gaussblur::build(&gaussblur::Params::default(), 42),
    ]
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Every case's fingerprint line over `kernels`, in file order.
fn fingerprints(kernels: Vec<BuiltKernel>) -> String {
    let mut out = String::new();
    for k in kernels {
        for (label, placement) in
            [("P1", ReplicablePlacement::Pipelined), ("P2", ReplicablePlacement::Replicated)]
        {
            for workers in [1, 2, 4, 8, 16] {
                let compiler =
                    CgpaCompiler::new(CgpaConfig { workers, placement, ..CgpaConfig::default() });
                let case = format!("{} {label} w{workers}", k.name);
                match compiler.compile(&k.func, &k.model) {
                    Ok(c) => {
                        let pm = &c.pipeline;
                        let ir = format!(
                            "{}{}{:?}",
                            print_module(&pm.module),
                            print_function(&pm.parent),
                            c.fsms
                        );
                        let verilog = compiler.emit_verilog(&c);
                        let _ = writeln!(
                            out,
                            "{case} shape={} ir={:016x} verilog={:016x}",
                            c.shape,
                            fnv1a(ir.as_bytes()),
                            fnv1a(verilog.as_bytes())
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "{case} error={e}");
                    }
                }
            }
        }
    }
    out
}

/// Assert that `got` equals `golden` minus its `#` comment lines.
fn check(got: &str, golden: &str) {
    let want: String =
        golden.lines().filter(|l| !l.starts_with('#')).map(|l| format!("{l}\n")).collect();
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "compiler fingerprint drifted; full output:\n{got}");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "case count differs from the golden file; full output:\n{got}"
    );
}

#[test]
fn compiler_output_matches_golden_fingerprints() {
    check(&fingerprints(small_suite()), GOLDEN);
}

#[test]
fn full_scale_compiler_output_matches_golden_fingerprints() {
    check(&fingerprints(full_suite()), GOLDEN_FULL);
}
