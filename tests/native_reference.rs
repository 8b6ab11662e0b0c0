//! Every paper kernel is checked against its native reference, the Rust
//! stand-in for the original C program. At full scale the native
//! references agree with the interpreted IR byte for byte, and since they
//! share no code with the IR or its executors, a run of edited kernel IR
//! fails the check instead of verifying against itself.

use cgpa_repro::cgpa::flows::{run_legup, run_mips, FlowError};
use cgpa_repro::ir::{BinOp, Op};
use cgpa_repro::kernels::{
    em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel, NativeReference, ReferenceCache,
};
use cgpa_repro::sim::interp::{run_function, NoHooks};

/// The five kernels at the paper's default scale, with their native
/// references.
fn full_scale(seed: u64) -> [(BuiltKernel, NativeReference); 5] {
    [
        (kmeans::build(&kmeans::Params::default(), seed), kmeans::reference_native),
        (hash_index::build(&hash_index::Params::default(), seed), hash_index::reference_native),
        (ks::build(&ks::Params::default(), seed), ks::reference_native),
        (em3d::build(&em3d::Params::default(), seed), em3d::reference_native),
        (gaussblur::build(&gaussblur::Params::default(), seed), gaussblur::reference_native),
    ]
}

#[test]
fn the_interpreter_and_the_native_references_agree_at_full_scale() {
    for seed in [42, 1, 2, 3, 7, 99, 1234, 31337] {
        for (k, native) in full_scale(seed) {
            let mut ir = k.mem.clone();
            let (ir_ret, _) = run_function(&k.func, &k.args, &mut ir, 2_000_000_000, &mut NoHooks)
                .unwrap_or_else(|e| panic!("{} seed {seed}: interpreter: {e}", k.name));
            let mut out = k.mem.clone();
            let ret = native(&mut out, &k.args)
                .unwrap_or_else(|e| panic!("{} seed {seed}: native: {e}", k.name));
            assert_eq!(ret, ir_ret, "{} seed {seed}: return value", k.name);
            assert!(
                ir.read_bytes(0, ir.size()) == out.read_bytes(0, out.size()),
                "{} seed {seed}: memory differs",
                k.name
            );
        }
    }
}

/// hash_index with the last `xor` of its hash turned into an `or`.
fn hash_index_with_an_edited_op() -> BuiltKernel {
    let p = hash_index::Params { items: 256, buckets: 64, scatter: 24 };
    let mut k = hash_index::build(&p, 3);
    let hash = k.func.insts.iter_mut().find(|i| i.name.as_deref() == Some("hash"));
    let Some(Op::Binary { op, .. }) = hash.map(|i| &mut i.op) else {
        panic!("hash_index computes its hash in a binary op named `hash`")
    };
    assert_eq!(*op, BinOp::Xor);
    *op = BinOp::Or;
    k
}

#[test]
fn a_run_of_edited_kernel_ir_is_a_mismatch() {
    let k = hash_index_with_an_edited_op();
    for (flow, run) in [("mips", run_mips(&k)), ("legup", run_legup(&k))] {
        let err = run.expect_err(flow);
        assert!(matches!(err, FlowError::Mismatch(_)), "{flow}: {err}");
    }
}

#[test]
fn the_interpreted_reference_follows_an_edit_of_the_ir() {
    // Without its native reference the kernel is checked against its own
    // interpretation, so both runs of the edited IR verify.
    let k = BuiltKernel {
        reference_cache: ReferenceCache::default(),
        ..hash_index_with_an_edited_op()
    };
    run_mips(&k).unwrap();
    run_legup(&k).unwrap();
}
