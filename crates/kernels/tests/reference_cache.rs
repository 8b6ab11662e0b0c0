//! The cached functional reference is exact: it reproduces a fresh
//! interpretation byte for byte, and `BuiltKernel::check` rejects any byte
//! or return value that differs from it.

use cgpa_ir::{Function, InstId};
use cgpa_kernels::{
    em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel, CheckError, ReferenceCache,
};
use cgpa_sim::interp::{run_function, ExecHooks, NoHooks};
use cgpa_sim::{InterpError, SimMemory, Value};

/// The five kernels at the quick scale the benchmark and the explorer use.
fn quick_suite(seed: u64) -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 64, clusters: 4, features: 8 }, seed),
        hash_index::build(&hash_index::Params { items: 256, buckets: 64, scatter: 24 }, seed),
        ks::build(&ks::Params { a_cells: 24, b_cells: 24, scatter: 16 }, seed),
        em3d::build(&em3d::Params::fixed(128, 128, 8, 32), seed),
        gaussblur::build(&gaussblur::Params { width: 512 }, seed),
    ]
}

/// An uncached interpretation of `k` on a copy of its workload.
fn fresh_run(k: &BuiltKernel) -> (SimMemory, Option<Value>) {
    let mut mem = k.mem.clone();
    let (ret, _) = run_function(&k.func, &k.args, &mut mem, 2_000_000_000, &mut NoHooks).unwrap();
    (mem, ret)
}

fn bytes(mem: &SimMemory) -> &[u8] {
    mem.read_bytes(0, mem.size())
}

/// The first and one-past-last byte the reference changes.
fn changed_window(k: &BuiltKernel, after: &SimMemory) -> (usize, usize) {
    let pairs = || bytes(&k.mem).iter().zip(bytes(after));
    let lo = pairs().position(|(a, b)| a != b).expect("the kernel changes memory");
    let hi = pairs().rposition(|(a, b)| a != b).unwrap() + 1;
    (lo, hi)
}

fn flip(mem: &mut SimMemory, addr: u32) {
    let b = mem.read_bytes(addr, 1)[0];
    mem.write_bytes(addr, &[b ^ 0x01]);
}

#[test]
fn reference_matches_a_fresh_interpretation() {
    for seed in [1, 7] {
        for k in &quick_suite(seed) {
            let (fresh_mem, fresh_ret) = fresh_run(k);
            // Before the cache is filled, and rebuilt from the cached window.
            let uncached = k.reference();
            k.cache_reference().unwrap();
            let cached = k.reference();
            for (mem, ret) in [uncached, cached] {
                assert!(bytes(&mem) == bytes(&fresh_mem), "{} seed {seed}: image differs", k.name);
                assert_eq!(ret, fresh_ret, "{} seed {seed}", k.name);
            }
            assert_eq!(k.check(&fresh_mem, fresh_ret), Ok(()), "{} seed {seed}", k.name);
        }
    }
}

#[test]
fn check_rejects_a_flip_inside_the_window() {
    for k in &quick_suite(3) {
        let (mut mem, ret) = k.reference();
        let (lo, hi) = changed_window(k, &mem);
        for addr in [lo, (lo + hi) / 2, hi - 1] {
            let mut bad = mem.clone();
            flip(&mut bad, addr as u32);
            let err = k.check(&bad, ret).unwrap_err();
            assert!(matches!(err, CheckError::Memory(_)), "{} byte {addr:#x}: {err}", k.name);
        }
        // The unflipped image still verifies.
        flip(&mut mem, lo as u32);
        flip(&mut mem, lo as u32);
        assert_eq!(k.check(&mem, ret), Ok(()), "{}", k.name);
    }
}

/// Records the byte addresses a run loads from.
#[derive(Default)]
struct Loads(Vec<u32>);

impl ExecHooks for Loads {
    fn on_inst(&mut self, _: &Function, _: InstId) {}
    fn on_mem(&mut self, addr: u32, size: u32, store: bool) {
        if !store {
            self.0.extend(addr..addr + size);
        }
    }
    fn on_branch(&mut self, _: bool) {}
}

#[test]
fn check_rejects_a_flip_outside_the_window_where_the_kernel_only_reads() {
    for k in &quick_suite(3) {
        let (mem, ret) = k.reference();
        let (lo, hi) = changed_window(k, &mem);
        let mut loads = Loads::default();
        run_function(&k.func, &k.args, &mut k.mem.clone(), 2_000_000_000, &mut loads).unwrap();
        let outside: Vec<u32> =
            loads.0.into_iter().filter(|&a| (a as usize) < lo || (a as usize) >= hi).collect();
        assert!(!outside.is_empty(), "{}: every load falls inside the window", k.name);
        for addr in [outside[0], outside[outside.len() / 2], outside[outside.len() - 1]] {
            let mut bad = mem.clone();
            flip(&mut bad, addr);
            let err = k.check(&bad, ret).unwrap_err();
            assert!(matches!(err, CheckError::Memory(_)), "{} byte {addr:#x}: {err}", k.name);
        }
    }
}

#[test]
fn check_rejects_a_wrong_return_value() {
    for k in &quick_suite(3) {
        let (mem, ret) = k.reference();
        let wrong = match ret {
            Some(Value::I32(v)) => Some(Value::I32(v + 1)),
            Some(Value::F32(v)) => Some(Value::F32(v + 1.0)),
            Some(other) => panic!("{}: unexpected return type {other:?}", k.name),
            None => Some(Value::I32(0)),
        };
        assert_eq!(
            k.check(&mem, wrong),
            Err(CheckError::Return { got: wrong, want: ret }),
            "{}",
            k.name
        );
        if ret.is_some() {
            assert!(matches!(k.check(&mem, None), Err(CheckError::Return { .. })), "{}", k.name);
        }
    }
}

#[test]
fn check_reports_a_size_difference() {
    let k = &quick_suite(3)[2];
    let err = k.check(&SimMemory::new(k.mem.size() + 64), None).unwrap_err();
    assert_eq!(err, CheckError::Size { got: k.mem.size() + 64, want: k.mem.size() });
}

#[test]
fn a_reference_that_fails_to_interpret_is_a_typed_error() {
    let mut k = quick_suite(3).remove(2);
    k.args.pop();
    let err = k.check(&k.mem, None).unwrap_err();
    assert!(matches!(err, CheckError::Reference(InterpError::BadArity { .. })), "{err}");
}

/// Arguments a native reference cannot run on, and the error it gives.
type BadArgs = (&'static str, fn(&mut BuiltKernel), fn(&InterpError) -> bool);

#[test]
fn a_native_reference_that_cannot_run_is_a_typed_error() {
    let rows: [BadArgs; 2] = [
        (
            "a mistyped argument",
            |k| k.args[0] = Value::I32(1),
            |e| matches!(e, InterpError::BadArgument { index: 0, .. }),
        ),
        (
            "a pointer past the end of memory",
            |k| k.args[0] = Value::Ptr(k.mem.size()),
            |e| matches!(e, InterpError::OutOfRange { .. }),
        ),
    ];
    for (what, edit, want) in rows {
        for mut k in quick_suite(3) {
            edit(&mut k);
            let err = k.check(&k.mem, None).unwrap_err();
            assert!(
                matches!(&err, CheckError::Reference(e) if want(e)),
                "{} {what}: {err}",
                k.name
            );
            // The interpreted reference fails the same way.
            let k = BuiltKernel { reference_cache: ReferenceCache::default(), ..k };
            let err = k.check(&k.mem, None).unwrap_err();
            assert!(
                matches!(&err, CheckError::Reference(e) if want(e)),
                "{} {what}: {err}",
                k.name
            );
        }
    }
}

#[test]
fn an_edited_clone_gets_its_own_reference() {
    let k = gaussblur::build(&gaussblur::Params { width: 64 }, 5);
    k.cache_reference().unwrap();
    let (original, _) = k.reference();
    let mut edited = k.clone();
    let img = edited.args[0].as_ptr();
    for i in 0..64 {
        edited.mem.write_f32(img + 4 * i, 100.0);
    }
    edited.cache_reference().unwrap();
    let (mem, _) = edited.reference();
    let (fresh, _) = fresh_run(&edited);
    assert!(bytes(&mem) == bytes(&fresh), "the clone's reference is its own");
    assert_eq!(edited.check(&fresh, None), Ok(()));
    assert!(bytes(&mem) != bytes(&original), "the edit changes the result");
    // The original's cache is untouched by the clone's.
    assert!(bytes(&k.reference().0) == bytes(&original));
    assert!(matches!(k.check(&mem, None), Err(CheckError::Memory(_))));
}

#[test]
fn concurrent_checks_share_one_reference() {
    let k = em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 9);
    let (mem, ret) = fresh_run(&k);
    // Release every thread at once, so they race to fill the empty cache.
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                start.wait();
                assert_eq!(k.check(&mem, ret), Ok(()));
            });
        }
    });
}
