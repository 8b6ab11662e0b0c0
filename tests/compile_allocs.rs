//! Heap-allocation work count of the compiler: one compile plus Verilog
//! emission of every golden-scale kernel at every worker count and
//! placement of perfbench's `compile-sweep` must make no more heap
//! allocations than its bound in `tests/golden/compile_allocs.txt`.
//!
//! A counting global allocator wraps `System` and counts every `alloc`,
//! `alloc_zeroed` and `realloc` in a thread-local counter, so the other
//! tests of this binary, running on their own threads, do not disturb a
//! case's count. A bound is a measured count plus 10% headroom for
//! toolchain drift; a change that brings allocation churn back into the
//! compile path fails here. A change that cuts the count lowers the bounds
//! by hand (the failure message prints the measured counts).

use cgpa_repro::cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa_repro::kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_repro::pipeline::ReplicablePlacement;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

const BOUNDS: &str = include_str!("golden/compile_allocs.txt");

/// `System`, counting the allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The kernels of `tests/golden_transform.rs`, at its scale and seed.
fn small_suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, 9),
        hash_index::build(&hash_index::Params { items: 128, buckets: 32, scatter: 16 }, 9),
        ks::build(&ks::Params { a_cells: 16, b_cells: 16, scatter: 12 }, 9),
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 9),
        gaussblur::build(&gaussblur::Params { width: 256 }, 9),
    ]
}

/// Each case's name and allocation count, in file order.
fn counts() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for k in small_suite() {
        for (label, placement) in
            [("P1", ReplicablePlacement::Pipelined), ("P2", ReplicablePlacement::Replicated)]
        {
            for workers in [1, 2, 4, 8, 16] {
                let compiler =
                    CgpaCompiler::new(CgpaConfig { workers, placement, ..CgpaConfig::default() });
                let before = allocs();
                let compiled = compiler.compile(&k.func, &k.model).expect("golden kernels compile");
                let verilog = compiler.emit_verilog(&compiled);
                let n = allocs() - before;
                drop((compiled, verilog));
                out.push((format!("{} {label} w{workers}", k.name), n));
            }
        }
    }
    out
}

#[test]
fn compile_allocations_stay_within_their_bounds() {
    let got = counts();
    let mut listing = String::new();
    for (case, n) in &got {
        let _ = writeln!(listing, "{case} {n} (bound at +10%: {})", n + n / 10);
    }
    let bounds: Vec<(&str, u64)> = BOUNDS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let bound = l.rsplit_once(' ').and_then(|(case, b)| Some((case, b.parse().ok()?)));
            bound.unwrap_or_else(|| panic!("bad bound line {l:?}; measured:\n{listing}"))
        })
        .collect();
    assert_eq!(got.len(), bounds.len(), "case count differs from the bounds file:\n{listing}");
    for ((case, n), (want_case, bound)) in got.iter().zip(&bounds) {
        assert_eq!(case, want_case, "case order differs from the bounds file:\n{listing}");
        assert!(n <= bound, "{case}: {n} allocations exceed the bound {bound}:\n{listing}");
    }
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let before = allocs();
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(4));
    assert_eq!(allocs() - before, 1);
    drop(v);
}
