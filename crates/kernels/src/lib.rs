//! # cgpa-kernels — the paper's five benchmark kernels
//!
//! Table 2 of the paper evaluates CGPA on five kernels from different
//! domains. Each module here provides the kernel as authored IR (the
//! substitution for the clang/LLVM frontend, see DESIGN.md §2), a seeded
//! workload generator that lays the data out in simulated memory with the
//! irregularity the original programs exhibit, the kernel's
//! [`MemoryModel`] (the alias facts a production compiler derives from
//! shape/alias analysis), and a native Rust reference implementation used
//! to validate both the IR and every hardware run.
//!
//! | Kernel | Domain | Pipeline (paper Table 2) |
//! |---|---|---|
//! | [`kmeans`] | machine learning | P-S |
//! | [`hash_index`] | database | S-P-S |
//! | [`ks`] | graph partitioning | S-P-S |
//! | [`em3d`] | 3D simulation | S-P (P2: P) |
//! | [`gaussblur`] | image processing | S-P (P2: P) |
//!
//! [`MemoryModel`]: cgpa_analysis::MemoryModel

pub mod em3d;
pub mod gaussblur;
pub mod hash_index;
pub mod kmeans;
pub mod ks;

use cgpa_analysis::MemoryModel;
use cgpa_ir::{Function, Ty};
use cgpa_sim::interp::{run_function, NoHooks};
use cgpa_sim::{diff_memories, render_diffs, InterpError, SimMemory, Value};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Instruction budget of the interpreted reference, and loop-iteration
/// budget of a native one.
const REFERENCE_FUEL: u64 = 2_000_000_000;

/// A fully materialized benchmark instance: kernel IR, memory image,
/// arguments, and alias facts.
///
/// The kernel's functional reference runs once, at the first
/// [`cache_reference`](Self::cache_reference), [`check`](Self::check) or
/// [`reference`](Self::reference), and is cached in `reference_cache`. It
/// is the kernel's [`NativeReference`] when the cache holds one (every
/// paper kernel's does), and otherwise the interpreted `func`. The inputs
/// (`func`, `mem`, `args`) are therefore fixed once the reference is
/// cached: an edit made afterwards is not seen. Edit a kernel before its
/// first check, or edit a clone, which keeps the native reference but
/// starts with an empty cache. A native reference does not follow an edit
/// of `func`, so a run of an edited `func` fails the check.
#[derive(Debug, Clone)]
pub struct BuiltKernel {
    /// Benchmark name ("em3d", "kmeans", …).
    pub name: String,
    /// Application domain (paper Table 2's "Domain" column).
    pub domain: &'static str,
    /// One-line description (paper Table 2's "Description" column).
    pub description: &'static str,
    /// The kernel function (one outer target loop).
    pub func: Function,
    /// Region/alias declarations for the PDG builder.
    pub model: MemoryModel,
    /// Simulated memory pre-loaded with the workload.
    pub mem: SimMemory,
    /// Kernel arguments.
    pub args: Vec<Value>,
    /// Target-loop trip count (used by the energy-efficiency metric).
    pub iterations: u64,
    /// The functional reference, filled on first use; construct with
    /// `ReferenceCache::native(reference_native)` for a kernel with a
    /// native reference and `ReferenceCache::default()` for one without.
    pub reference_cache: ReferenceCache,
}

/// A kernel's native reference: the original program, written in Rust over
/// the same memory layout, sharing no code with the IR or the executors
/// that run it. It runs the kernel on `mem` with `args` and returns the
/// kernel's return value.
///
/// It fails, without panicking, with the error the interpreter gives for
/// the same fault: [`InterpError::BadArity`] for a wrong argument count,
/// [`InterpError::BadArgument`] for a mistyped argument,
/// [`InterpError::OutOfRange`] for an access outside memory, and
/// [`InterpError::OutOfFuel`] after 2·10⁹ loop iterations (a cyclic list
/// in an edited image).
pub type NativeReference = fn(&mut SimMemory, &[Value]) -> Result<Option<Value>, InterpError>;

/// A [`BuiltKernel`]'s functional reference, computed on first use: by the
/// kernel's [`NativeReference`] when the cache was built with
/// [`native`](Self::native), and by interpreting the kernel IR when it was
/// built with `default()`.
///
/// Rather than a full memory image, the cache holds the byte window from
/// the first to the last byte the kernel changes, and the return value.
/// It is thread-safe (one computation however many threads ask). A clone
/// keeps the native reference and starts with an empty cache.
#[derive(Debug, Default)]
pub struct ReferenceCache {
    /// The oracle; `None` interprets the kernel IR.
    native: Option<NativeReference>,
    result: OnceLock<Result<Reference, InterpError>>,
}

impl ReferenceCache {
    /// An empty cache filled by running `oracle` on the workload.
    #[must_use]
    pub fn native(oracle: NativeReference) -> Self {
        ReferenceCache { native: Some(oracle), result: OnceLock::new() }
    }
}

impl Clone for ReferenceCache {
    fn clone(&self) -> Self {
        ReferenceCache { native: self.native, result: OnceLock::new() }
    }
}

/// The reference result: the input image with `window` written at `lo`.
#[derive(Debug)]
struct Reference {
    /// First byte the kernel changes (0 when it changes none).
    lo: u32,
    /// The reference image from `lo` through the last changed byte.
    window: Box<[u8]>,
    /// The kernel's return value.
    ret: Option<Value>,
}

/// Why a run does not match its kernel's functional reference.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// The reference itself failed.
    Reference(InterpError),
    /// The run's memory image differs in size from the workload's.
    Size {
        /// The run's size in bytes.
        got: u32,
        /// The workload's size in bytes.
        want: u32,
    },
    /// The memory images differ; holds the rendered first differing words.
    Memory(String),
    /// The memory images agree but the return values do not.
    Return {
        /// The run's return value.
        got: Option<Value>,
        /// The reference's return value.
        want: Option<Value>,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Reference(e) => write!(f, "reference: {e}"),
            CheckError::Size { got, want } => {
                write!(f, "memory size {got} bytes != reference {want} bytes")
            }
            CheckError::Memory(diffs) => write!(f, "memory state differs\n{diffs}"),
            CheckError::Return { got, want } => write!(f, "return value {got:?} != {want:?}"),
        }
    }
}

impl Error for CheckError {}

impl BuiltKernel {
    /// The kernel's functional result on the workload: the resulting
    /// memory image and return value. Hardware runs are compared against
    /// this.
    ///
    /// The reference runs at most once: the first call fills the
    /// cache as [`cache_reference`](Self::cache_reference) does, and every
    /// call rebuilds the image from the cached window. A caller that holds
    /// a run's image when it first asks has the window allocated above
    /// that image, where it can split the free space later images of the
    /// same size reuse; the flows cache the reference before they allocate
    /// a run's image, so this happens at most once per kernel.
    ///
    /// # Panics
    /// Panics if the reference fails (a bug in the kernel definition or
    /// its inputs). Flows use [`check`](Self::check), which reports that
    /// as [`CheckError::Reference`].
    #[must_use]
    pub fn reference(&self) -> (SimMemory, Option<Value>) {
        match self.cached() {
            Ok(r) => (self.image(r), r.ret),
            Err(e) => panic!("kernel reference execution: {e}"),
        }
    }

    /// Run the kernel's reference and cache it, unless it is cached.
    ///
    /// Call this before allocating the memory image of the run to check, as
    /// the flows do. The window is cut in place from the reference's copy,
    /// so it stays where that copy started. Cached after the run's image
    /// was allocated, it would sit just above that image and split the free
    /// space that later images of the same size reuse, growing the heap.
    ///
    /// # Errors
    /// The reference's error when it fails.
    pub fn cache_reference(&self) -> Result<(), InterpError> {
        self.cached().map(|_| ())
    }

    /// Compare a run's final memory image and return value with the
    /// reference, byte for byte. For a paper kernel that is its native
    /// reference, so a run is checked against the original program rather
    /// than against another execution of the same IR.
    ///
    /// # Errors
    /// [`CheckError::Reference`] when the reference fails; otherwise the
    /// first of size, memory and return value that differs.
    pub fn check(&self, mem: &SimMemory, ret: Option<Value>) -> Result<(), CheckError> {
        let r = self.cached().map_err(CheckError::Reference)?;
        if mem.size() != self.mem.size() {
            return Err(CheckError::Size { got: mem.size(), want: self.mem.size() });
        }
        let got = mem.read_bytes(0, mem.size());
        let input = self.mem.read_bytes(0, self.mem.size());
        let (lo, hi) = (r.lo as usize, r.lo as usize + r.window.len());
        if got[..lo] != input[..lo] || got[lo..hi] != *r.window || got[hi..] != input[hi..] {
            let diffs = diff_memories(mem, &self.image(r), 8);
            return Err(CheckError::Memory(render_diffs(&diffs, None)));
        }
        if ret != r.ret {
            return Err(CheckError::Return { got: ret, want: r.ret });
        }
        Ok(())
    }

    /// The cached reference, running it on first use.
    fn cached(&self) -> Result<&Reference, InterpError> {
        self.reference_cache
            .result
            .get_or_init(|| self.run_reference())
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Run the reference on a copy of the workload and keep the window it
    /// changed.
    fn run_reference(&self) -> Result<Reference, InterpError> {
        let mut after = self.mem.clone();
        let ret = match self.reference_cache.native {
            Some(native) => native(&mut after, &self.args)?,
            None => {
                run_function(&self.func, &self.args, &mut after, REFERENCE_FUEL, &mut NoHooks)?.0
            }
        };
        let input = self.mem.read_bytes(0, self.mem.size());
        let mut out = after.into_bytes();
        let (lo, hi) = changed_window(input, &out);
        // Shrink the copy to the window in place: a fresh allocation for the
        // window would outlive the copy and fragment the heap above it.
        out.copy_within(lo..hi, 0);
        out.truncate(hi - lo);
        Ok(Reference { lo: lo as u32, window: out.into_boxed_slice(), ret })
    }

    /// The reference's full memory image.
    fn image(&self, r: &Reference) -> SimMemory {
        let mut mem = self.mem.clone();
        mem.write_bytes(r.lo, &r.window);
        mem
    }
}

/// The first and one-past-last byte at which two equally long images
/// differ, or `(0, 0)` when they agree. Whole blocks compare as slices
/// (`memcmp`); only the two boundary blocks are scanned byte by byte.
fn changed_window(input: &[u8], out: &[u8]) -> (usize, usize) {
    const BLOCK: usize = 256;
    let blocks = || input.chunks(BLOCK).zip(out.chunks(BLOCK));
    let Some(first) = blocks().position(|(a, b)| a != b) else { return (0, 0) };
    let last = blocks().rposition(|(a, b)| a != b).unwrap_or(first);
    let changed = |(a, b): (&u8, &u8)| a != b;
    let from = first * BLOCK;
    let lo = from + input[from..].iter().zip(&out[from..]).position(changed).unwrap_or(0);
    let to = ((last + 1) * BLOCK).min(input.len());
    let hi = input[..to].iter().zip(&out[..to]).rposition(changed).map_or(lo, |i| i + 1);
    (lo, hi)
}

/// The `N` arguments of a native reference whose parameters have types
/// `tys`, or the error the interpreter gives for them:
/// [`InterpError::BadArity`] unless there are exactly `N`, and
/// [`InterpError::BadArgument`] for the first of another type.
fn arguments<const N: usize>(args: &[Value], tys: [Ty; N]) -> Result<[Value; N], InterpError> {
    let args = <[Value; N]>::try_from(args)
        .map_err(|_| InterpError::BadArity { expected: N, got: args.len() })?;
    for (index, (arg, expected)) in args.iter().zip(tys).enumerate() {
        if arg.ty() != expected {
            return Err(InterpError::BadArgument { index, expected, got: arg.ty() });
        }
    }
    Ok(args)
}

/// A pointer argument [`arguments`] checked.
fn ptr_arg(v: Value) -> u32 {
    v.to_bits() as u32
}

/// An `i32` argument [`arguments`] checked.
fn i32_arg(v: Value) -> i32 {
    v.to_bits() as u32 as i32
}

/// `base + index * scale`, wrapping to 32 bits like C pointer arithmetic
/// in a 32-bit address space.
fn elem(base: u32, index: i32, scale: u32) -> u32 {
    base.wrapping_add((index as u32).wrapping_mul(scale))
}

/// `base + offset`, wrapping to 32 bits.
fn field(base: u32, offset: i32) -> u32 {
    base.wrapping_add(offset as u32)
}

/// A native reference's view of memory: typed accesses that fail with
/// [`InterpError::OutOfRange`] outside memory, and a budget of
/// [`REFERENCE_FUEL`] loop iterations.
struct Native<'a> {
    mem: &'a mut SimMemory,
    fuel: u64,
}

impl<'a> Native<'a> {
    fn new(mem: &'a mut SimMemory) -> Self {
        Native { mem, fuel: REFERENCE_FUEL }
    }

    /// Spend one loop iteration: [`InterpError::OutOfFuel`] once the budget
    /// is gone.
    fn step(&mut self) -> Result<(), InterpError> {
        self.fuel = self.fuel.checked_sub(1).ok_or(InterpError::OutOfFuel)?;
        Ok(())
    }

    /// The bits of the `ty` at `addr`.
    fn load(&self, addr: u32, ty: Ty) -> Result<u64, InterpError> {
        Ok(self.mem.read_value(addr, ty)?.to_bits())
    }

    fn i32(&self, addr: u32) -> Result<i32, InterpError> {
        Ok(self.load(addr, Ty::I32)? as u32 as i32)
    }

    fn ptr(&self, addr: u32) -> Result<u32, InterpError> {
        Ok(self.load(addr, Ty::Ptr)? as u32)
    }

    fn f32(&self, addr: u32) -> Result<f32, InterpError> {
        Ok(f32::from_bits(self.load(addr, Ty::F32)? as u32))
    }

    fn f64(&self, addr: u32) -> Result<f64, InterpError> {
        Ok(f64::from_bits(self.load(addr, Ty::F64)?))
    }

    fn store(&mut self, addr: u32, v: Value) -> Result<(), InterpError> {
        Ok(self.mem.write_value(addr, v)?)
    }
}

/// Check that interpreting `k`'s IR and running `native` give the same
/// memory image and return value.
#[cfg(test)]
fn assert_ir_matches_native(k: &BuiltKernel, native: NativeReference) {
    let mut ir = k.mem.clone();
    let (ir_ret, _) = run_function(&k.func, &k.args, &mut ir, REFERENCE_FUEL, &mut NoHooks)
        .expect("the IR interprets");
    let mut out = k.mem.clone();
    let ret = native(&mut out, &k.args).expect("the native reference runs");
    assert_eq!(ir_ret, ret, "{}: return value", k.name);
    assert!(ir.read_bytes(0, ir.size()) == out.read_bytes(0, out.size()), "{}: memory", k.name);
}
