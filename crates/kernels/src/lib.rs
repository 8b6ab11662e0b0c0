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
use cgpa_ir::Function;
use cgpa_sim::interp::{run_function, NoHooks};
use cgpa_sim::{diff_memories, render_diffs, InterpError, SimMemory, Value};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Instruction budget of the functional reference.
const REFERENCE_FUEL: u64 = 2_000_000_000;

/// A fully materialized benchmark instance: kernel IR, memory image,
/// arguments, and alias facts.
///
/// The kernel's functional reference is interpreted once, by the first
/// [`cache_reference`](Self::cache_reference) or [`check`](Self::check),
/// and cached in `reference_cache`. The inputs (`func`, `mem`, `args`) are
/// therefore fixed once the reference is cached: an edit made afterwards
/// is not seen. Edit a kernel before its first check, or edit a clone,
/// which starts with an empty cache.
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
    /// `ReferenceCache::default()`.
    pub reference_cache: ReferenceCache,
}

/// A [`BuiltKernel`]'s functional reference, interpreted on first use.
///
/// Rather than a full memory image, the cache holds the byte window from
/// the first to the last byte the kernel changes, and the return value.
/// It is thread-safe (one interpretation however many threads ask), and a
/// clone starts empty.
#[derive(Debug, Default)]
pub struct ReferenceCache(OnceLock<Result<Reference, InterpError>>);

impl Clone for ReferenceCache {
    fn clone(&self) -> Self {
        ReferenceCache::default()
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
    /// The reference itself failed to interpret.
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
    /// It is rebuilt from the cached window when the cache is filled.
    /// Otherwise the kernel is interpreted on a fresh copy and the cache
    /// stays empty: a caller usually holds a run's image by now, and a
    /// window cached at this point would fragment the heap (see
    /// [`cache_reference`](Self::cache_reference)).
    ///
    /// # Panics
    /// Panics if the kernel fails to interpret (a bug in the kernel
    /// definition). Flows use [`check`](Self::check), which reports that
    /// as [`CheckError::Reference`].
    #[must_use]
    pub fn reference(&self) -> (SimMemory, Option<Value>) {
        let fail = |e: &InterpError| -> ! { panic!("kernel reference execution: {e}") };
        if let Some(r) = self.reference_cache.0.get() {
            let r = r.as_ref().unwrap_or_else(|e| fail(e));
            return (self.image(r), r.ret);
        }
        let mut mem = self.mem.clone();
        let (ret, _) = run_function(&self.func, &self.args, &mut mem, REFERENCE_FUEL, &mut NoHooks)
            .unwrap_or_else(|e| fail(&e));
        (mem, ret)
    }

    /// Interpret the kernel and cache its reference, unless it is cached.
    ///
    /// Call this before allocating the memory image of the run to check, as
    /// the flows do. The window is cut in place from the interpreted copy,
    /// so it stays where that copy started. Cached after the run's image
    /// was allocated, it would sit just above that image and split the free
    /// space that later images of the same size reuse, growing the heap.
    ///
    /// # Errors
    /// The interpreter's error when the reference does not interpret.
    pub fn cache_reference(&self) -> Result<(), InterpError> {
        self.cached().map(|_| ())
    }

    /// Compare a run's final memory image and return value with the
    /// reference, byte for byte.
    ///
    /// # Errors
    /// [`CheckError::Reference`] when the reference does not interpret;
    /// otherwise the first of size, memory and return value that differs.
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

    /// The cached reference, interpreting the kernel on first use.
    fn cached(&self) -> Result<&Reference, InterpError> {
        self.reference_cache.0.get_or_init(|| self.interpret()).as_ref().map_err(Clone::clone)
    }

    /// Interpret the kernel on a copy of the workload and keep the window
    /// it changed.
    fn interpret(&self) -> Result<Reference, InterpError> {
        let mut after = self.mem.clone();
        let (ret, _) =
            run_function(&self.func, &self.args, &mut after, REFERENCE_FUEL, &mut NoHooks)?;
        let input = self.mem.read_bytes(0, self.mem.size());
        let mut out = after.into_bytes();
        let changed = |(a, b): (&u8, &u8)| a != b;
        let lo = input.iter().zip(&out).position(changed).unwrap_or(0);
        let hi = input.iter().zip(&out).rposition(changed).map_or(lo, |i| i + 1);
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
