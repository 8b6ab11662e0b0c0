//! SIFT 1D row Gaussian blur (the paper's Appendix A.2 case study).
//!
//! A 5-tap blur slides over one image row; scalar replacement and pipeline
//! vectorization have already been applied (a shift-register window), as
//! the paper does for CPU, LegUp and CGPA alike:
//!
//! ```c
//! float img0 = img[0], img1 = img[1], img2 = img[2],
//!       img3 = img[3], img4 = img[4];
//! for (int j = 0; j < width - 4; ++j) {
//!     out[j] = c0*img0 + c1*img1 + c2*img2 + c3*img3 + c4*img4;
//!     img0 = img1; img1 = img2; img2 = img3; img3 = img4;   // R2
//!     img4 = img[j + 5];                                    // R3
//! }
//! ```
//!
//! The paper identifies R1 (induction) and R2 (shift chain) as lightweight
//! replicable sections duplicated into every worker, and R3 (the image
//! fetch) as a heavyweight section placed in a sequential stage that
//! broadcasts the new pixel to all four shift chains.

use crate::{arguments, elem, field, i32_arg, ptr_arg, BuiltKernel, Native, ReferenceCache};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Function, Ty};
use cgpa_sim::{InterpError, SimMemory, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 5-tap Gaussian coefficients (σ ≈ 1).
pub const COEFFS: [f32; 5] = [0.0614, 0.2448, 0.3877, 0.2448, 0.0614];

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Row width in pixels.
    pub width: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params { width: 4096 }
    }
}

/// Build the kernel IR. Signature: `gaussblur(img: ptr, out: ptr,
/// width: i32)`. The window is pre-loaded in the entry block (live-ins of
/// the loop), exactly as the source's scalar replacement does.
#[must_use]
pub fn kernel_ir() -> Function {
    let mut b = FunctionBuilder::new(
        "gaussblur",
        &[("img", Ty::Ptr), ("out", Ty::Ptr), ("width", Ty::I32)],
        None,
    );
    let img = b.param(0);
    let out = b.param(1);
    let width = b.param(2);

    let header = b.append_block("header");
    let body = b.append_block("body");
    let exit = b.append_block("exit");

    let zero = b.const_i32(0);
    let one = b.const_i32(1);

    // Entry: pre-load the window and compute the trip bound (loop
    // live-ins).
    let mut init = [zero; 5]; // placeholder, overwritten below
    for (k, slot) in init.iter_mut().enumerate() {
        let a = b.field(img, 4 * k as i32);
        *slot = b.load_named(a, Ty::F32, &format!("init{k}"));
    }
    let neg4 = b.const_i32(-4);
    let limit = b.binary_named(BinOp::Add, width, neg4, "limit");
    b.br(header);

    b.switch_to(header);
    let j = b.phi(Ty::I32, "j");
    let im: Vec<_> = (0..5).map(|k| b.phi(Ty::F32, &format!("img{k}"))).collect();
    let c = b.icmp(IntPredicate::Slt, j, limit);
    b.cond_br(c, body, exit);

    b.switch_to(body);
    // Weighted sum (the parallel section).
    let mut sum = None;
    for (k, &coef) in COEFFS.iter().enumerate() {
        let cv = b.const_f32(coef);
        let t = b.binary(BinOp::FMul, cv, im[k]);
        sum = Some(match sum {
            None => t,
            Some(s) => b.binary(BinOp::FAdd, s, t),
        });
    }
    let sum = sum.expect("non-empty tap sum");
    let oaddr = b.gep(out, j, 4, 0);
    b.store(oaddr, sum);
    // R3: fetch img[j + 5].
    let naddr = b.gep(img, j, 4, 20);
    let newv = b.load_named(naddr, Ty::F32, "img_j5");
    let j2 = b.binary(BinOp::Add, j, one);
    b.br(header);

    b.switch_to(exit);
    b.ret(None);

    b.add_phi_incoming(j, b.entry_block(), zero);
    b.add_phi_incoming(j, body, j2);
    // R2: the shift chain img_k <- img_{k+1}, img4 <- new pixel.
    for k in 0..5 {
        b.add_phi_incoming(im[k], b.entry_block(), init[k]);
        let latch_val = if k < 4 { im[k + 1] } else { newv };
        b.add_phi_incoming(im[k], body, latch_val);
    }

    b.finish().expect("gaussblur kernel verifies")
}

/// Alias facts: the input row is read-only; each iteration writes a
/// distinct output pixel.
#[must_use]
pub fn memory_model() -> MemoryModel {
    let mut mm = MemoryModel::new();
    let img = mm.add_region("img", 4, true, false);
    let out = mm.add_region("out", 4, false, true);
    mm.bind_param(0, img);
    mm.bind_param(1, out);
    mm
}

/// Generate one image row.
#[must_use]
pub fn build(p: &Params, seed: u64) -> BuiltKernel {
    assert!(p.width >= 5, "width must cover the 5-tap window");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b1a);
    let bytes = 8 * p.width + (1 << 16);
    let mut mem = SimMemory::new(bytes.next_power_of_two().max(1 << 18));
    let img = mem.alloc(4 * p.width, 4);
    let out = mem.alloc(4 * p.width, 4);
    for i in 0..p.width {
        mem.write_f32(img + 4 * i, rng.gen_range(0.0..255.0));
        mem.write_f32(out + 4 * i, 0.0);
    }
    BuiltKernel {
        name: "gaussblur".to_string(),
        domain: "image processing",
        description: "1D row Gaussian blurring with a vectorized shift window",
        func: kernel_ir(),
        model: memory_model(),
        mem,
        args: vec![Value::Ptr(img), Value::Ptr(out), Value::I32(p.width as i32)],
        iterations: u64::from(p.width - 4),
        reference_cache: ReferenceCache::native(reference_native),
    }
}

/// Native Rust reference, with the signature of [`kernel_ir`].
///
/// # Errors
/// See [`NativeReference`](crate::NativeReference).
pub fn reference_native(mem: &mut SimMemory, args: &[Value]) -> Result<Option<Value>, InterpError> {
    let [img, out, width] = arguments(args, [Ty::Ptr, Ty::Ptr, Ty::I32])?;
    let (img, out, width) = (ptr_arg(img), ptr_arg(out), i32_arg(width));
    let mut m = Native::new(mem);
    let [c0, c1, c2, c3, c4] = COEFFS;
    let mut w = [0f32; 5];
    for (k, slot) in (0..).zip(w.iter_mut()) {
        *slot = m.f32(elem(img, k, 4))?;
    }
    for j in 0..width.wrapping_sub(4) {
        m.step()?;
        let [w0, w1, w2, w3, w4] = w;
        m.store(elem(out, j, 4), Value::F32(c0 * w0 + c1 * w1 + c2 * w2 + c3 * w3 + c4 * w4))?;
        // R2 shifts the window; R3 fetches img[j + 5].
        w = [w1, w2, w3, w4, m.f32(field(elem(img, j, 4), 20))?];
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_ir_matches_native;

    #[test]
    fn ir_matches_native_reference() {
        let p = Params { width: 64 };
        assert_ir_matches_native(&build(&p, 31), reference_native);
    }

    #[test]
    fn blur_preserves_constant_rows_approximately() {
        let p = Params { width: 32 };
        let mut k = build(&p, 1);
        let img = k.args[0].as_ptr();
        for i in 0..32 {
            k.mem.write_f32(img + 4 * i, 100.0);
        }
        let (after, _) = k.reference();
        let out = k.args[1].as_ptr();
        let v = after.read_f32(out);
        // The kernel is normalized (sums to ~1.0001).
        assert!((v - 100.0).abs() < 0.2, "blurred constant = {v}");
    }

    #[test]
    fn minimum_width_runs_zero_iterations() {
        let p = Params { width: 5 };
        let k = build(&p, 2);
        let (after, _) = k.reference();
        // width - 4 = 1 iteration writes out[0] only.
        let out = k.args[1].as_ptr();
        assert!(after.read_f32(out) != 0.0);
        assert_eq!(after.read_f32(out + 4), 0.0);
    }
}
