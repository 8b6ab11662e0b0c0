//! Bit-accurate functional semantics of the IR operations, shared by the
//! reference interpreter, the MIPS model, and the hardware simulator.
//!
//! The typed kernels (`int32`, `int64`, `float`, `logic`, `icmp_*`,
//! `fcmp`, `Conv::apply`, `gep`) are the one definition of each operation;
//! the `eval_*` functions apply them to tagged [`Value`]s and define which
//! operand types each op takes. The IR verifier
//! ([`cgpa_ir::verify::verify`]) admits exactly those forms, so a verified
//! function never asks for an op the kernels lack.
//!
//! Registers are untyped bits. The datapath and the interpreter run
//! register ops in a decoded form, `RegOp` (crate private), produced by the
//! one lowering they share (`datapath::Program`): once per task FSM, and
//! once per interpreter call. Decoding reads the declared operand types
//! (`Function::value_ty`) and picks the typed micro-op of the form, which
//! reads its operands' bits as those types and calls the kernel directly.
//! A register holds its value's bits in [`Value::to_bits`] layout, and
//! nothing checks a tag at run time: types are checked once, before the
//! first instruction or cycle, by the verifier, by lowering (which rejects
//! an op its target cannot run) and at the boundaries where tagged values
//! enter (arguments, queue ports, retrieved liveouts).

use crate::value::Value;
use cgpa_ir::{BinOp, CastKind, FloatPredicate, Function, IntPredicate, Op, Ty, ValueId};
use std::error::Error;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// An op/value combination the execution semantics do not define.
///
/// The IR verifier rejects every such combination in a function, and each
/// executor checks its arguments' tags before it runs, so no run meets
/// one; the tagged `eval_*` functions still return this instead of
/// panicking when called on other values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ExecError {}
/// 32-bit integer `op`; `None` for the floating-point opcodes.
///
/// Arithmetic wraps (two's complement); `sdiv`/`srem` by zero return 0 /
/// the dividend respectively, modelling a hardware divider that never
/// traps; shift amounts are masked to the operand width.
#[inline]
fn int32(op: BinOp, x: i32, y: i32) -> Option<i32> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::SDiv => {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }
        BinOp::SRem => {
            if y == 0 {
                x
            } else {
                x.wrapping_rem(y)
            }
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::LShr => ((x as u32) >> (y as u32 & 31)) as i32,
        BinOp::AShr => x >> (y as u32 & 31),
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => return None,
    })
}

/// 64-bit integer `op`, with the semantics of [`int32`].
#[inline]
fn int64(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::SDiv => {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }
        BinOp::SRem => {
            if y == 0 {
                x
            } else {
                x.wrapping_rem(y)
            }
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::LShr => ((x as u64) >> (y as u32 & 63)) as i64,
        BinOp::AShr => x >> (y as u32 & 63),
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => return None,
    })
}

/// Floating-point `op` (IEEE-754, either width); `None` for the integer
/// opcodes.
#[inline]
fn float<T>(op: BinOp, x: T, y: T) -> Option<T>
where
    T: Add<Output = T> + Sub<Output = T> + Mul<Output = T> + Div<Output = T>,
{
    match op {
        BinOp::FAdd => Some(x + y),
        BinOp::FSub => Some(x - y),
        BinOp::FMul => Some(x * y),
        BinOp::FDiv => Some(x / y),
        _ => None,
    }
}

/// Boolean `op` on two `i1`s; `None` for all but `and`, `or` and `xor`.
#[inline]
fn logic(op: BinOp, x: bool, y: bool) -> Option<bool> {
    match op {
        BinOp::And => Some(x & y),
        BinOp::Or => Some(x | y),
        BinOp::Xor => Some(x ^ y),
        _ => None,
    }
}

/// Signed/unsigned comparison of two 32-bit integers.
#[inline]
fn icmp_i32(pred: IntPredicate, x: i32, y: i32) -> bool {
    use IntPredicate as P;
    match pred {
        P::Eq => x == y,
        P::Ne => x != y,
        P::Slt => x < y,
        P::Sle => x <= y,
        P::Sgt => x > y,
        P::Sge => x >= y,
        P::Ult => (x as u32) < (y as u32),
        P::Uge => (x as u32) >= (y as u32),
    }
}

/// Signed/unsigned comparison of two 64-bit integers.
#[inline]
fn icmp_i64(pred: IntPredicate, x: i64, y: i64) -> bool {
    use IntPredicate as P;
    match pred {
        P::Eq => x == y,
        P::Ne => x != y,
        P::Slt => x < y,
        P::Sle => x <= y,
        P::Sgt => x > y,
        P::Sge => x >= y,
        P::Ult => (x as u64) < (y as u64),
        P::Uge => (x as u64) >= (y as u64),
    }
}

/// Pointer comparison: unsigned, signed predicates included.
#[inline]
fn icmp_ptr(pred: IntPredicate, x: u32, y: u32) -> bool {
    use IntPredicate as P;
    match pred {
        P::Eq => x == y,
        P::Ne => x != y,
        P::Slt | P::Ult => x < y,
        P::Sle => x <= y,
        P::Sgt => x > y,
        P::Sge | P::Uge => x >= y,
    }
}

/// Equality of two `i1`s; `None` for the ordered predicates.
#[inline]
fn icmp_i1(pred: IntPredicate, x: bool, y: bool) -> Option<bool> {
    match pred {
        IntPredicate::Eq => Some(x == y),
        IntPredicate::Ne => Some(x != y),
        _ => None,
    }
}

/// Ordered float comparison (NaN compares false). `f32` operands widen
/// exactly to `f64`.
#[inline]
fn fcmp(pred: FloatPredicate, x: f64, y: f64) -> bool {
    use FloatPredicate as P;
    match pred {
        P::Oeq => x == y,
        P::One => x != y && !x.is_nan() && !y.is_nan(),
        P::Olt => x < y,
        P::Ole => x <= y,
        P::Ogt => x > y,
        P::Oge => x >= y,
    }
}

/// Address computation `base + index * scale + offset`, wrapping to 32
/// bits.
#[inline]
fn gep(base: u32, index: i64, scale: u32, offset: i32) -> u32 {
    i64::from(base)
        .wrapping_add(index.wrapping_mul(i64::from(scale)))
        .wrapping_add(i64::from(offset)) as u32
}

/// A scalar conversion the semantics define: one cast kind from one type
/// to another, on the bits of a [`Value::to_bits`] layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Conv {
    /// The bits stay as they are: `zext` (the layout already zero-extends)
    /// and `ptrcast` either way.
    Bits,
    /// `sext i32 -> i64`.
    SExt32To64,
    /// `sext i1 -> i32`.
    SExt1To32,
    /// `trunc i64 -> i32`.
    Trunc64To32,
    /// `trunc i32 -> i1`: the low bit.
    Trunc32To1,
    /// `sitofp i32 -> f32`.
    I32ToF32,
    /// `sitofp i32 -> f64`.
    I32ToF64,
    /// `sitofp i64 -> f64`.
    I64ToF64,
    /// `fptosi f32 -> i32` (saturating, NaN to 0).
    F32ToI32,
    /// `fptosi f64 -> i32`.
    F64ToI32,
    /// `fptosi f64 -> i64`.
    F64ToI64,
    /// `fpcast f32 -> f64`.
    F32ToF64,
    /// `fpcast f64 -> f32`.
    F64ToF32,
}

impl Conv {
    /// The conversion `kind` from `from` to `to` denotes, if the semantics
    /// define it.
    pub(crate) fn of(kind: CastKind, from: Ty, to: Ty) -> Option<Conv> {
        use CastKind as K;
        use Ty as T;
        Some(match (kind, from, to) {
            (K::ZExt, T::I32, T::I64)
            | (K::ZExt, T::I1, T::I32 | T::I64)
            | (K::PtrCast, T::Ptr, T::I32)
            | (K::PtrCast, T::I32, T::Ptr) => Conv::Bits,
            (K::SExt, T::I32, T::I64) => Conv::SExt32To64,
            (K::SExt, T::I1, T::I32) => Conv::SExt1To32,
            (K::Trunc, T::I64, T::I32) => Conv::Trunc64To32,
            (K::Trunc, T::I32, T::I1) => Conv::Trunc32To1,
            (K::SiToFp, T::I32, T::F32) => Conv::I32ToF32,
            (K::SiToFp, T::I32, T::F64) => Conv::I32ToF64,
            (K::SiToFp, T::I64, T::F64) => Conv::I64ToF64,
            (K::FpToSi, T::F32, T::I32) => Conv::F32ToI32,
            (K::FpToSi, T::F64, T::I32) => Conv::F64ToI32,
            (K::FpToSi, T::F64, T::I64) => Conv::F64ToI64,
            (K::FpCast, T::F32, T::F64) => Conv::F32ToF64,
            (K::FpCast, T::F64, T::F32) => Conv::F64ToF32,
            _ => return None,
        })
    }

    /// Convert the bits `b` of a source value into the target's bits.
    #[inline]
    fn apply(self, b: u64) -> u64 {
        match self {
            Conv::Bits => b,
            Conv::SExt32To64 => i64::from(as_i32(b)) as u64,
            Conv::SExt1To32 => of_i32(-i32::from(b != 0)),
            Conv::Trunc64To32 => b & 0xffff_ffff,
            Conv::Trunc32To1 => b & 1,
            Conv::I32ToF32 => of_f32(as_i32(b) as f32),
            Conv::I32ToF64 => f64::from(as_i32(b)).to_bits(),
            Conv::I64ToF64 => (b as i64 as f64).to_bits(),
            Conv::F32ToI32 => of_i32(as_f32(b) as i32),
            Conv::F64ToI32 => of_i32(f64::from_bits(b) as i32),
            Conv::F64ToI64 => f64::from_bits(b) as i64 as u64,
            Conv::F32ToF64 => f64::from(as_f32(b)).to_bits(),
            Conv::F64ToF32 => of_f32(f64::from_bits(b) as f32),
        }
    }
}

/// The `i32` whose bits a register holds.
#[inline(always)]
fn as_i32(b: u64) -> i32 {
    b as u32 as i32
}

/// The `f32` whose bits a register holds.
#[inline(always)]
fn as_f32(b: u64) -> f32 {
    f32::from_bits(b as u32)
}

/// The register bits of an `i32`.
#[inline(always)]
fn of_i32(x: i32) -> u64 {
    u64::from(x as u32)
}

/// The register bits of an `f32`.
#[inline(always)]
fn of_f32(x: f32) -> u64 {
    u64::from(x.to_bits())
}

/// Evaluate a binary operation. Integer arithmetic wraps (two's
/// complement), division by zero never traps (`sdiv` gives 0, `srem` the
/// dividend), and shift amounts are masked to the operand width.
///
/// # Errors
/// [`ExecError`] on operand-type combinations the semantics do not define.
#[inline]
pub fn eval_binary(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    use Value as V;
    let r = match (a, b) {
        (V::I32(x), V::I32(y)) => int32(op, x, y).map(V::I32),
        (V::I64(x), V::I64(y)) => int64(op, x, y).map(V::I64),
        (V::F32(x), V::F32(y)) => float(op, x, y).map(V::F32),
        (V::F64(x), V::F64(y)) => float(op, x, y).map(V::F64),
        (V::I1(x), V::I1(y)) => logic(op, x, y).map(V::I1),
        _ => None,
    };
    r.ok_or_else(|| ExecError(format!("eval_binary: unsupported {op:?} on {a:?}, {b:?}")))
}

/// Evaluate an integer comparison (pointers compare unsigned; `i1` only
/// supports equality).
///
/// # Errors
/// [`ExecError`] on mismatched or float operands, or an ordered predicate
/// on `i1`.
#[inline]
pub fn eval_icmp(pred: IntPredicate, a: Value, b: Value) -> Result<Value, ExecError> {
    let r = match (a, b) {
        (Value::I32(x), Value::I32(y)) => Some(icmp_i32(pred, x, y)),
        (Value::I64(x), Value::I64(y)) => Some(icmp_i64(pred, x, y)),
        (Value::Ptr(x), Value::Ptr(y)) => Some(icmp_ptr(pred, x, y)),
        (Value::I1(x), Value::I1(y)) => icmp_i1(pred, x, y),
        _ => None,
    };
    r.map(Value::I1)
        .ok_or_else(|| ExecError(format!("eval_icmp: unsupported {pred:?} on {a:?}, {b:?}")))
}

/// Evaluate a float comparison (ordered: NaN compares false).
///
/// # Errors
/// [`ExecError`] on non-float or mixed-width operands.
#[inline]
pub fn eval_fcmp(pred: FloatPredicate, a: Value, b: Value) -> Result<Value, ExecError> {
    let (x, y) = match (a, b) {
        (Value::F32(x), Value::F32(y)) => (f64::from(x), f64::from(y)),
        (Value::F64(x), Value::F64(y)) => (x, y),
        (a, b) => {
            return Err(ExecError(format!("eval_fcmp: unsupported {pred:?} on {a:?}, {b:?}")))
        }
    };
    Ok(Value::I1(fcmp(pred, x, y)))
}

/// Evaluate a cast.
///
/// # Errors
/// [`ExecError`] on combinations the semantics do not define.
pub fn eval_cast(kind: CastKind, v: Value, to: Ty) -> Result<Value, ExecError> {
    match Conv::of(kind, v.ty(), to) {
        Some(conv) => Ok(Value::from_bits(to, conv.apply(v.to_bits()))),
        None => Err(ExecError(format!("eval_cast: unsupported {kind:?} {v:?} -> {to}"))),
    }
}

/// Evaluate address computation `base + index * scale + offset`.
///
/// # Errors
/// [`ExecError`] if `base` is not a pointer or `index` is not an integer.
#[inline]
pub fn eval_gep(
    base: Value,
    index: Option<Value>,
    scale: u32,
    offset: i32,
) -> Result<Value, ExecError> {
    let idx = match index {
        Some(Value::I32(i)) => i64::from(i),
        Some(Value::I64(i)) => i,
        None => 0,
        Some(other) => return Err(ExecError(format!("eval_gep: unsupported index {other:?}"))),
    };
    match base {
        Value::Ptr(b) => Ok(Value::Ptr(gep(b, idx, scale, offset))),
        other => Err(ExecError(format!("eval_gep: unsupported base {other:?}"))),
    }
}

/// A register: a dense index into a register file that holds one slot per
/// IR value of a function, as the value's bits in [`Value::to_bits`]
/// layout.
pub(crate) type Reg = u32;

/// The register of IR value `v`.
#[inline]
pub(crate) fn reg(v: ValueId) -> Reg {
    v.0
}

/// A register op decoded against its operands' declared types (see the
/// module docs): it reads and writes only registers. Each variant is one
/// operand type, and reads its operands' bits as that type.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RegOp {
    /// `and`, `or` or `xor` on two `i1`s, computed by [`logic`].
    BinI1 { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// An integer op on two `i32`s, computed by [`int32`].
    BinI32 { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// An integer op on two `i64`s, computed by [`int64`].
    BinI64 { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// A float op on two `f32`s, computed by [`float`].
    BinF32 { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// A float op on two `f64`s, computed by [`float`].
    BinF64 { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `eq` or `ne` on two `i1`s, computed by [`icmp_i1`].
    ICmpI1 { pred: IntPredicate, dst: Reg, a: Reg, b: Reg },
    /// A compare of two `i32`s, computed by [`icmp_i32`].
    ICmpI32 { pred: IntPredicate, dst: Reg, a: Reg, b: Reg },
    /// A compare of two `i64`s, computed by [`icmp_i64`].
    ICmpI64 { pred: IntPredicate, dst: Reg, a: Reg, b: Reg },
    /// A compare of two pointers, computed by [`icmp_ptr`].
    ICmpPtr { pred: IntPredicate, dst: Reg, a: Reg, b: Reg },
    /// A compare of two `f32`s, computed by [`fcmp`].
    FCmpF32 { pred: FloatPredicate, dst: Reg, a: Reg, b: Reg },
    /// A compare of two `f64`s, computed by [`fcmp`].
    FCmpF64 { pred: FloatPredicate, dst: Reg, a: Reg, b: Reg },
    /// `cond ? on_true : on_false`, at any arm type.
    Select { dst: Reg, cond: Reg, on_true: Reg, on_false: Reg },
    /// A scalar conversion.
    Cast { conv: Conv, dst: Reg, src: Reg },
    /// `base + offset`: a gep with no index.
    GepField { dst: Reg, base: Reg, offset: i32 },
    /// `base + index * scale + offset` with an `i32` index.
    GepI32 { dst: Reg, base: Reg, index: Reg, scale: u32, offset: i32 },
    /// `base + index * scale + offset` with an `i64` index.
    GepI64 { dst: Reg, base: Reg, index: Reg, scale: u32, offset: i32 },
}

impl RegOp {
    /// Decode `op`, writing register `dst`, against the declared types of
    /// `func`'s values, which the verifier has accepted; `None` when `op`
    /// is not a register op or the semantics do not define it on those
    /// types.
    pub(crate) fn decode(func: &Function, op: &Op, dst: Reg) -> Option<RegOp> {
        let ty = |v: ValueId| func.value_ty(v);
        Some(match *op {
            Op::Binary { op, lhs, rhs } => {
                let (a, b) = (reg(lhs), reg(rhs));
                match ty(lhs) {
                    Ty::I1 => RegOp::BinI1 { op, dst, a, b },
                    Ty::I32 => RegOp::BinI32 { op, dst, a, b },
                    Ty::I64 => RegOp::BinI64 { op, dst, a, b },
                    Ty::F32 => RegOp::BinF32 { op, dst, a, b },
                    Ty::F64 => RegOp::BinF64 { op, dst, a, b },
                    Ty::Ptr => return None,
                }
            }
            Op::ICmp { pred, lhs, rhs } => {
                let (a, b) = (reg(lhs), reg(rhs));
                match ty(lhs) {
                    Ty::I1 => RegOp::ICmpI1 { pred, dst, a, b },
                    Ty::I32 => RegOp::ICmpI32 { pred, dst, a, b },
                    Ty::I64 => RegOp::ICmpI64 { pred, dst, a, b },
                    Ty::Ptr => RegOp::ICmpPtr { pred, dst, a, b },
                    Ty::F32 | Ty::F64 => return None,
                }
            }
            Op::FCmp { pred, lhs, rhs } => {
                let (a, b) = (reg(lhs), reg(rhs));
                match ty(lhs) {
                    Ty::F32 => RegOp::FCmpF32 { pred, dst, a, b },
                    Ty::F64 => RegOp::FCmpF64 { pred, dst, a, b },
                    _ => return None,
                }
            }
            Op::Select { cond, on_true, on_false } => RegOp::Select {
                dst,
                cond: reg(cond),
                on_true: reg(on_true),
                on_false: reg(on_false),
            },
            Op::Cast { kind, value, to } => {
                RegOp::Cast { conv: Conv::of(kind, ty(value), to)?, dst, src: reg(value) }
            }
            Op::Gep { base, index, scale, offset } => {
                let b = reg(base);
                match index {
                    None => RegOp::GepField { dst, base: b, offset },
                    Some(i) if ty(i) == Ty::I32 => {
                        RegOp::GepI32 { dst, base: b, index: reg(i), scale, offset }
                    }
                    Some(i) if ty(i) == Ty::I64 => {
                        RegOp::GepI64 { dst, base: b, index: reg(i), scale, offset }
                    }
                    Some(_) => return None,
                }
            }
            _ => return None,
        })
    }

    /// Run the op on `regs`. Decoding pairs each kernel only with opcodes
    /// it defines, so every kernel call yields a value.
    #[inline(always)]
    pub(crate) fn exec(&self, regs: &mut [u64]) {
        let r = |x: Reg| regs[x as usize];
        let (dst, v) = match *self {
            RegOp::BinI1 { op, dst, a, b } => (dst, logic(op, r(a) != 0, r(b) != 0).map(u64::from)),
            RegOp::BinI32 { op, dst, a, b } => {
                (dst, int32(op, as_i32(r(a)), as_i32(r(b))).map(of_i32))
            }
            RegOp::BinI64 { op, dst, a, b } => {
                (dst, int64(op, r(a) as i64, r(b) as i64).map(|x| x as u64))
            }
            RegOp::BinF32 { op, dst, a, b } => {
                (dst, float(op, as_f32(r(a)), as_f32(r(b))).map(of_f32))
            }
            RegOp::BinF64 { op, dst, a, b } => {
                let (x, y) = (f64::from_bits(r(a)), f64::from_bits(r(b)));
                (dst, float(op, x, y).map(f64::to_bits))
            }
            RegOp::ICmpI1 { pred, dst, a, b } => {
                (dst, icmp_i1(pred, r(a) != 0, r(b) != 0).map(u64::from))
            }
            RegOp::ICmpI32 { pred, dst, a, b } => {
                (dst, Some(u64::from(icmp_i32(pred, as_i32(r(a)), as_i32(r(b))))))
            }
            RegOp::ICmpI64 { pred, dst, a, b } => {
                (dst, Some(u64::from(icmp_i64(pred, r(a) as i64, r(b) as i64))))
            }
            RegOp::ICmpPtr { pred, dst, a, b } => {
                (dst, Some(u64::from(icmp_ptr(pred, r(a) as u32, r(b) as u32))))
            }
            RegOp::FCmpF32 { pred, dst, a, b } => {
                let (x, y) = (f64::from(as_f32(r(a))), f64::from(as_f32(r(b))));
                (dst, Some(u64::from(fcmp(pred, x, y))))
            }
            RegOp::FCmpF64 { pred, dst, a, b } => {
                let (x, y) = (f64::from_bits(r(a)), f64::from_bits(r(b)));
                (dst, Some(u64::from(fcmp(pred, x, y))))
            }
            RegOp::Select { dst, cond, on_true, on_false } => {
                (dst, Some(r(if r(cond) != 0 { on_true } else { on_false })))
            }
            RegOp::Cast { conv, dst, src } => (dst, Some(conv.apply(r(src)))),
            RegOp::GepField { dst, base, offset } => {
                (dst, Some(u64::from(gep(r(base) as u32, 0, 0, offset))))
            }
            RegOp::GepI32 { dst, base, index, scale, offset } => {
                let i = i64::from(as_i32(r(index)));
                (dst, Some(u64::from(gep(r(base) as u32, i, scale, offset))))
            }
            RegOp::GepI64 { dst, base, index, scale, offset } => {
                (dst, Some(u64::from(gep(r(base) as u32, r(index) as i64, scale, offset))))
            }
        };
        if let Some(v) = v {
            regs[dst as usize] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_wrapping() {
        assert_eq!(
            eval_binary(BinOp::Add, Value::I32(i32::MAX), Value::I32(1)),
            Ok(Value::I32(i32::MIN))
        );
        assert_eq!(eval_binary(BinOp::SDiv, Value::I32(7), Value::I32(0)), Ok(Value::I32(0)));
        assert_eq!(eval_binary(BinOp::SRem, Value::I32(7), Value::I32(0)), Ok(Value::I32(7)));
    }

    #[test]
    fn shifts_mask_their_amount() {
        assert_eq!(
            eval_binary(BinOp::LShr, Value::I32(-1), Value::I32(1)),
            Ok(Value::I32(i32::MAX))
        );
        assert_eq!(eval_binary(BinOp::AShr, Value::I32(-8), Value::I32(2)), Ok(Value::I32(-2)));
    }

    #[test]
    fn unsupported_combinations_are_errors_not_panics() {
        // Integer multiply on two pointers has no semantics (the verifier
        // rejects it too).
        let e = eval_binary(BinOp::Mul, Value::Ptr(8), Value::Ptr(8)).unwrap_err();
        assert!(e.to_string().contains("unsupported"), "{e}");
        // Float add on mixed widths.
        assert!(eval_binary(BinOp::FAdd, Value::F32(1.0), Value::F64(1.0)).is_err());
        // A cast the semantics do not define.
        let e = eval_cast(CastKind::Trunc, Value::I1(true), Ty::F64).unwrap_err();
        assert!(e.to_string().contains("eval_cast"), "{e}");
    }

    #[test]
    fn comparisons() {
        let t = Ok(Value::I1(true));
        let f = Ok(Value::I1(false));
        assert_eq!(eval_icmp(IntPredicate::Slt, Value::I32(-1), Value::I32(0)), t);
        assert_eq!(eval_icmp(IntPredicate::Ult, Value::I32(-1), Value::I32(0)), f);
        assert_eq!(eval_icmp(IntPredicate::Eq, Value::Ptr(0), Value::Ptr(0)), t);
        assert_eq!(eval_icmp(IntPredicate::Ne, Value::I1(true), Value::I1(false)), t);
        assert_eq!(eval_fcmp(FloatPredicate::Olt, Value::F64(1.0), Value::F64(2.0)), t);
        assert_eq!(eval_fcmp(FloatPredicate::Oeq, Value::F64(f64::NAN), Value::F64(f64::NAN)), f);
    }

    #[test]
    fn undefined_comparisons_and_geps_are_errors_not_panics() {
        // An ordered compare on i1 has no semantics.
        assert!(eval_icmp(IntPredicate::Slt, Value::I1(true), Value::I1(false)).is_err());
        assert!(eval_icmp(IntPredicate::Eq, Value::I32(0), Value::I64(0)).is_err());
        assert!(eval_fcmp(FloatPredicate::Olt, Value::F32(1.0), Value::F64(2.0)).is_err());
        assert!(eval_gep(Value::I32(100), None, 0, 0).is_err());
        assert!(eval_gep(Value::Ptr(100), Some(Value::F32(1.0)), 4, 0).is_err());
    }

    #[test]
    fn casts() {
        assert_eq!(eval_cast(CastKind::SExt, Value::I32(-1), Ty::I64), Ok(Value::I64(-1)));
        assert_eq!(eval_cast(CastKind::ZExt, Value::I32(-1), Ty::I64), Ok(Value::I64(0xffff_ffff)));
        assert_eq!(eval_cast(CastKind::SiToFp, Value::I32(3), Ty::F64), Ok(Value::F64(3.0)));
        assert_eq!(eval_cast(CastKind::PtrCast, Value::Ptr(16), Ty::I32), Ok(Value::I32(16)));
    }

    #[test]
    fn gep_arithmetic() {
        assert_eq!(eval_gep(Value::Ptr(100), Some(Value::I32(3)), 8, 4), Ok(Value::Ptr(128)));
        assert_eq!(eval_gep(Value::Ptr(100), None, 0, -4), Ok(Value::Ptr(96)));
        assert_eq!(eval_gep(Value::Ptr(100), Some(Value::I32(-2)), 8, 0), Ok(Value::Ptr(84)));
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(eval_binary(BinOp::FMul, Value::F32(2.0), Value::F32(3.0)), Ok(Value::F32(6.0)));
        assert_eq!(
            eval_binary(BinOp::FSub, Value::F64(1.0), Value::F64(0.25)),
            Ok(Value::F64(0.75))
        );
    }
}
