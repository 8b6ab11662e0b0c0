//! Bit-accurate functional semantics of the IR operations, shared by the
//! reference interpreter, the MIPS model, and the hardware simulator.
//!
//! The typed kernels (`int32`, `int64`, `float`, `icmp_*`, `fcmp`, `gep`)
//! are the one definition of each operation; the `eval_*` functions apply
//! them to tagged [`Value`]s.

use crate::value::Value;
use cgpa_ir::{BinOp, CastKind, FloatPredicate, IntPredicate, Ty};
use std::error::Error;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// An op/value combination the execution semantics do not define.
///
/// The IR verifier rejects most of these statically, but some legal-looking
/// combinations slip through (e.g. an integer `mul` on two pointers, an
/// ordered `icmp` on `i1`), and unverified functions reach the interpreter
/// through the degradation ladder — so the evaluators return this instead
/// of panicking, and the engines surface it as
/// `InterpError::UnsupportedOp` / `HwError::Unsupported`.
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
        // Boolean logic.
        (V::I1(x), V::I1(y)) => match op {
            BinOp::And => Some(V::I1(x & y)),
            BinOp::Or => Some(V::I1(x | y)),
            BinOp::Xor => Some(V::I1(x ^ y)),
            _ => None,
        },
        // Pointer arithmetic (rare; geps are preferred).
        (V::Ptr(x), V::I32(y)) => match op {
            BinOp::Add => Some(V::Ptr(x.wrapping_add(y as u32))),
            BinOp::Sub => Some(V::Ptr(x.wrapping_sub(y as u32))),
            _ => None,
        },
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
    use IntPredicate as P;
    let r = match (a, b) {
        (Value::I32(x), Value::I32(y)) => icmp_i32(pred, x, y),
        (Value::I64(x), Value::I64(y)) => icmp_i64(pred, x, y),
        (Value::Ptr(x), Value::Ptr(y)) => match pred {
            P::Eq => x == y,
            P::Ne => x != y,
            P::Slt | P::Ult => x < y,
            P::Sle => x <= y,
            P::Sgt => x > y,
            P::Sge | P::Uge => x >= y,
        },
        (Value::I1(x), Value::I1(y)) if pred == P::Eq => x == y,
        (Value::I1(x), Value::I1(y)) if pred == P::Ne => x != y,
        (a, b) => {
            return Err(ExecError(format!("eval_icmp: unsupported {pred:?} on {a:?}, {b:?}")))
        }
    };
    Ok(Value::I1(r))
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
    use Value as V;
    Ok(match (kind, v, to) {
        (CastKind::SExt, V::I32(x), Ty::I64) => V::I64(i64::from(x)),
        (CastKind::SExt, V::I1(x), Ty::I32) => V::I32(if x { -1 } else { 0 }),
        (CastKind::ZExt, V::I32(x), Ty::I64) => V::I64(i64::from(x as u32)),
        (CastKind::ZExt, V::I1(x), Ty::I32) => V::I32(i32::from(x)),
        (CastKind::ZExt, V::I1(x), Ty::I64) => V::I64(i64::from(x)),
        (CastKind::Trunc, V::I64(x), Ty::I32) => V::I32(x as i32),
        (CastKind::Trunc, V::I32(x), Ty::I1) => V::I1(x & 1 != 0),
        (CastKind::SiToFp, V::I32(x), Ty::F32) => V::F32(x as f32),
        (CastKind::SiToFp, V::I32(x), Ty::F64) => V::F64(f64::from(x)),
        (CastKind::SiToFp, V::I64(x), Ty::F64) => V::F64(x as f64),
        (CastKind::FpToSi, V::F32(x), Ty::I32) => V::I32(x as i32),
        (CastKind::FpToSi, V::F64(x), Ty::I32) => V::I32(x as i32),
        (CastKind::FpToSi, V::F64(x), Ty::I64) => V::I64(x as i64),
        (CastKind::FpCast, V::F32(x), Ty::F64) => V::F64(f64::from(x)),
        (CastKind::FpCast, V::F64(x), Ty::F32) => V::F32(x as f32),
        (CastKind::PtrCast, V::Ptr(x), Ty::I32) => V::I32(x as i32),
        (CastKind::PtrCast, V::I32(x), Ty::Ptr) => V::Ptr(x as u32),
        (k, v, t) => return Err(ExecError(format!("eval_cast: unsupported {k:?} {v:?} -> {t}"))),
    })
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
        // Integer multiply on two pointers passes the verifier's int-like
        // check but has no hardware semantics.
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
        // An ordered compare on i1 passes the verifier's icmp check.
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
