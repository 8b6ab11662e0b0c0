//! Bit-accurate functional semantics of the IR operations, shared by the
//! reference interpreter, the MIPS model, and the hardware simulator.
//!
//! The typed kernels (`int32`, `int64`, `float`, `icmp_*`, `fcmp`, `gep`)
//! are the one definition of each operation; the `eval_*` functions apply
//! them to tagged [`Value`]s.
//!
//! The datapath and the interpreter run register ops in a decoded form,
//! `RegOp` (crate private), produced by the one lowering they share
//! (`datapath::Program`): once per task FSM, and once per interpreter
//! call. Decoding reads the declared operand types (`Function::value_ty`)
//! and picks a typed micro-op by operand type: a `Binary` on two `i32`,
//! `i64`, `f32` or `f64`, an `ICmp` on two `i32`, `i64` or pointers and an
//! `FCmp` on two `f32` or `f64` (each carrying its opcode), and a `Gep`
//! with an `i32` or `i64` index or none. A typed micro-op checks that its
//! operand registers hold the tags it was decoded for and calls the typed
//! kernel directly. Both executors run only verified functions, so a
//! register holds another tag only when an argument brought it in: neither
//! the interpreter nor a worker type-checks its arguments. When a register
//! holds another tag, or the kernel does not define the opcode on that
//! type, the op falls back to the `eval_*` function with its
//! opcode, so its result or error text is the tagged semantics' by
//! construction. Forms with no typed micro-op (`i1` logic, pointer
//! arithmetic, casts, operands whose declared types differ) always take the
//! tagged path; `Select` checks its condition's tag itself.

use crate::value::Value;
use cgpa_ir::{BinOp, CastKind, FloatPredicate, Function, IntPredicate, Op, Ty, ValueDef, ValueId};
use std::error::Error;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// An op/value combination the execution semantics do not define.
///
/// The IR verifier rejects most of these statically, but some legal-looking
/// combinations slip through (e.g. an integer `mul` on two pointers, an
/// ordered `icmp` on `i1`), and an argument may hold another tag than its
/// parameter declares — so the evaluators return this instead of
/// panicking, and the engines surface it as `InterpError::UnsupportedOp` /
/// `HwError::Unsupported`.
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
        (Value::Ptr(x), Value::Ptr(y)) => icmp_ptr(pred, x, y),
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

/// A register: a dense index into a register file that holds one slot per
/// IR value of a function.
pub(crate) type Reg = u32;

/// The register of IR value `v`.
#[inline]
pub(crate) fn reg(v: ValueId) -> Reg {
    v.0
}

/// A register op decoded against its operands' declared types (see the
/// module docs): it reads and writes only registers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RegOp {
    /// A binary op on two `i32`s, computed by [`int32`].
    BinI32 { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// A binary op on two `i64`s, computed by [`int64`].
    BinI64 { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// A binary op on two `f32`s, computed by [`float`].
    BinF32 { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// A binary op on two `f64`s, computed by [`float`].
    BinF64 { op: BinOp, dst: Reg, a: Reg, b: Reg },
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
    /// A binary op with no typed form, run by [`eval_binary`].
    Binary { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// An integer compare with no typed form, run by [`eval_icmp`].
    ICmp { pred: IntPredicate, dst: Reg, a: Reg, b: Reg },
    /// A float compare with no typed form, run by [`eval_fcmp`].
    FCmp { pred: FloatPredicate, dst: Reg, a: Reg, b: Reg },
    /// `cond ? on_true : on_false`; `cond` must hold an `i1`.
    Select { dst: Reg, cond: Reg, on_true: Reg, on_false: Reg },
    /// A scalar conversion, run by [`eval_cast`].
    Cast { kind: CastKind, to: Ty, dst: Reg, src: Reg },
    /// `base + offset`: a gep with no index.
    GepField { dst: Reg, base: Reg, offset: i32 },
    /// `base + index * scale + offset` with an `i32` index.
    GepI32 { dst: Reg, base: Reg, index: Reg, scale: u32, offset: i32 },
    /// `base + index * scale + offset` with an `i64` index.
    GepI64 { dst: Reg, base: Reg, index: Reg, scale: u32, offset: i32 },
    /// A gep with no typed form, run by [`eval_gep`].
    Gep { dst: Reg, base: Reg, index: Option<Reg>, scale: u32, offset: i32 },
}

impl RegOp {
    /// Decode `op`, writing register `dst`, against the declared types of
    /// `func`'s values; `None` when `op` is not a register op.
    pub(crate) fn decode(func: &Function, op: &Op, dst: Reg) -> Option<RegOp> {
        let ty = |v: ValueId| func.values.get(v.index()).map(ValueDef::ty);
        // The declared type two operands share.
        let both = |x: ValueId, y: ValueId| ty(x).filter(|&t| ty(y) == Some(t));
        Some(match *op {
            Op::Binary { op, lhs, rhs } => {
                let (a, b) = (reg(lhs), reg(rhs));
                match both(lhs, rhs) {
                    Some(Ty::I32) => RegOp::BinI32 { op, dst, a, b },
                    Some(Ty::I64) => RegOp::BinI64 { op, dst, a, b },
                    Some(Ty::F32) => RegOp::BinF32 { op, dst, a, b },
                    Some(Ty::F64) => RegOp::BinF64 { op, dst, a, b },
                    _ => RegOp::Binary { op, dst, a, b },
                }
            }
            Op::ICmp { pred, lhs, rhs } => {
                let (a, b) = (reg(lhs), reg(rhs));
                match both(lhs, rhs) {
                    Some(Ty::I32) => RegOp::ICmpI32 { pred, dst, a, b },
                    Some(Ty::I64) => RegOp::ICmpI64 { pred, dst, a, b },
                    Some(Ty::Ptr) => RegOp::ICmpPtr { pred, dst, a, b },
                    _ => RegOp::ICmp { pred, dst, a, b },
                }
            }
            Op::FCmp { pred, lhs, rhs } => {
                let (a, b) = (reg(lhs), reg(rhs));
                match both(lhs, rhs) {
                    Some(Ty::F32) => RegOp::FCmpF32 { pred, dst, a, b },
                    Some(Ty::F64) => RegOp::FCmpF64 { pred, dst, a, b },
                    _ => RegOp::FCmp { pred, dst, a, b },
                }
            }
            Op::Select { cond, on_true, on_false } => RegOp::Select {
                dst,
                cond: reg(cond),
                on_true: reg(on_true),
                on_false: reg(on_false),
            },
            Op::Cast { kind, value, to } => RegOp::Cast { kind, to, dst, src: reg(value) },
            Op::Gep { base, index, scale, offset } => {
                let (b, i) = (reg(base), index.map(reg));
                match (ty(base), index.map(ty), i) {
                    (Some(Ty::Ptr), None, _) => RegOp::GepField { dst, base: b, offset },
                    (Some(Ty::Ptr), Some(Some(Ty::I32)), Some(index)) => {
                        RegOp::GepI32 { dst, base: b, index, scale, offset }
                    }
                    (Some(Ty::Ptr), Some(Some(Ty::I64)), Some(index)) => {
                        RegOp::GepI64 { dst, base: b, index, scale, offset }
                    }
                    _ => RegOp::Gep { dst, base: b, index: i, scale, offset },
                }
            }
            _ => return None,
        })
    }

    /// Run the op on `regs`: its result, or the error the tagged semantics
    /// give for the values its registers hold.
    #[inline]
    pub(crate) fn exec(&self, regs: &mut [Value]) -> Result<(), ExecError> {
        if self.exec_typed(regs) {
            Ok(())
        } else {
            self.exec_tagged(regs)
        }
    }

    /// The typed path: run the op when its registers hold the tags it was
    /// decoded for and its kernel defines it, and return `false`, writing
    /// nothing, otherwise and for the forms with no typed path.
    #[inline(always)]
    fn exec_typed(&self, regs: &mut [Value]) -> bool {
        use Value as V;
        // Operands are matched in place, not copied out: a copy loads the
        // whole register, which stalls on the narrower stores that wrote
        // its tag and payload an op or two before.
        let r = |x: Reg| &regs[x as usize];
        let (dst, v) = match *self {
            RegOp::BinI32 { op, dst, a, b } => match (r(a), r(b)) {
                (&V::I32(x), &V::I32(y)) => (dst, int32(op, x, y).map(V::I32)),
                _ => return false,
            },
            RegOp::BinI64 { op, dst, a, b } => match (r(a), r(b)) {
                (&V::I64(x), &V::I64(y)) => (dst, int64(op, x, y).map(V::I64)),
                _ => return false,
            },
            RegOp::BinF32 { op, dst, a, b } => match (r(a), r(b)) {
                (&V::F32(x), &V::F32(y)) => (dst, float(op, x, y).map(V::F32)),
                _ => return false,
            },
            RegOp::BinF64 { op, dst, a, b } => match (r(a), r(b)) {
                (&V::F64(x), &V::F64(y)) => (dst, float(op, x, y).map(V::F64)),
                _ => return false,
            },
            RegOp::ICmpI32 { pred, dst, a, b } => match (r(a), r(b)) {
                (&V::I32(x), &V::I32(y)) => (dst, Some(V::I1(icmp_i32(pred, x, y)))),
                _ => return false,
            },
            RegOp::ICmpI64 { pred, dst, a, b } => match (r(a), r(b)) {
                (&V::I64(x), &V::I64(y)) => (dst, Some(V::I1(icmp_i64(pred, x, y)))),
                _ => return false,
            },
            RegOp::ICmpPtr { pred, dst, a, b } => match (r(a), r(b)) {
                (&V::Ptr(x), &V::Ptr(y)) => (dst, Some(V::I1(icmp_ptr(pred, x, y)))),
                _ => return false,
            },
            RegOp::FCmpF32 { pred, dst, a, b } => match (r(a), r(b)) {
                (&V::F32(x), &V::F32(y)) => {
                    (dst, Some(V::I1(fcmp(pred, f64::from(x), f64::from(y)))))
                }
                _ => return false,
            },
            RegOp::FCmpF64 { pred, dst, a, b } => match (r(a), r(b)) {
                (&V::F64(x), &V::F64(y)) => (dst, Some(V::I1(fcmp(pred, x, y)))),
                _ => return false,
            },
            RegOp::Select { dst, cond, on_true, on_false } => match r(cond) {
                &V::I1(c) => (dst, Some(*r(if c { on_true } else { on_false }))),
                _ => return false,
            },
            RegOp::GepField { dst, base, offset } => match r(base) {
                &V::Ptr(p) => (dst, Some(V::Ptr(gep(p, 0, 0, offset)))),
                _ => return false,
            },
            RegOp::GepI32 { dst, base, index, scale, offset } => match (r(base), r(index)) {
                (&V::Ptr(p), &V::I32(i)) => {
                    (dst, Some(V::Ptr(gep(p, i64::from(i), scale, offset))))
                }
                _ => return false,
            },
            RegOp::GepI64 { dst, base, index, scale, offset } => match (r(base), r(index)) {
                (&V::Ptr(p), &V::I64(i)) => (dst, Some(V::Ptr(gep(p, i, scale, offset)))),
                _ => return false,
            },
            RegOp::Binary { .. }
            | RegOp::ICmp { .. }
            | RegOp::FCmp { .. }
            | RegOp::Cast { .. }
            | RegOp::Gep { .. } => return false,
        };
        let Some(v) = v else { return false };
        regs[dst as usize] = v;
        true
    }

    /// The tagged path: the `eval_*` function of the op's opcode on
    /// whatever its registers hold.
    #[cold]
    #[inline(never)]
    fn exec_tagged(&self, regs: &mut [Value]) -> Result<(), ExecError> {
        let r = |x: Reg| regs[x as usize];
        let v = match *self {
            RegOp::BinI32 { op, a, b, .. }
            | RegOp::BinI64 { op, a, b, .. }
            | RegOp::BinF32 { op, a, b, .. }
            | RegOp::BinF64 { op, a, b, .. }
            | RegOp::Binary { op, a, b, .. } => eval_binary(op, r(a), r(b))?,
            RegOp::ICmpI32 { pred, a, b, .. }
            | RegOp::ICmpI64 { pred, a, b, .. }
            | RegOp::ICmpPtr { pred, a, b, .. }
            | RegOp::ICmp { pred, a, b, .. } => eval_icmp(pred, r(a), r(b))?,
            RegOp::FCmpF32 { pred, a, b, .. }
            | RegOp::FCmpF64 { pred, a, b, .. }
            | RegOp::FCmp { pred, a, b, .. } => eval_fcmp(pred, r(a), r(b))?,
            RegOp::Select { cond, on_true, on_false, .. } => {
                r(if as_bool(&r(cond))? { on_true } else { on_false })
            }
            RegOp::Cast { kind, to, src, .. } => eval_cast(kind, r(src), to)?,
            RegOp::GepField { base, offset, .. } => eval_gep(r(base), None, 0, offset)?,
            RegOp::GepI32 { base, index, scale, offset, .. }
            | RegOp::GepI64 { base, index, scale, offset, .. } => {
                eval_gep(r(base), Some(r(index)), scale, offset)?
            }
            RegOp::Gep { base, index, scale, offset, .. } => {
                eval_gep(r(base), index.map(r), scale, offset)?
            }
        };
        regs[self.dst() as usize] = v;
        Ok(())
    }

    /// The register the op writes.
    fn dst(&self) -> Reg {
        match *self {
            RegOp::BinI32 { dst, .. }
            | RegOp::BinI64 { dst, .. }
            | RegOp::BinF32 { dst, .. }
            | RegOp::BinF64 { dst, .. }
            | RegOp::ICmpI32 { dst, .. }
            | RegOp::ICmpI64 { dst, .. }
            | RegOp::ICmpPtr { dst, .. }
            | RegOp::FCmpF32 { dst, .. }
            | RegOp::FCmpF64 { dst, .. }
            | RegOp::Binary { dst, .. }
            | RegOp::ICmp { dst, .. }
            | RegOp::FCmp { dst, .. }
            | RegOp::Select { dst, .. }
            | RegOp::Cast { dst, .. }
            | RegOp::GepField { dst, .. }
            | RegOp::GepI32 { dst, .. }
            | RegOp::GepI64 { dst, .. }
            | RegOp::Gep { dst, .. } => dst,
        }
    }
}

/// The `i1` a condition register holds.
#[inline]
pub(crate) fn as_bool(v: &Value) -> Result<bool, ExecError> {
    match *v {
        Value::I1(b) => Ok(b),
        other => Err(mistyped("i1", other)),
    }
}

/// The pointer an address register holds.
#[inline]
pub(crate) fn as_ptr(v: &Value) -> Result<u32, ExecError> {
    match *v {
        Value::Ptr(p) => Ok(p),
        other => Err(mistyped("ptr", other)),
    }
}

/// A register that holds a `got` where an op needs a `want`.
#[cold]
#[inline(never)]
pub(crate) fn mistyped(want: &str, got: Value) -> ExecError {
    ExecError(format!("expected {want}, got {got:?}"))
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
