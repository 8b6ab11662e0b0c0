//! Runtime values.

use cgpa_ir::{Const, Ty};
use std::fmt;

/// A bit-accurate runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Boolean.
    I1(bool),
    /// 32-bit integer (two's complement).
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
    /// 32-bit pointer into simulated memory.
    Ptr(u32),
}

impl Value {
    /// The value's type.
    #[must_use]
    pub fn ty(&self) -> Ty {
        match self {
            Value::I1(_) => Ty::I1,
            Value::I32(_) => Ty::I32,
            Value::I64(_) => Ty::I64,
            Value::F32(_) => Ty::F32,
            Value::F64(_) => Ty::F64,
            Value::Ptr(_) => Ty::Ptr,
        }
    }

    /// Interpret as a boolean.
    ///
    /// # Panics
    /// Panics if the value is not `I1` (the verifier guarantees branch
    /// conditions are `i1`).
    #[must_use]
    pub fn as_bool(&self) -> bool {
        match self {
            Value::I1(b) => *b,
            other => panic!("expected i1, got {other:?}"),
        }
    }

    /// Interpret as a pointer.
    ///
    /// # Panics
    /// Panics if the value is not `Ptr`.
    #[must_use]
    pub fn as_ptr(&self) -> u32 {
        match self {
            Value::Ptr(p) => *p,
            other => panic!("expected ptr, got {other:?}"),
        }
    }

    /// Raw 64-bit pattern: the layout of a register, and of FIFO beats.
    #[must_use]
    pub fn to_bits(&self) -> u64 {
        match self {
            Value::I1(b) => u64::from(*b),
            Value::I32(v) => *v as u32 as u64,
            Value::I64(v) => *v as u64,
            Value::F32(v) => u64::from(v.to_bits()),
            Value::F64(v) => v.to_bits(),
            Value::Ptr(p) => u64::from(*p),
        }
    }

    /// Rebuild a value of type `ty` from a 64-bit pattern.
    #[must_use]
    pub fn from_bits(ty: Ty, bits: u64) -> Value {
        match ty {
            Ty::I1 => Value::I1(bits & 1 != 0),
            Ty::I32 => Value::I32(bits as u32 as i32),
            Ty::I64 => Value::I64(bits as i64),
            Ty::F32 => Value::F32(f32::from_bits(bits as u32)),
            Ty::F64 => Value::F64(f64::from_bits(bits)),
            Ty::Ptr => Value::Ptr(bits as u32),
        }
    }

    /// Zero of the given type.
    #[must_use]
    pub fn zero(ty: Ty) -> Value {
        Value::from_bits(ty, 0)
    }
}

impl From<Const> for Value {
    fn from(c: Const) -> Value {
        match c {
            Const::I1(b) => Value::I1(b),
            Const::I32(v) => Value::I32(v),
            Const::I64(v) => Value::I64(v),
            Const::F32(v) => Value::F32(v),
            Const::F64(v) => Value::F64(v),
            Const::Ptr(p) => Value::Ptr(p),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I1(b) => write!(f, "{}", u8::from(*b)),
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Ptr(p) => write!(f, "{p:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip_every_type() {
        for v in [
            Value::I1(true),
            Value::I32(-5),
            Value::I64(1 << 40),
            Value::F32(1.5),
            Value::F64(-2.25),
            Value::Ptr(0xdead_beef),
        ] {
            let back = Value::from_bits(v.ty(), v.to_bits());
            assert_eq!(v, back);
        }
    }

    #[test]
    fn const_conversion() {
        assert_eq!(Value::from(Const::F64(3.0)), Value::F64(3.0));
        assert_eq!(Value::from(Const::Ptr(8)).as_ptr(), 8);
    }

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero(Ty::F64), Value::F64(0.0));
        assert_eq!(Value::zero(Ty::I1), Value::I1(false));
    }
}
