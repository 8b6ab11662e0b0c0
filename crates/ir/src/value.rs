//! SSA values: constants, parameters, and instruction results.

use crate::inst::InstId;
use crate::types::Ty;
use std::fmt;

/// A handle to an SSA value inside one [`Function`].
///
/// Values are interned per function; a `ValueId` indexes the function's
/// value table and is only meaningful together with that function.
///
/// [`Function`]: crate::function::Function
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The index of this value in its function's value table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    /// Boolean constant.
    I1(bool),
    /// 32-bit integer constant (stored signed; bit pattern is what matters).
    I32(i32),
    /// 64-bit integer constant.
    I64(i64),
    /// 32-bit float constant.
    F32(f32),
    /// 64-bit float constant.
    F64(f64),
    /// Pointer constant — a raw 32-bit address in the simulated memory.
    /// `Ptr(0)` is the null pointer.
    Ptr(u32),
}

impl Const {
    /// The type of this constant.
    #[must_use]
    pub fn ty(&self) -> Ty {
        match self {
            Const::I1(_) => Ty::I1,
            Const::I32(_) => Ty::I32,
            Const::I64(_) => Ty::I64,
            Const::F32(_) => Ty::F32,
            Const::F64(_) => Ty::F64,
            Const::Ptr(_) => Ty::Ptr,
        }
    }

    /// A canonical bit pattern used for hashing/interning.
    ///
    /// Floats are interned by bit pattern, so `0.0` and `-0.0` are distinct
    /// constants (they have different hardware representations).
    #[must_use]
    pub fn bits(&self) -> u64 {
        match *self {
            Const::I1(b) => u64::from(b),
            Const::I32(v) => v as u32 as u64,
            Const::I64(v) => v as u64,
            Const::F32(v) => u64::from(v.to_bits()),
            Const::F64(v) => v.to_bits(),
            Const::Ptr(v) => u64::from(v),
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::I1(b) => write!(f, "i1 {}", u8::from(*b)),
            Const::I32(v) => write!(f, "i32 {v}"),
            Const::I64(v) => write!(f, "i64 {v}"),
            Const::F32(v) => write!(f, "f32 {v}"),
            Const::F64(v) => write!(f, "f64 {v}"),
            Const::Ptr(v) => write!(f, "ptr {v:#x}"),
        }
    }
}

/// What a [`ValueId`] refers to.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueDef {
    /// The `index`-th formal parameter of the function.
    Param { index: u32, ty: Ty },
    /// An interned constant.
    Const(Const),
    /// The result of an instruction.
    Inst { inst: InstId, ty: Ty },
}

impl ValueDef {
    /// The type of the value.
    #[must_use]
    pub fn ty(&self) -> Ty {
        match self {
            ValueDef::Param { ty, .. } | ValueDef::Inst { ty, .. } => *ty,
            ValueDef::Const(c) => c.ty(),
        }
    }

    /// The defining instruction, if the value is an instruction result.
    #[must_use]
    pub fn def_inst(&self) -> Option<InstId> {
        match self {
            ValueDef::Inst { inst, .. } => Some(*inst),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_types() {
        assert_eq!(Const::I32(7).ty(), Ty::I32);
        assert_eq!(Const::F64(1.5).ty(), Ty::F64);
        assert_eq!(Const::Ptr(0).ty(), Ty::Ptr);
    }

    #[test]
    fn const_bits_distinguish_signed_zero() {
        assert_ne!(Const::F64(0.0).bits(), Const::F64(-0.0).bits());
        assert_eq!(Const::I32(-1).bits(), u64::from(u32::MAX));
    }

    #[test]
    fn valuedef_ty_and_def() {
        let d = ValueDef::Inst { inst: InstId(3), ty: Ty::F32 };
        assert_eq!(d.ty(), Ty::F32);
        assert_eq!(d.def_inst(), Some(InstId(3)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ValueId(4).to_string(), "%4");
        assert_eq!(Const::I32(-3).to_string(), "i32 -3");
        assert_eq!(Const::Ptr(0x10).to_string(), "ptr 0x10");
    }
}
