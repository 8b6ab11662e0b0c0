//! Byte-addressable simulated memory with a bump allocator.
//!
//! Kernels lay their data structures out here; the allocator supports
//! explicit padding so workload generators can scatter linked-list nodes
//! (the irregular-layout behaviour that makes em3d/ks/hash-indexing
//! cache-hostile on the real machine).

use crate::value::Value;
use cgpa_ir::Ty;
use std::error::Error;
use std::fmt;

/// A typed access that does not fit in simulated memory (a simulated
/// segfault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange {
    /// First byte of the access.
    pub addr: u32,
    /// Access width in bytes.
    pub width: u32,
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-byte access out of range at {:#x}", self.width, self.addr)
    }
}

impl Error for OutOfRange {}

/// Simulated physical memory. Address 0 is reserved (null), allocation
/// starts at a small offset.
#[derive(Debug, Clone)]
pub struct SimMemory {
    bytes: Vec<u8>,
    cursor: u32,
}

impl SimMemory {
    /// Create a memory of `size` bytes (allocation starts at 64).
    ///
    /// # Panics
    /// Panics if `size` < 128.
    #[must_use]
    pub fn new(size: u32) -> Self {
        assert!(size >= 128, "memory too small");
        SimMemory { bytes: vec![0; size as usize], cursor: 64 }
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// The raw image, consuming the memory.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Allocate `size` bytes aligned to `align` (power of two).
    ///
    /// # Panics
    /// Panics when memory is exhausted or `align` is not a power of two.
    pub fn alloc(&mut self, size: u32, align: u32) -> u32 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.cursor + align - 1) & !(align - 1);
        let end = base.checked_add(size).expect("allocation overflow");
        assert!(
            (end as usize) <= self.bytes.len(),
            "simulated memory exhausted: need {end}, have {}",
            self.bytes.len()
        );
        self.cursor = end;
        base
    }

    /// Skip `pad` bytes (used by workload generators to scatter nodes
    /// across cache lines).
    pub fn pad(&mut self, pad: u32) {
        self.cursor = self.cursor.saturating_add(pad);
    }

    /// Read `len` raw bytes.
    ///
    /// # Panics
    /// Panics on out-of-range access (a simulated segfault).
    #[must_use]
    pub fn read_bytes(&self, addr: u32, len: u32) -> &[u8] {
        let (a, l) = (addr as usize, len as usize);
        assert!(a + l <= self.bytes.len(), "read out of range at {addr:#x}+{len}");
        &self.bytes[a..a + l]
    }

    /// Write raw bytes.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let a = addr as usize;
        assert!(a + data.len() <= self.bytes.len(), "write out of range at {addr:#x}");
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }

    /// The `N` bytes at `addr`: the one checked read every typed access
    /// goes through.
    #[inline]
    fn word<const N: usize>(&self, addr: u32) -> Result<[u8; N], OutOfRange> {
        let a = addr as usize;
        self.bytes
            .get(a..a + N)
            .and_then(|s| <[u8; N]>::try_from(s).ok())
            .ok_or(OutOfRange { addr, width: N as u32 })
    }

    /// Write `N` bytes at `addr`: the one checked write every typed access
    /// goes through.
    #[inline]
    fn put<const N: usize>(&mut self, addr: u32, data: [u8; N]) -> Result<(), OutOfRange> {
        let a = addr as usize;
        match self.bytes.get_mut(a..a + N) {
            Some(slot) => {
                slot.copy_from_slice(&data);
                Ok(())
            }
            None => Err(OutOfRange { addr, width: N as u32 }),
        }
    }

    /// [`word`](Self::word) for the generator accessors, which document a
    /// panic on out-of-range addresses.
    fn word_or_panic<const N: usize>(&self, addr: u32) -> [u8; N] {
        self.word(addr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed read of `ty.size_bytes()` bytes (little-endian).
    ///
    /// # Errors
    /// [`OutOfRange`] when the access does not fit in memory.
    #[inline]
    pub fn read_value(&self, addr: u32, ty: Ty) -> Result<Value, OutOfRange> {
        Ok(match ty {
            Ty::I1 => Value::I1(self.word::<1>(addr)?[0] & 1 != 0),
            Ty::I32 => Value::I32(i32::from_le_bytes(self.word(addr)?)),
            Ty::I64 => Value::I64(i64::from_le_bytes(self.word(addr)?)),
            Ty::F32 => Value::F32(f32::from_le_bytes(self.word(addr)?)),
            Ty::F64 => Value::F64(f64::from_le_bytes(self.word(addr)?)),
            Ty::Ptr => Value::Ptr(u32::from_le_bytes(self.word(addr)?)),
        })
    }

    /// Typed write of `value.ty().size_bytes()` bytes (little-endian).
    ///
    /// # Errors
    /// [`OutOfRange`] when the access does not fit in memory; nothing is
    /// written then.
    #[inline]
    pub fn write_value(&mut self, addr: u32, value: Value) -> Result<(), OutOfRange> {
        match value {
            Value::I1(b) => self.put(addr, [u8::from(b)]),
            Value::I32(v) => self.put(addr, v.to_le_bytes()),
            Value::I64(v) => self.put(addr, v.to_le_bytes()),
            Value::F32(v) => self.put(addr, v.to_le_bytes()),
            Value::F64(v) => self.put(addr, v.to_le_bytes()),
            Value::Ptr(v) => self.put(addr, v.to_le_bytes()),
        }
    }

    /// Read an `i32` (workload-generator accessor).
    ///
    /// # Panics
    /// Panics on out-of-range access.
    #[must_use]
    pub fn read_i32(&self, addr: u32) -> i32 {
        i32::from_le_bytes(self.word_or_panic(addr))
    }

    /// Read an `f64`.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    #[must_use]
    pub fn read_f64(&self, addr: u32) -> f64 {
        f64::from_le_bytes(self.word_or_panic(addr))
    }

    /// Read an `f32`.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    #[must_use]
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_le_bytes(self.word_or_panic(addr))
    }

    /// Read a pointer.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    #[must_use]
    pub fn read_ptr(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.word_or_panic(addr))
    }

    /// Write an `i32`.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    pub fn write_i32(&mut self, addr: u32, v: i32) {
        self.put(addr, v.to_le_bytes()).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Write an `f64`.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    pub fn write_f64(&mut self, addr: u32, v: f64) {
        self.put(addr, v.to_le_bytes()).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Write an `f32`.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    pub fn write_f32(&mut self, addr: u32, v: f32) {
        self.put(addr, v.to_le_bytes()).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Write a pointer.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    pub fn write_ptr(&mut self, addr: u32, v: u32) {
        self.put(addr, v.to_le_bytes()).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_order() {
        let mut m = SimMemory::new(4096);
        let a = m.alloc(10, 8);
        let b = m.alloc(16, 16);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 16, 0);
        assert!(b >= a + 10);
    }

    #[test]
    fn typed_roundtrip() {
        let mut m = SimMemory::new(4096);
        let a = m.alloc(64, 8);
        m.write_f64(a, -1.25);
        m.write_i32(a + 8, 42);
        m.write_ptr(a + 12, 0xbeef);
        assert_eq!(m.read_f64(a), -1.25);
        assert_eq!(m.read_i32(a + 8), 42);
        assert_eq!(m.read_ptr(a + 12), 0xbeef);
    }

    #[test]
    fn value_roundtrip_all_types() {
        let mut m = SimMemory::new(4096);
        let a = m.alloc(64, 8);
        for v in [Value::I1(true), Value::I32(-7), Value::I64(1 << 50), Value::F32(2.5)] {
            m.write_value(a, v).unwrap();
            assert_eq!(m.read_value(a, v.ty()), Ok(v));
        }
    }

    #[test]
    fn typed_accesses_past_the_end_are_errors() {
        let mut m = SimMemory::new(4096);
        let last = m.size() - 2;
        let oob = OutOfRange { addr: last, width: 4 };
        assert_eq!(m.write_value(last, Value::I32(1)), Err(oob));
        assert_eq!(m.read_value(last, Ty::F32), Err(oob));
        assert_eq!(m.read_value(u32::MAX, Ty::F64), Err(OutOfRange { addr: u32::MAX, width: 8 }));
        // The last two bytes are still addressable, and the failed write
        // left them untouched.
        assert_eq!(m.read_value(last + 1, Ty::I1), Ok(Value::I1(false)));
        assert!(m.write_value(last + 1, Value::I1(true)).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        let m = SimMemory::new(128);
        let _ = m.read_i32(1000);
    }

    #[test]
    fn padding_scatters() {
        let mut m = SimMemory::new(4096);
        let a = m.alloc(8, 8);
        m.pad(100);
        let b = m.alloc(8, 8);
        assert!(b >= a + 108);
    }
}
