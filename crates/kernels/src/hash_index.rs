//! Hash-indexing — building a hash index over a stream of tuples
//! (modelled on "Meet the Walkers" [MICRO'13], the paper's database
//! kernel).
//!
//! The kernel walks a linked list of items, computes a hash of each key
//! (the parallel section), and prepends the item to its bucket's chain (the
//! sequential section — bucket heads carry a loop-carried dependence):
//!
//! ```c
//! for (; item; item = item->next) {
//!     unsigned h = mix(item->key);          // multiply/xor avalanche
//!     unsigned b = h & (NBUCKETS - 1);
//!     item->hash_next = buckets[b];
//!     buckets[b] = item;
//! }
//! ```
//!
//! Item layout: `key: i32 @0`, `hash_next: ptr @4`, `next: ptr @8` —
//! 12 bytes.

use crate::{arguments, elem, field, i32_arg, ptr_arg, BuiltKernel, Native, ReferenceCache};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Function, Ty};
use cgpa_sim::{InterpError, SimMemory, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `key` offset.
pub const OFF_KEY: i32 = 0;
/// `hash_next` offset.
pub const OFF_HNEXT: i32 = 4;
/// `next` offset.
pub const OFF_NEXT: i32 = 8;
/// Item size.
pub const ITEM_SIZE: u32 = 12;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Items in the input list.
    pub items: u32,
    /// Buckets (power of two).
    pub buckets: u32,
    /// Max padding between item allocations.
    pub scatter: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params { items: 2000, buckets: 256, scatter: 36 }
    }
}

/// The multiply/xor avalanche used by both the IR and the native
/// reference (a MurmurHash3-style finalizer).
#[must_use]
pub fn mix(key: i32) -> i32 {
    let mut h = key as u32;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h as i32
}

/// Build the kernel IR. Signature: `hash_index(head: ptr, buckets: ptr,
/// mask: i32)`.
#[must_use]
pub fn kernel_ir() -> Function {
    let mut b = FunctionBuilder::new(
        "hash_index",
        &[("head", Ty::Ptr), ("buckets", Ty::Ptr), ("mask", Ty::I32)],
        None,
    );
    let head = b.param(0);
    let buckets = b.param(1);
    let mask = b.param(2);

    let header = b.append_block("header");
    let body = b.append_block("body");
    let exit = b.append_block("exit");

    let null = b.const_ptr(0);
    let c16 = b.const_i32(16);
    let c13 = b.const_i32(13);
    let m1 = b.const_i32(0x85eb_ca6bu32 as i32);
    let m2 = b.const_i32(0xc2b2_ae35u32 as i32);

    b.br(header);

    b.switch_to(header);
    let p = b.phi(Ty::Ptr, "item");
    let done = b.icmp(IntPredicate::Eq, p, null);
    b.cond_br(done, exit, body);

    b.switch_to(body);
    let kaddr = b.field(p, OFF_KEY);
    let key = b.load_named(kaddr, Ty::I32, "key");
    // mix(key):
    let s1 = b.binary(BinOp::LShr, key, c16);
    let h1 = b.binary(BinOp::Xor, key, s1);
    let h2 = b.binary(BinOp::Mul, h1, m1);
    let s2 = b.binary(BinOp::LShr, h2, c13);
    let h3 = b.binary(BinOp::Xor, h2, s2);
    let h4 = b.binary(BinOp::Mul, h3, m2);
    let s3 = b.binary(BinOp::LShr, h4, c16);
    let h5 = b.binary_named(BinOp::Xor, h4, s3, "hash");
    let bi = b.binary_named(BinOp::And, h5, mask, "bucket");
    let baddr = b.gep(buckets, bi, 4, 0);
    // Sequential: chain insertion.
    let old = b.load_named(baddr, Ty::Ptr, "old_head");
    let hnaddr = b.field(p, OFF_HNEXT);
    b.store(hnaddr, old);
    b.store(baddr, p);
    let naddr = b.field(p, OFF_NEXT);
    let next = b.load_named(naddr, Ty::Ptr, "next");
    b.br(header);

    b.switch_to(exit);
    b.ret(None);

    b.add_phi_incoming(p, b.entry_block(), head);
    b.add_phi_incoming(p, body, next);

    b.finish().expect("hash_index kernel verifies")
}

/// Alias facts: the item list is an acyclic list visited once per
/// iteration (`hash_next` stores hit a fresh item each time); the bucket
/// array is read-write with data-dependent subscripts (loop-carried).
#[must_use]
pub fn memory_model() -> MemoryModel {
    let mut mm = MemoryModel::new();
    let items = mm.add_region("items", ITEM_SIZE, false, true);
    let buckets = mm.add_region("buckets", 4, false, false);
    mm.bind_param(0, items);
    mm.bind_param(1, buckets);
    mm.field_pointee(items, i64::from(OFF_NEXT), items);
    mm
}

/// Generate the workload.
#[must_use]
pub fn build(p: &Params, seed: u64) -> BuiltKernel {
    assert!(p.buckets.is_power_of_two(), "bucket count must be a power of two");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4a54);
    let bytes = p.items * (ITEM_SIZE + p.scatter) + 4 * p.buckets + (1 << 16);
    let mut mem = SimMemory::new(bytes.next_power_of_two().max(1 << 18));

    let buckets = mem.alloc(4 * p.buckets, 4);
    for i in 0..p.buckets {
        mem.write_ptr(buckets + 4 * i, 0);
    }
    let addrs: Vec<u32> = (0..p.items)
        .map(|_| {
            mem.pad(rng.gen_range(0..=p.scatter));
            mem.alloc(ITEM_SIZE, 4)
        })
        .collect();
    for (i, &a) in addrs.iter().enumerate() {
        mem.write_i32(a, rng.gen());
        mem.write_ptr(a + OFF_HNEXT as u32, 0);
        let next = addrs.get(i + 1).copied().unwrap_or(0);
        mem.write_ptr(a + OFF_NEXT as u32, next);
    }

    BuiltKernel {
        name: "hash_index".to_string(),
        domain: "database",
        description: "computing a hash key for each node and indexing it in a linked list",
        func: kernel_ir(),
        model: memory_model(),
        mem,
        args: vec![
            Value::Ptr(addrs.first().copied().unwrap_or(0)),
            Value::Ptr(buckets),
            Value::I32(p.buckets as i32 - 1),
        ],
        iterations: u64::from(p.items),
        reference_cache: ReferenceCache::native(reference_native),
    }
}

/// Native Rust reference over the same layout, with the signature of
/// [`kernel_ir`].
///
/// # Errors
/// See [`NativeReference`](crate::NativeReference).
pub fn reference_native(mem: &mut SimMemory, args: &[Value]) -> Result<Option<Value>, InterpError> {
    let [head, buckets, mask] = arguments(args, [Ty::Ptr, Ty::Ptr, Ty::I32])?;
    let (mut item, buckets, mask) = (ptr_arg(head), ptr_arg(buckets), i32_arg(mask));
    let mut m = Native::new(mem);
    while item != 0 {
        m.step()?;
        let key = m.i32(field(item, OFF_KEY))?;
        let bucket = elem(buckets, mix(key) & mask, 4);
        let old = m.ptr(bucket)?;
        m.store(field(item, OFF_HNEXT), Value::Ptr(old))?;
        m.store(bucket, Value::Ptr(item))?;
        item = m.ptr(field(item, OFF_NEXT))?;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_ir_matches_native;

    #[test]
    fn ir_matches_native_reference() {
        let p = Params { items: 100, buckets: 16, scatter: 20 };
        assert_ir_matches_native(&build(&p, 3), reference_native);
    }

    #[test]
    fn every_item_lands_in_exactly_one_chain() {
        let p = Params { items: 64, buckets: 8, scatter: 8 };
        let k = build(&p, 9);
        let (after, _) = k.reference();
        let buckets = k.args[1].as_ptr();
        let mut chained = 0;
        for b in 0..p.buckets {
            let mut cur = after.read_ptr(buckets + 4 * b);
            while cur != 0 {
                chained += 1;
                cur = after.read_ptr(cur + OFF_HNEXT as u32);
            }
        }
        assert_eq!(chained, p.items);
    }

    #[test]
    fn mix_avalanches() {
        // Nearby keys spread to different buckets.
        let buckets: std::collections::BTreeSet<i32> = (0..64).map(|k| mix(k) & 63).collect();
        assert!(buckets.len() > 32, "poor avalanche: {} distinct", buckets.len());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_buckets() {
        let _ = build(&Params { items: 1, buckets: 12, scatter: 0 }, 0);
    }
}
