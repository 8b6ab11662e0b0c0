//! ks — Kernighan–Schweikert-style graph partitioning: find the maximum
//! swap gain across two partitions ("traversing doubly-nested linked-lists
//! to find a max grain of swapping", paper Table 2).
//!
//! Cells of the two partitions live in two linked lists A and B. For every
//! pair `(a, b)`, the swap gain combines the cells' external and internal
//! costs; the kernel tracks the best pair:
//!
//! ```c
//! for (a = listA; a; a = a->next) {
//!     float bestg = -INF; int bestb = -1;
//!     for (b = listB; b; b = b->next) {
//!         float gain = a->ext + b->ext - a->int * b->int;
//!         if (gain > bestg) { bestg = gain; bestb = b->id; }
//!     }
//!     if (bestg > gmax) { gmax = bestg; best_a = a->id; best_b = bestb; }
//! }
//! ```
//!
//! Cell layout: `ext: f32 @0`, `int: f32 @4`, `id: i32 @8`, `next: ptr
//! @12` — 16 bytes.

use crate::{arguments, field, ptr_arg, BuiltKernel, Native, ReferenceCache};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{
    builder::FunctionBuilder, inst::FloatPredicate, inst::IntPredicate, BinOp, Function, Ty,
};
use cgpa_sim::{InterpError, SimMemory, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `ext` cost offset.
pub const OFF_EXT: i32 = 0;
/// `int` cost offset.
pub const OFF_INT: i32 = 4;
/// `id` offset.
pub const OFF_ID: i32 = 8;
/// `next` offset.
pub const OFF_NEXT: i32 = 12;
/// Cell size.
pub const CELL_SIZE: u32 = 16;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Cells in partition A (outer list).
    pub a_cells: u32,
    /// Cells in partition B (inner list).
    pub b_cells: u32,
    /// Max padding between cell allocations.
    pub scatter: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params { a_cells: 96, b_cells: 96, scatter: 40 }
    }
}

/// Build the kernel IR. Signature:
/// `ks(head_a: ptr, head_b: ptr, out: ptr) -> f32 (gmax)`; the best pair's
/// ids are stored to `out[0..2]` after the loop.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn kernel_ir(b_cells_hint: f64) -> Function {
    let mut b = FunctionBuilder::new(
        "ks",
        &[("head_a", Ty::Ptr), ("head_b", Ty::Ptr), ("out", Ty::Ptr)],
        Some(Ty::F32),
    );
    let head_a = b.param(0);
    let head_b = b.param(1);
    let out = b.param(2);

    let header = b.append_block("header");
    let abody = b.append_block("abody");
    let ih = b.append_block("inner_header");
    let ibody = b.append_block("inner_body");
    let idone = b.append_block("inner_done");
    let exit = b.append_block("exit");

    let null = b.const_ptr(0);
    let neg_inf = b.const_f32(f32::NEG_INFINITY);
    let neg_one = b.const_i32(-1);

    b.br(header);

    b.switch_to(header);
    let a = b.phi(Ty::Ptr, "a");
    let gmax = b.phi(Ty::F32, "gmax");
    let best_a = b.phi(Ty::I32, "best_a");
    let best_b = b.phi(Ty::I32, "best_b");
    let adone = b.icmp(IntPredicate::Eq, a, null);
    b.cond_br(adone, exit, abody);

    b.switch_to(abody);
    let aext_addr = b.field(a, OFF_EXT);
    let aext = b.load_named(aext_addr, Ty::F32, "a_ext");
    let aint_addr = b.field(a, OFF_INT);
    let aint = b.load_named(aint_addr, Ty::F32, "a_int");
    let aid_addr = b.field(a, OFF_ID);
    let aid = b.load_named(aid_addr, Ty::I32, "a_id");
    b.br(ih);

    b.switch_to(ih);
    let bb = b.phi(Ty::Ptr, "b");
    let bg = b.phi(Ty::F32, "bestg");
    let bid = b.phi(Ty::I32, "bestb");
    let bdone = b.icmp(IntPredicate::Eq, bb, null);
    b.cond_br(bdone, idone, ibody);

    b.switch_to(ibody);
    let bext_addr = b.field(bb, OFF_EXT);
    let bext = b.load_named(bext_addr, Ty::F32, "b_ext");
    let bint_addr = b.field(bb, OFF_INT);
    let bint = b.load_named(bint_addr, Ty::F32, "b_int");
    let bid_addr = b.field(bb, OFF_ID);
    let bcell_id = b.load_named(bid_addr, Ty::I32, "b_id");
    let cross = b.binary(BinOp::FMul, aint, bint);
    let esum = b.binary(BinOp::FAdd, aext, bext);
    let gain = b.binary_named(BinOp::FSub, esum, cross, "gain");
    let better = b.fcmp(FloatPredicate::Ogt, gain, bg);
    let bg2 = b.select(better, gain, bg);
    let bid2 = b.select(better, bcell_id, bid);
    let bnext_addr = b.field(bb, OFF_NEXT);
    let bnext = b.load_named(bnext_addr, Ty::Ptr, "b_next");
    b.br(ih);

    b.switch_to(idone);
    let gbetter = b.fcmp(FloatPredicate::Ogt, bg, gmax);
    let gmax2 = b.select(gbetter, bg, gmax);
    let best_a2 = b.select(gbetter, aid, best_a);
    let best_b2 = b.select(gbetter, bid, best_b);
    let anext_addr = b.field(a, OFF_NEXT);
    let anext = b.load_named(anext_addr, Ty::Ptr, "a_next");
    b.br(header);

    b.switch_to(exit);
    b.store(out, best_a);
    let out_b = b.field(out, 4);
    b.store(out_b, best_b);
    b.ret(Some(gmax));

    b.add_phi_incoming(a, b.entry_block(), head_a);
    b.add_phi_incoming(a, idone, anext);
    b.add_phi_incoming(gmax, b.entry_block(), neg_inf);
    b.add_phi_incoming(gmax, idone, gmax2);
    b.add_phi_incoming(best_a, b.entry_block(), neg_one);
    b.add_phi_incoming(best_a, idone, best_a2);
    b.add_phi_incoming(best_b, b.entry_block(), neg_one);
    b.add_phi_incoming(best_b, idone, best_b2);
    b.add_phi_incoming(bb, abody, head_b);
    b.add_phi_incoming(bb, ibody, bnext);
    b.add_phi_incoming(bg, abody, neg_inf);
    b.add_phi_incoming(bg, ibody, bg2);
    b.add_phi_incoming(bid, abody, neg_one);
    b.add_phi_incoming(bid, ibody, bid2);

    b.set_freq_hint(ih, b_cells_hint + 1.0);
    b.set_freq_hint(ibody, b_cells_hint);

    b.finish().expect("ks kernel verifies")
}

/// Alias facts: both lists are read-only during the search; `out` is only
/// written after the loop.
#[must_use]
pub fn memory_model() -> MemoryModel {
    let mut mm = MemoryModel::new();
    let a_cells = mm.add_region("a_cells", CELL_SIZE, true, true);
    let b_cells = mm.add_region("b_cells", CELL_SIZE, true, false);
    let out = mm.add_region("out", 4, false, false);
    mm.bind_param(0, a_cells);
    mm.bind_param(1, b_cells);
    mm.bind_param(2, out);
    mm.field_pointee(a_cells, i64::from(OFF_NEXT), a_cells);
    mm.field_pointee(b_cells, i64::from(OFF_NEXT), b_cells);
    mm
}

/// Generate the workload.
#[must_use]
pub fn build(p: &Params, seed: u64) -> BuiltKernel {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b53);
    let bytes = (p.a_cells + p.b_cells) * (CELL_SIZE + p.scatter) + (1 << 16);
    let mut mem = SimMemory::new(bytes.next_power_of_two().max(1 << 18));

    let mk_list = |count: u32, rng: &mut StdRng, mem: &mut SimMemory, id_base: i32| -> u32 {
        let addrs: Vec<u32> = (0..count)
            .map(|_| {
                mem.pad(rng.gen_range(0..=p.scatter));
                mem.alloc(CELL_SIZE, 4)
            })
            .collect();
        for (i, &a) in addrs.iter().enumerate() {
            mem.write_f32(a + OFF_EXT as u32, rng.gen_range(0.0..4.0));
            mem.write_f32(a + OFF_INT as u32, rng.gen_range(0.0..2.0));
            mem.write_i32(a + OFF_ID as u32, id_base + i as i32);
            let next = addrs.get(i + 1).copied().unwrap_or(0);
            mem.write_ptr(a + OFF_NEXT as u32, next);
        }
        addrs.first().copied().unwrap_or(0)
    };

    let head_a = mk_list(p.a_cells, &mut rng, &mut mem, 0);
    let head_b = mk_list(p.b_cells, &mut rng, &mut mem, 1_000_000);
    let out = mem.alloc(8, 4);

    BuiltKernel {
        name: "ks".to_string(),
        domain: "graph partitioning",
        description: "traversing doubly-nested linked lists to find a max swap gain",
        func: kernel_ir(f64::from(p.b_cells)),
        model: memory_model(),
        mem,
        args: vec![Value::Ptr(head_a), Value::Ptr(head_b), Value::Ptr(out)],
        iterations: u64::from(p.a_cells),
        reference_cache: ReferenceCache::native(reference_native),
    }
}

/// Native Rust reference, with the signature of [`kernel_ir`].
///
/// # Errors
/// See [`NativeReference`](crate::NativeReference).
pub fn reference_native(mem: &mut SimMemory, args: &[Value]) -> Result<Option<Value>, InterpError> {
    let [head_a, head_b, out] = arguments(args, [Ty::Ptr; 3])?;
    let (head_a, head_b, out) = (ptr_arg(head_a), ptr_arg(head_b), ptr_arg(out));
    let mut m = Native::new(mem);
    let mut gmax = f32::NEG_INFINITY;
    let mut best_a = -1i32;
    let mut best_b = -1i32;
    let mut a = head_a;
    while a != 0 {
        m.step()?;
        let aext = m.f32(field(a, OFF_EXT))?;
        let aint = m.f32(field(a, OFF_INT))?;
        let aid = m.i32(field(a, OFF_ID))?;
        let mut bg = f32::NEG_INFINITY;
        let mut bid = -1i32;
        let mut b = head_b;
        while b != 0 {
            m.step()?;
            let bext = m.f32(field(b, OFF_EXT))?;
            let bint = m.f32(field(b, OFF_INT))?;
            let id = m.i32(field(b, OFF_ID))?;
            let gain = (aext + bext) - aint * bint;
            if gain > bg {
                bg = gain;
                bid = id;
            }
            b = m.ptr(field(b, OFF_NEXT))?;
        }
        if bg > gmax {
            gmax = bg;
            best_a = aid;
            best_b = bid;
        }
        a = m.ptr(field(a, OFF_NEXT))?;
    }
    m.store(out, Value::I32(best_a))?;
    m.store(field(out, 4), Value::I32(best_b))?;
    Ok(Some(Value::F32(gmax)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_ir_matches_native;

    #[test]
    fn ir_matches_native_reference() {
        let p = Params { a_cells: 12, b_cells: 15, scatter: 16 };
        assert_ir_matches_native(&build(&p, 21), reference_native);
    }

    #[test]
    fn best_pair_ids_are_stored() {
        let p = Params { a_cells: 8, b_cells: 8, scatter: 0 };
        let k = build(&p, 4);
        let (after, _) = k.reference();
        let out = k.args[2].as_ptr();
        let a_id = after.read_i32(out);
        let b_id = after.read_i32(out + 4);
        assert!((0..8).contains(&a_id));
        assert!((1_000_000..1_000_008).contains(&b_id));
    }

    #[test]
    fn gain_is_max_over_all_pairs() {
        let p = Params { a_cells: 5, b_cells: 7, scatter: 4 };
        let k = build(&p, 13);
        let (_, ret) = k.reference();
        let Some(Value::F32(gmax)) = ret else { panic!("gmax missing") };
        // Exhaustive check against a brute-force pass over every pair.
        let costs = |head: Value| {
            let mut cells = Vec::new();
            let mut c = head.as_ptr();
            while c != 0 {
                cells
                    .push((k.mem.read_f32(c + OFF_EXT as u32), k.mem.read_f32(c + OFF_INT as u32)));
                c = k.mem.read_ptr(c + OFF_NEXT as u32);
            }
            cells
        };
        let (a, b) = (costs(k.args[0]), costs(k.args[1]));
        let brute = a
            .iter()
            .flat_map(|&(aext, aint)| {
                b.iter().map(move |&(bext, bint)| (aext + bext) - aint * bint)
            })
            .fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(gmax, brute);
    }
}
