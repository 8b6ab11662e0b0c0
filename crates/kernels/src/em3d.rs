//! em3d — electromagnetic wave propagation on a bipartite graph (Olden
//! suite; the paper's running example, Figure 1).
//!
//! Two linked lists (E-nodes and H-nodes) form an N-to-N bipartite graph.
//! The kernel traverses the E-list and updates each node's value by
//! subtracting the weighted values of its `from_nodes` (which live in the
//! H-list):
//!
//! ```c
//! for (; nodelist; nodelist = nodelist->next)
//!     for (int i = 0; i < nodelist->from_count; i++) {
//!         node_t *from  = nodelist->from_nodes[i];
//!         double coeff  = nodelist->coeffs[i];
//!         double value  = from->value;
//!         nodelist->value -= coeff * value;
//!     }
//! ```
//!
//! Node layout: `value: f64 @0`, `from_count: i32 @8`, `from_nodes: ptr
//! @12`, `coeffs: ptr @16`, `next: ptr @20` — 24 bytes.

use crate::{arguments, elem, field, ptr_arg, BuiltKernel, Native, ReferenceCache};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{builder::FunctionBuilder, inst::IntPredicate, BinOp, Function, Ty};
use cgpa_sim::{InterpError, SimMemory, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Node field offsets.
pub const OFF_VALUE: i32 = 0;
/// `from_count` offset.
pub const OFF_COUNT: i32 = 8;
/// `from_nodes` array pointer offset.
pub const OFF_FROM: i32 = 12;
/// `coeffs` array pointer offset.
pub const OFF_COEFF: i32 = 16;
/// `next` pointer offset.
pub const OFF_NEXT: i32 = 20;
/// Node size in bytes.
pub const NODE_SIZE: u32 = 24;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// E-nodes (traversed/updated list).
    pub e_nodes: u32,
    /// H-nodes (read-only `from` list).
    pub h_nodes: u32,
    /// Maximum `from_count` per node; the actual count is drawn uniformly
    /// from `degree_min..=degree` per node. Non-constant inner trip counts
    /// are the feature the paper calls out as defeating software pipelining
    /// and fixed reduce modules (§2.2), so the default workload varies them.
    pub degree: u32,
    /// Minimum `from_count` per node.
    pub degree_min: u32,
    /// Maximum extra padding between node allocations (irregular layout).
    pub scatter: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params { e_nodes: 1000, h_nodes: 1000, degree: 8, degree_min: 2, scatter: 48 }
    }
}

impl Params {
    /// Fixed-degree convenience used by tests.
    #[must_use]
    pub fn fixed(e_nodes: u32, h_nodes: u32, degree: u32, scatter: u32) -> Self {
        Params { e_nodes, h_nodes, degree, degree_min: degree, scatter }
    }
}

/// Build the kernel IR.
#[must_use]
pub fn kernel_ir() -> Function {
    let mut b = FunctionBuilder::new("em3d", &[("nodelist", Ty::Ptr)], None);
    let head = b.param(0);
    let header = b.append_block("header");
    let obody = b.append_block("obody");
    let ih = b.append_block("inner_header");
    let ibody = b.append_block("inner_body");
    let olatch = b.append_block("outer_latch");
    let exit = b.append_block("exit");

    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    let null = b.const_ptr(0);

    b.br(header);

    b.switch_to(header);
    let p = b.phi(Ty::Ptr, "nodelist");
    let done = b.icmp(IntPredicate::Eq, p, null);
    b.cond_br(done, exit, obody);

    b.switch_to(obody);
    let fc_addr = b.field(p, OFF_COUNT);
    let fc = b.load_named(fc_addr, Ty::I32, "from_count");
    let fns_addr = b.field(p, OFF_FROM);
    let fns = b.load_named(fns_addr, Ty::Ptr, "from_nodes");
    let cos_addr = b.field(p, OFF_COEFF);
    let cos = b.load_named(cos_addr, Ty::Ptr, "coeffs");
    b.br(ih);

    b.switch_to(ih);
    let j = b.phi(Ty::I32, "i");
    let cont = b.icmp(IntPredicate::Slt, j, fc);
    b.cond_br(cont, ibody, olatch);

    b.switch_to(ibody);
    let from_addr = b.gep(fns, j, 4, 0);
    let from = b.load_named(from_addr, Ty::Ptr, "from");
    let coeff_addr = b.gep(cos, j, 8, 0);
    let coeff = b.load_named(coeff_addr, Ty::F64, "coeff");
    let fval_addr = b.field(from, OFF_VALUE);
    let value = b.load_named(fval_addr, Ty::F64, "value");
    let cur_addr = b.field(p, OFF_VALUE);
    let cur = b.load_named(cur_addr, Ty::F64, "cur");
    let prod = b.binary(BinOp::FMul, coeff, value);
    let nv = b.binary(BinOp::FSub, cur, prod);
    b.store(cur_addr, nv);
    let j2 = b.binary(BinOp::Add, j, one);
    b.br(ih);

    b.switch_to(olatch);
    let next_addr = b.field(p, OFF_NEXT);
    let next = b.load_named(next_addr, Ty::Ptr, "next");
    b.br(header);

    b.switch_to(exit);
    b.ret(None);

    b.add_phi_incoming(p, b.entry_block(), head);
    b.add_phi_incoming(p, olatch, next);
    b.add_phi_incoming(j, obody, zero);
    b.add_phi_incoming(j, ibody, j2);

    // Profile hints (§3.2: "a simple profiling step"): the inner loop runs
    // `from_count` ≈ 8 times per outer iteration.
    b.set_freq_hint(ih, 9.0);
    b.set_freq_hint(ibody, 8.0);

    b.finish().expect("em3d kernel verifies")
}

/// The alias facts the paper gets from shape analysis (Ghiya–Hendren): the
/// E and H lists are disjoint acyclic lists; `from_nodes` slots point into
/// the H list only; the traversal visits each E-node once.
#[must_use]
pub fn memory_model() -> MemoryModel {
    let mut mm = MemoryModel::new();
    let e = mm.add_region("e_nodes", NODE_SIZE, false, true);
    let h = mm.add_region("h_nodes", NODE_SIZE, true, false);
    let from_arrays = mm.add_region("from_arrays", 4, true, false);
    let coeff_arrays = mm.add_region("coeff_arrays", 8, true, false);
    mm.bind_param(0, e);
    mm.field_pointee(e, i64::from(OFF_NEXT), e);
    mm.field_pointee(e, i64::from(OFF_FROM), from_arrays);
    mm.field_pointee(e, i64::from(OFF_COEFF), coeff_arrays);
    mm.array_pointee(from_arrays, h);
    mm
}

/// Generate the bipartite workload and return the built kernel.
#[must_use]
pub fn build(p: &Params, seed: u64) -> BuiltKernel {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe3d0);
    let bytes_needed =
        (p.e_nodes + p.h_nodes) * (NODE_SIZE + p.scatter + 12 * p.degree) + (1 << 16);
    let mut mem = SimMemory::new(bytes_needed.next_power_of_two().max(1 << 18));

    // H-nodes first (read-only pool).
    let h_addrs: Vec<u32> = (0..p.h_nodes)
        .map(|_| {
            mem.pad(rng.gen_range(0..=p.scatter));
            mem.alloc(NODE_SIZE, 8)
        })
        .collect();
    for &a in &h_addrs {
        mem.write_f64(a, rng.gen_range(-1.0..1.0));
    }

    // E-nodes with their from/coeff arrays interleaved (Olden-style heap).
    let e_addrs: Vec<u32> = (0..p.e_nodes)
        .map(|_| {
            mem.pad(rng.gen_range(0..=p.scatter));
            mem.alloc(NODE_SIZE, 8)
        })
        .collect();
    for (i, &a) in e_addrs.iter().enumerate() {
        let degree = rng.gen_range(p.degree_min..=p.degree.max(p.degree_min));
        let from_arr = mem.alloc(4 * degree.max(1), 4);
        let coeff_arr = mem.alloc(8 * degree.max(1), 8);
        for k in 0..degree {
            let target = h_addrs[rng.gen_range(0..h_addrs.len())];
            mem.write_ptr(from_arr + 4 * k, target);
            mem.write_f64(coeff_arr + 8 * k, rng.gen_range(0.0..0.5));
        }
        mem.write_f64(a + OFF_VALUE as u32, rng.gen_range(-1.0..1.0));
        mem.write_i32(a + OFF_COUNT as u32, degree as i32);
        mem.write_ptr(a + OFF_FROM as u32, from_arr);
        mem.write_ptr(a + OFF_COEFF as u32, coeff_arr);
        let next = e_addrs.get(i + 1).copied().unwrap_or(0);
        mem.write_ptr(a + OFF_NEXT as u32, next);
    }

    BuiltKernel {
        name: "em3d".to_string(),
        domain: "3D simulation",
        description: "updating each list node by subtracting weighted from-node values",
        func: kernel_ir(),
        model: memory_model(),
        mem,
        args: vec![Value::Ptr(e_addrs.first().copied().unwrap_or(0))],
        iterations: u64::from(p.e_nodes),
        reference_cache: ReferenceCache::native(reference_native),
    }
}

/// Native Rust implementation over the same memory layout — an independent
/// check of the IR's meaning, with the signature of [`kernel_ir`].
///
/// # Errors
/// See [`NativeReference`](crate::NativeReference).
pub fn reference_native(mem: &mut SimMemory, args: &[Value]) -> Result<Option<Value>, InterpError> {
    let [head] = arguments(args, [Ty::Ptr])?;
    let mut nodelist = ptr_arg(head);
    let mut m = Native::new(mem);
    while nodelist != 0 {
        m.step()?;
        let from_count = m.i32(field(nodelist, OFF_COUNT))?;
        let from_arr = m.ptr(field(nodelist, OFF_FROM))?;
        let coeff_arr = m.ptr(field(nodelist, OFF_COEFF))?;
        for i in 0..from_count {
            m.step()?;
            let from = m.ptr(elem(from_arr, i, 4))?;
            let coeff = m.f64(elem(coeff_arr, i, 8))?;
            let value = m.f64(field(from, OFF_VALUE))?;
            let cur = m.f64(field(nodelist, OFF_VALUE))?;
            m.store(field(nodelist, OFF_VALUE), Value::F64(cur - coeff * value))?;
        }
        nodelist = m.ptr(field(nodelist, OFF_NEXT))?;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_ir_matches_native;

    #[test]
    fn ir_matches_native_reference() {
        assert_ir_matches_native(&build(&Params::fixed(40, 30, 5, 24), 7), reference_native);
    }

    #[test]
    fn kernel_changes_values() {
        let k = build(&Params::fixed(10, 10, 4, 0), 1);
        let (after, _) = k.reference();
        let head = k.args[0].as_ptr();
        assert_ne!(k.mem.read_f64(head), after.read_f64(head));
    }

    #[test]
    fn empty_list_is_a_noop() {
        let k = build(&Params::fixed(1, 1, 1, 0), 3);
        let mut mem = k.mem.clone();
        assert_eq!(reference_native(&mut mem, &[Value::Ptr(0)]), Ok(None));
        assert_eq!(mem.read_bytes(0, mem.size()), k.mem.read_bytes(0, k.mem.size()));
    }

    #[test]
    fn variable_degree_matches_reference() {
        // Non-constant from_count per node (the paper's irregular case).
        let p = Params { e_nodes: 30, h_nodes: 20, degree: 9, degree_min: 1, scatter: 16 };
        let k = build(&p, 17);
        assert_ir_matches_native(&k, reference_native);
        // Degrees actually vary.
        let mut seen = std::collections::BTreeSet::new();
        let mut p_addr = k.args[0].as_ptr();
        while p_addr != 0 {
            seen.insert(k.mem.read_i32(p_addr + OFF_COUNT as u32));
            p_addr = k.mem.read_ptr(p_addr + OFF_NEXT as u32);
        }
        assert!(seen.len() > 2, "degrees should vary: {seen:?}");
    }

    #[test]
    fn degree_controls_inner_trip_count() {
        let k = build(&Params::fixed(3, 5, 7, 0), 9);
        let head = k.args[0].as_ptr();
        assert_eq!(k.mem.read_i32(head + OFF_COUNT as u32), 7);
        assert_eq!(k.iterations, 3);
    }
}
