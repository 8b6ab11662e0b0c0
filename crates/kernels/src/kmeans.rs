//! K-means membership update (Rodinia; the paper's Appendix A.1 case
//! study).
//!
//! One iteration of Lloyd's algorithm: for each point, find the nearest
//! cluster center (the parallel section), then update membership, the delta
//! counter, and the new-center accumulators (the sequential section):
//!
//! ```c
//! for (int i = 0; i < numNodes; ++i) {
//!     int index = findNearestPoint(nodes[i], nFeatures, clusters, nClusters);
//!     if (membership[i] != index) delta += 1;
//!     membership[i] = index;
//!     new_centers_len[index] += 1;
//!     for (int j = 0; j < nFeatures; ++j)
//!         new_centers[index][j] += nodes[i][j];
//! }
//! ```
//!
//! `findNearestPoint` is inlined (HLS tools flatten calls before
//! synthesis): a doubly-nested distance loop over clusters × features.

use crate::{arguments, elem, i32_arg, ptr_arg, BuiltKernel, Native, ReferenceCache};
use cgpa_analysis::MemoryModel;
use cgpa_ir::{
    builder::FunctionBuilder, inst::FloatPredicate, inst::IntPredicate, BinOp, Function, Ty,
};
use cgpa_sim::{InterpError, SimMemory, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of points.
    pub points: u32,
    /// Number of clusters.
    pub clusters: u32,
    /// Features per point.
    pub features: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params { points: 512, clusters: 5, features: 8 }
    }
}

/// Build the kernel IR.
///
/// Signature: `kmeans(nodes: ptr, clusters: ptr, membership: ptr,
/// new_centers: ptr, nc_len: ptr, n: i32, k: i32, nf: i32) -> i32 (delta)`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn kernel_ir(features_hint: f64, clusters_hint: f64) -> Function {
    let mut b = FunctionBuilder::new(
        "kmeans",
        &[
            ("nodes", Ty::Ptr),
            ("clusters", Ty::Ptr),
            ("membership", Ty::Ptr),
            ("new_centers", Ty::Ptr),
            ("nc_len", Ty::Ptr),
            ("n", Ty::I32),
            ("k", Ty::I32),
            ("nf", Ty::I32),
        ],
        Some(Ty::I32),
    );
    let nodes = b.param(0);
    let clusters = b.param(1);
    let membership = b.param(2);
    let new_centers = b.param(3);
    let nc_len = b.param(4);
    let n = b.param(5);
    let k = b.param(6);
    let nf = b.param(7);

    let header = b.append_block("header");
    let find_init = b.append_block("find_init");
    let ch = b.append_block("cluster_header");
    let dh = b.append_block("dist_header");
    let dbody = b.append_block("dist_body");
    let ddone = b.append_block("dist_done");
    let find_done = b.append_block("find_done");
    let incr = b.append_block("delta_incr");
    let upd = b.append_block("update");
    let uh = b.append_block("upd_header");
    let ubody = b.append_block("upd_body");
    let olatch = b.append_block("outer_latch");
    let exit = b.append_block("exit");

    let zero = b.const_i32(0);
    let one = b.const_i32(1);
    let zf = b.const_f32(0.0);
    let inf = b.const_f32(f32::INFINITY);

    b.br(header);

    b.switch_to(header);
    let i = b.phi(Ty::I32, "i");
    let delta = b.phi(Ty::I32, "delta");
    let c = b.icmp(IntPredicate::Slt, i, n);
    b.cond_br(c, find_init, exit);

    b.switch_to(find_init);
    let row_off = b.binary_named(BinOp::Mul, i, nf, "row_off");
    b.br(ch);

    b.switch_to(ch);
    let cc = b.phi(Ty::I32, "cc");
    let best = b.phi(Ty::F32, "best");
    let best_idx = b.phi(Ty::I32, "best_idx");
    let ccmp = b.icmp(IntPredicate::Slt, cc, k);
    b.cond_br(ccmp, dh, find_done);

    b.switch_to(dh);
    let f = b.phi(Ty::I32, "f");
    let acc = b.phi(Ty::F32, "acc");
    let fcmp = b.icmp(IntPredicate::Slt, f, nf);
    b.cond_br(fcmp, dbody, ddone);

    b.switch_to(dbody);
    let nidx = b.binary(BinOp::Add, row_off, f);
    let na = b.gep(nodes, nidx, 4, 0);
    let nv = b.load_named(na, Ty::F32, "node_feat");
    let coff = b.binary(BinOp::Mul, cc, nf);
    let cidx = b.binary(BinOp::Add, coff, f);
    let ca = b.gep(clusters, cidx, 4, 0);
    let cv = b.load_named(ca, Ty::F32, "cluster_feat");
    let d = b.binary(BinOp::FSub, nv, cv);
    let d2 = b.binary(BinOp::FMul, d, d);
    let acc2 = b.binary(BinOp::FAdd, acc, d2);
    let f2 = b.binary(BinOp::Add, f, one);
    b.br(dh);

    b.switch_to(ddone);
    let better = b.fcmp(FloatPredicate::Olt, acc, best);
    let best2 = b.select(better, acc, best);
    let best_idx2 = b.select(better, cc, best_idx);
    let cc2 = b.binary(BinOp::Add, cc, one);
    b.br(ch);

    b.switch_to(find_done);
    // Update section (sequential in the paper).
    let maddr = b.gep(membership, i, 4, 0);
    let old = b.load_named(maddr, Ty::I32, "membership");
    let changed = b.icmp(IntPredicate::Ne, old, best_idx);
    b.cond_br(changed, incr, upd);

    b.switch_to(incr);
    let delta_plus = b.binary(BinOp::Add, delta, one);
    b.br(upd);

    b.switch_to(upd);
    let delta2 = b.phi(Ty::I32, "delta2");
    b.store(maddr, best_idx);
    let laddr = b.gep(nc_len, best_idx, 4, 0);
    let oldlen = b.load(laddr, Ty::I32);
    let newlen = b.binary(BinOp::Add, oldlen, one);
    b.store(laddr, newlen);
    // Separate addressing for the update loop (as the source reloads
    // nodes[i][j]).
    let urow_off = b.binary_named(BinOp::Mul, i, nf, "urow_off");
    let ncrow = b.binary_named(BinOp::Mul, best_idx, nf, "ncrow");
    b.br(uh);

    b.switch_to(uh);
    let u = b.phi(Ty::I32, "u");
    let ucmp = b.icmp(IntPredicate::Slt, u, nf);
    b.cond_br(ucmp, ubody, olatch);

    b.switch_to(ubody);
    let unidx = b.binary(BinOp::Add, urow_off, u);
    let una = b.gep(nodes, unidx, 4, 0);
    let unv = b.load_named(una, Ty::F32, "upd_feat");
    let ncidx = b.binary(BinOp::Add, ncrow, u);
    let nca = b.gep(new_centers, ncidx, 4, 0);
    let cur = b.load(nca, Ty::F32);
    let sum = b.binary(BinOp::FAdd, cur, unv);
    b.store(nca, sum);
    let u2 = b.binary(BinOp::Add, u, one);
    b.br(uh);

    b.switch_to(olatch);
    let i2 = b.binary(BinOp::Add, i, one);
    b.br(header);

    b.switch_to(exit);
    b.ret(Some(delta));

    b.add_phi_incoming(i, b.entry_block(), zero);
    b.add_phi_incoming(i, olatch, i2);
    b.add_phi_incoming(delta, b.entry_block(), zero);
    b.add_phi_incoming(delta, olatch, delta2);
    b.add_phi_incoming(cc, find_init, zero);
    b.add_phi_incoming(cc, ddone, cc2);
    b.add_phi_incoming(best, find_init, inf);
    b.add_phi_incoming(best, ddone, best2);
    b.add_phi_incoming(best_idx, find_init, zero);
    b.add_phi_incoming(best_idx, ddone, best_idx2);
    b.add_phi_incoming(f, ch, zero);
    b.add_phi_incoming(f, dbody, f2);
    b.add_phi_incoming(acc, ch, zf);
    b.add_phi_incoming(acc, dbody, acc2);
    b.add_phi_incoming(delta2, find_done, delta);
    b.add_phi_incoming(delta2, incr, delta_plus);
    b.add_phi_incoming(u, upd, zero);
    b.add_phi_incoming(u, ubody, u2);

    // Profile hints: distance loop runs k×nf times per point, the update
    // loop nf times.
    b.set_freq_hint(ch, clusters_hint + 1.0);
    b.set_freq_hint(dh, clusters_hint * (features_hint + 1.0));
    b.set_freq_hint(dbody, clusters_hint * features_hint);
    b.set_freq_hint(ddone, clusters_hint);
    b.set_freq_hint(uh, features_hint + 1.0);
    b.set_freq_hint(ubody, features_hint);

    b.finish().expect("kmeans kernel verifies")
}

/// Alias facts: points and centers are read-only during the membership
/// loop; `membership`, `new_centers`, and `nc_len` are read-write and the
/// compiler cannot prove per-iteration disjointness for the
/// `index`-subscripted arrays (the paper classifies those updates
/// sequential).
#[must_use]
pub fn memory_model() -> MemoryModel {
    let mut mm = MemoryModel::new();
    let nodes = mm.add_region("nodes", 4, true, false);
    let clusters = mm.add_region("clusters", 4, true, false);
    let membership = mm.add_region("membership", 4, false, false);
    let new_centers = mm.add_region("new_centers", 4, false, false);
    let nc_len = mm.add_region("nc_len", 4, false, false);
    mm.bind_param(0, nodes);
    mm.bind_param(1, clusters);
    mm.bind_param(2, membership);
    mm.bind_param(3, new_centers);
    mm.bind_param(4, nc_len);
    mm
}

/// Generate the workload.
#[must_use]
pub fn build(p: &Params, seed: u64) -> BuiltKernel {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x43a5);
    let bytes = 4 * (p.points * p.features + p.clusters * p.features * 2 + p.points + p.clusters)
        + (1 << 16);
    let mut mem = SimMemory::new(bytes.next_power_of_two().max(1 << 18));

    let nodes = mem.alloc(4 * p.points * p.features, 4);
    let clusters = mem.alloc(4 * p.clusters * p.features, 4);
    let membership = mem.alloc(4 * p.points, 4);
    let new_centers = mem.alloc(4 * p.clusters * p.features, 4);
    let nc_len = mem.alloc(4 * p.clusters, 4);

    for idx in 0..p.points * p.features {
        mem.write_f32(nodes + 4 * idx, rng.gen_range(-10.0..10.0));
    }
    for idx in 0..p.clusters * p.features {
        mem.write_f32(clusters + 4 * idx, rng.gen_range(-10.0..10.0));
        mem.write_f32(new_centers + 4 * idx, 0.0);
    }
    for i in 0..p.points {
        mem.write_i32(membership + 4 * i, rng.gen_range(0..p.clusters as i32));
    }
    for c in 0..p.clusters {
        mem.write_i32(nc_len + 4 * c, 0);
    }

    BuiltKernel {
        name: "kmeans".to_string(),
        domain: "machine learning",
        description: "finding the nearest cluster for each point and updating its position",
        func: kernel_ir(f64::from(p.features), f64::from(p.clusters)),
        model: memory_model(),
        mem,
        args: vec![
            Value::Ptr(nodes),
            Value::Ptr(clusters),
            Value::Ptr(membership),
            Value::Ptr(new_centers),
            Value::Ptr(nc_len),
            Value::I32(p.points as i32),
            Value::I32(p.clusters as i32),
            Value::I32(p.features as i32),
        ],
        iterations: u64::from(p.points),
        reference_cache: ReferenceCache::native(reference_native),
    }
}

/// Native Rust reference over the same layout, with the signature of
/// [`kernel_ir`]: the point, cluster and feature counts come from
/// `args[5..8]`.
///
/// # Errors
/// See [`NativeReference`](crate::NativeReference).
pub fn reference_native(mem: &mut SimMemory, args: &[Value]) -> Result<Option<Value>, InterpError> {
    let (p, i) = (Ty::Ptr, Ty::I32);
    let [nodes, clusters, membership, new_centers, nc_len, n, k, nf] =
        arguments(args, [p, p, p, p, p, i, i, i])?;
    let (nodes, clusters, membership) = (ptr_arg(nodes), ptr_arg(clusters), ptr_arg(membership));
    let (new_centers, nc_len) = (ptr_arg(new_centers), ptr_arg(nc_len));
    let (n, k, nf) = (i32_arg(n), i32_arg(k), i32_arg(nf));
    let mut m = Native::new(mem);
    let mut delta = 0i32;
    for i in 0..n {
        m.step()?;
        let row = i.wrapping_mul(nf);
        let mut best = f32::INFINITY;
        let mut best_idx = 0i32;
        for cc in 0..k {
            m.step()?;
            let mut acc = 0.0f32;
            for f in 0..nf {
                m.step()?;
                let nv = m.f32(elem(nodes, row.wrapping_add(f), 4))?;
                let cv = m.f32(elem(clusters, cc.wrapping_mul(nf).wrapping_add(f), 4))?;
                let d = nv - cv;
                acc += d * d;
            }
            if acc < best {
                best = acc;
                best_idx = cc;
            }
        }
        let slot = elem(membership, i, 4);
        if m.i32(slot)? != best_idx {
            delta = delta.wrapping_add(1);
        }
        m.store(slot, Value::I32(best_idx))?;
        let len = elem(nc_len, best_idx, 4);
        let old = m.i32(len)?;
        m.store(len, Value::I32(old.wrapping_add(1)))?;
        let center = best_idx.wrapping_mul(nf);
        for j in 0..nf {
            m.step()?;
            let nv = m.f32(elem(nodes, row.wrapping_add(j), 4))?;
            let a = elem(new_centers, center.wrapping_add(j), 4);
            let cur = m.f32(a)?;
            m.store(a, Value::F32(cur + nv))?;
        }
    }
    Ok(Some(Value::I32(delta)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_ir_matches_native;

    #[test]
    fn ir_matches_native_reference() {
        let p = Params { points: 30, clusters: 4, features: 6 };
        assert_ir_matches_native(&build(&p, 11), reference_native);
    }

    #[test]
    fn delta_counts_changed_membership() {
        let p = Params { points: 50, clusters: 3, features: 4 };
        let k = build(&p, 5);
        let (_, ret) = k.reference();
        let Some(Value::I32(delta)) = ret else { panic!("delta missing") };
        assert!((0..=50).contains(&delta));
    }

    #[test]
    fn centers_accumulate_all_points() {
        let p = Params { points: 20, clusters: 2, features: 3 };
        let k = build(&p, 2);
        let (after, _) = k.reference();
        let nc_len = k.args[4].as_ptr();
        let total: i32 = (0..p.clusters).map(|c| after.read_i32(nc_len + 4 * c)).sum();
        assert_eq!(total, p.points as i32);
    }
}
