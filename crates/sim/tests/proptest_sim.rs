//! Property tests over the simulation substrates: FIFO queue sets, the
//! cache timing model, and bit-accurate operation semantics.

use cgpa_ir::inst::{BinOp, CastKind, IntPredicate};
use cgpa_ir::{QueueInfo, Ty};
use cgpa_sim::cache::{CacheConfig, CacheSystem};
use cgpa_sim::exec::{eval_binary, eval_cast, eval_icmp};
use cgpa_sim::fifo::QueueState;
use cgpa_sim::{SimMemory, Value};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn fifo_preserves_order_and_values(vals in proptest::collection::vec(any::<i32>(), 1..16)) {
        let mut q = QueueState::new(
            &QueueInfo { name: "q".into(), elem_ty: Ty::I32, channels: 1 },
            16,
        );
        for &v in &vals {
            prop_assert!(q.can_push(0));
            q.push(0, Value::I32(v));
        }
        for &v in &vals {
            prop_assert!(q.can_pop(0));
            prop_assert_eq!(q.pop(0), Value::I32(v));
        }
        prop_assert!(q.is_drained());
        prop_assert_eq!(q.beats_pushed, vals.len() as u64);
        prop_assert_eq!(q.beats_popped, vals.len() as u64);
    }

    #[test]
    fn fifo_f64_beats_roundtrip(vals in proptest::collection::vec(any::<f64>(), 1..8)) {
        let mut q = QueueState::new(
            &QueueInfo { name: "q".into(), elem_ty: Ty::F64, channels: 2 },
            16,
        );
        for (i, &v) in vals.iter().enumerate() {
            q.push(i % 2, Value::F64(v));
        }
        for (i, &v) in vals.iter().enumerate() {
            let got = q.pop(i % 2);
            let Value::F64(g) = got else { panic!("type changed") };
            prop_assert_eq!(g.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn cache_requests_never_travel_backwards(addrs in proptest::collection::vec(0u32..(1<<20), 1..64)) {
        let mut c = CacheSystem::new(CacheConfig::default());
        for (cycle, a) in addrs.into_iter().enumerate() {
            let cycle = cycle as u64;
            let done = c.request(cycle, a);
            prop_assert!(done > cycle, "completion in the past");
            prop_assert!(done <= cycle + 24 + c.stats.conflict_cycles + 24);
        }
        prop_assert_eq!(c.stats.hits + c.stats.misses, c.stats.accesses);
    }

    #[test]
    fn repeated_access_hits(addr in 0u32..(1<<20)) {
        let mut c = CacheSystem::new(CacheConfig::default());
        let t1 = c.request(0, addr);
        let _ = c.request(t1, addr);
        prop_assert_eq!(c.stats.hits, 1);
        prop_assert_eq!(c.stats.misses, 1);
        prop_assert!(c.probe(addr));
    }

    #[test]
    fn add_matches_wrapping_semantics(a in any::<i32>(), b in any::<i32>()) {
        prop_assert_eq!(
            eval_binary(BinOp::Add, Value::I32(a), Value::I32(b)),
            Ok(Value::I32(a.wrapping_add(b)))
        );
        prop_assert_eq!(
            eval_binary(BinOp::Mul, Value::I32(a), Value::I32(b)),
            Ok(Value::I32(a.wrapping_mul(b)))
        );
    }

    #[test]
    fn icmp_total_order_consistency(a in any::<i32>(), b in any::<i32>()) {
        let lt = eval_icmp(IntPredicate::Slt, Value::I32(a), Value::I32(b)).unwrap().as_bool();
        let ge = eval_icmp(IntPredicate::Sge, Value::I32(a), Value::I32(b)).unwrap().as_bool();
        prop_assert_ne!(lt, ge);
        let eq = eval_icmp(IntPredicate::Eq, Value::I32(a), Value::I32(b)).unwrap().as_bool();
        prop_assert_eq!(eq, a == b);
    }

    #[test]
    fn sext_then_trunc_is_identity(a in any::<i32>()) {
        let wide = eval_cast(CastKind::SExt, Value::I32(a), Ty::I64).unwrap();
        let back = eval_cast(CastKind::Trunc, wide, Ty::I32);
        prop_assert_eq!(back, Ok(Value::I32(a)));
    }

    #[test]
    fn memory_roundtrips_any_value(
        v in prop_oneof![
            any::<i32>().prop_map(Value::I32),
            any::<i64>().prop_map(Value::I64),
            any::<u32>().prop_map(Value::Ptr),
            any::<f32>().prop_map(Value::F32),
            any::<f64>().prop_map(Value::F64),
        ],
        off in 0u32..64
    ) {
        let mut m = SimMemory::new(4096);
        let base = m.alloc(128, 8);
        m.write_value(base + off, v).unwrap();
        let back = m.read_value(base + off, v.ty()).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }
}
