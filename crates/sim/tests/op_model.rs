//! Pins the op model: for every operation kind at each legal type, the
//! numbers each consumer derives from it — `op_timing`'s latency,
//! chaining and port use, the functional-unit ALUTs `estimate_area`
//! charges a one-op task, the FSM states `schedule_function` gives a block
//! holding two independent copies of the op, and the MIPS cycles of the
//! one-op function. A refactor of how ops are classified must leave every
//! row unchanged.

use cgpa_ir::builder::FunctionBuilder;
use cgpa_ir::inst::{FloatPredicate, IntPredicate};
use cgpa_ir::{BinOp, CastKind, Function, Ty, ValueId};
use cgpa_rtl::area::{estimate_area, AreaModel};
use cgpa_rtl::schedule::{schedule_function, verify_schedule};
use cgpa_rtl::timing::op_timing;
use cgpa_sim::mips::{run_mips, MipsConfig};
use cgpa_sim::{SimMemory, Value};

/// One operation kind at one type.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Bin(BinOp, Ty),
    ICmp(Ty),
    FCmp(Ty),
    Select(Ty),
    Cast(CastKind, Ty, Ty),
    Gep,
}

/// An argument of type `ty` (7 for the first operand, 3 for the second).
fn arg(ty: Ty, first: bool) -> Value {
    let n = if first { 7 } else { 3 };
    match ty {
        Ty::I1 => Value::I1(first),
        Ty::I32 => Value::I32(n),
        Ty::I64 => Value::I64(i64::from(n)),
        Ty::F32 => Value::F32(n as f32),
        Ty::F64 => Value::F64(f64::from(n)),
        Ty::Ptr => Value::Ptr(0x100),
    }
}

impl Kind {
    fn params(self) -> Vec<Ty> {
        match self {
            Kind::Bin(_, t) | Kind::ICmp(t) | Kind::FCmp(t) => vec![t, t],
            Kind::Select(t) => vec![Ty::I1, t, t],
            Kind::Cast(_, from, _) => vec![from],
            Kind::Gep => vec![Ty::Ptr, Ty::I32],
        }
    }

    fn result(self) -> Ty {
        match self {
            Kind::Bin(_, t) | Kind::Select(t) => t,
            Kind::ICmp(_) | Kind::FCmp(_) => Ty::I1,
            Kind::Cast(_, _, to) => to,
            Kind::Gep => Ty::Ptr,
        }
    }

    fn args(self) -> Vec<Value> {
        let tys = self.params();
        let first = usize::from(matches!(self, Kind::Select(_)));
        tys.iter().enumerate().map(|(i, &t)| arg(t, i <= first)).collect()
    }

    /// Emit the op on `p` (the function's parameters, in order).
    fn emit(self, b: &mut FunctionBuilder, p: &[ValueId]) -> ValueId {
        match self {
            Kind::Bin(op, _) => b.binary(op, p[0], p[1]),
            Kind::ICmp(_) => b.icmp(IntPredicate::Slt, p[0], p[1]),
            Kind::FCmp(_) => b.fcmp(FloatPredicate::Olt, p[0], p[1]),
            Kind::Select(_) => b.select(p[0], p[1], p[2]),
            Kind::Cast(kind, _, to) => b.cast(kind, p[0], to),
            Kind::Gep => b.gep(p[0], p[1], 4, 0),
        }
    }

    fn builder(self, name: &str, ret: Option<Ty>) -> (FunctionBuilder, Vec<ValueId>) {
        let names = ["a", "b", "c"];
        let tys = self.params();
        let params: Vec<(&str, Ty)> = names.iter().copied().zip(tys.iter().copied()).collect();
        let b = FunctionBuilder::new(name, &params, ret);
        let p = (0..tys.len() as u32).map(|i| b.param(i)).collect();
        (b, p)
    }

    /// `ret op(params)`.
    fn one(self) -> Function {
        let (mut b, p) = self.builder("one", Some(self.result()));
        let r = self.emit(&mut b, &p);
        b.ret(Some(r));
        b.finish().unwrap()
    }

    /// Two independent copies of the op in one block.
    fn two(self) -> Function {
        let (mut b, p) = self.builder("two", None);
        self.emit(&mut b, &p);
        self.emit(&mut b, &p);
        b.ret(None);
        b.finish().unwrap()
    }
}

/// What every consumer of the op model derives from one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    latency: u32,
    chainable: bool,
    port_op: bool,
    unit_aluts: u32,
    two_copy_states: usize,
    mips_cycles: u64,
}

fn measure(kind: Kind) -> Row {
    let one = kind.one();
    let op = &one.insts[0].op;
    let t = op_timing(op, Some(kind.result()));
    let fsm = schedule_function(&one);
    verify_schedule(&one, &fsm).unwrap();
    let unit_aluts = estimate_area(&AreaModel::default(), &one, &fsm).units;
    let two = kind.two();
    let fsm2 = schedule_function(&two);
    verify_schedule(&two, &fsm2).unwrap();
    let mut mem = SimMemory::new(4096);
    let run = run_mips(&one, &kind.args(), &mut mem, 1000, &MipsConfig::default()).unwrap();
    Row {
        latency: t.latency,
        chainable: t.chainable,
        port_op: t.port_op,
        unit_aluts,
        two_copy_states: fsm2.len(),
        mips_cycles: run.cycles,
    }
}

fn kinds() -> Vec<(String, Kind)> {
    use BinOp::*;
    let mut out = Vec::new();
    for op in [Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, LShr, AShr] {
        for ty in [Ty::I32, Ty::I64] {
            out.push((format!("{op:?}.{ty}"), Kind::Bin(op, ty)));
        }
    }
    for op in [FAdd, FSub, FMul, FDiv] {
        for ty in [Ty::F32, Ty::F64] {
            out.push((format!("{op:?}.{ty}"), Kind::Bin(op, ty)));
        }
    }
    for ty in [Ty::I32, Ty::I64] {
        out.push((format!("ICmp.{ty}"), Kind::ICmp(ty)));
    }
    for ty in [Ty::F32, Ty::F64] {
        out.push((format!("FCmp.{ty}"), Kind::FCmp(ty)));
    }
    for ty in [Ty::I32, Ty::F64] {
        out.push((format!("Select.{ty}"), Kind::Select(ty)));
    }
    out.push(("SExt.i32.i64".into(), Kind::Cast(CastKind::SExt, Ty::I32, Ty::I64)));
    out.push(("SiToFp.i32.f64".into(), Kind::Cast(CastKind::SiToFp, Ty::I32, Ty::F64)));
    out.push(("FpCast.f32.f64".into(), Kind::Cast(CastKind::FpCast, Ty::F32, Ty::F64)));
    out.push(("Gep".into(), Kind::Gep));
    out
}

/// `(kind, latency, chainable, port_op, unit ALUTs, states of two copies,
/// MIPS cycles)`.
const EXPECTED: &[(&str, u32, bool, bool, u32, usize, u64)] = &[
    ("Add.i32", 1, true, false, 32, 1, 26),
    ("Add.i64", 1, true, false, 32, 1, 26),
    ("Sub.i32", 1, true, false, 32, 1, 26),
    ("Sub.i64", 1, true, false, 32, 1, 26),
    ("Mul.i32", 2, false, false, 130, 2, 27),
    ("Mul.i64", 2, false, false, 130, 2, 27),
    ("SDiv.i32", 16, false, false, 650, 2, 43),
    ("SDiv.i64", 16, false, false, 650, 2, 43),
    ("SRem.i32", 16, false, false, 650, 2, 43),
    ("SRem.i64", 16, false, false, 650, 2, 43),
    ("And.i32", 1, true, false, 32, 1, 26),
    ("And.i64", 1, true, false, 32, 1, 26),
    ("Or.i32", 1, true, false, 32, 1, 26),
    ("Or.i64", 1, true, false, 32, 1, 26),
    ("Xor.i32", 1, true, false, 32, 1, 26),
    ("Xor.i64", 1, true, false, 32, 1, 26),
    ("Shl.i32", 1, true, false, 64, 1, 26),
    ("Shl.i64", 1, true, false, 64, 1, 26),
    ("LShr.i32", 1, true, false, 64, 1, 26),
    ("LShr.i64", 1, true, false, 64, 1, 26),
    ("AShr.i32", 1, true, false, 64, 1, 26),
    ("AShr.i64", 1, true, false, 64, 1, 26),
    ("FAdd.f32", 3, false, false, 220, 2, 29),
    ("FAdd.f64", 4, false, false, 420, 2, 30),
    ("FSub.f32", 3, false, false, 220, 2, 29),
    ("FSub.f64", 4, false, false, 420, 2, 30),
    ("FMul.f32", 4, false, false, 120, 2, 30),
    ("FMul.f64", 5, false, false, 260, 2, 32),
    ("FDiv.f32", 16, false, false, 700, 2, 49),
    ("FDiv.f64", 24, false, false, 1400, 2, 49),
    ("ICmp.i32", 1, true, false, 20, 1, 26),
    ("ICmp.i64", 1, true, false, 20, 1, 26),
    ("FCmp.f32", 2, false, false, 80, 2, 28),
    ("FCmp.f64", 2, false, false, 80, 2, 28),
    ("Select.i32", 1, true, false, 32, 1, 26),
    ("Select.f64", 1, true, false, 32, 1, 26),
    ("SExt.i32.i64", 1, true, false, 0, 1, 26),
    ("SiToFp.i32.f64", 1, true, false, 0, 1, 26),
    ("FpCast.f32.f64", 1, true, false, 0, 1, 26),
    ("Gep", 1, true, false, 32, 1, 26),
];

#[test]
fn every_op_keeps_its_timing_area_schedule_and_mips_cost() {
    let mut bad = Vec::new();
    let mut table = String::new();
    let all = kinds();
    for (name, kind) in &all {
        let r = measure(*kind);
        table.push_str(&format!(
            "    (\"{name}\", {}, {}, {}, {}, {}, {}),\n",
            r.latency, r.chainable, r.port_op, r.unit_aluts, r.two_copy_states, r.mips_cycles
        ));
        let want = EXPECTED.iter().find(|e| e.0 == name).map(|e| Row {
            latency: e.1,
            chainable: e.2,
            port_op: e.3,
            unit_aluts: e.4,
            two_copy_states: e.5,
            mips_cycles: e.6,
        });
        if want != Some(r) {
            bad.push(format!("{name}: want {want:?}, got {r:?}"));
        }
    }
    assert_eq!(EXPECTED.len(), all.len(), "one expected row per kind; measured:\n{table}");
    assert!(bad.is_empty(), "{}\nmeasured:\n{table}", bad.join("\n"));
}

#[test]
fn f32_and_f64_fadds_never_share_a_state() {
    let mut b = FunctionBuilder::new(
        "pair",
        &[("a", Ty::F32), ("b", Ty::F32), ("c", Ty::F64), ("d", Ty::F64)],
        None,
    );
    let p: Vec<ValueId> = (0..4).map(|i| b.param(i)).collect();
    b.binary(BinOp::FAdd, p[0], p[1]);
    b.binary(BinOp::FAdd, p[2], p[3]);
    b.ret(None);
    let f = b.finish().unwrap();
    let fsm = schedule_function(&f);
    verify_schedule(&f, &fsm).unwrap();
    assert_eq!(fsm.len(), 2);
    assert_ne!(fsm.state_of[0], fsm.state_of[1]);
    // The area model prices the two widths as separate units.
    let model = AreaModel::default();
    assert_eq!(estimate_area(&model, &f, &fsm).units, 220 + 420);
}
