//! One typing rule for register ops, checked once, before anything runs.
//!
//! For every register-op form at every declared operand-type combination
//! (each `BinOp`, `ICmp` and `FCmp` on each pair of types, `Select` on
//! each triple, each `Cast` from each type to each type, and `Gep` on each
//! base type with each index type or none):
//!
//! - the IR verifier accepts the form if and only if `exec::eval_*`
//!   returns a value on every edge-case operand of the declared types
//!   (`select` needs an `i1` condition and two arms of one type);
//! - on each accepted form, with well-typed operands, the reference
//!   interpreter and both simulator engines give exactly the value
//!   `exec::eval_*` gives;
//! - an argument of another type than its parameter is a typed error
//!   before the first instruction or cycle, in the interpreter, the MIPS
//!   model and both engines.
//!
//! `exec::eval_*` is also checked against a table of literal results, the
//! one check here that does not share the kernels.

use cgpa_ir::builder::FunctionBuilder;
use cgpa_ir::inst::{FloatPredicate, IntPredicate};
use cgpa_ir::verify::verify;
use cgpa_ir::{BinOp, CastKind, Function, InstId, Ty};
use cgpa_sim::exec::{eval_binary, eval_cast, eval_fcmp, eval_gep, eval_icmp};
use cgpa_sim::interp::{run_function, ExecHooks, NoHooks};
use cgpa_sim::mips::{run_mips, MipsConfig};
use cgpa_sim::{HwConfig, HwError, HwSystem, InterpError, SimEngine, SimMemory, Value};

const TYS: [Ty; 6] = [Ty::I1, Ty::I32, Ty::I64, Ty::F32, Ty::F64, Ty::Ptr];

const ENGINES: [SimEngine; 2] = [SimEngine::PerCycle, SimEngine::EventDriven];

/// One register-op form: the op and its declared operand types.
#[derive(Debug, Clone, Copy)]
enum Form {
    Bin(BinOp, Ty, Ty),
    ICmp(IntPredicate, Ty, Ty),
    FCmp(FloatPredicate, Ty, Ty),
    /// Condition, then the two arms.
    Select(Ty, Ty, Ty),
    Cast(CastKind, Ty, Ty),
    /// `Gep` on a base of this type, with an index of this type or none.
    Gep(Ty, Option<Ty>),
}

impl Form {
    fn params(self) -> Vec<Ty> {
        match self {
            Form::Bin(_, a, b) | Form::ICmp(_, a, b) | Form::FCmp(_, a, b) => vec![a, b],
            Form::Select(c, a, b) => vec![c, a, b],
            Form::Cast(_, from, _) => vec![from],
            Form::Gep(base, None) => vec![base],
            Form::Gep(base, Some(ix)) => vec![base, ix],
        }
    }

    fn result(self) -> Ty {
        match self {
            Form::Bin(_, t, _) | Form::Select(_, t, _) => t,
            Form::ICmp(..) | Form::FCmp(..) => Ty::I1,
            Form::Cast(_, _, to) => to,
            Form::Gep(..) => Ty::Ptr,
        }
    }

    /// `entry: br body; body: r = op(params); br exit; exit: ret r`,
    /// unverified. The op gets a state of its own between two others, so
    /// the event-driven engine reaches it by running ahead and the
    /// per-cycle engine by stepping.
    fn function(self) -> Function {
        let names = ["a", "b", "c"];
        let tys = self.params();
        let params: Vec<(&str, Ty)> = names.iter().copied().zip(tys.iter().copied()).collect();
        let mut b = FunctionBuilder::new("op", &params, Some(self.result()));
        let p: Vec<_> = (0..tys.len() as u32).map(|i| b.param(i)).collect();
        let body = b.append_block("body");
        let exit = b.append_block("exit");
        b.br(body);
        b.switch_to(body);
        let r = match self {
            Form::Bin(op, ..) => b.binary(op, p[0], p[1]),
            Form::ICmp(pred, ..) => b.icmp(pred, p[0], p[1]),
            Form::FCmp(pred, ..) => b.fcmp(pred, p[0], p[1]),
            Form::Select(..) => b.select(p[0], p[1], p[2]),
            Form::Cast(kind, _, to) => b.cast(kind, p[0], to),
            Form::Gep(_, None) => b.field(p[0], 12),
            Form::Gep(_, Some(Ty::I32)) => b.gep(p[0], p[1], 4, 8),
            Form::Gep(_, Some(_)) => b.gep(p[0], p[1], 16, -4),
        };
        b.br(exit);
        b.switch_to(exit);
        b.ret(Some(r));
        b.finish_unverified()
    }

    /// What `exec` says the op gives on `args`, if it defines the op on
    /// them.
    fn expected(self, args: &[Value]) -> Option<Value> {
        match self {
            Form::Bin(op, ..) => eval_binary(op, args[0], args[1]).ok(),
            Form::ICmp(pred, ..) => eval_icmp(pred, args[0], args[1]).ok(),
            Form::FCmp(pred, ..) => eval_fcmp(pred, args[0], args[1]).ok(),
            Form::Select(..) => match args[0] {
                Value::I1(c) if args[1].ty() == args[2].ty() => Some(args[if c { 1 } else { 2 }]),
                _ => None,
            },
            Form::Cast(kind, _, to) => eval_cast(kind, args[0], to).ok(),
            Form::Gep(_, None) => eval_gep(args[0], None, 0, 12).ok(),
            Form::Gep(_, Some(Ty::I32)) => eval_gep(args[0], Some(args[1]), 4, 8).ok(),
            Form::Gep(_, Some(_)) => eval_gep(args[0], Some(args[1]), 16, -4).ok(),
        }
    }
}

/// A value as its type and bit pattern, so NaNs compare equal.
fn bits(v: Value) -> (Ty, u64) {
    (v.ty(), v.to_bits())
}

/// Every form at every declared operand-type combination.
fn forms() -> Vec<Form> {
    use BinOp::*;
    use IntPredicate as I;
    let bin = [Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, LShr, AShr, FAdd, FSub, FMul, FDiv];
    let ipred = [I::Eq, I::Ne, I::Slt, I::Sle, I::Sgt, I::Sge, I::Ult, I::Uge];
    let fpred = [
        FloatPredicate::Oeq,
        FloatPredicate::One,
        FloatPredicate::Olt,
        FloatPredicate::Ole,
        FloatPredicate::Ogt,
        FloatPredicate::Oge,
    ];
    let casts = [
        CastKind::SExt,
        CastKind::ZExt,
        CastKind::Trunc,
        CastKind::SiToFp,
        CastKind::FpToSi,
        CastKind::FpCast,
        CastKind::PtrCast,
    ];
    let mut all = Vec::new();
    for a in TYS {
        for b in TYS {
            all.extend(bin.iter().map(|&op| Form::Bin(op, a, b)));
            all.extend(ipred.iter().map(|&p| Form::ICmp(p, a, b)));
            all.extend(fpred.iter().map(|&p| Form::FCmp(p, a, b)));
            all.extend(casts.iter().map(|&k| Form::Cast(k, a, b)));
            all.extend(TYS.iter().map(|&c| Form::Select(c, a, b)));
        }
        all.push(Form::Gep(a, None));
        all.extend(TYS.iter().map(|&ix| Form::Gep(a, Some(ix))));
    }
    all
}

/// Operand values of each type: edge cases for the type itself.
fn values(ty: Ty) -> Vec<Value> {
    match ty {
        Ty::I1 => vec![Value::I1(false), Value::I1(true)],
        Ty::I32 => [1, 0, -1, 7, -8, 31, 33, i32::MIN, i32::MAX].map(Value::I32).to_vec(),
        Ty::I64 => [1, 0, -1, 7, -8, 63, 65, 1 << 40, i64::MIN, i64::MAX].map(Value::I64).to_vec(),
        Ty::F32 => [1.5, 0.0, -0.0, -2.25, 3e9, f32::NAN, f32::INFINITY].map(Value::F32).to_vec(),
        Ty::F64 => {
            [1.5, 0.0, -0.0, -2.25, 1e300, f64::NAN, f64::NEG_INFINITY].map(Value::F64).to_vec()
        }
        Ty::Ptr => [0x40, 0, 0xffff_fff0].map(Value::Ptr).to_vec(),
    }
}

/// Every well-typed argument tuple: the cartesian product of each
/// parameter's edge-case values.
fn arg_tuples(params: &[Ty]) -> Vec<Vec<Value>> {
    params.iter().fold(vec![Vec::new()], |acc, &ty| {
        let vals = values(ty);
        acc.iter()
            .flat_map(|prefix| {
                vals.iter().map(move |&v| {
                    let mut t = prefix.clone();
                    t.push(v);
                    t
                })
            })
            .collect()
    })
}

/// Every form the verifier accepts, with its function.
fn accepted() -> Vec<(Form, Function)> {
    forms()
        .into_iter()
        .map(|f| (f, f.function()))
        .filter(|(_, func)| verify(func).is_ok())
        .collect()
}

fn engine(engine: SimEngine) -> HwConfig {
    HwConfig { engine, ..HwConfig::default() }
}

#[test]
fn the_verifier_accepts_exactly_the_forms_exec_defines() {
    let forms = forms();
    assert_eq!(forms.len(), 36 * (15 + 8 + 6 + 7 + 6) + 6 * 7);
    let mut accepted = 0;
    for form in forms {
        let defined = arg_tuples(&form.params()).iter().all(|args| form.expected(args).is_some());
        let verified = verify(&form.function());
        assert_eq!(verified.is_ok(), defined, "{form:?}: verifier says {verified:?}");
        accepted += usize::from(defined);
    }
    // 33 binary, 26 icmp, 12 fcmp, 6 select, 17 cast and 3 gep forms.
    assert_eq!(accepted, 97);
}

#[test]
fn every_executor_agrees_with_exec_on_every_accepted_form() {
    let mut runs = 0;
    for (form, f) in accepted() {
        for args in arg_tuples(&form.params()) {
            let want = bits(form.expected(&args).expect("an accepted form is defined"));
            let case = format!("{form:?} on {args:?}");
            let mut mem = SimMemory::new(4096);
            let (got, _) = run_function(&f, &args, &mut mem, 1000, &mut NoHooks).expect(&case);
            assert_eq!(got.map(bits), Some(want), "interpreter: {case}");
            for e in ENGINES {
                let mut sys = HwSystem::for_single(&f, &args, engine(e));
                sys.run(&mut mem).unwrap_or_else(|err| panic!("{e:?}: {case}: {err}"));
                assert_eq!(sys.ret_value().map(bits), Some(want), "{e:?}: {case}");
            }
            runs += 1;
        }
    }
    assert!(runs > 5000, "{runs} argument tuples");
}

/// Counts the instructions a run reached.
#[derive(Default)]
struct Reached(u64);

impl ExecHooks for Reached {
    fn on_inst(&mut self, _: &Function, _: InstId) {
        self.0 += 1;
    }
    fn on_mem(&mut self, _: u32, _: u32, _: bool) {}
    fn on_branch(&mut self, _: bool) {}
}

#[test]
fn a_mistyped_argument_is_a_typed_error_before_anything_runs() {
    let mut cases = 0;
    for (form, f) in accepted() {
        let params = form.params();
        for (index, &expected) in params.iter().enumerate() {
            for got in TYS.into_iter().filter(|&t| t != expected) {
                let mut args: Vec<Value> = params.iter().map(|&t| values(t)[0]).collect();
                args[index] = values(got)[0];
                let case = format!("{form:?}, argument {index} of {got}");
                let want = InterpError::BadArgument { index, expected, got };
                let mut mem = SimMemory::new(4096);
                let mut reached = Reached::default();
                let err = run_function(&f, &args, &mut mem, 1000, &mut reached).unwrap_err();
                assert_eq!((err, reached.0), (want.clone(), 0), "interpreter: {case}");
                let err = run_mips(&f, &args, &mut mem, 1000, &MipsConfig::default());
                assert_eq!(err.unwrap_err(), want, "MIPS: {case}");
                for e in ENGINES {
                    let mut sys = HwSystem::for_single(&f, &args, engine(e));
                    sys.enable_trace();
                    let err = sys.run(&mut mem).unwrap_err();
                    let text = format!("malformed instruction on worker 0: {want}");
                    assert!(matches!(err, HwError::Malformed { worker: 0, .. }), "{e:?}: {case}");
                    assert_eq!(err.to_string(), text, "{e:?}: {case}");
                    let events = sys.take_trace().map_or(0, |t| t.events.len());
                    assert_eq!(events, 0, "{e:?}: {case}: the run simulated a cycle");
                }
                cases += 1;
            }
        }
    }
    assert!(cases > 900, "{cases} cases");
}

/// `exec::eval_*` against literal results, not against another run of the
/// same kernels: one row per binary op at each type it yields a value on,
/// and per compare predicate at each type, at fixed operands.
#[test]
fn exec_matches_a_table_of_literal_results() {
    use BinOp::*;
    use FloatPredicate as F;
    use IntPredicate as I;
    use Value::{F32, F64, I1, I32, I64};
    let p = Value::Ptr;
    let bin = [
        (Add, I32(6), I32(3), I32(9)),
        (Sub, I32(6), I32(3), I32(3)),
        (Mul, I32(6), I32(-3), I32(-18)),
        (SDiv, I32(-7), I32(2), I32(-3)),
        (SRem, I32(-7), I32(2), I32(-1)),
        (And, I32(6), I32(3), I32(2)),
        (Or, I32(6), I32(3), I32(7)),
        (Xor, I32(6), I32(3), I32(5)),
        (Shl, I32(6), I32(3), I32(48)),
        (LShr, I32(-8), I32(1), I32(0x7fff_fffc)),
        (AShr, I32(-8), I32(1), I32(-4)),
        (Add, I64(6), I64(3), I64(9)),
        (Sub, I64(6), I64(3), I64(3)),
        (Mul, I64(6), I64(-3), I64(-18)),
        (SDiv, I64(-7), I64(2), I64(-3)),
        (SRem, I64(-7), I64(2), I64(-1)),
        (And, I64(6), I64(3), I64(2)),
        (Or, I64(6), I64(3), I64(7)),
        (Xor, I64(6), I64(3), I64(5)),
        (Shl, I64(6), I64(35), I64(6 << 35)),
        (LShr, I64(-8), I64(1), I64(0x7fff_ffff_ffff_fffc)),
        (AShr, I64(-8), I64(1), I64(-4)),
        (And, I1(true), I1(false), I1(false)),
        (Or, I1(true), I1(false), I1(true)),
        (Xor, I1(true), I1(true), I1(false)),
        (FAdd, F32(1.0), F32(2.0), F32(3.0)),
        (FSub, F32(1.0), F32(2.0), F32(-1.0)),
        (FMul, F32(1.5), F32(2.0), F32(3.0)),
        (FDiv, F32(1.0), F32(4.0), F32(0.25)),
        (FAdd, F64(1.0), F64(2.0), F64(3.0)),
        (FSub, F64(1.0), F64(2.0), F64(-1.0)),
        (FMul, F64(1.5), F64(2.0), F64(3.0)),
        (FDiv, F64(1.0), F64(4.0), F64(0.25)),
    ];
    for (op, a, b, want) in bin {
        assert_eq!(eval_binary(op, a, b).map(bits), Ok(bits(want)), "{op:?} {a:?}, {b:?}");
    }
    // Each predicate on a pair where the signed and unsigned orders differ.
    let icmp = [
        (I::Eq, false),
        (I::Ne, true),
        (I::Slt, true),
        (I::Sle, true),
        (I::Sgt, false),
        (I::Sge, false),
        (I::Ult, false),
        (I::Uge, true),
    ];
    for (pred, want) in icmp {
        for (a, b) in [(I32(-1), I32(2)), (I64(-1), I64(2))] {
            assert_eq!(eval_icmp(pred, a, b), Ok(I1(want)), "{pred:?} {a:?}, {b:?}");
        }
        // Pointers compare unsigned, signed predicates included.
        let unsigned = matches!(pred, I::Ne | I::Sgt | I::Sge | I::Uge);
        let (a, b) = (p(0xffff_fff0), p(2));
        assert_eq!(eval_icmp(pred, a, b), Ok(I1(unsigned)), "{pred:?} {a:?}, {b:?}");
    }
    for (pred, want) in [(I::Eq, false), (I::Ne, true)] {
        assert_eq!(eval_icmp(pred, I1(true), I1(false)), Ok(I1(want)), "{pred:?} on i1");
    }
    let fcmp = [
        (F::Oeq, false, false),
        (F::One, true, false),
        (F::Olt, true, false),
        (F::Ole, true, false),
        (F::Ogt, false, false),
        (F::Oge, false, false),
    ];
    for (pred, want, with_nan) in fcmp {
        let cases = [
            (F32(1.0), F32(2.0), want),
            (F64(1.0), F64(2.0), want),
            (F32(f32::NAN), F32(2.0), with_nan),
            (F64(1.0), F64(f64::NAN), with_nan),
        ];
        for (a, b, want) in cases {
            assert_eq!(eval_fcmp(pred, a, b), Ok(I1(want)), "{pred:?} {a:?}, {b:?}");
        }
    }
}
