//! Op semantics across decoders: for every register-op form the IR
//! verifier accepts (each `BinOp`, `ICmp` and `FCmp` at each legal operand
//! type, `Select` at each arm type, each legal `Cast` and the three `Gep`
//! shapes), with operands of every `Value` tag, the reference interpreter
//! and both simulator engines must give the same value, or the same error
//! text, as `exec::eval_*` applied to the same operands.
//!
//! The functions are verifier-legal for their declared parameter types;
//! the arguments are not always of those types. Worker arguments are not
//! type-checked, so a mistyped value reaches the datapath this way, and the
//! interpreter does not check its arguments either. An engine that decodes
//! an op by its declared types must therefore fall back to the tagged
//! semantics whenever the runtime value has another tag.

use cgpa_ir::builder::FunctionBuilder;
use cgpa_ir::inst::{FloatPredicate, IntPredicate};
use cgpa_ir::{BinOp, CastKind, Function, Ty};
use cgpa_sim::exec::{eval_binary, eval_cast, eval_fcmp, eval_gep, eval_icmp};
use cgpa_sim::interp::{run_function, NoHooks};
use cgpa_sim::{HwConfig, HwError, HwSystem, InterpError, SimEngine, SimMemory, Value};

const TYS: [Ty; 6] = [Ty::I1, Ty::I32, Ty::I64, Ty::F32, Ty::F64, Ty::Ptr];

/// One register-op form: the op and its declared operand types.
#[derive(Debug, Clone, Copy)]
enum Form {
    Bin(BinOp, Ty),
    ICmp(IntPredicate, Ty),
    FCmp(FloatPredicate, Ty),
    Select(Ty),
    Cast(CastKind, Ty, Ty),
    /// `Gep` with an index of this type, or none.
    Gep(Option<Ty>),
}

impl Form {
    fn params(self) -> Vec<Ty> {
        match self {
            Form::Bin(_, t) | Form::ICmp(_, t) | Form::FCmp(_, t) => vec![t, t],
            Form::Select(t) => vec![Ty::I1, t, t],
            Form::Cast(_, from, _) => vec![from],
            Form::Gep(None) => vec![Ty::Ptr],
            Form::Gep(Some(ix)) => vec![Ty::Ptr, ix],
        }
    }

    fn result(self) -> Ty {
        match self {
            Form::Bin(_, t) | Form::Select(t) => t,
            Form::ICmp(..) | Form::FCmp(..) => Ty::I1,
            Form::Cast(_, _, to) => to,
            Form::Gep(_) => Ty::Ptr,
        }
    }

    /// `entry: br body; body: r = op(params); br exit; exit: ret r`, or
    /// `None` when the verifier rejects the form. The op gets a state of
    /// its own between two others, so the event-driven engine reaches it by
    /// running ahead and the per-cycle engine by stepping.
    fn function(self) -> Option<Function> {
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
            Form::Bin(op, _) => b.binary(op, p[0], p[1]),
            Form::ICmp(pred, _) => b.icmp(pred, p[0], p[1]),
            Form::FCmp(pred, _) => b.fcmp(pred, p[0], p[1]),
            Form::Select(_) => b.select(p[0], p[1], p[2]),
            Form::Cast(kind, _, to) => b.cast(kind, p[0], to),
            Form::Gep(None) => b.field(p[0], 12),
            Form::Gep(Some(Ty::I32)) => b.gep(p[0], p[1], 4, 8),
            Form::Gep(Some(_)) => b.gep(p[0], p[1], 16, -4),
        };
        b.br(exit);
        b.switch_to(exit);
        b.ret(Some(r));
        b.finish().ok()
    }

    /// What `exec` says the op gives on `args`.
    fn expected(self, args: &[Value]) -> Outcome {
        let r = match self {
            Form::Bin(op, _) => eval_binary(op, args[0], args[1]),
            Form::ICmp(pred, _) => eval_icmp(pred, args[0], args[1]),
            Form::FCmp(pred, _) => eval_fcmp(pred, args[0], args[1]),
            Form::Select(_) => {
                return match args[0] {
                    Value::I1(c) => Ok(bits(if c { args[1] } else { args[2] })),
                    other => Err(format!("expected i1, got {other:?}")),
                }
            }
            Form::Cast(kind, _, to) => eval_cast(kind, args[0], to),
            Form::Gep(None) => eval_gep(args[0], None, 0, 12),
            Form::Gep(Some(Ty::I32)) => eval_gep(args[0], Some(args[1]), 4, 8),
            Form::Gep(Some(_)) => eval_gep(args[0], Some(args[1]), 16, -4),
        };
        r.map(bits).map_err(|e| e.0)
    }
}

/// A value as its type and bit pattern (so NaNs compare equal), or an
/// error's text.
type Outcome = Result<(Ty, u64), String>;

fn bits(v: Value) -> (Ty, u64) {
    (v.ty(), v.to_bits())
}

/// Every form the verifier accepts.
fn forms() -> Vec<(Form, Function)> {
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
    for t in TYS {
        all.extend(bin.iter().map(|&op| Form::Bin(op, t)));
        all.extend(ipred.iter().map(|&p| Form::ICmp(p, t)));
        all.extend(fpred.iter().map(|&p| Form::FCmp(p, t)));
        all.push(Form::Select(t));
        for to in TYS {
            all.extend(casts.iter().map(|&k| Form::Cast(k, t, to)));
        }
    }
    all.extend([Form::Gep(None), Form::Gep(Some(Ty::I32)), Form::Gep(Some(Ty::I64))]);
    all.into_iter().filter_map(|f| Some((f, f.function()?))).collect()
}

/// Operand values of each tag: edge cases for the tag itself.
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

/// The operands tried for a parameter declared `ty`: every edge case of
/// `ty`, and one value of each other tag.
fn operands(ty: Ty) -> Vec<Value> {
    let mut v = values(ty);
    v.extend(TYS.iter().filter(|&&t| t != ty).map(|&t| values(t)[0]));
    v
}

/// Every argument tuple: the cartesian product of each parameter's
/// operands.
fn arg_tuples(params: &[Ty]) -> Vec<Vec<Value>> {
    params.iter().fold(vec![Vec::new()], |acc, &ty| {
        let ops = operands(ty);
        acc.iter()
            .flat_map(|prefix| {
                ops.iter().map(move |&v| {
                    let mut t = prefix.clone();
                    t.push(v);
                    t
                })
            })
            .collect()
    })
}

fn interpret(f: &Function, args: &[Value]) -> Outcome {
    let mut mem = SimMemory::new(4096);
    match run_function(f, args, &mut mem, 1000, &mut NoHooks) {
        Ok((Some(v), _)) => Ok(bits(v)),
        Err(InterpError::UnsupportedOp(m)) => Err(m),
        other => panic!("{}: interpreter gave {other:?}", f.name),
    }
}

fn simulate(f: &Function, args: &[Value], engine: SimEngine) -> Outcome {
    let mut mem = SimMemory::new(4096);
    let mut sys = HwSystem::for_single(f, args, HwConfig { engine, ..HwConfig::default() });
    match sys.run(&mut mem) {
        Ok(_) => Ok(bits(sys.ret_value().expect("the function returns a value"))),
        Err(HwError::Unsupported(m)) => Err(m),
        Err(other) => panic!("{engine:?}: {other}"),
    }
}

#[test]
fn every_engine_agrees_with_exec_on_every_form_and_tag() {
    let forms = forms();
    // Every legal binary, compare and select form is present (the verifier
    // accepts integer ops on i32, i64 and ptr, and logic on i1).
    assert_eq!(forms.iter().filter(|(f, _)| matches!(f, Form::Bin(..))).count(), 44);
    assert_eq!(forms.iter().filter(|(f, _)| matches!(f, Form::ICmp(..))).count(), 32);
    assert_eq!(forms.iter().filter(|(f, _)| matches!(f, Form::FCmp(..))).count(), 12);
    assert_eq!(forms.iter().filter(|(f, _)| matches!(f, Form::Select(_))).count(), 6);
    assert_eq!(forms.iter().filter(|(f, _)| matches!(f, Form::Gep(_))).count(), 3);
    let (mut values, mut errors) = (0, 0);
    for (form, f) in &forms {
        for args in arg_tuples(&form.params()) {
            let want = form.expected(&args);
            let case = format!("{form:?} on {args:?}");
            assert_eq!(interpret(f, &args), want, "interpreter: {case}");
            for engine in [SimEngine::PerCycle, SimEngine::EventDriven] {
                assert_eq!(simulate(f, &args, engine), want, "{engine:?}: {case}");
            }
            if want.is_ok() {
                values += 1;
            } else {
                errors += 1;
            }
        }
    }
    // Both sides of the fallback are exercised in bulk.
    assert!(values > 5000 && errors > 5000, "{values} values, {errors} errors");
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
