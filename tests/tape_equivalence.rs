//! Differential tests for the bytecode tape engine: on every workload
//! kernel, and on randomly generated well-formed expression trees, the
//! tape must be *bit-identical* to the tree-walking evaluator — same
//! arrays (to the last mantissa bit), same scalars, same instrumentation
//! counters (minus `tape_ops`, which only the tape engine counts), and
//! the same lazily raised runtime errors.

use std::collections::HashMap;

use hac_codegen::limp::{LProgram, LStmt, StoreCheck, Vm, VmCounters};
use hac_codegen::tape::{compile_tape, TapeCtx};
use hac_core::pipeline::{compile, run, run_with_threads, CompileOptions, Engine, ExecOutput};
use hac_lang::ast::{BinOp, Expr, UnOp};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::error::RuntimeError;
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_workloads as wl;
use proptest::prelude::*;

fn buf_bits(b: &ArrayBuf) -> (Vec<(i64, i64)>, Vec<u64>) {
    (b.bounds(), b.data().iter().map(|v| v.to_bits()).collect())
}

/// Zero the tape-only counter so the rest can be compared exactly.
fn sans_tape_ops(mut c: VmCounters) -> VmCounters {
    c.tape_ops = 0;
    c
}

fn assert_outputs_identical(tape: &ExecOutput, tree: &ExecOutput, label: &str) {
    let mut tn: Vec<&String> = tape.arrays.keys().collect();
    let mut wn: Vec<&String> = tree.arrays.keys().collect();
    tn.sort();
    wn.sort();
    assert_eq!(tn, wn, "{label}: same arrays bound");
    for name in tn {
        assert_eq!(
            buf_bits(&tape.arrays[name]),
            buf_bits(&tree.arrays[name]),
            "{label}: array `{name}` bit-identical"
        );
    }
    let mut ts: Vec<(&String, u64)> = tape.scalars.iter().map(|(n, v)| (n, v.to_bits())).collect();
    let mut ws: Vec<(&String, u64)> = tree.scalars.iter().map(|(n, v)| (n, v.to_bits())).collect();
    ts.sort();
    ws.sort();
    assert_eq!(ts, ws, "{label}: scalars bit-identical");
    assert_eq!(
        sans_tape_ops(tape.counters.vm),
        sans_tape_ops(tree.counters.vm),
        "{label}: VM counters agree"
    );
    assert_eq!(
        tree.counters.vm.tape_ops, 0,
        "{label}: tree-walk ran no tape"
    );
    assert_eq!(
        tape.counters.thunked, tree.counters.thunked,
        "{label}: thunk counters agree"
    );
}

/// Compile for the tape (the default engine) and the tree walker, run
/// both, demand identical output.
/// Returns the tape run for extra assertions.
fn diff_kernel(
    label: &str,
    src: &str,
    env: &ConstEnv,
    inputs: &HashMap<String, ArrayBuf>,
) -> ExecOutput {
    let program = parse_program(src).unwrap();
    let funcs = FuncTable::new();
    let tape = compile(&program, env, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{label}: compile(tape): {e}"));
    let tree = compile(
        &program,
        env,
        &CompileOptions {
            engine: Engine::TreeWalk,
            ..CompileOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("{label}: compile(tree): {e}"));
    // ParTape at one thread is the sequential tape path.
    let t = run_with_threads(&tape, inputs, &funcs, 1)
        .unwrap_or_else(|e| panic!("{label}: run(tape): {e}"));
    let w = run(&tree, inputs, &funcs).unwrap_or_else(|e| panic!("{label}: run(tree): {e}"));
    assert_outputs_identical(&t, &w, label);
    t
}

#[test]
fn all_closed_form_kernels_agree() {
    for (label, src, n) in [
        ("wavefront", wl::wavefront_source(), 12),
        ("section5_example1", wl::section5_example1_source(), 50),
        ("recurrence", wl::recurrence_source(), 200),
        ("pascal", wl::pascal_source(), 16),
    ] {
        let env = ConstEnv::from_pairs([("n", n)]);
        diff_kernel(label, src, &env, &HashMap::new());
    }
}

#[test]
fn section5_example2_agrees() {
    let env = ConstEnv::from_pairs([("m", 7), ("n", 9)]);
    diff_kernel(
        "section5_example2",
        wl::section5_example2_source(),
        &env,
        &HashMap::new(),
    );
}

#[test]
fn vector_input_kernels_agree() {
    let n = 32;
    let env = ConstEnv::from_pairs([("n", n)]);
    let u = wl::random_vector(n, 23);
    let mut inputs = HashMap::new();
    inputs.insert("u".to_string(), u);
    for (label, src) in [
        ("deforest", wl::deforest_source()),
        ("permutation", wl::permutation_source()),
        ("histogram", wl::histogram_source()),
        ("prefix_sum", wl::prefix_sum_source()),
        ("running_max", wl::running_max_source()),
        ("convolution", wl::convolution_source()),
    ] {
        diff_kernel(label, src, &env, &inputs);
    }
}

#[test]
fn thomas_agrees() {
    let n = 40;
    let env = ConstEnv::from_pairs([("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("d".to_string(), wl::random_vector(n, 7));
    diff_kernel("thomas", wl::thomas_source(), &env, &inputs);
}

#[test]
fn update_kernels_agree() {
    // jacobi and sor exercise the in-place `bigupd` path, where the
    // tape canonicalizes the result/base alias at compile time.
    let n = 10;
    let env = ConstEnv::from_pairs([("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), wl::random_matrix(n, n, 11));
    let jac = diff_kernel("jacobi", wl::jacobi_source(), &env, &inputs);
    assert!(jac.counters.vm.tape_ops > 0, "tape engine actually ran");
    diff_kernel("sor", wl::sor_source(), &env, &inputs);

    let (m, n) = (6, 9);
    let env = ConstEnv::from_pairs([("m", m), ("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), wl::random_matrix(m, n, 17));
    diff_kernel("row_swap", wl::row_swap_source(), &env, &inputs);
    diff_kernel("row_scale", wl::row_scale_source(), &env, &inputs);
    diff_kernel("saxpy", wl::saxpy_source(), &env, &inputs);
}

#[test]
fn matrix_input_kernels_agree() {
    let n = 8;
    let env = ConstEnv::from_pairs([("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("x".to_string(), wl::random_matrix(n, n, 31));
    inputs.insert("y".to_string(), wl::random_matrix(n, n, 37));
    diff_kernel("matmul", wl::matmul_source(), &env, &inputs);

    let mut inputs = HashMap::new();
    inputs.insert("za".to_string(), wl::random_matrix(n, n, 41));
    inputs.insert("zr".to_string(), wl::random_matrix(n, n, 43));
    inputs.insert("zb".to_string(), wl::random_matrix(n, n, 47));
    diff_kernel("lk23", wl::lk23_source(), &env, &inputs);

    let env = ConstEnv::from_pairs([("n", 24), ("m", 10)]);
    let mut inputs = HashMap::new();
    inputs.insert("u0".to_string(), wl::random_vector(24, 53));
    diff_kernel("heat1d", wl::heat1d_source(), &env, &inputs);
}

// ---------------------------------------------------------------------
// Property: random well-formed expression trees evaluate identically —
// including NaN propagation, division by zero, short-circuit `&&`/`||`,
// and out-of-bounds / unbound-name / collision error parity.
// ---------------------------------------------------------------------

/// Deterministic expression generator driven by a proptest-supplied
/// seed. Depth-bounded; every generated tree is well-formed (Mod
/// divisors are nonzero integer constants, since `mod 0` panics the
/// shared `apply_bin` under either engine).
struct Gen(wl::XorShift);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        match self.below(10) {
            0..=2 => self.leaf(),
            3..=5 => {
                let op = self.binop();
                let lhs = self.expr(depth - 1);
                let rhs = if op == BinOp::Mod {
                    // Nonzero integer divisor: `rem_euclid(0)` panics
                    // identically under both engines, killing the test.
                    Expr::int([1, 2, 3, 5, -3][self.below(5) as usize])
                } else {
                    self.expr(depth - 1)
                };
                Expr::bin(op, lhs, rhs)
            }
            6 => Expr::Unary {
                op: [
                    UnOp::Neg,
                    UnOp::Not,
                    UnOp::Abs,
                    UnOp::Sqrt,
                    UnOp::Exp,
                    UnOp::Log,
                    UnOp::Sin,
                    UnOp::Cos,
                ][self.below(8) as usize],
                expr: Box::new(self.expr(depth - 1)),
            },
            7 => Expr::If {
                cond: Box::new(self.expr(depth - 1)),
                then: Box::new(self.expr(depth - 1)),
                els: Box::new(self.expr(depth - 1)),
            },
            8 => Expr::Let {
                binds: vec![("t".to_string(), self.expr(depth - 1))],
                body: Box::new(self.expr(depth - 1)),
            },
            _ => match self.below(4) {
                // sqrt: a builtin; hypot: a 2-arg builtin; mystery: an
                // unknown function, testing lazy UnknownFunction parity.
                0 => Expr::Call {
                    func: "sqrt".to_string(),
                    args: vec![self.expr(depth - 1)],
                },
                1 => Expr::Call {
                    func: "hypot".to_string(),
                    args: vec![self.expr(depth - 1), self.expr(depth - 1)],
                },
                2 => Expr::Call {
                    func: "mystery".to_string(),
                    args: vec![self.expr(depth - 1)],
                },
                _ => Expr::index1("u", self.expr(depth - 1)),
            },
        }
    }

    fn leaf(&mut self) -> Expr {
        match self.below(12) {
            0..=2 => Expr::int(self.below(12) as i64 - 3),
            3 => Expr::num([0.0, 1.5, -2.5, 0.5, f64::NAN, f64::INFINITY][self.below(6) as usize]),
            4..=6 => Expr::var("i"),
            7 => Expr::var("g"),
            8 => Expr::var("n"),
            // Unbound name: must fail lazily and identically.
            9 => Expr::var("nope"),
            // In-bounds affine read (u has bounds (1,8), i runs 1..=4).
            10 => Expr::index1(
                "u",
                Expr::add(Expr::var("i"), Expr::int(self.below(4) as i64)),
            ),
            // Unbound array: lazy UnboundArray parity.
            _ => Expr::index1("w", Expr::var("i")),
        }
    }

    fn binop(&mut self) -> BinOp {
        [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::And,
            BinOp::Or,
            BinOp::Min,
            BinOp::Max,
        ][self.below(15) as usize]
    }
}

/// Wrap a generated value expression in a 1..=4 loop storing into
/// `out`, with a store subscript chosen to also exercise in-bounds,
/// out-of-bounds, and collision behaviour.
fn harness_program(value: Expr, variant: u64) -> (LProgram, bool) {
    let sub = match variant % 5 {
        0 | 1 => Expr::var("i"),
        // OOB at i = 4 (out has bounds (1,4)).
        2 => Expr::add(Expr::var("i"), Expr::int(1)),
        // OOB immediately at i = 1.
        3 => Expr::sub(Expr::var("i"), Expr::int(1)),
        // Collides at i = 3 under Monolithic checking.
        _ => Expr::add(
            Expr::bin(BinOp::Mod, Expr::var("i"), Expr::int(2)),
            Expr::int(1),
        ),
    };
    let checked = variant.is_multiple_of(2);
    let prog = LProgram {
        stmts: vec![
            LStmt::Alloc {
                array: "out".to_string(),
                bounds: vec![(1, 4)],
                fill: 0.0,
                temp: false,
                checked,
            },
            LStmt::For {
                var: "i".to_string(),
                start: 1,
                end: 4,
                step: 1,
                par: false,
                red: false,
                body: vec![LStmt::Store {
                    array: "out".to_string(),
                    subs: vec![sub],
                    value,
                    check: if checked {
                        StoreCheck::Monolithic
                    } else {
                        StoreCheck::None
                    },
                }],
            },
        ],
        result: "out".to_string(),
    };
    (prog, checked)
}

fn fresh_vm() -> Vm {
    let mut vm = Vm::new();
    let mut u = ArrayBuf::new(&[(1, 8)], 0.0);
    for i in 1..=8 {
        u.set("u", &[i], (i * i) as f64 * 0.25 - 3.0).unwrap();
    }
    vm.bind("u", u);
    vm.set_global("n", 8.0);
    vm.set_global("g", 2.5);
    vm
}

fn run_both(prog: &LProgram) -> (Result<(), RuntimeError>, Result<(), RuntimeError>) {
    let ctx = TapeCtx {
        shapes: HashMap::from([("u".to_string(), vec![(1i64, 8i64)])]),
        consts: HashMap::from([("n".to_string(), 8i64)]),
        globals: vec!["g".to_string()],
        ..TapeCtx::default()
    };
    let tape = compile_tape(prog, &ctx);

    let mut tvm = fresh_vm();
    let tr = tvm.run_tape(&tape);
    let mut wvm = fresh_vm();
    let wr = wvm.run(prog);

    match (&tr, &wr) {
        (Ok(()), Ok(())) => {
            assert_eq!(
                buf_bits(tvm.array("out").unwrap()),
                buf_bits(wvm.array("out").unwrap()),
                "result arrays bit-identical\nprog:\n{}",
                prog.render()
            );
        }
        (Err(a), Err(b)) => {
            // Debug-render comparison: NaN payloads (e.g. a NaN
            // subscript) are unequal under `PartialEq` but must still
            // count as the same error.
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "identical errors\nprog:\n{}",
                prog.render()
            );
        }
        _ => panic!(
            "engines disagree: tape={tr:?} tree={wr:?}\nprog:\n{}",
            prog.render()
        ),
    }
    assert_eq!(
        sans_tape_ops(tvm.counters),
        sans_tape_ops(wvm.counters),
        "counters agree\nprog:\n{}",
        prog.render()
    );
    (tr, wr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_exprs_agree(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 1));
        let depth = 2 + (seed % 3) as u32;
        let value = g.expr(depth);
        let (prog, _) = harness_program(value, seed / 7);
        // run_both asserts parity internally; Ok/Err outcomes are both
        // legitimate for random expressions.
        let _ = run_both(&prog);
    }
}

#[test]
fn nan_propagates_identically() {
    // NaN condition is falsy through If, truthy through `||` — parity
    // for both, plus NaN arithmetic bit patterns.
    for src in [
        "if (0.0 / 0.0) then 1 else 2",
        "(0.0 / 0.0) || 0",
        "(0.0 / 0.0) && 5",
        "(0.0 / 0.0) + u!(i)",
        "1 / 0",
        "-1 / 0",
    ] {
        let value = hac_lang::parser::parse_expr(src).unwrap();
        let (prog, _) = harness_program(value, 0);
        let (t, w) = run_both(&prog);
        assert!(t.is_ok() && w.is_ok(), "{src}");
    }
    let nan = Expr::bin(BinOp::Div, Expr::num(0.0), Expr::num(0.0));
    for op in [BinOp::Min, BinOp::Max] {
        let value = Expr::bin(op, Expr::int(0), nan.clone());
        let (prog, _) = harness_program(value, 0);
        let (t, w) = run_both(&prog);
        assert!(t.is_ok() && w.is_ok(), "{op:?} with NaN");
    }
}

#[test]
fn short_circuit_skips_errors_identically() {
    // The unbound rhs must never be touched when the lhs decides.
    for (src, ok) in [
        ("0 && nope", true),
        ("1 || nope", true),
        ("1 && nope", false),
        ("0 || nope", false),
        ("(i > 9) && w!(i)", true),
        ("(i < 9) || w!(i)", true),
    ] {
        let value = hac_lang::parser::parse_expr(src).unwrap();
        let (prog, _) = harness_program(value, 1);
        let (t, w) = run_both(&prog);
        assert_eq!(t.is_ok(), ok, "{src}: tape");
        assert_eq!(w.is_ok(), ok, "{src}: tree");
    }
}

#[test]
fn store_error_paths_agree() {
    // Variants 2/3 go out of bounds, 4 collides under Monolithic; all
    // must fail identically (error value and counters) on both engines.
    for variant in [2u64, 3, 4] {
        let value = Expr::var("i");
        let (prog, checked) = harness_program(value, variant);
        let (t, _) = run_both(&prog);
        match variant {
            2 | 3 => assert!(
                matches!(t, Err(RuntimeError::OutOfBounds { .. })),
                "variant {variant}: {t:?}"
            ),
            _ => {
                assert!(checked);
                assert!(
                    matches!(t, Err(RuntimeError::WriteCollision { .. })),
                    "variant {variant}: {t:?}"
                );
            }
        }
    }
}

#[test]
fn division_by_zero_in_subscript_agrees() {
    // `u!(1/0)` → infinite subscript → NonIntegerSubscript on both
    // engines (the dynamic path's `as_int` parity).
    let value = Expr::index1("u", Expr::bin(BinOp::Div, Expr::int(1), Expr::int(0)));
    let (t, _) = run_both_value(value);
    assert!(matches!(t, Err(RuntimeError::NonIntegerSubscript { .. })));
}

fn run_both_value(value: Expr) -> (Result<(), RuntimeError>, Result<(), RuntimeError>) {
    let (prog, _) = harness_program(value, 0);
    run_both(&prog)
}
