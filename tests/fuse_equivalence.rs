//! Differential tests for the fused vector-kernel lowering: the
//! fusion pass must be *unobservable* except in wall-clock time. With
//! and without `Op::VecLoop` superinstructions, every run must produce
//! bit-identical array values, the same error payloads, the same work
//! counters (including `tape_ops`, which fused loops bulk-charge by
//! the closed-form contract in `hac_codegen::tape`), and the same
//! remaining fuel — on ParTape at 1/2/4/8 threads (one thread is the
//! sequential tape), under tight fuel and memory budgets, and with
//! injected worker faults. The scalar tape is the oracle; fusion is
//! pure mechanism.

use std::collections::HashMap;

use hac_codegen::fuse::fuse_tape;
use hac_codegen::limp::{LProgram, LStmt, StoreCheck, Vm, VmCounters};
use hac_codegen::partape::plan_tape;
use hac_codegen::tape::{compile_tape, TapeCtx};
use hac_core::pipeline::{
    compile, run_with_options, CompileOptions, Compiled, ExecOutput, RunOptions,
};
use hac_lang::ast::{BinOp, Expr, UnOp};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::governor::{FaultPlan, Limits, Meter};
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_workloads as wl;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn buf_bits(b: &ArrayBuf) -> (Vec<(i64, i64)>, Vec<u64>) {
    (b.bounds(), b.data().iter().map(|v| v.to_bits()).collect())
}

fn sans_faults(mut c: VmCounters) -> VmCounters {
    c.engine_faults = 0;
    c
}

/// Everything a run can show the outside world, collapsed to an
/// equatable value. On success: sorted array bits, sorted scalar bits,
/// the full VM counter block (engine faults zeroed — recovery count is
/// scheduling-dependent), and fuel left. On failure: the
/// Debug-rendered error, for payload parity.
type Snapshot = Result<
    (
        Vec<(String, (Vec<(i64, i64)>, Vec<u64>))>,
        Vec<(String, u64)>,
        VmCounters,
        Option<u64>,
    ),
    String,
>;

fn snapshot(r: &Result<ExecOutput, hac_runtime::RuntimeError>) -> Snapshot {
    match r {
        Ok(out) => {
            let mut arrays: Vec<_> = out
                .arrays
                .iter()
                .map(|(n, b)| (n.clone(), buf_bits(b)))
                .collect();
            arrays.sort();
            let mut scalars: Vec<_> = out
                .scalars
                .iter()
                .map(|(n, v)| (n.clone(), v.to_bits()))
                .collect();
            scalars.sort();
            Ok((arrays, scalars, sans_faults(out.counters.vm), out.fuel_left))
        }
        Err(e) => Err(format!("{e:?}")),
    }
}

/// Harness hermeticity: every run driver calls this first, so the
/// whole binary ignores an ambient `HAC_FAULT_PLAN` (the CI
/// fault-injection job exports one for CLI smoke runs). A test that
/// wants faults injects them explicitly via `RunOptions::faults` /
/// `Vm::with_faults`, which always override the environment.
fn hermetic() {
    hac_codegen::suppress_env_fault_plan();
}

fn build(program: &hac_lang::ast::Program, env: &ConstEnv, fuse: bool) -> Compiled {
    compile(
        program,
        env,
        &CompileOptions {
            fuse,
            ..CompileOptions::default()
        },
    )
    .unwrap()
}

/// Compile `src` with and without fusion, run both builds under
/// `limits` at every thread count, and demand that every run matches
/// the unfused build at one thread (the scalar sequential-tape oracle)
/// exactly. Returns true when the fused build actually contains a
/// fused loop (so callers can assert the suite is not vacuously
/// passing).
fn diff_fusion(
    label: &str,
    src: &str,
    env: &ConstEnv,
    inputs: &HashMap<String, ArrayBuf>,
    limits: Limits,
) -> bool {
    let program = parse_program(src).unwrap();
    let funcs = FuncTable::new();
    let plain = build(&program, env, false);
    let fused = build(&program, env, true);

    let opts = |threads| RunOptions {
        threads: Some(threads),
        limits,
        faults: None,
        ceiling: None,
    };
    let want = snapshot(&run_with_options(&plain, inputs, &funcs, &opts(1)));
    for threads in THREADS {
        let got_plain = snapshot(&run_with_options(&plain, inputs, &funcs, &opts(threads)));
        let got_fused = snapshot(&run_with_options(&fused, inputs, &funcs, &opts(threads)));
        assert_eq!(
            got_plain, want,
            "{label} {limits:?}: scalar partape @{threads}t vs scalar tape"
        );
        assert_eq!(
            got_fused, want,
            "{label} {limits:?}: fused partape @{threads}t vs scalar tape"
        );
    }

    let fused_somewhere = |c: &Compiled| {
        c.report
            .arrays
            .iter()
            .flat_map(|a| a.fusion.iter())
            .chain(c.report.updates.iter().flat_map(|u| u.fusion.iter()))
            .any(|f| f.contains(": fused ("))
    };
    assert!(
        !fused_somewhere(&plain),
        "{label}: fuse:false must not run the pass"
    );
    fused_somewhere(&fused)
}

fn fuel(n: u64) -> Limits {
    Limits {
        fuel: Some(n),
        mem_bytes: None,
    }
}

fn mem(bytes: u64) -> Limits {
    Limits {
        fuel: None,
        mem_bytes: Some(bytes),
    }
}

/// Every workload kernel under a fuel ladder straddling "trips before
/// the loop", "exhausts mid-kernel", and "completes", plus tight and
/// roomy memory caps. At least half the kernels must genuinely fuse a
/// loop, or the differential property is vacuous.
#[test]
fn kernels_agree_fused_vs_unfused_under_budgets() {
    let kernels: Vec<(&str, &str, ConstEnv, HashMap<String, ArrayBuf>)> = vec![
        (
            "jacobi_step",
            wl::jacobi_step_source(),
            ConstEnv::from_pairs([("n", 10)]),
            HashMap::from([("a".to_string(), wl::random_matrix(10, 10, 13))]),
        ),
        (
            "relaxation",
            wl::relaxation_source(),
            ConstEnv::from_pairs([("n", 32)]),
            HashMap::from([("u".to_string(), wl::random_vector(32, 41))]),
        ),
        (
            "jacobi",
            wl::jacobi_source(),
            ConstEnv::from_pairs([("n", 8)]),
            HashMap::from([("a".to_string(), wl::random_matrix(8, 8, 11))]),
        ),
        (
            "sor",
            wl::sor_source(),
            ConstEnv::from_pairs([("n", 8)]),
            HashMap::from([("a".to_string(), wl::random_matrix(8, 8, 17))]),
        ),
        (
            "matmul",
            wl::matmul_source(),
            ConstEnv::from_pairs([("n", 6)]),
            HashMap::from([
                ("x".to_string(), wl::random_matrix(6, 6, 31)),
                ("y".to_string(), wl::random_matrix(6, 6, 37)),
            ]),
        ),
        (
            "saxpy",
            wl::saxpy_source(),
            ConstEnv::from_pairs([("m", 4), ("n", 40)]),
            HashMap::from([("a".to_string(), wl::random_matrix(4, 40, 3))]),
        ),
        (
            "convolution",
            wl::convolution_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 37))]),
        ),
        (
            "deforest",
            wl::deforest_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 23))]),
        ),
        (
            "prefix_sum",
            wl::prefix_sum_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 31))]),
        ),
        (
            "permutation",
            wl::permutation_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 29))]),
        ),
        (
            "wavefront",
            wl::wavefront_source(),
            ConstEnv::from_pairs([("n", 10)]),
            HashMap::new(),
        ),
        (
            "thomas",
            wl::thomas_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("d".to_string(), wl::random_vector(24, 7))]),
        ),
        (
            "dot",
            wl::dot_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([
                ("a".to_string(), wl::random_vector(24, 43)),
                ("b".to_string(), wl::random_vector(24, 47)),
            ]),
        ),
        (
            "matvec",
            wl::matvec_source(),
            ConstEnv::from_pairs([("n", 12)]),
            HashMap::from([
                ("m".to_string(), wl::random_matrix(12, 12, 53)),
                ("x".to_string(), wl::random_vector(12, 59)),
            ]),
        ),
        (
            "running_max",
            wl::running_max_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 67))]),
        ),
        (
            // Stride-2 reads against a unit-stride destination.
            "downsample",
            DOWNSAMPLE_SOURCE,
            ConstEnv::from_pairs([("n", 16)]),
            HashMap::from([("u".to_string(), wl::random_vector(32, 71))]),
        ),
        (
            // Stride-2 destinations (two interleaved clauses).
            "interleave",
            INTERLEAVE_SOURCE,
            ConstEnv::from_pairs([("n", 16)]),
            HashMap::from([("u".to_string(), wl::random_vector(16, 73))]),
        ),
    ];
    let total = kernels.len();
    let mut fused = 0usize;
    for (label, src, env, inputs) in &kernels {
        let mut any = false;
        for f in [0, 1, 7, 23, 101, 1009, 20011] {
            any |= diff_fusion(label, src, env, inputs, fuel(f));
        }
        any |= diff_fusion(label, src, env, inputs, Limits::unlimited());
        for m in [0, 64, 1 << 30] {
            any |= diff_fusion(label, src, env, inputs, mem(m));
        }
        if any {
            fused += 1;
        }
    }
    assert!(
        fused >= 9,
        "fusion must actually engage on the affine kernels: {fused} of {total} fused"
    );
}

/// `d!i := u!(2i) - u!(2i-1)`: stride-2 source streams feeding a
/// unit-stride destination — the strided `ReadLin` contract.
const DOWNSAMPLE_SOURCE: &str = r#"
param n;
input u (1,2*n);
let d = array (1,n) [ i := u!(2*i) - u!(2*i-1) | i <- [1..n] ];
result d;
"#;

/// Two interleaved clauses with stride-2 destination windows.
const INTERLEAVE_SOURCE: &str = r#"
param n;
input u (1,n);
let d = array (1,2*n)
   ([ 2*i-1 := u!i | i <- [1..n] ] ++
    [ 2*i := u!i + 1.0 | i <- [1..n] ]);
result d;
"#;

/// Injected worker panics and allocation failures with fusion on: the
/// answer, counters, and meter state must match the unfused fault-free
/// run bit-for-bit; only the recovery counter may move.
#[test]
fn fused_runs_absorb_injected_faults_identically() {
    let env = ConstEnv::from_pairs([("n", 16)]);
    let inputs = HashMap::from([("a".to_string(), wl::random_matrix(16, 16, 61))]);
    let program = parse_program(wl::jacobi_step_source()).unwrap();
    let funcs = FuncTable::new();
    let plain = build(&program, &env, false);
    let fused = build(&program, &env, true);

    // The harness is hermetic to an ambient `HAC_FAULT_PLAN`, so the
    // default (no explicit plan) is a genuinely fault-free baseline.
    let baseline = snapshot(&run_with_options(
        &plain,
        &inputs,
        &funcs,
        &RunOptions {
            threads: Some(4),
            limits: Limits::unlimited(),
            faults: None,
            ceiling: None,
        },
    ));
    for spec in ["", "r0c0:panic", "r0c1:allocfail", "seed:1009"] {
        for threads in THREADS {
            let got = snapshot(&run_with_options(
                &fused,
                &inputs,
                &funcs,
                &RunOptions {
                    threads: Some(threads),
                    limits: Limits::unlimited(),
                    faults: Some(FaultPlan::parse(spec).unwrap()),
                    ceiling: None,
                },
            ));
            assert_eq!(
                got, baseline,
                "fused @{threads}t under fault plan `{spec}` vs unfused fault-free run"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Property: on randomly generated parallel affine loops — the shapes
// the fusion pass targets — fusing the compiled tape changes nothing
// observable at any fuel budget or thread count. The generator mixes
// fusable bodies (straight-line arithmetic over stride-1 reads) with
// shapes the pass must decline (conditionals, calls), so both the
// fused path and the decline path are exercised against the oracle.
// ---------------------------------------------------------------------

struct Gen(wl::XorShift);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn expr(&mut self, depth: u32, fusable: bool) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        match self.below(8) {
            0..=1 => self.leaf(),
            2..=4 => {
                let op = [
                    BinOp::Add,
                    BinOp::Mul,
                    BinOp::Sub,
                    BinOp::Div,
                    BinOp::Min,
                    BinOp::Max,
                ][self.below(6) as usize];
                Expr::bin(
                    op,
                    self.expr(depth - 1, fusable),
                    self.expr(depth - 1, fusable),
                )
            }
            5 => Expr::Unary {
                op: [UnOp::Neg, UnOp::Abs, UnOp::Sqrt][self.below(3) as usize],
                expr: Box::new(self.expr(depth - 1, fusable)),
            },
            6 if !fusable => Expr::If {
                cond: Box::new(self.expr(depth - 1, fusable)),
                then: Box::new(self.expr(depth - 1, fusable)),
                els: Box::new(self.expr(depth - 1, fusable)),
            },
            7 if !fusable => Expr::Call {
                func: "sqrt".to_string(),
                args: vec![self.expr(depth - 1, fusable)],
            },
            _ => self.leaf(),
        }
    }

    fn leaf(&mut self) -> Expr {
        match self.below(8) {
            0..=1 => Expr::int(self.below(9) as i64 - 2),
            2..=3 => Expr::var("i"),
            4 => Expr::var("g"),
            _ => Expr::index1(
                "u",
                Expr::add(Expr::var("i"), Expr::int(self.below(3) as i64)),
            ),
        }
    }
}

/// A proven-parallel 1..=8 loop storing the generated value — exactly
/// the shape `fuse_tape` targets when the body is straight-line.
fn harness_program(value: Expr) -> LProgram {
    LProgram {
        stmts: vec![
            LStmt::Alloc {
                array: "out".to_string(),
                bounds: vec![(1, 8)],
                fill: 0.0,
                temp: false,
                checked: false,
            },
            LStmt::For {
                var: "i".to_string(),
                start: 1,
                end: 8,
                step: 1,
                par: true,
                red: false,
                body: vec![LStmt::Store {
                    array: "out".to_string(),
                    subs: vec![Expr::var("i")],
                    value,
                    check: StoreCheck::None,
                }],
            },
        ],
        result: "out".to_string(),
    }
}

fn fresh_vm(fuel: u64) -> Vm {
    hermetic();
    let mut vm = Vm::new();
    let mut u = ArrayBuf::new(&[(1, 12)], 0.0);
    for i in 1..=12 {
        u.set("u", &[i], (i * i) as f64 * 0.25 - 3.0).unwrap();
    }
    vm.bind("u", u);
    vm.set_global("n", 8.0);
    vm.set_global("g", 2.5);
    vm.with_meter(Meter::new(Limits {
        fuel: Some(fuel),
        mem_bytes: None,
    }));
    vm
}

/// One generated loop, one fuel budget: the fused tape must match the
/// scalar tape on outcome, error payload, remaining fuel, output bits,
/// and the *complete* counter block — `tape_ops` included, because the
/// bulk-charge contract says a fused loop reports the same dispatch
/// count the scalar loop would have.
fn diff_random_fusion(prog: &LProgram, fuel: u64) {
    let ctx = TapeCtx {
        shapes: HashMap::from([("u".to_string(), vec![(1i64, 12i64)])]),
        consts: HashMap::from([("n".to_string(), 8i64)]),
        globals: vec!["g".to_string()],
        ..TapeCtx::default()
    };
    let scalar = compile_tape(prog, &ctx);
    let mut fused = scalar.clone();
    let decisions = fuse_tape(&mut fused);
    assert_eq!(decisions.len(), 1, "one loop, one verdict");

    let mut svm = fresh_vm(fuel);
    let sr = svm.run_tape(&scalar).map_err(|e| format!("{e:?}"));
    let sleft = svm.take_meter().fuel_left();

    let label = |eng: &str| format!("fuel={fuel} {eng}\nprog:\n{}", prog.render());

    let mut fvm = fresh_vm(fuel);
    let fr = fvm.run_tape(&fused).map_err(|e| format!("{e:?}"));
    let fleft = fvm.take_meter().fuel_left();
    assert_eq!(fr, sr, "{}", label("fused vs scalar tape: outcome"));
    assert_eq!(fleft, sleft, "{}", label("fused vs scalar tape: fuel left"));
    if fr.is_ok() {
        assert_eq!(
            buf_bits(fvm.array("out").unwrap()),
            buf_bits(svm.array("out").unwrap()),
            "{}",
            label("fused vs scalar tape: bits")
        );
    }
    assert_eq!(
        fvm.counters,
        svm.counters,
        "{}",
        label("fused vs scalar tape: counters (tape_ops included)")
    );

    let plan = plan_tape(&fused);
    for threads in THREADS {
        let mut pvm = fresh_vm(fuel);
        let pr = pvm
            .run_partape(&fused, &plan, threads)
            .map_err(|e| format!("{e:?}"));
        let pleft = pvm.take_meter().fuel_left();
        assert_eq!(
            pr,
            sr,
            "{}",
            label(&format!("fused partape@{threads} outcome"))
        );
        assert_eq!(
            pleft,
            sleft,
            "{}",
            label(&format!("fused partape@{threads} fuel left"))
        );
        if pr.is_ok() {
            assert_eq!(
                buf_bits(pvm.array("out").unwrap()),
                buf_bits(svm.array("out").unwrap()),
                "{}",
                label(&format!("fused partape@{threads} bits"))
            );
        }
        assert_eq!(
            sans_faults(pvm.counters),
            sans_faults(svm.counters),
            "{}",
            label(&format!("fused partape@{threads} counters"))
        );
    }
}

/// A sequential 1..=8 loop carrying `out!(i-1)` — the reduction shape.
/// `acc_left` picks the side of the fold the carried cell sits on:
/// only acc-left folds over `+`/`min`/`max` classify as reduction
/// kernels; everything else (acc-right, `-`, `/`, `*`) must run on the
/// order-faithful generic micro-kernel — bit-identically either way.
/// The `red` mark is an enabling annotation, so setting it on a
/// non-reassociable fold must never change observable behaviour.
fn harness_reduction_program(op: BinOp, acc_left: bool, e: Expr) -> LProgram {
    let acc = Expr::index1("out", Expr::sub(Expr::var("i"), Expr::int(1)));
    let value = if acc_left {
        Expr::bin(op, acc, e)
    } else {
        Expr::bin(op, e, acc)
    };
    LProgram {
        stmts: vec![
            LStmt::Alloc {
                array: "out".to_string(),
                bounds: vec![(0, 8)],
                fill: 1.0,
                temp: false,
                checked: false,
            },
            LStmt::For {
                var: "i".to_string(),
                start: 1,
                end: 8,
                step: 1,
                par: false,
                red: true,
                body: vec![LStmt::Store {
                    array: "out".to_string(),
                    subs: vec![Expr::var("i")],
                    value,
                    check: StoreCheck::None,
                }],
            },
        ],
        result: "out".to_string(),
    }
}

/// The deterministic anchor for the sweep below: the classifying
/// shapes land on their named kernels, and the carried fold keeps its
/// kernel overlay out of ParTape regions (red ⟹ not a region).
#[test]
fn reduction_harness_classifies_as_expected() {
    let u_at = |off: i64| Expr::index1("u", Expr::add(Expr::var("i"), Expr::int(off)));
    let kernel = |op, acc_left, e| {
        let prog = harness_reduction_program(op, acc_left, e);
        let ctx = TapeCtx {
            shapes: HashMap::from([("u".to_string(), vec![(1i64, 12i64)])]),
            ..TapeCtx::default()
        };
        let mut tape = compile_tape(&prog, &ctx);
        let decisions = fuse_tape(&mut tape);
        assert!(
            !plan_tape(&tape).has_regions(),
            "a carried fold must never become a parallel region"
        );
        decisions[0].kernel.clone().unwrap()
    };
    assert_eq!(kernel(BinOp::Add, true, u_at(0)), "running sum");
    assert_eq!(kernel(BinOp::Min, true, u_at(0)), "running min");
    assert_eq!(kernel(BinOp::Add, true, Expr::mul(u_at(0), u_at(1))), "dot");
    // Acc-on-right and non-reassociable ops fall back to the
    // order-faithful generic micro-kernel.
    assert_eq!(kernel(BinOp::Add, false, u_at(0)), "generic micro-kernel");
    assert_eq!(kernel(BinOp::Sub, true, u_at(0)), "generic micro-kernel");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn random_affine_loops_fuse_without_observable_change(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 1));
        let depth = 2 + (seed % 3) as u32;
        // Odd seeds generate strictly fusable bodies; even seeds mix in
        // conditionals and calls so the decline path is covered too.
        let prog = harness_program(g.expr(depth, seed % 2 == 1));
        for fuel in [0, 1, 2, 3, 5, 9, (seed % 40), 10_000] {
            diff_random_fusion(&prog, fuel);
        }
    }

    /// Random carried folds: every generated reduction loop — whether
    /// it lands on a named reduction kernel, the generic micro-kernel,
    /// or a decline — must pin exact `tape_ops` and fuel parity with
    /// the scalar tape at every budget, including ones that exhaust
    /// mid-kernel (fuel 2..9 lands inside the 8-trip loop).
    #[test]
    fn random_reduction_loops_fuse_without_observable_change(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 3));
        let op = [
            BinOp::Add,
            BinOp::Min,
            BinOp::Max,
            BinOp::Sub,
            BinOp::Div,
            BinOp::Mul,
        ][g.below(6) as usize];
        // Mostly acc-left (the classifying shape); sometimes acc-right.
        let acc_left = g.below(4) > 0;
        let depth = 1 + (seed % 2) as u32;
        let e = g.expr(depth, seed % 2 == 1);
        let prog = harness_reduction_program(op, acc_left, e);
        for fuel in [0, 1, 2, 3, 5, 9, (seed % 40), 10_000] {
            diff_random_fusion(&prog, fuel);
        }
    }
}
