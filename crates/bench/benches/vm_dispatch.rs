//! VM dispatch: the register-slot bytecode tape vs the tree-walking
//! evaluator, on the three loop-dominated kernels (jacobi, sor,
//! wavefront). Same Limp programs, same results (asserted by
//! `tests/tape_equivalence.rs`); only the execution engine differs.
//! The tape pays name resolution, subscript strength reduction, and
//! constant folding once at compile time, so its inner loop is a flat
//! `Op` dispatch with no allocation — the headline of this benchmark.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hac_bench::harness::{compile_with, inputs, run_compiled};
use hac_core::pipeline::{CompileOptions, Compiled, Engine};
use hac_runtime::value::ArrayBuf;
use hac_workloads as wl;

fn compile_engine(src: &str, params: &[(&str, i64)], engine: Engine) -> Compiled {
    compile_with(
        src,
        params,
        &CompileOptions {
            engine,
            ..CompileOptions::default()
        },
    )
}

fn bench_engines(
    c: &mut Criterion,
    group_name: &str,
    src: &str,
    params: &[(&str, i64)],
    ins: &HashMap<String, ArrayBuf>,
    n: i64,
) {
    // `run_compiled` runs at one thread: the sequential tape path.
    let tape = compile_engine(src, params, Engine::ParTape);
    let tree = compile_engine(src, params, Engine::TreeWalk);
    let mut group = c.benchmark_group(group_name);
    group.bench_with_input(BenchmarkId::new("tape", n), &n, |b, _| {
        b.iter(|| run_compiled(&tape, ins))
    });
    group.bench_with_input(BenchmarkId::new("tree_walk", n), &n, |b, _| {
        b.iter(|| run_compiled(&tree, ins))
    });
    group.finish();
}

fn bench_vm_dispatch(c: &mut Criterion) {
    for n in [32i64, 64] {
        let a = wl::random_matrix(n, n, 5);
        let ins = inputs(&[("a", a)]);
        bench_engines(
            c,
            "vm_dispatch/jacobi",
            wl::jacobi_source(),
            &[("n", n)],
            &ins,
            n,
        );
        bench_engines(c, "vm_dispatch/sor", wl::sor_source(), &[("n", n)], &ins, n);
        bench_engines(
            c,
            "vm_dispatch/wavefront",
            wl::wavefront_source(),
            &[("n", n)],
            &HashMap::new(),
            n,
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(12)
        .without_plots();
    targets = bench_vm_dispatch
}

criterion_main!(benches);
