//! Fused vector kernels vs the scalar tape, on the fusion showcase
//! kernels: the out-of-place Jacobi 4-point stencil, the weighted
//! 3-point relaxation, and the matmul recurrence. Same tapes, same
//! results, same counters (asserted by `tests/fuse_equivalence.rs`);
//! the only difference is whether the innermost proven-parallel affine
//! loops dispatch one scalar `Op` per element or one `Op::VecLoop`
//! per loop running a contiguous-slice kernel.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hac_bench::harness::{compile_with, inputs, run_compiled};
use hac_core::pipeline::{CompileOptions, Compiled};
use hac_runtime::value::ArrayBuf;
use hac_workloads as wl;

fn compile_fuse(src: &str, params: &[(&str, i64)], fuse: bool) -> Compiled {
    compile_with(
        src,
        params,
        &CompileOptions {
            fuse,
            ..CompileOptions::default()
        },
    )
}

fn bench_fusion(
    c: &mut Criterion,
    group_name: &str,
    src: &str,
    params: &[(&str, i64)],
    ins: &HashMap<String, ArrayBuf>,
    n: i64,
) {
    let fused = compile_fuse(src, params, true);
    let scalar = compile_fuse(src, params, false);
    let mut group = c.benchmark_group(group_name);
    group.bench_with_input(BenchmarkId::new("fused", n), &n, |b, _| {
        b.iter(|| run_compiled(&fused, ins))
    });
    group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
        b.iter(|| run_compiled(&scalar, ins))
    });
    group.finish();
}

fn bench_fuse(c: &mut Criterion) {
    for n in [64i64, 256] {
        let a = wl::random_matrix(n, n, 5);
        bench_fusion(
            c,
            "fuse/jacobi_step",
            wl::jacobi_step_source(),
            &[("n", n)],
            &inputs(&[("a", a)]),
            n,
        );
    }
    for n in [1024i64, 65536] {
        let u = wl::random_vector(n, 7);
        bench_fusion(
            c,
            "fuse/relaxation",
            wl::relaxation_source(),
            &[("n", n)],
            &inputs(&[("u", u)]),
            n,
        );
    }
    for n in [24i64, 48] {
        let x = wl::random_matrix(n, n, 31);
        let y = wl::random_matrix(n, n, 37);
        bench_fusion(
            c,
            "fuse/matmul",
            wl::matmul_source(),
            &[("n", n)],
            &inputs(&[("x", x), ("y", y)]),
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
    targets = bench_fuse
}

criterion_main!(benches);
