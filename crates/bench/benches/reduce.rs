//! Reduction kernels (E24): the fused strict-fold kernels vs the
//! scalar tape vs hand-written Rust slice loops, on dot, matvec, and
//! matmul. The fused runs are bit-identical to the scalar tape
//! (asserted by `tests/fuse_equivalence.rs`); the hand-written loops
//! are the "what you would write in Rust" baselines the interpreter
//! chases — idiomatic accumulator loops that do not store the partial
//! sums the source programs materialize.
//!
//! `CRITERION_JSON=BENCH_reduce.json cargo bench -p hac-bench --bench
//! reduce` records the medians the experiment log quotes.

use std::collections::HashMap;
use std::hint::black_box;

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

/// Fused and scalar interpreter runs plus a hand-written closure,
/// under one group so the JSON ids line up as
/// `reduce/<kernel>/{fused,scalar,hand}/<n>`.
fn bench_reduction(
    c: &mut Criterion,
    group_name: &str,
    src: &str,
    n: i64,
    ins: &HashMap<String, ArrayBuf>,
    hand: &mut dyn FnMut() -> f64,
) {
    let fused = compile_fuse(src, &[("n", n)], true);
    let scalar = compile_fuse(src, &[("n", n)], false);
    let mut group = c.benchmark_group(group_name);
    group.bench_with_input(BenchmarkId::new("fused", n), &n, |b, _| {
        b.iter(|| run_compiled(&fused, ins))
    });
    group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
        b.iter(|| run_compiled(&scalar, ins))
    });
    group.bench_with_input(BenchmarkId::new("hand", n), &n, |b, _| {
        b.iter(|| black_box(hand()))
    });
    group.finish();
}

fn dot_hand(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = a[0] * b[0];
    for k in 1..a.len() {
        acc += a[k] * b[k];
    }
    acc
}

fn bench_reduce(c: &mut Criterion) {
    for n in [4096i64, 65536] {
        let a = wl::random_vector(n, 43);
        let b = wl::random_vector(n, 47);
        let (av, bv) = (a.data().to_vec(), b.data().to_vec());
        bench_reduction(
            c,
            "reduce/dot",
            wl::dot_source(),
            n,
            &inputs(&[("a", a), ("b", b)]),
            &mut || dot_hand(black_box(&av), black_box(&bv)),
        );
    }
    for n in [64i64, 256] {
        let m = wl::random_matrix(n, n, 53);
        let x = wl::random_vector(n, 59);
        let (mv, xv) = (m.data().to_vec(), x.data().to_vec());
        let un = n as usize;
        bench_reduction(
            c,
            "reduce/matvec",
            wl::matvec_source(),
            n,
            &inputs(&[("m", m), ("x", x)]),
            &mut || {
                let (m, x) = (black_box(&mv), black_box(&xv));
                let mut y = vec![0.0f64; un];
                for (i, out) in y.iter_mut().enumerate() {
                    *out = dot_hand(&m[i * un..(i + 1) * un], x);
                }
                y[un - 1]
            },
        );
    }
    for n in [24i64, 48] {
        let x = wl::random_matrix(n, n, 31);
        let y = wl::random_matrix(n, n, 37);
        let (xv, yv) = (x.data().to_vec(), y.data().to_vec());
        let un = n as usize;
        bench_reduction(
            c,
            "reduce/matmul",
            wl::matmul_source(),
            n,
            &inputs(&[("x", x), ("y", y)]),
            &mut || {
                let (x, y) = (black_box(&xv), black_box(&yv));
                let mut out = vec![0.0f64; un * un];
                for i in 0..un {
                    let row = &x[i * un..(i + 1) * un];
                    for j in 0..un {
                        let mut acc = row[0] * y[j];
                        for (k, &xv) in row.iter().enumerate().skip(1) {
                            acc += xv * y[k * un + j];
                        }
                        out[i * un + j] = acc;
                    }
                }
                out[un * un - 1]
            },
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
    targets = bench_reduce
}

criterion_main!(benches);
