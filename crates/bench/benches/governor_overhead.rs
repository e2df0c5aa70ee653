//! Metering overhead: the fuel/memory governor's charge sites sit on
//! the tape engine's hottest paths (loop heads, call sites, allocs).
//! This bench runs the same loop-dominated kernels with no limits,
//! with a generous fuel cap, and with fuel + memory caps together, to
//! measure what resource governance costs when it never trips. The
//! budget-exceeded paths are correctness-tested elsewhere
//! (`tests/governor_equivalence.rs`); here only the always-taken
//! charge instructions matter.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hac_bench::harness::{compile_src, inputs};
use hac_core::pipeline::{run_with_options, ExecMode, RunOptions};
use hac_runtime::governor::Limits;
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_workloads as wl;

fn bench_limits(
    c: &mut Criterion,
    group_name: &str,
    src: &str,
    params: &[(&str, i64)],
    ins: &HashMap<String, ArrayBuf>,
    n: i64,
) {
    let compiled = compile_src(src, params, ExecMode::Auto);
    let funcs = FuncTable::new();
    let variants: [(&str, Limits); 3] = [
        ("unmetered", Limits::unlimited()),
        (
            "fuel",
            Limits {
                fuel: Some(u64::MAX / 2),
                mem_bytes: None,
            },
        ),
        (
            "fuel+mem",
            Limits {
                fuel: Some(u64::MAX / 2),
                mem_bytes: Some(u64::MAX / 2),
            },
        ),
    ];
    let mut group = c.benchmark_group(group_name);
    for (label, limits) in variants {
        let opts = RunOptions {
            threads: Some(1),
            limits,
            faults: None,
            ceiling: None,
        };
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
            b.iter(|| run_with_options(&compiled, ins, &funcs, &opts).expect("bench run"))
        });
    }
    group.finish();
}

fn bench_governor_overhead(c: &mut Criterion) {
    for n in [32i64, 64] {
        let a = wl::random_matrix(n, n, 5);
        let ins = inputs(&[("a", a)]);
        bench_limits(
            c,
            "governor/jacobi",
            wl::jacobi_source(),
            &[("n", n)],
            &ins,
            n,
        );
        bench_limits(c, "governor/sor", wl::sor_source(), &[("n", n)], &ins, n);
        bench_limits(
            c,
            "governor/wavefront",
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
    targets = bench_governor_overhead
}

criterion_main!(benches);
