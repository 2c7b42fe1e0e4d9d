//! E10/E3 runtime: the Theorem V.2 pipeline (`T*`, here McNaughton's
//! bound since the overhead model's singletons are identical machines,
//! then the LST rounding LP and Algorithms 2+3) as instance size grows.
//!
//! Set `HSCHED_BENCH_LARGE=1` for the scale-axis rows (E11) at
//! m ∈ {100, 256, 1024}; the defaults keep the CI smoke job fast.

use bench::fixtures;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hsched_core::approx::two_approx;

fn bench_two_approx(c: &mut Criterion) {
    let mut g = c.benchmark_group("two_approx");
    g.sample_size(10);
    let mut sizes = vec![(8usize, 3usize), (16, 4), (24, 6), (32, 8), (50, 20)];
    if std::env::var("HSCHED_BENCH_LARGE").is_ok() {
        sizes.extend([(64, 100), (64, 256), (64, 1024)]);
    }
    for (n, m) in sizes {
        let inst = fixtures::e10_instance(n, m, 7);
        g.bench_with_input(BenchmarkId::from_parameter(format!("n{n}_m{m}")), &inst, |b, inst| {
            b.iter(|| std::hint::black_box(two_approx(inst)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_two_approx);
criterion_main!(benches);
