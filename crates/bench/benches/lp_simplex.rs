//! Exact-rational simplex cost on the paper's decision LPs (IP-3) — the
//! dominant component of the 2-approximation's runtime (E10/E11).
//!
//! The default sizes keep the CI smoke job (`cargo bench -- --test`)
//! fast; set `HSCHED_BENCH_LARGE=1` to add the scale-axis rows at
//! m ∈ {100, 256, 1024}, where the exact revised solver is benchmarked
//! against the certified float→exact hybrid (E12), plus the n-axis
//! pricing ablation at n = 1024 (E13: Bland's full scan vs the
//! partial candidate list). The `lst_rounding` group times Theorem V.2's
//! rounding LP at `T*` on the offline benchmark's instance shape.

use bench::fixtures;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hsched_core::formulations::build_ip3;
use hsched_core::lst::lst_assign;
use lp::{Pricing, SolveOptions, Solver};

fn bench_ip3_lp(c: &mut Criterion) {
    let large = std::env::var("HSCHED_BENCH_LARGE").is_ok();
    let mut g = c.benchmark_group("ip3_lp_solve");
    g.sample_size(10);
    for (n, m) in [(8usize, 3usize), (16, 4), (24, 6), (50, 20)] {
        let inst = fixtures::e10_instance(n, m, 7);
        // A horizon around the volume bound: the interesting regime.
        let t = inst.volume_lower_bound().max(inst.bottleneck_lower_bound()) + 2;
        let (lp, vm) = build_ip3(&inst, t).expect("has variables");
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}_vars{}", vm.len())),
            &lp,
            |b, lp| b.iter(|| std::hint::black_box(lp.solve())),
        );
    }
    // Scale axis: exact revised vs the certified hybrid at large m.
    if large {
        for (n, m) in [(64usize, 100usize), (100, 256), (128, 1024)] {
            let inst = fixtures::e10_instance(n, m, 7);
            let t = inst.volume_lower_bound().max(inst.bottleneck_lower_bound()) + 2;
            let (lp, vm) = build_ip3(&inst, t).expect("has variables");
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("revised_n{n}_m{m}_vars{}", vm.len())),
                &lp,
                |b, lp| b.iter(|| std::hint::black_box(lp.solve())),
            );
            // Hybrid ablation rows (E12): float proposal + one exact
            // certification instead of exact pivoting throughout.
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("hybrid_n{n}_m{m}_vars{}", vm.len())),
                &lp,
                |b, lp| b.iter(|| std::hint::black_box(lp.solve_with(Solver::Hybrid.into()))),
            );
        }
        // Pricing ablation on the n axis (E13): the same hybrid solve
        // under each entering-column strategy. Bland included here —
        // n = 1024 is the largest point where its full scans still fit
        // a bench budget (see `harness e13` for the 4096 rows).
        {
            let (n, m) = (1024usize, 1024usize);
            let inst = fixtures::e10_instance(n, m, 7);
            let t = inst.volume_lower_bound().max(inst.bottleneck_lower_bound()) + 2;
            let (lp, vm) = build_ip3(&inst, t).expect("has variables");
            for (tag, pricing) in
                [("bland", Pricing::Bland), ("partial", Pricing::PartialCandidate)]
            {
                let opts = SolveOptions { solver: Solver::Hybrid, pricing };
                g.bench_with_input(
                    BenchmarkId::from_parameter(format!("hybrid_{tag}_n{n}_m{m}_vars{}", vm.len())),
                    &lp,
                    |b, lp| b.iter(|| std::hint::black_box(lp.solve_with(opts))),
                );
            }
        }
    }
    g.finish();
}

/// Theorem V.2's rounding LP as `two_approx` solves it: `lst_assign` at
/// `T*` (the LPT-seeded hybrid solve, its certification and the LST
/// matching) on the offline benchmark's instance shape.
fn bench_lst_rounding(c: &mut Criterion) {
    let mut g = c.benchmark_group("lst_rounding");
    for row in fixtures::lst_rounding_rows() {
        g.bench_with_input(BenchmarkId::from_parameter(&row.label), &row, |b, row| {
            b.iter(|| std::hint::black_box(lst_assign(&row.p, row.m, row.t_star)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ip3_lp, bench_lst_rounding);
criterion_main!(benches);
