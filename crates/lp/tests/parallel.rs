//! Thread-count invariance: the parallel pricing scans and the parallel
//! branch-and-bound must be *bit-identical* to the serial paths — same
//! status, objective, vertex, basis, and (for pricing, whose chunk
//! results are reduced in column order) the same pivot count — at 1, 2,
//! 4, and 8 workers. Parallelism may only change wall-clock time,
//! `columns_priced` (chunks past the winning column scan
//! speculatively), and the per-worker node split.
//!
//! Families: random mixed-relation LPs, a wide LP that actually crosses
//! the `PAR_MIN_COLS` chunking threshold, Beale-style near-degenerate
//! perturbations (cycling-prone ties are where a nondeterministic
//! reduction would surface), and random binary MILPs for the B&B layer.

use lp::{
    solve_binary, BnbOptions, LinearProgram, LpStatus, Pricing, Relation, SolveOptions, Solver,
    WarmCache,
};
use numeric::Q;
use proptest::prelude::*;

/// The worker counts every invariance assertion sweeps.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn q(v: i64) -> Q {
    Q::from_int(v)
}

/// Same flat-integer-stream LP builder as `tests/differential.rs`.
fn random_lp(
    nv: usize,
    objs: &[i64],
    coefs: &[i64],
    rels: &[u8],
    rhss: &[i64],
    n_cons: usize,
) -> LinearProgram {
    let mut lp = LinearProgram::new(nv);
    for v in 0..nv {
        lp.set_objective(v, q(objs[v % objs.len()]));
    }
    for c in 0..n_cons {
        let coeffs: Vec<(usize, Q)> = (0..nv)
            .map(|v| (v, q(coefs[(c * nv + v) % coefs.len()])))
            .filter(|(_, w)| !w.is_zero())
            .collect();
        if coeffs.is_empty() {
            continue;
        }
        let rel = match rels[c % rels.len()] % 3 {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        lp.add_constraint(coeffs, rel, q(rhss[c % rhss.len()]));
    }
    lp
}

/// A wide bounded-allocation LP: `nv` variables with individual caps, a
/// coupling equality, and a mixed-sign objective. With `nv` ≥ 256 its
/// standard form crosses `PAR_MIN_COLS`, so the chunked scans really
/// run (the small proptest programs exercise only the serial fallback
/// of the dispatch).
fn wide_lp(nv: usize, seed: i64) -> LinearProgram {
    let mut lp = LinearProgram::new(nv);
    for v in 0..nv {
        let c = (seed + v as i64 * 7) % 11 - 5;
        lp.set_objective(v, q(c));
        lp.add_constraint(vec![(v, q(1))], Relation::Le, q((seed + v as i64) % 9 + 1));
    }
    lp.add_constraint((0..nv).map(|v| (v, Q::one())).collect(), Relation::Eq, q(nv as i64 / 3));
    lp
}

/// Beale's cycling example with dyadic `±2^-k` perturbations — the
/// near-degenerate family from `tests/differential.rs`.
fn beale_lp(k: u32, signs: &[bool], perturb_rhs: bool) -> LinearProgram {
    let eps = Q::ratio(1, 1i64 << k.min(62));
    let tweak = |idx: usize, base: Q| -> Q {
        if signs[idx % signs.len()] {
            base + eps.clone()
        } else {
            base - eps.clone()
        }
    };
    let mut lp = LinearProgram::new(4);
    lp.set_objective(0, tweak(0, Q::ratio(-3, 4)));
    lp.set_objective(1, q(150));
    lp.set_objective(2, tweak(1, Q::ratio(-1, 50)));
    lp.set_objective(3, q(6));
    let rhs0 = if perturb_rhs { tweak(2, Q::zero()) } else { Q::zero() };
    let rhs1 = if perturb_rhs { tweak(3, Q::zero()) } else { Q::zero() };
    lp.add_constraint(
        vec![(0, tweak(4, Q::ratio(1, 4))), (1, q(-60)), (2, Q::ratio(-1, 25)), (3, q(9))],
        Relation::Le,
        rhs0,
    );
    lp.add_constraint(
        vec![(0, Q::ratio(1, 2)), (1, q(-90)), (2, tweak(5, Q::ratio(-1, 50))), (3, q(3))],
        Relation::Le,
        rhs1,
    );
    lp.add_constraint(vec![(2, q(1))], Relation::Le, tweak(6, q(1)));
    lp
}

/// Assert the full bit-identity contract between a serial and a
/// threaded revised solve of `lp` under `pricing`.
fn assert_threads_invariant(lp: &LinearProgram, pricing: Pricing) {
    let serial = SolveOptions { pricing, threads: 1, ..SolveOptions::default() };
    let (reference, ref_stats) = lp.solve_with(serial);
    for threads in THREADS {
        let (sol, stats) = lp.solve_with(SolveOptions { threads, ..serial });
        assert_eq!(reference.status, sol.status, "{pricing:?} threads={threads}");
        assert_eq!(reference.objective_value, sol.objective_value, "{pricing:?} threads={threads}");
        assert_eq!(reference.values, sol.values, "vertex {pricing:?} threads={threads}");
        assert_eq!(reference.basis, sol.basis, "basis {pricing:?} threads={threads}");
        // The pivot *path* is deterministic for every strategy: chunked
        // scans are reduced in column order, candidate refills merge in
        // ring order — so pivot counts match the serial run exactly.
        assert_eq!(ref_stats.pivots, stats.pivots, "pivots {pricing:?} threads={threads}");
        assert_eq!(stats.threads, threads.max(1), "resolved count must be surfaced");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random mixed-relation LPs: every pricing strategy returns the
    /// identical solution and pivot count at 1, 2, 4, and 8 threads.
    #[test]
    fn pricing_is_thread_count_invariant(
        nv in 1usize..5,
        n_cons in 0usize..6,
        objs in proptest::collection::vec(-4i64..5, 5),
        coefs in proptest::collection::vec(-3i64..4, 30),
        rels in proptest::collection::vec(0u8..3, 6),
        rhss in proptest::collection::vec(-6i64..12, 6),
    ) {
        let lp = random_lp(nv, &objs, &coefs, &rels, &rhss, n_cons);
        for pricing in [Pricing::Bland, Pricing::PartialCandidate, Pricing::Devex] {
            assert_threads_invariant(&lp, pricing);
        }
    }

    /// The Beale-style near-degenerate family: cycling-prone ties are
    /// exactly where a racy first-negative-wins reduction would pick a
    /// different entering column than the serial scan.
    #[test]
    fn near_degenerate_pricing_is_thread_count_invariant(
        k in 5u32..50,
        signs in proptest::collection::vec(proptest::bool::ANY, 8),
        perturb_rhs in proptest::bool::ANY,
    ) {
        let lp = beale_lp(k, &signs, perturb_rhs);
        for pricing in [Pricing::Bland, Pricing::PartialCandidate, Pricing::Devex] {
            assert_threads_invariant(&lp, pricing);
        }
    }

    /// Random binary MILPs: branch-and-bound status, objective, and
    /// incumbent point are identical at 1, 2, 4, and 8 workers, in both
    /// optimizing and first-feasible mode. Only the node counts (and
    /// their per-worker split) may differ.
    #[test]
    fn bnb_is_thread_count_invariant(
        nv in 1usize..5,
        n_cons in 1usize..5,
        objs in proptest::collection::vec(-4i64..5, 5),
        coefs in proptest::collection::vec(-2i64..4, 25),
        rhss in proptest::collection::vec(0i64..8, 5),
        first_feasible in proptest::bool::ANY,
    ) {
        let rels = vec![0u8];
        let lp = random_lp(nv, &objs, &coefs, &rels, &rhss, n_cons);
        let binary: Vec<usize> = (0..nv).collect();
        let serial = BnbOptions { threads: 1, first_feasible, ..BnbOptions::default() };
        let reference = solve_binary(&lp, &binary, &serial);
        for threads in THREADS {
            let opts = BnbOptions { threads, first_feasible, ..BnbOptions::default() };
            let sol = solve_binary(&lp, &binary, &opts);
            prop_assert_eq!(reference.status, sol.status, "threads={}", threads);
            prop_assert_eq!(reference.has_incumbent, sol.has_incumbent, "threads={}", threads);
            if reference.has_incumbent {
                prop_assert_eq!(&reference.objective, &sol.objective, "threads={}", threads);
                prop_assert_eq!(&reference.values, &sol.values, "incumbent threads={}", threads);
            }
            prop_assert_eq!(
                sol.worker_nodes.iter().sum::<usize>(), sol.nodes,
                "per-worker split must account for every node"
            );
        }
    }
}

/// Fixed-seed golden across the `PAR_MIN_COLS` threshold: a 300-variable
/// LP whose standard form is wide enough that the chunked Bland and
/// candidate scans actually split, at every swept worker count.
#[test]
fn wide_lp_golden_is_thread_count_invariant() {
    for seed in [3, 11] {
        let lp = wide_lp(300, seed);
        for pricing in [Pricing::Bland, Pricing::PartialCandidate, Pricing::Devex] {
            assert_threads_invariant(&lp, pricing);
        }
        let serial = SolveOptions { threads: 1, ..SolveOptions::default() };
        let (reference, _) = lp.solve_with(serial);
        assert_eq!(reference.status, LpStatus::Optimal, "golden must be solvable");
    }
}

/// The hybrid solver through a threaded [`WarmCache`]: the certifier's
/// parallel dot products (exact rational adds, summed in chunk order)
/// and the float proposer's chunked scans reproduce the serial hybrid
/// bit-for-bit on a program with enough rows to cross `PAR_MIN_ROWS`.
#[test]
fn hybrid_warm_cache_is_thread_count_invariant() {
    let lp = wide_lp(80, 5);
    let serial = SolveOptions { solver: Solver::Hybrid, pricing: Pricing::Bland, threads: 1 };
    let reference = lp.solve_warm_cached(&mut WarmCache::with_options(serial));
    assert_eq!(reference.status, LpStatus::Optimal);
    for threads in THREADS {
        let mut cache = WarmCache::with_options(SolveOptions { threads, ..serial });
        // Cold-through-cache, then a warm re-solve of the same program.
        for pass in 0..2 {
            let sol = lp.solve_warm_cached(&mut cache);
            assert_eq!(reference.status, sol.status, "threads={threads} pass={pass}");
            assert_eq!(
                reference.objective_value, sol.objective_value,
                "threads={threads} pass={pass}"
            );
            assert_eq!(reference.values, sol.values, "vertex threads={threads} pass={pass}");
        }
        assert_eq!(cache.options().threads, threads, "configured count must round-trip");
    }
}

/// A parallel B&B worker's caches feed back into a shared [`WarmCache`]
/// via `absorb_worker`: the per-worker fallback counters keep summing
/// and the absorbed cache stays usable for further exact solves.
#[test]
fn warm_cache_absorbs_worker_counters() {
    let lp = wide_lp(40, 9);
    let mut shared = WarmCache::new();
    let _ = lp.solve_warm_cached(&mut shared);
    let mut worker = WarmCache::new();
    let _ = lp.solve_warm_cached(&mut worker);
    shared.absorb_worker(&worker);
    assert!(
        shared.per_worker_fallbacks().len() >= worker.per_worker_fallbacks().len(),
        "absorbing must never drop per-worker slots"
    );
    let again = lp.solve_warm_cached(&mut shared);
    assert_eq!(again.status, LpStatus::Optimal);
}
