//! Thread-count invariance of the parallel branch and bound: status,
//! objective, and incumbent must be *bit-identical* to the serial path
//! at 1, 2, 4, and 8 workers. Parallelism may only change wall-clock
//! time and the node counts (and their per-worker split).

mod common;

use common::{random_lp, wide_lp};
use lp::{solve_binary, BnbOptions, LpStatus, Solver, WarmCache};
use proptest::prelude::*;

/// The worker counts every invariance assertion sweeps.
const THREADS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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

    // A hybrid worker's fallback reasons fold with its total.
    let mut hybrid = WarmCache::with_options(Solver::Hybrid.into());
    hybrid.force_certification_failures(1);
    let _ = lp.solve_warm_cached(&mut hybrid);
    shared.absorb_worker(&hybrid);
    assert_eq!(shared.hybrid_fallbacks(), 1);
    assert_eq!(shared.fallback_reasons().injected, 1);
    assert_eq!(shared.per_worker_fallbacks().last(), Some(&1));
}
