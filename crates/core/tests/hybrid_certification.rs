//! The hybrid solver certifies the infeasible (IP-3) probes of a T*
//! search instead of falling back to exact pivoting.
//!
//! Every probe below T* is infeasible, and the hybrid can only answer it
//! without exact pivots if the exact Farkas check accepts the float's
//! phase-1 witness. That witness is the phase-1 dual vector of the basis
//! phase 1 ended in, so the certifier must rebuild exactly that basis:
//! the float's real columns plus the unit columns of the rows whose
//! artificials stayed basic. These tests pin that on a small reproducer
//! and on a seeded sweep of instances shaped like the online service's.

use hsched_core::formulations::{build_ip3_fixed, VarMap};
use hsched_core::Instance;
use laminar::topology;
use lp::{LpStatus, RevisedStats, Solver};

/// One cold hybrid solve of the (IP-3) relaxation at horizon `t`.
fn probe(inst: &Instance, vm: &VarMap, t: u64) -> (LpStatus, RevisedStats) {
    let (sol, stats) = build_ip3_fixed(inst, vm, t).solve_with(Solver::Hybrid.into());
    (sol.status, stats)
}

/// Ten (set, job) variables over `semi_partitioned(3)` (set 0 = {0,1,2},
/// set 1 + i = {i}): jobs 1 and 2 are pinned to machine 0, so machine 0
/// alone needs 40 + 59 and T* = 99, while LB = 59. Every probe in
/// between is infeasible and must certify.
#[test]
fn infeasible_probes_certify_on_the_phase_one_basis() {
    let table: [[Option<u64>; 4]; 4] = [
        [Some(20), Some(17), Some(17), Some(17)],
        [None, Some(40), None, None],
        [None, Some(59), None, None],
        [Some(58), Some(49), Some(49), Some(49)],
    ];
    let inst = Instance::from_fn(topology::semi_partitioned(3), 4, |j, a| table[j][a])
        .expect("monotone instance");
    let vm = VarMap::finite(&inst);
    assert_eq!(vm.len(), 10);
    let lb = inst.bottleneck_lower_bound().max(inst.volume_lower_bound());
    assert_eq!(lb, 59);
    for t in lb..99 {
        let (status, stats) = probe(&inst, &vm, t);
        assert_eq!(status, LpStatus::Infeasible, "t = {t}");
        assert_eq!(stats.hybrid_certified, 1, "t = {t}: fell back ({stats:?})");
    }
    let (status, stats) = probe(&inst, &vm, 99);
    assert_eq!(status, LpStatus::Optimal);
    assert_eq!(stats.hybrid_certified, 1);
}

/// SplitMix64: a dependency-free seeded stream for the sweep below.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (modulo bias is irrelevant here).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A service-shaped instance over `semi_partitioned(m)`: base times
/// 5–60 under the `1/4` overhead model (`b + ⌈b·(s−1)/(4m)⌉` on a set of
/// `s` machines), and every third job pinned to one random machine's
/// singleton. Without pinned jobs T* = max(volume, bottleneck) on these
/// shapes and no probe in the service's range is infeasible.
fn service_shaped(m: usize, n: usize, seed: u64) -> Instance {
    let mut rng = SplitMix(seed);
    let jobs: Vec<(u64, Option<usize>)> = (0..n)
        .map(|j| {
            let base = rng.range(5, 60);
            (base, (j % 3 == 0).then(|| rng.range(0, m as u64 - 1) as usize))
        })
        .collect();
    let family = topology::semi_partitioned(m);
    let sizes: Vec<usize> = family.sets().iter().map(|s| s.len()).collect();
    let singleton: Vec<Option<usize>> = family
        .sets()
        .iter()
        .map(|s| (s.len() == 1).then(|| (0..m).find(|&i| s.contains(i)).expect("non-empty")))
        .collect();
    Instance::from_fn(family, n, |j, a| {
        let (base, pin) = jobs[j];
        match pin {
            Some(i) => (singleton[a] == Some(i)).then_some(base),
            None => Some(base + (base * (sizes[a] as u64 - 1)).div_ceil(4 * m as u64)),
        }
    })
    .expect("overhead model is monotone")
}

/// Every cold hybrid probe in `[LB, T*)` of a seeded sweep certifies its
/// infeasibility, and the probe at T* its optimum: 288 instances over
/// m ∈ {3, 4, 5, 8} and n ∈ {4, 6, …, 20}, 1 657 infeasible probes.
#[test]
fn service_shaped_probes_below_t_star_all_certify() {
    let (mut infeasible, mut fallbacks) = (0usize, Vec::new());
    for m in [3usize, 4, 5, 8] {
        for n in (4..=20).step_by(2) {
            for seed in 0..10u64 {
                let inst = service_shaped(m, n, 1000 * m as u64 + 10 * n as u64 + seed);
                let vm = VarMap::finite(&inst);
                let lb = inst.bottleneck_lower_bound().max(inst.volume_lower_bound());
                let mut t = lb;
                loop {
                    let (status, stats) = probe(&inst, &vm, t);
                    if stats.hybrid_certified != 1 {
                        fallbacks.push((m, n, seed, t, status));
                    }
                    if status == LpStatus::Optimal {
                        break;
                    }
                    assert_eq!(status, LpStatus::Infeasible);
                    infeasible += 1;
                    t += 1;
                }
            }
        }
    }
    assert!(infeasible >= 1000, "the sweep must exercise infeasible probes, got {infeasible}");
    assert!(
        fallbacks.is_empty(),
        "{} probes fell back ({infeasible} infeasible in the sweep); first (m, n, seed, t, \
         status): {:?}",
        fallbacks.len(),
        &fallbacks[..fallbacks.len().min(5)]
    );
}
