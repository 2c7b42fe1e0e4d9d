//! Generic best-fit greedy over an arbitrary laminar family.
//!
//! The natural LP-free competitor to the paper's 2-approximation: jobs in
//! LPT order each pick the admissible set that minimizes the resulting
//! minimal feasible horizon of the partial assignment (evaluated exactly
//! through `Assignment::minimal_integral_horizon` semantics, kept
//! incrementally by `HorizonTracker`). Works for
//! any topology — global, clustered, SMP-CMP — and feeds Algorithms 2+3
//! for the actual schedule.

use hsched_core::assignment::HorizonTracker;
use hsched_core::hier::schedule_hierarchical;
use hsched_core::{Assignment, Instance, Schedule};
use numeric::Q;

/// Result of the greedy baseline.
#[derive(Clone, Debug)]
pub struct GreedyResult {
    /// The greedy assignment.
    pub assignment: Assignment,
    /// Its minimal feasible integral horizon.
    pub t: u64,
    /// Schedule produced by Algorithms 2+3 at `t`.
    pub schedule: Schedule,
}

/// Run the greedy baseline on any laminar instance.
pub fn greedy_hierarchical(instance: &Instance) -> GreedyResult {
    let n = instance.num_jobs();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(instance.cheapest_set(j).1));

    let mut tracker = HorizonTracker::new(instance);
    let mut mask = vec![0usize; n];
    for &j in &order {
        let best_a =
            tracker.best_set(j).expect("validated instances have an admissible set per job");
        mask[j] = best_a;
        tracker.commit(j, best_a);
    }
    let assignment = Assignment::new(mask);
    let t = assignment.minimal_integral_horizon(instance).expect("greedy picks finite pairs");
    let t_q = Q::from(t);
    let schedule = schedule_hierarchical(instance, &assignment, &t_q)
        .expect("feasible at its minimal horizon");
    GreedyResult { assignment, t, schedule }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar::topology;

    #[test]
    fn greedy_on_example_ii_1() {
        let inst = Instance::new(
            topology::semi_partitioned(2),
            vec![
                vec![None, Some(1), None],
                vec![None, None, Some(1)],
                vec![Some(2), Some(2), Some(2)],
            ],
        )
        .unwrap();
        let res = greedy_hierarchical(&inst);
        res.schedule.validate(&inst, &res.assignment, &Q::from(res.t)).unwrap();
        assert!(res.t <= 3, "greedy should find 2 or 3 here");
    }

    #[test]
    fn greedy_balances_identical_global() {
        let inst = Instance::from_fn(topology::semi_partitioned(4), 8, |_, _| Some(3)).unwrap();
        let res = greedy_hierarchical(&inst);
        assert_eq!(res.t, 6, "8 jobs of 3 on 4 machines");
    }

    #[test]
    fn greedy_on_clustered_topology() {
        let fam = topology::clustered(2, 3);
        let sizes: Vec<u64> = fam.sets().iter().map(|s| s.len() as u64).collect();
        let inst = Instance::from_fn(fam, 9, |j, a| Some(2 + j as u64 % 3 + sizes[a] / 3)).unwrap();
        let res = greedy_hierarchical(&inst);
        res.schedule.validate(&inst, &res.assignment, &Q::from(res.t)).unwrap();
        // Sanity: horizon at least the volume bound.
        assert!(res.t >= inst.volume_lower_bound());
    }

    #[test]
    fn greedy_respects_infeasible_sets() {
        // Job 0 can only run on machine 1's singleton.
        let inst =
            Instance::new(topology::semi_partitioned(2), vec![vec![None, None, Some(5)]]).unwrap();
        let res = greedy_hierarchical(&inst);
        assert_eq!(res.assignment.mask_of(0), 2);
        assert_eq!(res.t, 5);
    }
}
