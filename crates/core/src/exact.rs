//! Exact optimal makespan via binary search + branch-and-bound on (IP-3).
//!
//! The optimal makespan is an integer (processing times are integral and
//! preemptions happen at integer points — Section II), so binary search
//! over integers with an exact 0/1 feasibility oracle finds it. This is
//! exponential in the worst case (the problem is NP-hard, Proposition
//! II.1) and exists to measure approximation ratios on small instances.

use core::fmt;

use lp::{solve_binary, BnbOptions, MilpStatus};
use numeric::Q;

use crate::assignment::Assignment;
use crate::formulations::{assignment_from_solution, build_ip3};
use crate::hier::schedule_hierarchical;
use crate::instance::Instance;
use crate::schedule::Schedule;

/// Options for the exact solver.
#[derive(Clone, Debug)]
pub struct ExactOptions {
    /// Branch-and-bound node budget per feasibility probe.
    pub node_limit: usize,
    /// Warm-start each branch-and-bound node's relaxation from its
    /// parent's optimal basis (on by default; the E3 ablation measures
    /// the delta against cold node solves).
    pub warm_start: bool,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions { node_limit: 200_000, warm_start: true }
    }
}

/// Failure of the exact solver.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExactError {
    /// A feasibility probe exhausted the node budget; the reported optimum
    /// would be unproven, so we abort instead.
    NodeLimit { at_t: u64 },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::NodeLimit { at_t } => {
                write!(f, "branch-and-bound node budget exhausted probing T = {at_t}")
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// An exactly-optimal solution.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// Optimal integral makespan.
    pub t: u64,
    /// An optimal assignment.
    pub assignment: Assignment,
    /// A valid schedule realizing `t` (via Algorithms 2+3).
    pub schedule: Schedule,
    /// Total branch-and-bound nodes over all probes.
    pub nodes: usize,
}

/// Is (IP-3) integrally feasible at horizon `t`? Adds the probe's
/// branch-and-bound node count to `nodes`.
fn probe(
    instance: &Instance,
    t: u64,
    opts: &ExactOptions,
    nodes: &mut usize,
) -> Result<Option<Assignment>, ExactError> {
    let Some((lp, vm)) = build_ip3(instance, t) else {
        return Ok(None);
    };
    let milp = solve_binary(
        &lp,
        &(0..vm.len()).collect::<Vec<_>>(),
        &BnbOptions {
            first_feasible: true,
            node_limit: opts.node_limit,
            warm_start: opts.warm_start,
            ..BnbOptions::default()
        },
    );
    *nodes += milp.nodes;
    match milp.status {
        MilpStatus::NodeLimit => Err(ExactError::NodeLimit { at_t: t }),
        MilpStatus::Infeasible => Ok(None),
        MilpStatus::Optimal => Ok(Some(
            assignment_from_solution(instance, &vm, &milp.values)
                .expect("first_feasible solutions are integral"),
        )),
        // `MilpStatus` is non-exhaustive; the B&B solver only ever
        // returns the three statuses above.
        _ => unreachable!("solve_binary returns Optimal/Infeasible/NodeLimit"),
    }
}

/// Compute the exact optimal makespan, an optimal assignment, and a
/// schedule realizing it.
pub fn solve_exact(instance: &Instance, opts: &ExactOptions) -> Result<ExactResult, ExactError> {
    if instance.num_jobs() == 0 {
        return Ok(ExactResult {
            t: 0,
            assignment: Assignment::new(Vec::new()),
            schedule: Schedule::default(),
            nodes: 0,
        });
    }
    let mut lo = instance.bottleneck_lower_bound().max(instance.volume_lower_bound()).max(1);
    let mut hi = instance.sequential_upper_bound().max(lo);
    // Witness at hi: everything on its cheapest set is feasible.
    let mut witness: Assignment =
        Assignment::new((0..instance.num_jobs()).map(|j| instance.cheapest_set(j).0).collect());
    let mut witness_t = hi;
    debug_assert!(witness.check_ip2(instance, &Q::from(hi)).is_ok());
    let mut nodes = 0usize;

    // Invariant: lo − 1 infeasible (lower bounds), hi feasible (witness).
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match probe(instance, mid, opts, &mut nodes)? {
            Some(asg) => {
                witness = asg;
                witness_t = mid;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    // `lo == hi`; if the stored witness is for a larger T, re-probe at lo.
    if witness_t != lo {
        match probe(instance, lo, opts, &mut nodes)? {
            Some(asg) => witness = asg,
            None => unreachable!("binary search invariant: T = lo is feasible"),
        }
    }
    let t_q = Q::from(lo);
    let schedule = schedule_hierarchical(instance, &witness, &t_q)
        .expect("feasible (x, T) always schedules (Theorem IV.3)");
    debug_assert!(schedule.validate(instance, &witness, &t_q).is_ok());
    Ok(ExactResult { t: lo, assignment: witness, schedule, nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar::topology;

    fn example_ii_1() -> Instance {
        Instance::new(
            topology::semi_partitioned(2),
            vec![
                vec![None, Some(1), None],
                vec![None, None, Some(1)],
                vec![Some(2), Some(2), Some(2)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn example_ii_1_optimum_is_2() {
        let res = solve_exact(&example_ii_1(), &ExactOptions::default()).unwrap();
        assert_eq!(res.t, 2);
        res.schedule.validate(&example_ii_1(), &res.assignment, &Q::from_int(2)).unwrap();
    }

    #[test]
    fn unrelated_restriction_optimum_is_3() {
        // Same jobs but partitioned family (no migration): optimum 3
        // (the paper's comparison in Example II.1).
        let inst = Instance::new(
            topology::partitioned(2),
            vec![vec![Some(1), None], vec![None, Some(1)], vec![Some(2), Some(2)]],
        )
        .unwrap();
        let res = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert_eq!(res.t, 3);
    }

    #[test]
    fn example_v_1_gap_family() {
        // n jobs, m = n−1 machines: hierarchical optimum n−1 vs
        // unrelated optimum 2n−3 (Example V.1).
        for n in [3usize, 4, 5] {
            let m = n - 1;
            let fam = topology::semi_partitioned(m);
            // job j < n−1: p = n−2 on machine j only (and ∞ elsewhere);
            // job n−1: p = n−1 everywhere (incl. globally).
            let inst = Instance::from_fn(fam, n, |j, a| {
                let sets = topology::semi_partitioned(m);
                let set = sets.set(a);
                if j < n - 1 {
                    if set.len() == 1 && set.contains(j) {
                        Some((n - 2) as u64)
                    } else {
                        None
                    }
                } else {
                    Some((n - 1) as u64)
                }
            })
            .unwrap();
            let res = solve_exact(&inst, &ExactOptions::default()).unwrap();
            assert_eq!(res.t as usize, n - 1, "hierarchical optimum at n = {n}");
        }
    }

    #[test]
    fn single_job_single_machine() {
        let inst = Instance::from_fn(topology::partitioned(1), 1, |_, _| Some(7)).unwrap();
        let res = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert_eq!(res.t, 7);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_fn(topology::partitioned(2), 0, |_, _| Some(1)).unwrap();
        let res = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert_eq!(res.t, 0);
        assert!(res.schedule.segments.is_empty());
    }

    #[test]
    fn pure_mcnaughton() {
        // Global family only: optimum = max(max p, ceil(volume / m)).
        let inst = Instance::from_fn(topology::global(3), 5, |j, _| Some(2 + j as u64)).unwrap();
        // volume = 2+3+4+5+6 = 20, m = 3 → ⌈20/3⌉ = 7 ≥ max p = 6.
        let res = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert_eq!(res.t, 7);
    }

    #[test]
    fn clustered_exact_small() {
        let fam = topology::clustered(2, 2);
        let sizes: Vec<u64> = fam.sets().iter().map(|s| s.len() as u64).collect();
        let inst =
            Instance::from_fn(fam, 5, |j, a| Some(3 + (j as u64 % 2) + sizes[a] / 2)).unwrap();
        let res = solve_exact(&inst, &ExactOptions::default()).unwrap();
        let t_q = Q::from(res.t);
        res.schedule.validate(&inst, &res.assignment, &t_q).unwrap();
        // Optimum is at least the volume bound.
        assert!(res.t >= inst.volume_lower_bound());
        // Probes went through the branch-and-bound, and the count is
        // reported (the E11 warm-vs-cold ablation relies on it).
        assert!(res.nodes > 0);
    }
}
