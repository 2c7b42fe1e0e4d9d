//! The polynomial-time approximation algorithms.
//!
//! * [`two_approx`] — Theorem V.2: find the minimal integral `T` at
//!   which the LP relaxation of (IP-3) is feasible (`T* ≤ OPT`), between
//!   a volume/bottleneck lower bound and the makespan of an LPT list
//!   schedule (a feasible horizon that needs no LP probe), turn the
//!   fractional solution into an unrelated-machines one (Lemma V.1
//!   push-down — or, equivalently, solve the singleton LP directly), and
//!   round with Lenstra–Shmoys–Tardos from the LPT vertex
//!   ([`crate::lst::lst_assign`]): no LP at all when the bracket closes,
//!   and the better of the rounding and the LPT schedule otherwise. The
//!   direct search binary-searches only on non-identical machines: when
//!   every job takes one time on every singleton, as under the paper's
//!   migration-overhead model, McNaughton's bound is `T*`
//!   ([`crate::lst::lst_binary_search`]) and only the rounding LP is
//!   solved. The integral assignment uses only singleton masks and has
//!   makespan ≤ `2·T* ≤ 2·OPT`.
//! * [`eight_approx`] — Section II: for *general* (non-laminar) affinity
//!   families, collapse each job's options to its best per-machine time
//!   and run LST; the chain preemptive-LB ≤ OPT, non-preemptive ≤ 4 ×
//!   preemptive, LST ≤ 2 × non-preemptive-OPT yields factor 8. The
//!   preemptive bound is searched between the volume bound and the LPT
//!   makespan, both valid for the preemptive LP.

use laminar::MachineSet;
use lp::{LinearProgram, LpStatus, Relation};
use numeric::Q;

use crate::assignment::Assignment;
use crate::formulations::Ip3Probe;
use crate::hier::schedule_hierarchical;
use crate::instance::Instance;
use crate::lst::{least_feasible, lpt_schedule, lst_assign, lst_binary_search, lst_bracket};
use crate::pushdown::{is_fractionally_feasible, push_down_all, supported_on_singletons};
use crate::schedule::Schedule;

/// Which feasibility oracle drives the binary search on `T` — the two are
/// equivalent by Lemma V.1; `PushDown` exercises the lemma explicitly
/// (the E9 ablation compares them).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TwoApproxMethod {
    /// Solve the singleton (unrelated machines) LP directly.
    DirectSingleton,
    /// Solve the full hierarchical LP of (IP-3), then push the fractional
    /// weight down to singletons via Lemma V.1.
    PushDown,
}

/// Result of the 2-approximation.
#[derive(Clone, Debug)]
pub struct TwoApproxResult {
    /// The singleton-completed instance the assignment refers to.
    pub instance: Instance,
    /// Minimal integral `T` with a feasible LP relaxation; `T* ≤ OPT`.
    pub t_star: u64,
    /// The rounded assignment (every mask is a singleton).
    pub assignment: Assignment,
    /// A valid schedule for the assignment.
    pub schedule: Schedule,
    /// Achieved makespan; guaranteed ≤ `2·T*`.
    pub makespan: Q,
    /// Whether the LST matching fallback fired (never expected).
    pub fallback_used: bool,
}

/// Per-machine singleton processing times of a (completed) instance:
/// `p[j][i] = P_j({i})`, `None` when `{i} ∉ A` (machine unusable).
pub fn singleton_times(instance: &Instance) -> Vec<Vec<Option<u64>>> {
    let m = instance.num_machines();
    let singles = instance.singleton_index();
    (0..instance.num_jobs())
        .map(|j| (0..m).map(|i| singles[i].and_then(|a| instance.ptime(j, a))).collect())
        .collect()
}

/// Theorem V.2: polynomial-time 2-approximation for hierarchical
/// scheduling (default method: direct singleton LP).
pub fn two_approx(instance: &Instance) -> TwoApproxResult {
    two_approx_with(instance, TwoApproxMethod::DirectSingleton)
}

/// [`two_approx`] with an explicit feasibility-oracle choice.
pub fn two_approx_with(instance: &Instance, method: TwoApproxMethod) -> TwoApproxResult {
    let completed = instance.with_singletons();
    let m = completed.num_machines();
    let p = singleton_times(&completed);

    if completed.num_jobs() == 0 {
        return TwoApproxResult {
            instance: completed,
            t_star: 0,
            assignment: Assignment::new(Vec::new()),
            schedule: Schedule::default(),
            makespan: Q::zero(),
            fallback_used: false,
        };
    }

    // Both searches share `lst_bracket`: the LPT schedule's makespan is
    // feasible for the singleton LP and, as a singleton assignment, for
    // (IP-3). On identical singleton times the direct search takes the
    // bracket's lower bound (McNaughton's bound, feasible there) without
    // a probe, and otherwise bisects; it ends with the LST rounding at
    // T*. The push-down search always bisects, so the E9 ablation keeps
    // checking Lemma V.1, and rounds once after its own search.
    let (t_star, rounding) = match method {
        TwoApproxMethod::DirectSingleton => {
            lst_binary_search(&p, m).expect("completed instances have a machine for every job")
        }
        TwoApproxMethod::PushDown => {
            // Oracle: hierarchical LP of (IP-3); by Lemma V.1 its minimal
            // feasible T equals the singleton LP's. Probes re-solve
            // incrementally from the previous optimal basis (Ip3Probe +
            // solve_warm); the push-down is run at each feasible probe to
            // produce the singleton witness the theorem's proof describes
            // (and tests assert its validity).
            let (lo, hi) =
                lst_bracket(&p, m).expect("completed instances have a machine for every job");
            let mut probe = Ip3Probe::new(&completed);
            let t_star = least_feasible(lo, hi, |t| match probe.solve(t) {
                None => false,
                Some(mut x) => {
                    let tq = Q::from(t);
                    push_down_all(&completed, probe.varmap(), &mut x, &tq)
                        .expect("feasible solutions push down");
                    debug_assert!(is_fractionally_feasible(&completed, probe.varmap(), &x, &tq));
                    debug_assert!(supported_on_singletons(&completed, probe.varmap(), &x));
                    true
                }
            });
            (t_star, lst_assign(&p, m, t_star).expect("T* is feasible by construction"))
        }
    };

    let singles = completed.singleton_index();
    let mask: Vec<usize> = rounding
        .machine_of
        .iter()
        .map(|&i| singles[i].expect("assigned machines have singleton sets"))
        .collect();
    let assignment = Assignment::new(mask);

    let t_sched =
        assignment.minimal_integral_horizon(&completed).expect("assignment uses finite pairs");
    debug_assert!(t_sched <= 2 * t_star, "LST guarantee");
    let t_q = Q::from(t_sched);
    let schedule = schedule_hierarchical(&completed, &assignment, &t_q)
        .expect("feasible (x, T) schedules (Theorem IV.3)");
    let makespan = schedule.makespan();

    TwoApproxResult {
        instance: completed,
        t_star,
        assignment,
        schedule,
        makespan,
        fallback_used: rounding.fallback_used,
    }
}

// ---------------------------------------------------------------------
// General (non-laminar) affinity families: the 8-approximation.
// ---------------------------------------------------------------------

/// An instance whose admissible family need *not* be laminar (arbitrary
/// affinity masks, Section II's general model).
#[derive(Clone, Debug)]
pub struct GeneralInstance {
    /// Number of machines `m`.
    pub num_machines: usize,
    /// Arbitrary admissible sets.
    pub sets: Vec<MachineSet>,
    /// `ptimes[j][s]`: processing time of job `j` on set `s` (`None` = ∞).
    pub ptimes: Vec<Vec<Option<u64>>>,
}

impl GeneralInstance {
    /// The collapsed unrelated-machines times: `p'_ij = min { p_αj : i ∈ α }`.
    pub fn unrelated_times(&self) -> Vec<Vec<Option<u64>>> {
        let m = self.num_machines;
        self.ptimes
            .iter()
            .map(|row| {
                (0..m)
                    .map(|i| {
                        self.sets
                            .iter()
                            .zip(row)
                            .filter(|(s, p)| s.contains(i) && p.is_some())
                            .map(|(_, p)| p.expect("filtered"))
                            .min()
                    })
                    .collect()
            })
            .collect()
    }
}

/// Result of the general-family 8-approximation.
#[derive(Clone, Debug)]
pub struct EightApproxResult {
    /// Machine each job runs on (non-preemptively).
    pub machine_of: Vec<usize>,
    /// Achieved makespan.
    pub makespan: u64,
    /// LST deadline `T*` (≤ non-preemptive unrelated OPT).
    pub t_star: u64,
    /// Fractional preemptive lower bound on the affinity OPT
    /// (`makespan / preemptive_lb` is a pessimistic ratio estimate).
    pub preemptive_lb: u64,
}

/// Fractional (preemptive-style) feasibility of the unrelated instance at
/// horizon `t`: `Σ_i x_ij = 1`, machine loads ≤ `t`, `p_ij x_ij ≤ t`.
fn preemptive_feasible(p: &[Vec<Option<u64>>], m: usize, t: u64) -> bool {
    let mut var_of = vec![vec![usize::MAX; m]; p.len()];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (j, row) in p.iter().enumerate() {
        for i in 0..m {
            if row[i].is_some() {
                var_of[j][i] = pairs.len();
                pairs.push((j, i));
            }
        }
    }
    let var = |j: usize, i: usize| Some(var_of[j][i]).filter(|&v| v != usize::MAX);
    let mut lp = LinearProgram::new(pairs.len());
    for j in 0..p.len() {
        let coeffs: Vec<(usize, Q)> =
            (0..m).filter_map(|i| var(j, i).map(|v| (v, Q::one()))).collect();
        if coeffs.is_empty() {
            return false;
        }
        lp.add_constraint(coeffs, Relation::Eq, Q::one());
    }
    for i in 0..m {
        let coeffs: Vec<(usize, Q)> = (0..p.len())
            .filter_map(|j| var(j, i).map(|v| (v, Q::from(p[j][i].expect("finite")))))
            .collect();
        if !coeffs.is_empty() {
            lp.add_constraint(coeffs, Relation::Le, Q::from(t));
        }
    }
    for (v, &(j, i)) in pairs.iter().enumerate() {
        let pq = Q::from(p[j][i].expect("finite"));
        if pq.is_positive() {
            lp.add_constraint(vec![(v, pq)], Relation::Le, Q::from(t));
        }
    }
    lp.solve().status == LpStatus::Optimal
}

/// The simple 8-approximation for general affinity families (Section II).
/// Returns `None` if some job cannot run on any machine.
pub fn eight_approx(gi: &GeneralInstance) -> Option<EightApproxResult> {
    let p = gi.unrelated_times();
    let m = gi.num_machines;
    if p.iter().any(|row| row.iter().all(|x| x.is_none())) {
        return None;
    }
    if p.is_empty() {
        return Some(EightApproxResult {
            machine_of: Vec::new(),
            makespan: 0,
            t_star: 0,
            preemptive_lb: 0,
        });
    }
    let (t_star, rounding) = lst_binary_search(&p, m)?;
    let makespan = rounding.makespan(&p, m);

    // Preemptive LP lower bound by binary search. The volume bound holds
    // for this LP (the bottleneck bound does not: jobs may split), and
    // the LPT schedule is feasible at its makespan: its loads are at most
    // that, and so is each assigned p_ij.
    let volume = p.iter().filter_map(|row| row.iter().flatten().min()).sum::<u64>();
    let lo = volume.div_ceil(m as u64).max(1);
    let (_, lpt_makespan) = lpt_schedule(&p, m)?;
    let preemptive_lb = least_feasible(lo, lpt_makespan.max(lo), |t| preemptive_feasible(&p, m, t));

    Some(EightApproxResult { machine_of: rounding.machine_of, makespan, t_star, preemptive_lb })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{solve_exact, ExactOptions};
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
    fn two_approx_on_example_ii_1() {
        let inst = example_ii_1();
        let res = two_approx(&inst);
        assert!(!res.fallback_used);
        res.schedule.validate(&res.instance, &res.assignment, &res.makespan).unwrap();
        // OPT = 2; guarantee: makespan ≤ 2·T* ≤ 2·OPT = 4.
        assert!(res.makespan <= Q::from_int(4));
        assert!(res.t_star <= 2);
    }

    #[test]
    fn both_methods_agree_on_t_star() {
        let inst = example_ii_1();
        let a = two_approx_with(&inst, TwoApproxMethod::DirectSingleton);
        let b = two_approx_with(&inst, TwoApproxMethod::PushDown);
        assert_eq!(a.t_star, b.t_star, "Lemma V.1 equivalence");
    }

    #[test]
    fn ratio_never_exceeds_two_small_sweep() {
        // Clustered instances with overhead-monotone times; compare the
        // 2-approx to the exact optimum.
        for seed in 0..4u64 {
            let fam = topology::clustered(2, 2);
            let sizes: Vec<u64> = fam.sets().iter().map(|s| s.len() as u64).collect();
            let inst = Instance::from_fn(fam, 5, |j, a| {
                Some(1 + ((j as u64 * 7 + seed * 13) % 5) + sizes[a] / 2)
            })
            .unwrap();
            let approx = two_approx(&inst);
            let exact = solve_exact(&inst, &ExactOptions::default()).unwrap();
            let bound = Q::from(2 * exact.t);
            assert!(approx.makespan <= bound, "seed {seed}: {} > 2·{}", approx.makespan, exact.t);
            // And T* really is a lower bound on OPT.
            assert!(approx.t_star <= exact.t);
        }
    }

    #[test]
    fn two_approx_handles_global_only_family() {
        // A = {M}: singleton completion makes it semi-partitioned-like.
        let inst =
            Instance::from_fn(topology::global(3), 6, |j, _| Some(1 + j as u64 % 3)).unwrap();
        let res = two_approx(&inst);
        res.schedule.validate(&res.instance, &res.assignment, &res.makespan).unwrap();
    }

    #[test]
    fn eight_approx_on_crossing_family() {
        // Two overlapping (non-laminar) sets over 3 machines.
        let m = 3;
        let gi = GeneralInstance {
            num_machines: m,
            sets: vec![MachineSet::from_iter(m, [0, 1]), MachineSet::from_iter(m, [1, 2])],
            ptimes: vec![vec![Some(4), Some(6)], vec![Some(5), Some(3)], vec![None, Some(2)]],
        };
        let res = eight_approx(&gi).unwrap();
        assert_eq!(res.machine_of.len(), 3);
        // Sanity: each job lands on a machine where some set covers it.
        let p = gi.unrelated_times();
        for (j, &i) in res.machine_of.iter().enumerate() {
            assert!(p[j][i].is_some());
        }
        // Empirical factor vs the preemptive LB stays within 8.
        assert!(res.makespan <= 8 * res.preemptive_lb.max(1));
    }

    #[test]
    fn eight_approx_unschedulable_job() {
        let gi = GeneralInstance {
            num_machines: 2,
            sets: vec![MachineSet::from_iter(2, [0])],
            ptimes: vec![vec![None]],
        };
        assert!(eight_approx(&gi).is_none());
    }

    #[test]
    fn two_approx_t_star_matches_lp_bound_on_gap_family() {
        // Example V.1 family: T* equals the LP bound n−1 while the
        // unrelated ILP optimum is 2n−3; the rounded makespan lands ≤ 2T*.
        let n = 5usize;
        let m = n - 1;
        let inst = Instance::from_fn(topology::semi_partitioned(m), n, |j, a| {
            let sets = topology::semi_partitioned(m);
            let set = sets.set(a);
            if j < n - 1 {
                (set.len() == 1 && set.contains(j)).then_some((n - 2) as u64)
            } else {
                Some((n - 1) as u64)
            }
        })
        .unwrap();
        let res = two_approx(&inst);
        assert!(res.t_star as usize <= 2 * n);
        res.schedule.validate(&res.instance, &res.assignment, &res.makespan).unwrap();
        assert!(res.makespan <= Q::from(2 * res.t_star));
    }
}
