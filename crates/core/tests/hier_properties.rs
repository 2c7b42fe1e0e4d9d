//! Deeper property tests on multi-level (clustered / SMP-CMP) instances —
//! complements the root-level suite which focuses on the semi-partitioned
//! case.

use hsched_core::approx::{two_approx, two_approx_with, TwoApproxMethod};
use hsched_core::hier::{allocate_loads, schedule_hierarchical, shared_machines};
use hsched_core::lst::{lpt_schedule, lst_assign, lst_binary_search};
use hsched_core::memory::{model1_lp_t_star, model1_round, MemoryModel1};
use hsched_core::{Assignment, Instance};
use laminar::topology;
use numeric::Q;
use proptest::prelude::*;

/// Golden regression for the LP-core swap (sparse + warm-started simplex,
/// i128 fast-path rationals): `two_approx`/`two_approx_with` must return
/// *bit-identical* `t_star` and makespan on these fixed-seed workloads.
/// The `T*` values were captured from the seed (dense-solver,
/// pure-BigInt) implementation; any divergence means the LP core changed
/// an answer, not just its speed. The makespans were re-captured once,
/// when LST started from the LPT vertex and returned the better of its
/// rounding and the LPT schedule.
#[test]
fn golden_two_approx_unchanged_by_solver_swap() {
    let cases: [(usize, usize, u64, u64, i64); 3] =
        [(8, 3, 7, 26, 28), (12, 4, 11, 42, 43), (10, 5, 13, 21, 22)];
    for (n, m, seed, want_t, want_mk) in cases {
        let inst = workloads::random::overhead_instance(
            topology::semi_partitioned(m),
            n,
            1,
            20,
            1,
            4,
            &mut workloads::rng(seed),
        );
        for method in [TwoApproxMethod::DirectSingleton, TwoApproxMethod::PushDown] {
            let res = two_approx_with(&inst, method);
            assert_eq!(res.t_star, want_t, "t* drifted: n{n} m{m} seed{seed} {method:?}");
            assert_eq!(
                res.makespan,
                Q::from_int(want_mk),
                "makespan drifted: n{n} m{m} seed{seed} {method:?}"
            );
        }
    }
}

/// Same golden lock on multi-level (clustered) topologies.
#[test]
fn golden_two_approx_clustered_unchanged() {
    let cases: [(usize, usize, u64, u64, i64); 2] = [(2, 2, 3, 14, 14), (2, 3, 5, 9, 9)];
    for (k, q, seed, want_t, want_mk) in cases {
        let inst = workloads::random::overhead_instance(
            topology::clustered(k, q),
            9,
            1,
            9,
            1,
            3,
            &mut workloads::rng(seed),
        );
        for method in [TwoApproxMethod::DirectSingleton, TwoApproxMethod::PushDown] {
            let res = two_approx_with(&inst, method);
            assert_eq!(res.t_star, want_t, "t* drifted: {k}x{q} seed{seed} {method:?}");
            assert_eq!(res.makespan, Q::from_int(want_mk), "makespan drifted: {k}x{q} seed{seed}");
        }
    }
}

/// Strategy: a clustered instance with monotone overhead times and a
/// random (but feasible-by-construction) assignment over any set level.
fn clustered_case() -> impl Strategy<Value = (Instance, Assignment)> {
    (
        2usize..4, // clusters
        2usize..4, // cluster width
        proptest::collection::vec((1u64..7, 0usize..64), 1..9),
    )
        .prop_map(|(k, q, jobs)| {
            let fam = topology::clustered(k, q);
            let n_sets = fam.len();
            let sizes: Vec<u64> = fam.sets().iter().map(|s| s.len() as u64).collect();
            let bases: Vec<u64> = jobs.iter().map(|&(b, _)| b).collect();
            let inst = Instance::from_fn(fam, jobs.len(), |j, a| Some(bases[j] + sizes[a] / 2))
                .expect("monotone");
            let mask: Vec<usize> = jobs.iter().map(|&(_, pick)| pick % n_sets).collect();
            (inst, Assignment::new(mask))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Theorem IV.3 on multi-level assignments: any assignment scheduled
    /// at its minimal feasible horizon validates exactly.
    #[test]
    fn hierarchical_scheduler_valid_on_clusters((inst, asg) in clustered_case()) {
        let t = Q::from(asg.minimal_integral_horizon(&inst).expect("finite"));
        let sched = schedule_hierarchical(&inst, &asg, &t).expect("Theorem IV.3");
        prop_assert!(sched.validate(&inst, &asg, &t).is_ok());
        // Makespan is within the horizon and work conserves.
        prop_assert!(sched.makespan() <= t);
        for (j, a) in asg.iter() {
            prop_assert_eq!(sched.job_total(j), inst.ptime_q(j, a).expect("finite"));
        }
    }

    /// Lemmas IV.1 and IV.2 on multi-level load tables.
    #[test]
    fn load_lemmas_on_clusters((inst, asg) in clustered_case()) {
        let t = Q::from(asg.minimal_integral_horizon(&inst).expect("finite"));
        let loads = allocate_loads(&inst, &asg, &t).expect("feasible");
        for a in 0..inst.family().len() {
            prop_assert_eq!(Q::sum(loads.set_loads(a).iter()), asg.volume_on(&inst, a));
            prop_assert!(shared_machines(&inst, &loads, a).len() <= 1, "Lemma IV.2");
            for i in inst.set(a).iter() {
                prop_assert!(loads.tot_load(a, i) <= t, "Lemma IV.1(i)");
            }
        }
    }

    /// The LST deadline search is monotone and its rounding respects the
    /// 2T bound at every feasible deadline, not just the minimal one.
    #[test]
    fn lst_two_t_at_any_deadline(
        n in 1usize..7,
        m in 2usize..5,
        seed in 0u64..500,
        slack in 0u64..6,
    ) {
        let p: Vec<Vec<Option<u64>>> = (0..n)
            .map(|j| {
                (0..m)
                    .map(|i| Some(1 + ((j as u64 * 13 + i as u64 * 7 + seed) % 9)))
                    .collect()
            })
            .collect();
        let Some((t_star, _)) = lst_binary_search(&p, m) else {
            return Err(TestCaseError::fail("search must succeed"));
        };
        // The search's upper bracket: the LPT makespan is a feasible
        // horizon, no wider than the sequential bound Σ_j min_i p_ij.
        let (_, lpt) = lpt_schedule(&p, m).expect("every pair is finite");
        let sequential: u64 = p.iter().map(|r| r.iter().flatten().min().unwrap()).sum();
        prop_assert!(lst_assign(&p, m, lpt).is_some(), "LPT makespan {lpt} is feasible");
        prop_assert!(t_star <= lpt && lpt <= sequential, "T* {t_star} ≤ {lpt} ≤ {sequential}");
        // Any deadline ≥ t_star is feasible and rounds within 2 deadlines.
        let t = t_star + slack;
        let a = lst_assign(&p, m, t).expect("monotone feasibility");
        prop_assert!(a.makespan(&p, m) <= 2 * t, "LST bound at t = {t}");
        // The better-of choice never loses to LPT, and the rounding on
        // its own keeps the LST bound.
        prop_assert!(a.makespan(&p, m) <= lpt, "makespan within LPT's {lpt} at t = {t}");
        prop_assert!(a.lst_makespan <= 2 * t, "rounding alone within 2·{t}");
        // And t_star − 1 is infeasible (minimality).
        if t_star > 1 {
            prop_assert!(lst_assign(&p, m, t_star - 1).is_none());
        }
    }

    /// Theorem V.2 over clustered topologies (not just semi-partitioned).
    #[test]
    fn two_approx_on_clusters((inst, _) in clustered_case()) {
        let res = two_approx(&inst);
        prop_assert!(!res.fallback_used);
        prop_assert!(res.makespan <= Q::from(2 * res.t_star));
        prop_assert!(res
            .schedule
            .validate(&res.instance, &res.assignment, &res.makespan)
            .is_ok());
    }

    /// Theorem VI.1: whenever the Model 1 LP is feasible, the rounding
    /// returns an assignment within (3T, 3B).
    #[test]
    fn model1_bicriteria_random(
        n in 1usize..7,
        seed in 0u64..500,
        pressure in 1u64..4,
    ) {
        let mut r = workloads::rng(seed);
        let inst = workloads::random::semi_uniform(3, n, 1, 6, &mut r);
        let m1w = workloads::memory::model1_workload(inst, 4, 40 * pressure, &mut r);
        let m1 = MemoryModel1 {
            instance: m1w.instance.clone(),
            sizes: m1w.sizes.clone(),
            budgets: m1w.budgets.clone(),
        };
        let Some(t) = model1_lp_t_star(&m1) else { return Ok(()) };
        let Ok(res) = model1_round(&m1, t) else { return Ok(()) };
        prop_assert!(res.makespan <= Q::from(3 * t), "3T bound");
        for (i, used) in res.memory_usage.iter().enumerate() {
            prop_assert!(*used <= 3 * m1.budgets[i], "3B bound at machine {i}");
        }
        prop_assert!(res
            .schedule
            .validate(&m1.instance, &res.assignment, &res.makespan)
            .is_ok());
    }
}
