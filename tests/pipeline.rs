//! End-to-end integration: generator → ILP/LP solver → scheduler →
//! validator → simulator, across crates.

use hier_sched::baselines::greedy::greedy_hierarchical;
use hier_sched::baselines::semi::semi_first_fit;
use hier_sched::core::approx::{two_approx, two_approx_with, TwoApproxMethod};
use hier_sched::core::exact::{solve_exact, ExactOptions};
use hier_sched::core::hier::schedule_hierarchical;
use hier_sched::core::semi::schedule_semi_partitioned;
use hier_sched::core::Assignment;
use hier_sched::laminar::topology;
use hier_sched::numeric::Q;
use hier_sched::simulator::simulate;
use hier_sched::workloads::{paper, random, rng};

/// The full paper pipeline on Example II.1: exact optimum, 2-approx,
/// both schedulers, validator and simulator all agree.
#[test]
fn paper_example_full_pipeline() {
    let inst = paper::example_ii_1();
    let exact = solve_exact(&inst, &ExactOptions::default()).unwrap();
    assert_eq!(exact.t, 2);

    let t = Q::from(exact.t);
    let via_semi = schedule_semi_partitioned(&inst, &exact.assignment, &t).unwrap();
    let via_hier = schedule_hierarchical(&inst, &exact.assignment, &t).unwrap();
    for sched in [&via_semi, &via_hier] {
        sched.validate(&inst, &exact.assignment, &t).unwrap();
        let rep = simulate(sched, inst.num_machines()).unwrap();
        assert_eq!(rep.makespan, t);
        let d = sched.disruptions();
        assert_eq!(rep.migrations, d.migrations);
        assert_eq!(rep.preemptions, d.preemptions);
    }

    let approx = two_approx(&inst);
    assert!(approx.makespan <= Q::from(2 * exact.t));
    approx.schedule.validate(&approx.instance, &approx.assignment, &approx.makespan).unwrap();
}

/// Random SMP-CMP instances: approximation guarantee, scheduler validity,
/// simulator agreement — the E3/E5 pipeline in miniature.
#[test]
fn random_smp_cmp_pipeline() {
    for seed in 0..5u64 {
        let inst = random::smp_cmp_instance(&[2, 2], 8, 1, 8, 30, &mut rng(seed));
        let approx = two_approx(&inst);
        assert!(!approx.fallback_used, "LST matching never needs the fallback");
        approx.schedule.validate(&approx.instance, &approx.assignment, &approx.makespan).unwrap();
        let exact = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert!(approx.t_star <= exact.t, "T* is a lower bound (seed {seed})");
        assert!(approx.makespan <= Q::from(2 * exact.t), "2-approx guarantee (seed {seed})");
        let rep = simulate(&approx.schedule, inst.num_machines()).unwrap();
        assert!(rep.makespan <= approx.makespan);
    }
}

/// Both 2-approx oracles (direct singleton LP vs Lemma V.1 push-down)
/// agree on T* across random topologies.
#[test]
fn lemma_v1_oracles_agree() {
    for seed in 0..4u64 {
        let fam = topology::clustered(2, 2);
        let inst = random::overhead_instance(fam, 7, 1, 7, 1, 3, &mut rng(seed + 100));
        let a = two_approx_with(&inst, TwoApproxMethod::DirectSingleton);
        let b = two_approx_with(&inst, TwoApproxMethod::PushDown);
        assert_eq!(a.t_star, b.t_star, "seed {seed}");
    }
}

/// Heuristics never beat the exact optimum and never break validity.
#[test]
fn heuristics_bracket_optimum() {
    for seed in 0..4u64 {
        let inst = random::semi_uniform(3, 7, 1, 6, &mut rng(seed + 40));
        let exact = solve_exact(&inst, &ExactOptions::default()).unwrap();
        let greedy = greedy_hierarchical(&inst);
        assert!(greedy.t >= exact.t, "greedy ≥ OPT (seed {seed})");
        greedy.schedule.validate(&inst, &greedy.assignment, &Q::from(greedy.t)).unwrap();
        let ffd = semi_first_fit(&inst).unwrap();
        assert!(ffd.t >= exact.t, "FFD ≥ OPT (seed {seed})");
        ffd.schedule.validate(&inst, &ffd.assignment, &Q::from(ffd.t)).unwrap();
    }
}

/// Restricted (∞-laden) instances flow through the whole pipeline.
#[test]
fn restricted_instances_pipeline() {
    for seed in 0..4u64 {
        let inst =
            random::restricted_instance(topology::semi_partitioned(3), 8, 1, 5, 50, &mut rng(seed));
        let approx = two_approx(&inst);
        approx.schedule.validate(&approx.instance, &approx.assignment, &approx.makespan).unwrap();
        let exact = solve_exact(&inst, &ExactOptions::default()).unwrap();
        assert!(approx.makespan <= Q::from(2 * exact.t), "seed {seed}");
    }
}

/// Heterogeneous-speed instances: monotone by construction, full pipeline.
#[test]
fn heterogeneous_pipeline() {
    for seed in 0..3u64 {
        let inst = random::heterogeneous_instance(
            topology::clustered(2, 2),
            7,
            2,
            12,
            3,
            &mut rng(seed + 7),
        );
        let exact = solve_exact(&inst, &ExactOptions::default()).unwrap();
        let t = Q::from(exact.t);
        let sched = schedule_hierarchical(&inst, &exact.assignment, &t).unwrap();
        sched.validate(&inst, &exact.assignment, &t).unwrap();
        simulate(&sched, inst.num_machines()).unwrap();
    }
}

/// Algorithm 1 and Algorithms 2+3 both realize any feasible semi-
/// partitioned (x, T) — Theorems III.1 and IV.3 side by side.
#[test]
fn both_schedulers_realize_same_pairs() {
    for seed in 0..5u64 {
        let inst = random::semi_uniform(4, 10, 1, 6, &mut rng(seed + 11));
        // Mix: global for even jobs, best singleton for odd.
        let singles = inst.singleton_index();
        let root = (0..inst.family().len()).find(|&a| inst.set(a).len() == 4).unwrap();
        let mask: Vec<usize> =
            (0..10).map(|j| if j % 2 == 0 { root } else { singles[j % 4].unwrap() }).collect();
        let asg = Assignment::new(mask);
        let t = Q::from(asg.minimal_integral_horizon(&inst).unwrap());
        let s1 = schedule_semi_partitioned(&inst, &asg, &t).unwrap();
        let s2 = schedule_hierarchical(&inst, &asg, &t).unwrap();
        s1.validate(&inst, &asg, &t).unwrap();
        s2.validate(&inst, &asg, &t).unwrap();
        // Same work content, possibly different layouts.
        for j in 0..10 {
            assert_eq!(s1.job_total(j), s2.job_total(j));
        }
        // Both respect Proposition III.2.
        assert!(s1.disruptions().migrations <= 3);
        assert!(s1.disruptions().total() <= 6);
    }
}

/// Golden regression for the exact LP core rebuild: both 2-approx
/// oracles return bit-identical `t_star` and makespan on fixed-seed
/// SMP-CMP workloads (`T*` captured from the seed dense-solver
/// implementation before the sparse/warm swap; the makespans re-captured
/// when LST started from the LPT vertex and returned the better of its
/// rounding and the LPT schedule).
#[test]
fn golden_two_approx_smp_cmp_unchanged() {
    for (seed, want_t, want_mk) in [(17u64, 13u64, 14i64), (29, 10, 10)] {
        let inst = random::smp_cmp_instance(&[2, 2], 10, 1, 10, 25, &mut rng(seed));
        let a = two_approx_with(&inst, TwoApproxMethod::DirectSingleton);
        let b = two_approx_with(&inst, TwoApproxMethod::PushDown);
        for (label, res) in [("direct", &a), ("pushdown", &b)] {
            assert_eq!(res.t_star, want_t, "t* drifted: seed {seed} ({label})");
            assert_eq!(
                res.makespan,
                Q::from(want_mk as u64),
                "makespan drifted: seed {seed} ({label})"
            );
        }
    }
}

/// Example V.1 at scale: the gap series is exactly (n−1, 2n−3).
#[test]
fn gap_series_exact_values() {
    for n in [3usize, 5, 7] {
        let h = solve_exact(&paper::example_v_1(n), &ExactOptions::default()).unwrap();
        let u = solve_exact(&paper::example_v_1_unrelated(n), &ExactOptions::default()).unwrap();
        assert_eq!((h.t as usize, u.t as usize), (n - 1, 2 * n - 3));
    }
}
