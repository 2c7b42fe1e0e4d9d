//! Property-based tests for the exact LP/ILP solvers.

use lp::{solve_binary, BnbOptions, LinearProgram, LpStatus, MilpStatus, Relation};
use numeric::Q;
use proptest::prelude::*;

fn q(v: i64) -> Q {
    Q::from_int(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random box-bounded LPs, the simplex's reported optimum is (a) a
    /// feasible point and (b) no worse than any of a sample of feasible
    /// corner candidates.
    #[test]
    fn simplex_optimum_is_feasible_and_dominant(
        c1 in -5i64..5, c2 in -5i64..5,
        b1 in 1i64..10, b2 in 1i64..10, b3 in 2i64..12,
    ) {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(c1));
        lp.set_objective(1, q(c2));
        lp.add_constraint(vec![(0, q(1))], Relation::Le, q(b1));
        lp.add_constraint(vec![(1, q(1))], Relation::Le, q(b2));
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Le, q(b3));
        let sol = lp.solve();
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        prop_assert!(lp.is_feasible_point(&sol.values));
        // Enumerate candidate corners and check dominance.
        for (x, y) in [
            (0, 0), (b1, 0), (0, b2), (b1, b2),
            (b1, (b3 - b1).max(0)), ((b3 - b2).max(0), b2),
        ] {
            let cand = vec![q(x), q(y.min(b2))];
            if lp.is_feasible_point(&cand) {
                prop_assert!(
                    sol.objective_value <= lp.objective_at(&cand),
                    "corner ({x},{y}) beats reported optimum"
                );
            }
        }
    }

    /// Assignment polytopes (the shape of (IP-3)) always solve, and the
    /// vertex support bound holds: #positive vars ≤ #rows.
    #[test]
    fn assignment_polytope_vertex_support(
        n in 1usize..6,
        m in 1usize..4,
        caps in proptest::collection::vec(3u64..30, 4),
        times in proptest::collection::vec(1u64..6, 24),
    ) {
        let nv = n * m;
        let mut lp = LinearProgram::new(nv);
        for j in 0..n {
            let coeffs: Vec<(usize, Q)> =
                (0..m).map(|i| (j * m + i, Q::one())).collect();
            lp.add_constraint(coeffs, Relation::Eq, Q::one());
        }
        for i in 0..m {
            let coeffs: Vec<(usize, Q)> = (0..n)
                .map(|j| (j * m + i, Q::from(times[(j * m + i) % times.len()])))
                .collect();
            // Generous capacity (times < 6, so 6n always fits even if one
            // machine takes every job) — keeps the system feasible while
            // still activating the rows at a vertex.
            lp.add_constraint(
                coeffs,
                Relation::Le,
                Q::from((6 + caps[i % caps.len()] / 30) * n as u64),
            );
        }
        let sol = lp.solve();
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        let positive = sol.values.iter().filter(|v| v.is_positive()).count();
        prop_assert!(positive <= n + m, "vertex support {positive} > rows {}", n + m);
        // Assignment rows hold exactly.
        for j in 0..n {
            let total: Q = Q::sum(
                (0..m).map(|i| &sol.values[j * m + i]),
            );
            prop_assert_eq!(total, Q::one());
        }
    }

    /// Branch-and-bound agrees with brute force on tiny knapsacks.
    #[test]
    fn bnb_matches_bruteforce(
        weights in proptest::collection::vec(1u64..8, 1..6),
        values in proptest::collection::vec(1i64..9, 6),
        cap in 3u64..16,
    ) {
        let k = weights.len();
        let mut lp = LinearProgram::new(k);
        for (i, w) in weights.iter().enumerate() {
            lp.set_objective(i, q(-values[i % values.len()]));
            let _ = w;
        }
        lp.add_constraint(
            weights.iter().enumerate().map(|(i, &w)| (i, Q::from(w))),
            Relation::Le,
            Q::from(cap),
        );
        let sol = solve_binary(&lp, &(0..k).collect::<Vec<_>>(), &BnbOptions::default());
        prop_assert_eq!(sol.status, MilpStatus::Optimal);
        // Brute force.
        let mut best = 0i64;
        for mask in 0u32..(1 << k) {
            let w: u64 = (0..k).filter(|&i| mask >> i & 1 == 1).map(|i| weights[i]).sum();
            if w <= cap {
                let v: i64 =
                    (0..k).filter(|&i| mask >> i & 1 == 1).map(|i| values[i % values.len()]).sum();
                best = best.max(v);
            }
        }
        prop_assert_eq!(sol.objective, q(-best));
    }

    /// Feasibility is monotone in the capacity: relaxing a ≤-constraint
    /// never turns a feasible LP infeasible.
    #[test]
    fn relaxation_monotonicity(
        a in 1i64..6, b in 1i64..6, rhs in 1i64..10, extra in 0i64..10,
    ) {
        let build = |r: i64| {
            let mut lp = LinearProgram::new(2);
            lp.add_constraint(vec![(0, q(a)), (1, q(b))], Relation::Ge, q(rhs));
            lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Le, q(r));
            lp
        };
        let tight = build(rhs).solve().status;
        let loose = build(rhs + extra).solve().status;
        if tight == LpStatus::Optimal {
            prop_assert_eq!(loose, LpStatus::Optimal);
        }
    }
}
