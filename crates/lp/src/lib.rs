//! Exact linear programming over rationals.
//!
//! The paper's algorithmic pipeline (Sections V–VI) needs three LP
//! capabilities, all provided here with *exact* rational arithmetic:
//!
//! 1. **Feasibility / optimization of LPs** — the relaxations of (IP-1),
//!    (IP-2), (IP-3), (IP-4) solved inside the binary search on the
//!    makespan `T` (two-phase primal [`simplex`](LinearProgram::solve)).
//! 2. **Vertex (basic feasible) solutions** — the Lenstra–Shmoys–Tardos
//!    rounding (Theorem V.2) and the iterative rounding schemes
//!    (Theorem VI.1, Lemma VI.2) rely on the combinatorial structure of a
//!    *vertex* of the feasible region: at a basic solution the number of
//!    positive variables is at most the number of rows. The simplex
//!    method terminates at such a basic solution by construction, and
//!    [`LpSolution::basis`] exposes it.
//! 3. **Exact 0/1 optima** — the approximation-ratio experiments compare
//!    against the true integral optimum, computed by a small
//!    branch-and-bound solver ([`solve_binary`]) that prunes with the LP
//!    bound.
//!
//! Bland's pivoting rule guarantees termination even on the (highly
//! degenerate) scheduling polytopes that arise from pruned assignment
//! constraints.
//!
//! Two production solvers sit behind one options struct
//! ([`SolveOptions`]): the exact [revised simplex](crate::Solver::Revised)
//! against an LU-factorized basis with eta updates (the default), and the
//! certified [float→exact hybrid](crate::Solver::Hybrid). Both run one
//! simplex core — its factorization, pivot rules and drivers — written
//! once over the arithmetic: exact `Q` for the revised solver, `f64` for
//! the hybrid's proposer, whose every answer is certified exactly. The
//! revised solver is pivot-identical to the dense tableau kept as a
//! test-only differential oracle ([`LinearProgram::solve_dense`]). Warm
//! starts ([`LinearProgram::solve_warm`], [`WarmCache`]) re-solve related
//! programs from a previous basis — the hot path of every binary search
//! on the horizon `T`.

mod bnb;
mod factor;
mod hybrid;
mod problem;
mod revised;
mod simplex;

pub use bnb::{solve_binary, BnbOptions, MilpSolution, MilpStatus};
pub use problem::{LinearProgram, Relation};
pub use revised::{
    BudgetError, FallbackReasons, Pricing, RevisedStats, SolveBudget, SolveOptions, Solver,
    WarmCache,
};
pub use simplex::{LpSolution, LpStatus};

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::Q;

    fn q(v: i64) -> Q {
        Q::from_int(v)
    }

    fn qr(p: i64, d: i64) -> Q {
        Q::ratio(p, d)
    }

    /// min -x - y  s.t.  x + y <= 4, x <= 2, y <= 3  → opt -4 at a vertex.
    #[test]
    fn small_lp_optimum() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(-1));
        lp.set_objective(1, q(-1));
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Le, q(4));
        lp.add_constraint(vec![(0, q(1))], Relation::Le, q(2));
        lp.add_constraint(vec![(1, q(1))], Relation::Le, q(3));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective_value, q(-4));
        assert_eq!(sol.values[0].clone() + sol.values[1].clone(), q(4));
    }

    /// Equality constraints force a unique solution.
    #[test]
    fn equality_system() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Eq, q(10));
        lp.add_constraint(vec![(0, q(1)), (1, q(-1))], Relation::Eq, q(2));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], q(6));
        assert_eq!(sol.values[1], q(4));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(vec![(0, q(1))], Relation::Ge, q(5));
        lp.add_constraint(vec![(0, q(1))], Relation::Le, q(3));
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(-1)); // min -x with x >= 0 is unbounded below
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn fractional_vertex() {
        // min x+y s.t. 2x + y >= 3, x + 3y >= 4 → intersection (1, 1).
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(1));
        lp.set_objective(1, q(1));
        lp.add_constraint(vec![(0, q(2)), (1, q(1))], Relation::Ge, q(3));
        lp.add_constraint(vec![(0, q(1)), (1, q(3))], Relation::Ge, q(4));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective_value, q(2));
        assert_eq!(sol.values[0], q(1));
        assert_eq!(sol.values[1], q(1));
    }

    #[test]
    fn rational_coefficients() {
        // min x s.t. (1/3)x >= 5/2 → x = 15/2.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(1));
        lp.add_constraint(vec![(0, qr(1, 3))], Relation::Ge, qr(5, 2));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], qr(15, 2));
    }

    /// Beale's classic degenerate LP cycles under naive pivoting; Bland's
    /// rule must terminate at the optimum.
    #[test]
    fn degenerate_terminates() {
        let mut lp = LinearProgram::new(4);
        lp.set_objective(0, qr(-3, 4));
        lp.set_objective(1, q(150));
        lp.set_objective(2, qr(-1, 50));
        lp.set_objective(3, q(6));
        lp.add_constraint(
            vec![(0, qr(1, 4)), (1, q(-60)), (2, qr(-1, 25)), (3, q(9))],
            Relation::Le,
            q(0),
        );
        lp.add_constraint(
            vec![(0, qr(1, 2)), (1, q(-90)), (2, qr(-1, 50)), (3, q(3))],
            Relation::Le,
            q(0),
        );
        lp.add_constraint(vec![(2, q(1))], Relation::Le, q(1));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective_value, qr(-1, 20));
    }

    /// Vertex property used by LST rounding: at a basic optimal solution the
    /// number of positive structural variables is at most the row count.
    #[test]
    fn vertex_support_bound() {
        let mut lp = LinearProgram::new(6);
        // 3 jobs each split across 2 machines + 2 machine capacities.
        for j in 0..3 {
            lp.add_constraint(vec![(2 * j, q(1)), (2 * j + 1, q(1))], Relation::Eq, q(1));
        }
        lp.add_constraint(vec![(0, q(3)), (2, q(2)), (4, q(5))], Relation::Le, q(4));
        lp.add_constraint(vec![(1, q(2)), (3, q(4)), (5, q(1))], Relation::Le, q(4));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        let positive = sol.values.iter().filter(|v| v.is_positive()).count();
        assert!(positive <= 5, "vertex has at most #rows positive vars");
    }
}
