//! Solution types, and the dense two-phase tableau kept as a test-only
//! differential oracle.
//!
//! The dense tableau ([`LinearProgram::solve_dense`]) stores `B⁻¹A` in
//! full and is far too slow for production sizes; it exists because it
//! is the most obviously correct implementation of exact two-phase
//! simplex with Bland's rule. The production revised solver is
//! pivot-identical to it (same assembly, same entering rule, same ratio
//! tie-break), and the differential suites pin status, objective,
//! vertex, and basis against it. Every pivot keeps the basis columns as
//! an exact identity, so the returned solution is a *basic feasible
//! solution* — a vertex of the polyhedron. This is load-bearing for the
//! callers: the Lenstra–Shmoys–Tardos rounding and the iterative
//! rounding lemmas count positive variables against tight rows at a
//! vertex.

use numeric::Q;

use crate::problem::{LinearProgram, Relation};

/// Outcome of an LP solve.
#[non_exhaustive]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

/// Result of an LP solve.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Solve outcome; `values`/`objective_value` are meaningful only when
    /// this is [`LpStatus::Optimal`].
    pub status: LpStatus,
    /// Objective value `c·x` at the returned point.
    pub objective_value: Q,
    /// Values of the structural variables (length = `num_vars`).
    pub values: Vec<Q>,
    /// For each surviving row, the internal column index of its basic
    /// variable. Structural variables occupy columns `0..num_vars`;
    /// larger indices are slack/surplus columns. Exposed so that rounding
    /// code can reason about the vertex structure.
    pub basis: Vec<usize>,
    /// Number of structural variables (prefix of the column space).
    pub num_structural: usize,
}

impl LpSolution {
    pub(crate) fn failed(status: LpStatus, num_vars: usize) -> Self {
        LpSolution {
            status,
            objective_value: Q::zero(),
            values: vec![Q::zero(); num_vars],
            basis: Vec::new(),
            num_structural: num_vars,
        }
    }
}

struct Tableau {
    /// `rows[i]` has `cols` entries.
    rows: Vec<Vec<Q>>,
    /// Right-hand sides, invariant: `b[i] ≥ 0`.
    b: Vec<Q>,
    /// Basic column per row; that column is an identity column.
    basis: Vec<usize>,
    cols: usize,
}

impl Tableau {
    /// Pivot on `(row, col)`: make column `col` the identity column of `row`.
    fn pivot(&mut self, row: usize, col: usize) {
        let piv = self.rows[row][col].clone();
        debug_assert!(piv.is_positive(), "pivot element must be positive");
        if !piv.is_one_like() {
            let inv = piv.recip();
            for v in self.rows[row].iter_mut() {
                if !v.is_zero() {
                    *v = v.clone() * inv.clone();
                }
            }
            self.b[row] = self.b[row].clone() * inv;
        }
        let pivot_row = self.rows[row].clone();
        let pivot_b = self.b[row].clone();
        for k in 0..self.rows.len() {
            if k == row {
                continue;
            }
            let factor = self.rows[k][col].clone();
            if factor.is_zero() {
                continue;
            }
            for j in 0..self.cols {
                if !pivot_row[j].is_zero() {
                    let delta = factor.clone() * pivot_row[j].clone();
                    self.rows[k][j] = self.rows[k][j].clone() - delta;
                }
            }
            self.b[k] = self.b[k].clone() - factor * pivot_b.clone();
        }
        self.basis[row] = col;
    }
}

/// Convenience trait: `1` test without constructing a fresh rational.
trait IsOneLike {
    fn is_one_like(&self) -> bool;
}

impl IsOneLike for Q {
    fn is_one_like(&self) -> bool {
        self.is_one()
    }
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
}

/// Run simplex minimizing `cost` (dense over all tableau columns), entering
/// only columns `j` with `allowed(j)`. Bland's rule throughout.
fn run_phase(t: &mut Tableau, cost: &[Q], allowed: &dyn Fn(usize) -> bool) -> PhaseOutcome {
    // Reduced cost row r[j] = c[j] - c_B · A_j, maintained incrementally.
    let mut r: Vec<Q> = cost.to_vec();
    for (i, &bcol) in t.basis.iter().enumerate() {
        let cb = cost[bcol].clone();
        if cb.is_zero() {
            continue;
        }
        for j in 0..t.cols {
            if !t.rows[i][j].is_zero() {
                r[j] = r[j].clone() - cb.clone() * t.rows[i][j].clone();
            }
        }
    }
    loop {
        // Bland: entering = smallest allowed index with negative reduced cost.
        let mut enter = None;
        for j in 0..t.cols {
            if allowed(j) && r[j].is_negative() {
                enter = Some(j);
                break;
            }
        }
        let Some(enter) = enter else {
            return PhaseOutcome::Optimal;
        };
        // Ratio test; Bland tie-break on smallest basic column index.
        let mut leave: Option<(usize, Q)> = None;
        for i in 0..t.rows.len() {
            let a = &t.rows[i][enter];
            if !a.is_positive() {
                continue;
            }
            let ratio = t.b[i].clone() / a.clone();
            match &leave {
                None => leave = Some((i, ratio)),
                Some((best_i, best)) => {
                    if ratio < *best || (ratio == *best && t.basis[i] < t.basis[*best_i]) {
                        leave = Some((i, ratio));
                    }
                }
            }
        }
        let Some((leave_row, _)) = leave else {
            return PhaseOutcome::Unbounded;
        };
        t.pivot(leave_row, enter);
        // Update reduced costs: r -= r[enter] * (pivoted row of `leave_row`).
        let factor = r[enter].clone();
        if !factor.is_zero() {
            for j in 0..t.cols {
                if !t.rows[leave_row][j].is_zero() {
                    r[j] = r[j].clone() - factor.clone() * t.rows[leave_row][j].clone();
                }
            }
        }
    }
}

impl LinearProgram {
    /// Solve with the dense two-phase tableau. **Test-only**: this is
    /// the differential oracle the production solvers are pinned
    /// against, not a production path — it is `O(rows × cols)` per
    /// pivot. Use [`solve`](Self::solve) or
    /// [`solve_with`](Self::solve_with).
    pub fn solve_dense(&self) -> LpSolution {
        let n = self.num_vars;
        let m = self.num_constraints();

        // --- Assemble rows with nonnegative right-hand sides. -----------
        // rel is tracked post-normalization.
        let mut dense_rows: Vec<Vec<Q>> = Vec::with_capacity(m);
        let mut rels: Vec<Relation> = Vec::with_capacity(m);
        let mut rhs: Vec<Q> = Vec::with_capacity(m);
        for i in 0..m {
            let mut row = vec![Q::zero(); n];
            for (idx, coef) in self.row(i) {
                row[*idx] = coef.clone();
            }
            let (c_rel, c_rhs) = self.bound(i);
            let (row, rel, b) = if c_rhs.is_negative() {
                (row.into_iter().map(|v| -v).collect(), c_rel.flipped(), -c_rhs.clone())
            } else {
                (row, c_rel, c_rhs.clone())
            };
            dense_rows.push(row);
            rels.push(rel);
            rhs.push(b);
        }

        // --- Column layout: structural | slacks/surplus | artificials. --
        let n_slack = rels.iter().filter(|r| !matches!(r, Relation::Eq)).count();
        let slack_start = n;
        let art_start = n + n_slack;
        // Artificial needed for Ge and Eq rows.
        let n_art = rels.iter().filter(|r| matches!(r, Relation::Ge | Relation::Eq)).count();
        let cols = art_start + n_art;

        let mut t =
            Tableau { rows: Vec::with_capacity(m), b: rhs, basis: vec![usize::MAX; m], cols };
        let mut next_slack = slack_start;
        let mut next_art = art_start;
        for (i, row) in dense_rows.into_iter().enumerate() {
            let mut full = row;
            full.resize(cols, Q::zero());
            match rels[i] {
                Relation::Le => {
                    full[next_slack] = Q::one();
                    t.basis[i] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    full[next_slack] = -Q::one();
                    next_slack += 1;
                    full[next_art] = Q::one();
                    t.basis[i] = next_art;
                    next_art += 1;
                }
                Relation::Eq => {
                    full[next_art] = Q::one();
                    t.basis[i] = next_art;
                    next_art += 1;
                }
            }
            t.rows.push(full);
        }

        // --- Phase 1: minimize sum of artificials. -----------------------
        if n_art > 0 {
            let mut phase1_cost = vec![Q::zero(); cols];
            for c in phase1_cost.iter_mut().skip(art_start) {
                *c = Q::one();
            }
            match run_phase(&mut t, &phase1_cost, &|_| true) {
                PhaseOutcome::Unbounded => {
                    unreachable!("phase-1 objective is bounded below by 0")
                }
                PhaseOutcome::Optimal => {}
            }
            let infeas: Q = Q::sum(
                t.basis.iter().enumerate().filter(|(_, &b)| b >= art_start).map(|(i, _)| &t.b[i]),
            );
            if infeas.is_positive() {
                return LpSolution::failed(LpStatus::Infeasible, n);
            }
            // Drive remaining (degenerate, zero-valued) artificials out of
            // the basis, or delete redundant rows.
            let mut i = 0;
            while i < t.rows.len() {
                if t.basis[i] >= art_start {
                    debug_assert!(t.b[i].is_zero());
                    let piv_col = (0..art_start).find(|&j| !t.rows[i][j].is_zero());
                    match piv_col {
                        Some(j) => {
                            // Entry may be negative; negate the row first so
                            // the pivot element is positive (b[i] = 0, so the
                            // sign flip keeps b nonnegative).
                            if t.rows[i][j].is_negative() {
                                for v in t.rows[i].iter_mut() {
                                    if !v.is_zero() {
                                        *v = -v.clone();
                                    }
                                }
                            }
                            t.pivot(i, j);
                            i += 1;
                        }
                        None => {
                            // Row is zero on every real column: redundant.
                            t.rows.remove(i);
                            t.b.remove(i);
                            t.basis.remove(i);
                        }
                    }
                } else {
                    i += 1;
                }
            }
            // Physically drop artificial columns.
            for row in t.rows.iter_mut() {
                row.truncate(art_start);
            }
            t.cols = art_start;
        }

        // --- Phase 2: minimize the real objective. -----------------------
        let mut cost = self.objective.clone();
        cost.resize(t.cols, Q::zero());
        if let PhaseOutcome::Unbounded = run_phase(&mut t, &cost, &|_| true) {
            return LpSolution::failed(LpStatus::Unbounded, n);
        }

        // --- Extract structural values. ----------------------------------
        let mut values = vec![Q::zero(); n];
        for (i, &bcol) in t.basis.iter().enumerate() {
            if bcol < n {
                values[bcol] = t.b[i].clone();
            }
        }
        let objective_value = self.objective_at(&values);
        LpSolution {
            status: LpStatus::Optimal,
            objective_value,
            values,
            basis: t.basis,
            num_structural: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: i64) -> Q {
        Q::from_int(v)
    }

    #[test]
    fn trivial_feasibility_no_constraints() {
        let lp = LinearProgram::new(3);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.values.iter().all(|v| v.is_zero()));
    }

    #[test]
    fn negative_rhs_normalization() {
        // -x <= -3  ⇔  x >= 3
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(1));
        lp.add_constraint(vec![(0, q(-1))], Relation::Le, q(-3));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], q(3));
    }

    #[test]
    fn redundant_equalities_ok() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Eq, q(4));
        lp.add_constraint(vec![(0, q(2)), (1, q(2))], Relation::Eq, q(8));
        lp.set_objective(0, q(1));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0].clone() + sol.values[1].clone(), q(4));
        assert_eq!(sol.objective_value, q(0));
    }

    #[test]
    fn zero_rhs_equality() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(-1))], Relation::Eq, q(0));
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Ge, q(2));
        lp.set_objective(0, q(1));
        lp.set_objective(1, q(1));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], q(1));
        assert_eq!(sol.values[1], q(1));
    }

    #[test]
    fn duplicate_indices_summed() {
        // (1+2)x <= 6 → x <= 2
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(-1));
        lp.add_constraint(vec![(0, q(1)), (0, q(2))], Relation::Le, q(6));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], q(2));
    }

    #[test]
    fn basis_is_identity_vertex() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(-2));
        lp.set_objective(1, q(-3));
        lp.add_constraint(vec![(0, q(1)), (1, q(2))], Relation::Le, q(14));
        lp.add_constraint(vec![(0, q(3)), (1, q(-1))], Relation::Ge, q(0));
        lp.add_constraint(vec![(0, q(1)), (1, q(-1))], Relation::Le, q(2));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], q(6));
        assert_eq!(sol.values[1], q(4));
        // Two structural variables positive → both must be basic.
        assert!(sol.basis.contains(&0) && sol.basis.contains(&1));
    }
}
