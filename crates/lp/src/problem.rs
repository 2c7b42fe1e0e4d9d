//! LP model builder.
//!
//! All variables are implicitly nonnegative, which matches every program in
//! the paper ((IP-1)…(IP-4) and their relaxations are assignment/packing
//! programs over `x ≥ 0`).

use numeric::Q;

/// Direction of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

impl Relation {
    /// The relation after multiplying both sides by −1.
    pub(crate) fn flipped(self) -> Relation {
        match self {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        }
    }
}

/// One linear constraint in sparse form.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices must be `< num_vars`.
    pub coeffs: Vec<(usize, Q)>,
    /// Constraint direction.
    pub rel: Relation,
    /// Right-hand side.
    pub rhs: Q,
}

/// A linear program `min c·x  s.t.  constraints, x ≥ 0`.
///
/// Build with [`LinearProgram::new`], [`set_objective`](Self::set_objective)
/// and [`add_constraint`](Self::add_constraint); solve with
/// [`solve`](Self::solve) (exact two-phase simplex, Bland's rule).
#[derive(Clone, Debug)]
pub struct LinearProgram {
    pub(crate) num_vars: usize,
    pub(crate) objective: Vec<Q>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// A program over `num_vars` nonnegative variables with zero objective
    /// (i.e. a pure feasibility problem until an objective is set).
    pub fn new(num_vars: usize) -> Self {
        LinearProgram { num_vars, objective: vec![Q::zero(); num_vars], constraints: Vec::new() }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Set the objective coefficient of variable `var` (minimization).
    pub fn set_objective(&mut self, var: usize, coeff: Q) {
        assert!(var < self.num_vars, "objective var out of range");
        self.objective[var] = coeff;
    }

    /// Append the constraint `Σ coeffs · x  rel  rhs`.
    ///
    /// Repeated indices in `coeffs` are summed.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, Q)>, rel: Relation, rhs: Q) {
        for (idx, _) in &coeffs {
            assert!(*idx < self.num_vars, "constraint var {idx} out of range");
        }
        self.constraints.push(Constraint { coeffs, rel, rhs });
    }

    /// Evaluate the objective at a point.
    pub fn objective_at(&self, x: &[Q]) -> Q {
        assert_eq!(x.len(), self.num_vars);
        let mut acc = Q::zero();
        for (c, v) in self.objective.iter().zip(x) {
            if !c.is_zero() && !v.is_zero() {
                acc += c.clone() * v.clone();
            }
        }
        acc
    }

    /// Check whether a point satisfies every constraint exactly
    /// (including nonnegativity). Used by tests and by the rounding code
    /// to validate intermediate solutions.
    pub fn is_feasible_point(&self, x: &[Q]) -> bool {
        if x.len() != self.num_vars || x.iter().any(|v| v.is_negative()) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let mut lhs = Q::zero();
            for (idx, coef) in &c.coeffs {
                if !coef.is_zero() && !x[*idx].is_zero() {
                    lhs += coef.clone() * x[*idx].clone();
                }
            }
            match c.rel {
                Relation::Le => lhs <= c.rhs,
                Relation::Ge => lhs >= c.rhs,
                Relation::Eq => lhs == c.rhs,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: i64) -> Q {
        Q::from_int(v)
    }

    #[test]
    fn builder_counts() {
        let mut lp = LinearProgram::new(3);
        assert_eq!(lp.num_vars(), 3);
        lp.add_constraint(vec![(0, q(1)), (2, q(2))], Relation::Le, q(5));
        assert_eq!(lp.num_constraints(), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_var_rejected() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(2, q(1))], Relation::Le, q(1));
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Eq, q(2));
        lp.add_constraint(vec![(0, q(1))], Relation::Le, q(1));
        assert!(lp.is_feasible_point(&[q(1), q(1)]));
        assert!(!lp.is_feasible_point(&[q(2), q(0)]));
        assert!(!lp.is_feasible_point(&[q(3), q(-1)]));
        assert!(!lp.is_feasible_point(&[q(1)]));
    }

    #[test]
    fn objective_evaluation() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(2));
        lp.set_objective(1, q(-1));
        assert_eq!(lp.objective_at(&[q(3), q(4)]), q(2));
    }
}
