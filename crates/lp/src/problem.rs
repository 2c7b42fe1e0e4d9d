//! LP model builder.
//!
//! All variables are implicitly nonnegative, which matches every program in
//! the paper ((IP-1)…(IP-4) and their relaxations are assignment/packing
//! programs over `x ≥ 0`). Constraints are kept in one flat row store,
//! each row normalized once when it is added, which every solver reads
//! as is.

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

/// A linear program `min c·x  s.t.  constraints, x ≥ 0`.
///
/// Build with [`LinearProgram::new`], [`set_objective`](Self::set_objective)
/// and [`add_constraint`](Self::add_constraint); solve with
/// [`solve`](Self::solve) (exact two-phase simplex, Bland's rule).
///
/// The constraints live in one flat row store: row `i`'s entries are
/// `entries[starts[i]..starts[i + 1]]`, normalized at insertion (sorted
/// by variable, each variable once, no zero coefficient), next to the
/// row's relation and right-hand side.
#[derive(Clone, Debug)]
pub struct LinearProgram {
    pub(crate) num_vars: usize,
    pub(crate) objective: Vec<Q>,
    starts: Vec<usize>,
    entries: Vec<(usize, Q)>,
    rels: Vec<Relation>,
    rhs: Vec<Q>,
}

impl LinearProgram {
    /// A program over `num_vars` nonnegative variables with zero objective
    /// (i.e. a pure feasibility problem until an objective is set).
    pub fn new(num_vars: usize) -> Self {
        // Built value by value: `vec![Q::zero(); n]` clones through a call
        // per value, several times slower on the rounding LP's hot path.
        let mut objective = Vec::new();
        objective.resize_with(num_vars, Q::zero);
        LinearProgram {
            num_vars,
            objective,
            starts: vec![0],
            // Room for an assignment program, each variable in two rows,
            // so that building one never copies the arena.
            entries: Vec::with_capacity(2 * num_vars),
            rels: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rels.len()
    }

    /// Set the objective coefficient of variable `var` (minimization).
    pub fn set_objective(&mut self, var: usize, coeff: Q) {
        assert!(var < self.num_vars, "objective var out of range");
        self.objective[var] = coeff;
    }

    /// Append the constraint `Σ coeffs · x  rel  rhs`.
    ///
    /// The row is normalized once, here: its entries are sorted by
    /// variable, repeated indices are summed, and zero coefficients
    /// (given, or summed to zero) are dropped. A row that arrives sorted
    /// and free of repeated indices costs one check pass.
    pub fn add_constraint<I>(&mut self, coeffs: I, rel: Relation, rhs: Q)
    where
        I: IntoIterator<Item = (usize, Q)>,
    {
        let start = self.entries.len();
        // Strictly ascending so far: `next` is the least index that keeps it so.
        let (mut sorted, mut next) = (true, 0);
        for (idx, coef) in coeffs {
            assert!(idx < self.num_vars, "constraint var {idx} out of range");
            if coef.is_zero() {
                continue;
            }
            sorted &= idx >= next;
            next = idx + 1;
            self.entries.push((idx, coef));
        }
        if !sorted {
            normalize_row(&mut self.entries, start);
        }
        self.starts.push(self.entries.len());
        self.rels.push(rel);
        self.rhs.push(rhs);
    }

    /// Row `i`'s entries: ascending variables, nonzero coefficients.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[(usize, Q)] {
        &self.entries[self.starts[i]..self.starts[i + 1]]
    }

    /// Row `i`'s relation and right-hand side.
    #[inline]
    pub(crate) fn bound(&self, i: usize) -> (Relation, &Q) {
        (self.rels[i], &self.rhs[i])
    }

    /// Every row's entries, one flat slice in row order.
    pub(crate) fn entries(&self) -> &[(usize, Q)] {
        &self.entries
    }

    /// The coefficient of variable `var` in row `i` (`None`: zero), by a
    /// binary search of the sorted row.
    pub(crate) fn coef(&self, i: usize, var: usize) -> Option<&Q> {
        let row = self.row(i);
        row.binary_search_by_key(&var, |e| e.0).ok().map(|k| &row[k].1)
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
        (0..self.num_constraints()).all(|i| {
            let mut lhs = Q::zero();
            for (idx, coef) in self.row(i) {
                if !x[*idx].is_zero() {
                    lhs += coef.clone() * x[*idx].clone();
                }
            }
            let (rel, rhs) = self.bound(i);
            match rel {
                Relation::Le => lhs <= *rhs,
                Relation::Ge => lhs >= *rhs,
                Relation::Eq => lhs == *rhs,
            }
        })
    }
}

/// Normalize the nonzero entries `entries[start..]` of one row in place:
/// sort them by variable, sum each variable's entries, and drop the sums
/// that vanish.
fn normalize_row(entries: &mut Vec<(usize, Q)>, start: usize) {
    entries[start..].sort_unstable_by_key(|e| e.0);
    // `entries[start..w]` is the normalized prefix; its last entry may
    // still be accumulating.
    let mut w = start;
    for r in start..entries.len() {
        if w > start && entries[w - 1].0 == entries[r].0 {
            let v = std::mem::take(&mut entries[r].1);
            entries[w - 1].1 += v;
            continue;
        }
        if w > start && entries[w - 1].1.is_zero() {
            w -= 1;
        }
        entries.swap(w, r);
        w += 1;
    }
    if w > start && entries[w - 1].1.is_zero() {
        w -= 1;
    }
    entries.truncate(w);
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

    /// Rows normalize at insertion: sorted by variable, repeated indices
    /// summed, zero coefficients (given or summed) dropped; a clean row is
    /// kept as given, and the relation and right-hand side follow the row.
    #[test]
    fn rows_normalize_at_insertion() {
        let mut lp = LinearProgram::new(5);
        lp.add_constraint(
            vec![(3, q(2)), (1, q(0)), (0, q(4)), (3, q(-2)), (2, q(1)), (0, q(1)), (4, q(7))],
            Relation::Ge,
            q(-1),
        );
        lp.add_constraint(vec![(1, q(1)), (4, q(3))], Relation::Eq, q(2));
        lp.add_constraint(vec![(2, q(5)), (2, q(-5))], Relation::Le, q(0));
        assert_eq!(lp.num_constraints(), 3);
        assert_eq!(lp.row(0), &[(0, q(5)), (2, q(1)), (4, q(7))][..]);
        assert_eq!(lp.bound(0), (Relation::Ge, &q(-1)));
        assert_eq!(lp.row(1), &[(1, q(1)), (4, q(3))][..]);
        assert_eq!(lp.bound(1), (Relation::Eq, &q(2)));
        assert!(lp.row(2).is_empty(), "a row that cancels is empty");
        assert_eq!(lp.coef(0, 2), Some(&q(1)));
        assert_eq!(lp.coef(0, 3), None);
        assert_eq!(lp.entries().len(), 5);
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
