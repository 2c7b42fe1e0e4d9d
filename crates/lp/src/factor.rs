//! Factorized representation of a simplex basis, over either arithmetic
//! of the simplex core ([`Scalar`]).
//!
//! The revised simplex ([`revised`](crate::revised)) never maintains a
//! transformed tableau. Instead it keeps the basis inverse `B⁻¹` in
//! *product form*: a sequence of elementary eta matrices produced by a
//! Gaussian elimination of the basis columns (the (re)factorization —
//! the analogue of an LU factor), followed by one eta per simplex pivot
//! since the last refactorization (the Bartels–Golub/Forrest–Tomlin-style
//! update file). Solves against the basis are
//!
//! * **FTRAN** — `x = B⁻¹ a` (the transformed entering column / the
//!   transformed right-hand side), applying the etas in order, and
//! * **BTRAN** — `y = B⁻ᵀ c` (the simplex multipliers used for pricing,
//!   and unit rows for the artificial-cleanup and dual-ratio scans),
//!   applying the transposed etas in reverse.
//!
//! Every elimination of a set of basis columns — the simplex core's
//! refactorization and its warm crash, in both arithmetics, and the
//! hybrid certifier's factorization — runs in one order,
//! [`Factorization::eliminate_basis`]: the triangular part of the set
//! first, found by peeling row singletons (Suhl & Suhl, "Computing sparse
//! LU factorizations for large-scale linear programming bases", ORSA J.
//! Computing 1990), then the remaining nucleus sparsest-first under the
//! scalar's pivot rule ([`Scalar::crash_pivot`]: a unit pivot exactly,
//! the largest magnitude in floats). A peeled column meets no earlier
//! pivot row, so its eta is the column itself: the assignment-shaped
//! bases of the paper's LPs, whose fractional part is a forest,
//! factorize with no fill at all. A singleton row's pivot is forced, so
//! the peel costs the float side no stability.
//!
//! In exact `Q` arithmetic a factorization is *only* a change of
//! representation, so refactorizing at any point cannot change any exact
//! value the simplex compares — the pivot path is independent of the
//! refactorization schedule (a unit test in `revised.rs` pins this).

use std::cmp::Ordering;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use numeric::Q;

/// A sparse vector over row slots: `(slot, value)` pairs, ascending.
pub(crate) type SVec = Vec<(usize, Q)>;

/// Sign, pivot and ratio-tie tolerance of the float proposer. Everything
/// the floats decide is re-checked exactly, so the only cost of a
/// misjudged sign is a fallback.
const EPS: f64 = 1e-9;

/// Feasibility threshold of the float warm repair's row filter. Looser
/// than [`EPS`]: between refreshes `x_B` drifts by more than the pivot
/// tolerance, and chasing that noise stalls the repair in hundreds of
/// degenerate pivots. A row that is *exactly* negative but above this
/// threshold makes the optimality certificate fail, which routes to the
/// exact fallback — correctness is unaffected.
const FEAS_EPS: f64 = 1e-7;

/// Float phase-1 infeasibility decision threshold (sum of artificials).
const EPS_INFEAS: f64 = 1e-7;

/// The arithmetic of the simplex core: exact `Q` for the revised solver
/// and the certifier, `f64` for the hybrid's proposer. Everything the two
/// instances do differently is one of these items — the tolerances
/// (exact zero for `Q`), the finiteness give-up (never for `Q`), the
/// transposed eta's zero skip, the nucleus pivot, and the
/// refactorization's trigger and drift reset.
pub(crate) trait Scalar:
    Clone
    + Default
    + PartialOrd
    + Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
{
    fn one() -> Self;
    fn from_q(v: &Q) -> Self;
    /// Exactly zero: the sparsity test.
    fn is_zero(&self) -> bool;
    /// Positive beyond the sign tolerance.
    fn above_tol(&self) -> bool;
    /// Negative beyond the sign tolerance.
    fn below_tol(&self) -> bool;
    /// Nonzero beyond the sign tolerance.
    #[inline]
    fn beyond_tol(&self) -> bool {
        self.above_tol() || self.below_tol()
    }
    /// `acc −= u·y`, the step of a transposed eta. Exactly, a zero `y` is
    /// skipped: a rational product costs more than the test. In floats
    /// every entry is multiplied: a branch per entry costs more than the
    /// product.
    fn sub_product(acc: &mut Self, u: &Self, y: &Self);
    /// A basic value the warm dual repair must raise.
    #[inline]
    fn needs_repair(&self) -> bool {
        self.below_tol()
    }
    /// A phase-1 sum of artificials that proves the program infeasible.
    #[inline]
    fn infeasible_sum(&self) -> bool {
        self.above_tol()
    }
    /// The ratio test's step from basic value `x` along pivot entry `u`.
    fn ratio(x: &Self, u: &Self) -> Self;
    /// Ratio `r` against the incumbent `best`: `Less` beats it, `Equal`
    /// ties (the smaller basic column wins).
    fn ratio_cmp(r: &Self, best: &Self) -> Ordering;
    /// False for a value the float proposer gives up on.
    fn is_finite(&self) -> bool;
    /// The pivot slot of a nucleus or completion column among the
    /// unpivoted entries of its transformed form `x`; `None` when the
    /// column is dependent.
    fn crash_pivot(x: &[Self], pivoted: &[bool]) -> Option<usize>;
    /// Whether the update file is due for a refactorization.
    fn refactor_due(f: &Factorization<Self>, r: Refactor) -> bool;
    /// After a refactorization: `Q` keeps `x_B`, which is exact, and
    /// `f64` recomputes `x_B = B⁻¹b`, the drift reset. False when the
    /// recomputed values are not finite.
    fn reset_drift(f: &Factorization<Self>, rhs: &[Self], xb: &mut Vec<Self>) -> bool;
}

impl Scalar for Q {
    #[inline]
    fn one() -> Self {
        Q::one()
    }
    #[inline]
    fn from_q(v: &Q) -> Self {
        v.clone()
    }
    #[inline]
    fn is_zero(&self) -> bool {
        Q::is_zero(self)
    }
    #[inline]
    fn above_tol(&self) -> bool {
        self.is_positive()
    }
    #[inline]
    fn below_tol(&self) -> bool {
        self.is_negative()
    }
    #[inline]
    fn sub_product(acc: &mut Self, u: &Self, y: &Self) {
        if !Q::is_zero(y) {
            *acc -= u.clone() * y.clone();
        }
    }
    #[inline]
    fn ratio(x: &Self, u: &Self) -> Self {
        x.clone() / u.clone()
    }
    #[inline]
    fn ratio_cmp(r: &Self, best: &Self) -> Ordering {
        r.cmp(best)
    }
    #[inline]
    fn is_finite(&self) -> bool {
        true
    }
    /// The first unit pivot (`±1`, no arithmetic in the eta), else the
    /// first nonzero.
    fn crash_pivot(x: &[Self], pivoted: &[bool]) -> Option<usize> {
        let mut pos = None;
        for (i, v) in x.iter().enumerate() {
            if pivoted[i] || Q::is_zero(v) {
                continue;
            }
            if v.is_one() || *v == -Q::one() {
                return Some(i);
            }
            pos = pos.or(Some(i));
        }
        pos
    }
    /// After `interval` updates, or when the update file's nonzeros
    /// exceed `fill_factor · (m + factorization nonzeros)`.
    fn refactor_due(f: &Factorization<Self>, r: Refactor) -> bool {
        f.update_count() >= r.interval || f.update_nnz() > r.fill_factor * (f.m + f.factor_nnz())
    }
    fn reset_drift(_: &Factorization<Self>, _: &[Self], _: &mut Vec<Self>) -> bool {
        true
    }
}

impl Scalar for f64 {
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_q(v: &Q) -> Self {
        v.to_f64()
    }
    #[inline]
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    #[inline]
    fn above_tol(&self) -> bool {
        *self > EPS
    }
    #[inline]
    fn below_tol(&self) -> bool {
        *self < -EPS
    }
    #[inline]
    fn sub_product(acc: &mut Self, u: &Self, y: &Self) {
        *acc -= u * y;
    }
    #[inline]
    fn needs_repair(&self) -> bool {
        *self < -FEAS_EPS
    }
    #[inline]
    fn infeasible_sum(&self) -> bool {
        *self > EPS_INFEAS
    }
    /// A basic value drifted below zero steps from zero.
    #[inline]
    fn ratio(x: &Self, u: &Self) -> Self {
        x.max(0.0) / u
    }
    #[inline]
    fn ratio_cmp(r: &Self, best: &Self) -> Ordering {
        if *r < best - EPS {
            Ordering::Less
        } else if (r - best).abs() <= EPS {
            Ordering::Equal
        } else {
            Ordering::Greater
        }
    }
    #[inline]
    fn is_finite(&self) -> bool {
        f64::is_finite(*self)
    }
    /// The largest magnitude above the tolerance: floats prefer
    /// stability over the exact side's unit pivots.
    fn crash_pivot(x: &[Self], pivoted: &[bool]) -> Option<usize> {
        let mut pos: Option<usize> = None;
        for (i, v) in x.iter().enumerate() {
            if pivoted[i] || v.abs() <= EPS {
                continue;
            }
            if pos.is_none_or(|p| v.abs() > x[p].abs()) {
                pos = Some(i);
            }
        }
        pos.filter(|&p| x[p].is_finite())
    }
    /// Every `interval` updates; the float file is never cut for fill.
    fn refactor_due(f: &Factorization<Self>, r: Refactor) -> bool {
        f.update_count() >= r.interval
    }
    fn reset_drift(f: &Factorization<Self>, rhs: &[Self], xb: &mut Vec<Self>) -> bool {
        xb.clear();
        xb.extend_from_slice(rhs);
        f.ftran_inplace(xb);
        xb.iter().all(|v| v.is_finite())
    }
}

/// Refactorization trigger of the simplex core. Crate-private: only the
/// representation-only test tightens it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Refactor {
    /// Refactorize after this many eta updates (pivot-count trigger).
    pub(crate) interval: usize,
    /// Refactorize when the update file's nonzeros exceed
    /// `fill_factor · (m + factorization nonzeros)` (fill trigger; exact
    /// arithmetic only).
    pub(crate) fill_factor: usize,
}

impl Default for Refactor {
    fn default() -> Self {
        Refactor { interval: 64, fill_factor: 4 }
    }
}

/// One elementary transformation `E⁻¹`: applying it to `x` performs
/// `x[pivot] ← x[pivot] / piv` followed by `x[i] ← x[i] − u[i] · x[pivot]`
/// for every stored off-pivot entry.
#[derive(Clone, Debug)]
struct Eta<S> {
    pivot: usize,
    /// The pivot entry `u[pivot]`.
    piv: S,
    /// Nonzero off-pivot entries of the pivot column `u`, ascending by
    /// slot.
    col: Vec<(usize, S)>,
}

impl<S: Scalar> Eta<S> {
    /// Forward application (`x ← E⁻¹ x`) on a dense vector.
    #[inline]
    fn apply(&self, x: &mut [S]) {
        if x[self.pivot].is_zero() {
            return;
        }
        let t = x[self.pivot].clone() / self.piv.clone();
        for (i, v) in &self.col {
            x[*i] -= v.clone() * t.clone();
        }
        x[self.pivot] = t;
    }

    /// Transposed application (`y ← E⁻ᵀ y`) on a dense vector: only the
    /// pivot component changes, to `(y_p − Σ_{i≠p} u_i y_i) / u_p`.
    #[inline]
    fn apply_transposed(&self, y: &mut [S]) {
        let mut acc = y[self.pivot].clone();
        for (i, v) in &self.col {
            S::sub_product(&mut acc, v, &y[*i]);
        }
        y[self.pivot] = acc / self.piv.clone();
    }
}

/// Product-form factorization of a basis: `B⁻¹ = U · P · F` where `F` is
/// the eta product from the last (re)factorization, `P` the row
/// permutation its pivot choices induced, and `U` the per-pivot update
/// etas appended since.
#[derive(Clone, Debug)]
pub(crate) struct Factorization<S = Q> {
    m: usize,
    /// Etas from the last refactorization, in application order.
    factor: Vec<Eta<S>>,
    /// `perm[slot]` = position the factorization pivots left that slot's
    /// value in; `None` while the factorization is the identity.
    perm: Option<Vec<usize>>,
    /// Update etas appended by simplex pivots, in application order.
    updates: Vec<Eta<S>>,
    /// Nonzeros of each file, pivot entries included.
    factor_nnz: usize,
    update_nnz: usize,
}

impl<S: Scalar> Factorization<S> {
    /// The identity basis (`B = I`): no etas at all.
    pub(crate) fn identity(m: usize) -> Self {
        Factorization {
            m,
            factor: Vec::new(),
            perm: None,
            updates: Vec::new(),
            factor_nnz: 0,
            update_nnz: 0,
        }
    }

    pub(crate) fn update_count(&self) -> usize {
        self.updates.len()
    }

    pub(crate) fn update_nnz(&self) -> usize {
        self.update_nnz
    }

    pub(crate) fn factor_nnz(&self) -> usize {
        self.factor_nnz
    }

    /// `x = B⁻¹ a` for a sparse `a`, written into `out` (resized dense).
    pub(crate) fn ftran_sparse(&self, a: &[(usize, S)], out: &mut Vec<S>) {
        out.clear();
        out.resize(self.m, S::default());
        for (i, v) in a {
            out[*i] = v.clone();
        }
        self.ftran_inplace(out);
    }

    /// `x ← B⁻¹ x` on an already-dense vector of length `m`.
    pub(crate) fn ftran_inplace(&self, x: &mut Vec<S>) {
        debug_assert_eq!(x.len(), self.m);
        for eta in &self.factor {
            eta.apply(x);
        }
        if let Some(perm) = &self.perm {
            let mut permuted = vec![S::default(); self.m];
            for (slot, &pos) in perm.iter().enumerate() {
                permuted[slot] = std::mem::take(&mut x[pos]);
            }
            *x = permuted;
        }
        for eta in &self.updates {
            eta.apply(x);
        }
    }

    /// `y ← B⁻ᵀ y` on a dense vector of length `m` (slot space in,
    /// constraint space out).
    pub(crate) fn btran_inplace(&self, y: &mut Vec<S>) {
        debug_assert_eq!(y.len(), self.m);
        for eta in self.updates.iter().rev() {
            eta.apply_transposed(y);
        }
        if let Some(perm) = &self.perm {
            let mut permuted = vec![S::default(); self.m];
            for (slot, &pos) in perm.iter().enumerate() {
                permuted[pos] = std::mem::take(&mut y[slot]);
            }
            *y = permuted;
        }
        for eta in self.factor.iter().rev() {
            eta.apply_transposed(y);
        }
    }

    /// Record a simplex pivot at `(slot, u)` where `u = B⁻¹ A_q` is the
    /// transformed entering column (dense). `u[slot]` must be nonzero.
    pub(crate) fn append_update(&mut self, slot: usize, u: &[S]) {
        debug_assert!(!u[slot].is_zero(), "pivot element must be nonzero");
        let eta = Self::eta_of(slot, u);
        self.update_nnz += eta.col.len() + 1;
        self.updates.push(eta);
    }

    /// Rebuild `F`/`P` from scratch out of the given basis columns
    /// (`cols[slot]` = the column basic in `slot`) in
    /// [`eliminate_basis`](Self::eliminate_basis)'s order, and clear the
    /// update file. `false` when the columns are (numerically) singular,
    /// which an exact pivot sequence can never produce.
    pub(crate) fn refactor<C: AsRef<[(usize, S)]>>(&mut self, cols: &[C]) -> bool {
        assert_eq!(cols.len(), self.m, "one basis column per row slot");
        self.factor.clear();
        self.updates.clear();
        self.perm = None;
        self.factor_nnz = 0;
        self.update_nnz = 0;
        self.perm = self.eliminate_basis(cols).into_iter().collect();
        self.perm.is_some()
    }

    /// Eliminate a set of columns into the still-empty factor file and
    /// return each column's pivot position, `None` for a column dependent
    /// on those eliminated before it (the crash skips it; for a basis it
    /// means singular). The one order of every refactorization, of the
    /// warm crash's hinted columns and of the certifier's basis, in both
    /// arithmetics.
    ///
    /// The order finds the triangular part of the set first (Suhl & Suhl,
    /// ORSA J. Computing 1990): while some row is touched by exactly one
    /// column not yet eliminated, that column pivots on that row. Every
    /// column eliminated later is zero on that row, so the peeled
    /// column's eta transforms no later column, and no earlier eta
    /// transformed it: it is stored as its own eta, with no arithmetic.
    /// (The float side leaves a singleton inside its pivot tolerance to
    /// the nucleus.) The remaining nucleus (zero on every peeled row) is
    /// then eliminated sparsest-first with
    /// [`eliminate`](Self::eliminate)'s pivot rule; only it can fill.
    pub(crate) fn eliminate_basis<C: AsRef<[(usize, S)]>>(
        &mut self,
        cols: &[C],
    ) -> Vec<Option<usize>> {
        debug_assert!(self.factor.is_empty() && self.perm.is_none() && self.updates.is_empty());
        let m = self.m;
        // Per row: how many uneliminated columns touch it, and the sum of
        // their indices, which is the column itself once the count is 1.
        let mut count = vec![0usize; m];
        let mut sum = vec![0usize; m];
        for (c, col) in cols.iter().enumerate() {
            for (i, v) in col.as_ref() {
                if !v.is_zero() {
                    count[*i] += 1;
                    sum[*i] += c;
                }
            }
        }
        let mut pos = vec![None; cols.len()];
        let mut pivoted = vec![false; m];
        let mut singletons: Vec<usize> = (0..m).filter(|&r| count[r] == 1).collect();
        while let Some(r) = singletons.pop() {
            if count[r] != 1 {
                continue;
            }
            let c = sum[r];
            let col = cols[c].as_ref();
            if !col.iter().any(|(i, v)| *i == r && v.beyond_tol()) {
                continue;
            }
            let mut piv = S::default();
            let mut off = Vec::new();
            for (i, v) in col.iter().filter(|(_, v)| !v.is_zero()) {
                count[*i] -= 1;
                sum[*i] -= c;
                if count[*i] == 1 {
                    singletons.push(*i);
                }
                if *i == r {
                    piv = v.clone();
                } else {
                    off.push((*i, v.clone()));
                }
            }
            self.push_factor(Eta { pivot: r, piv, col: off });
            pos[c] = Some(r);
            pivoted[r] = true;
        }
        let mut nucleus: Vec<usize> = (0..cols.len()).filter(|&c| pos[c].is_none()).collect();
        nucleus.sort_by_key(|&c| (cols[c].as_ref().len(), c));
        let mut x = Vec::new();
        for c in nucleus {
            pos[c] = self.eliminate(cols[c].as_ref(), &pivoted, &mut x);
            if let Some(p) = pos[c] {
                pivoted[p] = true;
            }
        }
        pos
    }

    /// One elimination step of the nucleus and of the crash's completion:
    /// apply the factor etas built so far to `col`, pick a pivot
    /// position among the still-unpivoted slots
    /// ([`Scalar::crash_pivot`]), append the eta, and return the chosen
    /// position — or `None` if the column is dependent on the
    /// already-eliminated ones.
    pub(crate) fn eliminate(
        &mut self,
        col: &[(usize, S)],
        pivoted: &[bool],
        x: &mut Vec<S>,
    ) -> Option<usize> {
        debug_assert!(self.perm.is_none() && self.updates.is_empty(), "crash-phase only");
        x.clear();
        x.resize(self.m, S::default());
        for (i, v) in col {
            x[*i] = v.clone();
        }
        for eta in &self.factor {
            eta.apply(x);
        }
        let pos = S::crash_pivot(x, pivoted)?;
        self.push_factor(Self::eta_of(pos, x));
        Some(pos)
    }

    /// The eta of a dense pivot column `u` pivoting on `slot`.
    fn eta_of(slot: usize, u: &[S]) -> Eta<S> {
        let col = u
            .iter()
            .enumerate()
            .filter(|&(i, v)| i != slot && !v.is_zero())
            .map(|(i, v)| (i, v.clone()))
            .collect();
        Eta { pivot: slot, piv: u[slot].clone(), col }
    }

    fn push_factor(&mut self, eta: Eta<S>) {
        debug_assert!(eta.col.windows(2).all(|w| w[0].0 < w[1].0), "eta slots ascend");
        self.factor_nnz += eta.col.len() + 1;
        self.factor.push(eta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: i64) -> Q {
        Q::from_int(v)
    }

    /// Factor a dense 3×3 and check FTRAN/BTRAN against hand inverses.
    #[test]
    fn ftran_btran_roundtrip() {
        // B = [[2,0,1],[0,1,0],[0,1,3]] (columns in slot order).
        let cols: Vec<SVec> =
            vec![vec![(0, q(2))], vec![(1, q(1)), (2, q(1))], vec![(0, q(1)), (2, q(3))]];
        let mut f = Factorization::identity(3);
        f.refactor(&cols.iter().collect::<Vec<_>>());
        // B⁻¹ B e_k = e_k for every basis column.
        let mut x = Vec::new();
        for (k, c) in cols.iter().enumerate() {
            f.ftran_sparse(c, &mut x);
            for (i, v) in x.iter().enumerate() {
                assert_eq!(*v, if i == k { Q::one() } else { Q::zero() }, "col {k} slot {i}");
            }
        }
        // BTRAN: Bᵀ y = c  ⇔  y = B⁻ᵀ c; verify Bᵀ y = c.
        let mut y = vec![q(3), q(-1), q(5)];
        let c = y.clone();
        f.btran_inplace(&mut y);
        for (k, col) in cols.iter().enumerate() {
            let mut acc = Q::zero();
            for (i, v) in col {
                acc += v.clone() * y[*i].clone();
            }
            assert_eq!(acc, c[k], "col {k}");
        }
    }

    /// Update etas compose with the factorization exactly.
    #[test]
    fn update_after_refactor() {
        let cols: Vec<SVec> = vec![vec![(0, q(1)), (1, q(1))], vec![(1, q(2))]];
        let mut f = Factorization::identity(2);
        f.refactor(&cols.iter().collect::<Vec<_>>());
        // Replace slot 1's column by a = (1, 3): u = B⁻¹ a.
        let a: SVec = vec![(0, q(1)), (1, q(3))];
        let mut u = Vec::new();
        f.ftran_sparse(&a, &mut u);
        f.append_update(1, &u);
        // Now FTRAN(a) must be e_1 and FTRAN(old col 0) still e_0.
        let mut x = Vec::new();
        f.ftran_sparse(&a, &mut x);
        assert_eq!(x, vec![Q::zero(), Q::one()]);
        f.ftran_sparse(&cols[0], &mut x);
        assert_eq!(x, vec![Q::one(), Q::zero()]);
    }

    /// The order [`Factorization::eliminate_basis`] replaced, kept as the
    /// fill oracle: every column sparsest-first with free pivot choice.
    fn sparsest_first(m: usize, cols: &[SVec]) -> Factorization {
        let mut f = Factorization::identity(m);
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_by_key(|&c| (cols[c].len(), c));
        let mut pivoted = vec![false; m];
        let mut x = Vec::new();
        for c in order {
            let p = f.eliminate(&cols[c], &pivoted, &mut x).expect("nonsingular");
            pivoted[p] = true;
        }
        f
    }

    fn nnz(cols: &[SVec]) -> usize {
        cols.iter().map(Vec::len).sum()
    }

    /// `B⁻¹B = I` column by column, and `Bᵀ(B⁻ᵀc) = c`, exactly.
    fn assert_round_trips(f: &Factorization, cols: &[SVec]) {
        let mut x = Vec::new();
        for (k, c) in cols.iter().enumerate() {
            f.ftran_sparse(c, &mut x);
            for (i, v) in x.iter().enumerate() {
                assert_eq!(*v, if i == k { Q::one() } else { Q::zero() }, "col {k} slot {i}");
            }
        }
        let c: Vec<Q> = (0..cols.len()).map(|k| Q::ratio(k as i64 * 7 - 20, 3)).collect();
        let mut y = c.clone();
        f.btran_inplace(&mut y);
        for (k, col) in cols.iter().enumerate() {
            let dot = Q::sum(col.iter().map(|(i, v)| v.clone() * y[*i].clone()));
            assert_eq!(dot, c[k], "col {k}");
        }
    }

    /// An assignment-LP basis over 9 job rows (`0..9`, entries 1) and 6
    /// machine rows (`9..15`, processing times 5–60), slots scrambled.
    /// Machines 0–2 hold a fractional path (jobs 2 and 3 split) with one
    /// slack, machine 5 two integral jobs and its slack. Jobs 5 and 6 on
    /// machines 3 and 4 form a path with machine 4's slack, or with
    /// `cycle` a fractional cycle (both jobs split over both machines).
    fn assignment_basis(cycle: bool) -> Vec<SVec> {
        let x = |j: usize, i: usize, p: i64| vec![(j, Q::one()), (9 + i, q(p))];
        let slack = |i: usize| vec![(9 + i, Q::one())];
        let mut cols = vec![
            x(3, 2, 55),
            slack(5),
            x(0, 0, 17),
            x(8, 5, 5),
            x(2, 1, 31),
            x(4, 2, 12),
            slack(2),
            x(1, 1, 42),
            x(7, 5, 60),
            x(3, 1, 8),
            x(2, 0, 23),
        ];
        if cycle {
            cols.extend([x(5, 3, 19), x(6, 4, 9), x(5, 4, 44), x(6, 3, 26)]);
        } else {
            cols.extend([x(5, 3, 19), x(6, 4, 9), slack(4), x(6, 3, 26)]);
        }
        cols
    }

    /// The paper's LPs have assignment-shaped bases: a basis whose
    /// fractional part is a forest is triangular, and factorizes with
    /// its own nonzeros as its etas (the sparsest-first order filled
    /// it). A basis cycle is a nucleus that no product-form order can
    /// eliminate without fill — the first cycle column eliminated
    /// transforms its neighbour on the shared row — so there the fill
    /// is exactly the cycle's own and everything else is still peeled.
    #[test]
    fn assignment_basis_factorizes_without_fill() {
        let forest = assignment_basis(false);
        let mut f = Factorization::identity(15);
        f.refactor(&forest.iter().collect::<Vec<_>>());
        assert_eq!(f.factor_nnz(), nnz(&forest), "a forest basis is triangular");
        assert_round_trips(&f, &forest);
        assert!(sparsest_first(15, &forest).factor_nnz() > nnz(&forest), "the oracle fills");

        let cyclic = assignment_basis(true);
        f.refactor(&cyclic.iter().collect::<Vec<_>>());
        assert_round_trips(&f, &cyclic);
        let cycle = &cyclic[11..];
        let mut alone = Factorization::identity(15);
        let pos = alone.eliminate_basis(&cycle.iter().collect::<Vec<_>>());
        assert!(pos.iter().all(Option::is_some), "nonsingular cycle");
        assert!(alone.factor_nnz() > nnz(cycle), "a cycle cannot be eliminated without fill");
        assert_eq!(
            f.factor_nnz() - nnz(&cyclic),
            alone.factor_nnz() - nnz(cycle),
            "fill confined to the cycle"
        );
    }

    /// Dense exact Gauss–Jordan solve of `M z = r` (`m[row][col]`);
    /// `None` when `M` is singular.
    fn gauss_jordan(m: &[Vec<Q>], r: &[Q]) -> Option<Vec<Q>> {
        let n = r.len();
        let mut a: Vec<Vec<Q>> = m
            .iter()
            .zip(r)
            .map(|(row, v)| row.iter().cloned().chain([v.clone()]).collect())
            .collect();
        for col in 0..n {
            let piv = (col..n).find(|&i| !a[i][col].is_zero())?;
            a.swap(col, piv);
            let inv = a[col][col].recip();
            for v in a[col].iter_mut() {
                *v = v.clone() * inv.clone();
            }
            for i in 0..n {
                if i != col && !a[i][col].is_zero() {
                    let f = a[i][col].clone();
                    for k in 0..=n {
                        let d = a[col][k].clone() * f.clone();
                        a[i][k] -= d;
                    }
                }
            }
        }
        Some(a.into_iter().map(|row| row[n].clone()).collect())
    }

    proptest::proptest! {
        /// FTRAN and BTRAN of the triangular-first factorization match a
        /// dense exact solve on random sparse integer bases: a permuted
        /// nonzero diagonal keeps each structurally nonsingular, and the
        /// extra entries make triangular parts, nuclei and fill.
        #[test]
        fn factorization_matches_dense_solve(
            m in 1usize..=12,
            keys in proptest::collection::vec(0u32..1_000_000, 12),
            diag in proptest::collection::vec(-3i64..=3, 12),
            extra in proptest::collection::vec((0usize..12, 0usize..12, -5i64..=5), 0..30),
            rhs in proptest::collection::vec(-9i64..=9, 12),
        ) {
            let mut perm: Vec<usize> = (0..m).collect();
            perm.sort_by_key(|&k| (keys[k], k));
            let mut dense = vec![vec![0i64; m]; m];
            for (k, &row) in perm.iter().enumerate() {
                dense[row][k] = if diag[k] == 0 { 1 } else { diag[k] };
            }
            for &(r, c, v) in &extra {
                dense[r % m][c % m] = v;
            }
            let qm: Vec<Vec<Q>> =
                dense.iter().map(|row| row.iter().map(|&v| q(v)).collect()).collect();
            let cols: Vec<SVec> = (0..m)
                .map(|c| (0..m).filter(|&r| dense[r][c] != 0).map(|r| (r, q(dense[r][c]))).collect())
                .collect();
            let a: Vec<Q> = rhs[..m].iter().map(|&v| q(v)).collect();
            let want_x = gauss_jordan(&qm, &a);
            proptest::prop_assume!(want_x.is_some());
            let want_x = want_x.expect("assumed nonsingular");
            let mut f = Factorization::identity(m);
            f.refactor(&cols.iter().collect::<Vec<_>>());
            let mut x = a.clone();
            f.ftran_inplace(&mut x);
            proptest::prop_assert_eq!(&x, &want_x, "FTRAN");
            let qt: Vec<Vec<Q>> = (0..m).map(|c| (0..m).map(|r| qm[r][c].clone()).collect()).collect();
            let want_y = gauss_jordan(&qt, &a).expect("Bᵀ is nonsingular with B");
            let mut y = a.clone();
            f.btran_inplace(&mut y);
            proptest::prop_assert_eq!(&y, &want_y, "BTRAN");
        }
    }

    #[test]
    fn dependent_column_detected() {
        let mut f = Factorization::identity(2);
        let c1: SVec = vec![(0, q(1)), (1, q(2))];
        let c2: SVec = vec![(0, q(2)), (1, q(4))];
        let mut pivoted = vec![false; 2];
        let mut x = Vec::new();
        let p1 = f.eliminate(&c1, &pivoted, &mut x).unwrap();
        pivoted[p1] = true;
        assert_eq!(f.eliminate(&c2, &pivoted, &mut x), None, "2·c1 is dependent");
    }
}
