//! Certified float→exact hybrid simplex ([`crate::Solver::Hybrid`]).
//!
//! Every pivot of the exact solvers pays rational arithmetic even when
//! plain `f64` would find the same optimal basis. The paper's pipeline
//! only ever consumes *exact* answers (the binary search on `T` and the
//! rounding lemmas), so the hybrid splits the work:
//!
//! 1. an **f64 revised simplex** — same Bland entering order, same
//!    eta-update structure as [`crate::revised`], but float arithmetic
//!    with a tolerance-based ratio test — runs the whole pivot sequence
//!    and *proposes* a terminal basis (or an infeasibility /
//!    unboundedness witness);
//! 2. an **exact certifier** builds one `Q` factorization of the
//!    proposed basis and checks the claim exactly: primal feasibility
//!    `B⁻¹b ≥ 0` plus dual feasibility `c_j − yᵀA_j ≥ 0` for an optimum
//!    (complementary slackness is automatic at a basic solution), a
//!    Farkas vector for infeasibility, a feasible point plus a
//!    nonpositive ray for unboundedness.
//!
//! On success the exact vertex/objective is read off that single
//! factorization — the answer is exact even though no exact pivot ever
//! ran. The certifier checks the float's *own* final basis, in the manner
//! of Applegate, Cook, Dash and Espinoza ("Exact solutions to linear
//! programming problems", Oper. Res. Lett. 2007): an infeasibility claim
//! from phase 1 names the rows whose artificials stayed basic, and the
//! exact basis is completed with exactly those unit columns, so the
//! phase-1 duals it checks are the ones phase 1 ended with.
//!
//! When a warm float crash/repair gives up, the float two-phase proposes
//! again from scratch before any exact pivot runs. On *any* remaining
//! failure (the float gave up, the proposed basis is singular, or the
//! exact check rejects a float sign error) the hybrid silently falls
//! back to the exact [`crate::Solver::Revised`] path and records the
//! fallback, by reason, in [`RevisedStats`] — wrong answers are
//! impossible, only wasted float work.
//!
//! The zero-objective feasibility probes that dominate the binary
//! searches certify especially cheaply: the dual system is trivial
//! (`y = 0`), so certification is one exact factorization and one FTRAN.
//! A [`WarmCache`] in hybrid mode additionally reuses the certifier's
//! factorization across probes whose basis columns did not change, the
//! same wholesale reuse the exact warm solver performs.

use numeric::Q;

use crate::factor::{Factorization, SVec};
use crate::problem::{LinearProgram, Relation};
use crate::revised::{
    Allowed, BudgetError, Fallback, PriceState, Pricing, Refactor, ReuseState, RevisedStats,
    SolveOptions, WarmCache, WarmMode, VIRTUAL,
};
use crate::simplex::{LpSolution, LpStatus};

/// Sign / pivot / feasibility tolerance of the float phase. Everything
/// the floats decide is re-checked exactly, so the only cost of a
/// misjudged sign is a fallback.
const EPS: f64 = 1e-9;

/// Feasibility threshold of the warm dual repair's row filter. Looser
/// than [`EPS`]: between refreshes `x_B` drifts by more than the pivot
/// tolerance, and chasing that noise stalls the repair in hundreds of
/// degenerate pivots. A row that is *exactly* negative but above this
/// threshold makes the optimality certificate fail, which routes to the
/// exact fallback — correctness is unaffected.
const FEAS_EPS: f64 = 1e-7;

/// Phase-1 infeasibility decision threshold (sum of artificials).
const EPS_INFEAS: f64 = 1e-7;

/// Refactorize (and recompute `x_B` from scratch, limiting drift) after
/// this many float eta updates.
const REFRESH_INTERVAL: usize = 64;

// ---------------------------------------------------------------------
// f64 mirror of factor.rs: product-form basis inverse.
// ---------------------------------------------------------------------

/// Sparse float vector over row slots.
type FVec = Vec<(usize, f64)>;

/// Column-major sparse float matrix in one flat arena. The IP-3 LPs
/// have tens of thousands of 2–5-entry columns; per-column `Vec`s cost
/// more in allocator traffic and cache misses than the numerical work
/// they carry, both here and in every pricing scan over all columns.
/// `len[j]` may undershoot the reserved span when duplicate raw indices
/// cancel exactly — the gap is simply never read.
struct FMat {
    offs: Vec<usize>,
    len: Vec<usize>,
    ents: Vec<(usize, f64)>,
}

impl FMat {
    fn cols(&self) -> usize {
        self.offs.len()
    }

    fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.ents[self.offs[j]..self.offs[j] + self.len[j]]
    }

    /// Append a single-entry column (cold-mode artificials).
    fn push_unit(&mut self, row: usize) {
        self.offs.push(self.ents.len());
        self.len.push(1);
        self.ents.push((row, 1.0));
    }

    /// Drop columns `k..` (cold mode strips its artificials again).
    fn truncate_cols(&mut self, k: usize) {
        if k >= self.offs.len() {
            return;
        }
        self.ents.truncate(self.offs[k]);
        self.offs.truncate(k);
        self.len.truncate(k);
    }
}

/// One elementary eta; `col` stores the off-pivot entries, `piv` the
/// pivot entry.
struct FEta {
    pivot: usize,
    col: FVec,
    piv: f64,
}

impl FEta {
    fn apply(&self, x: &mut [f64]) {
        if x[self.pivot] == 0.0 {
            return;
        }
        let t = x[self.pivot] / self.piv;
        for &(i, v) in &self.col {
            x[i] -= v * t;
        }
        x[self.pivot] = t;
    }

    fn apply_transposed(&self, y: &mut [f64]) {
        let mut acc = y[self.pivot];
        for &(i, v) in &self.col {
            acc -= v * y[i];
        }
        y[self.pivot] = acc / self.piv;
    }
}

/// `B⁻¹ = U · P · F` in floats — the same factor/permutation/update-file
/// shape as the exact [`Factorization`].
struct FloatFactor {
    m: usize,
    factor: Vec<FEta>,
    perm: Option<Vec<usize>>,
    updates: Vec<FEta>,
}

impl FloatFactor {
    fn identity(m: usize) -> Self {
        FloatFactor { m, factor: Vec::new(), perm: None, updates: Vec::new() }
    }

    fn ftran_sparse(&self, a: &[(usize, f64)], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.m, 0.0);
        for &(i, v) in a {
            out[i] = v;
        }
        self.ftran_inplace(out);
    }

    fn ftran_inplace(&self, x: &mut Vec<f64>) {
        for eta in &self.factor {
            eta.apply(x);
        }
        if let Some(perm) = &self.perm {
            let mut permuted = vec![0.0; self.m];
            for (slot, &pos) in perm.iter().enumerate() {
                permuted[slot] = x[pos];
            }
            *x = permuted;
        }
        for eta in &self.updates {
            eta.apply(x);
        }
    }

    fn btran_inplace(&self, y: &mut Vec<f64>) {
        for eta in self.updates.iter().rev() {
            eta.apply_transposed(y);
        }
        if let Some(perm) = &self.perm {
            let mut permuted = vec![0.0; self.m];
            for (slot, &pos) in perm.iter().enumerate() {
                permuted[pos] = y[slot];
            }
            *y = permuted;
        }
        for eta in self.factor.iter().rev() {
            eta.apply_transposed(y);
        }
    }

    fn append_update(&mut self, slot: usize, u: &[f64]) {
        let col: FVec = u
            .iter()
            .enumerate()
            .filter(|&(i, v)| i != slot && *v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.updates.push(FEta { pivot: slot, col, piv: u[slot] });
    }

    /// One crash / refactorization elimination step: transform `col` by
    /// the factor etas built so far, pivot on the largest-magnitude
    /// entry over the unpivoted slots (floats prefer stability over the
    /// exact code's unit-pivot sparsity heuristic), or report the column
    /// numerically dependent.
    fn eliminate(
        &mut self,
        col: &[(usize, f64)],
        pivoted: &[bool],
        x: &mut Vec<f64>,
    ) -> Option<usize> {
        x.clear();
        x.resize(self.m, 0.0);
        for &(i, v) in col {
            x[i] = v;
        }
        for eta in &self.factor {
            eta.apply(x);
        }
        let mut pos: Option<usize> = None;
        for (i, v) in x.iter().enumerate() {
            if pivoted[i] || v.abs() <= EPS {
                continue;
            }
            if pos.is_none_or(|p| v.abs() > x[p].abs()) {
                pos = Some(i);
            }
        }
        let pos = pos?;
        if !x[pos].is_finite() {
            return None;
        }
        let eta_col: FVec = x
            .iter()
            .enumerate()
            .filter(|&(i, v)| i != pos && *v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.factor.push(FEta { pivot: pos, col: eta_col, piv: x[pos] });
        Some(pos)
    }

    /// Rebuild from the basis columns (`None` = unit column `e_slot`,
    /// the virtual-slot convention of the exact refactorization).
    /// `false` = numerically singular.
    fn refactor(&mut self, cols: &[&[(usize, f64)]]) -> bool {
        self.factor.clear();
        self.updates.clear();
        self.perm = None;
        let mut perm = vec![usize::MAX; self.m];
        let mut pivoted = vec![false; self.m];
        let mut order: Vec<usize> = (0..self.m).collect();
        order.sort_by_key(|&s| (cols[s].len(), s));
        let mut x: Vec<f64> = Vec::new();
        for slot in order {
            let Some(pos) = self.eliminate(cols[slot], &pivoted, &mut x) else {
                return false;
            };
            perm[slot] = pos;
            pivoted[pos] = true;
        }
        self.perm = Some(perm);
        true
    }
}

// ---------------------------------------------------------------------
// f64 mirror of revised.rs's Core.
// ---------------------------------------------------------------------

enum FPhase {
    Optimal,
    Unbounded { enter: usize },
    GaveUp,
}

struct FloatCore<'a> {
    m: usize,
    a_cols: &'a FMat,
    /// Basic column per slot; [`VIRTUAL`] = unit column (warm crash).
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    xb: Vec<f64>,
    rhs: &'a [f64],
    factor: FloatFactor,
    u: Vec<f64>,
    pivots: usize,
    pivot_cap: usize,
    /// Entering-column selection state, shared with the exact core (the
    /// bookkeeping is arithmetic-agnostic).
    price: PriceState,
    /// Pricing counters, merged into the solve's [`RevisedStats`].
    stats: &'a mut RevisedStats,
}

impl<'a> FloatCore<'a> {
    fn btran_unit(&self, slot: usize) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        y[slot] = 1.0;
        self.factor.btran_inplace(&mut y);
        y
    }

    fn btran_costs(&self, cost: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        let mut any = false;
        for (slot, &b) in self.basis.iter().enumerate() {
            if b != VIRTUAL && cost[b] != 0.0 {
                y[slot] = cost[b];
                any = true;
            }
        }
        if any {
            self.factor.btran_inplace(&mut y);
        }
        y
    }

    fn transformed_entry(&self, rho: &[f64], j: usize) -> f64 {
        let mut d = 0.0;
        for &(i, v) in self.a_cols.col(j) {
            if rho[i] != 0.0 {
                d += v * rho[i];
            }
        }
        d
    }

    fn ftran_col(&mut self, j: usize) {
        let mut u = std::mem::take(&mut self.u);
        self.factor.ftran_sparse(self.a_cols.col(j), &mut u);
        self.u = u;
    }

    /// Ratio test mirroring the exact rule (min `x_B[i]/u_i` over
    /// `u_i > 0`, ties to the smallest basic column) with an `EPS` band
    /// for both the pivot threshold and the tie.
    fn ratio_test(&self) -> Option<usize> {
        let mut leave: Option<(usize, f64)> = None;
        for (i, &ui) in self.u.iter().enumerate() {
            if ui <= EPS {
                continue;
            }
            let ratio = self.xb[i].max(0.0) / ui;
            match leave {
                None => leave = Some((i, ratio)),
                Some((bi, best)) => {
                    if ratio < best - EPS
                        || ((ratio - best).abs() <= EPS && self.basis[i] < self.basis[bi])
                    {
                        leave = Some((i, ratio.min(best)));
                    }
                }
            }
        }
        leave.map(|(i, _)| i)
    }

    /// `false` = numerical trouble (non-finite values or a singular
    /// refresh refactorization); the caller gives up and falls back.
    fn pivot(&mut self, slot: usize, enter: usize) -> bool {
        let t = self.xb[slot] / self.u[slot];
        if !t.is_finite() {
            return false;
        }
        if t != 0.0 {
            for (i, &ui) in self.u.iter().enumerate() {
                if i != slot && ui != 0.0 {
                    self.xb[i] -= ui * t;
                }
            }
        }
        self.xb[slot] = t;
        let old = self.basis[slot];
        if old != VIRTUAL {
            self.in_basis[old] = false;
        }
        self.basis[slot] = enter;
        self.in_basis[enter] = true;
        self.factor.append_update(slot, &self.u);
        self.pivots += 1;
        if self.factor.updates.len() >= REFRESH_INTERVAL {
            return self.refresh();
        }
        true
    }

    /// Refactorize and recompute `x_B = B⁻¹b` from scratch — the float
    /// analogue of the exact refactorization, doubling as the drift
    /// reset the exact code never needs.
    fn refresh(&mut self) -> bool {
        let virt: Vec<FVec> = (0..self.m).map(|s| vec![(s, 1.0)]).collect();
        let cols: Vec<&[(usize, f64)]> = self
            .basis
            .iter()
            .enumerate()
            .map(|(s, &b)| if b == VIRTUAL { virt[s].as_slice() } else { self.a_cols.col(b) })
            .collect();
        if !self.factor.refactor(&cols) {
            return false;
        }
        if !self.price.weights.is_empty() {
            // Devex reference reset, as in the exact core's refactor.
            self.price.weights.iter_mut().for_each(|w| *w = 1.0);
            self.stats.devex_resets += 1;
        }
        self.xb.clear();
        self.xb.extend_from_slice(self.rhs);
        self.factor.ftran_inplace(&mut self.xb);
        self.xb.iter().all(|v| v.is_finite())
    }

    /// One primal phase; entering columns selected by the configured
    /// [`Pricing`] strategy (Bland order mirrors the exact core).
    fn run_phase(&mut self, cost: &[f64], allowed: Allowed) -> FPhase {
        loop {
            if self.pivots > self.pivot_cap {
                return FPhase::GaveUp;
            }
            let y = self.btran_costs(cost);
            let enter = match self.price_enter(cost, &y, allowed) {
                Err(()) => return FPhase::GaveUp,
                Ok(None) => return FPhase::Optimal,
                Ok(Some(enter)) => enter,
            };
            self.ftran_col(enter);
            let Some(slot) = self.ratio_test() else {
                return FPhase::Unbounded { enter };
            };
            if self.price.pricing != Pricing::Bland {
                self.note_degeneracy(slot);
                if self.price.pricing == Pricing::Devex && !self.price.bland_mode {
                    self.devex_update(slot, enter);
                }
            }
            if !self.pivot(slot, enter) {
                return FPhase::GaveUp;
            }
        }
    }

    /// Entering column under the configured strategy (the exact core's
    /// selection, with reduced costs below `-EPS` counting as negative);
    /// `Ok(None)` = phase optimal, `Err` = a non-finite reduced cost
    /// surfaced (give up and let the exact solver take over).
    fn price_enter(
        &mut self,
        cost: &[f64],
        y: &[f64],
        allowed: Allowed,
    ) -> Result<Option<usize>, ()> {
        let FloatCore { a_cols, in_basis, price, stats, .. } = self;
        let negative = |j: usize| {
            let mut rc = cost[j];
            for &(i, v) in a_cols.col(j) {
                if y[i] != 0.0 {
                    rc -= v * y[i];
                }
            }
            if rc.is_finite() {
                Ok((rc < -EPS).then_some(rc))
            } else {
                Err(())
            }
        };
        price.price_enter(a_cols.cols(), in_basis, allowed, stats, negative)
    }

    /// Degenerate-streak Bland escape, as in the exact core. The float
    /// phase additionally has its global pivot cap, so this guard only
    /// buys earlier convergence, not termination.
    fn note_degeneracy(&mut self, slot: usize) {
        if self.xb[slot].abs() <= EPS {
            self.price.degen_streak += 1;
            if self.price.degen_streak > PriceState::degen_threshold(self.m) {
                self.price.bland_mode = true;
            }
        } else {
            self.price.degen_streak = 0;
            self.price.bland_mode = false;
        }
    }

    /// Forrest–Goldfarb devex update restricted to the candidate list,
    /// applied before the basis change (`self.u` holds the transformed
    /// entering column) — the float twin of the exact core's update.
    fn devex_update(&mut self, slot: usize, enter: usize) {
        let alpha_r = self.u[slot];
        if alpha_r == 0.0 || !alpha_r.is_finite() {
            return;
        }
        let g_enter = self.price.weights[enter];
        let rho = self.btran_unit(slot);
        for idx in 0..self.price.candidates.len() {
            let j = self.price.candidates[idx];
            if j == enter || self.in_basis[j] {
                continue;
            }
            let a_j = self.transformed_entry(&rho, j);
            if a_j == 0.0 || !a_j.is_finite() {
                continue;
            }
            let r = a_j / alpha_r;
            let cand = r * r * g_enter;
            if cand.is_finite() && cand > self.price.weights[j] {
                self.price.weights[j] = cand;
            }
        }
        let leaving = self.basis[slot];
        if leaving != VIRTUAL {
            let w = g_enter / (alpha_r * alpha_r);
            self.price.weights[leaving] = if w.is_finite() { w.max(1.0) } else { 1.0 };
        }
    }

    /// The real (non-virtual) basic columns — the proposal handed to the
    /// exact certifier. `limit` excludes artificial columns in cold mode.
    fn real_basis(&self, limit: usize) -> Vec<usize> {
        self.basis.iter().copied().filter(|&b| b != VIRTUAL && b < limit).collect()
    }
}

// ---------------------------------------------------------------------
// Float drivers: the cold two-phase and the warm crash/repair mirrors.
// ---------------------------------------------------------------------

enum Witness {
    /// The basic column of the stuck dual-repair row; its exact row
    /// functional is the Farkas vector.
    Column(usize),
    /// Phase 1 terminated with positive artificials, still basic on
    /// `art_rows`: the phase-1 duals of the float's own final phase-1
    /// basis — its real columns plus exactly the unit columns of those
    /// rows — are the Farkas vector.
    PhaseOneDuals { art_rows: Vec<usize> },
}

enum FloatProposal {
    /// Claimed optimal; `cols` is the real basic column set.
    Optimal {
        cols: Vec<usize>,
    },
    Infeasible {
        cols: Vec<usize>,
        witness: Witness,
    },
    Unbounded {
        cols: Vec<usize>,
        enter: usize,
    },
    /// Cycle cap, numerical trouble, or a case the certifier cannot
    /// confirm cheaply — the exact solver takes over.
    GaveUp,
}

/// Float mirror of the cold two-phase `solve_revised`: identity
/// slack/artificial start, phase 1 on the artificial sum, drive-out,
/// phase 2 on the real objective.
fn float_cold(
    a_cols: &FMat,
    rhs: &[f64],
    cost: &[f64],
    basis0: Vec<usize>,
    art_start: usize,
    pricing: Pricing,
    stats: &mut RevisedStats,
) -> FloatProposal {
    let m = rhs.len();
    let cols = a_cols.cols();
    let mut in_basis = vec![false; cols];
    for &b in &basis0 {
        in_basis[b] = true;
    }
    let mut core = FloatCore {
        m,
        a_cols,
        basis: basis0,
        in_basis,
        xb: rhs.to_vec(),
        rhs,
        factor: FloatFactor::identity(m),
        u: Vec::new(),
        pivots: 0,
        pivot_cap: 64 * (m + cols) + 1024,
        price: PriceState::new(pricing, cols),
        stats,
    };

    if cols > art_start {
        let mut phase1 = vec![0.0; cols];
        for c in phase1.iter_mut().skip(art_start) {
            *c = 1.0;
        }
        match core.run_phase(&phase1, &|_| true) {
            FPhase::Optimal => {}
            // Phase 1 is bounded below by 0; a float claim otherwise is
            // numerical noise.
            FPhase::Unbounded { .. } | FPhase::GaveUp => return FloatProposal::GaveUp,
        }
        let infeas: f64 = core
            .basis
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b >= art_start)
            .map(|(i, _)| core.xb[i])
            .sum();
        if !infeas.is_finite() {
            return FloatProposal::GaveUp;
        }
        if infeas > EPS_INFEAS {
            // Artificial column `art_start + k` is the unit column of the
            // row it was pushed for.
            let art_rows = core
                .basis
                .iter()
                .filter(|&&b| b >= art_start)
                .map(|&b| a_cols.col(b)[0].0)
                .collect();
            return FloatProposal::Infeasible {
                cols: core.real_basis(art_start),
                witness: Witness::PhaseOneDuals { art_rows },
            };
        }
        // Drive remaining zero-level artificials out (or leave them: the
        // certifier completes missing rows with unit columns).
        for i in 0..m {
            if core.basis[i] < art_start {
                continue;
            }
            let rho = core.btran_unit(i);
            let piv = (0..art_start).find(|&j| core.transformed_entry(&rho, j).abs() > EPS);
            if let Some(j) = piv {
                core.ftran_col(j);
                if core.u[i].abs() > EPS && !core.pivot(i, j) {
                    return FloatProposal::GaveUp;
                }
            }
        }
    }

    match core.run_phase(cost, &|j| j < art_start) {
        FPhase::Optimal => FloatProposal::Optimal { cols: core.real_basis(art_start) },
        FPhase::Unbounded { enter } => {
            FloatProposal::Unbounded { cols: core.real_basis(art_start), enter }
        }
        FPhase::GaveUp => FloatProposal::GaveUp,
    }
}

/// Float mirror of `solve_warm_revised`: crash the hinted columns, unit
/// columns for leftover rows, dual-simplex repair, primal phase.
fn float_warm(
    a_cols: &FMat,
    rhs: &[f64],
    cost: &[f64],
    hint: &[usize],
    pricing: Pricing,
    stats: &mut RevisedStats,
) -> FloatProposal {
    let m = rhs.len();
    let cols = a_cols.cols();
    let mut factor = FloatFactor::identity(m);
    let mut basis = vec![VIRTUAL; m];
    let mut in_basis = vec![false; cols];
    let mut pivoted = vec![false; m];
    let mut left = m;
    let mut scratch = Vec::new();
    let mut wanted: Vec<usize> = hint.iter().copied().filter(|&c| c < cols).collect();
    wanted.sort_unstable();
    wanted.dedup();
    for c in wanted.into_iter().chain(0..cols) {
        if left == 0 {
            break;
        }
        if in_basis[c] {
            continue;
        }
        if let Some(p) = factor.eliminate(a_cols.col(c), &pivoted, &mut scratch) {
            pivoted[p] = true;
            basis[p] = c;
            in_basis[c] = true;
            left -= 1;
        }
    }
    for p in 0..m {
        if left == 0 {
            break;
        }
        if pivoted[p] {
            continue;
        }
        let unit: FVec = vec![(p, 1.0)];
        if let Some(pp) = factor.eliminate(&unit, &pivoted, &mut scratch) {
            pivoted[pp] = true;
            left -= 1;
        } else {
            return FloatProposal::GaveUp;
        }
    }

    let mut xb = rhs.to_vec();
    factor.ftran_inplace(&mut xb);
    if xb.iter().any(|v| !v.is_finite()) {
        return FloatProposal::GaveUp;
    }
    // A virtual slot far from zero smells like an inconsistent redundant
    // row — a case the exact solver classifies precisely.
    for (i, &b) in basis.iter().enumerate() {
        if b == VIRTUAL && xb[i].abs() > EPS {
            return FloatProposal::GaveUp;
        }
    }

    let mut core = FloatCore {
        m,
        a_cols,
        basis,
        in_basis,
        xb,
        rhs,
        factor,
        u: Vec::new(),
        pivots: 0,
        pivot_cap: 64 * (m + cols) + 1024,
        price: PriceState::new(pricing, cols),
        stats,
    };

    // Dual-simplex repair of b ≥ 0, Bland row choice as in the exact
    // warm path. The pivot budget is tight — a good hint repairs in
    // O(m) pivots, and a float repair that needs more is almost always
    // stalling on noise; better to hand the program to the exact solver
    // early than to grind out thousands of degenerate float pivots.
    let repair_cap = 2 * m + 64;
    while let Some(row) = (0..m)
        .filter(|&i| core.basis[i] != VIRTUAL && core.xb[i] < -FEAS_EPS)
        .min_by_key(|&i| core.basis[i])
    {
        if core.pivots > repair_cap {
            return FloatProposal::GaveUp;
        }
        let rho = core.btran_unit(row);
        let enter = (0..cols)
            .filter(|&j| !core.in_basis[j])
            .find(|&j| core.transformed_entry(&rho, j) < -EPS);
        let Some(enter) = enter else {
            return FloatProposal::Infeasible {
                cols: core.real_basis(cols),
                witness: Witness::Column(core.basis[row]),
            };
        };
        core.ftran_col(enter);
        if core.u[row] >= -EPS {
            return FloatProposal::GaveUp;
        }
        if !core.pivot(row, enter) {
            return FloatProposal::GaveUp;
        }
    }

    match core.run_phase(cost, &|_| true) {
        FPhase::Optimal => FloatProposal::Optimal { cols: core.real_basis(cols) },
        FPhase::Unbounded { enter } => {
            FloatProposal::Unbounded { cols: core.real_basis(cols), enter }
        }
        FPhase::GaveUp => FloatProposal::GaveUp,
    }
}

// ---------------------------------------------------------------------
// Exact certifier.
// ---------------------------------------------------------------------

/// Shared view of the program in the warm column layout
/// (structural | slack) — float columns materialized for the proposal
/// phase, exact data kept *row-major in the raw constraints* so the
/// certifier only ever clones the handful of exact columns it
/// factorizes. Normalization (duplicate summing, sign flips for
/// negative right-hand sides) matches [`LinearProgram::assemble`] exactly, so column
/// indices and basis hints are interchangeable with the exact solvers.
struct Assembled {
    n: usize,
    m: usize,
    cols: usize,
    /// Row sign-flip flags (raw rhs was negative).
    neg: Vec<bool>,
    /// Effective (post-flip) relations.
    rels: Vec<Relation>,
    /// Normalized exact rhs (`≥ 0`).
    rhs: Vec<Q>,
    /// Per-slack `(row, is_ge)`: slack column `n + k` is `∓e_row`.
    slack: Vec<(usize, bool)>,
    f_cols: FMat,
    f_rhs: Vec<f64>,
    f_cost: Vec<f64>,
}

fn assemble_hybrid(lp: &LinearProgram) -> Assembled {
    let n = lp.num_vars();
    let m = lp.constraints.len();
    let mut neg = Vec::with_capacity(m);
    let mut rels = Vec::with_capacity(m);
    let mut rhs = Vec::with_capacity(m);
    let mut slack = Vec::new();
    for (i, c) in lp.constraints.iter().enumerate() {
        let ng = c.rhs.is_negative();
        let rel = if ng { c.rel.flipped() } else { c.rel };
        if !matches!(rel, Relation::Eq) {
            slack.push((i, matches!(rel, Relation::Ge)));
        }
        neg.push(ng);
        rels.push(rel);
        rhs.push(if ng { -c.rhs.clone() } else { c.rhs.clone() });
    }
    let cols = n + slack.len();

    // Float transpose straight off the raw constraints, duplicate
    // indices summed per row through an epoch-marked scratch. Two
    // passes: count distinct per-column entries (upper bound — exact
    // cancellations leave small never-read gaps), then scatter into one
    // flat arena.
    // Rows with strictly increasing indices (every row the paper's
    // formulations emit) are duplicate-free by construction and take a
    // streaming path; general rows fall back to an epoch-marked scratch.
    let sorted: Vec<bool> =
        lp.constraints.iter().map(|c| c.coeffs.windows(2).all(|w| w[0].0 < w[1].0)).collect();
    let mut count = vec![0u32; cols];
    let mut mark = vec![usize::MAX; n];
    for (i, c) in lp.constraints.iter().enumerate() {
        if sorted[i] {
            for (idx, _) in &c.coeffs {
                count[*idx] += 1;
            }
        } else {
            for (idx, _) in &c.coeffs {
                if mark[*idx] != i {
                    mark[*idx] = i;
                    count[*idx] += 1;
                }
            }
        }
    }
    for k in 0..slack.len() {
        count[n + k] = 1;
    }
    let mut offs = Vec::with_capacity(cols);
    let mut acc = 0usize;
    for &c in &count {
        offs.push(acc);
        acc += c as usize;
    }
    let mut f_cols = FMat { offs, len: vec![0usize; cols], ents: vec![(0usize, 0.0f64); acc] };
    let mut scratch = vec![0.0f64; n];
    let mut mark = vec![usize::MAX; n];
    let mut touched: Vec<usize> = Vec::new();
    for (i, c) in lp.constraints.iter().enumerate() {
        let s = if neg[i] { -1.0 } else { 1.0 };
        if sorted[i] {
            for (idx, coef) in &c.coeffs {
                let v = s * coef.to_f64();
                if v != 0.0 {
                    f_cols.ents[f_cols.offs[*idx] + f_cols.len[*idx]] = (i, v);
                    f_cols.len[*idx] += 1;
                }
            }
            continue;
        }
        touched.clear();
        for (idx, coef) in &c.coeffs {
            if mark[*idx] != i {
                mark[*idx] = i;
                scratch[*idx] = 0.0;
                touched.push(*idx);
            }
            scratch[*idx] += coef.to_f64();
        }
        for &idx in &touched {
            let v = s * scratch[idx];
            if v != 0.0 {
                f_cols.ents[f_cols.offs[idx] + f_cols.len[idx]] = (i, v);
                f_cols.len[idx] += 1;
            }
        }
    }
    for (k, &(row, is_ge)) in slack.iter().enumerate() {
        let j = n + k;
        f_cols.ents[f_cols.offs[j]] = (row, if is_ge { -1.0 } else { 1.0 });
        f_cols.len[j] = 1;
    }
    let f_rhs: Vec<f64> = rhs.iter().map(Q::to_f64).collect();
    let mut f_cost = vec![0.0; cols];
    for (j, c) in lp.objective.iter().enumerate() {
        f_cost[j] = c.to_f64();
    }
    Assembled { n, m, cols, neg, rels, rhs, slack, f_cols, f_rhs, f_cost }
}

impl Assembled {
    /// Normalized exact columns for `wanted` (unique indices), built in
    /// one pass over the raw constraints; output parallel to `wanted`.
    fn exact_cols(&self, lp: &LinearProgram, wanted: &[usize]) -> Vec<SVec> {
        let mut pos = vec![usize::MAX; self.cols];
        for (p, &w) in wanted.iter().enumerate() {
            pos[w] = p;
        }
        let mut out: Vec<SVec> = vec![Vec::new(); wanted.len()];
        for (i, c) in lp.constraints.iter().enumerate() {
            for (idx, coef) in &c.coeffs {
                let p = pos[*idx];
                if p == usize::MAX {
                    continue;
                }
                let v = if self.neg[i] { -coef.clone() } else { coef.clone() };
                match out[p].last_mut() {
                    Some(last) if last.0 == i => last.1 += v,
                    _ => out[p].push((i, v)),
                }
            }
        }
        for col in &mut out {
            col.retain(|(_, v)| !v.is_zero());
        }
        for (k, &(row, is_ge)) in self.slack.iter().enumerate() {
            let p = pos[self.n + k];
            if p != usize::MAX {
                out[p] = vec![(row, if is_ge { -Q::one() } else { Q::one() })];
            }
        }
        out
    }

    /// `dots[j] = ρᵀA_j` for every structural column, accumulated
    /// row-major over the raw constraints (duplicates sum linearly, so
    /// no normalization pass is needed); only rows with `ρ_i ≠ 0` cost
    /// exact arithmetic.
    fn dots(&self, lp: &LinearProgram, rho: &[Q]) -> Vec<Q> {
        let mut dots = vec![Q::zero(); self.n];
        for (i, c) in lp.constraints.iter().enumerate() {
            if rho[i].is_zero() {
                continue;
            }
            let r = if self.neg[i] { -rho[i].clone() } else { rho[i].clone() };
            for (idx, coef) in &c.coeffs {
                if !coef.is_zero() {
                    dots[*idx] += coef.clone() * r.clone();
                }
            }
        }
        dots
    }

    /// `ρᵀA_j` for slack column `n + k`.
    fn slack_dot(&self, rho: &[Q], k: usize) -> Q {
        let (row, is_ge) = self.slack[k];
        if is_ge {
            -rho[row].clone()
        } else {
            rho[row].clone()
        }
    }
}

/// Factorize the proposed real column set exactly, together with the
/// unit (virtual) columns of `unit_rows` (the proposer's own basic unit
/// columns), and complete any row still unpivoted with its unit column.
/// Returns the factorization, the per-slot basis ([`VIRTUAL`] = unit
/// column), and the extracted exact columns (parallel to `proposal`),
/// or `None` when the proposed basis is singular under exact arithmetic.
fn build_exact_basis(
    lp: &LinearProgram,
    asm: &Assembled,
    proposal: &[usize],
    unit_rows: &[usize],
) -> Option<(Factorization, Vec<usize>, Vec<SVec>)> {
    let m = asm.m;
    if proposal.len() + unit_rows.len() > m {
        return None;
    }
    let ex = asm.exact_cols(lp, proposal);
    // Unit columns on the proposer's rows, not wherever the elimination
    // leaves rows open: a phase-1 dual vector is a Farkas vector only for
    // the basis phase 1 actually ended in.
    let units: Vec<SVec> = unit_rows.iter().map(|&row| vec![(row, Q::one())]).collect();
    let cols: Vec<&SVec> = ex.iter().chain(&units).collect();
    // The triangular order of every exact factorization (Suhl & Suhl
    // 1990): a forest-shaped assignment basis factorizes without fill.
    let mut factor = Factorization::identity(m);
    let pos = factor.eliminate_basis(&cols)?;
    let mut pivoted = vec![false; m];
    let mut basis = vec![VIRTUAL; m];
    for (k, &slot) in pos.iter().enumerate() {
        pivoted[slot] = true;
        if k < proposal.len() {
            basis[slot] = proposal[k];
        }
    }
    let mut scratch = Vec::new();
    for p in 0..m {
        if pivoted[p] {
            continue;
        }
        let unit: SVec = vec![(p, Q::one())];
        let pp = factor.eliminate(&unit, &pivoted, &mut scratch)?;
        pivoted[pp] = true;
    }
    Some((factor, basis, ex))
}

/// `in_basis` mask over all columns.
fn basis_mask(basis: &[usize], cols: usize) -> Vec<bool> {
    let mut mask = vec![false; cols];
    for &b in basis {
        if b != VIRTUAL {
            mask[b] = true;
        }
    }
    mask
}

/// `y = B⁻ᵀc_B` — `None` when every basic column has zero cost (the
/// zero-objective probe shortcut: the whole dual system is trivial).
fn basic_duals(lp: &LinearProgram, factor: &Factorization, basis: &[usize]) -> Option<Vec<Q>> {
    let n = lp.num_vars();
    let mut any = false;
    let mut y = vec![Q::zero(); basis.len()];
    for (slot, &b) in basis.iter().enumerate() {
        if b != VIRTUAL && b < n && !lp.objective[b].is_zero() {
            y[slot] = lp.objective[b].clone();
            any = true;
        }
    }
    if !any {
        return None;
    }
    factor.btran_inplace(&mut y);
    Some(y)
}

/// Exact optimality certificate: `x_B = B⁻¹b ≥ 0` (unit slots exactly
/// zero, so the point lives in the real column space) and
/// `c_j − yᵀA_j ≥ 0` for every nonbasic column under `y = B⁻ᵀc_B`
/// (basic columns price to exactly zero; complementary slackness is
/// automatic at a basic solution). Returns the exact vertex.
fn certify_optimal(
    lp: &LinearProgram,
    asm: &Assembled,
    factor: &Factorization,
    basis: &[usize],
) -> Option<LpSolution> {
    let n = asm.n;
    let mut xb = asm.rhs.clone();
    factor.ftran_inplace(&mut xb);
    for (i, &b) in basis.iter().enumerate() {
        if b == VIRTUAL {
            if !xb[i].is_zero() {
                return None;
            }
        } else if xb[i].is_negative() {
            return None;
        }
    }

    let in_basis = basis_mask(basis, asm.cols);
    match basic_duals(lp, factor, basis) {
        None => {
            // y = 0: structural reduced costs are the raw costs, slack
            // reduced costs are zero.
            for (j, c) in lp.objective.iter().enumerate() {
                if !in_basis[j] && c.is_negative() {
                    return None;
                }
            }
        }
        Some(y) => {
            let dots = asm.dots(lp, &y);
            for j in 0..n {
                if in_basis[j] {
                    continue;
                }
                let rc = lp.objective[j].clone() - dots[j].clone();
                if rc.is_negative() {
                    return None;
                }
            }
            for k in 0..asm.slack.len() {
                if !in_basis[n + k] && asm.slack_dot(&y, k).is_positive() {
                    return None;
                }
            }
        }
    }

    let mut values = vec![Q::zero(); n];
    let mut basis_out = Vec::with_capacity(basis.len());
    for (i, &b) in basis.iter().enumerate() {
        if b == VIRTUAL {
            continue;
        }
        if b < n {
            values[b] = xb[i].clone();
        }
        basis_out.push(b);
    }
    let objective_value = lp.objective_at(&values);
    Some(LpSolution {
        status: LpStatus::Optimal,
        objective_value,
        values,
        basis: basis_out,
        num_structural: n,
    })
}

/// Exact Farkas certificate: a row functional `ρ` with `ρᵀb < 0` and
/// `ρᵀA_j ≥ 0` for every column (basic columns satisfy this exactly by
/// `B⁻¹B = I`, so only nonbasic ones are checked).
fn certify_infeasible(
    lp: &LinearProgram,
    asm: &Assembled,
    factor: &Factorization,
    basis: &[usize],
    witness: &Witness,
) -> Option<LpSolution> {
    let n = asm.n;
    let mut rho = vec![Q::zero(); asm.m];
    match witness {
        Witness::Column(w) => {
            let slot = basis.iter().position(|&b| b == *w)?;
            rho[slot] = Q::one();
        }
        Witness::PhaseOneDuals { .. } => {
            // ρ = −y where y are the phase-1 duals of the float's final
            // phase-1 basis, which `build_exact_basis` rebuilt with the
            // witness rows' unit columns (unit slots carry phase-1 cost
            // 1, real slots 0).
            let mut any = false;
            for (slot, &b) in basis.iter().enumerate() {
                if b == VIRTUAL {
                    rho[slot] = -Q::one();
                    any = true;
                }
            }
            if !any {
                return None;
            }
        }
    }
    factor.btran_inplace(&mut rho);

    let mut rb = Q::zero();
    for (i, v) in asm.rhs.iter().enumerate() {
        if !v.is_zero() && !rho[i].is_zero() {
            rb += rho[i].clone() * v.clone();
        }
    }
    if !rb.is_negative() {
        return None;
    }
    let in_basis = basis_mask(basis, asm.cols);
    let dots = asm.dots(lp, &rho);
    for (j, d) in dots.iter().enumerate() {
        if !in_basis[j] && d.is_negative() {
            return None;
        }
    }
    for k in 0..asm.slack.len() {
        if !in_basis[n + k] && asm.slack_dot(&rho, k).is_negative() {
            return None;
        }
    }
    Some(LpSolution::failed(LpStatus::Infeasible, n))
}

/// Exact unboundedness certificate: the basis is primal feasible and the
/// claimed entering column has negative exact reduced cost with a
/// nonpositive transformed column (zero on unit slots, so the ray stays
/// in the real column space).
fn certify_unbounded(
    lp: &LinearProgram,
    asm: &Assembled,
    factor: &Factorization,
    basis: &[usize],
    enter: usize,
) -> Option<LpSolution> {
    let n = asm.n;
    if enter >= asm.cols || basis.contains(&enter) {
        return None;
    }
    let mut xb = asm.rhs.clone();
    factor.ftran_inplace(&mut xb);
    for (i, &b) in basis.iter().enumerate() {
        if b == VIRTUAL {
            if !xb[i].is_zero() {
                return None;
            }
        } else if xb[i].is_negative() {
            return None;
        }
    }

    let ecol = asm.exact_cols(lp, &[enter]).pop().expect("one column requested");
    let mut rc = if enter < n { lp.objective[enter].clone() } else { Q::zero() };
    if let Some(y) = basic_duals(lp, factor, basis) {
        for (i, v) in &ecol {
            if !y[*i].is_zero() {
                rc -= v.clone() * y[*i].clone();
            }
        }
    }
    if !rc.is_negative() {
        return None;
    }
    let mut u = Vec::new();
    factor.ftran_sparse(&ecol, &mut u);
    for (i, ui) in u.iter().enumerate() {
        if basis[i] == VIRTUAL {
            if !ui.is_zero() {
                return None;
            }
        } else if ui.is_positive() {
            return None;
        }
    }
    Some(LpSolution::failed(LpStatus::Unbounded, n))
}

// ---------------------------------------------------------------------
// Orchestration.
// ---------------------------------------------------------------------

/// Certify a float proposal; `Err` = fall back to the exact solver, for
/// the reason given. `reuse` optionally carries a previously certified
/// factorization whose basis/columns are revalidated here before being
/// trusted.
fn certify(
    lp: &LinearProgram,
    asm: &Assembled,
    proposal: &FloatProposal,
    reuse: Option<ReuseState>,
) -> Result<(LpSolution, Option<ReuseState>, bool), Fallback> {
    let (cols_prop, unit_rows): (&[usize], &[usize]) = match proposal {
        FloatProposal::Infeasible { cols, witness: Witness::PhaseOneDuals { art_rows } } => {
            (cols, art_rows)
        }
        FloatProposal::Optimal { cols }
        | FloatProposal::Infeasible { cols, .. }
        | FloatProposal::Unbounded { cols, .. } => (cols, &[]),
        FloatProposal::GaveUp => return Err(Fallback::GaveUp),
    };

    // Wholesale factorization reuse, the exact warm solver's trick: same
    // column set as the previously certified basis and every column's
    // contents unchanged.
    let mut reused_snapshot: Option<Vec<SVec>> = None;
    let (factor, basis, extracted) = 'build: {
        if let Some(r) = reuse {
            if r.m == asm.m && r.cols == asm.cols && r.basis.len() == cols_prop.len() {
                let mut sorted_prop = cols_prop.to_vec();
                sorted_prop.sort_unstable();
                let mut sorted_reuse = r.basis.clone();
                sorted_reuse.sort_unstable();
                if sorted_prop == sorted_reuse && asm.exact_cols(lp, &r.basis) == r.snapshot {
                    reused_snapshot = Some(r.snapshot);
                    break 'build (r.factor, r.basis, Vec::new());
                }
            }
        }
        build_exact_basis(lp, asm, cols_prop, unit_rows).ok_or(Fallback::Singular)?
    };

    let sol = match proposal {
        FloatProposal::Optimal { .. } => certify_optimal(lp, asm, &factor, &basis),
        FloatProposal::Infeasible { witness, .. } => {
            certify_infeasible(lp, asm, &factor, &basis, witness)
        }
        FloatProposal::Unbounded { enter, .. } => {
            certify_unbounded(lp, asm, &factor, &basis, *enter)
        }
        FloatProposal::GaveUp => unreachable!("handled above"),
    }
    .ok_or(Fallback::Rejected)?;

    // Offer the certified factorization for reuse only when the basis is
    // clean (no virtual slots) — the exact warm cache's policy.
    let reused_snapshot_used = reused_snapshot.is_some();
    let reuse_out = (sol.status == LpStatus::Optimal && !basis.contains(&VIRTUAL)).then(|| {
        let snapshot = reused_snapshot.unwrap_or_else(|| {
            let mut idx_of = vec![usize::MAX; asm.cols];
            for (p, &c) in cols_prop.iter().enumerate() {
                idx_of[c] = p;
            }
            basis.iter().map(|&b| extracted[idx_of[b]].clone()).collect()
        });
        ReuseState { m: asm.m, cols: asm.cols, basis, factor, snapshot }
    });
    let reused = reused_snapshot_used;
    Ok((sol, reuse_out, reused))
}

/// The float two-phase proposal. The cold float layout appends one
/// artificial column per `≥`/`=` row, mirroring the exact cold solver's
/// structural | slack | artificial order. They live only in the float
/// view and are stripped again here; an infeasibility witness names the
/// rows whose artificials stayed basic, and the certifier rebuilds
/// exactly those as unit columns.
fn propose_cold(asm: &mut Assembled, pricing: Pricing, stats: &mut RevisedStats) -> FloatProposal {
    let art_start = asm.cols;
    let mut basis0 = vec![VIRTUAL; asm.m];
    let mut next_slack = asm.n;
    let mut next_art = art_start;
    for (i, rel) in asm.rels.iter().enumerate() {
        match rel {
            Relation::Le => {
                basis0[i] = next_slack;
                next_slack += 1;
            }
            Relation::Ge => {
                next_slack += 1;
                asm.f_cols.push_unit(i);
                basis0[i] = next_art;
                next_art += 1;
            }
            Relation::Eq => {
                asm.f_cols.push_unit(i);
                basis0[i] = next_art;
                next_art += 1;
            }
        }
    }
    asm.f_cost.resize(next_art, 0.0);
    let proposal =
        float_cold(&asm.f_cols, &asm.f_rhs, &asm.f_cost, basis0, art_start, pricing, stats);
    asm.f_cols.truncate_cols(art_start);
    asm.f_cost.truncate(art_start);
    proposal
}

impl LinearProgram {
    /// Cold hybrid solve: float two-phase proposal + exact certification,
    /// falling back to the exact revised solver on any certification
    /// failure. The stats report whether this solve was certified or fell
    /// back, and why (plus the exact solver's counters when it ran). With
    /// a cache, a certified solve seeds the reusable factorization so the
    /// *next* (warm) probe can try hint-first certification.
    pub(crate) fn solve_hybrid_cold(
        &self,
        opts: SolveOptions,
        cache: Option<&mut WarmCache>,
    ) -> (LpSolution, RevisedStats) {
        self.solve_hybrid_cold_assembled(assemble_hybrid(self), opts, cache)
    }

    /// [`solve_hybrid_cold`](Self::solve_hybrid_cold) on this program's
    /// already-built [`Assembled`] view.
    fn solve_hybrid_cold_assembled(
        &self,
        mut asm: Assembled,
        opts: SolveOptions,
        cache: Option<&mut WarmCache>,
    ) -> (LpSolution, RevisedStats) {
        let mut stats = RevisedStats::default();
        let proposal = propose_cold(&mut asm, opts.pricing, &mut stats);
        match certify(self, &asm, &proposal, None) {
            Ok((sol, reuse_out, _)) => {
                if let Some(c) = cache {
                    c.reuse = reuse_out;
                }
                stats.hybrid_certified = 1;
                (sol, stats)
            }
            Err(why) => {
                let (sol, s) = self.solve_revised(opts, Refactor::default());
                stats.absorb(&s);
                stats.note_fallback(why);
                (sol, stats)
            }
        }
    }

    /// Warm hybrid solve: float crash/repair proposal from `hint` +
    /// exact certification, falling back to the exact warm solver. With
    /// a cache (whose options the caller passes as `opts`), two reuse
    /// levels apply: a still-valid certified factorization whose basis
    /// certifies optimal for the *new* program short-circuits the float
    /// phase entirely (the binary-search pattern where only right-hand
    /// sides drift), and otherwise the cached factorization is still
    /// offered to the certifier wholesale. The exact fallback shares the
    /// same cache, so its own reuse and cap-fallback counters keep
    /// working.
    ///
    /// When the float crash/repair gives up (its dual repair passes its
    /// cap, or a pivot goes numerically bad), the float two-phase
    /// proposes again from scratch and that proposal is certified; only
    /// when it fails too does the exact warm solver run. The retry is
    /// counted in [`RevisedStats::cold_rescues`] when it certifies.
    ///
    /// `limit` is an exact-pivot budget for the fallback paths (see
    /// [`SolveBudget`](crate::SolveBudget)): `None` never errors, `Some`
    /// may abort with [`BudgetError::PivotCapExhausted`]. The float
    /// proposers (the cold retry included) and the cold dispatch stay
    /// uncapped either way.
    pub(crate) fn solve_hybrid_warm(
        &self,
        hint: &[usize],
        opts: SolveOptions,
        mut cache: Option<&mut WarmCache>,
        limit: Option<usize>,
    ) -> Result<(LpSolution, RevisedStats), BudgetError> {
        // Injected fault: behave exactly as if certification failed —
        // skip the assembly and the float proposal and take the exact
        // fallback.
        // The fallback is counted on the *cache* (not `stats`) so it
        // stays recorded even when a budget aborts the exact attempt;
        // forced faults only exist on caches, so nothing is lost for the
        // cacheless callers.
        if let Some(c) = cache.as_deref_mut() {
            if c.take_forced_cert_failure() {
                c.fallback_reasons.count(Fallback::Injected);
                let sol =
                    self.solve_warm_revised(hint, opts, cache, WarmMode::from_limit(limit))?;
                return Ok((sol, RevisedStats::default()));
            }
        }

        let mut asm = assemble_hybrid(self);
        let mut stats = RevisedStats::default();

        // Hint-first certification: no pivots of any kind when the
        // previously certified basis is still optimal here.
        if let Some(c) = cache.as_deref_mut() {
            if let Some(r) = c.reuse.take() {
                if r.m == asm.m
                    && r.cols == asm.cols
                    && asm.exact_cols(self, &r.basis) == r.snapshot
                {
                    if let Some(sol) = certify_optimal(self, &asm, &r.factor, &r.basis) {
                        c.reuse = Some(r);
                        c.factor_reuses += 1;
                        stats.hybrid_certified = 1;
                        return Ok((sol, stats));
                    }
                }
                c.reuse = Some(r);
            }
        }

        // No hint to crash from: the cold path is both faster and far
        // better conditioned than repairing a first-m-independent-columns
        // basis (mirrors the exact cached path, which cold-solves when
        // the cache is cold).
        if hint.is_empty() {
            return Ok(self.solve_hybrid_cold_assembled(asm, opts, cache));
        }

        // A stale hint (out-of-range columns or duplicate slots — a
        // basis from a differently-shaped program) would crash into a
        // half-garbage float basis whose repair almost always gives up.
        // Route straight to the cold path and count the fallback, the
        // same policy as the exact warm solver.
        {
            let mut sanitized: Vec<usize> =
                hint.iter().copied().filter(|&c| c < asm.cols).collect();
            sanitized.sort_unstable();
            sanitized.dedup();
            if sanitized.len() != hint.len() {
                if let Some(c) = cache.as_deref_mut() {
                    c.warm_fallbacks += 1;
                }
                return Ok(self.solve_hybrid_cold_assembled(asm, opts, cache));
            }
        }

        let mut proposal =
            float_warm(&asm.f_cols, &asm.f_rhs, &asm.f_cost, hint, opts.pricing, &mut stats);
        // A warm give-up says more about the crash basis than about the
        // program: propose again cold before paying for exact pivots.
        let retried = matches!(proposal, FloatProposal::GaveUp);
        if retried {
            proposal = propose_cold(&mut asm, opts.pricing, &mut stats);
        }

        let reuse = match (&proposal, cache.as_deref_mut()) {
            // Only lift the cached state out for a clean full-rank
            // optimal proposal; certify() revalidates before trusting it.
            (FloatProposal::Optimal { cols }, Some(c)) if cols.len() == asm.m => c.reuse.take(),
            _ => None,
        };
        match certify(self, &asm, &proposal, reuse) {
            Ok((sol, reuse_out, reused)) => {
                if let Some(c) = cache {
                    c.reuse = reuse_out;
                    if reused {
                        c.factor_reuses += 1;
                    }
                }
                stats.hybrid_certified = 1;
                stats.cold_rescues = usize::from(retried);
                Ok((sol, stats))
            }
            Err(why) => {
                stats.note_fallback(why);
                let sol =
                    self.solve_warm_revised(hint, opts, cache, WarmMode::from_limit(limit))?;
                Ok((sol, stats))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Relation as R;
    use crate::Solver;

    /// A cold hybrid solve under the default pricing.
    fn solve_hybrid(lp: &LinearProgram) -> (LpSolution, RevisedStats) {
        lp.solve_with(Solver::Hybrid.into())
    }

    fn q(v: i64) -> Q {
        Q::from_int(v)
    }

    fn qr(p: i64, d: i64) -> Q {
        Q::ratio(p, d)
    }

    /// Status and objective must always match the exact solver; on the
    /// certified cold path the float mirrors the exact pivot sequence,
    /// so the vertex matches too.
    fn assert_matches_revised(lp: &LinearProgram) {
        let exact = lp.solve();
        let (hybrid, stats) = solve_hybrid(lp);
        assert_eq!(exact.status, hybrid.status);
        assert_eq!(stats.hybrid_certified + stats.hybrid_fallbacks, 1);
        if exact.status == LpStatus::Optimal {
            assert_eq!(exact.objective_value, hybrid.objective_value);
            assert_eq!(exact.values, hybrid.values, "vertices must match");
            assert!(lp.is_feasible_point(&hybrid.values));
        }
    }

    #[test]
    fn reference_programs_match() {
        // The reference set from revised.rs: mixed relations, negative
        // rhs, redundant equalities, infeasible, unbounded, Beale.
        let mut programs = Vec::new();
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(-2));
        lp.set_objective(1, q(-3));
        lp.add_constraint(vec![(0, q(1)), (1, q(2))], R::Le, q(14));
        lp.add_constraint(vec![(0, q(3)), (1, q(-1))], R::Ge, q(0));
        lp.add_constraint(vec![(0, q(1)), (1, q(-1))], R::Le, q(2));
        programs.push(lp);
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(1));
        lp.add_constraint(vec![(0, q(-1))], R::Le, q(-3));
        programs.push(lp);
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], R::Eq, q(4));
        lp.add_constraint(vec![(0, q(2)), (1, q(2))], R::Eq, q(8));
        lp.set_objective(0, q(1));
        programs.push(lp);
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(vec![(0, q(1))], R::Ge, q(5));
        lp.add_constraint(vec![(0, q(1))], R::Le, q(3));
        programs.push(lp);
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(-1));
        programs.push(lp);
        let mut lp = LinearProgram::new(4);
        lp.set_objective(0, qr(-3, 4));
        lp.set_objective(1, q(150));
        lp.set_objective(2, qr(-1, 50));
        lp.set_objective(3, q(6));
        lp.add_constraint(
            vec![(0, qr(1, 4)), (1, q(-60)), (2, qr(-1, 25)), (3, q(9))],
            R::Le,
            q(0),
        );
        lp.add_constraint(
            vec![(0, qr(1, 2)), (1, q(-90)), (2, qr(-1, 50)), (3, q(3))],
            R::Le,
            q(0),
        );
        lp.add_constraint(vec![(2, q(1))], R::Le, q(1));
        programs.push(lp);
        for lp in &programs {
            assert_matches_revised(lp);
        }
    }

    /// A coefficient far below the float tolerance forces a wrong float
    /// proposal (the column looks zero, so phase 1 claims infeasible);
    /// the exact Farkas check must refuse it and the fallback must find
    /// the true optimum — with the fallback counter incremented.
    #[test]
    fn forced_certification_failure_falls_back_exactly() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(1));
        lp.add_constraint(vec![(0, Q::ratio(1, 1i64 << 40))], R::Ge, q(1));
        let (sol, stats) = solve_hybrid(&lp);
        assert_eq!(stats.hybrid_fallbacks, 1, "certification must fail");
        assert_eq!(stats.fallback_reasons.certificate_rejected, 1, "{stats:?}");
        assert_eq!(stats.hybrid_certified, 0);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], Q::from(1u64 << 40));
        // And the exact reference agrees bit for bit.
        let exact = lp.solve();
        assert_eq!(sol.values, exact.values);
        assert_eq!(sol.objective_value, exact.objective_value);
    }

    /// Regression for the `Q::to_f64` big-path fix: coefficients whose
    /// numerator and denominator each overflow f64 on their own but
    /// whose *ratio* is tame used to collapse to NaN (or 0), poisoning
    /// the float phase and forcing the exact fallback on every solve.
    /// With the pre-scaled conversion the float proposal stays finite
    /// and the basis certifies — no fallback.
    #[test]
    fn huge_rational_coefficients_certify_without_fallback() {
        // H ≈ 10^576: squaring 10^9 six times. Both H and H+1 are far
        // beyond f64::MAX, but (H+1)/H ≈ 1 is perfectly representable.
        let mut huge = Q::from_int(1_000_000_000);
        for _ in 0..6 {
            huge = huge.clone() * huge.clone();
        }
        let c = (huge.clone() + Q::one()) / huge.clone();
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(1));
        lp.set_objective(1, q(1));
        lp.add_constraint(vec![(0, c.clone()), (1, c.clone())], R::Ge, c.clone() + c.clone());
        lp.add_constraint(vec![(0, c.clone())], R::Le, c.clone() * q(3));
        let (sol, stats) = solve_hybrid(&lp);
        assert_eq!(
            stats.hybrid_fallbacks, 0,
            "huge-but-tame coefficients must not force the exact fallback"
        );
        assert_eq!(stats.hybrid_certified, 1);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible_point(&sol.values));
        let exact = lp.solve();
        assert_eq!(sol.objective_value, exact.objective_value);
    }

    /// The cached hybrid mode follows the binary-search access pattern:
    /// related programs certify against a reused factorization, and the
    /// cache counts certifications.
    #[test]
    fn cached_hybrid_tracks_rhs_changes() {
        let build = |cap: i64| {
            let mut lp = LinearProgram::new(3);
            lp.set_objective(0, q(1));
            lp.add_constraint(vec![(0, q(1)), (1, q(1)), (2, q(1))], R::Eq, q(3));
            for v in 0..3 {
                lp.add_constraint(vec![(v, q(1))], R::Le, q(cap));
            }
            lp
        };
        let mut cache = WarmCache::with_options(Solver::Hybrid.into());
        for cap in [5i64, 4, 3, 2] {
            let lp = build(cap);
            let hybrid = lp.solve_warm_cached(&mut cache);
            let cold = lp.solve();
            assert_eq!(hybrid.status, cold.status, "cap {cap}");
            assert_eq!(hybrid.objective_value, cold.objective_value, "cap {cap}");
            assert!(lp.is_feasible_point(&hybrid.values));
        }
        assert!(cache.hybrid_certified() >= 3, "float bases must certify on this family");
        // An infeasible probe is certified via Farkas and leaves the
        // cache usable.
        let infeasible = build(0).solve_warm_cached(&mut cache);
        assert_eq!(infeasible.status, LpStatus::Infeasible);
        let again = build(4).solve_warm_cached(&mut cache);
        assert_eq!(again.status, LpStatus::Optimal);
        assert_eq!(again.objective_value, q(0));
    }

    /// Zero-objective feasibility probes — the pipeline's hot shape —
    /// certify with a trivial dual system.
    #[test]
    fn zero_objective_probe_certifies() {
        let mut lp = LinearProgram::new(4);
        for j in 0..2 {
            lp.add_constraint(vec![(2 * j, q(1)), (2 * j + 1, q(1))], R::Eq, q(1));
        }
        lp.add_constraint(vec![(0, q(3)), (2, q(2))], R::Le, q(4));
        lp.add_constraint(vec![(1, q(2)), (3, q(4))], R::Le, q(4));
        let (sol, stats) = solve_hybrid(&lp);
        assert_eq!(stats.hybrid_certified, 1);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible_point(&sol.values));
    }

    /// Warm hybrid solves agree with the exact warm reference for
    /// arbitrary hints (the semantics solve_warm promises).
    #[test]
    fn warm_hybrid_matches_reference_semantics() {
        let mut lp = LinearProgram::new(3);
        lp.set_objective(0, q(2));
        lp.set_objective(1, q(1));
        lp.add_constraint(vec![(0, q(1)), (1, q(1)), (2, q(1))], R::Eq, q(6));
        lp.add_constraint(vec![(0, q(1))], R::Le, q(4));
        lp.add_constraint(vec![(1, q(2)), (2, q(1))], R::Ge, q(3));
        let reference = lp.solve();
        for hint in [vec![], vec![0, 1, 2], reference.basis.clone(), vec![9, 9, 0]] {
            let warm = lp.solve_warm_with(&hint, Solver::Hybrid.into());
            assert_eq!(warm.status, reference.status, "hint {hint:?}");
            assert_eq!(warm.objective_value, reference.objective_value, "hint {hint:?}");
            assert!(lp.is_feasible_point(&warm.values), "hint {hint:?}");
        }
    }

    /// The fault-injection hooks: an injected certification failure
    /// takes the counted exact fallback, a poisoned hint takes the
    /// counted stale-hint fallback, and neither changes any answer.
    #[test]
    fn injected_faults_are_counted_and_exact() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(-2));
        lp.set_objective(1, q(-3));
        lp.add_constraint(vec![(0, q(1)), (1, q(2))], R::Le, q(14));
        lp.add_constraint(vec![(0, q(3)), (1, q(-1))], R::Ge, q(0));
        let reference = lp.solve();
        let mut cache = WarmCache::with_options(Solver::Hybrid.into());
        let first = lp.solve_warm_cached(&mut cache);
        assert_eq!(first.objective_value, reference.objective_value);
        assert_eq!(cache.hybrid_fallbacks(), 0);

        cache.force_certification_failures(1);
        assert_eq!(cache.pending_forced_cert_failures(), 1);
        let sol = lp.solve_warm_cached(&mut cache);
        assert_eq!(cache.pending_forced_cert_failures(), 0);
        assert_eq!(cache.hybrid_fallbacks(), 1, "injected fault must be a counted fallback");
        assert_eq!(cache.fallback_reasons().injected, 1);
        assert_eq!(sol.status, reference.status);
        assert_eq!(sol.objective_value, reference.objective_value);

        cache.poison_hint();
        let sol = lp.solve_warm_cached(&mut cache);
        assert_eq!(cache.warm_fallbacks(), 1, "poisoned hint must be a counted fallback");
        assert_eq!(sol.objective_value, reference.objective_value);

        // No pending fault left: the next solve certifies normally.
        let sol = lp.solve_warm_cached(&mut cache);
        assert_eq!(cache.hybrid_fallbacks(), 1);
        assert_eq!(sol.objective_value, reference.objective_value);
    }

    /// A warm crash that leaves a unit slot far from zero (here: an
    /// inconsistent redundant row no column can cover) gives up; the cold
    /// two-phase retry then proposes a phase-1 witness that certifies, so
    /// no exact pivot runs and the rescue is counted.
    #[test]
    fn warm_give_up_is_rescued_by_the_cold_retry() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], R::Eq, q(2));
        lp.add_constraint(vec![(0, q(2)), (1, q(2))], R::Eq, q(5));
        let mut cache = WarmCache::with_options(Solver::Hybrid.into());
        cache.set_hint(vec![0]);
        let sol = lp.solve_warm_cached(&mut cache);
        assert_eq!(sol.status, LpStatus::Infeasible);
        assert_eq!(cache.hybrid_certified(), 1);
        assert_eq!(cache.cold_rescues(), 1);
        assert_eq!(cache.hybrid_fallbacks(), 0, "{:?}", cache.fallback_reasons());
    }

    /// The certifier's triangular order on the pipeline's own LPs: the
    /// LST relaxation (job rows `Σ_i x_ij = 1`, machine rows
    /// `Σ_j p_j x_ij ≤ T`) on identical machines at McNaughton's horizon
    /// `T = max(p_max, ⌈Σp/m⌉)`, solved warm from the LPT basis (each
    /// job's LPT pair plus every slack). On identical machines a basis
    /// has no cycle: a basis block with one has as many columns as rows,
    /// hence no slack, and on it the sum of its machine rows minus its
    /// job rows weighted by `p_j` vanishes, so it would be singular.
    /// Every certified basis is therefore triangular, and its
    /// factorization holds exactly the basis' own nonzeros.
    #[test]
    fn certified_lst_bases_factorize_without_fill() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |lo: u64, hi: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + (state >> 33) % (hi - lo + 1)
        };
        let mut fractional = 0;
        for _ in 0..12 {
            let (n, m) = (next(20, 48) as usize, next(8, 24) as usize);
            let p: Vec<u64> = (0..n).map(|_| next(5, 60)).collect();
            let t =
                p.iter().copied().max().unwrap_or(0).max(p.iter().sum::<u64>().div_ceil(m as u64));
            let mut lp = LinearProgram::new(n * m);
            for j in 0..n {
                lp.add_constraint((0..m).map(|i| (j * m + i, Q::one())).collect(), R::Eq, Q::one());
            }
            for i in 0..m {
                let coeffs = (0..n).map(|j| (j * m + i, Q::from(p[j]))).collect();
                lp.add_constraint(coeffs, R::Le, Q::from(t));
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&j| (std::cmp::Reverse(p[j]), j));
            let mut load = vec![0u64; m];
            let mut hint: Vec<usize> = (n * m..n * m + m).collect();
            for j in order {
                let i = (0..m).min_by_key(|&i| (load[i], i)).expect("m ≥ 1");
                load[i] += p[j];
                hint.push(j * m + i);
            }
            let mut cache = WarmCache::with_options(Solver::Hybrid.into());
            cache.set_hint(hint);
            let sol = lp.solve_warm_cached(&mut cache);
            assert_eq!(sol.status, LpStatus::Optimal, "n {n} m {m}");
            assert_eq!(cache.hybrid_certified(), 1, "n {n} m {m}");
            fractional += usize::from(sol.values.iter().any(|v| !v.is_integer()));
            let reuse = cache.reuse.as_ref().expect("a clean certified basis is kept for reuse");
            let own: usize = reuse.snapshot.iter().map(Vec::len).sum();
            assert_eq!(reuse.factor.factor_nnz(), own, "n {n} m {m}: the certifier added fill");
        }
        assert!(fractional >= 6, "most horizons need the LP: {fractional} of 12 fractional");
    }

    /// An injected fault whose exact fallback then blows the pivot
    /// budget surfaces `PivotCapExhausted`; the fallback stays counted,
    /// the hint survives, and an uncapped retry is exact.
    #[test]
    fn injected_fault_under_budget_is_recoverable() {
        use crate::SolveBudget;
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(1));
        lp.set_objective(1, q(1));
        lp.add_constraint(vec![(0, q(1))], R::Ge, q(3));
        lp.add_constraint(vec![(1, q(1))], R::Ge, q(2));
        let cold = lp.solve();
        let mut cache = WarmCache::with_options(Solver::Hybrid.into());
        // Both slack columns: the exact fallback's dual repair needs two
        // pivots, one more than the budget grants.
        cache.hint = vec![2, 3];
        cache.force_certification_failures(1);
        let err = lp.solve_budgeted(&mut cache, &SolveBudget::pivots(1)).unwrap_err();
        assert!(matches!(err, BudgetError::PivotCapExhausted { pivots } if pivots >= 2));
        assert_eq!(cache.hybrid_fallbacks(), 1, "fault stays counted across the budget abort");
        assert_eq!(cache.hint, vec![2, 3], "failed budgeted solve keeps the prior hint");
        let sol = lp.solve_warm_cached(&mut cache);
        assert_eq!(sol.status, cold.status);
        assert_eq!(sol.objective_value, cold.objective_value);
    }
}
