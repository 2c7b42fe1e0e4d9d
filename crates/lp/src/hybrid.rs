//! Certified float→exact hybrid simplex ([`crate::Solver::Hybrid`]).
//!
//! Every pivot of the exact solvers pays rational arithmetic even when
//! plain `f64` would find the same optimal basis. The paper's pipeline
//! only ever consumes *exact* answers (the binary search on `T` and the
//! rounding lemmas), so the hybrid splits the work:
//!
//! 1. the **f64 instance of the simplex core** ([`crate::revised`]) —
//!    the exact solver's drivers, pivot rules and eta-update structure,
//!    with tolerance-based signs and ratio test — runs the whole pivot
//!    sequence and *proposes* a terminal basis (or an infeasibility /
//!    unboundedness witness);
//! 2. an **exact certifier** reads the exact values of just the proposed
//!    basis columns from the normalized rows, through the float program's
//!    column structure, builds one `Q` factorization of them and checks
//!    the claim exactly: primal feasibility `B⁻¹b ≥ 0` plus dual
//!    feasibility `c_j − yᵀA_j ≥ 0` for an optimum (complementary
//!    slackness is automatic at a basic solution), a Farkas vector for
//!    infeasibility, a feasible point plus a nonpositive ray for
//!    unboundedness.
//!
//! This module holds the proposal's assembly and outcome mapping, the
//! certifier, and the orchestration between them. On success the exact
//! vertex/objective is read off that single factorization — the answer
//! is exact even though no exact pivot ever ran. The certifier checks the
//! float's *own* final basis, in the manner of Applegate, Cook, Dash and
//! Espinoza ("Exact solutions to linear programming problems", Oper.
//! Res. Lett. 2007): an infeasibility claim from phase 1 names the rows
//! whose artificials stayed basic, and the exact basis is completed with
//! exactly those unit columns, so the phase-1 duals it checks are the
//! ones phase 1 ended with.
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

use crate::factor::{Factorization, Refactor, SVec};
use crate::problem::LinearProgram;
use crate::revised::{
    crash, sanitize, BudgetError, Cols, Core, Fallback, Layout, Outcome, Pricing, Program,
    RepairCap, ReuseState, RevisedStats, SolveOptions, WarmCache, WarmMode, Witness, VIRTUAL,
};
use crate::simplex::{LpSolution, LpStatus};

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

// ---------------------------------------------------------------------
// Exact certifier.
// ---------------------------------------------------------------------

/// The certifier's exact views of the program, read off its normalized
/// rows: it builds only the handful of exact columns it factorizes.
impl Layout {
    /// Column `j`'s exact entries in the normalized layout. The rows come
    /// from the float transpose `a`, which lists exactly the program's
    /// nonzeros; each value comes from the exact row, by a binary search.
    /// O(the column's nonzeros), and no value of `a` is read.
    fn exact_col<'s>(
        &'s self,
        lp: &'s LinearProgram,
        a: &'s Cols<f64>,
        j: usize,
    ) -> impl Iterator<Item = (usize, Q)> + 's {
        a.col(j).iter().map(move |&(i, _)| match j.checked_sub(self.n) {
            Some(k) => (i, if self.slack[k].1 { -Q::one() } else { Q::one() }),
            None => {
                let v = lp.coef(i, j).expect("the transpose lists the row's nonzeros").clone();
                (i, if self.neg[i] { -v } else { v })
            }
        })
    }

    /// Whether every `basis` column still holds its `snapshot` entries.
    fn unchanged(
        &self,
        lp: &LinearProgram,
        a: &Cols<f64>,
        basis: &[usize],
        snapshot: &[SVec],
    ) -> bool {
        basis.iter().zip(snapshot).all(|(&b, snap)| {
            a.col(b).len() == snap.len()
                && self.exact_col(lp, a, b).zip(snap).all(|((i, v), (si, sv))| i == *si && v == *sv)
        })
    }

    /// `dots[j] = ρᵀA_j` for every structural column, accumulated
    /// row-major over the normalized rows; only rows with `ρ_i ≠ 0` cost
    /// exact arithmetic.
    fn dots(&self, lp: &LinearProgram, rho: &[Q]) -> Vec<Q> {
        let mut dots = vec![Q::zero(); self.n];
        for (i, r) in rho.iter().enumerate() {
            if r.is_zero() {
                continue;
            }
            let r = if self.neg[i] { -r.clone() } else { r.clone() };
            for (idx, coef) in lp.row(i) {
                dots[*idx] += coef.clone() * r.clone();
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
/// The exact columns are read through the float transpose `a`. Returns
/// the factorization, the per-slot basis ([`VIRTUAL`] = unit column), and
/// each slot's exact column (empty on unit slots), or `None` when the
/// proposed basis is singular under exact arithmetic.
fn build_exact_basis(
    lp: &LinearProgram,
    lay: &Layout,
    a: &Cols<f64>,
    proposal: &[usize],
    unit_rows: &[usize],
) -> Option<(Factorization, Vec<usize>, Vec<SVec>)> {
    let m = lay.m;
    if proposal.len() + unit_rows.len() > m {
        return None;
    }
    let mut ex: Vec<SVec> = proposal.iter().map(|&j| lay.exact_col(lp, a, j).collect()).collect();
    // Unit columns on the proposer's rows, not wherever the elimination
    // leaves rows open: a phase-1 dual vector is a Farkas vector only for
    // the basis phase 1 actually ended in.
    let units: Vec<SVec> = unit_rows.iter().map(|&row| vec![(row, Q::one())]).collect();
    let cols: Vec<&SVec> = ex.iter().chain(&units).collect();
    // The triangular order of every factorization (Suhl & Suhl 1990): a
    // forest-shaped assignment basis factorizes without fill.
    let mut factor = Factorization::identity(m);
    let pos = factor.eliminate_basis(&cols);
    let mut pivoted = vec![false; m];
    let mut basis = vec![VIRTUAL; m];
    let mut by_slot = vec![Vec::new(); m];
    for (k, slot) in pos.into_iter().enumerate() {
        let slot = slot?;
        pivoted[slot] = true;
        if k < proposal.len() {
            basis[slot] = proposal[k];
            by_slot[slot] = std::mem::take(&mut ex[k]);
        }
    }
    let mut scratch = Vec::new();
    for p in 0..m {
        if pivoted[p] {
            continue;
        }
        let pp = factor.eliminate(&[(p, Q::one())], &pivoted, &mut scratch)?;
        pivoted[pp] = true;
    }
    Some((factor, basis, by_slot))
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
    lay: &Layout,
    factor: &Factorization,
    basis: &[usize],
) -> Option<LpSolution> {
    let n = lay.n;
    let mut xb = lay.rhs.clone();
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

    let in_basis = basis_mask(basis, lay.cols);
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
            let dots = lay.dots(lp, &y);
            for j in 0..n {
                if in_basis[j] {
                    continue;
                }
                let rc = lp.objective[j].clone() - dots[j].clone();
                if rc.is_negative() {
                    return None;
                }
            }
            for k in 0..lay.slack.len() {
                if !in_basis[n + k] && lay.slack_dot(&y, k).is_positive() {
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
    lay: &Layout,
    factor: &Factorization,
    basis: &[usize],
    witness: &Witness,
) -> Option<LpSolution> {
    let n = lay.n;
    let mut rho = vec![Q::zero(); lay.m];
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
    for (i, v) in lay.rhs.iter().enumerate() {
        if !v.is_zero() && !rho[i].is_zero() {
            rb += rho[i].clone() * v.clone();
        }
    }
    if !rb.is_negative() {
        return None;
    }
    let in_basis = basis_mask(basis, lay.cols);
    let dots = lay.dots(lp, &rho);
    for (j, d) in dots.iter().enumerate() {
        if !in_basis[j] && d.is_negative() {
            return None;
        }
    }
    for k in 0..lay.slack.len() {
        if !in_basis[n + k] && lay.slack_dot(&rho, k).is_negative() {
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
    lay: &Layout,
    a: &Cols<f64>,
    factor: &Factorization,
    basis: &[usize],
    enter: usize,
) -> Option<LpSolution> {
    let n = lay.n;
    if enter >= lay.cols || basis.contains(&enter) {
        return None;
    }
    let mut xb = lay.rhs.clone();
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

    let ecol: SVec = lay.exact_col(lp, a, enter).collect();
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
    lay: &Layout,
    a: &Cols<f64>,
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
            if r.m == lay.m && r.cols == lay.cols && r.basis.len() == cols_prop.len() {
                let mut sorted_prop = cols_prop.to_vec();
                sorted_prop.sort_unstable();
                let mut sorted_reuse = r.basis.clone();
                sorted_reuse.sort_unstable();
                if sorted_prop == sorted_reuse && lay.unchanged(lp, a, &r.basis, &r.snapshot) {
                    reused_snapshot = Some(r.snapshot);
                    break 'build (r.factor, r.basis, Vec::new());
                }
            }
        }
        build_exact_basis(lp, lay, a, cols_prop, unit_rows).ok_or(Fallback::Singular)?
    };

    let sol = match proposal {
        FloatProposal::Optimal { .. } => certify_optimal(lp, lay, &factor, &basis),
        FloatProposal::Infeasible { witness, .. } => {
            certify_infeasible(lp, lay, &factor, &basis, witness)
        }
        FloatProposal::Unbounded { enter, .. } => {
            certify_unbounded(lp, lay, a, &factor, &basis, *enter)
        }
        FloatProposal::GaveUp => unreachable!("handled above"),
    }
    .ok_or(Fallback::Rejected)?;

    // Offer the certified factorization for reuse only when the basis is
    // clean (no virtual slots) — the exact warm cache's policy.
    let reused_snapshot_used = reused_snapshot.is_some();
    let reuse_out = (sol.status == LpStatus::Optimal && !basis.contains(&VIRTUAL)).then(|| {
        let snapshot = reused_snapshot.unwrap_or(extracted);
        ReuseState { m: lay.m, cols: lay.cols, basis, factor, snapshot }
    });
    let reused = reused_snapshot_used;
    Ok((sol, reuse_out, reused))
}

/// The float proposer's pivot cap: once a float driver has made
/// `64(m + cols) + 1025` pivots it gives up at the next one.
fn float_cap(m: usize, cols: usize) -> usize {
    64 * (m + cols) + 1025
}

/// A float driver's outcome as a proposal over the real columns below
/// `real`; its pricing counters go into the solve's `stats`.
fn propose(
    core: &Core<'_, f64>,
    outcome: Outcome,
    real: usize,
    stats: &mut RevisedStats,
) -> FloatProposal {
    stats.columns_priced += core.stats.columns_priced;
    stats.candidate_refills += core.stats.candidate_refills;
    let cols = core.real_basis(real);
    match outcome {
        Outcome::Optimal => FloatProposal::Optimal { cols },
        Outcome::Unbounded { enter } => FloatProposal::Unbounded { cols, enter },
        Outcome::Infeasible { witness } => FloatProposal::Infeasible { cols, witness },
        _ => FloatProposal::GaveUp,
    }
}

/// The float two-phase proposal. The cold layout appends one artificial
/// column per `≥`/`=` row, as the exact cold solver does. They live only
/// in the float view and are stripped again here; an infeasibility
/// witness names the rows whose artificials stayed basic, and the
/// certifier rebuilds exactly those as unit columns.
fn propose_cold(
    lay: &Layout,
    float: &mut Program<f64>,
    pricing: Pricing,
    stats: &mut RevisedStats,
) -> FloatProposal {
    let basis = lay.push_artificials(float);
    let cap = float_cap(lay.m, float.cols.count());
    let mut core =
        Core::new(float, basis, Factorization::identity(lay.m), pricing, Refactor::default());
    let outcome = core.two_phase(lay.cols, cap);
    let proposal = propose(&core, outcome, lay.cols, stats);
    float.cols.truncate(lay.cols);
    float.cost.truncate(lay.cols);
    proposal
}

/// The float warm proposal: crash the `wanted` columns, then repair and
/// optimize. The repair's pivot budget is tight — a good hint repairs in
/// O(m) pivots, and a float repair that needs more is almost always
/// stalling on noise; better to hand the program to the exact solver
/// early than to grind out thousands of degenerate float pivots.
fn propose_warm(
    float: &Program<f64>,
    m: usize,
    wanted: &[usize],
    pricing: Pricing,
    stats: &mut RevisedStats,
) -> FloatProposal {
    let Some((basis, factor)) = crash(&float.cols, m, wanted) else {
        return FloatProposal::GaveUp;
    };
    let cols = float.cols.count();
    let mut core = Core::new(float, basis, factor, pricing, Refactor::default());
    let outcome = core.warm(RepairCap::Unfinished(2 * m + 64), float_cap(m, cols));
    propose(&core, outcome, cols, stats)
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
        let lay = Layout::new(self);
        let float = lay.program(self);
        self.solve_hybrid_cold_from(&lay, float, opts, cache)
    }

    /// [`solve_hybrid_cold`](Self::solve_hybrid_cold) on this program's
    /// already-built layout and float view.
    fn solve_hybrid_cold_from(
        &self,
        lay: &Layout,
        mut float: Program<f64>,
        opts: SolveOptions,
        cache: Option<&mut WarmCache>,
    ) -> (LpSolution, RevisedStats) {
        let mut stats = RevisedStats::default();
        let proposal = propose_cold(lay, &mut float, opts.pricing, &mut stats);
        match certify(self, lay, &float.cols, &proposal, None) {
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

        let lay = Layout::new(self);
        let mut float = lay.program(self);
        let mut stats = RevisedStats::default();

        // Hint-first certification: no pivots of any kind when the
        // previously certified basis is still optimal here.
        if let Some(c) = cache.as_deref_mut() {
            if let Some(r) = c.reuse.take() {
                if r.m == lay.m
                    && r.cols == lay.cols
                    && lay.unchanged(self, &float.cols, &r.basis, &r.snapshot)
                {
                    if let Some(sol) = certify_optimal(self, &lay, &r.factor, &r.basis) {
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
            return Ok(self.solve_hybrid_cold_from(&lay, float, opts, cache));
        }

        // A stale hint (out-of-range columns or duplicate slots — a
        // basis from a differently-shaped program) would crash into a
        // half-garbage float basis whose repair almost always gives up.
        // Route straight to the cold path and count the fallback, the
        // same policy as the exact warm solver.
        let (wanted, stale) = sanitize(hint, lay.cols);
        if stale {
            if let Some(c) = cache.as_deref_mut() {
                c.warm_fallbacks += 1;
            }
            return Ok(self.solve_hybrid_cold_from(&lay, float, opts, cache));
        }

        let mut proposal = propose_warm(&float, lay.m, &wanted, opts.pricing, &mut stats);
        // A warm give-up says more about the crash basis than about the
        // program: propose again cold before paying for exact pivots.
        let retried = matches!(proposal, FloatProposal::GaveUp);
        if retried {
            proposal = propose_cold(&lay, &mut float, opts.pricing, &mut stats);
        }

        let reuse = match (&proposal, cache.as_deref_mut()) {
            // Only lift the cached state out for a clean full-rank
            // optimal proposal; certify() revalidates before trusting it.
            (FloatProposal::Optimal { cols }, Some(c)) if cols.len() == lay.m => c.reuse.take(),
            _ => None,
        };
        match certify(self, &lay, &float.cols, &proposal, reuse) {
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
    /// certified cold path the float instance takes the exact pivot
    /// sequence, so the vertex matches too.
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

    /// The reference set from revised.rs — mixed relations, negative
    /// rhs, redundant equalities, infeasible, unbounded, Beale — plus a
    /// chain of coupled rows that takes a healthy number of pivots.
    fn reference_programs() -> Vec<LinearProgram> {
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
        let mut chain = LinearProgram::new(6);
        for v in 0..6 {
            chain.set_objective(v, q(-(v as i64 + 1)));
        }
        for c in 0..6 {
            chain.add_constraint(
                (0..6).map(|v| (v, q(1 + ((c + v) % 3) as i64))),
                R::Le,
                q(10 + c as i64),
            );
        }
        chain.add_constraint(vec![(0, q(1)), (3, q(1))], R::Ge, q(1));
        programs.push(chain);
        programs
    }

    #[test]
    fn reference_programs_match() {
        for lp in &reference_programs() {
            assert_matches_revised(lp);
        }
    }

    /// A float refactorization is a change of representation too: the
    /// cold float proposal, refactorized after every pivot in
    /// `eliminate_basis`'s order, still certifies the exact solver's
    /// answer and vertex on every reference program.
    #[test]
    fn forced_float_refactorization_certifies_the_exact_vertex() {
        let every_pivot = Refactor { interval: 1, fill_factor: 0 };
        let mut refactorizations = 0;
        for lp in reference_programs() {
            let lay = Layout::new(&lp);
            let mut float = lay.program::<f64>(&lp);
            let basis = lay.push_artificials(&mut float);
            let mut stats = RevisedStats::default();
            let proposal = {
                let identity = Factorization::identity(lay.m);
                let mut core = Core::new(&float, basis, identity, Pricing::Bland, every_pivot);
                let outcome = core.two_phase(lay.cols, usize::MAX);
                refactorizations += core.stats.refactorizations;
                propose(&core, outcome, lay.cols, &mut stats)
            };
            float.cols.truncate(lay.cols);
            let (sol, _, _) = certify(&lp, &lay, &float.cols, &proposal, None)
                .unwrap_or_else(|why| panic!("not certified: {why:?}"));
            let exact = lp.solve();
            assert_eq!(sol.status, exact.status);
            assert_eq!(sol.objective_value, exact.objective_value);
            assert_eq!(sol.values, exact.values, "certified a different vertex");
        }
        assert!(refactorizations >= 10, "only {refactorizations} float refactorizations");
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
                lp.add_constraint((0..m).map(|i| (j * m + i, Q::one())), R::Eq, Q::one());
            }
            for i in 0..m {
                let coeffs = (0..n).map(|j| (j * m + i, Q::from(p[j])));
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
