//! The revised simplex — one core over either arithmetic ([`Scalar`]):
//! exact `Q` for the production solver, `f64` for the hybrid's proposer
//! ([`crate::hybrid`]) — plus the options, warm-start cache, and budget
//! types shared by both production solvers ([`Solver`]).
//!
//! A tableau solver maintains the transformed matrix `B⁻¹A` explicitly:
//! every pivot rewrites every touched row, and on the paper's decision
//! LPs the rows fill in rapidly once the basis outgrows a few hundred
//! rows. The revised method never materializes the tableau. It keeps the
//! constraint matrix in one flat column store ([`Cols`]), represents
//! `B⁻¹` as a [`Factorization`] (an elimination of the basis columns,
//! refactorized on a pivot-count trigger — and, exactly, on fill — plus
//! one eta per pivot since), and derives everything the simplex compares
//! on demand:
//!
//! * **pricing** — one BTRAN for the multipliers `y = B⁻ᵀ c_B`, then
//!   reduced costs `c_j − y·A_j` column by column in Bland order with
//!   early exit at the first negative;
//! * **ratio test** — one FTRAN for the transformed entering column;
//! * **basic values** — `x_B` updated incrementally per pivot, exactly
//!   as the tableau updates its right-hand side.
//!
//! Because all of these are the *same exact rational values* a tableau
//! maintains, and the Bland entering rule and ratio tie-break are
//! verbatim the same, the exact solver takes the pivot path of the
//! dense test oracle ([`LinearProgram::solve_dense`]) and returns
//! bit-identical vertices — the differential tests assert equality of
//! status, objective, values, and basis. The `f64` instance runs the
//! same pivots with tolerances ([`Scalar`] holds every difference) and
//! gives up on numerical trouble; the hybrid certifies what it proposes.
//!
//! The core has two drivers, each returning an [`Outcome`] its caller
//! maps: the cold two-phase ([`Core::two_phase`]) and the warm crash plus
//! dual repair ([`crash`], [`Core::warm`]). [`LinearProgram::solve_warm`]
//! crashes the hinted columns into a basis by one factorization pass in
//! the refactorization's order, row singletons first (instead of `m`
//! full-tableau Gaussian pivots), a zero-objective dual simplex repairs
//! primal feasibility, and a final primal phase optimizes the real
//! objective. Both arithmetics' programs come from one streaming
//! transpose of the normalized rows ([`Layout::program`]). A [`WarmCache`] carried across related
//! solves (the binary-search probes on the horizon `T`) additionally
//! reuses the *parent factorization* wholesale whenever the hinted basis
//! columns are unchanged in the new program, skipping even the crash.

use std::cmp::Ordering;

use numeric::Q;

use crate::factor::{Factorization, Refactor, SVec, Scalar};
use crate::problem::{LinearProgram, Relation};
use crate::simplex::{LpSolution, LpStatus};

/// Marker for a row slot whose basic variable is a *virtual* identity
/// column (a redundant row discovered by the warm-start crash; the
/// tableau oracle deletes such rows instead).
pub(crate) const VIRTUAL: usize = usize::MAX;

/// Which production solver to run. Both are exact: status and optimal
/// objective always agree.
///
/// [`Revised`](Solver::Revised) pivots in exact arithmetic against an
/// LU-factorized basis (eta updates, BTRAN/FTRAN pricing — no
/// transformed tableau at all). [`Hybrid`](Solver::Hybrid) runs an f64
/// simplex first and certifies the proposed basis exactly, falling back
/// to [`Revised`](Solver::Revised) when certification fails; a certified
/// vertex may be a different optimal basic solution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Solver {
    /// Revised simplex against an exact factorized basis (default).
    #[default]
    Revised,
    /// f64 revised simplex + exact certification, exact fallback.
    Hybrid,
}

/// Entering-column selection strategy for the primal simplex phases.
///
/// [`Pricing::Bland`] is the default and keeps the historical pivot path
/// bit-identical — the fixed-seed goldens, the differential suites, and
/// the B&B node paths all depend on that. [`Pricing::PartialCandidate`]
/// trades the full in-order scan for far fewer reduced-cost evaluations
/// per pivot; any optimum it reaches is exact (status and objective
/// always agree with Bland), but the returned vertex may be a
/// *different* optimal basic solution. A degenerate-pivot-streak guard
/// falls back to Bland's rule within the phase until the objective
/// strictly improves, so termination stays guaranteed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Pricing {
    /// Full scan in column order, entering at the first negative reduced
    /// cost (Bland's anti-cycling rule; the historical behavior).
    #[default]
    Bland,
    /// Rotating section scan that fills a bounded candidate list; the
    /// list is re-priced lazily (entering at the most negative reduced
    /// cost) and refilled only when exhausted — an empty refill over the
    /// whole ring proves optimality.
    PartialCandidate,
}

/// How to solve: the one configuration of every solve entry point
/// ([`LinearProgram::solve_with`], [`LinearProgram::solve_warm_with`],
/// [`WarmCache::with_options`]). The default — exact revised simplex,
/// Bland's rule — is what [`LinearProgram::solve`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolveOptions {
    /// Which production solver runs.
    pub solver: Solver,
    /// Entering-column strategy (for the hybrid: of both the float
    /// proposer and the exact fallback). Non-Bland pricing changes the
    /// pivot *path* (and possibly which optimal vertex is returned) but
    /// never the status or objective.
    pub pricing: Pricing,
}

impl From<Solver> for SolveOptions {
    fn from(solver: Solver) -> Self {
        SolveOptions { solver, ..SolveOptions::default() }
    }
}

/// Counters reported by [`LinearProgram::solve_with`].
#[derive(Clone, Copy, Default, Debug)]
pub struct RevisedStats {
    /// Simplex pivots performed (all phases, including warm repair).
    pub pivots: usize,
    /// Basis refactorizations triggered after the initial factorization.
    pub refactorizations: usize,
    /// Hybrid solves whose float-proposed basis was certified exactly.
    pub hybrid_certified: usize,
    /// Hybrid solves that failed certification and fell back to the
    /// exact revised solver.
    pub hybrid_fallbacks: usize,
    /// The same fallbacks, counted by reason.
    pub fallback_reasons: FallbackReasons,
    /// Warm hybrid solves whose float proposer gave up but whose cold
    /// retry certified, so no exact pivot ran.
    pub cold_rescues: usize,
    /// Reduced costs evaluated while selecting entering columns (both
    /// the exact phases and the hybrid float proposer) — the scan work
    /// the non-Bland pricing strategies exist to reduce.
    pub columns_priced: usize,
    /// Candidate-list refill scans (non-Bland pricing only).
    pub candidate_refills: usize,
}

impl RevisedStats {
    /// Fold `other`'s counters into `self` (used when one logical solve
    /// runs several internal phases/solvers, e.g. hybrid float + exact).
    pub(crate) fn absorb(&mut self, other: &RevisedStats) {
        self.pivots += other.pivots;
        self.refactorizations += other.refactorizations;
        self.hybrid_certified += other.hybrid_certified;
        self.hybrid_fallbacks += other.hybrid_fallbacks;
        self.fallback_reasons.absorb(&other.fallback_reasons);
        self.cold_rescues += other.cold_rescues;
        self.columns_priced += other.columns_priced;
        self.candidate_refills += other.candidate_refills;
    }

    /// Count one hybrid fallback to the exact solver.
    pub(crate) fn note_fallback(&mut self, why: Fallback) {
        self.hybrid_fallbacks += 1;
        self.fallback_reasons.count(why);
    }
}

/// Why a hybrid solve fell back to the exact solver.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fallback {
    GaveUp,
    Singular,
    Rejected,
    Injected,
}

/// Hybrid fallbacks to the exact solver, counted by reason. The
/// counters sum to the fallback total ([`FallbackReasons::total`]).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FallbackReasons {
    /// The float proposer gave up: its pivot cap, numerical trouble, or
    /// a warm dual repair past its cap. A warm solve counts here only
    /// when its cold retry gave up too.
    pub float_gave_up: usize,
    /// The proposed basis is singular in exact arithmetic.
    pub singular_basis: usize,
    /// The exact optimality, Farkas or ray check rejected the proposal.
    pub certificate_rejected: usize,
    /// Injected by [`WarmCache::force_certification_failures`].
    pub injected: usize,
}

impl FallbackReasons {
    /// All fallbacks, whatever the reason.
    pub fn total(&self) -> usize {
        self.float_gave_up + self.singular_basis + self.certificate_rejected + self.injected
    }

    pub(crate) fn count(&mut self, why: Fallback) {
        *match why {
            Fallback::GaveUp => &mut self.float_gave_up,
            Fallback::Singular => &mut self.singular_basis,
            Fallback::Rejected => &mut self.certificate_rejected,
            Fallback::Injected => &mut self.injected,
        } += 1;
    }

    fn absorb(&mut self, other: &FallbackReasons) {
        self.float_gave_up += other.float_gave_up;
        self.singular_basis += other.singular_basis;
        self.certificate_rejected += other.certificate_rejected;
        self.injected += other.injected;
    }
}

/// Persistent warm-start state for a sequence of *related* solves (same
/// constraint skeleton, drifting right-hand sides / pruned entries — the
/// binary-search-on-`T` access pattern). Owned by the caller, threaded
/// through [`LinearProgram::solve_warm_cached`].
#[derive(Default, Debug, Clone)]
pub struct WarmCache {
    /// Basis hint from the previous solve (internal column indices).
    pub(crate) hint: Vec<usize>,
    /// Fully-slotted state for factorization reuse, stored only by warm
    /// solves that ended with a clean (virtual-free) basis.
    pub(crate) reuse: Option<ReuseState>,
    pub(crate) factor_reuses: usize,
    /// How every solve driven through this cache runs.
    pub(crate) opts: SolveOptions,
    /// Warm solves that tripped the anti-cycling cap and restarted cold.
    pub(crate) warm_fallbacks: usize,
    /// Hybrid solves certified exactly / fallen back, by reason (hybrid
    /// caches only).
    pub(crate) hybrid_certified: usize,
    pub(crate) fallback_reasons: FallbackReasons,
    /// Warm float give-ups certified by their cold retry.
    pub(crate) cold_rescues: usize,
    /// Pricing work accumulated across all solves through this cache.
    pub(crate) columns_priced: usize,
    pub(crate) candidate_refills: usize,
    /// One entry per worker cache folded in via
    /// [`WarmCache::absorb_worker`]: that worker's fallback count
    /// (warm + hybrid) — the per-worker breakdown the batch/B&B layers
    /// report.
    pub(crate) per_worker_fallbacks: Vec<usize>,
    /// Pending injected certification failures
    /// ([`WarmCache::force_certification_failures`]), consumed one per
    /// hybrid solve. Fault-injection hook; zero in normal operation.
    pub(crate) forced_cert_failures: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct ReuseState {
    pub(crate) m: usize,
    pub(crate) cols: usize,
    /// Basic column per slot (no [`VIRTUAL`] entries).
    pub(crate) basis: Vec<usize>,
    pub(crate) factor: Factorization,
    /// The basis columns' contents when `factor` was built — reuse is
    /// valid iff the new program's columns match exactly.
    pub(crate) snapshot: Vec<SVec>,
}

impl WarmCache {
    /// An empty cache with the default options: the first
    /// `solve_warm_cached` runs cold.
    pub fn new() -> Self {
        WarmCache::default()
    }

    /// An empty cache whose solves all run under `opts` — the solver
    /// ([`Solver::Hybrid`] is the intended non-default choice: float
    /// proposal + exact certification) and the entering-column strategy.
    /// Under [`Solver::Hybrid`] the exact certification holds regardless
    /// of the path the float proposer took.
    pub fn with_options(opts: SolveOptions) -> Self {
        WarmCache { opts, ..WarmCache::default() }
    }

    /// The options every solve through this cache runs under.
    pub fn options(&self) -> SolveOptions {
        self.opts
    }

    /// Reduced costs evaluated across all solves through this cache.
    pub fn columns_priced(&self) -> usize {
        self.columns_priced
    }

    /// Candidate-list refill scans across all solves through this cache.
    pub fn candidate_refills(&self) -> usize {
        self.candidate_refills
    }

    /// Fold one solve's pricing and certification counters into the
    /// cache totals.
    pub(crate) fn absorb(&mut self, stats: &RevisedStats) {
        self.hybrid_certified += stats.hybrid_certified;
        self.fallback_reasons.absorb(&stats.fallback_reasons);
        self.cold_rescues += stats.cold_rescues;
        self.columns_priced += stats.columns_priced;
        self.candidate_refills += stats.candidate_refills;
    }

    /// Whether a hint is available (i.e. at least one solve happened).
    pub fn is_warm(&self) -> bool {
        !self.hint.is_empty()
    }

    /// How many of the warm solves so far reused the previous
    /// factorization outright (diagnostics for the probe hot paths).
    pub fn factor_reuses(&self) -> usize {
        self.factor_reuses
    }

    /// How many warm solves tripped the anti-cycling pivot cap and
    /// restarted cold — warm starts silently degrading used to be
    /// invisible; callers can now watch this counter.
    pub fn warm_fallbacks(&self) -> usize {
        self.warm_fallbacks
    }

    /// Hybrid solves whose float basis was certified exactly (hybrid
    /// caches only; zero otherwise).
    pub fn hybrid_certified(&self) -> usize {
        self.hybrid_certified
    }

    /// Hybrid solves that failed certification and fell back to the
    /// exact solver (hybrid caches only; zero otherwise).
    pub fn hybrid_fallbacks(&self) -> usize {
        self.fallback_reasons.total()
    }

    /// [`WarmCache::hybrid_fallbacks`] split by reason.
    pub fn fallback_reasons(&self) -> FallbackReasons {
        self.fallback_reasons
    }

    /// Warm hybrid solves whose float proposer gave up but whose cold
    /// float retry certified — give-ups that cost no exact pivot.
    pub fn cold_rescues(&self) -> usize {
        self.cold_rescues
    }

    /// Fold a worker's cache into this aggregate: all counters are
    /// summed and the worker's fallback total (warm + hybrid) is
    /// recorded as one entry of [`WarmCache::per_worker_fallbacks`].
    /// Hints and reuse state are *not* merged — they are only valid for
    /// the worker's own solve sequence.
    pub fn absorb_worker(&mut self, worker: &WarmCache) {
        self.factor_reuses += worker.factor_reuses;
        self.warm_fallbacks += worker.warm_fallbacks;
        self.hybrid_certified += worker.hybrid_certified;
        self.fallback_reasons.absorb(&worker.fallback_reasons);
        self.cold_rescues += worker.cold_rescues;
        self.columns_priced += worker.columns_priced;
        self.candidate_refills += worker.candidate_refills;
        self.per_worker_fallbacks.push(worker.warm_fallbacks + worker.hybrid_fallbacks());
    }

    /// Per-worker fallback counts recorded by [`WarmCache::absorb_worker`]
    /// (empty for caches never used as a merge target).
    pub fn per_worker_fallbacks(&self) -> &[usize] {
        &self.per_worker_fallbacks
    }

    /// Drop the warm state (basis hint + cached factorization) while
    /// keeping every counter. The next solve through this cache runs
    /// cold, exactly as a freshly-constructed cache would.
    ///
    /// This is the durability contract of the warm state: bases and
    /// factorizations are **rebuilt, never serialized**. An exact LU
    /// factorization holds big-rational multipliers whose encoded size
    /// is unbounded and whose value is transient — one cold solve
    /// recreates it bit-for-bit — so persisting it would couple an
    /// on-disk format to `Factorization` internals for no recovery
    /// benefit. Callers that need crash-equivalent replay (the service
    /// crate's epoch loop) instead scope the warm state to a replayable
    /// unit by calling this at each unit's start, which makes every
    /// solver counter delta a pure function of that unit alone.
    pub fn reset_warm_state(&mut self) {
        self.hint.clear();
        self.reuse = None;
    }

    /// Seed the next solve with a caller-built starting basis, dropping
    /// any cached factorization so that exactly this basis is crashed.
    ///
    /// `hint` lists columns in the program's layout: structural
    /// variables `0..num_vars`, then one slack per inequality row in row
    /// order. A nonsingular basis whose point is primal feasible needs
    /// no repair; an infeasible one is repaired by the dual simplex; a
    /// rank-deficient one is completed by further columns. A hint with
    /// out-of-range or duplicate columns takes the counted stale-hint
    /// fallback ([`WarmCache::warm_fallbacks`]). The answer is exact
    /// whatever the hint; only the pivot path depends on it.
    pub fn set_hint(&mut self, hint: Vec<usize>) {
        self.hint = hint;
        self.reuse = None;
    }

    /// Fault-injection hook: corrupt the cached warm state so the next
    /// warm solve sees a stale hint. The poisoned hint fails the sanity
    /// screen (out-of-range columns), so the solve takes the *counted*
    /// stale-hint fallback (`warm_fallbacks += 1`) and still returns the
    /// exact answer — this exercises the degradation path
    /// deterministically without changing any result.
    pub fn poison_hint(&mut self) {
        let len = self.hint.len().max(2);
        self.hint = vec![usize::MAX; len];
        self.reuse = None;
    }

    /// Fault-injection hook: force the next `n` hybrid solves through
    /// this cache to behave as if exact certification of the float
    /// proposal failed, taking the counted exact fallback
    /// (`hybrid_fallbacks`). No effect on non-hybrid caches; results are
    /// unchanged (the fallback is the exact solver).
    pub fn force_certification_failures(&mut self, n: usize) {
        self.forced_cert_failures += n;
    }

    /// Injected certification failures not yet consumed by a solve.
    pub fn pending_forced_cert_failures(&self) -> usize {
        self.forced_cert_failures
    }

    /// Consume one pending forced certification failure, if any.
    pub(crate) fn take_forced_cert_failure(&mut self) -> bool {
        if self.forced_cert_failures > 0 {
            self.forced_cert_failures -= 1;
            true
        } else {
            false
        }
    }
}

/// How [`LinearProgram::solve_warm_revised`] treats its pivot cap.
pub(crate) enum WarmMode {
    /// Historical behavior: on cap trip, restart cold (exact result
    /// either way; the trip is counted in
    /// [`WarmCache::warm_fallbacks`]). `None` uses the anti-cycling
    /// formula cap.
    Capped(Option<usize>),
    /// Budgeted behavior: the cap is a hard budget over *all* exact
    /// pivots (dual repair + primal phase); tripping it aborts with
    /// [`BudgetError::PivotCapExhausted`] instead of silently restarting
    /// cold, so the caller's degradation policy decides what runs next.
    Budget(usize),
}

impl WarmMode {
    /// The mode for an optional exact-pivot budget: none keeps the
    /// counted cold restart, a limit makes the cap a hard stop.
    pub(crate) fn from_limit(limit: Option<usize>) -> Self {
        limit.map_or(WarmMode::Capped(None), WarmMode::Budget)
    }
}

/// A per-solve resource budget for [`LinearProgram::solve_budgeted`].
///
/// `max_pivots` caps the *exact* simplex pivots of the warm re-solve
/// paths (dual repair + primal phase), including the exact fallback
/// after a failed hybrid certification. The hybrid's float work — the
/// warm crash/repair and its cold two-phase retry after a give-up — and
/// a cold first solve of a fresh cache are not pivot-capped: the former
/// is cheap f64 work, the latter is already bounded by the anti-cycling
/// cap and happens once per cache. `deadline` is checked once at entry
/// — callers running sequences of budgeted solves (binary searches)
/// get a deadline check per probe, which is the intended granularity.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveBudget {
    /// Hard cap on exact simplex pivots (`Some(0)` fails immediately;
    /// `None` = uncapped).
    pub max_pivots: Option<usize>,
    /// Wall-clock deadline checked at solve entry (`None` = no deadline).
    pub deadline: Option<std::time::Instant>,
}

impl SolveBudget {
    /// A pivot-only budget.
    pub fn pivots(max_pivots: usize) -> Self {
        SolveBudget { max_pivots: Some(max_pivots), deadline: None }
    }
}

/// Why a [`LinearProgram::solve_budgeted`] call gave up. The underlying
/// program state is *not* corrupted: the cache keeps its previous hint,
/// and a later uncapped solve returns the exact answer.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetError {
    /// The budget's deadline had already passed at solve entry.
    DeadlineExpired,
    /// The exact pivot budget ran out mid-solve after `pivots` pivots.
    PivotCapExhausted {
        /// Exact pivots performed before giving up.
        pivots: usize,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::DeadlineExpired => write!(f, "solve deadline expired before entry"),
            BudgetError::PivotCapExhausted { pivots } => {
                write!(f, "pivot budget exhausted after {pivots} exact pivots")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

/// The reduced costs `c_j − y·A_j` of one set of multipliers `y`.
struct Reduced<'a, S> {
    cols: &'a Cols<S>,
    cost: &'a [S],
    y: &'a [S],
}

impl<S: Scalar> Reduced<'_, S> {
    /// `Some(c_j − y·A_j)` when column `j` prices negative, `Err` when
    /// its reduced cost is not finite. Always inlined into the pricing
    /// loops: a call per priced column cost the float scans about a tenth
    /// of their time.
    #[inline(always)]
    fn negative(&self, j: usize) -> Result<Option<S>, ()> {
        let mut rc = self.cost[j].clone();
        for (i, v) in self.cols.col(j) {
            if !self.y[*i].is_zero() {
                rc -= v.clone() * self.y[*i].clone();
            }
        }
        if !rc.is_finite() {
            return Err(());
        }
        Ok(rc.below_tol().then_some(rc))
    }
}

/// Mutable pricing state carried across the pivots of one solve:
/// entering-column selection (Bland scan, candidate list, rotating
/// refill) over the [`Reduced`] costs, `Err` when a reduced cost is not
/// finite and the core must give up.
struct PriceState {
    pricing: Pricing,
    /// Where the next rotating refill scan starts.
    cursor: usize,
    /// Nonbasic columns last seen with negative reduced cost, re-priced
    /// lazily under each new set of multipliers.
    candidates: Vec<usize>,
    /// Consecutive degenerate pivots under non-Bland selection.
    degen_streak: usize,
    /// Degenerate-streak escape: price with Bland's rule until the
    /// objective strictly improves. Partial selection alone can
    /// cycle on degenerate vertices; Bland's rule cannot, so a phase
    /// that latches here still terminates.
    bland_mode: bool,
}

impl PriceState {
    fn new(pricing: Pricing) -> Self {
        PriceState {
            pricing,
            cursor: 0,
            candidates: Vec::new(),
            degen_streak: 0,
            bland_mode: false,
        }
    }

    /// Candidate-list capacity: ~√cols keeps both the refill scans and
    /// the per-pivot re-pricing sublinear in the column count.
    fn list_cap(cols: usize) -> usize {
        ((cols as f64).sqrt() as usize).clamp(16, 512)
    }

    /// Degenerate pivots tolerated before latching Bland mode — roomy
    /// enough that real instances never trip it, small enough that a
    /// cycling vertex escapes quickly.
    fn degen_threshold(m: usize) -> usize {
        8 * (m + 16)
    }

    /// Entering column under the configured strategy among the columns
    /// `0..bound` of the `cols`; `Ok(None)` = no such nonbasic column
    /// prices negative (the phase is optimal). Every reduced cost
    /// evaluated is counted in `stats.columns_priced`.
    fn price_enter<S: Scalar>(
        &mut self,
        rc: &Reduced<S>,
        bound: usize,
        in_basis: &[bool],
        stats: &mut RevisedStats,
    ) -> Result<Option<usize>, ()> {
        if self.pricing == Pricing::Bland || self.bland_mode {
            return Self::bland_enter(rc, bound, in_basis, stats);
        }
        let mut enter = self.select_candidates(rc, bound, in_basis, stats)?;
        if enter.is_none() {
            // List exhausted: refill by a rotating scan. The refill
            // prices every column when nothing is negative, so an empty
            // refill proves optimality under the current multipliers.
            stats.candidate_refills += 1;
            self.refill_candidates(rc, bound, in_basis, stats)?;
            enter = self.select_candidates(rc, bound, in_basis, stats)?;
        }
        Ok(enter)
    }

    /// Bland's rule: the smallest nonbasic column below `bound` with
    /// negative reduced cost, in column order with early exit.
    fn bland_enter<S: Scalar>(
        rc: &Reduced<S>,
        bound: usize,
        in_basis: &[bool],
        stats: &mut RevisedStats,
    ) -> Result<Option<usize>, ()> {
        for j in 0..bound {
            if in_basis[j] {
                continue;
            }
            stats.columns_priced += 1;
            if rc.negative(j)?.is_some() {
                return Ok(Some(j));
            }
        }
        Ok(None)
    }

    /// Re-price the candidate list under the current multipliers,
    /// dropping entries that went basic, out of bounds, or nonnegative,
    /// and return the survivor with the most negative reduced cost (ties
    /// to the smaller column).
    fn select_candidates<S: Scalar>(
        &mut self,
        rc: &Reduced<S>,
        bound: usize,
        in_basis: &[bool],
        stats: &mut RevisedStats,
    ) -> Result<Option<usize>, ()> {
        let mut best: Option<(usize, S)> = None;
        let mut kept = 0;
        for idx in 0..self.candidates.len() {
            let j = self.candidates[idx];
            if j >= bound || in_basis[j] {
                continue;
            }
            stats.columns_priced += 1;
            let Some(d) = rc.negative(j)? else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((bj, bd)) => d < *bd || (d == *bd && j < *bj),
            };
            if better {
                best = Some((j, d));
            }
            self.candidates[kept] = j;
            kept += 1;
        }
        self.candidates.truncate(kept);
        Ok(best.map(|(j, _)| j))
    }

    /// Rotating refill: price columns below `bound` from the cursor,
    /// wrapping once around the ring of all `cols`, collecting up to the
    /// list cap of negative-reduced-cost columns. A full wrap collecting
    /// nothing leaves the list empty, which the caller reads as
    /// phase-optimal.
    fn refill_candidates<S: Scalar>(
        &mut self,
        rc: &Reduced<S>,
        bound: usize,
        in_basis: &[bool],
        stats: &mut RevisedStats,
    ) -> Result<(), ()> {
        let cols = rc.cols.count();
        if cols == 0 {
            return Ok(());
        }
        let cap = Self::list_cap(cols);
        let start = self.cursor % cols;
        for step in 0..cols {
            let j = (start + step) % cols;
            if j >= bound || in_basis[j] {
                continue;
            }
            stats.columns_priced += 1;
            if rc.negative(j)?.is_some() {
                self.candidates.push(j);
                if self.candidates.len() >= cap {
                    self.cursor = (j + 1) % cols;
                    return Ok(());
                }
            }
        }
        self.cursor = start;
        Ok(())
    }
}

/// Column-major sparse matrix in one flat arena. The IP-3 LPs have tens
/// of thousands of 2–5-entry columns; per-column `Vec`s cost more in
/// allocator traffic and cache misses than the numerical work they
/// carry, in every pricing scan over all columns. Column `j` is
/// `ents[offs[j]..offs[j + 1]]`, in row order. Its rows are exactly the
/// program's nonzeros in either arithmetic (an `f64` entry that
/// underflows stays, as a zero), so the certifier can read exact values
/// through this structure.
pub(crate) struct Cols<S> {
    offs: Vec<usize>,
    ents: Vec<(usize, S)>,
}

impl<S: Scalar> Cols<S> {
    pub(crate) fn count(&self) -> usize {
        self.offs.len() - 1
    }

    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[(usize, S)] {
        &self.ents[self.offs[j]..self.offs[j + 1]]
    }

    /// Drop columns `k..` (the hybrid strips its artificials again).
    pub(crate) fn truncate(&mut self, k: usize) {
        if k >= self.count() {
            return;
        }
        self.ents.truncate(self.offs[k]);
        self.offs.truncate(k + 1);
    }
}

/// A program in the solvers' normalized layout: each row with a negative
/// right-hand side is negated (its relation flipped), so `b ≥ 0`; columns
/// are the structural variables `0..n`, then one slack per inequality row
/// in row order (`+e_row` for `≤`, `−e_row` for `≥`), and cold solves
/// append one artificial per `≥`/`=` row. Column indices and basis hints
/// are therefore interchangeable between both solvers.
pub(crate) struct Layout {
    pub(crate) n: usize,
    pub(crate) m: usize,
    /// Structural plus slack columns.
    pub(crate) cols: usize,
    /// Row sign-flip flags (raw rhs was negative).
    pub(crate) neg: Vec<bool>,
    /// Effective (post-flip) relations.
    rels: Vec<Relation>,
    /// Normalized exact rhs (`≥ 0`).
    pub(crate) rhs: Vec<Q>,
    /// Per-slack `(row, is_ge)`: slack column `n + k` is `∓e_row`.
    pub(crate) slack: Vec<(usize, bool)>,
}

/// A program's columns, right-hand side and costs in one arithmetic.
pub(crate) struct Program<S> {
    pub(crate) cols: Cols<S>,
    pub(crate) rhs: Vec<S>,
    /// The objective over every column (zero past the structural ones).
    pub(crate) cost: Vec<S>,
}

impl Layout {
    pub(crate) fn new(lp: &LinearProgram) -> Self {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let mut neg = Vec::with_capacity(m);
        let mut rels = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        let mut slack = Vec::new();
        for i in 0..m {
            let (rel, b) = lp.bound(i);
            let ng = b.is_negative();
            let rel = if ng { rel.flipped() } else { rel };
            if !matches!(rel, Relation::Eq) {
                slack.push((i, matches!(rel, Relation::Ge)));
            }
            neg.push(ng);
            rels.push(rel);
            rhs.push(if ng { -b.clone() } else { b.clone() });
        }
        Layout { n, m, cols: n + slack.len(), neg, rels, rhs, slack }
    }

    /// The program in arithmetic `S` over the structural and slack
    /// columns, by one streaming row→column transpose of the normalized
    /// rows: a count pass over the flat entry store sizes every column,
    /// and a scatter pass in row order writes each entry, converted once,
    /// at its column's cursor, so each column lists its rows in order.
    pub(crate) fn program<S: Scalar>(&self, lp: &LinearProgram) -> Program<S> {
        let (n, cols) = (self.n, self.cols);
        // Room for the artificials a cold solve appends, so that appending
        // them never copies the arena.
        let arts = self.rels.iter().filter(|r| !matches!(r, Relation::Le)).count();
        // `offs[j + 1]` counts column `j`, then the prefix sums turn
        // `offs[j]` into its start, which the scatter advances to its end.
        let mut offs = Vec::with_capacity(cols + arts + 1);
        offs.resize(cols + 1, 0);
        for (idx, _) in lp.entries() {
            offs[*idx + 1] += 1;
        }
        offs[n + 1..].fill(1);
        for j in 0..cols {
            offs[j + 1] += offs[j];
        }
        let mut ents = Vec::with_capacity(offs[cols] + arts);
        ents.resize(offs[cols], (0, S::default()));
        for i in 0..self.m {
            let neg = self.neg[i];
            for (idx, coef) in lp.row(i) {
                let v = S::from_q(coef);
                ents[offs[*idx]] = (i, if neg { -v } else { v });
                offs[*idx] += 1;
            }
        }
        for (k, &(row, is_ge)) in self.slack.iter().enumerate() {
            ents[offs[n + k]] = (row, if is_ge { -S::one() } else { S::one() });
            offs[n + k] += 1;
        }
        offs.copy_within(0..cols, 1);
        offs[0] = 0;
        let mut cost = Vec::with_capacity(cols + arts);
        cost.extend(lp.objective.iter().map(S::from_q));
        cost.resize(cols, S::default());
        Program { cols: Cols { offs, ents }, rhs: self.rhs.iter().map(S::from_q).collect(), cost }
    }

    /// Append the cold layout's artificials — one unit column per `≥`/`=`
    /// row, in row order, at zero cost — and return the identity start:
    /// each `≤` row's slack, each other row's artificial.
    pub(crate) fn push_artificials<S: Scalar>(&self, prog: &mut Program<S>) -> Vec<usize> {
        let a = &mut prog.cols;
        let mut basis = vec![VIRTUAL; self.m];
        let mut next_slack = self.n;
        for (i, rel) in self.rels.iter().enumerate() {
            if matches!(rel, Relation::Le) {
                basis[i] = next_slack;
            } else {
                basis[i] = a.count();
                a.ents.push((i, S::one()));
                a.offs.push(a.ents.len());
            }
            next_slack += usize::from(!matches!(rel, Relation::Eq));
        }
        prog.cost.resize(a.count(), S::default());
        basis
    }
}

/// How a driver ended; each caller maps it to its own result.
pub(crate) enum Outcome {
    Optimal,
    /// Entering column `enter` has no ratio-test row.
    Unbounded {
        enter: usize,
    },
    Infeasible {
        witness: Witness,
    },
    /// The warm crash left a unit column at a nonzero value: an
    /// inconsistent redundant row.
    Inconsistent,
    /// The warm repair's pivot cap tripped.
    RepairCapped,
    /// The phase's pivot cap was reached with a pivot still to make.
    PivotLimit,
    /// Numerical trouble: a non-finite value, a singular refactorization,
    /// or a pivot entry the tolerance rejects (`f64` only).
    GaveUp,
}

/// What proves an [`Outcome::Infeasible`].
pub(crate) enum Witness {
    /// The basic column of the stuck dual-repair row; its row functional
    /// is the Farkas vector.
    Column(usize),
    /// Phase 1 terminated with positive artificials, still basic on
    /// `art_rows`: the phase-1 duals of the final phase-1 basis — its
    /// real columns plus exactly the unit columns of those rows — are
    /// the Farkas vector.
    PhaseOneDuals { art_rows: Vec<usize> },
}

/// When the warm dual repair's pivot cap trips.
#[derive(Clone, Copy)]
pub(crate) enum RepairCap {
    /// Once the repair has performed more than this many pivots, even if
    /// the last one finished it: the exact warm path's anti-cycling cap
    /// and pivot budget, which count work done.
    Performed(usize),
    /// When this many pivots have left a row still to repair: the float
    /// proposer's early give-up.
    Unfinished(usize),
}

/// The revised-simplex working state: the program's columns, a
/// factorized basis, and incrementally maintained basic values.
pub(crate) struct Core<'a, S> {
    m: usize,
    prog: &'a Program<S>,
    /// Basic column per row slot ([`VIRTUAL`] = unit column).
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// `x_B = B⁻¹ b` per slot — the tableau's right-hand side.
    xb: Vec<S>,
    factor: Factorization<S>,
    refactor: Refactor,
    pub(crate) stats: RevisedStats,
    /// Scratch for FTRAN results.
    u: Vec<S>,
    price: PriceState,
}

impl<'a, S: Scalar> Core<'a, S> {
    /// A core at the factorized `basis` (one column per row slot), with
    /// `x_B = B⁻¹b`.
    pub(crate) fn new(
        prog: &'a Program<S>,
        basis: Vec<usize>,
        factor: Factorization<S>,
        pricing: Pricing,
        refactor: Refactor,
    ) -> Self {
        let mut in_basis = vec![false; prog.cols.count()];
        for &b in basis.iter().filter(|&&b| b != VIRTUAL) {
            in_basis[b] = true;
        }
        let mut xb = prog.rhs.clone();
        factor.ftran_inplace(&mut xb);
        Core {
            m: basis.len(),
            prog,
            basis,
            in_basis,
            xb,
            factor,
            refactor,
            stats: RevisedStats::default(),
            u: Vec::new(),
            price: PriceState::new(pricing),
        }
    }

    /// The cold two-phase driver from the identity start: phase 1
    /// minimizes the sum of the artificials (columns `art_start..`),
    /// zero-level artificials are driven out, and phase 2 minimizes the
    /// objective over the real columns. `cap` bounds the pivots of both
    /// phases.
    pub(crate) fn two_phase(&mut self, art_start: usize, cap: usize) -> Outcome {
        let cols = self.prog.cols.count();
        if cols > art_start {
            let mut phase1 = vec![S::default(); cols];
            phase1[art_start..].fill(S::one());
            // Phase 1 is bounded below by 0: any other end is trouble.
            if !matches!(self.run_phase(&phase1, cols, cap), Outcome::Optimal) {
                return Outcome::GaveUp;
            }
            let infeas = (0..self.m)
                .filter(|&i| self.basis[i] >= art_start)
                .fold(S::default(), |acc, i| acc + self.xb[i].clone());
            if !infeas.is_finite() {
                return Outcome::GaveUp;
            }
            if infeas.infeasible_sum() {
                // Artificial `art_start + k` is the unit column of the row
                // it was pushed for.
                let art_rows = (self.basis.iter().filter(|&&b| b >= art_start))
                    .map(|&b| self.prog.cols.col(b)[0].0)
                    .collect();
                return Outcome::Infeasible { witness: Witness::PhaseOneDuals { art_rows } };
            }
            // Drive the remaining zero-level artificials out, pivoting on
            // the smallest real column with a nonzero transformed entry. A
            // row with none keeps its artificial: exactly, its whole
            // transformed row is zero over the real columns and stays so
            // under every later pivot (the tableau oracle deletes it), so
            // keeping it cannot change the pivot path.
            for i in 0..self.m {
                if self.basis[i] < art_start {
                    continue;
                }
                let rho = self.btran_unit(i);
                let Some(j) =
                    (0..art_start).find(|&j| self.transformed_entry(&rho, j).beyond_tol())
                else {
                    continue;
                };
                self.ftran_col(j);
                if self.u[i].beyond_tol() && !self.pivot(i, j) {
                    return Outcome::GaveUp;
                }
            }
        }
        let prog = self.prog;
        self.run_phase(&prog.cost, art_start, cap)
    }

    /// The warm driver from a crashed or reused basis: a dual-simplex
    /// repair of `x_B ≥ 0` under a zero objective (any basis is dual
    /// feasible; Bland's row and column choices are the classic
    /// anti-cycling dual rule), then the primal phase over every column,
    /// its pivots bounded by `cap`.
    pub(crate) fn warm(&mut self, repair: RepairCap, cap: usize) -> Outcome {
        if self.xb.iter().any(|v| !v.is_finite()) {
            return Outcome::GaveUp;
        }
        // A unit slot at a nonzero value is an inconsistent zero row:
        // Σ (zero coefficients)·x = b ≠ 0.
        if (0..self.m).any(|i| self.basis[i] == VIRTUAL && self.xb[i].beyond_tol()) {
            return Outcome::Inconsistent;
        }
        let cols = self.prog.cols.count();
        loop {
            if matches!(repair, RepairCap::Performed(n) if self.stats.pivots > n) {
                return Outcome::RepairCapped;
            }
            let Some(row) = (0..self.m)
                .filter(|&i| self.basis[i] != VIRTUAL && self.xb[i].needs_repair())
                .min_by_key(|&i| self.basis[i])
            else {
                break;
            };
            if matches!(repair, RepairCap::Unfinished(n) if self.stats.pivots > n) {
                return Outcome::RepairCapped;
            }
            let rho = self.btran_unit(row);
            let enter = (0..cols)
                .filter(|&j| !self.in_basis[j])
                .find(|&j| self.transformed_entry(&rho, j).below_tol());
            let Some(enter) = enter else {
                // Σ (nonnegative coefficients)·x = b < 0 over x ≥ 0.
                return Outcome::Infeasible { witness: Witness::Column(self.basis[row]) };
            };
            self.ftran_col(enter);
            if !self.u[row].below_tol() || !self.pivot(row, enter) {
                return Outcome::GaveUp;
            }
        }
        let prog = self.prog;
        self.run_phase(&prog.cost, cols, cap)
    }

    /// The real basic columns (those below `limit`) in slot order.
    pub(crate) fn real_basis(&self, limit: usize) -> Vec<usize> {
        self.basis.iter().copied().filter(|&b| b < limit).collect()
    }

    /// `y = B⁻ᵀ e_slot` (a unit BTRAN: the transformed row `slot`).
    fn btran_unit(&self, slot: usize) -> Vec<S> {
        let mut y = vec![S::default(); self.m];
        y[slot] = S::one();
        self.factor.btran_inplace(&mut y);
        y
    }

    /// `y = B⁻ᵀ c_B` for a cost vector over columns.
    fn btran_costs(&self, cost: &[S]) -> Vec<S> {
        let mut y = vec![S::default(); self.m];
        let mut any = false;
        for (slot, &b) in self.basis.iter().enumerate() {
            if b != VIRTUAL && !cost[b].is_zero() {
                y[slot] = cost[b].clone();
                any = true;
            }
        }
        if any {
            self.factor.btran_inplace(&mut y);
        }
        y
    }

    /// Entry `(B⁻¹ A_j)[slot]` given the unit BTRAN `rho` of `slot`.
    fn transformed_entry(&self, rho: &[S], j: usize) -> S {
        let mut d = S::default();
        for (i, v) in self.prog.cols.col(j) {
            if !rho[*i].is_zero() {
                d += v.clone() * rho[*i].clone();
            }
        }
        d
    }

    /// FTRAN column `j` into the scratch vector.
    fn ftran_col(&mut self, j: usize) {
        self.factor.ftran_sparse(self.prog.cols.col(j), &mut self.u);
    }

    /// Ratio test over `u` (the FTRAN scratch): minimal `x_B[i]/u_i`
    /// over `u_i > 0`, ties to the smallest basic column index — the
    /// Bland tie-break of the dense oracle.
    fn ratio_test(&self) -> Option<usize> {
        let mut leave: Option<(usize, S)> = None;
        for (i, ui) in self.u.iter().enumerate() {
            if !ui.above_tol() {
                continue;
            }
            let ratio = S::ratio(&self.xb[i], ui);
            let wins = match &leave {
                None => true,
                Some((best_i, best)) => match S::ratio_cmp(&ratio, best) {
                    Ordering::Less => true,
                    Ordering::Equal => self.basis[i] < self.basis[*best_i],
                    Ordering::Greater => false,
                },
            };
            if wins {
                let best = match leave {
                    Some((_, best)) if best < ratio => best,
                    _ => ratio,
                };
                leave = Some((i, best));
            }
        }
        leave.map(|(i, _)| i)
    }

    /// Pivot: column `enter` becomes basic in `slot`. `self.u` must hold
    /// the transformed entering column; its `slot` entry must be nonzero
    /// (either sign — the dual repair pivots on negatives). `false` on
    /// numerical trouble: a non-finite step, or a refactorization that
    /// finds the basis singular or its values non-finite.
    fn pivot(&mut self, slot: usize, enter: usize) -> bool {
        let t = self.xb[slot].clone() / self.u[slot].clone();
        if !t.is_finite() {
            return false;
        }
        if !t.is_zero() {
            for (i, ui) in self.u.iter().enumerate() {
                if i != slot && !ui.is_zero() {
                    self.xb[i] -= ui.clone() * t.clone();
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
        self.stats.pivots += 1;
        !S::refactor_due(&self.factor, self.refactor) || self.refactor()
    }

    /// Refactorize from the current basis columns (unit columns in
    /// virtual slots).
    fn refactor(&mut self) -> bool {
        let units: Vec<[(usize, S); 1]> = (0..self.m).map(|s| [(s, S::one())]).collect();
        let cols: Vec<&[(usize, S)]> = (self.basis.iter().zip(&units))
            .map(|(&b, unit)| if b == VIRTUAL { unit } else { self.prog.cols.col(b) })
            .collect();
        if !self.factor.refactor(&cols) {
            return false;
        }
        self.stats.refactorizations += 1;
        S::reset_drift(&self.factor, &self.prog.rhs, &mut self.xb)
    }

    /// One primal simplex phase minimizing `cost` over the columns
    /// `0..bound`, selecting entering columns by the configured
    /// [`Pricing`] strategy; the ratio test (and hence the anti-cycling
    /// leave tie-break) is shared by all strategies. Once `cap` pivots
    /// are done the phase stops at the next entering column with
    /// [`Outcome::PivotLimit`], so a phase already optimal at the cap
    /// still reports optimal.
    fn run_phase(&mut self, cost: &[S], bound: usize, cap: usize) -> Outcome {
        loop {
            let y = self.btran_costs(cost);
            let enter = match self.price_enter(cost, &y, bound) {
                Err(()) => return Outcome::GaveUp,
                Ok(None) => return Outcome::Optimal,
                Ok(Some(enter)) => enter,
            };
            if self.stats.pivots >= cap {
                return Outcome::PivotLimit;
            }
            self.ftran_col(enter);
            let Some(slot) = self.ratio_test() else {
                return Outcome::Unbounded { enter };
            };
            if self.price.pricing != Pricing::Bland {
                self.note_degeneracy(slot);
            }
            if !self.pivot(slot, enter) {
                return Outcome::GaveUp;
            }
        }
    }

    /// Entering column under the configured strategy; `Ok(None)` = no
    /// nonbasic column below `bound` has negative reduced cost
    /// `c_j − y·A_j` (the phase is optimal), `Err` = a reduced cost is
    /// not finite.
    fn price_enter(&mut self, cost: &[S], y: &[S], bound: usize) -> Result<Option<usize>, ()> {
        let rc = Reduced { cols: &self.prog.cols, cost, y };
        self.price.price_enter(&rc, bound, &self.in_basis, &mut self.stats)
    }

    /// Track degenerate-pivot streaks for the non-Bland strategies: a
    /// long streak latches Bland mode (guaranteed termination), a
    /// nondegenerate pivot (strict objective improvement) unlatches it.
    fn note_degeneracy(&mut self, slot: usize) {
        if self.xb[slot].beyond_tol() {
            self.price.degen_streak = 0;
            self.price.bland_mode = false;
        } else {
            self.price.degen_streak += 1;
            if self.price.degen_streak > PriceState::degen_threshold(self.m) {
                self.price.bland_mode = true;
            }
        }
    }
}

/// A hint's in-range columns, ascending and deduplicated, and whether the
/// hint was stale: out-of-range or duplicate columns, a basis from a
/// differently-shaped program.
pub(crate) fn sanitize(hint: &[usize], cols: usize) -> (Vec<usize>, bool) {
    let mut wanted: Vec<usize> = hint.iter().copied().filter(|&c| c < cols).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let stale = wanted.len() != hint.len();
    (wanted, stale)
}

/// The warm crash: eliminate the `wanted` columns in
/// [`Factorization::eliminate_basis`]'s order (their row singletons
/// first, then the rest by the scalar's pivot rule, skipping any column
/// dependent on those before it), then further columns in index order,
/// into a basis by one factorization pass, and complete the rows no
/// column pivots with unit ([`VIRTUAL`]) columns — the redundant or
/// inconsistent rows a tableau deletes or rejects. Returns the basis per
/// slot and its factorization, or `None` when a unit column fails to
/// complete it (numerically, in `f64`).
///
/// The peel takes the same columns as an elimination in index order: a
/// column alone on a row is outside the span of the others, so it is
/// independent whenever it comes. Which slot a column lands in does not
/// move the warm repair, which chooses by column index throughout.
pub(crate) fn crash<S: Scalar>(
    a: &Cols<S>,
    m: usize,
    wanted: &[usize],
) -> Option<(Vec<usize>, Factorization<S>)> {
    let mut factor = Factorization::identity(m);
    let mut basis = vec![VIRTUAL; m];
    let mut in_basis = vec![false; a.count()];
    let mut pivoted = vec![false; m];
    let cols: Vec<&[(usize, S)]> = wanted.iter().map(|&c| a.col(c)).collect();
    for (&c, p) in wanted.iter().zip(factor.eliminate_basis(&cols)) {
        if let Some(p) = p {
            pivoted[p] = true;
            basis[p] = c;
            in_basis[c] = true;
        }
    }
    let mut left = pivoted.iter().filter(|&&p| !p).count();
    let mut scratch = Vec::new();
    for c in 0..a.count() {
        if left == 0 {
            break;
        }
        if in_basis[c] {
            continue;
        }
        if let Some(p) = factor.eliminate(a.col(c), &pivoted, &mut scratch) {
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
        if !pivoted[p] {
            let pp = factor.eliminate(&[(p, S::one())], &pivoted, &mut scratch)?;
            pivoted[pp] = true;
            left -= 1;
        }
    }
    Some((basis, factor))
}

impl LinearProgram {
    /// Solve the program exactly with two-phase primal simplex.
    ///
    /// Returns a basic feasible (vertex) solution when the status is
    /// [`LpStatus::Optimal`]. Termination is guaranteed by Bland's rule.
    /// Runs the default options (exact revised solver); see
    /// [`solve_with`](Self::solve_with).
    pub fn solve(&self) -> LpSolution {
        self.solve_with(SolveOptions::default()).0
    }

    /// Cold solve under explicit [`SolveOptions`], reporting the solve's
    /// counters (pivots, refactorizations, pricing work, and — for the
    /// hybrid — whether the float basis was certified or fell back).
    pub fn solve_with(&self, opts: SolveOptions) -> (LpSolution, RevisedStats) {
        match opts.solver {
            Solver::Revised => self.solve_revised(opts, Refactor::default()),
            Solver::Hybrid => self.solve_hybrid_cold(opts, None),
        }
    }

    /// Cold two-phase revised-simplex solve; pivot-identical to the dense
    /// oracle under Bland pricing. The returned solution is independent
    /// of `refactor` — a refactorization is a change of representation
    /// only, which the trigger test pins by forcing multiple
    /// reinversions.
    pub(crate) fn solve_revised(
        &self,
        opts: SolveOptions,
        refactor: Refactor,
    ) -> (LpSolution, RevisedStats) {
        let lay = Layout::new(self);
        let mut prog = lay.program::<Q>(self);
        let basis = lay.push_artificials(&mut prog);
        let identity = Factorization::identity(lay.m);
        let mut core = Core::new(&prog, basis, identity, opts.pricing, refactor);
        let sol = match core.two_phase(lay.cols, usize::MAX) {
            Outcome::Optimal => self.extract_revised(&core, lay.cols),
            Outcome::Infeasible { .. } => LpSolution::failed(LpStatus::Infeasible, self.num_vars),
            Outcome::Unbounded { .. } => LpSolution::failed(LpStatus::Unbounded, self.num_vars),
            _ => unreachable!("an uncapped exact two-phase solve runs to its end"),
        };
        (sol, core.stats)
    }

    /// Read the structural solution out of a finished core. Slots whose
    /// basic column is not real (at or above `real`: an artificial left
    /// on a redundant row, or a unit column of the warm crash) are
    /// skipped, so the reported basis matches the tableau oracle's, which
    /// physically deletes redundant rows.
    fn extract_revised(&self, core: &Core<'_, Q>, real: usize) -> LpSolution {
        let n = self.num_vars;
        let mut values = vec![Q::zero(); n];
        let mut basis = Vec::with_capacity(core.m);
        for (i, &bcol) in core.basis.iter().enumerate() {
            if bcol >= real {
                continue;
            }
            if bcol < n {
                values[bcol] = core.xb[i].clone();
            }
            basis.push(bcol);
        }
        let objective_value = self.objective_at(&values);
        LpSolution { status: LpStatus::Optimal, objective_value, values, basis, num_structural: n }
    }

    /// A cold revised solve whose counters are folded into `cache`: a
    /// cache's first solve, or the counted cold restart of a warm solve
    /// (exact either way, the cold solve is simply the slower sure thing).
    fn solve_cold(&self, opts: SolveOptions, cache: Option<&mut WarmCache>) -> LpSolution {
        let (sol, stats) = self.solve_revised(opts, Refactor::default());
        if let Some(c) = cache {
            c.absorb(&stats);
        }
        sol
    }

    /// Warm-started revised solve from a basis hint — the implementation
    /// behind [`solve_warm`](Self::solve_warm), optionally threading a
    /// [`WarmCache`] (whose options the caller passes as `opts`) for
    /// factorization reuse across related programs.
    ///
    /// Under [`WarmMode::Capped`] the anti-cycling cap (overridable so
    /// tests can trip it on small programs) restarts cold and never
    /// errors. Under [`WarmMode::Budget`] the solve instead aborts with
    /// [`BudgetError::PivotCapExhausted`] so the caller's degradation
    /// policy decides what runs next; a stale hint still falls through to
    /// a from-scratch crash (counted in `warm_fallbacks`), but the
    /// crash's repair/primal pivots run under the same budget.
    pub(crate) fn solve_warm_revised(
        &self,
        hint: &[usize],
        opts: SolveOptions,
        mut cache: Option<&mut WarmCache>,
        mode: WarmMode,
    ) -> Result<LpSolution, BudgetError> {
        let n = self.num_vars;
        let lay = Layout::new(self);
        let prog = lay.program::<Q>(self);
        let (m, cols) = (lay.m, lay.cols);

        // --- Obtain a factorized starting basis. -------------------------
        // Either reuse the parent factorization (hinted basis columns
        // unchanged in this program) or crash the hint by one exact
        // elimination pass, completing with further columns and, for
        // genuinely redundant rows, virtual identity columns.
        // Move (not clone) a valid cached state out: the field is
        // rebuilt on every successful solve anyway, and a failed solve
        // conservatively invalidates it (the basis hint survives).
        let reused = match cache.as_deref_mut() {
            Some(c) => {
                let valid = c.reuse.as_ref().is_some_and(|r| {
                    r.m == m
                        && r.cols == cols
                        && r.basis
                            .iter()
                            .zip(&r.snapshot)
                            .all(|(&b, snap)| prog.cols.col(b) == snap)
                });
                if valid {
                    c.factor_reuses += 1;
                    c.reuse.take()
                } else {
                    None
                }
            }
            None => None,
        };
        // Validated (basis, snapshot) held back for the end-of-solve
        // cache refresh: if no pivot moved the basis, the snapshot is
        // still exact and the per-column clone pass can be skipped.
        let mut prior_snapshot: Option<(Vec<usize>, Vec<SVec>)> = None;
        let (basis, factor) = match reused {
            Some(r) => {
                prior_snapshot = Some((r.basis.clone(), r.snapshot));
                (r.basis, r.factor)
            }
            None => {
                let (mut wanted, stale) = sanitize(hint, cols);
                if stale {
                    // Stale hint from a differently-shaped program
                    // (out-of-range columns or duplicate slots): crashing
                    // what's left would start from a half-garbage basis.
                    // Route to the cold path instead, counted like the
                    // anti-cycling fallback so callers see it. Under a
                    // budget the cold restart is the very thing being
                    // bounded, so count the fallback and crash from
                    // scratch with the budget still governing the pivots.
                    if let Some(c) = cache.as_deref_mut() {
                        c.warm_fallbacks += 1;
                    }
                    if let WarmMode::Capped(_) = mode {
                        return Ok(self.solve_cold(opts, cache));
                    }
                    wanted.clear();
                }
                crash(&prog.cols, m, &wanted).expect("unit columns always complete an exact basis")
            }
        };
        let mut core = Core::new(&prog, basis, factor, opts.pricing, Refactor::default());

        // The repair counts its own pivots against the anti-cycling cap
        // (or the budget); a budget also bounds the primal phase, whose
        // count includes the repair's.
        let anticycle_cap = 64 * (m + cols) + 1024;
        let (repair, phase_cap) = match mode {
            WarmMode::Capped(o) => (RepairCap::Performed(o.unwrap_or(anticycle_cap)), usize::MAX),
            WarmMode::Budget(l) => (RepairCap::Performed(l.min(anticycle_cap)), l),
        };
        let outcome = core.warm(repair, phase_cap);
        // Every exit counts this solve's pricing work in the cache.
        if let Some(c) = cache.as_deref_mut() {
            c.absorb(&core.stats);
        }
        match outcome {
            Outcome::Optimal => {}
            Outcome::Unbounded { .. } => return Ok(LpSolution::failed(LpStatus::Unbounded, n)),
            Outcome::Infeasible { .. } | Outcome::Inconsistent => {
                return Ok(LpSolution::failed(LpStatus::Infeasible, n));
            }
            Outcome::RepairCapped => {
                if let WarmMode::Budget(_) = mode {
                    // The budget is a hard stop, not a license to restart
                    // cold; surface what was spent and let the caller's
                    // ladder pick the next rung.
                    return Err(BudgetError::PivotCapExhausted { pivots: core.stats.pivots });
                }
                // Safety valve, counted so callers can see their warm
                // starts degrading instead of the fallback being
                // swallowed silently.
                if let Some(c) = cache.as_deref_mut() {
                    c.warm_fallbacks += 1;
                }
                return Ok(self.solve_cold(opts, cache));
            }
            Outcome::PivotLimit => {
                return Err(BudgetError::PivotCapExhausted { pivots: core.stats.pivots });
            }
            Outcome::GaveUp => unreachable!("exact pivots never give up"),
        }

        let sol = self.extract_revised(&core, cols);
        if let Some(c) = cache {
            c.reuse = if core.basis.contains(&VIRTUAL) {
                // A basis with virtual columns is only valid against
                // this exact program; don't offer it for reuse.
                None
            } else {
                let snapshot: Vec<SVec> = match prior_snapshot {
                    Some((basis, snap)) if basis == core.basis => snap,
                    _ => core.basis.iter().map(|&b| prog.cols.col(b).to_vec()).collect(),
                };
                Some(ReuseState { m, cols, basis: core.basis, factor: core.factor, snapshot })
            };
        }
        Ok(sol)
    }

    /// Warm-started solve from a basis hint.
    ///
    /// `hint` is a set of column indices (structural and slack columns in
    /// this program's layout; out-of-range and artificial indices are
    /// ignored) — typically [`LpSolution::basis`] from a previous solve of
    /// a *related* program: same constraint skeleton, possibly different
    /// right-hand sides or coefficient values (the `T`-dependent parts of
    /// a feasibility probe). The hinted columns are crashed into a basis
    /// by one exact factorization pass, a zero-objective dual simplex
    /// repairs primal feasibility, and a final primal phase optimizes
    /// the real objective. The solve is exact regardless of hint
    /// quality; a useless hint just degenerates to more pivots, and an
    /// anti-cycling safety cap falls back to the cold solve.
    ///
    /// Note: unlike [`solve`](Self::solve), the returned vertex may be a
    /// *different* optimal basic solution than the cold solver's (the
    /// pivot path depends on the hint). Status and objective value always
    /// agree.
    pub fn solve_warm(&self, hint: &[usize]) -> LpSolution {
        self.solve_warm_with(hint, SolveOptions::default())
    }

    /// [`solve_warm`](Self::solve_warm) under explicit [`SolveOptions`].
    /// [`Solver::Hybrid`] runs the float crash/repair proposal + exact
    /// certification, falling back to the exact warm solver.
    pub fn solve_warm_with(&self, hint: &[usize], opts: SolveOptions) -> LpSolution {
        let res = match opts.solver {
            Solver::Revised => self.solve_warm_revised(hint, opts, None, WarmMode::Capped(None)),
            Solver::Hybrid => self.solve_hybrid_warm(hint, opts, None, None).map(|(sol, _)| sol),
        };
        res.unwrap_or_else(|_| unreachable!("an uncapped warm solve has no budget to exhaust"))
    }

    /// [`solve_warm`](Self::solve_warm) driven by a persistent
    /// [`WarmCache`] under the cache's options: the first call solves
    /// cold; later calls warm-start from the previous basis and, when the
    /// hinted basis columns are unchanged in the new program, reuse the
    /// previous factorization outright (no crash at all) — the intended
    /// mode for binary-search feasibility probes.
    pub fn solve_warm_cached(&self, cache: &mut WarmCache) -> LpSolution {
        self.solve_cached(cache, None)
            .unwrap_or_else(|_| unreachable!("an uncapped cached solve has no budget to exhaust"))
    }

    /// [`solve_warm_cached`](Self::solve_warm_cached) under a resource
    /// [`SolveBudget`]: the solve either finishes exactly (same answer an
    /// uncapped solve would return) or gives up with a [`BudgetError`],
    /// leaving the cache's previous warm state intact so a later solve —
    /// through this entry point or any other — still works. This is the
    /// epoch re-solve entry for callers with a degradation ladder: try
    /// budgeted, and on `Err` fall back to whatever cheaper answer they
    /// can afford.
    ///
    /// Budget semantics: `deadline` is checked once at entry (a sequence
    /// of probes gets one check per probe); `max_pivots` caps the exact
    /// pivots of the warm paths — see [`SolveBudget`] for what stays
    /// uncapped. `max_pivots: None` degenerates to
    /// [`solve_warm_cached`](Self::solve_warm_cached).
    pub fn solve_budgeted(
        &self,
        cache: &mut WarmCache,
        budget: &SolveBudget,
    ) -> Result<LpSolution, BudgetError> {
        if let Some(deadline) = budget.deadline {
            if std::time::Instant::now() >= deadline {
                return Err(BudgetError::DeadlineExpired);
            }
        }
        if budget.max_pivots == Some(0) {
            return Err(BudgetError::PivotCapExhausted { pivots: 0 });
        }
        self.solve_cached(cache, budget.max_pivots)
    }

    /// The one cached dispatch behind both public entry points: run the
    /// cache's solver from its hint under an optional exact-pivot budget,
    /// then keep the new basis as the next hint — or, when the solve
    /// found no optimal basis or gave up, the old one.
    fn solve_cached(
        &self,
        cache: &mut WarmCache,
        limit: Option<usize>,
    ) -> Result<LpSolution, BudgetError> {
        let opts = cache.opts;
        let hint = std::mem::take(&mut cache.hint);
        let res = match opts.solver {
            // The exact warm fallback feeds its own counters into the
            // cache directly; the returned stats carry only the float
            // phase's, so absorbing them never double-counts.
            Solver::Hybrid => {
                self.solve_hybrid_warm(&hint, opts, Some(&mut *cache), limit).map(|(sol, stats)| {
                    cache.absorb(&stats);
                    sol
                })
            }
            // Cold first solve of a fresh cache: bounded by the
            // anti-cycling cap, happens once — not pivot-capped (see
            // [`SolveBudget`]).
            Solver::Revised if hint.is_empty() => Ok(self.solve_cold(opts, Some(&mut *cache))),
            Solver::Revised => {
                self.solve_warm_revised(&hint, opts, Some(&mut *cache), WarmMode::from_limit(limit))
            }
        };
        cache.hint = match &res {
            Ok(sol) if sol.status == LpStatus::Optimal && !sol.basis.is_empty() => {
                sol.basis.clone()
            }
            _ => hint,
        };
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Relation as R;

    fn q(v: i64) -> Q {
        Q::from_int(v)
    }

    fn qr(p: i64, d: i64) -> Q {
        Q::ratio(p, d)
    }

    /// A cached warm solve under the default options with an explicit
    /// anti-cycling cap (`None` = the production formula).
    fn warm_capped(
        lp: &LinearProgram,
        hint: &[usize],
        cache: &mut WarmCache,
        cap: Option<usize>,
    ) -> LpSolution {
        lp.solve_warm_revised(hint, SolveOptions::default(), Some(cache), WarmMode::Capped(cap))
            .expect("capped mode never reports budget exhaustion")
    }

    /// The revised solver is pivot-identical to the dense oracle on
    /// every handcrafted reference program.
    fn assert_identical(lp: &LinearProgram) {
        let d = lp.solve_dense();
        let r = lp.solve();
        assert_eq!(d.status, r.status);
        if r.status == LpStatus::Optimal {
            assert_eq!(d.objective_value, r.objective_value);
            assert_eq!(d.values, r.values, "pivot-identical vertices");
            assert_eq!(d.basis, r.basis, "pivot-identical bases");
        }
    }

    fn reference_programs() -> Vec<LinearProgram> {
        let mut out = Vec::new();
        // Bounded optimum with mixed relations.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(-2));
        lp.set_objective(1, q(-3));
        lp.add_constraint(vec![(0, q(1)), (1, q(2))], R::Le, q(14));
        lp.add_constraint(vec![(0, q(3)), (1, q(-1))], R::Ge, q(0));
        lp.add_constraint(vec![(0, q(1)), (1, q(-1))], R::Le, q(2));
        out.push(lp);
        // Negative rhs normalization.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(1));
        lp.add_constraint(vec![(0, q(-1))], R::Le, q(-3));
        out.push(lp);
        // Redundant equalities (dead-row path).
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], R::Eq, q(4));
        lp.add_constraint(vec![(0, q(2)), (1, q(2))], R::Eq, q(8));
        lp.set_objective(0, q(1));
        out.push(lp);
        // Infeasible.
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(vec![(0, q(1))], R::Ge, q(5));
        lp.add_constraint(vec![(0, q(1))], R::Le, q(3));
        out.push(lp);
        // Unbounded.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(-1));
        out.push(lp);
        // Beale's degenerate LP (anti-cycling path).
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
        out.push(lp);
        // Duplicate indices summed; zero-sum coefficient vanishes.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(-1));
        lp.add_constraint(vec![(0, q(1)), (0, q(2)), (1, q(1)), (1, q(-1))], R::Le, q(6));
        lp.add_constraint(vec![(1, q(1))], R::Le, q(5));
        out.push(lp);
        out
    }

    #[test]
    fn matches_dense_on_reference_programs() {
        for lp in reference_programs() {
            assert_identical(&lp);
        }
    }

    /// Forcing the refactorization trigger (≥ 2 reinversions in one
    /// solve) cannot change the answer: a refactorization is a change of
    /// representation, not of any compared value.
    #[test]
    fn refactorization_trigger_is_representation_only() {
        // A chain of coupled constraints that takes a healthy number of
        // pivots, plus Beale's degenerate program.
        let mut chain = LinearProgram::new(6);
        for v in 0..6 {
            chain.set_objective(v, q(-(v as i64 + 1)));
        }
        for c in 0..6 {
            let coeffs: Vec<(usize, Q)> =
                (0..6).map(|v| (v, q(1 + ((c + v) % 3) as i64))).collect();
            chain.add_constraint(coeffs, R::Le, q(10 + c as i64));
        }
        chain.add_constraint(vec![(0, q(1)), (3, q(1))], R::Ge, q(1));
        for lp in [chain, reference_programs().remove(5)] {
            let default = lp.solve();
            // Refactor after every pivot (fill factor 0 makes any update
            // nonzero exceed the cap).
            let tight = Refactor { interval: 1, fill_factor: 0 };
            let (forced, stats) = lp.solve_revised(SolveOptions::default(), tight);
            assert!(
                stats.refactorizations >= 2,
                "expected ≥ 2 reinversions, got {} over {} pivots",
                stats.refactorizations,
                stats.pivots
            );
            assert_eq!(default.status, forced.status);
            assert_eq!(default.objective_value, forced.objective_value);
            assert_eq!(default.values, forced.values, "refactorization changed the vertex");
            assert_eq!(default.basis, forced.basis, "refactorization changed the basis");
            // And both agree with the dense oracle.
            let dense = lp.solve_dense();
            assert_eq!(dense.status, forced.status);
            if dense.status == LpStatus::Optimal {
                assert_eq!(dense.values, forced.values);
            }
        }
    }

    /// A persistent cache reuses the parent factorization when only the
    /// right-hand sides move — the binary-search-probe access pattern.
    #[test]
    fn warm_cache_reuses_factorization_across_rhs_changes() {
        let build = |cap: i64| {
            let mut lp = LinearProgram::new(3);
            lp.set_objective(0, q(1));
            lp.add_constraint(vec![(0, q(1)), (1, q(1)), (2, q(1))], R::Eq, q(3));
            for v in 0..3 {
                lp.add_constraint(vec![(v, q(1))], R::Le, q(cap));
            }
            lp
        };
        let mut cache = WarmCache::new();
        for cap in [5i64, 4, 3, 2] {
            let lp = build(cap);
            let warm = lp.solve_warm_cached(&mut cache);
            let cold = lp.solve();
            assert_eq!(warm.status, cold.status, "cap {cap}");
            assert_eq!(warm.objective_value, cold.objective_value, "cap {cap}");
            assert!(lp.is_feasible_point(&warm.values));
        }
        assert!(
            cache.factor_reuses() >= 1,
            "rhs-only drift must reuse the parent factorization at least once"
        );
        // An infeasible probe leaves the cache usable.
        let infeasible = build(0).solve_warm_cached(&mut cache);
        assert_eq!(infeasible.status, LpStatus::Infeasible);
        let again = build(4).solve_warm_cached(&mut cache);
        assert_eq!(again.status, LpStatus::Optimal);
        assert_eq!(again.objective_value, q(0));
    }

    /// A hint assembled for a differently-shaped program — columns out
    /// of range for this one, or duplicated — must route to the cold
    /// path, count a warm fallback in the cache, and still return the
    /// exact cold answer (never panic or mis-solve).
    #[test]
    fn stale_hint_from_other_program_falls_back_cold() {
        // Hint donor: a 6-variable program whose optimal basis uses
        // column indices far beyond the 1-variable target's layout.
        let mut donor = LinearProgram::new(6);
        for v in 0..6 {
            donor.set_objective(v, q(1));
            donor.add_constraint(vec![(v, q(1))], R::Ge, q(1));
        }
        let donor_sol = donor.solve();
        assert_eq!(donor_sol.status, LpStatus::Optimal);

        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(1));
        lp.add_constraint(vec![(0, q(1))], R::Ge, q(3));
        let cold = lp.solve();
        let mut cache = WarmCache::new();
        let warm = warm_capped(&lp, &donor_sol.basis, &mut cache, None);
        assert_eq!(cache.warm_fallbacks(), 1, "out-of-range hint must be counted stale");
        assert_eq!(warm.status, cold.status);
        assert_eq!(warm.objective_value, cold.objective_value);
        assert_eq!(warm.values, cold.values);
        // Duplicate columns in a hint are equally stale.
        let warm = warm_capped(&lp, &[0, 0], &mut cache, None);
        assert_eq!(cache.warm_fallbacks(), 2, "duplicated hint must be counted stale");
        assert_eq!(warm.objective_value, cold.objective_value);
        // A genuine self-hint afterwards is not a fallback.
        let warm = warm_capped(&lp, &cold.basis, &mut cache, None);
        assert_eq!(cache.warm_fallbacks(), 2);
        assert_eq!(warm.objective_value, cold.objective_value);
    }

    /// 200 variables whose 10 attractive columns sit behind a dead
    /// prefix of 190.
    fn dead_prefix_lp() -> LinearProgram {
        let nv = 200;
        let dead = nv - 10;
        let mut lp = LinearProgram::new(nv);
        for v in 0..dead {
            lp.set_objective(v, q(1));
        }
        for v in dead..nv {
            lp.set_objective(v, q(-((v - dead + 1) as i64)));
            lp.add_constraint(vec![(v, q(1))], R::Le, q(1));
        }
        lp.add_constraint((dead..nv).map(|v| (v, q(1))), R::Le, q(5));
        lp
    }

    /// On a program whose attractive columns sit behind a long dead
    /// prefix, Bland's in-order scan re-prices the prefix every pivot
    /// while the candidate strategies pay for it once per refill — the
    /// counters must show strictly less pricing work, at the same
    /// optimal objective (the vertex may legitimately differ).
    #[test]
    fn partial_pricing_prices_fewer_columns() {
        let lp = dead_prefix_lp();
        let (bland, bland_stats) = lp.solve_with(SolveOptions::default());
        assert_eq!(bland.status, LpStatus::Optimal);
        assert!(bland_stats.columns_priced > 0);
        assert_eq!(bland_stats.candidate_refills, 0, "Bland never touches the candidate list");
        let pricing = Pricing::PartialCandidate;
        let (sol, stats) = lp.solve_with(SolveOptions { pricing, ..SolveOptions::default() });
        assert_eq!(sol.status, bland.status, "{pricing:?}");
        assert_eq!(sol.objective_value, bland.objective_value, "{pricing:?}");
        assert!(lp.is_feasible_point(&sol.values), "{pricing:?}");
        assert!(stats.candidate_refills >= 1, "{pricing:?} must refill at least once");
        assert!(
            stats.columns_priced < bland_stats.columns_priced,
            "{pricing:?}: {} pricings vs Bland's {}",
            stats.columns_priced,
            bland_stats.columns_priced
        );
    }

    /// Tripping the warm anti-cycling cap must fall back to the cold
    /// exact solve (same answer) and count the event in the cache.
    #[test]
    fn warm_cap_fallback_is_counted_and_exact() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(1));
        lp.add_constraint(vec![(0, q(1))], R::Ge, q(3));
        let cold = lp.solve();
        let mut cache = WarmCache::new();
        // Hinting the slack column crashes to a primal-infeasible basis
        // (s = -3), so the dual repair needs a pivot — and a zero pivot
        // budget trips the anti-cycling cap on that first pivot.
        let capped = warm_capped(&lp, &[1], &mut cache, Some(0));
        assert_eq!(cache.warm_fallbacks(), 1, "cap fallback must be recorded");
        assert_eq!(capped.status, cold.status);
        assert_eq!(capped.objective_value, cold.objective_value);
        assert_eq!(capped.values, cold.values);
        // An uncapped warm solve on the same cache does not count one.
        let warm = warm_capped(&lp, &cold.basis, &mut cache, None);
        assert_eq!(warm.objective_value, cold.objective_value);
        assert_eq!(cache.warm_fallbacks(), 1);
    }

    /// A zero pivot budget and an already-expired deadline both fail
    /// fast without touching the cache, which stays fully usable.
    #[test]
    fn budget_zero_and_expired_deadline_fail_fast() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(1));
        lp.add_constraint(vec![(0, q(1))], R::Ge, q(3));
        let mut cache = WarmCache::new();
        let err = lp.solve_budgeted(&mut cache, &SolveBudget::pivots(0)).unwrap_err();
        assert_eq!(err, BudgetError::PivotCapExhausted { pivots: 0 });
        let expired = SolveBudget { max_pivots: None, deadline: Some(std::time::Instant::now()) };
        let err = lp.solve_budgeted(&mut cache, &expired).unwrap_err();
        assert_eq!(err, BudgetError::DeadlineExpired);
        // The cache is untouched: an uncapped solve works and warms it.
        let sol = lp.solve_warm_cached(&mut cache);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective_value, q(3));
        assert!(cache.is_warm());
        // A generous budget returns the same exact answer as uncapped.
        let sol = lp.solve_budgeted(&mut cache, &SolveBudget::pivots(1_000)).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective_value, q(3));
    }

    /// A budget tripped mid-solve surfaces `PivotCapExhausted`, keeps the
    /// prior hint, and a later uncapped solve still returns the exact
    /// answer — the recoverability contract the degradation ladder
    /// builds on.
    #[test]
    fn budget_trip_midsolve_is_recoverable() {
        // min x + y s.t. x >= 3, y >= 2: hinting both slack columns
        // crashes to xb = (-3, -2), so the dual repair needs two pivots
        // — one more than the budget allows.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(1));
        lp.set_objective(1, q(1));
        lp.add_constraint(vec![(0, q(1))], R::Ge, q(3));
        lp.add_constraint(vec![(1, q(1))], R::Ge, q(2));
        let cold = lp.solve();
        let mut cache = WarmCache::new();
        cache.hint = vec![2, 3];
        let err = lp.solve_budgeted(&mut cache, &SolveBudget::pivots(1)).unwrap_err();
        assert!(matches!(err, BudgetError::PivotCapExhausted { pivots } if pivots >= 2));
        assert_eq!(cache.hint, vec![2, 3], "failed budgeted solve keeps the prior hint");
        let sol = lp.solve_warm_cached(&mut cache);
        assert_eq!(sol.status, cold.status);
        assert_eq!(sol.objective_value, cold.objective_value);
    }

    /// `poison_hint` makes the next warm solve take the counted
    /// stale-hint fallback while still returning the exact answer.
    #[test]
    fn poisoned_hint_is_counted_and_exact() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(1));
        lp.add_constraint(vec![(0, q(1))], R::Ge, q(3));
        let mut cache = WarmCache::new();
        let first = lp.solve_warm_cached(&mut cache);
        assert_eq!(first.status, LpStatus::Optimal);
        assert_eq!(cache.warm_fallbacks(), 0);
        cache.poison_hint();
        let sol = lp.solve_warm_cached(&mut cache);
        assert_eq!(cache.warm_fallbacks(), 1, "poisoned hint must be a counted fallback");
        assert_eq!(sol.status, first.status);
        assert_eq!(sol.objective_value, first.objective_value);
        assert_eq!(sol.values, first.values);
        // Under a budget the poisoned hint is equally counted; the
        // from-scratch crash runs inside the budget.
        cache.poison_hint();
        let sol = lp.solve_budgeted(&mut cache, &SolveBudget::pivots(1_000)).unwrap();
        assert_eq!(cache.warm_fallbacks(), 2);
        assert_eq!(sol.objective_value, first.objective_value);
    }

    /// A cache seeded through `set_hint` solves from that basis under
    /// either solver and returns the cold status and objective; a seed
    /// with out-of-range or duplicate columns takes the counted
    /// stale-hint fallback and is still exact.
    #[test]
    fn seeded_cache_matches_cold() {
        for solver in [Solver::Revised, Solver::Hybrid] {
            for lp in reference_programs() {
                let cold = lp.solve();
                let mut seeds = vec![cold.basis.clone(), vec![0]];
                seeds.retain(|s| !s.is_empty());
                for seed in seeds {
                    let mut cache = WarmCache::with_options(solver.into());
                    cache.set_hint(seed.clone());
                    let sol = lp.solve_warm_cached(&mut cache);
                    assert_eq!(sol.status, cold.status, "{solver:?} seed {seed:?}");
                    assert_eq!(sol.objective_value, cold.objective_value, "{solver:?}");
                    assert_eq!(cache.warm_fallbacks(), 0, "{solver:?} seed {seed:?}");
                }
                for garbage in [vec![usize::MAX, 0], vec![0, 0]] {
                    let mut cache = WarmCache::with_options(solver.into());
                    cache.set_hint(garbage);
                    let sol = lp.solve_warm_cached(&mut cache);
                    assert_eq!(cache.warm_fallbacks(), 1, "{solver:?}: garbage seed is counted");
                    assert_eq!(sol.status, cold.status);
                    assert_eq!(sol.objective_value, cold.objective_value);
                }
            }
        }
    }

    /// `reset_warm_state` drops hint + factorization but keeps counters:
    /// the next solve runs cold (no stale-hint fallback) and behaves
    /// exactly like a fresh cache's first solve.
    #[test]
    fn reset_warm_state_runs_cold_and_keeps_counters() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, q(1));
        lp.add_constraint(vec![(0, q(1))], R::Ge, q(3));
        let mut cache = WarmCache::new();
        let first = lp.solve_warm_cached(&mut cache);
        assert!(cache.is_warm());
        cache.poison_hint();
        lp.solve_warm_cached(&mut cache);
        assert_eq!(cache.warm_fallbacks(), 1);
        cache.reset_warm_state();
        assert!(!cache.is_warm(), "reset caches solve cold, like a fresh cache");
        let sol = lp.solve_warm_cached(&mut cache);
        assert_eq!(cache.warm_fallbacks(), 1, "a cold solve is not a counted fallback");
        assert_eq!(sol.status, first.status);
        assert_eq!(sol.objective_value, first.objective_value);
        assert!(cache.is_warm(), "the cold solve re-warms the cache");
    }

    /// A revised cache's cold first solve runs under the cache's own
    /// options: the direct solve's basis and its pricing work.
    #[test]
    fn revised_cache_cold_solve_uses_cache_options() {
        let lp = dead_prefix_lp();
        let opts = SolveOptions { pricing: Pricing::PartialCandidate, ..SolveOptions::default() };
        let (direct, stats) = lp.solve_with(opts);
        assert!(stats.columns_priced > 0);
        let mut cache = WarmCache::with_options(opts);
        let cached = lp.solve_warm_cached(&mut cache);
        assert_eq!(cached.basis, direct.basis, "the cache must solve with its partial pricing");
        assert_eq!(cache.columns_priced(), stats.columns_priced, "cold pricing work is counted");
        assert_eq!(cache.candidate_refills(), stats.candidate_refills);
    }

    /// Every exit of a warm solve counts its pricing work in the cache:
    /// min −x0 s.t. x1 ≤ 1, warm from the slack, prices column 0 once
    /// and ends unbounded, as the cold solve does.
    #[test]
    fn unbounded_warm_exit_counts_its_pricing() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(-1));
        lp.add_constraint(vec![(1, q(1))], R::Le, q(1));
        let (cold, stats) = lp.solve_with(SolveOptions::default());
        assert_eq!(cold.status, LpStatus::Unbounded);
        assert_eq!(stats.columns_priced, 1);
        let mut cache = WarmCache::new();
        cache.set_hint(vec![2]);
        assert_eq!(lp.solve_warm_cached(&mut cache).status, LpStatus::Unbounded);
        assert_eq!(cache.columns_priced(), stats.columns_priced);
    }

    /// The LST relaxation on identical machines (job rows
    /// `Σ_i x_ij = 1`, machine rows `Σ_j p_j x_ij ≤ T` at McNaughton's
    /// bound) and its LPT hint: each job's LPT column plus every slack.
    fn lpt_seeded(n: usize, m: usize, seed: usize) -> (LinearProgram, Vec<usize>) {
        let p: Vec<u64> = (0..n).map(|j| 5 + ((j * 37 + seed * 11) % 56) as u64).collect();
        let t = p.iter().copied().max().unwrap_or(0).max(p.iter().sum::<u64>().div_ceil(m as u64));
        let mut lp = LinearProgram::new(n * m);
        for j in 0..n {
            lp.add_constraint((0..m).map(|i| (j * m + i, Q::one())), R::Eq, Q::one());
        }
        for i in 0..m {
            lp.add_constraint((0..n).map(|j| (j * m + i, Q::from(p[j]))), R::Le, Q::from(t));
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
        (lp, hint)
    }

    /// The float crash of an LPT-seeded assignment basis peels it — each
    /// job row is a singleton of its LPT column, then each machine row of
    /// its slack — so its factor holds exactly the basis' own nonzeros,
    /// the float twin of `assignment_basis_factorizes_without_fill`.
    /// Largest-magnitude pivots put every LPT column on its machine row,
    /// and a machine's second job filled its first job's row.
    #[test]
    fn float_crash_of_an_lpt_basis_has_no_fill() {
        for (n, m, seed) in [(6, 2, 1), (20, 8, 2), (36, 12, 3), (48, 24, 4)] {
            let (lp, hint) = lpt_seeded(n, m, seed);
            let lay = Layout::new(&lp);
            let prog = lay.program::<f64>(&lp);
            let (wanted, stale) = sanitize(&hint, lay.cols);
            assert!(!stale);
            let (basis, factor) = crash(&prog.cols, lay.m, &wanted).expect("unit columns complete");
            let mut got = basis.clone();
            got.sort_unstable();
            assert_eq!(got, wanted, "n {n} m {m}: the hint is a basis");
            let own: usize = basis.iter().map(|&b| prog.cols.col(b).len()).sum();
            assert_eq!(factor.factor_nnz(), own, "n {n} m {m}: the crash filled");
        }
    }

    /// The crash keeps every independent hinted column, skips a dependent
    /// one and an empty one, and completes to full rank, in both
    /// arithmetics: x4 is peeled (alone on row 3), x0 and x1 form the
    /// nucleus, x2 = x0 + x1 and x3 (in no row) are skipped, and the slack
    /// of row 0 completes the basis.
    #[test]
    fn crash_skips_dependent_and_empty_hinted_columns() {
        fn check<S: Scalar>(lp: &LinearProgram) {
            let lay = Layout::new(lp);
            let prog = lay.program::<S>(lp);
            let (basis, factor) = crash(&prog.cols, lay.m, &[0, 1, 2, 3, 4]).expect("completes");
            let mut got = basis.clone();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 4, 5]);
            let mut x = Vec::new();
            for (slot, &b) in basis.iter().enumerate() {
                factor.ftran_sparse(prog.cols.col(b), &mut x);
                for (i, v) in x.iter().enumerate() {
                    let want = if i == slot { S::one() } else { S::default() };
                    assert!(!(v.clone() - want).beyond_tol(), "B⁻¹B = I at ({i}, {slot})");
                }
            }
        }
        let mut lp = LinearProgram::new(5);
        lp.add_constraint(vec![(0, q(1)), (2, q(1)), (4, q(1))], R::Le, q(4));
        lp.add_constraint(vec![(0, q(1)), (1, q(2)), (2, q(3))], R::Le, q(4));
        lp.add_constraint(vec![(1, q(1)), (2, q(1))], R::Le, q(4));
        lp.add_constraint(vec![(4, q(5))], R::Le, q(4));
        check::<Q>(&lp);
        check::<f64>(&lp);
    }

    #[test]
    fn warm_from_cold_basis_is_instant_on_same_program() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], R::Eq, q(10));
        lp.add_constraint(vec![(0, q(1)), (1, q(-1))], R::Eq, q(2));
        let cold = lp.solve();
        let warm = lp.solve_warm(&cold.basis);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_eq!(warm.values, cold.values);
    }

    #[test]
    fn warm_with_garbage_hint_still_exact() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(1));
        lp.set_objective(1, q(1));
        lp.add_constraint(vec![(0, q(2)), (1, q(1))], R::Ge, q(3));
        lp.add_constraint(vec![(0, q(1)), (1, q(3))], R::Ge, q(4));
        for hint in [vec![], vec![0], vec![1, 3], vec![99, 100, 0]] {
            let warm = lp.solve_warm(&hint);
            assert_eq!(warm.status, LpStatus::Optimal);
            assert_eq!(warm.objective_value, q(2));
            assert!(lp.is_feasible_point(&warm.values));
        }
    }

    #[test]
    fn warm_detects_infeasible() {
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(vec![(0, q(1))], R::Ge, q(5));
        lp.add_constraint(vec![(0, q(1))], R::Le, q(3));
        assert_eq!(lp.solve_warm(&[0]).status, LpStatus::Infeasible);
        assert_eq!(lp.solve_warm(&[]).status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_detects_unbounded() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(-1));
        lp.add_constraint(vec![(1, q(1))], R::Le, q(1));
        assert_eq!(lp.solve_warm(&[1]).status, LpStatus::Unbounded);
    }

    #[test]
    fn warm_inconsistent_zero_row() {
        // x + y = 1 twice with different rhs: the crash leaves a zero row
        // with nonzero b.
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], R::Eq, q(1));
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], R::Eq, q(2));
        assert_eq!(lp.solve_warm(&[0, 1]).status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_redundant_row_dropped() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], R::Eq, q(4));
        lp.add_constraint(vec![(0, q(2)), (1, q(2))], R::Eq, q(8));
        let warm = lp.solve_warm(&[0]);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(lp.is_feasible_point(&warm.values));
    }
}
