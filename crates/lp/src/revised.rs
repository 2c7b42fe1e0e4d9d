//! Revised simplex with an exact LU-factorized basis — the production
//! solver, plus the options, warm-start cache, and budget types shared
//! by both production solvers ([`Solver`]).
//!
//! A tableau solver maintains the transformed matrix `B⁻¹A` explicitly:
//! every pivot rewrites every touched row, and on the paper's decision
//! LPs the rows fill in rapidly once the basis outgrows a few hundred
//! rows. The revised method never materializes the tableau. It keeps the
//! original constraint matrix in sparse column form, represents `B⁻¹` as
//! a [`Factorization`] (an exact elimination of the basis columns,
//! triangular part first, refactorized on a fill/pivot-count trigger,
//! plus one eta per pivot since), and derives everything the simplex
//! compares on demand:
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
//! verbatim the same, the revised solver takes the pivot path of the
//! dense test oracle ([`LinearProgram::solve_dense`]) and returns
//! bit-identical vertices — the differential tests assert equality of
//! status, objective, values, and basis.
//!
//! [`LinearProgram::solve_warm`] is also implemented here: the hinted
//! columns are crashed into a basis by one exact factorization pass
//! (instead of `m` full-tableau Gaussian pivots), a zero-objective dual
//! simplex repairs primal feasibility, and a final primal phase
//! optimizes the real objective. A [`WarmCache`] carried across related
//! solves (the binary-search probes on the horizon `T`) additionally
//! reuses the *parent factorization* wholesale whenever the hinted basis
//! columns are unchanged in the new program, skipping even the crash.

use std::convert::Infallible;

use numeric::Q;

use crate::factor::{Factorization, SVec};
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
/// the B&B node paths all depend on that. The other strategies trade the
/// full in-order scan for far fewer reduced-cost evaluations per pivot;
/// any optimum they reach is exact (status and objective always agree
/// with Bland), but the returned vertex may be a *different* optimal
/// basic solution. A degenerate-pivot-streak guard falls back to Bland's
/// rule within the phase until the objective strictly improves, so
/// termination stays guaranteed.
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
    /// [`Pricing::PartialCandidate`] with devex reference weights
    /// driving the selection (`rc²/γ_j`), updated every pivot by the
    /// Forrest–Goldfarb recurrence and reset on refactorization.
    Devex,
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

/// Refactorization trigger of the exact core. Crate-private: only the
/// representation-only test tightens it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Refactor {
    /// Refactorize after this many eta updates (pivot-count trigger).
    pub(crate) interval: usize,
    /// Refactorize when the update file's nonzeros exceed
    /// `fill_factor · (m + factorization nonzeros)` (fill trigger).
    pub(crate) fill_factor: usize,
}

impl Default for Refactor {
    fn default() -> Self {
        Refactor { interval: 64, fill_factor: 4 }
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
    /// Devex reference-weight resets on refactorization.
    pub devex_resets: usize,
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
        self.devex_resets += other.devex_resets;
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
    pub(crate) devex_resets: usize,
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

    /// Devex weight resets (on refactorization) across all solves.
    pub fn devex_resets(&self) -> usize {
        self.devex_resets
    }

    /// Fold one solve's pricing and certification counters into the
    /// cache totals.
    pub(crate) fn absorb(&mut self, stats: &RevisedStats) {
        self.hybrid_certified += stats.hybrid_certified;
        self.fallback_reasons.absorb(&stats.fallback_reasons);
        self.cold_rescues += stats.cold_rescues;
        self.columns_priced += stats.columns_priced;
        self.candidate_refills += stats.candidate_refills;
        self.devex_resets += stats.devex_resets;
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
        self.devex_resets += worker.devex_resets;
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

enum PhaseOutcome {
    Optimal,
    Unbounded,
    /// A pivot budget ran out before the phase finished (budgeted solves
    /// only; uncapped phases never return this).
    PivotLimit,
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

/// Column-filter callback for the pricing scans.
pub(crate) type Allowed<'f> = &'f dyn Fn(usize) -> bool;

/// A reduced cost as the shared pricing loops see it: ordered (the
/// partial-candidate rule picks the most negative) and with an `f64`
/// view for the devex score. Implemented by the exact core's `Q` and the
/// float core's `f64`.
pub(crate) trait ReducedCost: PartialOrd {
    fn as_f64(&self) -> f64;
}

impl ReducedCost for Q {
    fn as_f64(&self) -> f64 {
        self.to_f64()
    }
}

impl ReducedCost for f64 {
    fn as_f64(&self) -> f64 {
        *self
    }
}

/// Mutable pricing state carried across the pivots of one solve, and
/// the one implementation of entering-column selection both cores run.
/// Selection (Bland scan, candidate list, rotating refill, devex
/// weights) is plain bookkeeping either way; each core supplies only its
/// reduced-cost arithmetic, as a closure `negative(j)` returning
/// `Some(rc)` when column `j` prices negative and `Err` when the core
/// must give up.
pub(crate) struct PriceState {
    pub(crate) pricing: Pricing,
    /// Where the next rotating refill scan starts.
    cursor: usize,
    /// Nonbasic columns last seen with negative reduced cost, re-priced
    /// lazily under each new set of multipliers.
    pub(crate) candidates: Vec<usize>,
    /// Devex reference weights, one per column (empty unless
    /// [`Pricing::Devex`]).
    pub(crate) weights: Vec<f64>,
    /// Consecutive degenerate pivots under non-Bland selection.
    pub(crate) degen_streak: usize,
    /// Degenerate-streak escape: price with Bland's rule until the
    /// objective strictly improves. Partial/devex selection alone can
    /// cycle on degenerate vertices; Bland's rule cannot, so a phase
    /// that latches here still terminates.
    pub(crate) bland_mode: bool,
}

impl PriceState {
    pub(crate) fn new(pricing: Pricing, cols: usize) -> Self {
        let weights = if pricing == Pricing::Devex { vec![1.0; cols] } else { Vec::new() };
        PriceState {
            pricing,
            cursor: 0,
            candidates: Vec::new(),
            weights,
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
    pub(crate) fn degen_threshold(m: usize) -> usize {
        8 * (m + 16)
    }

    /// Entering column under the configured strategy among the `cols`
    /// columns; `Ok(None)` = no allowed nonbasic column prices negative
    /// (the phase is optimal). Every reduced cost evaluated is counted
    /// in `stats.columns_priced`.
    pub(crate) fn price_enter<R: ReducedCost, E>(
        &mut self,
        cols: usize,
        in_basis: &[bool],
        allowed: Allowed,
        stats: &mut RevisedStats,
        mut negative: impl FnMut(usize) -> Result<Option<R>, E>,
    ) -> Result<Option<usize>, E> {
        if self.pricing == Pricing::Bland || self.bland_mode {
            return Self::bland_enter(cols, in_basis, allowed, stats, &mut negative);
        }
        let mut enter = self.select_candidates(in_basis, allowed, stats, &mut negative)?;
        if enter.is_none() {
            // List exhausted: refill by a rotating scan. The refill
            // prices every column when nothing is negative, so an empty
            // refill proves optimality under the current multipliers.
            stats.candidate_refills += 1;
            self.refill_candidates(cols, in_basis, allowed, stats, &mut negative)?;
            enter = self.select_candidates(in_basis, allowed, stats, &mut negative)?;
        }
        Ok(enter)
    }

    /// Bland's rule: the smallest allowed nonbasic column with negative
    /// reduced cost, in column order with early exit.
    fn bland_enter<R, E>(
        cols: usize,
        in_basis: &[bool],
        allowed: Allowed,
        stats: &mut RevisedStats,
        negative: &mut impl FnMut(usize) -> Result<Option<R>, E>,
    ) -> Result<Option<usize>, E> {
        for j in 0..cols {
            if !allowed(j) || in_basis[j] {
                continue;
            }
            stats.columns_priced += 1;
            if negative(j)?.is_some() {
                return Ok(Some(j));
            }
        }
        Ok(None)
    }

    /// Re-price the candidate list under the current multipliers,
    /// dropping entries that went basic, disallowed, or nonnegative, and
    /// return the best survivor by the strategy's selection rule (most
    /// negative reduced cost for [`Pricing::PartialCandidate`]; max
    /// `rc²/γ_j` for [`Pricing::Devex`]; ties to the smaller column).
    fn select_candidates<R: ReducedCost, E>(
        &mut self,
        in_basis: &[bool],
        allowed: Allowed,
        stats: &mut RevisedStats,
        negative: &mut impl FnMut(usize) -> Result<Option<R>, E>,
    ) -> Result<Option<usize>, E> {
        let devex = self.pricing == Pricing::Devex;
        let mut best: Option<(usize, R, f64)> = None;
        let mut kept = 0;
        for idx in 0..self.candidates.len() {
            let j = self.candidates[idx];
            if !allowed(j) || in_basis[j] {
                continue;
            }
            stats.columns_priced += 1;
            let Some(rc) = negative(j)? else {
                continue;
            };
            let score = if devex {
                let rcf = rc.as_f64();
                let w = self.weights[j].max(f64::MIN_POSITIVE);
                let s = rcf * rcf / w;
                if s.is_finite() {
                    s
                } else {
                    f64::MAX
                }
            } else {
                0.0
            };
            let better = match &best {
                None => true,
                Some((bj, brc, bscore)) => {
                    if devex {
                        score > *bscore || (score == *bscore && j < *bj)
                    } else {
                        rc < *brc || (rc == *brc && j < *bj)
                    }
                }
            };
            if better {
                best = Some((j, rc, score));
            }
            self.candidates[kept] = j;
            kept += 1;
        }
        self.candidates.truncate(kept);
        Ok(best.map(|(j, _, _)| j))
    }

    /// Rotating refill: price columns from the cursor, wrapping once
    /// around the ring, collecting up to the list cap of
    /// negative-reduced-cost columns. A full wrap collecting nothing
    /// leaves the list empty, which the caller reads as phase-optimal.
    fn refill_candidates<R, E>(
        &mut self,
        cols: usize,
        in_basis: &[bool],
        allowed: Allowed,
        stats: &mut RevisedStats,
        negative: &mut impl FnMut(usize) -> Result<Option<R>, E>,
    ) -> Result<(), E> {
        if cols == 0 {
            return Ok(());
        }
        let cap = Self::list_cap(cols);
        let start = self.cursor % cols;
        for step in 0..cols {
            let j = (start + step) % cols;
            if !allowed(j) || in_basis[j] {
                continue;
            }
            stats.columns_priced += 1;
            if negative(j)?.is_some() {
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

/// The revised-simplex working state: original columns + factorized
/// basis + incrementally maintained basic values.
struct Core<'a> {
    m: usize,
    /// Sparse columns of the full assembled matrix (structural, slack,
    /// and — for cold solves — artificial columns).
    a_cols: &'a [SVec],
    /// Basic column per row slot ([`VIRTUAL`] = virtual identity).
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// `x_B = B⁻¹ b` per slot — the tableau's right-hand side.
    xb: Vec<Q>,
    factor: Factorization,
    refactor: Refactor,
    stats: RevisedStats,
    /// Scratch for FTRAN results.
    u: Vec<Q>,
    price: PriceState,
}

impl<'a> Core<'a> {
    /// `y = B⁻ᵀ e_slot` (a unit BTRAN: the transformed row `slot`).
    fn btran_unit(&self, slot: usize) -> Vec<Q> {
        let mut y = vec![Q::zero(); self.m];
        y[slot] = Q::one();
        self.factor.btran_inplace(&mut y);
        y
    }

    /// `y = B⁻ᵀ c_B` for a cost vector over columns.
    fn btran_costs(&self, cost: &[Q]) -> Vec<Q> {
        let mut y = vec![Q::zero(); self.m];
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
    fn transformed_entry(&self, rho: &[Q], j: usize) -> Q {
        let mut d = Q::zero();
        for (i, v) in &self.a_cols[j] {
            if !rho[*i].is_zero() {
                d += v.clone() * rho[*i].clone();
            }
        }
        d
    }

    /// FTRAN the original column `j` into the scratch vector.
    fn ftran_col(&mut self, j: usize) {
        let mut u = std::mem::take(&mut self.u);
        self.factor.ftran_sparse(&self.a_cols[j], &mut u);
        self.u = u;
    }

    /// Ratio test over `u` (the FTRAN scratch): minimal `x_B[i]/u_i`
    /// over `u_i > 0`, ties to the smallest basic column index — the
    /// Bland tie-break all solvers in this crate share.
    fn ratio_test(&self) -> Option<usize> {
        let mut leave: Option<(usize, Q)> = None;
        for (i, ui) in self.u.iter().enumerate() {
            if !ui.is_positive() {
                continue;
            }
            let ratio = self.xb[i].clone() / ui.clone();
            match &leave {
                None => leave = Some((i, ratio)),
                Some((best_i, best)) => {
                    if ratio < *best || (ratio == *best && self.basis[i] < self.basis[*best_i]) {
                        leave = Some((i, ratio));
                    }
                }
            }
        }
        leave.map(|(i, _)| i)
    }

    /// Pivot: column `enter` becomes basic in `slot`. `self.u` must hold
    /// the transformed entering column; its `slot` entry must be nonzero
    /// (either sign — the warm crash and dual repair pivot on negatives).
    fn pivot(&mut self, slot: usize, enter: usize) {
        let t = self.xb[slot].clone() / self.u[slot].clone();
        if !t.is_zero() {
            for (i, ui) in self.u.iter().enumerate() {
                if i != slot && !ui.is_zero() {
                    self.xb[i] = self.xb[i].clone() - ui.clone() * t.clone();
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
        self.maybe_refactor();
    }

    /// Fill/pivot-count refactorization trigger.
    fn maybe_refactor(&mut self) {
        let f = &self.factor;
        let fill_cap = self.refactor.fill_factor * (self.m + f.factor_nnz());
        if f.update_count() < self.refactor.interval && f.update_nnz() <= fill_cap {
            return;
        }
        self.refactor();
    }

    /// Unconditional refactorization from the current basis columns.
    fn refactor(&mut self) {
        // Virtual slots contribute identity columns.
        let virt: Vec<SVec> = (0..self.m).map(|s| vec![(s, Q::one())]).collect();
        let cols: Vec<&SVec> = self
            .basis
            .iter()
            .enumerate()
            .map(|(s, &b)| if b == VIRTUAL { &virt[s] } else { &self.a_cols[b] })
            .collect();
        self.factor.refactor(&cols);
        self.stats.refactorizations += 1;
        if !self.price.weights.is_empty() {
            // Devex weights are referenced to the basis at the last
            // reset; a refactorization is the natural reference point.
            self.price.weights.iter_mut().for_each(|w| *w = 1.0);
            self.stats.devex_resets += 1;
        }
    }

    /// One primal simplex phase minimizing `cost` over `allowed`
    /// columns, selecting entering columns by the configured
    /// [`Pricing`] strategy; the ratio test (and hence the anti-cycling
    /// leave tie-break) is shared by all strategies.
    fn run_phase(&mut self, cost: &[Q], allowed: Allowed) -> PhaseOutcome {
        self.run_phase_capped(cost, allowed, None)
    }

    /// [`Core::run_phase`] under an optional hard cap on
    /// `self.stats.pivots` (which includes pivots performed *before*
    /// this phase, e.g. warm crash/repair): when one more pivot would
    /// exceed the cap the phase stops with [`PhaseOutcome::PivotLimit`].
    /// The check sits after pricing, so a phase that is already optimal
    /// at the cap still reports `Optimal`.
    fn run_phase_capped(
        &mut self,
        cost: &[Q],
        allowed: Allowed,
        cap: Option<usize>,
    ) -> PhaseOutcome {
        loop {
            let y = self.btran_costs(cost);
            let Some(enter) = self.price_enter(cost, &y, allowed) else {
                return PhaseOutcome::Optimal;
            };
            if cap.is_some_and(|c| self.stats.pivots >= c) {
                return PhaseOutcome::PivotLimit;
            }
            self.ftran_col(enter);
            let Some(slot) = self.ratio_test() else {
                return PhaseOutcome::Unbounded;
            };
            if self.price.pricing != Pricing::Bland {
                self.note_degeneracy(slot);
                if self.price.pricing == Pricing::Devex && !self.price.bland_mode {
                    self.devex_update(slot, enter);
                }
            }
            self.pivot(slot, enter);
        }
    }

    /// Entering column under the configured strategy; `None` = no
    /// allowed nonbasic column has negative reduced cost `c_j − y·A_j`
    /// (the phase is optimal).
    fn price_enter(&mut self, cost: &[Q], y: &[Q], allowed: Allowed) -> Option<usize> {
        let Core { a_cols, in_basis, price, stats, .. } = self;
        let negative = |j: usize| {
            let mut rc = cost[j].clone();
            for (i, v) in &a_cols[j] {
                if !y[*i].is_zero() {
                    rc -= v.clone() * y[*i].clone();
                }
            }
            Ok::<_, Infallible>(rc.is_negative().then_some(rc))
        };
        let Ok(enter) = price.price_enter(a_cols.len(), in_basis, allowed, stats, negative);
        enter
    }

    /// Track degenerate-pivot streaks for the non-Bland strategies: a
    /// long streak latches Bland mode (guaranteed termination), a
    /// nondegenerate pivot (strict objective improvement) unlatches it.
    fn note_degeneracy(&mut self, slot: usize) {
        if self.xb[slot].is_zero() {
            self.price.degen_streak += 1;
            if self.price.degen_streak > PriceState::degen_threshold(self.m) {
                self.price.bland_mode = true;
            }
        } else {
            self.price.degen_streak = 0;
            self.price.bland_mode = false;
        }
    }

    /// Forrest–Goldfarb devex update for the pivot `enter` → slot
    /// `slot`, applied before the basis change (`self.u` still holds the
    /// transformed entering column). Weights are a selection heuristic
    /// only — plain f64, guarded against non-finite values — so they
    /// never affect exactness, and the update is restricted to the
    /// candidate list (the only columns whose weights can drive a
    /// selection before the next refill or reset).
    fn devex_update(&mut self, slot: usize, enter: usize) {
        let alpha_r = self.u[slot].to_f64();
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
            let a_j = self.transformed_entry(&rho, j).to_f64();
            if a_j == 0.0 || !a_j.is_finite() {
                continue;
            }
            let cand = (a_j / alpha_r) * (a_j / alpha_r) * g_enter;
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
        let n = self.num_vars;
        let (srows, rels, rhs) = self.assemble();
        let m = srows.len();

        // Column layout: structural | slacks/surplus | artificials —
        // identical to the tableau assembly.
        let n_slack = rels.iter().filter(|r| !matches!(r, Relation::Eq)).count();
        let art_start = n + n_slack;
        let n_art = rels.iter().filter(|r| matches!(r, Relation::Ge | Relation::Eq)).count();
        let cols = art_start + n_art;

        let mut a_cols: Vec<SVec> = vec![Vec::new(); cols];
        for (i, row) in srows.iter().enumerate() {
            for (j, v) in row {
                a_cols[*j].push((i, v.clone()));
            }
        }
        let mut basis = vec![VIRTUAL; m];
        let mut in_basis = vec![false; cols];
        let (mut next_slack, mut next_art) = (n, art_start);
        for (i, rel) in rels.iter().enumerate() {
            match rel {
                Relation::Le => {
                    a_cols[next_slack].push((i, Q::one()));
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    a_cols[next_slack].push((i, -Q::one()));
                    next_slack += 1;
                    a_cols[next_art].push((i, Q::one()));
                    basis[i] = next_art;
                    next_art += 1;
                }
                Relation::Eq => {
                    a_cols[next_art].push((i, Q::one()));
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
            in_basis[basis[i]] = true;
        }

        // Initial basis is the identity (slacks and artificials all +1).
        let mut core = Core {
            m,
            a_cols: &a_cols,
            basis,
            in_basis,
            xb: rhs,
            factor: Factorization::identity(m),
            refactor,
            stats: RevisedStats::default(),
            u: Vec::new(),
            price: PriceState::new(opts.pricing, cols),
        };
        let mut dead = vec![false; m];

        // --- Phase 1: minimize the sum of artificials. -------------------
        if n_art > 0 {
            let mut phase1_cost = vec![Q::zero(); cols];
            for c in phase1_cost.iter_mut().skip(art_start) {
                *c = Q::one();
            }
            match core.run_phase(&phase1_cost, &|_| true) {
                PhaseOutcome::Unbounded => {
                    unreachable!("phase-1 objective is bounded below by 0")
                }
                PhaseOutcome::PivotLimit => {
                    unreachable!("uncapped phase cannot hit a pivot limit")
                }
                PhaseOutcome::Optimal => {}
            }
            let infeas: Q = Q::sum(
                core.basis
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b >= art_start)
                    .map(|(i, _)| &core.xb[i]),
            );
            if infeas.is_positive() {
                return (LpSolution::failed(LpStatus::Infeasible, n), core.stats);
            }
            // Drive remaining (degenerate, zero-valued) artificials out,
            // pivoting on the smallest real column with a nonzero
            // transformed entry — or mark the row dead when the whole
            // transformed row is zero over real columns (the tableau
            // oracle deletes such rows; a dead row's entries stay zero
            // under every later pivot, so keeping it cannot change the
            // pivot path).
            for i in 0..m {
                if core.basis[i] < art_start {
                    continue;
                }
                debug_assert!(core.xb[i].is_zero());
                let rho = core.btran_unit(i);
                let piv = (0..art_start).find(|&j| !core.transformed_entry(&rho, j).is_zero());
                match piv {
                    Some(j) => {
                        core.ftran_col(j);
                        debug_assert!(!core.u[i].is_zero());
                        core.pivot(i, j);
                    }
                    None => dead[i] = true,
                }
            }
        }

        // --- Phase 2: minimize the real objective over real columns. -----
        let mut cost = self.objective.clone();
        cost.resize(cols, Q::zero());
        if let PhaseOutcome::Unbounded = core.run_phase(&cost, &|j| j < art_start) {
            return (LpSolution::failed(LpStatus::Unbounded, n), core.stats);
        }

        (self.extract_revised(&core, &dead), core.stats)
    }

    /// Read the structural solution out of a finished core, skipping
    /// dead rows so the reported basis matches the tableau oracle's
    /// (which physically deletes redundant rows).
    fn extract_revised(&self, core: &Core<'_>, dead: &[bool]) -> LpSolution {
        let n = self.num_vars;
        let mut values = vec![Q::zero(); n];
        let mut basis = Vec::with_capacity(core.m);
        for (i, &bcol) in core.basis.iter().enumerate() {
            if dead[i] {
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
        let (srows, rels, rhs) = self.assemble();
        let m = srows.len();
        let n_slack = rels.iter().filter(|r| !matches!(r, Relation::Eq)).count();
        let cols = n + n_slack;

        let mut a_cols: Vec<SVec> = vec![Vec::new(); cols];
        for (i, row) in srows.iter().enumerate() {
            for (j, v) in row {
                a_cols[*j].push((i, v.clone()));
            }
        }
        // Slack columns in row order, matching the cold layout so hints
        // from cold solutions point at the same columns.
        let mut next_slack = n;
        for (i, rel) in rels.iter().enumerate() {
            match rel {
                Relation::Le => {
                    a_cols[next_slack].push((i, Q::one()));
                    next_slack += 1;
                }
                Relation::Ge => {
                    a_cols[next_slack].push((i, -Q::one()));
                    next_slack += 1;
                }
                Relation::Eq => {}
            }
        }

        // --- Obtain a factorized starting basis. -------------------------
        // Either reuse the parent factorization (hinted basis columns
        // unchanged in this program) or crash the hint by one exact
        // elimination pass, completing with further columns and, for
        // genuinely redundant rows, virtual identity columns.
        let mut dead = vec![false; m];
        // Move (not clone) a valid cached state out: the field is
        // rebuilt on every successful solve anyway, and a failed solve
        // conservatively invalidates it (the basis hint survives).
        let reused = match cache.as_deref_mut() {
            Some(c) => {
                let valid = c.reuse.as_ref().is_some_and(|r| {
                    r.m == m
                        && r.cols == cols
                        && r.basis.iter().zip(&r.snapshot).all(|(&b, snap)| a_cols[b] == *snap)
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
        let (basis, in_basis, factor) = match reused {
            Some(r) => {
                let mut in_basis = vec![false; cols];
                for &b in &r.basis {
                    in_basis[b] = true;
                }
                prior_snapshot = Some((r.basis.clone(), r.snapshot));
                (r.basis, in_basis, r.factor)
            }
            None => {
                let mut factor = Factorization::identity(m);
                let mut basis = vec![VIRTUAL; m];
                let mut in_basis = vec![false; cols];
                let mut pivoted = vec![false; m];
                let mut left = m;
                let mut scratch = Vec::new();
                let mut wanted: Vec<usize> = hint.iter().copied().filter(|&c| c < cols).collect();
                wanted.sort_unstable();
                wanted.dedup();
                if wanted.len() != hint.len() {
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
                for c in wanted.into_iter().chain(0..cols) {
                    if left == 0 {
                        break;
                    }
                    if in_basis[c] {
                        continue;
                    }
                    if let Some(p) = factor.eliminate(&a_cols[c], &pivoted, &mut scratch) {
                        pivoted[p] = true;
                        basis[p] = c;
                        in_basis[c] = true;
                        left -= 1;
                    }
                }
                // Rows no real column can pivot: virtual identity
                // columns (the redundant/inconsistent rows a tableau
                // deletes or rejects).
                for p in 0..m {
                    if left == 0 {
                        break;
                    }
                    if pivoted[p] {
                        continue;
                    }
                    let unit: SVec = vec![(p, Q::one())];
                    if let Some(pp) = factor.eliminate(&unit, &pivoted, &mut scratch) {
                        pivoted[pp] = true;
                        dead[pp] = true;
                        left -= 1;
                    }
                }
                debug_assert_eq!(left, 0, "identity columns always complete a basis");
                (basis, in_basis, factor)
            }
        };

        let mut xb = rhs;
        factor.ftran_inplace(&mut xb);
        // A virtual-basic slot with a nonzero value is an inconsistent
        // zero row: Σ (zero coefficients)·x = b ≠ 0.
        for (i, is_dead) in dead.iter().enumerate() {
            if *is_dead && !xb[i].is_zero() {
                return Ok(LpSolution::failed(LpStatus::Infeasible, n));
            }
        }

        let mut core = Core {
            m,
            a_cols: &a_cols,
            basis,
            in_basis,
            xb,
            factor,
            refactor: Refactor::default(),
            stats: RevisedStats::default(),
            u: Vec::new(),
            price: PriceState::new(opts.pricing, cols),
        };

        // --- Dual-simplex repair of b ≥ 0 (zero objective: any basis is
        // dual-feasible; Bland selections are the classic anti-cycling
        // dual rule).
        let anticycle_cap = 64 * (m + cols) + 1024;
        let pivot_cap = match mode {
            WarmMode::Capped(o) => o.unwrap_or(anticycle_cap),
            WarmMode::Budget(l) => l.min(anticycle_cap),
        };
        let mut pivots = 0usize;
        while let Some(row) =
            (0..m).filter(|&i| core.xb[i].is_negative()).min_by_key(|&i| core.basis[i])
        {
            let rho = core.btran_unit(row);
            let enter = (0..cols)
                .filter(|&j| !core.in_basis[j])
                .find(|&j| core.transformed_entry(&rho, j).is_negative());
            let Some(enter) = enter else {
                // Σ (nonnegative coeffs)·x = b < 0 over x ≥ 0: infeasible.
                return Ok(LpSolution::failed(LpStatus::Infeasible, n));
            };
            core.ftran_col(enter);
            debug_assert!(core.u[row].is_negative());
            core.pivot(row, enter);
            pivots += 1;
            if pivots > pivot_cap {
                if let Some(c) = cache.as_deref_mut() {
                    c.absorb(&core.stats);
                }
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
        }

        // --- Primal phase for the real objective. ------------------------
        let mut cost = self.objective.clone();
        cost.resize(cols, Q::zero());
        let phase_cap = match mode {
            WarmMode::Capped(_) => None,
            WarmMode::Budget(l) => Some(l),
        };
        match core.run_phase_capped(&cost, &|_| true, phase_cap) {
            PhaseOutcome::Unbounded => {
                return Ok(LpSolution::failed(LpStatus::Unbounded, n));
            }
            PhaseOutcome::PivotLimit => {
                if let Some(c) = cache.as_deref_mut() {
                    c.absorb(&core.stats);
                }
                return Err(BudgetError::PivotCapExhausted { pivots: core.stats.pivots });
            }
            PhaseOutcome::Optimal => {}
        }

        let sol = self.extract_revised(&core, &dead);
        if let Some(c) = cache {
            c.absorb(&core.stats);
            c.reuse = if dead.iter().any(|&d| d) {
                // A basis with virtual columns is only valid against
                // this exact program; don't offer it for reuse.
                None
            } else {
                let snapshot: Vec<SVec> = match prior_snapshot {
                    Some((basis, snap)) if basis == core.basis => snap,
                    _ => core.basis.iter().map(|&b| core.a_cols[b].clone()).collect(),
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
        lp.add_constraint((dead..nv).map(|v| (v, q(1))).collect(), R::Le, q(5));
        lp
    }

    /// On a program whose attractive columns sit behind a long dead
    /// prefix, Bland's in-order scan re-prices the prefix every pivot
    /// while the candidate strategies pay for it once per refill — the
    /// counters must show strictly less pricing work, at the same
    /// optimal objective (the vertex may legitimately differ).
    #[test]
    fn partial_and_devex_price_fewer_columns() {
        let lp = dead_prefix_lp();
        let (bland, bland_stats) = lp.solve_with(SolveOptions::default());
        assert_eq!(bland.status, LpStatus::Optimal);
        assert!(bland_stats.columns_priced > 0);
        assert_eq!(bland_stats.candidate_refills, 0, "Bland never touches the candidate list");
        for pricing in [Pricing::PartialCandidate, Pricing::Devex] {
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
        let opts = SolveOptions { pricing: Pricing::Devex, ..SolveOptions::default() };
        let (direct, stats) = lp.solve_with(opts);
        assert!(stats.columns_priced > 0);
        let mut cache = WarmCache::with_options(opts);
        let cached = lp.solve_warm_cached(&mut cache);
        assert_eq!(cached.basis, direct.basis, "the cache must solve with its Devex pricing");
        assert_eq!(cache.columns_priced(), stats.columns_priced, "cold pricing work is counted");
        assert_eq!(cache.candidate_refills(), stats.candidate_refills);
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
