//! The online scheduler service: an event-driven loop that keeps a live
//! hierarchical schedule across epochs while machines fail and recover,
//! jobs arrive and depart, and the solver itself is being sabotaged.
//!
//! Each event opens an *epoch*. The service updates its job/machine
//! state, re-places only the jobs the event displaced (the paper's
//! online discipline — arrivals never move existing jobs; departures may
//! trigger a bounded rebalance), then runs a three-tier degradation
//! ladder to recompute the certified horizon reference `T*`:
//!
//! 1. **Warm** — the persistent [`lp::Solver::Hybrid`] warm cache under a
//!    per-probe pivot budget ([`lp::SolveBudget`]). Injected faults land
//!    here: poisoned warm hints and forced certification failures are
//!    absorbed by the solver's own counted fallbacks.
//! 2. **Cold** — on budget exhaustion, the exact revised simplex from a
//!    cold start (no reuse of the possibly-faulted cache state).
//! 3. **Degraded** — on a deadline overrun, no LP at all: the
//!    combinatorial lower bound `max(bottleneck, volume)` stands in for
//!    `T*` and the [`baselines`] greedy provides an upper-bound quality
//!    reference.
//!
//! Every tier yields the *same certified* `T*` whenever it completes a
//! certified solve (tiers 1 and 2 are exact; only tier 3 degrades to a
//! bound) — degradation changes latency and tightness, never
//! correctness.
//!
//! After every epoch the invariant layer re-derives the schedule with
//! Algorithms 2+3, validates it structurally, replays it on the
//! discrete-event simulator, and checks the paper's disruption ledger:
//! `≤ m_h − 1` split migrations and `≤ 2·m_h − 2` total disruptions per
//! epoch over the `m_h` healthy machines (asserted on semi-partitioned
//! shapes, recorded otherwise), plus the per-event reassignment bounds
//! (`≤ m_h − 1` on arrivals, `≤ 2·m_h − 2` on departures). Jobs that
//! cannot run on any healthy machine sit in a quarantine and are
//! readmitted on recovery.
//!
//! Two robustness layers wrap this loop:
//!
//! * **Durability** ([`journal`]) — a versioned, checksummed append-only
//!   event journal plus canonical checkpoints
//!   ([`Scheduler::checkpoint`] / [`Scheduler::restore`]). A crash at
//!   *any* byte offset recovers the longest valid journal prefix and
//!   replays the tail to a state bit-identical to the uninterrupted
//!   run. To make that possible the solver's warm state is scoped to a
//!   single epoch (reset at epoch start, counters folded per epoch):
//!   the `WarmCache` is rebuilt on restore, never serialized.
//! * **Hardened ingest** ([`ingest`]) — untrusted event streams are
//!   validated into typed [`IngestError`] rejections (counted per
//!   category in [`ServiceReport`]) with a reject-and-continue policy,
//!   so a poisoned stream degrades the service instead of panicking it.

use baselines::greedy::greedy_hierarchical;
use hsched_core::assignment::HorizonTracker;
use hsched_core::formulations::{build_ip3_fixed, VarMap};
use hsched_core::hier::{schedule_hierarchical, HierError};
use hsched_core::{Assignment, Instance, Schedule, ScheduleError};
use laminar::{topology, LaminarFamily, MachineSet};
use lp::{BudgetError, LpStatus, SolveBudget, Solver, WarmCache};
use numeric::Q;
use simulator::{simulate, SimError};

pub use workloads::online::{
    corrupt_stream, event_stream, Event, FaultPlan, JobSpec, SolverFault, StreamConfig,
};

pub mod ingest;
pub mod journal;

pub use ingest::{run_hardened, Ingest, IngestError};
pub use journal::{
    run_with_crashes, Checkpoint, CrashPlan, CrashPoint, DurableScheduler, JournalError,
    JournalWriter, RecoveryError, RecoveryInfo, RestoreError, SoakOutcome,
};

/// Why the service aborted an epoch. Every variant is an *invariant
/// violation* — graceful degradation (fallbacks, quarantine) never
/// errors; a `ServiceError` means the robustness contract itself broke.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// Algorithms 2+3 rejected the epoch's `(assignment, T)`.
    Hier(HierError),
    /// The epoch's schedule failed structural validation.
    Invalid(ScheduleError),
    /// The simulator replay disagreed with the schedule.
    Sim(SimError),
    /// The simulator's makespan exceeded the epoch horizon.
    MakespanExceedsHorizon { event: usize },
    /// Split migrations exceeded `m_h − 1` on a semi-partitioned epoch.
    SplitBound { event: usize, got: usize, bound: usize },
    /// Total disruptions exceeded `2·m_h − 2` on a semi-partitioned epoch.
    DisruptionBound { event: usize, got: usize, bound: usize },
    /// More jobs were reassigned than the per-event bound allows.
    MoveBound { event: usize, got: usize, bound: usize },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Hier(e) => write!(f, "epoch scheduler failed: {e}"),
            ServiceError::Invalid(e) => write!(f, "epoch schedule invalid: {e}"),
            ServiceError::Sim(e) => write!(f, "simulator replay failed: {e}"),
            ServiceError::MakespanExceedsHorizon { event } => {
                write!(f, "event #{event}: replayed makespan exceeds the epoch horizon")
            }
            ServiceError::SplitBound { event, got, bound } => {
                write!(f, "event #{event}: {got} split migrations > bound {bound} (m_h - 1)")
            }
            ServiceError::DisruptionBound { event, got, bound } => {
                write!(f, "event #{event}: {got} disruptions > bound {bound} (2 m_h - 2)")
            }
            ServiceError::MoveBound { event, got, bound } => {
                write!(f, "event #{event}: {got} reassignments > per-event bound {bound}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Which rung of the degradation ladder produced an epoch's `T*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Budgeted hybrid solve over the persistent warm cache.
    Warm,
    /// Cold exact revised simplex after a budget exhaustion.
    Cold,
    /// No LP (deadline overrun or total blackout): combinatorial bound
    /// plus the greedy baseline as quality reference.
    Degraded,
}

/// What one epoch did, for callers that drive [`Scheduler::apply`]
/// directly (the batch entry [`run`] folds these into the report).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochOutcome {
    /// Index of the event that opened the epoch.
    pub event_index: usize,
    /// Ladder rung that produced `t_star`.
    pub tier: Tier,
    /// Minimal integral horizon of the epoch's live assignment.
    pub t_epoch: u64,
    /// Certified (tiers 1–2) or combinatorial (tier 3) reference horizon.
    pub t_star: u64,
    /// Greedy-baseline horizon, recorded on degraded epochs only.
    pub t_greedy: Option<u64>,
    /// Existing jobs whose assigned set changed this epoch.
    pub moved: usize,
    /// Quarantine population after the epoch.
    pub quarantined_now: usize,
    /// `Σ_j (machines_used(j) − 1)` of the epoch schedule.
    pub split_migrations: usize,
    /// Migrations + preemptions of the epoch schedule.
    pub disruptions_total: usize,
}

/// Per-epoch wall-time percentiles over a service run. Pure
/// *measurement*: two reports that differ only here describe the same
/// run, so `LatencyStats` compares equal to everything and prints
/// opaquely — the golden tests pin report identity, not timing. Use the
/// accessors (or [`LatencyStats::render_ms`]) to read the numbers.
#[derive(Clone, Copy, Default)]
pub struct LatencyStats {
    /// Epochs measured.
    pub samples: usize,
    /// Median epoch wall time, microseconds (nearest-rank).
    pub p50_us: u64,
    /// 95th-percentile epoch wall time, microseconds (nearest-rank).
    pub p95_us: u64,
    /// Slowest epoch wall time, microseconds.
    pub max_us: u64,
}

impl LatencyStats {
    /// Nearest-rank percentiles of a set of per-epoch samples.
    pub fn from_samples_us(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut v = samples.to_vec();
        v.sort_unstable();
        let n = v.len();
        let rank = |p: usize| v[(p * n).div_ceil(100).max(1) - 1];
        LatencyStats { samples: n, p50_us: rank(50), p95_us: rank(95), max_us: v[n - 1] }
    }

    /// `"p50/p95/max"` in milliseconds, the harness-table cell.
    pub fn render_ms(&self) -> String {
        let ms = |us: u64| us as f64 / 1000.0;
        format!("{:.1}/{:.1}/{:.1}", ms(self.p50_us), ms(self.p95_us), ms(self.max_us))
    }
}

/// Timing carries no identity: reports that differ only in latency are
/// the same report (this is what lets crash-recovery equivalence assert
/// full [`ServiceReport`] equality).
impl PartialEq for LatencyStats {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for LatencyStats {}

/// Opaque on purpose: the derived [`ServiceReport`] `Debug` output is
/// pinned bit-for-bit by golden tests, and wall time would drift there.
impl std::fmt::Debug for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyStats(..)")
    }
}

/// Cumulative, thread-count-invariant counters for a service run. Every
/// field except the identity-free [`LatencyStats`] is integral and
/// deterministic for a fixed event stream + fault plan, so goldens can
/// pin the whole struct bit-for-bit. (The solver's pricing counters,
/// `columns_priced` among them, are not carried: adding a field would
/// change the checkpoint format and every pinned report.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Events processed.
    pub events: usize,
    /// Arrival events.
    pub arrivals: usize,
    /// Departure events.
    pub departures: usize,
    /// Machine-failure events.
    pub failures: usize,
    /// Machine-recovery events.
    pub recoveries: usize,
    /// Epochs resolved by the warm budgeted tier.
    pub epochs_tier1: usize,
    /// Epochs that fell back to the cold exact tier.
    pub epochs_tier2: usize,
    /// Epochs degraded to the LP-free tier.
    pub epochs_tier3: usize,
    /// Faults the plan injected.
    pub faults_injected: usize,
    /// Injected warm-hint poisonings.
    pub hint_poisons: usize,
    /// Injected forced certification failures.
    pub cert_faults: usize,
    /// Forced certification failures armed but not yet consumed by a
    /// solve when the run ended.
    pub cert_faults_pending: usize,
    /// Injected epoch-deadline overruns.
    pub deadline_faults: usize,
    /// Stale/poisoned-hint fallbacks counted by the warm cache.
    pub warm_fallbacks: usize,
    /// Hybrid float bases certified exactly.
    pub hybrid_certified: usize,
    /// Hybrid certification failures absorbed by the exact path.
    pub hybrid_fallbacks: usize,
    /// Warm-start factorization reuses.
    pub factor_reuses: usize,
    /// Tier-1 pivot/deadline budgets that tripped mid-epoch.
    pub budget_exhaustions: usize,
    /// Cumulative reassignments of existing jobs.
    pub reassignments: usize,
    /// Largest per-arrival reassignment count (paper bound: `m_h − 1`).
    pub max_arrival_moves: usize,
    /// Largest per-departure reassignment count (bound: `2 m_h − 2`).
    pub max_departure_moves: usize,
    /// Largest per-epoch split-migration count.
    pub max_split_migrations: usize,
    /// Largest per-epoch total disruption count.
    pub max_disruption_total: usize,
    /// Jobs that entered the capacity quarantine (with multiplicity).
    pub quarantine_entries: usize,
    /// Quarantined jobs readmitted after a recovery.
    pub readmissions: usize,
    /// Largest quarantine population observed.
    pub quarantine_peak: usize,
    /// Live scheduled jobs when the run ended.
    pub final_active: usize,
    /// Quarantined jobs when the run ended.
    pub final_quarantined: usize,
    /// Untrusted events rejected by the hardened ingest path (total;
    /// rejected events open no epoch and mutate no state).
    pub rejected_events: usize,
    /// Rejected: arrival reusing a live (active or quarantined) job id.
    pub rejected_duplicate_id: usize,
    /// Rejected: departure of a job id the service does not know.
    pub rejected_unknown_job: usize,
    /// Rejected: arrival with a zero base demand.
    pub rejected_zero_size: usize,
    /// Rejected: arrival pinned outside the machine range.
    pub rejected_bad_pin: usize,
    /// Rejected: failure/recovery naming a set outside the family.
    pub rejected_unknown_set: usize,
    /// Rejected: failure of a not-fully-healthy subtree or recovery of a
    /// subtree that is not down (coherence-order violations).
    pub rejected_incoherent: usize,
    /// Per-epoch wall-time percentiles (measurement only — compares
    /// equal to everything and prints opaquely; see [`LatencyStats`]).
    pub latency: LatencyStats,
}

/// Static configuration of a [`Scheduler`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The machine topology (a laminar family over `m` machines).
    pub family: LaminarFamily,
    /// Migration-overhead numerator: a job with base demand `b` on a set
    /// of `s` machines costs `b + ⌈b·ovh_num·(s−1) / (ovh_den·m)⌉`.
    pub ovh_num: u64,
    /// Migration-overhead denominator.
    pub ovh_den: u64,
    /// Per-probe pivot budget for the warm tier; `None` = unbudgeted
    /// (tier 1 then never exhausts).
    pub budget: Option<usize>,
    /// Rebalance after departures when `t_epoch > 2·t_star`, moving at
    /// most `m_h − 1` jobs (strict improvements only).
    pub rebalance: bool,
}

impl ServiceConfig {
    /// The paper's semi-partitioned topology with the default overhead
    /// model (`1/4` per extra machine, normalized by `m`), a 4096-pivot
    /// probe budget, and rebalancing on.
    pub fn semi_partitioned(m: usize) -> Self {
        ServiceConfig {
            family: topology::semi_partitioned(m),
            ovh_num: 1,
            ovh_den: 4,
            budget: Some(4096),
            rebalance: true,
        }
    }
}

/// Snapshot of the cache counters already folded into the report, so
/// each epoch contributes exactly its own delta (see
/// [`Scheduler::sync_cache_counters`]).
#[derive(Clone, Copy, Default)]
struct CacheCounters {
    warm_fallbacks: usize,
    hybrid_certified: usize,
    hybrid_fallbacks: usize,
    factor_reuses: usize,
}

/// The event-driven online scheduler.
pub struct Scheduler {
    pub(crate) cfg: ServiceConfig,
    /// Live scheduled jobs in stable (arrival) order.
    pub(crate) active: Vec<JobSpec>,
    /// Assigned *original* family set index, parallel to `active`.
    pub(crate) masks: Vec<usize>,
    /// Jobs with no healthy machine to run on.
    pub(crate) quarantined: Vec<JobSpec>,
    /// Original set indices of currently-failed subtrees.
    pub(crate) failed: Vec<usize>,
    pub(crate) healthy: MachineSet,
    /// Tier-1 hybrid warm cache (the fault-injection target). Its warm
    /// state is *epoch-local*: [`Scheduler::apply`] resets it at epoch
    /// start so that every epoch's solver behaviour — and counter
    /// delta — is a pure function of that epoch alone, which is what
    /// makes checkpoint/restore replay bit-equivalent without ever
    /// serializing a basis.
    pub(crate) cache: WarmCache,
    /// Durable counters: cache deltas are folded in at each epoch end,
    /// so this struct alone (plus the pending-fault count) survives a
    /// checkpoint round-trip.
    pub(crate) report: ServiceReport,
    pub(crate) events_seen: usize,
    /// Cache counter totals already folded into `report`.
    folded: CacheCounters,
    /// Per-epoch wall times, microseconds (measurement only — not part
    /// of checkpoints; a restored service starts a fresh series).
    epoch_latencies_us: Vec<u64>,
}

impl Scheduler {
    /// A fresh service over `cfg.family` with all machines healthy.
    pub fn new(cfg: ServiceConfig) -> Self {
        assert!(cfg.ovh_den > 0, "overhead denominator must be positive");
        let m = cfg.family.num_machines();
        let cache = WarmCache::with_options(Solver::Hybrid.into());
        Scheduler {
            cfg,
            active: Vec::new(),
            masks: Vec::new(),
            quarantined: Vec::new(),
            failed: Vec::new(),
            healthy: MachineSet::full(m),
            cache,
            report: ServiceReport::default(),
            events_seen: 0,
            folded: CacheCounters::default(),
            epoch_latencies_us: Vec::new(),
        }
    }

    /// The static configuration this service was built over.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Events applied so far (rejected events are not counted: they
    /// open no epoch).
    pub fn events_applied(&self) -> usize {
        self.events_seen
    }

    /// Fold the cache counters' growth since the last sync into the
    /// durable report. With the warm state reset at every epoch start,
    /// each delta is a pure function of its epoch, so the folded report
    /// is bit-identical across checkpoint/restore/replay.
    fn sync_cache_counters(&mut self) {
        let now = CacheCounters {
            warm_fallbacks: self.cache.warm_fallbacks(),
            hybrid_certified: self.cache.hybrid_certified(),
            hybrid_fallbacks: self.cache.hybrid_fallbacks(),
            factor_reuses: self.cache.factor_reuses(),
        };
        self.report.warm_fallbacks += now.warm_fallbacks - self.folded.warm_fallbacks;
        self.report.hybrid_certified += now.hybrid_certified - self.folded.hybrid_certified;
        self.report.hybrid_fallbacks += now.hybrid_fallbacks - self.folded.hybrid_fallbacks;
        self.report.factor_reuses += now.factor_reuses - self.folded.factor_reuses;
        self.folded = now;
    }

    /// Processing time of `spec` on original set `a`, under the
    /// migration-overhead model (pinned jobs run only on their machine's
    /// singleton — ∞ on supersets is monotone).
    fn ptime(&self, spec: &JobSpec, a: usize) -> Option<u64> {
        let set = self.cfg.family.set(a);
        match spec.pinned {
            Some(i) => (set.len() == 1 && set.contains(i)).then_some(spec.base),
            None => {
                let m = self.cfg.family.num_machines() as u64;
                let extra = spec.base * self.cfg.ovh_num * (set.len() as u64 - 1);
                Some(spec.base + extra.div_ceil(self.cfg.ovh_den * m))
            }
        }
    }

    /// Currently healthy machines.
    pub fn healthy(&self) -> &MachineSet {
        &self.healthy
    }

    /// Live scheduled jobs.
    pub fn active_jobs(&self) -> &[JobSpec] {
        &self.active
    }

    /// Quarantined (currently unschedulable) jobs.
    pub fn quarantined_jobs(&self) -> &[JobSpec] {
        &self.quarantined
    }

    /// The report so far. Solver counters are folded in per epoch (see
    /// [`Scheduler::sync_cache_counters`]); only the derived final-state
    /// fields and the identity-free latency view are computed here.
    pub fn report(&self) -> ServiceReport {
        let mut r = self.report.clone();
        r.cert_faults_pending = self.cache.pending_forced_cert_failures();
        r.final_active = self.active.len();
        r.final_quarantined = self.quarantined.len();
        r.latency = LatencyStats::from_samples_us(&self.epoch_latencies_us);
        r
    }

    /// The hybrid certification fallbacks of every epoch this object ran,
    /// by reason; they sum to the [`ServiceReport::hybrid_fallbacks`]
    /// those epochs added. Diagnostics only: neither the report nor a
    /// checkpoint carries the split, so a restored service counts from
    /// zero.
    pub fn fallback_reasons(&self) -> lp::FallbackReasons {
        self.cache.fallback_reasons()
    }

    fn quarantine(&mut self, spec: JobSpec) {
        self.quarantined.push(spec);
        self.report.quarantine_entries += 1;
        self.report.quarantine_peak = self.report.quarantine_peak.max(self.quarantined.len());
    }

    /// Smallest `t ∈ [lb, ub]` whose (IP-3) relaxation is feasible,
    /// probing through the persistent warm cache under the per-probe
    /// budget. `ub` must be feasible (the epoch's integral assignment is
    /// the witness).
    fn tstar_warm(
        &mut self,
        instance: &Instance,
        vm: &VarMap,
        lb: u64,
        ub: u64,
    ) -> Result<u64, BudgetError> {
        let budget = SolveBudget { max_pivots: self.cfg.budget, deadline: None };
        let (mut lo, mut hi) = (lb, ub);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let lp = build_ip3_fixed(instance, vm, mid);
            let sol = lp.solve_budgeted(&mut self.cache, &budget)?;
            if sol.status == LpStatus::Optimal {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(hi)
    }

    /// The same search from a cold start: one cold exact revised solve
    /// per probe, no state shared with the (possibly faulted) warm cache.
    fn tstar_cold(&self, instance: &Instance, vm: &VarMap, lb: u64, ub: u64) -> u64 {
        let (mut lo, mut hi) = (lb, ub);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if build_ip3_fixed(instance, vm, mid).solve().status == LpStatus::Optimal {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        hi
    }

    /// Process one event (with an optionally injected solver fault) and
    /// run the epoch: state update, bounded re-placement, degradation
    /// ladder, schedule + validation + replay, disruption ledger.
    ///
    /// This is the *trusted* entry: the event is assumed well-formed
    /// (stream-unique ids, coherent failures) as produced by
    /// [`event_stream`]. Untrusted streams go through
    /// [`Scheduler::ingest`], which validates first.
    ///
    /// The solver cache's warm state is reset at entry, making every
    /// epoch's solver behaviour self-contained — the durability layer's
    /// replay equivalence depends on this.
    pub fn apply(
        &mut self,
        event: &Event,
        fault: Option<SolverFault>,
    ) -> Result<EpochOutcome, ServiceError> {
        let epoch_t0 = std::time::Instant::now();
        self.cache.reset_warm_state();
        let out = self.apply_inner(event, fault);
        self.sync_cache_counters();
        if out.is_ok() {
            self.epoch_latencies_us.push(epoch_t0.elapsed().as_micros() as u64);
        }
        out
    }

    fn apply_inner(
        &mut self,
        event: &Event,
        fault: Option<SolverFault>,
    ) -> Result<EpochOutcome, ServiceError> {
        let event_index = self.events_seen;
        self.events_seen += 1;
        self.report.events += 1;

        // --- Fault injection (before any solving this epoch). --------
        let mut deadline_overrun = false;
        if let Some(f) = fault {
            self.report.faults_injected += 1;
            match f {
                SolverFault::PoisonWarmHint => {
                    self.cache.poison_hint();
                    self.report.hint_poisons += 1;
                }
                SolverFault::ForceCertFailure => {
                    self.cache.force_certification_failures(1);
                    self.report.cert_faults += 1;
                }
                SolverFault::DeadlineOverrun => {
                    deadline_overrun = true;
                    self.report.deadline_faults += 1;
                }
            }
        }

        // --- State update + jobs needing (re)placement. ---------------
        let mut to_place: Vec<JobSpec> = Vec::new();
        let mut is_arrival = false;
        let mut is_departure = false;
        match *event {
            Event::Arrive(spec) => {
                self.report.arrivals += 1;
                is_arrival = true;
                to_place.push(spec);
            }
            Event::Depart(id) => {
                self.report.departures += 1;
                is_departure = true;
                if let Some(pos) = self.active.iter().position(|s| s.id == id) {
                    self.active.remove(pos);
                    self.masks.remove(pos);
                } else if let Some(pos) = self.quarantined.iter().position(|s| s.id == id) {
                    self.quarantined.remove(pos);
                }
            }
            Event::MachineFail(a) => {
                self.report.failures += 1;
                self.healthy = self.healthy.difference(self.cfg.family.set(a));
                self.failed.push(a);
            }
            Event::MachineRecover(a) => {
                self.report.recoveries += 1;
                if let Some(pos) = self.failed.iter().position(|&x| x == a) {
                    self.failed.remove(pos);
                }
                self.healthy = self.healthy.union(self.cfg.family.set(a));
                // Readmission: quarantined jobs that can run again go
                // back through placement like fresh arrivals.
                let healthy = self.healthy.clone();
                let drained: Vec<JobSpec> = std::mem::take(&mut self.quarantined);
                for spec in drained {
                    let runnable = match spec.pinned {
                        Some(i) => healthy.contains(i),
                        None => true,
                    };
                    if runnable {
                        self.report.readmissions += 1;
                        to_place.push(spec);
                    } else {
                        self.quarantined.push(spec);
                    }
                }
            }
        }

        // --- Build the epoch instance over the healthy machines. ------
        // Candidates: kept jobs (stable order, with their old masks)
        // then the jobs to place.
        let specs: Vec<JobSpec> =
            self.active.iter().copied().chain(to_place.iter().copied()).collect();
        let old_masks: Vec<Option<usize>> =
            self.masks.iter().map(|&a| Some(a)).chain(to_place.iter().map(|_| None)).collect();

        // Jobs with no admissible set even on the full topology (e.g.
        // pinned to a machine whose singleton the family lacks) go
        // straight to quarantine.
        let mut schedulable: Vec<(JobSpec, Option<usize>)> = Vec::new();
        for (spec, old) in specs.iter().zip(&old_masks) {
            if (0..self.cfg.family.len()).any(|a| self.ptime(spec, a).is_some()) {
                schedulable.push((*spec, *old));
            } else {
                self.quarantine(*spec);
            }
        }

        let family = self.cfg.family.clone();
        let orig =
            Instance::from_fn(family, schedulable.len(), |j, a| self.ptime(&schedulable[j].0, a))
                .expect("schedulable candidates each have an admissible set");

        let Some(r) = orig.restrict_to(&self.healthy) else {
            // Total blackout: no admissible set survives. Everything
            // quarantines; the epoch degrades to an empty schedule.
            for (spec, old) in schedulable {
                if old.is_some() {
                    self.report.reassignments += 0; // quarantine ≠ reassignment
                }
                self.quarantine(spec);
            }
            self.active.clear();
            self.masks.clear();
            self.report.epochs_tier3 += 1;
            return Ok(EpochOutcome {
                event_index,
                tier: Tier::Degraded,
                t_epoch: 0,
                t_star: 0,
                t_greedy: None,
                moved: 0,
                quarantined_now: self.quarantined.len(),
                split_migrations: 0,
                disruptions_total: 0,
            });
        };

        // Orphans of the restriction (finite only on failed machinery)
        // join the quarantine; survivors carry over in restricted-row
        // order.
        let mut r_specs: Vec<JobSpec> = Vec::new();
        let mut r_old: Vec<Option<usize>> = Vec::new();
        for (j, (spec, old)) in schedulable.iter().enumerate() {
            match r.job_map[j] {
                Some(rj) => {
                    debug_assert_eq!(rj, r_specs.len());
                    r_specs.push(*spec);
                    r_old.push(*old);
                }
                None => self.quarantine(*spec),
            }
        }

        // --- Bounded re-placement over the restricted instance. -------
        let fam_r = r.instance.family();
        let m_h = fam_r.covered_machines().len();
        let mut rmask: Vec<Option<usize>> = vec![None; r_specs.len()];
        let mut displaced: Vec<usize> = Vec::new();
        for (rj, old) in r_old.iter().enumerate() {
            match old.and_then(|a| r.set_map[a]) {
                // A kept mask survives when its healthy intersection is
                // nonempty and still admits the job.
                Some(k) if r.instance.ptime(rj, k).is_some() => rmask[rj] = Some(k),
                _ => displaced.push(rj),
            }
        }
        let mut tracker = HorizonTracker::new(&r.instance);
        for (rj, k) in rmask.iter().enumerate() {
            if let Some(k) = *k {
                tracker.commit(rj, k);
            }
        }
        let mut moved = 0usize;
        for &rj in &displaced {
            let best =
                tracker.best_set(rj).expect("surviving jobs have an admissible restricted set");
            rmask[rj] = Some(best);
            tracker.commit(rj, best);
            if r_old[rj].is_some() {
                moved += 1;
            }
        }
        let mut rmask: Vec<usize> =
            rmask.into_iter().map(|k| k.expect("every survivor placed")).collect();

        let horizon = |mask: &[usize]| -> u64 {
            Assignment::new(mask.to_vec())
                .minimal_integral_horizon(&r.instance)
                .expect("all assigned sets are admissible")
        };
        let mut t_epoch = horizon(&rmask);

        // --- Degradation ladder for the reference horizon T*. ---------
        let lb = r.instance.bottleneck_lower_bound().max(r.instance.volume_lower_bound());
        let vm = VarMap::finite(&r.instance);
        let (tier, t_star, t_greedy) = if deadline_overrun {
            // Exercise the real deadline path once — an already-expired
            // deadline must fail fast at the solve entry — then skip
            // every LP probe of this epoch.
            let expired = SolveBudget {
                max_pivots: self.cfg.budget,
                deadline: Some(std::time::Instant::now()),
            };
            if !r_specs.is_empty() {
                let lp = build_ip3_fixed(&r.instance, &vm, t_epoch);
                let res = lp.solve_budgeted(&mut self.cache, &expired);
                debug_assert!(matches!(res, Err(BudgetError::DeadlineExpired)));
                if res.is_err() {
                    self.report.budget_exhaustions += 1;
                }
            }
            let greedy = if r_specs.is_empty() { 0 } else { greedy_hierarchical(&r.instance).t };
            (Tier::Degraded, lb.min(t_epoch), Some(greedy))
        } else if r_specs.is_empty() {
            (Tier::Warm, 0, None)
        } else {
            match self.tstar_warm(&r.instance, &vm, lb.min(t_epoch), t_epoch) {
                Ok(t) => (Tier::Warm, t, None),
                Err(_) => {
                    self.report.budget_exhaustions += 1;
                    (Tier::Cold, self.tstar_cold(&r.instance, &vm, lb.min(t_epoch), t_epoch), None)
                }
            }
        };
        match tier {
            Tier::Warm => self.report.epochs_tier1 += 1,
            Tier::Cold => self.report.epochs_tier2 += 1,
            Tier::Degraded => self.report.epochs_tier3 += 1,
        }

        // --- Bounded rebalance after departures. ----------------------
        if is_departure && self.cfg.rebalance && !r_specs.is_empty() {
            let cap = m_h.saturating_sub(1);
            let mut moves = 0usize;
            while moves < cap && t_epoch > 2 * t_star {
                let mut best: Option<(u64, usize, usize)> = None;
                for rj in 0..rmask.len() {
                    let cur = rmask[rj];
                    for a in 0..fam_r.len() {
                        if a == cur || r.instance.ptime(rj, a).is_none() {
                            continue;
                        }
                        let mut cand = rmask.clone();
                        cand[rj] = a;
                        let t = horizon(&cand);
                        if t < t_epoch && best.is_none_or(|(bt, bj, ba)| (t, rj, a) < (bt, bj, ba))
                        {
                            best = Some((t, rj, a));
                        }
                    }
                }
                let Some((t, rj, a)) = best else { break };
                rmask[rj] = a;
                t_epoch = t;
                moves += 1;
            }
            moved += moves;
        }

        // --- Per-event reassignment bounds (the paper's online story:
        // arrivals move no existing job beyond m_h − 1, departures stay
        // within 2 m_h − 2; failures/recoveries are recorded only). ----
        self.report.reassignments += moved;
        if is_arrival {
            self.report.max_arrival_moves = self.report.max_arrival_moves.max(moved);
            let bound = m_h.saturating_sub(1);
            if moved > bound {
                return Err(ServiceError::MoveBound { event: event_index, got: moved, bound });
            }
        }
        if is_departure {
            self.report.max_departure_moves = self.report.max_departure_moves.max(moved);
            let bound = (2 * m_h).saturating_sub(2);
            if moved > bound {
                return Err(ServiceError::MoveBound { event: event_index, got: moved, bound });
            }
        }

        // --- Schedule, validate, replay, ledger. ----------------------
        let assignment = Assignment::new(rmask.clone());
        let t_q = Q::from(t_epoch);
        let schedule: Schedule =
            schedule_hierarchical(&r.instance, &assignment, &t_q).map_err(ServiceError::Hier)?;
        schedule.validate(&r.instance, &assignment, &t_q).map_err(ServiceError::Invalid)?;
        let replay = simulate(&schedule, r.instance.num_machines()).map_err(ServiceError::Sim)?;
        if replay.makespan > t_q {
            return Err(ServiceError::MakespanExceedsHorizon { event: event_index });
        }

        let split = schedule.split_migrations();
        let total = schedule.disruptions().total();
        self.report.max_split_migrations = self.report.max_split_migrations.max(split);
        self.report.max_disruption_total = self.report.max_disruption_total.max(total);
        if fam_r.max_level() <= 2 {
            // Proposition III.2 applies to the (restricted) semi-
            // partitioned shape; deeper hierarchies are recorded only.
            let split_bound = m_h.saturating_sub(1);
            if split > split_bound {
                return Err(ServiceError::SplitBound {
                    event: event_index,
                    got: split,
                    bound: split_bound,
                });
            }
            let total_bound = (2 * m_h).saturating_sub(2);
            if total > total_bound {
                return Err(ServiceError::DisruptionBound {
                    event: event_index,
                    got: total,
                    bound: total_bound,
                });
            }
        }

        // --- Commit epoch state (masks back in original indices). -----
        self.active = r_specs;
        self.masks = rmask.into_iter().map(|k| r.origin[k]).collect();

        Ok(EpochOutcome {
            event_index,
            tier,
            t_epoch,
            t_star,
            t_greedy,
            moved,
            quarantined_now: self.quarantined.len(),
            split_migrations: split,
            disruptions_total: total,
        })
    }
}

/// Drive a whole event stream through a fresh [`Scheduler`], injecting
/// faults per `plan`, and return the final report. Any `Err` is an
/// invariant violation — graceful degradation never errors.
pub fn run(
    cfg: ServiceConfig,
    events: &[Event],
    plan: &FaultPlan,
) -> Result<ServiceReport, ServiceError> {
    let mut s = Scheduler::new(cfg);
    for (i, ev) in events.iter().enumerate() {
        s.apply(ev, plan.fault_at(i))?;
    }
    Ok(s.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, base: u64) -> JobSpec {
        JobSpec { id, base, pinned: None }
    }

    fn pinned(id: u64, base: u64, machine: usize) -> JobSpec {
        JobSpec { id, base, pinned: Some(machine) }
    }

    #[test]
    fn arrivals_never_move_existing_jobs() {
        let mut s = Scheduler::new(ServiceConfig::semi_partitioned(3));
        for id in 0..8 {
            let o = s.apply(&Event::Arrive(spec(id, 3 + id % 4)), None).unwrap();
            assert_eq!(o.moved, 0, "arrivals place only the newcomer");
            assert_eq!(o.tier, Tier::Warm);
            assert!(o.t_star <= o.t_epoch);
        }
        assert_eq!(s.report().arrivals, 8);
        assert_eq!(s.report().reassignments, 0);
    }

    #[test]
    fn failure_displaces_and_recovery_readmits_pinned_jobs() {
        let mut s = Scheduler::new(ServiceConfig::semi_partitioned(3));
        s.apply(&Event::Arrive(pinned(0, 4, 1)), None).unwrap();
        s.apply(&Event::Arrive(spec(1, 5)), None).unwrap();
        // semi_partitioned(3): set index 2 is the singleton {1}.
        let o = s.apply(&Event::MachineFail(2), None).unwrap();
        assert_eq!(o.quarantined_now, 1, "pinned job has nowhere to run");
        assert_eq!(s.active_jobs().len(), 1);
        assert!(!s.healthy().contains(1));
        let o = s.apply(&Event::MachineRecover(2), None).unwrap();
        assert_eq!(o.quarantined_now, 0, "recovery readmits the pinned job");
        let r = s.report();
        assert_eq!((r.quarantine_entries, r.readmissions, r.quarantine_peak), (1, 1, 1));
        assert_eq!(r.final_active, 2);
    }

    #[test]
    fn blackout_quarantines_everything_and_service_survives() {
        let mut s = Scheduler::new(ServiceConfig::semi_partitioned(2));
        s.apply(&Event::Arrive(spec(0, 3)), None).unwrap();
        s.apply(&Event::Arrive(spec(1, 4)), None).unwrap();
        // Fail both singletons: {0} is set 1, {1} is set 2. The root
        // {0,1} fails with the second singleton's machines gone.
        s.apply(&Event::MachineFail(1), None).unwrap();
        let o = s.apply(&Event::MachineFail(2), None).unwrap();
        assert_eq!(o.tier, Tier::Degraded);
        assert_eq!(o.quarantined_now, 2);
        assert_eq!(o.t_epoch, 0);
        // Another arrival during the blackout is quarantined too.
        let o = s.apply(&Event::Arrive(spec(2, 2)), None).unwrap();
        assert_eq!(o.quarantined_now, 3);
        // Full recovery readmits everyone.
        s.apply(&Event::MachineRecover(1), None).unwrap();
        let o = s.apply(&Event::MachineRecover(2), None).unwrap();
        assert_eq!(o.quarantined_now, 0);
        assert_eq!(s.report().final_active, 3);
    }

    #[test]
    fn deadline_overrun_degrades_with_greedy_reference() {
        let mut s = Scheduler::new(ServiceConfig::semi_partitioned(3));
        s.apply(&Event::Arrive(spec(0, 6)), None).unwrap();
        let o = s.apply(&Event::Arrive(spec(1, 6)), Some(SolverFault::DeadlineOverrun)).unwrap();
        assert_eq!(o.tier, Tier::Degraded);
        let greedy = o.t_greedy.expect("degraded epochs carry the greedy reference");
        assert!(o.t_star <= o.t_epoch, "the combinatorial bound never exceeds the horizon");
        assert!(greedy >= 1, "greedy produced a real horizon as the quality reference");
        let r = s.report();
        assert_eq!(r.deadline_faults, 1);
        assert_eq!(r.epochs_tier3, 1);
        assert_eq!(r.budget_exhaustions, 1, "the expired deadline tripped at solve entry");
    }

    #[test]
    fn zero_budget_falls_back_cold_with_identical_t_star() {
        let mk = |budget| {
            let mut cfg = ServiceConfig::semi_partitioned(3);
            cfg.budget = budget;
            Scheduler::new(cfg)
        };
        let mut warm = mk(None);
        let mut broke = mk(Some(0));
        for id in 0..6 {
            let ev = Event::Arrive(spec(id, 2 + id));
            let a = warm.apply(&ev, None).unwrap();
            let b = broke.apply(&ev, None).unwrap();
            assert_eq!(a.t_star, b.t_star, "ladder rungs certify the same T*");
            assert_eq!(a.t_epoch, b.t_epoch);
            assert_eq!(a.tier, Tier::Warm);
            // The fresh cache's first cold solve is uncapped and epochs
            // with lb == ub probe nothing, so not every epoch trips the
            // zero budget — but any epoch that needs a warm pivot must.
            assert_ne!(b.tier, Tier::Degraded);
        }
        let r = broke.report();
        assert!(r.budget_exhaustions >= 1, "a zero pivot budget trips at least once");
        assert_eq!(r.epochs_tier2, r.budget_exhaustions);
        assert_eq!(r.epochs_tier1 + r.epochs_tier2, 6);
    }
}
