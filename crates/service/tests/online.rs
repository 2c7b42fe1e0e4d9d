//! Fault-injection and invariant tests for the online scheduler
//! service (the ISSUE acceptance suite).
//!
//! The headline test drives a seeded 120-event stream with ≥ 3 machine
//! failures and a 25% fault plan through the full service and asserts
//! zero invariant violations: every epoch validated, replayed on the
//! simulator, stayed within the paper's per-event disruption bounds,
//! and every injected solver fault was absorbed by a counted fallback.

use proptest::prelude::*;
use service::{
    event_stream, run, Event, FaultPlan, ServiceConfig, SolverFault, StreamConfig, Tier,
};
use workloads::rng;

/// The reserved fault-heavy acceptance configuration: 120 events over
/// `semi_partitioned(5)`, stream seed 7 (verified to contain ≥ 3
/// machine failures), fault-plan seed 11 at 25%.
fn acceptance_stream() -> Vec<Event> {
    let family = laminar::topology::semi_partitioned(5);
    let cfg = StreamConfig {
        events: 120,
        arrive_pct: 45,
        depart_pct: 25,
        fail_pct: 20,
        ..StreamConfig::default()
    };
    event_stream(&family, &cfg, &mut rng(7))
}

#[test]
fn acceptance_fault_heavy_run_has_zero_invariant_violations() {
    let events = acceptance_stream();
    assert!(events.len() >= 100, "acceptance needs ≥ 100 events");
    let failures = events.iter().filter(|e| matches!(e, Event::MachineFail(_))).count();
    assert!(failures >= 3, "acceptance needs ≥ 3 machine failures, got {failures}");

    let plan = FaultPlan::seeded(events.len(), 25, &mut rng(11));
    assert!(plan.injected() > 0, "the plan must inject solver faults");

    // Any Err is an invariant violation: apply() validates the epoch
    // schedule, replays it on the simulator, and enforces the paper's
    // per-event disruption bounds before returning Ok.
    let report = run(ServiceConfig::semi_partitioned(5), &events, &plan)
        .expect("zero invariant violations across the fault-heavy run");

    assert_eq!(report.events, 120);
    assert_eq!(report.failures, failures);
    assert_eq!(report.faults_injected, plan.injected());
    // Every injected fault is visible in a counter.
    assert_eq!(
        report.hint_poisons + report.cert_faults + report.deadline_faults,
        report.faults_injected
    );
    // Every deadline overrun degraded (tier 3 also absorbs blackouts).
    assert!(report.epochs_tier3 >= report.deadline_faults);
    // Every *consumed* forced certification failure was absorbed by a
    // counted hybrid fallback — no silent wrong answer — and on this
    // stream every fallback is an injected one: each natural probe
    // certifies.
    assert_eq!(report.hybrid_fallbacks, report.cert_faults - report.cert_faults_pending);
    // Every epoch landed on exactly one ladder rung.
    assert_eq!(report.epochs_tier1 + report.epochs_tier2 + report.epochs_tier3, report.events);
    // The paper's per-event bounds held throughout (m_h ≤ 5).
    assert!(report.max_arrival_moves <= 4, "arrival moves ≤ m - 1");
    assert!(report.max_departure_moves <= 8, "departure moves ≤ 2m - 2");
    assert!(report.max_split_migrations <= 4, "split migrations ≤ m - 1");
    assert!(report.max_disruption_total <= 8, "disruptions ≤ 2m - 2");
}

/// The degradation ladder never changes a *certified* result: disabling
/// the pivot budget (tier 1 always) and forcing a zero budget (tier 2
/// whenever a warm pivot is needed) certify identical horizons on the
/// acceptance stream, fault-free.
#[test]
fn ladder_rungs_certify_identical_horizons() {
    let events = acceptance_stream();
    let mut unbudgeted = ServiceConfig::semi_partitioned(5);
    unbudgeted.budget = None;
    let mut zero = ServiceConfig::semi_partitioned(5);
    zero.budget = Some(0);

    let mut a = service::Scheduler::new(unbudgeted);
    let mut b = service::Scheduler::new(zero);
    for ev in &events {
        let oa = a.apply(ev, None).expect("unbudgeted epoch");
        let ob = b.apply(ev, None).expect("zero-budget epoch");
        assert_eq!(oa.t_star, ob.t_star, "certified T* is tier-invariant");
        assert_eq!(oa.t_epoch, ob.t_epoch);
        assert_eq!(oa.moved, ob.moved);
        assert_ne!(oa.tier, Tier::Degraded);
        assert_ne!(ob.tier, Tier::Degraded);
    }
    assert_eq!(a.report().reassignments, b.report().reassignments);
}

/// Poisoned hints and forced certification failures are pure solver
/// sabotage: the epochs' outcomes (tiers, horizons, moves) are
/// bit-identical to the fault-free run — only the fallback counters
/// differ.
#[test]
fn poison_and_cert_faults_never_change_epoch_outcomes() {
    let events = acceptance_stream();
    let sabotage: Vec<Option<SolverFault>> = (0..events.len())
        .map(|i| match i % 3 {
            0 => Some(SolverFault::PoisonWarmHint),
            1 => Some(SolverFault::ForceCertFailure),
            _ => None,
        })
        .collect();
    let plan = FaultPlan::from_faults(sabotage);

    let mut clean = service::Scheduler::new(ServiceConfig::semi_partitioned(5));
    let mut faulted = service::Scheduler::new(ServiceConfig::semi_partitioned(5));
    for (i, ev) in events.iter().enumerate() {
        let oc = clean.apply(ev, None).expect("clean epoch");
        let of = faulted.apply(ev, plan.fault_at(i)).expect("faulted epoch");
        assert_eq!(oc, of, "solver sabotage must not leak into epoch outcomes");
    }
    let (rc, rf) = (clean.report(), faulted.report());
    assert_eq!(rc.reassignments, rf.reassignments);
    assert_eq!(rc.quarantine_entries, rf.quarantine_entries);
    assert!(rf.hint_poisons > 0 && rf.cert_faults > 0);
    assert!(
        rf.warm_fallbacks >= rc.warm_fallbacks,
        "poisoned hints surface as counted warm fallbacks"
    );
    assert!(
        rf.hybrid_fallbacks >= rc.hybrid_fallbacks,
        "forced cert failures surface as counted hybrid fallbacks"
    );
}

/// Fixed-seed golden for one fault-heavy run: the full thread-invariant
/// report is pinned bit-for-bit. If this changes, the stream generator,
/// fault plan, placement, ladder, or ledger changed behaviour — bump
/// deliberately, never silently.
///
/// Last bump: `hybrid_certified` 240 → 387 and `hybrid_fallbacks`
/// 154 → 7, when the hybrid certifier began checking a phase-1
/// infeasibility claim on the float's own final basis and retrying a
/// warm float give-up cold. Every probe now certifies; the 7 fallbacks
/// left are the plan's 7 injected certification faults. No other field
/// moved.
#[test]
fn golden_fault_heavy_report_is_pinned() {
    let events = acceptance_stream();
    let plan = FaultPlan::seeded(events.len(), 25, &mut rng(11));
    let report = run(ServiceConfig::semi_partitioned(5), &events, &plan).expect("golden run");
    let got = format!("{report:?}");
    let want = "ServiceReport { events: 120, arrivals: 56, departures: 29, failures: 18, \
                recoveries: 17, epochs_tier1: 107, epochs_tier2: 0, epochs_tier3: 13, \
                faults_injected: 27, hint_poisons: 7, cert_faults: 7, cert_faults_pending: 0, \
                deadline_faults: 13, warm_fallbacks: 19, hybrid_certified: 387, \
                hybrid_fallbacks: 7, factor_reuses: 1, budget_exhaustions: 13, \
                reassignments: 27, max_arrival_moves: 0, max_departure_moves: 0, \
                max_split_migrations: 4, max_disruption_total: 7, quarantine_entries: 7, \
                readmissions: 6, quarantine_peak: 2, final_active: 27, final_quarantined: 0, \
                rejected_events: 0, rejected_duplicate_id: 0, rejected_unknown_job: 0, \
                rejected_zero_size: 0, rejected_bad_pin: 0, rejected_unknown_set: 0, \
                rejected_incoherent: 0, latency: LatencyStats(..) }";
    assert_eq!(got, want, "golden service report drifted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary seeded streams with seeded fault plans: the service
    /// absorbs everything without an invariant violation, and the
    /// report's internal accounting stays consistent.
    #[test]
    fn random_streams_complete_without_invariant_violations(
        m in 2usize..6,
        events in 30usize..60,
        arrive in 35u32..50,
        depart in 15u32..28,
        fail in 5u32..23,
        fault_rate in 0u32..40,
        stream_seed in 0u64..1000,
        plan_seed in 0u64..1000,
    ) {
        let family = laminar::topology::semi_partitioned(m);
        let cfg = StreamConfig {
            events,
            arrive_pct: arrive,
            depart_pct: depart,
            fail_pct: fail,
            ..StreamConfig::default()
        };
        let stream = event_stream(&family, &cfg, &mut rng(stream_seed));
        let plan = FaultPlan::seeded(events, fault_rate, &mut rng(plan_seed));
        let report = run(ServiceConfig::semi_partitioned(m), &stream, &plan)
            .expect("no invariant violation on a random stream");

        prop_assert_eq!(report.events, events);
        prop_assert_eq!(
            report.arrivals + report.departures + report.failures + report.recoveries,
            events
        );
        prop_assert_eq!(
            report.epochs_tier1 + report.epochs_tier2 + report.epochs_tier3,
            events
        );
        prop_assert_eq!(report.faults_injected, plan.injected());
        prop_assert_eq!(
            report.hint_poisons + report.cert_faults + report.deadline_faults,
            report.faults_injected
        );
        prop_assert!(report.epochs_tier3 >= report.deadline_faults);
        prop_assert!(report.max_arrival_moves <= m.saturating_sub(1));
        prop_assert!(report.max_departure_moves <= (2 * m).saturating_sub(2));
        prop_assert!(report.max_split_migrations <= m.saturating_sub(1));
        prop_assert!(report.max_disruption_total <= (2 * m).saturating_sub(2));
        prop_assert!(report.readmissions <= report.quarantine_entries);
        prop_assert!(report.quarantine_peak >= report.final_quarantined);
    }
}
