//! `online`: `Scheduler::apply` over fault-free event streams on a
//! mid-size hierarchy, one stream per service instance. Each request is
//! one event epoch, and every epoch runs the service's T* search.

use laminar::LaminarFamily;
use service::{
    event_stream, Checkpoint, Event, Scheduler, ServiceConfig, ServiceReport, StreamConfig, Tier,
};

use crate::measure::{Layers, Tally};
use crate::{sub_seed, Workload};

const MACHINES: usize = 8;
/// Independent service instances per batch, each with its own seeded
/// population and stream: one instance's epoch costs hinge on how its LP
/// probes happen to fall (instances of one batch differ more than 20x), so
/// a run needs many of them.
const TENANTS: usize = 24;
/// Jobs each instance admits during set-up.
const POPULATION: usize = 16;
/// Timed events per instance and pass.
const EVENTS: usize = 20;
/// Arrive / depart / fail percentages (the rest recover). Departures
/// outnumber arrivals, and a departure with no stream job left to depart
/// becomes an arrival, so each instance keeps its admitted population plus
/// a few jobs; with more arrivals than departures the population, and
/// with it the epoch cost, drifted by seed.
const MIX: (u32, u32, u32) = (30, 50, 8);

/// `population` arrivals, then `events` events of `mix` whose job ids
/// follow the population's. Departures draw only on the stream's own
/// arrivals, so the population stays live throughout.
pub fn population_and_stream(
    family: &LaminarFamily,
    seed: u64,
    population: usize,
    events: usize,
    (arrive, depart, fail): (u32, u32, u32),
) -> (Vec<Event>, Vec<Event>) {
    let mut rng = workloads::rng(seed);
    let all_arrive = StreamConfig {
        events: population,
        arrive_pct: 100,
        depart_pct: 0,
        fail_pct: 0,
        ..StreamConfig::default()
    };
    let initial = event_stream(family, &all_arrive, &mut rng);
    let mixed = StreamConfig {
        events,
        arrive_pct: arrive,
        depart_pct: depart,
        fail_pct: fail,
        ..StreamConfig::default()
    };
    let offset = population as u64;
    let stream = event_stream(family, &mixed, &mut rng)
        .into_iter()
        .map(|ev| match ev {
            Event::Arrive(mut spec) => {
                spec.id += offset;
                Event::Arrive(spec)
            }
            Event::Depart(id) => Event::Depart(id + offset),
            other => other,
        })
        .collect();
    (initial, stream)
}

/// The service counters a pass moved, as per-layer counters.
pub fn count_report_delta(layers: &mut Layers, before: &ServiceReport, after: &ServiceReport) {
    let delta = |f: fn(&ServiceReport) -> usize| (f(after) - f(before)) as f64;
    layers.count("service.tier1", delta(|r| r.epochs_tier1));
    layers.count("service.tier2", delta(|r| r.epochs_tier2));
    layers.count("service.tier3", delta(|r| r.epochs_tier3));
    layers.count("service.budget_exhaustions", delta(|r| r.budget_exhaustions));
    layers.count("service.reassignments", delta(|r| r.reassignments));
    layers.count("lp.certified", delta(|r| r.hybrid_certified));
    layers.count("lp.fallbacks", delta(|r| r.hybrid_fallbacks));
    layers.count("lp.factor_reuses", delta(|r| r.factor_reuses));
    layers.count("lp.warm_fallbacks", delta(|r| r.warm_fallbacks));
}

/// `t_epoch / t_star` of an epoch whose T* is certified (tiers 1 and 2).
pub fn certified_ratio(tier: Tier, t_epoch: u64, t_star: u64) -> Option<f64> {
    (tier != Tier::Degraded && t_star > 0).then(|| t_epoch as f64 / t_star as f64)
}

/// One service instance: its state after set-up, and the events a pass
/// sends it.
struct Tenant {
    admitted: Checkpoint,
    events: Vec<Event>,
}

pub struct Online {
    cfg: ServiceConfig,
    tenants: Vec<Tenant>,
}

impl Workload for Online {
    const COVERING: &'static [&'static str] = &[
        "service.epoch_ms.arrive",
        "service.epoch_ms.depart",
        "service.epoch_ms.fail",
        "service.epoch_ms.recover",
    ];

    fn setup(seed: u64, batch: u64) -> Self {
        let cfg = ServiceConfig::semi_partitioned(MACHINES);
        let tenants = (0..TENANTS)
            .map(|t| {
                let seed = sub_seed(seed, batch * TENANTS as u64 + t as u64);
                let (initial, events) =
                    population_and_stream(&cfg.family, seed, POPULATION, EVENTS, MIX);
                let mut sched = Scheduler::new(cfg.clone());
                for ev in &initial {
                    sched.apply(ev, None).expect("admitting the initial population");
                }
                Tenant { admitted: sched.checkpoint(), events }
            })
            .collect();
        Online { cfg, tenants }
    }

    fn pass(&mut self, tally: &mut Tally, mut layers: Option<&mut Layers>) -> Vec<u8> {
        let mut digest = Vec::new();
        for Tenant { admitted, events } in &self.tenants {
            // Every pass starts from the state set-up left.
            let mut sched =
                Scheduler::restore(self.cfg.clone(), admitted).expect("restoring a tenant");
            let start = sched.report();
            let mut before = start.clone();
            for ev in events {
                let outcome = tally.request(|| {
                    let o = sched.apply(ev, None).map_err(|e| format!("epoch failed: {e}"))?;
                    if o.t_star > o.t_epoch {
                        return Err(format!(
                            "T* {} above the epoch horizon {}",
                            o.t_star, o.t_epoch
                        ));
                    }
                    Ok(o)
                });
                let Some(o) = outcome else { break };
                tally.quality.extend(certified_ratio(o.tier, o.t_epoch, o.t_star));
                digest.extend(format!("{o:?}\n").into_bytes());
                if let Some(layers) = layers.as_deref_mut() {
                    let kind = match ev {
                        Event::Arrive(_) => "service.epoch_ms.arrive",
                        Event::Depart(_) => "service.epoch_ms.depart",
                        Event::MachineFail(_) => "service.epoch_ms.fail",
                        Event::MachineRecover(_) => "service.epoch_ms.recover",
                    };
                    let elapsed = tally.last_latency();
                    layers.add(kind, elapsed);
                    let after = sched.report();
                    let split = if after.hybrid_fallbacks > before.hybrid_fallbacks {
                        "fallback"
                    } else {
                        "clean"
                    };
                    layers.add(&format!("service.epoch_ms.{split}"), elapsed);
                    layers.count(&format!("service.epochs.{split}"), 1.0);
                    before = after;
                }
            }
            let end = sched.report();
            let tiers = end.epochs_tier1 + end.epochs_tier2 + end.epochs_tier3;
            if tiers != end.events {
                tally.fail(format!("tier counts sum to {tiers}, not the {} events", end.events));
            }
            if let Some(layers) = layers.as_deref_mut() {
                count_report_delta(layers, &start, &end);
            }
        }
        digest
    }
}
