//! `durable`: `DurableScheduler::ingest` over a poisoned event stream with
//! injected solver faults, periodic checkpoints, and seeded kills that
//! tear the journal's last write, each followed by
//! `DurableScheduler::recover`. Each request is one ingested event;
//! recoveries are timed on their own.

use std::time::{Duration, Instant};

use laminar::topology;
use rand::Rng;
use service::journal::recover as scan_journal;
use service::{
    corrupt_stream, DurableScheduler, Event, FaultPlan, Ingest, JournalWriter, Scheduler,
    ServiceConfig, ServiceReport,
};

use crate::measure::{ms, Layers, Tally};
use crate::online::{certified_ratio, count_report_delta, population_and_stream};
use crate::{sub_seed, Workload};

const MACHINES: usize = 5;
/// Independent service instances per batch, each with its own seeded
/// streams (see the online workload).
const TENANTS: usize = 24;
/// Jobs each instance admits during set-up: a multiple of
/// `CHECKPOINT_EVERY`, so that set-up ends with a checkpoint.
const POPULATION: usize = 16;
/// Well-formed events per instance and pass, before poisoning.
const EVENTS: usize = 20;
/// Arrive / depart / fail percentages (the rest recover).
const MIX: (u32, u32, u32) = (30, 50, 8);
/// Chance of a malformed event before each well-formed one.
const POISON_PCT: u32 = 20;
/// Chance of an injected solver fault at each event.
const FAULT_PCT: u32 = 25;
const CHECKPOINT_EVERY: usize = 16;
/// One kill at a seeded point of every this-many events.
const KILL_EVERY: usize = 24;

/// A kill right after event `after` is ingested, tearing that event's
/// journal write at a point chosen by `tear`.
struct Kill {
    after: usize,
    tear: usize,
}

/// One durable service instance: its journal after set-up, and what a
/// pass sends it.
struct Tenant {
    /// The journal set-up wrote.
    admitted: Vec<u8>,
    /// The population's arrivals, then the poisoned stream.
    stream: Vec<Event>,
    plan: FaultPlan,
    kills: Vec<Kill>,
    /// Malformed events the poisoning added.
    injected: usize,
}

pub struct Durable {
    cfg: ServiceConfig,
    tenants: Vec<Tenant>,
}

/// The journal as a process killed while writing its last ingest's
/// records would leave it: everything before `before`, and part of what
/// followed.
fn tear(journal: &[u8], before: usize, tear: usize) -> Vec<u8> {
    let written = journal.len() - before;
    journal[..before + 1 + tear % (written - 1)].to_vec()
}

/// What one ingest in a traced pass spent where.
struct Step {
    res: Ingest,
    append: Duration,
    ingest: Duration,
    checkpoint: Option<(Duration, usize)>,
}

impl Tenant {
    /// The service as set-up left it (the set-up journal ends with a
    /// checkpoint, so this replays nothing).
    fn restored(&self, cfg: &ServiceConfig) -> DurableScheduler {
        DurableScheduler::recover(cfg.clone(), &self.admitted, CHECKPOINT_EVERY)
            .expect("recovering the set-up journal")
            .0
    }

    fn quality(tally: &mut Tally, res: &Ingest) {
        if let Ingest::Applied(o) = res {
            tally.quality.extend(certified_ratio(o.tier, o.t_epoch, o.t_star));
        }
    }

    /// The pass-level check: every malformed event was rejected.
    fn check_rejections(&self, tally: &mut Tally, start: &ServiceReport, end: &ServiceReport) {
        let rejected = end.rejected_events - start.rejected_events;
        if rejected != self.injected {
            tally.fail(format!("{rejected} events rejected, {} injected", self.injected));
        }
    }

    /// One pass; returns the final journal and the events it holds.
    fn plain(&self, cfg: &ServiceConfig, tally: &mut Tally) -> (Vec<u8>, u64) {
        let ds = &mut self.restored(cfg);
        let start = ds.report();
        let mut kills = self.kills.iter().peekable();
        let mut i = POPULATION;
        while i < self.stream.len() {
            let before = ds.journal_bytes().len();
            let (ev, fault) = (&self.stream[i], self.plan.fault_at(i));
            let Some(res) =
                tally.request(|| ds.ingest(ev, fault).map_err(|e| format!("ingest failed: {e}")))
            else {
                break;
            };
            Self::quality(tally, &res);
            i += 1;
            if let Some(kill) = kills.next_if(|k| i > k.after) {
                let torn = tear(ds.journal_bytes(), before, kill.tear);
                let t0 = Instant::now();
                match DurableScheduler::recover(cfg.clone(), &torn, CHECKPOINT_EVERY) {
                    Ok((recovered, info)) => {
                        tally.recoveries_ms.push(ms(t0.elapsed()));
                        *ds = recovered;
                        i = info.next_seq as usize;
                    }
                    Err(e) => {
                        tally.fail(format!("recovery failed: {e}"));
                        break;
                    }
                }
            }
        }
        self.check_rejections(tally, &start, &ds.report());
        (ds.journal_bytes().to_vec(), ds.seq())
    }

    /// `DurableScheduler::ingest` as its sequence of `JournalWriter` and
    /// `Scheduler` calls, and `DurableScheduler::recover` split into the
    /// journal scan and the rest.
    fn traced(
        &self,
        cfg: &ServiceConfig,
        tally: &mut Tally,
        layers: &mut Layers,
    ) -> (Vec<u8>, u64) {
        let restore = |s: &Scheduler| {
            Scheduler::restore(cfg.clone(), &s.checkpoint())
                .expect("a checkpoint restores under its own config")
        };
        let header = JournalWriter::new().len();
        let ds = self.restored(cfg);
        let mut s = restore(ds.scheduler());
        let start = s.report();
        // The journal is `prefix` followed by what `w` wrote after its header.
        let mut prefix = ds.journal_bytes().to_vec();
        let mut w = JournalWriter::new();
        let mut seq = ds.seq();
        // A recovered service counts events towards its next checkpoint
        // from zero.
        let mut since = 0;
        let mut kills = self.kills.iter().peekable();
        let mut i = POPULATION;
        while i < self.stream.len() {
            let before = prefix.len() + w.len() - header;
            let (ev, fault) = (&self.stream[i], self.plan.fault_at(i));
            let step = tally.request(|| {
                let t0 = Instant::now();
                w.append_event(seq, ev, fault);
                let mut append = t0.elapsed();
                let t0 = Instant::now();
                let res = s.ingest(ev, fault).map_err(|e| format!("ingest failed: {e}"))?;
                let ingest = t0.elapsed();
                let t0 = Instant::now();
                match &res {
                    Ingest::Applied(o) => w.append_outcome(seq, o),
                    Ingest::Rejected(e) => w.append_rejection(seq, e),
                }
                append += t0.elapsed();
                seq += 1;
                since += 1;
                let mut checkpoint = None;
                if since >= CHECKPOINT_EVERY {
                    let (t0, len) = (Instant::now(), w.len());
                    w.append_checkpoint(&s.checkpoint());
                    checkpoint = Some((t0.elapsed(), w.len() - len));
                    since = 0;
                }
                Ok(Step { res, append, ingest, checkpoint })
            });
            let Some(step) = step else { break };
            layers.add("journal.append_us", step.append);
            match &step.res {
                Ingest::Applied(_) => layers.add("service.ingest_ms.applied", step.ingest),
                Ingest::Rejected(e) => {
                    layers.add("service.ingest_ms.rejected", step.ingest);
                    layers.count(&format!("ingest.rejected.{}", e.category()), 1.0);
                }
            }
            if let Some((elapsed, bytes)) = step.checkpoint {
                layers.add("journal.checkpoint_us", elapsed);
                layers.count("journal.checkpoint_bytes", bytes as f64);
            }
            Self::quality(tally, &step.res);
            i += 1;
            if let Some(kill) = kills.next_if(|k| i > k.after) {
                let mut journal = prefix.clone();
                journal.extend_from_slice(&w.as_bytes()[header..]);
                let torn = tear(&journal, before, kill.tear);
                let t0 = Instant::now();
                let scanned = scan_journal(&torn);
                let scan = t0.elapsed();
                let t0 = Instant::now();
                let recovered = DurableScheduler::recover(cfg.clone(), &torn, CHECKPOINT_EVERY);
                let total = t0.elapsed();
                let (recovered, info) = match (scanned, recovered) {
                    (Ok(_), Ok(r)) => r,
                    (Err(e), _) => {
                        tally.fail(format!("journal scan failed: {e}"));
                        break;
                    }
                    (_, Err(e)) => {
                        tally.fail(format!("recovery failed: {e}"));
                        break;
                    }
                };
                tally.recoveries_ms.push(ms(total));
                layers.add("journal.scan_ms", scan);
                // The recovery scans the journal again first; the rest
                // is restoring the checkpoint and replaying the tail.
                layers.add("service.restore_replay_ms", total.saturating_sub(scan));
                layers.count("service.replayed_events", info.replayed as f64);
                s = restore(recovered.scheduler());
                prefix = recovered.journal_bytes().to_vec();
                w = JournalWriter::new();
                seq = recovered.seq();
                since = 0;
                i = info.next_seq as usize;
            }
        }
        prefix.extend_from_slice(&w.as_bytes()[header..]);
        let end = s.report();
        count_report_delta(layers, &start, &end);
        self.check_rejections(tally, &start, &end);
        (prefix, seq)
    }
}

impl Workload for Durable {
    const COVERING: &'static [&'static str] = &[
        "journal.append_us",
        "journal.checkpoint_us",
        "service.ingest_ms.applied",
        "service.ingest_ms.rejected",
    ];

    fn setup(seed: u64, batch: u64) -> Self {
        let family = topology::semi_partitioned(MACHINES);
        let cfg = ServiceConfig::semi_partitioned(MACHINES);
        let tenants = (0..TENANTS)
            .map(|t| {
                let seed = sub_seed(seed, batch * TENANTS as u64 + t as u64);
                let (initial, clean) =
                    population_and_stream(&family, seed, POPULATION, EVENTS, MIX);
                let mut rng = workloads::rng(seed ^ 0x5eed_d0ab1e);
                let poisoned = corrupt_stream(&family, &clean, POISON_PCT, &mut rng);
                let injected = poisoned.len() - clean.len();
                let stream: Vec<Event> = initial.into_iter().chain(poisoned).collect();
                let plan = FaultPlan::seeded(stream.len(), FAULT_PCT, &mut rng);
                let kills = (POPULATION..stream.len())
                    .step_by(KILL_EVERY)
                    .map(|at| Kill {
                        after: at + rng.gen_range(0..KILL_EVERY),
                        tear: rng.gen_range(0..1usize << 30),
                    })
                    .filter(|k| k.after < stream.len())
                    .collect();
                let mut ds = DurableScheduler::new(cfg.clone(), CHECKPOINT_EVERY);
                for (i, ev) in stream[..POPULATION].iter().enumerate() {
                    ds.ingest(ev, plan.fault_at(i)).expect("admitting the initial population");
                }
                Tenant { admitted: ds.journal_bytes().to_vec(), stream, plan, kills, injected }
            })
            .collect();
        Durable { cfg, tenants }
    }

    fn pass(&mut self, tally: &mut Tally, mut layers: Option<&mut Layers>) -> Vec<u8> {
        let (mut digest, mut events) = (Vec::new(), 0);
        for tenant in &self.tenants {
            let (journal, seq) = match layers.as_deref_mut() {
                None => tenant.plain(&self.cfg, tally),
                Some(layers) => tenant.traced(&self.cfg, tally, layers),
            };
            digest.extend(journal);
            events += seq;
        }
        tally.journal_bytes_per_event.push(digest.len() as f64 / events as f64);
        digest
    }
}
