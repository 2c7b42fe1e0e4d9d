//! The one-sort replay reproduces a reference sweep that buckets events
//! by timestamp in a `BTreeMap` (stops before starts within a bucket,
//! segment order otherwise): the same `SimReport`, trace included, on
//! valid schedules, and the same `SimError` on corrupted ones.

use std::collections::BTreeMap;

use hsched_core::hier::schedule_hierarchical;
use hsched_core::{Assignment, Schedule, Segment};
use laminar::topology;
use numeric::Q;
use proptest::prelude::*;
use simulator::{simulate, SimError, SimReport, TraceEvent, TraceEventKind};

/// The reference replay: events bucketed by time.
fn simulate_reference(schedule: &Schedule, num_machines: usize) -> Result<SimReport, SimError> {
    for (k, s) in schedule.segments.iter().enumerate() {
        if s.machine >= num_machines {
            return Err(SimError::UnknownMachine { segment: k });
        }
        if s.end <= s.start {
            return Err(SimError::DegenerateSegment { segment: k });
        }
    }
    let num_jobs = schedule.segments.iter().map(|s| s.job + 1).max().unwrap_or(0);
    let mut by_time: BTreeMap<Q, Vec<(bool, &Segment)>> = BTreeMap::new();
    for seg in &schedule.segments {
        by_time.entry(seg.start.clone()).or_default().push((false, seg));
        by_time.entry(seg.end.clone()).or_default().push((true, seg));
    }
    let mut running_on: Vec<Option<usize>> = vec![None; num_machines];
    let mut running_at: Vec<Option<usize>> = vec![None; num_jobs];
    let mut last_stop_machine: Vec<Option<usize>> = vec![None; num_jobs];
    let mut last_job_on_machine: Vec<Option<usize>> = vec![None; num_machines];
    let mut busy = vec![Q::zero(); num_machines];
    let mut received = vec![Q::zero(); num_jobs];
    let mut trace = Vec::new();
    let (mut context_switches, mut migrations, mut preemptions) = (0, 0, 0);
    let mut makespan = Q::zero();
    for (time, mut evs) in by_time {
        evs.sort_by_key(|&(stop, _)| !stop);
        for (stop, seg) in evs {
            let kind = if stop { TraceEventKind::Stop } else { TraceEventKind::Start };
            if stop {
                running_on[seg.machine] = None;
                running_at[seg.job] = None;
                last_stop_machine[seg.job] = Some(seg.machine);
                busy[seg.machine] += seg.duration();
                received[seg.job] += seg.duration();
                if time > makespan {
                    makespan = time.clone();
                }
            } else {
                if running_on[seg.machine].is_some_and(|other| other != seg.job) {
                    return Err(SimError::MachineBusy { machine: seg.machine, time });
                }
                if running_at[seg.job].is_some() {
                    return Err(SimError::JobBusy { job: seg.job, time });
                }
                match last_stop_machine[seg.job] {
                    Some(prev) if prev != seg.machine => migrations += 1,
                    Some(_) => preemptions += 1,
                    None => {}
                }
                if last_job_on_machine[seg.machine].is_some_and(|prev| prev != seg.job) {
                    context_switches += 1;
                }
                running_on[seg.machine] = Some(seg.job);
                running_at[seg.job] = Some(seg.machine);
                last_job_on_machine[seg.machine] = Some(seg.job);
            }
            trace.push(TraceEvent { time: time.clone(), kind, job: seg.job, machine: seg.machine });
        }
    }
    Ok(SimReport { trace, makespan, busy, received, context_switches, migrations, preemptions })
}

/// A small deterministic generator (SplitMix64).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A schedule from Algorithms 2+3 for a random assignment on a random
/// topology, at its minimal horizon or a rational one above it.
fn random_schedule(rng: &mut Mix) -> (Schedule, usize) {
    let fam = match rng.below(3) {
        0 => topology::semi_partitioned(2 + rng.below(6)),
        1 => topology::clustered(1 + rng.below(3), 1 + rng.below(3)),
        _ => topology::smp_cmp(&[1 + rng.below(2), 1 + rng.below(2), 1 + rng.below(3)]),
    };
    let m = fam.num_machines();
    let n = 1 + rng.below(12);
    let seed = rng.next();
    let inst = workloads::random::overhead_instance(fam, n, 1, 9, 1, 4, &mut workloads::rng(seed));
    let asg = Assignment::new((0..n).map(|_| rng.below(inst.family().len())).collect());
    let t = asg.minimal_integral_horizon(&inst).expect("finite times");
    let d = 1 + rng.below(4) as i64;
    let horizon = Q::ratio(t as i64 * d + rng.below(d as usize) as i64, d);
    (schedule_hierarchical(&inst, &asg, &horizon).expect("feasible at its horizon"), m)
}

/// Zero to two corruptions: drop, duplicate, move, stretch, empty or
/// re-target a segment (machines and jobs may leave their ranges).
fn corrupt(sched: &mut Schedule, m: usize, rng: &mut Mix) {
    let half = Q::ratio(1, 2);
    for _ in 0..rng.below(3) {
        if sched.segments.is_empty() {
            return;
        }
        let k = rng.below(sched.segments.len());
        let delta = [Q::from_int(-1), -half.clone(), half.clone(), Q::one()][rng.below(4)].clone();
        let seg = &mut sched.segments[k];
        match rng.below(8) {
            0 => {
                sched.segments.remove(k);
            }
            1 => {
                let copy = seg.clone();
                sched.segments.push(copy);
            }
            2 => seg.start += delta,
            3 => seg.end += delta,
            4 => seg.machine = rng.below(m + 1),
            5 => seg.job = rng.below(seg.job + 3),
            6 => seg.end = seg.start.clone(),
            _ => {
                seg.start += delta.clone();
                seg.end += delta;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Same report (trace, makespan, busy, received and counts) or the
    /// same error as the reference sweep.
    #[test]
    fn replay_matches_reference(seed: u64) {
        let mut rng = Mix(seed);
        let (mut sched, m) = random_schedule(&mut rng);
        corrupt(&mut sched, m, &mut rng);
        prop_assert_eq!(
            format!("{:?}", simulate(&sched, m)),
            format!("{:?}", simulate_reference(&sched, m))
        );
    }
}
