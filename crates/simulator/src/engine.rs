//! The event-sweep execution engine.

use core::fmt;

use hsched_core::{Schedule, Segment};
use numeric::Q;

use crate::report::{SimReport, TraceEvent, TraceEventKind};

/// Execution faults the simulator detects (independently of the analytic
/// validator in `hsched-core`).
#[non_exhaustive]
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// A segment refers to a machine outside `0..num_machines`.
    UnknownMachine { segment: usize },
    /// A segment with nonpositive duration.
    DegenerateSegment { segment: usize },
    /// A machine was asked to start a job while already running another.
    MachineBusy { machine: usize, time: Q },
    /// A job was asked to start while already running elsewhere.
    JobBusy { job: usize, time: Q },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownMachine { segment } => {
                write!(f, "segment #{segment} targets an unknown machine")
            }
            SimError::DegenerateSegment { segment } => {
                write!(f, "segment #{segment} has nonpositive duration")
            }
            SimError::MachineBusy { machine, time } => {
                write!(f, "machine {machine} double-booked at t = {time}")
            }
            SimError::JobBusy { job, time } => {
                write!(f, "job {job} started in two places at t = {time}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Replay `schedule` on `num_machines` machines.
///
/// The sweep processes, at each distinct timestamp, all *stops* before
/// all *starts* (a job may hand over from one machine to another at the
/// same instant — that is a legal migration, not parallelism); events of
/// one timestamp and kind run in segment order. The event list is built
/// once and put in that order by one stable sort.
pub fn simulate(schedule: &Schedule, num_machines: usize) -> Result<SimReport, SimError> {
    // Basic shape checks.
    for (k, s) in schedule.segments.iter().enumerate() {
        if s.machine >= num_machines {
            return Err(SimError::UnknownMachine { segment: k });
        }
        if s.end <= s.start {
            return Err(SimError::DegenerateSegment { segment: k });
        }
    }
    let num_jobs = schedule.segments.iter().map(|s| s.job + 1).max().unwrap_or(0);

    // Events in segment order (each segment's start, then its stop),
    // stably sorted by time with stops first at equal times: within one
    // (time, kind) they keep segment order.
    struct Ev<'a> {
        time: &'a Q,
        stop: bool,
        seg: &'a Segment,
    }
    let mut events: Vec<Ev> = Vec::with_capacity(2 * schedule.segments.len());
    for seg in &schedule.segments {
        events.push(Ev { time: &seg.start, stop: false, seg });
        events.push(Ev { time: &seg.end, stop: true, seg });
    }
    events.sort_by(|a, b| a.time.cmp(b.time).then(b.stop.cmp(&a.stop)));

    let mut running_on: Vec<Option<usize>> = vec![None; num_machines]; // machine → job
    let mut running_at: Vec<Option<usize>> = vec![None; num_jobs]; // job → machine
    let mut last_stop_machine: Vec<Option<usize>> = vec![None; num_jobs];
    let mut last_job_on_machine: Vec<Option<usize>> = vec![None; num_machines];
    let mut busy = vec![Q::zero(); num_machines];
    let mut received = vec![Q::zero(); num_jobs];
    let mut trace = Vec::new();
    let mut context_switches = 0usize;
    let mut migrations = 0usize;
    let mut preemptions = 0usize;
    let mut makespan = Q::zero();

    for ev in events {
        let (time, seg) = (ev.time, ev.seg);
        if ev.stop {
            running_on[seg.machine] = None;
            running_at[seg.job] = None;
            last_stop_machine[seg.job] = Some(seg.machine);
            busy[seg.machine] += seg.duration();
            received[seg.job] += seg.duration();
            if *time > makespan {
                makespan = time.clone();
            }
            trace.push(TraceEvent {
                time: time.clone(),
                kind: TraceEventKind::Stop,
                job: seg.job,
                machine: seg.machine,
            });
        } else {
            if let Some(other) = running_on[seg.machine] {
                if other != seg.job {
                    return Err(SimError::MachineBusy { machine: seg.machine, time: time.clone() });
                }
                // Same job re-starting on the same machine at the same
                // instant (zero-width hand-back) is a no-op continuation.
            }
            if running_at[seg.job].is_some() {
                return Err(SimError::JobBusy { job: seg.job, time: time.clone() });
            }
            // Classify the resumption.
            if let Some(prev_machine) = last_stop_machine[seg.job] {
                if prev_machine != seg.machine {
                    migrations += 1;
                } else {
                    // Only a preemption if the job did not merely
                    // continue seamlessly: seamless continuations were
                    // coalesced by the schedulers; a same-machine
                    // restart at a later time means it waited.
                    preemptions += 1;
                }
            }
            if let Some(prev_job) = last_job_on_machine[seg.machine] {
                if prev_job != seg.job {
                    context_switches += 1;
                }
            }
            running_on[seg.machine] = Some(seg.job);
            running_at[seg.job] = Some(seg.machine);
            last_job_on_machine[seg.machine] = Some(seg.job);
            trace.push(TraceEvent {
                time: time.clone(),
                kind: TraceEventKind::Start,
                job: seg.job,
                machine: seg.machine,
            });
        }
    }

    Ok(SimReport { trace, makespan, busy, received, context_switches, migrations, preemptions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: i64) -> Q {
        Q::from_int(v)
    }

    fn seg(job: usize, machine: usize, s: i64, e: i64) -> Segment {
        Segment { job, machine, start: q(s), end: q(e) }
    }

    #[test]
    fn paper_example_schedule_replays() {
        // Example III.1's schedule.
        let sched = Schedule {
            segments: vec![seg(0, 0, 1, 2), seg(1, 1, 0, 1), seg(2, 0, 0, 1), seg(2, 1, 1, 2)],
        };
        let rep = simulate(&sched, 2).unwrap();
        assert_eq!(rep.makespan, q(2));
        assert_eq!(rep.busy, vec![q(2), q(2)]);
        assert_eq!(rep.received[2], q(2));
        assert_eq!(rep.migrations, 1);
        assert_eq!(rep.preemptions, 0);
        assert_eq!(rep.utilization(0, &q(2)), Q::one());
    }

    #[test]
    fn machine_conflict_detected() {
        let sched = Schedule { segments: vec![seg(0, 0, 0, 2), seg(1, 0, 1, 3)] };
        assert!(matches!(simulate(&sched, 1), Err(SimError::MachineBusy { machine: 0, .. })));
    }

    #[test]
    fn job_parallelism_detected() {
        let sched = Schedule { segments: vec![seg(0, 0, 0, 2), seg(0, 1, 1, 3)] };
        assert!(matches!(simulate(&sched, 2), Err(SimError::JobBusy { job: 0, .. })));
    }

    #[test]
    fn instant_handover_is_migration_not_conflict() {
        // Job 0 leaves machine 0 at t=1 and starts on machine 1 at t=1.
        let sched = Schedule { segments: vec![seg(0, 0, 0, 1), seg(0, 1, 1, 2)] };
        let rep = simulate(&sched, 2).unwrap();
        assert_eq!(rep.migrations, 1);
        assert_eq!(rep.preemptions, 0);
    }

    #[test]
    fn same_machine_gap_is_preemption() {
        let sched = Schedule { segments: vec![seg(0, 0, 0, 1), seg(1, 0, 1, 2), seg(0, 0, 2, 3)] };
        let rep = simulate(&sched, 1).unwrap();
        assert_eq!(rep.preemptions, 1);
        assert_eq!(rep.context_switches, 2, "0→1 and 1→0");
    }

    #[test]
    fn unknown_machine_and_degenerate() {
        let sched = Schedule { segments: vec![seg(0, 5, 0, 1)] };
        assert!(matches!(simulate(&sched, 2), Err(SimError::UnknownMachine { segment: 0 })));
        let sched =
            Schedule { segments: vec![Segment { job: 0, machine: 0, start: q(1), end: q(1) }] };
        assert!(matches!(simulate(&sched, 2), Err(SimError::DegenerateSegment { segment: 0 })));
    }

    #[test]
    fn empty_schedule() {
        let rep = simulate(&Schedule::default(), 3).unwrap();
        assert_eq!(rep.makespan, Q::zero());
        assert_eq!(rep.total_disruptions(), 0);
    }
}
