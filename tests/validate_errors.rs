//! `Schedule::validate` rejection paths, exercised through the public
//! facade (`hier_sched::core::…`) on schedules produced by the real
//! algorithms and then corrupted — complementing the hand-built unit
//! tests inside `hsched-core`.

use hier_sched::core::hier::schedule_hierarchical;
use hier_sched::core::schedule::{Schedule, ScheduleError, Segment};
use hier_sched::core::{Assignment, Instance};
use hier_sched::numeric::Q;
use hier_sched::workloads::paper;

fn q(v: i64) -> Q {
    Q::from_int(v)
}

/// A valid schedule from the hierarchical scheduler on Example II.1 at
/// its optimum T = 2, plus the instance/assignment it validates against.
fn valid_pipeline_output() -> (Instance, Assignment, Schedule, Q) {
    let inst = paper::example_ii_1();
    let asg = Assignment::new(vec![1, 2, 0]);
    let t = q(2);
    let sched = schedule_hierarchical(&inst, &asg, &t).expect("Example II.1 is feasible at 2");
    sched.validate(&inst, &asg, &t).expect("scheduler output is valid");
    (inst, asg, sched, t)
}

#[test]
fn double_booked_machine_is_rejected() {
    let (inst, asg, mut sched, t) = valid_pipeline_output();
    // Clone the first segment onto the same machine at the same time but
    // for the *other* job sharing that machine's admissible sets, so only
    // the machine-conflict check can fire before the amount checks.
    let victim = sched.segments[0].clone();
    let other =
        sched.segments.iter().find(|s| s.job != victim.job).expect("two jobs scheduled").job;
    // Remove `other`'s own segments so its total amount comes only from
    // the duplicated, conflicting segment.
    sched.segments.retain(|s| s.job != other);
    sched.segments.push(Segment { job: other, ..victim });
    let err = sched.validate(&inst, &asg, &t).unwrap_err();
    assert!(
        matches!(err, ScheduleError::MachineConflict { .. })
            || matches!(err, ScheduleError::OutsideMask { .. })
            || matches!(err, ScheduleError::WrongAmount { .. }),
        "corruption must be rejected, got {err}",
    );
    // And when the duplicate targets a machine in the other job's mask
    // with the right duration, it is specifically the conflict that fires.
    let inst2 = paper::example_ii_1();
    let asg2 = Assignment::new(vec![1, 2, 0]);
    let sched2 = Schedule {
        segments: vec![
            // Job 0 (mask {1}) and job 2 (global) both on machine 0 at [0,1).
            Segment { job: 0, machine: 0, start: q(0), end: q(1) },
            Segment { job: 2, machine: 0, start: q(0), end: q(1) },
            Segment { job: 1, machine: 1, start: q(0), end: q(1) },
            Segment { job: 2, machine: 1, start: q(1), end: q(2) },
        ],
    };
    assert_eq!(
        sched2.validate(&inst2, &asg2, &q(2)),
        Err(ScheduleError::MachineConflict { machine: 0 }),
    );
}

#[test]
fn job_self_parallelism_is_rejected() {
    let inst = paper::example_ii_1();
    let asg = Assignment::new(vec![1, 2, 0]);
    // Job 2 (global mask, P = 2) runs on both machines during [0,1).
    let sched = Schedule {
        segments: vec![
            Segment { job: 0, machine: 0, start: q(1), end: q(2) },
            Segment { job: 1, machine: 1, start: q(1), end: q(2) },
            Segment { job: 2, machine: 0, start: q(0), end: q(1) },
            Segment { job: 2, machine: 1, start: q(0), end: q(1) },
        ],
    };
    assert_eq!(sched.validate(&inst, &asg, &q(2)), Err(ScheduleError::JobParallelism { job: 2 }),);
}

#[test]
fn wrong_total_amount_is_rejected_in_both_directions() {
    let (inst, asg, sched, t) = valid_pipeline_output();

    // Too little: drop one of some job's segments.
    let mut short = sched.clone();
    let dropped = short.segments.remove(0).job;
    assert_eq!(
        short.validate(&inst, &asg, &t),
        Err(ScheduleError::WrongAmount { job: dropped }),
        "a job missing processing time must be rejected",
    );

    // Too much: stretch the horizon and extend one segment past P_j(α).
    let mut long = sched.clone();
    let t3 = q(3);
    let k =
        long.segments.iter().position(|s| s.end == t).expect("some segment ends at the horizon");
    long.segments[k].end = long.segments[k].end.clone() + q(1);
    let stretched = long.segments[k].job;
    // The stretched segment stays inside [0, 3] and inside its mask, so
    // the amount check is the one that must fire (possibly as a machine
    // conflict if the extension overlaps a later segment — Example II.1
    // at T = 2 leaves no later segment on that machine).
    assert_eq!(
        long.validate(&inst, &asg, &t3),
        Err(ScheduleError::WrongAmount { job: stretched }),
        "a job over its exact amount must be rejected",
    );
}

#[test]
fn error_display_is_informative() {
    // The Display impl is part of the public diagnostics surface.
    let cases: Vec<(ScheduleError, &str)> = vec![
        (ScheduleError::MachineConflict { machine: 3 }, "machine 3"),
        (ScheduleError::JobParallelism { job: 7 }, "job 7"),
        (ScheduleError::WrongAmount { job: 1 }, "job 1"),
    ];
    for (err, needle) in cases {
        let msg = err.to_string();
        assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
    }
}

/// A segment naming a job outside the instance is a typed error (it
/// used to index the assignment out of bounds).
#[test]
fn segment_naming_unknown_job_is_rejected() {
    let (inst, asg, mut sched, t) = valid_pipeline_output();
    let last = sched.segments.len();
    sched.segments.push(Segment { job: inst.num_jobs(), machine: 0, start: q(0), end: q(1) });
    assert_eq!(sched.validate(&inst, &asg, &t), Err(ScheduleError::UnknownJob { segment: last }));
}

/// An assignment shorter or longer than the job count is a typed error,
/// before any segment is read.
#[test]
fn assignment_of_wrong_length_is_rejected() {
    let (inst, _, sched, t) = valid_pipeline_output();
    for mask in [vec![1, 2], vec![1, 2, 0, 0]] {
        assert_eq!(
            sched.validate(&inst, &Assignment::new(mask), &t),
            Err(ScheduleError::AssignmentLength)
        );
    }
}

/// A mask naming a set outside the family is a typed error from the
/// validator, from (IP-2) and from Algorithms 2+3, and no horizon.
#[test]
fn mask_outside_the_family_is_rejected() {
    use hier_sched::core::assignment::AssignmentViolation;
    use hier_sched::core::hier::HierError;
    let (inst, _, sched, t) = valid_pipeline_output();
    let sets = inst.family().len();
    let asg = Assignment::new(vec![1, sets, 0]);
    assert_eq!(sched.validate(&inst, &asg, &t), Err(ScheduleError::UnknownSet { job: 1 }));
    let violation = AssignmentViolation::UnknownSet { job: 1, set: sets };
    assert_eq!(asg.check_ip2(&inst, &t), Err(violation.clone()));
    assert_eq!(asg.minimal_integral_horizon(&inst), None);
    assert_eq!(schedule_hierarchical(&inst, &asg, &t), Err(HierError::Infeasible(violation)));
}
