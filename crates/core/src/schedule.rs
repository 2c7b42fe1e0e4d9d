//! Explicit preemptive schedules and their exact validation.

use core::fmt;

use numeric::Q;

use crate::assignment::Assignment;
use crate::instance::Instance;

/// A maximal run of one job on one machine over `[start, end)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Job index.
    pub job: usize,
    /// Machine index.
    pub machine: usize,
    /// Inclusive start time.
    pub start: Q,
    /// Exclusive end time; `end > start`.
    pub end: Q,
}

impl Segment {
    /// Segment duration `end − start`.
    pub fn duration(&self) -> Q {
        self.end.clone() - self.start.clone()
    }
}

/// Why a schedule is invalid with respect to an instance + assignment + T.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScheduleError {
    /// A segment has `end ≤ start`.
    EmptySegment(usize),
    /// A segment leaves the window `[0, T]`.
    OutsideHorizon(usize),
    /// A segment runs a job on a machine outside its affinity mask.
    OutsideMask { segment: usize },
    /// Two segments on one machine overlap in time.
    MachineConflict { machine: usize },
    /// One job runs on two machines simultaneously (the model forbids
    /// intra-job parallelism).
    JobParallelism { job: usize },
    /// A job's total scheduled time differs from `P_j(α)`.
    WrongAmount { job: usize },
    /// The assignment's length differs from the instance's job count.
    AssignmentLength,
    /// A job's mask names a set outside the family (`set ≥ |A|`).
    UnknownSet { job: usize },
    /// A segment names a job outside the instance (`job ≥ n`).
    UnknownJob { segment: usize },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::EmptySegment(s) => write!(f, "segment #{s} has nonpositive length"),
            ScheduleError::OutsideHorizon(s) => write!(f, "segment #{s} leaves [0, T]"),
            ScheduleError::OutsideMask { segment } => {
                write!(f, "segment #{segment} runs outside the job's affinity mask")
            }
            ScheduleError::MachineConflict { machine } => {
                write!(f, "machine {machine} runs two jobs at once")
            }
            ScheduleError::JobParallelism { job } => {
                write!(f, "job {job} runs on two machines at once")
            }
            ScheduleError::WrongAmount { job } => {
                write!(f, "job {job} does not receive exactly P_j(α) units")
            }
            ScheduleError::AssignmentLength => {
                write!(f, "assignment length differs from the job count")
            }
            ScheduleError::UnknownSet { job } => {
                write!(f, "job {job} is assigned to a set outside the family")
            }
            ScheduleError::UnknownJob { segment } => {
                write!(f, "segment #{segment} names a job outside the instance")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Counts of schedule-disruption events (Proposition III.2 quantities).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DisruptionCounts {
    /// Job resumptions on a *different* machine.
    pub migrations: usize,
    /// Job resumptions on the *same* machine after an interruption.
    pub preemptions: usize,
}

impl DisruptionCounts {
    /// Total `preemptions + migrations` (the paper's `2m − 2` bound).
    pub fn total(&self) -> usize {
        self.migrations + self.preemptions
    }
}

/// An explicit schedule: a bag of segments within a horizon `[0, T]`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schedule {
    /// All segments (no ordering guaranteed).
    pub segments: Vec<Segment>,
}

impl Schedule {
    /// Makespan: latest segment end (0 for an empty schedule).
    pub fn makespan(&self) -> Q {
        self.segments.iter().map(|s| s.end.clone()).max().unwrap_or_else(Q::zero)
    }

    /// Total scheduled time of a job.
    pub fn job_total(&self, job: usize) -> Q {
        Q::sum(self.segments.iter().filter(|s| s.job == job).map(|s| s.duration()))
    }

    /// Total busy time of a machine.
    pub fn machine_load(&self, machine: usize) -> Q {
        Q::sum(self.segments.iter().filter(|s| s.machine == machine).map(|s| s.duration()))
    }

    /// Validate the schedule against the paper's definition of a *valid
    /// schedule for an assignment* (Section II): segments inside `[0, T]`
    /// and inside each job's mask, machines run one job at a time, jobs
    /// never run in parallel with themselves, and each job receives
    /// exactly `P_j(α)` units. All checks are exact.
    ///
    /// Malformed input is an error, never a panic: an assignment whose
    /// length differs from the job count
    /// ([`AssignmentLength`](ScheduleError::AssignmentLength)) or that
    /// names a set outside the family
    /// ([`UnknownSet`](ScheduleError::UnknownSet), first such job) is
    /// rejected before any segment is read, and a segment naming a job
    /// outside the instance is [`UnknownJob`](ScheduleError::UnknownJob).
    /// Otherwise the first failing check wins, in this order: per-segment
    /// checks in segment order, then the least machine with a conflict,
    /// then the least job running in parallel with itself or receiving
    /// the wrong amount. Segments are sorted once by (machine, start) and
    /// once by (job, start).
    pub fn validate(
        &self,
        instance: &Instance,
        assignment: &Assignment,
        t: &Q,
    ) -> Result<(), ScheduleError> {
        let n = instance.num_jobs();
        if assignment.len() != n {
            return Err(ScheduleError::AssignmentLength);
        }
        let n_sets = instance.family().len();
        if let Some((job, _)) = assignment.iter().find(|&(_, a)| a >= n_sets) {
            return Err(ScheduleError::UnknownSet { job });
        }
        // Per-segment checks.
        for (k, s) in self.segments.iter().enumerate() {
            if s.end <= s.start {
                return Err(ScheduleError::EmptySegment(k));
            }
            if s.start.is_negative() || s.end > *t {
                return Err(ScheduleError::OutsideHorizon(k));
            }
            if s.job >= n {
                return Err(ScheduleError::UnknownJob { segment: k });
            }
            if !instance.set(assignment.mask_of(s.job)).contains(s.machine) {
                return Err(ScheduleError::OutsideMask { segment: k });
            }
        }
        // Machine conflicts: a machine's segments sorted by start overlap
        // iff two neighbours do (equal starts overlap in any order).
        let mut order: Vec<&Segment> = self.segments.iter().collect();
        order.sort_unstable_by(|a, b| (a.machine, &a.start).cmp(&(b.machine, &b.start)));
        for w in order.windows(2) {
            if w[0].machine == w[1].machine && w[1].start < w[0].end {
                return Err(ScheduleError::MachineConflict { machine: w[0].machine });
            }
        }
        // Intra-job parallelism + exact amounts, job by job (jobs without
        // segments receive zero).
        order.sort_unstable_by(|a, b| (a.job, &a.start).cmp(&(b.job, &b.start)));
        let mut rest = order.as_slice();
        for j in 0..n {
            let len = rest.iter().take_while(|s| s.job == j).count();
            let (segs, tail) = rest.split_at(len);
            rest = tail;
            let mut total = Q::zero();
            for (k, s) in segs.iter().enumerate() {
                if k > 0 && s.start < segs[k - 1].end {
                    return Err(ScheduleError::JobParallelism { job: j });
                }
                total += s.end.clone();
                total -= s.start.clone();
            }
            let required = instance
                .ptime_q(j, assignment.mask_of(j))
                .ok_or(ScheduleError::WrongAmount { job: j })?;
            if total != required {
                return Err(ScheduleError::WrongAmount { job: j });
            }
        }
        Ok(())
    }

    /// Count migrations and preemptions as in Proposition III.2.
    ///
    /// A job's segments are merged when back-to-back on the same machine;
    /// each remaining boundary between consecutive pieces is a *migration*
    /// if the machine changes and a *preemption* otherwise.
    pub fn disruptions(&self) -> DisruptionCounts {
        let mut counts = DisruptionCounts::default();
        let jobs: std::collections::BTreeSet<usize> = self.segments.iter().map(|s| s.job).collect();
        for j in jobs {
            let mut segs: Vec<&Segment> = self.segments.iter().filter(|s| s.job == j).collect();
            segs.sort_by(|a, b| a.start.cmp(&b.start));
            for w in segs.windows(2) {
                let (prev, next) = (w[0], w[1]);
                if prev.machine == next.machine {
                    if next.start > prev.end {
                        counts.preemptions += 1;
                    }
                    // back-to-back same machine: a merge, not an event
                } else {
                    counts.migrations += 1;
                }
            }
        }
        counts
    }

    /// Migration count in the paper's convention: a job contributes one
    /// migration per *additional machine* it uses,
    /// `Σ_j (machines_used(j) − 1)`. Proposition III.2's `m − 1` bound is
    /// stated for this count. Note the subtlety: the wall-clock
    /// resumption count of [`disruptions`](Self::disruptions) can exceed
    /// `m − 1` when a job both wraps at `T` on one machine and crosses a
    /// machine boundary (two wall-clock machine changes, one split);
    /// the combined `2m − 2` bound holds for both conventions.
    pub fn split_migrations(&self) -> usize {
        let jobs: std::collections::BTreeSet<usize> = self.segments.iter().map(|s| s.job).collect();
        jobs.into_iter().map(|j| self.machines_used(j).saturating_sub(1)).sum()
    }

    /// Per-job count of *distinct machines used minus one* — a lower bound
    /// witness for migrations, used by tests.
    pub fn machines_used(&self, job: usize) -> usize {
        let set: std::collections::BTreeSet<usize> =
            self.segments.iter().filter(|s| s.job == job).map(|s| s.machine).collect();
        set.len()
    }

    /// Idle time of machine `i` within `[0, T]`.
    pub fn idle_time(&self, machine: usize, t: &Q) -> Q {
        t.clone() - self.machine_load(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar::topology;

    fn q(v: i64) -> Q {
        Q::from_int(v)
    }

    fn example_ii_1() -> Instance {
        Instance::new(
            topology::semi_partitioned(2),
            vec![
                vec![None, Some(1), None],
                vec![None, None, Some(1)],
                vec![Some(2), Some(2), Some(2)],
            ],
        )
        .unwrap()
    }

    fn seg(job: usize, machine: usize, s: i64, e: i64) -> Segment {
        Segment { job, machine, start: q(s), end: q(e) }
    }

    /// The paper's hand-built schedule for Example III.1: makespan 2,
    /// job 3 migrates once.
    fn paper_schedule() -> Schedule {
        Schedule {
            segments: vec![
                seg(0, 0, 1, 2), // job 1 on machine 1 during [1,2)
                seg(1, 1, 0, 1), // job 2 on machine 2 during [0,1)
                seg(2, 0, 0, 1), // job 3 on machine 1 during [0,1)
                seg(2, 1, 1, 2), // … migrated to machine 2 during [1,2)
            ],
        }
    }

    #[test]
    fn paper_schedule_is_valid() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        let sched = paper_schedule();
        assert_eq!(sched.makespan(), q(2));
        sched.validate(&inst, &asg, &q(2)).unwrap();
        let d = sched.disruptions();
        assert_eq!(d.migrations, 1);
        assert_eq!(d.preemptions, 0);
        assert_eq!(sched.machines_used(2), 2);
    }

    #[test]
    fn machine_conflict_detected() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        let mut sched = paper_schedule();
        sched.segments[0] = seg(0, 0, 0, 1); // now overlaps job 3 on machine 0
        assert_eq!(
            sched.validate(&inst, &asg, &q(2)),
            Err(ScheduleError::MachineConflict { machine: 0 })
        );
    }

    #[test]
    fn job_parallelism_detected() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        let sched = Schedule {
            segments: vec![
                seg(0, 0, 1, 2),
                seg(1, 1, 1, 2),
                seg(2, 0, 0, 1),
                seg(2, 1, 0, 1), // job 3 on both machines in [0,1)
            ],
        };
        assert_eq!(
            sched.validate(&inst, &asg, &q(2)),
            Err(ScheduleError::JobParallelism { job: 2 })
        );
    }

    #[test]
    fn wrong_amount_detected() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        let mut sched = paper_schedule();
        sched.segments.pop(); // job 3 now receives only 1 < 2 units
        assert_eq!(sched.validate(&inst, &asg, &q(2)), Err(ScheduleError::WrongAmount { job: 2 }));
    }

    #[test]
    fn outside_mask_detected() {
        let inst = example_ii_1();
        // Assign job 3 to machine 0 only; schedule it on machine 1.
        let asg = Assignment::new(vec![1, 2, 1]);
        let sched = Schedule { segments: vec![seg(0, 0, 1, 2), seg(1, 1, 0, 1), seg(2, 1, 1, 3)] };
        assert_eq!(
            sched.validate(&inst, &asg, &q(3)),
            Err(ScheduleError::OutsideMask { segment: 2 })
        );
    }

    #[test]
    fn horizon_violation_detected() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        let sched = paper_schedule();
        assert_eq!(sched.validate(&inst, &asg, &q(1)), Err(ScheduleError::OutsideHorizon(0)));
    }

    #[test]
    fn empty_segment_detected() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        let mut sched = paper_schedule();
        sched.segments.push(seg(0, 0, 2, 2));
        assert_eq!(sched.validate(&inst, &asg, &q(2)), Err(ScheduleError::EmptySegment(4)));
    }

    #[test]
    fn preemption_counted_separately() {
        // Job 0 runs [0,1) and [2,3) on machine 0: one preemption.
        let sched = Schedule { segments: vec![seg(0, 0, 0, 1), seg(0, 0, 2, 3)] };
        let d = sched.disruptions();
        assert_eq!(d.preemptions, 1);
        assert_eq!(d.migrations, 0);
        assert_eq!(d.total(), 1);
    }

    #[test]
    fn contiguous_same_machine_merges() {
        let sched = Schedule { segments: vec![seg(0, 0, 0, 1), seg(0, 0, 1, 3)] };
        assert_eq!(sched.disruptions().total(), 0);
    }

    #[test]
    fn split_migrations_convention() {
        // One job using 2 machines = 1 split migration, even if the wall
        // clock sees it hop twice (wrap + boundary).
        let sched = Schedule { segments: vec![seg(0, 0, 5, 10), seg(0, 0, 0, 2), seg(0, 1, 2, 4)] };
        assert_eq!(sched.split_migrations(), 1);
        // Wall-clock counting sees two machine changes.
        assert_eq!(sched.disruptions().migrations, 2);
    }

    #[test]
    fn loads_and_idle() {
        let sched = paper_schedule();
        assert_eq!(sched.machine_load(0), q(2));
        assert_eq!(sched.machine_load(1), q(2));
        assert_eq!(sched.idle_time(0, &q(3)), q(1));
        assert_eq!(sched.job_total(2), q(2));
    }
}
