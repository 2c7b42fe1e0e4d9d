//! Affinity-mask assignments and the feasibility conditions of (IP-2).
//!
//! Every per-set quantity comes from one pass over the jobs (each set's
//! own volume, in integers) plus one bottom-up pass over the laminar
//! forest (each set's subtree volume `Σ_{β⊆α} vol(β)`):
//! [`Assignment::check_ip2`], [`Assignment::minimal_integral_horizon`]
//! and Algorithm 2 read them instead of rebuilding a job list and a
//! subset closure per set. [`Assignment::volume_on`] and
//! [`Instance::subsets_of`] remain the definitions those passes are
//! tested against. [`HorizonTracker`] keeps the same subtree volumes
//! incrementally for greedy placement.

use core::fmt;

use laminar::LaminarFamily;
use numeric::Q;

use crate::instance::Instance;

/// An assignment of each job to an admissible set index (its affinity
/// mask), i.e. an integral solution `x` of (IP-1)/(IP-2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Assignment {
    /// `mask[j]` = set index job `j` is assigned to.
    mask: Vec<usize>,
}

/// A violated condition of (IP-2) for a candidate `(assignment, T)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AssignmentViolation {
    /// The assignment's length differs from the instance's job count.
    WrongLength,
    /// A job is assigned to a set index outside the family (`set ≥ |A|`).
    UnknownSet { job: usize, set: usize },
    /// A job is assigned to a set where its processing time is ∞.
    InfiniteTime { job: usize },
    /// Constraint (2c): `p_{αj} > T` for an assigned pair.
    JobExceedsHorizon { job: usize, set: usize },
    /// Constraint (2b): `Σ_j Σ_{β⊆α} p_βj x_βj > |α|·T`.
    CapacityExceeded { set: usize },
}

impl fmt::Display for AssignmentViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignmentViolation::WrongLength => write!(f, "assignment length mismatch"),
            AssignmentViolation::UnknownSet { job, set } => {
                write!(f, "job {job} assigned to set #{set}, which is not in the family")
            }
            AssignmentViolation::InfiniteTime { job } => {
                write!(f, "job {job} assigned to a set with infinite processing time")
            }
            AssignmentViolation::JobExceedsHorizon { job, set } => {
                write!(f, "job {job} on set #{set} exceeds the horizon T (constraint 2c)")
            }
            AssignmentViolation::CapacityExceeded { set } => {
                write!(f, "set #{set} violates its volume capacity |α|T (constraint 2b)")
            }
        }
    }
}

impl Assignment {
    /// Wrap a per-job mask vector.
    pub fn new(mask: Vec<usize>) -> Self {
        Assignment { mask }
    }

    /// Set index assigned to `job`.
    pub fn mask_of(&self, job: usize) -> usize {
        self.mask[job]
    }

    /// Number of jobs covered.
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    /// True iff no jobs.
    pub fn is_empty(&self) -> bool {
        self.mask.is_empty()
    }

    /// Iterate `(job, set index)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.mask.iter().copied().enumerate()
    }

    /// Jobs assigned to set `a`, ascending.
    pub fn jobs_on(&self, a: usize) -> Vec<usize> {
        self.iter().filter(|&(_, s)| s == a).map(|(j, _)| j).collect()
    }

    /// Total processing volume of jobs assigned to set `a`:
    /// `Σ_{j : x_{aj}=1} p_{aj}` (the `V` of Algorithms 1 and 2).
    pub fn volume_on(&self, instance: &Instance, a: usize) -> Q {
        let mut v = Q::zero();
        for j in self.jobs_on(a) {
            if let Some(p) = instance.ptime_q(j, a) {
                v += p;
            }
        }
        v
    }

    /// One pass over the jobs: each set's own volume `Σ_{j : x_j = α} p_{αj}`
    /// in integers and the largest assigned processing time, or the first
    /// job (in index order) whose pair is unusable. `admit` adds a
    /// caller's own test of each `(job, set, p)`.
    fn own_volumes(
        &self,
        instance: &Instance,
        mut admit: impl FnMut(usize, usize, u64) -> Result<(), AssignmentViolation>,
    ) -> Result<(Vec<u128>, u64), AssignmentViolation> {
        if self.mask.len() != instance.num_jobs() {
            return Err(AssignmentViolation::WrongLength);
        }
        let n_sets = instance.family().len();
        let mut own = vec![0u128; n_sets];
        let mut max_p = 0u64;
        for (j, &a) in self.mask.iter().enumerate() {
            if a >= n_sets {
                return Err(AssignmentViolation::UnknownSet { job: j, set: a });
            }
            let p = instance.ptime(j, a).ok_or(AssignmentViolation::InfiniteTime { job: j })?;
            admit(j, a, p)?;
            own[a] += u128::from(p);
            max_p = max_p.max(p);
        }
        Ok((own, max_p))
    }

    /// Check the (IP-2) conditions for horizon `T` exactly, in one pass
    /// over the jobs and one over the forest, returning each set's own
    /// volume (what Algorithm 2 distributes).
    pub(crate) fn ip2_volumes(
        &self,
        instance: &Instance,
        t: &Q,
    ) -> Result<Vec<u128>, AssignmentViolation> {
        let (own, _) = self.own_volumes(instance, |job, set, p| {
            if Q::from(p) > *t {
                Err(AssignmentViolation::JobExceedsHorizon { job, set })
            } else {
                Ok(())
            }
        })?;
        let fam = instance.family();
        for (a, &vol) in subtree_volumes(fam, &own).iter().enumerate() {
            let cap = Q::from(fam.members(a).len() as u64) * t;
            if volume_q(vol) > cap {
                return Err(AssignmentViolation::CapacityExceeded { set: a });
            }
        }
        Ok(own)
    }

    /// Check the (IP-2) conditions for horizon `T` exactly.
    ///
    /// By Theorem IV.3 these necessary conditions are also sufficient:
    /// when this returns `Ok`, Algorithms 2+3 produce a valid schedule in
    /// `[0, T]`. Violations are reported in a fixed order: the length,
    /// then the first job (in index order) assigned to a set outside the
    /// family ([`UnknownSet`](AssignmentViolation::UnknownSet)), to an
    /// infinite time, or above `T`; then the first set over capacity.
    pub fn check_ip2(&self, instance: &Instance, t: &Q) -> Result<(), AssignmentViolation> {
        self.ip2_volumes(instance, t).map(|_| ())
    }

    /// The smallest integer horizon `T` for which
    /// [`check_ip2`](Self::check_ip2) passes, if the assignment is
    /// realizable at all (it computes `max(max p, max_α ⌈vol(α)/|α|⌉)`
    /// over integer subtree volumes). `None` when the length differs from
    /// the job count, a mask names a set outside the family, a time is
    /// infinite, or the horizon does not fit `u64`.
    pub fn minimal_integral_horizon(&self, instance: &Instance) -> Option<u64> {
        let (own, max_p) = self.own_volumes(instance, |_, _, _| Ok(())).ok()?;
        let fam = instance.family();
        let t = subtree_volumes(fam, &own)
            .iter()
            .enumerate()
            .map(|(a, &vol)| vol.div_ceil(fam.members(a).len() as u128))
            .fold(u128::from(max_p), u128::max);
        u64::try_from(t).ok()
    }
}

/// Subtree volumes `Σ_{β⊆α} own(β)` from own volumes, in one bottom-up
/// pass over the forest (children are visited before their parent).
pub(crate) fn subtree_volumes(fam: &LaminarFamily, own: &[u128]) -> Vec<u128> {
    let mut subtree = own.to_vec();
    for &a in fam.bottom_up_order() {
        if let Some(parent) = fam.parent(a) {
            subtree[parent] += subtree[a];
        }
    }
    subtree
}

/// An integer volume as an exact rational. Volumes are sums of at most
/// `n` processing times below 2^64, so they stay below 2^127 for any
/// job count that fits in memory.
pub(crate) fn volume_q(vol: u128) -> Q {
    Q::from_i128(i128::try_from(vol).expect("volumes of fewer than 2^63 jobs fit i128"))
}

/// Incremental horizon bookkeeping for greedy placement over a partial
/// assignment: the subtree volume of every set, the largest committed
/// processing time, and the largest per-set need `⌈subtree(α)/|α|⌉` — the
/// quantities [`Assignment::minimal_integral_horizon`] maximizes over.
///
/// Committing job `j` to set `a` raises only the subtree volumes on the
/// chain from `a` to its root, so a commit and a query each walk that
/// chain: a query takes the larger of the committed maximum and the
/// chain's needs with `p_{aj}` added, which is exact because those needs
/// can only grow. Horizons are `u128`, so no volume overflows.
#[derive(Clone, Debug)]
pub struct HorizonTracker<'a> {
    instance: &'a Instance,
    subtree: Vec<u128>,
    /// `max(max committed p, max_α ⌈subtree(α)/|α|⌉)`.
    committed: u128,
}

impl<'a> HorizonTracker<'a> {
    /// An empty partial assignment over `instance`.
    pub fn new(instance: &'a Instance) -> Self {
        HorizonTracker { instance, subtree: vec![0; instance.family().len()], committed: 0 }
    }

    /// The minimal integral horizon of the committed jobs plus job `j` on
    /// set `a`; `None` when `P_j(α) = ∞`.
    pub fn horizon_with(&self, j: usize, a: usize) -> Option<u128> {
        let p = u128::from(self.instance.ptime(j, a)?);
        let fam = self.instance.family();
        let mut t = self.committed.max(p);
        let mut cur = Some(a);
        while let Some(alpha) = cur {
            t = t.max((self.subtree[alpha] + p).div_ceil(fam.members(alpha).len() as u128));
            cur = fam.parent(alpha);
        }
        Some(t)
    }

    /// The set job `j` joins greedily: least resulting horizon, then
    /// least processing time, then least set index. `None` when the job
    /// has no finite time.
    pub fn best_set(&self, j: usize) -> Option<usize> {
        (0..self.instance.family().len())
            .filter_map(|a| self.horizon_with(j, a).map(|t| (a, t)))
            .min_by_key(|&(a, t)| (t, self.instance.ptime(j, a)))
            .map(|(a, _)| a)
    }

    /// Commit job `j` to set `a`; panics when `P_j(α) = ∞`.
    pub fn commit(&mut self, j: usize, a: usize) {
        let p = self.instance.ptime(j, a).expect("committed pairs are admissible");
        let fam = self.instance.family();
        self.committed = self.committed.max(u128::from(p));
        let mut cur = Some(a);
        while let Some(alpha) = cur {
            self.subtree[alpha] += u128::from(p);
            let need = self.subtree[alpha].div_ceil(fam.members(alpha).len() as u128);
            self.committed = self.committed.max(need);
            cur = fam.parent(alpha);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar::topology;

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

    #[test]
    fn paper_optimal_assignment_feasible_at_2() {
        let inst = example_ii_1();
        // job 1 → {0}, job 2 → {1}, job 3 → global (paper's optimum).
        let asg = Assignment::new(vec![1, 2, 0]);
        assert!(asg.check_ip2(&inst, &Q::from_int(2)).is_ok());
        assert_eq!(asg.minimal_integral_horizon(&inst), Some(2));
    }

    #[test]
    fn infeasible_at_1() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        // At T=1 job 3 violates (2c).
        assert_eq!(
            asg.check_ip2(&inst, &Q::from_int(1)),
            Err(AssignmentViolation::JobExceedsHorizon { job: 2, set: 0 })
        );
    }

    #[test]
    fn local_assignment_needs_3() {
        let inst = example_ii_1();
        // Forcing job 3 onto machine 0 loads it with 1 + 2 = 3.
        let asg = Assignment::new(vec![1, 2, 1]);
        assert_eq!(asg.minimal_integral_horizon(&inst), Some(3));
        assert_eq!(
            asg.check_ip2(&inst, &Q::from_int(2)),
            Err(AssignmentViolation::CapacityExceeded { set: 1 })
        );
        assert!(asg.check_ip2(&inst, &Q::from_int(3)).is_ok());
    }

    #[test]
    fn infinite_assignment_rejected() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![0, 2, 0]); // job 1 can't run globally
        assert_eq!(
            asg.check_ip2(&inst, &Q::from_int(10)),
            Err(AssignmentViolation::InfiniteTime { job: 0 })
        );
        assert_eq!(asg.minimal_integral_horizon(&inst), None);
    }

    #[test]
    fn volumes_and_job_lists() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        assert_eq!(asg.jobs_on(0), vec![2]);
        assert_eq!(asg.jobs_on(1), vec![0]);
        assert_eq!(asg.volume_on(&inst, 0), Q::from_int(2));
        assert_eq!(asg.volume_on(&inst, 1), Q::from_int(1));
    }

    #[test]
    fn wrong_length_detected() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2]);
        assert_eq!(asg.check_ip2(&inst, &Q::from_int(5)), Err(AssignmentViolation::WrongLength));
    }
}
