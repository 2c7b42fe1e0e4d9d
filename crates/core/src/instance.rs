//! Problem instances: jobs, machines, admissible sets, processing times.

use core::fmt;

use laminar::{LaminarFamily, MachineSet};
use numeric::Q;

/// Why a proposed instance is invalid.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InstanceError {
    /// `ptimes` does not have one row per job / one entry per set.
    ShapeMismatch,
    /// Monotonicity violated: `α ⊆ β` but `P_j(α) > P_j(β)` for some job.
    /// (`∞` on a subset while a superset is finite also violates it: the
    /// paper requires `P_j(α) ≤ P_j(β)` whenever `α ⊆ β`.)
    NotMonotone { job: usize, subset: usize, superset: usize },
    /// A job has no admissible set with finite processing time, so no
    /// schedule exists at all.
    UnschedulableJob(usize),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::ShapeMismatch => write!(f, "processing-time table has wrong shape"),
            InstanceError::NotMonotone { job, subset, superset } => write!(
                f,
                "job {job}: P(set #{subset}) > P(set #{superset}) though #{subset} ⊆ #{superset}"
            ),
            InstanceError::UnschedulableJob(j) => {
                write!(f, "job {j} has no finite processing time on any admissible set")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// A hierarchical scheduling instance `I = (J, M, A, P)`.
///
/// Processing times are `Option<u64>`: `None` models the paper's "∞"
/// (job `j` may not be assigned to that set). Monotonicity
/// (`α ⊆ β ⇒ P_j(α) ≤ P_j(β)`) is validated at construction; it is what
/// makes Lemma V.1's push-down legal (pushed-down weight lands on sets
/// that are still in the pruned pair set `R`).
#[derive(Clone, Debug)]
pub struct Instance {
    family: LaminarFamily,
    /// `ptimes[j][a]`: processing time of job `j` on set index `a`.
    ptimes: Vec<Vec<Option<u64>>>,
}

impl Instance {
    /// Validate and build an instance.
    pub fn new(
        family: LaminarFamily,
        ptimes: Vec<Vec<Option<u64>>>,
    ) -> Result<Self, InstanceError> {
        for row in &ptimes {
            if row.len() != family.len() {
                return Err(InstanceError::ShapeMismatch);
            }
        }
        for (j, row) in ptimes.iter().enumerate() {
            if !row.iter().any(|p| p.is_some()) {
                return Err(InstanceError::UnschedulableJob(j));
            }
            // Check monotonicity along forest edges; transitivity gives the
            // full subset order.
            for a in 0..family.len() {
                if let Some(parent) = family.parent(a) {
                    match (row[a], row[parent]) {
                        (Some(sub), Some(sup)) if sub > sup => {
                            return Err(InstanceError::NotMonotone {
                                job: j,
                                subset: a,
                                superset: parent,
                            });
                        }
                        (None, Some(_)) => {
                            return Err(InstanceError::NotMonotone {
                                job: j,
                                subset: a,
                                superset: parent,
                            });
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(Instance { family, ptimes })
    }

    /// Convenience: build from a closure `f(job, set_index) -> Option<u64>`.
    pub fn from_fn(
        family: LaminarFamily,
        num_jobs: usize,
        f: impl Fn(usize, usize) -> Option<u64>,
    ) -> Result<Self, InstanceError> {
        let ptimes = (0..num_jobs).map(|j| (0..family.len()).map(|a| f(j, a)).collect()).collect();
        Self::new(family, ptimes)
    }

    /// Number of jobs `n`.
    pub fn num_jobs(&self) -> usize {
        self.ptimes.len()
    }

    /// Number of machines `m`.
    pub fn num_machines(&self) -> usize {
        self.family.num_machines()
    }

    /// The admissible family `A`.
    pub fn family(&self) -> &LaminarFamily {
        &self.family
    }

    /// `P_j(α)` for set index `a`; `None` = ∞.
    pub fn ptime(&self, job: usize, a: usize) -> Option<u64> {
        self.ptimes[job][a]
    }

    /// `P_j(α)` as an exact rational, if finite.
    pub fn ptime_q(&self, job: usize, a: usize) -> Option<Q> {
        self.ptimes[job][a].map(Q::from)
    }

    /// Cheapest admissible set for a job: `(set index, processing time)`
    /// minimizing the time (ties to the smaller set index).
    pub fn cheapest_set(&self, job: usize) -> (usize, u64) {
        let mut best: Option<(usize, u64)> = None;
        for (a, p) in self.ptimes[job].iter().enumerate() {
            if let Some(p) = p {
                match best {
                    None => best = Some((a, *p)),
                    Some((_, bp)) if *p < bp => best = Some((a, *p)),
                    _ => {}
                }
            }
        }
        best.expect("validated instances have a finite set per job")
    }

    /// Largest finite processing time in the instance (an upper bound
    /// building block for binary searches).
    pub fn max_finite_ptime(&self) -> u64 {
        self.ptimes.iter().flatten().flatten().copied().max().unwrap_or(0)
    }

    /// Sum over jobs of the cheapest processing time — a crude but valid
    /// makespan upper bound (run everything sequentially on its best set).
    pub fn sequential_upper_bound(&self) -> u64 {
        (0..self.num_jobs()).map(|j| self.cheapest_set(j).1).sum()
    }

    /// Largest over jobs of the cheapest processing time — a valid
    /// makespan lower bound (some job must fully run somewhere).
    pub fn bottleneck_lower_bound(&self) -> u64 {
        (0..self.num_jobs()).map(|j| self.cheapest_set(j).1).max().unwrap_or(0)
    }

    /// Volume-based lower bound: `⌈Σ_j min_α P_j(α) / m⌉`.
    pub fn volume_lower_bound(&self) -> u64 {
        let total: u64 = (0..self.num_jobs()).map(|j| self.cheapest_set(j).1).sum();
        total.div_ceil(self.num_machines() as u64)
    }

    /// The paper's w.l.o.g. preprocessing before Section V: extend `A`
    /// with every missing singleton, a singleton `{i}` inheriting the
    /// processing times of the minimal original set containing `i`.
    /// Monotonicity is preserved. Returns the extended instance; original
    /// set indices are unchanged (new singletons are appended). An
    /// instance that already has every singleton comes back as a clone,
    /// with no second validation.
    pub fn with_singletons(&self) -> Instance {
        let (fam, inherited) = self.family.with_singletons();
        if inherited.is_empty() {
            return Instance { family: fam, ptimes: self.ptimes.clone() };
        }
        let mut ptimes = self.ptimes.clone();
        for row in ptimes.iter_mut() {
            row.resize(fam.len(), None);
        }
        for (new_idx, src) in inherited {
            for (j, row) in ptimes.iter_mut().enumerate() {
                row[new_idx] = self.ptimes[j][src];
            }
        }
        Instance::new(fam, ptimes).expect("singleton completion preserves validity")
    }

    /// Indices of singleton sets, as a machine-indexed lookup:
    /// `singleton_index()[i] = Some(a)` iff `A` contains `{i}` at index `a`.
    pub fn singleton_index(&self) -> Vec<Option<usize>> {
        let m = self.num_machines();
        let mut idx = vec![None; m];
        for (a, s) in self.family.sets().iter().enumerate() {
            if s.len() == 1 {
                idx[s.first().expect("nonempty")] = Some(a);
            }
        }
        idx
    }

    /// The set of `(set, job)` pairs with `P_j(α) ≤ T` — the paper's
    /// pruned index set `R` from (IP-3).
    pub fn pruned_pairs(&self, t: u64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for a in 0..self.family.len() {
            for j in 0..self.num_jobs() {
                if let Some(p) = self.ptimes[j][a] {
                    if p <= t {
                        pairs.push((a, j));
                    }
                }
            }
        }
        pairs
    }

    /// Descendant closure of a set (indices of all `β ⊆ α` in `A`,
    /// including `α` itself) — the summation range of constraint (2b).
    pub fn subsets_of(&self, a: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![a];
        while let Some(x) = stack.pop() {
            out.push(x);
            stack.extend_from_slice(self.family.children(x));
        }
        out.sort_unstable();
        out
    }

    /// All sets of `A` containing machine `i` (the chain of the laminar
    /// forest through `i`), ordered small → large.
    pub fn chain_through(&self, i: usize) -> Vec<usize> {
        let mut chain: Vec<usize> =
            (0..self.family.len()).filter(|&a| self.family.set(a).contains(i)).collect();
        chain.sort_by_key(|&a| self.family.set(a).len());
        chain
    }

    /// Access the machine set of set index `a`.
    pub fn set(&self, a: usize) -> &MachineSet {
        self.family.set(a)
    }

    /// Restrict the instance to the machines in `healthy` (same
    /// universe): every admissible set is intersected with `healthy`,
    /// empty intersections drop out, and equal intersections collapse to
    /// one set whose processing times are the per-job minimum over the
    /// collapsing sets. Machine indices are unchanged — machines outside
    /// `healthy` are simply not covered by any surviving set, which
    /// [`LaminarFamily`] permits. Jobs left without a finite processing
    /// time on any surviving set are dropped and reported as orphans.
    /// Returns `None` when no set survives at all.
    ///
    /// Correctness of the collapse: original sets with the same healthy
    /// intersection `S` form a chain in the laminar order, and for
    /// distinct intersections `S₁ ⊂ S₂` every original set mapping to
    /// `S₁` is contained in every original set mapping to `S₂` (laminar
    /// sets meeting in `S₁ ⊆ S₂` are nested, and containment the other
    /// way would force `S₁ = S₂`). Original monotonicity therefore
    /// carries over to the per-class minima, so the restricted instance
    /// always validates.
    pub fn restrict_to(&self, healthy: &MachineSet) -> Option<RestrictedInstance> {
        let n_sets = self.family.len();
        let mut set_map: Vec<Option<usize>> = vec![None; n_sets];
        let mut origin: Vec<usize> = Vec::new();
        let mut rsets: Vec<MachineSet> = Vec::new();
        for a in 0..n_sets {
            let r = self.family.set(a).intersection(healthy);
            if r.is_empty() {
                continue;
            }
            match rsets.iter().position(|s| *s == r) {
                Some(k) => set_map[a] = Some(k),
                None => {
                    set_map[a] = Some(rsets.len());
                    origin.push(a);
                    rsets.push(r);
                }
            }
        }
        if rsets.is_empty() {
            return None;
        }
        let n_restricted = rsets.len();
        let mut job_map = vec![None; self.num_jobs()];
        let mut orphans = Vec::new();
        let mut ptimes: Vec<Vec<Option<u64>>> = Vec::new();
        for (j, row) in self.ptimes.iter().enumerate() {
            let mut rrow: Vec<Option<u64>> = vec![None; n_restricted];
            for (a, p) in row.iter().enumerate() {
                if let (Some(k), Some(p)) = (set_map[a], *p) {
                    rrow[k] = Some(rrow[k].map_or(p, |prev: u64| prev.min(p)));
                }
            }
            if rrow.iter().any(|p| p.is_some()) {
                job_map[j] = Some(ptimes.len());
                ptimes.push(rrow);
            } else {
                orphans.push(j);
            }
        }
        let family = LaminarFamily::new(self.num_machines(), rsets)
            .expect("healthy intersections of a laminar family stay laminar");
        let instance = Instance::new(family, ptimes)
            .expect("restriction preserves monotonicity and schedulability");
        Some(RestrictedInstance { instance, set_map, origin, job_map, orphans })
    }
}

/// An [`Instance`] restricted to a healthy machine subset
/// ([`Instance::restrict_to`]): the surviving sets/jobs plus the maps
/// back to the original indices the caller's bookkeeping is phrased in.
#[derive(Clone, Debug)]
pub struct RestrictedInstance {
    /// The restricted instance: original machine indices, admissible
    /// sets intersected with the healthy mask (deduplicated), and only
    /// the jobs with at least one finite restricted processing time.
    pub instance: Instance,
    /// `set_map[original_set] = Some(restricted_set)` when the original
    /// set's healthy intersection is nonempty (several original sets may
    /// collapse onto one restricted set); `None` when the whole set
    /// failed.
    pub set_map: Vec<Option<usize>>,
    /// `origin[restricted_set]`: the smallest original set index with
    /// that healthy intersection.
    pub origin: Vec<usize>,
    /// `job_map[original_job] = Some(restricted_job)` for surviving jobs.
    pub job_map: Vec<Option<usize>>,
    /// Original job indices with no finite processing time on any
    /// surviving set — the capacity-quarantine candidates after a
    /// machine failure.
    pub orphans: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar::topology;

    /// Example II.1 of the paper: 2 machines, 3 jobs, semi-partitioned.
    /// Family indices (topology::semi_partitioned): 0 = M, 1 = {0}, 2 = {1}.
    pub fn example_ii_1() -> Instance {
        let fam = topology::semi_partitioned(2);
        Instance::new(
            fam,
            vec![
                vec![None, Some(1), None],       // job 1: only machine 0
                vec![None, None, Some(1)],       // job 2: only machine 1
                vec![Some(2), Some(2), Some(2)], // job 3: anywhere, cost 2
            ],
        )
        .unwrap()
    }

    #[test]
    fn example_builds() {
        let inst = example_ii_1();
        assert_eq!(inst.num_jobs(), 3);
        assert_eq!(inst.num_machines(), 2);
        assert_eq!(inst.ptime(2, 0), Some(2));
        assert_eq!(inst.cheapest_set(0), (1, 1));
        assert_eq!(inst.bottleneck_lower_bound(), 2);
        assert_eq!(inst.sequential_upper_bound(), 4);
        assert_eq!(inst.volume_lower_bound(), 2);
    }

    #[test]
    fn monotonicity_rejected() {
        let fam = topology::semi_partitioned(2);
        // singleton cheaper than global is fine; global cheaper than
        // singleton is NOT (set 1 ⊆ set 0 needs P(1) ≤ P(0)).
        let err = Instance::new(fam, vec![vec![Some(1), Some(2), Some(2)]]);
        assert!(matches!(err, Err(InstanceError::NotMonotone { job: 0, .. })));
    }

    #[test]
    fn infinite_subset_of_finite_superset_rejected() {
        let fam = topology::semi_partitioned(2);
        // P_j(M) finite but P_j({0}) = ∞: ∞ > finite violates monotonicity.
        let err = Instance::new(fam, vec![vec![Some(5), None, Some(3)]]);
        assert!(matches!(err, Err(InstanceError::NotMonotone { .. })));
    }

    #[test]
    fn unschedulable_job_rejected() {
        let fam = topology::semi_partitioned(2);
        let err = Instance::new(fam, vec![vec![None, None, None]]);
        assert_eq!(err.unwrap_err(), InstanceError::UnschedulableJob(0));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let fam = topology::semi_partitioned(2);
        let err = Instance::new(fam, vec![vec![Some(1)]]);
        assert_eq!(err.unwrap_err(), InstanceError::ShapeMismatch);
    }

    #[test]
    fn pruned_pairs_respects_threshold() {
        let inst = example_ii_1();
        let r1 = inst.pruned_pairs(1);
        assert!(r1.contains(&(1, 0)) && r1.contains(&(2, 1)));
        assert!(!r1.iter().any(|&(_, j)| j == 2), "job 3 has p = 2 > 1");
        let r2 = inst.pruned_pairs(2);
        assert!(r2.contains(&(0, 2)) && r2.contains(&(1, 2)) && r2.contains(&(2, 2)));
    }

    #[test]
    fn subsets_and_chains() {
        let inst = example_ii_1();
        assert_eq!(inst.subsets_of(0), vec![0, 1, 2]);
        assert_eq!(inst.subsets_of(1), vec![1]);
        assert_eq!(inst.chain_through(0), vec![1, 0]);
        assert_eq!(inst.chain_through(1), vec![2, 0]);
    }

    #[test]
    fn singleton_completion_inherits() {
        let fam = topology::global(2); // only {0,1}
        let inst = Instance::new(fam, vec![vec![Some(4)]]).unwrap();
        let full = inst.with_singletons();
        assert_eq!(full.family().len(), 3);
        // Singletons inherit the root's time 4.
        let singles = full.singleton_index();
        for i in 0..2 {
            let a = singles[i].unwrap();
            assert_eq!(full.ptime(0, a), Some(4));
        }
    }

    #[test]
    fn from_fn_builder() {
        let fam = topology::partitioned(3);
        let inst = Instance::from_fn(fam, 2, |j, a| Some((j + a + 1) as u64)).unwrap();
        assert_eq!(inst.ptime(1, 2), Some(4));
    }

    #[test]
    fn restrict_to_drops_merges_and_orphans() {
        // semi_partitioned(3): 0 = {0,1,2}, 1 = {0}, 2 = {1}, 3 = {2}.
        let fam = topology::semi_partitioned(3);
        let inst = Instance::new(
            fam,
            vec![
                vec![Some(6), Some(2), Some(3), Some(4)], // anywhere
                vec![None, None, Some(1), None],          // pinned to machine 1
            ],
        )
        .unwrap();

        // Machine 1 fails: {1} dies, the pinned job orphans.
        let healthy = MachineSet::from_iter(3, [0, 2]);
        let r = inst.restrict_to(&healthy).unwrap();
        assert_eq!(r.instance.family().len(), 3);
        assert_eq!(r.set_map, vec![Some(0), Some(1), None, Some(2)]);
        assert_eq!(r.origin, vec![0, 1, 3]);
        assert_eq!(r.orphans, vec![1]);
        assert_eq!(r.job_map, vec![Some(0), None]);
        assert_eq!(r.instance.num_jobs(), 1);
        assert_eq!(r.instance.ptime(0, 0), Some(6));
        assert_eq!(r.instance.num_machines(), 3, "machine indices are unchanged");

        // Only machine 0 healthy: root ∩ H = {0} collapses onto the
        // singleton; the merged set keeps the cheaper processing time.
        let healthy = MachineSet::from_iter(3, [0]);
        let r = inst.restrict_to(&healthy).unwrap();
        assert_eq!(r.instance.family().len(), 1);
        assert_eq!(r.set_map, vec![Some(0), Some(0), None, None]);
        assert_eq!(r.origin, vec![0]);
        assert_eq!(r.instance.ptime(0, 0), Some(2), "collapse keeps the min");

        // Nothing healthy: no restriction exists.
        assert!(inst.restrict_to(&MachineSet::empty(3)).is_none());
    }

    #[test]
    fn restrict_to_full_mask_is_identity() {
        let inst = example_ii_1();
        let r = inst.restrict_to(&MachineSet::full(2)).unwrap();
        assert_eq!(r.instance.family().len(), inst.family().len());
        assert_eq!(r.set_map, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(r.job_map, vec![Some(0), Some(1), Some(2)]);
        assert!(r.orphans.is_empty());
        for j in 0..inst.num_jobs() {
            for a in 0..inst.family().len() {
                assert_eq!(r.instance.ptime(j, a), inst.ptime(j, a));
            }
        }
    }
}
