//! Algorithms 2 and 3: the hierarchical wrap-around scheduler (Section IV).
//!
//! Phase 1 ([`allocate_loads`], Algorithm 2) walks the laminar family
//! bottom-up and decides `LOAD[i, α]` — how much of the volume of jobs
//! assigned to set `α` runs on machine `i` — greedily filling machines in
//! ascending order against the residual `T − TOT-LOAD[i, β]`. Lemma IV.1
//! guarantees that for a feasible `(x, T)` all volume is placed and no
//! machine exceeds `T`; Lemma IV.2 guarantees that for every set `β` at
//! most one machine carries both `β` load and load of a strict superset —
//! the property phase 2 exploits.
//!
//! Phase 2 ([`schedule_hierarchical`], Algorithm 3) walks top-down and
//! lays each set's job stream around the circle `[0, T)`, starting on the
//! unique shared machine at the wall time where the superset's jobs end
//! (`t_{iα}`), so the per-machine occupied region stays one contiguous
//! arc and nothing collides (Theorem IV.3).
//!
//! Both phases run in `O(n + Σ_α |α|)` rational operations. The volumes
//! come from the assignment's one pass over the jobs. Each machine
//! remembers the last set visited that contains it: bottom-up that is
//! the child `β` of the current set (whose `TOT-LOAD` Algorithm 2
//! reads), and top-down, counting only sets with load on the machine,
//! it is the minimal loaded strict superset that makes the machine
//! shared. Jobs are bucketed by set once. The wrap `t_β + d (mod T)` is
//! one conditional subtraction: `place` enforces `0 ≤ t_β < T` and
//! `0 < d ≤ T`, so the sum lies in `(0, 2T)`.

use core::fmt;

use numeric::Q;

use laminar::LaminarFamily;

use crate::assignment::{volume_q, Assignment, AssignmentViolation};
use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::stream::{coalesce, JobStream};

/// Failure modes of Algorithms 2+3.
#[non_exhaustive]
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HierError {
    /// The `(assignment, T)` pair violates (IP-2); the wrapped violation
    /// says which constraint.
    Infeasible(AssignmentViolation),
    /// A wrap-around placement rejected its inputs (would contradict
    /// Lemma IV.1/IV.2); never expected on feasible input. The typed
    /// cause names the violated placement invariant.
    Placement(crate::stream::PlaceError),
    /// Internal invariant broken (would contradict Lemma IV.1/IV.2);
    /// never expected on feasible input.
    InvariantBroken(&'static str),
}

impl fmt::Display for HierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierError::Infeasible(v) => write!(f, "assignment infeasible at T: {v}"),
            HierError::Placement(e) => write!(f, "scheduler placement rejected: {e}"),
            HierError::InvariantBroken(s) => write!(f, "scheduler invariant broken: {s}"),
        }
    }
}

impl std::error::Error for HierError {}

/// The `LOAD` table of Algorithm 2: `LOAD[i, α]` for machines `i ∈ α`
/// (zero elsewhere).
///
/// Stored flat over the family's member arena — one `Q` per `(set,
/// member)` pair instead of the former dense `|A| × m` grid, which
/// allocated quadratically in `m` on singleton-rich families.
#[derive(Clone, Debug)]
pub struct LoadTable {
    /// `off[a]..off[a+1]` indexes set `a`'s block; entries follow the
    /// set's ascending member order. Copied from the family's member
    /// arena so the table stays usable without a family borrow; all
    /// table indexing goes through these, never the family's offsets.
    off: Vec<usize>,
    members: Vec<usize>,
    load: Vec<Q>,
    tot_load: Vec<Q>,
}

impl LoadTable {
    fn empty(fam: &laminar::LaminarFamily) -> Self {
        let n_sets = fam.len();
        let arena = fam.member_arena_len();
        let mut off = Vec::with_capacity(n_sets + 1);
        let mut members = Vec::with_capacity(arena);
        for a in 0..n_sets {
            off.push(fam.member_base(a));
            members.extend_from_slice(fam.members(a));
        }
        off.push(arena);
        LoadTable { off, members, load: vec![Q::zero(); arena], tot_load: vec![Q::zero(); arena] }
    }

    /// Flat index of `(a, i)`, if `i ∈ α`.
    fn idx(&self, a: usize, i: usize) -> Option<usize> {
        let block = &self.members[self.off[a]..self.off[a + 1]];
        block.binary_search(&i).ok().map(|pos| self.off[a] + pos)
    }

    /// `LOAD[i, α]`; zero when `i ∉ α`.
    pub fn load(&self, a: usize, i: usize) -> Q {
        self.idx(a, i).map_or_else(Q::zero, |k| self.load[k].clone())
    }

    /// `TOT-LOAD[i, α] = Σ_{β ⊆ α, i ∈ β} LOAD[i, β]`; zero when `i ∉ α`.
    pub fn tot_load(&self, a: usize, i: usize) -> Q {
        self.idx(a, i).map_or_else(Q::zero, |k| self.tot_load[k].clone())
    }

    /// Set `a`'s loads in ascending member order (machines outside `α`
    /// carry no load by definition).
    pub fn set_loads(&self, a: usize) -> &[Q] {
        &self.load[self.off[a]..self.off[a + 1]]
    }
}

/// Algorithm 2: bottom-up volume allocation.
///
/// Returns the load table, or an error if the input violates (IP-2)
/// (volume that cannot be placed — the contrapositive of Lemma IV.1 ii —
/// or a job whose pair is unusable).
pub fn allocate_loads(
    instance: &Instance,
    assignment: &Assignment,
    t: &Q,
) -> Result<LoadTable, HierError> {
    let own = assignment.ip2_volumes(instance, t).map_err(HierError::Infeasible)?;
    allocate(instance.family(), &own, t)
}

/// Algorithm 2 over precomputed own volumes.
fn allocate(fam: &LaminarFamily, own: &[u128], t: &Q) -> Result<LoadTable, HierError> {
    let mut table = LoadTable::empty(fam);
    // below[i]: flat index of the last visited set containing machine i —
    // at set α, the child β ⊂ α containing i (the paper's line 8), if any.
    let mut below: Vec<Option<usize>> = vec![None; fam.num_machines()];

    for &alpha in fam.bottom_up_order() {
        // V ← Σ_j p_{αj} x_{αj}
        let mut v = volume_q(own[alpha]);
        let base = table.off[alpha];
        // foreach i ∈ α in ascending order
        for (pos, &i) in fam.members(alpha).iter().enumerate() {
            let k = base + pos;
            let under = below[i].map_or_else(Q::zero, |b| table.tot_load[b].clone());
            if under > *t {
                return Err(HierError::InvariantBroken(
                    "TOT-LOAD exceeded T below a set (Lemma IV.1 i)",
                ));
            }
            if v.is_positive() {
                let put = v.clone().min(t.clone() - under.clone());
                v -= put.clone();
                table.tot_load[k] = under + put.clone();
                table.load[k] = put;
            } else {
                table.tot_load[k] = under;
            }
            below[i] = Some(k);
        }
        if v.is_positive() {
            // Volume left over ⇒ constraint (2b) for α is violated.
            return Err(HierError::Infeasible(AssignmentViolation::CapacityExceeded {
                set: alpha,
            }));
        }
    }
    Ok(table)
}

/// Lemma IV.2 witness: for set `beta`, the machines `i ∈ β` carrying both
/// `LOAD[i, β] > 0` and `LOAD[i, α] > 0` for some strict superset `α`.
/// On loads produced by Algorithm 2 this has at most one element.
pub fn shared_machines(instance: &Instance, loads: &LoadTable, beta: usize) -> Vec<(usize, usize)> {
    let fam = instance.family();
    let mut out = Vec::new();
    for (&i, load) in fam.members(beta).iter().zip(loads.set_loads(beta)) {
        if !load.is_positive() {
            continue;
        }
        // Walk the parent chain to find the minimal strict superset with
        // positive load on i.
        let mut cur = fam.parent(beta);
        while let Some(alpha) = cur {
            if loads.load(alpha, i).is_positive() {
                out.push((i, alpha));
                break;
            }
            cur = fam.parent(alpha);
        }
    }
    out
}

/// Algorithms 2+3 end to end: produce a valid schedule in `[0, T]` for a
/// feasible `(assignment, T)` (Theorem IV.3).
pub fn schedule_hierarchical(
    instance: &Instance,
    assignment: &Assignment,
    t: &Q,
) -> Result<Schedule, HierError> {
    let own = assignment.ip2_volumes(instance, t).map_err(HierError::Infeasible)?;
    let fam = instance.family();
    let loads = allocate(fam, &own, t)?;

    // Jobs bucketed by set, ascending within each set (a counting sort).
    let mut job_off = vec![0usize; fam.len() + 1];
    for (_, a) in assignment.iter() {
        job_off[a + 1] += 1;
    }
    for a in 0..fam.len() {
        job_off[a + 1] += job_off[a];
    }
    let mut job_idx = vec![0usize; assignment.len()];
    let mut cursor = job_off.clone();
    for (j, a) in assignment.iter() {
        job_idx[cursor[a]] = j;
        cursor[a] += 1;
    }

    // t_at — the paper's t_{iα}: wall time (mod T) where the jobs of set
    // α end on machine i, flat over the member arena like the loads and
    // written where α has load on i (the only entries read).
    let mut t_at = vec![Q::zero(); fam.member_arena_len()];
    // above[i]: flat index of the last visited set with load on machine
    // i — at set β, the minimal strict superset α with LOAD[i, α] > 0.
    let mut above: Vec<Option<usize>> = vec![None; fam.num_machines()];
    let mut segments = Vec::new();

    for &beta in fam.top_down_order() {
        let members = fam.members(beta);
        let base = fam.member_base(beta);
        let beta_loads = &loads.load[base..base + members.len()];
        // Lines 4–10: pick the start machine ℓ and start time t_β.
        let mut shared = None;
        for (pos, load) in beta_loads.iter().enumerate() {
            if let (true, Some(k)) = (load.is_positive(), above[members[pos]]) {
                if shared.is_some() {
                    return Err(HierError::InvariantBroken(
                        "more than one shared machine for a set (Lemma IV.2)",
                    ));
                }
                shared = Some((pos, k));
            }
        }
        let (pivot, mut t_beta) = match shared {
            Some((pos, k)) => (pos, t_at[k].clone()),
            None => (0, Q::zero()),
        };

        // Job stream of β in ascending job order.
        let mut stream = JobStream::new(
            job_idx[job_off[beta]..job_off[beta + 1]]
                .iter()
                .map(|&j| (j, instance.ptime_q(j, beta).expect("check_ip2 verified finiteness"))),
        );

        // Lines 11–14: machines of β starting from ℓ, wrapping ascending.
        for pos in (pivot..members.len()).chain(0..pivot) {
            let d = &beta_loads[pos];
            if d.is_positive() {
                let k = members[pos];
                stream.place(k, &t_beta, d, t, &mut segments).map_err(HierError::Placement)?;
                t_beta += d.clone();
                if t_beta >= *t {
                    t_beta -= t.clone();
                }
                t_at[base + pos] = t_beta.clone();
                above[k] = Some(base + pos);
            }
        }
        if !stream.is_empty() {
            return Err(HierError::InvariantBroken("stream not exhausted (Lemma IV.1 ii)"));
        }
    }

    Ok(Schedule { segments: coalesce(segments) })
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

    #[test]
    fn example_iii_1_via_hierarchical() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        let sched = schedule_hierarchical(&inst, &asg, &q(2)).unwrap();
        sched.validate(&inst, &asg, &q(2)).unwrap();
        assert_eq!(sched.makespan(), q(2));
    }

    #[test]
    fn loads_cover_volume_exactly() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        let loads = allocate_loads(&inst, &asg, &q(2)).unwrap();
        // Lemma IV.1 ii: Σ_i LOAD[i, α] = volume(α) for every α.
        for a in 0..inst.family().len() {
            let placed = Q::sum(loads.set_loads(a).iter());
            assert_eq!(placed, asg.volume_on(&inst, a), "set {a}");
        }
        // Lemma IV.1 i: TOT-LOAD ≤ T everywhere (zero off-membership).
        for a in 0..inst.family().len() {
            for i in 0..2 {
                assert!(loads.tot_load(a, i) <= q(2));
            }
        }
    }

    #[test]
    fn lemma_iv_2_at_most_one_shared() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        let loads = allocate_loads(&inst, &asg, &q(2)).unwrap();
        for beta in 0..inst.family().len() {
            assert!(shared_machines(&inst, &loads, beta).len() <= 1, "set {beta}");
        }
    }

    #[test]
    fn clustered_three_levels() {
        // 4 machines in 2 clusters; one job per level of the hierarchy.
        let fam = topology::clustered(2, 2);
        // sets: 0 = M, 1 = {0,1}, 2 = {2,3}, 3..6 singletons.
        let inst = Instance::new(
            fam,
            vec![
                vec![Some(4), Some(3), Some(3), Some(2), Some(2), Some(2), Some(2)],
                vec![Some(4), Some(3), Some(3), Some(2), Some(2), Some(2), Some(2)],
                vec![Some(6), Some(5), Some(5), Some(4), Some(4), Some(4), Some(4)],
                vec![Some(6), Some(5), Some(5), Some(4), Some(4), Some(4), Some(4)],
            ],
        )
        .unwrap();
        // job 0 global, job 1 in cluster 0, job 2 on machine 2, job 3 cluster 1.
        let asg = Assignment::new(vec![0, 1, 5, 2]);
        let t = q(5);
        let sched = schedule_hierarchical(&inst, &asg, &t).unwrap();
        sched.validate(&inst, &asg, &t).unwrap();
    }

    #[test]
    fn deep_smp_cmp_tree() {
        let fam = topology::smp_cmp(&[2, 2, 2]); // 8 machines, 15 sets
                                                 // Monotone times: overhead grows with set size.
        let sizes: Vec<u64> = fam.sets().iter().map(|s| s.len() as u64).collect();
        let inst = Instance::from_fn(fam, 10, |j, a| Some(2 + (j % 3) as u64 + sizes[a])).unwrap();
        // Spread assignments over different levels, then find a feasible T.
        let asg = Assignment::new(vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 0]);
        let t = Q::from(asg.minimal_integral_horizon(&inst).unwrap());
        let sched = schedule_hierarchical(&inst, &asg, &t).unwrap();
        sched.validate(&inst, &asg, &t).unwrap();
    }

    #[test]
    fn infeasible_input_rejected() {
        let inst = example_ii_1();
        let asg = Assignment::new(vec![1, 2, 0]);
        assert!(matches!(schedule_hierarchical(&inst, &asg, &q(1)), Err(HierError::Infeasible(_))));
    }

    #[test]
    fn forest_without_root_set() {
        // Two disjoint clusters, no global set: scheduling per tree.
        let m = 4;
        let sets = vec![
            laminar::MachineSet::from_range(m, 0, 2),
            laminar::MachineSet::from_range(m, 2, 4),
            laminar::MachineSet::singleton(m, 0),
            laminar::MachineSet::singleton(m, 1),
            laminar::MachineSet::singleton(m, 2),
            laminar::MachineSet::singleton(m, 3),
        ];
        let fam = laminar::LaminarFamily::new(m, sets).unwrap();
        let inst = Instance::from_fn(fam, 4, |_, _| Some(3)).unwrap();
        let asg = Assignment::new(vec![0, 1, 2, 5]);
        let t = q(6);
        let sched = schedule_hierarchical(&inst, &asg, &t).unwrap();
        sched.validate(&inst, &asg, &t).unwrap();
    }

    #[test]
    fn tight_full_machine_load() {
        // Global volume exactly m·T: every machine completely busy.
        let inst = Instance::from_fn(topology::semi_partitioned(3), 9, |_, _| Some(2)).unwrap();
        let asg = Assignment::new(vec![0; 9]);
        let t = q(6); // 9·2 = 18 = 3·6
        let sched = schedule_hierarchical(&inst, &asg, &t).unwrap();
        sched.validate(&inst, &asg, &t).unwrap();
        for i in 0..3 {
            assert_eq!(sched.machine_load(i), q(6));
        }
    }

    #[test]
    fn migration_bound_holds_hierarchical() {
        // Proposition III.2-style bound check via the general scheduler on
        // semi-partitioned instances.
        for m in 2..6usize {
            let inst =
                Instance::from_fn(topology::semi_partitioned(m), 3 * m, |_, _| Some(3)).unwrap();
            let asg = Assignment::new(vec![0; 3 * m]);
            let t = q(9);
            let sched = schedule_hierarchical(&inst, &asg, &t).unwrap();
            sched.validate(&inst, &asg, &t).unwrap();
            assert!(sched.split_migrations() < m);
            assert!(sched.disruptions().total() <= 2 * m - 2);
        }
    }

    #[test]
    fn fractional_horizon() {
        let inst = Instance::from_fn(topology::semi_partitioned(2), 3, |_, _| Some(3)).unwrap();
        let asg = Assignment::new(vec![0, 0, 0]);
        let t = Q::ratio(9, 2); // volume 9 = 2 · 9/2
        let sched = schedule_hierarchical(&inst, &asg, &t).unwrap();
        sched.validate(&inst, &asg, &t).unwrap();
    }
}
