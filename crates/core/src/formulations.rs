//! LP/ILP builders for the paper's programs (IP-1)…(IP-3).
//!
//! (IP-1) is the semi-partitioned special case of (IP-2), so a single
//! builder covers both. The decision form (IP-3) fixes `T`, prunes the
//! variable set to `R = {(α, j) : p_{αj} ≤ T}` (which absorbs constraint
//! (2c)), and asks for feasibility of the assignment + capacity system.

use lp::{LinearProgram, LpStatus, Relation};
use numeric::Q;

use crate::assignment::Assignment;
use crate::instance::Instance;

/// Maps LP variable indices to `(set, job)` pairs of the pruned set `R`.
#[derive(Clone, Debug)]
pub struct VarMap {
    pairs: Vec<(usize, usize)>,
    /// The variables ordered by `(set, job)`, then by `(job, set)`: each
    /// set's and each job's variables form one run of these, and
    /// [`var`](Self::var) binary-searches the first.
    by_set: Vec<usize>,
    by_job: Vec<usize>,
}

impl VarMap {
    /// Build from an ordered list of distinct pairs.
    pub fn new(pairs: Vec<(usize, usize)>) -> Self {
        let mut by_set: Vec<usize> = (0..pairs.len()).collect();
        if !pairs.is_sorted() {
            by_set.sort_unstable_by_key(|&v| pairs[v]);
        }
        let mut by_job = by_set.clone();
        by_job.sort_by_key(|&v| pairs[v].1);
        VarMap { pairs, by_set, by_job }
    }

    /// One variable per finite `(set, job)` pair, set-major — the fixed
    /// layout every horizon of a binary search shares (see
    /// [`build_ip3_fixed`]).
    pub fn finite(instance: &Instance) -> Self {
        let mut pairs = Vec::new();
        for a in 0..instance.family().len() {
            for j in 0..instance.num_jobs() {
                if instance.ptime(j, a).is_some() {
                    pairs.push((a, j));
                }
            }
        }
        VarMap::new(pairs)
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff there are no variables.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Variable index of pair `(set, job)`, if in `R`.
    pub fn var(&self, set: usize, job: usize) -> Option<usize> {
        let k = self.by_set.binary_search_by_key(&(set, job), |&v| self.pairs[v]).ok()?;
        Some(self.by_set[k])
    }

    /// The variables of `set`'s pairs, by job.
    fn set_vars(&self, set: usize) -> &[usize] {
        let lo = self.by_set.partition_point(|&v| self.pairs[v].0 < set);
        let hi = self.by_set.partition_point(|&v| self.pairs[v].0 <= set);
        &self.by_set[lo..hi]
    }

    /// The variables of `job`'s pairs, by set.
    fn job_vars(&self, job: usize) -> &[usize] {
        let lo = self.by_job.partition_point(|&v| self.pairs[v].1 < job);
        let hi = self.by_job.partition_point(|&v| self.pairs[v].1 <= job);
        &self.by_job[lo..hi]
    }

    /// Pair `(set, job)` of variable `v`.
    pub fn pair(&self, v: usize) -> (usize, usize) {
        self.pairs[v]
    }

    /// All pairs in variable order.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }
}

/// Build the decision system (IP-3) for integral horizon `t`:
/// variables over `R`, one assignment equality per job, one capacity
/// constraint `Σ_j Σ_{β⊆α} p_βj x_βj ≤ |α|·t` per set `α`.
///
/// Returns `None` when some job has no admissible pair in `R` — then no
/// (fractional or integral) solution exists at this `t`.
pub fn build_ip3(instance: &Instance, t: u64) -> Option<(LinearProgram, VarMap)> {
    let vm = VarMap::new(instance.pruned_pairs(t));
    // Every job needs at least one variable.
    if (0..instance.num_jobs()).any(|j| vm.job_vars(j).is_empty()) {
        return None;
    }
    let mut lp = LinearProgram::new(vm.len());
    // Assignment constraints: Σ_α x_αj = 1 for every job.
    for j in 0..instance.num_jobs() {
        lp.add_constraint(vm.job_vars(j).iter().map(|&v| (v, Q::one())), Relation::Eq, Q::one());
    }
    // Capacity constraints (3a): Σ_j Σ_{β⊆α} p_βj x_βj ≤ |α|·t.
    for a in 0..instance.family().len() {
        let row = (instance.subsets_of(a).into_iter()).flat_map(|b| vm.set_vars(b)).map(|&v| {
            let (b, j) = vm.pair(v);
            (v, instance.ptime_q(j, b).expect("pairs in R are finite"))
        });
        let cap = Q::from(instance.family().set(a).len() as u64) * Q::from(t);
        lp.add_constraint(row, Relation::Le, cap);
    }
    Some((lp, vm))
}

/// The decision system (IP-3) at horizon `t` over a *fixed* layout `vm`
/// (normally [`VarMap::finite`]; it must hold every finite pair): pairs
/// with `p_{αj} > t` are omitted from every constraint, which is
/// feasibility-equivalent to the pruned program of [`build_ip3`] (a
/// variable appearing in no constraint never carries weight at a
/// returned vertex). A job with every pair pruned gets an empty `0 = 1`
/// row, the fixed-layout encoding of `build_ip3 == None`, and every set
/// keeps its capacity row, so the row count — and with it the
/// slack-column layout — is the same at every horizon.
pub fn build_ip3_fixed(instance: &Instance, vm: &VarMap, t: u64) -> LinearProgram {
    // The processing time of variable `v`'s pair, if admitted at `t`.
    let admitted = |v: usize| {
        let (a, j) = vm.pair(v);
        instance.ptime(j, a).filter(|&p| p <= t)
    };
    let mut lp = LinearProgram::new(vm.len());
    for j in 0..instance.num_jobs() {
        let row = vm.job_vars(j).iter().filter(|&&v| admitted(v).is_some()).map(|&v| (v, Q::one()));
        lp.add_constraint(row, Relation::Eq, Q::one());
    }
    for a in 0..instance.family().len() {
        let row = (instance.subsets_of(a).into_iter())
            .flat_map(|b| vm.set_vars(b))
            .filter_map(|&v| admitted(v).map(|p| (v, Q::from(p))));
        let cap = Q::from(instance.family().set(a).len() as u64) * Q::from(t);
        lp.add_constraint(row, Relation::Le, cap);
    }
    lp
}

/// Warm-started feasibility oracle for the LP relaxation of (IP-3) —
/// the hot path of every binary search on the horizon `T`.
///
/// Unlike [`build_ip3`], the variable layout is *fixed* across horizons
/// ([`VarMap::finite`]; each probe's program comes from
/// [`build_ip3_fixed`]). The fixed layout is what lets consecutive
/// probes re-solve from the previous optimal basis via
/// [`lp::WarmCache`] — reusing the parent's basis
/// *factorization* outright whenever the basic columns survive the
/// horizon change — instead of re-running the two-phase simplex from
/// scratch. Probes run in [`lp::Solver::Hybrid`] mode: an `f64` simplex
/// proposes the basis and one exact factorization certifies it, with a
/// silent exact fallback, so the answers stay exact.
pub struct Ip3Probe<'a> {
    instance: &'a Instance,
    vm: VarMap,
    cache: lp::WarmCache,
}

impl<'a> Ip3Probe<'a> {
    /// A probe for `instance` with an empty warm-start state.
    pub fn new(instance: &'a Instance) -> Self {
        Ip3Probe {
            instance,
            vm: VarMap::finite(instance),
            cache: lp::WarmCache::with_options(lp::Solver::Hybrid.into()),
        }
    }

    /// The fixed variable layout (all finite pairs, pruned or not).
    pub fn varmap(&self) -> &VarMap {
        &self.vm
    }

    /// Feasibility at horizon `t`; on success returns a vertex of the
    /// relaxation (support only on pairs with `p ≤ t`) and remembers the
    /// optimal basis (and its factorization) for the next probe.
    pub fn solve(&mut self, t: u64) -> Option<Vec<Q>> {
        let lp = build_ip3_fixed(self.instance, &self.vm, t);
        let sol = lp.solve_warm_cached(&mut self.cache);
        if sol.status != LpStatus::Optimal {
            return None;
        }
        Some(sol.values)
    }

    /// The warm-start cache (pricing/certification counters for
    /// diagnostics and the harness ablations).
    pub fn cache(&self) -> &lp::WarmCache {
        &self.cache
    }
}

/// Fractional lower-bound LP for horizon `t` (Lawler–Labetoulle-style):
/// like (IP-3)'s relaxation but with *fractional* pruning
/// `p_αj · x_αj ≤ t` instead of dropping pairs. Its feasibility at
/// `t = OPT` holds for every instance, so the minimal feasible `t` is a
/// valid lower bound on the optimal makespan — used by the experiments
/// to report ratios without solving the NP-hard problem on large inputs.
pub fn build_fractional_lb(instance: &Instance, t: u64) -> (LinearProgram, VarMap) {
    let vm = VarMap::finite(instance);
    let mut lp = LinearProgram::new(vm.len());
    for j in 0..instance.num_jobs() {
        let coeffs: Vec<(usize, Q)> = (0..instance.family().len())
            .filter_map(|a| vm.var(a, j).map(|v| (v, Q::one())))
            .collect();
        lp.add_constraint(coeffs, Relation::Eq, Q::one());
    }
    for a in 0..instance.family().len() {
        let mut coeffs: Vec<(usize, Q)> = Vec::new();
        for b in instance.subsets_of(a) {
            for j in 0..instance.num_jobs() {
                if let Some(v) = vm.var(b, j) {
                    coeffs.push((v, instance.ptime_q(j, b).expect("finite")));
                }
            }
        }
        let cap = Q::from(instance.family().set(a).len() as u64) * Q::from(t);
        lp.add_constraint(coeffs, Relation::Le, cap);
    }
    // Fractional pruning: p_αj x_αj ≤ t.
    for v in 0..vm.len() {
        let (a, j) = vm.pair(v);
        let p = instance.ptime_q(j, a).expect("finite");
        if p.is_positive() {
            lp.add_constraint(vec![(v, p)], Relation::Le, Q::from(t));
        }
    }
    (lp, vm)
}

/// Decode a 0/1 LP solution into an [`Assignment`]. Returns `None` if any
/// job's variables are not an exact 0/1 unit vector.
pub fn assignment_from_solution(
    instance: &Instance,
    vm: &VarMap,
    values: &[Q],
) -> Option<Assignment> {
    let mut mask = vec![usize::MAX; instance.num_jobs()];
    for v in 0..vm.len() {
        let x = &values[v];
        if x.is_zero() {
            continue;
        }
        if *x != Q::one() {
            return None;
        }
        let (a, j) = vm.pair(v);
        if mask[j] != usize::MAX {
            return None;
        }
        mask[j] = a;
    }
    mask.iter().all(|&a| a != usize::MAX).then(|| Assignment::new(mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar::topology;
    use lp::LpStatus;

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
    fn ip3_feasible_at_2_no_vars_below() {
        let inst = example_ii_1();
        let (lp, _) = build_ip3(&inst, 2).unwrap();
        assert_eq!(lp.solve().status, LpStatus::Optimal);
        // At t = 1 job 3 has no pair in R.
        assert!(build_ip3(&inst, 1).is_none());
    }

    #[test]
    fn ip3_volume_constraint_binds() {
        let inst = Instance::new(
            topology::semi_partitioned(2),
            vec![
                vec![Some(3), Some(3), Some(3)],
                vec![Some(3), Some(3), Some(3)],
                vec![Some(3), Some(3), Some(3)],
            ],
        )
        .unwrap();
        // Volume 9 over 2 machines → needs 2t ≥ 9, i.e. t ≥ 5 integrally.
        let (lp5, _) = build_ip3(&inst, 5).unwrap();
        assert_eq!(lp5.solve().status, LpStatus::Optimal);
        let (lp4, _) = build_ip3(&inst, 4).unwrap();
        assert_eq!(lp4.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn varmap_roundtrip() {
        let inst = example_ii_1();
        let (_, vm) = build_ip3(&inst, 2).unwrap();
        for v in 0..vm.len() {
            let (a, j) = vm.pair(v);
            assert_eq!(vm.var(a, j), Some(v));
        }
        assert_eq!(vm.var(0, 0), None, "job 0 cannot run globally");
    }

    #[test]
    fn capacity_counts_subset_volume() {
        // Local volumes count against the root capacity (2b at α = M).
        let inst = Instance::new(
            topology::semi_partitioned(2),
            vec![vec![Some(4), Some(4), Some(4)], vec![Some(4), Some(4), Some(4)]],
        )
        .unwrap();
        // t = 3: pairs are pruned (4 > 3) → no variables for either job.
        assert!(build_ip3(&inst, 3).is_none());
        let (lp4, _) = build_ip3(&inst, 4).unwrap();
        assert_eq!(lp4.solve().status, LpStatus::Optimal);
    }

    #[test]
    fn fractional_lb_allows_splitting() {
        let inst = example_ii_1();
        let (lb2, _) = build_fractional_lb(&inst, 2);
        assert_eq!(lb2.solve().status, LpStatus::Optimal);
        // At t = 1: jobs 1,2 fill both machines completely (volume 2 = 2·1);
        // job 3 needs 2 more units → root capacity 2·1 < 4. Infeasible.
        let (lb1, _) = build_fractional_lb(&inst, 1);
        assert_eq!(lb1.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn decode_integral_solution() {
        let inst = example_ii_1();
        let (lp, vm) = build_ip3(&inst, 2).unwrap();
        let milp = lp::solve_binary(
            &lp,
            &(0..vm.len()).collect::<Vec<_>>(),
            &lp::BnbOptions { first_feasible: true, ..Default::default() },
        );
        assert_eq!(milp.status, lp::MilpStatus::Optimal);
        let asg = assignment_from_solution(&inst, &vm, &milp.values).unwrap();
        assert!(asg.check_ip2(&inst, &Q::from_int(2)).is_ok());
    }

    #[test]
    fn decode_rejects_fractional() {
        let inst = example_ii_1();
        let (_, vm) = build_ip3(&inst, 2).unwrap();
        let half = vec![Q::ratio(1, 2); vm.len()];
        assert!(assignment_from_solution(&inst, &vm, &half).is_none());
    }
}
