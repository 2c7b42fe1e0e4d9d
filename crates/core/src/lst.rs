//! Lenstra–Shmoys–Tardos rounding for unrelated machines.
//!
//! Theorem V.2 invokes the classic LST algorithm as a black box; this is
//! a full reimplementation. Given the unrelated-machines decision LP at
//! horizon `T` (variables pruned to `p_ij ≤ T`), the simplex returns a
//! *vertex* solution, whose fractional support forms a pseudoforest on
//! the bipartite (job, machine) graph. Jobs integrally assigned stay
//! put; the fractional jobs admit a perfect matching into machines, and
//! each machine receives at most one matched job of size ≤ `T`, so the
//! rounded makespan is at most `(machine load ≤ T) + T = 2T`.

use lp::{LinearProgram, LpStatus, Relation, Solver};
use numeric::Q;

/// Outcome of [`lst_assign`].
#[derive(Clone, Debug)]
pub struct LstAssignment {
    /// `machine_of[j]` — the machine each job is assigned to.
    pub machine_of: Vec<usize>,
    /// True if the theory-guaranteed matching failed and a largest-
    /// fraction fallback was used (never observed; kept for honesty).
    pub fallback_used: bool,
    /// The fractional vertex solution that was rounded, for diagnostics:
    /// `fractional[j]` lists `(machine, weight)` pairs.
    pub fractional: Vec<Vec<(usize, Q)>>,
}

impl LstAssignment {
    /// Load of each machine under the integral assignment.
    pub fn machine_loads(&self, p: &[Vec<Option<u64>>], m: usize) -> Vec<u64> {
        let mut loads = vec![0u64; m];
        for (j, &i) in self.machine_of.iter().enumerate() {
            loads[i] += p[j][i].expect("assigned pair is finite");
        }
        loads
    }

    /// Makespan (max machine load) of the integral assignment.
    pub fn makespan(&self, p: &[Vec<Option<u64>>], m: usize) -> u64 {
        self.machine_loads(p, m).into_iter().max().unwrap_or(0)
    }
}

/// The pruned unrelated-machines LP at horizon `t`: one variable per
/// pair `(j, i)` with `p_ij ≤ t` (job-major order), one assignment row
/// per job, then one capacity row per machine that has a pair. Returns
/// the LP and `var_of[j][i]` (`usize::MAX` = pruned), or `None` when
/// some job has no pair left.
fn pruned_lp(p: &[Vec<Option<u64>>], m: usize, t: u64) -> Option<(LinearProgram, Vec<Vec<usize>>)> {
    let n = p.len();
    let mut var_of = vec![vec![usize::MAX; m]; n];
    let mut num_vars = 0;
    for (j, row) in p.iter().enumerate() {
        assert_eq!(row.len(), m, "p must be n × m");
        for (i, time) in row.iter().enumerate() {
            if time.is_some_and(|time| time <= t) {
                var_of[j][i] = num_vars;
                num_vars += 1;
            }
        }
        if var_of[j].iter().all(|&v| v == usize::MAX) {
            return None;
        }
    }

    let mut lp = LinearProgram::new(num_vars);
    for j in 0..n {
        let coeffs: Vec<(usize, Q)> = (0..m)
            .filter(|&i| var_of[j][i] != usize::MAX)
            .map(|i| (var_of[j][i], Q::one()))
            .collect();
        lp.add_constraint(coeffs, Relation::Eq, Q::one());
    }
    for i in 0..m {
        let coeffs: Vec<(usize, Q)> = (0..n)
            .filter(|&j| var_of[j][i] != usize::MAX)
            .map(|j| (var_of[j][i], Q::from(p[j][i].expect("pair is finite"))))
            .collect();
        if !coeffs.is_empty() {
            lp.add_constraint(coeffs, Relation::Le, Q::from(t));
        }
    }
    Some((lp, var_of))
}

/// Solve the pruned unrelated-machines LP at horizon `t` and round it.
///
/// `p[j][i]` is the processing time of job `j` on machine `i` (`None` =
/// inadmissible). Returns `None` when the LP is infeasible at `t` (or
/// some job has no machine with `p_ij ≤ t`).
///
/// The LP runs under [`lp::Solver::Hybrid`]: a float simplex proposes a
/// basis, one exact factorization certifies it, and any failure falls
/// back to the exact solver, so feasibility is decided exactly. The
/// objective is zero, so the vertex is wherever phase 1 stops; the float
/// proposer mirrors Bland's rule, and on the instance families tested
/// (`hybrid_rounding_lp_returns_the_exact_vertex`) the certified vertex
/// is the exact solver's.
pub fn lst_assign(p: &[Vec<Option<u64>>], m: usize, t: u64) -> Option<LstAssignment> {
    let n = p.len();
    if n == 0 {
        return Some(LstAssignment {
            machine_of: Vec::new(),
            fallback_used: false,
            fractional: Vec::new(),
        });
    }
    let (lp, var_of) = pruned_lp(p, m, t)?;
    let (sol, _) = lp.solve_with(Solver::Hybrid.into());
    if sol.status != LpStatus::Optimal {
        return None;
    }

    // Split jobs into integral and fractional at the vertex.
    let mut machine_of = vec![usize::MAX; n];
    let mut fractional: Vec<Vec<(usize, Q)>> = vec![Vec::new(); n];
    let mut frac_jobs: Vec<usize> = Vec::new();
    for j in 0..n {
        let support: Vec<(usize, Q)> = (0..m)
            .filter(|&i| var_of[j][i] != usize::MAX)
            .map(|i| (i, sol.values[var_of[j][i]].clone()))
            .filter(|(_, w)| w.is_positive())
            .collect();
        if support.len() == 1 && support[0].1 == Q::one() {
            machine_of[j] = support[0].0;
        } else {
            frac_jobs.push(j);
        }
        fractional[j] = support;
    }

    // Match fractional jobs to machines along fractional edges (Kuhn's
    // augmenting paths). At a vertex the fractional graph is a
    // pseudoforest, which always admits a job-perfect matching.
    let mut matched_job_of_machine: Vec<Option<usize>> = vec![None; m];
    let mut fallback_used = false;

    fn try_augment(
        j: usize,
        fractional: &[Vec<(usize, Q)>],
        matched: &mut Vec<Option<usize>>,
        visited: &mut [bool],
    ) -> bool {
        for (i, _) in &fractional[j] {
            if visited[*i] {
                continue;
            }
            visited[*i] = true;
            let free = match matched[*i] {
                None => true,
                Some(j2) => try_augment(j2, fractional, matched, visited),
            };
            if free {
                matched[*i] = Some(j);
                return true;
            }
        }
        false
    }

    for &j in &frac_jobs {
        let mut visited = vec![false; m];
        if !try_augment(j, &fractional, &mut matched_job_of_machine, &mut visited) {
            fallback_used = true;
        }
    }
    for (i, j) in matched_job_of_machine.iter().enumerate() {
        if let Some(j) = j {
            machine_of[*j] = i;
        }
    }
    // Fallback: any still-unassigned fractional job takes its largest
    // fraction (theory says this never triggers; see LstAssignment docs).
    for &j in &frac_jobs {
        if machine_of[j] == usize::MAX {
            let best = fractional[j]
                .iter()
                .max_by(|a, b| a.1.cmp(&b.1))
                .expect("fractional jobs have support");
            machine_of[j] = best.0;
        }
    }

    Some(LstAssignment { machine_of, fallback_used, fractional })
}

/// Warm-started feasibility oracle for the pruned unrelated-machines LP
/// at varying horizons — the probes of [`lst_binary_search`].
///
/// The variable layout is *fixed*: one variable per finite `(job,
/// machine)` pair, with pairs pruned at a given `t` simply omitted from
/// that probe's constraints (feasibility-equivalent to the pruned LP of
/// [`lst_assign`]). Consecutive probes re-solve from the previous
/// optimal basis via [`lp::WarmCache`], reusing the parent basis
/// factorization whenever the basic columns survive the horizon change,
/// so a binary search re-solves incrementally instead of from scratch.
/// Probes run in [`lp::Solver::Hybrid`] mode (float proposal + exact
/// certification, exact fallback), so the answers stay exact.
pub struct LstProbe<'a> {
    p: &'a [Vec<Option<u64>>],
    m: usize,
    pairs: Vec<(usize, usize)>,
    cache: lp::WarmCache,
}

impl<'a> LstProbe<'a> {
    /// A probe over `p` (`n × m`, `None` = inadmissible pair).
    pub fn new(p: &'a [Vec<Option<u64>>], m: usize) -> Self {
        let mut pairs = Vec::new();
        for (j, row) in p.iter().enumerate() {
            assert_eq!(row.len(), m, "p must be n × m");
            for (i, time) in row.iter().enumerate() {
                if time.is_some() {
                    pairs.push((j, i));
                }
            }
        }
        let cache = lp::WarmCache::with_options(lp::Solver::Hybrid.into());
        LstProbe { p, m, pairs, cache }
    }

    /// The warm-start cache (pricing/certification counters for
    /// diagnostics and the harness ablations).
    pub fn cache(&self) -> &lp::WarmCache {
        &self.cache
    }

    /// Is the pruned LP feasible at horizon `t`? Returns exactly
    /// `lst_assign(p, m, t).is_some()`, computed incrementally.
    pub fn feasible(&mut self, t: u64) -> bool {
        let n = self.p.len();
        if n == 0 {
            return true;
        }
        // Early out: some job has every pair pruned.
        if self.p.iter().any(|row| !row.iter().flatten().any(|&time| time <= t)) {
            return false;
        }
        let mut by_job: Vec<Vec<(usize, Q)>> = vec![Vec::new(); n];
        let mut by_machine: Vec<Vec<(usize, Q)>> = vec![Vec::new(); self.m];
        for (v, &(j, i)) in self.pairs.iter().enumerate() {
            let time = self.p[j][i].expect("pair is finite");
            if time <= t {
                by_job[j].push((v, Q::one()));
                by_machine[i].push((v, Q::from(time)));
            }
        }
        let mut lp = LinearProgram::new(self.pairs.len());
        for coeffs in by_job {
            lp.add_constraint(coeffs, Relation::Eq, Q::one());
        }
        // One capacity row per machine at every probe (possibly empty):
        // a fixed row count keeps slack columns aligned across horizons.
        for coeffs in by_machine {
            lp.add_constraint(coeffs, Relation::Le, Q::from(t));
        }
        lp.solve_warm_cached(&mut self.cache).status == LpStatus::Optimal
    }
}

/// Greedy list scheduling in LPT order: jobs sorted by their *best*
/// processing time descending (stable, so ties keep job order); each goes
/// to the machine minimizing its completion `load + p_ij`, the lowest
/// index on ties. Returns `machine_of` and the makespan, or `None` if
/// some job has no admissible machine.
pub fn lpt_schedule(p: &[Vec<Option<u64>>], m: usize) -> Option<(Vec<usize>, u64)> {
    let best: Vec<u64> =
        p.iter().map(|row| row.iter().flatten().min().copied()).collect::<Option<_>>()?;
    let mut order: Vec<usize> = (0..p.len()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(best[j]));
    let mut load = vec![0u64; m];
    let mut machine_of = vec![0usize; p.len()];
    for &j in &order {
        let (i, _) = (0..m)
            .filter_map(|i| p[j][i].map(|pij| (i, load[i] + pij)))
            .min_by_key(|&(_, fin)| fin)?;
        machine_of[j] = i;
        load[i] += p[j][i].expect("admissible");
    }
    Some((machine_of, load.into_iter().max().unwrap_or(0)))
}

/// A bracket `[lo, hi]` on the LST deadline `T*`, with `hi` feasible, or
/// `None` if some job has no admissible machine.
///
/// `lo = max(1, max_j min_i p_ij, ⌈Σ_j min_i p_ij / m⌉)`: every job needs
/// a pair `p_ij ≤ T`, and the loads, each at most `T`, carry at least
/// `Σ_j min_i p_ij`. `hi` is the makespan of [`lpt_schedule`]. That
/// schedule is an integral point of the LP at its own makespan (every
/// assigned `p_ij` is at most its machine's load), so `hi` needs no
/// probe; and since each job lands where it finishes first, at most
/// `min_i p_ij` above the makespan so far, `hi ≤ Σ_j min_i p_ij`.
pub(crate) fn lst_bracket(p: &[Vec<Option<u64>>], m: usize) -> Option<(u64, u64)> {
    let (_, makespan) = lpt_schedule(p, m)?;
    let best: Vec<u64> = p.iter().filter_map(|row| row.iter().flatten().min().copied()).collect();
    let volume = best.iter().sum::<u64>().div_ceil(m.max(1) as u64);
    let lo = best.into_iter().max().unwrap_or(0).max(volume).max(1);
    Some((lo, makespan.max(lo)))
}

/// The least `t` in `[lo, hi]` with `feasible(t)`, for a monotone
/// `feasible` that holds at `hi` (never probed there).
pub(crate) fn least_feasible(
    mut lo: u64,
    mut hi: u64,
    mut feasible: impl FnMut(u64) -> bool,
) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The minimal integral `t ≥ 1` for which the pruned LP is feasible (the
/// LST deadline `T*`) and its rounding, or `None` if some job has no
/// admissible machine.
///
/// The search brackets `T*` itself — a volume and bottleneck lower bound,
/// and the makespan of [`lpt_schedule`] as a feasible upper bound — and
/// probes only inside `[lo, hi)` through the warm-started [`LstProbe`].
/// Only the final rounding at `T*` solves cold, so the returned vertex —
/// and hence the rounded assignment — is identical to the unsearched
/// `lst_assign(p, m, T*)`.
pub fn lst_binary_search(p: &[Vec<Option<u64>>], m: usize) -> Option<(u64, LstAssignment)> {
    let (lo, hi) = lst_bracket(p, m)?;
    let mut probe = LstProbe::new(p, m);
    let t_star = least_feasible(lo, hi, |t| probe.feasible(t));
    lst_assign(p, m, t_star).map(|a| (t_star, a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_jobs_spread_out() {
        // 4 jobs of length 3 on 2 machines, t = 6: loads must be 6/6.
        let p = vec![vec![Some(3), Some(3)]; 4];
        let a = lst_assign(&p, 2, 6).unwrap();
        assert!(!a.fallback_used);
        let loads = a.machine_loads(&p, 2);
        assert_eq!(loads.iter().max(), Some(&6));
    }

    #[test]
    fn infeasible_when_too_tight() {
        let p = vec![vec![Some(3), Some(3)]; 4];
        assert!(lst_assign(&p, 2, 5).is_none(), "volume 12 > 2·5");
        assert!(lst_assign(&p, 2, 2).is_none(), "3 > 2 prunes everything");
    }

    #[test]
    fn two_t_guarantee() {
        // Random-ish heterogeneous instance; rounded makespan ≤ 2 t*.
        let p: Vec<Vec<Option<u64>>> = (0..6)
            .map(|j| (0..3).map(|i| Some(1 + ((j * 7 + i * 13) % 10) as u64)).collect())
            .collect();
        let (t_star, a) = lst_binary_search(&p, 3).unwrap();
        assert!(!a.fallback_used);
        assert!(a.makespan(&p, 3) <= 2 * t_star, "LST bound violated");
    }

    #[test]
    fn respects_inadmissible_pairs() {
        // Job 0 only on machine 0; job 1 only on machine 1.
        let p = vec![vec![Some(5), None], vec![None, Some(4)]];
        let a = lst_assign(&p, 2, 5).unwrap();
        assert_eq!(a.machine_of, vec![0, 1]);
    }

    #[test]
    fn restricted_assignment_fractional_cycle() {
        // Classic fractional-vertex situation: 3 jobs, 3 machines, each
        // job splittable over two machines in a cycle. At the minimal t
        // the vertex has fractional support and the matching resolves it.
        let p = vec![
            vec![Some(2), Some(2), None],
            vec![None, Some(2), Some(2)],
            vec![Some(2), None, Some(2)],
        ];
        let (t_star, a) = lst_binary_search(&p, 3).unwrap();
        assert_eq!(t_star, 2);
        assert!(a.makespan(&p, 3) <= 4);
        // All three jobs on distinct machines is the only way ≤ 2·2 here
        // within masks; check validity of masks.
        for (j, &i) in a.machine_of.iter().enumerate() {
            assert!(p[j][i].is_some());
        }
    }

    #[test]
    fn single_machine_stacks() {
        let p = vec![vec![Some(2)], vec![Some(3)], vec![Some(4)]];
        let (t_star, a) = lst_binary_search(&p, 1).unwrap();
        assert_eq!(t_star, 9);
        assert_eq!(a.makespan(&p, 1), 9);
    }

    #[test]
    fn empty_input() {
        let a = lst_assign(&[], 3, 1).unwrap();
        assert!(a.machine_of.is_empty());
    }

    #[test]
    fn closed_bracket_needs_no_probe() {
        // The bottleneck bound meets the LPT makespan: T* = 1000 with no
        // probe at all.
        let p = vec![vec![Some(1000)]];
        assert_eq!(lst_bracket(&p, 1), Some((1000, 1000)));
        let t_star = least_feasible(1000, 1000, |_| unreachable!("closed bracket"));
        assert_eq!(t_star, 1000);
        let (t_star, a) = lst_binary_search(&p, 1).unwrap();
        assert_eq!((t_star, a.machine_of), (1000, vec![0]));
    }

    #[test]
    fn hybrid_rounding_lp_returns_the_exact_vertex() {
        // The perfbench offline shapes at their T*: the zero-objective
        // LST LP has one vertex Bland's phase 1 reaches, and the hybrid
        // must certify exactly that vertex.
        use laminar::topology;
        let mut rng = workloads::rng(15);
        let families = [
            topology::semi_partitioned(8),
            topology::semi_partitioned(24),
            topology::clustered(3, 4),
            topology::clustered(2, 11),
            topology::smp_cmp(&[2, 2, 2]),
            topology::smp_cmp(&[3, 2, 4]),
        ];
        for (family, n) in families.iter().flat_map(|f| [20, 34, 48].map(|n| (f, n))) {
            let inst =
                workloads::random::overhead_instance(family.clone(), n, 5, 60, 1, 4, &mut rng);
            let completed = inst.with_singletons();
            let m = completed.num_machines();
            // `approx::singleton_times` by hand: `workloads` builds the
            // library's `Instance`, not this test build's.
            let singles = completed.singleton_index();
            let p: Vec<Vec<Option<u64>>> = (0..n)
                .map(|j| (0..m).map(|i| singles[i].and_then(|a| completed.ptime(j, a))).collect())
                .collect();
            let (t_star, _) = lst_binary_search(&p, m).unwrap();
            let (lp, _) = pruned_lp(&p, m, t_star).unwrap();
            let (exact, _) = lp.solve_with(Solver::Revised.into());
            let (hybrid, stats) = lp.solve_with(Solver::Hybrid.into());
            let shape = format!("n {n}, m {m}, |A| {}, T* {t_star}", completed.family().len());
            assert_eq!(exact.status, LpStatus::Optimal, "{shape}");
            assert_eq!(hybrid.values, exact.values, "{shape}: same vertex");
            assert_eq!(stats.hybrid_certified, 1, "{shape}: certified, no fallback");
        }
    }
}
