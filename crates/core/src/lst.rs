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

use lp::{LinearProgram, LpStatus, Relation};
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

/// Solve the pruned unrelated-machines LP at horizon `t` and round it.
///
/// `p[j][i]` is the processing time of job `j` on machine `i` (`None` =
/// inadmissible). Returns `None` when the LP is infeasible at `t` (or
/// some job has no machine with `p_ij ≤ t`).
pub fn lst_assign(p: &[Vec<Option<u64>>], m: usize, t: u64) -> Option<LstAssignment> {
    let n = p.len();
    if n == 0 {
        return Some(LstAssignment {
            machine_of: Vec::new(),
            fallback_used: false,
            fractional: Vec::new(),
        });
    }
    // Variable layout: pairs (j, i) with p[j][i] ≤ t.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (j, row) in p.iter().enumerate() {
        assert_eq!(row.len(), m, "p must be n × m");
        let mut any = false;
        for (i, time) in row.iter().enumerate() {
            if let Some(time) = time {
                if *time <= t {
                    pairs.push((j, i));
                    any = true;
                }
            }
        }
        if !any {
            return None;
        }
    }
    let var_of = {
        let mut map = vec![vec![usize::MAX; m]; n];
        for (v, &(j, i)) in pairs.iter().enumerate() {
            map[j][i] = v;
        }
        map
    };

    let mut lp = LinearProgram::new(pairs.len());
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
    let sol = lp.solve();
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
/// at varying horizons — the hot loop of [`lst_binary_search`].
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

/// Binary-search the minimal integral `t` for which the pruned LP is
/// feasible (the LST deadline `T*`), between `lo` and `hi` inclusive.
/// Returns the minimal feasible `t` and its rounding.
///
/// The probes run through the warm-started [`LstProbe`]; only the final
/// rounding at the minimal `t` solves cold (so the returned vertex — and
/// hence the rounded assignment — is identical to the unsearched
/// `lst_assign(p, m, t*)`).
pub fn lst_binary_search(
    p: &[Vec<Option<u64>>],
    m: usize,
    mut lo: u64,
    mut hi: u64,
) -> Option<(u64, LstAssignment)> {
    let mut probe = LstProbe::new(p, m);
    // Ensure hi is feasible; expand geometrically if the caller's bound
    // was too tight.
    let mut guard = 0;
    while !probe.feasible(hi) {
        hi = hi.saturating_mul(2).max(1);
        guard += 1;
        if guard > 64 {
            return None;
        }
    }
    if lo > hi {
        lo = hi;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe.feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lst_assign(p, m, lo).map(|a| (lo, a))
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
        let (t_star, a) = lst_binary_search(&p, 3, 1, 100).unwrap();
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
        let (t_star, a) = lst_binary_search(&p, 3, 1, 10).unwrap();
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
        let (t_star, a) = lst_binary_search(&p, 1, 1, 100).unwrap();
        assert_eq!(t_star, 9);
        assert_eq!(a.makespan(&p, 1), 9);
    }

    #[test]
    fn empty_input() {
        let a = lst_assign(&[], 3, 1).unwrap();
        assert!(a.machine_of.is_empty());
    }

    #[test]
    fn binary_search_expands_hi() {
        let p = vec![vec![Some(1000)]];
        let (t_star, _) = lst_binary_search(&p, 1, 1, 2).unwrap();
        assert_eq!(t_star, 1000);
    }
}
