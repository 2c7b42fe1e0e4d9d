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
//!
//! The bound holds for *any* vertex, so every LP here starts from the
//! LPT list schedule ([`lpt_schedule`]; Graham, SIAM J. Appl. Math.
//! 1969). Its columns `x_{j,LPT(j)}` and the capacity slacks form a
//! block-triangular, nonsingular basis. When the LPT makespan is at most
//! `T` that basis is feasible: the 0/1 point is a vertex, LST rounds it
//! to itself, and no LP is solved at all. Otherwise the dual simplex
//! starts there and only repairs the over-full machines. [`lst_assign`]
//! then returns the better of its rounding and the LPT schedule, so the
//! makespan is at most both `2T` and the LPT makespan.
//!
//! [`lst_binary_search`] finds the least feasible `T` (the deadline
//! `T*`) by bisection between a volume/bottleneck bound and the LPT
//! makespan, except on identical machines: when every job takes the
//! same finite time on every machine, as on the singletons of the
//! paper's migration-overhead model, McNaughton's wrap-around rule
//! (Management Science, 1959) fills the machines to that lower bound,
//! `max(p_max, ⌈Σ_j p_j / m⌉)`, without overlap. Its fractions are a
//! feasible point of the LP there, so the bound is `T*`, no probe runs,
//! and only the rounding LP is solved.

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
    /// The vertex solution that was rounded, for diagnostics:
    /// `fractional[j]` lists `(machine, weight)` pairs.
    pub fractional: Vec<Vec<(usize, Q)>>,
    /// Makespan of the LST rounding itself, at most `2t`. `machine_of`
    /// holds the LPT schedule instead when that is strictly shorter.
    pub lst_makespan: u64,
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
/// the LP and the flat table `var_of[j * m + i]` (`usize::MAX` =
/// pruned), or `None` when some job has no pair left.
fn pruned_lp(p: &[Vec<Option<u64>>], m: usize, t: u64) -> Option<(LinearProgram, Vec<usize>)> {
    let n = p.len();
    let mut var_of = vec![usize::MAX; n * m];
    let mut num_vars = 0;
    let mut used = vec![false; m];
    for (j, row) in p.iter().enumerate() {
        assert_eq!(row.len(), m, "p must be n × m");
        let first = num_vars;
        for (i, time) in row.iter().enumerate() {
            if time.is_some_and(|time| time <= t) {
                var_of[j * m + i] = num_vars;
                num_vars += 1;
                used[i] = true;
            }
        }
        if num_vars == first {
            return None;
        }
    }

    let mut lp = LinearProgram::new(num_vars);
    for vars in var_of.chunks(m.max(1)) {
        let row = vars.iter().filter(|&&v| v != usize::MAX).map(|&v| (v, Q::one()));
        lp.add_constraint(row, Relation::Eq, Q::one());
    }
    for i in (0..m).filter(|&i| used[i]) {
        let row = (0..n)
            .filter(|&j| var_of[j * m + i] != usize::MAX)
            .map(|j| (var_of[j * m + i], Q::from(p[j][i].expect("pair is finite"))));
        lp.add_constraint(row, Relation::Le, Q::from(t));
    }
    Some((lp, var_of))
}

/// The pruned LP at `t` solved under [`lp::Solver::Hybrid`] from the LPT
/// basis: each surviving column `x_{j,lpt[j]}` plus every capacity slack
/// (a job whose LPT pair is pruned leaves its row to the crash). Returns
/// the vertex's support, `support[j]` = job `j`'s positive `(machine,
/// weight)` pairs, and the cache holding the solve's counters; `None`
/// when the LP is infeasible.
fn seeded_vertex(
    p: &[Vec<Option<u64>>],
    m: usize,
    t: u64,
    lpt: &[usize],
) -> Option<(Vec<Vec<(usize, Q)>>, lp::WarmCache)> {
    let (lp, var_of) = pruned_lp(p, m, t)?;
    let num_vars = lp.num_vars();
    let mut hint: Vec<usize> = (lpt.iter().enumerate())
        .map(|(j, &i)| var_of[j * m + i])
        .filter(|&v| v != usize::MAX)
        .collect();
    hint.extend(num_vars..num_vars + lp.num_constraints() - p.len());
    let mut cache = lp::WarmCache::with_options(Solver::Hybrid.into());
    cache.set_hint(hint);
    let sol = lp.solve_warm_cached(&mut cache);
    if sol.status != LpStatus::Optimal {
        return None;
    }
    let support = var_of
        .chunks(m.max(1))
        .map(|vars| {
            vars.iter()
                .enumerate()
                .filter(|&(_, &v)| v != usize::MAX && sol.values[v].is_positive())
                .map(|(i, &v)| (i, sol.values[v].clone()))
                .collect()
        })
        .collect();
    Some((support, cache))
}

/// LST rounding of a vertex's support: integral jobs stay put, and the
/// fractional ones are matched to machines along fractional edges
/// (Kuhn's augmenting paths). At a vertex the fractional graph is a
/// pseudoforest, which always admits a job-perfect matching. Returns
/// `machine_of` and whether the largest-fraction fallback fired.
fn round_vertex(fractional: &[Vec<(usize, Q)>], m: usize) -> (Vec<usize>, bool) {
    let n = fractional.len();
    let mut machine_of = vec![usize::MAX; n];
    let mut frac_jobs: Vec<usize> = Vec::new();
    for (j, support) in fractional.iter().enumerate() {
        if support.len() == 1 && support[0].1 == Q::one() {
            machine_of[j] = support[0].0;
        } else {
            frac_jobs.push(j);
        }
    }

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
        if !try_augment(j, fractional, &mut matched_job_of_machine, &mut visited) {
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
    (machine_of, fallback_used)
}

/// An LST assignment at horizon `t`: a vertex of the pruned LP, rounded,
/// with makespan at most `2t` and at most the LPT makespan.
///
/// `p[j][i]` is the processing time of job `j` on machine `i` (`None` =
/// inadmissible). Returns `None` when the LP is infeasible at `t` (or
/// some job has no machine with `p_ij ≤ t`).
///
/// The vertex comes from [`lpt_schedule`]. When the LPT makespan is at
/// most `t`, its assignment is a 0/1 feasible point, hence a vertex that
/// LST rounds to itself: it is returned and no LP is solved. Otherwise
/// the LP runs under [`lp::Solver::Hybrid`] from the LPT basis (a float
/// dual simplex repairs the over-full machines, one exact factorization
/// certifies the vertex, and any failure falls back to the exact solver,
/// so feasibility is decided exactly), that vertex is LST-rounded, and
/// the LPT schedule replaces the rounding when it is strictly shorter.
/// [`LstAssignment::lst_makespan`] keeps the rounding's own makespan.
pub fn lst_assign(p: &[Vec<Option<u64>>], m: usize, t: u64) -> Option<LstAssignment> {
    let (lpt, lpt_makespan) = lpt_schedule(p, m)?;
    assign_from_lpt(p, m, t, lpt, lpt_makespan)
}

/// [`lst_assign`] given the [`lpt_schedule`] of `p`.
fn assign_from_lpt(
    p: &[Vec<Option<u64>>],
    m: usize,
    t: u64,
    lpt: Vec<usize>,
    lpt_makespan: u64,
) -> Option<LstAssignment> {
    if lpt_makespan <= t {
        return Some(LstAssignment {
            fractional: lpt.iter().map(|&i| vec![(i, Q::one())]).collect(),
            machine_of: lpt,
            fallback_used: false,
            lst_makespan: lpt_makespan,
        });
    }
    let (fractional, _) = seeded_vertex(p, m, t, &lpt)?;
    let (machine_of, fallback_used) = round_vertex(&fractional, m);
    let mut rounding = LstAssignment { machine_of, fallback_used, fractional, lst_makespan: 0 };
    rounding.lst_makespan = rounding.makespan(p, m);
    if lpt_makespan < rounding.lst_makespan {
        rounding.machine_of = lpt;
    }
    Some(rounding)
}

/// Warm-started feasibility oracle for the pruned unrelated-machines LP
/// at varying horizons — the probes of [`lst_binary_search`].
///
/// The variable layout is *fixed*: one variable per finite `(job,
/// machine)` pair, with pairs pruned at a given `t` simply omitted from
/// that probe's constraints (feasibility-equivalent to the pruned LP of
/// [`lst_assign`]). The first probe starts from the LPT basis (each
/// column of `(j, LPT(j))` plus the slack of every capacity row), so
/// below the LPT makespan the dual simplex only repairs the over-full
/// machines instead of running a cold phase 1. Later probes re-solve
/// from the previous optimal basis via [`lp::WarmCache`], reusing the
/// parent basis factorization whenever the basic columns survive the
/// horizon change. Probes run in [`lp::Solver::Hybrid`] mode (float
/// proposal + exact certification, exact fallback), so the answers stay
/// exact.
pub struct LstProbe<'a> {
    p: &'a [Vec<Option<u64>>],
    m: usize,
    /// `var_of[j * m + i]`: the variable of the finite pair `(j, i)`.
    var_of: Vec<usize>,
    num_vars: usize,
    cache: lp::WarmCache,
}

impl<'a> LstProbe<'a> {
    /// A probe over `p` (`n × m`, `None` = inadmissible pair), seeded
    /// with the LPT basis.
    pub fn new(p: &'a [Vec<Option<u64>>], m: usize) -> Self {
        let lpt = lpt_schedule(p, m).map(|(machine_of, _)| machine_of);
        Self::seeded(p, m, lpt.as_deref())
    }

    /// A probe seeded with the given LPT assignment (`None`: cold).
    fn seeded(p: &'a [Vec<Option<u64>>], m: usize, lpt: Option<&[usize]>) -> Self {
        let mut var_of = vec![usize::MAX; p.len() * m];
        let mut num_vars = 0;
        let mut hint = Vec::new();
        for (j, row) in p.iter().enumerate() {
            assert_eq!(row.len(), m, "p must be n × m");
            for (i, time) in row.iter().enumerate() {
                if time.is_some() {
                    if lpt.is_some_and(|lpt| lpt[j] == i) {
                        hint.push(num_vars);
                    }
                    var_of[j * m + i] = num_vars;
                    num_vars += 1;
                }
            }
        }
        let mut cache = lp::WarmCache::with_options(lp::Solver::Hybrid.into());
        if lpt.is_some() {
            hint.extend(num_vars..num_vars + m);
            cache.set_hint(hint);
        }
        LstProbe { p, m, var_of, num_vars, cache }
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
        let m = self.m;
        // The variable and time of each pair admitted at `t`.
        let admitted = |j: usize, i: usize| {
            self.p[j][i].filter(|&time| time <= t).map(|time| (self.var_of[j * m + i], time))
        };
        let mut lp = LinearProgram::new(self.num_vars);
        for j in 0..n {
            let row = (0..m).filter_map(|i| admitted(j, i)).map(|(v, _)| (v, Q::one()));
            lp.add_constraint(row, Relation::Eq, Q::one());
        }
        // One capacity row per machine at every probe (possibly empty):
        // a fixed row count keeps slack columns aligned across horizons.
        for i in 0..m {
            let row = (0..n).filter_map(|j| admitted(j, i)).map(|(v, time)| (v, Q::from(time)));
            lp.add_constraint(row, Relation::Le, Q::from(t));
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
    Some(bracket(p, m, makespan))
}

/// [`lst_bracket`] given the LPT makespan of `p`.
fn bracket(p: &[Vec<Option<u64>>], m: usize, lpt_makespan: u64) -> (u64, u64) {
    let best: Vec<u64> = p.iter().filter_map(|row| row.iter().flatten().min().copied()).collect();
    let volume = best.iter().sum::<u64>().div_ceil(m.max(1) as u64);
    let lo = best.into_iter().max().unwrap_or(0).max(volume).max(1);
    (lo, lpt_makespan.max(lo))
}

/// Does every job take one finite time on every machine? Then the LP is
/// over identical machines and the lower end of [`lst_bracket`] is `T*`.
fn identical_machines(p: &[Vec<Option<u64>>]) -> bool {
    p.iter().all(|row| {
        row.first().is_some_and(|&first| first.is_some() && row.iter().all(|&time| time == first))
    })
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
/// The search brackets `T*` itself — a volume and bottleneck lower bound
/// `lo`, and the makespan of [`lpt_schedule`] as a feasible upper bound
/// `hi` — then rounds with `lst_assign(p, m, T*)`. No search runs in two
/// cases:
///
/// * the bracket closes (`lo = hi`): `T*` is the LPT makespan, neither
///   the search nor the rounding solves an LP, and the LPT schedule, of
///   makespan `T* ≤ OPT`, is returned;
/// * every job takes the same finite time `p_j` on every machine: then
///   `lo ≥ p_max` prunes no pair and `m·lo ≥ Σ_j p_j`, so McNaughton's
///   wrap-around rule (Management Science, 1959) lays the jobs out
///   within `lo` on the `m` machines, a feasible point of the LP at
///   `lo`, and `T* = lo` with only the rounding LP solved.
///
/// Otherwise the LPT-seeded [`LstProbe`] bisects `[lo, hi)`. Skipping
/// it changes no answer: feasibility is monotone in `t`, so the
/// bisection returns `lo` whenever `lo` is feasible, and the rounding
/// at the same `T*` is the same computation.
pub fn lst_binary_search(p: &[Vec<Option<u64>>], m: usize) -> Option<(u64, LstAssignment)> {
    let (lpt, lpt_makespan) = lpt_schedule(p, m)?;
    let (lo, hi) = bracket(p, m, lpt_makespan);
    let t_star = if lo == hi || identical_machines(p) {
        lo
    } else {
        let mut probe = LstProbe::seeded(p, m, Some(&lpt));
        least_feasible(lo, hi, |t| probe.feasible(t))
    };
    assign_from_lpt(p, m, t_star, lpt, lpt_makespan).map(|a| (t_star, a))
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

    /// The perfbench offline shapes, `(p, m, label)`: semi-partitioned,
    /// clustered and SMP-CMP families at n 20/34/48, m 8–24. Their times
    /// follow the migration-overhead model, so the rows are identical
    /// machines.
    fn perfbench_shapes() -> Vec<(Vec<Vec<Option<u64>>>, usize, String)> {
        shapes(false)
    }

    /// The same families and sizes with machine speeds 1–4: a job's time
    /// depends on its machine, so the search bisects.
    fn heterogeneous_shapes() -> Vec<(Vec<Vec<Option<u64>>>, usize, String)> {
        shapes(true)
    }

    fn shapes(heterogeneous: bool) -> Vec<(Vec<Vec<Option<u64>>>, usize, String)> {
        use laminar::topology;
        use workloads::random::{heterogeneous_instance, overhead_instance};
        let mut rng = workloads::rng(15);
        let families = [
            topology::semi_partitioned(8),
            topology::semi_partitioned(24),
            topology::clustered(3, 4),
            topology::clustered(2, 11),
            topology::smp_cmp(&[2, 2, 2]),
            topology::smp_cmp(&[3, 2, 4]),
        ];
        families
            .iter()
            .flat_map(|f| [20, 34, 48].map(|n| (f, n)))
            .map(|(family, n)| {
                let inst = if heterogeneous {
                    heterogeneous_instance(family.clone(), n, 5, 60, 4, &mut rng)
                } else {
                    overhead_instance(family.clone(), n, 5, 60, 1, 4, &mut rng)
                };
                let completed = inst.with_singletons();
                let m = completed.num_machines();
                // `approx::singleton_times` by hand: `workloads` builds the
                // library's `Instance`, not this test build's.
                let singles = completed.singleton_index();
                let p = (0..n)
                    .map(|j| {
                        (0..m).map(|i| singles[i].and_then(|a| completed.ptime(j, a))).collect()
                    })
                    .collect();
                let model = if heterogeneous { "speeds 1-4" } else { "overhead" };
                (p, m, format!("{model}, n {n}, m {m}, |A| {}", completed.family().len()))
            })
            .collect()
    }

    /// `lst_binary_search` without its shortcuts: one LPT-seeded probe
    /// bisects the whole bracket, then the rounding at `T*`.
    fn bisection(p: &[Vec<Option<u64>>], m: usize) -> (u64, LstAssignment) {
        let (lo, hi) = lst_bracket(p, m).unwrap();
        let mut probe = LstProbe::new(p, m);
        let t_star = least_feasible(lo, hi, |t| probe.feasible(t));
        (t_star, lst_assign(p, m, t_star).unwrap())
    }

    #[test]
    fn search_matches_bisection_on_identical_and_heterogeneous_rows() {
        let mut above_lo = 0;
        for (p, m, shape) in perfbench_shapes().into_iter().chain(heterogeneous_shapes()) {
            let (want_t, want) = bisection(&p, m);
            let (t_star, a) = lst_binary_search(&p, m)
                .unwrap_or_else(|| panic!("{shape}: no rounding, bisection T* {want_t}"));
            assert_eq!(t_star, want_t, "{shape}");
            assert_eq!(a.machine_of, want.machine_of, "{shape}, T* {t_star}");
            assert_eq!(a.lst_makespan, want.lst_makespan, "{shape}, T* {t_star}");
            assert_eq!(a.fractional, want.fractional, "{shape}, T* {t_star}");
            above_lo += usize::from(t_star > lst_bracket(&p, m).unwrap().0);
        }
        assert!(above_lo > 0, "some heterogeneous row has T* above the lower bound");
    }

    #[test]
    fn mcnaughton_bound_is_t_star_on_identical_rows() {
        // The shortcut's premise, checked with the LP itself: on identical
        // machines the lower end of the bracket is feasible and one less
        // is not.
        for (p, m, shape) in perfbench_shapes() {
            assert!(identical_machines(&p), "{shape}");
            let (lo, _) = lst_bracket(&p, m).unwrap();
            let times: Vec<u64> = p.iter().map(|row| row[0].unwrap()).collect();
            let volume = times.iter().sum::<u64>().div_ceil(m as u64);
            assert_eq!(lo, volume.max(*times.iter().max().unwrap()), "{shape}");
            assert!(LstProbe::new(&p, m).feasible(lo), "{shape}: feasible at {lo}");
            assert!(lst_assign(&p, m, lo - 1).is_none(), "{shape}: infeasible below {lo}");
        }
        // A pinned job or a second time on any row leaves the bisection on.
        assert!(identical_machines(&[vec![Some(4), Some(4)], vec![Some(2), Some(2)]]));
        assert!(!identical_machines(&[vec![Some(4), None]]));
        assert!(!identical_machines(&[vec![Some(4), Some(4)], vec![Some(2), Some(3)]]));
    }

    #[test]
    fn hybrid_rounding_lp_returns_the_exact_vertex() {
        // The perfbench offline shapes at their T*: the zero-objective
        // LST LP has one vertex Bland's phase 1 reaches, and the cold
        // hybrid must certify exactly that vertex.
        for (p, m, shape) in perfbench_shapes() {
            let (t_star, _) = lst_binary_search(&p, m).unwrap();
            let (lp, _) = pruned_lp(&p, m, t_star).unwrap();
            let (exact, _) = lp.solve_with(Solver::Revised.into());
            let (hybrid, stats) = lp.solve_with(Solver::Hybrid.into());
            let shape = format!("{shape}, T* {t_star}");
            assert_eq!(exact.status, LpStatus::Optimal, "{shape}");
            assert_eq!(hybrid.values, exact.values, "{shape}: same vertex");
            assert_eq!(stats.hybrid_certified, 1, "{shape}: certified, no fallback");
        }
    }

    #[test]
    fn lpt_schedule_is_returned_at_or_above_its_makespan() {
        // An integral feasible point is a vertex that LST rounds to
        // itself, so no LP is solved and the LPT schedule comes back.
        let cycle = vec![
            vec![Some(2), Some(2), None],
            vec![None, Some(2), Some(2)],
            vec![Some(2), None, Some(2)],
        ];
        let cases = perfbench_shapes().into_iter().map(|(p, m, _)| (p, m)).chain([(cycle, 3)]);
        for (p, m) in cases {
            let (lpt, makespan) = lpt_schedule(&p, m).unwrap();
            for t in makespan..makespan + 3 {
                let a = lst_assign(&p, m, t).unwrap();
                assert_eq!(a.machine_of, lpt, "t = {t}");
                assert_eq!(a.lst_makespan, makespan, "t = {t}");
                assert!(!a.fallback_used);
            }
        }
    }

    #[test]
    fn lpt_seeded_rounding_is_certified_at_t_star() {
        // At T* the pruned LP solved from the LPT basis is certified by
        // the hybrid with no fallback of either kind, and the better-of
        // choice is within every bound it promises.
        for (p, m, shape) in perfbench_shapes() {
            let (t_star, a) = lst_binary_search(&p, m).unwrap();
            let (lpt, lpt_makespan) = lpt_schedule(&p, m).unwrap();
            let (_, cache) = seeded_vertex(&p, m, t_star, &lpt).unwrap();
            let shape = format!("{shape}, T* {t_star}, LPT {lpt_makespan}");
            assert_eq!(cache.hybrid_certified(), 1, "{shape}: certified");
            assert_eq!(cache.hybrid_fallbacks(), 0, "{shape}: no exact fallback");
            assert_eq!(cache.warm_fallbacks(), 0, "{shape}: no stale-hint fallback");
            assert!(a.lst_makespan <= 2 * t_star, "{shape}: LST bound");
            let bound = (2 * t_star).min(lpt_makespan).min(a.lst_makespan);
            assert!(a.makespan(&p, m) <= bound, "{shape}: {} > {bound}", a.makespan(&p, m));
            assert!(lst_assign(&p, m, t_star - 1).is_none(), "{shape}: T* is minimal");
        }
    }

    /// FNV-1a over a value's `Debug` text: pins a whole answer in one word.
    fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
        format!("{value:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn warm_float_path_is_pinned() {
        // The LPT-seeded warm hybrid path on every identical and
        // heterogeneous row: the answer of `lst_binary_search` (T*, the
        // rounding, the LST makespan and the rounded vertex) as a hash,
        // and the counters of one probe bisecting the bracket in the
        // clear: certified, fallbacks, factor reuses, warm fallbacks,
        // cold rescues, columns priced. A warm repair that took another
        // pivot path would move the counters, or the vertex.
        #[rustfmt::skip]
        let golden: [(u64, [usize; 6]); 36] = [
            // Identical machines (McNaughton rows): semi-partitioned,
            // clustered and SMP-CMP families, n 20/34/48 each.
            (0xa570_377f_64a8_03f3, [4, 0, 0, 0, 0, 560]),
            (0x900e_5907_6811_6a9e, [3, 0, 0, 0, 0, 714]),
            (0xf296_ecf8_933f_4884, [2, 0, 0, 0, 0, 672]),
            (0x0191_1998_9dbd_049a, [0, 0, 0, 0, 0, 0]),
            (0xdc19_a76b_671e_1904, [0, 0, 0, 0, 0, 0]),
            (0x764e_fb8c_9496_b2ca, [2, 0, 0, 0, 0, 2_208]),
            (0x2eb2_e11e_6470_09d2, [3, 0, 0, 0, 0, 660]),
            (0xd182_2eb8_adac_b9df, [3, 0, 1, 0, 0, 748]),
            (0x8f7f_1b54_d20a_f2be, [3, 0, 0, 0, 0, 1_584]),
            (0x31b1_e3bc_ec73_88c6, [0, 0, 0, 0, 0, 0]),
            (0x1dfb_eda0_0f0b_010a, [0, 0, 0, 0, 0, 0]),
            (0x1784_4f89_c913_51f4, [3, 0, 0, 0, 0, 3_024]),
            (0xbcc6_029e_4c22_2799, [2, 0, 0, 0, 0, 280]),
            (0x6c0f_57be_731e_dcd1, [3, 0, 0, 0, 0, 714]),
            (0x628d_0162_0395_a43c, [2, 0, 0, 0, 0, 672]),
            (0xc3e2_66b8_d56c_605c, [0, 0, 0, 0, 0, 0]),
            (0x3f77_9f29_a455_2498, [0, 0, 0, 0, 0, 0]),
            (0xe75e_b2de_e652_f65f, [3, 0, 0, 0, 0, 3_312]),
            // The same shapes at speeds 1-4 (bisected).
            (0xe4de_1c03_c751_4ab3, [4, 0, 0, 0, 1, 7_022]),
            (0xa699_9af1_a2ac_43ee, [5, 0, 0, 0, 4, 121_132]),
            (0x399b_8b86_c82f_5abd, [4, 0, 0, 0, 4, 150_610]),
            (0xe092_eca8_4274_31a6, [3, 0, 0, 0, 0, 920]),
            (0x310e_9af7_a7aa_d3bf, [2, 0, 0, 0, 1, 104_505]),
            (0x0efc_22c3_a1c3_fd7c, [4, 0, 0, 0, 3, 990_866]),
            (0x4788_716b_cde6_c2aa, [3, 0, 0, 0, 0, 220]),
            (0x8154_36c4_7c7e_13c1, [4, 0, 0, 0, 3, 123_107]),
            (0x0820_fe3e_929f_8555, [4, 0, 0, 0, 4, 387_897]),
            (0x6c99_1fd8_c5ab_e018, [1, 0, 0, 0, 0, 0]),
            (0x3dd7_8654_48ed_7127, [4, 0, 0, 0, 2, 201_280]),
            (0xff7a_4241_37f3_8836, [4, 0, 0, 0, 3, 916_698]),
            (0x107f_90a4_723b_663d, [5, 0, 0, 0, 2, 13_848]),
            (0xa166_80b4_5789_4792, [4, 0, 0, 0, 3, 56_573]),
            (0x02bb_2e1b_ee3a_bbba, [5, 0, 0, 0, 4, 205_778]),
            (0xf5a3_0493_b7b0_467a, [2, 0, 0, 0, 0, 920]),
            (0x5a07_b5ec_07da_3cef, [3, 0, 0, 0, 2, 167_617]),
            (0x4c39_ada2_e960_316a, [5, 0, 0, 0, 3, 1_150_524]),
        ];
        let mut got = Vec::new();
        for (p, m, _) in perfbench_shapes().into_iter().chain(heterogeneous_shapes()) {
            let (t_star, a) = lst_binary_search(&p, m).unwrap();
            let hash = debug_hash(&(t_star, &a.machine_of, a.lst_makespan, &a.fractional));
            let (lo, hi) = lst_bracket(&p, m).unwrap();
            let mut probe = LstProbe::new(&p, m);
            least_feasible(lo, hi, |t| probe.feasible(t));
            let c = probe.cache();
            let counters = [
                c.hybrid_certified(),
                c.hybrid_fallbacks(),
                c.factor_reuses(),
                c.warm_fallbacks(),
                c.cold_rescues(),
                c.columns_priced(),
            ];
            got.push((hash, counters));
        }
        for (k, (g, want)) in got.iter().zip(golden).enumerate() {
            assert_eq!(*g, want, "row {k}");
        }
    }

    #[test]
    fn seeded_probe_matches_cold_exact_status() {
        // A fresh probe's first solve starts from the LPT basis, which
        // the hybrid must take without a fallback of either kind; its
        // answer must be the cold exact solver's on both sides of T*.
        for (p, m, shape) in perfbench_shapes() {
            let (lo, hi) = lst_bracket(&p, m).unwrap();
            for t in lo - 1..=hi {
                let cold = pruned_lp(&p, m, t).is_some_and(|(lp, _)| {
                    lp.solve_with(Solver::Revised.into()).0.status == LpStatus::Optimal
                });
                let mut probe = LstProbe::new(&p, m);
                assert_eq!(probe.feasible(t), cold, "{shape}, t = {t}");
                let fallbacks = probe.cache().warm_fallbacks() + probe.cache().hybrid_fallbacks();
                assert_eq!(fallbacks, 0, "{shape}, t = {t}");
            }
        }
    }
}
