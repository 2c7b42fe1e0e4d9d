//! Section VI: memory-constrained extensions (Models 1 and 2).
//!
//! Both models augment the decision system (IP-3) with packing
//! constraints and round the LP relaxation *iteratively*: solve a vertex,
//! freeze variables that became integral, and when stuck, drop a packing
//! row whose possible future violation is already paid for — the
//! standard iterative relaxation of Jain / Lau–Ravi–Singh that the paper
//! cites (its own proofs are in the unpublished full version; DESIGN.md
//! documents this substitution).
//!
//! * **Model 1** (Theorem VI.1): per-machine memory budgets `B_i`, job
//!   sizes `s_ij`; a row may be dropped when ≤ 2 fractional variables
//!   remain in it, each item bounded by the row's bound after pruning —
//!   giving makespan ≤ `3T` and memory ≤ `3·B_i`.
//! * **Model 2** (Theorem VI.3, via Lemma VI.2): per-level capacities
//!   `µ^h(α)`; a row `l` may be dropped when its remaining fractional
//!   column mass `Σ_q a_lq` is ≤ `ρ·b_l`. With the paper's column-sum
//!   bound `Σ_l a_lq / b_l ≤ ρ = 1 + H_k`, every row is within
//!   `(1 + ρ)·b_l = (2 + H_k)·b_l` at the end; for `k = 2` the sharper
//!   `ρ = 2 + 1/m` gives `σ = 3 + 1/m`.

use core::fmt;

use lp::{LinearProgram, LpStatus, Relation};
use numeric::Q;

use crate::assignment::Assignment;
use crate::formulations::VarMap;
use crate::hier::schedule_hierarchical;
use crate::instance::Instance;
use crate::schedule::Schedule;

/// Failure modes of the memory-constrained solvers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemoryError {
    /// Input tables have the wrong shape.
    ShapeMismatch,
    /// The LP relaxation (with memory constraints) is infeasible at `T` —
    /// the theorems presuppose a feasible ILP, hence a feasible LP.
    Infeasible,
    /// Model 2 requires a rooted tree whose leaves share a level.
    NotUniformTree,
    /// Model 2 requires `µ > 1` and `0 ≤ s_j ≤ 1`.
    BadParameters,
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::ShapeMismatch => write!(f, "size/budget tables have the wrong shape"),
            MemoryError::Infeasible => write!(f, "memory-constrained LP infeasible at this T"),
            MemoryError::NotUniformTree => {
                write!(f, "Model 2 needs a rooted tree with uniform leaf level")
            }
            MemoryError::BadParameters => write!(f, "Model 2 needs µ > 1 and 0 ≤ s_j ≤ 1"),
        }
    }
}

impl std::error::Error for MemoryError {}

// ---------------------------------------------------------------------
// Generic iterative rounding engine (Lemma VI.2 machinery).
// ---------------------------------------------------------------------

/// One packing row `Σ_q a_lq · x_q ≤ b` over pair-variables.
#[derive(Clone, Debug)]
struct PackingRow {
    /// Sparse coefficients over variable indices.
    coeffs: Vec<(usize, Q)>,
    /// Right-hand side `b_l > 0`.
    bound: Q,
}

/// Outcome of the iterative rounding engine.
struct IterOutcome {
    /// Chosen set per job.
    mask: Vec<usize>,
    /// Number of packing rows dropped along the way.
    rows_dropped: usize,
    /// True if no theory-justified droppable row was found at some stuck
    /// vertex and the engine dropped the least-violating row instead.
    fallback_used: bool,
}

/// Round an assignment + packing system: each job picks exactly one of
/// its pairs, subject to packing rows, starting from a feasible LP.
///
/// `droppable(row, remaining_fractional_coeffs)` encodes the model's drop
/// rule. Pairs are `(set, job)`.
fn iterative_round(
    num_jobs: usize,
    pairs: &[(usize, usize)],
    rows: Vec<PackingRow>,
    droppable: &dyn Fn(&PackingRow, &[(usize, Q)]) -> bool,
) -> Result<IterOutcome, MemoryError> {
    let mut fixed: Vec<Option<usize>> = vec![None; num_jobs]; // job → set
    let mut banned = vec![false; pairs.len()];
    let mut active = vec![true; rows.len()];
    let mut rows_dropped = 0usize;
    let mut fallback_used = false;

    loop {
        if fixed.iter().all(|f| f.is_some()) {
            return Ok(IterOutcome {
                mask: fixed.into_iter().map(|f| f.expect("all fixed")).collect(),
                rows_dropped,
                fallback_used,
            });
        }
        // Free variables: unbanned pairs of unfixed jobs.
        let free: Vec<usize> =
            (0..pairs.len()).filter(|&v| !banned[v] && fixed[pairs[v].1].is_none()).collect();
        let col_of: std::collections::HashMap<usize, usize> =
            free.iter().enumerate().map(|(c, &v)| (v, c)).collect();

        // Build the residual LP.
        let mut lp = LinearProgram::new(free.len());
        for j in 0..num_jobs {
            if fixed[j].is_some() {
                continue;
            }
            let coeffs: Vec<(usize, Q)> = free
                .iter()
                .enumerate()
                .filter(|(_, &v)| pairs[v].1 == j)
                .map(|(c, _)| (c, Q::one()))
                .collect();
            if coeffs.is_empty() {
                return Err(MemoryError::Infeasible);
            }
            lp.add_constraint(coeffs, Relation::Eq, Q::one());
        }
        for (l, row) in rows.iter().enumerate() {
            if !active[l] {
                continue;
            }
            // Residual bound: subtract contributions of fixed pairs.
            let mut residual = row.bound.clone();
            let mut coeffs: Vec<(usize, Q)> = Vec::new();
            for (v, a) in &row.coeffs {
                let (set, job) = pairs[*v];
                if fixed[job] == Some(set) {
                    residual -= a.clone();
                } else if let Some(&c) = col_of.get(v) {
                    coeffs.push((c, a.clone()));
                }
            }
            if coeffs.is_empty() {
                continue;
            }
            // A negative residual can only arise after drops; the row is
            // then already accounted for by the drop rule — skip it.
            if residual.is_negative() {
                continue;
            }
            lp.add_constraint(coeffs, Relation::Le, residual);
        }

        let sol = lp.solve();
        if sol.status != LpStatus::Optimal {
            return Err(MemoryError::Infeasible);
        }

        // Freeze integral variables.
        let mut progressed = false;
        for (c, &v) in free.iter().enumerate() {
            if sol.values[c].is_zero() {
                banned[v] = true;
                progressed = true;
            } else if sol.values[c] == Q::one() {
                let (set, job) = pairs[v];
                if fixed[job].is_none() {
                    fixed[job] = Some(set);
                    progressed = true;
                }
            }
        }
        if progressed {
            continue;
        }

        // Stuck at an all-fractional vertex: drop a packing row.
        let fractional: Vec<usize> = free
            .iter()
            .enumerate()
            .filter(|(c, _)| sol.values[*c].is_positive() && sol.values[*c] != Q::one())
            .map(|(_, &v)| v)
            .collect();
        let mut dropped = None;
        for (l, row) in rows.iter().enumerate() {
            if !active[l] {
                continue;
            }
            let remaining: Vec<(usize, Q)> = row
                .coeffs
                .iter()
                .filter(|(v, a)| fractional.contains(v) && a.is_positive())
                .cloned()
                .collect();
            if remaining.is_empty() {
                continue;
            }
            if droppable(row, &remaining) {
                dropped = Some(l);
                break;
            }
        }
        match dropped {
            Some(l) => {
                active[l] = false;
                rows_dropped += 1;
            }
            None => {
                // Theory says this cannot happen; drop the row with the
                // smallest remaining fractional mass and flag it.
                let candidate = rows
                    .iter()
                    .enumerate()
                    .filter(|(l, _)| active[*l])
                    .min_by_key(|(_, row)| {
                        let mass: Q = Q::sum(
                            row.coeffs
                                .iter()
                                .filter(|(v, _)| fractional.contains(v))
                                .map(|(_, a)| a),
                        );
                        // order rationals by value via (mass / bound)
                        (mass / row.bound.clone()).to_f64().to_bits()
                    })
                    .map(|(l, _)| l);
                match candidate {
                    Some(l) => {
                        active[l] = false;
                        rows_dropped += 1;
                        fallback_used = true;
                    }
                    None => return Err(MemoryError::Infeasible),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Model 1: per-machine budgets.
// ---------------------------------------------------------------------

/// Model 1 input: instance + per-(job, machine) sizes + per-machine budgets.
#[derive(Clone, Debug)]
pub struct MemoryModel1 {
    /// The scheduling instance.
    pub instance: Instance,
    /// `sizes[j][i] = s_ij` — memory job `j` needs on machine `i`.
    pub sizes: Vec<Vec<u64>>,
    /// `budgets[i] = B_i`.
    pub budgets: Vec<u64>,
}

/// Result of [`model1_round`].
#[derive(Clone, Debug)]
pub struct Model1Result {
    /// The rounded assignment.
    pub assignment: Assignment,
    /// A valid schedule at [`makespan`](Self::makespan).
    pub schedule: Schedule,
    /// Achieved makespan; Theorem VI.1 guarantees ≤ `3T`.
    pub makespan: Q,
    /// Per-machine memory usage; guaranteed ≤ `3·B_i`.
    pub memory_usage: Vec<u64>,
    /// Packing rows dropped by the iterative rounding.
    pub rows_dropped: usize,
    /// Whether the heuristic row-drop fallback fired (never expected).
    pub fallback_used: bool,
}

/// Theorem VI.1: round the memory-augmented (IP-3) at horizon `t` into an
/// integral assignment with makespan ≤ `3t` and memory ≤ `3·B_i`.
pub fn model1_round(m1: &MemoryModel1, t: u64) -> Result<Model1Result, MemoryError> {
    let inst = &m1.instance;
    let n = inst.num_jobs();
    let m = inst.num_machines();
    if m1.sizes.len() != n || m1.sizes.iter().any(|r| r.len() != m) || m1.budgets.len() != m {
        return Err(MemoryError::ShapeMismatch);
    }
    // Prune: p ≤ t and every machine of the mask can hold the job alone.
    let pairs: Vec<(usize, usize)> = inst
        .pruned_pairs(t)
        .into_iter()
        .filter(|&(a, j)| inst.set(a).iter().all(|i| m1.sizes[j][i] <= m1.budgets[i]))
        .collect();
    for j in 0..n {
        if !pairs.iter().any(|&(_, job)| job == j) {
            return Err(MemoryError::Infeasible);
        }
    }
    let var_of = |a: usize, j: usize| pairs.iter().position(|&q| q == (a, j));

    let mut rows: Vec<PackingRow> = Vec::new();
    // Makespan rows (3a): Σ_j Σ_{β⊆α} p_βj x_βj ≤ |α|·t.
    for a in 0..inst.family().len() {
        let mut coeffs = Vec::new();
        for b in inst.subsets_of(a) {
            for j in 0..n {
                if let Some(v) = var_of(b, j) {
                    coeffs.push((v, inst.ptime_q(j, b).expect("pairs finite")));
                }
            }
        }
        if !coeffs.is_empty() {
            rows.push(PackingRow { coeffs, bound: Q::from(inst.set(a).len() as u64) * Q::from(t) });
        }
    }
    // Memory rows (7): Σ_j s_ij Σ_{α ∋ i} x_αj ≤ B_i.
    for i in 0..m {
        let mut coeffs = Vec::new();
        for (v, &(a, j)) in pairs.iter().enumerate() {
            if inst.set(a).contains(i) && m1.sizes[j][i] > 0 {
                coeffs.push((v, Q::from(m1.sizes[j][i])));
            }
        }
        if !coeffs.is_empty() {
            rows.push(PackingRow { coeffs, bound: Q::from(m1.budgets[i].max(1)) });
        }
    }

    // Model 1 drop rule: the remaining fractional mass fits in 2·bound
    // (this subsumes the classic "≤ 2 items" rule because pruning caps
    // every item at the row's bound), keeping the 3× guarantee.
    let two = Q::from_int(2);
    let outcome = iterative_round(n, &pairs, rows, &|row, remaining| {
        remaining.len() <= 2 || {
            let mass: Q = Q::sum(remaining.iter().map(|(_, a)| a));
            mass <= two.clone() * row.bound.clone()
        }
    })?;

    let assignment = Assignment::new(outcome.mask);
    let t_sched = assignment.minimal_integral_horizon(inst).expect("rounded pairs are finite");
    let t_q = Q::from(t_sched);
    let schedule = schedule_hierarchical(inst, &assignment, &t_q)
        .expect("feasible at its own minimal horizon");
    let memory_usage: Vec<u64> = (0..m)
        .map(|i| {
            (0..n)
                .filter(|&j| inst.set(assignment.mask_of(j)).contains(i))
                .map(|j| m1.sizes[j][i])
                .sum()
        })
        .collect();
    Ok(Model1Result {
        assignment,
        schedule,
        makespan: t_q,
        memory_usage,
        rows_dropped: outcome.rows_dropped,
        fallback_used: outcome.fallback_used,
    })
}

// ---------------------------------------------------------------------
// Model 2: per-level capacities µ^h.
// ---------------------------------------------------------------------

/// Model 2 input: a rooted uniform-leaf-level instance, per-job sizes
/// `s_j ≤ 1`, and the memory-scaling parameter `µ > 1`.
#[derive(Clone, Debug)]
pub struct MemoryModel2 {
    /// The scheduling instance; family must be a rooted tree with all
    /// leaves at the same level.
    pub instance: Instance,
    /// `sizes[j] = s_j ∈ [0, 1]`.
    pub sizes: Vec<Q>,
    /// Scaling parameter `µ > 1`; a node of height `h` holds `µ^h`.
    pub mu: Q,
}

impl MemoryModel2 {
    /// Memory capacity of set `a`: `µ^{h(a)}` (root: unbounded → `None`).
    pub fn capacity(&self, a: usize) -> Option<Q> {
        let fam = self.instance.family();
        fam.parent(a)?;
        let mut c = Q::one();
        for _ in 0..fam.height(a) {
            c *= self.mu.clone();
        }
        Some(c)
    }

    /// `H_k` — the k-th harmonic number, `k` = number of levels.
    pub fn harmonic_k(&self) -> Q {
        let k = self.instance.family().max_level();
        let mut h = Q::zero();
        for i in 1..=k {
            h += Q::ratio(1, i as i64);
        }
        h
    }

    /// The theorem's violation factor `σ`: `2 + H_k`, or `3 + 1/m` when
    /// `k = 2`.
    pub fn sigma(&self) -> Q {
        let fam = self.instance.family();
        if fam.max_level() == 2 {
            Q::from_int(3) + Q::ratio(1, fam.num_machines() as i64)
        } else {
            Q::from_int(2) + self.harmonic_k()
        }
    }
}

/// Result of [`model2_round`].
#[derive(Clone, Debug)]
pub struct Model2Result {
    /// The rounded assignment.
    pub assignment: Assignment,
    /// A valid schedule at [`makespan`](Self::makespan).
    pub makespan: Q,
    /// The schedule realizing the makespan.
    pub schedule: Schedule,
    /// Memory used at each set `Σ_j s_j x_αj`.
    pub memory_usage: Vec<Q>,
    /// The guarantee factor `σ` that applied.
    pub sigma: Q,
    /// Packing rows dropped.
    pub rows_dropped: usize,
    /// Whether the heuristic fallback fired (never expected).
    pub fallback_used: bool,
}

/// Theorem VI.3 (via Lemma VI.2): round (IP-4) at horizon `t` into an
/// integral assignment with makespan ≤ `σ·t` and per-set memory ≤
/// `σ·µ^h(α)`, `σ = 2 + H_k` (or `3 + 1/m` when `k = 2`).
pub fn model2_round(m2: &MemoryModel2, t: u64) -> Result<Model2Result, MemoryError> {
    let inst = &m2.instance;
    let fam = inst.family();
    let n = inst.num_jobs();
    if m2.sizes.len() != n {
        return Err(MemoryError::ShapeMismatch);
    }
    if fam.uniform_leaf_level().is_none() || !fam.is_rooted_tree() {
        return Err(MemoryError::NotUniformTree);
    }
    if m2.mu <= Q::one() || m2.sizes.iter().any(|s| s.is_negative() || *s > Q::one()) {
        return Err(MemoryError::BadParameters);
    }

    let pairs: Vec<(usize, usize)> = inst.pruned_pairs(t);
    for j in 0..n {
        if !pairs.iter().any(|&(_, job)| job == j) {
            return Err(MemoryError::Infeasible);
        }
    }
    let var_of = |a: usize, j: usize| pairs.iter().position(|&q| q == (a, j));

    let mut rows: Vec<PackingRow> = Vec::new();
    for a in 0..fam.len() {
        let mut coeffs = Vec::new();
        for b in inst.subsets_of(a) {
            for j in 0..n {
                if let Some(v) = var_of(b, j) {
                    coeffs.push((v, inst.ptime_q(j, b).expect("finite")));
                }
            }
        }
        if !coeffs.is_empty() {
            rows.push(PackingRow { coeffs, bound: Q::from(fam.set(a).len() as u64) * Q::from(t) });
        }
    }
    for a in 0..fam.len() {
        let Some(cap) = m2.capacity(a) else { continue };
        let coeffs: Vec<(usize, Q)> = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(set, j))| set == a && m2.sizes[j].is_positive())
            .map(|(v, &(_, j))| (v, m2.sizes[j].clone()))
            .collect();
        if !coeffs.is_empty() {
            rows.push(PackingRow { coeffs, bound: cap });
        }
    }

    // Lemma VI.2 drop rule: remaining fractional mass ≤ ρ · b.
    let rho = m2.sigma() - Q::one();
    let outcome = iterative_round(n, &pairs, rows, &|row, remaining| {
        let mass: Q = Q::sum(remaining.iter().map(|(_, a)| a));
        mass <= rho.clone() * row.bound.clone()
    })?;

    let assignment = Assignment::new(outcome.mask);
    let t_sched = assignment.minimal_integral_horizon(inst).expect("rounded pairs are finite");
    let t_q = Q::from(t_sched);
    let schedule = schedule_hierarchical(inst, &assignment, &t_q)
        .expect("feasible at its own minimal horizon");
    let memory_usage: Vec<Q> = (0..fam.len())
        .map(|a| {
            Q::sum((0..n).filter(|&j| assignment.mask_of(j) == a).map(|j| m2.sizes[j].clone()))
        })
        .collect();
    Ok(Model2Result {
        assignment,
        makespan: t_q,
        schedule,
        memory_usage,
        sigma: m2.sigma(),
        rows_dropped: outcome.rows_dropped,
        fallback_used: outcome.fallback_used,
    })
}

/// Warm-started feasibility probe for Model 1's LP relaxation — the
/// memory-constrained analogue of [`crate::formulations::Ip3Probe`],
/// driving the binary search in [`model1_lp_t_star`].
///
/// The variable layout is *fixed* across horizons: one variable per
/// finite `(α, j)` pair whose machines can all hold job `j` within
/// budget (both conditions are `t`-independent). Pairs with `p_{αj} > t`
/// are omitted from every constraint of that probe, which is
/// feasibility-equivalent to the pruned program — a variable appearing
/// in no constraint never carries weight at a returned vertex, and a job
/// whose pairs are all pruned yields an empty `0 = 1` row, the
/// fixed-layout encoding of "no admissible pair". The fixed layout (and
/// fixed row count: assignment + capacity + memory rows are all emitted
/// at every probe) lets consecutive probes re-solve from the previous
/// optimal basis via [`lp::WarmCache`] instead of running the two-phase
/// simplex cold per horizon.
struct Model1Probe<'a> {
    m1: &'a MemoryModel1,
    vm: VarMap,
    cache: lp::WarmCache,
}

impl<'a> Model1Probe<'a> {
    /// A probe over `m1` with an empty warm-start state.
    fn new(m1: &'a MemoryModel1) -> Self {
        let inst = &m1.instance;
        let mut pairs = Vec::new();
        for a in 0..inst.family().len() {
            for j in 0..inst.num_jobs() {
                if inst.ptime(j, a).is_some()
                    && inst.set(a).iter().all(|i| m1.sizes[j][i] <= m1.budgets[i])
                {
                    pairs.push((a, j));
                }
            }
        }
        Model1Probe {
            m1,
            vm: VarMap::new(pairs),
            cache: lp::WarmCache::with_options(lp::Solver::Hybrid.into()),
        }
    }

    /// Build the fixed-layout fractional (IP-3) + (7) system at horizon `t`.
    fn build(&self, t: u64) -> LinearProgram {
        let inst = &self.m1.instance;
        let n = inst.num_jobs();
        let m = inst.num_machines();
        let admitted = |a: usize, j: usize| inst.ptime(j, a).is_some_and(|p| p <= t);
        let mut lp = LinearProgram::new(self.vm.len());
        for j in 0..n {
            let coeffs: Vec<(usize, Q)> = (0..inst.family().len())
                .filter(|&a| self.vm.var(a, j).is_some() && admitted(a, j))
                .map(|a| (self.vm.var(a, j).expect("in layout"), Q::one()))
                .collect();
            lp.add_constraint(coeffs, Relation::Eq, Q::one());
        }
        for a in 0..inst.family().len() {
            let mut coeffs = Vec::new();
            for b in inst.subsets_of(a) {
                for j in 0..n {
                    if let Some(v) = self.vm.var(b, j) {
                        if admitted(b, j) {
                            coeffs.push((v, inst.ptime_q(j, b).expect("finite")));
                        }
                    }
                }
            }
            let cap = Q::from(inst.set(a).len() as u64) * Q::from(t);
            lp.add_constraint(coeffs, Relation::Le, cap);
        }
        for i in 0..m {
            let coeffs: Vec<(usize, Q)> = self
                .vm
                .pairs()
                .iter()
                .enumerate()
                .filter(|(_, &(a, j))| {
                    inst.set(a).contains(i) && self.m1.sizes[j][i] > 0 && admitted(a, j)
                })
                .map(|(v, &(_, j))| (v, Q::from(self.m1.sizes[j][i])))
                .collect();
            lp.add_constraint(coeffs, Relation::Le, Q::from(self.m1.budgets[i].max(1)));
        }
        lp
    }

    fn feasible(&mut self, t: u64) -> bool {
        self.build(t).solve_warm_cached(&mut self.cache).status == LpStatus::Optimal
    }
}

/// Smallest integral `t` at which Model 1's LP relaxation is feasible —
/// the baseline `T` the theorems compare against. Consecutive horizon
/// probes re-solve from the previous optimal basis ([`Model1Probe`]).
pub fn model1_lp_t_star(m1: &MemoryModel1) -> Option<u64> {
    let inst = &m1.instance;
    let lo = inst.bottleneck_lower_bound().max(inst.volume_lower_bound()).max(1);
    let hi = inst.sequential_upper_bound().max(lo);
    let mut probe = Model1Probe::new(m1);
    binary_search_min(lo, hi, &mut |t| probe.feasible(t))
}

/// Cold pruned-layout feasibility of the Model 1 relaxation — the
/// differential reference [`Model1Probe`] is tested against.
#[cfg(test)]
fn model1_lp_feasible(m1: &MemoryModel1, t: u64) -> bool {
    // Feasibility of the fractional (IP-3) + (7) system.
    let inst = &m1.instance;
    let n = inst.num_jobs();
    let m = inst.num_machines();
    let pairs: Vec<(usize, usize)> = inst
        .pruned_pairs(t)
        .into_iter()
        .filter(|&(a, j)| inst.set(a).iter().all(|i| m1.sizes[j][i] <= m1.budgets[i]))
        .collect();
    for j in 0..n {
        if !pairs.iter().any(|&(_, job)| job == j) {
            return false;
        }
    }
    let var_of = |a: usize, j: usize| pairs.iter().position(|&q| q == (a, j));
    let mut lp = LinearProgram::new(pairs.len());
    for j in 0..n {
        let coeffs: Vec<(usize, Q)> = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(_, job))| job == j)
            .map(|(v, _)| (v, Q::one()))
            .collect();
        lp.add_constraint(coeffs, Relation::Eq, Q::one());
    }
    for a in 0..inst.family().len() {
        let mut coeffs = Vec::new();
        for b in inst.subsets_of(a) {
            for j in 0..n {
                if let Some(v) = var_of(b, j) {
                    coeffs.push((v, inst.ptime_q(j, b).expect("finite")));
                }
            }
        }
        if !coeffs.is_empty() {
            let cap = Q::from(inst.set(a).len() as u64) * Q::from(t);
            lp.add_constraint(coeffs, Relation::Le, cap);
        }
    }
    for i in 0..m {
        let coeffs: Vec<(usize, Q)> = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(a, j))| inst.set(a).contains(i) && m1.sizes[j][i] > 0)
            .map(|(v, &(_, j))| (v, Q::from(m1.sizes[j][i])))
            .collect();
        if !coeffs.is_empty() {
            lp.add_constraint(coeffs, Relation::Le, Q::from(m1.budgets[i].max(1)));
        }
    }
    lp.solve().status == LpStatus::Optimal
}

/// Warm-started feasibility probe for Model 2's LP relaxation; same
/// fixed-layout contract as [`Model1Probe`] (all finite pairs, pruned
/// entries omitted per-probe, fixed row count) so consecutive horizon
/// probes reuse the previous basis via [`lp::WarmCache`].
struct Model2Probe<'a> {
    m2: &'a MemoryModel2,
    vm: VarMap,
    cache: lp::WarmCache,
}

impl<'a> Model2Probe<'a> {
    /// A probe over `m2` with an empty warm-start state.
    fn new(m2: &'a MemoryModel2) -> Self {
        Model2Probe {
            m2,
            vm: VarMap::finite(&m2.instance),
            cache: lp::WarmCache::with_options(lp::Solver::Hybrid.into()),
        }
    }

    /// Build the fixed-layout fractional (IP-4) system at horizon `t`.
    fn build(&self, t: u64) -> LinearProgram {
        let inst = &self.m2.instance;
        let fam = inst.family();
        let n = inst.num_jobs();
        let admitted = |a: usize, j: usize| inst.ptime(j, a).is_some_and(|p| p <= t);
        let mut lp = LinearProgram::new(self.vm.len());
        for j in 0..n {
            let coeffs: Vec<(usize, Q)> = (0..fam.len())
                .filter(|&a| self.vm.var(a, j).is_some() && admitted(a, j))
                .map(|a| (self.vm.var(a, j).expect("in layout"), Q::one()))
                .collect();
            lp.add_constraint(coeffs, Relation::Eq, Q::one());
        }
        for a in 0..fam.len() {
            let mut coeffs = Vec::new();
            for b in inst.subsets_of(a) {
                for j in 0..n {
                    if let Some(v) = self.vm.var(b, j) {
                        if admitted(b, j) {
                            coeffs.push((v, inst.ptime_q(j, b).expect("finite")));
                        }
                    }
                }
            }
            let cap = Q::from(fam.set(a).len() as u64) * Q::from(t);
            lp.add_constraint(coeffs, Relation::Le, cap);
        }
        for a in 0..fam.len() {
            let Some(cap) = self.m2.capacity(a) else { continue };
            let coeffs: Vec<(usize, Q)> = self
                .vm
                .pairs()
                .iter()
                .enumerate()
                .filter(|(_, &(set, j))| {
                    set == a && self.m2.sizes[j].is_positive() && admitted(set, j)
                })
                .map(|(v, &(_, j))| (v, self.m2.sizes[j].clone()))
                .collect();
            lp.add_constraint(coeffs, Relation::Le, cap);
        }
        lp
    }

    fn feasible(&mut self, t: u64) -> bool {
        self.build(t).solve_warm_cached(&mut self.cache).status == LpStatus::Optimal
    }
}

/// Smallest integral `t` at which Model 2's LP relaxation is feasible.
/// Consecutive horizon probes re-solve from the previous optimal basis
/// ([`Model2Probe`]).
pub fn model2_lp_t_star(m2: &MemoryModel2) -> Option<u64> {
    let inst = &m2.instance;
    let lo = inst.bottleneck_lower_bound().max(inst.volume_lower_bound()).max(1);
    let hi = inst.sequential_upper_bound().max(lo);
    let mut probe = Model2Probe::new(m2);
    binary_search_min(lo, hi, &mut |t| probe.feasible(t))
}

/// Cold pruned-layout feasibility of the Model 2 relaxation — the
/// differential reference [`Model2Probe`] is tested against.
#[cfg(test)]
fn model2_lp_feasible(m2: &MemoryModel2, t: u64) -> bool {
    let inst = &m2.instance;
    let fam = inst.family();
    let n = inst.num_jobs();
    let pairs = inst.pruned_pairs(t);
    for j in 0..n {
        if !pairs.iter().any(|&(_, job)| job == j) {
            return false;
        }
    }
    let var_of = |a: usize, j: usize| pairs.iter().position(|&q| q == (a, j));
    let mut lp = LinearProgram::new(pairs.len());
    for j in 0..n {
        let coeffs: Vec<(usize, Q)> = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(_, job))| job == j)
            .map(|(v, _)| (v, Q::one()))
            .collect();
        lp.add_constraint(coeffs, Relation::Eq, Q::one());
    }
    for a in 0..fam.len() {
        let mut coeffs = Vec::new();
        for b in inst.subsets_of(a) {
            for j in 0..n {
                if let Some(v) = var_of(b, j) {
                    coeffs.push((v, inst.ptime_q(j, b).expect("finite")));
                }
            }
        }
        if !coeffs.is_empty() {
            let cap = Q::from(fam.set(a).len() as u64) * Q::from(t);
            lp.add_constraint(coeffs, Relation::Le, cap);
        }
    }
    for a in 0..fam.len() {
        let Some(cap) = m2.capacity(a) else { continue };
        let coeffs: Vec<(usize, Q)> = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(set, j))| set == a && m2.sizes[j].is_positive())
            .map(|(v, &(_, j))| (v, m2.sizes[j].clone()))
            .collect();
        if !coeffs.is_empty() {
            lp.add_constraint(coeffs, Relation::Le, cap);
        }
    }
    lp.solve().status == LpStatus::Optimal
}

fn binary_search_min(
    mut lo: u64,
    mut hi: u64,
    feasible: &mut dyn FnMut(u64) -> bool,
) -> Option<u64> {
    let mut guard = 0;
    while !feasible(hi) {
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
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar::topology;

    /// Semi-partitioned, 2 machines, 4 jobs, moderate memory pressure.
    fn model1_fixture() -> MemoryModel1 {
        let inst =
            Instance::from_fn(topology::semi_partitioned(2), 4, |j, _| Some(2 + j as u64 % 3))
                .unwrap();
        MemoryModel1 {
            instance: inst,
            sizes: vec![vec![2, 2], vec![3, 3], vec![1, 2], vec![2, 1]],
            budgets: vec![5, 5],
        }
    }

    #[test]
    fn model1_respects_bicriteria() {
        let m1 = model1_fixture();
        let t = model1_lp_t_star(&m1).unwrap();
        let res = model1_round(&m1, t).unwrap();
        res.schedule.validate(&m1.instance, &res.assignment, &res.makespan).unwrap();
        // Theorem VI.1 bounds.
        assert!(res.makespan <= Q::from(3 * t), "makespan {} > 3T", res.makespan);
        for (i, used) in res.memory_usage.iter().enumerate() {
            assert!(*used <= 3 * m1.budgets[i], "machine {i}: {used} > 3B");
        }
        assert!(!res.fallback_used);
    }

    #[test]
    fn model1_infeasible_when_memory_impossible() {
        let mut m1 = model1_fixture();
        m1.budgets = vec![1, 1]; // every job needs ≥ 1 … job sizes 2-3 > 1
        assert!(matches!(model1_round(&m1, 100), Err(MemoryError::Infeasible)));
    }

    #[test]
    fn model1_shape_checked() {
        let mut m1 = model1_fixture();
        m1.budgets.pop();
        assert!(matches!(model1_round(&m1, 10), Err(MemoryError::ShapeMismatch)));
    }

    fn model2_fixture() -> MemoryModel2 {
        // 2-level semi-partitioned tree on 3 machines.
        let inst =
            Instance::from_fn(topology::semi_partitioned(3), 5, |j, _| Some(1 + j as u64 % 3))
                .unwrap();
        MemoryModel2 {
            instance: inst,
            sizes: vec![Q::ratio(1, 2), Q::ratio(1, 3), Q::ratio(2, 3), Q::ratio(1, 2), Q::one()],
            mu: Q::from_int(2),
        }
    }

    #[test]
    fn model2_respects_sigma_bounds() {
        let m2 = model2_fixture();
        let t = model2_lp_t_star(&m2).unwrap();
        let res = model2_round(&m2, t).unwrap();
        res.schedule.validate(&m2.instance, &res.assignment, &res.makespan).unwrap();
        let sigma = res.sigma.clone();
        // k = 2 → σ = 3 + 1/3.
        assert_eq!(sigma, Q::from_int(3) + Q::ratio(1, 3));
        assert!(res.makespan <= sigma.clone() * Q::from(t));
        for a in 0..m2.instance.family().len() {
            if let Some(cap) = m2.capacity(a) {
                assert!(
                    res.memory_usage[a] <= sigma.clone() * cap.clone(),
                    "set {a}: {} > σ·{}",
                    res.memory_usage[a],
                    cap
                );
            }
        }
    }

    #[test]
    fn model2_three_levels_harmonic_sigma() {
        let fam = topology::clustered(2, 2);
        let sizes_by_set: Vec<u64> = fam.sets().iter().map(|s| s.len() as u64).collect();
        let inst =
            Instance::from_fn(fam, 6, |j, a| Some(1 + j as u64 % 2 + sizes_by_set[a] / 2)).unwrap();
        let m2 = MemoryModel2 {
            instance: inst,
            sizes: (0..6).map(|j| Q::ratio(1 + (j % 3) as i64, 3)).collect(),
            mu: Q::from_int(3),
        };
        // k = 3 → σ = 2 + H_3 = 2 + 11/6.
        assert_eq!(m2.sigma(), Q::from_int(2) + Q::ratio(11, 6));
        let t = model2_lp_t_star(&m2).unwrap();
        let res = model2_round(&m2, t).unwrap();
        assert!(res.makespan <= m2.sigma() * Q::from(t));
    }

    #[test]
    fn model2_rejects_bad_parameters() {
        let mut m2 = model2_fixture();
        m2.mu = Q::one();
        assert!(matches!(model2_round(&m2, 10), Err(MemoryError::BadParameters)));
        let mut m2 = model2_fixture();
        m2.sizes[0] = Q::from_int(2);
        assert!(matches!(model2_round(&m2, 10), Err(MemoryError::BadParameters)));
    }

    #[test]
    fn model2_rejects_forest() {
        let fam = laminar::LaminarFamily::new(
            2,
            vec![laminar::MachineSet::singleton(2, 0), laminar::MachineSet::singleton(2, 1)],
        )
        .unwrap();
        let inst = Instance::from_fn(fam, 1, |_, _| Some(1)).unwrap();
        let m2 = MemoryModel2 { instance: inst, sizes: vec![Q::ratio(1, 2)], mu: Q::from_int(2) };
        assert!(matches!(model2_round(&m2, 10), Err(MemoryError::NotUniformTree)));
    }

    /// The warm fixed-layout probes return the same `t_star` as a cold
    /// binary search over the pruned-layout reference LPs, across
    /// fixtures that stress memory pressure, budgets, and topologies.
    #[test]
    fn warm_t_star_matches_cold_reference() {
        let mut m1_cases = vec![model1_fixture()];
        for budget in [3u64, 4, 8, 20] {
            let mut m1 = model1_fixture();
            m1.budgets = vec![budget; 2];
            m1_cases.push(m1);
        }
        {
            // A clustered topology with skewed per-machine sizes.
            let fam = topology::clustered(2, 2);
            let set_len: Vec<u64> = fam.sets().iter().map(|s| s.len() as u64).collect();
            let inst =
                Instance::from_fn(fam, 6, |j, a| Some(1 + j as u64 % 3 + set_len[a] / 2)).unwrap();
            let m = inst.num_machines();
            m1_cases.push(MemoryModel1 {
                instance: inst,
                sizes: (0..6).map(|j| (0..m).map(|i| 1 + ((j + i) % 3) as u64).collect()).collect(),
                budgets: vec![4, 5, 4, 6],
            });
        }
        for (k, m1) in m1_cases.iter().enumerate() {
            let warm = model1_lp_t_star(m1);
            let lo =
                m1.instance.bottleneck_lower_bound().max(m1.instance.volume_lower_bound()).max(1);
            let hi = m1.instance.sequential_upper_bound().max(lo);
            let cold = binary_search_min(lo, hi, &mut |t| model1_lp_feasible(m1, t));
            assert_eq!(warm, cold, "model 1 case {k}");
        }

        let mut m2_cases = vec![model2_fixture()];
        {
            let mut m2 = model2_fixture();
            m2.mu = Q::ratio(3, 2);
            m2_cases.push(m2);
        }
        {
            let fam = topology::clustered(2, 2);
            let sizes_by_set: Vec<u64> = fam.sets().iter().map(|s| s.len() as u64).collect();
            let inst =
                Instance::from_fn(fam, 6, |j, a| Some(1 + j as u64 % 2 + sizes_by_set[a] / 2))
                    .unwrap();
            m2_cases.push(MemoryModel2 {
                instance: inst,
                sizes: (0..6).map(|j| Q::ratio(1 + (j % 3) as i64, 3)).collect(),
                mu: Q::from_int(3),
            });
        }
        for (k, m2) in m2_cases.iter().enumerate() {
            let warm = model2_lp_t_star(m2);
            let lo =
                m2.instance.bottleneck_lower_bound().max(m2.instance.volume_lower_bound()).max(1);
            let hi = m2.instance.sequential_upper_bound().max(lo);
            let cold = binary_search_min(lo, hi, &mut |t| model2_lp_feasible(m2, t));
            assert_eq!(warm, cold, "model 2 case {k}");
        }
    }

    #[test]
    fn model1_tight_memory_forces_spreading() {
        // Two jobs that both fit machine 0 time-wise but not memory-wise.
        let inst = Instance::from_fn(topology::semi_partitioned(2), 2, |_, _| Some(2)).unwrap();
        let m1 = MemoryModel1 {
            instance: inst,
            sizes: vec![vec![4, 4], vec![4, 4]],
            budgets: vec![4, 4],
        };
        let t = model1_lp_t_star(&m1).unwrap();
        let res = model1_round(&m1, t).unwrap();
        for (i, used) in res.memory_usage.iter().enumerate() {
            assert!(*used <= 3 * m1.budgets[i], "machine {i}");
        }
    }
}
