//! Exact 0/1 branch-and-bound on top of the rational simplex.
//!
//! The scheduling experiments need true integral optima of the paper's
//! ILPs ((IP-1), (IP-2) and their decision forms) on small instances to
//! measure approximation ratios. This solver does plain depth-first
//! branch and bound: the LP relaxation prunes (its value is an exact
//! lower bound — no tolerances), branching fixes the most fractional
//! binary variable, and the better-rounded branch is explored first.
//!
//! With `threads > 1` the subtrees are explored by a worker pool over a
//! shared stack. The serial answer is still reproduced bit-for-bit:
//! every node carries its DFS path (near = 0, far = 1), the incumbent
//! is reduced lexicographically by `(objective, path)`, and pruning
//! only ever discards nodes that order *after* the current incumbent —
//! serial DFS visits nodes in exactly path order, so the path-minimal
//! optimum the parallel search converges to is the serial incumbent.
//! Only node *counts* vary with the worker count, never the result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use numeric::Q;

use crate::problem::{LinearProgram, Relation};
use crate::simplex::LpStatus;

/// Solver knobs.
#[derive(Clone, Debug)]
pub struct BnbOptions {
    /// Upper bound on explored nodes; exceeded → [`MilpStatus::NodeLimit`].
    pub node_limit: usize,
    /// Stop at the first integral feasible solution (pure feasibility /
    /// decision problems — the paper's binary-searched (IP-3)).
    pub first_feasible: bool,
    /// Re-solve each child node's relaxation warm from the parent
    /// node's optimal basis ([`LinearProgram::solve_warm`]) instead of
    /// cold. A child differs from its parent by one equality row, so the
    /// parent basis is typically a handful of dual pivots from optimal.
    /// On by default; turn off to reproduce the cold pivot paths.
    pub warm_start: bool,
    /// Workers exploring subtrees concurrently (`0` = the
    /// [`hpool::default_threads`] env-driven default, `1` = the serial
    /// path). Status, objective, and incumbent point are bit-identical
    /// for every value; only [`MilpSolution::nodes`] (and its per-worker
    /// split) varies.
    pub threads: usize,
}

impl Default for BnbOptions {
    fn default() -> Self {
        BnbOptions { node_limit: 200_000, first_feasible: false, warm_start: true, threads: 0 }
    }
}

/// Outcome of a branch-and-bound run.
#[non_exhaustive]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MilpStatus {
    /// Proven optimal (or, with `first_feasible`, proven feasible).
    Optimal,
    /// Proven infeasible.
    Infeasible,
    /// Node limit hit before proof; `values` holds the incumbent if any.
    NodeLimit,
}

/// Result of [`solve_binary`].
#[derive(Clone, Debug)]
pub struct MilpSolution {
    /// Solve outcome.
    pub status: MilpStatus,
    /// Best integral point found (meaningful for `Optimal`, and for
    /// `NodeLimit` when `has_incumbent`).
    pub values: Vec<Q>,
    /// Objective at `values`.
    pub objective: Q,
    /// Whether any integral feasible point was found.
    pub has_incumbent: bool,
    /// Number of branch-and-bound nodes explored.
    pub nodes: usize,
    /// Nodes explored per worker (a single entry on the serial path).
    /// Sums to `nodes`; the split varies run-to-run, the result never
    /// does.
    pub worker_nodes: Vec<usize>,
}

/// Minimize `lp`'s objective with the variables in `binary` restricted to
/// {0, 1} (all other variables stay continuous and nonnegative).
///
/// Upper bounds `x ≤ 1` for the binary variables are added internally.
pub fn solve_binary(lp: &LinearProgram, binary: &[usize], opts: &BnbOptions) -> MilpSolution {
    let mut root = lp.clone();
    for &v in binary {
        root.add_constraint(vec![(v, Q::one())], Relation::Le, Q::one());
    }

    let threads = hpool::resolve_threads(opts.threads);
    if threads > 1 {
        return solve_parallel(&root, lp, binary, opts, threads);
    }

    let mut best: Option<(Q, Vec<Q>)> = None;
    let mut nodes = 0usize;
    let mut hit_limit = false;

    // Each stack entry is a list of (var, value) fixings plus the
    // optimal basis of the parent node's relaxation (warm-start hint;
    // fixing rows are equalities, so the column layout is unchanged and
    // the parent basis points at valid columns of the child).
    let mut stack: Vec<(Vec<(usize, bool)>, Option<Vec<usize>>)> = vec![(Vec::new(), None)];

    while let Some((fixings, parent_basis)) = stack.pop() {
        if nodes >= opts.node_limit {
            hit_limit = true;
            break;
        }
        nodes += 1;

        let mut node_lp = root.clone();
        for &(var, val) in &fixings {
            let rhs = if val { Q::one() } else { Q::zero() };
            node_lp.add_constraint(vec![(var, Q::one())], Relation::Eq, rhs);
        }
        let relax = match &parent_basis {
            Some(hint) if opts.warm_start => node_lp.solve_warm(hint),
            _ => node_lp.solve(),
        };
        match relax.status {
            LpStatus::Infeasible => continue,
            LpStatus::Unbounded => {
                // A bounded-variable binary program can only be unbounded
                // through its continuous part; treat as no useful bound and
                // keep branching only if some binary var is still free.
                // (None of the scheduling programs are unbounded.)
            }
            LpStatus::Optimal => {
                // Bound pruning.
                if let Some((incumbent, _)) = &best {
                    if !opts.first_feasible && relax.objective_value >= *incumbent {
                        continue;
                    }
                }
            }
        }

        // Most fractional binary variable.
        let half = Q::ratio(1, 2);
        let mut branch_var: Option<(usize, Q)> = None;
        if relax.status == LpStatus::Optimal {
            for &v in binary {
                let x = &relax.values[v];
                if x.is_zero() || *x == Q::one() {
                    continue;
                }
                let dist = (x.clone() - half.clone()).abs();
                match &branch_var {
                    None => branch_var = Some((v, dist)),
                    Some((_, best_dist)) => {
                        if dist < *best_dist {
                            branch_var = Some((v, dist));
                        }
                    }
                }
            }
        } else {
            // No LP point to guide us; branch on the first unfixed binary.
            let fixed: Vec<usize> = fixings.iter().map(|&(v, _)| v).collect();
            branch_var = binary.iter().find(|v| !fixed.contains(v)).map(|&v| (v, Q::zero()));
        }

        match branch_var {
            None => {
                // All binary vars integral: candidate incumbent.
                if relax.status != LpStatus::Optimal {
                    continue;
                }
                let obj = relax.objective_value.clone();
                let better = match &best {
                    None => true,
                    Some((incumbent, _)) => obj < *incumbent,
                };
                if better {
                    best = Some((obj, relax.values.clone()));
                    if opts.first_feasible {
                        break;
                    }
                }
            }
            Some((v, _)) => {
                // Explore the branch nearest the LP value first (pushed
                // last → popped first). Both children warm-start from
                // this node's optimal basis, if any.
                let hint = (relax.status == LpStatus::Optimal).then(|| relax.basis.clone());
                let prefer_one = relax.status == LpStatus::Optimal && relax.values[v] >= half;
                let mut near = fixings.clone();
                let mut far = fixings;
                near.push((v, prefer_one));
                far.push((v, !prefer_one));
                stack.push((far, hint.clone()));
                stack.push((near, hint));
            }
        }
    }

    finish(best, lp.num_vars(), nodes, vec![nodes], hit_limit)
}

fn finish(
    best: Option<(Q, Vec<Q>)>,
    num_vars: usize,
    nodes: usize,
    worker_nodes: Vec<usize>,
    hit_limit: bool,
) -> MilpSolution {
    match best {
        Some((obj, values)) => MilpSolution {
            status: if hit_limit { MilpStatus::NodeLimit } else { MilpStatus::Optimal },
            values,
            objective: obj,
            has_incumbent: true,
            nodes,
            worker_nodes,
        },
        None => MilpSolution {
            status: if hit_limit { MilpStatus::NodeLimit } else { MilpStatus::Infeasible },
            values: vec![Q::zero(); num_vars],
            objective: Q::zero(),
            has_incumbent: false,
            nodes,
            worker_nodes,
        },
    }
}

/// A subtree-exploration work item: the fixings that define the node,
/// the warm-start hint from the parent, and the node's DFS path
/// (near = 0, far = 1) — the key the incumbent reduction orders by.
struct Node {
    fixings: Vec<(usize, bool)>,
    hint: Option<Vec<usize>>,
    path: Vec<u8>,
}

/// State shared by the B&B workers under one mutex.
struct Search {
    stack: Vec<Node>,
    /// Workers currently solving a node (may still push children).
    active: usize,
    nodes: usize,
    /// Incumbent as `(objective, leaf path, point)`, reduced by
    /// lexicographic `(objective, path)` — exactly the order serial DFS
    /// discovers leaves in.
    best: Option<(Q, Vec<u8>, Vec<Q>)>,
    hit_limit: bool,
}

fn solve_parallel(
    root: &LinearProgram,
    lp: &LinearProgram,
    binary: &[usize],
    opts: &BnbOptions,
    threads: usize,
) -> MilpSolution {
    let shared = (
        Mutex::new(Search {
            stack: vec![Node { fixings: Vec::new(), hint: None, path: Vec::new() }],
            active: 0,
            nodes: 0,
            best: None,
            hit_limit: false,
        }),
        Condvar::new(),
    );
    let counts: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    // Every worker is a pool task (the caller only joins). A caller
    // that is itself a pool worker helps run the queued workers while
    // it joins, so the search completes even on a single-worker pool.
    hpool::ThreadPool::global().scope(|s| {
        for w in 0..threads {
            let (shared, counts) = (&shared, &counts);
            s.spawn(move || {
                let n = bnb_worker(root, binary, opts, shared);
                counts[w].store(n, Ordering::Relaxed);
            });
        }
    });
    let search = shared.0.into_inner().expect("no worker panicked holding the search lock");
    let worker_nodes: Vec<usize> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    debug_assert_eq!(worker_nodes.iter().sum::<usize>(), search.nodes);
    let best = search.best.map(|(obj, _, values)| (obj, values));
    finish(best, lp.num_vars(), search.nodes, worker_nodes, search.hit_limit)
}

/// One worker: pop → solve relaxation → prune/accept/branch, until the
/// stack is empty and no sibling can refill it. Returns its node count.
fn bnb_worker(
    root: &LinearProgram,
    binary: &[usize],
    opts: &BnbOptions,
    shared: &(Mutex<Search>, Condvar),
) -> usize {
    let (mx, cv) = shared;
    let half = Q::ratio(1, 2);
    let mut processed = 0usize;
    loop {
        let node = {
            let mut s = mx.lock().expect("search lock");
            loop {
                if let Some(node) = s.stack.pop() {
                    if s.hit_limit || s.nodes >= opts.node_limit {
                        s.hit_limit = true;
                        s.stack.clear();
                        continue;
                    }
                    // In first-feasible mode serial stops at its first
                    // feasible leaf, so nodes ordered after the current
                    // best can never be the answer — drop them unsolved
                    // (and uncounted, as serial never visits them).
                    if opts.first_feasible {
                        if let Some((_, bpath, _)) = &s.best {
                            if node.path > *bpath {
                                continue;
                            }
                        }
                    }
                    s.nodes += 1;
                    s.active += 1;
                    break node;
                }
                if s.active == 0 {
                    cv.notify_all();
                    return processed;
                }
                s = cv.wait(s).expect("search lock");
            }
        };
        processed += 1;

        // Node relaxation — identical to the serial path, outside the
        // lock. Each node solve is itself serial (`solve_warm` / `solve`
        // run the default options), so vertices and bases are the serial
        // ones bit-for-bit.
        let mut node_lp = root.clone();
        for &(var, val) in &node.fixings {
            let rhs = if val { Q::one() } else { Q::zero() };
            node_lp.add_constraint(vec![(var, Q::one())], Relation::Eq, rhs);
        }
        let relax = match &node.hint {
            Some(hint) if opts.warm_start => node_lp.solve_warm(hint),
            _ => node_lp.solve(),
        };

        // Branch variable (pure function of the relaxation, lock-free):
        // most fractional, or the first unfixed binary without a point.
        let branch_var: Option<usize> = if relax.status == LpStatus::Optimal {
            let mut bv: Option<(usize, Q)> = None;
            for &v in binary {
                let x = &relax.values[v];
                if x.is_zero() || *x == Q::one() {
                    continue;
                }
                let dist = (x.clone() - half.clone()).abs();
                match &bv {
                    None => bv = Some((v, dist)),
                    Some((_, best_dist)) => {
                        if dist < *best_dist {
                            bv = Some((v, dist));
                        }
                    }
                }
            }
            bv.map(|(v, _)| v)
        } else if relax.status == LpStatus::Unbounded {
            let fixed: Vec<usize> = node.fixings.iter().map(|&(v, _)| v).collect();
            binary.iter().find(|v| !fixed.contains(v)).copied()
        } else {
            None
        };

        let mut s = mx.lock().expect("search lock");
        s.active -= 1;
        if !s.hit_limit && relax.status != LpStatus::Infeasible {
            // Bound pruning against the *current* incumbent: discard
            // only nodes ordering after it in `(objective, path)` — the
            // nodes serial DFS provably prunes or never reaches.
            let pruned = match (&relax.status, &s.best) {
                (LpStatus::Optimal, Some((bobj, bpath, _))) => {
                    if opts.first_feasible {
                        node.path > *bpath
                    } else {
                        relax.objective_value > *bobj
                            || (relax.objective_value == *bobj && node.path > *bpath)
                    }
                }
                _ => false,
            };
            if !pruned {
                match branch_var {
                    None if relax.status == LpStatus::Optimal => {
                        let accept = match &s.best {
                            None => true,
                            Some((bobj, bpath, _)) => {
                                if opts.first_feasible {
                                    node.path < *bpath
                                } else {
                                    relax.objective_value < *bobj
                                        || (relax.objective_value == *bobj && node.path < *bpath)
                                }
                            }
                        };
                        if accept {
                            s.best = Some((
                                relax.objective_value.clone(),
                                node.path.clone(),
                                relax.values.clone(),
                            ));
                        }
                    }
                    None => {}
                    Some(v) => {
                        let hint = (relax.status == LpStatus::Optimal).then(|| relax.basis.clone());
                        let prefer_one =
                            relax.status == LpStatus::Optimal && relax.values[v] >= half;
                        let mut near = node.fixings.clone();
                        let mut far = node.fixings;
                        near.push((v, prefer_one));
                        far.push((v, !prefer_one));
                        let mut near_path = node.path.clone();
                        let mut far_path = node.path;
                        near_path.push(0);
                        far_path.push(1);
                        s.stack.push(Node { fixings: far, hint: hint.clone(), path: far_path });
                        s.stack.push(Node { fixings: near, hint, path: near_path });
                    }
                }
            }
        }
        cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: i64) -> Q {
        Q::from_int(v)
    }

    /// Knapsack-style: min -(3a + 4b + 5c) s.t. 2a + 3b + 4c <= 5.
    /// Best: a + b (weight 5, value 7) vs a + c (6 > 5 no) vs b? …
    #[test]
    fn knapsack_optimum() {
        let mut lp = LinearProgram::new(3);
        lp.set_objective(0, q(-3));
        lp.set_objective(1, q(-4));
        lp.set_objective(2, q(-5));
        lp.add_constraint(vec![(0, q(2)), (1, q(3)), (2, q(4))], Relation::Le, q(5));
        let sol = solve_binary(&lp, &[0, 1, 2], &BnbOptions::default());
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert_eq!(sol.objective, q(-7));
        assert_eq!(sol.values[0], q(1));
        assert_eq!(sol.values[1], q(1));
        assert_eq!(sol.values[2], q(0));
    }

    #[test]
    fn infeasible_binary() {
        // a + b = 1 and a + b = 2 cannot both hold.
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Eq, q(1));
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Eq, q(2));
        let sol = solve_binary(&lp, &[0, 1], &BnbOptions::default());
        assert_eq!(sol.status, MilpStatus::Infeasible);
        assert!(!sol.has_incumbent);
    }

    #[test]
    fn integrality_forces_worse_than_lp() {
        // min -(a+b) s.t. a + b <= 3/2: LP gives 3/2, ILP gives 1.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, q(-1));
        lp.set_objective(1, q(-1));
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Le, Q::ratio(3, 2));
        let sol = solve_binary(&lp, &[0, 1], &BnbOptions::default());
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert_eq!(sol.objective, q(-1));
    }

    #[test]
    fn first_feasible_mode_stops_early() {
        let mut lp = LinearProgram::new(4);
        // Assignment-style feasibility: each pair sums to 1.
        lp.add_constraint(vec![(0, q(1)), (1, q(1))], Relation::Eq, q(1));
        lp.add_constraint(vec![(2, q(1)), (3, q(1))], Relation::Eq, q(1));
        let sol = solve_binary(
            &lp,
            &[0, 1, 2, 3],
            &BnbOptions { first_feasible: true, ..Default::default() },
        );
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!(sol.has_incumbent);
        // Each pair is a 0/1 split.
        assert_eq!(sol.values[0].clone() + sol.values[1].clone(), q(1));
        assert_eq!(sol.values[2].clone() + sol.values[3].clone(), q(1));
    }

    #[test]
    fn mixed_continuous_and_binary() {
        // min y s.t. y >= 2 - 2a, y >= 2a - 1, a binary, y continuous.
        // a=0 → y=2; a=1 → y=1. Optimum: y=1 with a=1.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(1, q(1));
        lp.add_constraint(vec![(1, q(1)), (0, q(2))], Relation::Ge, q(2));
        lp.add_constraint(vec![(1, q(1)), (0, q(-2))], Relation::Ge, q(-1));
        let sol = solve_binary(&lp, &[0], &BnbOptions::default());
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert_eq!(sol.values[0], q(1));
        assert_eq!(sol.values[1], q(1));
    }

    /// Warm-started and cold branch-and-bound prove the same optimum
    /// (the trees may differ — the proof may not).
    #[test]
    fn warm_start_agrees_with_cold() {
        let mut lp = LinearProgram::new(5);
        for v in 0..5 {
            lp.set_objective(v, q(-(v as i64 + 2)));
        }
        lp.add_constraint((0..5).map(|v| (v, q(v as i64 + 1))), Relation::Le, q(7));
        lp.add_constraint(vec![(0, q(1)), (2, q(1)), (4, q(1))], Relation::Le, q(2));
        let binary: Vec<usize> = (0..5).collect();
        let warm = solve_binary(&lp, &binary, &BnbOptions::default());
        let cold =
            solve_binary(&lp, &binary, &BnbOptions { warm_start: false, ..Default::default() });
        assert_eq!(warm.status, MilpStatus::Optimal);
        assert_eq!(cold.status, MilpStatus::Optimal);
        assert_eq!(warm.objective, cold.objective);
    }

    #[test]
    fn node_limit_reported() {
        // Fractional at the root (Σx = 5/2) so branching is required; a
        // budget of one node cannot finish the proof.
        let mut lp = LinearProgram::new(6);
        let coeffs: Vec<(usize, Q)> = (0..6).map(|i| (i, q(1))).collect();
        lp.add_constraint(coeffs, Relation::Eq, Q::ratio(5, 2));
        for i in 0..6 {
            lp.set_objective(i, q(if i % 2 == 0 { 1 } else { -1 }));
        }
        let sol = solve_binary(
            &lp,
            &[0, 1, 2, 3, 4, 5],
            &BnbOptions { node_limit: 1, ..Default::default() },
        );
        assert_eq!(sol.status, MilpStatus::NodeLimit);
    }
}
