//! Differential tests: the revised (factorized-basis) production solver,
//! the certified hybrid, and the warm-started solvers against the dense
//! test oracle.
//!
//! The revised solver is written to be *pivot-identical* to the dense
//! one (same assembly, same Bland rules, same ratio tie-break), so on top
//! of status/objective agreement we can assert the stronger property
//! that the returned vertices — and bases — are equal. The warm solvers
//! take a different pivot path by design, so for them we assert semantic
//! agreement: same status, same optimal objective, feasible vertex,
//! vertex support bound.

mod common;

use common::{q, random_lp, wide_lp};
use lp::{LinearProgram, LpStatus, Pricing, Relation, SolveOptions, Solver, WarmCache};
use numeric::Q;
use proptest::prelude::*;

/// [`random_lp`]'s program with every row scrambled before it is added:
/// each entry split into two pieces that sum to it, cancelling pairs
/// `(g, w), (g, −w)` added, and the whole row permuted by `keys`.
#[allow(clippy::too_many_arguments)]
fn scrambled_lp(
    nv: usize,
    objs: &[i64],
    coefs: &[i64],
    rels: &[u8],
    rhss: &[i64],
    n_cons: usize,
    keys: &[u32],
    splits: &[i64],
    ghosts: &[(usize, i64)],
) -> LinearProgram {
    let mut lp = LinearProgram::new(nv);
    for v in 0..nv {
        lp.set_objective(v, q(objs[v % objs.len()]));
    }
    for c in 0..n_cons {
        let mut row = Vec::new();
        for v in 0..nv {
            let w = coefs[(c * nv + v) % coefs.len()];
            if w != 0 {
                let s = splits[(c * nv + v) % splits.len()];
                row.push((v, q(s)));
                row.push((v, q(w - s)));
            }
        }
        if row.is_empty() {
            continue;
        }
        for &(g, w) in ghosts {
            row.push((g % nv, q(w)));
            row.push((g % nv, q(-w)));
        }
        let mut order: Vec<usize> = (0..row.len()).collect();
        order.sort_by_key(|&k| (keys[(c * 7 + k) % keys.len()], k));
        let rel = match rels[c % rels.len()] % 3 {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        lp.add_constraint(order.into_iter().map(|k| row[k].clone()), rel, q(rhss[c % rhss.len()]));
    }
    lp
}

proptest! {
    /// Rows given unsorted, with repeated indices and with entries that
    /// cancel to zero are normalized when they are added: the dense,
    /// revised and hybrid solvers agree on status, objective and vertex
    /// on them, and with the dense solve of the same rows given clean.
    #[test]
    fn scrambled_rows_solve_like_clean_ones(
        nv in 1usize..5,
        n_cons in 0usize..6,
        objs in proptest::collection::vec(-4i64..5, 5),
        coefs in proptest::collection::vec(-3i64..4, 30),
        rels in proptest::collection::vec(0u8..3, 6),
        rhss in proptest::collection::vec(-6i64..12, 6),
        keys in proptest::collection::vec(0u32..1000, 16),
        splits in proptest::collection::vec(-5i64..6, 7),
        ghosts in proptest::collection::vec((0usize..5, 1i64..4), 0..4),
    ) {
        let clean = random_lp(nv, &objs, &coefs, &rels, &rhss, n_cons).solve_dense();
        let lp = scrambled_lp(nv, &objs, &coefs, &rels, &rhss, n_cons, &keys, &splits, &ghosts);
        let dense = lp.solve_dense();
        let revised = lp.solve();
        let (hybrid, _) = lp.solve_with(Solver::Hybrid.into());
        for sol in [&dense, &revised, &hybrid] {
            prop_assert_eq!(clean.status, sol.status);
            if clean.status == LpStatus::Optimal {
                prop_assert_eq!(&clean.objective_value, &sol.objective_value);
                prop_assert_eq!(&clean.values, &sol.values, "vertices must be identical");
            }
        }
    }

    /// Dense and revised agree bit-for-bit on random mixed-relation LPs
    /// — status, objective, vertex, and basis.
    #[test]
    fn revised_matches_dense_exactly(
        nv in 1usize..5,
        n_cons in 0usize..6,
        objs in proptest::collection::vec(-4i64..5, 5),
        coefs in proptest::collection::vec(-3i64..4, 30),
        rels in proptest::collection::vec(0u8..3, 6),
        rhss in proptest::collection::vec(-6i64..12, 6),
    ) {
        let lp = random_lp(nv, &objs, &coefs, &rels, &rhss, n_cons);
        let dense = lp.solve_dense();
        let revised = lp.solve();
        prop_assert_eq!(dense.status, revised.status);
        if dense.status == LpStatus::Optimal {
            prop_assert_eq!(&dense.objective_value, &revised.objective_value);
            prop_assert_eq!(&dense.values, &revised.values, "vertices must be identical");
            prop_assert_eq!(&dense.basis, &revised.basis, "bases must be identical");
            prop_assert!(lp.is_feasible_point(&revised.values));
        }
    }

    /// The warm solver agrees with the reference on status and optimal
    /// value for any hint — the previous cold basis, a prefix of it, or
    /// arbitrary column junk — and always returns a feasible vertex.
    #[test]
    fn warm_matches_dense_semantics(
        nv in 1usize..5,
        n_cons in 0usize..6,
        objs in proptest::collection::vec(0i64..5, 5),
        coefs in proptest::collection::vec(-3i64..4, 30),
        rels in proptest::collection::vec(0u8..3, 6),
        rhss in proptest::collection::vec(-6i64..12, 6),
        junk in proptest::collection::vec(0usize..12, 0..6),
    ) {
        // Nonnegative objective keeps the warm primal phase bounded, so
        // status comparison is exactly {Optimal, Infeasible}.
        let lp = random_lp(nv, &objs, &coefs, &rels, &rhss, n_cons);
        let reference = lp.solve_dense();
        let hints: Vec<Vec<usize>> = vec![
            reference.basis.clone(),
            reference.basis.iter().copied().take(reference.basis.len() / 2).collect(),
            junk,
            Vec::new(),
        ];
        for hint in hints {
            // Both warm implementations: the factorized exact one and the
            // certified hybrid.
            for solver in [Solver::Revised, Solver::Hybrid] {
                let warm = lp.solve_warm_with(&hint, solver.into());
                prop_assert_eq!(reference.status, warm.status, "hint {:?} ({:?})", &hint, solver);
                if reference.status == LpStatus::Optimal {
                    prop_assert_eq!(&reference.objective_value, &warm.objective_value);
                    prop_assert!(lp.is_feasible_point(&warm.values));
                    // Vertex property: ≤ one positive variable per row.
                    let positive = warm.values.iter().filter(|v| v.is_positive()).count();
                    prop_assert!(positive <= lp.num_constraints());
                }
            }
        }
    }

    /// Warm re-solving a *perturbed* right-hand side from the old basis —
    /// the binary-search-on-T access pattern — stays exact.
    #[test]
    fn warm_tracks_rhs_changes(
        nv in 2usize..5,
        caps in proptest::collection::vec(1i64..20, 4),
        delta in -3i64..8,
    ) {
        // Assignment-polytope shape: x_v ≥ 0, Σ x_v = nv−1, x_v ≤ cap_v.
        let build = |shift: i64| {
            let mut lp = LinearProgram::new(nv);
            lp.add_constraint(
                (0..nv).map(|v| (v, Q::one())),
                Relation::Eq,
                q(nv as i64 - 1),
            );
            for v in 0..nv {
                lp.add_constraint(vec![(v, q(1))], Relation::Le, q((caps[v % caps.len()] + shift).max(0)));
            }
            lp
        };
        let base = build(0).solve();
        let perturbed = build(delta);
        let warm = perturbed.solve_warm(&base.basis);
        let cold = perturbed.solve_dense();
        prop_assert_eq!(cold.status, warm.status);
        if cold.status == LpStatus::Optimal {
            prop_assert_eq!(&cold.objective_value, &warm.objective_value);
            prop_assert!(perturbed.is_feasible_point(&warm.values));
        }
        // The cached path (cold → warm → warm, factorization reuse when
        // the basis columns are unchanged) agrees at every step.
        let mut cache = WarmCache::new();
        for shift in [0i64, delta, delta.saturating_sub(1)] {
            let lp = build(shift);
            let cached = lp.solve_warm_cached(&mut cache);
            let reference = lp.solve_dense();
            prop_assert_eq!(reference.status, cached.status, "shift {}", shift);
            if reference.status == LpStatus::Optimal {
                prop_assert_eq!(&reference.objective_value, &cached.objective_value);
                prop_assert!(lp.is_feasible_point(&cached.values));
            }
        }
    }

    /// The cold hybrid (float proposal + exact certification, exact
    /// fallback) agrees with the exact revised solver bit-for-bit on
    /// random mixed-relation LPs: its float phase mirrors the exact
    /// Bland pivot order, so on small-integer data a certified basis is
    /// the *same* basis and the vertex matches — and a fallback runs the
    /// revised path verbatim.
    #[test]
    fn hybrid_matches_revised_exactly(
        nv in 1usize..5,
        n_cons in 0usize..6,
        objs in proptest::collection::vec(-4i64..5, 5),
        coefs in proptest::collection::vec(-3i64..4, 30),
        rels in proptest::collection::vec(0u8..3, 6),
        rhss in proptest::collection::vec(-6i64..12, 6),
    ) {
        let lp = random_lp(nv, &objs, &coefs, &rels, &rhss, n_cons);
        let exact = lp.solve();
        let (hybrid, _) = lp.solve_with(Solver::Hybrid.into());
        prop_assert_eq!(exact.status, hybrid.status);
        if exact.status == LpStatus::Optimal {
            prop_assert_eq!(&exact.objective_value, &hybrid.objective_value);
            prop_assert_eq!(&exact.values, &hybrid.values, "vertices must be identical");
            prop_assert!(lp.is_feasible_point(&hybrid.values));
        }
    }

    /// The candidate pricing strategy takes different pivot paths than
    /// Bland by design, but every optimum it reaches is exact: same
    /// status and optimal objective on random mixed-relation LPs, for
    /// both the exact revised solver and the certified hybrid.
    #[test]
    fn pricing_strategies_match_bland(
        nv in 1usize..5,
        n_cons in 0usize..6,
        objs in proptest::collection::vec(-4i64..5, 5),
        coefs in proptest::collection::vec(-3i64..4, 30),
        rels in proptest::collection::vec(0u8..3, 6),
        rhss in proptest::collection::vec(-6i64..12, 6),
    ) {
        let lp = random_lp(nv, &objs, &coefs, &rels, &rhss, n_cons);
        let bland = lp.solve();
        let pricing = Pricing::PartialCandidate;
        let (sol, _) = lp.solve_with(SolveOptions { pricing, ..SolveOptions::default() });
        prop_assert_eq!(bland.status, sol.status, "{:?}", pricing);
        if bland.status == LpStatus::Optimal {
            prop_assert_eq!(&bland.objective_value, &sol.objective_value, "{:?}", pricing);
            prop_assert!(lp.is_feasible_point(&sol.values));
        }
        // The hybrid under the same strategy must stay certified-or-
        // fallback exact as well.
        let (hyb, stats) = lp.solve_with(SolveOptions { solver: Solver::Hybrid, pricing });
        prop_assert_eq!(bland.status, hyb.status, "hybrid {:?}", pricing);
        prop_assert_eq!(stats.hybrid_certified + stats.hybrid_fallbacks, 1);
        if bland.status == LpStatus::Optimal {
            prop_assert_eq!(&bland.objective_value, &hyb.objective_value, "hybrid {:?}", pricing);
            prop_assert!(lp.is_feasible_point(&hyb.values));
        }
    }

    /// Warm-started re-solves through a pricing-configured cache track
    /// right-hand-side perturbations exactly under candidate pricing and
    /// both warm backends (exact revised + certified hybrid).
    #[test]
    fn pricing_warm_resolves_match(
        nv in 2usize..5,
        caps in proptest::collection::vec(1i64..20, 4),
        delta in -3i64..8,
    ) {
        let build = |shift: i64| {
            let mut lp = LinearProgram::new(nv);
            lp.add_constraint(
                (0..nv).map(|v| (v, Q::one())),
                Relation::Eq,
                q(nv as i64 - 1),
            );
            for v in 0..nv {
                lp.add_constraint(vec![(v, q(1))], Relation::Le, q((caps[v % caps.len()] + shift).max(0)));
            }
            lp
        };
        for solver in [Solver::Revised, Solver::Hybrid] {
            let pricing = Pricing::PartialCandidate;
            let mut cache = WarmCache::with_options(SolveOptions { solver, pricing });
            for shift in [0i64, delta, delta.saturating_sub(1)] {
                let lp = build(shift);
                let cached = lp.solve_warm_cached(&mut cache);
                let reference = lp.solve_dense();
                prop_assert_eq!(
                    reference.status, cached.status,
                    "{:?}/{:?} shift {}", solver, pricing, shift
                );
                if reference.status == LpStatus::Optimal {
                    prop_assert_eq!(&reference.objective_value, &cached.objective_value);
                    prop_assert!(lp.is_feasible_point(&cached.values));
                }
            }
        }
    }

    /// The near-degenerate Beale family under candidate pricing:
    /// cycling-prone ties are where a pricing bug would surface as
    /// non-termination or a wrong optimum. The degenerate-streak guard
    /// must keep the strategy terminating at the exact optimum, cold and
    /// hybrid alike.
    #[test]
    fn pricing_survives_near_degenerate_perturbations(
        k in 5u32..50,
        signs in proptest::collection::vec(proptest::bool::ANY, 8),
        perturb_rhs in proptest::bool::ANY,
    ) {
        let eps = Q::ratio(1, 1i64 << k.min(62));
        let tweak = |idx: usize, base: Q| -> Q {
            if signs[idx % signs.len()] { base + eps.clone() } else { base - eps.clone() }
        };
        let mut lp = LinearProgram::new(4);
        lp.set_objective(0, tweak(0, Q::ratio(-3, 4)));
        lp.set_objective(1, q(150));
        lp.set_objective(2, tweak(1, Q::ratio(-1, 50)));
        lp.set_objective(3, q(6));
        let rhs0 = if perturb_rhs { tweak(2, Q::zero()) } else { Q::zero() };
        let rhs1 = if perturb_rhs { tweak(3, Q::zero()) } else { Q::zero() };
        lp.add_constraint(
            vec![(0, tweak(4, Q::ratio(1, 4))), (1, q(-60)), (2, Q::ratio(-1, 25)), (3, q(9))],
            Relation::Le,
            rhs0,
        );
        lp.add_constraint(
            vec![(0, Q::ratio(1, 2)), (1, q(-90)), (2, tweak(5, Q::ratio(-1, 50))), (3, q(3))],
            Relation::Le,
            rhs1,
        );
        lp.add_constraint(vec![(2, q(1))], Relation::Le, tweak(6, q(1)));
        let exact = lp.solve();
        let pricing = Pricing::PartialCandidate;
        let (sol, _) = lp.solve_with(SolveOptions { pricing, ..SolveOptions::default() });
        prop_assert_eq!(exact.status, sol.status, "{:?} k = {}", pricing, k);
        if exact.status == LpStatus::Optimal {
            prop_assert_eq!(&exact.objective_value, &sol.objective_value, "{:?} k = {}", pricing, k);
            prop_assert!(lp.is_feasible_point(&sol.values));
        }
        let (hyb, stats) = lp.solve_with(SolveOptions { solver: Solver::Hybrid, pricing });
        prop_assert_eq!(exact.status, hyb.status, "hybrid {:?} k = {}", pricing, k);
        prop_assert_eq!(stats.hybrid_certified + stats.hybrid_fallbacks, 1);
        if exact.status == LpStatus::Optimal {
            prop_assert_eq!(&exact.objective_value, &hyb.objective_value, "hybrid {:?} k = {}", pricing, k);
            prop_assert!(lp.is_feasible_point(&hyb.values));
        }
    }

    /// Near-degenerate stress family for the certifier: a Beale-style
    /// cycling-prone program whose coefficients and right-hand sides are
    /// perturbed by tiny dyadic amounts `±2^-k`. Small `k` keeps the
    /// float path exact (dyadics are representable); `k` beyond ~30
    /// drops the perturbation below the float tolerance, forcing wrong
    /// proposals that certification must catch and route to the exact
    /// fallback. Either way the hybrid must match the revised solver on
    /// status, objective, and vertex.
    #[test]
    fn hybrid_survives_near_degenerate_perturbations(
        k in 5u32..50,
        signs in proptest::collection::vec(proptest::bool::ANY, 8),
        perturb_rhs in proptest::bool::ANY,
    ) {
        let eps = Q::ratio(1, 1i64 << k.min(62));
        let tweak = |idx: usize, base: Q| -> Q {
            if signs[idx % signs.len()] { base + eps.clone() } else { base - eps.clone() }
        };
        // Beale's cycling example, perturbed.
        let mut lp = LinearProgram::new(4);
        lp.set_objective(0, tweak(0, Q::ratio(-3, 4)));
        lp.set_objective(1, q(150));
        lp.set_objective(2, tweak(1, Q::ratio(-1, 50)));
        lp.set_objective(3, q(6));
        let rhs0 = if perturb_rhs { tweak(2, Q::zero()) } else { Q::zero() };
        let rhs1 = if perturb_rhs { tweak(3, Q::zero()) } else { Q::zero() };
        lp.add_constraint(
            vec![(0, tweak(4, Q::ratio(1, 4))), (1, q(-60)), (2, Q::ratio(-1, 25)), (3, q(9))],
            Relation::Le,
            rhs0,
        );
        lp.add_constraint(
            vec![(0, Q::ratio(1, 2)), (1, q(-90)), (2, tweak(5, Q::ratio(-1, 50))), (3, q(3))],
            Relation::Le,
            rhs1,
        );
        lp.add_constraint(vec![(2, q(1))], Relation::Le, tweak(6, q(1)));
        let exact = lp.solve();
        let (hybrid, _) = lp.solve_with(Solver::Hybrid.into());
        prop_assert_eq!(exact.status, hybrid.status);
        if exact.status == LpStatus::Optimal {
            prop_assert_eq!(&exact.objective_value, &hybrid.objective_value);
            prop_assert_eq!(&exact.values, &hybrid.values, "k = {}", k);
            prop_assert!(lp.is_feasible_point(&hybrid.values));
        }
    }
}

/// Candidate pricing on a program wide enough to fill its list:
/// `wide_lp(300, _)` has 601 columns against a list cap of 24, so the
/// rotating refill stops at the cap and resumes from its cursor — the
/// small random programs above never get there. Revised Bland is the
/// reference; candidate pricing under both solvers matches its status
/// and objective at a feasible point, and the hybrid under Bland returns
/// its vertex.
#[test]
fn pricing_strategies_match_bland_on_a_wide_program() {
    for seed in [3, 11] {
        let lp = wide_lp(300, seed);
        let bland = lp.solve();
        assert_eq!(bland.status, LpStatus::Optimal, "seed {seed}");
        for solver in [Solver::Revised, Solver::Hybrid] {
            let pricing = Pricing::PartialCandidate;
            let (sol, _) = lp.solve_with(SolveOptions { solver, pricing });
            assert_eq!(sol.status, bland.status, "seed {seed} {solver:?}/{pricing:?}");
            assert_eq!(
                sol.objective_value, bland.objective_value,
                "seed {seed} {solver:?}/{pricing:?}"
            );
            assert!(lp.is_feasible_point(&sol.values), "seed {seed} {solver:?}/{pricing:?}");
        }
        let (hybrid, _) = lp.solve_with(Solver::Hybrid.into());
        assert_eq!(hybrid.status, bland.status, "seed {seed}");
        assert_eq!(hybrid.values, bland.values, "seed {seed}: hybrid Bland vertex");
    }
}
