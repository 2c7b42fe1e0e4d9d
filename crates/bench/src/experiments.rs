//! The experiment implementations E1–E10 (see DESIGN.md §4 and
//! EXPERIMENTS.md for the paper-vs-measured record).
//!
//! Every experiment returns a structured [`Report`] (table + seed spec +
//! notes) that the harness binary renders as text, CSV, JSON, or the
//! Markdown committed in EXPERIMENTS.md.

use std::time::{Duration, Instant};

use baselines::greedy::greedy_hierarchical;
use baselines::mcnaughton::mcnaughton;
use baselines::partitioned::lpt_greedy;
use baselines::semi::semi_first_fit;
use hsched_core::approx::{
    eight_approx, singleton_times, two_approx, two_approx_with, GeneralInstance, TwoApproxMethod,
};
use hsched_core::exact::{solve_exact, ExactError, ExactOptions};
use hsched_core::lst::{lpt_schedule, lst_assign, lst_binary_search};
use hsched_core::memory::{model1_lp_t_star, model1_round, model2_lp_t_star, model2_round};
use hsched_core::semi::schedule_semi_partitioned;
use hsched_core::Assignment;
use laminar::{topology, LaminarFamily, MachineSet};
use numeric::Q;
use simulator::simulate;
use workloads::{memory, paper, random, rng};

use crate::fixtures;
use crate::{Report, Table};

/// E1 — Example II.1: semi-partitioned OPT 2 vs unrelated OPT 3.
pub fn e1() -> Report {
    let semi = solve_exact(&paper::example_ii_1(), &ExactOptions::default()).expect("ok");
    let unrel =
        solve_exact(&paper::example_ii_1_unrelated(), &ExactOptions::default()).expect("ok");
    let mut t = Table::new(&["model", "optimal makespan", "paper"]);
    t.row(vec!["semi-partitioned".into(), semi.t.to_string(), "2".into()]);
    t.row(vec!["unrelated (no migration)".into(), unrel.t.to_string(), "3".into()]);
    assert_eq!((semi.t, unrel.t), (2, 3), "paper values reproduced exactly");
    let d = semi.schedule.disruptions();
    Report::new("e1", "Example II.1: the value of limited migration", t)
        .seeds("deterministic (verbatim paper example, no RNG)")
        .note(format!(
            "schedule at T = 2 uses {} migration(s), {} preemption(s) (paper: job 3 migrates once)",
            d.migrations, d.preemptions
        ))
}

/// E2 — Example V.1: the hierarchical-vs-unrelated gap approaches 2.
pub fn e2(n_max: usize) -> Report {
    let mut t = Table::new(&["n", "hier OPT", "unrel OPT", "ratio", "paper hier", "paper unrel"]);
    for n in 3..=n_max {
        let h = solve_exact(&paper::example_v_1(n), &ExactOptions::default()).expect("ok");
        let u =
            solve_exact(&paper::example_v_1_unrelated(n), &ExactOptions::default()).expect("ok");
        assert_eq!(h.t as usize, n - 1);
        assert_eq!(u.t as usize, 2 * n - 3);
        t.row(vec![
            n.to_string(),
            h.t.to_string(),
            u.t.to_string(),
            format!("{:.4}", u.t as f64 / h.t as f64),
            (n - 1).to_string(),
            (2 * n - 3).to_string(),
        ]);
    }
    Report::new("e2", "Example V.1: gap series (paper: (2n-3)/(n-1) → 2)", t)
        .seeds("deterministic (verbatim paper family, no RNG)")
}

/// Instance sizes probed by E3. Kept ≤ 8: the n = 10 clustered probes
/// explode the exact branch-and-bound (observed > 20 min CPU-bound),
/// which made `harness all` effectively unrunnable.
pub const E3_SIZES: [usize; 2] = [6, 8];

/// Per-probe branch-and-bound node budget for E3's exact baselines.
pub const E3_NODE_LIMIT: usize = 50_000;

/// Default wall-clock budget for a full E3 run.
pub const E3_DEFAULT_BUDGET: Duration = Duration::from_secs(60);

/// E3 — Theorem V.2: empirical approximation ratio of the 2-approximation
/// against the exact optimum (default time budget).
pub fn e3(seeds: u64) -> Report {
    e3_with(seeds, E3_DEFAULT_BUDGET)
}

/// [`e3`] under an explicit wall-clock budget: instances whose exact
/// solve exhausts [`E3_NODE_LIMIT`] are skipped (the ratio needs a
/// *proven* optimum), and the sweep stops early — recording how much was
/// covered — once the budget is spent. This is what keeps `harness all`
/// terminating in minutes instead of hours.
pub fn e3_with(seeds: u64, budget: Duration) -> Report {
    let start = Instant::now();
    let opts = ExactOptions { node_limit: E3_NODE_LIMIT, ..Default::default() };
    let mut t = Table::new(&[
        "topology",
        "n",
        "mean ratio",
        "max ratio",
        "LST-only mean",
        "T*≤OPT",
        "runs",
        "skipped",
    ]);
    let mut global_max = 0.0f64;
    let mut truncated = false;
    'sweep: for (name, fam) in fixtures::e3_topologies() {
        for n in E3_SIZES {
            let mut ratios = Vec::new();
            let mut lst_ratios = Vec::new();
            let mut skipped = 0usize;
            let mut tstar_ok = true;
            for seed in 0..seeds {
                if start.elapsed() > budget {
                    truncated = true;
                    break 'sweep;
                }
                let inst = fixtures::e3_instance(fam.clone(), n, seed * 97 + n as u64);
                let approx = two_approx(&inst);
                let exact = match solve_exact(&inst, &opts) {
                    Ok(res) => res,
                    Err(ExactError::NodeLimit { .. }) => {
                        skipped += 1;
                        continue;
                    }
                };
                let ratio = approx.makespan.to_f64() / exact.t as f64;
                assert!(
                    approx.makespan <= Q::from(2 * exact.t),
                    "guarantee violated: {name} n={n} seed={seed}"
                );
                tstar_ok &= approx.t_star <= exact.t;
                ratios.push(ratio);
                // The paper's algorithm alone: the LST rounding before the
                // better-of choice with the LPT schedule.
                let p = singleton_times(&approx.instance);
                let lst_only = lst_assign(&p, approx.instance.num_machines(), approx.t_star)
                    .expect("T* is feasible")
                    .lst_makespan;
                assert!(
                    lst_only <= 2 * exact.t,
                    "LST guarantee violated: {name} n={n} seed={seed}"
                );
                lst_ratios.push(lst_only as f64 / exact.t as f64);
            }
            if ratios.is_empty() && skipped == 0 {
                continue;
            }
            // All probes skipped: no proven optima, so no ratio to report.
            let (mean_cell, max_cell, lst_cell, tstar_cell) = if ratios.is_empty() {
                let na = || "n/a".to_string();
                (na(), na(), na(), na())
            } else {
                let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
                let max = ratios.iter().cloned().fold(0.0, f64::max);
                let lst_mean = lst_ratios.iter().sum::<f64>() / lst_ratios.len() as f64;
                global_max = global_max.max(max);
                (
                    format!("{mean:.4}"),
                    format!("{max:.4}"),
                    format!("{lst_mean:.4}"),
                    tstar_ok.to_string(),
                )
            };
            t.row(vec![
                name.to_string(),
                n.to_string(),
                mean_cell,
                max_cell,
                lst_cell,
                tstar_cell,
                ratios.len().to_string(),
                skipped.to_string(),
            ]);
        }
    }
    let mut r = Report::new(
        "e3",
        "Theorem V.2: 2-approximation vs exact optimum (guarantee: ratio ≤ 2)",
        t,
    )
    .seeds(format!(
        "seed = k*97 + n for k in 0..{seeds}, n in {:?}; node budget {} per exact probe, wall budget {:?}",
        E3_SIZES, E3_NODE_LIMIT, budget
    ))
    .note(format!("max ratio observed {global_max:.4} ≤ 2 (theorem holds)"))
    .note(
        "'LST-only' is the LST rounding's own makespan (also asserted ≤ 2·OPT);\n\
         two_approx returns the better of it and the LPT schedule.",
    );
    if truncated {
        r = r.note(format!(
            "NOTE: sweep truncated at the {budget:?} wall-clock budget after {:?}",
            start.elapsed()
        ));
    }
    r
}

/// E4 — Proposition III.2: migrations ≤ m−1, events ≤ 2m−2.
pub fn e4(seeds: u64) -> Report {
    let mut t = Table::new(&[
        "m",
        "max splits",
        "bound m-1",
        "max wall migr",
        "max events",
        "bound 2m-2",
        "runs",
    ]);
    for m in [2usize, 4, 8, 12] {
        let mut max_split = 0usize;
        let mut max_wall = 0usize;
        let mut max_events = 0usize;
        let mut runs = 0usize;
        for seed in 0..seeds {
            let inst = fixtures::e4_instance(m, 3 * m, seed * 31 + m as u64);
            // All-global assignment stresses the wrap-around the hardest.
            let root =
                (0..inst.family().len()).find(|&a| inst.set(a).len() == m).expect("semi family");
            let asg = Assignment::new(vec![root; inst.num_jobs()]);
            let t_h = asg.minimal_integral_horizon(&inst).expect("finite");
            let sched = schedule_semi_partitioned(&inst, &asg, &Q::from(t_h)).expect("ok");
            sched.validate(&inst, &asg, &Q::from(t_h)).expect("valid");
            let d = sched.disruptions();
            // Cross-check the simulator agrees.
            let rep = simulate(&sched, m).expect("replays");
            assert_eq!(rep.migrations, d.migrations);
            assert_eq!(rep.preemptions, d.preemptions);
            // Paper convention (Prop III.2): splits ≤ m−1.
            assert!(sched.split_migrations() < m, "m={m} seed={seed}");
            assert!(d.total() <= 2 * m - 2, "m={m} seed={seed}");
            max_split = max_split.max(sched.split_migrations());
            max_wall = max_wall.max(d.migrations);
            max_events = max_events.max(d.total());
            runs += 1;
            // Mixed local/global via the first-fit heuristic.
            if let Some(h) = semi_first_fit(&inst) {
                let d = h.schedule.disruptions();
                assert!(h.schedule.split_migrations() < m);
                assert!(d.total() <= 2 * m - 2);
                max_split = max_split.max(h.schedule.split_migrations());
                max_wall = max_wall.max(d.migrations);
                max_events = max_events.max(d.total());
                runs += 1;
            }
        }
        t.row(vec![
            m.to_string(),
            max_split.to_string(),
            (m - 1).to_string(),
            max_wall.to_string(),
            max_events.to_string(),
            (2 * m - 2).to_string(),
            runs.to_string(),
        ]);
    }
    Report::new("e4", "Proposition III.2: disruption bounds of Algorithm 1 (≤ m−1 / ≤ 2m−2)", t)
        .seeds(format!("seed = k*31 + m for k in 0..{seeds}, m in [2,4,8,12]"))
        .note(
            "note: 'splits' is the paper's convention (one migration per extra\n\
             machine a job uses) and respects m-1; wall-clock resumption counting\n\
             can exceed m-1 when a wrap and a boundary interleave, but the combined\n\
             2m-2 bound holds for both (see DESIGN.md).",
        )
}

/// E5 — policy comparison across migration-overhead levels (the
/// introduction's motivation: who wins when overheads are real?).
pub fn e5(seeds: u64) -> Report {
    let mut t = Table::new(&[
        "overhead%",
        "partitioned LPT",
        "partitioned LST",
        "global McN",
        "semi FFD",
        "greedy hier",
        "2-approx",
        "LP bound T*",
    ]);
    let n = 20usize;
    for ovh in [0u64, 25, 50, 100] {
        let mut acc = [0.0f64; 7];
        for seed in 0..seeds {
            let inst = fixtures::e5_instance(ovh, n, seed * 11 + ovh);
            let m = inst.num_machines();
            let completed = inst.with_singletons();
            let p = singleton_times(&completed);
            let lpt = lpt_greedy(&p, m).expect("feasible").makespan as f64;
            // The LST rounding's own makespan, not the better-of-LPT choice
            // that `lst_partitioned` returns, which would repeat the LPT
            // column.
            let (_, rounding) = lst_binary_search(&p, m).expect("feasible");
            let lst = rounding.lst_makespan as f64;
            let global_ps: Vec<u64> =
                (0..inst.num_jobs()).map(|j| inst.ptime(j, 0).expect("root finite")).collect();
            let mcn = mcnaughton(&global_ps, m).t.to_f64();
            // Semi view: global set + singletons.
            let singles = completed.singleton_index();
            let semi_inst = hsched_core::Instance::from_fn(
                topology::semi_partitioned(m),
                completed.num_jobs(),
                |j, a| {
                    if a == 0 {
                        completed.ptime(j, 0)
                    } else {
                        singles[a - 1].and_then(|s| completed.ptime(j, s))
                    }
                },
            )
            .expect("monotone");
            let semi = semi_first_fit(&semi_inst).expect("feasible").t as f64;
            let greedy = greedy_hierarchical(&inst).t as f64;
            let approx = two_approx(&inst);
            let two = approx.makespan.to_f64();
            let tstar = approx.t_star as f64;
            for (slot, v) in acc.iter_mut().zip([lpt, lst, mcn, semi, greedy, two, tstar]) {
                *slot += v / seeds as f64;
            }
        }
        let mut cells = vec![ovh.to_string()];
        cells.extend(acc.iter().map(|v| format!("{v:.2}")));
        t.row(cells);
    }
    Report::new("e5", "Policy comparison on an SMP-CMP tree (mean makespan; lower is better)", t)
        .seeds(format!("seed = k*11 + overhead for k in 0..{seeds}"))
        .note(
            "shape: at 0% overhead migration is free (global/semi win); as overhead\n\
             grows the no-migration policies catch up and the hierarchy-aware\n\
             algorithms track the better of the two. T* lower-bounds everything.\n\
             'partitioned LST' is the LST rounding's own makespan; 2-approx returns\n\
             the better of its rounding and the LPT schedule.",
        )
}

/// E6 — Theorem VI.1 (Model 1): bicriteria ≤ (3T, 3B).
pub fn e6(seeds: u64) -> Report {
    let mut t = Table::new(&[
        "pressure%",
        "max mk/T",
        "max mem/B",
        "mean rows dropped",
        "fallbacks",
        "runs",
    ]);
    for pressure in [60u64, 80, 95] {
        let mut max_mk = 0.0f64;
        let mut max_mem = 0.0f64;
        let mut drops = 0usize;
        let mut fallbacks = 0usize;
        let mut runs = 0usize;
        for seed in 0..seeds {
            let mut r = rng(seed * 7 + pressure);
            let inst = random::semi_uniform(3, 8, 2, 8, &mut r);
            let m1 = memory::model1_workload(inst, 5, pressure, &mut r);
            let Some(t_lp) = model1_lp_t_star(&m1) else { continue };
            let Ok(res) = model1_round(&m1, t_lp) else { continue };
            let mk_ratio = res.makespan.to_f64() / t_lp as f64;
            assert!(res.makespan <= Q::from(3 * t_lp), "3T violated");
            let mut mem_ratio: f64 = 0.0;
            for (i, used) in res.memory_usage.iter().enumerate() {
                assert!(*used <= 3 * m1.budgets[i], "3B violated");
                mem_ratio = mem_ratio.max(*used as f64 / m1.budgets[i] as f64);
            }
            max_mk = max_mk.max(mk_ratio);
            max_mem = max_mem.max(mem_ratio);
            drops += res.rows_dropped;
            fallbacks += res.fallback_used as usize;
            runs += 1;
        }
        t.row(vec![
            pressure.to_string(),
            format!("{max_mk:.3}"),
            format!("{max_mem:.3}"),
            format!("{:.2}", drops as f64 / runs.max(1) as f64),
            fallbacks.to_string(),
            runs.to_string(),
        ]);
    }
    Report::new("e6", "Theorem VI.1 (Model 1): makespan ≤ 3T, memory ≤ 3B after rounding", t)
        .seeds(format!("seed = k*7 + pressure for k in 0..{seeds}"))
        .note("bounds hold everywhere (theorem: ≤ 3.0 and ≤ 3.0)")
}

/// E7 — Theorem VI.3 (Model 2): σ = 2 + H_k (k = 2 ⇒ 3 + 1/m).
pub fn e7(seeds: u64) -> Report {
    let mut t = Table::new(&["levels k", "σ (bound)", "max mk/T", "max mem/cap", "runs"]);
    let topologies: Vec<(usize, laminar::LaminarFamily)> = vec![
        (2, topology::semi_partitioned(4)),
        (3, topology::clustered(2, 2)),
        (4, topology::smp_cmp(&[2, 2, 2])),
    ];
    for (k, fam) in topologies {
        let mut max_mk = 0.0f64;
        let mut max_mem = 0.0f64;
        let mut sigma_str = String::new();
        let mut runs = 0usize;
        for seed in 0..seeds {
            let mut r = rng(seed * 13 + k as u64);
            let inst = random::overhead_instance(fam.clone(), 8, 2, 6, 1, 3, &mut r);
            let m2 = memory::model2_workload(inst, 4, Q::from_int(2), &mut r);
            sigma_str = format!("{} ≈ {:.3}", m2.sigma(), m2.sigma().to_f64());
            let Some(t_lp) = model2_lp_t_star(&m2) else { continue };
            let Ok(res) = model2_round(&m2, t_lp) else { continue };
            assert!(res.makespan <= m2.sigma() * Q::from(t_lp), "σT violated");
            max_mk = max_mk.max(res.makespan.to_f64() / t_lp as f64);
            for a in 0..m2.instance.family().len() {
                if let Some(cap) = m2.capacity(a) {
                    assert!(res.memory_usage[a] <= m2.sigma() * cap.clone(), "σµ^h violated");
                    if cap.is_positive() {
                        max_mem = max_mem.max(res.memory_usage[a].to_f64() / cap.to_f64());
                    }
                }
            }
            runs += 1;
        }
        t.row(vec![
            k.to_string(),
            sigma_str,
            format!("{max_mk:.3}"),
            format!("{max_mem:.3}"),
            runs.to_string(),
        ]);
    }
    Report::new("e7", "Theorem VI.3 (Model 2): makespan ≤ σT, per-set memory ≤ σµ^h", t)
        .seeds(format!("seed = k*13 + levels for k in 0..{seeds}"))
}

/// E8 — the Section II 8-approximation on non-laminar families.
pub fn e8(seeds: u64) -> Report {
    let mut t = Table::new(&["m", "n", "mean ALG/LB", "max ALG/LB", "bound", "runs"]);
    for (m, n) in [(3usize, 6usize), (4, 10), (5, 12)] {
        let mut ratios = Vec::new();
        for seed in 0..seeds {
            let mut r = rng(seed * 17 + (m * n) as u64);
            // Random crossing sets: sliding windows of width 2 and 3.
            let mut sets = Vec::new();
            for i in 0..m - 1 {
                sets.push(MachineSet::from_range(m, i, i + 2));
            }
            if m >= 3 {
                sets.push(MachineSet::from_range(m, 0, 3));
            }
            use rand::Rng;
            let ptimes: Vec<Vec<Option<u64>>> = (0..n)
                .map(|_| {
                    sets.iter()
                        .map(|_| (r.gen_range(0..10) < 8).then(|| r.gen_range(1..=9u64)))
                        .collect()
                })
                .collect();
            // Ensure every job has at least one finite set.
            let ptimes: Vec<Vec<Option<u64>>> = ptimes
                .into_iter()
                .map(|mut row| {
                    if row.iter().all(|x| x.is_none()) {
                        row[0] = Some(5);
                    }
                    row
                })
                .collect();
            let gi = GeneralInstance { num_machines: m, sets: sets.clone(), ptimes };
            let Some(res) = eight_approx(&gi) else { continue };
            ratios.push(res.makespan as f64 / res.preemptive_lb.max(1) as f64);
            assert!(res.makespan <= 8 * res.preemptive_lb.max(1), "factor-8 violated");
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        t.row(vec![
            m.to_string(),
            n.to_string(),
            format!("{mean:.3}"),
            format!("{max:.3}"),
            "8".into(),
            ratios.len().to_string(),
        ]);
    }
    Report::new("e8", "General (non-laminar) families: 8-approximation vs preemptive LP bound", t)
        .seeds(format!("seed = k*17 + m*n for k in 0..{seeds}"))
}

/// E9 — Lemma V.1 ablation: the hierarchical-LP + push-down oracle agrees
/// with the direct singleton LP, at a measurable runtime cost. The
/// overhead rows are identical machines, where the direct search takes
/// McNaughton's bound without a probe; the heterogeneous-speed rows make
/// it bisect unless every machine drew the same speed.
pub fn e9(seeds: u64) -> Report {
    let mut t = Table::new(&[
        "model",
        "topology",
        "machines",
        "n",
        "T* direct",
        "T* pushdown",
        "time direct",
        "time pushdown",
    ]);
    let models: [(&str, fn(LaminarFamily, usize, u64) -> hsched_core::Instance); 2] =
        [("overhead", fixtures::e3_instance), ("speeds 1-4", fixtures::e9_heterogeneous_instance)];
    let n = 8usize;
    for (model, instance) in models {
        for (name, fam) in fixtures::e3_topologies() {
            for seed in 0..seeds.min(3) {
                let inst = instance(fam.clone(), n, seed * 23 + 5);
                let t0 = Instant::now();
                let direct = two_approx_with(&inst, TwoApproxMethod::DirectSingleton);
                let d_direct = t0.elapsed();
                let t1 = Instant::now();
                let pushed = two_approx_with(&inst, TwoApproxMethod::PushDown);
                let d_pushed = t1.elapsed();
                assert_eq!(direct.t_star, pushed.t_star, "Lemma V.1 equivalence: {model} {name}");
                let p = singleton_times(&direct.instance);
                let identical =
                    p.iter().all(|row| row.iter().all(|&time| time.is_some() && time == row[0]));
                t.row(vec![
                    model.to_string(),
                    name.to_string(),
                    if identical { "identical" } else { "unrelated" }.to_string(),
                    n.to_string(),
                    direct.t_star.to_string(),
                    pushed.t_star.to_string(),
                    format!("{:.1?}", d_direct),
                    format!("{:.1?}", d_pushed),
                ]);
            }
        }
    }
    Report::new("e9", "Lemma V.1 ablation: push-down vs direct singleton LP (same T*)", t)
        .seeds(format!(
            "seed = k*23 + 5 for k in 0..{}; overhead = e3_instance, speeds 1-4 = \
             e9_heterogeneous_instance",
            seeds.min(3)
        ))
        .note(
            "T* always agrees — the push-down reduction is lossless (Lemma V.1). On\n\
             identical machines (every job takes one time on every singleton, as on all\n\
             overhead rows) the direct search takes McNaughton's bound as T* without a\n\
             probe; on unrelated ones it bisects with the LPT-seeded probe whenever the\n\
             bracket is open. A speeds 1-4 row is identical when every machine drew the\n\
             same speed.",
        )
}

/// E10 — runtime scaling of the 2-approximation pipeline.
pub fn e10() -> Report {
    let mut t = Table::new(&["n", "m", "|A|", "T*", "makespan", "time"]);
    let mut closed = 0usize;
    let sizes = [(8usize, 3usize), (16, 4), (24, 6), (32, 8), (48, 12), (50, 20)];
    for (n, m) in sizes {
        let inst = fixtures::e10_instance(n, m, 7);
        let start = Instant::now();
        let res = two_approx(&inst);
        let dt = start.elapsed();
        closed += usize::from(lpt_makespan(&res.instance) == res.t_star);
        t.row(vec![
            n.to_string(),
            m.to_string(),
            inst.family().len().to_string(),
            res.t_star.to_string(),
            res.makespan.to_string(),
            format!("{dt:.1?}"),
        ]);
    }
    Report::new("e10", "Runtime scaling of the 2-approximation (wall clock)", t)
        .seeds("seed = 7 for every size")
        .note(format!(
            "polynomial growth. {closed} of {} brackets close (T* = LPT makespan): no LP\n\
             is solved and the LPT schedule is returned. The overhead model gives each\n\
             job one time on every singleton, so T* is the bracket's lower bound\n\
             (McNaughton) and no probe runs: an open bracket costs one hybrid rounding\n\
             solve started from the LPT basis.",
            sizes.len()
        ))
}

/// The LPT makespan of a singleton-completed instance: the upper end of
/// the `T*` bracket, equal to `T*` exactly when the bracket closes.
fn lpt_makespan(completed: &hsched_core::Instance) -> u64 {
    let p = singleton_times(completed);
    lpt_schedule(&p, completed.num_machines()).expect("completed instances are schedulable").1
}

/// Default wall-clock budget for a full E11 run.
pub const E11_DEFAULT_BUDGET: Duration = Duration::from_secs(60);

/// (n, m) of E11's large-m `two_approx` operating point.
pub const E11_TWO_APPROX_SIZE: (usize, usize) = (64, 1024);

/// (n, m) of E11's open-bracket `two_approx` row, whose `T*` lies below
/// the LPT makespan, so the rounding solves an LP.
pub const E11_OPEN_BRACKET_SIZE: (usize, usize) = (512, 128);

/// E11 — the scale axis (default budget): the m = 1024 `two_approx`
/// operating point and the warm-vs-cold branch-and-bound ablation on the
/// E3 configuration.
pub fn e11() -> Report {
    e11_with(E11_DEFAULT_BUDGET)
}

/// [`e11`] under an explicit wall-clock budget: remaining rows are
/// skipped — recording how much was covered — once the budget is spent.
pub fn e11_with(budget: Duration) -> Report {
    let start = Instant::now();
    let mut t = Table::new(&["case", "n", "m", "baseline", "new", "speedup"]);
    let mut truncated = false;

    // --- two_approx at the large-m point and on an open bracket. --------
    let (n, m) = E11_TWO_APPROX_SIZE;
    let (n_open, m_open) = E11_OPEN_BRACKET_SIZE;
    let two_approx_rows = [
        ("two_approx (revised+flat)", n, m, fixtures::e10_instance(n, m, 7)),
        (
            "two_approx (open bracket)",
            n_open,
            m_open,
            fixtures::open_bracket_instance(n_open, m_open, 1),
        ),
    ];
    for (case, n, m, inst) in two_approx_rows {
        if start.elapsed() > budget {
            truncated = true;
            break;
        }
        let t0 = Instant::now();
        let res = two_approx(&inst);
        let d = t0.elapsed();
        assert!(
            res.makespan <= Q::from(2 * res.t_star),
            "2-approximation guarantee violated at n={n} m={m}"
        );
        let bracket = if lpt_makespan(&res.instance) == res.t_star { "closed" } else { "open" };
        t.row(vec![
            format!("{case}, {bracket}"),
            n.to_string(),
            m.to_string(),
            "—".into(),
            format!("{d:.1?}"),
            "—".into(),
        ]);
    }

    // --- Warm vs cold branch-and-bound on the E3 configuration. ---------
    let mut bnb_rows = 0usize;
    let mut bnb_skipped = 0usize;
    let (mut d_cold_tot, mut d_warm_tot) = (Duration::ZERO, Duration::ZERO);
    let (mut nodes_cold_tot, mut nodes_warm_tot) = (0usize, 0usize);
    'bnb: for (name, fam) in fixtures::e3_topologies() {
        for seed in 0..2u64 {
            if start.elapsed() > budget {
                truncated = true;
                break 'bnb;
            }
            let n = *E3_SIZES.last().expect("nonempty");
            let inst = fixtures::e3_instance(fam.clone(), n, seed * 97 + n as u64);
            let cold_opts = ExactOptions { node_limit: E3_NODE_LIMIT, warm_start: false };
            let warm_opts = ExactOptions { node_limit: E3_NODE_LIMIT, warm_start: true };
            let t0 = Instant::now();
            let cold = solve_exact(&inst, &cold_opts);
            let d_cold = t0.elapsed();
            let t1 = Instant::now();
            let warm = solve_exact(&inst, &warm_opts);
            let d_warm = t1.elapsed();
            let (Ok(cold), Ok(warm)) = (cold, warm) else {
                // Node budget exhausted under one of the modes: no
                // proven optimum to compare, recorded in the notes.
                bnb_skipped += 1;
                continue;
            };
            assert_eq!(cold.t, warm.t, "warm start changed the optimum: {name} seed={seed}");
            t.row(vec![
                format!("exact B&B cold→warm [{name}]"),
                n.to_string(),
                inst.num_machines().to_string(),
                format!("{d_cold:.1?}/{}n", cold.nodes),
                format!("{d_warm:.1?}/{}n", warm.nodes),
                format!("{:.1}×", d_cold.as_secs_f64() / d_warm.as_secs_f64().max(1e-9)),
            ]);
            bnb_rows += 1;
            d_cold_tot += d_cold;
            d_warm_tot += d_warm;
            nodes_cold_tot += cold.nodes;
            nodes_warm_tot += warm.nodes;
        }
    }

    let mut r = Report::new(
        "e11",
        "Scale axis: LU-factorized revised simplex + flat laminar path at large m",
        t,
    )
    .seeds(format!(
        "two_approx: e10_instance seed 7 at (n,m) = {:?}, open_bracket_instance seed 1 at \
         (n,m) = {:?}; B&B: e3 seed = k*97 + n for k in 0..2, n = {}, node budget {}",
        E11_TWO_APPROX_SIZE,
        E11_OPEN_BRACKET_SIZE,
        E3_SIZES.last().expect("nonempty"),
        E3_NODE_LIMIT
    ))
    .note(
        "agreement (two_approx mk ≤ 2T*; cold vs warm optimum) is asserted per row — a \
         disagreement aborts the run.",
    );
    if bnb_rows > 0 {
        r = r.note(format!(
            "B&B warm-start delta over {bnb_rows} instances: {d_cold_tot:.1?}/{nodes_cold_tot} \
             nodes cold → {d_warm_tot:.1?}/{nodes_warm_tot} nodes warm",
        ));
    }
    if bnb_skipped > 0 {
        r = r.note(format!(
            "{bnb_skipped} B&B instance(s) skipped: node budget exhausted, no proven optimum",
        ));
    }
    if truncated {
        r = r.note(format!(
            "NOTE: sweep truncated at the {budget:?} wall-clock budget after {:?}",
            start.elapsed()
        ));
    }
    r
}

/// Default wall-clock budget for a full E12 run.
pub const E12_DEFAULT_BUDGET: Duration = Duration::from_secs(60);

/// (n, m) sizes of E12's hybrid-vs-revised cold-solve rows.
pub const E12_LP_SIZES: [(usize, usize); 4] = [(50, 20), (64, 100), (100, 256), (64, 1024)];

/// (n, m) and horizon count of E12's warm-cached probe ablation.
pub const E12_WARM_SIZE: (usize, usize) = (100, 256);
pub const E12_WARM_PROBES: u64 = 8;

/// E12 — hybrid solver ablation: float-proposed, exactly certified bases
/// ([`lp::Solver::Hybrid`]) against full exact pivoting
/// ([`lp::Solver::Revised`]) on cold (IP-3) relaxations, plus the
/// warm-cached binary-search access pattern. Reports certification
/// success and fallback rates alongside the speedups.
pub fn e12() -> Report {
    e12_with(E12_DEFAULT_BUDGET)
}

/// [`e12`] under an explicit wall-clock budget: remaining rows are
/// skipped — recording how much was covered — once the budget is spent.
pub fn e12_with(budget: Duration) -> Report {
    let start = Instant::now();
    let mut t = Table::new(&["case", "n", "m", "revised", "hybrid", "speedup", "certified"]);
    let mut truncated = false;
    let (mut certified, mut fallbacks) = (0usize, 0usize);

    // --- Cold (IP-3) relaxations: hybrid vs revised. Agreement is
    // *enforced*, not reported — a status/objective/vertex mismatch
    // aborts the run (the E11 policy).
    for (n, m) in E12_LP_SIZES {
        if start.elapsed() > budget {
            truncated = true;
            break;
        }
        let inst = fixtures::e10_instance(n, m, 7);
        let horizon = inst.volume_lower_bound().max(inst.bottleneck_lower_bound()) + 2;
        let (lp, _) = hsched_core::formulations::build_ip3(&inst, horizon).expect("has variables");
        let t0 = Instant::now();
        let exact = lp.solve();
        let d_exact = t0.elapsed();
        let t1 = Instant::now();
        let (hybrid, stats) = lp.solve_with(lp::Solver::Hybrid.into());
        let d_hybrid = t1.elapsed();
        assert!(
            exact.status == hybrid.status
                && exact.objective_value == hybrid.objective_value
                && exact.values == hybrid.values,
            "hybrid disagrees with revised at n={n} m={m}"
        );
        certified += stats.hybrid_certified;
        fallbacks += stats.hybrid_fallbacks;
        t.row(vec![
            "ip3 LP revised→hybrid".into(),
            n.to_string(),
            m.to_string(),
            format!("{d_exact:.1?}"),
            format!("{d_hybrid:.1?}"),
            format!("{:.1}×", d_exact.as_secs_f64() / d_hybrid.as_secs_f64().max(1e-9)),
            if stats.hybrid_certified > 0 { "yes".into() } else { "fallback".into() },
        ]);
    }

    // --- Warm-cached probe sequence (the binary-search-on-T access
    // pattern): descending horizons re-solved through a persistent
    // cache, exact vs hybrid mode. -----------------------------------
    let mut warm_note = None;
    if start.elapsed() > budget {
        truncated = true;
    } else {
        let (n, m) = E12_WARM_SIZE;
        let inst = fixtures::e10_instance(n, m, 7);
        let t0_horizon = inst.volume_lower_bound().max(inst.bottleneck_lower_bound());
        let horizons: Vec<u64> =
            (0..E12_WARM_PROBES).map(|k| t0_horizon + E12_WARM_PROBES - k).collect();
        let mut cache_exact = lp::WarmCache::new();
        let mut cache_hybrid = lp::WarmCache::with_options(lp::Solver::Hybrid.into());
        let (mut d_exact, mut d_hybrid) = (Duration::ZERO, Duration::ZERO);
        for &h in &horizons {
            let Some((lp, _)) = hsched_core::formulations::build_ip3(&inst, h) else {
                continue;
            };
            let t0 = Instant::now();
            let a = lp.solve_warm_cached(&mut cache_exact);
            d_exact += t0.elapsed();
            let t1 = Instant::now();
            let b = lp.solve_warm_cached(&mut cache_hybrid);
            d_hybrid += t1.elapsed();
            assert!(
                a.status == b.status && a.objective_value == b.objective_value,
                "warm hybrid disagrees at horizon {h}"
            );
        }
        t.row(vec![
            format!("warm probe ×{E12_WARM_PROBES} (cached)"),
            n.to_string(),
            m.to_string(),
            format!("{d_exact:.1?}"),
            format!("{d_hybrid:.1?}"),
            format!("{:.1}×", d_exact.as_secs_f64() / d_hybrid.as_secs_f64().max(1e-9)),
            format!("{}/{}", cache_hybrid.hybrid_certified(), E12_WARM_PROBES),
        ]);
        let why = cache_hybrid.fallback_reasons();
        warm_note = Some(format!(
            "warm cache counters at ({n},{m}): {} certified, {} exact fallbacks (float gave up \
             {}, singular basis {}, certificate rejected {}, injected {}), {} warm give-ups \
             rescued by the cold retry, {} anti-cycling cap fallbacks, {} factorization reuses",
            cache_hybrid.hybrid_certified(),
            cache_hybrid.hybrid_fallbacks(),
            why.float_gave_up,
            why.singular_basis,
            why.certificate_rejected,
            why.injected,
            cache_hybrid.cold_rescues(),
            cache_hybrid.warm_fallbacks(),
            cache_hybrid.factor_reuses(),
        ));
    }

    let total = certified + fallbacks;
    let mut r = Report::new(
        "e12",
        "Hybrid ablation: float-proposed, exactly certified bases vs full exact pivoting",
        t,
    )
    .seeds(format!(
        "ip3 LPs from e10_instance seed 7 at (n,m) in {E12_LP_SIZES:?}; warm sweep at \
         {E12_WARM_SIZE:?} over {E12_WARM_PROBES} descending horizons"
    ))
    .note(format!(
        "cold certification success rate: {certified}/{total} ({fallbacks} exact fallbacks); \
         agreement (status/objective/vertex vs revised) is asserted per row — a disagreement \
         aborts the run",
    ));
    if let Some(note) = warm_note {
        r = r.note(note);
    }
    if truncated {
        r = r.note(format!(
            "NOTE: sweep truncated at the {budget:?} wall-clock budget after {:?}",
            start.elapsed()
        ));
    }
    r
}

/// Default wall-clock budget for a full E13 run.
pub const E13_DEFAULT_BUDGET: Duration = Duration::from_secs(60);

/// (n, m) sizes of E13's pricing-ablation rows — the n axis at fixed
/// large m, one and four thousand jobs.
pub const E13_SIZES: [(usize, usize); 2] = [(1024, 1024), (4096, 1024)];

/// n at or above which the Bland baseline row is skipped by design: its
/// in-order full scans are exactly the wall this experiment
/// demonstrates (hundreds of millions of reduced-cost evaluations per
/// solve already at n = 1024, an order of magnitude more at 4096).
pub const E13_BLAND_CUTOFF: usize = 4096;

/// E13 — simplex pricing ablation on the n axis: Bland's full in-order
/// scan vs the partial-candidate list ([`lp::Pricing`]) on cold hybrid
/// (IP-3) relaxation solves. The counters make the mechanism visible:
/// both strategies pivot a similar number of times, but the candidate
/// list prices orders of magnitude fewer columns per entering-variable
/// decision.
pub fn e13() -> Report {
    e13_with(E13_DEFAULT_BUDGET)
}

/// [`e13`] under an explicit wall-clock budget: remaining rows are
/// skipped — recording how much was covered — once the budget is spent.
pub fn e13_with(budget: Duration) -> Report {
    let start = Instant::now();
    let mut t =
        Table::new(&["case", "n", "m", "pricing", "time", "cols priced", "refills", "certified"]);
    let mut truncated = false;
    let mut notes: Vec<String> = Vec::new();

    'sizes: for (n, m) in E13_SIZES {
        if start.elapsed() > budget {
            truncated = true;
            break;
        }
        let inst = fixtures::e10_instance(n, m, 7);
        let horizon = inst.volume_lower_bound().max(inst.bottleneck_lower_bound()) + 2;
        let (lp, vm) = hsched_core::formulations::build_ip3(&inst, horizon).expect("has variables");
        // Agreement across strategies is *enforced*, not reported — a
        // status/objective mismatch aborts the run (the E11 policy; the
        // vertex may legitimately differ between pricing rules).
        let mut reference: Option<(lp::LpStatus, Q)> = None;
        let mut bland_priced: Option<usize> = None;
        for pricing in [lp::Pricing::Bland, lp::Pricing::PartialCandidate] {
            if pricing == lp::Pricing::Bland && n >= E13_BLAND_CUTOFF {
                notes.push(format!(
                    "Bland baseline skipped by design at n={n} (the full-scan wall; \
                     see the n={} rows for the measured baseline)",
                    E13_SIZES[0].0
                ));
                continue;
            }
            if start.elapsed() > budget {
                truncated = true;
                break 'sizes;
            }
            let t0 = Instant::now();
            let (sol, stats) =
                lp.solve_with(lp::SolveOptions { solver: lp::Solver::Hybrid, pricing });
            let d = t0.elapsed();
            match &reference {
                None => reference = Some((sol.status, sol.objective_value.clone())),
                Some((status, objective)) => assert!(
                    *status == sol.status && *objective == sol.objective_value,
                    "pricing {pricing:?} disagrees at n={n} m={m}"
                ),
            }
            if pricing == lp::Pricing::Bland {
                bland_priced = Some(stats.columns_priced);
            } else if let Some(bp) = bland_priced {
                notes.push(format!(
                    "n={n}: {pricing:?} prices {:.0}× fewer columns than Bland \
                     ({} vs {bp})",
                    bp as f64 / stats.columns_priced.max(1) as f64,
                    stats.columns_priced,
                ));
            }
            t.row(vec![
                format!("ip3 LP hybrid ({} vars)", vm.len()),
                n.to_string(),
                m.to_string(),
                format!("{pricing:?}"),
                format!("{d:.1?}"),
                stats.columns_priced.to_string(),
                stats.candidate_refills.to_string(),
                if stats.hybrid_certified > 0 { "yes".into() } else { "fallback".into() },
            ]);
        }
    }

    let mut r = Report::new(
        "e13",
        "Pricing ablation on the n axis: Bland's full scan vs the partial candidate list",
        t,
    )
    .seeds(format!(
        "ip3 LPs from e10_instance seed 7 at (n,m) in {E13_SIZES:?}, horizon = \
         max(volume, bottleneck) lower bound + 2"
    ))
    .note(
        "counters are the float proposer's on certified solves: cols priced = reduced-cost \
         evaluations for entering-column selection, refills = candidate-list rebuild scans; \
         status/objective agreement across strategies is asserted per size — a disagreement \
         aborts the run",
    );
    for note in notes {
        r = r.note(note);
    }
    if truncated {
        r = r.note(format!(
            "NOTE: sweep truncated at the {budget:?} wall-clock budget after {:?}",
            start.elapsed()
        ));
    }
    r
}

/// Default wall-clock budget for a full E14 run.
pub const E14_DEFAULT_BUDGET: Duration = Duration::from_secs(60);

/// Independent instances in the E14 serving batch.
pub const E14_BATCH: usize = 24;

/// Jobs per E14 batch instance (semi-partitioned, 3 machines).
pub const E14_N: usize = 24;

/// Worker counts swept by E14.
pub const E14_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// E14 — batch serving throughput: the same fixed-seed batch of
/// independent instances served by [`crate::batch::solve_batch`] on
/// dedicated pools of 1, 2, 4, and 8 workers. Worker count changes only
/// throughput and the per-worker split; outcome agreement with the
/// single-worker pass is *enforced* (a mismatch aborts the run — the
/// E11 policy), and `tests/batch_invariance.rs` pins the same
/// invariant against fixed goldens and shuffled submission orders.
pub fn e14() -> Report {
    e14_with(E14_DEFAULT_BUDGET)
}

/// [`e14`] under an explicit wall-clock budget: remaining worker counts
/// are skipped — recording how much was covered — once the budget is
/// spent.
pub fn e14_with(budget: Duration) -> Report {
    let start = Instant::now();
    let mut t =
        Table::new(&["workers", "instances", "time", "inst/s", "speedup vs 1w", "steals", "split"]);
    let batch: Vec<_> = (0..E14_BATCH as u64)
        .map(|k| (k, fixtures::e3_instance(topology::semi_partitioned(3), E14_N, 1400 + k)))
        .collect();
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut truncated = false;
    let mut baseline: Option<f64> = None;
    let mut reference: Option<Vec<crate::batch::BatchOutcome>> = None;
    for workers in E14_WORKERS {
        if start.elapsed() > budget {
            truncated = true;
            break;
        }
        let report = crate::batch::solve_batch(&batch, workers);
        match &reference {
            None => reference = Some(report.outcomes.clone()),
            Some(r) => assert!(
                *r == report.outcomes,
                "batch outcomes must be worker-count invariant (diverged at {workers} workers)"
            ),
        }
        let tput = report.throughput();
        let speedup = baseline.map(|b| tput / b);
        if baseline.is_none() {
            baseline = Some(tput);
        }
        if workers == 4 && hw >= 4 {
            let s = speedup.unwrap_or(1.0);
            assert!(s >= 2.5, "expected ≥2.5× batch throughput at 4 workers, got {s:.2}×");
        }
        t.row(vec![
            report.workers.to_string(),
            report.outcomes.len().to_string(),
            format!("{:.1?}", report.elapsed),
            format!("{tput:.0}"),
            speedup.map_or("1.00×".into(), |s| format!("{s:.2}×")),
            report.steals.to_string(),
            report.per_worker.iter().map(|c| c.to_string()).collect::<Vec<_>>().join("/"),
        ]);
    }

    let mut r = Report::new(
        "e14",
        "Batch serving: fixed-seed instance batch on 1/2/4/8-worker pools, \
         throughput with enforced outcome invariance",
        t,
    )
    .seeds(format!(
        "batch of {E14_BATCH} e3_instances over semi_partitioned(3), n = {E14_N}, \
         seed = 1400 + id for id in 0..{E14_BATCH}"
    ))
    .note(
        "each instance runs the serial two_approx pipeline on whichever worker steals it; \
         t_star/makespan agreement with the 1-worker pass is asserted per sweep point — \
         a disagreement aborts the run. steals counts cross-worker task migrations; split \
         is instances served per worker (varies run to run, outcomes never do)",
    )
    .note(format!(
        "this host exposes {hw} hardware thread(s); wall-clock speedup needs ≥2 — with \
         fewer, extra workers only demonstrate the invariance, not scaling"
    ));
    if truncated {
        r = r.note(format!(
            "NOTE: sweep truncated at the {budget:?} wall-clock budget after {:?}",
            start.elapsed()
        ));
    }
    r
}

/// Default wall-clock budget for a full E15 run.
pub const E15_DEFAULT_BUDGET: Duration = Duration::from_secs(60);

/// Machines in the E15 service topology (`semi_partitioned`).
pub const E15_M: usize = 5;

/// Events per E15 service run.
pub const E15_EVENTS: usize = 120;

/// Traffic mixes swept by E15 as `(arrive%, depart%, fail%)`; the
/// remainder of each row recovers failed subtrees.
pub const E15_MIXES: [(u32, u32, u32); 3] = [(60, 25, 5), (45, 25, 20), (35, 20, 30)];

/// Solver-fault injection rates swept by E15 (percent per event).
pub const E15_FAULT_RATES: [u32; 2] = [0, 25];

/// E15 — online service under fire: an arrival-rate × failure-rate ×
/// fault-rate sweep of seeded event streams through the full scheduler
/// service. Every run must complete with zero invariant violations
/// (each epoch validates, replays on the simulator, and stays within
/// the paper's per-event disruption bounds); every injected solver
/// fault must surface as a counted fallback. The fault-heavy mix is
/// additionally asserted to carry ≥ 100 events with ≥ 3 machine
/// failures — the ISSUE acceptance run.
pub fn e15() -> Report {
    e15_with(E15_DEFAULT_BUDGET)
}

/// [`e15`] under an explicit wall-clock budget: remaining sweep rows
/// are skipped — recording how much was covered — once the budget is
/// spent.
pub fn e15_with(budget: Duration) -> Report {
    let start = Instant::now();
    let mut t = Table::new(&[
        "mix a/d/f%",
        "faults%",
        "fail ev",
        "injected",
        "tiers 1/2/3",
        "fallbacks",
        "reassign",
        "max move",
        "max disrupt",
        "quarantine",
        "lat ms 50/95/max",
        "ev/s",
    ]);
    let family = topology::semi_partitioned(E15_M);
    let mut truncated = false;
    let mut row_id = 0u64;
    'sweep: for (arrive, depart, fail) in E15_MIXES {
        for rate in E15_FAULT_RATES {
            if start.elapsed() > budget {
                truncated = true;
                break 'sweep;
            }
            let cfg = service::StreamConfig {
                events: E15_EVENTS,
                arrive_pct: arrive,
                depart_pct: depart,
                fail_pct: fail,
                ..service::StreamConfig::default()
            };
            let events = service::event_stream(&family, &cfg, &mut rng(1500 + row_id));
            let plan = service::FaultPlan::seeded(E15_EVENTS, rate, &mut rng(1600 + row_id));
            let t0 = Instant::now();
            let mut svc = service::Scheduler::new(service::ServiceConfig::semi_partitioned(E15_M));
            for (i, ev) in events.iter().enumerate() {
                svc.apply(ev, plan.fault_at(i))
                    .unwrap_or_else(|e| panic!("invariant violation in E15 row {row_id}: {e}"));
            }
            let elapsed = t0.elapsed();
            let (report, why) = (svc.report(), svc.fallback_reasons());
            if (arrive, depart, fail) == (45, 25, 20) {
                // The acceptance criterion: a fault-heavy run with
                // enough events and real machine failures, absorbed
                // without a single invariant violation.
                assert!(report.events >= 100, "acceptance rows carry ≥ 100 events");
                assert!(report.failures >= 3, "acceptance rows carry ≥ 3 machine failures");
            }
            assert_eq!(
                report.hint_poisons + report.cert_faults + report.deadline_faults,
                report.faults_injected,
                "every injected fault is visible in a counter"
            );
            assert!(
                report.epochs_tier3 >= report.deadline_faults,
                "every deadline overrun degraded gracefully"
            );
            assert_eq!(
                report.hybrid_fallbacks,
                report.cert_faults - report.cert_faults_pending,
                "E15 row {row_id}: every T* probe certifies; the only hybrid fallbacks are the \
                 injected ones ({why:?})"
            );
            t.row(vec![
                format!("{arrive}/{depart}/{fail}"),
                rate.to_string(),
                report.failures.to_string(),
                report.faults_injected.to_string(),
                format!("{}/{}/{}", report.epochs_tier1, report.epochs_tier2, report.epochs_tier3),
                format!(
                    "{}w {}h[{}/{}/{}/{}] {}b",
                    report.warm_fallbacks,
                    report.hybrid_fallbacks,
                    why.float_gave_up,
                    why.singular_basis,
                    why.certificate_rejected,
                    why.injected,
                    report.budget_exhaustions
                ),
                report.reassignments.to_string(),
                report.max_arrival_moves.max(report.max_departure_moves).to_string(),
                report.max_disruption_total.to_string(),
                format!("{}·peak{}", report.quarantine_entries, report.quarantine_peak),
                report.latency.render_ms(),
                format!("{:.0}", report.events as f64 / elapsed.as_secs_f64().max(1e-9)),
            ]);
            row_id += 1;
        }
    }

    let mut r = Report::new(
        "e15",
        "Online service under fire: arrival/failure/fault-rate sweep with \
         enforced per-event invariants and graceful degradation",
        t,
    )
    .seeds(format!(
        "streams over semi_partitioned({E15_M}), {E15_EVENTS} events, stream seed = 1500 + row, \
         fault-plan seed = 1600 + row, rows in mix-major order over {E15_MIXES:?} × fault rates \
         {E15_FAULT_RATES:?}"
    ))
    .note(
        "every row replays an online event stream through the service: each epoch re-solves \
         under a pivot budget (warm hybrid → cold exact → LP-free greedy ladder), is validated, \
         simulated, and checked against the ≤ m−1 / ≤ 2m−2 per-event disruption bounds — a \
         violation aborts the harness. fallbacks column: warm-hint (w), hybrid-certification \
         (h, split [float gave up/singular basis/certificate rejected/injected]), \
         budget/deadline (b); every row asserts that the injected certification faults are \
         the only hybrid fallbacks. max move is the largest per-event reassignment count",
    )
    .note(
        "injected faults (poisoned warm hints, forced certification failures, deadline \
         overruns) change counters only — certified horizons are tier-invariant, asserted in \
         crates/service/tests/online.rs",
    );
    if truncated {
        r = r.note(format!(
            "NOTE: sweep truncated at the {budget:?} wall-clock budget after {:?}",
            start.elapsed()
        ));
    }
    r
}

/// Default wall-clock budget for a full E16 run.
pub const E16_DEFAULT_BUDGET: Duration = Duration::from_secs(60);

/// Machines in the E16 service topology (`semi_partitioned`).
pub const E16_M: usize = 5;

/// Events per E16 service run.
pub const E16_EVENTS: usize = 120;

/// Kill counts swept by E16 (each kill truncates the journal at a
/// seeded arbitrary byte offset).
pub const E16_KILLS: [usize; 3] = [1, 3, 6];

/// Solver-fault injection rates swept by E16 (percent per event).
pub const E16_FAULT_RATES: [u32; 2] = [0, 25];

/// Checkpoint cadence (events per checkpoint) for the E16 runs.
pub const E16_CHECKPOINT_EVERY: usize = 16;

/// E16 — crash-point sweep of the durable service: seeded event
/// streams × crash plans (kills at arbitrary journal byte offsets —
/// mid-record, mid-epoch, mid-checkpoint) × solver-fault rates, each
/// run recovered from its torn journal and asserted **bit-identical**
/// (full `ServiceReport` and per-event outcome sequence) to the
/// uninterrupted run. A divergence aborts the harness.
pub fn e16() -> Report {
    e16_with(E16_DEFAULT_BUDGET)
}

/// [`e16`] under an explicit wall-clock budget: remaining sweep rows
/// are skipped — recording how much was covered — once the budget is
/// spent.
pub fn e16_with(budget: Duration) -> Report {
    let start = Instant::now();
    let mut t = Table::new(&[
        "faults%",
        "kills",
        "crashes",
        "replayed",
        "ckpts",
        "journal B",
        "equal",
        "lat ms 50/95/max",
        "ev/s",
    ]);
    let family = topology::semi_partitioned(E16_M);
    let cfg = service::ServiceConfig::semi_partitioned(E16_M);
    let mut truncated = false;
    let mut row_id = 0u64;
    'sweep: for rate in E16_FAULT_RATES {
        for kills in E16_KILLS {
            if start.elapsed() > budget {
                truncated = true;
                break 'sweep;
            }
            let stream_cfg = service::StreamConfig {
                events: E16_EVENTS,
                arrive_pct: 45,
                depart_pct: 25,
                fail_pct: 20,
                ..service::StreamConfig::default()
            };
            let events = service::event_stream(&family, &stream_cfg, &mut rng(1700 + row_id));
            let plan = service::FaultPlan::seeded(E16_EVENTS, rate, &mut rng(1800 + row_id));
            let crash = service::CrashPlan::seeded(kills, E16_EVENTS, &mut rng(1900 + row_id));

            let baseline = service::run_with_crashes(
                &cfg,
                &events,
                &plan,
                &service::CrashPlan::none(),
                E16_CHECKPOINT_EVERY,
            )
            .unwrap_or_else(|e| panic!("E16 baseline row {row_id} failed: {e}"));
            let t0 = Instant::now();
            let soak =
                service::run_with_crashes(&cfg, &events, &plan, &crash, E16_CHECKPOINT_EVERY)
                    .unwrap_or_else(|e| panic!("E16 recovery in row {row_id} failed: {e}"));
            let elapsed = t0.elapsed();

            // The acceptance criterion: recovery is bit-identical to
            // the uninterrupted run — report and per-event outcomes.
            assert_eq!(
                soak.report, baseline.report,
                "E16 row {row_id}: recovered report diverged from the uninterrupted run"
            );
            assert_eq!(
                soak.outcomes, baseline.outcomes,
                "E16 row {row_id}: recovered outcomes (incl. certified T*) diverged"
            );
            assert_eq!(soak.crashes, kills, "every planned kill must fire");

            t.row(vec![
                rate.to_string(),
                kills.to_string(),
                soak.crashes.to_string(),
                soak.replayed_events.to_string(),
                soak.checkpoints_written.to_string(),
                soak.journal_bytes.to_string(),
                "✓ bit-identical".into(),
                soak.report.latency.render_ms(),
                format!("{:.0}", E16_EVENTS as f64 / elapsed.as_secs_f64().max(1e-9)),
            ]);
            row_id += 1;
        }
    }

    let mut r = Report::new(
        "e16",
        "Crash-consistent durability: journal + checkpoint/restore under a \
         seeded crash-point sweep, recovery asserted bit-identical",
        t,
    )
    .seeds(format!(
        "streams over semi_partitioned({E16_M}), {E16_EVENTS} events (45/25/20 mix), stream \
         seed = 1700 + row, fault-plan seed = 1800 + row, crash-plan seed = 1900 + row, rows in \
         rate-major order over fault rates {E16_FAULT_RATES:?} × kills {E16_KILLS:?}, \
         checkpoint every {E16_CHECKPOINT_EVERY} events"
    ))
    .note(
        "each kill truncates the journal at a seeded arbitrary byte offset (mid-record, \
         mid-epoch between an event and its outcome, or mid-checkpoint), recovers the longest \
         valid prefix, restores the last intact checkpoint, and replays the tail cross-checking \
         every journaled outcome digest; the recovered run's ServiceReport and per-event \
         outcome sequence are asserted equal to the uninterrupted run's — a divergence aborts \
         the harness",
    )
    .note(
        "replayed counts events re-ingested from journal tails across all recoveries; the \
         warm cache is never serialized — its state is epoch-local, which is what makes the \
         replay bit-exact (see crates/service/src/journal.rs)",
    );
    if truncated {
        r = r.note(format!(
            "NOTE: sweep truncated at the {budget:?} wall-clock budget after {:?}",
            start.elapsed()
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests with tiny budgets so `cargo test` stays fast; the full
    // parameters run through the harness binary.
    #[test]
    fn e1_reproduces_paper() {
        let s = e1().render_text();
        assert!(s.contains("semi-partitioned"));
    }

    #[test]
    fn e2_small() {
        let s = e2(4).render_text();
        assert!(s.contains("1.5000"));
    }

    #[test]
    fn e3_smoke() {
        let s = e3(1).render_text();
        assert!(s.contains("≤ 2"));
    }

    /// The E3 wart fix: the configuration must stay inside the budget
    /// regime that keeps `harness all` terminating in minutes, and the
    /// wall-clock budget must actually truncate the sweep.
    #[test]
    #[allow(clippy::assertions_on_constants)] // config locks are the point
    fn e3_configuration_stays_under_budget() {
        assert!(E3_SIZES.iter().all(|&n| n <= 8), "n = 10 probes explode the exact B&B");
        assert!(E3_NODE_LIMIT <= 200_000, "per-probe node budget must be capped");
        assert!(E3_DEFAULT_BUDGET <= Duration::from_secs(120), "harness-all scale budget");
        // A zero budget truncates immediately (and says so) instead of
        // running the full sweep.
        let start = Instant::now();
        let r = e3_with(u64::MAX, Duration::ZERO);
        assert!(start.elapsed() < Duration::from_secs(30), "budget not enforced");
        assert!(r.render_text().contains("truncated"), "truncation must be recorded");
    }

    /// E11 must stay inside the regime that keeps `harness all`
    /// terminating in about a minute, and its wall-clock budget must
    /// actually truncate the sweep.
    #[test]
    #[allow(clippy::assertions_on_constants)] // config locks are the point
    fn e11_configuration_stays_under_budget() {
        assert!(E11_DEFAULT_BUDGET <= Duration::from_secs(60), "harness-all scale budget");
        // A zero budget truncates immediately (and says so).
        let start = Instant::now();
        let r = e11_with(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_secs(30), "budget not enforced");
        assert!(r.render_text().contains("truncated"), "truncation must be recorded");
    }

    /// E12 must stay inside the regime that keeps `harness all`
    /// terminating in about a minute, and its wall-clock budget must
    /// actually truncate the sweep.
    #[test]
    #[allow(clippy::assertions_on_constants)] // config locks are the point
    fn e12_configuration_stays_under_budget() {
        assert!(E12_DEFAULT_BUDGET <= Duration::from_secs(60), "harness-all scale budget");
        assert!(E12_LP_SIZES.iter().all(|&(n, m)| n <= 100 && m <= 1024));
        assert!(E12_WARM_PROBES <= 16, "warm sweep must stay a handful of probes");
        // A zero budget truncates immediately (and says so).
        let start = Instant::now();
        let r = e12_with(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_secs(30), "budget not enforced");
        assert!(r.render_text().contains("truncated"), "truncation must be recorded");
    }

    /// The pricing counters are a pure function of the program: pinned
    /// on E12's smallest relaxation (1 050 variables, a size that
    /// separates both rules in both cores) for every solver and pricing
    /// rule, whatever `HSCHED_THREADS` says.
    #[test]
    fn pricing_counters_are_pinned() {
        let inst = fixtures::e10_instance(50, 20, 7);
        let horizon = inst.volume_lower_bound().max(inst.bottleneck_lower_bound()) + 2;
        let (lp, vm) = hsched_core::formulations::build_ip3(&inst, horizon).expect("has variables");
        assert_eq!(vm.len(), 1_050);
        let pricings = [lp::Pricing::Bland, lp::Pricing::PartialCandidate];
        // (columns_priced, candidate_refills) per pricing.
        let golden = [
            (lp::Solver::Revised, [(66_394, 0), (10_098, 26)]),
            (lp::Solver::Hybrid, [(66_394, 0), (7_820, 24)]),
        ];
        for (solver, counters) in golden {
            for (pricing, want) in pricings.into_iter().zip(counters) {
                let (sol, stats) = lp.solve_with(lp::SolveOptions { solver, pricing });
                assert_eq!(sol.status, lp::LpStatus::Optimal, "{solver:?}/{pricing:?}");
                let got = (stats.columns_priced, stats.candidate_refills);
                assert_eq!(got, want, "{solver:?}/{pricing:?}");
                if solver == lp::Solver::Hybrid {
                    assert_eq!(stats.hybrid_certified, 1, "{pricing:?} must certify");
                }
            }
        }
    }

    /// E13 must stay inside the regime that keeps `harness all`
    /// terminating in about a minute, and its wall-clock budget must
    /// actually truncate the sweep.
    #[test]
    #[allow(clippy::assertions_on_constants)] // config locks are the point
    fn e13_configuration_stays_under_budget() {
        assert!(E13_DEFAULT_BUDGET <= Duration::from_secs(60), "harness-all scale budget");
        assert!(E13_SIZES.iter().all(|&(n, m)| n <= 4096 && m <= 1024));
        assert!(
            E13_SIZES.iter().any(|&(n, _)| n >= 1024),
            "the n-axis operating point is the experiment"
        );
        assert!(
            E13_SIZES.iter().any(|&(n, _)| n < E13_BLAND_CUTOFF),
            "at least one size must carry the Bland baseline for the reduction factor"
        );
        // A zero budget truncates immediately (and says so).
        let start = Instant::now();
        let r = e13_with(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_secs(30), "budget not enforced");
        assert!(r.render_text().contains("truncated"), "truncation must be recorded");
    }

    /// E14 must stay inside the regime that keeps `harness all`
    /// terminating in about a minute, and its wall-clock budget must
    /// actually truncate the sweep.
    #[test]
    #[allow(clippy::assertions_on_constants)] // config locks are the point
    fn e14_configuration_stays_under_budget() {
        assert!(E14_DEFAULT_BUDGET <= Duration::from_secs(60), "harness-all scale budget");
        assert!(E14_BATCH <= 64 && E14_N <= 64, "batch must stay seconds-scale per sweep point");
        assert!(E14_WORKERS[0] == 1, "the 1-worker pass is the invariance reference");
        // A zero budget truncates immediately (and says so).
        let start = Instant::now();
        let r = e14_with(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_secs(30), "budget not enforced");
        assert!(r.render_text().contains("truncated"), "truncation must be recorded");
    }

    /// One real E14 sweep point: a 2-worker serve must reproduce the
    /// 1-worker outcomes bit-for-bit (enforced inside `e14_with`, which
    /// aborts on divergence).
    #[test]
    fn e14_smoke() {
        let s = e14_with(Duration::from_secs(300)).render_text();
        assert!(s.contains("steals"));
        assert!(s.contains("1.00×"));
    }

    /// E15 must stay inside the regime that keeps `harness all`
    /// terminating in about a minute, and its wall-clock budget must
    /// actually truncate the sweep.
    #[test]
    #[allow(clippy::assertions_on_constants)] // config locks are the point
    fn e15_configuration_stays_under_budget() {
        assert!(E15_DEFAULT_BUDGET <= Duration::from_secs(60), "harness-all scale budget");
        assert!(E15_M <= 8 && E15_EVENTS <= 256, "service runs must stay seconds-scale");
        assert!(
            E15_MIXES.iter().all(|&(a, d, f)| a + d + f <= 100),
            "event percentages must partition 0..100"
        );
        assert!(
            E15_MIXES.iter().any(|&(_, _, f)| f >= 20),
            "the fault-heavy mix is the acceptance row"
        );
        assert!(E15_FAULT_RATES[0] == 0, "the fault-free pass is the degradation reference");
        // A zero budget truncates immediately (and says so).
        let start = Instant::now();
        let r = e15_with(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_secs(30), "budget not enforced");
        assert!(r.render_text().contains("truncated"), "truncation must be recorded");
    }

    /// One real E15 sweep row end to end: the fault-free low-failure mix
    /// completes with zero invariant violations (enforced inside
    /// `e15_with`, which aborts on any violation).
    #[test]
    fn e15_smoke() {
        let s = e15_with(Duration::from_secs(300)).render_text();
        assert!(s.contains("tiers 1/2/3"));
        assert!(s.contains("60/25/5"));
    }

    /// E16 config lock: the crash sweep must stay inside the budget
    /// regime that keeps `harness all` terminating in minutes, and the
    /// wall-clock budget must actually truncate the sweep.
    #[test]
    #[allow(clippy::assertions_on_constants)] // config locks are the point
    fn e16_configuration_stays_under_budget() {
        assert!(E16_DEFAULT_BUDGET <= Duration::from_secs(60), "harness-all scale budget");
        assert!(E16_M <= 8 && E16_EVENTS <= 256, "durable runs must stay seconds-scale");
        assert!(E16_KILLS.iter().all(|&k| k <= 8), "crash counts must stay seconds-scale");
        assert!(E16_FAULT_RATES[0] == 0, "the fault-free pass is the recovery reference");
        assert!(E16_CHECKPOINT_EVERY > 0, "the sweep must exercise periodic checkpoints");
        // A zero budget truncates immediately (and says so).
        let start = Instant::now();
        let r = e16_with(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_secs(30), "budget not enforced");
        assert!(r.render_text().contains("truncated"), "truncation must be recorded");
    }

    /// One real E16 sweep row end to end: a crashed-and-recovered run is
    /// bit-identical to the uninterrupted run (enforced inside
    /// `e16_with`, which aborts on any divergence).
    #[test]
    fn e16_smoke() {
        let s = e16_with(Duration::from_secs(300)).render_text();
        assert!(s.contains("bit-identical"));
        assert!(s.contains("journal B"));
    }

    #[test]
    fn e4_smoke() {
        let s = e4(1).render_text();
        assert!(s.contains("bound 2m-2"));
    }

    #[test]
    fn e6_smoke() {
        let s = e6(1).render_text();
        assert!(s.contains("pressure%"));
    }

    #[test]
    fn e8_smoke() {
        let s = e8(1).render_text();
        assert!(s.contains("bound"));
    }

    #[test]
    fn e9_smoke() {
        let s = e9(1).render_text();
        assert!(s.contains("lossless"));
    }

    /// Seeds are recorded next to every randomized experiment's results.
    #[test]
    fn seeds_recorded_in_reports() {
        for r in [e3(1), e4(1), e6(1), e8(1)] {
            assert!(r.seeds.contains("seed"), "{} must record its seed spec", r.id);
            assert!(r.render_csv().contains("# seeds:"));
            assert!(r.render_json().contains("\"seeds\":"));
        }
    }
}
