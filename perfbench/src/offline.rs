//! `offline`: Theorem V.2 as a user calls it. Each request is one
//! `two_approx` call on a seeded instance, with its schedule validated and
//! replayed on the simulator.

use std::hint::black_box;

use hsched_core::approx::{singleton_times, two_approx};
use hsched_core::hier::schedule_hierarchical;
use hsched_core::lst::{lst_assign, LstProbe};
use hsched_core::{Assignment, Instance};
use laminar::{topology, LaminarFamily};
use numeric::Q;
use rand::Rng;
use simulator::simulate;
use workloads::random::overhead_instance;

use crate::measure::{Layers, Tally};
use crate::Workload;

/// Instances per batch, one third per family.
const INSTANCES: usize = 36;
/// Job counts, drawn one per stratum of this range so that every seed
/// covers it evenly: with a few discrete sizes the median request fell
/// between two size classes and jumped between runs.
const JOBS: (usize, usize) = (20, 48);
/// Semi-partitioned machine counts, drawn the same way.
const SEMI_MACHINES: (usize, usize) = (8, 24);
/// Clustered shapes `(clusters, machines per cluster)`, 8 to 24 machines.
const CLUSTERED: &[(usize, usize)] = &[
    (2, 4),
    (3, 3),
    (2, 5),
    (3, 4),
    (2, 7),
    (3, 5),
    (4, 4),
    (3, 6),
    (4, 5),
    (3, 7),
    (2, 11),
    (4, 6),
];
/// Three-level SMP-CMP trees (node × chip × core), 8 to 24 machines.
const SMP_CMP: &[[usize; 3]] = &[
    [2, 2, 2],
    [2, 2, 3],
    [2, 3, 2],
    [2, 2, 4],
    [2, 4, 2],
    [3, 2, 3],
    [2, 3, 3],
    [2, 2, 5],
    [2, 3, 4],
    [3, 2, 4],
];
/// Base demands of the migration-overhead model, and its overhead of 1/4
/// per extra machine, as in the service.
const BASE: (u64, u64) = (5, 60);
/// The set-up warms up on every this-many-th instance: the first pass in
/// a process ran up to 20 % off the later ones.
const WARM_UP_EVERY: usize = 6;

pub struct Offline {
    instances: Vec<Instance>,
}

/// The `k`-th of `count` equal strata of `lo..=hi`, at a seeded point
/// inside the stratum.
fn stratified(k: usize, count: usize, (lo, hi): (usize, usize), rng: &mut impl Rng) -> usize {
    let span = hi - lo + 1;
    lo + (k * span + rng.gen_range(0..span)) / count
}

fn instances(seed: u64) -> Vec<Instance> {
    let mut rng = workloads::rng(seed);
    let per_family = INSTANCES / 3;
    (0..INSTANCES)
        .map(|k| {
            let slot = k / 3;
            let family: LaminarFamily = match k % 3 {
                0 => topology::semi_partitioned(stratified(
                    slot,
                    per_family,
                    SEMI_MACHINES,
                    &mut rng,
                )),
                1 => {
                    let (c, q) =
                        CLUSTERED[stratified(slot, per_family, (0, CLUSTERED.len() - 1), &mut rng)];
                    topology::clustered(c, q)
                }
                _ => topology::smp_cmp(
                    &SMP_CMP[stratified(slot, per_family, (0, SMP_CMP.len() - 1), &mut rng)],
                ),
            };
            // A fixed permutation of the job strata, so that job and
            // machine counts are not correlated.
            let n = stratified((k * 7) % INSTANCES, INSTANCES, JOBS, &mut rng);
            overhead_instance(family, n, BASE.0, BASE.1, 1, 4, &mut rng)
        })
        .collect()
}

/// What a request returns: `T*`, the makespan and the rounded masks.
struct Solved {
    t_star: u64,
    makespan: Q,
    masks: Vec<usize>,
}

/// The output checks beyond `Schedule::validate`: the replay reaches the
/// same makespan, and Theorem V.2's bound `makespan ≤ 2·T*` holds.
fn check(t_star: u64, makespan: &Q, replayed: &Q) -> Result<(), String> {
    if t_star == 0 || *makespan > Q::from(2 * t_star) {
        return Err(format!("makespan {makespan} exceeds 2·T* = 2·{t_star}"));
    }
    if replayed != makespan {
        return Err(format!("simulator makespan {replayed} differs from {makespan}"));
    }
    Ok(())
}

fn untraced(instance: &Instance) -> Result<Solved, String> {
    let res = two_approx(instance);
    res.schedule
        .validate(&res.instance, &res.assignment, &res.makespan)
        .map_err(|e| format!("invalid schedule: {e}"))?;
    let sim = simulate(&res.schedule, res.instance.num_machines()).map_err(|e| e.to_string())?;
    check(res.t_star, &res.makespan, &sim.makespan)?;
    Ok(Solved {
        t_star: res.t_star,
        makespan: res.makespan,
        masks: res.assignment.iter().map(|(_, a)| a).collect(),
    })
}

/// `two_approx` and the checks as the sequence of public calls it makes,
/// in its own order, each timed as a layer.
fn traced(instance: &Instance, layers: &mut Layers) -> Result<Solved, String> {
    let (completed, p) = layers.time("core.instance.complete_ms", || {
        let completed = instance.with_singletons();
        let p = singleton_times(&completed);
        (completed, p)
    });
    let m = completed.num_machines();

    // `lst_binary_search_priced`: grow `hi` until feasible, then bisect.
    let (t_star, probes, probe_cache) = layers.time("core.lst.search_ms", || {
        let mut lo = completed.bottleneck_lower_bound().max(completed.volume_lower_bound()).max(1);
        let mut hi = completed.sequential_upper_bound().max(lo);
        let mut probe = LstProbe::new(&p, m);
        let mut probes = 1u32;
        while !probe.feasible(hi) {
            hi = hi.saturating_mul(2).max(1);
            probes += 1;
            if probes > 65 {
                return Err("no feasible horizon".to_string());
            }
        }
        lo = lo.min(hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            if probe.feasible(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let c = probe.cache();
        let counters = [
            c.hybrid_certified(),
            c.hybrid_fallbacks(),
            c.factor_reuses(),
            c.warm_fallbacks(),
            c.columns_priced(),
        ];
        Ok((lo, probes, counters))
    })?;
    layers.count("core.lst.probes", probes.into());
    for (name, v) in [
        "lp.certified",
        "lp.fallbacks",
        "lp.factor_reuses",
        "lp.warm_fallbacks",
        "lp.columns_priced",
    ]
    .into_iter()
    .zip(probe_cache)
    {
        layers.count(name, v as f64);
    }

    // The search ends with a rounding at T*, which `two_approx` discards
    // and then makes again.
    let rounding = layers.time("core.lst.round_ms", || {
        black_box(lst_assign(&p, m, t_star));
        lst_assign(&p, m, t_star)
    });
    let rounding = rounding.ok_or("LP infeasible at T*")?;
    let singles = completed.singleton_index();
    let masks = rounding
        .machine_of
        .iter()
        .map(|&i| singles[i].ok_or("machine without a singleton set"))
        .collect::<Result<Vec<usize>, _>>()?;
    let assignment = Assignment::new(masks.clone());

    let t_sched = layers
        .time("core.assignment.horizon_ms", || assignment.minimal_integral_horizon(&completed))
        .ok_or("assignment uses an inadmissible pair")?;
    let (schedule, makespan) = layers
        .time("core.hier.schedule_ms", || {
            schedule_hierarchical(&completed, &assignment, &Q::from(t_sched)).map(|s| {
                let makespan = s.makespan();
                (s, makespan)
            })
        })
        .map_err(|e| format!("Algorithms 2+3 failed: {e}"))?;
    layers
        .time("core.schedule.validate_ms", || schedule.validate(&completed, &assignment, &makespan))
        .map_err(|e| format!("invalid schedule: {e}"))?;
    let sim =
        layers.time("simulator.replay_ms", || simulate(&schedule, m)).map_err(|e| e.to_string())?;
    check(t_star, &makespan, &sim.makespan)?;
    Ok(Solved { t_star, makespan, masks })
}

impl Workload for Offline {
    const COVERING: &'static [&'static str] = &[
        "core.instance.complete_ms",
        "core.lst.search_ms",
        "core.lst.round_ms",
        "core.assignment.horizon_ms",
        "core.hier.schedule_ms",
        "core.schedule.validate_ms",
        "simulator.replay_ms",
    ];

    fn setup(seed: u64, batch: u64) -> Self {
        let instances = instances(crate::sub_seed(seed, batch));
        for instance in instances.iter().step_by(WARM_UP_EVERY) {
            black_box(two_approx(instance));
        }
        Offline { instances }
    }

    fn pass(&mut self, tally: &mut Tally, mut layers: Option<&mut Layers>) -> Vec<u8> {
        let mut digest = Vec::new();
        for instance in &self.instances {
            let solved = tally.request(|| match layers.as_deref_mut() {
                None => untraced(instance),
                Some(layers) => traced(instance, layers),
            });
            if let Some(s) = solved {
                tally.quality.push(s.makespan.to_f64() / s.t_star as f64);
                digest.extend(format!("{} {} {:?}\n", s.t_star, s.makespan, s.masks).into_bytes());
            }
        }
        digest
    }
}
