//! Shared workload builders for the harness and the Criterion benches —
//! every experiment's instances come from here so that EXPERIMENTS.md's
//! numbers are reproducible from the listed seeds.

use hsched_core::Instance;
use laminar::{topology, LaminarFamily};
use workloads::{random, rng};

/// The topology mix used by the approximation-ratio experiment (E3).
pub fn e3_topologies() -> Vec<(&'static str, LaminarFamily)> {
    vec![
        ("semi(3)", topology::semi_partitioned(3)),
        ("clustered(2x2)", topology::clustered(2, 2)),
        ("clustered(2x3)", topology::clustered(2, 3)),
    ]
}

/// One E3 instance: migration-overhead model with 25% per-mask growth.
pub fn e3_instance(fam: LaminarFamily, n: usize, seed: u64) -> Instance {
    random::overhead_instance(fam, n, 1, 9, 1, 4, &mut rng(seed))
}

/// E9's heterogeneous-speed instance: works 5–60 (the offline
/// benchmark's base demands) on machines of speed 1–4, so a job's
/// singleton time depends on its machine.
pub fn e9_heterogeneous_instance(fam: LaminarFamily, n: usize, seed: u64) -> Instance {
    random::heterogeneous_instance(fam, n, 5, 60, 4, &mut rng(seed))
}

/// E4 stress instance: everything migratory-capable on `m` machines.
pub fn e4_instance(m: usize, n: usize, seed: u64) -> Instance {
    random::semi_uniform(m, n, 2, 10, &mut rng(seed))
}

/// E5 policy-comparison instance on an SMP-CMP tree with the given
/// overhead percentage per mask doubling.
pub fn e5_instance(ovh_pct: u64, n: usize, seed: u64) -> Instance {
    random::smp_cmp_instance(&[2, 2, 2], n, 2, 12, ovh_pct, &mut rng(seed))
}

/// E10 scaling instance.
pub fn e10_instance(n: usize, m: usize, seed: u64) -> Instance {
    random::overhead_instance(topology::semi_partitioned(m), n, 1, 20, 1, 4, &mut rng(seed))
}

/// E11's open-bracket instance: semi-partitioned with base demands 5–60,
/// the offline benchmark's model. At n = 4m its `T*` lies below the LPT
/// makespan, so `two_approx` solves its rounding LP. The singleton times
/// are identical machines, so `T*` is the bracket's lower bound and no
/// probe runs.
pub fn open_bracket_instance(n: usize, m: usize, seed: u64) -> Instance {
    random::overhead_instance(topology::semi_partitioned(m), n, 5, 60, 1, 4, &mut rng(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = e3_instance(topology::semi_partitioned(3), 6, 1);
        let b = e3_instance(topology::semi_partitioned(3), 6, 1);
        for j in 0..6 {
            for s in 0..a.family().len() {
                assert_eq!(a.ptime(j, s), b.ptime(j, s));
            }
        }
    }

    #[test]
    fn e5_overhead_zero_is_uniform_across_sets() {
        let inst = e5_instance(0, 4, 2);
        for j in 0..4 {
            let times: Vec<_> = (0..inst.family().len()).map(|a| inst.ptime(j, a)).collect();
            assert!(times.windows(2).all(|w| w[0] == w[1]));
        }
    }
}
