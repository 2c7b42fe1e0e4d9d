//! Partitioned scheduling on unrelated machines (`R||Cmax`).
//!
//! Two baselines: a cheap LPT-style greedy list scheduler and the LST
//! LP-rounding 2-approximation (reusing the core's implementation, which
//! rounds from the LPT vertex and keeps the better of the two). For
//! small instances the exact partitioned optimum is available through
//! `hsched_core::exact` on a singleton family.

use hsched_core::lst::{lpt_schedule, lst_binary_search};

/// A partitioned (non-migratory) solution.
#[derive(Clone, Debug)]
pub struct PartitionedResult {
    /// `machine_of[j]` — machine each job runs on, start to finish.
    pub machine_of: Vec<usize>,
    /// Makespan = max machine load.
    pub makespan: u64,
}

/// Greedy list scheduling in LPT order ([`lpt_schedule`]: best time
/// descending, each job to the machine where it finishes first). Returns
/// `None` if some job has no admissible machine.
pub fn lpt_greedy(p: &[Vec<Option<u64>>], m: usize) -> Option<PartitionedResult> {
    let (machine_of, makespan) = lpt_schedule(p, m)?;
    Some(PartitionedResult { machine_of, makespan })
}

/// The LST 2-approximation for `R||Cmax` (binary search + LP rounding).
/// Its makespan is at most both `2·T*` and the LPT makespan: the core
/// returns the LPT schedule when it beats the rounding.
pub fn lst_partitioned(p: &[Vec<Option<u64>>], m: usize) -> Option<PartitionedResult> {
    let (_, rounding) = lst_binary_search(p, m)?;
    let makespan = rounding.makespan(p, m);
    Some(PartitionedResult { machine_of: rounding.machine_of, makespan })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_balances_identical() {
        let p = vec![vec![Some(2), Some(2)]; 4];
        let r = lpt_greedy(&p, 2).unwrap();
        assert_eq!(r.makespan, 4);
    }

    #[test]
    fn lpt_respects_masks() {
        let p = vec![vec![Some(3), None], vec![None, Some(4)]];
        let r = lpt_greedy(&p, 2).unwrap();
        assert_eq!(r.machine_of, vec![0, 1]);
        assert_eq!(r.makespan, 4);
    }

    #[test]
    fn lpt_unschedulable() {
        let p = vec![vec![None, None]];
        assert!(lpt_greedy(&p, 2).is_none());
    }

    #[test]
    fn lst_within_twice_greedy_reference() {
        let p: Vec<Vec<Option<u64>>> = (0..8)
            .map(|j| (0..3).map(|i| Some(1 + (j * 5 + i * 3) as u64 % 9)).collect())
            .collect();
        let lst = lst_partitioned(&p, 3).unwrap();
        let lpt = lpt_greedy(&p, 3).unwrap();
        // Both valid; LST holds its 2·OPT guarantee, which in particular
        // means it can't be worse than twice the greedy (an upper bound
        // on OPT is the greedy itself).
        assert!(lst.makespan <= 2 * lpt.makespan);
    }

    #[test]
    fn lst_beats_or_ties_lpt_on_adversarial_unrelated() {
        // Heterogeneous: machine 0 fast for even jobs, machine 1 for odd.
        let p: Vec<Vec<Option<u64>>> = (0..6)
            .map(|j| if j % 2 == 0 { vec![Some(1), Some(10)] } else { vec![Some(10), Some(1)] })
            .collect();
        let lst = lst_partitioned(&p, 2).unwrap();
        assert!(lst.makespan <= 6, "good split exists with makespan 3");
    }

    #[test]
    fn empty_input() {
        assert_eq!(lst_partitioned(&[], 2).unwrap().makespan, 0);
        assert_eq!(lpt_greedy(&[], 2).unwrap().makespan, 0);
    }
}
