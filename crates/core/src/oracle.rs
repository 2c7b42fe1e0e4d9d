//! Test-only reference oracles for the one-pass request path.
//!
//! (IP-2), Algorithms 2+3 and schedule validation written as direct
//! transcriptions of their definitions: per-set job lists and subset
//! closures with rational sums ([`Assignment::volume_on`],
//! [`Instance::subsets_of`]), a dense `|A| × m` load table, the child
//! containing a machine found by scanning the children, the shared
//! machine found by walking the parent chain, `rem_euclid` for the wrap,
//! and a validator that filters the segments once per machine and once
//! per job; greedy placement's horizon summed over each set's subset
//! closure. The properties below check that the production code
//! reproduces them exactly, on valid and on corrupted input.

use laminar::{topology, LaminarFamily, MachineSet};
use numeric::Q;
use proptest::prelude::*;

use crate::assignment::{Assignment, AssignmentViolation, HorizonTracker};
use crate::hier::{schedule_hierarchical, HierError};
use crate::instance::Instance;
use crate::schedule::{Schedule, ScheduleError, Segment};
use crate::stream::{coalesce, JobStream};

/// The (IP-2) volume of set `a` by definition: `Σ_{β⊆α} vol(β)`.
fn subtree_volume(instance: &Instance, asg: &Assignment, a: usize) -> Q {
    Q::sum(instance.subsets_of(a).into_iter().map(|b| asg.volume_on(instance, b)))
}

/// (IP-2) by definition, checked job by job and then set by set.
fn check_ip2(instance: &Instance, asg: &Assignment, t: &Q) -> Result<(), AssignmentViolation> {
    if asg.len() != instance.num_jobs() {
        return Err(AssignmentViolation::WrongLength);
    }
    for (j, a) in asg.iter() {
        match instance.ptime_q(j, a) {
            None => return Err(AssignmentViolation::InfiniteTime { job: j }),
            Some(p) if p > *t => {
                return Err(AssignmentViolation::JobExceedsHorizon { job: j, set: a })
            }
            Some(_) => {}
        }
    }
    for a in 0..instance.family().len() {
        let cap = Q::from(instance.set(a).len() as u64) * t.clone();
        if subtree_volume(instance, asg, a) > cap {
            return Err(AssignmentViolation::CapacityExceeded { set: a });
        }
    }
    Ok(())
}

/// `max(max p, max_α ⌈vol(α)/|α|⌉)` by definition.
fn minimal_integral_horizon(instance: &Instance, asg: &Assignment) -> Option<u64> {
    if asg.len() != instance.num_jobs() {
        return None;
    }
    let mut t = 0u64;
    for (j, a) in asg.iter() {
        t = t.max(instance.ptime(j, a)?);
    }
    for a in 0..instance.family().len() {
        let per = subtree_volume(instance, asg, a) / Q::from(instance.set(a).len() as u64);
        t = t.max(per.ceil().to_i64().expect("test volumes fit i64") as u64);
    }
    Some(t)
}

/// The horizon of a partial assignment plus job `j` on set `a`, by the
/// definition greedy placement used before [`HorizonTracker`]: for every
/// set, the committed volume of its subset closure, plus `p_{aj}` when
/// `a` is in it.
fn horizon_with(instance: &Instance, volume: &[Q], max_p: u64, j: usize, a: usize) -> Option<u128> {
    let p = instance.ptime(j, a)?;
    let mut t = max_p.max(p);
    for alpha in 0..instance.family().len() {
        let closure = instance.subsets_of(alpha);
        let mut vol = Q::sum(closure.iter().map(|&b| &volume[b]));
        if closure.contains(&a) {
            vol += Q::from(p);
        }
        let per = vol / Q::from(instance.set(alpha).len() as u64);
        t = t.max(per.ceil().to_i64().expect("test volumes fit i64") as u64);
    }
    Some(u128::from(t))
}

/// Algorithms 2+3 as the paper states them.
fn schedule_reference(instance: &Instance, asg: &Assignment, t: &Q) -> Result<Schedule, HierError> {
    check_ip2(instance, asg, t).map_err(HierError::Infeasible)?;
    let fam = instance.family();
    let m = instance.num_machines();
    let mut load = vec![vec![Q::zero(); m]; fam.len()];
    let mut tot = vec![vec![Q::zero(); m]; fam.len()];
    for &alpha in fam.bottom_up_order() {
        let mut v = asg.volume_on(instance, alpha);
        for i in fam.set(alpha).iter() {
            let child = fam.children(alpha).iter().copied().find(|&c| fam.set(c).contains(i));
            let below = child.map_or_else(Q::zero, |c| tot[c][i].clone());
            let avail = t.clone() - below.clone();
            if avail.is_negative() {
                return Err(HierError::InvariantBroken(
                    "TOT-LOAD exceeded T below a set (Lemma IV.1 i)",
                ));
            }
            let put = v.clone().min(avail);
            load[alpha][i] = put.clone();
            tot[alpha][i] = below + put.clone();
            v -= put;
        }
        if v.is_positive() {
            return Err(HierError::Infeasible(AssignmentViolation::CapacityExceeded {
                set: alpha,
            }));
        }
    }
    let mut t_at = vec![vec![Q::zero(); m]; fam.len()];
    let mut segments = Vec::new();
    for &beta in fam.top_down_order() {
        let mut shared = Vec::new();
        for i in fam.set(beta).iter().filter(|&i| load[beta][i].is_positive()) {
            let mut cur = fam.parent(beta);
            while let Some(alpha) = cur {
                if load[alpha][i].is_positive() {
                    shared.push((i, alpha));
                    break;
                }
                cur = fam.parent(alpha);
            }
        }
        if shared.len() > 1 {
            return Err(HierError::InvariantBroken(
                "more than one shared machine for a set (Lemma IV.2)",
            ));
        }
        let members = fam.set(beta).to_vec();
        let (start, mut t_beta) = match shared.first() {
            Some(&(i, alpha)) => (i, t_at[alpha][i].clone()),
            None => (members[0], Q::zero()),
        };
        let mut stream = JobStream::new(
            asg.jobs_on(beta).into_iter().map(|j| (j, instance.ptime_q(j, beta).expect("finite"))),
        );
        let pivot = members.iter().position(|&k| k == start).expect("start machine ∈ β");
        for pos in (pivot..members.len()).chain(0..pivot) {
            let k = members[pos];
            let d = load[beta][k].clone();
            if d.is_positive() {
                stream.place(k, &t_beta, &d, t, &mut segments).map_err(HierError::Placement)?;
                t_beta = (t_beta + d).rem_euclid(t);
            }
            t_at[beta][k] = t_beta.clone();
        }
        if !stream.is_empty() {
            return Err(HierError::InvariantBroken("stream not exhausted (Lemma IV.1 ii)"));
        }
    }
    Ok(Schedule { segments: coalesce(segments) })
}

/// Schedule validation by filtering: per-segment checks, then each
/// machine's segments, then each job's.
fn validate_reference(
    sched: &Schedule,
    instance: &Instance,
    asg: &Assignment,
    t: &Q,
) -> Result<(), ScheduleError> {
    for (k, s) in sched.segments.iter().enumerate() {
        if s.end <= s.start {
            return Err(ScheduleError::EmptySegment(k));
        }
        if s.start.is_negative() || s.end > *t {
            return Err(ScheduleError::OutsideHorizon(k));
        }
        if !instance.set(asg.mask_of(s.job)).contains(s.machine) {
            return Err(ScheduleError::OutsideMask { segment: k });
        }
    }
    for i in 0..instance.num_machines() {
        let mut segs: Vec<&Segment> = sched.segments.iter().filter(|s| s.machine == i).collect();
        segs.sort_by(|a, b| a.start.cmp(&b.start));
        if segs.windows(2).any(|w| w[1].start < w[0].end) {
            return Err(ScheduleError::MachineConflict { machine: i });
        }
    }
    for j in 0..instance.num_jobs() {
        let mut segs: Vec<&Segment> = sched.segments.iter().filter(|s| s.job == j).collect();
        segs.sort_by(|a, b| a.start.cmp(&b.start));
        if segs.windows(2).any(|w| w[1].start < w[0].end) {
            return Err(ScheduleError::JobParallelism { job: j });
        }
        let total = Q::sum(segs.iter().map(|s| s.duration()));
        if instance.ptime_q(j, asg.mask_of(j)) != Some(total) {
            return Err(ScheduleError::WrongAmount { job: j });
        }
    }
    Ok(())
}

/// A small deterministic generator (SplitMix64): one `u64` seed
/// describes a whole instance, assignment and corruption.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A laminar family: a built-in topology, or random nested ranges of
/// permuted machines (a forest, possibly without every singleton).
fn random_family(rng: &mut Mix) -> LaminarFamily {
    let m = 2 + rng.below(7);
    match rng.below(4) {
        0 => topology::semi_partitioned(m),
        1 => topology::clustered(1 + rng.below(3), 1 + rng.below(3)),
        2 => topology::smp_cmp(&[1 + rng.below(2), 1 + rng.below(2), 1 + rng.below(3)]),
        _ => {
            let mut labels: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                labels.swap(i, rng.below(i + 1));
            }
            let mut sets = Vec::new();
            let mut ranges = vec![(0, m)];
            while let Some((lo, hi)) = ranges.pop() {
                if sets.is_empty() || rng.below(4) > 0 {
                    sets.push(MachineSet::from_iter(m, labels[lo..hi].iter().copied()));
                }
                if hi - lo >= 2 && rng.below(5) > 0 {
                    let cut = lo + 1 + rng.below(hi - lo - 1);
                    ranges.push((lo, cut));
                    ranges.push((cut, hi));
                }
            }
            LaminarFamily::new(m, sets).expect("nested ranges are laminar")
        }
    }
}

/// A monotone instance on a random family and a random assignment. Job
/// `j` takes `b + c·(|α| − 1)` on sets of at most `cap` machines and is
/// inadmissible on larger ones; `b` may be 0. With `finite_only`, every
/// job's mask has a finite time.
fn random_case(rng: &mut Mix, finite_only: bool) -> (Instance, Assignment) {
    let fam = random_family(rng);
    let sizes: Vec<usize> = fam.sets().iter().map(MachineSet::len).collect();
    let n = 1 + rng.below(10);
    let rows: Vec<Vec<Option<u64>>> = (0..n)
        .map(|_| {
            let (b, c) = (rng.below(10) as u64, rng.below(3) as u64);
            let cap = sizes[rng.below(sizes.len())];
            sizes.iter().map(|&s| (s <= cap).then(|| b + c * (s as u64 - 1))).collect()
        })
        .collect();
    let mask = rows
        .iter()
        .map(|row| {
            let finite: Vec<usize> = (0..row.len()).filter(|&a| row[a].is_some()).collect();
            if finite_only || rng.below(8) > 0 {
                finite[rng.below(finite.len())]
            } else {
                rng.below(row.len())
            }
        })
        .collect();
    (Instance::new(fam, rows).expect("monotone by construction"), Assignment::new(mask))
}

/// A rational horizon `T + r/d` with `d ∈ 2..=5` and `0 ≤ r < d`.
fn rational_at_least(t: u64, rng: &mut Mix) -> Q {
    let d = 2 + rng.below(4) as i64;
    Q::ratio(t as i64 * d + rng.below(d as usize) as i64, d)
}

/// One or two random corruptions: drop, duplicate, move, stretch, empty
/// or re-target a segment (jobs stay below `n`; machines may leave the
/// universe).
fn corrupt(sched: &mut Schedule, n: usize, m: usize, rng: &mut Mix) {
    let half = Q::ratio(1, 2);
    for _ in 0..1 + rng.below(2) {
        if sched.segments.is_empty() {
            return;
        }
        let k = rng.below(sched.segments.len());
        let delta = [Q::from_int(-1), -half.clone(), half.clone(), Q::one()][rng.below(4)].clone();
        let seg = &mut sched.segments[k];
        match rng.below(8) {
            0 => {
                sched.segments.remove(k);
            }
            1 => {
                let copy = seg.clone();
                sched.segments.push(copy);
            }
            2 => seg.start += delta,
            3 => seg.end += delta,
            4 => seg.machine = rng.below(m + 1),
            5 => seg.job = rng.below(n),
            6 => seg.end = seg.start.clone(),
            _ => {
                seg.start += delta.clone();
                seg.end += delta;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Algorithms 2+3 reproduce the reference segment for segment at the
    /// minimal integral horizon and at a rational one above it, and fail
    /// with the same error below them.
    #[test]
    fn one_pass_schedule_matches_reference(seed: u64) {
        let mut rng = Mix(seed);
        let (inst, asg) = random_case(&mut rng, true);
        let t = asg.minimal_integral_horizon(&inst).expect("finite masks");
        let rational = rational_at_least(t, &mut rng);
        let mut horizons = vec![Q::from(t), rational.clone()];
        if t > 0 {
            horizons.push(Q::from(t - 1));
            horizons.push(rational - Q::one());
        }
        for h in horizons {
            let got = schedule_hierarchical(&inst, &asg, &h);
            prop_assert_eq!(&got, &schedule_reference(&inst, &asg, &h), "T = {}", h);
            if let Ok(s) = got {
                prop_assert_eq!(s.validate(&inst, &asg, &h), Ok(()));
            }
        }
    }

    /// `minimal_integral_horizon` and `check_ip2` at `T` and `T − 1`
    /// equal the definitions through `volume_on` + `subsets_of`, also on
    /// assignments with infinite pairs.
    #[test]
    fn ip2_matches_definition(seed: u64) {
        let mut rng = Mix(seed);
        let (inst, asg) = random_case(&mut rng, false);
        let t = asg.minimal_integral_horizon(&inst);
        prop_assert_eq!(t, minimal_integral_horizon(&inst, &asg));
        let t = t.unwrap_or(rng.below(20) as u64);
        for h in [Q::from(t), Q::from(t.saturating_sub(1)), rational_at_least(t, &mut rng)] {
            prop_assert_eq!(asg.check_ip2(&inst, &h), check_ip2(&inst, &asg, &h), "T = {}", h);
        }
    }

    /// The incremental tracker's horizon equals the definition for every
    /// candidate set of every job, as a random assignment is committed
    /// job by job.
    #[test]
    fn horizon_tracker_matches_definition(seed: u64) {
        let mut rng = Mix(seed);
        let (inst, asg) = random_case(&mut rng, true);
        let mut tracker = HorizonTracker::new(&inst);
        let mut volume = vec![Q::zero(); inst.family().len()];
        let mut max_p = 0u64;
        for (j, a) in asg.iter() {
            for b in 0..inst.family().len() {
                let want = horizon_with(&inst, &volume, max_p, j, b);
                prop_assert_eq!(tracker.horizon_with(j, b), want, "job {} on set {}", j, b);
            }
            tracker.commit(j, a);
            let p = inst.ptime(j, a).expect("finite masks");
            volume[a] += Q::from(p);
            max_p = max_p.max(p);
        }
    }

    /// The two-sort validator returns the reference's variant and index
    /// on corrupted schedules, at integral and rational horizons.
    #[test]
    fn validate_matches_reference_on_corruption(seed: u64) {
        let mut rng = Mix(seed);
        let (inst, asg) = random_case(&mut rng, true);
        let t = asg.minimal_integral_horizon(&inst).expect("finite masks");
        let h = if rng.below(2) == 0 { Q::from(t) } else { rational_at_least(t, &mut rng) };
        let mut sched = schedule_hierarchical(&inst, &asg, &h).expect("feasible at its horizon");
        corrupt(&mut sched, inst.num_jobs(), inst.num_machines(), &mut rng);
        for check in [h.clone(), h + Q::one()] {
            prop_assert_eq!(
                sched.validate(&inst, &asg, &check),
                validate_reference(&sched, &inst, &asg, &check),
                "T = {}", check
            );
        }
    }
}
