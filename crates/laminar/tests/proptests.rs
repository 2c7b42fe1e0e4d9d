//! Property-based tests for machine sets and laminar families.

use laminar::{topology, LaminarError, LaminarFamily, MachineSet};
use proptest::prelude::*;

/// Strategy: random subsets of a universe of size `m`.
fn subset(m: usize) -> impl Strategy<Value = MachineSet> {
    proptest::collection::vec(proptest::bool::ANY, m).prop_map(move |bits| {
        MachineSet::from_iter(m, bits.iter().enumerate().filter(|(_, b)| **b).map(|(i, _)| i))
    })
}

proptest! {
    /// Set algebra laws on random subsets.
    #[test]
    fn set_algebra_laws(a in subset(20), b in subset(20), c in subset(20)) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert_eq!(
            a.union(&b).intersection(&c),
            a.intersection(&c).union(&b.intersection(&c))
        );
        prop_assert_eq!(a.difference(&b).intersection(&b), MachineSet::empty(20));
        prop_assert!(a.intersection(&b).is_subset(&a));
        prop_assert!(a.is_subset(&a.union(&b)));
        prop_assert_eq!(a.union(&b).len() + a.intersection(&b).len(), a.len() + b.len());
    }

    /// Iteration is ascending and consistent with membership.
    #[test]
    fn iteration_consistent(a in subset(130)) {
        let v = a.to_vec();
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(v.len(), a.len());
        for &i in &v {
            prop_assert!(a.contains(i));
        }
    }

    /// Every SMP-CMP topology is a valid laminar family whose traversal
    /// orders respect inclusion, and levels/heights are consistent.
    #[test]
    fn smp_cmp_structure(b1 in 1usize..4, b2 in 1usize..4, b3 in 1usize..3) {
        let fam = topology::smp_cmp(&[b1, b2, b3]);
        prop_assert_eq!(fam.num_machines(), b1 * b2 * b3);
        // bottom-up: children before parents
        let order = fam.bottom_up_order();
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        for a in 0..fam.len() {
            if let Some(p) = fam.parent(a) {
                prop_assert!(pos(a) < pos(p));
                prop_assert!(fam.set(a).is_strict_subset(fam.set(p)));
                prop_assert_eq!(fam.level(a), fam.level(p) + 1);
                prop_assert!(fam.height(p) > fam.height(a));
            }
        }
        // Children of any set partition it (complete trees).
        for a in 0..fam.len() {
            let kids = fam.children(a);
            if !kids.is_empty() {
                let mut u = MachineSet::empty(fam.num_machines());
                for &k in kids {
                    prop_assert!(u.is_disjoint(fam.set(k)), "children overlap");
                    u = u.union(fam.set(k));
                }
                prop_assert_eq!(&u, fam.set(a), "children cover parent");
            }
        }
    }

    /// Laminarity detection: sliding windows over the machine line cross
    /// unless nested/disjoint — the validator must agree with the
    /// definitional check.
    #[test]
    fn laminar_validation_matches_definition(
        m in 4usize..10,
        lo1 in 0usize..6, w1 in 1usize..5,
        lo2 in 0usize..6, w2 in 1usize..5,
    ) {
        let a = MachineSet::from_range(m, lo1.min(m - 1), (lo1 + w1).min(m));
        let b = MachineSet::from_range(m, lo2.min(m - 1), (lo2 + w2).min(m));
        prop_assume!(!a.is_empty() && !b.is_empty() && a != b);
        let nested_or_disjoint =
            a.is_subset(&b) || b.is_subset(&a) || a.is_disjoint(&b);
        let result = LaminarFamily::new(m, vec![a, b]);
        prop_assert_eq!(result.is_ok(), nested_or_disjoint);
    }

    /// Singleton completion: afterwards every covered machine has its
    /// singleton and the family is still laminar (constructor succeeded).
    #[test]
    fn singleton_completion_total(sets in proptest::collection::vec(0usize..5, 1..4)) {
        // Build disjoint cluster windows of width 2 from offsets.
        let m = 12;
        let mut fam_sets = Vec::new();
        for (k, off) in sets.iter().enumerate() {
            let lo = (k * 4 + off % 3).min(m - 2);
            let s = MachineSet::from_range(m, lo, lo + 2);
            if fam_sets.iter().all(|t: &MachineSet| t.is_disjoint(&s) || t.is_subset(&s) || s.is_subset(t)) && !fam_sets.contains(&s) {
                fam_sets.push(s);
            }
        }
        prop_assume!(!fam_sets.is_empty());
        let fam = LaminarFamily::new(m, fam_sets).expect("built laminar");
        let (full, _) = fam.with_singletons();
        for i in fam.covered_machines().iter() {
            let single = MachineSet::singleton(m, i);
            prop_assert!(full.index_of(&single).is_some());
        }
    }
}

/// A small deterministic generator (SplitMix64), so one `u64` seed
/// describes a whole family and its shuffle.
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

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A random laminar family on `m` machines in shuffled order: machine
/// labels are permuted, label ranges are split recursively into two or
/// three parts, and each range is kept as a set with probability 3/4, so
/// families have several roots, skipped levels and uncovered machines.
fn random_laminar(m: usize, rng: &mut Mix) -> Vec<MachineSet> {
    let mut labels: Vec<usize> = (0..m).collect();
    rng.shuffle(&mut labels);
    let mut sets = Vec::new();
    let mut ranges = vec![(0, m)];
    while let Some((lo, hi)) = ranges.pop() {
        if rng.below(4) > 0 {
            sets.push(MachineSet::from_iter(m, labels[lo..hi].iter().copied()));
        }
        if hi - lo >= 2 && rng.below(5) > 0 {
            let parts = 2 + rng.below(2).min(hi - lo - 2);
            let mut cuts: Vec<usize> = Vec::new();
            while cuts.len() < parts - 1 {
                let c = lo + 1 + rng.below(hi - lo - 1);
                if !cuts.contains(&c) {
                    cuts.push(c);
                }
            }
            cuts.sort_unstable();
            let mut at = lo;
            for c in cuts.into_iter().chain([hi]) {
                ranges.push((at, c));
                at = c;
            }
        }
    }
    rng.shuffle(&mut sets);
    sets
}

/// The forest of a laminar family by the definitions, pair by pair: the
/// reference the one-pass construction must reproduce.
struct Reference {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    bottom_up: Vec<usize>,
    level: Vec<usize>,
    height: Vec<usize>,
}

fn reference(sets: &[MachineSet]) -> Result<Reference, LaminarError> {
    let k = sets.len();
    for i in 0..k {
        for j in (i + 1)..k {
            if sets[i] == sets[j] {
                return Err(LaminarError::Duplicate(i, j));
            }
            let nested = sets[i].is_subset(&sets[j]) || sets[j].is_subset(&sets[i]);
            if !nested && sets[i].intersects(&sets[j]) {
                return Err(LaminarError::Crossing(i, j));
            }
        }
    }
    let parent: Vec<Option<usize>> = (0..k)
        .map(|i| {
            (0..k).filter(|&j| sets[i].is_strict_subset(&sets[j])).min_by_key(|&j| sets[j].len())
        })
        .collect();
    let children: Vec<Vec<usize>> =
        (0..k).map(|a| (0..k).filter(|&c| parent[c] == Some(a)).collect()).collect();
    let mut bottom_up: Vec<usize> = (0..k).collect();
    bottom_up.sort_by_key(|&i| (sets[i].len(), i));
    let level = (0..k).map(|i| (0..k).filter(|&j| sets[i].is_subset(&sets[j])).count()).collect();
    let mut height = vec![0usize; k];
    for &i in &bottom_up {
        height[i] = children[i].iter().map(|&c| height[c] + 1).max().unwrap_or(0);
    }
    Ok(Reference { parent, children, bottom_up, level, height })
}

proptest! {
    /// The one-pass construction reproduces the pairwise definitions on
    /// random laminar families in shuffled order: parents, children,
    /// members, both visiting orders, levels, heights and each machine's
    /// minimal set.
    #[test]
    fn construction_matches_pairwise_reference(m in 1usize..24, seed: u64) {
        let mut rng = Mix(seed);
        let sets = random_laminar(m, &mut rng);
        let want = reference(&sets).expect("generated families are laminar");
        let fam = LaminarFamily::new(m, sets.clone()).expect("generated families are laminar");
        let mut top_down = want.bottom_up.clone();
        top_down.reverse();
        prop_assert_eq!(fam.bottom_up_order(), want.bottom_up.as_slice());
        prop_assert_eq!(fam.top_down_order(), top_down.as_slice());
        for a in 0..sets.len() {
            prop_assert_eq!(fam.parent(a), want.parent[a], "parent of {}", a);
            prop_assert_eq!(fam.children(a), want.children[a].as_slice(), "children of {}", a);
            let members = sets[a].to_vec();
            prop_assert_eq!(fam.members(a), members.as_slice(), "members of {}", a);
            prop_assert_eq!(fam.level(a), want.level[a], "level of {}", a);
            prop_assert_eq!(fam.height(a), want.height[a], "height of {}", a);
        }
        for i in 0..m {
            let minimal = (0..sets.len()).filter(|&a| sets[a].contains(i)).min_by_key(|&a| sets[a].len());
            prop_assert_eq!(fam.minimal_set_containing(i), minimal, "machine {}", i);
        }
    }

    /// One injected duplicate or crossing set, at a random position: the
    /// construction rejects the family with the reference's variant and
    /// pair.
    #[test]
    fn invalid_families_name_the_reference_pair(
        m in 2usize..24, seed: u64, duplicate in proptest::bool::ANY,
    ) {
        let mut rng = Mix(seed);
        let mut sets = random_laminar(m, &mut rng);
        prop_assume!(!sets.is_empty());
        let victim = sets[rng.below(sets.len())].clone();
        let injected = if duplicate {
            victim
        } else {
            // A member of a victim with two or more members plus a machine
            // outside it overlaps the victim without nesting either way.
            let outside: Vec<usize> = (0..m).filter(|&i| !victim.contains(i)).collect();
            prop_assume!(victim.len() >= 2 && !outside.is_empty());
            let inside = victim.to_vec();
            let (a, b) = (inside[rng.below(inside.len())], outside[rng.below(outside.len())]);
            MachineSet::from_iter(m, [a, b])
        };
        let at = rng.below(sets.len() + 1);
        sets.insert(at, injected);
        let want = reference(&sets).err().expect("the injected set breaks laminarity");
        prop_assert_eq!(LaminarFamily::new(m, sets).err(), Some(want));
    }
}
