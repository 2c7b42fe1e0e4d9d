//! Validated laminar families and their forest structure.

use core::fmt;

use crate::machine_set::MachineSet;

/// Why a proposed family is not a usable laminar family.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LaminarError {
    /// Two sets overlap without nesting: neither `α ⊆ β`, `β ⊆ α`, nor
    /// `α ∩ β = ∅` (violates the paper's laminarity requirement).
    Crossing(usize, usize),
    /// The family contains the same set twice (the paper assumes all sets
    /// in `A` are distinct, w.l.o.g.).
    Duplicate(usize, usize),
    /// A set is empty (an empty affinity mask can never schedule a job).
    EmptySet(usize),
    /// A set's universe size does not match the family's machine count.
    UniverseMismatch(usize),
}

impl fmt::Display for LaminarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaminarError::Crossing(a, b) => {
                write!(f, "sets #{a} and #{b} cross (overlap without nesting)")
            }
            LaminarError::Duplicate(a, b) => write!(f, "sets #{a} and #{b} are equal"),
            LaminarError::EmptySet(a) => write!(f, "set #{a} is empty"),
            LaminarError::UniverseMismatch(a) => {
                write!(f, "set #{a} has a different machine universe")
            }
        }
    }
}

impl std::error::Error for LaminarError {}

/// The first pair `(i, j)`, `i < j`, that is equal or crosses — the
/// definition of laminarity checked pair by pair. [`LaminarFamily::new`]
/// runs it only to name the pair of a family it has found invalid.
fn pairwise_violation(sets: &[MachineSet]) -> Option<LaminarError> {
    for i in 0..sets.len() {
        for j in (i + 1)..sets.len() {
            if sets[i] == sets[j] {
                return Some(LaminarError::Duplicate(i, j));
            }
            let nested = sets[i].is_subset(&sets[j]) || sets[j].is_subset(&sets[i]);
            if !nested && sets[i].intersects(&sets[j]) {
                return Some(LaminarError::Crossing(i, j));
            }
        }
    }
    None
}

/// A laminar family `A` over machines `{0, …, m−1}` with precomputed
/// forest structure.
///
/// Sets are referred to by their index into [`sets`](Self::sets); indices
/// are stable (construction never reorders the input). The forest edges
/// connect each set to its inclusion-minimal strict superset within the
/// family ([`parent`](Self::parent)).
///
/// The forest is stored as a flat arena: children lists and per-set
/// member lists live in CSR-style `(offsets, data)` arrays, and the
/// bottom-up / top-down visiting orders are computed once at
/// construction. The scheduling hot paths (`allocate_loads`,
/// `push_down_all`) iterate these slices without allocating.
///
/// Construction sorts the sets by size once and places them largest
/// first, so building a valid family costs `O(|A| log |A| + Σ_α |α|)`
/// (see [`new`](Self::new)); each machine's minimal set is kept from
/// that pass.
#[derive(Clone, Debug)]
pub struct LaminarFamily {
    num_machines: usize,
    sets: Vec<MachineSet>,
    parent: Vec<Option<usize>>,
    /// CSR children arena: set `a`'s children are
    /// `child_idx[child_off[a]..child_off[a + 1]]`.
    child_off: Vec<usize>,
    child_idx: Vec<usize>,
    /// CSR member arena: set `a`'s machines, ascending, are
    /// `member_idx[member_off[a]..member_off[a + 1]]`.
    member_off: Vec<usize>,
    member_idx: Vec<usize>,
    /// `minimal[i]`: the inclusion-minimal set containing machine `i`,
    /// `None` for machines no set covers.
    minimal: Vec<Option<usize>>,
    /// Set indices ordered children-before-parents (resp. reversed),
    /// cached because every scheduler sweep starts from one of them.
    bottom_up: Vec<usize>,
    top_down: Vec<usize>,
    /// Paper's definition: `level(β) = |{α ∈ A : β ⊆ α}|` (counts `β`
    /// itself, so roots have level 1).
    level: Vec<usize>,
    /// Height in the forest: 0 for leaves of the forest (sets with no
    /// child set), else 1 + max over children. Used by memory Model 2.
    height: Vec<usize>,
}

impl LaminarFamily {
    /// Validate and build the family; `sets` order is preserved.
    ///
    /// Sets are placed largest first (ties by descending index) while a
    /// per-machine array holds the smallest set placed so far. A set is
    /// laminar with every set placed before it exactly when all its
    /// members share one owner: that owner is its parent, and an owner
    /// of equal size is a duplicate. So a valid family costs one sort
    /// plus `O(Σ_α |α|)`; only an invalid one runs the pairwise scan,
    /// which names the first offending pair in index order.
    pub fn new(num_machines: usize, sets: Vec<MachineSet>) -> Result<Self, LaminarError> {
        for (i, s) in sets.iter().enumerate() {
            if s.universe() != num_machines {
                return Err(LaminarError::UniverseMismatch(i));
            }
            if s.is_empty() {
                return Err(LaminarError::EmptySet(i));
            }
        }
        // Member arena: each set's machines, ascending.
        let mut member_off = Vec::with_capacity(sets.len() + 1);
        member_off.push(0usize);
        let mut member_idx = Vec::new();
        for s in &sets {
            member_idx.extend(s.iter());
            member_off.push(member_idx.len());
        }
        let size = |a: usize| member_off[a + 1] - member_off[a];
        // Visiting orders. Cardinality is a valid topological key in a
        // laminar family (β ⊂ α ⇒ |β| < |α|); ties break by index for
        // determinism.
        let bottom_up = {
            let mut idx: Vec<usize> = (0..sets.len()).collect();
            idx.sort_by_key(|&i| (size(i), i));
            idx
        };
        let top_down = {
            let mut v = bottom_up.clone();
            v.reverse();
            v
        };
        // Placement, top-down: `minimal[i]` is the smallest set placed so
        // far containing machine i. Level follows from the parent, which
        // is placed first.
        let mut minimal: Vec<Option<usize>> = vec![None; num_machines];
        let mut parent = vec![None; sets.len()];
        let mut level = vec![0usize; sets.len()];
        for &a in &top_down {
            let members = &member_idx[member_off[a]..member_off[a + 1]];
            let owner = minimal[members[0]];
            let nested = members.iter().all(|&i| minimal[i] == owner)
                && owner.is_none_or(|o| size(o) > size(a));
            if !nested {
                return Err(pairwise_violation(&sets)
                    .expect("a set that cannot be placed crosses or repeats an earlier one"));
            }
            parent[a] = owner;
            level[a] = owner.map_or(1, |o| level[o] + 1);
            for &i in members {
                minimal[i] = Some(a);
            }
        }
        // Children as a CSR arena (counts → offsets → fill in index order,
        // which keeps each parent's children ascending).
        let mut child_off = vec![0usize; sets.len() + 1];
        for p in parent.iter().flatten() {
            child_off[*p + 1] += 1;
        }
        for a in 0..sets.len() {
            child_off[a + 1] += child_off[a];
        }
        let mut child_idx = vec![0usize; *child_off.last().unwrap_or(&0)];
        let mut cursor = child_off.clone();
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                child_idx[cursor[*p]] = i;
                cursor[*p] += 1;
            }
        }
        // Height: longest downward path to a forest leaf.
        let mut height = vec![0usize; sets.len()];
        for &i in &bottom_up {
            height[i] = child_idx[child_off[i]..child_off[i + 1]]
                .iter()
                .map(|&c| height[c] + 1)
                .max()
                .unwrap_or(0);
        }
        Ok(LaminarFamily {
            num_machines,
            sets,
            parent,
            child_off,
            child_idx,
            member_off,
            member_idx,
            minimal,
            bottom_up,
            top_down,
            level,
            height,
        })
    }

    /// Number of machines `m` in the universe.
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Number of sets `|A|`.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True iff the family has no sets.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// All sets, by index.
    pub fn sets(&self) -> &[MachineSet] {
        &self.sets
    }

    /// The set with index `a`.
    pub fn set(&self, a: usize) -> &MachineSet {
        &self.sets[a]
    }

    /// Index of a set equal to `s`, if present.
    pub fn index_of(&self, s: &MachineSet) -> Option<usize> {
        self.sets.iter().position(|t| t == s)
    }

    /// Inclusion-minimal strict superset within the family.
    pub fn parent(&self, a: usize) -> Option<usize> {
        self.parent[a]
    }

    /// Maximal strict subsets of set `a` (its forest children), as a
    /// slice of the CSR children arena.
    pub fn children(&self, a: usize) -> &[usize] {
        &self.child_idx[self.child_off[a]..self.child_off[a + 1]]
    }

    /// Machines of set `a`, ascending, as a slice of the member arena —
    /// the allocation-free counterpart of `set(a).iter()`.
    pub fn members(&self, a: usize) -> &[usize] {
        &self.member_idx[self.member_off[a]..self.member_off[a + 1]]
    }

    /// Offset of set `a`'s member block in the flat member arena; the
    /// pair `(member_base(a), member_pos(a, i))` addresses per-(set,
    /// machine) tables stored flat over the arena.
    pub fn member_base(&self, a: usize) -> usize {
        self.member_off[a]
    }

    /// Total length of the member arena `Σ_α |α|` — the size of a flat
    /// per-(set, member) table.
    pub fn member_arena_len(&self) -> usize {
        self.member_idx.len()
    }

    /// Position of machine `i` within set `a`'s ascending member list,
    /// if `i ∈ α` (binary search over the member arena).
    pub fn member_pos(&self, a: usize, i: usize) -> Option<usize> {
        self.members(a).binary_search(&i).ok()
    }

    /// Paper level of set `a` (roots have level 1).
    pub fn level(&self, a: usize) -> usize {
        self.level[a]
    }

    /// Level of the instance: maximum level over all sets.
    pub fn max_level(&self) -> usize {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// Forest height of set `a` (leaves have height 0). Model 2's `h(α)`.
    pub fn height(&self, a: usize) -> usize {
        self.height[a]
    }

    /// Indices of root sets (no strict superset in the family).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.parent[i].is_none()).collect()
    }

    /// Indices of leaf sets (no strict subset in the family).
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.children(i).is_empty()).collect()
    }

    /// Set indices ordered children-before-parents (the visiting order of
    /// Algorithm 2: a set is visited only after all its subsets).
    /// Precomputed at construction.
    pub fn bottom_up_order(&self) -> &[usize] {
        &self.bottom_up
    }

    /// Set indices ordered parents-before-children (Algorithm 3's order).
    /// Precomputed at construction.
    pub fn top_down_order(&self) -> &[usize] {
        &self.top_down
    }

    /// The maximal proper subset of `alpha` (within the family) that
    /// contains machine `i` — the `β` of Algorithm 2 line 8, i.e. the
    /// child of `alpha` containing `i`, if any.
    pub fn child_containing(&self, alpha: usize, i: usize) -> Option<usize> {
        self.children(alpha).iter().copied().find(|&c| self.sets[c].contains(i))
    }

    /// The inclusion-minimal set of the family containing machine `i`
    /// (recorded at construction).
    pub fn minimal_set_containing(&self, i: usize) -> Option<usize> {
        self.minimal.get(i).copied().flatten()
    }

    /// Union of all sets — the machines the family can actually use.
    pub fn covered_machines(&self) -> MachineSet {
        let mut u = MachineSet::empty(self.num_machines);
        for s in &self.sets {
            u = u.union(s);
        }
        u
    }

    /// Extend the family with any missing singleton sets (the paper's
    /// w.l.o.g. step before Lemma V.1) for machines covered by at least
    /// one set. Returns the new family and, for each added singleton, the
    /// pair `(new set index, index of the minimal original set containing
    /// that machine)` — the source its processing times inherit from.
    ///
    /// A covered machine has its singleton exactly when its minimal set
    /// has one member, so a family that already has them all comes back
    /// as a clone, and otherwise each machine's source is read from the
    /// minimal-set array.
    pub fn with_singletons(&self) -> (LaminarFamily, Vec<(usize, usize)>) {
        let missing: Vec<(usize, usize)> = (0..self.num_machines)
            .filter_map(|i| self.minimal[i].map(|src| (i, src)))
            .filter(|&(_, src)| self.members(src).len() > 1)
            .collect();
        if missing.is_empty() {
            return (self.clone(), Vec::new());
        }
        let mut sets = self.sets.clone();
        let mut inherited = Vec::with_capacity(missing.len());
        for (i, src) in missing {
            inherited.push((sets.len(), src));
            sets.push(MachineSet::singleton(self.num_machines, i));
        }
        let fam = LaminarFamily::new(self.num_machines, sets)
            .expect("adding singletons preserves laminarity");
        (fam, inherited)
    }

    /// True iff every leaf of the forest is a singleton and every root is
    /// the full machine set — the "tree with all leaves at the same
    /// level" setting can then be checked with [`Self::uniform_leaf_level`].
    pub fn is_rooted_tree(&self) -> bool {
        let roots = self.roots();
        roots.len() == 1 && self.sets[roots[0]].len() == self.num_machines
    }

    /// If all forest leaves share the same level, return `Some(k)` where
    /// `k = max_level` (the number of levels of the instance); else `None`.
    /// Memory Model 2 assumes this shape.
    pub fn uniform_leaf_level(&self) -> Option<usize> {
        let leaves = self.leaves();
        let first = self.level[*leaves.first()?];
        leaves.iter().all(|&l| self.level[l] == first).then(|| self.max_level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(universe: usize, v: &[usize]) -> MachineSet {
        MachineSet::from_iter(universe, v.iter().copied())
    }

    /// Semi-partitioned family on 3 machines: {M, {0}, {1}, {2}}.
    fn semi3() -> LaminarFamily {
        LaminarFamily::new(3, vec![ms(3, &[0, 1, 2]), ms(3, &[0]), ms(3, &[1]), ms(3, &[2])])
            .unwrap()
    }

    #[test]
    fn semi_partitioned_structure() {
        let f = semi3();
        assert_eq!(f.len(), 4);
        assert_eq!(f.parent(0), None);
        assert_eq!(f.parent(1), Some(0));
        assert_eq!(f.children(0), &[1, 2, 3]);
        assert_eq!(f.level(0), 1);
        assert_eq!(f.level(1), 2);
        assert_eq!(f.max_level(), 2);
        assert_eq!(f.height(0), 1);
        assert_eq!(f.height(2), 0);
        assert_eq!(f.roots(), vec![0]);
        assert_eq!(f.leaves(), vec![1, 2, 3]);
        assert!(f.is_rooted_tree());
        assert_eq!(f.uniform_leaf_level(), Some(2));
    }

    #[test]
    fn crossing_rejected() {
        let err = LaminarFamily::new(4, vec![ms(4, &[0, 1]), ms(4, &[1, 2])]);
        assert_eq!(err.unwrap_err(), LaminarError::Crossing(0, 1));
    }

    #[test]
    fn duplicates_rejected() {
        let err = LaminarFamily::new(4, vec![ms(4, &[0, 1]), ms(4, &[0, 1])]);
        assert_eq!(err.unwrap_err(), LaminarError::Duplicate(0, 1));
    }

    #[test]
    fn empty_set_rejected() {
        let err = LaminarFamily::new(4, vec![MachineSet::empty(4)]);
        assert_eq!(err.unwrap_err(), LaminarError::EmptySet(0));
    }

    #[test]
    fn universe_mismatch_rejected() {
        let err = LaminarFamily::new(4, vec![ms(5, &[0])]);
        assert_eq!(err.unwrap_err(), LaminarError::UniverseMismatch(0));
    }

    #[test]
    fn three_level_cluster() {
        // m=4: root {0..3}, clusters {0,1} and {2,3}, singletons.
        let f = LaminarFamily::new(
            4,
            vec![
                ms(4, &[0, 1, 2, 3]),
                ms(4, &[0, 1]),
                ms(4, &[2, 3]),
                ms(4, &[0]),
                ms(4, &[1]),
                ms(4, &[2]),
                ms(4, &[3]),
            ],
        )
        .unwrap();
        assert_eq!(f.parent(1), Some(0));
        assert_eq!(f.parent(3), Some(1));
        assert_eq!(f.parent(5), Some(2));
        assert_eq!(f.level(3), 3);
        assert_eq!(f.max_level(), 3);
        assert_eq!(f.height(0), 2);
        assert_eq!(f.child_containing(0, 2), Some(2));
        assert_eq!(f.child_containing(1, 0), Some(3));
        assert_eq!(f.child_containing(1, 2), None);
        assert_eq!(f.minimal_set_containing(2), Some(5));
        assert_eq!(f.uniform_leaf_level(), Some(3));
    }

    #[test]
    fn member_arena_matches_sets() {
        let f = LaminarFamily::new(
            4,
            vec![
                ms(4, &[0, 1, 2, 3]),
                ms(4, &[0, 1]),
                ms(4, &[2, 3]),
                ms(4, &[0]),
                ms(4, &[1]),
                ms(4, &[2]),
                ms(4, &[3]),
            ],
        )
        .unwrap();
        assert_eq!(f.member_arena_len(), 4 + 2 + 2 + 4);
        for a in 0..f.len() {
            assert_eq!(f.members(a), f.set(a).to_vec().as_slice(), "set {a}");
            for (pos, &i) in f.members(a).iter().enumerate() {
                assert_eq!(f.member_pos(a, i), Some(pos));
            }
        }
        assert_eq!(f.member_pos(1, 2), None, "machine 2 not in {{0,1}}");
        assert_eq!(f.member_base(0), 0);
        assert_eq!(f.member_base(1), 4);
    }

    #[test]
    fn bottom_up_respects_inclusion() {
        let f = semi3();
        let order = f.bottom_up_order();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        for a in 0..f.len() {
            if let Some(p) = f.parent(a) {
                assert!(pos(a) < pos(p), "child before parent");
            }
        }
        let td = f.top_down_order();
        assert_eq!(td.len(), f.len());
        assert_eq!(td[0], 0);
    }

    #[test]
    fn forest_with_two_roots() {
        // Two disjoint clusters without a global set.
        let f =
            LaminarFamily::new(4, vec![ms(4, &[0, 1]), ms(4, &[2, 3]), ms(4, &[0]), ms(4, &[2])])
                .unwrap();
        assert_eq!(f.roots(), vec![0, 1]);
        assert!(!f.is_rooted_tree());
        assert_eq!(f.covered_machines(), ms(4, &[0, 1, 2, 3]));
    }

    #[test]
    fn singleton_completion() {
        let f = LaminarFamily::new(3, vec![ms(3, &[0, 1, 2]), ms(3, &[0])]).unwrap();
        let (g, inherited) = f.with_singletons();
        assert_eq!(g.len(), 4); // adds {1}, {2}
                                // Both inherit from the root (the only set containing them).
        assert_eq!(inherited.len(), 2);
        for (_new_idx, src) in &inherited {
            assert_eq!(*src, 0);
        }
        // Already-present singleton {0} not duplicated.
        assert_eq!(g.sets().iter().filter(|s| s.len() == 1).count(), 3);
    }

    #[test]
    fn uncovered_machines_excluded_from_completion() {
        // Machine 3 is in no set: with_singletons must not invent it.
        let f = LaminarFamily::new(4, vec![ms(4, &[0, 1, 2])]).unwrap();
        let (g, _) = f.with_singletons();
        assert!(g.sets().iter().all(|s| !s.contains(3)));
    }
}
