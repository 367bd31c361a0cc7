//! The set `F` of polarity-normalized signal functions and its partition
//! into candidate equivalence classes.
//!
//! Every signal `v` of the product machine is normalized against the
//! reference point `(s0, x0)`: if `f_v(s0, x0) = 1` the set contains
//! `f_v`, otherwise `¬f_v` (paper Sec. 3). This makes the partition
//! detect antivalent signals for free. The partition is refined only —
//! classes split, never merge — so the fixed point terminates after at
//! most `|F| + 1` rounds.

use sec_netlist::{Lit, Var};

/// A partition of the signal set `F` into candidate classes.
///
/// The first member of each class acts as the representative.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Class index per node, `u32::MAX` for untracked nodes.
    class_of: Vec<u32>,
    classes: Vec<Vec<Var>>,
    /// `phase[v]`: value of `v` at the reference point; the normalized
    /// function is `f_v` when true, `¬f_v` when false.
    phase: Vec<bool>,
}

const UNTRACKED: u32 = u32::MAX;

impl Partition {
    /// Builds a partition from explicit classes. `num_nodes` sizes the
    /// node-indexed tables; `phase[v]` must hold each node's
    /// reference-point value.
    pub fn new(num_nodes: usize, classes: Vec<Vec<Var>>, phase: Vec<bool>) -> Partition {
        assert_eq!(phase.len(), num_nodes);
        let mut class_of = vec![UNTRACKED; num_nodes];
        for (ci, class) in classes.iter().enumerate() {
            assert!(!class.is_empty(), "empty class");
            for v in class {
                class_of[v.index()] = ci as u32;
            }
        }
        Partition {
            class_of,
            classes,
            phase,
        }
    }

    /// All signals in one initial class (used when simulation seeding is
    /// disabled).
    pub fn single_class(num_nodes: usize, signals: Vec<Var>, phase: Vec<bool>) -> Partition {
        Partition::new(num_nodes, vec![signals], phase)
    }

    /// Number of classes (including singletons).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of tracked signals.
    pub fn num_signals(&self) -> usize {
        self.classes.iter().map(|c| c.len()).sum()
    }

    /// The members of class `ci`; the first element is the
    /// representative.
    pub fn class(&self, ci: usize) -> &[Var] {
        &self.classes[ci]
    }

    /// The class of a node, if tracked.
    pub fn class_of(&self, v: Var) -> Option<usize> {
        let c = self.class_of[v.index()];
        (c != UNTRACKED).then_some(c as usize)
    }

    /// The reference-point value of a node.
    pub fn phase(&self, v: Var) -> bool {
        self.phase[v.index()]
    }

    /// The normalized sign of a literal: the complement that turns the
    /// normalized class function into this literal's function. Two
    /// literals denote (candidate-)equal functions iff their classes and
    /// signs agree.
    pub fn sign(&self, l: Lit) -> bool {
        l.is_complemented() ^ !self.phase[l.var().index()]
    }

    /// Whether two literals are equivalent according to the current
    /// partition (same class, compatible polarity). Identical literals
    /// are always equivalent.
    pub fn lit_equiv(&self, a: Lit, b: Lit) -> bool {
        if a == b {
            return true;
        }
        match (self.class_of(a.var()), self.class_of(b.var())) {
            (Some(ca), Some(cb)) => ca == cb && self.sign(a) == self.sign(b),
            _ => false,
        }
    }

    /// The normalized value of a node under a concrete evaluation of all
    /// nodes (`values[v]` = value of node `v`).
    #[inline]
    fn normalized_value(&self, values: &[bool], v: Var) -> bool {
        values[v.index()] ^ !self.phase[v.index()]
    }

    /// Globally refines the partition by one evaluation vector: members
    /// of a class whose normalized values differ are separated. Returns
    /// `true` if anything split.
    ///
    /// This is the counterexample-guided splitting step: the evaluation
    /// must come from a state/input point satisfying the current
    /// correspondence condition (or from the initial state), so signals
    /// with different values there can never share a class in any finer
    /// correspondence relation.
    pub fn refine_by_values(&mut self, values: &[bool]) -> bool {
        let mut changed = false;
        let num = self.classes.len();
        for ci in 0..num {
            let n = self.classes[ci].len();
            if n < 2 {
                continue;
            }
            // Partition members by normalized value; keep the group of
            // the representative in place. Both sides are pre-sized so
            // the refinement loop never reallocates mid-split.
            let repr_val = self.normalized_value(values, self.classes[ci][0]);
            let mut keep: Vec<Var> = Vec::with_capacity(n);
            let mut split: Vec<Var> = Vec::with_capacity(n);
            for &v in &self.classes[ci] {
                if self.normalized_value(values, v) == repr_val {
                    keep.push(v);
                } else {
                    split.push(v);
                }
            }
            if !split.is_empty() {
                changed = true;
                let new_ci = self.classes.len() as u32;
                for v in &split {
                    self.class_of[v.index()] = new_ci;
                }
                self.classes[ci] = keep;
                self.classes.push(split);
            }
        }
        changed
    }

    /// Globally refines the partition by up to 64 evaluation points at
    /// once: `word_of(v)` packs one value bit per pattern, and `mask`
    /// selects which patterns are *valid* splitting points (for the
    /// two-frame check: patterns whose frame-0 values satisfy the
    /// current correspondence condition — see
    /// [`Partition::valid_word_mask`]). Members of a class whose masked
    /// normalized words differ are separated, splitting into as many
    /// groups as there are distinct words. Returns `true` if anything
    /// split.
    ///
    /// With `mask == 0` nothing splits; with a single mask bit this
    /// degenerates to [`Partition::refine_by_values`] on that pattern.
    pub fn refine_by_words(&mut self, mut word_of: impl FnMut(Var) -> u64, mask: u64) -> bool {
        if mask == 0 {
            return false;
        }
        use std::collections::HashMap;
        let mut changed = false;
        let num = self.classes.len();
        let mut groups: HashMap<u64, Vec<Var>> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        for ci in 0..num {
            if self.classes[ci].len() < 2 {
                continue;
            }
            groups.clear();
            order.clear();
            for &v in &self.classes[ci] {
                let w = word_of(v);
                let key = (if self.phase[v.index()] { w } else { !w }) & mask;
                groups
                    .entry(key)
                    .or_insert_with(|| {
                        order.push(key);
                        Vec::new()
                    })
                    .push(v);
            }
            if groups.len() < 2 {
                continue;
            }
            changed = true;
            // The representative's group (first in insertion order)
            // keeps the class index; the others become new classes.
            let mut first = true;
            for &key in &order {
                let group = groups.remove(&key).expect("insertion order tracks groups");
                if first {
                    self.classes[ci] = group;
                    first = false;
                } else {
                    let new_ci = self.classes.len() as u32;
                    for v in &group {
                        self.class_of[v.index()] = new_ci;
                    }
                    self.classes.push(group);
                }
            }
        }
        changed
    }

    /// The polarity-normalized form of a packed evaluation word: the
    /// word itself when the node's phase is positive, its complement
    /// otherwise. Two nodes evaluate equal (as normalized functions) on
    /// pattern `k` iff bit `k` of their normalized words agree — the
    /// word-level analogue of [`Partition::lit_equiv`], used by
    /// [`Partition::valid_word_mask`].
    #[inline]
    pub fn norm_word(&self, v: Var, word: u64) -> u64 {
        if self.phase[v.index()] {
            word
        } else {
            !word
        }
    }

    /// The mask of patterns whose frame-0 evaluation satisfies the
    /// correspondence condition `Q` of *this* partition: bit `k` is set
    /// iff in pattern `k` every multi-member class agrees (normalized)
    /// across all its members. Only those patterns may soundly drive
    /// [`Partition::refine_by_words`] for the two-frame check —
    /// splitting by a `Q`-violating point could separate signals the
    /// maximum correspondence relation keeps together.
    pub fn valid_word_mask(&self, mut word_of: impl FnMut(Var) -> u64) -> u64 {
        let mut valid = !0u64;
        for ci in self.multi_classes() {
            let members = &self.classes[ci];
            let repr = self.norm_word(members[0], word_of(members[0]));
            for &m in &members[1..] {
                valid &= !(self.norm_word(m, word_of(m)) ^ repr);
                if valid == 0 {
                    return 0;
                }
            }
        }
        valid
    }

    /// Splits one class by an arbitrary grouping key. Used for the exact
    /// `T0` computation of the BDD backend (grouping by cofactored BDD).
    /// Returns `true` if the class split.
    pub fn split_class_by_key<K: Eq + std::hash::Hash + Clone>(
        &mut self,
        ci: usize,
        mut key: impl FnMut(Var) -> K,
    ) -> bool {
        if self.classes[ci].len() < 2 {
            return false;
        }
        use std::collections::HashMap;
        let members = std::mem::take(&mut self.classes[ci]);
        // Pre-sized to the class: the refinement loop calls this for
        // every class of every round, so rehash/regrow churn adds up.
        let mut groups: HashMap<K, Vec<Var>> = HashMap::with_capacity(members.len());
        let mut order: Vec<K> = Vec::with_capacity(members.len());
        for &v in &members {
            let k = key(v);
            match groups.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    order.push(e.key().clone());
                    e.insert(vec![v]);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(v),
            }
        }
        let changed = groups.len() > 1;
        let mut first = true;
        for k in order {
            let group = groups.remove(&k).expect("key order tracks groups");
            if first {
                for v in &group {
                    self.class_of[v.index()] = ci as u32;
                }
                self.classes[ci] = group;
                first = false;
            } else {
                let new_ci = self.classes.len() as u32;
                for v in &group {
                    self.class_of[v.index()] = new_ci;
                }
                self.classes.push(group);
            }
        }
        changed
    }

    /// Iterates over class indices with at least two members.
    pub fn multi_classes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.classes.len()).filter(|&ci| self.classes[ci].len() >= 2)
    }

    /// Whether every output pair is already equivalent by class
    /// membership (the cheap sufficient check; Theorem 1's full
    /// `Q ⇒ λ` check subsumes it).
    pub fn outputs_equiv(&self, pairs: &[(Lit, Lit)]) -> bool {
        pairs.iter().all(|&(a, b)| self.lit_equiv(a, b))
    }

    /// The classes in a canonical form independent of split order:
    /// members sorted within each class, classes sorted by their first
    /// member. Two partitions over the same signal set are equal as
    /// equivalence relations iff their canonical classes are equal.
    pub fn canonical_classes(&self) -> Vec<Vec<Var>> {
        let mut classes: Vec<Vec<Var>> = self
            .classes
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort();
                c
            })
            .collect();
        classes.sort();
        classes
    }

    /// Captures the partition as an owned, index-based snapshot that
    /// can outlive the check (and the process, via serialization).
    pub fn snapshot(&self) -> PartitionSnapshot {
        PartitionSnapshot {
            num_nodes: self.class_of.len(),
            classes: self
                .canonical_classes()
                .into_iter()
                .map(|c| c.into_iter().map(|v| v.index() as u32).collect())
                .collect(),
            phase: self.phase.clone(),
        }
    }

    /// Refines this partition by intersecting it with a snapshot taken
    /// from an earlier run over the *same node numbering*: members of a
    /// class that the snapshot separates (different snapshot class, or
    /// a disagreeing relative phase) are split apart. Returns `true` if
    /// anything split.
    ///
    /// This is how a cached fixed point accelerates a fresh check.
    /// Splitting is always sound — only the verified fixed-point check
    /// proves equivalence, so a seed that is too fine merely costs
    /// completeness the engine would re-establish anyway — and the
    /// snapshot *is* a previously verified correspondence relation, so
    /// intersecting with it skips the rounds that originally derived
    /// those splits.
    pub fn refine_by_snapshot(&mut self, snap: &PartitionSnapshot) -> bool {
        if snap.num_nodes != self.class_of.len() {
            return false;
        }
        // Snapshot class index per node (u32::MAX = untracked there).
        let mut snap_class = vec![u32::MAX; snap.num_nodes];
        for (ci, class) in snap.classes.iter().enumerate() {
            for &v in class {
                if (v as usize) < snap.num_nodes {
                    snap_class[v as usize] = ci as u32;
                }
            }
        }
        // `split_class_by_key` borrows self mutably; read phases from a
        // local copy inside the key closure.
        let phase = self.phase.clone();
        let mut changed = false;
        for ci in 0..self.classes.len() {
            changed |= self.split_class_by_key(ci, |v| {
                let i = v.index();
                // Key on (snapshot class, phase agreement): two signals
                // stay together only if the snapshot classed them
                // together *and* their phase relation matches the
                // snapshot's, so polarity-mismatched pairs split too.
                (snap_class[i], phase[i] == snap.phase[i])
            });
        }
        changed
    }
}

/// An owned capture of a [`Partition`]: the proven (or last-known)
/// correspondence classes of one check, keyed by concrete node index.
///
/// Snapshots come out of [`Checker::run_seeded`](crate::Checker) and go
/// back in to seed a later check over a structurally identical product
/// machine — the `sec serve` cache stores one per fingerprint. They are
/// only meaningful for a graph with the same node numbering; callers
/// gate reuse on [`sec_netlist::ordered_digest`] equality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSnapshot {
    /// Size of the node table the snapshot was taken over.
    pub num_nodes: usize,
    /// Canonical classes (members sorted, classes sorted by first
    /// member), as raw node indices.
    pub classes: Vec<Vec<u32>>,
    /// Reference-point value per node.
    pub phase: Vec<bool>,
}

impl PartitionSnapshot {
    /// A snapshot carrying no reuse information (e.g. from a run that
    /// refuted by simulation before any partition existed).
    pub fn empty() -> PartitionSnapshot {
        PartitionSnapshot {
            num_nodes: 0,
            classes: Vec::new(),
            phase: Vec::new(),
        }
    }

    /// Whether the snapshot carries any classes at all.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Var {
        Var::from_index(i)
    }

    fn sample() -> Partition {
        // nodes 0..6; classes {0}, {1,2,3}, {4,5}; phases: node 2 inverted
        Partition::new(
            6,
            vec![vec![v(0)], vec![v(1), v(2), v(3)], vec![v(4), v(5)]],
            vec![true, true, false, true, true, true],
        )
    }

    #[test]
    fn class_lookup() {
        let p = sample();
        assert_eq!(p.num_classes(), 3);
        assert_eq!(p.num_signals(), 6);
        assert_eq!(p.class_of(v(2)), Some(1));
        assert_eq!(p.class(1), &[v(1), v(2), v(3)]);
    }

    #[test]
    fn lit_equiv_respects_phase() {
        let p = sample();
        let l1 = v(1).lit();
        let l2 = v(2).lit();
        // Node 2 has phase=false: its positive literal equals the
        // *complement* of the normalized class function, so v1 ≡ ¬v2.
        assert!(p.lit_equiv(l1, !l2));
        assert!(!p.lit_equiv(l1, l2));
        assert!(p.lit_equiv(l1, v(3).lit()));
        assert!(p.lit_equiv(!l1, l2));
        assert!(p.lit_equiv(l1, l1));
        // Different classes never match.
        assert!(!p.lit_equiv(l1, v(4).lit()));
    }

    #[test]
    fn refine_splits_by_normalized_value() {
        let mut p = sample();
        // Values: node1=1, node2=0 (normalized: 1^¬false… phase false -> !0=1), node3=0.
        // normalized: n1: 1, n2: !0 = 1, n3: 0 -> class {1,2,3} splits into {1,2} | {3}.
        let values = vec![false, true, false, false, true, true];
        assert!(p.refine_by_values(&values));
        assert_eq!(p.num_classes(), 4);
        assert_eq!(p.class_of(v(1)), p.class_of(v(2)));
        assert_ne!(p.class_of(v(1)), p.class_of(v(3)));
        // Idempotent on the same vector.
        assert!(!p.refine_by_values(&values));
    }

    #[test]
    fn split_by_key() {
        let mut p = sample();
        assert!(p.split_class_by_key(1, |v| v.index() % 2));
        assert_ne!(p.class_of(v(1)), p.class_of(v(2)));
        assert_eq!(p.class_of(v(1)), p.class_of(v(3)));
        assert!(!p.split_class_by_key(0, |_| 0));
    }

    #[test]
    fn refine_by_words_matches_per_pattern_refinement() {
        // 64 patterns at once must equal 64 sequential single-value
        // refinements (same final equivalence relation).
        let words: Vec<u64> = vec![0, 0xF0F0, !0xF0F0u64, 0xF0F0, 0xFF00, !0u64];
        let mut by_words = sample();
        assert!(by_words.refine_by_words(|v| words[v.index()], !0u64));
        let mut by_values = sample();
        for k in 0..64 {
            let values: Vec<bool> = words.iter().map(|w| (w >> k) & 1 != 0).collect();
            by_values.refine_by_values(&values);
        }
        assert_eq!(by_words.canonical_classes(), by_values.canonical_classes());
        // Node 1 and 3 share a word (normalized: phases true) — together;
        // node 2 has phase false and the complement word — also together.
        assert_eq!(by_words.class_of(v(1)), by_words.class_of(v(2)));
        assert_ne!(by_words.class_of(v(1)), by_words.class_of(v(4)));
    }

    #[test]
    fn refine_by_words_respects_mask() {
        let words: Vec<u64> = vec![0, 0, !0b10u64, 0, 0, 0];
        let mut p = sample();
        // Node 2's phase is false: its normalized word is 0b10,
        // differing from node 1's normalized 0 in bit 1 only. Masking
        // bit 1 out hides the difference.
        assert!(!p.refine_by_words(|v| words[v.index()], 0b01));
        assert!(p.refine_by_words(|v| words[v.index()], 0b11));
        assert_ne!(p.class_of(v(1)), p.class_of(v(2)));
        // Zero mask never splits.
        assert!(!sample().refine_by_words(|v| words[v.index()], 0));
    }

    #[test]
    fn valid_word_mask_filters_disagreeing_patterns() {
        let p = sample();
        // All classes agree everywhere: every pattern valid.
        let agree: Vec<u64> = vec![7, 5, !5u64, 5, 9, 9];
        assert_eq!(p.valid_word_mask(|v| agree[v.index()]), !0u64);
        // Class {4,5} disagrees in bit 0; class {1,2,3} in bit 2.
        let mixed: Vec<u64> = vec![7, 4, !4u64, 0, 9, 8];
        assert_eq!(p.valid_word_mask(|v| mixed[v.index()]), !0b101u64);
    }

    #[test]
    fn canonical_classes_ignore_order() {
        let a = Partition::new(4, vec![vec![v(1), v(0)], vec![v(3), v(2)]], vec![true; 4]);
        let b = Partition::new(4, vec![vec![v(2), v(3)], vec![v(0), v(1)]], vec![true; 4]);
        assert_eq!(a.canonical_classes(), b.canonical_classes());
        assert_eq!(a.canonical_classes()[0], vec![v(0), v(1)]);
    }

    #[test]
    fn multi_classes_iterator() {
        let p = sample();
        let multis: Vec<usize> = p.multi_classes().collect();
        assert_eq!(multis, vec![1, 2]);
    }

    #[test]
    fn snapshot_roundtrip_is_canonical() {
        let snap = sample().snapshot();
        assert_eq!(snap.num_nodes, 6);
        assert_eq!(snap.classes, vec![vec![0], vec![1, 2, 3], vec![4, 5]]);
        assert!(!snap.is_empty());
        assert!(PartitionSnapshot::empty().is_empty());
    }

    #[test]
    fn refine_by_snapshot_intersects() {
        // Snapshot separates node 3 from {1,2}; intersecting a fresh
        // coarse partition with it reproduces that split.
        let mut fine = sample();
        let values = vec![false, true, false, false, true, true];
        fine.refine_by_values(&values);
        let snap = fine.snapshot();

        let mut fresh = sample();
        assert!(fresh.refine_by_snapshot(&snap));
        assert_eq!(fresh.canonical_classes(), fine.canonical_classes());
        // Idempotent: intersecting again changes nothing.
        assert!(!fresh.refine_by_snapshot(&snap));
        // A mismatched node count is silently ignored.
        let mut other = sample();
        assert!(!other.refine_by_snapshot(&PartitionSnapshot::empty()));
        assert_eq!(other.num_classes(), 3);
    }

    #[test]
    fn refine_by_snapshot_splits_phase_mismatches() {
        // Same classes, but node 2's phase flips relative to the
        // snapshot: its normalized relation to the class inverts, so it
        // must not stay merged.
        let snap = sample().snapshot();
        let mut flipped = Partition::new(
            6,
            vec![vec![v(0)], vec![v(1), v(2), v(3)], vec![v(4), v(5)]],
            vec![true, true, true, true, true, true],
        );
        assert!(flipped.refine_by_snapshot(&snap));
        assert_ne!(flipped.class_of(v(1)), flipped.class_of(v(2)));
        assert_eq!(flipped.class_of(v(1)), flipped.class_of(v(3)));
    }
}
