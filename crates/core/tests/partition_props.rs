//! Property tests of the partition of `F` — the data structure the whole
//! fixed point rests on. Splits must preserve membership, keep the
//! `class_of` index consistent, be monotone (never merge), and respect
//! polarity normalization. Randomized with seeded loops (the offline
//! build replaces proptest), so failures reproduce deterministically
//! from the printed case seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sec_core::Partition;
use sec_netlist::Var;

const N: usize = 24;
const CASES: u64 = 192;

fn arb_partition(rng: &mut StdRng) -> (Partition, Vec<usize>) {
    // Random class assignment for N nodes plus random phases.
    let assign: Vec<usize> = (0..N).map(|_| rng.gen_range(0..6usize)).collect();
    let phases: Vec<bool> = (0..N).map(|_| rng.gen()).collect();
    let mut classes: Vec<Vec<Var>> = Vec::new();
    let mut ids: Vec<usize> = Vec::new();
    let mut remap: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for (i, &c) in assign.iter().enumerate() {
        let next_id = remap.len();
        let ci = *remap.entry(c).or_insert(next_id);
        if ci == classes.len() {
            classes.push(Vec::new());
        }
        classes[ci].push(Var::from_index(i));
        ids.push(ci);
    }
    (Partition::new(N, classes, phases), ids)
}

fn random_bools(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen()).collect()
}

fn consistent(p: &Partition) -> bool {
    // Every member's class_of points back at the class containing it,
    // and every node appears exactly once.
    let mut seen = [0usize; N];
    for ci in 0..p.num_classes() {
        for &v in p.class(ci) {
            if p.class_of(v) != Some(ci) {
                return false;
            }
            seen[v.index()] += 1;
        }
    }
    seen.iter().all(|&c| c == 1)
}

#[test]
fn construction_is_consistent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9A47_0000 ^ case);
        let (p, _) = arb_partition(&mut rng);
        assert!(consistent(&p), "case {case}");
        assert_eq!(p.num_signals(), N, "case {case}");
    }
}

#[test]
fn refine_preserves_consistency_and_monotonicity() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9A47_1000 ^ case);
        let (mut p, _) = arb_partition(&mut rng);
        let rounds = rng.gen_range(0..6usize);
        let values: Vec<Vec<bool>> = (0..rounds).map(|_| random_bools(&mut rng, N)).collect();
        let mut last = p.num_classes();
        for vals in &values {
            let before: Vec<Option<usize>> =
                (0..N).map(|i| p.class_of(Var::from_index(i))).collect();
            let changed = p.refine_by_values(vals);
            assert!(consistent(&p), "case {case}");
            assert_eq!(p.num_signals(), N, "case {case}");
            // Monotone: classes only grow in count, never merge.
            assert!(p.num_classes() >= last, "case {case}");
            assert_eq!(changed, p.num_classes() > last, "case {case}");
            last = p.num_classes();
            // Refinement: nodes in different classes stay in different
            // classes.
            for i in 0..N {
                for j in 0..N {
                    if before[i] != before[j] {
                        assert_ne!(
                            p.class_of(Var::from_index(i)),
                            p.class_of(Var::from_index(j)),
                            "case {case}"
                        );
                    }
                }
            }
        }
        // Applying the same vectors again changes nothing (idempotence).
        for vals in &values {
            assert!(!p.refine_by_values(vals), "case {case}");
        }
    }
}

#[test]
fn refine_separates_exactly_by_normalized_value() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9A47_2000 ^ case);
        let (mut p, _) = arb_partition(&mut rng);
        let vals = random_bools(&mut rng, N);
        let before: Vec<Option<usize>> = (0..N).map(|i| p.class_of(Var::from_index(i))).collect();
        p.refine_by_values(&vals);
        for i in 0..N {
            for j in 0..N {
                let (vi, vj) = (Var::from_index(i), Var::from_index(j));
                if before[i] == before[j] {
                    let ni = vals[i] ^ !p.phase(vi);
                    let nj = vals[j] ^ !p.phase(vj);
                    assert_eq!(
                        p.class_of(vi) == p.class_of(vj),
                        ni == nj,
                        "case {case}: same-class pair must split iff normalized values differ"
                    );
                }
            }
        }
    }
}

#[test]
fn lit_equiv_is_an_equivalence_compatible_with_complement() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9A47_3000 ^ case);
        let (p, _) = arb_partition(&mut rng);
        let (a, b, c) = (
            rng.gen_range(0..N),
            rng.gen_range(0..N),
            rng.gen_range(0..N),
        );
        let (la, lb, lc) = (
            Var::from_index(a).lit(),
            Var::from_index(b).lit(),
            Var::from_index(c).lit(),
        );
        // Reflexive, symmetric, transitive.
        assert!(p.lit_equiv(la, la), "case {case}");
        assert_eq!(p.lit_equiv(la, lb), p.lit_equiv(lb, la), "case {case}");
        if p.lit_equiv(la, lb) && p.lit_equiv(lb, lc) {
            assert!(p.lit_equiv(la, lc), "case {case}");
        }
        // Complement-compatible: a ≡ b ⟺ ¬a ≡ ¬b, and never a ≡ ¬a.
        assert_eq!(p.lit_equiv(la, lb), p.lit_equiv(!la, !lb), "case {case}");
        assert!(!p.lit_equiv(la, !la), "case {case}");
    }
}
