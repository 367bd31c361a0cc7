//! A seeded incremental workload that pins the solver's search
//! trajectory. It drives the solver the way the correspondence backend
//! does — per-round activation literals retracted by unit clauses and
//! reclaimed with `simplify_level0`, queries under assumptions, a
//! reduction threshold low enough that learnt-clause reduction and
//! arena compaction both run, and a clone that continues on its own —
//! and checks every answer: a `Sat` model against every clause and
//! assumption, an `Unsat` answer against brute-force enumeration (or,
//! for the pigeonhole phase, against the pigeonhole principle).
//!
//! The final [`SatStats`] of both solvers, and a digest of every model
//! they returned, are compared with constants recorded from the
//! solver's reference search. A change to the solver's data layout must
//! keep them: any drift in watch order, literal order inside clauses or
//! decision order moves the counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sec_sat::{SatLit, SatResult, SatStats, Solver};

/// Variables of the brute-forced core formula.
const V: usize = 16;

/// Words of a set of core assignments: bit `a % 64` of word `a / 64`
/// stands for the assignment whose bit `v` is core variable `v`.
const WORDS: usize = (1 << V) / 64;

/// A clause over the core variables: `(var, positive)` literals.
type Clause = Vec<(usize, bool)>;

fn random_clause(rng: &mut StdRng, len: usize) -> Clause {
    (0..len).map(|_| (rng.gen_range(0..V), rng.gen())).collect()
}

/// A random clause the hidden assignment `planted` satisfies, so the
/// core formula stays satisfiable however dense it is.
fn planted_clause(rng: &mut StdRng, planted: u32) -> Clause {
    loop {
        let c = random_clause(rng, 3);
        if holds(&c, planted) {
            return c;
        }
    }
}

fn holds(clause: &Clause, bits: u32) -> bool {
    clause.iter().any(|&(v, pos)| (bits >> v & 1 != 0) == pos)
}

/// The set of core assignments in which literal `(v, pos)` is true.
fn lit_set(v: usize, pos: bool) -> Vec<u64> {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    (0..WORDS)
        .map(|w| {
            let t = if v < 6 {
                LOW[v]
            } else if w >> (v - 6) & 1 != 0 {
                !0
            } else {
                0
            };
            if pos {
                t
            } else {
                !t
            }
        })
        .collect()
}

/// The set of core assignments satisfying `clause`.
fn clause_set(clause: &Clause) -> Vec<u64> {
    let mut set = vec![0u64; WORDS];
    for &(v, pos) in clause {
        for (s, l) in set.iter_mut().zip(lit_set(v, pos)) {
            *s |= l;
        }
    }
    set
}

/// The workload's state: the solver, the core variables, the permanent
/// core clauses and the set of core assignments satisfying them.
struct Workload {
    solver: Solver,
    vars: Vec<SatLit>,
    base: Vec<Clause>,
    base_set: Vec<u64>,
    /// FNV-1a digest over every returned answer and model.
    digest: u64,
}

impl Workload {
    fn new(rng: &mut StdRng) -> Workload {
        let mut solver = Solver::new();
        solver.set_reduce_threshold(16);
        let vars: Vec<SatLit> = (0..V).map(|_| solver.new_var().positive()).collect();
        let planted: u32 = rng.gen_range(0..1u32 << V);
        let base: Vec<Clause> = (0..48).map(|_| planted_clause(rng, planted)).collect();
        let mut base_set = vec![!0u64; WORDS];
        for c in &base {
            for (s, l) in base_set.iter_mut().zip(clause_set(c)) {
                *s &= l;
            }
        }
        let mut w = Workload {
            solver,
            vars,
            base,
            base_set,
            digest: 0xcbf2_9ce4_8422_2325,
        };
        for i in 0..w.base.len() {
            let lits = w.lits(&w.base[i]);
            w.solver.add_clause(&lits);
        }
        w
    }

    fn lits(&self, c: &Clause) -> Vec<SatLit> {
        c.iter()
            .map(|&(v, pos)| self.vars[v].negate_if(!pos))
            .collect()
    }

    fn mix(&mut self, x: u64) {
        self.digest = (self.digest ^ x).wrapping_mul(0x0100_0000_01b3);
    }

    /// Whether the core clauses, `extra` and `fixed` are satisfiable
    /// together, by enumeration of every core assignment.
    fn brute_force(&self, extra: &[Clause], fixed: &[(usize, bool)]) -> bool {
        let mut set = self.base_set.clone();
        let units = fixed.iter().map(|&l| vec![l]);
        for c in extra.iter().cloned().chain(units) {
            for (s, l) in set.iter_mut().zip(clause_set(&c)) {
                *s &= l;
            }
        }
        set.iter().any(|&s| s != 0)
    }

    /// Solves under `assumptions` (which include `fixed`, and the round's
    /// activation literal if any) and checks the answer: brute force
    /// decides it, and a model must satisfy the core clauses, `extra`
    /// and every assumption.
    fn query(
        &mut self,
        assumptions: &[SatLit],
        extra: &[Clause],
        fixed: &[(usize, bool)],
        what: &str,
    ) {
        let r = self.solver.solve_with_assumptions(assumptions);
        let expect = self.brute_force(extra, fixed);
        assert_eq!(r == SatResult::Sat, expect, "{what}: wrong answer {r:?}");
        if r == SatResult::Sat {
            let model: u32 = (0..V)
                .map(|v| u32::from(self.solver.model_value(self.vars[v])) << v)
                .sum();
            for c in self.base.iter().chain(extra) {
                assert!(holds(c, model), "{what}: model violates a clause");
            }
            for &a in assumptions {
                assert!(self.solver.model_value(a), "{what}: model drops {a:?}");
            }
            self.mix(u64::from(model) + 1);
        } else {
            self.mix(0);
        }
    }

    /// One incremental round: a fresh activation literal guarding a few
    /// random clauses, two queries under assumptions, then retraction
    /// by the unit `¬act` and a level-0 simplification.
    fn round(&mut self, rng: &mut StdRng, round: usize) {
        let act = self.solver.new_var().positive();
        let extra: Vec<Clause> = (0..rng.gen_range(3..13usize))
            .map(|_| {
                let len = rng.gen_range(2..5usize);
                random_clause(rng, len)
            })
            .collect();
        for c in &extra {
            let mut lits = vec![!act];
            lits.extend(self.lits(c));
            self.solver.add_clause(&lits);
        }
        for q in 0..2 {
            let mut fixed: Vec<(usize, bool)> = Vec::new();
            for _ in 0..rng.gen_range(0..4usize) {
                let v = rng.gen_range(0..V);
                if fixed.iter().all(|&(u, _)| u != v) {
                    fixed.push((v, rng.gen()));
                }
            }
            let mut assumptions = vec![act];
            assumptions.extend(fixed.iter().map(|&(v, b)| self.vars[v].negate_if(!b)));
            self.query(
                &assumptions,
                &extra,
                &fixed,
                &format!("round {round} query {q}"),
            );
        }
        self.solver.add_clause(&[!act]);
        self.solver.simplify_level0();
    }
}

/// Pigeonhole `n + 1` into `n` behind the activation literal `act`:
/// unsatisfiable under `act` for every `n`, and the hard part of the
/// workload — it runs many reductions and compactions mid-search.
#[allow(clippy::needless_range_loop)] // j indexes across rows
fn add_pigeonhole(s: &mut Solver, act: SatLit, n: usize) {
    let p: Vec<Vec<SatLit>> = (0..=n)
        .map(|_| (0..n).map(|_| s.new_var().positive()).collect())
        .collect();
    for row in &p {
        let mut c = vec![!act];
        c.extend_from_slice(row);
        s.add_clause(&c);
    }
    for j in 0..n {
        for a in 0..=n {
            for b in a + 1..=n {
                s.add_clause(&[!act, !p[a][j], !p[b][j]]);
            }
        }
    }
}

fn stats_tuple(s: SatStats) -> [u64; 5] {
    [
        s.conflicts,
        s.decisions,
        s.propagations,
        s.restarts,
        s.deleted_learnts,
    ]
}

#[test]
fn incremental_trajectory_is_pinned() {
    let mut rng = StdRng::seed_from_u64(0x7_2A1E);
    let mut w = Workload::new(&mut rng);
    for round in 0..160 {
        w.round(&mut rng, round);
    }

    // The clone continues with a hard pigeonhole phase behind its own
    // activation literal; the original keeps running rounds. Neither
    // may see the other's clauses.
    let mut twin = Workload {
        solver: w.solver.clone(),
        vars: w.vars.clone(),
        base: w.base.clone(),
        base_set: w.base_set.clone(),
        digest: w.digest,
    };
    let act = twin.solver.new_var().positive();
    add_pigeonhole(&mut twin.solver, act, 6);
    let r = twin.solver.solve_with_assumptions(&[act]);
    assert_eq!(r, SatResult::Unsat, "pigeonhole 7 into 6");
    twin.solver.add_clause(&[!act]);
    twin.solver.simplify_level0();
    twin.query(&[], &[], &[], "twin after pigeonhole");
    let mut twin_rng = StdRng::seed_from_u64(0x7_2A1F);
    for round in 0..40 {
        twin.round(&mut twin_rng, 1000 + round);
    }
    for round in 160..240 {
        w.round(&mut rng, round);
    }
    w.query(&[], &[], &[], "original at the end");

    let got = (
        stats_tuple(w.solver.stats()),
        w.digest,
        stats_tuple(twin.solver.stats()),
        twin.digest,
    );
    assert!(got.0[4] > 0 && got.2[4] > 0, "reduction must run: {got:?}");
    let expect = (
        [126, 1794, 7375, 0, 6],
        12601360810698675959,
        [1447, 5978, 26472, 8, 1016],
        16343406946137775594,
    );
    assert_eq!(got, expect, "search trajectory moved");
}
