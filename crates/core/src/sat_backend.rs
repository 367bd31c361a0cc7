//! The SAT backend: the same greatest fixed-point iteration, with the
//! combinational checks run by a CDCL solver over a two-frame Tseitin
//! unrolling instead of BDDs. This realizes the scaling route the paper's
//! conclusion sketches ("techniques based on the introduction of extra
//! variables representing intermediate signals").
//!
//! The unrolling encodes, once:
//!
//! * **frame 0** over free state inputs `s` and inputs `x₀`, with the
//!   current classes asserted as equalities (the correspondence
//!   condition `Q_{T_i}`);
//! * **frame 1** fed by frame 0's next-state functions and inputs `x₁`
//!   (where condition 2 is queried per class pair);
//! * an **initial frame** over its own inputs `x_I` with the registers
//!   tied to their initial values (condition 1 of Definition 2).
//!
//! **Condition 1 once, then one solver, one round at a time.** As in
//! the paper, condition 1 is settled once: [`refine_t0`] computes the
//! exact `T0` (Eq. 2) on the initial frame before round 1, and the
//! rounds query condition 2 only. Van Eijk's fixed point is sequential
//! across rounds — `T_{i+1}` is computed under `Q_{T_i}` — so
//! [`run_fixed_point`] runs every refinement round as one sweep of the
//! candidate pairs over a single solver on the calling thread. A round
//! ends at its first witness, which refines the partition; a round
//! without one is a certified full sweep, so the partition is the fixed
//! point.
//!
//! **One solver per fixed point.** The solver persists from `T0`
//! through every refinement round. `Q_{T_i}` is never asserted as hard
//! clauses: each `(member, representative)` pair gets a persistent
//! guard `g` with `g → (m = r)` created once per pair lifetime, and each
//! round's activation literal `act_i` implies the live pairs' guards
//! (one binary clause apiece), with `act_i` passed to every query as an
//! assumption. At the next round start the unit clause `¬act_i`
//! retracts the round; the solver, its variable activities, and all
//! learned clauses carry over, and surviving pairs are re-activated at
//! one clause each. Learnts stay valid after retraction because every
//! clause they were derived from is still present — retraction only
//! *satisfies* the activation clauses, it never deletes anything — and
//! learnts over pair guards and cached difference literals keep pruning
//! later rounds' queries. An interrupted query is never read as
//! "unsatisfiable".
//!
//! Satisfiable queries yield a witness `(s, x_t, x_{t+1})` that is
//! **amplified**: packed with bit-flipped neighbour patterns into one
//! 64-wide [`sec_sim`] pass, and every pattern whose frame-0 values
//! satisfy the *current* `Q` refines the partition
//! ([`Partition::refine_by_words`]), so one solver call can split
//! several classes at once instead of exactly one pair. The patterns
//! then **cascade** forward one frame at a time under fresh inputs,
//! splitting again by every frame whose predecessor still satisfies the
//! refined `Q`, until a frame splits nothing
//! ([`split_by_two_frame_cex`]).

use crate::context::{Abort, Deadline, SatMeter};
use crate::options::Options;
use crate::partition::Partition;
use sec_netlist::{Aig, Lit, Node, Var};
use sec_obs::{event, span, Counter, Obs, ProgressTicker};
use sec_sat::{AigCnf, SatLit, SatResult, Solver};
use sec_sim::{amplify_init, amplify_two_frame, AmplifiedCex};
use std::collections::{HashMap, HashSet};

/// The two-frame (+ initial frame) unrolling of the product machine,
/// encoded in a fresh solver.
///
/// `Clone` snapshots the whole encoding — solver included — for the
/// debug-only re-check of a certifying round's settled pairs
/// (`assert_settled_pairs_hold`).
#[derive(Clone)]
struct Unrolling {
    solver: Solver,
    cnf: AigCnf,
    /// Unrolled-circuit literal of each product node in frame 0 / 1 /
    /// the initial frame.
    frame0: Vec<Lit>,
    frame1: Vec<Lit>,
    frame_init: Vec<Lit>,
    /// Unrolled-circuit input variables for s, x₀, x₁, x_I.
    s_in: Vec<Var>,
    x0_in: Vec<Var>,
    x1_in: Vec<Var>,
    xi_in: Vec<Var>,
    /// Difference literals per `(member, representative, init-frame?)`
    /// pair, reused across rounds while the solver persists. Sound
    /// because polarity phases never change after seeding, so the
    /// normalized literals of a pair are stable; reuse means clauses
    /// learned about a pair in one round keep pruning the same pair's
    /// queries in every later round.
    pair_diffs: HashMap<(Var, Var, bool), SatLit>,
    /// Difference literals of the Theorem-1 output checks.
    out_diffs: HashMap<(Lit, Lit), SatLit>,
    /// Per-pair equality guards `g → (m = r)` on frame 0, created once
    /// when the pair `(member, representative)` first appears and
    /// reused for as long as the pair survives refinement. Each round's
    /// activation literal implies the guards of the currently live
    /// pairs (one binary clause per pair), so a round's `Q_{T_i}` costs
    /// one clause per pair instead of two, and clauses learned against
    /// a pair's guard keep their meaning across rounds.
    pair_guards: HashMap<(Var, Var), SatLit>,
}

impl Unrolling {
    /// Encodes the unrolling.
    fn build(aig: &Aig) -> Unrolling {
        let mut u = Aig::new();
        let s_in: Vec<Var> = (0..aig.num_latches())
            .map(|i| u.add_input(format!("s{i}")))
            .collect();
        let x0_in: Vec<Var> = (0..aig.num_inputs())
            .map(|i| u.add_input(format!("x0_{i}")))
            .collect();
        let x1_in: Vec<Var> = (0..aig.num_inputs())
            .map(|i| u.add_input(format!("x1_{i}")))
            .collect();
        let xi_in: Vec<Var> = (0..aig.num_inputs())
            .map(|i| u.add_input(format!("xi_{i}")))
            .collect();

        let all_roots: Vec<Lit> = aig.vars().map(|v| v.lit()).collect();
        let unroll = |u: &mut Aig, state_of: &dyn Fn(usize) -> Lit, inputs: &[Var]| -> Vec<Lit> {
            let mut map: HashMap<Var, Lit> = HashMap::new();
            for (k, &v) in aig.inputs().iter().enumerate() {
                map.insert(v, inputs[k].lit());
            }
            for (i, &v) in aig.latches().iter().enumerate() {
                map.insert(v, state_of(i));
            }
            u.import_cone(aig, &all_roots, &mut map)
        };

        let frame0 = unroll(&mut u, &|i| s_in[i].lit(), &x0_in);
        // Frame 1 state = frame 0 next-state values.
        let nexts: Vec<Lit> = aig
            .latches()
            .iter()
            .map(|&l| {
                let n = aig.latch_next(l).expect("driven latch");
                frame0[n.var().index()].complement_if(n.is_complemented())
            })
            .collect();
        let frame1 = unroll(&mut u, &|i| nexts[i], &x1_in);
        let inits: Vec<Lit> = aig
            .latches()
            .iter()
            .map(|&l| Lit::FALSE.complement_if(aig.latch_init(l)))
            .collect();
        let frame_init = unroll(&mut u, &|i| inits[i], &xi_in);

        let mut solver = Solver::new();
        let cnf = AigCnf::encode(&mut solver, &u);
        Unrolling {
            solver,
            cnf,
            frame0,
            frame1,
            frame_init,
            s_in,
            x0_in,
            x1_in,
            xi_in,
            pair_diffs: HashMap::new(),
            out_diffs: HashMap::new(),
            pair_guards: HashMap::new(),
        }
    }

    /// The (cached) difference literal `d → (m ≠ r)` of a normalized
    /// pair on frame 1 (`init == false`) or the initial frame.
    fn pair_diff(&mut self, partition: &Partition, m: Var, r: Var, init: bool) -> SatLit {
        if let Some(&d) = self.pair_diffs.get(&(m, r, init)) {
            return d;
        }
        let frame = if init { &self.frame_init } else { &self.frame1 };
        let lm = Unrolling::norm(frame, partition, m);
        let lr = Unrolling::norm(frame, partition, r);
        let d = self.cnf.make_diff(&mut self.solver, lm, lr);
        self.pair_diffs.insert((m, r, init), d);
        d
    }

    /// The (cached) difference literal of an output pair on frame 0.
    fn out_diff(&mut self, a: Lit, b: Lit) -> SatLit {
        if let Some(&d) = self.out_diffs.get(&(a, b)) {
            return d;
        }
        let la = self.frame0[a.var().index()].complement_if(a.is_complemented());
        let lb = self.frame0[b.var().index()].complement_if(b.is_complemented());
        let d = self.cnf.make_diff(&mut self.solver, la, lb);
        self.out_diffs.insert((a, b), d);
        d
    }

    /// Normalized literal of a node in a frame.
    fn norm(frame: &[Lit], partition: &Partition, v: Var) -> Lit {
        frame[v.index()].complement_if(!partition.phase(v))
    }

    fn read_inputs(&self, vars: &[Var]) -> Vec<bool> {
        vars.iter()
            .map(|&v| self.cnf.model_value(&self.solver, v.lit()))
            .collect()
    }

    /// Asserts this round's correspondence condition `Q_{T_i}` on frame
    /// 0 behind the round's activation literal `act`: `act` implies
    /// every live pair's persistent equality guard. Retracting the
    /// round (unit `¬act`) leaves the per-pair guards and their
    /// equality clauses in place for the next round to re-activate.
    fn assert_q(&mut self, partition: &Partition, act: SatLit) {
        for ci in partition.multi_classes() {
            let members = partition.class(ci);
            let rv = members[0];
            let lr = Unrolling::norm(&self.frame0, partition, rv);
            for &m in &members[1..] {
                let g = match self.pair_guards.get(&(m, rv)) {
                    Some(&g) => g,
                    None => {
                        let lm = Unrolling::norm(&self.frame0, partition, m);
                        let g = self.solver.new_var().positive();
                        self.cnf.assert_equal_guarded(&mut self.solver, g, lm, lr);
                        self.pair_guards.insert((m, rv), g);
                        g
                    }
                };
                self.solver.add_clause(&[!act, g]);
            }
        }
    }
}

/// Runs one query: `Ok(true)` when it is satisfiable. An interrupted
/// search maps to the abort that caused it and must never read as
/// "unsatisfiable" — that would silently drop a potential split and
/// certify a fixed point that is not one (an unsound `Equivalent`).
fn query(solver: &mut Solver, assumptions: &[SatLit], obs: &Obs) -> Result<bool, Abort> {
    obs.add(Counter::SatSolverCalls, 1);
    match solver.solve_with_assumptions(assumptions) {
        SatResult::Sat => Ok(true),
        SatResult::Unsat => Ok(false),
        SatResult::Interrupted => Err(solver
            .interrupt_reason()
            .map_or(Abort::Timeout, Abort::from)),
    }
}

/// Asks whether any pair of a batch can differ, given the pairs'
/// difference literals `ds` and the sweep's assumptions `assume` (a
/// round's activation literal; none for `T0`). A batch of two or more
/// pairs gets one fresh batch literal `b`, the clause
/// `b → (d₁ ∨ … ∨ d_k)` and `b` as one more assumption, and `b` is
/// retired with the unit `¬b` afterwards: **Unsat** proves all `k`
/// pairs at once, because the assumption set is a one-pair query's plus
/// `b`. A one-pair batch is a plain query on its difference literal.
/// After **Sat** the model says which pairs the witness separates.
fn query_batch(
    solver: &mut Solver,
    assume: &[SatLit],
    ds: &[SatLit],
    obs: &Obs,
) -> Result<bool, Abort> {
    let mut assumptions = assume.to_vec();
    if let [d] = ds {
        assumptions.push(*d);
        return query(solver, &assumptions, obs);
    }
    let b = solver.new_var().positive();
    let mut clause = vec![!b];
    clause.extend_from_slice(ds);
    solver.add_clause(&clause);
    obs.add(Counter::BatchedCalls, 1);
    assumptions.push(b);
    let answer = query(solver, &assumptions, obs);
    solver.add_clause(&[!b]);
    if let Ok(true) = answer {
        let separated = ds.iter().filter(|&&d| solver.model_value(d)).count();
        obs.add(Counter::BatchPairsDecoded, separated as u64);
    }
    answer
}

/// Refines the partition by one frame pair of an amplified witness:
/// each pattern whose `frame0` values satisfy the *current*
/// correspondence condition splits by its `frame1` values. Returns the
/// number of pattern words that split something.
fn split_by_frame_pair(partition: &mut Partition, amp: &AmplifiedCex) -> u64 {
    let mut hits = 0;
    for w in 0..amp.frame0.num_words() {
        let mask = partition.valid_word_mask(|v| amp.frame0.var_words(v)[w]);
        if partition.refine_by_words(|v| amp.frame1.var_words(v)[w], mask) {
            hits += 1;
        }
    }
    hits
}

/// Splits the partition by a two-frame counterexample `(s, x_t,
/// x_{t+1})`, amplified to one word of 64 patterns, and returns how
/// many frames split something: 0 means the
/// witness split nothing. Only patterns whose frame-0 values satisfy
/// the *current* correspondence condition refine the partition (the
/// witness always does: its frame 0 satisfies the asserted `Q_{T_i}`).
///
/// **Cascade.** Once the witness's own frame has split, every pattern
/// steps on one frame at a time — latches take the previous frame's
/// next-state values, inputs come fresh from the witness's seeded
/// stream — and each frame `t + 1` splits by its patterns whose frame
/// `t` satisfies the refined `Q`. Such a pattern `(s_t, x_t, x_{t+1})`
/// is itself a condition-2 witness of the current partition, so the
/// split keeps "the true relation refines the partition" and the fixed
/// point is unchanged; it only arrives in fewer rounds. The cascade
/// stops at the first frame that splits nothing, and every frame before
/// it added a class, so it ends.
fn split_by_two_frame_cex(
    aig: &Aig,
    partition: &mut Partition,
    seed: u64,
    s: &[bool],
    xt: &[bool],
    xt1: &[bool],
    obs: &Obs,
) -> u64 {
    let mut amp = amplify_two_frame(aig, s, xt, xt1, 1, seed);
    obs.add(Counter::AmplifyPatterns, 64);
    let hits = split_by_frame_pair(partition, &amp);
    obs.add(Counter::AmplifyWordHits, hits);
    if hits == 0 {
        return 0;
    }
    let mut frames = 1;
    loop {
        amp.step(aig);
        if split_by_frame_pair(partition, &amp) == 0 {
            return frames;
        }
        frames += 1;
    }
}

/// Splits the partition by an initial-frame counterexample `x_I`,
/// amplified to one word of 64 patterns. Every pattern is a valid
/// splitting point — condition 1 quantifies over all inputs at the
/// initial state.
fn split_by_init_cex(
    aig: &Aig,
    partition: &mut Partition,
    seed: u64,
    xi: &[bool],
    obs: &Obs,
) -> bool {
    let sim = amplify_init(aig, xi, 1, seed);
    obs.add(Counter::AmplifyPatterns, 64);
    let hit = partition.refine_by_words(|v| sim.var_words(v)[0], !0u64);
    if hit {
        obs.add(Counter::AmplifyWordHits, 1);
    }
    hit
}

/// Theorem 1's `Q_msc ⇒ λ` check at the fixed point: the solver still
/// carries `Q_{T_fix}` on frame 0 behind the live activation literal
/// `act`, so each output pair is one more query on the current frame.
fn check_outputs(
    u: &mut Unrolling,
    partition: &Partition,
    act: SatLit,
    output_pairs: &[(Lit, Lit)],
    obs: &Obs,
) -> Result<bool, Abort> {
    if partition.outputs_equiv(output_pairs) {
        return Ok(true);
    }
    for &(a, b) in output_pairs {
        let d = u.out_diff(a, b);
        if query(&mut u.solver, &[act, d], obs)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Opens this round's span and bumps the `rounds` counter; the caller
/// records the round's splits before the span drops. Counting at round
/// *start* keeps `round` events and derived iteration counts equal to
/// the old hand-incremented semantics even when the round aborts.
fn open_round(obs: &Obs, round: usize) -> sec_obs::Span {
    obs.add(Counter::Rounds, 1);
    span!(obs, "round", round = round, backend = "sat")
}

/// Records a finished round's refinement outcome, query count and
/// splitting frames on its span, and its splits in the `splits` counter
/// (classes only ever split, so the class-count delta is exactly the
/// number of new classes).
fn close_round(
    obs: &Obs,
    sp: &mut sec_obs::Span,
    partition: &Partition,
    classes_before: usize,
    queries: u64,
    frames: u64,
) {
    let splits = (partition.num_classes() - classes_before) as u64;
    obs.add(Counter::Splits, splits);
    sp.record("splits", splits);
    sp.record("classes", partition.num_classes());
    sp.record("queries", queries);
    sp.record("frames", frames);
}

/// The deterministic per-query amplification seed of a witness — a
/// function of the round number (0 for `T0`) and the canonical sequence
/// number of the pair it refutes only, never of the scan order, so
/// hot-first ordering and the rotating cold cursor never change which
/// patterns a witness is amplified with.
fn cex_seed(opts_seed: u64, round: usize, seq: u64) -> u64 {
    let query_seq = (round as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((seq + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    opts_seed ^ query_seq
}

/// The fixed point's one solver, persistent from `T0` through every
/// round. Dropping it flushes its totals — conflicts, decisions,
/// propagations, polls — exactly once, abort or not.
struct RoundSolver {
    u: Unrolling,
    meter: SatMeter,
    /// The previous round's activation literal, retracted at the start
    /// of the next round (or left active for the final Theorem-1
    /// check).
    prev_act: Option<SatLit>,
}

impl RoundSolver {
    /// A solver over `u` under the run's limits, counted in
    /// `sat_solver_constructions`.
    fn new(mut u: Unrolling, deadline: &Deadline, obs: &Obs) -> RoundSolver {
        obs.add(Counter::SatSolverConstructions, 1);
        u.solver.set_obs(obs.clone());
        u.solver.set_limits(deadline.limits());
        RoundSolver {
            u,
            meter: SatMeter::new(obs),
            prev_act: None,
        }
    }

    /// Opens a round: retracts the last round's `Q` and asserts this
    /// round's behind a fresh activation literal, which it returns.
    fn start_round(&mut self, partition: &Partition) -> SatLit {
        if let Some(prev) = self.prev_act.take() {
            self.u.solver.add_clause(&[!prev]);
            // Reclaim the retracted clauses; a persistent solver would
            // otherwise scan every past round's dead watchers on every
            // guard propagation, a cost that grows with the round number.
            self.u.solver.simplify_level0();
        }
        let act = self.u.solver.new_var().positive();
        self.u.assert_q(partition, act);
        self.prev_act = Some(act);
        act
    }
}

impl Drop for RoundSolver {
    fn drop(&mut self) {
        self.meter.flush(&self.u.solver);
    }
}

/// Congruence settlement: the pairs whose condition-2 query this
/// round's `Q` answers by structure alone.
///
/// [`Congruence::settle`] hash-conses a scratch copy of the two frames
/// in which
///
/// * **frame 0** replaces every class member by its class's first
///   member in node order (all members are equal under `Q`, and the
///   first keeps the substitution acyclic);
/// * **frame 1** feeds each latch the reduced frame-0 literal of its
///   next-state function, gives each input a fresh node, and replaces
///   every AND fanin `a` by its class representative `r`'s frame-1
///   literal when `r` comes earlier in node order than `a`.
///
/// A pair whose two members' normalized frame-1 literals coincide is
/// *settled* and skips its condition-2 query. This proves nothing on
/// its own — it leans on the pairs whose equality the substitutions
/// assumed — but a sweep in which every *queried* pair is Unsat also
/// proves every settled pair. Take any assignment satisfying `Q` and
/// induct on node index `k`: (i) `k`'s
/// scratch literal evaluates to `k`'s frame-1 value, because a fanin
/// `a` is replaced by `r < a` only, and the pair `(a, r)` has maximum
/// index `a < k`, so it holds by (ii); (ii) a pair with maximum index
/// `k` holds: queried, it was Unsat; settled, both members carry one
/// literal, so by (i) they carry one value. A pair whose representative
/// has the larger index is thus checked at that index and never reduces
/// a fanin. A sweep that ends at a witness concludes nothing about its
/// settled pairs, so the fixed point is unchanged; only the query count
/// moves.
struct Congruence {
    /// The scratch table: `(fanin, fanin)` → AND node, with the scratch
    /// nodes numbered from 1 (node 0 is the constant) and the table's
    /// storage reused across rounds.
    table: HashMap<(Lit, Lit), Var>,
    nodes: usize,
    /// Scratch literal of every product node in frame 0 / frame 1.
    frame0: Vec<Lit>,
    frame1: Vec<Lit>,
    /// Per class, its first member in node order seen so far.
    first: Vec<Option<Var>>,
    /// `settled[m]`: the pair `(m, representative)` is settled.
    settled: Vec<bool>,
}

impl Congruence {
    fn new(aig: &Aig) -> Congruence {
        let n = aig.num_nodes();
        Congruence {
            table: HashMap::new(),
            nodes: 0,
            frame0: vec![Lit::FALSE; n],
            frame1: vec![Lit::FALSE; n],
            first: Vec::new(),
            settled: vec![false; n],
        }
    }

    fn fresh(&mut self) -> Lit {
        self.nodes += 1;
        Var::from_index(self.nodes).lit()
    }

    /// The hash-consed AND, with [`Aig::and`]'s trivial rules.
    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE || a == b {
            return b;
        }
        if let Some(&v) = self.table.get(&(a, b)) {
            return v.lit();
        }
        let l = self.fresh();
        self.table.insert((a, b), l.var());
        l
    }

    /// The frame-1 scratch literal of an AND fanin: its representative's
    /// when the representative comes first in node order.
    fn fanin1(&self, partition: &Partition, a: Lit) -> Lit {
        let v = a.var();
        let rep = partition
            .class_of(v)
            .map(|ci| partition.class(ci)[0])
            .filter(|&r| r < v);
        let l = match rep {
            Some(r) => {
                self.frame1[r.index()].complement_if(partition.phase(v) != partition.phase(r))
            }
            None => self.frame1[v.index()],
        };
        l.complement_if(a.is_complemented())
    }

    /// Rebuilds the scratch copy for `partition` and marks its settled
    /// pairs; returns how many there are.
    fn settle(&mut self, aig: &Aig, partition: &Partition) -> u64 {
        self.table.clear();
        self.nodes = 0;
        self.first.clear();
        self.first.resize(partition.num_classes(), None);
        let signed =
            |frame: &[Lit], l: Lit| frame[l.var().index()].complement_if(l.is_complemented());
        for v in aig.vars() {
            let i = v.index();
            let alias = partition.class_of(v).and_then(|ci| match self.first[ci] {
                Some(c) => Some(
                    self.frame0[c.index()].complement_if(partition.phase(v) != partition.phase(c)),
                ),
                None => {
                    self.first[ci] = Some(v);
                    None
                }
            });
            self.frame0[i] = match (alias, aig.node(v)) {
                (Some(l), _) => l,
                (None, Node::Const) => Lit::FALSE,
                (None, Node::Input { .. } | Node::Latch { .. }) => self.fresh(),
                (None, &Node::And { a, b }) => {
                    let (la, lb) = (signed(&self.frame0, a), signed(&self.frame0, b));
                    self.and(la, lb)
                }
            };
        }
        for v in aig.vars() {
            self.frame1[v.index()] = match aig.node(v) {
                Node::Const => Lit::FALSE,
                Node::Input { .. } => self.fresh(),
                Node::Latch { next, .. } => signed(&self.frame0, next.expect("driven latch")),
                &Node::And { a, b } => {
                    let (la, lb) = (self.fanin1(partition, a), self.fanin1(partition, b));
                    self.and(la, lb)
                }
            };
        }
        self.settled.fill(false);
        let mut settled = 0;
        for ci in partition.multi_classes() {
            let members = partition.class(ci);
            let lr = Unrolling::norm(&self.frame1, partition, members[0]);
            for &m in &members[1..] {
                if Unrolling::norm(&self.frame1, partition, m) == lr {
                    self.settled[m.index()] = true;
                    settled += 1;
                }
            }
        }
        settled
    }
}

/// Why a sweep ended before it certified every pair.
enum SweepEnd {
    /// A query was satisfiable: the lowest canonical `seq` among the
    /// pairs the solver's model, the witness, separates.
    Sat(u64),
    /// External cancellation, timeout, or resource limit.
    Abort(Abort),
}

/// One sweep's state: which condition it queries under which
/// assumptions, its query count, and the run's heartbeat ticker.
struct Sweep<'t> {
    /// Condition 1 on the initial frame (`T0`), or condition 2 on
    /// frame 1 (a round).
    init: bool,
    /// The round's activation literal, assumed by every condition-2
    /// query; none for `T0`, whose initial frame `Q` never reaches.
    act: Option<SatLit>,
    /// The round number, 0 for `T0`.
    round: usize,
    queries: u64,
    ticker: &'t mut ProgressTicker,
}

impl Sweep<'_> {
    /// The heartbeat, polled between batches: a `progress` event with
    /// the round, the live class count, and the solver's conflicts, so
    /// a single long round still reports at the configured interval.
    fn heartbeat(&mut self, solver: &Solver, partition: &Partition, obs: &Obs) {
        if self.ticker.ready() {
            event!(
                obs,
                "progress",
                round = self.round,
                classes = partition.num_classes(),
                conflicts = solver.stats().conflicts,
                elapsed_ms = self.ticker.elapsed_ms()
            );
        }
    }

    /// Queries `pairs` in batches of [`Options::batch_pairs`] pairs (one
    /// when it is 0 or 1) through [`query_batch`]. `Ok` means every
    /// batch answered Unsat; the first satisfiable batch ends the sweep.
    /// An interrupted query ends it too and is never read as Unsat.
    fn batches(
        &mut self,
        u: &mut Unrolling,
        partition: &Partition,
        opts: &Options,
        pairs: &[(u64, Var, Var)],
    ) -> Result<(), SweepEnd> {
        for batch in pairs.chunks(opts.batch_pairs.max(1)) {
            self.heartbeat(&u.solver, partition, &opts.obs);
            let ds: Vec<SatLit> = batch
                .iter()
                .map(|&(_, m, r)| u.pair_diff(partition, m, r, self.init))
                .collect();
            self.queries += 1;
            let answer = query_batch(&mut u.solver, self.act.as_slice(), &ds, &opts.obs);
            if answer.map_err(SweepEnd::Abort)? {
                let separated = batch
                    .iter()
                    .zip(&ds)
                    .filter(|&(_, &d)| u.solver.model_value(d))
                    .map(|(&(seq, _, _), _)| seq);
                return Err(SweepEnd::Sat(separated.min().unwrap_or(batch[0].0)));
            }
        }
        Ok(())
    }
}

/// The canonical pair enumeration: multi-member classes in ascending
/// order, each member against its class's representative, numbered by
/// `seq` in that order and tagged with its class. The sequence number
/// names the same pair whatever the scan order, and keys the witness's
/// amplification seed.
fn canonical_pairs(partition: &Partition) -> impl Iterator<Item = (usize, (u64, Var, Var))> + '_ {
    partition
        .multi_classes()
        .flat_map(move |ci| {
            let members = partition.class(ci);
            members[1..].iter().map(move |&m| (ci, m, members[0]))
        })
        .zip(0u64..)
        .map(|((ci, m, r), seq)| (ci, (seq, m, r)))
}

/// Exact `T0` (paper Eq. 2), the SAT counterpart of the BDD backend's:
/// two signals stay together iff they agree at `s0` for every input.
/// Queries every canonical pair's initial-frame difference literal in
/// batches and splits by each amplified initial-frame witness
/// ([`split_by_init_cex`]), enumerating the pairs again after each
/// split, until a whole pass answers Unsat. Agreement of normalized
/// functions at `s0` for every input is an equivalence relation, so
/// every later split keeps condition 1, and the rounds query condition
/// 2 only. The `sat.t0` span records the queries and the splits; as
/// with the BDD backend's `T0`, they are not a round's.
fn refine_t0(
    rs: &mut RoundSolver,
    aig: &Aig,
    partition: &mut Partition,
    opts: &Options,
    ticker: &mut ProgressTicker,
) -> Result<(), Abort> {
    let obs = &opts.obs;
    let mut sp = span!(obs, "sat.t0");
    let classes_before = partition.num_classes();
    let mut sw = Sweep {
        init: true,
        act: None,
        round: 0,
        queries: 0,
        ticker,
    };
    let end = loop {
        let pairs: Vec<(u64, Var, Var)> = canonical_pairs(partition).map(|(_, p)| p).collect();
        match sw.batches(&mut rs.u, partition, opts, &pairs) {
            Ok(()) => break Ok(()),
            Err(SweepEnd::Abort(a)) => break Err(a),
            Err(SweepEnd::Sat(seq)) => {
                let xi = rs.u.read_inputs(&rs.u.xi_in);
                let seed = cex_seed(opts.seed, 0, seq);
                if !split_by_init_cex(aig, partition, seed, &xi, obs) {
                    break Err(Abort::Resource(
                        "internal inconsistency: a T0 witness did not split".into(),
                    ));
                }
            }
        }
    };
    sp.record("queries", sw.queries);
    sp.record("splits", (partition.num_classes() - classes_before) as u64);
    end
}

/// Debug builds only: re-queries, on a clone of the solver, every
/// condition a certifying round took as settled without asking —
/// condition 1 of every pair, which [`refine_t0`] settled, and
/// condition 2 of every pair the round settled by congruence, under its
/// activation literal — and panics on a refutable one. The clone has its own limits and no observability
/// handle, so the run's counters and its solver's trajectory are the
/// same as in a release build. An interrupted query proves nothing
/// either way and is skipped.
#[cfg(debug_assertions)]
fn assert_settled_pairs_hold(
    u: &Unrolling,
    partition: &Partition,
    settled: &[bool],
    act: SatLit,
    pairs: &[(u64, Var, Var)],
    round: usize,
    deadline: &Deadline,
) {
    let mut u = u.clone();
    u.solver.set_obs(Obs::off());
    u.solver.set_limits(deadline.limits());
    for &(_, m, r) in pairs {
        let d = u.pair_diff(partition, m, r, true);
        let answer = u.solver.solve_with_assumptions(&[d]);
        assert!(
            answer != SatResult::Sat,
            "round {round}: the pair ({m}, {r}) differs at the initial state"
        );
        if settled[m.index()] {
            let d = u.pair_diff(partition, m, r, false);
            let answer = u.solver.solve_with_assumptions(&[act, d]);
            assert!(
                answer != SatResult::Sat,
                "round {round}: the settled pair ({m}, {r}) is refutable"
            );
        }
    }
}

/// Sweeps one round's pairs in scan order: the hot segment (the first
/// `hot_len` pairs) as one chunk, then the cold tail in chunks of
/// `(n_pairs / 8).clamp(4, 64)` pairs, never narrower than a batch.
/// Each chunk's unsettled pairs go through [`Sweep::batches`]. `Ok`
/// means every query answered Unsat.
fn sweep_round(
    u: &mut Unrolling,
    partition: &Partition,
    opts: &Options,
    sw: &mut Sweep,
    settled: &[bool],
    pairs: &[(u64, Var, Var)],
    hot_len: usize,
) -> Result<(), SweepEnd> {
    // Never narrower than a batch, or the sweep would pay one
    // underfull batched call per chunk.
    let chunk_pairs = (pairs.len() / 8).clamp(4, 64).max(opts.batch_pairs);
    let (hot, cold) = pairs.split_at(hot_len);
    let chunks = std::iter::once(hot)
        .filter(|c| !c.is_empty())
        .chain(cold.chunks(chunk_pairs));
    for chunk in chunks {
        // Condition 2 of a settled pair follows from the round's other
        // answers (see [`Congruence`]).
        let todo: Vec<(u64, Var, Var)> = chunk
            .iter()
            .copied()
            .filter(|&(_, m, _)| !settled[m.index()])
            .collect();
        sw.batches(u, partition, opts, &todo)?;
    }
    Ok(())
}

/// Runs the greatest fixed-point iteration with the SAT engine,
/// returning the Theorem-1 verdict (`Q_msc ⇒ λ`) at the fixed point.
///
/// The circuit is encoded once, into the one solver ([`RoundSolver`])
/// that runs `T0` and every round. [`refine_t0`] settles condition 1
/// first, before any `Q` is asserted. Every round then enumerates the
/// candidate pairs ([`canonical_pairs`]) and sweeps their condition-2
/// queries over the one solver ([`sweep_round`]): the *hot* pairs,
/// those of the classes the previous merge created or shrank, first as
/// one chunk, then the *cold* tail, rotated by a cursor that advances
/// `n_pairs + 1` pairs per round. The first satisfiable query ends the
/// round; its witness is amplified with the seed [`cex_seed`] derives
/// from the round and the pair's `seq`, refines the partition, and
/// cascades forward while its later frames still split. Every
/// counterexample-guided split preserves "the true relation refines the
/// current partition", so the fixed point reached is the unique
/// coarsest one refining the seed.
pub(crate) fn run_fixed_point(
    aig: &Aig,
    partition: &mut Partition,
    opts: &Options,
    deadline: &Deadline,
    output_pairs: &[(Lit, Lit)],
) -> Result<bool, Abort> {
    // Each round starts behind one deadline check and one progress
    // tick: round 1's here, before the solver is built, and every later
    // round's after the previous merge.
    deadline.check()?;
    deadline.tick();
    let obs = &opts.obs;
    // Heartbeats only make sense with somewhere to send them; gating
    // on the handle keeps the disabled-path cost at one branch.
    let mut ticker = ProgressTicker::new(opts.progress_interval.filter(|_| obs.is_enabled()));
    let mut rs = RoundSolver::new(Unrolling::build(aig), deadline, obs);
    refine_t0(&mut rs, aig, partition, opts, &mut ticker)?;
    let mut round_no = 0usize;
    // Deterministic rotation of the cold tail: rounds stop at their
    // first witness, so always sweeping from pair 0 would starve the
    // tail of the enumeration. The cursor advances by one full sweep
    // plus one pair per round, so successive rounds start at different
    // pairs.
    let mut rotate = 0u64;
    let mut congruence = Congruence::new(aig);
    // Classes the previous round's merge created or shrank. A
    // refinement cascade breaks equivalences near the classes that just
    // split, so their pairs are where the next witness most likely
    // sits, and scanning them first collapses the witness-less prefix
    // that otherwise pins every round's query count. Empty before the
    // first merge, so round 1 is an ordinary full sweep.
    let mut hot: HashSet<usize> = HashSet::new();
    loop {
        round_no += 1;
        let mut sp = open_round(obs, round_no);
        let classes_before = partition.num_classes();
        let class_sizes: Vec<(usize, usize)> = partition
            .multi_classes()
            .map(|ci| (ci, partition.class(ci).len()))
            .collect();
        // Scan order, which never affects the fixed point: the hot
        // pairs, then the cold tail rotated, since a fixed cold order
        // would starve the tail of the enumeration whenever the hot set
        // runs dry.
        let mut pairs: Vec<(u64, Var, Var)> = Vec::new();
        let mut cold: Vec<(u64, Var, Var)> = Vec::new();
        for (ci, pair) in canonical_pairs(partition) {
            if hot.contains(&ci) {
                pairs.push(pair);
            } else {
                cold.push(pair);
            }
        }
        if !cold.is_empty() {
            let offset = (rotate % cold.len() as u64) as usize;
            cold.rotate_left(offset);
            rotate = rotate.wrapping_add((pairs.len() + cold.len()) as u64 + 1);
        }
        let hot_len = pairs.len();
        pairs.append(&mut cold);
        let act = rs.start_round(partition);
        let settled = congruence.settle(aig, partition);
        obs.add(Counter::CongruentPairs, settled);
        sp.record("settled", settled);
        let mut sw = Sweep {
            init: false,
            act: Some(act),
            round: round_no,
            queries: 0,
            ticker: &mut ticker,
        };
        let end = sweep_round(
            &mut rs.u,
            partition,
            opts,
            &mut sw,
            &congruence.settled,
            &pairs,
            hot_len,
        );
        let queries = sw.queries;
        let seq = match end {
            Err(SweepEnd::Sat(seq)) => seq,
            Err(SweepEnd::Abort(a)) => {
                close_round(obs, &mut sp, partition, classes_before, queries, 0);
                return Err(a);
            }
            Ok(()) => {
                close_round(obs, &mut sp, partition, classes_before, queries, 0);
                drop(sp);
                // No witness: every query answered Unsat — a full
                // certified sweep, so the partition is the fixed point.
                // The round's `Q` is still active for the Theorem-1
                // output check.
                #[cfg(debug_assertions)]
                assert_settled_pairs_hold(
                    &rs.u,
                    partition,
                    &congruence.settled,
                    act,
                    &pairs,
                    round_no,
                    deadline,
                );
                return check_outputs(&mut rs.u, partition, act, output_pairs, obs);
            }
        };
        // Merge. The witness satisfies the asserted round-start `Q`
        // and violates its pair's equality, so it must refine.
        obs.add(Counter::WorkerCexes, 1);
        let u = &rs.u;
        let (s, xt, xt1) = (
            u.read_inputs(&u.s_in),
            u.read_inputs(&u.x0_in),
            u.read_inputs(&u.x1_in),
        );
        let seed = cex_seed(opts.seed, round_no, seq);
        let frames = split_by_two_frame_cex(aig, partition, seed, &s, &xt, &xt1, obs);
        hot.clear();
        hot.extend(classes_before..partition.num_classes());
        hot.extend(
            class_sizes
                .iter()
                .filter(|&&(ci, len)| partition.class(ci).len() != len)
                .map(|&(ci, _)| ci),
        );
        close_round(obs, &mut sp, partition, classes_before, queries, frames);
        drop(sp);
        if frames == 0 {
            return Err(Abort::Resource(
                "internal inconsistency: the round's witness did not split".into(),
            ));
        }
        deadline.check()?;
        deadline.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::OptionsBuilder;
    use sec_obs::{Recorder, Value};
    use std::sync::Arc;

    /// The settled flags of `classes` (every phase positive except
    /// `antivalent`'s).
    fn settled(aig: &Aig, classes: &[&[Var]], antivalent: &[Var]) -> Vec<bool> {
        let phase = aig.vars().map(|v| !antivalent.contains(&v)).collect();
        let classes = classes.iter().map(|c| c.to_vec()).collect();
        let partition = Partition::new(aig.num_nodes(), classes, phase);
        let mut congruence = Congruence::new(aig);
        let n = congruence.settle(aig, &partition);
        assert_eq!(n, congruence.settled.iter().filter(|&&s| s).count() as u64);
        congruence.settled
    }

    /// Inputs `a, b, c, d` and the gates `m = a ∧ b`, `n = c ∧ d`.
    fn two_gates() -> (Aig, [Var; 6]) {
        let mut aig = Aig::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|s| aig.add_input(s));
        let m = aig.and(a.lit(), b.lit()).var();
        let n = aig.and(c.lit(), d.lit()).var();
        (aig, [a, b, c, d, m, n])
    }

    #[test]
    fn frame0_reduction_settles_latches_over_equal_members() {
        // p and q latch x ∧ a and x ∧ b: equal under Q once a ~ b.
        let mut aig = Aig::new();
        let x = aig.add_input("x");
        let [a, b, p, q] = [0; 4].map(|_| aig.add_latch(false));
        let ga = aig.and(a.lit(), x.lit());
        let gb = aig.and(b.lit(), x.lit());
        aig.set_latch_next(a, x.lit());
        aig.set_latch_next(b, !x.lit());
        aig.set_latch_next(p, ga);
        aig.set_latch_next(q, gb);
        assert!(settled(&aig, &[&[a, b], &[p, q]], &[])[q.index()]);
        assert!(!settled(&aig, &[&[p, q]], &[])[q.index()]);
    }

    #[test]
    fn frame1_fanin_reduction_settles_gates_over_equal_fanins() {
        // Inputs are fresh in frame 1, so only the fanin reduction can
        // give a ∧ b and c ∧ d one literal.
        let (aig, [a, b, c, d, m, n]) = two_gates();
        assert!(settled(&aig, &[&[a, c], &[b, d], &[m, n]], &[])[n.index()]);
        assert!(!settled(&aig, &[&[a, c], &[m, n]], &[])[n.index()]);
    }

    #[test]
    fn no_fanin_reduction_through_a_later_representative() {
        // The representatives c and d come after a and b: m keeps its
        // own fanins, so the pair (m, n) is queried.
        let (aig, [a, b, c, d, m, n]) = two_gates();
        let got = settled(&aig, &[&[c, a], &[d, b], &[m, n]], &[]);
        assert!(!got[n.index()]);
        assert!(!got[a.index()] && !got[b.index()]);
    }

    #[test]
    fn antivalent_pairs_settle_with_their_phases() {
        // p latches g, q latches ¬g: antivalent, so settled only when
        // q's phase says so.
        let mut aig = Aig::new();
        let [x, y] = ["x", "y"].map(|s| aig.add_input(s));
        let [p, q] = [0; 2].map(|_| aig.add_latch(false));
        let g = aig.and(x.lit(), y.lit());
        aig.set_latch_next(p, g);
        aig.set_latch_next(q, !g);
        assert!(settled(&aig, &[&[p, q]], &[q])[q.index()]);
        assert!(!settled(&aig, &[&[p, q]], &[])[q.index()]);

        // An antivalent fanin pair: a ∧ x against ¬c ∧ x.
        let mut aig = Aig::new();
        let [a, c, x] = ["a", "c", "x"].map(|s| aig.add_input(s));
        let m = aig.and(a.lit(), x.lit()).var();
        let n = aig.and(!c.lit(), x.lit()).var();
        assert!(settled(&aig, &[&[a, c], &[m, n]], &[c])[n.index()]);
        assert!(!settled(&aig, &[&[a, c], &[m, n]], &[])[n.index()]);
    }

    /// The nodes `build` adds to `aig`, in node order.
    fn added(aig: &mut Aig, build: impl FnOnce(&mut Aig)) -> Vec<Var> {
        let before = aig.num_nodes();
        build(aig);
        (before..aig.num_nodes()).map(Var::from_index).collect()
    }

    /// Co-classes each node of `twin` with its counterpart in `first`
    /// and checks that every twin pair settles.
    fn assert_twins_settle(aig: &Aig, first: &[Var], twin: &[Var], antivalent: &[Var]) {
        assert_eq!(first.len(), twin.len());
        let classes: Vec<[Var; 2]> = first.iter().zip(twin).map(|(&f, &t)| [f, t]).collect();
        let classes: Vec<&[Var]> = classes.iter().map(|c| &c[..]).collect();
        let got = settled(aig, &classes, antivalent);
        for &t in twin {
            assert!(got[t.index()], "twin {t:?} not settled");
        }
    }

    #[test]
    fn latch_bisimilar_twins_settle() {
        // Two toggle registers XORed with x. With every twin
        // co-classed, frame 0 maps each twin onto the first copy's
        // node, so the twin latch's next-state cone hashes onto the
        // first copy's and every gate twin coincides in frame 1.
        let mut aig = Aig::new();
        let x = aig.add_input("x").lit();
        let toggle = |aig: &mut Aig| {
            let l = aig.add_latch(false);
            let n = aig.xor(l.lit(), x);
            aig.set_latch_next(l, n);
        };
        let first = added(&mut aig, toggle);
        let twin = added(&mut aig, toggle);
        assert_twins_settle(&aig, &first, &twin, &[]);

        // Spec and impl copies of a 2-bit counter in one netlist, the
        // product shape.
        let mut aig = Aig::new();
        let en = aig.add_input("en").lit();
        let counter = |aig: &mut Aig| {
            let b0 = aig.add_latch(false);
            let b1 = aig.add_latch(false);
            let n0 = aig.xor(b0.lit(), en);
            let carry = aig.and(b0.lit(), en);
            let n1 = aig.xor(b1.lit(), carry);
            aig.set_latch_next(b0, n0);
            aig.set_latch_next(b1, n1);
        };
        let spec = added(&mut aig, counter);
        let imp = added(&mut aig, counter);
        assert_twins_settle(&aig, &spec, &imp, &[]);

        // An init-1 latch with a complemented next-state function is
        // the antivalent twin of an init-0 one: a' = a ∧ x and
        // b' = b ∨ ¬x = ¬(¬b ∧ x), so b = ¬a in every state.
        let mut aig = Aig::new();
        let x = aig.add_input("x").lit();
        let a = aig.add_latch(false);
        let b = aig.add_latch(true);
        let na = aig.and(a.lit(), x);
        let nb = aig.or(b.lit(), !x);
        aig.set_latch_next(a, na);
        aig.set_latch_next(b, nb);
        assert_twins_settle(&aig, &[a, na.var()], &[b, nb.var()], &[b]);
        // With only the latches co-classed, b's phase alone makes the
        // gate twins hash together in frame 0.
        assert!(settled(&aig, &[&[a, b]], &[b])[b.index()]);
        assert!(!settled(&aig, &[&[a, b]], &[])[b.index()]);
    }

    #[test]
    fn a_settled_pair_over_a_refutable_fanin_pair_still_splits() {
        // a and c latch different inputs, so (a, c) is refutable; the
        // gates m = a ∧ x and n = c ∧ x settle through it in round 1.
        let mut aig = Aig::new();
        let [x, y] = ["x", "y"].map(|s| aig.add_input(s));
        let [a, c] = [0; 2].map(|_| aig.add_latch(false));
        aig.set_latch_next(a, x.lit());
        aig.set_latch_next(c, y.lit());
        let m = aig.and(a.lit(), x.lit()).var();
        let n = aig.and(c.lit(), x.lit()).var();
        let start = || {
            let phase = vec![true; aig.num_nodes()];
            Partition::new(aig.num_nodes(), vec![vec![a, c], vec![m, n]], phase)
        };
        let mut congruence = Congruence::new(&aig);
        assert_eq!(congruence.settle(&aig, &start()), 1);
        assert!(congruence.settled[n.index()]);

        let deadline = Deadline::new(None);
        let mut want = start();
        crate::bdd_backend::run_fixed_point(
            &aig,
            &mut want,
            &Options::default(),
            &deadline,
            None,
            &[],
        )
        .unwrap();
        assert_ne!(want.class_of(m), want.class_of(n));
        for batch_pairs in [0, 32] {
            let recorder = Recorder::new();
            let opts = OptionsBuilder::sat()
                .batch_pairs(batch_pairs)
                .obs(Obs::multi(vec![Arc::new(recorder.clone())]))
                .build();
            let mut got = start();
            run_fixed_point(&aig, &mut got, &opts, &deadline, &[]).unwrap();
            assert_eq!(
                got.canonical_classes(),
                want.canonical_classes(),
                "batch_pairs {batch_pairs}"
            );
            assert!(recorder.counter(Counter::CongruentPairs) >= 1);
        }
    }

    /// The `key` field of every `name` event `recorder` captured.
    fn field_of(recorder: &Recorder, name: &str, key: &str) -> Vec<u64> {
        let events = recorder.events();
        let of_name = events.iter().filter(|e| e.name == name);
        of_name
            .map(|e| match e.fields.iter().find(|(k, _)| *k == key) {
                Some((_, Value::U64(n))) => *n,
                other => panic!("{name}.{key}: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn t0_settles_condition_1_before_round_1() {
        // At s0 (a = b = 1) the gates g = a ∧ x and h = b ∧ x ∧ y differ
        // under x ∧ ¬y only. The latches p and q start at 0 and latch x
        // and y: equal at s0, apart one frame later.
        let mut aig = Aig::new();
        let [x, y] = ["x", "y"].map(|s| aig.add_input(s));
        let [a, b] = [0; 2].map(|_| aig.add_latch(true));
        let [p, q] = [0; 2].map(|_| aig.add_latch(false));
        for (l, next) in [(a, a.lit()), (b, b.lit()), (p, x.lit()), (q, y.lit())] {
            aig.set_latch_next(l, next);
        }
        let g = aig.and(a.lit(), x.lit()).var();
        let bx = aig.and(b.lit(), x.lit());
        let h = aig.and(bx, y.lit()).var();
        for batch_pairs in [0, 32] {
            // Classed by hand, so no simulation has split either pair.
            let phase = vec![true; aig.num_nodes()];
            let mut partition =
                Partition::new(aig.num_nodes(), vec![vec![g, h], vec![p, q]], phase);
            let recorder = Recorder::with_events();
            let opts = OptionsBuilder::sat()
                .batch_pairs(batch_pairs)
                .obs(Obs::multi(vec![Arc::new(recorder.clone())]))
                .build();
            run_fixed_point(&aig, &mut partition, &opts, &Deadline::new(None), &[]).unwrap();
            assert_eq!(partition.num_classes(), 4, "batch_pairs {batch_pairs}");
            // T0 splits {g, h} and queries (p, q) again; round 1 splits
            // {p, q} and round 2 certifies.
            assert_eq!(field_of(&recorder, "sat.t0", "splits"), [1]);
            assert_eq!(field_of(&recorder, "sat.t0", "queries"), [2]);
            assert_eq!(field_of(&recorder, "round", "splits"), [1, 0]);
            assert_eq!(recorder.counter(Counter::Splits), 1);
            assert_eq!(recorder.counter(Counter::WorkerCexes), 1);
        }
    }
}
