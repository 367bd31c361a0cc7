//! A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
//! analysis, VSIDS decisions with phase saving, Luby restarts and
//! LBD-based learnt-clause reduction. Supports incremental solving under
//! assumptions.

use crate::heap::VarHeap;
use crate::types::{SatLit, SatResult, SatVar, Value};
use sec_limits::{Limits, Stop};
use sec_obs::{event, Histogram, Obs};

type CRef = u32;
const CREF_NONE: CRef = u32::MAX;

/// Ceiling for the geometric growth of the reduction threshold: the
/// live learnt-clause database never exceeds this count, which is what
/// bounds the memory of a solver reused incrementally for hours.
const MAX_LEARNTS_CAP: f64 = 200_000.0;

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<SatLit>,
    learnt: bool,
    lbd: u32,
    deleted: bool,
}

#[derive(Copy, Clone, Debug)]
struct Watcher {
    cref: CRef,
    blocker: SatLit,
}

/// Search statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_learnts: u64,
}

/// A CDCL SAT solver.
///
/// `Solver` is `Clone`: cloning snapshots the entire solver state —
/// clause database (including learnt clauses), variable activities,
/// saved phases and statistics — so a formula can be encoded once and
/// restarted from many times. The correspondence backend in `sec-core`
/// does this in its rebuild mode: it clones the encoded two-frame
/// unrolling at every round start, so nothing learnt outlives a round.
///
/// # Examples
///
/// ```
/// use sec_sat::{SatResult, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative()]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.model_value(b.positive()), true);
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    learnt_refs: Vec<CRef>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<Value>,
    level: Vec<u32>,
    reason: Vec<CRef>,
    trail: Vec<SatLit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    model: Vec<bool>,
    ok: bool,
    max_learnts: f64,
    stats: SatStats,
    /// Cooperative cancellation/deadline, polled on conflicts and
    /// decisions.
    limits: Limits,
    /// Why the last solve returned [`SatResult::Interrupted`], if it did.
    interrupt: Option<Stop>,
    /// Per-call conflict budget; `None` is unlimited.
    conflict_budget: Option<u64>,
    /// Whether the last solve was cut short by the conflict budget.
    budget_exhausted: bool,
    /// Observability handle (off by default). Only coarse search events
    /// (restarts, learnt-db reductions) are emitted directly; callers
    /// flush [`SatStats`] deltas into counters at query boundaries.
    obs: Obs,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

const VAR_DECAY: f64 = 0.95;
const RESTART_BASE: u64 = 100;

fn luby(mut i: u64) -> u64 {
    // Finds the i-th element (1-based) of the Luby sequence.
    let mut k = 1u32;
    while (1u64 << (k + 1)) - 1 <= i {
        k += 1;
    }
    while i != (1 << k) - 1 {
        i -= (1 << k) - 1;
        k = 1;
        while (1u64 << (k + 1)) - 1 <= i {
            k += 1;
        }
    }
    1 << (k - 1)
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            learnt_refs: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: VarHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            model: Vec::new(),
            ok: true,
            max_learnts: 4000.0,
            stats: SatStats::default(),
            limits: Limits::none(),
            interrupt: None,
            conflict_budget: None,
            budget_exhausted: false,
            obs: Obs::off(),
        }
    }

    /// Attaches cooperative limits (cancellation token and/or deadline).
    ///
    /// Solve calls poll the limits on every conflict and decision and
    /// return [`SatResult::Interrupted`] once the limits trip, after
    /// backtracking to decision level 0 — the clause database, trail and
    /// heap stay consistent, so the solver remains usable (e.g. with
    /// fresh limits).
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Attaches an observability handle. The inner search loop stays
    /// uninstrumented; only rare events (`sat.restart`, `sat.reduce_db`)
    /// are emitted, so a disabled handle costs one branch per restart.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Total cooperative-limit polls this solver has performed
    /// (conflict, restart and decision checks) — the source of the
    /// `cancellation_polls` counter.
    pub fn limit_polls(&self) -> u64 {
        self.limits.polls()
    }

    /// Why the last solve call returned [`SatResult::Interrupted`]
    /// (`None` if it completed, or if the per-call conflict budget ran
    /// out — see [`Solver::budget_exhausted`]).
    pub fn interrupt_reason(&self) -> Option<Stop> {
        self.interrupt
    }

    /// Caps the number of conflicts any single solve call may spend
    /// before giving up with [`SatResult::Interrupted`] (`None`
    /// removes the cap). The cap applies per call, not cumulatively;
    /// the solver stays fully usable after an exhausted call.
    ///
    /// An exhausted call is *never* reported as `Unsat`: the caller must
    /// treat it as "undecided" (e.g. retry on a fresh solver with no
    /// budget, as the incremental correspondence backend does).
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Whether the last solve call stopped because it hit the per-call
    /// conflict budget (as opposed to cancellation or a deadline).
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// Adds a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        let v = SatVar(self.assign.len() as u32);
        self.assign.push(Value::Undef);
        self.level.push(0);
        self.reason.push(CREF_NONE);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.model.push(false);
        self.heap.grow(self.assign.len());
        self.heap.insert(v.0, &self.activity);
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses added (excluding learnt clauses).
    pub fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| !c.learnt && !c.deleted)
            .count()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Sets the learnt-clause count that triggers database reduction
    /// (default 4000; the threshold grows by 1.3x after each reduction,
    /// saturating at 200 000 so a solver that lives across many
    /// incremental calls keeps a bounded clause database).
    pub fn set_reduce_threshold(&mut self, learnts: usize) {
        self.max_learnts = learnts as f64;
    }

    #[inline]
    fn value_lit(&self, l: SatLit) -> Value {
        self.assign[l.var().index()].negate_if(l.is_negative())
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (then the clause is ignored).
    ///
    /// # Panics
    ///
    /// Panics if called while a solve is in progress conceptually — i.e.
    /// this implementation requires decision level 0, which is always the
    /// case between `solve` calls.
    pub fn add_clause(&mut self, lits: &[SatLit]) -> bool {
        assert_eq!(
            self.decision_level(),
            0,
            "add_clause at decision level 0 only"
        );
        if !self.ok {
            return false;
        }
        // Normalize: sort, dedupe, drop false literals, detect tautology
        // and satisfied clauses.
        let mut ls: Vec<SatLit> = lits.to_vec();
        ls.sort();
        ls.dedup();
        let mut out: Vec<SatLit> = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: p ∨ ¬p
            }
            match self.value_lit(l) {
                Value::True => return true, // already satisfied at level 0
                Value::False => {}
                Value::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], CREF_NONE);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_new(out, false, 0);
                true
            }
        }
    }

    fn attach_new(&mut self, lits: Vec<SatLit>, learnt: bool, lbd: u32) -> CRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as CRef;
        let w0 = lits[0];
        let w1 = lits[1];
        self.clauses.push(Clause {
            lits,
            learnt,
            lbd,
            deleted: false,
        });
        if learnt {
            self.learnt_refs.push(cref);
        }
        self.watches[(!w0).code()].push(Watcher { cref, blocker: w1 });
        self.watches[(!w1).code()].push(Watcher { cref, blocker: w0 });
        cref
    }

    fn unchecked_enqueue(&mut self, p: SatLit, from: CRef) {
        debug_assert_eq!(self.value_lit(p), Value::Undef);
        let v = p.var().index();
        self.assign[v] = Value::from_bool(!p.is_negative());
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = from;
        self.trail.push(p);
    }

    fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value_lit(w.blocker) == Value::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref as usize;
                if self.clauses[cref].deleted {
                    continue; // lazily dropped
                }
                let false_lit = !p;
                if self.clauses[cref].lits[0] == false_lit {
                    self.clauses[cref].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[cref].lits[1], false_lit);
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.value_lit(first) == Value::True {
                    ws[j] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                for k in 2..self.clauses[cref].lits.len() {
                    if self.value_lit(self.clauses[cref].lits[k]) != Value::False {
                        self.clauses[cref].lits.swap(1, k);
                        let nw = self.clauses[cref].lits[1];
                        self.watches[(!nw).code()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                ws[j] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                j += 1;
                if self.value_lit(first) == Value::False {
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    ws.truncate(j);
                    self.watches[p.code()] = ws;
                    self.qhead = self.trail.len();
                    return Some(w.cref);
                }
                self.unchecked_enqueue(first, w.cref);
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v as u32, &self.activity);
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut confl: CRef) -> (Vec<SatLit>, usize) {
        let mut learnt: Vec<SatLit> = vec![SatLit(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<SatLit> = None;
        let mut index = self.trail.len();
        let cur_level = self.decision_level() as u32;
        loop {
            debug_assert_ne!(confl, CREF_NONE);
            let start = usize::from(p.is_some());
            let nlits = self.clauses[confl as usize].lits.len();
            for k in start..nlits {
                let q = self.clauses[confl as usize].lits[k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            confl = self.reason[pl.var().index()];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
        }
        learnt[0] = !p.unwrap();

        // Cheap local minimization: drop literals whose reason clause is
        // entirely marked.
        let keep: Vec<bool> = learnt
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                if i == 0 {
                    return true;
                }
                let r = self.reason[l.var().index()];
                if r == CREF_NONE {
                    return true;
                }
                self.clauses[r as usize].lits[1..]
                    .iter()
                    .any(|q| !self.seen[q.var().index()] && self.level[q.var().index()] > 0)
            })
            .collect();
        let mut minimized: Vec<SatLit> = learnt
            .iter()
            .zip(&keep)
            .filter_map(|(&l, &k)| k.then_some(l))
            .collect();
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }

        // Find the backjump level: highest level among the non-asserting
        // literals; move that literal into position 1 for watching.
        let bt = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()] as usize
        };
        (minimized, bt)
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level];
        for i in (lim..self.trail.len()).rev() {
            let p = self.trail[i];
            let v = p.var().index();
            self.phase[v] = !p.is_negative();
            self.assign[v] = Value::Undef;
            self.reason[v] = CREF_NONE;
            self.heap.insert(v as u32, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level);
        self.qhead = lim;
    }

    fn lbd(&self, lits: &[SatLit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn locked(&self, cref: CRef) -> bool {
        let first = self.clauses[cref as usize].lits[0];
        self.value_lit(first) == Value::True && self.reason[first.var().index()] == cref
    }

    fn reduce_db(&mut self) {
        // Sort learnt clauses: bad (high LBD, long) first.
        let clauses = &self.clauses;
        self.learnt_refs.sort_by_key(|&c| {
            let cl = &clauses[c as usize];
            std::cmp::Reverse((cl.lbd, cl.lits.len() as u32))
        });
        let target = self.learnt_refs.len() / 2;
        let mut deleted = 0;
        let mut kept = Vec::with_capacity(self.learnt_refs.len());
        for idx in 0..self.learnt_refs.len() {
            let cref = self.learnt_refs[idx];
            let keep = deleted >= target
                || self.clauses[cref as usize].lbd <= 2
                || self.clauses[cref as usize].lits.len() == 2
                || self.locked(cref);
            if keep {
                kept.push(cref);
            } else {
                let c = &mut self.clauses[cref as usize];
                c.deleted = true;
                c.lits = Vec::new(); // free the literal storage now
                deleted += 1;
            }
        }
        self.learnt_refs = kept;
        self.stats.deleted_learnts += deleted as u64;
        // Watch lists are cleaned lazily in propagate; drop dead watchers
        // now to keep them tight.
        let dead: Vec<bool> = self.clauses.iter().map(|c| c.deleted).collect();
        for ws in &mut self.watches {
            ws.retain(|w| !dead[w.cref as usize]);
        }
        // The arena is append-only between reductions, so dead slots
        // accumulate. Once they are the majority, compact: a long-lived
        // incremental solver (the correspondence backend keeps one
        // across every round) must stay bounded by its *live* clauses.
        let dead_slots = dead.iter().filter(|&&d| d).count();
        if dead_slots * 2 > self.clauses.len() {
            self.compact_arena();
        }
    }

    /// Rebuilds the clause arena without dead slots, remapping every
    /// stored `CRef` (learnt refs, watchers, propagation reasons). Must
    /// run right after the dead-watcher sweep of [`Solver::reduce_db`]
    /// so every remaining watcher points at a live clause.
    fn compact_arena(&mut self) {
        let mut remap: Vec<CRef> = vec![CREF_NONE; self.clauses.len()];
        let live_n = self.clauses.iter().filter(|c| !c.deleted).count();
        let mut live = Vec::with_capacity(live_n);
        for (i, c) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if !c.deleted {
                remap[i] = live.len() as CRef;
                live.push(c);
            }
        }
        self.clauses = live;
        for r in &mut self.learnt_refs {
            *r = remap[*r as usize];
            debug_assert_ne!(*r, CREF_NONE);
        }
        for ws in &mut self.watches {
            for w in ws {
                w.cref = remap[w.cref as usize];
                debug_assert_ne!(w.cref, CREF_NONE);
            }
        }
        // A `reason` entry is only meaningful while its variable is
        // assigned (such clauses are locked, hence live); entries of
        // unassigned variables are stale and may point at dead slots.
        for v in 0..self.reason.len() {
            let r = self.reason[v];
            if r != CREF_NONE {
                self.reason[v] = if self.assign[v] == Value::Undef {
                    CREF_NONE
                } else {
                    debug_assert_ne!(remap[r as usize], CREF_NONE);
                    remap[r as usize]
                };
            }
        }
    }

    /// Deletes every clause satisfied at decision level 0 — problem
    /// clauses included — and compacts the arena when that leaves a
    /// dead majority. For a caller that retracts work by asserting a
    /// unit (the backend's per-round activation literals), this is what
    /// actually reclaims the retracted clauses: without it every watch
    /// list accumulates satisfied-forever watchers that propagation
    /// keeps skipping over, round after round.
    ///
    /// Call between incremental solves only (decision level 0, nothing
    /// enqueued). Level-0 assignments are permanent facts, so their
    /// reason references are cleared rather than kept alive.
    pub fn simplify_level0(&mut self) {
        assert_eq!(self.decision_level(), 0, "simplify between solves only");
        if !self.ok || self.qhead < self.trail.len() {
            return;
        }
        for i in 0..self.trail.len() {
            self.reason[self.trail[i].var().index()] = CREF_NONE;
        }
        let mut removed = 0usize;
        for cref in 0..self.clauses.len() {
            if self.clauses[cref].deleted {
                continue;
            }
            let satisfied = self.clauses[cref]
                .lits
                .iter()
                .any(|&l| self.value_lit(l) == Value::True);
            if satisfied {
                let c = &mut self.clauses[cref];
                c.deleted = true;
                c.lits = Vec::new();
                removed += 1;
            }
        }
        if removed == 0 {
            return;
        }
        let dead: Vec<bool> = self.clauses.iter().map(|c| c.deleted).collect();
        for ws in &mut self.watches {
            ws.retain(|w| !dead[w.cref as usize]);
        }
        self.learnt_refs.retain(|&c| !dead[c as usize]);
        let dead_slots = dead.iter().filter(|&&d| d).count();
        if dead_slots * 2 > self.clauses.len() {
            self.compact_arena();
        }
    }

    fn interrupted(&mut self, stop: Stop) -> SatResult {
        self.interrupt = Some(stop);
        self.cancel_until(0);
        SatResult::Interrupted
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. On `Sat` the model is
    /// available through [`Solver::model_value`]; the solver can be reused
    /// incrementally afterwards (assumptions do not persist).
    pub fn solve_with_assumptions(&mut self, assumptions: &[SatLit]) -> SatResult {
        // Per-call latency lands in the `sat_call_us` histogram; the
        // timer is `None` (no clock read) when observability is off.
        let t0 = self.obs.timer();
        let r = self.solve_inner(assumptions);
        self.obs.observe_elapsed(Histogram::SatCallUs, t0);
        r
    }

    fn solve_inner(&mut self, assumptions: &[SatLit]) -> SatResult {
        self.interrupt = None;
        self.budget_exhausted = false;
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        let mut conflicts_budget = RESTART_BASE * luby(self.stats.restarts + 1);
        let mut call_conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                call_conflicts += 1;
                if let Err(stop) = self.limits.check() {
                    return self.interrupted(stop);
                }
                if let Some(cap) = self.conflict_budget {
                    if call_conflicts >= cap {
                        // Out of budget, not out of time: the caller may
                        // retry elsewhere. Leave level 0 consistent.
                        self.budget_exhausted = true;
                        self.cancel_until(0);
                        return SatResult::Interrupted;
                    }
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                // Never backjump above assumption levels we still rely on:
                // cancel_until handles it because the assumption literals
                // get re-checked by the decision loop below.
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], CREF_NONE);
                } else {
                    let lbd = self.lbd(&learnt);
                    let first = learnt[0];
                    let cref = self.attach_new(learnt, true, lbd);
                    self.unchecked_enqueue(first, cref);
                }
                self.var_inc /= VAR_DECAY;
                conflicts_budget = conflicts_budget.saturating_sub(1);
                if self.learnt_refs.len() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts = (self.max_learnts * 1.3).min(MAX_LEARNTS_CAP);
                    event!(
                        self.obs,
                        "sat.reduce_db",
                        deleted_learnts = self.stats.deleted_learnts,
                        kept = self.learnt_refs.len(),
                    );
                }
            } else if conflicts_budget == 0 {
                // Restarts are rare and conflict-bounded: take the
                // unstrided poll so a deadline can't slip past a long
                // conflict-free stretch.
                if let Err(stop) = self.limits.check_now() {
                    return self.interrupted(stop);
                }
                self.stats.restarts += 1;
                event!(
                    self.obs,
                    "sat.restart",
                    restarts = self.stats.restarts,
                    conflicts = self.stats.conflicts,
                );
                conflicts_budget = RESTART_BASE * luby(self.stats.restarts + 1);
                self.cancel_until(0);
            } else if self.decision_level() < assumptions.len() {
                let p = assumptions[self.decision_level()];
                match self.value_lit(p) {
                    Value::True => self.trail_lim.push(self.trail.len()),
                    Value::False => {
                        self.cancel_until(0);
                        return SatResult::Unsat;
                    }
                    Value::Undef => {
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(p, CREF_NONE);
                    }
                }
            } else {
                // Decide. Poll before popping the heap: a var popped but
                // not yet enqueued would be lost to future solves.
                if let Err(stop) = self.limits.check() {
                    return self.interrupted(stop);
                }
                let mut next = None;
                while let Some(v) = self.heap.pop_max(&self.activity) {
                    if self.assign[v as usize] == Value::Undef {
                        next = Some(v);
                        break;
                    }
                }
                match next {
                    None => {
                        // Complete assignment: record model.
                        for v in 0..self.num_vars() {
                            self.model[v] = self.assign[v] == Value::True;
                        }
                        self.cancel_until(0);
                        return SatResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let p = SatVar(v).lit(self.phase[v as usize]);
                        self.unchecked_enqueue(p, CREF_NONE);
                    }
                }
            }
        }
    }

    /// The value of a literal in the model of the last `Sat` answer.
    pub fn model_value(&self, l: SatLit) -> bool {
        self.model[l.var().index()] ^ l.is_negative()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<SatLit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[0]) || s.model_value(v[1]));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0], !v[0]]));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes across two rows
    fn pigeonhole_3_into_2_unsat() {
        // p[i][j]: pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<SatLit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(&[row[0], row[1]]);
        }
        for j in 0..2usize {
            for a in 0..3 {
                for b in a + 1..3 {
                    let (ca, cb) = (p[a][j], p[b][j]);
                    s.add_clause(&[!ca, !cb]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_are_transient() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve_with_assumptions(&[!v[0], !v[1]]), SatResult::Unsat);
        // Without assumptions still satisfiable.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.solve_with_assumptions(&[!v[0]]), SatResult::Sat);
        assert!(s.model_value(v[1]));
    }

    #[test]
    fn chain_propagation() {
        // x0 -> x1 -> ... -> x9, assume x0, all must be true.
        let mut s = Solver::new();
        let v = lits(&mut s, 10);
        for i in 0..9 {
            s.add_clause(&[!v[i], v[i + 1]]);
        }
        s.add_clause(&[v[0]]);
        assert_eq!(s.solve(), SatResult::Sat);
        for l in &v {
            assert!(s.model_value(*l));
        }
    }

    #[test]
    fn xor_chain_forces_unsat() {
        // (a ⊕ b), (b ⊕ c), (a ⊕ c) is unsatisfiable (odd cycle).
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let pairs = [(0, 1), (1, 2), (0, 2)];
        for (a, b) in pairs {
            s.add_clause(&[v[a], v[b]]);
            s.add_clause(&[!v[a], !v[b]]);
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes across two rows
    fn clause_db_reduction_keeps_correctness() {
        // Force aggressive reduction and check a hard UNSAT family still
        // gets the right answer.
        let mut s = Solver::new();
        s.set_reduce_threshold(16);
        let n = 7;
        let p: Vec<Vec<SatLit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..n - 1usize {
            for a in 0..n {
                for b in a + 1..n {
                    let (ca, cb) = (p[a][j], p[b][j]);
                    s.add_clause(&[!ca, !cb]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().deleted_learnts > 0, "reduction must trigger");
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes across two rows
    fn arena_compaction_bounds_memory_and_keeps_correctness() {
        // Long searches must compact the clause arena (CRef remapping
        // included, mid-search) instead of accumulating a slot for every
        // learnt clause ever, and still reach the exact answer — this is
        // what bounds the memory of the persistent per-worker solvers.
        let mut s = Solver::new();
        s.set_reduce_threshold(16);
        let n = 7;
        let p: Vec<Vec<SatLit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        let mut problem_clauses = 0u64;
        for row in &p {
            s.add_clause(row);
            problem_clauses += 1;
        }
        for j in 0..n - 1usize {
            for a in 0..n {
                for b in a + 1..n {
                    s.add_clause(&[!p[a][j], !p[b][j]]);
                    problem_clauses += 1;
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        let deleted = s.stats().deleted_learnts;
        assert!(deleted > problem_clauses, "reduction must churn the arena");
        // Without compaction the arena would hold one slot per clause
        // ever: problem + live learnts + every deleted learnt.
        let ever = problem_clauses + s.learnt_refs.len() as u64 + deleted;
        assert!(
            (s.clauses.len() as u64) < ever,
            "arena ({} slots) must be smaller than clauses-ever ({ever})",
            s.clauses.len()
        );
        // And the dead majority is bounded by the compaction trigger.
        let dead = s.clauses.iter().filter(|c| c.deleted).count();
        assert!(
            dead * 2 <= s.clauses.len() + 1,
            "dead slots stay a minority"
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes across two rows
    fn conflict_budget_interrupts_and_solver_stays_usable() {
        // A hard UNSAT family needs far more than 5 conflicts; the
        // budgeted call must stop as Interrupted (never Unsat), and
        // lifting the budget must then reach the exact answer.
        let mut s = Solver::new();
        let n = 7;
        let p: Vec<Vec<SatLit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..n - 1usize {
            for a in 0..n {
                for b in a + 1..n {
                    s.add_clause(&[!p[a][j], !p[b][j]]);
                }
            }
        }
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SatResult::Interrupted);
        assert!(s.budget_exhausted());
        assert_eq!(s.interrupt_reason(), None, "budget is not a Stop");
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(!s.budget_exhausted());
    }

    #[test]
    fn conflict_budget_is_per_call() {
        // An easy instance finishes under budget; the flag stays clear.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(!s.budget_exhausted());
    }

    #[test]
    fn cloned_solver_diverges_independently() {
        // Encode once, clone per worker: both clones stay correct and
        // neither sees the other's added clauses.
        let mut base = Solver::new();
        let v = lits(&mut base, 3);
        base.add_clause(&[v[0], v[1], v[2]]);
        let mut a = base.clone();
        let mut b = base;
        a.add_clause(&[!v[0]]);
        a.add_clause(&[!v[1]]);
        assert_eq!(a.solve(), SatResult::Sat);
        assert!(a.model_value(v[2]));
        b.add_clause(&[!v[2]]);
        b.add_clause(&[!v[1]]);
        assert_eq!(b.solve(), SatResult::Sat);
        assert!(b.model_value(v[0]));
        a.add_clause(&[!v[2]]);
        assert_eq!(a.solve(), SatResult::Unsat);
        assert_eq!(b.solve(), SatResult::Sat);
    }

    #[test]
    fn stats_populated() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], v[2]]);
        s.add_clause(&[!v[2], v[3]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.stats().decisions > 0);
    }
}
