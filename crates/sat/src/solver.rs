//! A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
//! analysis, VSIDS decisions with phase saving, Luby restarts and
//! LBD-based learnt-clause reduction. Supports incremental solving under
//! assumptions.
//!
//! All clauses live in one flat `u32` arena ([`ClauseArena`]): a header
//! word (length, learnt and deleted bits), an LBD word, then the
//! literal codes. A clause reference is its header's offset. Deleting a
//! clause only sets its bit; once deleted words are the majority the
//! arena is compacted and every stored reference remapped.

use crate::heap::VarHeap;
use crate::types::{SatLit, SatResult, SatVar};
use sec_limits::{Limits, Stop};
use sec_obs::{event, Histogram, Obs};

/// Arena offset of a clause's header word.
type CRef = u32;
const CREF_NONE: CRef = u32::MAX;

/// Literal truth values, one byte per literal code.
const TRUE: u8 = 0;
const FALSE: u8 = 1;
const UNDEF: u8 = 2;

/// Header flag: the clause was learnt.
const LEARNT: u32 = 1;
/// Header flag: the clause was deleted and awaits compaction.
const DELETED: u32 = 2;
/// The header's low bits hold the flags, the rest the length.
const LEN_SHIFT: u32 = 2;
/// Words ahead of a clause's literals: the header and the LBD.
const HEADER_WORDS: usize = 2;

/// Ceiling for the geometric growth of the reduction threshold: the
/// live learnt-clause database never exceeds this count, which is what
/// bounds the memory of a solver reused incrementally for hours.
const MAX_LEARNTS_CAP: f64 = 200_000.0;

/// Every clause, problem and learnt, back to back in one vector.
#[derive(Clone, Debug, Default)]
struct ClauseArena {
    words: Vec<u32>,
    /// Words held by deleted clauses; compaction reclaims them.
    wasted: usize,
}

impl ClauseArena {
    fn alloc(&mut self, lits: &[SatLit], learnt: bool, lbd: u32) -> CRef {
        let cref = self.words.len() as CRef;
        let flags = if learnt { LEARNT } else { 0 };
        self.words.push((lits.len() as u32) << LEN_SHIFT | flags);
        self.words.push(lbd);
        self.words.extend(lits.iter().map(|l| l.0));
        cref
    }

    #[inline]
    fn len(&self, c: CRef) -> usize {
        (self.words[c as usize] >> LEN_SHIFT) as usize
    }

    #[inline]
    fn is_deleted(&self, c: CRef) -> bool {
        self.words[c as usize] & DELETED != 0
    }

    #[inline]
    fn is_learnt(&self, c: CRef) -> bool {
        self.words[c as usize] & LEARNT != 0
    }

    #[inline]
    fn lbd(&self, c: CRef) -> u32 {
        self.words[c as usize + 1]
    }

    #[inline]
    fn lit(&self, c: CRef, k: usize) -> SatLit {
        SatLit(self.words[c as usize + HEADER_WORDS + k])
    }

    fn delete(&mut self, c: CRef) {
        debug_assert!(!self.is_deleted(c), "a clause is deleted once");
        self.words[c as usize] |= DELETED;
        self.wasted += HEADER_WORDS + self.len(c);
    }

    /// The clause after `c` (its offset, or the arena length past the
    /// last clause).
    #[inline]
    fn next(&self, c: CRef) -> CRef {
        c + (HEADER_WORDS + self.len(c)) as CRef
    }

    /// Whether deleted words are the majority, the compaction trigger.
    fn mostly_dead(&self) -> bool {
        self.wasted * 2 > self.words.len()
    }
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
    arena: ClauseArena,
    learnt_refs: Vec<CRef>,
    watches: Vec<Vec<Watcher>>,
    /// Value of every literal, indexed by its code.
    vals: Vec<u8>,
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
    /// Conflict analysis's clause before and after minimization, reused
    /// across conflicts; `minimized` holds the learnt clause that
    /// [`Solver::analyze`] returns.
    learnt: Vec<SatLit>,
    minimized: Vec<SatLit>,
    /// LBD scratch: the last `lbd_stamp` that counted each decision
    /// level (indexed by level).
    level_stamp: Vec<u64>,
    lbd_stamp: u64,
    /// [`Solver::add_clause`]'s normalization buffer.
    add_buf: Vec<SatLit>,
    ok: bool,
    max_learnts: f64,
    stats: SatStats,
    /// Cooperative cancellation/deadline, polled on conflicts and
    /// decisions.
    limits: Limits,
    /// What to add to `limits.polls()` for the polls of this solver's
    /// lifetime: the tallies of every retired `Limits`, less the tally
    /// the current one arrived with (wrapping, so it may read negative).
    polls_offset: u64,
    /// Why the last solve returned [`SatResult::Interrupted`], if it did.
    interrupt: Option<Stop>,
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
            arena: ClauseArena::default(),
            learnt_refs: Vec::new(),
            watches: Vec::new(),
            vals: Vec::new(),
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
            learnt: Vec::new(),
            minimized: Vec::new(),
            level_stamp: vec![0],
            lbd_stamp: 0,
            add_buf: Vec::new(),
            ok: true,
            max_learnts: 4000.0,
            stats: SatStats::default(),
            limits: Limits::none(),
            polls_offset: 0,
            interrupt: None,
            obs: Obs::off(),
        }
    }

    /// Attaches cooperative limits (cancellation token and/or deadline).
    ///
    /// Solve calls poll the limits on every conflict and decision and
    /// return [`SatResult::Interrupted`] once the limits trip, after
    /// backtracking to decision level 0 — the clause database, trail and
    /// heap stay consistent, so the solver remains usable (e.g. with
    /// fresh limits). The tally of [`Solver::limit_polls`] carries over
    /// from the limits being replaced.
    pub fn set_limits(&mut self, limits: Limits) {
        self.polls_offset = self
            .polls_offset
            .wrapping_add(self.limits.polls())
            .wrapping_sub(limits.polls());
        self.limits = limits;
    }

    /// Attaches an observability handle. The inner search loop stays
    /// uninstrumented; only rare events (`sat.restart`, `sat.reduce_db`)
    /// are emitted, so a disabled handle costs one branch per restart.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Total cooperative-limit polls this solver has performed
    /// (conflict, restart and decision checks) over every `Limits` it
    /// was given — the source of the `cancellation_polls` counter.
    pub fn limit_polls(&self) -> u64 {
        self.polls_offset.wrapping_add(self.limits.polls())
    }

    /// Why the last solve call returned [`SatResult::Interrupted`]
    /// (`None` if it completed).
    pub fn interrupt_reason(&self) -> Option<Stop> {
        self.interrupt
    }

    /// Adds a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        let v = SatVar(self.level.len() as u32);
        self.vals.extend_from_slice(&[UNDEF, UNDEF]);
        self.level.push(0);
        self.reason.push(CREF_NONE);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.model.push(false);
        self.level_stamp.push(0);
        self.heap.grow(self.level.len());
        self.heap.insert(v.0, 0.0);
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of clauses added (excluding learnt clauses).
    pub fn num_clauses(&self) -> usize {
        let mut n = 0;
        let mut c = 0;
        while (c as usize) < self.arena.words.len() {
            if !self.arena.is_learnt(c) && !self.arena.is_deleted(c) {
                n += 1;
            }
            c = self.arena.next(c);
        }
        n
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
    fn value_lit(&self, l: SatLit) -> u8 {
        self.vals[l.code()]
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
        let mut buf = std::mem::take(&mut self.add_buf);
        let r = self.add_normalized(&mut buf, lits);
        self.add_buf = buf;
        r
    }

    /// [`Solver::add_clause`] past its checks, normalizing in `buf`:
    /// sort, dedupe, drop false literals, detect tautology and clauses
    /// already satisfied at level 0.
    fn add_normalized(&mut self, buf: &mut Vec<SatLit>, lits: &[SatLit]) -> bool {
        buf.clear();
        buf.extend_from_slice(lits);
        buf.sort_unstable();
        buf.dedup();
        let mut kept = 0;
        for i in 0..buf.len() {
            let l = buf[i];
            if i + 1 < buf.len() && buf[i + 1] == !l {
                return true; // tautology: p ∨ ¬p
            }
            match self.value_lit(l) {
                TRUE => return true, // already satisfied at level 0
                FALSE => {}
                _ => {
                    buf[kept] = l;
                    kept += 1;
                }
            }
        }
        buf.truncate(kept);
        match buf.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(buf[0], CREF_NONE);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_new(buf, false, 0);
                true
            }
        }
    }

    fn attach_new(&mut self, lits: &[SatLit], learnt: bool, lbd: u32) -> CRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt, lbd);
        if learnt {
            self.learnt_refs.push(cref);
        }
        self.watches[(!lits[0]).code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        cref
    }

    fn unchecked_enqueue(&mut self, p: SatLit, from: CRef) {
        debug_assert_eq!(self.value_lit(p), UNDEF);
        self.vals[p.code()] = TRUE;
        self.vals[(!p).code()] = FALSE;
        let v = p.var().index();
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = from;
        self.trail.push(p);
    }

    fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.vals[w.blocker.code()] == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let header = self.arena.words[w.cref as usize];
                if header & DELETED != 0 {
                    continue; // lazily dropped
                }
                let lits = w.cref as usize + HEADER_WORDS;
                let words = &mut self.arena.words;
                if words[lits] == false_lit.0 {
                    words.swap(lits, lits + 1);
                }
                debug_assert_eq!(words[lits + 1], false_lit.0);
                let first = SatLit(words[lits]);
                if first != w.blocker && self.vals[first.code()] == TRUE {
                    ws[j] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                let len = (header >> LEN_SHIFT) as usize;
                for k in 2..len {
                    let l = SatLit(words[lits + k]);
                    if self.vals[l.code()] != FALSE {
                        words.swap(lits + 1, lits + k);
                        self.watches[(!l).code()].push(Watcher {
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
                if self.vals[first.code()] == FALSE {
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
            self.heap.refresh(&self.activity);
        }
        self.heap.update(v as u32, self.activity[v]);
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `self.minimized` and returns the backjump
    /// level.
    fn analyze(&mut self, mut confl: CRef) -> usize {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(SatLit(0)); // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<SatLit> = None;
        let mut index = self.trail.len();
        let cur_level = self.decision_level() as u32;
        loop {
            debug_assert_ne!(confl, CREF_NONE);
            let start = usize::from(p.is_some());
            for k in start..self.arena.len(confl) {
                let q = self.arena.lit(confl, k);
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
        let mut minimized = std::mem::take(&mut self.minimized);
        minimized.clear();
        for (i, &l) in learnt.iter().enumerate() {
            let r = self.reason[l.var().index()];
            let keep = i == 0
                || r == CREF_NONE
                || (1..self.arena.len(r)).any(|k| {
                    let q = self.arena.lit(r, k).var().index();
                    !self.seen[q] && self.level[q] > 0
                });
            if keep {
                minimized.push(l);
            }
        }
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
        self.learnt = learnt;
        self.minimized = minimized;
        bt
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
            self.vals[p.code()] = UNDEF;
            self.vals[(!p).code()] = UNDEF;
            self.reason[v] = CREF_NONE;
            self.heap.insert(v as u32, self.activity[v]);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level);
        self.qhead = lim;
    }

    /// Number of distinct decision levels among `lits`, counted with a
    /// fresh stamp per call instead of a sorted copy.
    fn lbd(&mut self, lits: &[SatLit]) -> u32 {
        self.lbd_stamp += 1;
        let mut n = 0;
        for l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if self.level_stamp[lvl] != self.lbd_stamp {
                self.level_stamp[lvl] = self.lbd_stamp;
                n += 1;
            }
        }
        n
    }

    fn locked(&self, cref: CRef) -> bool {
        let first = self.arena.lit(cref, 0);
        self.value_lit(first) == TRUE && self.reason[first.var().index()] == cref
    }

    fn reduce_db(&mut self) {
        // Sort learnt clauses: bad (high LBD, long) first.
        let arena = &self.arena;
        self.learnt_refs
            .sort_by_key(|&c| std::cmp::Reverse((arena.lbd(c), arena.len(c) as u32)));
        let target = self.learnt_refs.len() / 2;
        let mut deleted = 0;
        let mut kept = 0;
        for idx in 0..self.learnt_refs.len() {
            let cref = self.learnt_refs[idx];
            let keep = deleted >= target
                || self.arena.lbd(cref) <= 2
                || self.arena.len(cref) == 2
                || self.locked(cref);
            if keep {
                self.learnt_refs[kept] = cref;
                kept += 1;
            } else {
                self.arena.delete(cref);
                deleted += 1;
            }
        }
        self.learnt_refs.truncate(kept);
        self.stats.deleted_learnts += deleted as u64;
        // Watch lists are cleaned lazily in propagate; drop dead watchers
        // now to keep them tight.
        self.sweep_dead_watchers();
        // The arena is append-only between reductions, so dead words
        // accumulate. Once they are the majority, compact: a long-lived
        // incremental solver (the correspondence backend keeps one
        // across every round) must stay bounded by its *live* clauses.
        if self.arena.mostly_dead() {
            self.compact_arena();
        }
    }

    fn sweep_dead_watchers(&mut self) {
        let arena = &self.arena;
        for ws in &mut self.watches {
            ws.retain(|w| !arena.is_deleted(w.cref));
        }
    }

    /// Copies the live clauses into a fresh arena, in order, and remaps
    /// every stored `CRef` (learnt refs, watchers, propagation reasons).
    /// Must run right after a dead-watcher sweep, so every remaining
    /// watcher points at a live clause.
    fn compact_arena(&mut self) {
        let mut old = std::mem::take(&mut self.arena.words);
        let mut words = Vec::with_capacity(old.len() - self.arena.wasted);
        let mut c = 0;
        while c < old.len() {
            let end = c + HEADER_WORDS + (old[c] >> LEN_SHIFT) as usize;
            if old[c] & DELETED == 0 {
                let to = words.len() as CRef;
                words.extend_from_slice(&old[c..end]);
                // The old LBD word becomes the forwarding address.
                old[c + 1] = to;
            }
            c = end;
        }
        self.arena = ClauseArena { words, wasted: 0 };
        let forward = |r: CRef| {
            debug_assert_eq!(old[r as usize] & DELETED, 0, "reference to a dead clause");
            old[r as usize + 1]
        };
        for r in &mut self.learnt_refs {
            *r = forward(*r);
        }
        for ws in &mut self.watches {
            for w in ws {
                w.cref = forward(w.cref);
            }
        }
        // A `reason` entry is only meaningful while its variable is
        // assigned (such clauses are locked, hence live); entries of
        // unassigned variables are stale and may point at dead slots.
        for v in 0..self.reason.len() {
            let r = self.reason[v];
            if r != CREF_NONE {
                self.reason[v] = if self.vals[2 * v] == UNDEF {
                    CREF_NONE
                } else {
                    forward(r)
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
        let mut c = 0;
        while (c as usize) < self.arena.words.len() {
            if !self.arena.is_deleted(c)
                && (0..self.arena.len(c)).any(|k| self.value_lit(self.arena.lit(c, k)) == TRUE)
            {
                self.arena.delete(c);
                removed += 1;
            }
            c = self.arena.next(c);
        }
        if removed == 0 {
            return;
        }
        self.sweep_dead_watchers();
        let arena = &self.arena;
        self.learnt_refs.retain(|&c| !arena.is_deleted(c));
        if self.arena.mostly_dead() {
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
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        let mut conflicts_budget = RESTART_BASE * luby(self.stats.restarts + 1);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if let Err(stop) = self.limits.check() {
                    return self.interrupted(stop);
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let bt = self.analyze(confl);
                // Never backjump above assumption levels we still rely on:
                // cancel_until handles it because the assumption literals
                // get re-checked by the decision loop below.
                self.cancel_until(bt);
                let learnt = std::mem::take(&mut self.minimized);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], CREF_NONE);
                } else {
                    let lbd = self.lbd(&learnt);
                    let cref = self.attach_new(&learnt, true, lbd);
                    self.unchecked_enqueue(learnt[0], cref);
                }
                self.minimized = learnt;
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
                    TRUE => self.trail_lim.push(self.trail.len()),
                    FALSE => {
                        self.cancel_until(0);
                        return SatResult::Unsat;
                    }
                    _ => {
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
                while let Some(v) = self.heap.pop_max() {
                    if self.vals[2 * v as usize] == UNDEF {
                        next = Some(v);
                        break;
                    }
                }
                match next {
                    None => {
                        // Complete assignment: record model.
                        for v in 0..self.num_vars() {
                            self.model[v] = self.vals[2 * v] == TRUE;
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
        // Without compaction the arena would hold one clause per clause
        // ever: problem + live learnts + every deleted learnt.
        let ever = problem_clauses + s.learnt_refs.len() as u64 + deleted;
        let mut held = 0u64;
        let mut c = 0;
        while (c as usize) < s.arena.words.len() {
            held += 1;
            c = s.arena.next(c);
        }
        assert!(
            held < ever,
            "arena ({held} clauses) must be smaller than clauses-ever ({ever})"
        );
        // And the dead majority is bounded by the compaction trigger.
        assert!(!s.arena.mostly_dead(), "dead words stay a minority");
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
    fn limit_polls_carry_across_set_limits() {
        // Each solve polls once per conflict and decision; replacing the
        // limits between solves must not drop the earlier tally, and a
        // `Limits` that arrives with polls of its own adds none of them.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        assert_eq!(s.solve(), SatResult::Sat);
        let first = s.limit_polls();
        assert!(first > 0);
        let mut used = Limits::none();
        for _ in 0..5 {
            used.check().unwrap();
        }
        s.set_limits(used);
        assert_eq!(s.limit_polls(), first);
        assert_eq!(s.solve(), SatResult::Sat);
        let second = s.limit_polls();
        assert!(second > first);
        s.set_limits(Limits::none());
        assert_eq!(s.limit_polls(), second);
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
