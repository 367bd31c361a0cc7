//! # sec-portfolio
//!
//! A parallel multi-engine portfolio solver: races the workspace's four
//! complementary decision engines on worker threads and returns the
//! first **definitive** verdict, cancelling the losers cooperatively.
//!
//! The engines are orthogonal in what they decide quickly:
//!
//! | Engine      | Proves | Refutes | Strength                          |
//! |-------------|--------|---------|-----------------------------------|
//! | `bdd-corr`  | yes    | no*     | retimed/resynthesized circuits    |
//! | `sat-corr`  | yes    | no*     | multiplier-like BDD-hostile logic |
//! | `bmc`       | no     | yes     | shallow counterexamples           |
//! | `traversal` | yes    | yes     | small state spaces, including the |
//! |             |        |         | cases where correspondence is     |
//! |             |        |         | incomplete                        |
//!
//! (* — in a portfolio lineup the correspondence engines run with
//! simulation/BMC refutation disabled, so refutations are attributed to
//! the dedicated BMC engine and a win always names the method that
//! actually decided.)
//!
//! `Unknown` results do **not** win: an engine that times out,
//! overflows its node budget, or hits van Eijk incompleteness simply
//! drops out of the race. Only when every engine has dropped out does
//! the portfolio degrade gracefully to [`Verdict::Unknown`] with the
//! per-engine reasons.
//!
//! Cancellation is cooperative: all engines share one
//! [`CancellationToken`] whose flag their hot loops poll (BDD
//! unique-table insertion, SAT propagate/decide, image computation), so
//! losers stop within milliseconds of the winning verdict and leave
//! their managers consistent.
//!
//! ## Example
//!
//! ```
//! use sec_portfolio::{run, PortfolioOptions};
//! use sec_core::Verdict;
//! use sec_gen::{counter, CounterKind};
//!
//! let spec = counter(4, CounterKind::Binary);
//! let result = run(&spec, &spec.clone(), &PortfolioOptions::default())?;
//! assert_eq!(result.verdict, Verdict::Equivalent);
//! println!("won by {}", result.winner.unwrap());
//! # Ok::<(), sec_core::SecError>(())
//! ```

#![warn(missing_docs)]

use sec_core::{
    bmc_refute, stats::JsonObject, Backend, BuildError, Checker, OptionsBuilder, SecError, Verdict,
};
use sec_netlist::{check as check_circuit, Aig, ProductMachine};
use sec_obs::{emit_snapshot, event, Obs, Recorder};
use sec_traversal::{check_equivalence, TraversalOptions, TraversalOutcome};
use std::fmt;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

pub use sec_limits::{CancellationToken, Limits, ProgressCounter, Stop};

/// One member of the portfolio lineup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Signal correspondence with the BDD backend (the paper's method).
    BddCorr,
    /// Signal correspondence with the SAT backend.
    SatCorr,
    /// Bounded model checking — refutation only.
    Bmc,
    /// Exact symbolic traversal — complete, but state-space bound.
    Traversal,
}

impl EngineKind {
    /// Every engine, in the default lineup order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::BddCorr,
        EngineKind::SatCorr,
        EngineKind::Bmc,
        EngineKind::Traversal,
    ];

    /// Stable lowercase name, used in progress events and `--json`.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::BddCorr => "bdd-corr",
            EngineKind::SatCorr => "sat-corr",
            EngineKind::Bmc => "bmc",
            EngineKind::Traversal => "traversal",
        }
    }

    /// Parses a [`name`](EngineKind::name) back into the engine.
    pub fn from_name(s: &str) -> Option<EngineKind> {
        EngineKind::ALL.iter().copied().find(|e| e.name() == s)
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Options of the portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOptions {
    /// The lineup. All engines share one option set, so a duplicate
    /// entry is just wasted work.
    pub engines: Vec<EngineKind>,
    /// Global wall-clock budget for the whole race.
    pub timeout: Option<Duration>,
    /// Optional per-engine budget, capped by the global one. An engine
    /// that exhausts it drops out; the race continues.
    pub engine_timeout: Option<Duration>,
    /// RNG seed forwarded to the correspondence engines.
    pub seed: u64,
    /// Frame bound of the BMC engine.
    pub bmc_depth: usize,
    /// BDD node budget of the correspondence engines.
    pub node_limit: usize,
    /// BDD node budget of the traversal engine.
    pub traversal_node_limit: usize,
    /// Interval between `progress` heartbeat events emitted from every
    /// engine's hot loop (scoped to the engine's name). `None` — the
    /// default — emits none.
    pub progress_interval: Option<Duration>,
    /// Observability handle. The orchestrator emits the race timeline
    /// (`race.start`, `engine.spawn`, `engine.verdict`, `race.cancel`,
    /// `race.timeout`, `race.end`) on it directly; each engine gets a
    /// handle scoped to its [`EngineKind::name`], so every event an
    /// engine emits carries an `"engine"` attribution field.
    pub obs: Obs,
    /// External cancellation. The race runs on an internal token (so a
    /// definitive winner can stop the losers); cancelling this one
    /// trips the internal token on the orchestrator's next poll and the
    /// race returns `Unknown("cancelled")`. `sec serve` uses this to
    /// kill a portfolio job when its client disconnects.
    pub cancel: Option<CancellationToken>,
}

impl Default for PortfolioOptions {
    fn default() -> Self {
        PortfolioOptions {
            engines: EngineKind::ALL.to_vec(),
            timeout: Some(Duration::from_secs(600)),
            engine_timeout: None,
            seed: 0xEC98,
            bmc_depth: 64,
            node_limit: 16 << 20,
            traversal_node_limit: 4 << 20,
            progress_interval: None,
            obs: Obs::off(),
            cancel: None,
        }
    }
}

/// A structured progress event, emitted in wall-clock order. `at` is
/// the offset from the start of the race.
#[derive(Clone, Debug)]
pub enum ProgressEvent {
    /// An engine's worker thread began running.
    Started {
        /// The engine.
        engine: EngineKind,
        /// Offset from the start of the race.
        at: Duration,
    },
    /// An engine completed more coarse work units (refinement rounds,
    /// BMC frames, image steps) since its last event.
    Iteration {
        /// The engine.
        engine: EngineKind,
        /// Total work units completed so far.
        iterations: u64,
        /// Offset from the start of the race.
        at: Duration,
    },
    /// An engine finished with a verdict (definitive or not).
    Finished {
        /// The engine.
        engine: EngineKind,
        /// `"equivalent"`, `"inequivalent"`, or the `Unknown` reason.
        verdict: String,
        /// Offset from the start of the race.
        at: Duration,
        /// Peak live BDD nodes (0 for SAT-only engines).
        peak_bdd_nodes: usize,
        /// SAT conflicts (0 for BDD-only engines).
        sat_conflicts: u64,
    },
    /// The first definitive verdict arrived; the remaining engines were
    /// asked to stop.
    Cancelling {
        /// The winning engine.
        winner: EngineKind,
        /// Offset from the start of the race.
        at: Duration,
    },
    /// The global deadline passed with no definitive verdict; every
    /// still-running engine was asked to stop.
    GlobalTimeout {
        /// Offset from the start of the race.
        at: Duration,
    },
}

/// What one engine reported when it finished.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// The engine.
    pub engine: EngineKind,
    /// Its verdict — sound, but only [`Verdict::Equivalent`] and
    /// [`Verdict::Inequivalent`] are definitive.
    pub verdict: Verdict,
    /// Coarse work units completed (refinement rounds, frames, image
    /// steps).
    pub iterations: u64,
    /// Equivalence classes created by counterexample-guided splitting
    /// (0 for the BMC and traversal engines).
    pub splits: u64,
    /// Peak live BDD nodes.
    pub peak_bdd_nodes: usize,
    /// SAT conflicts.
    pub sat_conflicts: u64,
    /// SAT solvers constructed (one per fixed point in incremental
    /// mode, one per round in rebuild mode).
    pub sat_solver_constructions: u64,
    /// Individual SAT solve calls.
    pub sat_solver_calls: u64,
    /// The engine's own wall-clock time.
    pub time: Duration,
}

impl EngineReport {
    /// The canonical JSON object of the report, built on the same
    /// [`JsonObject`] the `sec-core` stats renderer uses. Counterexample
    /// traces are not embedded — the race's winning verdict carries the
    /// trace; per-engine reports only label their outcome.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new().str("name", self.engine.name());
        obj = match &self.verdict {
            Verdict::Equivalent => obj.str("verdict", "equivalent"),
            Verdict::Inequivalent(_) => obj.str("verdict", "inequivalent"),
            Verdict::Unknown(reason) => obj.str("verdict", "unknown").str("reason", reason),
            _ => obj.str("verdict", "unknown"),
        };
        obj.u64("iterations", self.iterations)
            .u64("splits", self.splits)
            .usize("peak_bdd_nodes", self.peak_bdd_nodes)
            .u64("sat_conflicts", self.sat_conflicts)
            .u64("sat_solver_constructions", self.sat_solver_constructions)
            .u64("sat_solver_calls", self.sat_solver_calls)
            .u64("time_ms", self.time.as_millis() as u64)
            .finish()
    }
}

/// The outcome of a portfolio race.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// The winning verdict, or `Unknown` with the per-engine reasons
    /// when no engine was definitive.
    pub verdict: Verdict,
    /// The engine that produced the winning verdict.
    pub winner: Option<EngineKind>,
    /// One report per lineup member, in lineup order.
    pub reports: Vec<EngineReport>,
    /// Every progress event, in the order it was observed.
    pub events: Vec<ProgressEvent>,
    /// Total wall-clock time of the race.
    pub time: Duration,
}

/// Whether a verdict decides the instance (and should win the race).
fn definitive(v: &Verdict) -> bool {
    !matches!(v, Verdict::Unknown(_))
}

/// Races the configured engine lineup on `spec` vs `impl_` and returns
/// the first definitive verdict.
///
/// # Errors
///
/// Returns [`SecError::Build`] when the interfaces mismatch or a
/// circuit is malformed — checked up front, before any engine starts.
pub fn run(spec: &Aig, impl_: &Aig, opts: &PortfolioOptions) -> Result<PortfolioResult, SecError> {
    run_with_events(spec, impl_, opts, |_| {})
}

/// Like [`run`], but invokes `on_event` for every [`ProgressEvent`] as
/// it is observed (from the orchestrator thread, in order).
///
/// # Errors
///
/// Returns [`SecError::Build`] when the interfaces mismatch or a
/// circuit is malformed.
pub fn run_with_events(
    spec: &Aig,
    impl_: &Aig,
    opts: &PortfolioOptions,
    mut on_event: impl FnMut(&ProgressEvent),
) -> Result<PortfolioResult, SecError> {
    // Validate once, up front, so engine threads cannot fail to build.
    check_circuit(spec).map_err(BuildError::from)?;
    check_circuit(impl_).map_err(BuildError::from)?;
    ProductMachine::build(spec, impl_).map_err(BuildError::from)?;

    // Tee a race-wide recorder *before* the per-engine scoping below,
    // so every engine's counters accumulate into it and the terminal
    // unscoped `stats.snapshot` covers the whole race. Zero cost when
    // observability is off.
    let race_recorder = Recorder::new();
    let teed;
    let opts = if opts.obs.is_enabled() {
        teed = PortfolioOptions {
            obs: opts.obs.and_sink(Arc::new(race_recorder.clone())),
            ..opts.clone()
        };
        &teed
    } else {
        opts
    };

    let start = Instant::now();
    let global_deadline = opts.timeout.map(|t| start + t);
    let engine_budget = match (opts.engine_timeout, opts.timeout) {
        (Some(e), Some(g)) => Some(e.min(g)),
        (Some(e), None) => Some(e),
        (None, g) => g,
    };
    let token = CancellationToken::new();
    let obs = &opts.obs;
    event!(obs, "race.start", engines = lineup_names(&opts.engines));

    let mut events: Vec<ProgressEvent> = Vec::new();
    let mut reports: Vec<EngineReport> = Vec::new();
    let mut winner: Option<EngineKind> = None;
    let mut final_verdict: Option<Verdict> = None;

    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Msg>();
        let counters: Vec<ProgressCounter> = opts
            .engines
            .iter()
            .map(|_| ProgressCounter::new())
            .collect();
        for (&engine, counter) in opts.engines.iter().zip(&counters) {
            let tx = tx.clone();
            let token = token.clone();
            let counter = counter.clone();
            event!(obs, "engine.spawn", engine = engine.name());
            // Everything the engine emits carries its name.
            let eobs = opts.obs.scoped(engine.name());
            s.spawn(move || {
                let _ = tx.send(Msg::Started(engine, start.elapsed()));
                let report = run_engine(
                    engine,
                    spec,
                    impl_,
                    opts,
                    &token,
                    &counter,
                    engine_budget,
                    eobs,
                );
                let _ = tx.send(Msg::Done(Box::new(report), start.elapsed()));
            });
        }
        drop(tx);

        let mut last_seen: Vec<u64> = vec![0; counters.len()];
        let mut timed_out = false;
        let mut externally_cancelled = false;
        let mut remaining = opts.engines.len();
        while remaining > 0 {
            let msg = rx.recv_timeout(Duration::from_millis(20));
            // Surface iteration progress regardless of what woke us.
            let at = start.elapsed();
            for ((&engine, counter), seen) in opts.engines.iter().zip(&counters).zip(&mut last_seen)
            {
                let now = counter.get();
                if now > *seen {
                    *seen = now;
                    let ev = ProgressEvent::Iteration {
                        engine,
                        iterations: now,
                        at,
                    };
                    on_event(&ev);
                    events.push(ev);
                }
            }
            match msg {
                Ok(Msg::Started(engine, at)) => {
                    let ev = ProgressEvent::Started { engine, at };
                    on_event(&ev);
                    events.push(ev);
                }
                Ok(Msg::Done(report, at)) => {
                    remaining -= 1;
                    let ev = ProgressEvent::Finished {
                        engine: report.engine,
                        verdict: verdict_label(&report.verdict),
                        at,
                        peak_bdd_nodes: report.peak_bdd_nodes,
                        sat_conflicts: report.sat_conflicts,
                    };
                    event!(
                        obs,
                        "engine.verdict",
                        engine = report.engine.name(),
                        verdict = verdict_label(&report.verdict),
                        iterations = report.iterations
                    );
                    on_event(&ev);
                    events.push(ev);
                    if winner.is_none() && definitive(&report.verdict) {
                        winner = Some(report.engine);
                        final_verdict = Some(report.verdict.clone());
                        token.cancel();
                        event!(obs, "race.cancel", winner = report.engine.name());
                        let ev = ProgressEvent::Cancelling {
                            winner: report.engine,
                            at: start.elapsed(),
                        };
                        on_event(&ev);
                        events.push(ev);
                    }
                    reports.push(*report);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            // External cancellation (e.g. the serve client hung up):
            // trip the internal token so every engine winds down.
            if !externally_cancelled && winner.is_none() {
                if let Some(ext) = &opts.cancel {
                    if ext.is_cancelled() {
                        externally_cancelled = true;
                        token.cancel();
                        event!(obs, "race.cancelled");
                    }
                }
            }
            // Belt and braces: each engine carries its own deadline, but
            // the orchestrator also enforces the global one so a race
            // never outlives its budget by more than a poll interval.
            if !timed_out && winner.is_none() {
                if let Some(end) = global_deadline {
                    if Instant::now() >= end {
                        timed_out = true;
                        token.cancel();
                        event!(obs, "race.timeout");
                        let ev = ProgressEvent::GlobalTimeout {
                            at: start.elapsed(),
                        };
                        on_event(&ev);
                        events.push(ev);
                    }
                }
            }
        }
    });

    // Lineup order, for deterministic reports independent of finish
    // order.
    reports.sort_by_key(|r| {
        opts.engines
            .iter()
            .position(|&e| e == r.engine)
            .unwrap_or(usize::MAX)
    });

    let verdict = match final_verdict {
        Some(v) => v,
        None => Verdict::Unknown(degradation_reason(&reports)),
    };
    // Terminal unscoped snapshot: a trace of the race is self-contained
    // (includes every engine's counters via the shared recorder).
    emit_snapshot(obs, &race_recorder, "race");
    event!(
        obs,
        "race.end",
        winner = winner.map(|w| w.name()).unwrap_or("none"),
        verdict = verdict_label(&verdict)
    );
    Ok(PortfolioResult {
        verdict,
        winner,
        reports,
        events,
        time: start.elapsed(),
    })
}

fn lineup_names(engines: &[EngineKind]) -> String {
    engines
        .iter()
        .map(|e| e.name())
        .collect::<Vec<_>>()
        .join(",")
}

enum Msg {
    Started(EngineKind, Duration),
    Done(Box<EngineReport>, Duration),
}

fn verdict_label(v: &Verdict) -> String {
    match v {
        Verdict::Equivalent => "equivalent".to_string(),
        Verdict::Inequivalent(_) => "inequivalent".to_string(),
        Verdict::Unknown(r) => format!("unknown: {r}"),
        // `Verdict` is non-exhaustive; treat future refinements as
        // non-definitive until this crate learns about them.
        _ => "unknown".to_string(),
    }
}

/// The `Unknown` reason when every engine dropped out.
fn degradation_reason(reports: &[EngineReport]) -> String {
    let parts: Vec<String> = reports
        .iter()
        .filter_map(|r| match &r.verdict {
            Verdict::Unknown(reason) => Some(format!("{}: {}", r.engine, reason)),
            _ => None,
        })
        .collect();
    format!("no engine was definitive — {}", parts.join("; "))
}

/// Copies every stat a [`CheckStats`](sec_core::CheckStats) carries
/// into the report — the single place where the two schemas meet.
fn fill_from_stats(report: &mut EngineReport, stats: &sec_core::CheckStats) {
    report.iterations = stats.iterations as u64;
    report.splits = stats.splits;
    report.peak_bdd_nodes = stats.peak_bdd_nodes;
    report.sat_conflicts = stats.sat_conflicts;
    report.sat_solver_constructions = stats.sat_solver_constructions as u64;
    report.sat_solver_calls = stats.sat_solver_calls;
}

/// Runs one engine to completion (or cancellation) on the caller's
/// thread.
#[allow(clippy::too_many_arguments)]
fn run_engine(
    engine: EngineKind,
    spec: &Aig,
    impl_: &Aig,
    opts: &PortfolioOptions,
    token: &CancellationToken,
    counter: &ProgressCounter,
    budget: Option<Duration>,
    obs: Obs,
) -> EngineReport {
    let t0 = Instant::now();
    let mut report = EngineReport {
        engine,
        verdict: Verdict::Unknown("not run".to_string()),
        iterations: 0,
        splits: 0,
        peak_bdd_nodes: 0,
        sat_conflicts: 0,
        sat_solver_constructions: 0,
        sat_solver_calls: 0,
        time: Duration::ZERO,
    };
    match engine {
        EngineKind::BddCorr | EngineKind::SatCorr => {
            let copts = OptionsBuilder::new()
                .backend(if engine == EngineKind::BddCorr {
                    Backend::Bdd
                } else {
                    Backend::Sat
                })
                .seed(opts.seed)
                .node_limit(opts.node_limit)
                .timeout(budget)
                // Refutation belongs to the dedicated BMC engine, so a
                // win always names the method that decided.
                .sim_refute(false)
                .bmc_depth(0)
                .cancel(Some(token.clone()))
                .progress(Some(counter.clone()))
                .progress_interval(opts.progress_interval)
                .obs(obs)
                .build();
            match Checker::new(spec, impl_, copts) {
                Ok(checker) => {
                    let r = checker.run();
                    report.verdict = r.verdict;
                    fill_from_stats(&mut report, &r.stats);
                }
                Err(e) => report.verdict = Verdict::Unknown(format!("build error: {e}")),
            }
        }
        EngineKind::Bmc => {
            let copts = OptionsBuilder::new()
                .seed(opts.seed)
                .bmc_depth(opts.bmc_depth.max(1))
                .timeout(budget)
                .cancel(Some(token.clone()))
                .progress(Some(counter.clone()))
                .progress_interval(opts.progress_interval)
                .obs(obs)
                .build();
            match bmc_refute(spec, impl_, &copts) {
                Ok(r) => {
                    report.verdict = r.verdict;
                    fill_from_stats(&mut report, &r.stats);
                }
                Err(e) => report.verdict = Verdict::Unknown(format!("build error: {e}")),
            }
        }
        EngineKind::Traversal => {
            let topts = TraversalOptions {
                node_limit: opts.traversal_node_limit,
                max_iterations: usize::MAX,
                register_correspondence: true,
                sift: false,
                timeout: budget,
                cancel: Some(token.clone()),
                progress: Some(counter.clone()),
                progress_interval: opts.progress_interval,
                obs,
            };
            match check_equivalence(spec, impl_, &topts) {
                Ok((outcome, stats)) => {
                    report.verdict = match outcome {
                        TraversalOutcome::Equivalent => Verdict::Equivalent,
                        TraversalOutcome::Inequivalent(trace) => Verdict::Inequivalent(trace),
                        TraversalOutcome::ResourceOut(reason) => Verdict::Unknown(reason),
                    };
                    report.iterations = stats.iterations as u64;
                    report.peak_bdd_nodes = stats.peak_nodes;
                }
                Err(e) => report.verdict = Verdict::Unknown(format!("build error: {e}")),
            }
        }
    }
    report.time = t0.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gen::{counter, CounterKind};

    #[test]
    fn engine_names_round_trip() {
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::from_name(e.name()), Some(e));
            assert_eq!(e.to_string(), e.name());
        }
        assert_eq!(EngineKind::from_name("nope"), None);
    }

    #[test]
    fn identical_circuits_are_proven_by_some_engine() {
        let spec = counter(4, CounterKind::Binary);
        let r = run(&spec, &spec.clone(), &PortfolioOptions::default()).unwrap();
        assert_eq!(r.verdict, Verdict::Equivalent);
        let w = r.winner.expect("a definitive verdict names its engine");
        assert_ne!(w, EngineKind::Bmc, "BMC cannot prove equivalence");
        assert_eq!(r.reports.len(), 4);
    }

    #[test]
    fn build_error_surfaces_before_any_engine_runs() {
        let a = counter(4, CounterKind::Binary);
        let mut b = counter(4, CounterKind::Binary);
        b.add_input("extra");
        let e = run(&a, &b, &PortfolioOptions::default()).unwrap_err();
        assert!(matches!(e, SecError::Build(BuildError::Product(_))));
    }

    #[test]
    fn empty_lineup_degrades_to_unknown() {
        let spec = counter(3, CounterKind::Binary);
        let opts = PortfolioOptions {
            engines: vec![],
            ..PortfolioOptions::default()
        };
        let r = run(&spec, &spec.clone(), &opts).unwrap();
        assert!(matches!(r.verdict, Verdict::Unknown(_)));
        assert!(r.winner.is_none());
    }

    #[test]
    fn events_are_emitted_in_order() {
        let spec = counter(4, CounterKind::Binary);
        let mut n = 0usize;
        let r = run_with_events(&spec, &spec.clone(), &PortfolioOptions::default(), |_| {
            n += 1;
        })
        .unwrap();
        assert_eq!(n, r.events.len());
        // Every engine must have a Started and a Finished event.
        for e in EngineKind::ALL {
            assert!(r
                .events
                .iter()
                .any(|ev| matches!(ev, ProgressEvent::Started { engine, .. } if *engine == e)));
            assert!(r
                .events
                .iter()
                .any(|ev| matches!(ev, ProgressEvent::Finished { engine, .. } if *engine == e)));
        }
        // Exactly one Cancelling event, naming the winner.
        let cancels: Vec<_> = r
            .events
            .iter()
            .filter_map(|ev| match ev {
                ProgressEvent::Cancelling { winner, .. } => Some(*winner),
                _ => None,
            })
            .collect();
        assert_eq!(cancels, vec![r.winner.unwrap()]);
    }
}
