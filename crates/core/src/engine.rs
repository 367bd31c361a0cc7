//! The checker: the outer loop of the paper's Fig. 4.
//!
//! 1. Compute the maximum signal correspondence relation (backend fixed
//!    point over the current signal set `F`).
//! 2. If all output pairs fall into common classes, the circuits are
//!    sequentially equivalent (Theorem 1) — stop.
//! 3. Otherwise extend `F` with lag-1 forward-retiming logic and repeat;
//!    when the extension adds nothing new, the method gives up:
//!    bounded model checking then tries to produce a real counterexample,
//!    and failing that the verdict is `Unknown` (the method is sound but
//!    incomplete).

use crate::bdd_backend;
use crate::bmc::bounded_check;
use crate::context::{Abort, Deadline};
use crate::error::SecError;
use crate::options::{Backend, Options, SignalScope};
use crate::partition::{Partition, PartitionSnapshot};
use crate::result::{CheckResult, CheckStats, Verdict};
use crate::retime_ext::extend_retimed;
use crate::sat_backend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sec_netlist::{
    check as check_circuit, Aig, CheckError, ProductError, ProductMachine, Side, Var,
};
use sec_obs::{emit_snapshot, event, Counter, Gauge, Recorder};
use sec_sim::{eval_single, first_output_mismatch, Signatures, Trace};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Error constructing a [`Checker`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The circuit interfaces do not match.
    Product(ProductError),
    /// One of the circuits is malformed (e.g. an undriven register).
    Circuit(CheckError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Product(e) => write!(f, "{e}"),
            BuildError::Circuit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ProductError> for BuildError {
    fn from(e: ProductError) -> BuildError {
        BuildError::Product(e)
    }
}

impl From<CheckError> for BuildError {
    fn from(e: CheckError) -> BuildError {
        BuildError::Circuit(e)
    }
}

/// The sequential equivalence checker.
///
/// # Examples
///
/// ```
/// use sec_core::{Checker, Options, Verdict};
/// use sec_gen::{counter, CounterKind};
/// use sec_synth::{forward_retime, RetimeOptions};
///
/// let spec = counter(6, CounterKind::Binary);
/// let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
/// let result = Checker::new(&spec, &imp, Options::default())?.run();
/// assert_eq!(result.verdict, Verdict::Equivalent);
/// # Ok::<(), sec_core::SecError>(())
/// ```
#[derive(Debug)]
pub struct Checker {
    spec: Aig,
    impl_: Aig,
    pm: ProductMachine,
    sides: Vec<Option<Side>>,
    opts: Options,
}

impl Checker {
    /// Builds a checker for the given specification/implementation pair.
    ///
    /// # Errors
    ///
    /// Returns [`SecError::Build`] when the interfaces mismatch or a
    /// circuit is malformed.
    pub fn new(spec: &Aig, impl_: &Aig, opts: Options) -> Result<Checker, SecError> {
        check_circuit(spec).map_err(BuildError::from)?;
        check_circuit(impl_).map_err(BuildError::from)?;
        let pm = ProductMachine::build(spec, impl_).map_err(BuildError::from)?;
        let sides = pm.side_of.clone();
        Ok(Checker {
            spec: spec.clone(),
            impl_: impl_.clone(),
            pm,
            sides,
            opts,
        })
    }

    fn seed_partition(&self, aig: &Aig) -> Partition {
        seed_partition(aig, &self.opts)
    }

    /// Percentage of original specification signals (gates and registers)
    /// whose class contains an implementation signal — the paper's
    /// `eqs (%)` column.
    fn eqs_percent(&self, partition: &Partition) -> f64 {
        let mut total = 0usize;
        let mut matched = 0usize;
        for v in self.pm.aig.vars() {
            if self.sides.get(v.index()).copied().flatten() != Some(Side::Spec) {
                continue;
            }
            if !(self.pm.aig.is_and(v) || self.pm.aig.is_latch(v)) {
                continue;
            }
            total += 1;
            if let Some(ci) = partition.class_of(v) {
                let has_impl = partition
                    .class(ci)
                    .iter()
                    .any(|&m| self.sides.get(m.index()).copied().flatten() == Some(Side::Impl));
                if has_impl {
                    matched += 1;
                }
            }
        }
        if total == 0 {
            100.0
        } else {
            100.0 * matched as f64 / total as f64
        }
    }

    /// Runs the check to a verdict.
    pub fn run(self) -> CheckResult {
        self.run_seeded(None).0
    }

    /// Runs the check, optionally seeding the initial partition from a
    /// snapshot of an earlier run, and returns the final partition
    /// snapshot alongside the verdict.
    ///
    /// The seed is applied by *intersecting* it with the fresh
    /// simulation-seeded partition ([`Partition::refine_by_snapshot`]),
    /// which is sound from any starting point: splitting never merges,
    /// and only the verified fixed-point check proves equivalence. A
    /// seed taken over a different node numbering (mismatched
    /// `num_nodes`) is ignored; callers wanting a stronger guarantee
    /// gate on [`sec_netlist::ordered_digest`] equality of the inputs.
    ///
    /// The returned snapshot captures the partition at the end of the
    /// run — the proven correspondence relation when the verdict is
    /// `Equivalent` — and is empty when the run refuted by simulation
    /// before any partition was built. `sec serve` persists it per
    /// structural fingerprint to warm-start future checks.
    pub fn run_seeded(
        mut self,
        seed: Option<&PartitionSnapshot>,
    ) -> (CheckResult, PartitionSnapshot) {
        let start = Instant::now();
        // Tee an in-memory recorder behind whatever sinks the caller
        // configured: every backend reads `opts.obs`, so the same
        // counters feed both the event stream and the derived stats.
        let recorder = Recorder::new();
        self.opts.obs = self.opts.obs.and_sink(Arc::new(recorder.clone()));
        let obs = self.opts.obs.clone();
        let backend_name = match self.opts.backend {
            Backend::Bdd => "bdd",
            Backend::Sat => "sat",
        };
        event!(
            obs,
            "check.start",
            backend = backend_name,
            signals = self.pm.aig.num_nodes(),
            latches = self.pm.aig.num_latches(),
            output_pairs = self.pm.output_pairs.len()
        );
        let deadline = Deadline::new(self.opts.timeout)
            .with_token(self.opts.cancel.as_ref())
            .with_progress(self.opts.progress.as_ref());
        let mut stats = CheckStats::default();

        // Cheap refutation first: lockstep random simulation.
        if self.opts.sim_refute {
            for k in 0..3u64 {
                let t = Trace::random(self.spec.num_inputs(), 64, self.opts.seed ^ (k << 32) | 1);
                if first_output_mismatch(&self.spec, &self.impl_, &t).is_some() {
                    stats.time = start.elapsed();
                    event!(
                        obs,
                        "check.end",
                        verdict = "inequivalent",
                        by = "simulation"
                    );
                    return (
                        CheckResult {
                            verdict: Verdict::Inequivalent(t),
                            stats,
                        },
                        PartitionSnapshot::empty(),
                    );
                }
            }
        }

        let approx_latches: Option<Vec<usize>> =
            if self.opts.approx_reach && self.opts.backend == Backend::Bdd {
                Some(
                    self.pm
                        .aig
                        .latches()
                        .iter()
                        .enumerate()
                        .filter(|(_, &v)| self.sides[v.index()] == Some(Side::Spec))
                        .map(|(i, _)| i)
                        .collect(),
                )
            } else {
                None
            };

        let mut partition = self.seed_partition(&self.pm.aig);
        if let Some(snap) = seed.filter(|s| !s.is_empty()) {
            let applied = partition.refine_by_snapshot(snap);
            event!(
                obs,
                "partition.seed_reuse",
                applied = applied,
                classes = partition.num_classes(),
                snapshot_classes = snap.classes.len()
            );
        }
        let mut aborted: Option<Abort> = None;
        let mut proven = false;
        let mut retimes = 0usize;

        loop {
            let pairs = self.pm.output_pairs.clone();
            let result = match self.opts.backend {
                Backend::Bdd => bdd_backend::run_fixed_point(
                    &self.pm.aig,
                    &mut partition,
                    &self.opts,
                    &deadline,
                    approx_latches.as_deref(),
                    &pairs,
                ),
                Backend::Sat => sat_backend::run_fixed_point(
                    &self.pm.aig,
                    &mut partition,
                    &self.opts,
                    &deadline,
                    &pairs,
                ),
            };
            match result {
                Ok(true) => {
                    proven = true;
                    break;
                }
                Ok(false) => {}
                Err(abort) => {
                    aborted = Some(abort);
                    break;
                }
            }
            if retimes >= self.opts.retime_rounds || self.opts.scope == SignalScope::RegistersOnly {
                break;
            }
            let created = extend_retimed(&mut self.pm.aig, &mut self.sides);
            if created.is_empty() {
                break;
            }
            retimes += 1;
            obs.add(Counter::RetimeExtensions, 1);
            event!(obs, "retime.extend", added = created.len());
            partition = self.seed_partition(&self.pm.aig);
        }

        let verdict = if proven {
            Verdict::Equivalent
        } else {
            // Try to refute within the BMC bound; otherwise report why we
            // could not decide. The fallback shares the run's recorder,
            // so its frames and SAT work show up in the stats below.
            let refuted = if self.opts.bmc_depth > 0 {
                bounded_check(
                    &self.pm,
                    self.opts.bmc_depth,
                    &deadline,
                    &obs,
                    self.opts.progress_interval,
                )
                .unwrap_or_default()
            } else {
                None
            };
            match (refuted, aborted) {
                (Some(trace), _) => Verdict::Inequivalent(trace),
                (None, Some(abort)) => Verdict::Unknown(abort.reason()),
                (None, None) => Verdict::Unknown(
                    "fixed point reached, outputs not in common classes (method incomplete)"
                        .to_string(),
                ),
            }
        };

        // Everything countable is derived from the recorder — after the
        // BMC fallback, so its solver work is included.
        stats.iterations = recorder.counter(Counter::Rounds) as usize;
        stats.retime_invocations = recorder.counter(Counter::RetimeExtensions) as usize;
        stats.splits = recorder.counter(Counter::Splits);
        stats.peak_bdd_nodes = recorder.gauge(Gauge::PeakBddNodes) as usize;
        stats.sat_conflicts = recorder.counter(Counter::SatConflicts);
        stats.sat_solver_constructions = recorder.counter(Counter::SatSolverConstructions) as usize;
        stats.sat_solver_calls = recorder.counter(Counter::SatSolverCalls);
        stats.batched_calls = recorder.counter(Counter::BatchedCalls);
        stats.batch_pairs_decoded = recorder.counter(Counter::BatchPairsDecoded);
        stats.eqs_percent = self.eqs_percent(&partition);
        stats.classes = partition.num_classes();
        stats.signals = partition.num_signals();
        stats.time = start.elapsed();
        let verdict_name = match &verdict {
            Verdict::Equivalent => "equivalent",
            Verdict::Inequivalent(_) => "inequivalent",
            Verdict::Unknown(_) => "unknown",
        };
        // Flush the recorder's final counters, gauges and histograms
        // into the stream, so a `--trace-json` capture is
        // self-contained: `sec trace summary` reconstructs the stats
        // without in-process access to the recorder.
        emit_snapshot(&obs, &recorder, "check");
        event!(
            obs,
            "check.end",
            verdict = verdict_name,
            rounds = stats.iterations,
            classes = stats.classes,
            signals = stats.signals,
            eqs_percent = stats.eqs_percent
        );
        let snapshot = partition.snapshot();
        (CheckResult { verdict, stats }, snapshot)
    }
}

/// Computes the maximum signal correspondence relation of a single
/// circuit (typically a product machine) with the configured backend and
/// returns the final partition.
///
/// Exposed so tests, diagnostics, and benchmarks can compare the exact
/// fixed point across backends: SAT at any batch width and BDD must
/// all land on the *same* partition —
/// every counterexample-guided split preserves "the true relation
/// refines the current partition", so any fixed point reached is the
/// unique coarsest one refining the simulation seed.
///
/// # Errors
///
/// Returns [`SecError::Build`] for a malformed circuit, and
/// [`SecError::Cancelled`] / [`SecError::Timeout`] /
/// [`SecError::Resource`] when the run aborts.
pub fn correspondence_partition(aig: &Aig, opts: &Options) -> Result<Partition, SecError> {
    check_circuit(aig).map_err(BuildError::from)?;
    let deadline = Deadline::new(opts.timeout)
        .with_token(opts.cancel.as_ref())
        .with_progress(opts.progress.as_ref());
    let mut partition = seed_partition(aig, opts);
    let run = match opts.backend {
        Backend::Bdd => {
            bdd_backend::run_fixed_point(aig, &mut partition, opts, &deadline, None, &[])
        }
        Backend::Sat => sat_backend::run_fixed_point(aig, &mut partition, opts, &deadline, &[]),
    };
    match run {
        Ok(_) => Ok(partition),
        Err(abort) => Err(abort.into()),
    }
}

/// Builds the initial candidate partition of `aig`'s signals for the
/// configured options (simulation-seeded or single-class).
pub(crate) fn seed_partition(aig: &Aig, opts: &Options) -> Partition {
    let signals: Vec<Var> = match opts.scope {
        SignalScope::All => aig.vars().collect(),
        // Register correspondence: the constant joins so stuck
        // registers are detected, as in the original formulation.
        SignalScope::RegistersOnly => std::iter::once(Var::CONST)
            .chain(aig.latches().iter().copied())
            .collect(),
    };
    if opts.sim_cycles > 0 {
        // Simulate at least as long as the sequential depth of the
        // circuit, or signals separated by long register chains all
        // look constant-zero and the fixed point must split them one
        // counterexample (= one expensive iteration) at a time.
        let cycles = opts.sim_cycles.max(aig.num_latches() + 8).min(4096);
        let words = if cycles > 256 {
            1
        } else {
            opts.sim_words.max(1)
        };
        let sigs = Signatures::collect(aig, cycles, words, opts.seed);
        let classes = sigs.partition(signals);
        let phase: Vec<bool> = aig.vars().map(|v| sigs.ref_value(v)).collect();
        Partition::new(aig.num_nodes(), classes, phase)
    } else {
        // Reference point (s0, x0) with a seeded random input vector.
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let x0: Vec<bool> = (0..aig.num_inputs()).map(|_| rng.gen()).collect();
        let phase = eval_single(aig, &x0, &aig.initial_state());
        Partition::single_class(aig.num_nodes(), signals, phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gen::{counter, CounterKind};

    #[test]
    fn build_error_on_interface_mismatch() {
        let a = counter(4, CounterKind::Binary);
        let mut b = counter(4, CounterKind::Binary);
        b.add_input("extra");
        let e = Checker::new(&a, &b, Options::default()).unwrap_err();
        assert!(matches!(e, SecError::Build(BuildError::Product(_))));
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn build_error_on_undriven_latch() {
        let a = counter(4, CounterKind::Binary);
        let mut b = counter(4, CounterKind::Binary);
        // Same interface but a dangling latch.
        let _ = b.add_latch(false);
        let e = Checker::new(&a, &b, Options::default()).unwrap_err();
        assert!(matches!(e, SecError::Build(BuildError::Circuit(_))));
    }

    #[test]
    fn identical_circuits_proven() {
        let a = counter(5, CounterKind::Binary);
        let r = Checker::new(&a, &a.clone(), Options::default())
            .unwrap()
            .run();
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert!(r.stats.eqs_percent > 99.0);
        assert!(r.stats.iterations >= 1);
    }

    #[test]
    fn identical_circuits_proven_sat() {
        let a = counter(5, CounterKind::Gray);
        let r = Checker::new(&a, &a.clone(), Options::sat()).unwrap().run();
        assert_eq!(r.verdict, Verdict::Equivalent);
        assert_eq!(r.stats.peak_bdd_nodes, 0);
    }

    #[test]
    fn seeded_rerun_agrees_with_cold_run() {
        let a = counter(5, CounterKind::Binary);
        let (cold, snap) = Checker::new(&a, &a.clone(), Options::sat())
            .unwrap()
            .run_seeded(None);
        assert_eq!(cold.verdict, Verdict::Equivalent);
        assert!(!snap.is_empty());
        // Warm-starting from the proven partition must reach the same
        // verdict and the same final relation.
        let (warm, snap2) = Checker::new(&a, &a.clone(), Options::sat())
            .unwrap()
            .run_seeded(Some(&snap));
        assert_eq!(warm.verdict, Verdict::Equivalent);
        assert_eq!(snap, snap2);
        // A seed over a different node numbering is ignored, not
        // misapplied.
        let b = counter(6, CounterKind::Binary);
        let (other, _) = Checker::new(&b, &b.clone(), Options::sat())
            .unwrap()
            .run_seeded(Some(&snap));
        assert_eq!(other.verdict, Verdict::Equivalent);
    }

    #[test]
    fn different_init_refuted() {
        let a = counter(4, CounterKind::Binary);
        let b = sec_synth::mutate(&a, sec_synth::Mutation::FlipInit(0));
        let r = Checker::new(&a, &b, Options::default()).unwrap().run();
        match r.verdict {
            Verdict::Inequivalent(trace) => {
                assert!(sec_sim::first_output_mismatch(&a, &b, &trace).is_some());
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod sift_tests {
    use super::*;
    use sec_gen::{counter, CounterKind};

    #[test]
    fn sift_option_still_proves() {
        let a = counter(6, CounterKind::Binary);
        let opts = Options {
            sift: true,
            ..Options::default()
        };
        let r = Checker::new(&a, &a.clone(), opts).unwrap().run();
        assert_eq!(r.verdict, Verdict::Equivalent);
    }

    #[test]
    fn registers_only_scope_proves_identical() {
        let a = counter(5, CounterKind::Johnson);
        let r = Checker::new(&a, &a.clone(), Options::register_correspondence())
            .unwrap()
            .run();
        assert_eq!(r.verdict, Verdict::Equivalent);
    }
}
