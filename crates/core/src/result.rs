//! Verdicts and statistics.

use sec_sim::Trace;
use std::time::Duration;

/// The verdict of a sequential equivalence check.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm
/// so future verdict refinements are not breaking changes (see
/// `docs/API.md`).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Verdict {
    /// Equivalence proven: a signal correspondence relation covering all
    /// output pairs was found (sound — Theorem 1 of the paper).
    Equivalent,
    /// A concrete input trace distinguishes the circuits.
    Inequivalent(Trace),
    /// The method could not decide: it is sound but incomplete, and can
    /// also run out of resources (BDD nodes / time). The string says why.
    Unknown(String),
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent)
    }
}

/// Statistics of a [`Checker`](crate::Checker) run, mirroring the columns
/// of the paper's Table 1.
///
/// Every numeric field except the partition summary
/// (`eqs_percent`/`classes`/`signals`) and `time` is *derived* from the
/// run's [`sec_obs::Recorder`] — the same counters an NDJSON trace
/// (`--trace-json`) streams — so the event totals and the stats can
/// never drift apart. Field-by-field reference: `docs/STATS.md`.
#[derive(Clone, Debug, Default)]
pub struct CheckStats {
    /// Fixed-point refinement iterations, summed over retiming rounds
    /// (the paper's `#its`). Derived from the `rounds` counter, which is
    /// bumped at round *start* — an aborted round is counted, and the
    /// number of `round` events in a trace equals this field exactly.
    pub iterations: usize,
    /// Times the retiming extension added logic (the parenthesized number
    /// in the paper's `#its` column).
    pub retime_invocations: usize,
    /// Equivalence classes created by counterexample-guided splitting,
    /// summed over all rounds (the `splits` counter).
    pub splits: u64,
    /// Peak live BDD nodes (0 for the SAT backend).
    pub peak_bdd_nodes: usize,
    /// SAT conflicts, summed over every solver the run constructed —
    /// including the BMC-fallback solver, so a BDD-backend run that
    /// ends in BMC reports nonzero conflicts.
    pub sat_conflicts: u64,
    /// SAT solvers constructed: one per SAT fixed point, plus one for
    /// the BMC fallback when it runs.
    pub sat_solver_constructions: usize,
    /// Individual SAT solve calls across all constructed solvers.
    pub sat_solver_calls: u64,
    /// Batched pair-equality solver calls (the `batched_calls`
    /// counter; [`Options::batch_pairs`](crate::Options::batch_pairs)).
    pub batched_calls: u64,
    /// Candidate pairs a batched query's model separated, summed over
    /// all satisfiable batched calls (`batch_pairs_decoded`).
    pub batch_pairs_decoded: u64,
    /// Percentage of specification signals (gates and registers) whose
    /// final class contains an implementation signal (the paper's
    /// `eqs (%)`).
    pub eqs_percent: f64,
    /// Number of equivalence classes at the fixed point.
    pub classes: usize,
    /// Number of signals in the final set `F`.
    pub signals: usize,
    /// Wall-clock time.
    pub time: Duration,
}

/// Result of a run: verdict plus statistics.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// The verdict.
    pub verdict: Verdict,
    /// Run statistics.
    pub stats: CheckStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_predicates() {
        assert!(Verdict::Equivalent.is_equivalent());
        assert!(!Verdict::Unknown("x".into()).is_equivalent());
        assert!(!Verdict::Inequivalent(Trace::default()).is_equivalent());
    }
}
