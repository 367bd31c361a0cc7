//! Configuration of the signal-correspondence checker.

use sec_limits::{CancellationToken, ProgressCounter};
use sec_obs::Obs;
use std::time::Duration;

/// Which engine performs the combinational checks of the fixed-point
/// iteration.
///
/// Non-exhaustive: future backends must not be breaking changes, so
/// downstream `match`es need a wildcard arm (see `docs/API.md`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum Backend {
    /// BDDs over state and input variables, as in the paper's original
    /// implementation.
    Bdd,
    /// A CDCL SAT solver over a two-frame Tseitin unrolling — the
    /// "introduction of extra variables representing intermediate
    /// signals" the paper's conclusion anticipates (and what modern
    /// `scorr`-style tools do). Every fixed point runs its rounds one
    /// after another over a single solver on the calling thread, each
    /// round ending at its first counterexample. By default the solver
    /// persists across refinement rounds ([`Options::sat_incremental`]);
    /// rebuilding it each round is the [`Options::sat_monolithic`]
    /// ablation baseline and the conflict-budget fall-back mode.
    Sat,
}

/// Which signals participate in the correspondence relation.
///
/// Non-exhaustive for the same reason as [`Backend`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum SignalScope {
    /// Every signal of the product machine — the paper's method.
    All,
    /// Registers only — the *register correspondence* of van Eijk & Jess
    /// (IWLS'95) / Filkorn, which the paper generalizes. Sufficient for
    /// purely combinational resynthesis, defeated by retiming; exposed
    /// here as the historical ablation.
    RegistersOnly,
}

/// Options of the [`Checker`](crate::Checker).
///
/// The struct is `#[non_exhaustive]`: construct it through a preset
/// ([`Options::default`], [`Options::sat`], …) or the fluent
/// [`Options::builder`] and adjust public fields in place — new knobs
/// then stop being breaking changes for downstream crates (see
/// `docs/API.md` for the migration pattern).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Options {
    /// The combinational-check engine.
    pub backend: Backend,
    /// Which signals enter the set `F`.
    pub scope: SignalScope,
    /// RNG seed (reference input vector, simulation patterns).
    pub seed: u64,
    /// Cycles of random sequential simulation used to seed the candidate
    /// partition (paper Sec. 4). `0` disables seeding: the iteration then
    /// starts from the single all-signals class.
    pub sim_cycles: usize,
    /// 64-bit words of parallel simulation patterns per cycle.
    pub sim_words: usize,
    /// Maximum number of lag-1 retiming-extension invocations (the outer
    /// loop of the paper's Fig. 4). `0` disables the extension.
    pub retime_rounds: usize,
    /// BDD node budget (BDD backend only) — the stand-in for the original
    /// 100 MB memory limit.
    pub node_limit: usize,
    /// Wall-clock budget (the original experiments used 3600 s).
    pub timeout: Option<Duration>,
    /// Exploit functional dependencies of the correspondence condition by
    /// substituting state variables with class-representative functions
    /// (paper Sec. 4; BDD backend only).
    pub functional_deps: bool,
    /// Strengthen the correspondence condition with a machine-by-machine
    /// over-approximation of the specification's reachable state space
    /// (paper Sec. 3, after Cho et al.; BDD backend only).
    pub approx_reach: bool,
    /// Latch-group size for the reachability over-approximation.
    pub approx_group: usize,
    /// Depth of the bounded-model-checking fallback used to turn "not
    /// proven" into a concrete counterexample when possible. `0` disables
    /// BMC (the verdict is then `Unknown` when the method fails, exactly
    /// like the original tool).
    pub bmc_depth: usize,
    /// Run sifting-based reordering when the BDD table grows (BDD backend
    /// only).
    pub sift: bool,
    /// Incremental SAT fixed point (SAT backend only): the solver
    /// persists across all refinement rounds, guarding each round's
    /// correspondence condition `Q` behind an activation literal that
    /// is retracted (a unit `¬act`) at the next round start. Learned
    /// clauses and variable activities survive every round. `false`
    /// selects **rebuild mode**: the solver is re-cloned from the base
    /// encoding at each round start, so nothing learnt outlives its
    /// round.
    pub sat_incremental: bool,
    /// 64-bit words of bit-parallel counterexample amplification per
    /// satisfiable SAT query (SAT backend only): the witness plus
    /// `64*w - 1` bit-flipped neighbours are simulated in one pass and
    /// every `Q`-satisfying pattern refines the partition, so one
    /// solver call typically splits many classes; the patterns then
    /// step on frame by frame while later frames still split. `0`
    /// disables amplification and the cascade (single-witness
    /// splitting).
    pub sat_amplify_words: usize,
    /// Per-query conflict budget of the incremental SAT mode. When a
    /// query exhausts it, the run drops the budget and redoes the
    /// round in rebuild mode from the round-start partition — never
    /// misreading the budgeted query as "unsatisfiable". `None` means
    /// no budget.
    pub sat_conflict_budget: Option<u64>,
    /// Layer 3 of the reduction pipeline (SAT backend only): batch up
    /// to this many candidate-pair equality queries, in every round and
    /// in the exact `T0`, into one incremental solver call under a
    /// single assumption set. A batch literal `b` with the clause
    /// `¬b ∨ d₁ ∨ … ∨ dₖ` over the pairs' cached difference literals
    /// asks the solver for *any* pair the current correspondence
    /// condition fails to prove; `Unsat` proves all `k` pairs at once;
    /// `Sat` yields a witness, and its model says which pairs it
    /// separates (`batch_pairs_decoded`). A one-pair batch is a plain
    /// query on its difference literal, so `0` and `1` run the same
    /// per-pair queries. Calls on two or more pairs are counted by
    /// `batched_calls`. Off in [`Options::paper`], on in
    /// [`Options::sat`].
    pub batch_pairs: usize,
    /// Refute cheaply by lockstep random simulation before the fixed
    /// point (and use simulation counterexamples found during seeding).
    /// Portfolio runs disable this in engines whose role is proving, so
    /// refutation is attributed to the dedicated BMC engine.
    pub sim_refute: bool,
    /// Cooperative cancellation token shared with other engines; polled
    /// from every loop of the run. `None` means the run can only end by
    /// finishing or timing out.
    pub cancel: Option<CancellationToken>,
    /// Shared counter bumped once per refinement round / BMC frame, so
    /// an observer on another thread (the portfolio orchestrator) can
    /// emit live progress events.
    pub progress: Option<ProgressCounter>,
    /// Interval between `progress` heartbeat events emitted from the
    /// fixed-point/BMC hot loops through [`Options::obs`] (the CLI's
    /// `--progress[=SECS]` renders them as live stderr lines). `None`
    /// — the default — emits none and keeps the loops at one branch
    /// per poll.
    pub progress_interval: Option<Duration>,
    /// Observability handle (see [`sec_obs`]). The checker tees its own
    /// in-memory recorder onto whatever sinks this carries and derives
    /// [`CheckStats`](crate::CheckStats) from the recorded counters, so
    /// an NDJSON sink here sees exactly the events the stats are built
    /// from. The default [`Obs::off`] handle costs one branch per
    /// emission site.
    pub obs: Obs,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            backend: Backend::Bdd,
            scope: SignalScope::All,
            seed: 0xEC98,
            sim_cycles: 16,
            sim_words: 2,
            retime_rounds: 4,
            node_limit: 16 << 20,
            timeout: Some(Duration::from_secs(600)),
            functional_deps: true,
            approx_reach: false,
            approx_group: 8,
            bmc_depth: 16,
            sift: false,
            sat_incremental: true,
            sat_amplify_words: 1,
            sat_conflict_budget: None,
            batch_pairs: 0,
            sim_refute: true,
            cancel: None,
            progress: None,
            progress_interval: None,
            obs: Obs::off(),
        }
    }
}

impl Options {
    /// The configuration closest to the paper's reported setup: BDD
    /// backend, simulation seeding, retiming extension, functional
    /// dependencies on.
    pub fn paper() -> Options {
        Options::default()
    }

    /// SAT-backend configuration: an incremental solver,
    /// amplification on, and batched pair queries enabled.
    pub fn sat() -> Options {
        Options {
            backend: Backend::Sat,
            batch_pairs: 32,
            ..Options::default()
        }
    }

    /// SAT-backend configuration with the pre-incremental behaviour:
    /// rebuild mode (a fresh solver per refinement round)
    /// and single-witness splitting. The baseline the incremental mode
    /// is benchmarked against.
    pub fn sat_monolithic() -> Options {
        Options {
            backend: Backend::Sat,
            sat_incremental: false,
            sat_amplify_words: 0,
            ..Options::default()
        }
    }

    /// The predecessor technique: register correspondence only
    /// (van Eijk & Jess '95 / Filkorn '92), for ablations.
    pub fn register_correspondence() -> Options {
        Options {
            scope: SignalScope::RegistersOnly,
            // Retiming extension only adds gates, which this scope
            // ignores anyway.
            retime_rounds: 0,
            ..Options::default()
        }
    }

    /// A fluent builder starting from [`Options::default`]. Preset
    /// entry points ([`OptionsBuilder::sat`], [`OptionsBuilder::paper`],
    /// …) start from the corresponding preset instead.
    ///
    /// ```
    /// use sec_core::{Backend, Options};
    ///
    /// let opts = Options::builder().backend(Backend::Sat).batch_pairs(8).build();
    /// assert_eq!(opts.backend, Backend::Sat);
    /// assert_eq!(opts.batch_pairs, 8);
    /// ```
    pub fn builder() -> OptionsBuilder {
        OptionsBuilder::new()
    }
}

/// Generates one consuming-`self` setter per option field.
macro_rules! setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> Self {
                self.opts.$name = value;
                self
            }
        )+
    };
}

/// Fluent construction of [`Options`], the forward-compatible
/// alternative to struct literals now that `Options` is
/// `#[non_exhaustive]`.
///
/// Entry points mirror the presets; every public field has a setter.
///
/// ```
/// use sec_core::OptionsBuilder;
///
/// let opts = OptionsBuilder::sat().sat_amplify_words(2).build();
/// assert!(opts.sat_incremental);
/// assert_eq!(opts.sat_amplify_words, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct OptionsBuilder {
    opts: Options,
}

impl OptionsBuilder {
    /// Starts from [`Options::default`].
    pub fn new() -> OptionsBuilder {
        OptionsBuilder::default()
    }

    /// Starts from the [`Options::paper`] preset.
    pub fn paper() -> OptionsBuilder {
        OptionsBuilder {
            opts: Options::paper(),
        }
    }

    /// Starts from the [`Options::sat`] preset.
    pub fn sat() -> OptionsBuilder {
        OptionsBuilder {
            opts: Options::sat(),
        }
    }

    /// Starts from the [`Options::sat_monolithic`] preset.
    pub fn sat_monolithic() -> OptionsBuilder {
        OptionsBuilder {
            opts: Options::sat_monolithic(),
        }
    }

    /// Starts from the [`Options::register_correspondence`] preset.
    pub fn register_correspondence() -> OptionsBuilder {
        OptionsBuilder {
            opts: Options::register_correspondence(),
        }
    }

    setters! {
        /// Sets the combinational-check engine.
        backend: Backend,
        /// Sets which signals enter the set `F`.
        scope: SignalScope,
        /// Sets the RNG seed.
        seed: u64,
        /// Sets the simulation-seeding cycle count (`0` disables).
        sim_cycles: usize,
        /// Sets the simulation pattern width in 64-bit words.
        sim_words: usize,
        /// Sets the retiming-extension round cap (`0` disables).
        retime_rounds: usize,
        /// Sets the BDD node budget.
        node_limit: usize,
        /// Sets the wall-clock budget (`None` removes it).
        timeout: Option<Duration>,
        /// Enables/disables functional-dependency substitution.
        functional_deps: bool,
        /// Enables/disables the reachability over-approximation.
        approx_reach: bool,
        /// Sets the latch-group size of the over-approximation.
        approx_group: usize,
        /// Sets the BMC fallback depth (`0` disables).
        bmc_depth: usize,
        /// Enables/disables sifting-based BDD reordering.
        sift: bool,
        /// Enables/disables the incremental SAT fixed point (`false`
        /// selects rebuild mode; see [`Options::sat_incremental`]).
        sat_incremental: bool,
        /// Sets the amplification width in words (`0` disables).
        sat_amplify_words: usize,
        /// Sets the per-query conflict budget of the incremental mode.
        sat_conflict_budget: Option<u64>,
        /// Sets the batched-query width in pairs (`0`/`1` = per-pair
        /// queries; see [`Options::batch_pairs`]).
        batch_pairs: usize,
        /// Enables/disables cheap simulation refutation.
        sim_refute: bool,
        /// Attaches a cooperative cancellation token.
        cancel: Option<CancellationToken>,
        /// Attaches a shared progress counter.
        progress: Option<ProgressCounter>,
        /// Sets the heartbeat interval (`None` disables heartbeats).
        progress_interval: Option<Duration>,
        /// Attaches an observability handle.
        obs: Obs,
    }

    /// Finishes the build.
    pub fn build(self) -> Options {
        self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_like() {
        let o = Options::paper();
        assert_eq!(o.backend, Backend::Bdd);
        assert!(o.functional_deps);
        assert!(o.retime_rounds > 0);
        assert!(o.sim_cycles > 0);
    }

    #[test]
    fn sat_preset() {
        let o = Options::sat();
        assert_eq!(o.backend, Backend::Sat);
        assert!(o.sat_incremental);
        assert!(o.sat_amplify_words > 0);
        // Batched queries are on for the SAT preset…
        assert!(o.batch_pairs > 1);
    }

    #[test]
    fn sat_monolithic_preset() {
        let o = Options::sat_monolithic();
        assert_eq!(o.backend, Backend::Sat);
        assert!(!o.sat_incremental);
        assert_eq!(o.sat_amplify_words, 0);
    }

    #[test]
    fn paper_preset_keeps_pipeline_off() {
        // …and off everywhere else, so the paper-faithful and ablation
        // configurations keep the original per-pair behaviour.
        for o in [Options::paper(), Options::sat_monolithic()] {
            assert_eq!(o.batch_pairs, 0);
        }
    }
}
