//! # sec-obs — structured observability for the `sec` workspace
//!
//! Van Eijk's method lives or dies by its fixed-point trajectory: how
//! fast classes split, how many rounds the iteration takes, where
//! solver time goes. This crate is the measurement substrate every
//! engine reports through — a zero-dependency layer of
//!
//! * **scoped spans** — [`span!`]`(obs, "round", round = i)` opens a
//!   monotonic timer and emits one event with a `dur_us` field when the
//!   guard drops;
//! * **typed counters and gauges** — [`Counter`] / [`Gauge`] variants
//!   for refinement rounds, class splits, SAT conflicts, BDD nodes,
//!   cancellation polls, amplification hit-rates;
//! * **pluggable sinks** — the [`Sink`] trait with three shipped
//!   implementations: the *null* sink (the default [`Obs::off`] handle:
//!   one branch per call site, nothing allocated), the in-memory
//!   [`Recorder`] that `CheckStats`/`EngineReport` are derived from,
//!   and the [`NdjsonSink`] event-stream writer behind the CLI's
//!   `--trace-json`.
//!
//! An [`Obs`] handle is cheap to clone (an `Option<Arc>` plus a static
//! scope label) and safe to share across the portfolio's engine
//! threads. A disabled handle costs a null-check per call; a live one
//! additionally carries an atomic kill-switch
//! ([`Obs::set_enabled`]) so tracing can be muted without re-plumbing.
//!
//! ## Usage
//!
//! ```
//! use sec_obs::{event, span, Counter, Gauge, Obs, Recorder};
//! use std::sync::Arc;
//!
//! // Instrumented code takes an `Obs` and works unchanged when it is
//! // off — the default.
//! fn refine(obs: &Obs) {
//!     for round in 0..3u64 {
//!         let mut sp = span!(obs, "round", round = round);
//!         obs.add(Counter::Rounds, 1);
//!         obs.add(Counter::Splits, 2);
//!         sp.record("classes", 10 + round);
//!     }
//!     obs.gauge_max(Gauge::PeakBddNodes, 4096);
//!     event!(obs, "check.end", verdict = "equivalent");
//! }
//!
//! refine(&Obs::off()); // null sink: near-zero cost
//!
//! let rec = Recorder::with_events();
//! refine(&Obs::single(rec.clone()).scoped("bdd-corr"));
//! assert_eq!(rec.counter(Counter::Rounds), 3);
//! assert_eq!(rec.counter(Counter::Splits), 6);
//! assert_eq!(rec.gauge(Gauge::PeakBddNodes), 4096);
//! assert_eq!(rec.events().iter().filter(|e| e.name == "round").count(), 3);
//! ```
//!
//! The full NDJSON event schema is documented in `DESIGN.md §9`; the
//! derived statistics structs are documented field-by-field in
//! `docs/STATS.md`.

#![warn(missing_docs)]

mod json;
mod metrics;
mod ndjson;
mod recorder;
mod render;
mod sink;

pub use json::escape_json;
pub use metrics::{CounterHandle, HistogramHandle, MetricsRegistry, WINDOW_SECS};
pub use ndjson::{LineWriter, NdjsonSink};
pub use recorder::{EventRecord, HistogramSnapshot, Recorder};
pub use render::{format_value, heartbeat_line, HeartbeatSink};
pub use sink::{NullSink, Sink, TagSink};

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A field value attached to an event or span.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (owned, so events can outlive their call site).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

macro_rules! counters {
    ($(#[$em:meta])* enum $name:ident { $($(#[$m:meta])* $variant:ident => $text:literal,)* }) => {
        $(#[$em])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$m])* $variant,)*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// Number of variants (array-sizing constant).
            pub const COUNT: usize = $name::ALL.len();

            /// Stable snake_case name used in event streams and stats
            /// dumps.
            pub fn name(&self) -> &'static str {
                match self {
                    $($name::$variant => $text,)*
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

counters! {
    /// Monotonic counters every engine reports through. The
    /// [`Recorder`] accumulates them with relaxed atomics;
    /// `CheckStats`/`EngineReport` are *derived* from the accumulated
    /// values rather than hand-incremented.
    enum Counter {
        /// Fixed-point refinement rounds (one per `round` span).
        Rounds => "rounds",
        /// Equivalence classes created by counterexample splits.
        Splits => "splits",
        /// Lag-1 retiming extensions of the signal set.
        RetimeExtensions => "retime_extensions",
        /// SAT conflicts, summed over every solver of the run.
        SatConflicts => "sat_conflicts",
        /// SAT decisions.
        SatDecisions => "sat_decisions",
        /// SAT literal propagations.
        SatPropagations => "sat_propagations",
        /// SAT restarts.
        SatRestarts => "sat_restarts",
        /// SAT solvers constructed (one per fixed point in incremental
        /// mode, one per round in rebuild mode, plus one per BMC run).
        SatSolverConstructions => "sat_solver_constructions",
        /// Individual SAT solve calls.
        SatSolverCalls => "sat_solver_calls",
        /// BDD nodes allocated (unique-table insertions, not peak).
        BddNodesAllocated => "bdd_nodes_allocated",
        /// BDD garbage collections.
        BddGcRuns => "bdd_gc_runs",
        /// Cooperative cancellation/deadline polls observed by the SAT
        /// and BDD hot loops.
        CancellationPolls => "cancellation_polls",
        /// Bit-parallel amplification patterns simulated after
        /// satisfiable SAT queries.
        AmplifyPatterns => "amplify_patterns",
        /// Amplification words that refined the partition (the
        /// hit-rate numerator; `amplify_patterns / 64` is the
        /// denominator).
        AmplifyWordHits => "amplify_word_hits",
        /// BMC frames unrolled.
        BmcFrames => "bmc_frames",
        /// Symbolic-traversal image steps.
        TraversalImageSteps => "traversal_image_steps",
        /// Witnesses of SAT refinement rounds: a round ends at its
        /// first satisfiable query, so this is one per round that
        /// refined the partition.
        WorkerCexes => "worker_cexes",
        /// Batched pair-equality queries issued
        /// (`Options::batch_pairs`): one solver call covering several
        /// candidate pairs under one assumption set.
        BatchedCalls => "batched_calls",
        /// Candidate pairs separated by decoding the model of a
        /// satisfiable batched call.
        BatchPairsDecoded => "batch_pairs_decoded",
        /// Candidate pairs whose condition-2 query a SAT round skipped
        /// because the pair's two members hash to one literal in the
        /// round's speculatively reduced two-frame copy, summed over
        /// rounds.
        CongruentPairs => "congruent_pairs",
    }
}

counters! {
    /// High-water-mark gauges ([`Obs::gauge_max`] keeps the maximum).
    enum Gauge {
        /// Peak live BDD nodes across every manager of the run.
        PeakBddNodes => "peak_bdd_nodes",
    }
}

counters! {
    /// Log-bucketed latency histograms. [`Obs::observe`] records one
    /// sample; the [`Recorder`] accumulates power-of-two buckets with
    /// relaxed atomics (so portfolio threads sharing one recorder merge
    /// for free) and [`Recorder::histogram`] derives
    /// p50/p90/p99/max from them.
    enum Histogram {
        /// Wall-clock microseconds of one SAT solve call
        /// (`solve_with_assumptions`), budget-aborted calls included.
        SatCallUs => "sat_call_us",
        /// Wall-clock microseconds of one per-pair condition-2 check
        /// in the BDD backend's refinement loop. Building functions is
        /// not sampled here: the `bdd.build` span and each BDD `round`
        /// span's `build_us` field time it.
        BddOpUs => "bdd_op_us",
    }
}

/// The process-wide epoch all event timestamps are relative to, fixed
/// the first time any enabled handle needs it. One clock for the whole
/// process keeps the portfolio's per-engine streams mergeable by
/// timestamp.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct ObsInner {
    enabled: AtomicBool,
    sinks: Vec<Arc<dyn Sink>>,
}

/// A cheap, cloneable instrumentation handle.
///
/// The default handle ([`Obs::off`]) is the null sink: no allocation,
/// and every operation is a single branch on `inner.is_none()`. A live
/// handle fans events and counter updates out to its [`Sink`]s and
/// carries an atomic enabled flag that can mute it at runtime.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
    /// Attribution label stamped on every event as the `engine` field
    /// (the portfolio scopes each racer with its engine name).
    scope: Option<&'static str>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("scope", &self.scope)
            .finish()
    }
}

impl Obs {
    /// The disabled handle — the null sink. This is `Default`.
    pub fn off() -> Obs {
        Obs::default()
    }

    /// A handle feeding one sink.
    pub fn single(sink: impl Sink + 'static) -> Obs {
        Obs::multi(vec![Arc::new(sink)])
    }

    /// A handle fanning out to several sinks (e.g. an NDJSON stream
    /// *and* a recorder).
    pub fn multi(sinks: Vec<Arc<dyn Sink>>) -> Obs {
        if sinks.is_empty() {
            return Obs::off();
        }
        epoch(); // pin the clock before the first event
        Obs {
            inner: Some(Arc::new(ObsInner {
                enabled: AtomicBool::new(true),
                sinks,
            })),
            scope: None,
        }
    }

    /// A new handle with `sink` appended to this handle's fan-out (the
    /// checker uses this to tee its internal stats recorder with
    /// whatever the caller configured). The scope is preserved.
    pub fn and_sink(&self, sink: Arc<dyn Sink>) -> Obs {
        let mut sinks: Vec<Arc<dyn Sink>> = match &self.inner {
            Some(inner) => inner.sinks.clone(),
            None => Vec::new(),
        };
        sinks.push(sink);
        Obs {
            scope: self.scope,
            ..Obs::multi(sinks)
        }
    }

    /// A clone of this handle with events attributed to `scope`
    /// (serialized as the `engine` field).
    pub fn scoped(&self, scope: &'static str) -> Obs {
        Obs {
            inner: self.inner.clone(),
            scope: Some(scope),
        }
    }

    /// This handle's attribution label, if any.
    pub fn scope(&self) -> Option<&'static str> {
        self.scope
    }

    /// Whether events are currently observed. Call sites may use this
    /// to skip building fields; the [`event!`]/[`span!`] macros already
    /// do.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.enabled.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Mutes or unmutes a live handle (all clones see the change). A
    /// disabled-from-birth handle stays off.
    pub fn set_enabled(&self, enabled: bool) {
        if let Some(inner) = &self.inner {
            inner.enabled.store(enabled, Ordering::Relaxed);
        }
    }

    /// Emits a point event with the given fields.
    pub fn event(&self, name: &str, fields: &[(&'static str, Value)]) {
        if let Some(inner) = &self.inner {
            if inner.enabled.load(Ordering::Relaxed) {
                let at_us = epoch().elapsed().as_micros() as u64;
                for s in &inner.sinks {
                    s.event(at_us, self.scope, name, fields);
                }
            }
        }
    }

    /// Adds to a counter. `delta == 0` is accepted and forwarded (a
    /// recorder then still marks the counter as touched).
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        if let Some(inner) = &self.inner {
            if inner.enabled.load(Ordering::Relaxed) {
                for s in &inner.sinks {
                    s.add(counter, delta);
                }
            }
        }
    }

    /// Raises a high-water-mark gauge to at least `value`.
    #[inline]
    pub fn gauge_max(&self, gauge: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            if inner.enabled.load(Ordering::Relaxed) {
                for s in &inner.sinks {
                    s.gauge_max(gauge, value);
                }
            }
        }
    }

    /// Records one histogram sample (a latency in microseconds).
    #[inline]
    pub fn observe(&self, hist: Histogram, value: u64) {
        if let Some(inner) = &self.inner {
            if inner.enabled.load(Ordering::Relaxed) {
                for s in &inner.sinks {
                    s.observe(hist, value);
                }
            }
        }
    }

    /// Starts a latency measurement: `Some(now)` when enabled, `None`
    /// when disabled — the disabled path never reads the clock, keeping
    /// the null-sink cost at one branch per call site.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Completes a measurement started with [`Obs::timer`], recording
    /// the elapsed whole microseconds into `hist`.
    #[inline]
    pub fn observe_elapsed(&self, hist: Histogram, start: Option<Instant>) {
        if let Some(t0) = start {
            self.observe(hist, t0.elapsed().as_micros() as u64);
        }
    }

    /// Opens a span: a monotonic timer that emits one event named
    /// `name` with a `dur_us` field when the returned guard drops.
    /// Prefer the [`span!`] macro, which skips field construction on a
    /// disabled handle.
    pub fn span(&self, name: &'static str, fields: Vec<(&'static str, Value)>) -> Span {
        if self.is_enabled() {
            Span {
                obs: Some(self.clone()),
                name,
                start: Instant::now(),
                fields,
            }
        } else {
            Span::disabled()
        }
    }
}

/// A scoped-span guard: emits its event (with `dur_us`) on drop. Extra
/// fields learned during the span — splits found, classes after — are
/// attached with [`Span::record`].
#[must_use = "a span measures the scope it is dropped at the end of"]
pub struct Span {
    obs: Option<Obs>,
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, Value)>,
}

impl Span {
    /// A no-op guard (what [`span!`] returns on a disabled handle).
    pub fn disabled() -> Span {
        Span {
            obs: None,
            name: "",
            start: Instant::now(),
            fields: Vec::new(),
        }
    }

    /// Whether the span will emit an event on drop.
    pub fn is_recording(&self) -> bool {
        self.obs.is_some()
    }

    /// Attaches a field to the span's exit event.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.obs.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(obs) = &self.obs {
            let mut fields = std::mem::take(&mut self.fields);
            fields.push((
                "dur_us",
                Value::U64(self.start.elapsed().as_micros() as u64),
            ));
            obs.event(self.name, &fields);
        }
    }
}

/// Serializes a recorder's accumulated state into the event stream:
/// one `stats.snapshot` event carrying every non-zero counter and
/// gauge as a field (plus the `unit` of work the recorder covered —
/// `check`, `bmc`, `sweep`, `race`, `traversal`) followed by one
/// `hist.snapshot` event per non-empty histogram (count/sum/max,
/// p50/p90/p99, and the raw buckets as a compact `"i:count ..."`
/// string so downstream tools can merge snapshots exactly).
///
/// Engines call this right before their terminal event, making a
/// `--trace-json` capture self-contained: `sec trace summary`
/// reconstructs the derived stats without in-process access to the
/// [`Recorder`]. Trace-wide totals are defined as the sum over
/// *unscoped* snapshots — scoped (per-engine) snapshots are detail,
/// already included in the portfolio orchestrator's race-wide one.
pub fn emit_snapshot(obs: &Obs, recorder: &Recorder, unit: &str) {
    if !obs.is_enabled() {
        return;
    }
    let mut fields: Vec<(&'static str, Value)> = vec![("unit", Value::Str(unit.to_string()))];
    for (name, v) in recorder.nonzero_counters() {
        fields.push((name, Value::U64(v)));
    }
    obs.event("stats.snapshot", &fields);
    for (name, h) in recorder.nonempty_histograms() {
        use fmt::Write as _;
        let mut buckets = String::new();
        for (i, &b) in h.buckets.iter().enumerate() {
            if b != 0 {
                if !buckets.is_empty() {
                    buckets.push(' ');
                }
                let _ = write!(buckets, "{i}:{b}");
            }
        }
        obs.event(
            "hist.snapshot",
            &[
                ("name", Value::Str(name.to_string())),
                ("count", Value::U64(h.count)),
                ("sum", Value::U64(h.sum)),
                ("max", Value::U64(h.max)),
                ("p50", Value::U64(h.quantile(0.50))),
                ("p90", Value::U64(h.quantile(0.90))),
                ("p99", Value::U64(h.quantile(0.99))),
                ("buckets", Value::Str(buckets)),
            ],
        );
    }
}

/// Paces periodic `progress` heartbeat events from a long-running
/// loop.
///
/// Constructed once per fixed point from the configured interval
/// (`None` — the default when `--progress` is absent — never fires and
/// costs one branch per [`ProgressTicker::ready`] poll, preserving the
/// null-sink overhead bound). The first heartbeat is due one full
/// interval after construction; each firing re-arms the next.
#[derive(Debug)]
pub struct ProgressTicker {
    interval: Option<Duration>,
    start: Instant,
    next: Instant,
}

impl ProgressTicker {
    /// A ticker firing every `interval`, or never when `None`.
    pub fn new(interval: Option<Duration>) -> ProgressTicker {
        let start = Instant::now();
        ProgressTicker {
            interval,
            start,
            next: start + interval.unwrap_or(Duration::ZERO),
        }
    }

    /// A ticker that never fires.
    pub fn disabled() -> ProgressTicker {
        ProgressTicker::new(None)
    }

    /// Whether this ticker can ever fire.
    pub fn is_enabled(&self) -> bool {
        self.interval.is_some()
    }

    /// Polls the ticker: `true` when a heartbeat is due (and arms the
    /// next one). A disabled ticker returns `false` without reading
    /// the clock.
    #[inline]
    pub fn ready(&mut self) -> bool {
        let Some(interval) = self.interval else {
            return false;
        };
        let now = Instant::now();
        if now >= self.next {
            self.next = now + interval;
            true
        } else {
            false
        }
    }

    /// Whole milliseconds since the ticker was constructed (the loop's
    /// start) — the `elapsed_ms` field of `progress` events.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// Emits a point event: `event!(obs, "name", key = value, ...)`.
/// Field values are not evaluated when the handle is disabled.
#[macro_export]
macro_rules! event {
    ($obs:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $obs.is_enabled() {
            $obs.event($name, &[$((stringify!($k), $crate::Value::from($v))),*]);
        }
    };
}

/// Opens a scoped span: `let sp = span!(obs, "name", key = value);`.
/// The guard emits one event with a `dur_us` field when dropped; attach
/// late fields with [`Span::record`]. Field values are not evaluated
/// when the handle is disabled.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $obs.is_enabled() {
            $obs.span($name, vec![$((stringify!($k), $crate::Value::from($v))),*])
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let obs = Obs::off();
        assert!(!obs.is_enabled());
        obs.add(Counter::Rounds, 1);
        obs.gauge_max(Gauge::PeakBddNodes, 10);
        event!(obs, "x", a = 1u64);
        let mut sp = span!(obs, "y", b = 2u64);
        sp.record("c", 3u64);
        assert!(!sp.is_recording());
        drop(sp);
        obs.set_enabled(true); // no-op on a disabled-from-birth handle
        assert!(!obs.is_enabled());
    }

    #[test]
    fn recorder_accumulates_counters_and_events() {
        let rec = Recorder::with_events();
        let obs = Obs::single(rec.clone()).scoped("sat-corr");
        obs.add(Counter::SatConflicts, 5);
        obs.add(Counter::SatConflicts, 7);
        obs.gauge_max(Gauge::PeakBddNodes, 10);
        obs.gauge_max(Gauge::PeakBddNodes, 4);
        event!(obs, "round", round = 1u64, splits = 2u64);
        assert_eq!(rec.counter(Counter::SatConflicts), 12);
        assert_eq!(rec.gauge(Gauge::PeakBddNodes), 10);
        let evs = rec.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "round");
        assert_eq!(evs[0].scope, Some("sat-corr"));
        assert_eq!(evs[0].fields[0], ("round", Value::U64(1)));
    }

    #[test]
    fn span_emits_dur_us_on_drop() {
        let rec = Recorder::with_events();
        let obs = Obs::single(rec.clone());
        {
            let mut sp = span!(obs, "round", round = 3u64);
            sp.record("splits", 1u64);
        }
        let evs = rec.events();
        assert_eq!(evs.len(), 1);
        let names: Vec<&str> = evs[0].fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(names, vec!["round", "splits", "dur_us"]);
    }

    #[test]
    fn kill_switch_mutes_all_clones() {
        let rec = Recorder::new();
        let obs = Obs::single(rec.clone());
        let clone = obs.scoped("bmc");
        obs.set_enabled(false);
        clone.add(Counter::Rounds, 1);
        assert_eq!(rec.counter(Counter::Rounds), 0);
        obs.set_enabled(true);
        clone.add(Counter::Rounds, 1);
        assert_eq!(rec.counter(Counter::Rounds), 1);
    }

    #[test]
    fn and_sink_tees() {
        let a = Recorder::new();
        let b = Recorder::new();
        let obs = Obs::single(a.clone()).and_sink(Arc::new(b.clone()));
        obs.add(Counter::Splits, 2);
        assert_eq!(a.counter(Counter::Splits), 2);
        assert_eq!(b.counter(Counter::Splits), 2);
        // Teeing onto a disabled handle yields a live single-sink one.
        let c = Recorder::new();
        let obs = Obs::off().and_sink(Arc::new(c.clone()));
        obs.add(Counter::Splits, 1);
        assert_eq!(c.counter(Counter::Splits), 1);
    }

    #[test]
    fn histogram_buckets_quantiles_and_merge() {
        let rec = Recorder::new();
        let obs = Obs::single(rec.clone());
        // 90 fast samples, 9 medium, 1 slow.
        for _ in 0..90 {
            obs.observe(Histogram::SatCallUs, 3);
        }
        for _ in 0..9 {
            obs.observe(Histogram::SatCallUs, 100);
        }
        obs.observe(Histogram::SatCallUs, 5000);
        let h = rec.histogram(Histogram::SatCallUs);
        assert_eq!(h.count, 100);
        assert_eq!(h.sum, 90 * 3 + 9 * 100 + 5000);
        assert_eq!(h.max, 5000);
        // p50 lands in the [2,3] bucket, p99 in the 5000 sample's
        // bucket but clamped to the observed max.
        assert_eq!(h.quantile(0.50), 3);
        assert_eq!(h.quantile(0.99), 127);
        assert_eq!(h.quantile(1.0), 5000);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);

        // Bucket boundaries: 0 is its own bucket; powers of two open
        // a new one.
        assert_eq!(HistogramSnapshot::bucket_index(0), 0);
        assert_eq!(HistogramSnapshot::bucket_index(1), 1);
        assert_eq!(HistogramSnapshot::bucket_index(2), 2);
        assert_eq!(HistogramSnapshot::bucket_index(3), 2);
        assert_eq!(HistogramSnapshot::bucket_index(4), 3);
        assert_eq!(HistogramSnapshot::bucket_index(u64::MAX), 63);
        assert_eq!(HistogramSnapshot::bucket_upper(2), 3);

        // Merging two snapshots equals recording into one.
        let rec2 = Recorder::new();
        let obs2 = Obs::single(rec2.clone());
        obs2.observe(Histogram::SatCallUs, 7);
        let mut merged = h.clone();
        merged.merge(&rec2.histogram(Histogram::SatCallUs));
        assert_eq!(merged.count, 101);
        assert_eq!(merged.max, 5000);
        assert_eq!(merged.sum, h.sum + 7);
        assert!((merged.mean() - merged.sum as f64 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_serializes_recorder_state() {
        let rec = Recorder::new();
        let obs = Obs::single(rec.clone());
        obs.add(Counter::Rounds, 2);
        obs.gauge_max(Gauge::PeakBddNodes, 64);
        obs.observe(Histogram::SatCallUs, 3);
        obs.observe(Histogram::SatCallUs, 9);
        let cap = Recorder::with_events();
        let teed = obs.and_sink(Arc::new(cap.clone()));
        emit_snapshot(&teed, &rec, "check");
        let evs = cap.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "stats.snapshot");
        let fields = &evs[0].fields;
        assert!(fields.contains(&("unit", Value::Str("check".into()))));
        assert!(fields.contains(&("rounds", Value::U64(2))));
        assert!(fields.contains(&("peak_bdd_nodes", Value::U64(64))));
        assert_eq!(evs[1].name, "hist.snapshot");
        let fields = &evs[1].fields;
        assert!(fields.contains(&("name", Value::Str("sat_call_us".into()))));
        assert!(fields.contains(&("count", Value::U64(2))));
        assert!(fields.contains(&("max", Value::U64(9))));
        assert!(fields.contains(&("buckets", Value::Str("2:1 4:1".into()))));
        // A disabled handle emits nothing.
        emit_snapshot(&Obs::off(), &rec, "check");
    }

    #[test]
    fn progress_ticker_paces_and_disables() {
        let mut off = ProgressTicker::disabled();
        assert!(!off.is_enabled());
        assert!(!off.ready());

        let mut t = ProgressTicker::new(Some(Duration::from_millis(1)));
        assert!(t.is_enabled());
        assert!(!t.ready(), "first heartbeat only after a full interval");
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.ready());
        assert!(!t.ready(), "firing re-arms the interval");
        let _ = t.elapsed_ms();
    }

    #[test]
    fn counter_names_are_stable() {
        assert_eq!(Counter::COUNT, Counter::ALL.len());
        assert_eq!(Counter::SatConflicts.to_string(), "sat_conflicts");
        assert_eq!(Gauge::PeakBddNodes.name(), "peak_bdd_nodes");
        // Names are unique.
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }
}
