//! Cooperative cancellation and deadlines, shared by every engine.
//!
//! The portfolio runner races several engines on worker threads and must
//! stop the losers the moment one produces a definitive verdict. Rust
//! threads cannot be killed from outside, so cancellation is
//! *cooperative*: every engine's hot loop polls a [`Limits`] value and
//! unwinds cleanly (leaving its manager/solver consistent) when the
//! poll reports a [`Stop`].
//!
//! The poll must be cheap enough for the hottest loops in the workspace
//! — BDD unique-table insertion and SAT propagation, both tens of
//! nanoseconds per step. [`Limits::check`] therefore reads the shared
//! [`CancellationToken`] atomic on every call (~1 ns, relaxed load) but
//! consults the wall clock only every [`POLL_STRIDE`] calls, because
//! `Instant::now` costs an order of magnitude more than the load.
//! Worst-case detection latency is `POLL_STRIDE × cost-per-step`, well
//! under a millisecond for every engine in the workspace.
//!
//! Each `Limits` value counts its own polls ([`Limits::polls`]); the
//! engines surface the tally through `sec-obs` as the
//! `cancellation_polls` counter, which turns "is the hot loop actually
//! polling?" from a code-reading exercise into a number in `--stats`.
//!
//! # Usage
//!
//! ```
//! use sec_limits::{CancellationToken, Limits, Stop};
//! use std::time::Duration;
//!
//! // The orchestrator side: one token shared by all workers.
//! let token = CancellationToken::new();
//!
//! // The engine side: a per-engine Limits polled from the hot loop.
//! let mut limits = Limits::with_token(&token).with_timeout(Some(Duration::from_secs(60)));
//! let mut step = |limits: &mut Limits| -> Result<(), Stop> {
//!     limits.check()?; // ~1 ns when not cancelled
//!     // ...one unit of work...
//!     Ok(())
//! };
//! assert_eq!(step(&mut limits), Ok(()));
//!
//! token.cancel(); // first verdict arrived; stop the losers
//! assert_eq!(step(&mut limits), Err(Stop::Cancelled));
//! assert_eq!(limits.polls(), 2);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an engine was asked to stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stop {
    /// Another party (portfolio winner, user) cancelled the run.
    Cancelled,
    /// The deadline passed.
    Timeout,
}

impl Stop {
    /// Short human-readable reason, used in `Unknown(..)` verdicts.
    pub fn reason(&self) -> &'static str {
        match self {
            Stop::Cancelled => "cancelled",
            Stop::Timeout => "timeout",
        }
    }
}

impl fmt::Display for Stop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for Stop {}

/// A shared flag raised to stop every engine holding a clone.
///
/// Clones share the flag: the portfolio hands one token to all racing
/// engines and calls [`cancel`](CancellationToken::cancel) when the
/// first definitive verdict arrives.
#[derive(Clone, Debug, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A shared, monotonically increasing iteration counter.
///
/// Engines bump it once per coarse unit of work (a fixed-point
/// refinement round, a BMC frame, an image step); an observer — the
/// portfolio orchestrator — polls [`get`](ProgressCounter::get) from
/// another thread to emit live progress events without any callback
/// plumbing through the engine crates.
#[derive(Clone, Debug, Default)]
pub struct ProgressCounter {
    count: Arc<AtomicU64>,
}

impl ProgressCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter. Visible to all clones.
    #[inline]
    pub fn bump(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// How many [`Limits::check`] calls elapse between wall-clock reads.
pub const POLL_STRIDE: u32 = 1024;

/// A cancellation token plus an optional deadline, polled from hot
/// loops.
///
/// `Limits` is `Clone`: each engine gets its own copy (so the strided
/// countdown is engine-local) while the underlying token stays shared.
#[derive(Clone, Debug, Default)]
pub struct Limits {
    token: Option<CancellationToken>,
    deadline: Option<Instant>,
    /// Calls remaining until the next wall-clock read.
    countdown: u32,
    /// Total `check`/`check_now` calls on this value (observability:
    /// surfaced as the `cancellation_polls` counter).
    polls: u64,
}

impl Limits {
    /// No limits: every check passes. The cheapest possible poll (two
    /// `None` tests).
    pub const fn none() -> Self {
        Limits {
            token: None,
            deadline: None,
            countdown: POLL_STRIDE,
            polls: 0,
        }
    }

    /// Limits carrying (a clone of) `token` and no deadline.
    pub fn with_token(token: &CancellationToken) -> Self {
        Limits {
            token: Some(token.clone()),
            ..Limits::none()
        }
    }

    /// Adds an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adds a deadline `budget` from now. A `None` budget leaves the
    /// limits unchanged (no deadline).
    pub fn with_timeout(self, budget: Option<Duration>) -> Self {
        match budget {
            Some(d) => self.with_deadline(Instant::now() + d),
            None => self,
        }
    }

    /// Whether neither a token nor a deadline is attached.
    pub fn is_unlimited(&self) -> bool {
        self.token.is_none() && self.deadline.is_none()
    }

    #[inline]
    fn token_tripped(&self) -> bool {
        self.token.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// The cheap hot-loop poll: token every call, clock every
    /// [`POLL_STRIDE`] calls.
    #[inline]
    pub fn check(&mut self) -> Result<(), Stop> {
        self.polls += 1;
        if self.token_tripped() {
            return Err(Stop::Cancelled);
        }
        if self.deadline.is_some() {
            self.countdown = self.countdown.wrapping_sub(1);
            if self.countdown == 0 {
                self.countdown = POLL_STRIDE;
                return self.check_deadline_now();
            }
        }
        Ok(())
    }

    /// An unstrided check that always reads the clock. Call at loop
    /// boundaries that are rare but long (one fixed-point iteration, one
    /// SAT restart) so a deadline never slips by a whole stride of slow
    /// steps.
    #[inline]
    pub fn check_now(&mut self) -> Result<(), Stop> {
        self.polls += 1;
        if self.token_tripped() {
            return Err(Stop::Cancelled);
        }
        self.check_deadline_now()
    }

    /// Total [`check`](Limits::check)/[`check_now`](Limits::check_now)
    /// calls made on this value. Engine-local (clones count
    /// separately), so the owner of the hot loop reads its own tally.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    #[inline]
    fn check_deadline_now(&self) -> Result<(), Stop> {
        match self.deadline {
            Some(end) if Instant::now() >= end => Err(Stop::Timeout),
            _ => Ok(()),
        }
    }
}

/// Sanity-clamps a requested worker count (`sec serve --workers`)
/// against the machine.
///
/// Returns the count to actually use plus a warning message when the
/// request was clamped. Worker counts beyond 4× the available
/// parallelism only add scheduling overhead and memory, so they are
/// treated as typos (`--workers 4000` for `--workers 4`) rather than
/// obeyed. Zero is *not* handled here — callers must reject it as a
/// usage error before calling, because "no workers" is a request that
/// can never be satisfied rather than one to round to something
/// sensible.
///
/// # Examples
///
/// ```
/// let (workers, warning) = sec_limits::effective_workers(2);
/// assert_eq!(workers, 2);
/// assert!(warning.is_none());
/// ```
pub fn effective_workers(requested: usize) -> (usize, Option<String>) {
    assert!(requested >= 1, "reject --workers 0 before calling");
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cap = available.saturating_mul(4);
    if requested > cap {
        let warning = format!(
            "warning: --workers {requested} exceeds 4x available parallelism \
             ({available}); clamping to {cap}"
        );
        (cap, Some(warning))
    } else {
        (requested, None)
    }
}

/// Paces a fixed-period sampling loop — the daemon's gauge sampler
/// polls this at some convenient cadence and takes a metrics sample
/// whenever it fires.
///
/// Unlike `sec_obs::ProgressTicker` (optional interval, event-stream
/// pacing) this ticker always has a period, counts its firings, and is
/// due *immediately* on the first poll, so a sampler thread records a
/// baseline sample at startup instead of one period in.
///
/// # Examples
///
/// ```
/// use sec_limits::SampleTicker;
/// use std::time::Duration;
///
/// let mut t = SampleTicker::new(Duration::from_millis(1));
/// assert!(t.ready(), "first poll fires immediately");
/// assert!(!t.ready(), "then re-arms the period");
/// std::thread::sleep(Duration::from_millis(2));
/// assert!(t.ready());
/// assert_eq!(t.samples(), 2);
/// ```
#[derive(Debug)]
pub struct SampleTicker {
    period: Duration,
    next: Instant,
    samples: u64,
}

impl SampleTicker {
    /// A ticker firing every `period`, due immediately.
    pub fn new(period: Duration) -> SampleTicker {
        SampleTicker {
            period,
            next: Instant::now(),
            samples: 0,
        }
    }

    /// Polls the ticker: `true` when a sample is due (arms the next
    /// one `period` from *now*, so a stalled sampler doesn't fire a
    /// burst to catch up).
    pub fn ready(&mut self) -> bool {
        let now = Instant::now();
        if now >= self.next {
            self.next = now + self.period;
            self.samples += 1;
            true
        } else {
            false
        }
    }

    /// Number of times [`SampleTicker::ready`] returned `true`.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The configured sampling period.
    pub fn period(&self) -> Duration {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_clamps_only_absurd_requests() {
        let (workers, warning) = effective_workers(1);
        assert_eq!(workers, 1);
        assert!(warning.is_none());
        let (workers, warning) = effective_workers(1_000_000);
        assert!(workers < 1_000_000);
        let warning = warning.unwrap();
        assert!(warning.contains("clamping"), "{warning}");
        assert!(warning.contains("--workers"), "{warning}");
    }

    #[test]
    fn unlimited_always_passes() {
        let mut l = Limits::none();
        assert!(l.is_unlimited());
        for _ in 0..10 * POLL_STRIDE {
            assert_eq!(l.check(), Ok(()));
        }
        assert_eq!(l.check_now(), Ok(()));
    }

    #[test]
    fn cancellation_is_seen_on_the_next_poll() {
        let token = CancellationToken::new();
        let mut l = Limits::with_token(&token);
        assert_eq!(l.check(), Ok(()));
        token.cancel();
        assert_eq!(l.check(), Err(Stop::Cancelled));
        assert_eq!(l.check_now(), Err(Stop::Cancelled));
        // All clones see it.
        let mut l2 = Limits::with_token(&token);
        assert_eq!(l2.check(), Err(Stop::Cancelled));
    }

    #[test]
    fn deadline_fires_within_a_stride() {
        let mut l = Limits::none().with_deadline(Instant::now());
        let fired = (0..=POLL_STRIDE).any(|_| l.check() == Err(Stop::Timeout));
        assert!(fired, "an expired deadline must fire within one stride");
        // And immediately via the unstrided variant.
        let mut l = Limits::none().with_deadline(Instant::now());
        assert_eq!(l.check_now(), Err(Stop::Timeout));
    }

    #[test]
    fn future_deadline_passes() {
        let mut l = Limits::none().with_timeout(Some(Duration::from_secs(3600)));
        for _ in 0..3 * POLL_STRIDE {
            assert_eq!(l.check(), Ok(()));
        }
        assert_eq!(l.check_now(), Ok(()));
    }

    #[test]
    fn cancellation_precedes_timeout() {
        let token = CancellationToken::new();
        token.cancel();
        let mut l = Limits::with_token(&token).with_deadline(Instant::now());
        assert_eq!(l.check_now(), Err(Stop::Cancelled));
    }

    #[test]
    fn progress_counter_is_shared() {
        let c = ProgressCounter::new();
        let c2 = c.clone();
        c.bump();
        c.bump();
        assert_eq!(c2.get(), 2);
    }

    #[test]
    fn polls_are_counted_per_value() {
        let mut l = Limits::none();
        assert_eq!(l.polls(), 0);
        for _ in 0..5 {
            let _ = l.check();
        }
        let _ = l.check_now();
        assert_eq!(l.polls(), 6);
        // Clones start from the clone point's tally, independently.
        let mut l2 = l.clone();
        let _ = l2.check();
        assert_eq!(l.polls(), 6);
        assert_eq!(l2.polls(), 7);
    }

    #[test]
    fn stop_reasons() {
        assert_eq!(Stop::Cancelled.to_string(), "cancelled");
        assert_eq!(Stop::Timeout.to_string(), "timeout");
    }
}
