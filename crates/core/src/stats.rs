//! One canonical JSON rendering for run statistics.
//!
//! The CLI (`sec check --json`), the `table1` binary, and the bench
//! harness all emit the same [`CheckStats`] shape; this module is the
//! single place that defines it, so the field set cannot drift between
//! consumers. The tiny [`JsonObject`] builder is public so siblings
//! (e.g. the portfolio's `EngineReport`) can compose the same rendering
//! without a JSON dependency.

use crate::result::CheckStats;
use crate::sweep::SweepStats;
use sec_obs::escape_json;
use std::fmt::Write as _;

/// An append-only JSON object builder: `{"a":1,"b":"x"}` without a
/// serialization dependency. Field order is insertion order.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    fn key(&mut self, name: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape_json(name));
        &mut self.buf
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, name: &str, value: u64) -> JsonObject {
        let _ = write!(self.key(name), "{value}");
        self
    }

    /// Appends a `usize` field.
    pub fn usize(self, name: &str, value: usize) -> JsonObject {
        self.u64(name, value as u64)
    }

    /// Appends a float field with `decimals` fractional digits.
    pub fn f64(mut self, name: &str, value: f64, decimals: usize) -> JsonObject {
        let _ = write!(self.key(name), "{value:.decimals$}");
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, name: &str, value: bool) -> JsonObject {
        let _ = write!(self.key(name), "{value}");
        self
    }

    /// Appends an escaped string field.
    pub fn str(mut self, name: &str, value: &str) -> JsonObject {
        let _ = write!(self.key(name), "\"{}\"", escape_json(value));
        self
    }

    /// Appends a field whose value is already-rendered JSON
    /// (an object, array, or `null`).
    pub fn raw(mut self, name: &str, value: &str) -> JsonObject {
        self.key(name).push_str(value);
        self
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// The canonical JSON object for a [`CheckStats`] — every numeric field
/// plus `time_ms`. Consumers embed it verbatim (`"stats":<this>`).
pub fn to_json(stats: &CheckStats) -> String {
    JsonObject::new()
        .usize("iterations", stats.iterations)
        .usize("retime_invocations", stats.retime_invocations)
        .u64("splits", stats.splits)
        .usize("peak_bdd_nodes", stats.peak_bdd_nodes)
        .u64("sat_conflicts", stats.sat_conflicts)
        .usize("sat_solver_constructions", stats.sat_solver_constructions)
        .u64("sat_solver_calls", stats.sat_solver_calls)
        .u64("batched_calls", stats.batched_calls)
        .u64("batch_pairs_decoded", stats.batch_pairs_decoded)
        .f64("eqs_percent", stats.eqs_percent, 1)
        .usize("classes", stats.classes)
        .usize("signals", stats.signals)
        .u64("time_ms", stats.time.as_millis() as u64)
        .finish()
}

/// The canonical JSON object for a [`SweepStats`].
pub fn sweep_to_json(stats: &SweepStats) -> String {
    JsonObject::new()
        .usize("iterations", stats.iterations)
        .usize("merged", stats.merged)
        .usize("ands_before", stats.ands_before)
        .usize("ands_after", stats.ands_after)
        .usize("latches_before", stats.latches_before)
        .usize("latches_after", stats.latches_after)
        .bool("gave_up", stats.gave_up)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn builder_renders_all_kinds() {
        let s = JsonObject::new()
            .u64("n", 3)
            .f64("x", 1.25, 1)
            .bool("b", true)
            .str("s", "a\"b")
            .raw("o", "{}")
            .finish();
        assert_eq!(
            s,
            "{\"n\":3,\"x\":1.2,\"b\":true,\"s\":\"a\\\"b\",\"o\":{}}"
        );
    }

    #[test]
    fn check_stats_shape() {
        let stats = CheckStats {
            iterations: 2,
            splits: 5,
            eqs_percent: 99.96,
            time: Duration::from_millis(1234),
            ..CheckStats::default()
        };
        let j = to_json(&stats);
        assert!(j.starts_with("{\"iterations\":2,"));
        assert!(j.contains("\"splits\":5"));
        assert!(j.contains("\"eqs_percent\":100.0"));
        assert!(j.ends_with("\"time_ms\":1234}"));
    }

    #[test]
    fn sweep_stats_shape() {
        let j = sweep_to_json(&SweepStats::default());
        assert!(j.starts_with("{\"iterations\":0,"));
        assert!(j.ends_with("\"gave_up\":false}"));
    }
}
