//! Regression comparison of two trace summaries: per-counter and
//! per-phase deltas with configurable thresholds, for CI gating
//! against a committed golden trace.

use crate::summary::TraceSummary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Threshold configuration for [`diff`].
///
/// A threshold is a percentage of allowed *growth*: counter `c`
/// regresses when `new > base * (1 + pct/100)` (a zero baseline
/// regresses on any growth), and decreases never regress — except
/// under a threshold of exactly 0, which pins the counter: any change,
/// up or down, regresses. Counters without a threshold (and all phase
/// timings, which are machine-dependent) are reported but never gate.
#[derive(Clone, Debug, Default)]
pub struct DiffOptions {
    /// Threshold applied to every counter not named in
    /// [`DiffOptions::thresholds`]. `None` = report-only.
    pub default_threshold_pct: Option<f64>,
    /// Per-counter overrides, by stable counter name.
    pub thresholds: BTreeMap<String, f64>,
}

/// One counter's comparison.
#[derive(Clone, Debug)]
pub struct CounterDelta {
    /// Stable counter name.
    pub name: String,
    /// Baseline total.
    pub base: u64,
    /// New total.
    pub new: u64,
    /// Relative change in percent (`None` when the baseline is 0).
    pub pct: Option<f64>,
    /// The threshold that applied, if any.
    pub threshold_pct: Option<f64>,
    /// Whether the growth exceeded the threshold.
    pub regressed: bool,
}

/// One span phase's wall-clock comparison (never gates).
#[derive(Clone, Debug)]
pub struct PhaseDelta {
    /// Span name, prefixed with its scope when not the main stream.
    pub name: String,
    /// Baseline summed `dur_us`.
    pub base_us: u64,
    /// New summed `dur_us`.
    pub new_us: u64,
}

/// The full comparison of two traces.
#[derive(Clone, Debug, Default)]
pub struct TraceDiff {
    /// Every counter present in either trace, in name order.
    pub counters: Vec<CounterDelta>,
    /// Every phase present in either trace.
    pub phases: Vec<PhaseDelta>,
    /// Names of counters that regressed. Non-empty means the diff
    /// should gate (the CLI exits non-zero).
    pub regressions: Vec<String>,
}

impl TraceDiff {
    /// Whether any thresholded counter regressed.
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Compares the trace-wide counter totals (and phase timings) of two
/// summaries.
pub fn diff(base: &TraceSummary, new: &TraceSummary, opts: &DiffOptions) -> TraceDiff {
    let mut names: Vec<&String> = base.totals.keys().chain(new.totals.keys()).collect();
    names.sort();
    names.dedup();

    let mut out = TraceDiff::default();
    for name in names {
        let b = base.total(name);
        let n = new.total(name);
        let threshold = opts
            .thresholds
            .get(name.as_str())
            .copied()
            .or(opts.default_threshold_pct);
        let regressed = match threshold {
            Some(0.0) => n != b,
            Some(t) => n > b && n as f64 > b as f64 * (1.0 + t / 100.0),
            None => false,
        };
        if regressed {
            out.regressions.push(name.clone());
        }
        out.counters.push(CounterDelta {
            name: name.clone(),
            base: b,
            new: n,
            pct: (b > 0).then(|| (n as f64 - b as f64) / b as f64 * 100.0),
            threshold_pct: threshold,
            regressed,
        });
    }

    let mut phases: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (summary, idx) in [(base, 0usize), (new, 1usize)] {
        for e in &summary.engines {
            for (name, p) in &e.phases {
                let key = match &e.engine {
                    Some(engine) => format!("{engine}/{name}"),
                    None => name.clone(),
                };
                let slot = phases.entry(key).or_insert((0, 0));
                if idx == 0 {
                    slot.0 += p.total_us;
                } else {
                    slot.1 += p.total_us;
                }
            }
        }
    }
    out.phases = phases
        .into_iter()
        .map(|(name, (base_us, new_us))| PhaseDelta {
            name,
            base_us,
            new_us,
        })
        .collect();
    out
}

/// Renders a diff as the report `sec trace diff` prints.
pub fn render_diff(d: &TraceDiff) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:>12} {:>12} {:>9} {:>10}  status",
        "counter", "base", "new", "delta%", "threshold"
    );
    for c in &d.counters {
        let pct = c
            .pct
            .map(|p| format!("{p:+.1}%"))
            .unwrap_or_else(|| "-".into());
        let thr = c
            .threshold_pct
            .map(|t| format!("{t:.0}%"))
            .unwrap_or_else(|| "-".into());
        let status = if c.regressed {
            "REGRESSED"
        } else if c.new > c.base {
            "grew"
        } else if c.new < c.base {
            "shrank"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "{:<26} {:>12} {:>12} {:>9} {:>10}  {}",
            c.name, c.base, c.new, pct, thr, status
        );
    }
    if !d.phases.is_empty() {
        let _ = writeln!(out, "phase wall-clock (informational, never gates):");
        for p in &d.phases {
            let _ = writeln!(
                out,
                "  {:<24} {:>10}µs -> {:>10}µs",
                p.name, p.base_us, p.new_us
            );
        }
    }
    if d.regressed() {
        let _ = writeln!(out, "REGRESSION: {}", d.regressions.join(", "));
    } else {
        let _ = writeln!(out, "no regressions");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Trace;
    use crate::summary::summarize;

    fn summary_with(counters: &str) -> TraceSummary {
        summarize(
            &Trace::parse_strict(&format!(
                "{{\"t_us\":1,\"ev\":\"stats.snapshot\",\"unit\":\"check\",{counters}}}"
            ))
            .unwrap(),
        )
    }

    #[test]
    fn thresholds_gate_growth_only() {
        let base = summary_with("\"sat_conflicts\":100,\"rounds\":10");
        let new = summary_with("\"sat_conflicts\":120,\"rounds\":9");
        // Report-only by default.
        let d = diff(&base, &new, &DiffOptions::default());
        assert!(!d.regressed());

        // A 10% ceiling catches the 20% conflict growth; the shrinking
        // rounds counter never gates.
        let opts = DiffOptions {
            default_threshold_pct: Some(10.0),
            ..DiffOptions::default()
        };
        let d = diff(&base, &new, &opts);
        assert_eq!(d.regressions, vec!["sat_conflicts".to_string()]);
        assert!(render_diff(&d).contains("REGRESSED"));

        // A per-counter override loosens it back.
        let opts = DiffOptions {
            default_threshold_pct: Some(10.0),
            thresholds: [("sat_conflicts".to_string(), 50.0)].into_iter().collect(),
        };
        assert!(!diff(&base, &new, &opts).regressed());
    }

    #[test]
    fn zero_threshold_pins_a_counter_both_ways() {
        let base = summary_with("\"sat_conflicts\":100,\"rounds\":10,\"splits\":5");
        let new = summary_with("\"sat_conflicts\":90,\"rounds\":11,\"splits\":5");
        let opts = DiffOptions {
            default_threshold_pct: Some(25.0),
            thresholds: [("sat_conflicts", 0.0), ("rounds", 0.0), ("splits", 0.0)]
                .into_iter()
                .map(|(name, t)| (name.to_string(), t))
                .collect(),
        };
        // The shrinking and the growing pinned counter both regress;
        // the unchanged one does not.
        let d = diff(&base, &new, &opts);
        assert_eq!(d.regressions, vec!["rounds", "sat_conflicts"]);
        assert!(render_diff(&d).contains("REGRESSION: rounds, sat_conflicts"));

        // Any other threshold still gates growth only.
        let opts = DiffOptions {
            default_threshold_pct: Some(25.0),
            ..DiffOptions::default()
        };
        assert!(!diff(&base, &new, &opts).regressed());
    }

    #[test]
    fn zero_baseline_regresses_on_any_growth() {
        let base = summary_with("\"rounds\":1");
        let new = summary_with("\"rounds\":1,\"bdd_gc_runs\":1");
        let opts = DiffOptions {
            default_threshold_pct: Some(100.0),
            ..DiffOptions::default()
        };
        let d = diff(&base, &new, &opts);
        assert_eq!(d.regressions, vec!["bdd_gc_runs".to_string()]);
        let gc = d.counters.iter().find(|c| c.name == "bdd_gc_runs").unwrap();
        assert_eq!(gc.pct, None);
    }
}
