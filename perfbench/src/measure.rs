//! Measurement plumbing shared by the workloads: exact percentiles,
//! `/proc` readers, in-memory spans, engine-counter totals and the
//! result line.

use sec_trace::TraceSummary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of exact samples. Panics when fewer than
/// [`MIN_BEYOND`] samples lie beyond the rank and `enforce` is set: the
/// workloads are sized so that this never happens at full size.
pub fn quantile(samples: &[f64], q: f64, enforce: bool) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    if enforce {
        assert!(
            v.len() - rank >= MIN_BEYOND,
            "p{} of {} samples has only {} beyond it",
            (q * 100.0).round(),
            v.len(),
            v.len() - rank
        );
    }
    v[rank - 1]
}

/// Median of a non-empty sample set (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// User+system CPU seconds of a process, all threads included
/// (`/proc/<pid>/stat` fields 14 and 15, in USER_HZ = 100 ticks).
pub fn cpu_s(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("readable /proc stat");
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    // `rest` starts at field 3, so utime (14) and stime (15) are 11 and 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (VmHWM) of a process in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).expect("readable /proc status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kb / 1024.0
}

/// One span: a call the benchmark made into a layer.
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    /// Row name or daemon request id.
    pub label: String,
}

/// Spans kept in memory and written out once, at the end of a run.
/// Disabled (every call a no-op) in untraced runs.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        label: &str,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            label: label.to_string(),
        });
        Some(self.spans.len() - 1)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Closes a span opened with `start == end` once its children ran.
    pub fn set_end(&mut self, id: usize, end: Instant) {
        self.spans[id].end = end;
    }

    /// Each span's duration minus the part its children cover (children
    /// of one span never overlap: every call here is sequential).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Sum of the self times of the layer spans below the roots named
    /// `root`, the roots themselves left out: a root's own self time is
    /// the part of it no layer span accounts for.
    pub fn layer_self_sum(&self, root: &str) -> Duration {
        let own = self.self_times();
        let top = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return i,
            }
        };
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_some() && self.spans[top(i)].name == root)
            .map(|i| own[i])
            .sum()
    }

    /// Writes the spans as JSON lines (times in microseconds since the
    /// run started).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_times();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"label\":\"{}\",\"parent\":{},\"start_us\":{},\"end_us\":{},\"self_us\":{}}}",
                s.name,
                sec_serve::escape_json(&s.label),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                (s.start - self.epoch).as_micros(),
                (s.end - self.epoch).as_micros(),
                own[i].as_micros()
            );
        }
        std::fs::write(path, out)
    }
}

/// Engine-counter totals over the stream, folded from the
/// `sec_trace` summary of each request's events.
#[derive(Default)]
pub struct Counts {
    pub totals: BTreeMap<String, u64>,
    /// Largest `peak_bdd_nodes` of any one check.
    pub peak_bdd_nodes: u64,
    /// (count, sum in µs) of `sat_call_us`.
    pub sat_us: (u64, u64),
    /// (count, sum in µs) of `bdd_op_us`.
    pub bdd_us: (u64, u64),
}

impl Counts {
    pub fn get(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    /// Folds in one check: its terminal `stats.snapshot` and its
    /// `hist.snapshot`s, as `sec_trace::summarize` reads them.
    pub fn add(&mut self, check: &TraceSummary) {
        for (name, v) in &check.totals {
            *self.totals.entry(name.clone()).or_default() += v;
        }
        self.peak_bdd_nodes = self.peak_bdd_nodes.max(check.total("peak_bdd_nodes"));
        if let Some(scope) = check.engine(None) {
            for (name, acc) in [
                ("sat_call_us", &mut self.sat_us),
                ("bdd_op_us", &mut self.bdd_us),
            ] {
                if let Some(h) = scope.hists.get(name) {
                    *acc = (acc.0 + h.count, acc.1 + h.sum);
                }
            }
        }
    }
}

/// Ratio that reads 0 instead of NaN when the layer did no work.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics in output order, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The per-layer metrics every workload reports in its traced run. A
/// layer the workload does not reach reads 0.
pub fn layer_metrics(m: &mut Metrics, c: &Counts, run_s: f64) {
    let g = |n: &str| c.get(n) as f64;
    m.put("core.rounds", g("rounds"), "count");
    m.put("core.splits", g("splits"), "count");
    m.put("core.retime_extensions", g("retime_extensions"), "count");
    m.put("core.ms_per_round", ratio(run_s * 1e3, g("rounds")), "ms");
    m.put("sat.calls", g("sat_solver_calls"), "count");
    m.put("sat.conflicts", g("sat_conflicts"), "count");
    m.put("sat.decisions", g("sat_decisions"), "count");
    m.put("sat.propagations", g("sat_propagations"), "count");
    m.put("sat.solvers", g("sat_solver_constructions"), "count");
    m.put("sat.batched_calls", g("batched_calls"), "count");
    m.put("sat.batch_pairs_decoded", g("batch_pairs_decoded"), "count");
    let sat_busy = c.sat_us.1 as f64 / 1e6;
    m.put("sat.busy_s", sat_busy, "s");
    m.put("sat.busy_share", ratio(sat_busy, run_s), "fraction");
    m.put(
        "sat.us_per_call",
        ratio(c.sat_us.1 as f64, c.sat_us.0 as f64),
        "us",
    );
    m.put("sim.amplify_patterns", g("amplify_patterns"), "count");
    m.put("sim.amplify_word_hits", g("amplify_word_hits"), "count");
    m.put(
        "sim.amplify_hit_ratio",
        ratio(g("amplify_word_hits"), g("amplify_patterns") / 64.0),
        "fraction",
    );
    m.put("sim.bank_splits", g("bank_splits"), "count");
    m.put("bdd.nodes_allocated", g("bdd_nodes_allocated"), "count");
    m.put("bdd.peak_nodes", c.peak_bdd_nodes as f64, "count");
    m.put("bdd.gc_runs", g("bdd_gc_runs"), "count");
    m.put("bdd.ops", c.bdd_us.0 as f64, "count");
    let bdd_busy = c.bdd_us.1 as f64 / 1e6;
    m.put("bdd.busy_s", bdd_busy, "s");
    m.put("bdd.busy_share", ratio(bdd_busy, run_s), "fraction");
    m.put("limits.polls", g("cancellation_polls"), "count");
    m.put(
        "limits.polls_per_s",
        ratio(g("cancellation_polls"), run_s),
        "1/s",
    );
    m.put("netlist.strash_merged", g("strash_merged"), "count");
}

/// Prints the result line: the last line of standard output.
pub fn print_result(attempted: usize, failed: usize, correct: bool, metrics: &Metrics) {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
}

/// The tracing layer's own numbers: its overhead against the untraced
/// pass, and how much of the traced check time the layer spans below
/// the `root` spans account for.
pub fn obs_metrics(m: &mut Metrics, spans: &Spans, root: &str, untraced: f64, traced: f64) {
    m.put(
        "obs.trace_overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
    m.put(
        "obs.span_self_sum_pct",
        100.0 * spans.layer_self_sum(root).as_secs_f64() / traced,
        "%",
    );
}

pub fn write_spans(spans: &Spans, args: &crate::Args) {
    let path = args
        .work_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    spans.write(&path).expect("the work directory is writable");
    println!("spans written to {}", path.display());
}
