//! End-to-end observability: the NDJSON event stream must reconcile
//! *exactly* with the derived statistics, and instrumentation must
//! never change what an engine computes.

use sec::core::{correspondence_partition, Backend, Checker, OptionsBuilder, Partition, Verdict};
use sec::gen::{counter, CounterKind};
use sec::obs::{NdjsonSink, Obs, Recorder, Sink};
use sec::portfolio::{self, EngineKind, PortfolioOptions};
use sec::synth::{forward_retime, RetimeOptions};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// An in-memory `Write` target the NDJSON sink can stream to while the
/// test keeps a reading handle.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn lines(&self) -> Vec<String> {
        let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
        text.lines().map(str::to_string).collect()
    }
}

/// Extracts a string field (`"key":"value"`) from one NDJSON line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = start + line[start..].find('"')?;
    Some(line[start..end].to_string())
}

/// Extracts a numeric field (`"key":123`) from one NDJSON line.
fn u64_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn equivalent_pair() -> (sec::netlist::Aig, sec::netlist::Aig) {
    let spec = counter(6, CounterKind::Binary);
    let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
    (spec, imp)
}

/// Every line the sink writes must be one JSON object with a timestamp
/// and an event name.
fn assert_well_formed(lines: &[String]) {
    assert!(!lines.is_empty(), "no events captured");
    for l in lines {
        assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
        assert!(u64_field(l, "t_us").is_some(), "missing t_us: {l}");
        assert!(str_field(l, "ev").is_some(), "missing ev: {l}");
    }
}

#[test]
fn solo_trace_reconciles_exactly_with_stats() {
    let (spec, imp) = equivalent_pair();
    let buf = SharedBuf::default();
    let recorder = Recorder::new();
    let sinks: Vec<Arc<dyn Sink>> = vec![
        Arc::new(NdjsonSink::from_writer(buf.clone())),
        Arc::new(recorder.clone()),
    ];
    let opts = OptionsBuilder::sat().obs(Obs::multi(sinks)).build();
    let result = Checker::new(&spec, &imp, opts).unwrap().run();
    assert_eq!(result.verdict, Verdict::Equivalent);

    let lines = buf.lines();
    assert_well_formed(&lines);
    let count = |ev: &str| -> usize {
        lines
            .iter()
            .filter(|l| str_field(l, "ev").as_deref() == Some(ev))
            .count()
    };
    assert_eq!(count("check.start"), 1);
    assert_eq!(count("check.end"), 1);

    // Each refinement round emits exactly one `round` event carrying
    // its `splits` delta; the derived stats must match event-for-event.
    let rounds: Vec<&String> = lines
        .iter()
        .filter(|l| str_field(l, "ev").as_deref() == Some("round"))
        .collect();
    assert_eq!(
        rounds.len(),
        result.stats.iterations,
        "round events vs iterations"
    );
    let splits: u64 = rounds.iter().map(|l| u64_field(l, "splits").unwrap()).sum();
    assert_eq!(splits, result.stats.splits, "summed splits fields vs stats");

    // The caller-supplied recorder saw the same counters the internal
    // stats derivation used.
    use sec::obs::Counter;
    assert_eq!(
        recorder.counter(Counter::Rounds) as usize,
        result.stats.iterations
    );
    assert_eq!(recorder.counter(Counter::Splits), result.stats.splits);
    assert_eq!(
        recorder.counter(Counter::SatConflicts),
        result.stats.sat_conflicts
    );
    assert_eq!(
        recorder.counter(Counter::SatSolverCalls),
        result.stats.sat_solver_calls
    );
}

#[test]
fn portfolio_trace_has_race_timeline_and_reconciles() {
    let (spec, imp) = equivalent_pair();
    let buf = SharedBuf::default();
    let recorder = Recorder::new();
    let sinks: Vec<Arc<dyn Sink>> = vec![
        Arc::new(NdjsonSink::from_writer(buf.clone())),
        Arc::new(recorder.clone()),
    ];
    let opts = PortfolioOptions {
        obs: Obs::multi(sinks),
        timeout: Some(std::time::Duration::from_secs(120)),
        ..PortfolioOptions::default()
    };
    let result = portfolio::run(&spec, &imp, &opts).unwrap();
    assert_eq!(result.verdict, Verdict::Equivalent);

    let lines = buf.lines();
    assert_well_formed(&lines);
    let with_ev = |ev: &str| -> Vec<&String> {
        lines
            .iter()
            .filter(|l| str_field(l, "ev").as_deref() == Some(ev))
            .collect()
    };

    // Race timeline: one start, one spawn per lineup engine, a verdict
    // per finished engine, a cancellation once the winner is known, one
    // end naming the winner.
    assert_eq!(with_ev("race.start").len(), 1);
    assert_eq!(with_ev("engine.spawn").len(), opts.engines.len());
    assert!(!with_ev("engine.verdict").is_empty());
    assert_eq!(with_ev("race.end").len(), 1);
    let end = with_ev("race.end")[0];
    let winner = result.winner.expect("an engine won");
    assert_eq!(str_field(end, "winner").as_deref(), Some(winner.name()));
    let cancel = with_ev("race.cancel");
    assert_eq!(cancel.len(), 1);
    assert_eq!(
        str_field(cancel[0], "winner").as_deref(),
        Some(winner.name())
    );

    // Every event an engine emitted carries its attribution tag, and
    // the per-engine `round` events reconcile exactly with the per-
    // engine reports — for winners and cancelled losers alike.
    for report in &result.reports {
        let kind = report.engine;
        if kind != EngineKind::BddCorr && kind != EngineKind::SatCorr {
            continue;
        }
        let rounds: Vec<&String> = lines
            .iter()
            .filter(|l| {
                str_field(l, "ev").as_deref() == Some("round")
                    && str_field(l, "engine").as_deref() == Some(kind.name())
            })
            .collect();
        assert_eq!(
            rounds.len() as u64,
            report.iterations,
            "{}: round events vs report.iterations",
            kind.name()
        );
        // A round aborted by cancellation emits its event (the span
        // drops during unwinding) but without the `splits` field,
        // which is recorded only when the round completes — and the
        // splits counter was likewise never bumped for it.
        let splits: u64 = rounds
            .iter()
            .map(|l| u64_field(l, "splits").unwrap_or(0))
            .sum();
        assert_eq!(
            splits,
            report.splits,
            "{}: splits fields vs report",
            kind.name()
        );
    }

    // Engine threads may interleave their writes, so the stream as a
    // whole is only *mergeable* by timestamp — but the race-timeline
    // events all come from the orchestrator thread and must be ordered.
    let stamps: Vec<u64> = lines
        .iter()
        .filter(|l| {
            let ev = str_field(l, "ev").unwrap();
            ev.starts_with("race.") || ev.starts_with("engine.")
        })
        .map(|l| u64_field(l, "t_us").unwrap())
        .collect();
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "race timeline out of order"
    );
}

/// Canonical form of a partition for equality comparison: sorted member
/// indices per class, classes sorted.
/// The SAT solver polls its limits on every conflict and every
/// decision, and the backend hands it fresh limits at every round
/// start; `cancellation_polls` must still count the polls of every
/// round, not only the last one.
#[test]
fn sat_cancellation_polls_cover_every_round() {
    use sec::obs::Counter;
    let (spec, imp) = equivalent_pair();
    let recorder = Recorder::new();
    let opts = OptionsBuilder::sat()
        .obs(Obs::multi(
            vec![Arc::new(recorder.clone()) as Arc<dyn Sink>],
        ))
        .build();
    let result = Checker::new(&spec, &imp, opts).unwrap().run();
    assert_eq!(result.verdict, Verdict::Equivalent);
    assert!(result.stats.iterations >= 2, "needs a multi-round check");
    let polls = recorder.counter(Counter::CancellationPolls);
    let steps = recorder.counter(Counter::SatConflicts) + recorder.counter(Counter::SatDecisions);
    assert!(
        polls >= steps,
        "{polls} polls for {steps} conflicts and decisions over {} rounds",
        result.stats.iterations
    );
}

fn canonical(p: &Partition) -> Vec<Vec<usize>> {
    let mut classes: Vec<Vec<usize>> = (0..p.num_classes())
        .map(|ci| {
            let mut c: Vec<usize> = p.class(ci).iter().map(|v| v.index()).collect();
            c.sort_unstable();
            c
        })
        .collect();
    classes.sort();
    classes
}

#[test]
fn null_sink_runs_are_identical_to_instrumented_runs() {
    let (spec, imp) = equivalent_pair();
    for backend in [Backend::Bdd, Backend::Sat] {
        let base = OptionsBuilder::new().backend(backend).build();
        let off = Checker::new(&spec, &imp, base.clone()).unwrap().run();
        let mut instrumented = base.clone();
        instrumented.obs = Obs::multi(vec![
            Arc::new(NdjsonSink::from_writer(SharedBuf::default())) as Arc<dyn Sink>,
            Arc::new(Recorder::with_events()),
        ]);
        let on = Checker::new(&spec, &imp, instrumented).unwrap().run();
        assert_eq!(off.verdict, on.verdict, "{backend:?}");
        assert_eq!(off.stats.iterations, on.stats.iterations, "{backend:?}");
        assert_eq!(off.stats.splits, on.stats.splits, "{backend:?}");
        assert_eq!(
            off.stats.sat_conflicts, on.stats.sat_conflicts,
            "{backend:?}"
        );
        assert_eq!(
            off.stats.sat_solver_calls, on.stats.sat_solver_calls,
            "{backend:?}"
        );
        assert_eq!(off.stats.classes, on.stats.classes, "{backend:?}");
        assert_eq!(off.stats.eqs_percent, on.stats.eqs_percent, "{backend:?}");

        // The refined partition itself is bit-identical, class by class.
        let p_off = correspondence_partition(&spec, &base).unwrap();
        let p_on = correspondence_partition(&spec, &{
            let mut o = base.clone();
            o.obs = Obs::multi(vec![Arc::new(Recorder::new()) as Arc<dyn Sink>]);
            o
        })
        .unwrap();
        assert_eq!(canonical(&p_off), canonical(&p_on), "{backend:?}");
    }
}

/// Two concurrent checks streaming through one shared line writer must
/// never interleave bytes mid-line: every line strict-parses and both
/// job tags appear. This is the serve-style multiplexing (`TagSink`
/// over `NdjsonSink::shared`) exercised without a socket.
#[test]
fn concurrent_jobs_share_a_sink_without_tearing_lines() {
    use sec::obs::{LineWriter, TagSink};

    let buf = SharedBuf::default();
    let writer = Arc::new(LineWriter::new(Box::new(buf.clone())));
    let handles: Vec<_> = (0..2)
        .map(|k| {
            let sink = TagSink::new(
                "job",
                format!("j{k}"),
                Arc::new(NdjsonSink::shared(Arc::clone(&writer))),
            );
            std::thread::spawn(move || {
                let (spec, imp) = equivalent_pair();
                let opts = OptionsBuilder::new()
                    .backend(Backend::Sat)
                    .obs(Obs::single(sink))
                    .build();
                let r = Checker::new(&spec, &imp, opts).unwrap().run();
                assert_eq!(r.verdict, Verdict::Equivalent);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let text = buf.lines().join("\n");
    let trace = sec::trace::Trace::parse_strict(&text).expect("torn NDJSON line");
    assert!(!trace.events.is_empty());
    for k in 0..2u32 {
        let tag = format!("j{k}");
        assert!(
            trace
                .events
                .iter()
                .any(|e| e.str("job") == Some(tag.as_str())),
            "no events tagged {tag}"
        );
    }
}
