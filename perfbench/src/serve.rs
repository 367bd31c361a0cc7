//! The `serve-revisions` workloads: `sec serve` with default flags,
//! driven through `sec_serve::Client` by one connection in a closed
//! loop, as a CI job or an engineer waits for each verdict. Requests ask
//! for the default `sat` engine (`serve-revisions`) or for `bdd`
//! (`serve-revisions-bdd`).

use crate::measure::{
    cpu_s, layer_metrics, median, obs_metrics, peak_rss_mb, print_result, quantile, write_spans,
    Counts, Metrics, Spans,
};
use crate::stream::{self, Class, Stream, CLASSES};
use crate::Args;
use sec_serve::{check_line, CheckRequest, Client, Engine, Source};
use sec_trace::{summarize, Event, Trace};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon, killed and reaped on drop if it is still alive.
struct Daemon {
    child: Child,
    pid: String,
    client: Client,
    /// The instant the daemon's event times (`t_us`) count from, on the
    /// benchmark's clock: when `client` connected, less the `t_us` of
    /// the hello the daemon sent as it accepted that connection.
    epoch: Instant,
}

impl Daemon {
    /// Starts `sec serve` with default flags and waits until it answers
    /// `health`.
    fn start(sec_bin: &Path) -> Daemon {
        let mut child = Command::new(sec_bin)
            .arg("serve")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("the sec binary starts");
        let pid = child.id().to_string();
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut banner)
            .expect("the daemon prints its address");
        let addr = banner
            .trim()
            .strip_prefix("sec-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        let client = Client::connect(&addr).expect("the daemon accepts");
        let connected = Instant::now();
        let mut d = Daemon {
            child,
            pid,
            client,
            epoch: connected,
        };
        let hello = d.until("serve.hello");
        d.epoch = connected
            .checked_sub(Duration::from_micros(hello.t_us))
            .unwrap_or(connected);
        d.client
            .send_line("{\"cmd\":\"health\"}")
            .expect("the daemon reads");
        d.until("serve.health");
        d
    }

    /// Reads events up to and including the first named `name`.
    fn until(&mut self, name: &str) -> Event {
        loop {
            let ev = self.next();
            if ev.ev == name {
                return ev;
            }
        }
    }

    fn next(&mut self) -> Event {
        self.client
            .next_event()
            .expect("the daemon speaks the protocol")
            .expect("the daemon keeps the connection open")
            .1
    }

    fn shutdown(mut self) {
        self.client
            .send_line("{\"cmd\":\"shutdown\"}")
            .expect("the daemon reads");
        self.until("serve.bye");
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait().expect("waitable child").is_none() {
            assert!(Instant::now() < deadline, "the daemon did not stop");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one request's round trip showed.
struct Sample {
    class: Class,
    latency_ms: f64,
    ok: bool,
    /// Server-side phases from `req.done` in ms: accept, queue, run and
    /// total; absent ones are 0.
    phases: [f64; 4],
    lines: usize,
}

/// The counts of one check the engine ran, labelled with its design,
/// round and class: rounds, splits, classes, SAT calls, SAT conflicts and peak
/// BDD nodes. At `jobs = 1` they repeat exactly in every run.
type Row = (String, [u64; 6]);

struct StreamRun {
    samples: Vec<Sample>,
    /// Sorted by label, so that the seed's request order does not show.
    rows: Vec<Row>,
    wall_s: f64,
    /// The daemon's CPU time over the stream.
    cpu_s: f64,
    counts: Counts,
    cache: [u64; 3],
}

fn source(dir: &Path, stream: &Stream, file: usize) -> Source {
    Source::Path(dir.join(&stream.files[file].0).display().to_string())
}

/// The daemon's `req.accept`, `req.queue` and `req.run` phases of one
/// request as child spans of its round trip `t0..end`, placed at the
/// daemon's own event times, and the wire time outside the daemon's
/// `total_us` (which ends at `req.done`) before and after them. What
/// the daemon counts in `total_us` but in no phase is the round trip's
/// own self time.
fn phase_spans(
    events: &[Event],
    epoch: Instant,
    t0: Instant,
    end: Instant,
    label: &str,
    spans: &mut Spans,
) {
    let root = spans.add("request", t0, end, None, label);
    let at = |t_us: u64| (epoch + Duration::from_micros(t_us)).clamp(t0, end);
    let mut daemon = (end, end);
    for ev in events {
        let (name, dur) = match ev.ev.as_str() {
            "req.accept" => ("serve.accept", ev.u64("dur_us")),
            "req.queue" => ("serve.queue", ev.u64("dur_us")),
            "req.run" => ("serve.run", ev.u64("dur_us")),
            "req.done" => {
                let total = ev.u64("total_us").unwrap_or(0);
                daemon = (at(ev.t_us.saturating_sub(total)), at(ev.t_us));
                continue;
            }
            _ => continue,
        };
        let dur = dur.unwrap_or(0);
        spans.add(
            name,
            at(ev.t_us.saturating_sub(dur)),
            at(ev.t_us),
            root,
            label,
        );
    }
    spans.add("serve.wire", t0, daemon.0, root, label);
    spans.add("serve.wire", daemon.1, end, root, label);
}

fn drive(
    d: &mut Daemon,
    stream: &Stream,
    dir: &Path,
    engine: Engine,
    spans: &mut Spans,
) -> StreamRun {
    let mut samples = Vec::with_capacity(stream.requests.len());
    let mut rows = Vec::new();
    let mut counts = Counts::default();
    let cpu0 = cpu_s(&d.pid);
    let start = Instant::now();
    for req in &stream.requests {
        let line = check_line(&CheckRequest {
            spec: source(dir, stream, req.spec),
            impl_: source(dir, stream, req.imp),
            engine,
            timeout_ms: None,
            conflict_budget: None,
            jobs: 1,
            heartbeat_ms: None,
            tag: None,
            no_cache: false,
            revalidate: req.revalidate,
        });
        let t0 = Instant::now();
        d.client.send_line(&line).expect("the daemon reads");
        let mut events = Vec::new();
        loop {
            let ev = d.next();
            let last = matches!(ev.ev.as_str(), "serve.result" | "serve.error");
            events.push(ev);
            if last {
                break;
            }
        }
        let end = Instant::now();

        let find = |name: &str| events.iter().find(|ev| ev.ev == name);
        let result = find("serve.result");
        let equivalent = result.and_then(|ev| match ev.str("verdict") {
            Some("equivalent") => Some(true),
            Some("inequivalent") => Some(false),
            _ => None,
        });
        if equivalent.is_some_and(|eq| stream::wrong_equivalent(req, eq)) {
            panic!("a mutant was proven equivalent: the engine is unsound");
        }
        let cached = result
            .and_then(|ev| ev.field("cached"))
            .and_then(|j| j.as_bool());
        let seeded = find("job.start")
            .and_then(|ev| ev.field("seeded"))
            .and_then(|j| j.as_bool())
            == Some(true);
        let ok = equivalent == Some(req.expect_equivalent)
            && cached == Some(req.expect_cached)
            && (seeded || req.class != Class::Warm);
        let done = find("req.done");
        let phases = ["accept_us", "queue_us", "run_us", "total_us"]
            .map(|k| done.and_then(|ev| ev.u64(k)).unwrap_or(0) as f64 / 1e3);
        let classes = result.and_then(|ev| ev.u64("classes")).unwrap_or(0);
        if spans.enabled() {
            let req_id = done.and_then(|ev| ev.str("req")).unwrap_or_default();
            let label = format!("{req_id} {}", req.class.name());
            phase_spans(&events, d.epoch, t0, end, &label, spans);
        }
        let lines = events.len();
        samples.push(Sample {
            class: req.class,
            latency_ms: (end - t0).as_secs_f64() * 1e3,
            ok,
            phases,
            lines,
        });
        if cached == Some(false) {
            let check = summarize(&Trace {
                events,
                lines,
                skipped: 0,
            });
            let c = |name: &str| check.total(name);
            rows.push((
                req.label.clone(),
                [
                    c("rounds"),
                    c("splits"),
                    classes,
                    c("sat_solver_calls"),
                    c("sat_conflicts"),
                    c("peak_bdd_nodes"),
                ],
            ));
            counts.add(&check);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu = cpu_s(&d.pid) - cpu0;
    d.client
        .send_line("{\"cmd\":\"metrics\"}")
        .expect("the daemon reads");
    let m = d.until("serve.metrics");
    let cache = ["cache_hits", "cache_misses", "cache_evictions"].map(|k| m.u64(k).unwrap_or(0));
    rows.sort();
    StreamRun {
        samples,
        rows,
        wall_s,
        cpu_s: cpu,
        counts,
        cache,
    }
}

fn write_files(stream: &Stream, dir: &Path) {
    std::fs::create_dir_all(dir).expect("the work directory is writable");
    for (name, bytes) in &stream.files {
        std::fs::write(dir.join(name), bytes).expect("the work directory is writable");
    }
}

/// Set-up of the revision stream: generation, synthesis, writing the
/// files and starting a fresh daemon until it answers `health`.
fn set_up(args: &Args, spans: &mut Spans) -> (Stream, Daemon, PathBuf) {
    let sizes = if args.small {
        &stream::SMALL
    } else {
        &stream::FULL
    };
    let dir = args.work_dir.join("serve");
    let stream = stream::build(args.seed, sizes, args.plant, spans);
    write_files(&stream, &dir);
    let sec_bin = args
        .sec_bin
        .as_deref()
        .expect("the revision stream needs --sec-bin");
    (stream, Daemon::start(sec_bin), dir)
}

/// Set-ups per run: the median is reported, so one descheduling cannot
/// move `setup_s`, and the last one serves the stream. Traced runs
/// report no `setup_s` and make one set-up.
const SETUP_REPS: usize = 9;

pub fn run(args: &Args, engine: Engine) {
    let reps = if args.small || args.trace {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_times = Vec::new();
    let mut last = None;
    for k in 0..reps {
        let t = Instant::now();
        let ready = set_up(args, &mut Spans::new(false));
        setup_times.push(t.elapsed().as_secs_f64());
        if k + 1 < reps {
            ready.1.shutdown();
        } else {
            last = Some(ready);
        }
    }
    let (stream, mut daemon, dir) = last.expect("at least one set-up");
    let run = drive(&mut daemon, &stream, &dir, engine, &mut Spans::new(false));
    let peak = peak_rss_mb(&daemon.pid);
    daemon.shutdown();
    print_rows(&run.rows);
    println!("setup_s samples {setup_times:.4?}");
    let mut m = Metrics::default();
    if !args.trace {
        let failed = run.samples.iter().filter(|s| !s.ok).count();
        let attempted = run.samples.len();
        m.put("check_s", run.wall_s, "s");
        m.put("cpu_s", run.cpu_s, "s");
        m.put(
            "decided",
            (attempted - failed) as f64 / attempted as f64,
            "fraction",
        );
        m.put("setup_s", median(&setup_times), "s");
        m.put("peak_rss_mb", peak, "MiB");
        class_latencies(&mut m, &run.samples, !args.small);
        print_result(attempted, failed, failed == 0 && run.cache[2] == 0, &m);
        return;
    }

    // Traced run: a fresh daemon and the same stream again, with spans
    // around every round trip. Every check's counts must repeat exactly.
    let mut spans = Spans::new(true);
    let (stream, mut daemon, dir) = set_up(args, &mut spans);
    let traced = drive(&mut daemon, &stream, &dir, engine, &mut spans);
    daemon.shutdown();
    let repeat = traced.rows == run.rows;
    if !repeat {
        println!("check counts differ between the untraced and the traced pass");
    }
    let run_s: f64 = traced.samples.iter().map(|s| s.phases[2] / 1e3).sum();
    m.put("synth.instance_ms", stream.synth.as_secs_f64() * 1e3, "ms");
    m.put("netlist.load_ms", stream.load.as_secs_f64() * 1e3, "ms");
    m.put(
        "netlist.load_mb_per_s",
        stream.load_bytes as f64 / 1e6 / stream.load.as_secs_f64(),
        "MB/s",
    );
    m.put("core.run_s", run_s, "s");
    m.put(
        "core.classes",
        traced.rows.iter().map(|(_, c)| c[2] as f64).sum::<f64>(),
        "count",
    );
    layer_metrics(&mut m, &traced.counts, run_s);
    layer_metrics_serve(&mut m, &traced, !args.small);
    obs_metrics(&mut m, &spans, "request", run.wall_s, traced.wall_s);
    write_spans(&spans, args);
    let failed = traced.samples.iter().filter(|s| !s.ok).count();
    print_result(
        traced.samples.len(),
        failed,
        failed == 0 && traced.cache[2] == 0 && repeat,
        &m,
    );
}

/// One line per check the engine ran, with the counts that must repeat
/// in every run.
fn print_rows(rows: &[Row]) {
    for (label, c) in rows {
        println!(
            "row {label} rounds={} splits={} classes={} sat_calls={} conflicts={} peak_nodes={}",
            c[0], c[1], c[2], c[3], c[4], c[5]
        );
    }
}

/// Client-observed latency per request class: p50 for every class, p90
/// for hit and miss. Failed requests are not latency samples.
fn class_latencies(m: &mut Metrics, samples: &[Sample], enforce: bool) {
    for class in CLASSES {
        let of: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == class && s.ok)
            .map(|s| s.latency_ms)
            .collect();
        m.put(
            format!("{}_p50_ms", class.name()),
            quantile(&of, 0.5, enforce),
            "ms",
        );
        if matches!(class, Class::Hit | Class::Miss) {
            m.put(
                format!("{}_p90_ms", class.name()),
                quantile(&of, 0.9, enforce),
                "ms",
            );
        }
    }
}

fn layer_metrics_serve(m: &mut Metrics, run: &StreamRun, enforce: bool) {
    for class in CLASSES {
        let of: Vec<&Sample> = run.samples.iter().filter(|s| s.class == class).collect();
        for (i, phase) in ["accept_ms", "queue_ms", "run_ms", "wire_ms"]
            .iter()
            .enumerate()
        {
            // wire = client latency − the daemon's `total_us`.
            let v: Vec<f64> = of
                .iter()
                .map(|s| {
                    if i < 3 {
                        s.phases[i]
                    } else {
                        s.latency_ms - s.phases[3]
                    }
                })
                .collect();
            m.put(
                format!("serve.{}.{phase}", class.name()),
                quantile(&v, 0.5, enforce),
                "ms",
            );
        }
    }
    let lines: usize = run.samples.iter().map(|s| s.lines).sum();
    m.put(
        "serve.lines_per_request",
        lines as f64 / run.samples.len() as f64,
        "count",
    );
    for (name, v) in [
        "serve.cache_hits",
        "serve.cache_misses",
        "serve.cache_evictions",
    ]
    .iter()
    .zip(run.cache)
    {
        m.put(*name, v as f64, "count");
    }
}
