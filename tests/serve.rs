//! End-to-end tests of the `sec serve` daemon: fingerprint cache hits,
//! rename invariance, deadlines, disconnect cancellation, cache
//! persistence, round-trip latency, the request-line cap, and the
//! `sec client` CLI.

use sec::gen::random_aig;
use sec::netlist::write_bench;
use sec::serve::{check_line, CheckRequest, Client, Engine, Source, MAX_REQUEST_LINE_BYTES};
use sec::trace::Event;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SEC: &str = env!("CARGO_BIN_EXE_sec");

const TOGGLE: &str = "\
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(q, en)
";

/// The same toggle with every signal renamed and the declarations
/// reordered: structurally identical, textually disjoint.
const TOGGLE_RENAMED: &str = "\
OUTPUT(state)
state = DFF(nxt)
nxt = XOR(state, tick)
INPUT(tick)
";

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sec-serve-tests-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Daemon {
    child: Child,
    addr: String,
    metrics_addr: Option<String>,
}

impl Daemon {
    fn start(extra: &[&str]) -> Daemon {
        Daemon::spawn(extra, false)
    }

    /// Starts with `--metrics-addr 127.0.0.1:0` and reads the second
    /// banner line announcing the exposition endpoint.
    fn start_with_metrics(extra: &[&str]) -> Daemon {
        Daemon::spawn(extra, true)
    }

    fn spawn(extra: &[&str], metrics: bool) -> Daemon {
        let mut cmd = Command::new(SEC);
        cmd.args(["serve", "--listen", "127.0.0.1:0"]);
        if metrics {
            cmd.args(["--metrics-addr", "127.0.0.1:0"]);
        }
        let mut child = cmd
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        // The first stdout line announces the bound address; with
        // --metrics-addr a second line announces the scrape endpoint.
        let stdout = child.stdout.take().unwrap();
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let addr = line.trim().rsplit(' ').next().unwrap_or("").to_string();
        assert!(addr.contains(':'), "unexpected banner: {line:?}");
        let metrics_addr = metrics.then(|| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let maddr = line.trim().rsplit(' ').next().unwrap_or("").to_string();
            assert!(maddr.contains(':'), "unexpected metrics banner: {line:?}");
            maddr
        });
        Daemon {
            child,
            addr,
            metrics_addr,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).unwrap()
    }

    /// Clean shutdown via the protocol; panics if the daemon leaks.
    fn shutdown_and_wait(&mut self) -> std::process::ExitStatus {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.send_line("{\"cmd\":\"shutdown\"}");
            while let Ok(Some(_)) = c.next_line() {}
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not exit after shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn check_req(spec: &str, imp: &str) -> CheckRequest {
    CheckRequest {
        spec: Source::Inline(spec.to_string()),
        impl_: Source::Inline(imp.to_string()),
        engine: Engine::Sat,
        timeout_ms: None,
        conflict_budget: None,
        jobs: 1,
        heartbeat_ms: None,
        tag: None,
        no_cache: false,
        revalidate: false,
    }
}

/// Submits one check and drains events until its `serve.result` (or
/// `serve.error`) arrives; returns everything received.
fn run_check(client: &mut Client, req: &CheckRequest) -> Vec<Event> {
    run_line(client, &check_line(req))
}

/// [`run_check`] for a raw request line.
fn run_line(client: &mut Client, line: &str) -> Vec<Event> {
    client.send_line(line).unwrap();
    let mut events = Vec::new();
    loop {
        let (_, ev) = client.next_event().unwrap().expect("server closed early");
        let done = ev.ev == "serve.result" || ev.ev == "serve.error";
        events.push(ev);
        if done {
            return events;
        }
    }
}

/// Reads events until the first one named `name`.
fn next_named(client: &mut Client, name: &str) -> Event {
    loop {
        let (_, ev) = client.next_event().unwrap().expect("server closed early");
        if ev.ev == name {
            return ev;
        }
    }
}

fn status(client: &mut Client) -> Event {
    client.send_line("{\"cmd\":\"status\"}").unwrap();
    next_named(client, "serve.status")
}

fn metrics(client: &mut Client) -> Event {
    client.send_line("{\"cmd\":\"metrics\"}").unwrap();
    next_named(client, "serve.metrics")
}

/// The middle sample, in milliseconds.
fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// One HTTP GET against the exposition listener, returning the whole
/// response (status line, headers, body). The request goes out in one
/// write, so the timing measures the daemon, not the client's Nagle.
fn scrape(addr: &str, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: sec\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn result_of(events: &[Event]) -> &Event {
    let last = events.last().unwrap();
    assert_eq!(last.ev, "serve.result", "ended on {last:?}");
    last
}

fn ran_an_engine(events: &[Event]) -> bool {
    events
        .iter()
        .any(|e| e.ev == "check.start" || e.ev == "round" || e.ev == "race.start")
}

/// A pair whose check takes long enough (in a debug build) that the
/// test can reliably interrupt it mid-flight.
fn slow_pair_bench() -> (String, String) {
    let big = random_aig(8, 150, 1500, 42);
    let text = write_bench(&big);
    (text.clone(), text)
}

#[test]
fn cache_hit_skips_the_engine_and_matches_the_cold_verdict() {
    let mut daemon = Daemon::start(&["--workers", "2"]);

    let mut c1 = daemon.client();
    let cold = run_check(&mut c1, &check_req(TOGGLE, TOGGLE));
    let cold_result = result_of(&cold);
    assert_eq!(cold_result.str("verdict"), Some("equivalent"));
    assert_eq!(
        cold_result.field("cached").and_then(|j| j.as_bool()),
        Some(false)
    );
    assert!(ran_an_engine(&cold), "cold run must invoke an engine");
    let fingerprint = cold_result.str("fingerprint").unwrap().to_string();
    let classes = cold_result.u64("classes").unwrap();

    // Same pair from a *different* connection: served from the cache,
    // with zero engine activity in the job's event stream.
    let mut c2 = daemon.client();
    let warm = run_check(&mut c2, &check_req(TOGGLE, TOGGLE));
    let warm_result = result_of(&warm);
    assert_eq!(warm_result.str("verdict"), Some("equivalent"));
    assert_eq!(
        warm_result.field("cached").and_then(|j| j.as_bool()),
        Some(true)
    );
    assert_eq!(warm_result.str("fingerprint"), Some(fingerprint.as_str()));
    assert_eq!(warm_result.u64("classes"), Some(classes));
    assert!(!ran_an_engine(&warm), "cache hit must not invoke an engine");

    let st = status(&mut c2);
    assert_eq!(st.u64("cache_hits"), Some(1));
    assert_eq!(st.u64("cache_misses"), Some(1));

    assert!(daemon.shutdown_and_wait().success());
}

#[test]
fn ignored_conflict_budget_and_jobs_keys_change_nothing() {
    let text = write_bench(&random_aig(4, 12, 80, 7));
    let mut req = check_req(&text, &text);
    req.no_cache = true;
    req.conflict_budget = Some(1);
    req.jobs = 4;
    // `check_line` writes neither ignored key…
    let plain = check_line(&req);
    assert!(!plain.contains("conflict_budget"), "{plain}");
    assert!(!plain.contains("jobs"), "{plain}");
    // …and a line that carries both gets the same answer as one without.
    let carrying = format!(
        "{},\"conflict_budget\":1,\"jobs\":4}}",
        plain.strip_suffix('}').unwrap()
    );
    let mut daemon = Daemon::start(&["--workers", "1"]);
    let mut c = daemon.client();
    let answers: Vec<(String, u64)> = [&plain, &carrying]
        .into_iter()
        .map(|line| {
            let events = run_line(&mut c, line);
            assert!(ran_an_engine(&events), "{line}");
            let result = result_of(&events);
            let verdict = result.str("verdict").unwrap().to_string();
            (verdict, result.u64("classes").unwrap())
        })
        .collect();
    assert_eq!(answers[0].0, "equivalent");
    assert_eq!(answers[0], answers[1]);
    assert!(daemon.shutdown_and_wait().success());
}

#[test]
fn renamed_signals_hit_the_same_cache_entry() {
    let mut daemon = Daemon::start(&["--workers", "1"]);

    let mut c = daemon.client();
    let cold = run_check(&mut c, &check_req(TOGGLE, TOGGLE));
    let fingerprint = result_of(&cold).str("fingerprint").unwrap().to_string();

    // Every signal renamed, declarations reordered: same fingerprint,
    // same cache entry, no engine run.
    let renamed = run_check(&mut c, &check_req(TOGGLE_RENAMED, TOGGLE_RENAMED));
    let renamed_result = result_of(&renamed);
    assert_eq!(
        renamed_result.str("fingerprint"),
        Some(fingerprint.as_str())
    );
    assert_eq!(
        renamed_result.field("cached").and_then(|j| j.as_bool()),
        Some(true)
    );
    assert_eq!(renamed_result.str("verdict"), Some("equivalent"));
    assert!(!ran_an_engine(&renamed));

    assert_eq!(status(&mut c).u64("cache_hits"), Some(1));
    assert!(daemon.shutdown_and_wait().success());
}

#[test]
fn deadline_expiry_returns_timeout_and_frees_the_worker() {
    let mut daemon = Daemon::start(&["--workers", "1"]);
    let (spec, imp) = slow_pair_bench();

    let mut c = daemon.client();
    let mut req = check_req(&spec, &imp);
    req.timeout_ms = Some(1);
    let events = run_check(&mut c, &req);
    let result = result_of(&events);
    assert_eq!(result.str("verdict"), Some("unknown"));
    assert_eq!(result.str("reason"), Some("timeout"));
    assert_eq!(
        result.field("cached").and_then(|j| j.as_bool()),
        Some(false)
    );

    // The single worker must be free again: a quick job completes.
    let after = run_check(&mut c, &check_req(TOGGLE, TOGGLE));
    assert_eq!(result_of(&after).str("verdict"), Some("equivalent"));

    // Indefinite verdicts must not be cached.
    let st = status(&mut c);
    assert_eq!(st.u64("cache_entries"), Some(1));
    assert!(daemon.shutdown_and_wait().success());
}

#[test]
fn client_disconnect_cancels_the_running_job() {
    let dir = tmp_dir("disconnect");
    let trace_path = dir.join("session.ndjson");
    let mut daemon = Daemon::start(&[
        "--workers",
        "1",
        "--trace-json",
        trace_path.to_str().unwrap(),
    ]);
    let (spec, imp) = slow_pair_bench();

    {
        let mut c = daemon.client();
        let mut req = check_req(&spec, &imp);
        req.heartbeat_ms = Some(10);
        c.send_line(&check_line(&req)).unwrap();
        loop {
            let (_, ev) = c.next_event().unwrap().expect("server closed early");
            assert_ne!(ev.ev, "serve.result", "job finished before it could start");
            if ev.ev == "job.start" {
                break;
            }
        }
        // Dropping the client closes the socket mid-job.
    }

    // The session trace must record the cancellation.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = std::fs::read_to_string(&trace_path).unwrap_or_default();
        let trace = sec::trace::Trace::parse_tolerant(&text);
        if trace
            .events
            .iter()
            .any(|e| e.ev == "job.cancel" && e.str("reason") == Some("disconnect"))
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no job.cancel/disconnect in session trace:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The lone worker is free again once the cancellation lands.
    let mut c = daemon.client();
    let after = run_check(&mut c, &check_req(TOGGLE, TOGGLE));
    assert_eq!(result_of(&after).str("verdict"), Some("equivalent"));

    assert!(daemon.shutdown_and_wait().success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_dir_persists_across_restart() {
    let dir = tmp_dir("persist");
    let cache_dir = dir.join("cache");
    let cache_arg = cache_dir.to_str().unwrap().to_string();

    let mut daemon = Daemon::start(&["--workers", "1", "--cache-dir", &cache_arg]);
    let mut c = daemon.client();
    let cold = run_check(&mut c, &check_req(TOGGLE, TOGGLE));
    let fingerprint = result_of(&cold).str("fingerprint").unwrap().to_string();
    drop(c);
    assert!(daemon.shutdown_and_wait().success());

    // A fresh daemon over the same directory serves the result warm.
    let mut daemon = Daemon::start(&["--workers", "1", "--cache-dir", &cache_arg]);
    let mut c = daemon.client();
    let warm = run_check(&mut c, &check_req(TOGGLE, TOGGLE));
    let warm_result = result_of(&warm);
    assert_eq!(
        warm_result.field("cached").and_then(|j| j.as_bool()),
        Some(true)
    );
    assert_eq!(warm_result.str("fingerprint"), Some(fingerprint.as_str()));
    assert_eq!(warm_result.str("verdict"), Some("equivalent"));
    assert_eq!(status(&mut c).u64("cache_hits"), Some(1));
    assert!(daemon.shutdown_and_wait().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pulls `metric_name value` out of Prometheus exposition text.
fn sample(exposition: &str, series: &str) -> Option<f64> {
    exposition.lines().find_map(|l| {
        l.strip_prefix(series)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

#[test]
fn metrics_reconcile_with_requests_served() {
    let mut daemon = Daemon::start_with_metrics(&["--workers", "2"]);
    let maddr = daemon.metrics_addr.clone().unwrap();

    // Seed the cache: one cold run (a miss), then two warm repeats —
    // one of them the renamed variant, which fingerprints identically.
    let mut c = daemon.client();
    assert_eq!(
        result_of(&run_check(&mut c, &check_req(TOGGLE, TOGGLE))).str("verdict"),
        Some("equivalent")
    );
    run_check(&mut c, &check_req(TOGGLE, TOGGLE));
    run_check(&mut c, &check_req(TOGGLE_RENAMED, TOGGLE_RENAMED));

    // Four concurrent clients hitting the warm entry.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let events = run_check(&mut c, &check_req(TOGGLE, TOGGLE));
                result_of(&events).str("verdict") == Some("equivalent")
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap());
    }

    // 7 requests total: 1 miss + 6 hits. The metrics verb, the HTTP
    // exposition, and the latency histogram must all agree exactly.
    let m = metrics(&mut c);
    assert_eq!(m.u64("requests"), Some(7));
    assert_eq!(m.u64("cache_hits"), Some(6));
    assert_eq!(m.u64("cache_misses"), Some(1));
    assert_eq!(m.u64("queue_depth"), Some(0));
    assert_eq!(m.u64("latency_count"), Some(7));
    assert_eq!(m.u64("worker_panics"), Some(0));
    assert!(m.u64("p99_us") >= m.u64("p50_us"));
    assert!(m.f64("cache_hit_rate").unwrap() > 0.8);
    assert!(m.str("worker_state").unwrap().len() == 2);

    let response = scrape(&maddr, "/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    assert_eq!(sample(body, "serve_requests_total"), Some(7.0), "{body}");
    assert_eq!(sample(body, "serve_cache_hits_total"), Some(6.0));
    assert_eq!(sample(body, "serve_cache_misses_total"), Some(1.0));
    assert_eq!(sample(body, "serve_queue_depth"), Some(0.0));
    assert_eq!(sample(body, "serve_worker_busy"), Some(0.0));
    // hits + misses == requests, and the total-phase histogram count
    // reconciles exactly with the requests served.
    assert_eq!(
        sample(body, "serve_latency_us_count{phase=\"total\"}"),
        Some(7.0),
        "{body}"
    );
    assert_eq!(
        sample(body, "serve_latency_us_count{phase=\"accept\"}"),
        Some(7.0)
    );
    assert!(body.contains("# TYPE serve_latency_us histogram"), "{body}");
    assert!(body.contains("serve_latency_us_bucket{phase=\"total\",le=\"+Inf\"} 7"));
    // Engine counters aggregated from the worker recorders ride along.
    assert!(body.contains("sec_"), "{body}");

    let health = scrape(&maddr, "/health");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.ends_with("ok\n"), "{health}");
    assert!(scrape(&maddr, "/nope").starts_with("HTTP/1.1 404"));

    // Back-to-back scrapes are answered as they arrive: the accept loop
    // blocks instead of polling, and the response is one write.
    let scrapes: Vec<Duration> = (0..10)
        .map(|_| {
            let start = Instant::now();
            let health = scrape(&maddr, "/health");
            let elapsed = start.elapsed();
            assert!(health.ends_with("ok\n"), "{health}");
            elapsed
        })
        .collect();
    let p50 = median_ms(scrapes.clone());
    assert!(p50 < 10.0, "median /health scrape {p50:.2} ms: {scrapes:?}");

    // The protocol twins of the endpoints, via the CLI.
    let out = Command::new(SEC)
        .args(["client", "health", "--addr", &daemon.addr])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("serve.health"));
    let out = Command::new(SEC)
        .args(["client", "metrics", "--addr", &daemon.addr])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"requests\":7"));

    // One `sec top` frame renders the dashboard on stderr.
    let out = Command::new(SEC)
        .args(["top", "--addr", &daemon.addr, "--count", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let screen = String::from_utf8_lossy(&out.stderr);
    assert!(screen.contains("p50_us="), "{screen}");
    assert!(screen.contains("hit_rate="), "{screen}");
    assert!(screen.contains("queue=0/"), "{screen}");

    assert!(daemon.shutdown_and_wait().success());
}

/// Requests on one kept-open connection must not wait for delayed ACKs.
/// Nagle on either end makes every round trip after the first wait
/// ~40 ms per direction. The first never waits, because Linux starts a
/// connection in quick-ACK mode, so the hits share the cold request's
/// connection.
#[test]
fn kept_open_connection_round_trips_do_not_stall() {
    let mut daemon = Daemon::start(&["--workers", "1"]);
    let mut c = daemon.client();
    let req = check_req(TOGGLE, TOGGLE);
    run_check(&mut c, &req);

    let hits: Vec<Duration> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let events = run_check(&mut c, &req);
            let elapsed = start.elapsed();
            assert_eq!(
                result_of(&events).field("cached").and_then(|j| j.as_bool()),
                Some(true)
            );
            elapsed
        })
        .collect();
    let p50 = median_ms(hits.clone());
    assert!(p50 < 20.0, "median hit round trip {p50:.2} ms: {hits:?}");

    assert!(daemon.shutdown_and_wait().success());
}

/// `serve.result` is the line a client waits for, so every piece of a
/// job's bookkeeping — the worker's busy flag, the job table, the `done`
/// count — must be settled before it goes out: a `metrics` request sent
/// right after a result must see an idle daemon, every time.
#[test]
fn result_line_follows_the_workers_bookkeeping() {
    let mut daemon = Daemon::start(&["--workers", "1"]);
    let mut c = daemon.client();
    let mut req = check_req(TOGGLE, TOGGLE);
    req.no_cache = true;
    for i in 1..=2000u64 {
        let events = run_check(&mut c, &req);
        assert_eq!(result_of(&events).str("verdict"), Some("equivalent"));
        let m = metrics(&mut c);
        assert_eq!(m.u64("worker_busy"), Some(0), "cycle {i}");
        assert_eq!(m.u64("running"), Some(0), "cycle {i}");
        assert_eq!(m.u64("done"), Some(i), "cycle {i}");
    }
    assert!(daemon.shutdown_and_wait().success());
}

#[test]
fn overlong_request_line_is_rejected_and_the_connection_survives() {
    let mut daemon = Daemon::start(&["--workers", "1"]);
    let mut c = daemon.client();

    // A check request padded to one byte over the cap.
    let (head, tail) = ("{\"cmd\":\"check\",\"spec_bench\":\"", "\"}");
    let pad = "x".repeat(MAX_REQUEST_LINE_BYTES + 1 - head.len() - tail.len());
    let line = format!("{head}{pad}{tail}");
    assert_eq!(line.len(), MAX_REQUEST_LINE_BYTES + 1);
    c.send_line(&line).unwrap();
    assert_eq!(
        next_named(&mut c, "serve.error").str("error"),
        Some("too_large")
    );

    // The rest of the line was skipped; the connection still serves.
    c.send_line("{\"cmd\":\"health\"}").unwrap();
    assert_eq!(next_named(&mut c, "serve.health").str("status"), Some("ok"));
    assert_eq!(metrics(&mut c).u64("errors"), Some(1));

    assert!(daemon.shutdown_and_wait().success());
}

#[test]
fn non_utf8_request_line_is_an_error_not_a_disconnect() {
    use std::io::Write;
    let mut daemon = Daemon::start(&["--workers", "1"]);
    // `Client` only sends `&str`, so the bad bytes go over a raw socket.
    let mut stream = std::net::TcpStream::connect(&daemon.addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    stream
        .write_all(b"{\"cmd\":\"health\xff\"}\n{\"cmd\":\"health\"}\n")
        .unwrap();
    let lines: Vec<String> = reader.lines().take(3).map(Result::unwrap).collect();
    assert_eq!(
        lines.len(),
        3,
        "the daemon closed the connection: {lines:?}"
    );
    assert!(lines[0].contains("\"ev\":\"serve.hello\""), "{lines:?}");
    assert!(
        lines[1].contains("\"ev\":\"serve.error\"") && lines[1].contains("not UTF-8"),
        "{lines:?}"
    );
    assert!(lines[2].contains("\"ev\":\"serve.health\""), "{lines:?}");
    drop(stream);
    assert!(daemon.shutdown_and_wait().success());
}

#[test]
fn hostile_inline_aiger_is_an_error_and_the_connection_survives() {
    let mut daemon = Daemon::start(&["--workers", "1"]);
    let mut c = daemon.client();
    // A binary AIGER whose AND has a zero delta0, which would make the
    // gate its own fanin: an error reply, not a dead connection.
    let zero_delta = "aig 3 2 0 1 1\n6\n\u{0}\u{2}";
    let events = run_check(&mut c, &check_req(zero_delta, TOGGLE));
    let last = events.last().unwrap();
    assert_eq!(last.ev, "serve.error", "{:?}", last.fields);
    // The same connection keeps serving.
    c.send_line("{\"cmd\":\"health\"}").unwrap();
    next_named(&mut c, "serve.health");
    drop(c);
    assert!(daemon.shutdown_and_wait().success());
}

#[test]
fn request_tracing_spans_cover_every_phase() {
    let mut daemon = Daemon::start(&["--workers", "1"]);
    let mut c = daemon.client();

    // Cold run: accept, queue, run and done must all appear, tied to
    // the same request id, with phase durations summing sanely.
    let events = run_check(&mut c, &check_req(TOGGLE, TOGGLE));
    let by_ev = |name: &str| events.iter().find(|e| e.ev == name);
    let accept = by_ev("req.accept").expect("no req.accept");
    let queue = by_ev("req.queue").expect("no req.queue");
    let done = by_ev("req.done").expect("no req.done");
    let req = accept.str("req").unwrap();
    assert!(req.starts_with('r'), "{req}");
    assert_eq!(queue.str("req"), Some(req));
    assert_eq!(done.str("req"), Some(req));
    assert_eq!(by_ev("req.run").and_then(|e| e.str("req")), Some(req));
    let total = done.u64("total_us").unwrap();
    assert!(done.u64("run_us").unwrap() <= total);
    assert!(done.u64("queue_us").unwrap() <= total);
    assert_eq!(done.str("verdict"), Some("equivalent"));

    // Warm repeat: answered inline, so no queue/run phases, and a
    // fresh request id.
    let warm = run_check(&mut c, &check_req(TOGGLE, TOGGLE));
    let warm_done = warm.iter().find(|e| e.ev == "req.done").unwrap();
    assert_ne!(warm_done.str("req"), Some(req));
    assert_eq!(
        warm_done.field("cached").and_then(|j| j.as_bool()),
        Some(true)
    );
    assert!(!warm.iter().any(|e| e.ev == "req.run"));

    assert!(daemon.shutdown_and_wait().success());
}

#[test]
fn cli_client_round_trip() {
    let dir = tmp_dir("cli");
    let spec = dir.join("spec.bench");
    let imp = dir.join("impl.bench");
    std::fs::write(&spec, TOGGLE).unwrap();
    std::fs::write(&imp, TOGGLE).unwrap();
    let mut daemon = Daemon::start(&["--workers", "1"]);

    // `--inline` ships the circuit text, so the daemon's cwd is moot.
    let out = Command::new(SEC)
        .args(["client", "check"])
        .arg(&spec)
        .arg(&imp)
        .args(["--addr", &daemon.addr, "--inline", "--tag", "t1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serve.result"), "{text}");
    assert!(text.contains("\"verdict\":\"equivalent\""), "{text}");
    assert!(text.contains("\"tag\":\"t1\""), "{text}");

    let out = Command::new(SEC)
        .args(["client", "status", "--addr", &daemon.addr])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("serve.status"));

    // Cancelling an unknown job is a reported error, exit 1.
    let out = Command::new(SEC)
        .args(["client", "cancel", "j999", "--addr", &daemon.addr])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("no such job"));

    let out = Command::new(SEC)
        .args(["client", "shutdown", "--addr", &daemon.addr])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(daemon.shutdown_and_wait().success());
    let _ = std::fs::remove_dir_all(&dir);
}
