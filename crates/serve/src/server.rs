//! The daemon: TCP listener, bounded job queue, worker pool, cache.
//!
//! One reader thread per client connection parses request lines and
//! either answers directly (cache hits, cancel/status/metrics/health/
//! shutdown) or enqueues a job for the fixed worker pool. Every byte
//! the server sends is a `sec-obs`-schema NDJSON event line, so a
//! captured session (client-side or via `--trace-json`) is a valid
//! trace for `sec trace summary`. Cancellation is cooperative
//! throughout: each job owns a [`CancellationToken`] tripped by a
//! `cancel` request, by its client disconnecting, or by daemon
//! shutdown, and the engines poll it via their `Limits` layering.
//!
//! # Telemetry
//!
//! A [`MetricsRegistry`] aggregates daemon-lifetime operational
//! metrics: request/cache counters with rolling 60-second windows,
//! a `serve_latency_us` histogram split by request phase
//! (`accept`/`queue`/`run`/`total`), sampled gauges (queue depth,
//! running jobs, busy workers, cache entries/bytes), and the engine
//! counters of every worker's [`Recorder`]. The snapshot is served
//! three ways: the `metrics` protocol verb (a `serve.metrics` event),
//! the optional `--metrics-addr` HTTP listener speaking Prometheus
//! text exposition, and `sec top`'s live view. Every submission gets a
//! request id (`r1`, `r2`, …) threaded into the engine `Obs` scope and
//! request-phase events (`req.accept`/`req.queue`/`req.run`/
//! `req.done`); requests slower than `--slow-ms` additionally emit a
//! structured `serve.slow` event and a stderr log line.
//!
//! # Robustness
//!
//! All daemon state locks go through a poison-tolerant helper: a
//! worker panic while holding a lock recovers the inner value, bumps
//! `serve_lock_poisoned_total`, and emits a `serve.poison` event
//! instead of wedging the daemon. Worker panics themselves are caught
//! (`catch_unwind`), reported to the owning client as an `unknown`
//! verdict with reason `panic`, and counted in
//! `serve_worker_panics_total` — the worker survives to take the next
//! job. Request lines are read through a cap
//! ([`MAX_REQUEST_LINE_BYTES`]): a longer line is answered with a
//! `too_large` error and skipped, and the connection keeps serving.

use crate::cache::{CacheEntry, ResultCache};
use crate::protocol::{parse_request, CheckRequest, Engine, Request, Source};
use sec_core::{Backend, Checker, OptionsBuilder, PartitionSnapshot, Verdict};
use sec_limits::{CancellationToken, SampleTicker};
use sec_netlist::{
    check as check_circuit, load_model_bytes, ordered_digest, structural_fingerprint, Aig,
    Fingerprint, ProductMachine,
};
use sec_obs::{
    CounterHandle, HistogramHandle, LineWriter, MetricsRegistry, NdjsonSink, Obs, Recorder, Sink,
    TagSink, Value,
};
use sec_portfolio::PortfolioOptions;
use sec_sim::Trace;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest request line the daemon reads, newline excluded: 16 MiB.
/// The largest suite design is ~113 KB as inline `.bench` text, so an
/// inline request stays far below it. A longer line is answered with
/// `serve.error` `"error":"too_large"`, and its rest is skipped
/// without being buffered.
pub const MAX_REQUEST_LINE_BYTES: usize = 16 << 20;

/// Configuration of [`run_server`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Address to bind, e.g. `127.0.0.1:7878` (`:0` picks a free port;
    /// the chosen address is printed on stdout).
    pub listen: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bound of the pending-job queue; submissions beyond it are
    /// rejected with `serve.error` instead of queued.
    pub queue_capacity: usize,
    /// LRU bound of the result cache.
    pub cache_entries: usize,
    /// Persist the cache one JSON file per entry under this directory.
    pub cache_dir: Option<PathBuf>,
    /// Capture the whole session (every event of every job, plus
    /// server lifecycle events) to this NDJSON file.
    pub trace_path: Option<PathBuf>,
    /// Deadline applied to jobs that do not set `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Bind a plaintext HTTP listener here serving Prometheus text
    /// exposition on `GET /metrics` (and `ok` on `GET /health`). The
    /// chosen address is printed on stdout as a second banner line.
    pub metrics_addr: Option<String>,
    /// Log requests whose total latency reaches this many milliseconds
    /// (a `serve.slow` event plus a stderr line).
    pub slow_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_entries: 256,
            cache_dir: None,
            trace_path: None,
            default_timeout: Some(Duration::from_secs(600)),
            metrics_addr: None,
            slow_ms: None,
        }
    }
}

/// The serve-layer instrument handles, registered once at startup.
struct ServeMetrics {
    /// Check requests served (immediate cache answers + queued jobs).
    requests: CounterHandle,
    /// Requests answered (or warm-started) from the result cache.
    cache_hits: CounterHandle,
    /// Requests that had to run an engine cold.
    cache_misses: CounterHandle,
    /// Rejected or failed submissions (`serve.error` emissions).
    errors: CounterHandle,
    /// Requests that crossed the `--slow-ms` threshold.
    slow: CounterHandle,
    /// Poisoned daemon locks recovered by the lock helper.
    lock_poisoned: CounterHandle,
    /// Worker panics caught and converted to `unknown` verdicts.
    worker_panics: CounterHandle,
    /// Request latency split by phase; `phase="total"` observes
    /// exactly once per request, so its count reconciles with
    /// `serve_requests_total`.
    lat_accept: HistogramHandle,
    lat_queue: HistogramHandle,
    lat_run: HistogramHandle,
    lat_total: HistogramHandle,
}

impl ServeMetrics {
    fn register(reg: &MetricsRegistry) -> ServeMetrics {
        let lat = |phase: &str| {
            reg.histogram_labeled(
                "serve_latency_us",
                "request latency in microseconds by phase",
                "phase",
                phase,
            )
        };
        ServeMetrics {
            requests: reg.counter(
                "serve_requests_total",
                "check requests served (cache answers and engine runs)",
            ),
            cache_hits: reg.counter(
                "serve_cache_hits_total",
                "requests answered or warm-started from the result cache",
            ),
            cache_misses: reg.counter(
                "serve_cache_misses_total",
                "requests that ran an engine without a cache entry",
            ),
            errors: reg.counter(
                "serve_errors_total",
                "rejected or failed submissions (serve.error emissions)",
            ),
            slow: reg.counter(
                "serve_slow_requests_total",
                "requests that crossed the --slow-ms threshold",
            ),
            lock_poisoned: reg.counter(
                "serve_lock_poisoned_total",
                "poisoned daemon locks recovered by the lock helper",
            ),
            worker_panics: reg.counter(
                "serve_worker_panics_total",
                "worker panics caught and reported as unknown verdicts",
            ),
            lat_accept: lat("accept"),
            lat_queue: lat("queue"),
            lat_run: lat("run"),
            lat_total: lat("total"),
        }
    }
}

/// One unit of work for the pool.
struct Job {
    id: String,
    /// Request id threaded through every event this job emits.
    req: String,
    tag: Option<String>,
    spec: Aig,
    impl_: Aig,
    engine: Engine,
    timeout: Option<Duration>,
    heartbeat: Option<Duration>,
    no_cache: bool,
    fingerprint: Fingerprint,
    ordered: u64,
    /// Snapshot to warm-start from (revalidation over an identical
    /// node numbering).
    seed: Option<PartitionSnapshot>,
    token: CancellationToken,
    /// When the submission arrived (start of the `total` phase).
    submitted: Instant,
    /// Accept-phase latency, fixed at enqueue time.
    accept_us: u64,
    /// When the job entered the queue (start of the `queue` phase).
    enqueued: Instant,
    /// Event sinks of the owning connection plus the session trace.
    conn_obs: Obs,
    conn_sinks: Vec<Arc<dyn Sink>>,
}

struct JobHandle {
    token: CancellationToken,
    conn: u64,
}

struct State {
    queue: Mutex<VecDeque<Job>>,
    queue_cond: Condvar,
    queue_capacity: usize,
    cache: Mutex<ResultCache>,
    jobs: Mutex<HashMap<String, JobHandle>>,
    job_seq: AtomicU64,
    req_seq: AtomicU64,
    conn_seq: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
    shutdown: AtomicBool,
    workers: usize,
    /// Per-worker busy flags (1 while executing a job) — the
    /// `serve_worker_busy` gauge and `sec top`'s per-worker strip.
    worker_busy: Vec<AtomicU64>,
    default_timeout: Option<Duration>,
    slow_ms: Option<u64>,
    registry: MetricsRegistry,
    metrics: ServeMetrics,
    /// Session-wide trace sink, shared (line-atomically) by everything.
    session_sink: Option<Arc<dyn Sink>>,
}

impl State {
    fn session_obs(&self) -> Obs {
        match &self.session_sink {
            Some(s) => Obs::multi(vec![Arc::clone(s)]),
            None => Obs::off(),
        }
    }

    /// Poison-tolerant lock: a panic in another thread while it held
    /// `m` must not wedge the daemon. The inner value is recovered
    /// (daemon state stays usable — every guarded structure is valid
    /// after any interleaving of its operations), the recovery is
    /// counted, and a `serve.poison` event names the lock.
    fn lock<'a, T>(&self, m: &'a Mutex<T>, what: &'static str) -> MutexGuard<'a, T> {
        match m.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.metrics.lock_poisoned.inc(1);
                self.session_obs()
                    .event("serve.poison", &[("lock", Value::from(what))]);
                poisoned.into_inner()
            }
        }
    }

    fn busy_workers(&self) -> u64 {
        self.worker_busy
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-worker state strip, e.g. `"B.B."` — `B` busy, `.` idle.
    fn worker_strip(&self) -> String {
        self.worker_busy
            .iter()
            .map(|w| {
                if w.load(Ordering::Relaxed) != 0 {
                    'B'
                } else {
                    '.'
                }
            })
            .collect()
    }
}

/// Decrements `running` on drop, so a panicking engine cannot leave
/// the in-flight count stuck high.
struct RunningGuard<'a>(&'a State);

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        self.0.running.fetch_sub(1, Ordering::SeqCst);
    }
}

fn verdict_label(v: &Verdict) -> (&'static str, Option<String>, Option<&Trace>) {
    match v {
        Verdict::Equivalent => ("equivalent", None, None),
        Verdict::Inequivalent(t) => ("inequivalent", None, Some(t)),
        Verdict::Unknown(reason) => ("unknown", Some(reason.clone()), None),
        _ => ("unknown", Some("unrecognized verdict".to_string()), None),
    }
}

fn cex_frames(trace: &Trace) -> String {
    trace
        .inputs
        .iter()
        .map(|f| {
            f.iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect::<String>()
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn load_circuit(source: &Source) -> Result<Aig, String> {
    let (bytes, what): (Vec<u8>, String) = match source {
        Source::Path(p) => (
            std::fs::read(p).map_err(|e| format!("cannot read {p}: {e}"))?,
            p.clone(),
        ),
        Source::Inline(text) => (text.clone().into_bytes(), "inline circuit".to_string()),
    };
    let aig = load_model_bytes(&what, &bytes).map_err(|e| format!("{what}: {e}"))?;
    check_circuit(&aig).map_err(|e| format!("{what}: {e}"))?;
    Ok(aig)
}

/// Registers the sampled operational gauges. Callbacks hold a `Weak`
/// so the registry (owned by `State`) never keeps its own owner alive.
fn register_gauges(state: &Arc<State>) {
    let reg = &state.registry;
    let gauge = |name: &str, help: &str, read: Box<dyn Fn(&State) -> u64 + Send + Sync>| {
        let weak = Arc::downgrade(state);
        reg.register_gauge(name, help, move || weak.upgrade().map_or(0, |s| read(&s)));
    };
    gauge(
        "serve_queue_depth",
        "jobs queued and waiting for a worker",
        Box::new(|s| s.lock(&s.queue, "queue").len() as u64),
    );
    gauge(
        "serve_jobs_running",
        "jobs currently executing on a worker",
        Box::new(|s| s.running.load(Ordering::SeqCst)),
    );
    gauge(
        "serve_worker_busy",
        "workers currently executing a job",
        Box::new(State::busy_workers),
    );
    gauge(
        "serve_cache_entries",
        "live result-cache entries",
        Box::new(|s| s.lock(&s.cache, "cache").len() as u64),
    );
    gauge(
        "serve_cache_bytes",
        "approximate serialized size of the result cache",
        Box::new(|s| s.lock(&s.cache, "cache").approx_bytes() as u64),
    );
}

/// Runs the daemon until a `shutdown` request arrives. Prints
/// `sec-serve listening on ADDR` to stdout once the socket is bound,
/// so wrappers (tests, CI) can discover an `:0`-assigned port; with
/// `--metrics-addr`, a second line `sec-serve metrics on ADDR` follows.
///
/// # Errors
///
/// Returns the bind/setup error; per-request failures are reported to
/// the requesting client as `serve.error` events instead.
pub fn run_server(opts: &ServeOptions) -> std::io::Result<()> {
    let listener = TcpListener::bind(&opts.listen)?;
    let addr = listener.local_addr()?;

    let session_sink: Option<Arc<dyn Sink>> = match &opts.trace_path {
        Some(path) => Some(Arc::new(NdjsonSink::shared(Arc::new(LineWriter::create(
            path,
        )?)))),
        None => None,
    };
    let cache = match &opts.cache_dir {
        Some(dir) => ResultCache::persistent(opts.cache_entries, dir.clone())?,
        None => ResultCache::new(opts.cache_entries),
    };
    let cache_entries = cache.len();

    let registry = MetricsRegistry::new();
    let metrics = ServeMetrics::register(&registry);
    let workers_n = opts.workers.max(1);
    let state = Arc::new(State {
        queue: Mutex::new(VecDeque::new()),
        queue_cond: Condvar::new(),
        queue_capacity: opts.queue_capacity.max(1),
        cache: Mutex::new(cache),
        jobs: Mutex::new(HashMap::new()),
        job_seq: AtomicU64::new(0),
        req_seq: AtomicU64::new(0),
        conn_seq: AtomicU64::new(0),
        running: AtomicU64::new(0),
        done: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        workers: workers_n,
        worker_busy: (0..workers_n).map(|_| AtomicU64::new(0)).collect(),
        default_timeout: opts.default_timeout,
        slow_ms: opts.slow_ms,
        registry,
        metrics,
        session_sink,
    });
    register_gauges(&state);

    let metrics_listener = match &opts.metrics_addr {
        Some(maddr) => Some(spawn_metrics_listener(&state, maddr)?),
        None => None,
    };
    let metrics_addr = metrics_listener.as_ref().map(|(addr, _)| *addr);

    let cache_dir_label = opts
        .cache_dir
        .as_ref()
        .map_or("off".to_string(), |d| d.display().to_string());
    let metrics_label = metrics_addr.map_or("off".to_string(), |a| a.to_string());
    let session = state.session_obs();
    session.event(
        "serve.start",
        &[
            ("addr", Value::from(addr.to_string())),
            ("workers", Value::from(state.workers as u64)),
            ("queue_capacity", Value::from(state.queue_capacity as u64)),
            (
                "cache_capacity",
                Value::from(opts.cache_entries.max(1) as u64),
            ),
            ("cache_entries", Value::from(cache_entries as u64)),
            ("cache_dir", Value::from(cache_dir_label.as_str())),
            ("metrics_addr", Value::from(metrics_label.as_str())),
            (
                "default_timeout_ms",
                Value::from(opts.default_timeout.map_or(0, |d| d.as_millis() as u64)),
            ),
            ("slow_ms", Value::from(opts.slow_ms.unwrap_or(0))),
        ],
    );
    eprintln!(
        "sec-serve start: addr={addr} workers={} queue_capacity={} cache_capacity={} \
         cache_entries={cache_entries} cache_dir={cache_dir_label} metrics={metrics_label}",
        state.workers,
        state.queue_capacity,
        opts.cache_entries.max(1),
    );

    println!("sec-serve listening on {addr}");
    if let Some(maddr) = metrics_addr {
        println!("sec-serve metrics on {maddr}");
    }
    std::io::stdout().flush()?;

    spawn_gauge_sampler(&state);

    let mut workers = Vec::with_capacity(state.workers);
    for idx in 0..state.workers {
        let recorder = Recorder::new();
        state
            .registry
            .attach_recorder(&format!("worker-{idx}"), recorder.clone());
        let state = Arc::clone(&state);
        workers.push(std::thread::spawn(move || {
            worker_loop(&state, idx, &recorder)
        }));
    }

    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(&state);
        std::thread::spawn(move || handle_connection(&state, stream));
    }

    state.queue_cond.notify_all();
    if let Some((maddr, thread)) = metrics_listener {
        wake_listener(maddr);
        let _ = thread.join();
    }
    for w in workers {
        let _ = w.join();
    }
    session.event(
        "serve.stop",
        &[
            ("requests", Value::from(state.metrics.requests.total())),
            ("done", Value::from(state.done.load(Ordering::SeqCst))),
            ("cache_hits", Value::from(state.metrics.cache_hits.total())),
            (
                "cache_misses",
                Value::from(state.metrics.cache_misses.total()),
            ),
            ("errors", Value::from(state.metrics.errors.total())),
            ("uptime_ms", Value::from(state.registry.uptime_ms())),
        ],
    );
    eprintln!(
        "sec-serve stop: requests={} errors={} uptime_ms={}",
        state.metrics.requests.total(),
        state.metrics.errors.total(),
        state.registry.uptime_ms(),
    );
    Ok(())
}

/// Binds the metrics endpoint and serves it from a blocking accept
/// loop; shutdown wakes it with one self-connect ([`wake_listener`]),
/// like the protocol listener. Returns the bound address and the
/// listener thread.
fn spawn_metrics_listener(
    state: &Arc<State>,
    addr: &str,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let state = Arc::clone(state);
    let thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                let _ = answer_http(&state, stream);
            }
        }
    });
    Ok((local, thread))
}

/// Connects once to a listener bound at `addr`, so a thread blocked in
/// its `accept` wakes and sees the shutdown flag. A wildcard bind
/// address is reached through loopback.
fn wake_listener(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr = if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        };
        addr.set_ip(loopback);
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

/// Answers one HTTP exchange on the metrics listener: `GET /metrics`
/// (or `/`) returns Prometheus text exposition, `GET /health` returns
/// `ok`. Anything else is 404. Hand-rolled HTTP/1.1, connection:
/// close — enough for a scraper, zero dependencies.
fn answer_http(state: &Arc<State>, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the header block so the peer never sees a close with
    // unread request bytes (which could RST the response away).
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) | Err(_) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = match path {
        "/metrics" | "/" => ("200 OK", state.registry.render_prometheus()),
        "/health" => ("200 OK", "ok\n".to_string()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    // Rendered whole and sent in one write, not one per format piece.
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

/// Samples the registered gauges once a second until shutdown, so
/// scrapes and `sec top` can report recent peaks of values that spike
/// between polls.
fn spawn_gauge_sampler(state: &Arc<State>) {
    let state = Arc::clone(state);
    std::thread::spawn(move || {
        let mut ticker = SampleTicker::new(Duration::from_secs(1));
        while !state.shutdown.load(Ordering::SeqCst) {
            if ticker.ready() {
                state.registry.sample_gauges();
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
}

/// The aggregated telemetry snapshot behind the `metrics` verb and
/// `sec top`.
fn metrics_fields(state: &State) -> Vec<(&'static str, Value)> {
    let m = &state.metrics;
    let (cache_entries, cache_bytes, cache_counters) = {
        let cache = state.lock(&state.cache, "cache");
        (cache.len(), cache.approx_bytes(), cache.counters())
    };
    let queue_depth = state.lock(&state.queue, "queue").len();
    let hits = m.cache_hits.total();
    let misses = m.cache_misses.total();
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    // Latency over the last minute when there was traffic, else
    // lifetime — `sec top` should show recent behavior, not history.
    let window = m.lat_total.window();
    let lat = if window.count > 0 {
        window
    } else {
        m.lat_total.lifetime()
    };
    vec![
        ("uptime_ms", Value::from(state.registry.uptime_ms())),
        ("workers", Value::from(state.workers as u64)),
        ("worker_busy", Value::from(state.busy_workers())),
        ("worker_state", Value::from(state.worker_strip())),
        ("queue_depth", Value::from(queue_depth as u64)),
        ("queue_capacity", Value::from(state.queue_capacity as u64)),
        ("running", Value::from(state.running.load(Ordering::SeqCst))),
        ("done", Value::from(state.done.load(Ordering::SeqCst))),
        ("requests", Value::from(m.requests.total())),
        ("req_per_s", Value::from(m.requests.rate_per_sec())),
        ("window_requests", Value::from(m.requests.window_sum())),
        ("errors", Value::from(m.errors.total())),
        ("slow", Value::from(m.slow.total())),
        ("cache_entries", Value::from(cache_entries as u64)),
        ("cache_bytes", Value::from(cache_bytes as u64)),
        ("cache_hits", Value::from(hits)),
        ("cache_misses", Value::from(misses)),
        ("cache_hit_rate", Value::from(hit_rate)),
        ("cache_evictions", Value::from(cache_counters.evictions)),
        ("p50_us", Value::from(lat.quantile(0.50))),
        ("p90_us", Value::from(lat.quantile(0.90))),
        ("p99_us", Value::from(lat.quantile(0.99))),
        ("max_us", Value::from(lat.max)),
        ("latency_count", Value::from(lat.count)),
        ("lock_poisoned", Value::from(m.lock_poisoned.total())),
        ("worker_panics", Value::from(m.worker_panics.total())),
    ]
}

/// What [`read_request_line`] found.
#[derive(Debug, PartialEq, Eq)]
enum LineRead {
    /// The buffer holds the next line, without its newline.
    Line,
    /// The next line was longer than the cap. It has been consumed;
    /// only its first `cap + 1` bytes were buffered.
    TooLarge,
    /// The peer closed the stream.
    Eof,
}

/// Reads the next `\n`-terminated line into `buf` (cleared first),
/// buffering at most `cap + 1` bytes of it; the rest of a longer line
/// is skipped unbuffered. A last line without a newline still counts.
/// Bytes, not a `String`: a cap that splits a UTF-8 sequence must not
/// fail the read.
fn read_request_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    let read = reader
        .by_ref()
        .take(cap as u64 + 1)
        .read_until(b'\n', buf)?;
    if read == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > cap {
        reader.skip_until(b'\n')?;
        return Ok(LineRead::TooLarge);
    }
    Ok(LineRead::Line)
}

/// Reader loop of one client connection.
fn handle_connection(state: &Arc<State>, stream: TcpStream) {
    let conn_id = state.conn_seq.fetch_add(1, Ordering::SeqCst) + 1;
    // No reply line waits for the client's delayed ACK of the previous
    // one. Safe because `LineWriter` sends each line in one write.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn_writer = Arc::new(LineWriter::new(write_half));
    let conn_sink: Arc<dyn Sink> = Arc::new(NdjsonSink::shared(conn_writer));
    let mut sinks: Vec<Arc<dyn Sink>> = vec![Arc::clone(&conn_sink)];
    if let Some(s) = &state.session_sink {
        sinks.push(Arc::clone(s));
    }
    let conn_obs = Obs::multi(sinks.clone());
    conn_obs.event(
        "serve.hello",
        &[
            ("proto", Value::from(1u64)),
            ("workers", Value::from(state.workers as u64)),
        ],
    );

    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let request = match read_request_line(&mut reader, &mut buf, MAX_REQUEST_LINE_BYTES) {
            Ok(LineRead::Line) => match std::str::from_utf8(&buf).map(str::trim) {
                Ok("") => continue,
                Ok(line) => parse_request(line),
                Err(_) => Err("request line is not UTF-8".to_string()),
            },
            Ok(LineRead::TooLarge) => Err("too_large".to_string()),
            Ok(LineRead::Eof) | Err(_) => break,
        };
        match request {
            Err(msg) => {
                state.metrics.errors.inc(1);
                conn_obs.event("serve.error", &[("error", Value::from(msg))]);
            }
            Ok(Request::Check(req)) => submit(state, conn_id, &conn_obs, &sinks, *req),
            Ok(Request::Cancel { job }) => {
                let found = {
                    let jobs = state.lock(&state.jobs, "jobs");
                    jobs.get(&job).map(|h| h.token.clone())
                };
                match found {
                    Some(token) => {
                        token.cancel();
                        conn_obs.event(
                            "job.cancel",
                            &[
                                ("job", Value::from(job)),
                                ("reason", Value::from("request")),
                            ],
                        );
                    }
                    None => {
                        state.metrics.errors.inc(1);
                        conn_obs.event(
                            "serve.error",
                            &[
                                ("job", Value::from(job)),
                                ("error", Value::from("no such job")),
                            ],
                        );
                    }
                }
            }
            Ok(Request::Status) => {
                let (cache_entries, counters) = {
                    let cache = state.lock(&state.cache, "cache");
                    (cache.len(), cache.counters())
                };
                let queue_depth = state.lock(&state.queue, "queue").len();
                conn_obs.event(
                    "serve.status",
                    &[
                        ("workers", Value::from(state.workers as u64)),
                        ("queue_depth", Value::from(queue_depth as u64)),
                        ("running", Value::from(state.running.load(Ordering::SeqCst))),
                        ("done", Value::from(state.done.load(Ordering::SeqCst))),
                        ("cache_entries", Value::from(cache_entries as u64)),
                        ("cache_hits", Value::from(counters.hits)),
                        ("cache_misses", Value::from(counters.misses)),
                        ("cache_evictions", Value::from(counters.evictions)),
                    ],
                );
            }
            Ok(Request::Metrics) => {
                conn_obs.event("serve.metrics", &metrics_fields(state));
            }
            Ok(Request::Health) => {
                let queue_depth = state.lock(&state.queue, "queue").len();
                conn_obs.event(
                    "serve.health",
                    &[
                        ("status", Value::from("ok")),
                        ("uptime_ms", Value::from(state.registry.uptime_ms())),
                        ("workers", Value::from(state.workers as u64)),
                        ("queue_depth", Value::from(queue_depth as u64)),
                    ],
                );
            }
            Ok(Request::Shutdown) => {
                conn_obs.event("serve.bye", &[]);
                cancel_owned_jobs(state, None, "shutdown");
                state.shutdown.store(true, Ordering::SeqCst);
                state.queue_cond.notify_all();
                // Unblock the accept loop so it observes the flag.
                if let Ok(addr) = reader.get_ref().local_addr() {
                    wake_listener(addr);
                }
                return;
            }
        }
    }
    // EOF or socket error: the client is gone. Cancel everything it
    // still owns so its jobs stop burning workers.
    if !state.shutdown.load(Ordering::SeqCst) {
        cancel_owned_jobs(state, Some(conn_id), "disconnect");
    }
}

/// Cancels jobs owned by `conn` (all jobs when `None`), emitting
/// `job.cancel` on the session trace — the owning client is gone or
/// going, so the session capture is the surviving audit record.
fn cancel_owned_jobs(state: &Arc<State>, conn: Option<u64>, reason: &'static str) {
    let session = state.session_obs();
    let jobs = state.lock(&state.jobs, "jobs");
    for (id, handle) in jobs.iter() {
        if conn.is_none_or(|c| handle.conn == c) && !handle.token.is_cancelled() {
            handle.token.cancel();
            session.event(
                "job.cancel",
                &[
                    ("job", Value::from(id.as_str())),
                    ("reason", Value::from(reason)),
                ],
            );
        }
    }
}

/// Logs a request that crossed the `--slow-ms` threshold: a
/// structured `serve.slow` event plus one stderr line.
fn log_slow(state: &State, obs: &Obs, req: &str, job: &str, verdict: &str, total_us: u64) {
    let Some(slow_ms) = state.slow_ms else {
        return;
    };
    let total_ms = total_us / 1000;
    if total_ms < slow_ms {
        return;
    }
    state.metrics.slow.inc(1);
    obs.event(
        "serve.slow",
        &[
            ("req", Value::from(req)),
            ("job", Value::from(job)),
            ("verdict", Value::from(verdict)),
            ("total_us", Value::from(total_us)),
            ("threshold_ms", Value::from(slow_ms)),
        ],
    );
    eprintln!(
        "sec-serve slow request: req={req} job={job} total_ms={total_ms} \
         threshold_ms={slow_ms} verdict={verdict}"
    );
}

/// Handles one `check` request on the submitting connection's thread:
/// loads and validates the circuits, fingerprints the product machine,
/// answers cache hits immediately, and queues the rest.
fn submit(
    state: &Arc<State>,
    conn_id: u64,
    conn_obs: &Obs,
    conn_sinks: &[Arc<dyn Sink>],
    req: CheckRequest,
) {
    let submitted = Instant::now();
    let req_id = format!("r{}", state.req_seq.fetch_add(1, Ordering::SeqCst) + 1);
    let id = format!("j{}", state.job_seq.fetch_add(1, Ordering::SeqCst) + 1);
    let mut base = vec![
        ("req", Value::from(req_id.as_str())),
        ("job", Value::from(id.as_str())),
    ];
    if let Some(tag) = &req.tag {
        base.push(("tag", Value::from(tag.as_str())));
    }
    let fail = |msg: String| {
        state.metrics.errors.inc(1);
        let mut fields = base.clone();
        fields.push(("error", Value::from(msg)));
        conn_obs.event("serve.error", &fields);
    };

    let spec = match load_circuit(&req.spec) {
        Ok(aig) => aig,
        Err(msg) => return fail(msg),
    };
    let impl_ = match load_circuit(&req.impl_) {
        Ok(aig) => aig,
        Err(msg) => return fail(msg),
    };
    let pm = match ProductMachine::build(&spec, &impl_) {
        Ok(pm) => pm,
        Err(e) => return fail(e.to_string()),
    };
    let fingerprint = structural_fingerprint(&pm.aig);
    let ordered = ordered_digest(&pm.aig);

    let mut seed = None;
    let mut cache_hit = false;
    if !req.no_cache {
        let hit = state.lock(&state.cache, "cache").lookup(fingerprint);
        if let Some(entry) = hit {
            cache_hit = true;
            if req.revalidate {
                // Re-run, but warm-start when the snapshot's node
                // numbering matches this product machine exactly.
                if entry.ordered_digest == ordered && !entry.snapshot.is_empty() {
                    seed = Some(entry.snapshot);
                }
            } else {
                let accept_us = submitted.elapsed().as_micros() as u64;
                let mut accept = base.clone();
                accept.push(("dur_us", Value::from(accept_us)));
                accept.push(("cached", Value::from(true)));
                conn_obs.event("req.accept", &accept);
                let verdict = if entry.equivalent {
                    "equivalent"
                } else {
                    "inequivalent"
                };
                let mut fields = base.clone();
                fields.push(("verdict", Value::from(verdict)));
                if let Some(cex) = &entry.cex {
                    fields.push(("cex", Value::from(cex_frames(cex))));
                }
                fields.push(("cached", Value::from(true)));
                fields.push(("fingerprint", Value::from(fingerprint.to_string())));
                fields.push(("classes", Value::from(entry.classes as u64)));
                fields.push(("signals", Value::from(entry.signals as u64)));
                fields.push(("eqs_percent", Value::from(entry.eqs_percent)));
                fields.push(("rounds", Value::from(entry.rounds as u64)));
                fields.push(("time_ms", Value::from(0u64)));
                let total_us = submitted.elapsed().as_micros() as u64;
                let m = &state.metrics;
                m.requests.inc(1);
                m.cache_hits.inc(1);
                m.lat_accept.observe(accept_us);
                m.lat_total.observe(total_us);
                let mut done = base.clone();
                done.push(("verdict", Value::from(verdict)));
                done.push(("cached", Value::from(true)));
                done.push(("accept_us", Value::from(accept_us)));
                done.push(("total_us", Value::from(total_us)));
                conn_obs.event("req.done", &done);
                // serve.result last: clients stop reading at it.
                conn_obs.event("serve.result", &fields);
                state.done.fetch_add(1, Ordering::SeqCst);
                log_slow(state, conn_obs, &req_id, &id, verdict, total_us);
                return;
            }
        }
    }

    let token = CancellationToken::new();
    let mut job = Job {
        id: id.clone(),
        req: req_id.clone(),
        tag: req.tag.clone(),
        spec,
        impl_,
        engine: req.engine,
        timeout: req
            .timeout_ms
            .map(Duration::from_millis)
            .or(state.default_timeout),
        heartbeat: req.heartbeat_ms.map(Duration::from_millis),
        no_cache: req.no_cache,
        fingerprint,
        ordered,
        seed,
        token: token.clone(),
        submitted,
        accept_us: 0,
        enqueued: submitted,
        conn_obs: conn_obs.clone(),
        conn_sinks: conn_sinks.to_vec(),
    };

    {
        let mut queue = state.lock(&state.queue, "queue");
        if queue.len() >= state.queue_capacity {
            drop(queue);
            return fail("queue full".to_string());
        }
        state.lock(&state.jobs, "jobs").insert(
            id.clone(),
            JobHandle {
                token,
                conn: conn_id,
            },
        );
        let depth = queue.len() + 1;
        let mut fields = base.clone();
        fields.push(("fingerprint", Value::from(fingerprint.to_string())));
        fields.push(("engine", Value::from(job.engine.name())));
        fields.push(("queue_depth", Value::from(depth as u64)));
        conn_obs.event("serve.queued", &fields);

        let accept_us = submitted.elapsed().as_micros() as u64;
        job.accept_us = accept_us;
        job.enqueued = Instant::now();
        let m = &state.metrics;
        m.requests.inc(1);
        if cache_hit {
            m.cache_hits.inc(1);
        } else {
            m.cache_misses.inc(1);
        }
        m.lat_accept.observe(accept_us);
        let mut accept = base.clone();
        accept.push(("dur_us", Value::from(accept_us)));
        accept.push(("cached", Value::from(false)));
        conn_obs.event("req.accept", &accept);

        queue.push_back(job);
    }
    state.queue_cond.notify_one();
}

/// One worker: pops jobs until shutdown. A panicking job is caught,
/// reported to its client, and counted — the worker survives.
fn worker_loop(state: &Arc<State>, idx: usize, recorder: &Recorder) {
    loop {
        let job = {
            let mut queue = state.lock(&state.queue, "queue");
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = match state.queue_cond.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => {
                        state.metrics.lock_poisoned.inc(1);
                        state
                            .session_obs()
                            .event("serve.poison", &[("lock", Value::from("queue"))]);
                        poisoned.into_inner()
                    }
                };
            }
        };
        state.worker_busy[idx].store(1, Ordering::SeqCst);
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(state, &job, idx, recorder)));
        if outcome.is_err() {
            recover_panicked_job(state, &job, idx);
        }
    }
}

/// Cleans up after a job whose engine panicked: the client gets an
/// `unknown` verdict with reason `panic`, the daemon counts it, and
/// the job is accounted exactly like any other completion.
fn recover_panicked_job(state: &Arc<State>, job: &Job, worker: usize) {
    state.metrics.worker_panics.inc(1);
    state.session_obs().event(
        "serve.panic",
        &[
            ("req", Value::from(job.req.as_str())),
            ("job", Value::from(job.id.as_str())),
            ("worker", Value::from(worker as u64)),
        ],
    );
    let mut fields = vec![
        ("req", Value::from(job.req.as_str())),
        ("job", Value::from(job.id.as_str())),
    ];
    if let Some(tag) = &job.tag {
        fields.push(("tag", Value::from(tag.as_str())));
    }
    fields.push(("verdict", Value::from("unknown")));
    fields.push(("reason", Value::from("panic")));
    fields.push(("cached", Value::from(false)));
    fields.push((
        "time_ms",
        Value::from(job.enqueued.elapsed().as_millis() as u64),
    ));
    let total_us = job.submitted.elapsed().as_micros() as u64;
    state.metrics.lat_total.observe(total_us);
    job.conn_obs.event(
        "req.done",
        &[
            ("req", Value::from(job.req.as_str())),
            ("job", Value::from(job.id.as_str())),
            ("verdict", Value::from("unknown")),
            ("cached", Value::from(false)),
            ("total_us", Value::from(total_us)),
        ],
    );
    retire_job(state, job, worker);
    job.conn_obs.event("serve.result", &fields);
    log_slow(state, &job.conn_obs, &job.req, &job.id, "unknown", total_us);
}

/// Settles a finished job's bookkeeping: its worker goes idle, the job
/// leaves the job table, and `done` counts it. Runs before the job's
/// `serve.result`, the line clients wait for, so a request sent after a
/// result always sees the daemon with that job finished.
fn retire_job(state: &State, job: &Job, worker: usize) {
    state.worker_busy[worker].store(0, Ordering::SeqCst);
    state.lock(&state.jobs, "jobs").remove(&job.id);
    state.done.fetch_add(1, Ordering::SeqCst);
}

/// Completes a job on every exit path: records the `queue`/`run`/
/// `total` phase latencies, emits `req.done`, retires the job, emits
/// `serve.result`, and applies the slow-request log.
fn finish_job(
    state: &Arc<State>,
    job: &Job,
    worker: usize,
    mut fields: Vec<(&'static str, Value)>,
    verdict: &str,
    started: Instant,
    run_us: u64,
) {
    let queue_us = (started - job.enqueued).as_micros() as u64;
    let total_us = job.submitted.elapsed().as_micros() as u64;
    let m = &state.metrics;
    m.lat_queue.observe(queue_us);
    m.lat_run.observe(run_us);
    m.lat_total.observe(total_us);
    job.conn_obs.event(
        "req.run",
        &[
            ("req", Value::from(job.req.as_str())),
            ("job", Value::from(job.id.as_str())),
            ("dur_us", Value::from(run_us)),
        ],
    );
    job.conn_obs.event(
        "req.done",
        &[
            ("req", Value::from(job.req.as_str())),
            ("job", Value::from(job.id.as_str())),
            ("verdict", Value::from(verdict)),
            ("cached", Value::from(false)),
            ("accept_us", Value::from(job.accept_us)),
            ("queue_us", Value::from(queue_us)),
            ("run_us", Value::from(run_us)),
            ("total_us", Value::from(total_us)),
        ],
    );
    fields.push(("time_ms", Value::from(started.elapsed().as_millis() as u64)));
    // serve.result last: it is the line clients wait for, so every
    // telemetry event of the request, and the job's retirement, precede
    // it.
    retire_job(state, job, worker);
    job.conn_obs.event("serve.result", &fields);
    log_slow(state, &job.conn_obs, &job.req, &job.id, verdict, total_us);
}

fn run_job(state: &Arc<State>, job: &Job, worker: usize, recorder: &Recorder) {
    let start = Instant::now();
    let mut base = vec![
        ("req", Value::from(job.req.as_str())),
        ("job", Value::from(job.id.as_str())),
    ];
    if let Some(tag) = &job.tag {
        base.push(("tag", Value::from(tag.as_str())));
    }

    job.conn_obs.event(
        "req.queue",
        &[
            ("req", Value::from(job.req.as_str())),
            ("job", Value::from(job.id.as_str())),
            (
                "dur_us",
                Value::from((start - job.enqueued).as_micros() as u64),
            ),
        ],
    );

    if job.token.is_cancelled() {
        let mut fields = base.clone();
        fields.push(("verdict", Value::from("unknown")));
        fields.push(("reason", Value::from("cancelled")));
        fields.push(("cached", Value::from(false)));
        finish_job(state, job, worker, fields, "unknown", start, 0);
        return;
    }

    let mut fields = base.clone();
    fields.push(("engine", Value::from(job.engine.name())));
    fields.push(("fingerprint", Value::from(job.fingerprint.to_string())));
    fields.push(("seeded", Value::from(job.seed.is_some())));
    job.conn_obs.event("job.start", &fields);

    // Engine events go out tagged with the request and job ids on the
    // same shared line writers, so concurrent jobs multiplex without
    // tearing and `sec trace summary` can still attribute every event.
    // The worker's recorder rides along so engine counters aggregate
    // into the daemon-wide registry.
    let job_obs = {
        // The tag values must outlive the job — owned Strings per sink.
        let mut tagged: Vec<Arc<dyn Sink>> = job
            .conn_sinks
            .iter()
            .map(|s| {
                let by_job: Arc<dyn Sink> =
                    Arc::new(TagSink::new("job", job.id.clone(), Arc::clone(s)));
                Arc::new(TagSink::new("req", job.req.clone(), by_job)) as Arc<dyn Sink>
            })
            .collect();
        tagged.push(Arc::new(recorder.clone()));
        Obs::multi(tagged)
    };

    state.running.fetch_add(1, Ordering::SeqCst);
    let running_guard = RunningGuard(state);
    let (verdict, stats, snapshot) = match job.engine {
        Engine::Bdd | Engine::Sat => {
            // The SAT preset enables the candidate-set reduction
            // pipeline.
            let builder = if job.engine == Engine::Bdd {
                OptionsBuilder::new().backend(Backend::Bdd)
            } else {
                OptionsBuilder::sat()
            };
            let opts = builder
                .timeout(job.timeout)
                .progress_interval(job.heartbeat)
                .cancel(Some(job.token.clone()))
                .obs(job_obs)
                .build();
            match Checker::new(&job.spec, &job.impl_, opts) {
                Ok(checker) => {
                    let (result, snapshot) = checker.run_seeded(job.seed.as_ref());
                    (result.verdict, Some(result.stats), snapshot)
                }
                Err(e) => {
                    drop(running_guard);
                    state.metrics.errors.inc(1);
                    let mut fields = base.clone();
                    fields.push(("error", Value::from(e.to_string())));
                    job.conn_obs.event("serve.error", &fields);
                    let mut fields = base.clone();
                    fields.push(("verdict", Value::from("unknown")));
                    fields.push(("reason", Value::from("build error")));
                    fields.push(("cached", Value::from(false)));
                    finish_job(
                        state,
                        job,
                        worker,
                        fields,
                        "unknown",
                        start,
                        start.elapsed().as_micros() as u64,
                    );
                    return;
                }
            }
        }
        Engine::Portfolio => {
            let popts = PortfolioOptions {
                timeout: job.timeout,
                progress_interval: job.heartbeat,
                obs: job_obs,
                cancel: Some(job.token.clone()),
                ..PortfolioOptions::default()
            };
            match sec_portfolio::run(&job.spec, &job.impl_, &popts) {
                Ok(result) => (result.verdict, None, PartitionSnapshot::empty()),
                Err(e) => (
                    Verdict::Unknown(e.to_string()),
                    None,
                    PartitionSnapshot::empty(),
                ),
            }
        }
    };
    drop(running_guard);

    let (label, reason, cex) = verdict_label(&verdict);
    if !job.no_cache && label != "unknown" {
        let entry = CacheEntry {
            equivalent: label == "equivalent",
            cex: cex.cloned(),
            classes: stats.as_ref().map_or(0, |s| s.classes),
            signals: stats.as_ref().map_or(0, |s| s.signals),
            eqs_percent: stats.as_ref().map_or(0.0, |s| s.eqs_percent),
            rounds: stats.as_ref().map_or(0, |s| s.iterations),
            ordered_digest: job.ordered,
            snapshot,
        };
        state
            .lock(&state.cache, "cache")
            .store(job.fingerprint, entry);
    }

    let mut fields = base.clone();
    fields.push(("verdict", Value::from(label)));
    if let Some(reason) = reason {
        fields.push(("reason", Value::from(reason)));
    }
    if let Some(cex) = cex {
        fields.push(("cex", Value::from(cex_frames(cex))));
    }
    fields.push(("cached", Value::from(false)));
    fields.push(("fingerprint", Value::from(job.fingerprint.to_string())));
    if let Some(stats) = &stats {
        fields.push(("classes", Value::from(stats.classes as u64)));
        fields.push(("signals", Value::from(stats.signals as u64)));
        fields.push(("eqs_percent", Value::from(stats.eqs_percent)));
        fields.push(("rounds", Value::from(stats.iterations as u64)));
    }
    // `run` covers the cache store and the result fields too, so no
    // daemon time falls between the `req.*` phases.
    let run_us = start.elapsed().as_micros() as u64;
    finish_job(state, job, worker, fields, label, start, run_us);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line of `input` read with `cap`, through a 2-byte buffer so
    /// lines span many refills; `None` marks a line over the cap.
    fn read_all(input: &[u8], cap: usize) -> Vec<Option<Vec<u8>>> {
        let mut reader = BufReader::with_capacity(2, input);
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        loop {
            match read_request_line(&mut reader, &mut buf, cap).unwrap() {
                LineRead::Line => lines.push(Some(buf.clone())),
                LineRead::TooLarge => lines.push(None),
                LineRead::Eof => return lines,
            }
        }
    }

    #[test]
    fn request_line_cap_is_exact() {
        assert_eq!(
            read_all(b"abcd\nabcde\n\nxyz", 4),
            vec![
                Some(b"abcd".to_vec()),
                None,
                Some(vec![]),
                Some(b"xyz".to_vec())
            ]
        );
        assert_eq!(read_all(b"abcde", 4), vec![None]);
    }

    #[test]
    fn overlong_line_is_skipped_to_its_newline() {
        let mut input = vec![b'x'; 1000];
        input.extend_from_slice(b"\nok\n");
        assert_eq!(read_all(&input, 4), vec![None, Some(b"ok".to_vec())]);
    }

    #[test]
    fn cap_splitting_a_utf8_sequence_is_no_read_error() {
        // The cap falls between the two bytes of the `é`.
        assert_eq!(
            read_all("abcdé\nok\n".as_bytes(), 4),
            vec![None, Some(b"ok".to_vec())]
        );
    }
}
