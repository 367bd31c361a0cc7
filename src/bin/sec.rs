//! The `sec` command-line tool: sequential equivalence checking and the
//! supporting plumbing (circuit info, synthesis, DOT export, DIMACS SAT).
//!
//! ```text
//! sec check <spec> <impl> [options]   prove/refute sequential equivalence
//! sec info <circuit>                  print circuit statistics
//! sec optimize <in> <out> [options]   retime + restructure a circuit
//! sec sweep <in> <out> [options]      merge sequentially equivalent logic
//! sec dot <circuit>                   write Graphviz to stdout
//! sec sat <file.cnf>                  solve a DIMACS CNF
//! sec trace summary <trace>           digest an NDJSON trace
//! sec trace diff <base> <new>         compare two traces, gate on regressions
//! sec trace flame <trace>             folded-stack export of the span tree
//! sec serve [options]                 run the persistent checking daemon
//! sec client <sub> --addr ADDR        drive a running daemon
//! sec top --addr ADDR                 live daemon telemetry dashboard
//! ```
//!
//! Circuits are read in ISCAS'89 `.bench`, ASCII AIGER `.aag` or binary
//! AIGER `.aig` format through [`sec::netlist::load_model`], which
//! detects the format by content magic first, then by extension.

use sec::core::{Backend, Checker, Options, SignalScope, Verdict};
use sec::netlist::{
    analysis, dot, load_model, load_model_bytes, write_aiger, write_aiger_binary, write_bench, Aig,
};
use sec::obs::{escape_json, heartbeat_line, HeartbeatSink, NdjsonSink, Obs, Recorder, Sink};
use sec::portfolio::{self, EngineKind, PortfolioOptions, ProgressEvent};
use sec::serve::{
    check_line, CheckRequest as ServeCheckRequest, Client as ServeClient, Engine as ServeEngine,
    ServeOptions, Source as ServeSource,
};
use sec::sim::Trace;
use sec::synth::{pipeline, PipelineOptions};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

/// Process exit codes of `sec check`: the verdict is machine-readable
/// from the code alone. Anything above [`EXIT_UNKNOWN`] is an error
/// (usage, unreadable file, interface mismatch), never a verdict.
const EXIT_EQUIVALENT: i32 = 0;
const EXIT_INEQUIVALENT: i32 = 1;
const EXIT_UNKNOWN: i32 = 2;
const EXIT_USAGE: i32 = 3;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         sec check <spec> <impl> [--engine bdd|sat|portfolio] [--scope all|regs]\n           \
         [--no-sim-seed] [--no-funcdep] [--approx-reach] [--retime-rounds N]\n           \
         [--timeout SECS] [--engine-timeout SECS] [--node-limit N]\n           \
         [--bmc-depth N] [--seed N] [--batch-pairs N]\n           \
         [--json] [--stats] [--trace-json FILE] [--progress[=SECS]]\n  \
         sec info <circuit>\n  \
         sec optimize <in> <out> [--seed N] [--retime-only]\n  \
         sec sweep <in> <out> [--backend bdd|sat]\n  \
         sec dot <circuit>\n  \
         sec sat <file.cnf>\n  \
         sec trace summary <trace.ndjson> [--strict]\n  \
         sec trace diff <base.ndjson> <new.ndjson> [--strict]\n           \
         [--threshold NAME=PCT]... [--default-threshold PCT]\n  \
         sec trace flame <trace.ndjson> [--strict]\n  \
         sec serve [--listen ADDR] [--workers N] [--queue N] [--cache-entries N]\n           \
         [--cache-dir DIR] [--trace-json FILE] [--timeout SECS]\n           \
         [--metrics-addr ADDR] [--slow-ms N]\n  \
         sec client check <spec> <impl> --addr ADDR [--engine bdd|sat|portfolio]\n           \
         [--timeout SECS] [--heartbeat SECS] [--tag NAME]\n           \
         [--no-cache] [--revalidate] [--inline]\n  \
         sec client batch <spec impl>... --addr ADDR [check options]\n  \
         sec client cancel <job> --addr ADDR\n  \
         sec client status|metrics|health --addr ADDR\n  \
         sec client shutdown --addr ADDR\n  \
         sec top --addr ADDR [--interval SECS] [--count N]\n\n\
         check exit codes: 0 equivalent, 1 not equivalent, 2 unknown, 3 error\n\
         trace exit codes: 0 ok, 1 regression/mismatch, 2 parse error, 3 usage\n\
         circuit formats: ISCAS'89 .bench, ASCII AIGER .aag, binary AIGER .aig"
    );
    exit(EXIT_USAGE)
}

fn read_circuit(path: &str) -> Aig {
    load_model(path).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(EXIT_USAGE)
    })
}

/// Writes a circuit in the format the output extension names: binary
/// AIGER for `.aig`, ASCII AIGER for `.aag`, ISCAS'89 otherwise.
fn write_circuit(path: &str, aig: &Aig) {
    let bytes = if path.ends_with(".aig") {
        write_aiger_binary(aig)
    } else if path.ends_with(".aag") {
        write_aiger(aig).into_bytes()
    } else {
        write_bench(aig).into_bytes()
    };
    std::fs::write(path, bytes).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1)
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("sat") => cmd_sat(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        _ => usage(),
    }
}

fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        exit(EXIT_USAGE)
    })
}

/// Parses a `sec serve --workers` value. Zero (or garbage) is a usage
/// error with a hint; absurd requests are clamped to 4x the available
/// parallelism with a warning ([`sec::limits::effective_workers`]).
fn parse_workers(value: &str) -> usize {
    let requested: usize = value.parse().ok().filter(|n| *n >= 1).unwrap_or_else(|| {
        eprintln!(
            "--workers needs a worker count of at least 1, got `{value}` \
             (hint: pass --workers 1 for one check at a time, or omit the flag)"
        );
        exit(EXIT_USAGE)
    });
    let (workers, warning) = sec::limits::effective_workers(requested);
    if let Some(w) = warning {
        eprintln!("{w}");
    }
    workers
}

fn trace_json(trace: &Trace) -> String {
    let frames: Vec<String> = trace
        .inputs
        .iter()
        .map(|frame| {
            let bits: String = frame.iter().map(|&b| if b { '1' } else { '0' }).collect();
            format!("\"{bits}\"")
        })
        .collect();
    format!("[{}]", frames.join(","))
}

/// Prints the human-readable verdict block and returns the exit code.
fn print_verdict(verdict: &Verdict) -> i32 {
    match verdict {
        Verdict::Equivalent => {
            println!("EQUIVALENT");
            EXIT_EQUIVALENT
        }
        Verdict::Inequivalent(trace) => {
            println!("INEQUIVALENT — {}-frame counterexample:", trace.len());
            for (f, frame) in trace.inputs.iter().enumerate() {
                let bits: String = frame.iter().map(|&b| if b { '1' } else { '0' }).collect();
                println!("  frame {f}: {bits}");
            }
            EXIT_INEQUIVALENT
        }
        Verdict::Unknown(reason) => {
            println!("UNKNOWN: {reason}");
            EXIT_UNKNOWN
        }
        other => {
            println!("UNKNOWN verdict kind: {other:?}");
            EXIT_UNKNOWN
        }
    }
}

/// The shared JSON fields of a verdict: `"verdict":..` plus, when
/// present, `"reason"`/`"trace"`.
fn verdict_json_fields(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Equivalent => "\"verdict\":\"equivalent\"".to_string(),
        Verdict::Inequivalent(trace) => format!(
            "\"verdict\":\"inequivalent\",\"trace\":{}",
            trace_json(trace)
        ),
        Verdict::Unknown(reason) => format!(
            "\"verdict\":\"unknown\",\"reason\":\"{}\"",
            escape_json(reason)
        ),
        other => format!(
            "\"verdict\":\"unknown\",\"reason\":\"{}\"",
            escape_json(&format!("{other:?}"))
        ),
    }
}

fn verdict_exit_code(verdict: &Verdict) -> i32 {
    match verdict {
        Verdict::Equivalent => EXIT_EQUIVALENT,
        Verdict::Inequivalent(_) => EXIT_INEQUIVALENT,
        _ => EXIT_UNKNOWN,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CheckEngine {
    Solo,
    Portfolio,
}

fn cmd_check(args: &[String]) {
    if args.len() < 2 {
        usage();
    }
    let spec = read_circuit(&args[0]);
    let imp = read_circuit(&args[1]);
    let mut opts = Options::default();
    let mut engine = CheckEngine::Solo;
    let mut engine_timeout: Option<Duration> = None;
    // The batching knob: the SAT preset decides the default after flag
    // parsing (flags may precede `--engine sat`), an explicit flag
    // overrides the preset.
    let mut batch_pairs_override: Option<usize> = None;
    let mut json = false;
    let mut show_stats = false;
    let mut trace_path: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--engine" => match take_value(args, &mut i, "--engine") {
                "bdd" => {
                    engine = CheckEngine::Solo;
                    opts.backend = Backend::Bdd;
                }
                "sat" => {
                    engine = CheckEngine::Solo;
                    opts.backend = Backend::Sat;
                }
                "portfolio" => engine = CheckEngine::Portfolio,
                other => {
                    eprintln!("unknown engine `{other}`");
                    exit(EXIT_USAGE)
                }
            },
            "--backend" => {
                opts.backend = match take_value(args, &mut i, "--backend") {
                    "bdd" => Backend::Bdd,
                    "sat" => Backend::Sat,
                    other => {
                        eprintln!("unknown backend `{other}`");
                        exit(EXIT_USAGE)
                    }
                }
            }
            "--scope" => {
                opts.scope = match take_value(args, &mut i, "--scope") {
                    "all" => SignalScope::All,
                    "regs" => SignalScope::RegistersOnly,
                    other => {
                        eprintln!("unknown scope `{other}`");
                        exit(EXIT_USAGE)
                    }
                }
            }
            "--no-sim-seed" => opts.sim_cycles = 0,
            "--no-funcdep" => opts.functional_deps = false,
            "--approx-reach" => opts.approx_reach = true,
            s if s == "--progress" || s.starts_with("--progress=") => {
                let secs = match s.strip_prefix("--progress=") {
                    Some(v) => v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| {
                            eprintln!("--progress needs a positive interval in seconds");
                            exit(EXIT_USAGE)
                        }),
                    None => 1.0,
                };
                opts.progress_interval = Some(Duration::from_secs_f64(secs));
            }
            "--json" => json = true,
            "--stats" => show_stats = true,
            "--trace-json" => {
                trace_path = Some(take_value(args, &mut i, "--trace-json").to_string())
            }
            "--retime-rounds" => {
                opts.retime_rounds = take_value(args, &mut i, "--retime-rounds")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--timeout" => {
                let secs: u64 = take_value(args, &mut i, "--timeout")
                    .parse()
                    .unwrap_or_else(|_| usage());
                opts.timeout = Some(Duration::from_secs(secs));
            }
            "--engine-timeout" => {
                let secs: u64 = take_value(args, &mut i, "--engine-timeout")
                    .parse()
                    .unwrap_or_else(|_| usage());
                engine_timeout = Some(Duration::from_secs(secs));
            }
            "--node-limit" => {
                opts.node_limit = take_value(args, &mut i, "--node-limit")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--bmc-depth" => {
                opts.bmc_depth = take_value(args, &mut i, "--bmc-depth")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--seed" => {
                opts.seed = take_value(args, &mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--batch-pairs" => {
                batch_pairs_override = Some(
                    take_value(args, &mut i, "--batch-pairs")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            other => {
                eprintln!("unknown option `{other}`");
                exit(EXIT_USAGE)
            }
        }
        i += 1;
    }
    // The SAT engine batches pair queries as `Options::sat()` does;
    // an explicit `--batch-pairs` wins either way.
    if opts.backend == Backend::Sat {
        opts.batch_pairs = Options::sat().batch_pairs;
    }
    if let Some(v) = batch_pairs_override {
        opts.batch_pairs = v;
    }
    // Optional observability sinks: an NDJSON event stream on disk and
    // an in-memory recorder for the `--stats` counter dump. Both see
    // the exact same events.
    let recorder = show_stats.then(Recorder::new);
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    if let Some(path) = &trace_path {
        match NdjsonSink::create(path) {
            Ok(s) => sinks.push(Arc::new(s)),
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                exit(EXIT_USAGE)
            }
        }
    }
    if let Some(r) = &recorder {
        sinks.push(Arc::new(r.clone()));
    }
    if opts.progress_interval.is_some() {
        sinks.push(Arc::new(HeartbeatSink));
    }
    if !sinks.is_empty() {
        opts.obs = Obs::multi(sinks);
    }
    match engine {
        CheckEngine::Solo => check_solo(&spec, &imp, opts, json, recorder),
        CheckEngine::Portfolio => {
            check_portfolio(&spec, &imp, &opts, engine_timeout, json, recorder)
        }
    }
}

/// `{"name":count,...}` of every counter a recorder saw.
fn counters_json(recorder: &Recorder) -> String {
    let parts: Vec<String> = recorder
        .nonzero_counters()
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Human-readable `--stats` counter block (stderr-free, after the
/// stats line, before the verdict).
fn print_counters(recorder: &Recorder) {
    println!("counters:");
    for (name, v) in recorder.nonzero_counters() {
        println!("  {name:<26} {v}");
    }
}

fn check_solo(spec: &Aig, imp: &Aig, opts: Options, json: bool, recorder: Option<Recorder>) -> ! {
    let backend = opts.backend;
    let checker = Checker::new(spec, imp, opts).unwrap_or_else(|e| {
        eprintln!("cannot compare: {e}");
        exit(EXIT_USAGE)
    });
    let r = checker.run();
    if json {
        let counters = recorder
            .as_ref()
            .map(|rec| format!(",\"counters\":{}", counters_json(rec)))
            .unwrap_or_default();
        println!(
            "{{{},\"engine\":\"{}\",\"stats\":{}{}}}",
            verdict_json_fields(&r.verdict),
            match backend {
                Backend::Bdd => "bdd",
                Backend::Sat => "sat",
                _ => "unknown",
            },
            sec::core::stats::to_json(&r.stats),
            counters,
        );
        exit(verdict_exit_code(&r.verdict))
    }
    println!(
        "iterations={} retime_invocations={} splits={} peak_bdd_nodes={} eqs={:.1}% time={:?}",
        r.stats.iterations,
        r.stats.retime_invocations,
        r.stats.splits,
        r.stats.peak_bdd_nodes,
        r.stats.eqs_percent,
        r.stats.time
    );
    if let Some(rec) = &recorder {
        print_counters(rec);
    }
    exit(print_verdict(&r.verdict))
}

fn check_portfolio(
    spec: &Aig,
    imp: &Aig,
    opts: &Options,
    engine_timeout: Option<Duration>,
    json: bool,
    recorder: Option<Recorder>,
) -> ! {
    let popts = PortfolioOptions {
        engines: EngineKind::ALL.to_vec(),
        timeout: opts.timeout,
        engine_timeout,
        seed: opts.seed,
        bmc_depth: if opts.bmc_depth == 0 {
            PortfolioOptions::default().bmc_depth
        } else {
            opts.bmc_depth
        },
        node_limit: opts.node_limit,
        progress_interval: opts.progress_interval,
        obs: opts.obs.clone(),
        ..PortfolioOptions::default()
    };
    let on_event = |ev: &ProgressEvent| {
        if json {
            return;
        }
        match ev {
            ProgressEvent::Started { engine, at } => {
                eprintln!("[{:>8.3}s] {engine} started", at.as_secs_f64())
            }
            ProgressEvent::Iteration { .. } => {}
            ProgressEvent::Finished {
                engine,
                verdict,
                at,
                ..
            } => eprintln!("[{:>8.3}s] {engine} finished: {verdict}", at.as_secs_f64()),
            ProgressEvent::Cancelling { winner, at } => eprintln!(
                "[{:>8.3}s] {winner} wins, cancelling the rest",
                at.as_secs_f64()
            ),
            ProgressEvent::GlobalTimeout { at } => {
                eprintln!("[{:>8.3}s] global timeout", at.as_secs_f64())
            }
        }
    };
    let r = portfolio::run_with_events(spec, imp, &popts, on_event).unwrap_or_else(|e| {
        eprintln!("cannot compare: {e}");
        exit(EXIT_USAGE)
    });
    if json {
        let engines: Vec<String> = r.reports.iter().map(|rep| rep.to_json()).collect();
        let counters = recorder
            .as_ref()
            .map(|rec| format!(",\"counters\":{}", counters_json(rec)))
            .unwrap_or_default();
        println!(
            "{{{},\"engine\":\"portfolio\",\"winner\":{},\"time_ms\":{},\"engines\":[{}]{}}}",
            verdict_json_fields(&r.verdict),
            match r.winner {
                Some(w) => format!("\"{w}\""),
                None => "null".to_string(),
            },
            r.time.as_millis(),
            engines.join(","),
            counters,
        );
        exit(verdict_exit_code(&r.verdict))
    }
    for rep in &r.reports {
        println!(
            "engine {:<9} iterations={} splits={} peak_bdd_nodes={} sat_conflicts={} time={:?}",
            rep.engine, rep.iterations, rep.splits, rep.peak_bdd_nodes, rep.sat_conflicts, rep.time
        );
    }
    match r.winner {
        Some(w) => println!("winner={w} time={:?}", r.time),
        None => println!("winner=none time={:?}", r.time),
    }
    if let Some(rec) = &recorder {
        print_counters(rec);
    }
    exit(print_verdict(&r.verdict))
}

fn cmd_info(args: &[String]) {
    if args.len() != 1 {
        usage();
    }
    let aig = read_circuit(&args[0]);
    let s = analysis::stats(&aig);
    println!("{}: {s}", args[0]);
    for (i, o) in aig.outputs().iter().enumerate() {
        let (ins, lats) = analysis::support(&aig, &[o.lit]);
        println!(
            "  output {} `{}`: combinational support {} inputs, {} registers",
            i,
            o.name.as_deref().unwrap_or("?"),
            ins.len(),
            lats.len()
        );
    }
}

fn cmd_optimize(args: &[String]) {
    if args.len() < 2 {
        usage();
    }
    let aig = read_circuit(&args[0]);
    let mut po = PipelineOptions::default();
    let mut seed = 1u64;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = take_value(args, &mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--retime-only" => po = PipelineOptions::retime_only(),
            other => {
                eprintln!("unknown option `{other}`");
                exit(EXIT_USAGE)
            }
        }
        i += 1;
    }
    let out = pipeline(&aig, &po, seed);
    write_circuit(&args[1], &out);
    println!(
        "{} -> {}: {} regs / {} gates -> {} regs / {} gates",
        args[0],
        args[1],
        aig.num_latches(),
        aig.num_ands(),
        out.num_latches(),
        out.num_ands()
    );
}

fn cmd_sweep(args: &[String]) {
    use sec::core::sequential_sweep;
    if args.len() < 2 {
        usage();
    }
    let aig = read_circuit(&args[0]);
    let mut opts = Options::default();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                opts.backend = match take_value(args, &mut i, "--backend") {
                    "bdd" => Backend::Bdd,
                    "sat" => Backend::Sat,
                    other => {
                        eprintln!("unknown backend `{other}`");
                        exit(EXIT_USAGE)
                    }
                }
            }
            other => {
                eprintln!("unknown option `{other}`");
                exit(EXIT_USAGE)
            }
        }
        i += 1;
    }
    let (reduced, stats) = sequential_sweep(&aig, &opts).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    write_circuit(&args[1], &reduced);
    println!(
        "merged {} signals: {} regs / {} gates -> {} regs / {} gates{}",
        stats.merged,
        stats.latches_before,
        stats.ands_before,
        stats.latches_after,
        stats.ands_after,
        if stats.gave_up {
            " (gave up, unchanged)"
        } else {
            ""
        }
    );
}

fn cmd_dot(args: &[String]) {
    if args.len() != 1 {
        usage();
    }
    let aig = read_circuit(&args[0]);
    print!("{}", dot::to_dot(&aig, "circuit"));
}

fn cmd_sat(args: &[String]) {
    if args.len() != 1 {
        usage();
    }
    let text = std::fs::read_to_string(&args[0]).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", args[0]);
        exit(1)
    });
    match sec::sat::parse_dimacs(&text) {
        Ok(mut problem) => print!("{}", problem.solve_report()),
        Err(e) => {
            eprintln!("{e}");
            exit(1)
        }
    }
}

/// Reads and parses an NDJSON trace. Tolerant by default (malformed
/// lines are skipped and counted); `--strict` fails on the first bad
/// line with a line/column diagnostic. Exit code 2 on any failure.
fn load_trace(path: &str, strict: bool) -> sec::trace::Trace {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(EXIT_UNKNOWN)
    });
    if strict {
        sec::trace::Trace::parse_strict(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(EXIT_UNKNOWN)
        })
    } else {
        sec::trace::Trace::parse_tolerant(&text)
    }
}

fn cmd_trace(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("summary") => cmd_trace_summary(&args[1..]),
        Some("diff") => cmd_trace_diff(&args[1..]),
        Some("flame") => cmd_trace_flame(&args[1..]),
        _ => usage(),
    }
}

/// Splits `args` into (positional paths, strict flag), rejecting
/// anything else.
fn trace_paths(
    args: &[String],
    want: usize,
    allow: &[&str],
) -> (Vec<String>, Vec<(String, String)>) {
    let mut paths = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--strict" {
            flags.push(("--strict".to_string(), String::new()));
        } else if allow.contains(&a) {
            let v = take_value(args, &mut i, a).to_string();
            flags.push((a.to_string(), v));
        } else if a.starts_with("--") {
            eprintln!("unknown option `{a}`");
            exit(EXIT_USAGE)
        } else {
            paths.push(a.to_string());
        }
        i += 1;
    }
    if paths.len() != want {
        usage();
    }
    (paths, flags)
}

fn cmd_trace_summary(args: &[String]) {
    let (paths, flags) = trace_paths(args, 1, &[]);
    let strict = flags.iter().any(|(f, _)| f == "--strict");
    let trace = load_trace(&paths[0], strict);
    let summary = sec::trace::summarize(&trace);
    print!("{}", sec::trace::render_summary(&summary));
    if !summary.mismatches.is_empty() {
        exit(EXIT_INEQUIVALENT)
    }
    exit(EXIT_EQUIVALENT)
}

fn cmd_trace_diff(args: &[String]) {
    let (paths, flags) = trace_paths(args, 2, &["--threshold", "--default-threshold"]);
    let strict = flags.iter().any(|(f, _)| f == "--strict");
    let mut dopts = sec::trace::DiffOptions::default();
    for (flag, value) in &flags {
        match flag.as_str() {
            "--threshold" => {
                let Some((name, pct)) = value.split_once('=') else {
                    eprintln!("--threshold needs NAME=PCT");
                    exit(EXIT_USAGE)
                };
                let pct: f64 = pct.parse().unwrap_or_else(|_| {
                    eprintln!("--threshold percentage `{pct}` is not a number");
                    exit(EXIT_USAGE)
                });
                dopts.thresholds.insert(name.to_string(), pct);
            }
            "--default-threshold" => {
                let pct: f64 = value.parse().unwrap_or_else(|_| {
                    eprintln!("--default-threshold `{value}` is not a number");
                    exit(EXIT_USAGE)
                });
                dopts.default_threshold_pct = Some(pct);
            }
            _ => {}
        }
    }
    let base = sec::trace::summarize(&load_trace(&paths[0], strict));
    let new = sec::trace::summarize(&load_trace(&paths[1], strict));
    let d = sec::trace::diff(&base, &new, &dopts);
    print!("{}", sec::trace::render_diff(&d));
    if d.regressed() {
        exit(EXIT_INEQUIVALENT)
    }
    exit(EXIT_EQUIVALENT)
}

fn cmd_trace_flame(args: &[String]) {
    let (paths, flags) = trace_paths(args, 1, &[]);
    let strict = flags.iter().any(|(f, _)| f == "--strict");
    let trace = load_trace(&paths[0], strict);
    print!("{}", sec::trace::render_folded(&sec::trace::folded(&trace)));
}

fn cmd_serve(args: &[String]) -> ! {
    let mut opts = ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => opts.listen = take_value(args, &mut i, "--listen").to_string(),
            "--workers" => opts.workers = parse_workers(take_value(args, &mut i, "--workers")),
            "--queue" => {
                opts.queue_capacity = take_value(args, &mut i, "--queue")
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--queue needs a capacity of at least 1");
                        exit(EXIT_USAGE)
                    })
            }
            "--cache-entries" => {
                opts.cache_entries = take_value(args, &mut i, "--cache-entries")
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--cache-entries needs a bound of at least 1");
                        exit(EXIT_USAGE)
                    })
            }
            "--cache-dir" => opts.cache_dir = Some(take_value(args, &mut i, "--cache-dir").into()),
            "--trace-json" => {
                opts.trace_path = Some(take_value(args, &mut i, "--trace-json").into())
            }
            "--timeout" => {
                let secs: u64 = take_value(args, &mut i, "--timeout")
                    .parse()
                    .unwrap_or_else(|_| usage());
                opts.default_timeout = Some(Duration::from_secs(secs));
            }
            "--metrics-addr" => {
                opts.metrics_addr = Some(take_value(args, &mut i, "--metrics-addr").to_string())
            }
            "--slow-ms" => {
                opts.slow_ms = Some(
                    take_value(args, &mut i, "--slow-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            other => {
                eprintln!("unknown option `{other}`");
                exit(EXIT_USAGE)
            }
        }
        i += 1;
    }
    match sec::serve::run_server(&opts) {
        Ok(()) => exit(0),
        Err(e) => {
            eprintln!("serve: {e}");
            exit(1)
        }
    }
}

fn cmd_client(args: &[String]) -> ! {
    match args.first().map(String::as_str) {
        Some("check") => client_check(false, &args[1..]),
        Some("batch") => client_check(true, &args[1..]),
        Some("cancel") => client_cancel(&args[1..]),
        Some("status") => client_simple(&args[1..], "{\"cmd\":\"status\"}", "serve.status"),
        Some("metrics") => client_simple(&args[1..], "{\"cmd\":\"metrics\"}", "serve.metrics"),
        Some("health") => client_simple(&args[1..], "{\"cmd\":\"health\"}", "serve.health"),
        Some("shutdown") => client_simple(&args[1..], "{\"cmd\":\"shutdown\"}", "serve.bye"),
        _ => usage(),
    }
}

fn client_connect(addr: Option<String>) -> ServeClient {
    let addr = addr.unwrap_or_else(|| {
        eprintln!("--addr HOST:PORT is required");
        exit(EXIT_USAGE)
    });
    ServeClient::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        exit(EXIT_USAGE)
    })
}

/// `sec client check`/`batch`: submit one (or N) check jobs, stream
/// every server line to stdout, exit with the worst verdict code.
fn client_check(batch: bool, args: &[String]) -> ! {
    let mut addr = None;
    let mut paths: Vec<String> = Vec::new();
    let mut engine = ServeEngine::Sat;
    let mut timeout_ms = None;
    let mut heartbeat_ms = None;
    let mut tag: Option<String> = None;
    let mut no_cache = false;
    let mut revalidate = false;
    let mut inline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr").to_string()),
            "--engine" => {
                let name = take_value(args, &mut i, "--engine");
                engine = ServeEngine::parse(name).unwrap_or_else(|| {
                    eprintln!("unknown engine `{name}`");
                    exit(EXIT_USAGE)
                })
            }
            "--timeout" => {
                let secs: u64 = take_value(args, &mut i, "--timeout")
                    .parse()
                    .unwrap_or_else(|_| usage());
                timeout_ms = Some(secs.saturating_mul(1000));
            }
            "--timeout-ms" => {
                timeout_ms = Some(
                    take_value(args, &mut i, "--timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--heartbeat" => {
                let secs: f64 = take_value(args, &mut i, "--heartbeat")
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--heartbeat needs a positive interval in seconds");
                        exit(EXIT_USAGE)
                    });
                heartbeat_ms = Some((secs * 1000.0).max(1.0) as u64);
            }
            "--tag" => tag = Some(take_value(args, &mut i, "--tag").to_string()),
            "--no-cache" => no_cache = true,
            "--revalidate" => revalidate = true,
            "--inline" => inline = true,
            a if a.starts_with("--") => {
                eprintln!("unknown option `{a}`");
                exit(EXIT_USAGE)
            }
            p => paths.push(p.to_string()),
        }
        i += 1;
    }
    if batch {
        if paths.is_empty() || !paths.len().is_multiple_of(2) {
            eprintln!("batch needs one or more <spec> <impl> path pairs");
            exit(EXIT_USAGE)
        }
    } else if paths.len() != 2 {
        usage();
    }
    let source = |p: &str| {
        if inline {
            let bytes = std::fs::read(p).unwrap_or_else(|e| {
                eprintln!("cannot read {p}: {e}");
                exit(EXIT_USAGE)
            });
            // Validate locally so a malformed circuit fails fast here
            // instead of round-tripping to the daemon.
            if let Err(e) = load_model_bytes(p, &bytes) {
                eprintln!("{e}");
                exit(EXIT_USAGE)
            }
            let text = String::from_utf8(bytes).unwrap_or_else(|_| {
                eprintln!("{p}: binary AIGER cannot be sent --inline; pass a path instead");
                exit(EXIT_USAGE)
            });
            ServeSource::Inline(text)
        } else {
            ServeSource::Path(p.to_string())
        }
    };
    let lines: Vec<String> = paths
        .chunks(2)
        .enumerate()
        .map(|(n, pair)| {
            check_line(&ServeCheckRequest {
                spec: source(&pair[0]),
                impl_: source(&pair[1]),
                engine,
                timeout_ms,
                conflict_budget: None,
                jobs: 1,
                heartbeat_ms,
                tag: match &tag {
                    Some(t) if batch => Some(format!("{t}.{n}")),
                    other => other.clone(),
                },
                no_cache,
                revalidate,
            })
        })
        .collect();
    let mut client = client_connect(addr);
    for line in &lines {
        client.send_line(line).unwrap_or_else(|e| {
            eprintln!("send failed: {e}");
            exit(EXIT_USAGE)
        });
    }
    let mut remaining = lines.len();
    let mut worst = EXIT_EQUIVALENT;
    while remaining > 0 {
        match client.next_event() {
            Ok(Some((line, ev))) => {
                println!("{line}");
                match ev.ev.as_str() {
                    "serve.result" => {
                        remaining -= 1;
                        worst = worst.max(match ev.str("verdict") {
                            Some("equivalent") => EXIT_EQUIVALENT,
                            Some("inequivalent") => EXIT_INEQUIVALENT,
                            _ => EXIT_UNKNOWN,
                        });
                    }
                    "serve.error" => {
                        remaining -= 1;
                        worst = EXIT_USAGE;
                    }
                    _ => {}
                }
            }
            Ok(None) => {
                eprintln!("server closed the connection with {remaining} jobs outstanding");
                exit(EXIT_USAGE)
            }
            Err(e) => {
                eprintln!("{e}");
                exit(EXIT_USAGE)
            }
        }
    }
    exit(worst)
}

/// `sec client cancel <job>`: exits 0 when the server confirms the
/// cancellation (`job.cancel`), 1 when it reports no such job.
fn client_cancel(args: &[String]) -> ! {
    let mut addr = None;
    let mut job: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr").to_string()),
            a if a.starts_with("--") => {
                eprintln!("unknown option `{a}`");
                exit(EXIT_USAGE)
            }
            j if job.is_none() => job = Some(j.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let Some(job) = job else { usage() };
    let mut client = client_connect(addr);
    client
        .send_line(&format!(
            "{{\"cmd\":\"cancel\",\"job\":\"{}\"}}",
            escape_json(&job)
        ))
        .unwrap_or_else(|e| {
            eprintln!("send failed: {e}");
            exit(EXIT_USAGE)
        });
    loop {
        match client.next_event() {
            Ok(Some((line, ev))) => {
                println!("{line}");
                match ev.ev.as_str() {
                    "job.cancel" => exit(0),
                    "serve.error" => exit(1),
                    _ => {}
                }
            }
            Ok(None) => {
                eprintln!("server closed the connection");
                exit(EXIT_USAGE)
            }
            Err(e) => {
                eprintln!("{e}");
                exit(EXIT_USAGE)
            }
        }
    }
}

/// `sec top`: poll the daemon's `metrics` verb and render a live
/// single-screen telemetry view on stderr. `--interval` sets the poll
/// cadence; `--count N` renders N frames then exits (0 = forever),
/// which also makes the command scriptable and testable.
fn cmd_top(args: &[String]) -> ! {
    let mut addr = None;
    let mut interval = 2.0f64;
    let mut count = 0u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr").to_string()),
            "--interval" => {
                interval = take_value(args, &mut i, "--interval")
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--interval needs a positive number of seconds");
                        exit(EXIT_USAGE)
                    })
            }
            "--count" => {
                count = take_value(args, &mut i, "--count")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            other => {
                eprintln!("unknown option `{other}`");
                exit(EXIT_USAGE)
            }
        }
        i += 1;
    }
    let mut client = client_connect(addr);
    let mut shown = 0u64;
    loop {
        client
            .send_line("{\"cmd\":\"metrics\"}")
            .unwrap_or_else(|e| {
                eprintln!("send failed: {e}");
                exit(EXIT_USAGE)
            });
        let ev = loop {
            match client.next_event() {
                Ok(Some((_, ev))) if ev.ev == "serve.metrics" => break ev,
                Ok(Some(_)) => {}
                Ok(None) => {
                    eprintln!("server closed the connection");
                    exit(EXIT_USAGE)
                }
                Err(e) => {
                    eprintln!("{e}");
                    exit(EXIT_USAGE)
                }
            }
        };
        render_top(&ev, count == 0);
        shown += 1;
        if count > 0 && shown >= count {
            exit(0)
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

/// One `sec top` frame: four heartbeat-layout lines (requests,
/// latency, worker pool, cache) on stderr. Interactive mode (no
/// `--count`) clears the screen first so the frame repaints in place.
fn render_top(ev: &sec::trace::Event, clear: bool) {
    let u = |k: &str| ev.u64(k).unwrap_or(0);
    let f = |k: &str| ev.f64(k).unwrap_or(0.0);
    if clear {
        eprint!("\x1b[2J\x1b[H");
    }
    let at_us = u("uptime_ms") * 1000;
    let lines = [
        heartbeat_line(
            at_us,
            Some("req  "),
            [
                ("per_s", format!("{:.2}", f("req_per_s"))),
                ("total", u("requests").to_string()),
                ("last_60s", u("window_requests").to_string()),
                ("errors", u("errors").to_string()),
                ("slow", u("slow").to_string()),
            ],
        ),
        heartbeat_line(
            at_us,
            Some("lat  "),
            [
                ("p50_us", u("p50_us").to_string()),
                ("p90_us", u("p90_us").to_string()),
                ("p99_us", u("p99_us").to_string()),
                ("max_us", u("max_us").to_string()),
            ],
        ),
        heartbeat_line(
            at_us,
            Some("pool "),
            [
                (
                    "queue",
                    format!("{}/{}", u("queue_depth"), u("queue_capacity")),
                ),
                ("running", u("running").to_string()),
                ("workers", ev.str("worker_state").unwrap_or("?").to_string()),
                ("panics", u("worker_panics").to_string()),
            ],
        ),
        heartbeat_line(
            at_us,
            Some("cache"),
            [
                ("entries", u("cache_entries").to_string()),
                ("bytes", u("cache_bytes").to_string()),
                ("hit_rate", format!("{:.1}%", f("cache_hit_rate") * 100.0)),
                ("hits", u("cache_hits").to_string()),
                ("misses", u("cache_misses").to_string()),
                ("evictions", u("cache_evictions").to_string()),
            ],
        ),
    ];
    for line in lines {
        eprintln!("{line}");
    }
}

/// `sec client status`/`shutdown`: one request, print lines until the
/// expected reply event arrives.
fn client_simple(args: &[String], request: &str, reply: &str) -> ! {
    let mut addr = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr").to_string()),
            other => {
                eprintln!("unknown option `{other}`");
                exit(EXIT_USAGE)
            }
        }
        i += 1;
    }
    let mut client = client_connect(addr);
    client.send_line(request).unwrap_or_else(|e| {
        eprintln!("send failed: {e}");
        exit(EXIT_USAGE)
    });
    loop {
        match client.next_event() {
            Ok(Some((line, ev))) => {
                println!("{line}");
                if ev.ev == reply {
                    exit(0)
                }
                if ev.ev == "serve.error" {
                    exit(1)
                }
            }
            Ok(None) => {
                eprintln!("server closed the connection");
                exit(EXIT_USAGE)
            }
            Err(e) => {
                eprintln!("{e}");
                exit(EXIT_USAGE)
            }
        }
    }
}
