//! End-to-end tests of the `sec` command-line tool.

use std::fs;
use std::process::Command;

const SEC: &str = env!("CARGO_BIN_EXE_sec");

const TOGGLE: &str = "\
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(q, en)
";

const TOGGLE_BROKEN: &str = "\
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XNOR(q, en)
";

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sec-cli-tests");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    fs::write(&path, content).unwrap();
    path
}

#[test]
fn check_equivalent_exits_zero() {
    let spec = write_tmp("spec_eq.bench", TOGGLE);
    let out = Command::new(SEC)
        .args(["check"])
        .arg(&spec)
        .arg(&spec)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQUIVALENT"));
}

#[test]
fn check_inequivalent_exits_one_with_trace() {
    let spec = write_tmp("spec_neq.bench", TOGGLE);
    let imp = write_tmp("impl_neq.bench", TOGGLE_BROKEN);
    let out = Command::new(SEC)
        .args(["check"])
        .arg(&spec)
        .arg(&imp)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("INEQUIVALENT"));
    assert!(text.contains("frame 0"));
}

#[test]
fn check_json_reports_verdict_and_trace() {
    let spec = write_tmp("spec_json.bench", TOGGLE);
    let imp = write_tmp("impl_json.bench", TOGGLE_BROKEN);
    let out = Command::new(SEC)
        .args(["check"])
        .arg(&spec)
        .arg(&imp)
        .args(["--json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with('{') && text.trim_end().ends_with('}'),
        "{text}"
    );
    assert!(text.contains("\"verdict\":\"inequivalent\""), "{text}");
    assert!(text.contains("\"trace\":["), "{text}");

    let out = Command::new(SEC)
        .args(["check"])
        .arg(&spec)
        .arg(&spec)
        .args(["--json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"verdict\":\"equivalent\""), "{text}");
}

#[test]
fn check_portfolio_engine_wins_and_reports() {
    let spec = write_tmp("spec_pf.bench", TOGGLE);
    let out = Command::new(SEC)
        .args(["check"])
        .arg(&spec)
        .arg(&spec)
        .args(["--engine", "portfolio", "--timeout", "60", "--json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"engine\":\"portfolio\""), "{text}");
    assert!(text.contains("\"winner\":\""), "{text}");
    assert!(text.contains("\"engines\":["), "{text}");

    let imp = write_tmp("impl_pf.bench", TOGGLE_BROKEN);
    let out = Command::new(SEC)
        .args(["check"])
        .arg(&spec)
        .arg(&imp)
        .args(["--engine", "portfolio", "--timeout", "60"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("INEQUIVALENT"), "{text}");
    assert!(text.contains("winner="), "{text}");
}

#[test]
fn check_stats_and_trace_json_flags() {
    let spec = write_tmp("spec_obs.bench", TOGGLE);
    let trace = std::env::temp_dir().join("sec-cli-tests/solo_trace.ndjson");
    let out = Command::new(SEC)
        .args(["check"])
        .arg(&spec)
        .arg(&spec)
        .args(["--stats", "--trace-json"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("counters:"), "{text}");
    assert!(text.contains("rounds"), "{text}");
    let events = fs::read_to_string(&trace).unwrap();
    assert!(!events.is_empty());
    for line in events.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"ev\":"), "{line}");
    }
    assert!(events.contains("\"ev\":\"check.end\""), "{events}");

    // JSON output carries the counters as a nested object.
    let out = Command::new(SEC)
        .args(["check"])
        .arg(&spec)
        .arg(&spec)
        .args(["--json", "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"counters\":{"), "{text}");

    // The portfolio path streams the race timeline.
    let trace = std::env::temp_dir().join("sec-cli-tests/race_trace.ndjson");
    let out = Command::new(SEC)
        .args(["check"])
        .arg(&spec)
        .arg(&spec)
        .args(["--engine", "portfolio", "--timeout", "60", "--trace-json"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let events = fs::read_to_string(&trace).unwrap();
    assert!(events.contains("\"ev\":\"race.start\""), "{events}");
    assert!(events.contains("\"ev\":\"engine.spawn\""), "{events}");
    assert!(events.contains("\"ev\":\"race.end\""), "{events}");
}

#[test]
fn optimize_then_check_roundtrip() {
    let spec = write_tmp("spec_opt.bench", TOGGLE);
    let imp = std::env::temp_dir().join("sec-cli-tests/impl_opt.bench");
    let out = Command::new(SEC)
        .args(["optimize"])
        .arg(&spec)
        .arg(&imp)
        .args(["--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = Command::new(SEC)
        .args(["check"])
        .arg(&spec)
        .arg(&imp)
        .args(["--backend", "sat"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn info_reports_stats() {
    let spec = write_tmp("spec_info.bench", TOGGLE);
    let out = Command::new(SEC)
        .args(["info"])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("l=1"), "{text}");
    assert!(text.contains("output 0"));
}

#[test]
fn info_on_an_oversized_aiger_header_exits_three() {
    // The header promises 4e9 AND lines in a 33-byte file: a parse
    // error (exit 3), not an allocation abort.
    let aag = write_tmp("huge_header.aag", "aag 4000000000 0 0 0 4000000000\n");
    let out = Command::new(SEC).args(["info"]).arg(&aag).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}

#[test]
fn info_on_hostile_binary_aiger_exits_three() {
    // A zero AND delta (the gate would be its own fanin) and an input
    // count no file length bounds: parse errors, not a panic (exit
    // 101) or an allocation abort (exit 134).
    for (name, text) in [
        ("zero_delta.aig", "aig 3 2 0 1 1\n6\n\x00\x02"),
        ("input_flood.aig", "aig 4000000000 4000000000 0 0 0\n"),
    ] {
        let aig = write_tmp(name, text);
        let out = Command::new(SEC).args(["info"]).arg(&aig).output().unwrap();
        assert_eq!(out.status.code(), Some(3), "{name}: {out:?}");
    }
}

#[test]
fn dot_emits_graphviz() {
    let spec = write_tmp("spec_dot.bench", TOGGLE);
    let out = Command::new(SEC).args(["dot"]).arg(&spec).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

#[test]
fn sat_solves_dimacs() {
    let cnf = write_tmp("t.cnf", "p cnf 2 2\n1 0\n-1 2 0\n");
    let out = Command::new(SEC).args(["sat"]).arg(&cnf).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("s SATISFIABLE"));
    assert!(text.contains(" 1 ") && text.contains(" 2 "));
}

#[test]
fn bad_usage_exits_above_two() {
    let out = Command::new(SEC).args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    // A missing file is an error, never a verdict.
    let out = Command::new(SEC)
        .args(["check", "/nonexistent/a.bench", "/nonexistent/b.bench"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn client_conflict_budget_is_an_unknown_option() {
    // The SAT backend has no per-query conflict budget, so the flag is
    // rejected while parsing, before any connection is made.
    let out = Command::new(SEC)
        .args(["client", "check", "a.bench", "b.bench"])
        .args(["--addr", "127.0.0.1:9", "--conflict-budget", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option"), "{err}");
    assert!(err.contains("--conflict-budget"), "{err}");
}

#[test]
fn check_jobs_zero_is_a_usage_error_with_hint() {
    // `sec serve --workers 0` is a usage error whose message and hint
    // name the flag the user actually passed.
    let out = Command::new(SEC)
        .args(["serve", "--workers", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--workers"), "{err}");
    assert!(err.contains("hint"), "{err}");
    assert!(!err.contains("--jobs"), "{err}");
}

#[test]
fn check_jobs_absurd_is_clamped_with_warning() {
    // An absurd `sec serve --workers` is clamped with a warning naming
    // `--workers`. The listen address is already taken, so the daemon
    // exits right after parsing its flags.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let out = Command::new(SEC)
        .args(["serve", "--workers", "1000000", "--listen", &addr])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("clamping"), "{err}");
    assert!(err.contains("--workers 1000000"), "{err}");
    assert!(!err.contains("--jobs"), "{err}");
}
