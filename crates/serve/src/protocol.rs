//! The wire protocol: newline-delimited JSON.
//!
//! Clients send one request object per line; the server answers with
//! `sec-obs`-schema NDJSON events (`serve.queued`, per-job engine
//! events, `serve.result`, ...) so a captured session is a valid trace
//! for `sec trace summary`. The line schemas are documented in
//! `docs/SERVE.md`.

use sec_trace::{parse_json, Json};

/// Where a circuit comes from: a server-side path or inline `.bench`
/// text carried in the request itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// A path readable by the *server* process.
    Path(String),
    /// Inline ISCAS'89 `.bench` text.
    Inline(String),
}

/// Which engine runs a job.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Signal-correspondence fixed point on the BDD backend.
    Bdd,
    /// Signal-correspondence fixed point on the SAT backend (default).
    Sat,
    /// The full multi-engine portfolio race.
    Portfolio,
}

impl Engine {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Bdd => "bdd",
            Engine::Sat => "sat",
            Engine::Portfolio => "portfolio",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "bdd" => Some(Engine::Bdd),
            "sat" => Some(Engine::Sat),
            "portfolio" => Some(Engine::Portfolio),
            _ => None,
        }
    }
}

/// A `{"cmd":"check"}` request: one equivalence-checking job.
#[derive(Clone, Debug)]
pub struct CheckRequest {
    /// The specification circuit.
    pub spec: Source,
    /// The implementation circuit.
    pub impl_: Source,
    /// Engine selection.
    pub engine: Engine,
    /// Per-job wall-clock deadline in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Ignored. The SAT backend runs every check to its answer on one
    /// solver, with no per-query conflict budget: the daemon neither
    /// reads a `conflict_budget` key nor sends one, and a request that
    /// carries it gets the same answer as one without. The field stays
    /// so code that builds a `CheckRequest` with a struct literal keeps
    /// compiling.
    pub conflict_budget: Option<u64>,
    /// Ignored. The SAT backend runs every check on one solver, so
    /// there is no per-check worker count: the daemon neither reads a
    /// `jobs` key nor sends one. The field stays so code that builds a
    /// `CheckRequest` with a struct literal keeps compiling.
    pub jobs: usize,
    /// Heartbeat interval in milliseconds (`progress` events streamed
    /// to the client while the job runs).
    pub heartbeat_ms: Option<u64>,
    /// Opaque client label echoed on every response line for this job.
    pub tag: Option<String>,
    /// Skip the result cache entirely (no lookup, no insertion).
    pub no_cache: bool,
    /// Run the engine even on a cache hit, seeding its partition from
    /// the cached snapshot when the node numbering matches.
    pub revalidate: bool,
}

/// One parsed client request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Submit a check job.
    Check(Box<CheckRequest>),
    /// Cancel a queued or running job by id.
    Cancel {
        /// The job id from `serve.queued`.
        job: String,
    },
    /// Report queue/worker/cache counters.
    Status,
    /// Report the aggregated telemetry snapshot (`serve.metrics`).
    Metrics,
    /// Report liveness (`serve.health`).
    Health,
    /// Stop the daemon cleanly.
    Shutdown,
}

/// Parses one request line. Errors are human-readable and echoed back
/// on a `serve.error` event.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line).map_err(|e| format!("malformed request: {e}"))?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing \"cmd\" field".to_string())?;
    match cmd {
        "check" => parse_check(&v).map(|c| Request::Check(Box::new(c))),
        "cancel" => {
            let job = v
                .get("job")
                .and_then(Json::as_str)
                .ok_or_else(|| "cancel needs a \"job\" id".to_string())?;
            Ok(Request::Cancel {
                job: job.to_string(),
            })
        }
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics),
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

fn parse_source(v: &Json, path_key: &str, inline_key: &str) -> Result<Source, String> {
    match (
        v.get(path_key).and_then(Json::as_str),
        v.get(inline_key).and_then(Json::as_str),
    ) {
        (Some(p), None) => Ok(Source::Path(p.to_string())),
        (None, Some(text)) => Ok(Source::Inline(text.to_string())),
        (Some(_), Some(_)) => Err(format!(
            "give either {path_key:?} or {inline_key:?}, not both"
        )),
        (None, None) => Err(format!("missing {path_key:?} or {inline_key:?}")),
    }
}

fn parse_check(v: &Json) -> Result<CheckRequest, String> {
    let spec = parse_source(v, "spec_path", "spec_bench")?;
    let impl_ = parse_source(v, "impl_path", "impl_bench")?;
    let engine = match v.get("engine").and_then(Json::as_str) {
        None => Engine::Sat,
        Some(s) => Engine::parse(s)
            .ok_or_else(|| format!("unknown engine {s:?} (expected bdd, sat or portfolio)"))?,
    };
    Ok(CheckRequest {
        spec,
        impl_,
        engine,
        timeout_ms: v.get("timeout_ms").and_then(Json::as_u64),
        conflict_budget: None,
        jobs: 1,
        heartbeat_ms: v.get("heartbeat_ms").and_then(Json::as_u64),
        tag: v.get("tag").and_then(Json::as_str).map(str::to_string),
        no_cache: v.get("no_cache").and_then(Json::as_bool).unwrap_or(false),
        revalidate: v.get("revalidate").and_then(Json::as_bool).unwrap_or(false),
    })
}

/// Escapes a string for embedding in a JSON document: the workspace's
/// one escaper, [`sec_obs::escape_json`], re-exported here.
pub use sec_obs::escape_json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_check_request() {
        let req = parse_request(
            "{\"cmd\":\"check\",\"spec_path\":\"a.bench\",\"impl_path\":\"b.bench\",\
             \"engine\":\"portfolio\",\"timeout_ms\":500,\"conflict_budget\":1000,\
             \"heartbeat_ms\":50,\"tag\":\"t1\",\"revalidate\":true}",
        )
        .unwrap();
        let Request::Check(c) = req else {
            panic!("not a check");
        };
        assert_eq!(c.spec, Source::Path("a.bench".into()));
        assert_eq!(c.engine, Engine::Portfolio);
        assert_eq!(c.timeout_ms, Some(500));
        // An ignored key: accepted, never read.
        assert_eq!(c.conflict_budget, None);
        assert_eq!(c.heartbeat_ms, Some(50));
        assert_eq!(c.tag.as_deref(), Some("t1"));
        assert!(!c.no_cache);
        assert!(c.revalidate);
    }

    #[test]
    fn inline_bench_and_defaults() {
        let req = parse_request(
            "{\"cmd\":\"check\",\"spec_bench\":\"INPUT(a)\\nOUTPUT(a)\\n\",\
             \"impl_bench\":\"INPUT(a)\\nOUTPUT(a)\\n\"}",
        )
        .unwrap();
        let Request::Check(c) = req else {
            panic!("not a check");
        };
        assert!(matches!(c.spec, Source::Inline(_)));
        assert_eq!(c.engine, Engine::Sat);
        assert!(!c.no_cache);
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"cmd\":\"frobnicate\"}").is_err());
        assert!(parse_request("{\"cmd\":\"check\"}").is_err());
        assert!(parse_request("{\"cmd\":\"cancel\"}").is_err());
        // Both path and inline for the same side is ambiguous.
        let err = parse_request(
            "{\"cmd\":\"check\",\"spec_path\":\"a\",\"spec_bench\":\"x\",\"impl_path\":\"b\"}",
        )
        .unwrap_err();
        assert!(err.contains("not both"), "{err}");
    }

    #[test]
    fn other_commands() {
        assert!(matches!(
            parse_request("{\"cmd\":\"cancel\",\"job\":\"j7\"}"),
            Ok(Request::Cancel { job }) if job == "j7"
        ));
        assert!(matches!(
            parse_request("{\"cmd\":\"status\"}"),
            Ok(Request::Status)
        ));
        assert!(matches!(
            parse_request("{\"cmd\":\"metrics\"}"),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            parse_request("{\"cmd\":\"health\"}"),
            Ok(Request::Health)
        ));
        assert!(matches!(
            parse_request("{\"cmd\":\"shutdown\"}"),
            Ok(Request::Shutdown)
        ));
    }
}
