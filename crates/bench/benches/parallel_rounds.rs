//! The refinement pool at `jobs ∈ {1, 2, 4, 8}`.
//!
//! Runs the largest SAT-backend Table 1 instances at each jobs count and
//! writes wall-clock plus the full per-run statistics to
//! `BENCH_parallel_rounds.json` at the repository root. Every row runs
//! the same driver — `jobs = 1` is a one-worker pool — so the final
//! partitions, verdicts, and total splits are identical by construction
//! (the driver merges worker counterexamples in canonical order; the
//! fixed point is unique), while the *trajectory* counters (rounds,
//! solver calls) legitimately vary: more workers race to each round's
//! first witness, may merge a few at once, and share clauses. The
//! headline number is wall-clock; what extra workers buy depends on the
//! host's hardware threads, so read it next to
//! `std::thread::available_parallelism`.
//!
//! Not a criterion timing loop on purpose: each configuration runs the
//! full check a few times and reports the median, next to the counters
//! that explain where the time went.

use sec_bench::{make_instance, run_proposed, RunConfig};
use sec_core::stats::{to_json, JsonObject};
use sec_core::Backend;
use sec_gen::iscas_alike_suite;
use std::fmt::Write as _;

const JOBS: [usize; 4] = [1, 2, 4, 8];
const ROWS: [&str; 2] = ["s13207", "s15850"];
const TIMED_RUNS: usize = 3;

fn main() {
    let suite = iscas_alike_suite(usize::MAX);
    let mut out = String::from("{\n  \"benchmark\": \"parallel_rounds\",\n  \"rows\": [\n");
    let mut speedups = Vec::new();
    for (ri, name) in ROWS.iter().enumerate() {
        let entry = suite
            .iter()
            .find(|e| e.name == *name)
            .expect("row in suite");
        let mut cfg = RunConfig {
            backend: Backend::Sat,
            // A completed-run comparison, not timeout censoring: every
            // configuration gets far more than the default 120 s budget.
            timeout: std::time::Duration::from_secs(420),
            ..RunConfig::default()
        };
        let imp = make_instance(entry, &cfg);
        out.push_str("  {\n");
        writeln!(out, "    \"pair\": \"{name}\",").unwrap();
        let mut base_ms = 0.0;
        for (ji, jobs) in JOBS.into_iter().enumerate() {
            cfg.jobs = jobs;
            let mut secs = Vec::new();
            let mut last = None;
            for _ in 0..TIMED_RUNS {
                let r = run_proposed(&entry.aig, &imp, &cfg);
                secs.push(r.secs);
                last = Some(r);
            }
            secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let wall_ms = secs[secs.len() / 2] * 1e3;
            let r = last.unwrap();
            let stats = r.stats.as_ref().expect("solo runs carry stats");
            println!(
                "{name:8} jobs={jobs}: {wall_ms:9.2} ms  {:3} rounds {:6} solver calls \
                 {:4} splits  [{}]",
                stats.iterations, stats.sat_solver_calls, stats.splits, r.status
            );
            if jobs == 1 {
                base_ms = wall_ms;
            } else {
                speedups.push((name.to_string(), jobs, base_ms / wall_ms));
            }
            let row = JsonObject::new()
                .usize("jobs", jobs)
                .f64("wall_ms", wall_ms, 3)
                .str("status", &r.status)
                .raw("stats", &to_json(stats))
                .finish();
            writeln!(
                out,
                "    \"jobs{jobs}\": {row}{}",
                if ji + 1 == JOBS.len() { "" } else { "," }
            )
            .unwrap();
        }
        out.push_str(if ri + 1 == ROWS.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    out.push_str("  ]\n}\n");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_rounds.json"
    );
    std::fs::write(path, &out).expect("write BENCH_parallel_rounds.json");
    for (name, jobs, s) in &speedups {
        println!("{name}: jobs={jobs} speedup over jobs=1: {s:.2}x");
    }
    println!("wrote {path}");
}
