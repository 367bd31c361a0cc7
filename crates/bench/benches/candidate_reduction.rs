//! Candidate-set reduction pipeline: solver calls with batched pair
//! queries off vs on.
//!
//! Runs the two largest suite rows (s13207, s15850) through the SAT
//! fixed point twice — once with batching disabled, once with the
//! `Options::sat` preset — and writes the before/after
//! `sat_solver_calls` (plus the batching counters and the reduction
//! ratio) to `BENCH_candidate_reduction.json` at the repository root.
//! Congruence settlement runs in both. The two configurations must
//! agree on verdict, final class count and `eqs (%)`: batching changes
//! which queries run, never the fixed point.

use sec_bench::{make_instance, RunConfig};
use sec_core::{Backend, Checker, Options, Verdict};
use sec_gen::iscas_alike_suite;
use sec_netlist::Aig;
use std::fmt::Write as _;
use std::time::Instant;

struct Run {
    solver_calls: u64,
    rounds: usize,
    classes: usize,
    eqs_percent: f64,
    batched_calls: u64,
    batch_pairs_decoded: u64,
    wall_ms: f64,
    verdict: String,
}

fn measure(spec: &Aig, imp: &Aig, opts: Options) -> Run {
    let t0 = Instant::now();
    let r = Checker::new(spec, imp, opts).unwrap().run();
    Run {
        solver_calls: r.stats.sat_solver_calls,
        rounds: r.stats.iterations,
        classes: r.stats.classes,
        eqs_percent: r.stats.eqs_percent,
        batched_calls: r.stats.batched_calls,
        batch_pairs_decoded: r.stats.batch_pairs_decoded,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        verdict: match r.verdict {
            Verdict::Equivalent => "equivalent".into(),
            Verdict::Inequivalent(_) => "inequivalent".into(),
            _ => "unknown".into(),
        },
    }
}

fn json_run(out: &mut String, name: &str, r: &Run) {
    write!(
        out,
        "    \"{name}\": {{ \"sat_solver_calls\": {}, \"rounds\": {}, \
         \"classes\": {}, \"eqs_percent\": {:.2}, \"batched_calls\": {}, \
         \"batch_pairs_decoded\": {}, \"wall_ms\": {:.3}, \"verdict\": \"{}\" }}",
        r.solver_calls,
        r.rounds,
        r.classes,
        r.eqs_percent,
        r.batched_calls,
        r.batch_pairs_decoded,
        r.wall_ms,
        r.verdict
    )
    .unwrap();
}

fn main() {
    const ROWS: [&str; 2] = ["s13207", "s15850"];
    let cfg = RunConfig {
        backend: Backend::Sat,
        run_traversal: false,
        ..RunConfig::default()
    };
    let suite = iscas_alike_suite(usize::MAX);

    let mut out = String::from("{\n  \"benchmark\": \"candidate_reduction\",\n  \"rows\": [\n");
    for (i, name) in ROWS.iter().enumerate() {
        let entry = suite
            .iter()
            .find(|e| e.name == *name)
            .expect("suite row exists");
        let imp = make_instance(entry, &cfg);

        let mut off_opts = Options::sat();
        off_opts.batch_pairs = 0;
        let off = measure(&entry.aig, &imp, off_opts);
        let on = measure(&entry.aig, &imp, Options::sat());

        assert_eq!(off.verdict, on.verdict, "{name}: verdict must not change");
        assert_eq!(off.classes, on.classes, "{name}: partition must not change");
        assert_eq!(
            off.eqs_percent, on.eqs_percent,
            "{name}: eqs% must not change"
        );
        let ratio = off.solver_calls as f64 / on.solver_calls.max(1) as f64;
        println!(
            "{name:8} off: {:>8} calls {:>9.1} ms | on: {:>7} calls {:>9.1} ms | {ratio:6.1}x fewer",
            off.solver_calls, off.wall_ms, on.solver_calls, on.wall_ms
        );

        out.push_str("  {\n");
        writeln!(out, "    \"circuit\": \"{name}\",").unwrap();
        json_run(&mut out, "pipeline_off", &off);
        out.push_str(",\n");
        json_run(&mut out, "pipeline_on", &on);
        out.push_str(",\n");
        writeln!(out, "    \"reduction_ratio\": {ratio:.2}").unwrap();
        out.push_str(if i + 1 == ROWS.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    out.push_str("  ]\n}\n");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_candidate_reduction.json"
    );
    std::fs::write(path, &out).expect("write BENCH_candidate_reduction.json");
    println!("wrote {path}");
}
