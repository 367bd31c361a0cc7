//! Candidate-set reduction pipeline: solver calls with batched pair
//! queries off vs on.
//!
//! Runs the two largest suite rows (s13207, s15850) and three generated
//! pairs (a retimed 8-bit counter, a 16-latch mixed design with
//! unshared latch cones, a retimed 24-latch mixed design) through the
//! SAT fixed point twice — once with batching disabled, once with the
//! `Options::sat` preset — and writes the before/after
//! `sat_solver_calls` (plus rounds, classes, the batching counters,
//! the recorder's nonzero event counters and the reduction ratio) to
//! `BENCH_candidate_reduction.json` at the repository root. Congruence
//! settlement runs in both. The two configurations must agree on
//! verdict, final class count and `eqs (%)`: batching changes which
//! queries run, never the fixed point.
//!
//! The counts are deterministic per configuration; `wall_ms` is the
//! median of three runs with the default null sink, and a fourth,
//! recorder-attached run collects the `events`.

use sec_bench::{make_instance, RunConfig};
use sec_core::{Backend, Checker, Options, Verdict};
use sec_gen::{counter, iscas_alike_suite, mixed, CounterKind};
use sec_netlist::Aig;
use sec_obs::{Obs, Recorder};
use sec_synth::{forward_retime, unshare_latch_cones, RetimeOptions};
use std::fmt::Write as _;
use std::sync::Arc;
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
    /// All nonzero event counters of the recorder-attached run.
    events: Vec<(&'static str, u64)>,
}

fn measure(spec: &Aig, imp: &Aig, opts: Options) -> Run {
    let mut wall = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = Checker::new(spec, imp, opts.clone()).unwrap().run();
        wall.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    let recorder = Recorder::new();
    let mut counted = opts;
    counted.obs = Obs::multi(vec![Arc::new(recorder.clone())]);
    let rc = Checker::new(spec, imp, counted).unwrap().run();
    let r = last.unwrap();
    assert_eq!(
        rc.stats.sat_solver_calls, r.stats.sat_solver_calls,
        "instrumented run must do identical work"
    );
    wall.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Run {
        solver_calls: r.stats.sat_solver_calls,
        rounds: r.stats.iterations,
        classes: r.stats.classes,
        eqs_percent: r.stats.eqs_percent,
        batched_calls: r.stats.batched_calls,
        batch_pairs_decoded: r.stats.batch_pairs_decoded,
        wall_ms: wall[wall.len() / 2],
        verdict: match r.verdict {
            Verdict::Equivalent => "equivalent".into(),
            Verdict::Inequivalent(_) => "inequivalent".into(),
            _ => "unknown".into(),
        },
        events: recorder.nonzero_counters(),
    }
}

fn json_run(out: &mut String, name: &str, r: &Run) {
    let events: Vec<String> = r
        .events
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    write!(
        out,
        "    \"{name}\": {{ \"sat_solver_calls\": {}, \"rounds\": {}, \
         \"classes\": {}, \"eqs_percent\": {:.2}, \"batched_calls\": {}, \
         \"batch_pairs_decoded\": {}, \"wall_ms\": {:.3}, \"verdict\": \"{}\",\n      \
         \"events\": {{ {} }} }}",
        r.solver_calls,
        r.rounds,
        r.classes,
        r.eqs_percent,
        r.batched_calls,
        r.batch_pairs_decoded,
        r.wall_ms,
        r.verdict,
        events.join(", ")
    )
    .unwrap();
}

fn main() {
    let cfg = RunConfig {
        backend: Backend::Sat,
        run_traversal: false,
        ..RunConfig::default()
    };
    let suite = iscas_alike_suite(usize::MAX);
    let mut rows: Vec<(&str, Aig, Aig)> = ["s13207", "s15850"]
        .into_iter()
        .map(|name| {
            let entry = suite
                .iter()
                .find(|e| e.name == name)
                .expect("suite row exists");
            (name, entry.aig.clone(), make_instance(entry, &cfg))
        })
        .collect();
    rows.push({
        let spec = counter(8, CounterKind::Binary);
        let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
        ("counter8_retimed", spec, imp)
    });
    rows.push({
        let spec = mixed(16, 5);
        let imp = unshare_latch_cones(&spec, 0.9, 4);
        ("mixed16_unshared", spec, imp)
    });
    rows.push({
        let spec = mixed(24, 9);
        let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
        ("mixed24_retimed", spec, imp)
    });

    let mut out = String::from("{\n  \"benchmark\": \"candidate_reduction\",\n  \"rows\": [\n");
    for (i, (name, spec, imp)) in rows.iter().enumerate() {
        let mut off_opts = Options::sat();
        off_opts.batch_pairs = 0;
        let off = measure(spec, imp, off_opts);
        let on = measure(spec, imp, Options::sat());

        assert_eq!(off.verdict, on.verdict, "{name}: verdict must not change");
        assert_eq!(off.classes, on.classes, "{name}: partition must not change");
        assert_eq!(
            off.eqs_percent, on.eqs_percent,
            "{name}: eqs% must not change"
        );
        let ratio = off.solver_calls as f64 / on.solver_calls.max(1) as f64;
        println!(
            "{name:16} off: {:>8} calls {:>9.1} ms | on: {:>7} calls {:>9.1} ms | {ratio:6.1}x fewer",
            off.solver_calls, off.wall_ms, on.solver_calls, on.wall_ms
        );

        out.push_str("  {\n");
        writeln!(out, "    \"circuit\": \"{name}\",").unwrap();
        json_run(&mut out, "pipeline_off", &off);
        out.push_str(",\n");
        json_run(&mut out, "pipeline_on", &on);
        out.push_str(",\n");
        writeln!(out, "    \"reduction_ratio\": {ratio:.2}").unwrap();
        out.push_str(if i + 1 == rows.len() {
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
