//! Incremental vs rebuild mode of the SAT fixed point.
//!
//! Runs the same equivalence checks once per configuration and writes a
//! machine-readable comparison — refinement rounds, solver
//! constructions, solve calls, conflicts, wall-clock — to
//! `BENCH_sat_incremental.json` at the repository root, so the effect
//! of the persistent solver and counterexample amplification is
//! tracked as a number instead of an anecdote. The `monolithic` rows
//! are the `Options::sat_monolithic` preset: rebuild mode (each round's
//! solver re-cloned from one encoding) without amplification; the
//! `incremental` rows are `Options::sat`.
//!
//! Not a criterion timing loop on purpose: the quantities of interest
//! (rounds, calls, conflicts) are deterministic per configuration, and
//! the wall-clock column is the median of a few full runs.

use sec_core::{Checker, Options, Verdict};
use sec_gen::{counter, mixed, CounterKind};
use sec_netlist::Aig;
use sec_obs::{Obs, Recorder};
use sec_synth::{forward_retime, unshare_latch_cones, RetimeOptions};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One configuration's measurements on one circuit pair.
struct Run {
    rounds: usize,
    solver_constructions: usize,
    solver_calls: u64,
    conflicts: u64,
    wall_ms: f64,
    verdict: String,
    /// All nonzero event counters of the timed run, straight from the
    /// recorder the `CheckStats` fields above are derived from.
    events: Vec<(&'static str, u64)>,
}

fn measure(spec: &Aig, imp: &Aig, base: Options) -> Run {
    // One fixed point, no refutation machinery: measure the iteration
    // itself.
    let mut opts = base;
    opts.retime_rounds = 0;
    opts.bmc_depth = 0;
    opts.sim_refute = false;
    // Wall-clock is measured with the default null sink (the production
    // configuration); a separate recorder-attached run collects the
    // event totals. The counters are deterministic per configuration,
    // so the two runs count the same work.
    let mut wall = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = Checker::new(spec, imp, opts.clone()).unwrap().run();
        wall.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    let recorder = Recorder::new();
    let mut counted = opts.clone();
    counted.obs = Obs::multi(vec![Arc::new(recorder.clone())]);
    let rc = Checker::new(spec, imp, counted).unwrap().run();
    let r = last.unwrap();
    assert_eq!(
        rc.stats.iterations, r.stats.iterations,
        "instrumented run must do identical work"
    );
    wall.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Run {
        rounds: r.stats.iterations,
        solver_constructions: r.stats.sat_solver_constructions,
        solver_calls: r.stats.sat_solver_calls,
        conflicts: r.stats.sat_conflicts,
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
        "    \"{name}\": {{ \"rounds\": {}, \"solver_constructions\": {}, \
         \"solver_calls\": {}, \"conflicts\": {}, \"wall_ms\": {:.3}, \
         \"verdict\": \"{}\",\n      \"events\": {{ {} }} }}",
        r.rounds,
        r.solver_constructions,
        r.solver_calls,
        r.conflicts,
        r.wall_ms,
        r.verdict,
        events.join(", ")
    )
    .unwrap();
}

fn main() {
    let pairs: Vec<(&str, Aig, Aig)> = vec![
        {
            let spec = counter(8, CounterKind::Binary);
            let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
            ("counter8_retimed", spec, imp)
        },
        {
            let spec = mixed(16, 5);
            let imp = unshare_latch_cones(&spec, 0.9, 4);
            ("mixed16_unshared", spec, imp)
        },
        {
            let spec = mixed(24, 9);
            let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
            ("mixed24_retimed", spec, imp)
        },
    ];

    let mut out = String::from("{\n  \"benchmark\": \"sat_incremental\",\n  \"rows\": [\n");
    let (mut tot_mono, mut tot_inc) = (0u64, 0u64);
    for (i, (name, spec, imp)) in pairs.iter().enumerate() {
        let mono = measure(spec, imp, Options::sat_monolithic());
        let inc = measure(spec, imp, Options::sat());
        assert_eq!(
            mono.verdict, inc.verdict,
            "{name}: configurations must agree on the verdict"
        );
        println!(
            "{name:18} monolithic: {:3} rounds {:4} calls {:5} conflicts {:8.2} ms | \
             incremental: {:3} rounds {:4} calls {:5} conflicts {:8.2} ms",
            mono.rounds,
            mono.solver_calls,
            mono.conflicts,
            mono.wall_ms,
            inc.rounds,
            inc.solver_calls,
            inc.conflicts,
            inc.wall_ms
        );
        tot_mono += mono.conflicts;
        tot_inc += inc.conflicts;
        out.push_str("  {\n");
        writeln!(out, "    \"pair\": \"{name}\",").unwrap();
        json_run(&mut out, "monolithic", &mono);
        out.push_str(",\n");
        json_run(&mut out, "incremental", &inc);
        out.push('\n');
        out.push_str(if i + 1 == pairs.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    writeln!(
        out,
        "  ],\n  \"total_conflicts\": {{ \"monolithic\": {tot_mono}, \"incremental\": {tot_inc} }}\n}}"
    )
    .unwrap();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sat_incremental.json"
    );
    std::fs::write(path, &out).expect("write BENCH_sat_incremental.json");
    println!("total conflicts: monolithic {tot_mono}, incremental {tot_inc}");
    println!("wrote {path}");
}
