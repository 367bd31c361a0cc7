//! The candidate-set reduction pipeline must be invisible in the
//! result.
//!
//! Batched pair queries (`batch_pairs`) change which solver queries
//! run — never what the fixed point is. Every counterexample-guided
//! split (amplified or batch-decoded) preserves "the true
//! correspondence refines the current partition", and a run only
//! terminates at a certified no-split sweep, so the partition reached
//! is the unique coarsest inductive one refining the seed. These tests
//! pin that down: every batch width must land on the exact partition
//! and verdict the batching-off configuration computes.

use sec_core::{correspondence_partition, Checker, Options, OptionsBuilder, Partition, Verdict};
use sec_gen::{counter, mixed, CounterKind};
use sec_netlist::{Aig, ProductMachine, Var};
use sec_synth::{forward_retime, unshare_latch_cones, RetimeOptions};

/// Order-independent identity of a partition: canonical classes plus
/// the polarity normalization of every node.
fn fingerprint(aig: &Aig, p: &Partition) -> (Vec<Vec<Var>>, Vec<bool>) {
    let phases = aig.vars().map(|v| p.phase(v)).collect();
    (p.canonical_classes(), phases)
}

/// Pairs with real structural sharing and enough rounds for the
/// batches to matter.
fn pairs() -> Vec<(Aig, Aig)> {
    vec![
        {
            let spec = counter(6, CounterKind::Binary);
            let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
            (spec, imp)
        },
        {
            let spec = mixed(14, 5);
            let imp = unshare_latch_cones(&spec, 0.9, 4);
            (spec, imp)
        },
        {
            let spec = mixed(10, 3);
            let imp = unshare_latch_cones(&spec, 0.9, 3);
            (spec, imp)
        },
    ]
}

/// Every batch width: off, one pair, the smallest batch, the `sat()`
/// preset's.
const BATCHES: [usize; 4] = [0, 1, 2, 32];

fn opts_with(batch: usize) -> Options {
    OptionsBuilder::sat().batch_pairs(batch).build()
}

#[test]
fn pipeline_knobs_never_change_the_fixed_point() {
    for (i, (spec, imp)) in pairs().into_iter().enumerate() {
        let pm = ProductMachine::build(&spec, &imp).unwrap().aig;
        // Reference: everything off.
        let reference = correspondence_partition(&pm, &opts_with(0)).unwrap();
        let want = fingerprint(&pm, &reference);
        for batch in BATCHES {
            let got = correspondence_partition(&pm, &opts_with(batch)).unwrap();
            assert_eq!(
                fingerprint(&pm, &got),
                want,
                "pair {i}: batch={batch} diverged from the pipeline-off fixed point"
            );
        }
    }
}

#[test]
fn pipeline_knobs_never_change_verdict_or_partition_summary() {
    for (i, (spec, imp)) in pairs().into_iter().enumerate() {
        let baseline = Checker::new(&spec, &imp, opts_with(0)).unwrap().run();
        assert_eq!(baseline.verdict, Verdict::Equivalent, "pair {i}");
        for batch in BATCHES {
            let r = Checker::new(&spec, &imp, opts_with(batch)).unwrap().run();
            assert_eq!(r.verdict, baseline.verdict, "pair {i}: batch={batch}");
            assert_eq!(
                r.stats.classes, baseline.stats.classes,
                "pair {i}: batch={batch}"
            );
            assert_eq!(
                r.stats.eqs_percent, baseline.stats.eqs_percent,
                "pair {i}: batch={batch}"
            );
        }
    }
}

#[test]
fn batch_widths_zero_and_one_run_one_path() {
    // A one-pair batch is a plain query on its difference literal, so
    // widths 0 and 1 make the same queries in the same order.
    for (i, (spec, imp)) in pairs().into_iter().enumerate() {
        let counts = |batch| {
            let s = Checker::new(&spec, &imp, opts_with(batch))
                .unwrap()
                .run()
                .stats;
            assert_eq!(s.batched_calls, 0, "pair {i}: batch={batch}");
            assert_eq!(s.batch_pairs_decoded, 0, "pair {i}: batch={batch}");
            (s.iterations, s.sat_solver_calls, s.sat_conflicts)
        };
        assert_eq!(counts(1), counts(0), "pair {i}: (rounds, calls, conflicts)");
    }
}

#[test]
fn full_pipeline_cuts_solver_calls_on_a_shared_structure_pair() {
    // The pipeline's reason to exist: fewer solver calls at an
    // identical result. On a pair with heavy structural sharing the
    // reduction must be substantial; the curated BENCH rows assert the
    // 10x bound, this test keeps a coarser floor in the tier-1 suite.
    let spec = mixed(14, 5);
    let imp = unshare_latch_cones(&spec, 0.9, 4);
    let off = Checker::new(&spec, &imp, opts_with(0)).unwrap().run();
    let on = Checker::new(&spec, &imp, opts_with(32)).unwrap().run();
    assert_eq!(on.verdict, off.verdict);
    assert!(
        on.stats.sat_solver_calls * 2 <= off.stats.sat_solver_calls,
        "pipeline on: {} calls, off: {} calls — expected at least 2x fewer",
        on.stats.sat_solver_calls,
        off.stats.sat_solver_calls
    );
    assert!(on.stats.batched_calls > 0, "nothing batched");
}
