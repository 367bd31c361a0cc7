//! Cross-backend fixed-point identity.
//!
//! The maximum signal correspondence relation is a *unique* object:
//! every counterexample-guided split preserves "the true relation
//! refines the current partition", so whichever engine runs the
//! iteration — SAT on its one persistent solver, with per-pair or
//! batched queries, or BDDs — must land on exactly the same final
//! partition (same classes, same phases). These tests pin that down on
//! product machines of seeded circuit pairs.
//!
//! The SAT backend builds one solver per fixed point, and every
//! refinement round ends at its first witness, so a run merges exactly
//! one witness per round that refines the partition.
//!
//! Cancellation must surface as `Unknown`: an interrupted SAT query is
//! never read as "unsatisfiable", so a cancelled run can never certify
//! a bogus fixed point.

use sec_core::{correspondence_partition, Checker, Options, OptionsBuilder, Partition, Verdict};
use sec_gen::{counter, mixed, CounterKind};
use sec_limits::CancellationToken;
use sec_netlist::{Aig, ProductMachine, Var};
use sec_obs::{Counter, Obs, Recorder};
use sec_synth::{forward_retime, pipeline, unshare_latch_cones, PipelineOptions, RetimeOptions};
use std::sync::Arc;

/// Order-independent identity of a partition: canonical classes plus
/// the polarity normalization of every node.
fn fingerprint(aig: &Aig, p: &Partition) -> (Vec<Vec<Var>>, Vec<bool>) {
    let phases = aig.vars().map(|v| p.phase(v)).collect();
    (p.canonical_classes(), phases)
}

/// Equivalent pairs with real sequential redundancy, small enough for
/// the BDD backend to finish quickly.
fn pairs() -> Vec<(Aig, Aig)> {
    vec![
        {
            let spec = counter(5, CounterKind::Binary);
            let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
            (spec, imp)
        },
        {
            let spec = counter(6, CounterKind::Binary);
            let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
            (spec, imp)
        },
        {
            let spec = mixed(10, 3);
            let imp = unshare_latch_cones(&spec, 0.9, 3);
            (spec, imp)
        },
        {
            let spec = mixed(14, 5);
            let imp = unshare_latch_cones(&spec, 0.9, 4);
            (spec, imp)
        },
        {
            let spec = counter(4, CounterKind::Gray);
            (spec.clone(), spec)
        },
    ]
}

/// The product machines of [`pairs`].
fn product_machines() -> Vec<Aig> {
    pairs()
        .iter()
        .map(|(a, b)| ProductMachine::build(a, b).unwrap().aig)
        .collect()
}

#[test]
fn all_sat_variants_match_the_bdd_fixed_point() {
    for (i, aig) in product_machines().into_iter().enumerate() {
        let reference = correspondence_partition(&aig, &Options::default()).unwrap();
        let want = fingerprint(&aig, &reference);
        for batch_pairs in [0, 32] {
            let opts = OptionsBuilder::sat().batch_pairs(batch_pairs).build();
            let got = correspondence_partition(&aig, &opts).unwrap();
            assert_eq!(
                fingerprint(&aig, &got),
                want,
                "pair {i}: SAT at batch_pairs {batch_pairs} diverged from the BDD fixed point"
            );
        }
    }
}

#[test]
fn functional_dependency_substitution_keeps_the_bdd_fixed_point() {
    // Each round rebuilds the substituted functions gate by gate over
    // the latches' images; the substitution must be exact, so the BDD
    // fixed point with it and without it is the same relation.
    let specs = [
        counter(6, CounterKind::Binary),
        mixed(12, 7),
        sec_gen::crc(8, 0x9B),
    ];
    let resyntheses = specs.iter().enumerate().map(|(i, spec)| {
        let imp = pipeline(spec, &PipelineOptions::default(), i as u64 + 1);
        ProductMachine::build(spec, &imp).unwrap().aig
    });
    for (i, aig) in product_machines()
        .into_iter()
        .chain(resyntheses)
        .enumerate()
    {
        let with = OptionsBuilder::new().functional_deps(true).build();
        let without = OptionsBuilder::new().functional_deps(false).build();
        let with = correspondence_partition(&aig, &with).unwrap();
        let without = correspondence_partition(&aig, &without).unwrap();
        assert_eq!(
            fingerprint(&aig, &with),
            fingerprint(&aig, &without),
            "design {i}: the substituted rebuild changed the BDD fixed point"
        );
    }
}

#[test]
fn congruence_settlement_keeps_the_bdd_fixed_point_on_resyntheses() {
    // Full-pipeline resyntheses (retimed, rewritten, rebalanced): their
    // product machines carry pairs a round settles by congruence, so
    // both sweeps skip queries here and must still certify the BDD
    // fixed point.
    let specs = [
        counter(6, CounterKind::Binary),
        mixed(12, 7),
        sec_gen::crc(8, 0x9B),
    ];
    for (i, spec) in specs.iter().enumerate() {
        let imp = pipeline(spec, &PipelineOptions::default(), i as u64 + 1);
        let aig = ProductMachine::build(spec, &imp).unwrap().aig;
        let reference = correspondence_partition(&aig, &Options::default()).unwrap();
        let want = fingerprint(&aig, &reference);
        for batch_pairs in [0, 32] {
            let recorder = Recorder::new();
            let opts = OptionsBuilder::sat()
                .batch_pairs(batch_pairs)
                .obs(Obs::multi(vec![Arc::new(recorder.clone())]))
                .build();
            let got = correspondence_partition(&aig, &opts).unwrap();
            assert_eq!(
                fingerprint(&aig, &got),
                want,
                "design {i}, batch_pairs {batch_pairs}: diverged from the BDD fixed point"
            );
            assert!(
                recorder.counter(Counter::CongruentPairs) > 0,
                "design {i}, batch_pairs {batch_pairs}: no pair settled"
            );
        }
    }
}

#[test]
fn every_refinement_round_merges_one_witness() {
    // One solver for the whole fixed point, and a round ends at its
    // first witness: every refinement round merges exactly one witness
    // and the certifying last round none.
    for (i, (spec, imp)) in pairs().into_iter().enumerate() {
        let recorder = Recorder::new();
        let r = Checker::new(
            &spec,
            &imp,
            OptionsBuilder::sat()
                // One fixed point, no BMC solver: every construction
                // counted below belongs to the fixed point.
                .retime_rounds(0)
                .bmc_depth(0)
                .obs(Obs::multi(vec![Arc::new(recorder.clone())]))
                .build(),
        )
        .unwrap()
        .run();
        assert_eq!(r.verdict, Verdict::Equivalent, "pair {i}");
        assert!(r.stats.iterations > 0, "pair {i}");
        assert_eq!(r.stats.sat_solver_constructions, 1, "pair {i}");
        assert_eq!(
            recorder.counter(Counter::WorkerCexes),
            r.stats.iterations as u64 - 1,
            "pair {i}: one witness per refinement round"
        );
    }
}

#[test]
fn precancelled_run_returns_unknown() {
    let spec = counter(6, CounterKind::Binary);
    let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
    let token = CancellationToken::new();
    token.cancel();
    let opts = OptionsBuilder::sat()
        .cancel(Some(token.clone()))
        .bmc_depth(0)
        .build();
    let r = Checker::new(&spec, &imp, opts).unwrap().run();
    assert!(
        matches!(r.verdict, Verdict::Unknown(_)),
        "cancelled run must be Unknown, got {:?}",
        r.verdict
    );
    let pm = ProductMachine::build(&spec, &imp).unwrap();
    let err = correspondence_partition(&pm.aig, &OptionsBuilder::sat().cancel(Some(token)).build())
        .unwrap_err();
    assert_eq!(err, sec_core::SecError::Cancelled);
}

#[test]
fn midrun_cancellation_never_yields_a_wrong_verdict() {
    // Equivalent pair; cancel at staggered points of the run. Whatever
    // the timing, the verdict is Equivalent (finished first) or Unknown
    // (cancelled first) — never Inequivalent, and an interrupted query
    // must never be read as Unsat (which could certify Equivalent on a
    // partition that is not a fixed point; cross-checked here by the
    // identity test above).
    let spec = mixed(14, 5);
    let imp = unshare_latch_cones(&spec, 0.9, 4);
    for delay_us in [0u64, 50, 200, 1000, 5000] {
        let token = CancellationToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                token.cancel();
            })
        };
        let r = Checker::new(
            &spec,
            &imp,
            OptionsBuilder::sat()
                .cancel(Some(token))
                .bmc_depth(0)
                .sim_refute(false)
                .build(),
        )
        .unwrap()
        .run();
        canceller.join().unwrap();
        assert!(
            matches!(r.verdict, Verdict::Equivalent | Verdict::Unknown(_)),
            "delay {delay_us}us: got {:?}",
            r.verdict
        );
    }
}
