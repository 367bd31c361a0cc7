//! Sharded parallel refinement rounds must be invisible in the result.
//!
//! The greatest fixed point is a unique object, and the driver merges
//! worker counterexamples in canonical order, so `jobs` may only change
//! wall-clock — never the partition, the verdict, or the split count.
//! These tests pin that down across `jobs ∈ {1, 2, 4, 8}` on seeded
//! circuit pairs, and check that cancellation under parallelism stays
//! sound: an interrupted run is `Unknown`, never a bogus verdict.

use sec_core::{correspondence_partition, Checker, Options, OptionsBuilder, Partition, Verdict};
use sec_gen::{counter, mixed, CounterKind};
use sec_limits::CancellationToken;
use sec_netlist::{Aig, ProductMachine, Var};
use sec_obs::{Counter, Obs, Recorder};
use sec_synth::{forward_retime, unshare_latch_cones, RetimeOptions};
use std::sync::Arc;

const JOBS: [usize; 4] = [1, 2, 4, 8];

/// Order-independent identity of a partition: canonical classes plus
/// the polarity normalization of every node.
fn fingerprint(aig: &Aig, p: &Partition) -> (Vec<Vec<Var>>, Vec<bool>) {
    let phases = aig.vars().map(|v| p.phase(v)).collect();
    (p.canonical_classes(), phases)
}

/// Equivalent pairs with enough refinement rounds for the shards to
/// actually disagree about who finds which counterexample first.
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

#[test]
fn partition_is_bit_identical_for_every_jobs_count() {
    for (i, (spec, imp)) in pairs().into_iter().enumerate() {
        let pm = ProductMachine::build(&spec, &imp).unwrap().aig;
        let reference = correspondence_partition(&pm, &Options::sat()).unwrap();
        let want = fingerprint(&pm, &reference);
        for jobs in JOBS {
            let got =
                correspondence_partition(&pm, &OptionsBuilder::sat().jobs(jobs).build()).unwrap();
            assert_eq!(
                fingerprint(&pm, &got),
                want,
                "pair {i}: jobs={jobs} diverged from the serial fixed point"
            );
        }
    }
}

#[test]
fn verdict_and_splits_are_jobs_invariant() {
    for (i, (spec, imp)) in pairs().into_iter().enumerate() {
        let baseline = Checker::new(&spec, &imp, Options::sat()).unwrap().run();
        assert_eq!(baseline.verdict, Verdict::Equivalent, "pair {i}");
        for jobs in JOBS {
            let r = Checker::new(&spec, &imp, OptionsBuilder::sat().jobs(jobs).build())
                .unwrap()
                .run();
            assert_eq!(r.verdict, baseline.verdict, "pair {i}: jobs={jobs}");
            assert_eq!(
                r.stats.splits, baseline.stats.splits,
                "pair {i}: jobs={jobs}: split count must be path-independent"
            );
            assert_eq!(
                r.stats.classes, baseline.stats.classes,
                "pair {i}: jobs={jobs}"
            );
            assert_eq!(
                r.stats.eqs_percent, baseline.stats.eqs_percent,
                "pair {i}: jobs={jobs}"
            );
        }
    }
}

#[test]
fn one_worker_pool_runs_inline_without_steals_or_exports() {
    // `jobs = 1` is a one-worker pool: one worker run per round, one
    // solver for the whole fixed point, nothing to steal from and no
    // sibling to export clauses to. The first witness ends a round, so
    // every refinement round merges exactly one witness and the
    // certifying last round none.
    for (i, (spec, imp)) in pairs().into_iter().enumerate() {
        let recorder = Recorder::new();
        let r = Checker::new(
            &spec,
            &imp,
            OptionsBuilder::sat()
                .jobs(1)
                // One fixed point, no BMC solver: every construction
                // counted below belongs to the pool.
                .retime_rounds(0)
                .bmc_depth(0)
                .obs(Obs::multi(vec![Arc::new(recorder.clone())]))
                .build(),
        )
        .unwrap()
        .run();
        assert_eq!(r.verdict, Verdict::Equivalent, "pair {i}");
        assert!(r.stats.iterations > 0, "pair {i}");
        assert_eq!(
            recorder.counter(Counter::WorkerSpawns),
            r.stats.iterations as u64,
            "pair {i}: one worker run per round"
        );
        assert_eq!(recorder.counter(Counter::WorkerSteals), 0, "pair {i}");
        assert_eq!(recorder.counter(Counter::ClausesShared), 0, "pair {i}");
        assert_eq!(r.stats.sat_solver_constructions, 1, "pair {i}");
        assert_eq!(
            recorder.counter(Counter::WorkerCexes),
            r.stats.iterations as u64 - 1,
            "pair {i}: one witness per refinement round"
        );
    }
}

#[test]
fn sharded_run_matches_the_bdd_backend() {
    // Cross-backend closure: the parallel SAT fixed point lands on the
    // same partition as the (serial) BDD reference.
    for (spec, imp) in pairs() {
        let pm = ProductMachine::build(&spec, &imp).unwrap().aig;
        let bdd = correspondence_partition(&pm, &Options::default()).unwrap();
        let par = correspondence_partition(&pm, &OptionsBuilder::sat().jobs(4).build()).unwrap();
        assert_eq!(fingerprint(&pm, &bdd), fingerprint(&pm, &par));
    }
}

#[test]
fn clause_sharing_never_changes_the_result() {
    // Soundness of the clause exchange pool: clauses shared between
    // workers are implied by the base CNF, so enabling or disabling the
    // exchange must leave the fixed point (and hence verdict and split
    // count) bit-identical — sharing may only change which queries run.
    for (i, (spec, imp)) in pairs().into_iter().enumerate() {
        let pm = ProductMachine::build(&spec, &imp).unwrap().aig;
        let reference = correspondence_partition(&pm, &Options::sat()).unwrap();
        let want = fingerprint(&pm, &reference);
        for clauses in [false, true] {
            let got = correspondence_partition(
                &pm,
                &OptionsBuilder::sat()
                    .jobs(4)
                    // One-pair chunks maximize exchanges and steals.
                    .sat_chunk_pairs(1)
                    .sat_share_clauses(clauses)
                    .build(),
            )
            .unwrap();
            assert_eq!(
                fingerprint(&pm, &got),
                want,
                "pair {i}: sharing (clauses={clauses}) changed the fixed point"
            );
        }
    }
}

#[test]
fn precancelled_parallel_run_is_cancelled_not_unsat() {
    let spec = counter(6, CounterKind::Binary);
    let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
    let pm = ProductMachine::build(&spec, &imp).unwrap().aig;
    let token = CancellationToken::new();
    token.cancel();
    let err = correspondence_partition(
        &pm,
        &OptionsBuilder::sat().jobs(4).cancel(Some(token)).build(),
    )
    .unwrap_err();
    assert_eq!(err, sec_core::SecError::Cancelled);
}

#[test]
fn midrun_cancellation_under_parallelism_never_yields_a_wrong_verdict() {
    // Equivalent pair, 4 workers, cancel from outside at staggered
    // points. Whatever shard the cancellation lands in, the verdict is
    // Equivalent (finished first) or Unknown (cancelled first) — never
    // Inequivalent, and never an Equivalent certified by an interrupted
    // query (cross-checked by the identity tests above).
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
                .jobs(4)
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

#[test]
fn cancellation_mid_steal_never_yields_a_wrong_verdict() {
    // Same property as the midrun test, but configured so the workers
    // live on the steal path when the cancellation lands: 8 workers and
    // one-pair chunks mean queues drain instantly and almost every
    // chunk delivery is a steal. `StealQueues::next_chunk` must observe
    // the cancellation (through the pool stop flag the aborting worker
    // trips) rather than hand out work forever, and the driver must
    // report Unknown, never a fabricated verdict.
    let spec = mixed(10, 3);
    let imp = unshare_latch_cones(&spec, 0.9, 3);
    for delay_us in [0u64, 20, 100, 500, 2000] {
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
                .jobs(8)
                .sat_chunk_pairs(1)
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
