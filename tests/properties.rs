//! Cross-crate property tests over fully random sequential circuits:
//! format round trips, synthesis passes, and verifier soundness must all
//! hold for arbitrary netlists, not just the structured generators.
//! Randomized with seeded loops (the offline build replaces proptest),
//! so failures reproduce deterministically from the printed case seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sec::gen::random_aig;
use sec::netlist::{
    check, load_model_bytes, parse_aiger, parse_bench, write_aiger, write_aiger_binary,
    write_bench, Aig,
};
use sec::sim::{first_output_mismatch, Trace};
use sec::synth;

/// Shape parameters for a random circuit: inputs, latches, gates, seed.
fn arb_shape(rng: &mut StdRng) -> (usize, usize, usize, u64) {
    loop {
        let i = rng.gen_range(0..4usize);
        let l = rng.gen_range(0..5usize);
        if i + l == 0 {
            continue; // need a leaf
        }
        let g = rng.gen_range(1..40usize);
        return (i, l, g, rng.gen());
    }
}

#[test]
fn random_circuits_are_well_formed() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC14C_0000 ^ case);
        let (i, l, g, seed) = arb_shape(&mut rng);
        let aig = random_aig(i, l, g, seed);
        assert!(check(&aig).is_ok(), "case {case}");
        assert!(aig.num_outputs() >= 1, "case {case}");
    }
}

#[test]
fn bench_roundtrip_random() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC14C_1000 ^ case);
        let (i, l, g, seed) = arb_shape(&mut rng);
        let aig = random_aig(i, l, g, seed);
        let back = parse_bench(&write_bench(&aig)).unwrap();
        let t = Trace::random(aig.num_inputs(), 48, seed ^ 1);
        assert_eq!(first_output_mismatch(&aig, &back, &t), None, "case {case}");
    }
}

#[test]
fn aiger_roundtrip_random() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC14C_2000 ^ case);
        let (i, l, g, seed) = arb_shape(&mut rng);
        let aig = random_aig(i, l, g, seed);
        let back = parse_aiger(&write_aiger(&aig)).unwrap();
        let t = Trace::random(aig.num_inputs(), 48, seed ^ 2);
        assert_eq!(first_output_mismatch(&aig, &back, &t), None, "case {case}");
    }
}

#[test]
fn synthesis_passes_preserve_behaviour() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC14C_3000 ^ case);
        let (i, l, g, seed) = arb_shape(&mut rng);
        let aig = random_aig(i, l, g, seed);
        let t = Trace::random(aig.num_inputs(), 64, seed ^ 3);
        let variants = [
            synth::strash_copy(&aig),
            synth::sweep(&aig),
            synth::reassociate(&aig, 0.8, seed),
            synth::balance(&aig),
            synth::minterm_rewrite(&aig, 0.6, seed),
            synth::unshare_latch_cones(&aig, 0.7, seed),
            synth::forward_retime(&aig, &synth::RetimeOptions::default(), seed),
            synth::pipeline(&aig, &synth::PipelineOptions::default(), seed),
        ];
        for (k, v) in variants.iter().enumerate() {
            assert_eq!(
                first_output_mismatch(&aig, v, &t),
                None,
                "case {case}: pass #{k} changed behaviour"
            );
        }
    }
}

#[test]
fn verifier_proves_pipeline_on_random_circuits() {
    use sec::core::{Checker, OptionsBuilder, Verdict};
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC14C_4000 ^ case);
        let (i, l, g, seed) = arb_shape(&mut rng);
        let aig = random_aig(i, l, g, seed);
        let imp = synth::pipeline(&aig, &synth::PipelineOptions::default(), seed ^ 5);
        let opts = OptionsBuilder::new()
            .timeout(Some(std::time::Duration::from_secs(30)))
            .build();
        let r = Checker::new(&aig, &imp, opts).unwrap().run();
        // Equivalent is expected; Unknown is tolerated (incompleteness);
        // Inequivalent would be a catastrophic synth or checker bug.
        assert!(
            !matches!(r.verdict, Verdict::Inequivalent(_)),
            "case {case}: false refutation on random circuit"
        );
        assert!(
            !matches!(r.verdict, Verdict::Unknown(_)),
            "case {case}: pipeline output should be provable: {:?}",
            r.verdict
        );
    }
}

#[test]
fn verifier_never_proves_mutants_random() {
    use sec::core::{Checker, OptionsBuilder, Verdict};
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC14C_5000 ^ case);
        let (i, l, g, seed) = arb_shape(&mut rng);
        let aig = random_aig(i, l, g, seed);
        let Some((mutant, m)) = synth::mutate_detectable(&aig, seed, 40, 64) else {
            continue;
        };
        let opts = OptionsBuilder::new()
            .timeout(Some(std::time::Duration::from_secs(30)))
            .bmc_depth(20)
            .build();
        let r = Checker::new(&aig, &mutant, opts).unwrap().run();
        assert!(
            !matches!(r.verdict, Verdict::Equivalent),
            "case {case}: UNSOUND on `{m}`"
        );
    }
}

#[test]
fn ternary_sim_refines_binary() {
    use sec::sim::{eval_single, ternary_eval, Ternary};
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xC14C_6000 ^ case);
        let (i, l, g, seed) = arb_shape(&mut rng);
        // With all-definite values, ternary evaluation must agree with
        // the boolean evaluator on every node.
        let aig = random_aig(i, l, g, seed);
        let t = Trace::random(aig.num_inputs(), 1, seed ^ 9);
        let inputs = &t.inputs[0];
        let state = aig.initial_state();
        let bvals = eval_single(&aig, inputs, &state);
        let tin: Vec<Ternary> = inputs.iter().map(|&b| b.into()).collect();
        let tst: Vec<Ternary> = state.iter().map(|&b| b.into()).collect();
        let tvals = ternary_eval(&aig, &tin, &tst);
        for v in aig.vars() {
            assert_eq!(
                tvals[v.index()],
                Ternary::from(bvals[v.index()]),
                "case {case}"
            );
        }
    }
}

#[test]
fn sequential_sweep_preserves_behaviour() {
    use sec::core::{sequential_sweep, OptionsBuilder};
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xC14C_7000 ^ case);
        let (i, l, g, seed) = arb_shape(&mut rng);
        let aig = random_aig(i, l, g, seed);
        let opts = OptionsBuilder::new()
            .timeout(Some(std::time::Duration::from_secs(20)))
            .build();
        let (reduced, stats) = sequential_sweep(&aig, &opts).unwrap();
        assert!(
            reduced.num_ands() <= aig.num_ands() || stats.gave_up,
            "case {case}"
        );
        let t = Trace::random(aig.num_inputs(), 128, seed ^ 11);
        assert_eq!(
            first_output_mismatch(&aig, &reduced, &t),
            None,
            "case {case}"
        );
    }
}

#[test]
fn combinational_sweep_agrees_with_exhaustive() {
    use sec::core::{combinational_equiv, CombResult};
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xC14C_8000 ^ case);
        let i = rng.gen_range(1..4usize);
        let g = rng.gen_range(1..14usize);
        let seed: u64 = rng.gen();
        // Latch-free circuits: combinational equivalence is decidable by
        // enumeration; the SAT sweep must agree.
        let a = random_aig(i, 0, g, seed);
        let b = synth::minterm_rewrite(&a, 0.8, seed ^ 3);
        let (r, _) = combinational_equiv(&a, &b).unwrap();
        assert_eq!(r, CombResult::Equivalent, "case {case}");
        // And against a mutant of itself, refutation must be correct.
        if let Some((m, _)) = synth::mutate_detectable(&a, seed, 30, 16) {
            if m.num_latches() == a.num_latches() {
                let (r, _) = combinational_equiv(&a, &m).unwrap();
                if let CombResult::Inequivalent { inputs, .. } = r {
                    use sec::sim::eval_single;
                    let va = eval_single(&a, &inputs, &[]);
                    let vm = eval_single(&m, &inputs, &[]);
                    let differs = a.outputs().iter().zip(m.outputs()).any(|(x, y)| {
                        (va[x.lit.var().index()] ^ x.lit.is_complemented())
                            != (vm[y.lit.var().index()] ^ y.lit.is_complemented())
                    });
                    assert!(differs, "case {case}: witness must be real");
                }
            }
        }
    }
}

/// Applies one random corruption to a circuit file: truncation, a bit
/// flip, an inserted digit, a deleted byte, or two swapped bytes.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    if bytes.is_empty() {
        bytes.push(b'0');
        return;
    }
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..5u32) {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
        2 => bytes.insert(at, b'0' + rng.gen_range(0..10u32) as u8),
        3 => {
            bytes.remove(at);
        }
        _ => {
            let other = rng.gen_range(0..bytes.len());
            bytes.swap(at, other);
        }
    }
}

/// Serializes a circuit in one of the loadable formats.
type Writer = fn(&Aig) -> Vec<u8>;

#[test]
fn load_model_bytes_never_panics_on_mutated_files() {
    // Hostile input must come back as `Err`, never as a panic: `sec
    // serve` parses inline payloads in-process. Every format's writer
    // output for a random small circuit, corrupted one to three times.
    let writers: [(&str, Writer); 3] = [
        ("m.bench", |aig| write_bench(aig).into_bytes()),
        ("m.aag", |aig| write_aiger(aig).into_bytes()),
        ("m.aig", write_aiger_binary),
    ];
    for (name, write) in writers {
        for case in 0..3000u64 {
            let mut rng = StdRng::seed_from_u64(0xC14C_9000 ^ case);
            let (i, l, g, seed) = arb_shape(&mut rng);
            let mut bytes = write(&random_aig(i, l, g, seed));
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(&mut bytes, &mut rng);
            }
            let outcome = std::panic::catch_unwind(|| load_model_bytes(name, &bytes));
            assert!(outcome.is_ok(), "{name}: case {case} panicked on {bytes:?}");
        }
    }
}
