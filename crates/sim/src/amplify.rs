//! Bit-parallel counterexample amplification.
//!
//! A SAT query of the correspondence fixed point yields *one* witness
//! `(s, x_t, x_{t+1})`. Splitting classes by a single evaluation wastes
//! the 64-way parallelism the simulator already has: this module packs
//! the witness together with randomly bit-flipped neighbour patterns
//! into one [`BitSim`] run over both time frames, so a single solver
//! call can refine many classes at once.
//!
//! Pattern 0 is always the exact witness. Neighbours perturb a few
//! random bits of the witness, which keeps them *near* the manifold of
//! assignments satisfying the correspondence condition `Q` — whether a
//! neighbour actually satisfies `Q` must be checked by the caller
//! (frame-0 values are exposed for exactly that), because splitting by
//! a point violating `Q` would over-refine the partition.
//!
//! [`AmplifiedCex::step`] moves every pattern one more clock forward
//! with fresh random inputs, so a caller can keep splitting by later
//! frames whose predecessor frame still satisfies `Q`.

use crate::BitSim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sec_netlist::Aig;

/// Two consecutive evaluated time frames of an amplified
/// counterexample.
///
/// Fresh from [`amplify_two_frame`], `frame0` holds every node's value
/// at `(s ⊕ ε, x_t ⊕ ε)` per pattern and `frame1` every node's value one
/// clock later, at the frame-0 next state under inputs `x_{t+1} ⊕ ε`.
/// After `k` calls of [`AmplifiedCex::step`] they hold frames `k` and
/// `k + 1` of the same patterns.
#[derive(Clone, Debug)]
pub struct AmplifiedCex {
    /// The earlier frame (at first: current state, inputs `x_t`).
    pub frame0: BitSim,
    /// The frame after `frame0` (at first: successor state, inputs
    /// `x_{t+1}`).
    pub frame1: BitSim,
    /// The witness's seeded stream, continued for the inputs of every
    /// stepped frame.
    rng: StdRng,
}

impl AmplifiedCex {
    /// Advances every pattern one clock: `frame1` becomes `frame0`, and
    /// the new `frame1` starts from its next state under fresh random
    /// inputs drawn from the witness's seeded stream. Deterministic for
    /// the seed [`amplify_two_frame`] was given.
    pub fn step(&mut self, aig: &Aig) {
        std::mem::swap(&mut self.frame0, &mut self.frame1);
        let num_words = self.frame1.num_words();
        let mut words = vec![0u64; num_words];
        load_successor_state(aig, &self.frame0, &mut self.frame1, &mut words);
        for i in 0..aig.num_inputs() {
            for w in &mut words {
                *w = self.rng.gen();
            }
            self.frame1.set_input(aig, i, &words);
        }
        self.frame1.eval(aig);
    }
}

/// Sets every latch of `next` to its next-state value in `frame`, the
/// state one clock after `frame` for every pattern. `words` is scratch
/// of one node's width.
fn load_successor_state(aig: &Aig, frame: &BitSim, next: &mut BitSim, words: &mut [u64]) {
    for (i, &l) in aig.latches().iter().enumerate() {
        let lit = aig.latch_next(l).expect("driven latch");
        for (w, word) in words.iter_mut().enumerate() {
            *word = frame.lit_word(lit, w);
        }
        next.set_latch(aig, i, words);
    }
}

/// Broadcast of one bit to a whole pattern word.
#[inline]
fn fill(b: bool) -> u64 {
    if b {
        !0u64
    } else {
        0
    }
}

/// Sparse per-pattern flip masks over `positions` bit positions:
/// `masks[pos * num_words + w]` has bit `k` set iff pattern `64*w + k`
/// flips position `pos`. Pattern 0 never flips (it is the witness).
///
/// Positions at and above `hot_lo` are flipped with strong bias (7 of
/// 8 flips): callers put the positions whose perturbation can never
/// invalidate the pattern there — for a two-frame witness, the
/// second-frame inputs, which leave frame 0 (and hence the
/// correspondence condition `Q`) untouched. Flipping frame-0 bits
/// almost always violates `Q` and gets the pattern masked out, so only
/// an occasional flip explores that direction.
fn flip_masks(positions: usize, hot_lo: usize, num_words: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut masks = vec![0u64; positions * num_words];
    if positions == 0 {
        return masks;
    }
    for pattern in 1..64 * num_words {
        let flips = rng.gen_range(1..=2usize);
        for _ in 0..flips {
            let pos = if hot_lo < positions && rng.gen_range(0..8u32) != 0 {
                rng.gen_range(hot_lo..positions)
            } else {
                rng.gen_range(0..positions)
            };
            masks[pos * num_words + pattern / 64] |= 1u64 << (pattern % 64);
        }
    }
    masks
}

/// Evaluates the witness `(state, inputs_t, inputs_t1)` and `64 *
/// num_words - 1` randomly perturbed neighbours over two time frames.
///
/// Pattern 0 is the unmodified witness; every other pattern flips one
/// or two random bits of the concatenated `(state, inputs_t,
/// inputs_t1)` vector. Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if the slice lengths do not match the circuit interface or
/// `num_words` is zero.
#[allow(clippy::needless_range_loop)] // i indexes witness slices and mask rows alike
pub fn amplify_two_frame(
    aig: &Aig,
    state: &[bool],
    inputs_t: &[bool],
    inputs_t1: &[bool],
    num_words: usize,
    seed: u64,
) -> AmplifiedCex {
    assert_eq!(state.len(), aig.num_latches());
    assert_eq!(inputs_t.len(), aig.num_inputs());
    assert_eq!(inputs_t1.len(), aig.num_inputs());
    let nl = aig.num_latches();
    let ni = aig.num_inputs();
    let mut rng = StdRng::seed_from_u64(seed);
    // The x_{t+1} block is "hot": flipping it cannot perturb frame 0.
    let masks = flip_masks(nl + 2 * ni, nl + ni, num_words, &mut rng);
    let at = |pos: usize| &masks[pos * num_words..(pos + 1) * num_words];

    let mut frame0 = BitSim::new(aig, num_words);
    let mut words = vec![0u64; num_words];
    for i in 0..nl {
        for (w, m) in words.iter_mut().zip(at(i)) {
            *w = fill(state[i]) ^ m;
        }
        frame0.set_latch(aig, i, &words);
    }
    for i in 0..ni {
        for (w, m) in words.iter_mut().zip(at(nl + i)) {
            *w = fill(inputs_t[i]) ^ m;
        }
        frame0.set_input(aig, i, &words);
    }
    frame0.eval(aig);

    let mut frame1 = BitSim::new(aig, num_words);
    load_successor_state(aig, &frame0, &mut frame1, &mut words);
    for i in 0..ni {
        for (w, m) in words.iter_mut().zip(at(nl + ni + i)) {
            *w = fill(inputs_t1[i]) ^ m;
        }
        frame1.set_input(aig, i, &words);
    }
    frame1.eval(aig);

    AmplifiedCex {
        frame0,
        frame1,
        rng,
    }
}

/// Evaluates the witness input vector and `64 * num_words - 1` randomly
/// perturbed neighbours at the circuit's initial state.
///
/// Pattern 0 is the unmodified witness. Unlike the two-frame case every
/// pattern is a valid splitting point — the initial-state condition
/// quantifies over *all* inputs — so no validity filtering is needed.
///
/// # Panics
///
/// Panics if `inputs` has the wrong length or `num_words` is zero.
#[allow(clippy::needless_range_loop)] // i indexes witness slice and mask rows alike
pub fn amplify_init(aig: &Aig, inputs: &[bool], num_words: usize, seed: u64) -> BitSim {
    assert_eq!(inputs.len(), aig.num_inputs());
    let ni = aig.num_inputs();
    let mut rng = StdRng::seed_from_u64(seed);
    // Every input flip is valid at the initial state: all positions hot.
    let masks = flip_masks(ni, 0, num_words, &mut rng);

    let mut sim = BitSim::new(aig, num_words);
    sim.reset(aig);
    let mut words = vec![0u64; num_words];
    for i in 0..ni {
        for (w, m) in words
            .iter_mut()
            .zip(&masks[i * num_words..(i + 1) * num_words])
        {
            *w = fill(inputs[i]) ^ m;
        }
        sim.set_input(aig, i, &words);
    }
    sim.eval(aig);
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval_single, next_state_single};

    fn sample() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input("a").lit();
        let b = aig.add_input("b").lit();
        let q = aig.add_latch(false);
        let r = aig.add_latch(true);
        let nq = aig.xor(q.lit(), a);
        let nr = aig.and(r.lit(), b);
        aig.set_latch_next(q, nq);
        aig.set_latch_next(r, nr);
        aig.add_output(nq, "o");
        aig
    }

    #[test]
    fn pattern_zero_is_the_exact_witness() {
        let aig = sample();
        let s = vec![true, false];
        let xt = vec![false, true];
        let xt1 = vec![true, true];
        let amp = amplify_two_frame(&aig, &s, &xt, &xt1, 2, 42);
        let f0 = eval_single(&aig, &xt, &s);
        let s1 = next_state_single(&aig, &xt, &s);
        let f1 = eval_single(&aig, &xt1, &s1);
        for v in aig.vars() {
            assert_eq!(amp.frame0.lit_bit(v.lit(), 0), f0[v.index()], "{v:?} f0");
            assert_eq!(amp.frame1.lit_bit(v.lit(), 0), f1[v.index()], "{v:?} f1");
        }
    }

    #[test]
    fn neighbours_differ_from_the_witness() {
        let aig = sample();
        let amp = amplify_two_frame(
            &aig,
            &[false, false],
            &[false, false],
            &[false, false],
            1,
            7,
        );
        // With an all-zero witness, any flipped state/input bit shows up
        // directly on that node's frame-0 word.
        let mut flipped = 0u64;
        for &v in aig.latches().iter().chain(aig.inputs()) {
            flipped |= amp.frame0.lit_word(v.lit(), 0);
        }
        assert_ne!(flipped, 0, "some neighbour must perturb frame 0");
        assert_eq!(flipped & 1, 0, "pattern 0 must stay the witness");
    }

    #[test]
    fn init_amplification_fixes_the_state() {
        let aig = sample();
        let xi = vec![true, false];
        let sim = amplify_init(&aig, &xi, 1, 3);
        let init = aig.initial_state();
        let vals = eval_single(&aig, &xi, &init);
        for v in aig.vars() {
            assert_eq!(sim.lit_bit(v.lit(), 0), vals[v.index()], "{v:?}");
        }
        // Latches stay at their initial values in every pattern.
        for (i, &l) in aig.latches().iter().enumerate() {
            assert_eq!(sim.lit_word(l.lit(), 0), fill(init[i]), "latch {i}");
        }
    }

    #[test]
    fn step_advances_every_pattern_one_clock() {
        let aig = sample();
        let mut amp = amplify_two_frame(&aig, &[true, false], &[false, true], &[true, true], 2, 5);
        let frame1 = amp.frame1.clone();
        amp.step(&aig);
        for v in aig.vars() {
            assert_eq!(amp.frame0.var_words(v), frame1.var_words(v), "{v:?}");
        }
        // Each pattern's new state is its old frame's next state, and the
        // new frame is that state evaluated under its own inputs.
        for p in 0..amp.frame1.num_patterns() {
            let bits = |sim: &BitSim, vs: &[sec_netlist::Var]| -> Vec<bool> {
                vs.iter().map(|v| sim.lit_bit(v.lit(), p)).collect()
            };
            let x1 = bits(&amp.frame0, aig.inputs());
            let s1 = bits(&amp.frame0, aig.latches());
            let x2 = bits(&amp.frame1, aig.inputs());
            let s2 = next_state_single(&aig, &x1, &s1);
            let f2 = eval_single(&aig, &x2, &s2);
            for v in aig.vars() {
                assert_eq!(amp.frame1.lit_bit(v.lit(), p), f2[v.index()], "{v:?} p{p}");
            }
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let aig = sample();
        let mut a = amplify_two_frame(&aig, &[true, true], &[false, true], &[true, false], 1, 11);
        let mut b = amplify_two_frame(&aig, &[true, true], &[false, true], &[true, false], 1, 11);
        a.step(&aig);
        b.step(&aig);
        for v in aig.vars() {
            assert_eq!(a.frame0.lit_word(v.lit(), 0), b.frame0.lit_word(v.lit(), 0));
            assert_eq!(a.frame1.lit_word(v.lit(), 0), b.frame1.lit_word(v.lit(), 0));
        }
    }
}
