//! # sec-sim
//!
//! Bit-parallel simulation for sequential and-inverter graphs:
//!
//! * [`BitSim`] — 64-way parallel combinational/sequential evaluation;
//! * [`amplify_two_frame`] / [`amplify_init`] — bit-parallel
//!   counterexample amplification: one SAT witness plus 63+ perturbed
//!   neighbours evaluated in a single pass, so one solver call can
//!   refine many correspondence classes;
//! * [`Signatures`] — random sequential simulation with polarity-normalized
//!   signatures, used to seed the signal-correspondence partition (paper
//!   Sec. 4);
//! * [`Trace`] — input sequences, counterexample replay, and lockstep
//!   output comparison.
//!
//! ## Example
//!
//! ```
//! use sec_netlist::Aig;
//! use sec_sim::{Signatures, Trace};
//!
//! let mut aig = Aig::new();
//! let en = aig.add_input("en").lit();
//! let q = aig.add_latch(false);
//! let nq = aig.xor(q.lit(), en);
//! aig.set_latch_next(q, nq);
//! aig.add_output(q.lit(), "q");
//!
//! let sigs = Signatures::collect(&aig, 8, 1, 42);
//! let classes = sigs.partition(aig.latches().iter().copied());
//! assert_eq!(classes.len(), 1);
//!
//! let outs = Trace::random(1, 4, 0).replay(&aig);
//! assert_eq!(outs.len(), 4);
//! ```

#![warn(missing_docs)]

mod amplify;
mod bitsim;
mod signature;
mod ternary;
mod trace;

pub use amplify::{amplify_init, amplify_two_frame, AmplifiedCex};
pub use bitsim::{eval_single, next_state_single, BitSim};
pub use signature::Signatures;
pub use ternary::{initializes, ternary_eval, ternary_outputs_agree, Ternary, TernarySim};
pub use trace::{first_output_mismatch, Trace};
