//! # sec-netlist
//!
//! Sequential and-inverter graphs (AIGs) for the `sec` equivalence-checking
//! suite: the shared circuit representation used by the simulator, the BDD
//! and SAT engines, the synthesis passes and the signal-correspondence
//! verifier.
//!
//! A circuit is a deterministic Mealy machine: primary inputs, two-input
//! AND gates with inverters on edges, registers ([latches](Node::Latch))
//! with *specified initial values*, and primary outputs. Structural hashing
//! is always on.
//!
//! ## Example
//!
//! ```
//! use sec_netlist::{Aig, analysis};
//!
//! // A 1-bit toggle counter with an enable input.
//! let mut aig = Aig::new();
//! let en = aig.add_input("en").lit();
//! let q = aig.add_latch(false);
//! let next = aig.xor(q.lit(), en);
//! aig.set_latch_next(q, next);
//! aig.add_output(q.lit(), "count");
//!
//! analysis::check(&aig)?;
//! assert_eq!(analysis::stats(&aig).latches, 1);
//! # Ok::<(), sec_netlist::CheckError>(())
//! ```
//!
//! Netlists can be exchanged in the ISCAS'89 [`.bench`](parse_bench),
//! ASCII [AIGER](parse_aiger) and binary [AIGER](parse_aiger_binary)
//! formats; [`load_model`] / [`load_model_bytes`] auto-detect the
//! format and return a single [`ParseError`].

#![warn(missing_docs)]

mod aig;
mod aiger;
pub mod analysis;
mod bench_format;
pub mod dot;
mod fingerprint;
mod literal;
mod load;
pub mod product;

pub use aig::{Aig, Node, Output};
pub use aiger::{
    parse_aiger, parse_aiger_binary, write_aiger, write_aiger_binary, ParseAigerBinError,
    ParseAigerError, MAX_BINARY_AIGER_INPUTS,
};
pub use analysis::{check, stats, AigStats, CheckError};
pub use bench_format::{parse_bench, write_bench, ParseBenchError};
pub use fingerprint::{ordered_digest, structural_fingerprint, Fingerprint};
pub use literal::{Lit, Var};
pub use load::{load_model, load_model_bytes, ParseError};
pub use product::{align_interface_by_name, ProductError, ProductMachine, Side};
