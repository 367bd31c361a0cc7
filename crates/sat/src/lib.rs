//! # sec-sat
//!
//! A CDCL SAT solver and a Tseitin encoder for and-inverter graphs.
//!
//! The original tool ran its combinational checks purely on BDDs; the
//! paper's conclusion points at "techniques based on the introduction of
//! extra variables representing intermediate signals" as the way to scale
//! further — which is exactly SAT over the Tseitin encoding. The
//! verification engine therefore offers this solver as an alternative
//! backend (ablation B).
//!
//! Features: two-watched-literal propagation, first-UIP learning with
//! local minimization, VSIDS + phase saving, Luby restarts, LBD-based
//! clause-database reduction, incremental solving under assumptions.
//!
//! ## Data layout
//!
//! * **Clauses** live back to back in one `Vec<u32>` arena, as in
//!   MiniSat (Eén and Sörensson, "An Extensible SAT-solver", SAT 2003):
//!   a header word (length, learnt bit, deleted bit), an LBD word, then
//!   the literal codes. A clause reference is the header's offset, so
//!   watchers, reasons and the learnt list hold plain `u32`s. Deletion
//!   sets the header bit; once deleted words are the majority, the
//!   arena is compacted in order and every reference remapped.
//! * **Values** are one byte per literal code, so reading a literal's
//!   value is one load with no sign fix-up.
//! * **The decision heap** stores each variable's activity next to it
//!   and sifts by moving a hole.
//! * **Conflict analysis, LBD and `add_clause`** work in buffers the
//!   solver keeps, so a conflict or an added clause allocates nothing
//!   beyond its arena words.
//!
//! None of this changes the search: watch order, the literal swaps
//! inside clauses and the decision order are those of a
//! clause-per-allocation layout, so [`SatStats`] stay identical.
//!
//! ## Example
//!
//! ```
//! use sec_sat::{SatResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a.positive(), b.positive()]);
//! s.add_clause(&[!a.positive(), b.positive()]);
//! assert_eq!(s.solve(), SatResult::Sat);
//! assert!(s.model_value(b.positive()));
//! ```

#![warn(missing_docs)]

mod dimacs;
mod heap;
mod solver;
mod tseitin;
mod types;

pub use dimacs::{parse_dimacs, write_dimacs, DimacsProblem, ParseDimacsError};
pub use solver::{SatStats, Solver};
pub use tseitin::AigCnf;
pub use types::{SatLit, SatResult, SatVar};
