//! # sec-bdd
//!
//! A from-scratch ROBDD package in the style of the BDD engines of the
//! 1990s verification tools (and of the Eindhoven package used by the
//! original experiments):
//!
//! * complement edges (negation is free; `f == !g` is a pointer check);
//! * per-variable unique subtables with a shared computed-table cache;
//! * explicit mark-and-sweep garbage collection ([`BddManager::gc`]);
//! * sifting-based dynamic reordering ([`BddManager::sift`]) that keeps
//!   all handles valid;
//! * a configurable node limit: operations return [`BddHalt`] instead
//!   of exhausting memory, mirroring the 100 MB cap of the original
//!   experiments;
//! * quantification ([`exists`](BddManager::exists),
//!   [`and_exists`](BddManager::and_exists)) and simultaneous
//!   [composition](BddManager::compose) for image computation and
//!   substitution.
//!
//! ## Example
//!
//! ```
//! use sec_bdd::{Bdd, BddManager};
//!
//! let mut m = BddManager::new();
//! let v = m.add_vars(3);
//! let x = m.var(v[0]);
//! let y = m.var(v[1]);
//! let z = m.var(v[2]);
//!
//! // f = (x ∧ y) ∨ z; quantifying y away leaves x ∨ z.
//! let xy = m.and(x, y)?;
//! let f = m.or(xy, z)?;
//! let e = m.exists(f, &[v[1]])?;
//! let xz = m.or(x, z)?;
//! assert_eq!(e, xz);
//! # Ok::<(), sec_bdd::BddHalt>(())
//! ```

#![warn(missing_docs)]

mod analyze;
mod cache;
mod compose;
mod dot;
mod manager;
mod node;
mod ops;
mod quant;
mod reorder;

pub use compose::Substitution;
pub use manager::{BddHalt, BddManager, BddResult};
pub use node::{Bdd, BddVar};
