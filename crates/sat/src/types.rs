//! Variables, literals and solve results of the SAT solver.

use std::fmt;
use std::ops::Not;

/// A SAT variable.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatVar(pub(crate) u32);

impl SatVar {
    /// Index of this variable (dense, starting at 0).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> SatLit {
        SatLit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> SatLit {
        SatLit((self.0 << 1) | 1)
    }

    /// A literal of this variable with the given sign.
    #[inline]
    pub fn lit(self, positive: bool) -> SatLit {
        SatLit((self.0 << 1) | !positive as u32)
    }
}

impl fmt::Debug for SatVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A SAT literal: variable plus sign, encoded `2*var + negated`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatLit(pub(crate) u32);

impl SatLit {
    /// The variable of this literal.
    #[inline]
    pub fn var(self) -> SatVar {
        SatVar(self.0 >> 1)
    }

    /// Whether the literal is negated.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 & 1 != 0
    }

    /// Raw code (used as an index into watch lists).
    #[inline]
    pub(crate) fn code(self) -> usize {
        self.0 as usize
    }

    /// Negates iff `c` is true.
    #[inline]
    pub fn negate_if(self, c: bool) -> SatLit {
        SatLit(self.0 ^ c as u32)
    }
}

impl Not for SatLit {
    type Output = SatLit;
    #[inline]
    fn not(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }
}

impl fmt::Debug for SatLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬x{}", self.0 >> 1)
        } else {
            write!(f, "x{}", self.0 >> 1)
        }
    }
}

/// Result of a solve call.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found (read it with
    /// [`Solver::model_value`](crate::Solver::model_value)).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The limits attached via
    /// [`Solver::set_limits`](crate::Solver::set_limits) stopped the
    /// search before an answer was reached (cancellation or deadline).
    /// The solver backtracks to level 0 and stays usable; the reason is
    /// available from
    /// [`Solver::interrupt_reason`](crate::Solver::interrupt_reason).
    /// Callers must treat this as *no answer* — in particular it must
    /// never be conflated with `Unsat`.
    Interrupted,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = SatVar(3);
        assert_eq!(v.positive().code(), 6);
        assert_eq!(v.negative().code(), 7);
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
        assert_eq!(v.positive().var(), v);
        assert!(v.negative().is_negative());
    }
}
