//! Substitution: vector composition and cube cofactoring.
//!
//! Vector composition builds `f(x₁ ← g₁, …, xₙ ← gₙ)` in one pass. The
//! traversal baseline and the correspondence engine's approximate
//! reachability use it for renaming and substitution. The engine builds
//! the paper's next-state functions `ν_v = f_v(δ(s, x_t), x_{t+1})` and
//! its functional-dependency substitutions (Sec. 4) gate by gate over
//! the circuit instead, and tests those builds against
//! [`BddManager::compose_many`] handle for handle.

use crate::manager::{BddManager, BddResult};
use crate::node::{Bdd, BddVar};
use std::collections::HashMap;

/// A variable substitution for [`BddManager::compose`]. Variables without
/// an entry map to themselves.
#[derive(Clone, Debug, Default)]
pub struct Substitution {
    map: HashMap<u32, Bdd>,
}

impl Substitution {
    /// An empty (identity) substitution.
    pub fn new() -> Substitution {
        Substitution::default()
    }

    /// Maps `var` to the function `g`.
    pub fn set(&mut self, var: BddVar, g: Bdd) -> &mut Self {
        self.map.insert(var.0, g);
        self
    }

    /// The image of `var`, if any.
    pub fn get(&self, var: BddVar) -> Option<Bdd> {
        self.map.get(&var.0).copied()
    }

    /// Number of mapped variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the substitution is the identity.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(var, image)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BddVar, Bdd)> + '_ {
        self.map.iter().map(|(&v, &g)| (BddVar(v), g))
    }
}

impl FromIterator<(BddVar, Bdd)> for Substitution {
    fn from_iter<T: IntoIterator<Item = (BddVar, Bdd)>>(iter: T) -> Self {
        Substitution {
            map: iter.into_iter().map(|(v, g)| (v.0, g)).collect(),
        }
    }
}

impl BddManager {
    /// Simultaneous composition `f[xᵢ ← gᵢ]`.
    ///
    /// Uses a per-call memo table (results depend on the substitution, so
    /// the global computed table cannot be used).
    ///
    /// # Errors
    ///
    /// Returns [`BddHalt`](crate::BddHalt) on node-limit overflow.
    pub fn compose(&mut self, f: Bdd, subst: &Substitution) -> BddResult {
        if subst.is_empty() {
            return Ok(f);
        }
        let mut memo: HashMap<Bdd, Bdd> = HashMap::new();
        self.compose_rec(f, subst, &mut memo)
    }

    /// Composes many functions under one substitution, sharing the memo
    /// table across all of them (much cheaper than separate
    /// [`BddManager::compose`] calls when the functions share structure,
    /// as the per-signal functions of a circuit always do).
    ///
    /// # Errors
    ///
    /// Returns [`BddHalt`](crate::BddHalt) on node-limit overflow.
    pub fn compose_many(
        &mut self,
        fs: &[Bdd],
        subst: &Substitution,
    ) -> Result<Vec<Bdd>, crate::BddHalt> {
        if subst.is_empty() {
            return Ok(fs.to_vec());
        }
        let mut memo: HashMap<Bdd, Bdd> = HashMap::new();
        fs.iter()
            .map(|&f| self.compose_rec(f, subst, &mut memo))
            .collect()
    }

    fn compose_rec(
        &mut self,
        f: Bdd,
        subst: &Substitution,
        memo: &mut HashMap<Bdd, Bdd>,
    ) -> BddResult {
        if f.is_const() {
            return Ok(f);
        }
        let reg = f.regular();
        if let Some(&r) = memo.get(&reg) {
            return Ok(r.complement_if(f.is_complemented()));
        }
        let var = self.top_var(reg);
        let (f1, f0) = self.cofactors(reg);
        let r1 = self.compose_rec(f1, subst, memo)?;
        let r0 = self.compose_rec(f0, subst, memo)?;
        let g = match subst.get(var) {
            Some(g) => g,
            None => self.var(var),
        };
        let r = self.ite(g, r1, r0)?;
        memo.insert(reg, r);
        Ok(r.complement_if(f.is_complemented()))
    }

    /// Cofactor of `f` under a partial assignment (a cube): each listed
    /// variable is fixed to its value.
    ///
    /// # Errors
    ///
    /// Returns [`BddHalt`](crate::BddHalt) on node-limit overflow.
    pub fn cofactor_cube(&mut self, f: Bdd, assignment: &[(BddVar, bool)]) -> BddResult {
        if assignment.is_empty() {
            return Ok(f);
        }
        let mut values: HashMap<u32, bool> = HashMap::with_capacity(assignment.len());
        for (v, b) in assignment {
            values.insert(v.0, *b);
        }
        let mut memo: HashMap<Bdd, Bdd> = HashMap::new();
        self.cofactor_rec(f, &values, &mut memo)
    }

    /// Cofactor with respect to a single variable.
    ///
    /// # Errors
    ///
    /// Returns [`BddHalt`](crate::BddHalt) on node-limit overflow.
    pub fn cofactor(&mut self, f: Bdd, var: BddVar, value: bool) -> BddResult {
        self.cofactor_cube(f, &[(var, value)])
    }

    fn cofactor_rec(
        &mut self,
        f: Bdd,
        values: &HashMap<u32, bool>,
        memo: &mut HashMap<Bdd, Bdd>,
    ) -> BddResult {
        if f.is_const() {
            return Ok(f);
        }
        let reg = f.regular();
        if let Some(&r) = memo.get(&reg) {
            return Ok(r.complement_if(f.is_complemented()));
        }
        let var = self.top_var(reg);
        let (f1, f0) = self.cofactors(reg);
        let r = match values.get(&var.0) {
            Some(true) => self.cofactor_rec(f1, values, memo)?,
            Some(false) => self.cofactor_rec(f0, values, memo)?,
            None => {
                let r1 = self.cofactor_rec(f1, values, memo)?;
                let r0 = self.cofactor_rec(f0, values, memo)?;
                self.mk(var.0, r1, r0)?
            }
        };
        memo.insert(reg, r);
        Ok(r.complement_if(f.is_complemented()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_identity() {
        let mut m = BddManager::new();
        let v = m.add_vars(2);
        let x = m.var(v[0]);
        let y = m.var(v[1]);
        let f = m.xor(x, y).unwrap();
        assert_eq!(m.compose(f, &Substitution::new()).unwrap(), f);
    }

    #[test]
    fn compose_substitutes() {
        let mut m = BddManager::new();
        let v = m.add_vars(3);
        let x = m.var(v[0]);
        let y = m.var(v[1]);
        let z = m.var(v[2]);
        let f = m.xor(x, y).unwrap();
        // f[y <- x & z] = x ^ (x & z)
        let xz = m.and(x, z).unwrap();
        let mut s = Substitution::new();
        s.set(v[1], xz);
        let g = m.compose(f, &s).unwrap();
        let expect = m.xor(x, xz).unwrap();
        assert_eq!(g, expect);
    }

    #[test]
    fn compose_simultaneous_swap() {
        let mut m = BddManager::new();
        let v = m.add_vars(2);
        let x = m.var(v[0]);
        let y = m.var(v[1]);
        let and_ = m.and(x, !y).unwrap();
        // Swap x and y simultaneously: result must be y & !x, not a
        // sequential mess.
        let s: Substitution = [(v[0], y), (v[1], x)].into_iter().collect();
        let g = m.compose(and_, &s).unwrap();
        let expect = m.and(y, !x).unwrap();
        assert_eq!(g, expect);
    }

    #[test]
    fn compose_handles_complement_roots() {
        let mut m = BddManager::new();
        let v = m.add_vars(2);
        let x = m.var(v[0]);
        let y = m.var(v[1]);
        let f = m.and(x, y).unwrap();
        let mut s = Substitution::new();
        s.set(v[0], !y);
        let g = m.compose(!f, &s).unwrap();
        let ny_and_y = m.and(!y, y).unwrap();
        assert_eq!(g, !ny_and_y);
        assert_eq!(g, Bdd::ONE);
    }

    #[test]
    fn cofactor_fixes_variables() {
        let mut m = BddManager::new();
        let v = m.add_vars(3);
        let x = m.var(v[0]);
        let y = m.var(v[1]);
        let z = m.var(v[2]);
        let xy = m.and(x, y).unwrap();
        let f = m.or(xy, z).unwrap();
        assert_eq!(m.cofactor(f, v[2], true).unwrap(), Bdd::ONE);
        let c = m.cofactor(f, v[2], false).unwrap();
        assert_eq!(c, xy);
        let c2 = m.cofactor_cube(f, &[(v[0], true), (v[2], false)]).unwrap();
        assert_eq!(c2, y);
    }

    #[test]
    fn substitution_api() {
        let mut s = Substitution::new();
        assert!(s.is_empty());
        s.set(BddVar(3), Bdd::ONE);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(BddVar(3)), Some(Bdd::ONE));
        assert_eq!(s.get(BddVar(4)), None);
        assert_eq!(s.iter().count(), 1);
    }
}
