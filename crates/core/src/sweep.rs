//! Sequential sweeping: *using* the signal correspondence relation to
//! optimize a circuit, not just to verify one.
//!
//! The paper's related-work discussion notes that "the detection of
//! corresponding registers also forms the basis for the utilization of
//! structural similarities" — and the modern descendant of this method
//! (ABC's `scorr`) is an *optimization*: every signal is replaced by the
//! representative of its correspondence class, merging sequentially
//! equivalent logic. This module implements that reduction. Behaviour
//! from the initial state is preserved because all class members carry
//! equal values on every reachable state (the relation's defining
//! invariant).

use crate::engine::correspondence_partition;
use crate::options::Options;
use sec_netlist::{check as check_circuit, Aig, CheckError, Lit, Node};
use sec_obs::{emit_snapshot, Counter, Recorder};
use std::sync::Arc;

/// Statistics of a [`sequential_sweep`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    /// Fixed-point refinement iterations.
    pub iterations: usize,
    /// Signals merged into a representative.
    pub merged: usize,
    /// AND gates before the sweep.
    pub ands_before: usize,
    /// AND gates after the sweep.
    pub ands_after: usize,
    /// Registers before the sweep.
    pub latches_before: usize,
    /// Registers after the sweep.
    pub latches_after: usize,
    /// True when the fixed point ran out of resources and the circuit was
    /// returned unreduced.
    pub gave_up: bool,
}

/// Merges sequentially equivalent signals of `aig` (including equivalent
/// and constant registers), returning the reduced circuit. The result is
/// sequentially equivalent to the input from its initial state.
///
/// When the fixed point aborts (resources, timeout or cancellation) the
/// original circuit is returned unchanged (`stats.gave_up` set).
///
/// # Errors
///
/// Returns [`CheckError`] if the circuit is malformed.
///
/// # Examples
///
/// ```
/// use sec_core::{sequential_sweep, Options};
/// use sec_netlist::Aig;
///
/// // Two identical toggle registers: one is redundant.
/// let mut aig = Aig::new();
/// let en = aig.add_input("en").lit();
/// let q1 = aig.add_latch(false);
/// let q2 = aig.add_latch(false);
/// let n1 = aig.xor(q1.lit(), en);
/// let n2 = aig.xor(q2.lit(), en);
/// aig.set_latch_next(q1, n1);
/// aig.set_latch_next(q2, n2);
/// let both = aig.and(q1.lit(), q2.lit());
/// aig.add_output(both, "o");
///
/// let (reduced, stats) = sequential_sweep(&aig, &Options::default())?;
/// assert_eq!(reduced.num_latches(), 1);
/// assert!(stats.merged >= 1);
/// # Ok::<(), sec_netlist::CheckError>(())
/// ```
pub fn sequential_sweep(aig: &Aig, opts: &Options) -> Result<(Aig, SweepStats), CheckError> {
    check_circuit(aig)?;
    let mut stats = SweepStats {
        ands_before: aig.num_ands(),
        latches_before: aig.num_latches(),
        ..SweepStats::default()
    };
    // Local recorder tee so the iteration count comes from the same
    // `rounds` counter every other consumer of the backends uses.
    let recorder = Recorder::new();
    let mut opts = opts.clone();
    opts.obs = opts.obs.and_sink(Arc::new(recorder.clone()));
    let fixed_point = correspondence_partition(aig, &opts);
    stats.iterations = recorder.counter(Counter::Rounds) as usize;
    // Terminal snapshot so a trace of the sweep is self-contained.
    emit_snapshot(&opts.obs, &recorder, "sweep");
    let Ok(partition) = fixed_point else {
        stats.gave_up = true;
        stats.ands_after = stats.ands_before;
        stats.latches_after = stats.latches_before;
        return Ok((aig.clone(), stats));
    };

    // Rebuild, redirecting every non-representative signal to its class
    // representative (polarity-adjusted). Representatives are the
    // lowest-indexed members, so they are already constructed when a
    // member needs them.
    let mut out = Aig::new();
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    let mut new_latches = Vec::new();
    for v in aig.vars() {
        let own = match aig.node(v) {
            Node::Const => Lit::FALSE,
            Node::Input { .. } => out.add_input(aig.name(v).unwrap_or("i").to_string()).lit(),
            Node::Latch { init, .. } => {
                let nv = out.add_latch(*init);
                if let Some(n) = aig.name(v) {
                    out.set_name(nv, n.to_string());
                }
                new_latches.push((v, nv));
                nv.lit()
            }
            Node::And { a, b } => {
                let na = map[a.var().index()].complement_if(a.is_complemented());
                let nb = map[b.var().index()].complement_if(b.is_complemented());
                out.and(na, nb)
            }
        };
        // Inputs are never merged (they are free); everything else
        // follows its representative.
        let redirect = if aig.is_input(v) {
            own
        } else {
            match partition.class_of(v) {
                Some(ci) => {
                    let repr = partition.class(ci)[0];
                    if repr == v {
                        own
                    } else {
                        stats.merged += 1;
                        let flip = partition.phase(v) != partition.phase(repr);
                        map[repr.index()].complement_if(flip)
                    }
                }
                None => own,
            }
        };
        map[v.index()] = redirect;
    }
    for (v, nv) in new_latches {
        let next = aig.latch_next(v).expect("driven latch");
        let n = map[next.var().index()].complement_if(next.is_complemented());
        out.set_latch_next(nv, n);
    }
    for o in aig.outputs() {
        let l = map[o.lit.var().index()].complement_if(o.lit.is_complemented());
        out.add_output(l, o.name.clone().unwrap_or_default());
    }
    // Drop the now-dangling logic and registers.
    let out = drop_dead(&out);
    stats.ands_after = out.num_ands();
    stats.latches_after = out.num_latches();
    Ok((out, stats))
}

/// Removes logic and registers no longer (sequentially) reachable from
/// any output after the merge.
fn drop_dead(old: &Aig) -> Aig {
    let mut live = vec![false; old.num_nodes()];
    let mut stack: Vec<_> = old.outputs().iter().map(|o| o.lit.var()).collect();
    while let Some(v) = stack.pop() {
        if live[v.index()] {
            continue;
        }
        live[v.index()] = true;
        match old.node(v) {
            Node::And { a, b } => {
                stack.push(a.var());
                stack.push(b.var());
            }
            Node::Latch { next: Some(n), .. } => stack.push(n.var()),
            _ => {}
        }
    }
    let mut aig = Aig::new();
    let mut map: Vec<Option<Lit>> = vec![None; old.num_nodes()];
    map[0] = Some(Lit::FALSE);
    for &v in old.inputs() {
        let nv = aig.add_input(old.name(v).unwrap_or("i").to_string());
        map[v.index()] = Some(nv.lit());
    }
    let mut kept = Vec::new();
    for &v in old.latches() {
        if live[v.index()] {
            let nv = aig.add_latch(old.latch_init(v));
            if let Some(n) = old.name(v) {
                aig.set_name(nv, n.to_string());
            }
            map[v.index()] = Some(nv.lit());
            kept.push((v, nv));
        }
    }
    for v in old.and_vars() {
        if live[v.index()] {
            let (a, b) = old.and_fanins(v);
            let na = map[a.var().index()]
                .unwrap()
                .complement_if(a.is_complemented());
            let nb = map[b.var().index()]
                .unwrap()
                .complement_if(b.is_complemented());
            map[v.index()] = Some(aig.and(na, nb));
        }
    }
    for (v, nv) in kept {
        let next = old.latch_next(v).expect("driven latch");
        let n = map[next.var().index()]
            .expect("live latch's next cone is live")
            .complement_if(next.is_complemented());
        aig.set_latch_next(nv, n);
    }
    for o in old.outputs() {
        let l = map[o.lit.var().index()]
            .expect("output cone is live")
            .complement_if(o.lit.is_complemented());
        aig.add_output(l, o.name.clone().unwrap_or_default());
    }
    aig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Checker, Verdict};
    use sec_gen::{counter, mixed, CounterKind};
    use sec_sim::{first_output_mismatch, Trace};

    fn assert_equiv_and_check(orig: &Aig, reduced: &Aig) {
        let t = Trace::random(orig.num_inputs(), 300, 77);
        assert_eq!(first_output_mismatch(orig, reduced, &t), None);
        let r = Checker::new(orig, reduced, Options::default())
            .unwrap()
            .run();
        assert_eq!(r.verdict, Verdict::Equivalent);
    }

    /// A circuit with deliberate sequential redundancy: duplicated
    /// counter plus an antivalent register.
    fn redundant() -> Aig {
        let mut aig = Aig::new();
        let en = aig.add_input("en").lit();
        let q1 = aig.add_latch(false);
        let q2 = aig.add_latch(false); // duplicate of q1
        let q3 = aig.add_latch(true); // antivalent to q1
        let n1 = aig.xor(q1.lit(), en);
        let n2 = aig.xor(q2.lit(), en);
        let n3 = aig.xor(q3.lit(), en);
        aig.set_latch_next(q1, n1);
        aig.set_latch_next(q2, n2);
        aig.set_latch_next(q3, n3);
        let o1 = aig.and(q1.lit(), q2.lit()); // == q1
        let o2 = aig.or(o1, q3.lit()); // == 1
        aig.add_output(o1, "o1");
        aig.add_output(o2, "o2");
        aig
    }

    #[test]
    fn merges_duplicate_and_antivalent_registers() {
        let orig = redundant();
        let (reduced, stats) = sequential_sweep(&orig, &Options::default()).unwrap();
        assert_eq!(reduced.num_latches(), 1, "q2, q3 must merge into q1");
        assert!(stats.merged >= 2);
        assert!(!stats.gave_up);
        assert_equiv_and_check(&orig, &reduced);
        // o2 is constantly true after the merge.
        assert_eq!(reduced.outputs()[1].lit, sec_netlist::Lit::TRUE);
    }

    #[test]
    fn sat_backend_sweeps_identically() {
        let orig = redundant();
        let (bdd, _) = sequential_sweep(&orig, &Options::default()).unwrap();
        let (sat, _) = sequential_sweep(&orig, &Options::sat()).unwrap();
        assert_eq!(bdd.num_latches(), sat.num_latches());
        assert_eq!(bdd.num_ands(), sat.num_ands());
    }

    #[test]
    fn clean_circuits_are_preserved() {
        for spec in [counter(6, CounterKind::Binary), mixed(15, 4)] {
            let (reduced, stats) = sequential_sweep(&spec, &Options::default()).unwrap();
            assert!(stats.ands_after <= stats.ands_before);
            assert_equiv_and_check(&spec, &reduced);
        }
    }

    #[test]
    fn sweep_undoes_unsharing() {
        // The unshare pass duplicates logic; the sweep must find and
        // merge the duplicates back.
        let spec = mixed(20, 6);
        let unshared = sec_synth::unshare_latch_cones(&spec, 0.9, 3);
        let (reduced, stats) = sequential_sweep(&unshared, &Options::default()).unwrap();
        assert!(
            reduced.num_ands() <= unshared.num_ands(),
            "sweep must not grow the circuit"
        );
        assert!(stats.merged > 0, "duplicates must be found");
        assert_equiv_and_check(&unshared, &reduced);
    }

    #[test]
    fn resource_exhaustion_returns_original() {
        let spec = sec_gen::registered_multiplier(8, 4);
        let opts = Options {
            node_limit: 1000,
            bmc_depth: 0,
            ..Options::default()
        };
        let (out, stats) = sequential_sweep(&spec, &opts).unwrap();
        assert!(stats.gave_up);
        assert_eq!(out.num_ands(), spec.num_ands());
    }
}
