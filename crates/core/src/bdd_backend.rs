//! The paper-faithful BDD backend of the greatest fixed-point iteration.
//!
//! Current-state functions `f_v(s, x_t)` and next-state functions
//! `ν_v(s, x_t, x_{t+1}) = f_v(δ(s, x_t), x_{t+1})` are built as BDDs;
//! each refinement round constructs the correspondence condition
//! `Q_{T_i}` and splits classes whose members' next-state functions can
//! disagree on a `Q`-satisfying point. Splitting is counterexample-guided:
//! one satisfying assignment is simulated over two time frames and every
//! class is refined by the resulting value vector.
//!
//! Every function vector the fixed point needs — `f`, `ν`, the exact
//! `T0` cofactors and each round's functional-dependency substitution —
//! is built gate by gate by [`build_functions`], not by vector
//! composition (DESIGN.md §5).

use crate::context::{Abort, Deadline};
use crate::options::Options;
use crate::partition::Partition;
use sec_bdd::{Bdd, BddManager, BddVar, Substitution};
use sec_netlist::{Aig, Lit, Node, Var};
use sec_obs::{event, span, Counter, Gauge, Histogram, Obs, ProgressTicker};
use sec_sim::{eval_single, next_state_single};

/// Every node's function over the AIG with latch `i` bound to `latch[i]`
/// and input `j` to `input[j]`: one `and` per AND gate, in node order.
///
/// For every node `v` the result is `f_v[s ← latch, x_t ← input]`, the
/// very handle [`BddManager::compose_many`] returns for it: composition
/// distributes over `∧` and `¬`, and complement-edge ROBDDs are
/// canonical. Unlike composition, the build leaves no garbage — every
/// node an `and` creates is reachable from its result.
fn build_functions(
    mgr: &mut BddManager,
    aig: &Aig,
    latch: &[Bdd],
    input: &[Bdd],
    deadline: &Deadline,
) -> Result<Vec<Bdd>, Abort> {
    let mut f: Vec<Bdd> = vec![Bdd::ZERO; aig.num_nodes()];
    for v in aig.vars() {
        if v.index() % 1024 == 0 {
            deadline.check()?;
        }
        f[v.index()] = match aig.node(v) {
            Node::Const => Bdd::ZERO,
            Node::Input { index } => input[*index as usize],
            Node::Latch { index, .. } => latch[*index as usize],
            Node::And { a, b } => mgr.and(lit_function(&f, *a), lit_function(&f, *b))?,
        };
    }
    Ok(f)
}

/// The function of literal `l` in a vector of node functions.
fn lit_function(fs: &[Bdd], l: Lit) -> Bdd {
    fs[l.var().index()].complement_if(l.is_complemented())
}

/// Each latch's next-state literal read out of the node functions `fs`
/// (`δ` when `fs` is `f`).
fn next_state_functions(aig: &Aig, fs: &[Bdd]) -> Vec<Bdd> {
    aig.latches()
        .iter()
        .map(|&l| lit_function(fs, aig.latch_next(l).expect("driven latch")))
        .collect()
}

/// The projection functions of `vars`.
fn projections(mgr: &BddManager, vars: &[BddVar]) -> Vec<Bdd> {
    vars.iter().map(|&v| mgr.var(v)).collect()
}

/// Normalizes node functions by the reference-point phase (`f` → `f̂`).
fn normalize(mut fs: Vec<Bdd>, partition: &Partition) -> Vec<Bdd> {
    for (i, b) in fs.iter_mut().enumerate() {
        *b = b.complement_if(!partition.phase(Var::from_index(i)));
    }
    fs
}

struct BddContext {
    mgr: BddManager,
    state_vars: Vec<BddVar>,
    xt_vars: Vec<BddVar>,
    xt1_vars: Vec<BddVar>,
    /// Normalized current-state function per node (`f̂_v`).
    fhat: Vec<Bdd>,
    /// Normalized next-state function per node (`ν̂_v`).
    nuhat: Vec<Bdd>,
    /// δ_i(s, x_t) per latch.
    delta: Vec<Bdd>,
}

impl BddContext {
    fn build(
        aig: &Aig,
        partition: &Partition,
        opts: &Options,
        deadline: &Deadline,
    ) -> Result<BddContext, Abort> {
        let mut mgr = BddManager::with_node_limit(opts.node_limit);
        // The manager polls the same deadline/token from its node
        // allocator, so even a single huge apply stops within
        // milliseconds of cancellation.
        mgr.set_limits(deadline.limits());
        mgr.set_obs(opts.obs.clone());
        // Order the state variables so that candidate-equivalent latches
        // (same simulation class) are adjacent — the analogue of the
        // corresponding-register interleaving every BDD-based checker
        // relies on. Input variables follow, x_t/x_{t+1} interleaved.
        let mut latch_order: Vec<usize> = (0..aig.num_latches()).collect();
        latch_order.sort_by_key(|&i| {
            let v = aig.latches()[i];
            (partition.class_of(v).unwrap_or(usize::MAX), i)
        });
        let mut state_vars: Vec<BddVar> = vec![BddVar::from_id(0); aig.num_latches()];
        for &i in &latch_order {
            state_vars[i] = mgr.add_var();
        }
        let mut xt_vars = Vec::with_capacity(aig.num_inputs());
        let mut xt1_vars = Vec::with_capacity(aig.num_inputs());
        for _ in 0..aig.num_inputs() {
            xt_vars.push(mgr.add_var());
            xt1_vars.push(mgr.add_var());
        }
        // Current-state functions f(s, x_t), then next-state functions
        // ν = f(δ, x_{t+1}): the same gates with latches bound to δ.
        let s = projections(&mgr, &state_vars);
        let xt = projections(&mgr, &xt_vars);
        let xt1 = projections(&mgr, &xt1_vars);
        let f = build_functions(&mut mgr, aig, &s, &xt, deadline)?;
        let delta = next_state_functions(aig, &f);
        let nu = build_functions(&mut mgr, aig, &delta, &xt1, deadline)?;
        Ok(BddContext {
            mgr,
            state_vars,
            xt_vars,
            xt1_vars,
            fhat: normalize(f, partition),
            nuhat: normalize(nu, partition),
            delta,
        })
    }

    /// The normalized current- and next-state functions with every state
    /// variable `s_i` replaced by `images[i]`: `f(images, x_t)`, then
    /// `ν = f(δ(images, x_t), x_{t+1})`, whose latches take the first
    /// build's next-state literals. These are `compose(f̂, σ)` and
    /// `compose(ν̂, σ)` for the substitution `σ: s ← images`.
    fn substituted(
        &mut self,
        aig: &Aig,
        partition: &Partition,
        images: &[Bdd],
        deadline: &Deadline,
    ) -> Result<(Vec<Bdd>, Vec<Bdd>), Abort> {
        let xt = projections(&self.mgr, &self.xt_vars);
        let xt1 = projections(&self.mgr, &self.xt1_vars);
        let fc = build_functions(&mut self.mgr, aig, images, &xt, deadline)?;
        let next = next_state_functions(aig, &fc);
        let nc = build_functions(&mut self.mgr, aig, &next, &xt1, deadline)?;
        Ok((normalize(fc, partition), normalize(nc, partition)))
    }

    /// The normalized current-state functions cofactored at the
    /// initial state: the gates rebuilt with every latch bound to its
    /// initial constant.
    fn at_init(
        &mut self,
        aig: &Aig,
        partition: &Partition,
        deadline: &Deadline,
    ) -> Result<Vec<Bdd>, Abort> {
        let init: Vec<Bdd> = aig
            .latches()
            .iter()
            .map(|&l| Bdd::ONE.complement_if(!aig.latch_init(l)))
            .collect();
        let xt = projections(&self.mgr, &self.xt_vars);
        let at_init = build_functions(&mut self.mgr, aig, &init, &xt, deadline)?;
        Ok(normalize(at_init, partition))
    }

    fn roots(&self) -> Vec<Bdd> {
        self.fhat
            .iter()
            .chain(self.nuhat.iter())
            .chain(self.delta.iter())
            .copied()
            .collect()
    }

    /// Reads the (state, x_t, x_{t+1}) vectors out of a BDD assignment.
    fn split_assignment(&self, asg: &[bool]) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
        let s = self.state_vars.iter().map(|v| asg[v.id()]).collect();
        let xt = self.xt_vars.iter().map(|v| asg[v.id()]).collect();
        let xt1 = self.xt1_vars.iter().map(|v| asg[v.id()]).collect();
        (s, xt, xt1)
    }
}

/// Exact `T0` (paper Eq. 2): group class members by their function
/// cofactored at the initial state — two signals stay together iff they
/// agree *for every input* at `s0`.
fn refine_t0(
    ctx: &mut BddContext,
    aig: &Aig,
    partition: &mut Partition,
    deadline: &Deadline,
) -> Result<(), Abort> {
    let at_init = ctx.at_init(aig, partition, deadline)?;
    let class_ids: Vec<usize> = partition.multi_classes().collect();
    for ci in class_ids {
        partition.split_class_by_key(ci, |v| at_init[v.index()]);
    }
    Ok(())
}

/// Derives the functional-dependency substitution (paper Sec. 4) as one
/// image per latch: a state variable whose latch sits in a class
/// represented by another signal is replaced by the representative's
/// function, provided no circularity arises; every other latch keeps its
/// own state variable. Returns `None` when no latch is substituted.
///
/// No substituted variable occurs in any image, so the images also
/// reconstruct a counterexample's substituted state bits, in any order.
fn funcdep_images(ctx: &BddContext, aig: &Aig, partition: &Partition) -> Option<Vec<Bdd>> {
    use std::collections::HashSet;
    let mut images = projections(&ctx.mgr, &ctx.state_vars);
    let mut substituted: HashSet<BddVar> = HashSet::new();
    let mut used_in_images: HashSet<BddVar> = HashSet::new();
    for (i, &lv) in aig.latches().iter().enumerate() {
        let Some(ci) = partition.class_of(lv) else {
            continue;
        };
        let repr = partition.class(ci)[0];
        if repr == lv {
            continue;
        }
        let sv = ctx.state_vars[i];
        if used_in_images.contains(&sv) {
            continue;
        }
        // f̂_lv ≡ f̂_repr and f̂_lv = s_i ⊕ ¬phase, so s_i = f̂_repr ⊕ ¬phase.
        let g = ctx.fhat[repr.index()].complement_if(!partition.phase(lv));
        let sup = ctx.mgr.support(g);
        if sup.contains(&sv) || sup.iter().any(|v| substituted.contains(v)) {
            continue;
        }
        substituted.insert(sv);
        used_in_images.extend(sup);
        images[i] = g;
    }
    (!substituted.is_empty()).then_some(images)
}

/// Runs the greatest fixed-point iteration with the BDD engine, refining
/// `partition` in place to the maximum signal correspondence relation
/// (over the current signal set). Returns the Theorem-1 verdict
/// (`Q_msc ⇒ λ`) at the fixed point.
pub(crate) fn run_fixed_point(
    aig: &Aig,
    partition: &mut Partition,
    opts: &Options,
    deadline: &Deadline,
    approx_spec_latches: Option<&[usize]>,
    output_pairs: &[(Lit, Lit)],
) -> Result<bool, Abort> {
    let obs = &opts.obs;
    let build = span!(obs, "bdd.build");
    let mut ctx = BddContext::build(aig, partition, opts, deadline)?;
    let t0 = refine_t0(&mut ctx, aig, partition, deadline);
    drop(build);
    let result = t0.and_then(|()| {
        fixed_point(
            aig,
            partition,
            opts,
            deadline,
            approx_spec_latches,
            output_pairs,
            &mut ctx,
            obs,
        )
    });
    // Flush the manager's whole-lifetime totals once, abort or not, so
    // an interrupted fixed point still reports its allocation pressure
    // and poll activity.
    obs.gauge_max(Gauge::PeakBddNodes, ctx.mgr.peak_live_nodes() as u64);
    obs.add(Counter::BddNodesAllocated, ctx.mgr.allocated_nodes());
    obs.add(Counter::CancellationPolls, ctx.mgr.limit_polls());
    result
}

/// The fixed-point loop proper, split out so the caller can meter the
/// manager exactly once regardless of how the loop ends.
#[allow(clippy::too_many_arguments)]
fn fixed_point(
    aig: &Aig,
    partition: &mut Partition,
    opts: &Options,
    deadline: &Deadline,
    approx_spec_latches: Option<&[usize]>,
    output_pairs: &[(Lit, Lit)],
    ctx: &mut BddContext,
    obs: &Obs,
) -> Result<bool, Abort> {
    // Optional reachability over-approximation (computed once; it is an
    // inductive invariant independent of the partition).
    let s_over = match approx_spec_latches {
        Some(latches) => approx_reach(ctx, aig, latches, opts.approx_group, deadline)?,
        None => Bdd::ONE,
    };

    if opts.sift {
        let mut roots = ctx.roots();
        roots.push(s_over);
        ctx.mgr.sift(&roots, 2.0);
    }

    let mut round_no = 0usize;
    let mut ticker = ProgressTicker::new(opts.progress_interval.filter(|_| obs.is_enabled()));
    loop {
        deadline.check()?;
        deadline.tick();
        round_no += 1;
        obs.add(Counter::Rounds, 1);
        let mut sp = span!(obs, "round", round = round_no, backend = "bdd");
        let classes_before = partition.num_classes();

        // Functional-dependency substitution for this round, rebuilt
        // gate by gate over the latches' images.
        let t_build = obs.timer();
        let images = if opts.functional_deps {
            funcdep_images(ctx, aig, partition)
        } else {
            None
        };
        let (fc, nc) = match &images {
            Some(images) => ctx.substituted(aig, partition, images, deadline)?,
            None => (ctx.fhat.clone(), ctx.nuhat.clone()),
        };
        if let Some(t) = t_build {
            sp.record("build_us", t.elapsed().as_micros() as u64);
        }

        // Correspondence condition Q_{T_i}(s, x_t).
        let mut q = match &images {
            Some(images) if s_over != Bdd::ONE => {
                let subst: Substitution = ctx
                    .state_vars
                    .iter()
                    .copied()
                    .zip(images.iter().copied())
                    .collect();
                ctx.mgr.compose(s_over, &subst)?
            }
            _ => s_over,
        };
        let class_ids: Vec<usize> = partition.multi_classes().collect();
        for &ci in &class_ids {
            let members = partition.class(ci);
            let r = fc[members[0].index()];
            for &m in &members[1..] {
                let eq = ctx.mgr.xnor(fc[m.index()], r)?;
                q = ctx.mgr.and(q, eq)?;
            }
        }

        // The previous rounds' functions and the Q build can dwarf the
        // live structures; collect before the check loop and
        // periodically inside it.
        let gc_roots = |ctx: &BddContext, fc: &[Bdd], nc: &[Bdd], q: Bdd| -> Vec<Bdd> {
            let mut roots = ctx.roots();
            roots.extend_from_slice(fc);
            roots.extend_from_slice(nc);
            roots.push(s_over);
            roots.push(q);
            roots
        };
        if ctx.mgr.live_nodes() > opts.node_limit / 4 {
            let roots = gc_roots(ctx, &fc, &nc, q);
            ctx.mgr.gc(&roots);
        }

        // Check condition 2 for every (member, representative) pair;
        // split on counterexamples. Classes created by splits are
        // appended and get scanned in this same round (still against
        // Q_{T_i} — a sound, possibly coarser-than-T_{i+1} refinement).
        let mut changed = false;
        let mut ci = 0;
        while ci < partition.num_classes() {
            deadline.check()?;
            if ticker.ready() {
                event!(
                    obs,
                    "progress",
                    round = round_no,
                    classes = partition.num_classes(),
                    elapsed_ms = ticker.elapsed_ms()
                );
            }
            if ctx.mgr.live_nodes() > opts.node_limit / 2 {
                let roots = gc_roots(ctx, &fc, &nc, q);
                ctx.mgr.gc(&roots);
            }
            let members: Vec<Var> = partition.class(ci).to_vec();
            if members.len() >= 2 {
                let r = members[0];
                for &m in &members[1..] {
                    if partition.class_of(m) != Some(ci) {
                        continue; // moved by an earlier split this round
                    }
                    let t0 = obs.timer();
                    let diff = ctx.mgr.xor(nc[m.index()], nc[r.index()])?;
                    let viol = ctx.mgr.and(q, diff)?;
                    obs.observe_elapsed(Histogram::BddOpUs, t0);
                    if viol == Bdd::ZERO {
                        continue;
                    }
                    // Counterexample: a Q-satisfying (s, x_t, x_{t+1})
                    // where the next-state functions differ. Reconstruct
                    // substituted state variables from their images so
                    // the point genuinely satisfies Q.
                    let mut asg = ctx
                        .mgr
                        .satisfy_one_total(viol)
                        .expect("viol is satisfiable");
                    for (&sv, &g) in ctx.state_vars.iter().zip(images.iter().flatten()) {
                        asg[sv.id()] = ctx.mgr.eval(g, &asg);
                    }
                    let (s, xt, xt1) = ctx.split_assignment(&asg);
                    let s2 = next_state_single(aig, &xt, &s);
                    let frame2 = eval_single(aig, &xt1, &s2);
                    let split = partition.refine_by_values(&frame2);
                    if !split {
                        // A counterexample that fails to split would loop
                        // forever; it can only mean an engine defect.
                        return Err(Abort::Resource(
                            "internal inconsistency: counterexample did not split".into(),
                        ));
                    }
                    changed = true;
                }
            }
            ci += 1;
        }

        // Close the round's observability window before housekeeping:
        // the splits delta is final once the check loop ends.
        let splits = (partition.num_classes() - classes_before) as u64;
        obs.add(Counter::Splits, splits);
        sp.record("splits", splits);
        sp.record("classes", partition.num_classes());
        drop(sp);

        // Housekeeping between rounds.
        obs.gauge_max(Gauge::PeakBddNodes, ctx.mgr.peak_live_nodes() as u64);
        if ctx.mgr.live_nodes() > opts.node_limit / 2 {
            let mut roots = ctx.roots();
            roots.push(s_over);
            ctx.mgr.gc(&roots);
        }
        if !changed {
            // Fixed point reached: `q` is Q_msc (for the current signal
            // set). Theorem 1: the circuits are equivalent if Q ⇒ λ,
            // i.e. every output pair's current-state functions agree on
            // all Q-satisfying points. (The substitution is sound here:
            // real violating points survive composition, as in the
            // refinement checks.)
            let outputs_ok = partition.outputs_equiv(output_pairs) || {
                let mut ok = true;
                for &(a, b) in output_pairs {
                    let fa = fc[a.var().index()].complement_if(partition.sign(a));
                    let fb = fc[b.var().index()].complement_if(partition.sign(b));
                    let diff = ctx.mgr.xor(fa, fb)?;
                    let viol = ctx.mgr.and(q, diff)?;
                    if viol != Bdd::ZERO {
                        ok = false;
                        break;
                    }
                }
                ok
            };
            return Ok(outputs_ok);
        }
    }
}

/// Builds the machine-by-machine over-approximation of the reachable
/// state space over the given latch indices (paper Sec. 3 end, after Cho
/// et al.): each group of at most `group_size` latches is traversed
/// exactly with every other variable left free, so each per-group set is
/// closed under the transition function and their conjunction is an
/// inductive invariant containing the reachable states — safe to conjoin
/// into the correspondence condition.
fn approx_reach(
    ctx: &mut BddContext,
    aig: &Aig,
    latch_indices: &[usize],
    group_size: usize,
    deadline: &Deadline,
) -> Result<Bdd, Abort> {
    let group_size = group_size.max(1);
    // Auxiliary next-state variables, one per group slot, reused across
    // groups (appended at the bottom of the order).
    let aux: Vec<BddVar> = (0..group_size.min(latch_indices.len().max(1)))
        .map(|_| ctx.mgr.add_var())
        .collect();
    let quant: Vec<BddVar> = ctx
        .state_vars
        .iter()
        .chain(ctx.xt_vars.iter())
        .copied()
        .collect();
    let quant_cube = ctx.mgr.cube(&quant)?;

    let mut invariant = Bdd::ONE;
    for group in latch_indices.chunks(group_size) {
        deadline.check()?;
        // Transition relation of the group over (s, x, aux).
        let mut t = Bdd::ONE;
        for (k, &i) in group.iter().enumerate() {
            let av = ctx.mgr.var(aux[k]);
            let rel = ctx.mgr.xnor(av, ctx.delta[i])?;
            t = ctx.mgr.and(t, rel)?;
        }
        // Exact reachability of the group, others free.
        let mut reached = {
            let mut c = Bdd::ONE;
            for &i in group {
                let init = aig.latch_init(aig.latches()[i]);
                let lit = ctx.mgr.literal(ctx.state_vars[i], init);
                c = ctx.mgr.and(c, lit)?;
            }
            c
        };
        loop {
            deadline.check()?;
            let img_aux = ctx.mgr.and_exists(reached, t, quant_cube)?;
            // Rename aux back to the group's state variables.
            let mut rename = Substitution::new();
            for (k, &i) in group.iter().enumerate() {
                rename.set(aux[k], ctx.mgr.var(ctx.state_vars[i]));
            }
            let img = ctx.mgr.compose(img_aux, &rename)?;
            let next = ctx.mgr.or(reached, img)?;
            if next == reached {
                break;
            }
            reached = next;
        }
        invariant = ctx.mgr.and(invariant, reached)?;
    }
    Ok(invariant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seed_partition;
    use sec_gen::{counter, mixed, random_aig, CounterKind};
    use sec_netlist::ProductMachine;
    use sec_synth::{forward_retime, pipeline, PipelineOptions, RetimeOptions};

    /// Random circuits plus product machines of resynthesized pairs.
    fn circuits() -> Vec<Aig> {
        let mut aigs: Vec<Aig> = (0..6)
            .map(|seed| random_aig(3 + seed as usize % 3, 4 + seed as usize, 60, seed))
            .collect();
        let spec = counter(5, CounterKind::Binary);
        let imp = forward_retime(&spec, &RetimeOptions::default(), 1);
        aigs.push(ProductMachine::build(&spec, &imp).unwrap().aig);
        for (i, spec) in [mixed(10, 3), sec_gen::crc(6, 0x2F)].iter().enumerate() {
            let imp = pipeline(spec, &PipelineOptions::default(), i as u64 + 1);
            aigs.push(ProductMachine::build(spec, &imp).unwrap().aig);
        }
        aigs
    }

    #[test]
    fn gate_by_gate_builds_equal_vector_composition() {
        let opts = Options::default();
        let deadline = Deadline::new(None);
        let mut funcdep_circuits = 0;
        for (k, aig) in circuits().iter().enumerate() {
            let partition = seed_partition(aig, &opts);
            let mut ctx = BddContext::build(aig, &partition, &opts, &deadline).unwrap();
            let s = ctx.state_vars.clone();
            let sigma = |latch: &[Bdd]| -> Substitution {
                s.iter().copied().zip(latch.iter().copied()).collect()
            };
            let fhat = ctx.fhat.clone();

            // ν: latches ← δ, x_t ← x_{t+1}.
            let mut next = sigma(&ctx.delta);
            for (&xt, &xt1) in ctx.xt_vars.iter().zip(&ctx.xt1_vars) {
                next.set(xt, ctx.mgr.var(xt1));
            }
            let want = ctx.mgr.compose_many(&fhat, &next).unwrap();
            assert_eq!(ctx.nuhat, want, "circuit {k}: ν");

            // T0: latches ← initial constants.
            let got = ctx.at_init(aig, &partition, &deadline).unwrap();
            let init: Vec<Bdd> = aig
                .latches()
                .iter()
                .map(|&l| Bdd::ONE.complement_if(!aig.latch_init(l)))
                .collect();
            let want = ctx.mgr.compose_many(&fhat, &sigma(&init)).unwrap();
            assert_eq!(got, want, "circuit {k}: T0");

            // Functional-dependency images: the engine's own, and every
            // other latch bound to some node's function (composition is
            // simultaneous, so any image vector must agree).
            let mut image_sets: Vec<Vec<Bdd>> =
                funcdep_images(&ctx, aig, &partition).into_iter().collect();
            funcdep_circuits += image_sets.len();
            image_sets.push(
                (0..aig.num_latches())
                    .map(|i| match i % 2 {
                        0 => fhat[(7 * i + k) % aig.num_nodes()].complement_if(i % 3 == 0),
                        _ => ctx.mgr.var(s[i]),
                    })
                    .collect(),
            );
            for images in &image_sets {
                let (fc, nc) = ctx.substituted(aig, &partition, images, &deadline).unwrap();
                let nuhat = ctx.nuhat.clone();
                let want_fc = ctx.mgr.compose_many(&fhat, &sigma(images)).unwrap();
                let want_nc = ctx.mgr.compose_many(&nuhat, &sigma(images)).unwrap();
                assert_eq!(fc, want_fc, "circuit {k}: substituted f");
                assert_eq!(nc, want_nc, "circuit {k}: substituted ν");
            }
        }
        assert!(funcdep_circuits > 0, "no circuit substituted a latch");
    }

    #[test]
    fn node_overflow_during_the_build_is_a_resource_abort() {
        let spec = mixed(10, 3);
        let imp = pipeline(&spec, &PipelineOptions::default(), 1);
        let aig = ProductMachine::build(&spec, &imp).unwrap().aig;
        // Room for the terminal, the projections and a handful of gates.
        let opts = Options {
            node_limit: aig.num_latches() + 2 * aig.num_inputs() + 8,
            ..Options::default()
        };
        let mut partition = seed_partition(&aig, &opts);
        let got = run_fixed_point(&aig, &mut partition, &opts, &Deadline::new(None), None, &[]);
        assert!(
            matches!(&got, Err(Abort::Resource(r)) if r.contains("BDD overflow")),
            "{got:?}"
        );
    }
}
