//! Shared machinery for the Table 1 reproduction and the ablation
//! harnesses: per-row instance creation, the two competing checkers, and
//! table formatting.

pub mod harness;

use sec_core::{Backend, Checker, Options, OptionsBuilder, Verdict};
use sec_gen::SuiteEntry;
use sec_netlist::Aig;
use sec_obs::Obs;
use sec_portfolio::PortfolioOptions;
use sec_synth::{pipeline, PipelineOptions, RetimeOptions};
use sec_traversal::{check_equivalence, TraversalOptions, TraversalOutcome};
use std::time::Duration;

/// Configuration of one harness run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Engine for the proposed method.
    pub backend: Backend,
    /// Race the full engine portfolio for the "proposed" column instead
    /// of a single-backend checker (`--backend portfolio`).
    pub use_portfolio: bool,
    /// Random-simulation seeding on/off (ablation A).
    pub sim_seed: bool,
    /// Functional-dependency substitution on/off (ablation C).
    pub functional_deps: bool,
    /// Reachability over-approximation on/off.
    pub approx_reach: bool,
    /// BDD node budget for the proposed method (the paper's 100 MB cap).
    pub node_limit: usize,
    /// Wall-clock budget per row for the proposed method.
    pub timeout: Duration,
    /// Wall-clock budget per row for the traversal baseline.
    pub traversal_timeout: Duration,
    /// BDD node budget for the traversal baseline.
    pub traversal_node_limit: usize,
    /// Skip the (slow) baseline entirely.
    pub run_traversal: bool,
    /// Apply the combinational-optimization stages (`script.rugged`
    /// analogue); off reproduces the "retiming only" data point.
    pub optimize: bool,
    /// Seed for instance creation.
    pub seed: u64,
    /// Interval between `progress` heartbeat events emitted from the
    /// engines' hot loops (`table1 --progress[=SECS]`).
    pub progress_interval: Option<Duration>,
    /// Observability handle threaded into every method run (`table1
    /// --trace-json` / `--stats`). Defaults to the inert [`Obs::off`].
    pub obs: Obs,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            backend: Backend::Bdd,
            use_portfolio: false,
            sim_seed: true,
            functional_deps: true,
            approx_reach: false,
            node_limit: 8 << 20,
            timeout: Duration::from_secs(120),
            traversal_timeout: Duration::from_secs(30),
            traversal_node_limit: 4 << 20,
            run_traversal: true,
            optimize: true,
            seed: 0xDA7E,
            progress_interval: None,
            obs: Obs::off(),
        }
    }
}

/// Builds the "optimized" implementation for a suite row, mirroring the
/// paper's kerneling + retiming + `script.rugged` flow. A couple of rows
/// get deeper retiming so the lag-1 extension is exercised, as in the
/// paper's table (where a few rows report 1–4 retiming invocations).
pub fn make_instance(entry: &SuiteEntry, cfg: &RunConfig) -> Aig {
    let deep_retiming = matches!(entry.name, "s526" | "s1423" | "s13207");
    let po = PipelineOptions {
        retime: RetimeOptions {
            probability: 0.7,
            rounds: if deep_retiming { 2 } else { 1 },
        },
        reassociate_probability: if cfg.optimize { 0.5 } else { 0.0 },
        rewrite_probability: if cfg.optimize { 0.25 } else { 0.0 },
        unshare_probability: if cfg.optimize { 0.4 } else { 0.0 },
        balance: cfg.optimize,
    };
    pipeline(&entry.aig, &po, cfg.seed ^ entry.aig.num_latches() as u64)
}

/// Result of running one method on one row.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// `EQ`, `NEQ`, `fail(...)`.
    pub status: String,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Peak BDD nodes (0 for SAT).
    pub nodes: usize,
    /// Iterations (image steps / fixed-point rounds).
    pub iterations: usize,
    /// Retiming-extension invocations (proposed method only).
    pub retime_invocations: usize,
    /// Matched-signal percentage (proposed method only).
    pub eqs_percent: f64,
    /// Winning engine name (portfolio runs only).
    pub winner: Option<String>,
    /// The full run statistics (solo proposed-method runs only), so
    /// `table1 --json` can emit the canonical `stats::to_json` object.
    pub stats: Option<sec_core::CheckStats>,
}

/// One table row: both methods on one benchmark.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name (ISCAS'89 analogue).
    pub name: String,
    /// Registers before synthesis.
    pub regs_orig: usize,
    /// Registers after synthesis.
    pub regs_opt: usize,
    /// Baseline result, if run.
    pub traversal: Option<MethodResult>,
    /// Proposed-method result.
    pub proposed: MethodResult,
}

/// Runs the proposed method on an instance. SAT rows start from the
/// [`Options::sat`] preset, so batched pair queries are on exactly as
/// for `sec check --engine sat`.
pub fn run_proposed(spec: &Aig, imp: &Aig, cfg: &RunConfig) -> MethodResult {
    let base = if cfg.backend == Backend::Sat {
        OptionsBuilder::sat()
    } else {
        Options::builder()
    };
    let opts = base
        .backend(cfg.backend)
        .sim_cycles(if cfg.sim_seed { 16 } else { 0 })
        .functional_deps(cfg.functional_deps)
        .approx_reach(cfg.approx_reach)
        .node_limit(cfg.node_limit)
        .timeout(Some(cfg.timeout))
        .bmc_depth(0) // the paper's tool proves or gives up; no BMC here
        .progress_interval(cfg.progress_interval)
        .obs(cfg.obs.clone())
        .build();
    let r = Checker::new(spec, imp, opts)
        .expect("suite instances are well-formed")
        .run();
    MethodResult {
        status: verdict_status(&r.verdict),
        secs: r.stats.time.as_secs_f64(),
        nodes: r.stats.peak_bdd_nodes,
        iterations: r.stats.iterations,
        retime_invocations: r.stats.retime_invocations,
        eqs_percent: r.stats.eqs_percent,
        winner: None,
        stats: Some(r.stats),
    }
}

/// The table's status cell for a verdict.
fn verdict_status(v: &Verdict) -> String {
    match v {
        Verdict::Equivalent => "EQ".to_string(),
        Verdict::Inequivalent(_) => "NEQ".to_string(),
        Verdict::Unknown(w) if w.contains("overflow") => "fail(mem)".to_string(),
        Verdict::Unknown(w) if w.contains("timeout") => "fail(time)".to_string(),
        _ => "fail(incomplete)".to_string(),
    }
}

/// Runs the engine portfolio on an instance. The whole race gets the
/// proposed-method budget; the winner's name lands in the table.
pub fn run_portfolio(spec: &Aig, imp: &Aig, cfg: &RunConfig) -> MethodResult {
    let opts = PortfolioOptions {
        timeout: Some(cfg.timeout),
        seed: cfg.seed,
        node_limit: cfg.node_limit,
        traversal_node_limit: cfg.traversal_node_limit,
        progress_interval: cfg.progress_interval,
        obs: cfg.obs.clone(),
        ..PortfolioOptions::default()
    };
    let r = sec_portfolio::run(spec, imp, &opts).expect("suite instances are well-formed");
    let winner_report = r
        .winner
        .and_then(|w| r.reports.iter().find(|rep| rep.engine == w));
    MethodResult {
        status: verdict_status(&r.verdict),
        secs: r.time.as_secs_f64(),
        nodes: r
            .reports
            .iter()
            .map(|rep| rep.peak_bdd_nodes)
            .max()
            .unwrap_or(0),
        iterations: winner_report
            .map(|rep| rep.iterations as usize)
            .unwrap_or(0),
        retime_invocations: 0,
        eqs_percent: 0.0,
        winner: r.winner.map(|w| w.name().to_string()),
        stats: None,
    }
}

/// Runs the traversal baseline on an instance.
pub fn run_traversal(spec: &Aig, imp: &Aig, cfg: &RunConfig) -> MethodResult {
    let opts = TraversalOptions {
        node_limit: cfg.traversal_node_limit,
        max_iterations: usize::MAX,
        register_correspondence: true,
        sift: false,
        timeout: Some(cfg.traversal_timeout),
        cancel: None,
        progress: None,
        progress_interval: cfg.progress_interval,
        obs: cfg.obs.clone(),
    };
    let t0 = std::time::Instant::now();
    let (out, stats) = check_equivalence(spec, imp, &opts).expect("interfaces match");
    MethodResult {
        status: match out {
            TraversalOutcome::Equivalent => "EQ".to_string(),
            TraversalOutcome::Inequivalent(_) => "NEQ".to_string(),
            TraversalOutcome::ResourceOut(w) if w.contains("timeout") => "fail(time)".to_string(),
            TraversalOutcome::ResourceOut(_) => "fail(mem)".to_string(),
        },
        secs: t0.elapsed().as_secs_f64(),
        nodes: stats.peak_nodes,
        iterations: stats.iterations,
        retime_invocations: 0,
        eqs_percent: 0.0,
        winner: None,
        stats: None,
    }
}

/// Runs one full row.
pub fn run_row(entry: &SuiteEntry, cfg: &RunConfig) -> Row {
    let imp = make_instance(entry, cfg);
    let traversal = cfg
        .run_traversal
        .then(|| run_traversal(&entry.aig, &imp, cfg));
    let proposed = if cfg.use_portfolio {
        run_portfolio(&entry.aig, &imp, cfg)
    } else {
        run_proposed(&entry.aig, &imp, cfg)
    };
    Row {
        name: entry.name.to_string(),
        regs_orig: entry.aig.num_latches(),
        regs_opt: imp.num_latches(),
        traversal,
        proposed,
    }
}

/// Runs one full row on an explicit spec/impl pair (no instance
/// synthesis), for `table1 --pair` and format smoke checks.
pub fn run_pair(name: &str, spec: &Aig, imp: &Aig, cfg: &RunConfig) -> Row {
    let traversal = cfg.run_traversal.then(|| run_traversal(spec, imp, cfg));
    let proposed = if cfg.use_portfolio {
        run_portfolio(spec, imp, cfg)
    } else {
        run_proposed(spec, imp, cfg)
    };
    Row {
        name: name.to_string(),
        regs_orig: spec.num_latches(),
        regs_opt: imp.num_latches(),
        traversal,
        proposed,
    }
}

/// Prints the rows in the layout of the paper's Table 1.
pub fn print_table(rows: &[Row]) {
    println!(
        "{:<8} {:>9} | {:^28} | {:^40}",
        "", "#regs", "symbolic traversal", "proposed method"
    );
    println!(
        "{:<8} {:>9} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>10} {:>6}",
        "circuit", "orig/opt", "time(s)", "nodes", "#its", "time(s)", "nodes", "#its", "eqs%"
    );
    println!("{}", "-".repeat(95));
    let mut eqs_sum = 0.0;
    let mut eqs_n = 0usize;
    for r in rows {
        let trav = match &r.traversal {
            Some(t) => format!(
                "{:>10} {:>10} {:>6}",
                if t.status == "EQ" {
                    format!("{:.2}", t.secs)
                } else {
                    t.status.clone()
                },
                t.nodes,
                t.iterations
            ),
            None => format!("{:>10} {:>10} {:>6}", "-", "-", "-"),
        };
        let p = &r.proposed;
        let its = format!("{} ({})", p.iterations, p.retime_invocations);
        let winner = p
            .winner
            .as_deref()
            .map(|w| format!("  [{w}]"))
            .unwrap_or_default();
        println!(
            "{:<8} {:>4}/{:<4} | {} | {:>10} {:>10} {:>10} {:>6.0}{}",
            r.name,
            r.regs_orig,
            r.regs_opt,
            trav,
            if p.status == "EQ" {
                format!("{:.2}", p.secs)
            } else {
                p.status.clone()
            },
            p.nodes,
            its,
            p.eqs_percent,
            winner
        );
        if p.status == "EQ" {
            eqs_sum += p.eqs_percent;
            eqs_n += 1;
        }
    }
    println!("{}", "-".repeat(95));
    if eqs_n > 0 {
        println!(
            "average equivalences over proven rows: {:.0}%",
            eqs_sum / eqs_n as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gen::iscas_alike_suite;

    #[test]
    fn small_row_runs_both_methods() {
        let suite = iscas_alike_suite(10);
        let entry = &suite[0];
        let cfg = RunConfig {
            traversal_timeout: Duration::from_secs(20),
            ..RunConfig::default()
        };
        let row = run_row(entry, &cfg);
        assert_eq!(row.proposed.status, "EQ");
        assert!(row.traversal.is_some());
        assert!(row.regs_orig > 0);
    }

    #[test]
    fn retime_only_config_disables_rewrites() {
        let suite = iscas_alike_suite(10);
        let cfg = RunConfig {
            optimize: false,
            run_traversal: false,
            ..RunConfig::default()
        };
        let imp = make_instance(&suite[0], &cfg);
        assert!(imp.num_latches() > 0);
        let row_cfg = cfg.clone();
        let r = run_proposed(&suite[0].aig, &imp, &row_cfg);
        assert_eq!(r.status, "EQ");
        // Retiming alone preserves nearly all internal equivalences.
        assert!(r.eqs_percent >= 90.0, "eqs = {}", r.eqs_percent);
    }
}
