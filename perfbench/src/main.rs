//! `sec-perfbench`: one run of one benchmark workload.
//!
//! ```sh
//! sec-perfbench --workload serve-revisions|serve-revisions-bdd \
//!     --seed N --seconds S --trace 0|1 --work-dir DIR [--sec-bin PATH] \
//!     [--small] [--plant]
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the metrics, each with its unit. Untraced
//! runs (`--trace 0`) report the end-to-end metrics, traced runs the
//! per-layer ones. `--small` runs a reduced size for the self-test and
//! `--plant` adds one wrong answer the correctness gate must catch.
//! `perfbench/run.py` builds this binary and the `sec` daemon and is
//! the entry point; README.md describes the workloads and metrics.

mod measure;
mod serve;
mod stream;

use sec_serve::Engine;
use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub sec_bin: Option<PathBuf>,
    pub small: bool,
    pub plant: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("sec-perfbench: {msg} (see the doc comment of main.rs)");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        // table1's synthesis seed (`RunConfig::default().seed`).
        seed: 0xDA7E,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench"),
        sec_bin: None,
        small: false,
        plant: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            // The workloads do a fixed amount of work; the run length is
            // set by their sizes, not by a clock.
            "--seconds" => {
                value()
                    .parse::<u64>()
                    .unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => args.trace = value() == "1",
            "--work-dir" => args.work_dir = PathBuf::from(value()),
            "--sec-bin" => args.sec_bin = Some(PathBuf::from(value())),
            "--small" => args.small = true,
            "--plant" => args.plant = true,
            other => usage(&format!("unknown option {other}")),
        }
    }
    std::fs::create_dir_all(&args.work_dir).expect("the work directory is creatable");
    args.work_dir = args
        .work_dir
        .canonicalize()
        .expect("the work directory exists");
    args
}

fn main() {
    let args = parse_args();
    match args.workload.as_str() {
        "serve-revisions" => serve::run(&args, Engine::Sat),
        "serve-revisions-bdd" => serve::run(&args, Engine::Bdd),
        other => usage(&format!("unknown workload {other:?}")),
    }
}
