//! The revision stream: what an engineer's or a CI job's check
//! requests look like when small designs keep changing.
//!
//! Four classes in fixed proportions, all made from `--seed`:
//! - **miss**: a fresh resynthesis of a small Table 1 design; the
//!   engine runs and the result is cached.
//! - **hit**: a revision already sent, re-sent in another format or
//!   with its internal names changed; the fingerprint matches.
//! - **refute**: a `mutate_detectable` mutant of a fresh revision,
//!   which must come back inequivalent.
//! - **warm**: an exact resubmission with `revalidate`, so the engine
//!   warm-starts from the cached partition and pattern bank.
//!
//! Every miss and refute has a product fingerprint no earlier request
//! had, and every hit's fingerprint equals its revision's, so the
//! stream alone fixes which requests hit. The revisions and mutants do
//! not depend on `--seed`, which orders the requests: one resynthesis
//! of a design can take twice as long to check as another, and with
//! seed-drawn revisions the class percentiles moved 20–45% between
//! seeds. [`crate::serve`] sends the stream to `sec serve`.

use crate::measure::Spans;
use sec_bench::{make_instance, RunConfig};
use sec_gen::{iscas_alike_suite, SuiteEntry};
use sec_netlist::{
    load_model_bytes, structural_fingerprint, write_aiger, write_aiger_binary, write_bench, Aig,
    Fingerprint, ProductMachine,
};
use sec_synth::mutate_detectable;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Small Table 1 designs whose checks take well under 0.3 s on both
/// backends (s344/s349 are left out: their BDDs reach 1.1M nodes).
/// Every class gives each design the same share.
const POOL: [&str; 11] = [
    "s208", "s298", "s382", "s420", "s444", "s526", "s641", "s713", "s953", "s1196", "s1512",
];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Class {
    Miss,
    Hit,
    Refute,
    Warm,
}

pub const CLASSES: [Class; 4] = [Class::Hit, Class::Miss, Class::Refute, Class::Warm];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Miss => "miss",
            Class::Hit => "hit",
            Class::Refute => "refute",
            Class::Warm => "warm",
        }
    }
}

/// Stream size: every design gets one miss and one hit per round, and
/// one refute and one warm request in each refute round. Hit and miss
/// carry a p90 and need at least 100 samples; refute and warm carry a
/// p50 and need 20.
pub struct Sizes {
    pub designs: usize,
    pub rounds: u64,
    pub refute_rounds: &'static [u64],
}

/// 143 misses, 143 hits, 33 refutes and 33 warm requests: an odd
/// number of samples per design, so a percentile falls inside one
/// design's samples rather than on the edge between two designs.
pub const FULL: Sizes = Sizes {
    designs: POOL.len(),
    rounds: 13,
    refute_rounds: &[2, 6, 10],
};

pub const SMALL: Sizes = Sizes {
    designs: 3,
    rounds: 2,
    refute_rounds: &[1],
};

pub struct Request {
    pub class: Class,
    /// Design, round and class: the same request under every seed.
    pub label: String,
    /// Index into [`Stream::files`].
    pub spec: usize,
    pub imp: usize,
    pub revalidate: bool,
    pub expect_equivalent: bool,
    pub expect_cached: bool,
}

pub struct Stream {
    /// File name and contents of every circuit the stream sends.
    pub files: Vec<(String, Vec<u8>)>,
    pub requests: Vec<Request>,
    /// Time spent in `sec_synth` (resynthesis and mutation).
    pub synth: Duration,
    /// Time spent in `load_model_bytes`, and the bytes it read.
    pub load: Duration,
    pub load_bytes: usize,
}

/// splitmix64: the benchmark's own seeded generator, so the inputs
/// depend on `--seed` and nothing else.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EC0_BE4C_u64)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The encodings a revision can be sent in.
const VARIANTS: [&str; 4] = ["aig", "aag", "bench", "renamed.bench"];

fn encode(aig: &Aig, variant: &str, salt: u64) -> Vec<u8> {
    match variant {
        "aig" => write_aiger_binary(aig),
        "aag" => write_aiger(aig).into_bytes(),
        "bench" => write_bench(aig).into_bytes(),
        _ => {
            let mut renamed = aig.clone();
            let internal: Vec<_> = renamed
                .vars()
                .filter(|&v| renamed.is_and(v) || renamed.is_latch(v))
                .collect();
            for (i, v) in internal.into_iter().enumerate() {
                renamed.set_name(v, format!("w{salt:x}_{i}"));
            }
            write_bench(&renamed).into_bytes()
        }
    }
}

/// A sent revision that later hits and warm requests refer to.
struct Revision {
    imp: Aig,
    file: usize,
    variant: usize,
    fingerprint: Fingerprint,
}

struct Builder<'a> {
    stream: Stream,
    spans: &'a mut Spans,
    setup_span: Option<usize>,
    seen: HashSet<Fingerprint>,
}

impl Builder<'_> {
    fn add_file(&mut self, name: String, bytes: Vec<u8>) -> usize {
        self.stream.files.push((name, bytes));
        self.stream.files.len() - 1
    }

    fn load(&mut self, file: usize) -> Aig {
        let (name, bytes) = &self.stream.files[file];
        let t = Instant::now();
        let aig = load_model_bytes(name, bytes).expect("the benchmark writes loadable circuits");
        let end = Instant::now();
        self.stream.load += end - t;
        self.stream.load_bytes += bytes.len();
        self.spans
            .add("netlist.load", t, end, self.setup_span, name.as_str());
        aig
    }

    fn fingerprint(&mut self, spec: usize, imp: usize) -> Fingerprint {
        let (s, i) = (self.load(spec), self.load(imp));
        let pm = ProductMachine::build(&s, &i).expect("revisions keep the interface");
        structural_fingerprint(&pm.aig)
    }

    fn synth<T>(&mut self, what: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let end = Instant::now();
        self.stream.synth += end - t;
        self.spans.add(what, t, end, self.setup_span, label);
        out
    }

    /// A resynthesis of `entry` (a detectable mutant of one with
    /// `mutant`) whose product no earlier request had, written in
    /// `variant`. Its synthesis seed depends on the design, round and
    /// kind only, so every `--seed` checks the same revisions.
    fn fresh(
        &mut self,
        entry: &SuiteEntry,
        spec: usize,
        key: u64,
        mutant: bool,
        variant: usize,
    ) -> Revision {
        for attempt in 0u64.. {
            let synth_seed = RunConfig::default().seed ^ key << 16 ^ attempt << 40;
            let cfg = RunConfig {
                seed: synth_seed,
                ..RunConfig::default()
            };
            let mut imp = self.synth("synth.pipeline", entry.name, || make_instance(entry, &cfg));
            if mutant {
                let Some((m, _)) = self.synth("synth.mutate", entry.name, || {
                    mutate_detectable(&imp, synth_seed, 64, 32)
                }) else {
                    continue;
                };
                imp = m;
            }
            let n = self.stream.files.len();
            let file = self.add_file(
                format!("x{n}.{}", VARIANTS[variant]),
                encode(&imp, VARIANTS[variant], synth_seed),
            );
            let fingerprint = self.fingerprint(spec, file);
            if self.seen.insert(fingerprint) {
                return Revision {
                    imp,
                    file,
                    variant,
                    fingerprint,
                };
            }
            // An earlier request has this product and would make it a
            // hit: draw another resynthesis.
            self.stream.files.pop();
        }
        unreachable!("the attempt counter is unbounded")
    }
}

/// Builds the stream for `seed`, which orders the requests of each
/// round. With `plant`, the last miss is replaced by a mutant that is
/// listed as equivalent: a wrong answer the gate must count as a failed
/// operation.
pub fn build(seed: u64, sizes: &Sizes, plant: bool, spans: &mut Spans) -> Stream {
    let setup_start = Instant::now();
    let setup_span = spans.add("setup.stream", setup_start, setup_start, None, "");
    let suite: Vec<SuiteEntry> = iscas_alike_suite(usize::MAX)
        .into_iter()
        .filter(|e| POOL[..sizes.designs].contains(&e.name))
        .collect();
    let mut b = Builder {
        stream: Stream {
            files: Vec::new(),
            requests: Vec::new(),
            synth: Duration::ZERO,
            load: Duration::ZERO,
            load_bytes: 0,
        },
        spans,
        setup_span,
        seen: HashSet::new(),
    };
    let specs: Vec<usize> = suite
        .iter()
        .map(|e| {
            b.add_file(
                format!("{}.spec.aag", e.name),
                write_aiger(&e.aig).into_bytes(),
            )
        })
        .collect();
    let request = |class: Class, d: usize, round: u64, imp, expect_equivalent| Request {
        class,
        label: format!("{} r{round} {}", suite[d].name, class.name()),
        spec: specs[d],
        imp,
        revalidate: class == Class::Warm,
        expect_equivalent,
        // A warm request runs the engine, so it is not a cache answer.
        expect_cached: class == Class::Hit,
    };

    let mut rng = Rng::new(seed);
    let n = suite.len();
    for round in 0..sizes.rounds {
        // Misses first, in a seeded order; then this round's hits,
        // refutes and warm requests, shuffled together.
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut sent: Vec<Option<Revision>> = (0..n).map(|_| None).collect();
        for (i, &d) in order.iter().enumerate() {
            let planted = plant && round + 1 == sizes.rounds && i + 1 == n;
            let key = (d as u64) << 8 | round;
            let variant = (d + round as usize) % 3;
            let rev = b.fresh(&suite[d], specs[d], key, planted, variant);
            b.stream
                .requests
                .push(request(Class::Miss, d, round, rev.file, true));
            if !planted {
                sent[d] = Some(rev);
            }
        }
        let mut later: Vec<(Class, usize)> = (0..n).map(|d| (Class::Hit, d)).collect();
        if sizes.refute_rounds.contains(&round) {
            later.extend((0..n).flat_map(|d| [(Class::Refute, d), (Class::Warm, d)]));
        }
        rng.shuffle(&mut later);
        for (class, d) in later {
            match (class, &sent[d]) {
                (Class::Refute, _) => {
                    let key = (d as u64) << 8 | round | 1 << 7;
                    let m = b.fresh(&suite[d], specs[d], key, true, (d + round as usize + 1) % 3);
                    b.stream
                        .requests
                        .push(request(Class::Refute, d, round, m.file, false));
                }
                (Class::Hit, Some(rev)) => {
                    // Another encoding of the revision just sent.
                    let variant = (rev.variant + 1 + round as usize % 3) % VARIANTS.len();
                    let (imp, fingerprint) = (rev.imp.clone(), rev.fingerprint);
                    let file = b.add_file(
                        format!("x{}.{}", b.stream.files.len(), VARIANTS[variant]),
                        encode(&imp, VARIANTS[variant], rng.next()),
                    );
                    assert_eq!(
                        b.fingerprint(specs[d], file),
                        fingerprint,
                        "a re-encoded revision keeps its fingerprint"
                    );
                    b.stream
                        .requests
                        .push(request(Class::Hit, d, round, file, true));
                }
                (Class::Warm, Some(rev)) => {
                    let file = rev.file;
                    b.stream
                        .requests
                        .push(request(Class::Warm, d, round, file, true));
                }
                // The planted mutant has no hit or warm request.
                _ => {}
            }
        }
    }
    if let Some(id) = b.setup_span {
        b.spans.set_end(id, Instant::now());
    }
    b.stream
}

/// An `equivalent` verdict on a mutant is unsound, not slow: the run
/// stops instead of counting it.
pub fn wrong_equivalent(req: &Request, equivalent: bool) -> bool {
    equivalent && !req.expect_equivalent
}
