//! # sec-serve — the persistent equivalence-checking service
//!
//! The paper's correspondence fixed point makes SEC cheap enough to run
//! continuously; this crate makes it *stay* running. A long-lived
//! daemon (`sec serve`) accepts batched check requests over a
//! newline-delimited JSON line protocol on TCP, feeds them through a
//! bounded queue into a fixed worker pool, and streams per-job progress
//! back to each client as `sec-obs`-schema NDJSON events — the existing
//! trace format *is* the wire format, so a captured session feeds
//! straight into `sec trace summary`.
//!
//! Results are cached under a structural fingerprint of the product
//! AIG ([`sec_netlist::structural_fingerprint`]): resubmitting the same
//! netlist pair — even with every signal renamed or gates declared in a
//! different order — returns the cached verdict without invoking any
//! engine. Cache entries also carry the final partition snapshot
//! ([`sec_core::PartitionSnapshot`]); a `revalidate` request over an
//! identical node numbering warm-starts its fixed point from it.
//! `--cache-dir` persists entries across restarts.
//!
//! Cancellation is cooperative end to end: a `cancel` request, a client
//! disconnect, or daemon shutdown trips the job's
//! [`CancellationToken`](sec_limits::CancellationToken), which the
//! engines poll through their `Limits` layering.
//!
//! The wire protocol reference lives in `docs/SERVE.md`; the queue /
//! scheduler / cache architecture in `DESIGN.md §11`.
//!
//! ```no_run
//! use sec_serve::{run_server, ServeOptions};
//!
//! let opts = ServeOptions {
//!     listen: "127.0.0.1:7878".to_string(),
//!     ..ServeOptions::default()
//! };
//! run_server(&opts).expect("bind");
//! ```

#![warn(missing_docs)]

mod cache;
mod client;
mod protocol;
mod server;

pub use cache::{decode_entry, encode_entry, CacheCounters, CacheEntry, ResultCache};
pub use client::{check_line, Client};
pub use protocol::{escape_json, parse_request, CheckRequest, Engine, Request, Source};
pub use server::{run_server, ServeOptions, MAX_REQUEST_LINE_BYTES};
