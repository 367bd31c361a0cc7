//! The fingerprint-keyed result/partition cache.
//!
//! Keyed by [`structural_fingerprint`](sec_netlist::structural_fingerprint)
//! of the *product* AIG, so resubmitting the same pair — or the same
//! pair with every signal renamed, or with gates declared in a
//! different order — hits without running any engine. Only definitive
//! verdicts are cached (`Unknown` depends on budgets, not on the
//! circuits). Entries also carry the final partition snapshot plus an
//! [`ordered_digest`](sec_netlist::ordered_digest) of the product AIG
//! it was taken over: a revalidating job whose product matches the
//! digest node-for-node warm-starts its fixed point from the snapshot.

use sec_core::PartitionSnapshot;
use sec_netlist::Fingerprint;
use sec_sim::Trace;
use sec_trace::{parse_json, Json};
use std::collections::HashMap;
use std::path::PathBuf;

/// The cached outcome of one definitive check.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// `true` for equivalent, `false` for inequivalent.
    pub equivalent: bool,
    /// Input frames of the counterexample, when inequivalent.
    pub cex: Option<Trace>,
    /// Final class count of the producing run.
    pub classes: usize,
    /// Final tracked-signal count.
    pub signals: usize,
    /// The paper's `eqs (%)` metric.
    pub eqs_percent: f64,
    /// Refinement rounds the producing run needed.
    pub rounds: usize,
    /// Order-sensitive digest of the product AIG the snapshot indexes
    /// into; snapshot reuse requires an exact match.
    pub ordered_digest: u64,
    /// Final partition snapshot of the producing run.
    pub snapshot: PartitionSnapshot,
}

/// Monotonic cache traffic counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries stored.
    pub insertions: u64,
}

/// An LRU-bounded map from product fingerprint to [`CacheEntry`],
/// optionally persisted one JSON file per entry under a cache
/// directory so a restarted daemon keeps its warm state.
pub struct ResultCache {
    entries: HashMap<Fingerprint, CacheEntry>,
    /// Recency order, least recent first.
    order: Vec<Fingerprint>,
    /// Serialized size of each live entry, for [`ResultCache::approx_bytes`].
    sizes: HashMap<Fingerprint, usize>,
    bytes: usize,
    capacity: usize,
    dir: Option<PathBuf>,
    counters: CacheCounters,
}

impl ResultCache {
    /// An in-memory cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            entries: HashMap::new(),
            order: Vec::new(),
            sizes: HashMap::new(),
            bytes: 0,
            capacity: capacity.max(1),
            dir: None,
            counters: CacheCounters::default(),
        }
    }

    /// A cache persisted under `dir` (created if missing); existing
    /// entry files are loaded eagerly, oldest first. Unreadable or
    /// malformed files are skipped — a corrupt cache degrades to a
    /// cold one, it never takes the daemon down.
    pub fn persistent(capacity: usize, dir: PathBuf) -> std::io::Result<ResultCache> {
        std::fs::create_dir_all(&dir)?;
        let mut cache = ResultCache::new(capacity);
        let mut files: Vec<(std::time::SystemTime, PathBuf, Fingerprint)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Some(fp) = Fingerprint::parse(stem) else {
                continue;
            };
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let mtime = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            files.push((mtime, path, fp));
        }
        files.sort_by_key(|(t, _, _)| *t);
        for (_, path, fp) in files {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            if let Some(entry) = decode_entry(&text) {
                cache.store(fp, entry);
            }
        }
        // Loading counts neither as hits nor misses.
        cache.counters = CacheCounters::default();
        cache.dir = Some(dir);
        Ok(cache)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Traffic counters so far.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Approximate resident size: the summed [`encode_entry`] length
    /// of every live entry. Tracks the persisted footprint exactly and
    /// the in-memory one to within struct overhead — good enough for
    /// the `serve_cache_bytes` gauge it feeds.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Looks up a fingerprint, refreshing its recency on a hit.
    pub fn lookup(&mut self, fp: Fingerprint) -> Option<CacheEntry> {
        if let Some(entry) = self.entries.get(&fp) {
            self.counters.hits += 1;
            let entry = entry.clone();
            if let Some(pos) = self.order.iter().position(|&f| f == fp) {
                self.order.remove(pos);
                self.order.push(fp);
            }
            Some(entry)
        } else {
            self.counters.misses += 1;
            None
        }
    }

    /// Stores an entry, evicting the least recently used one (and its
    /// file) when the bound is exceeded.
    pub fn store(&mut self, fp: Fingerprint, entry: CacheEntry) {
        let encoded = encode_entry(&entry);
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("{fp}.json"));
            // Same policy as trace writing: a failed persist must not
            // fail the job that produced the result.
            let _ = std::fs::write(path, &encoded);
        }
        self.bytes = self.bytes + encoded.len() - self.sizes.insert(fp, encoded.len()).unwrap_or(0);
        if self.entries.insert(fp, entry).is_none() {
            self.order.push(fp);
            self.counters.insertions += 1;
        } else if let Some(pos) = self.order.iter().position(|&f| f == fp) {
            self.order.remove(pos);
            self.order.push(fp);
            self.counters.insertions += 1;
        }
        while self.entries.len() > self.capacity {
            let victim = self.order.remove(0);
            self.entries.remove(&victim);
            self.bytes -= self.sizes.remove(&victim).unwrap_or(0);
            self.counters.evictions += 1;
            if let Some(dir) = &self.dir {
                let _ = std::fs::remove_file(dir.join(format!("{victim}.json")));
            }
        }
    }
}

fn bits_to_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn string_to_bits(s: &str) -> Option<Vec<bool>> {
    s.chars()
        .map(|c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        })
        .collect()
}

/// Serializes an entry as a single JSON document.
pub fn encode_entry(entry: &CacheEntry) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"v\":1");
    out.push_str(&format!(",\"equivalent\":{}", entry.equivalent));
    if let Some(cex) = &entry.cex {
        let frames: Vec<String> = cex
            .inputs
            .iter()
            .map(|f| format!("\"{}\"", bits_to_string(f)))
            .collect();
        out.push_str(&format!(",\"cex\":[{}]", frames.join(",")));
    }
    out.push_str(&format!(
        ",\"classes\":{},\"signals\":{},\"eqs_percent\":{:?},\"rounds\":{}",
        entry.classes, entry.signals, entry.eqs_percent, entry.rounds
    ));
    out.push_str(&format!(",\"ordered_digest\":{}", entry.ordered_digest));
    let snap = &entry.snapshot;
    out.push_str(&format!(
        ",\"snapshot\":{{\"num_nodes\":{},\"phase\":\"{}\",\"classes\":[",
        snap.num_nodes,
        bits_to_string(&snap.phase)
    ));
    for (i, class) in snap.classes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in class.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push(']');
    }
    out.push_str("]}}");
    out
}

/// Parses [`encode_entry`] output; `None` on any shape mismatch.
pub fn decode_entry(text: &str) -> Option<CacheEntry> {
    let v = parse_json(text).ok()?;
    if v.get("v").and_then(Json::as_u64) != Some(1) {
        return None;
    }
    let equivalent = v.get("equivalent").and_then(Json::as_bool)?;
    let cex = match v.get("cex") {
        None => None,
        Some(Json::Arr(frames)) => {
            let inputs: Option<Vec<Vec<bool>>> = frames
                .iter()
                .map(|f| f.as_str().and_then(string_to_bits))
                .collect();
            Some(Trace::new(inputs?))
        }
        Some(_) => return None,
    };
    let snap = v.get("snapshot")?;
    let num_nodes = snap.get("num_nodes").and_then(Json::as_u64)? as usize;
    let phase = snap
        .get("phase")
        .and_then(Json::as_str)
        .and_then(string_to_bits)?;
    let Json::Arr(raw_classes) = snap.get("classes")? else {
        return None;
    };
    let classes: Option<Vec<Vec<u32>>> = raw_classes
        .iter()
        .map(|c| match c {
            Json::Arr(members) => members
                .iter()
                .map(|m| m.as_u64().map(|n| n as u32))
                .collect(),
            _ => None,
        })
        .collect();
    // Earlier daemons also wrote a `patterns` array of banked
    // counterexample witnesses; it is ignored, malformed or not.
    Some(CacheEntry {
        equivalent,
        cex,
        classes: v.get("classes").and_then(Json::as_u64)? as usize,
        signals: v.get("signals").and_then(Json::as_u64)? as usize,
        eqs_percent: v.get("eqs_percent").and_then(Json::as_f64)?,
        rounds: v.get("rounds").and_then(Json::as_u64)? as usize,
        ordered_digest: v.get("ordered_digest").and_then(Json::as_u64)?,
        snapshot: PartitionSnapshot {
            num_nodes,
            classes: classes?,
            phase,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(equivalent: bool, digest: u64) -> CacheEntry {
        CacheEntry {
            equivalent,
            cex: (!equivalent).then(|| Trace::new(vec![vec![true, false], vec![false, false]])),
            classes: 3,
            signals: 7,
            eqs_percent: 98.5,
            rounds: 2,
            ordered_digest: digest,
            snapshot: PartitionSnapshot {
                num_nodes: 4,
                classes: vec![vec![0], vec![1, 3]],
                phase: vec![true, false, true, true],
            },
        }
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint([n, !n])
    }

    #[test]
    fn encode_decode_roundtrip() {
        for e in [entry(true, 42), entry(false, 7)] {
            let text = encode_entry(&e);
            let back = decode_entry(&text).expect(&text);
            assert_eq!(back.equivalent, e.equivalent);
            assert_eq!(back.cex.map(|t| t.inputs), e.cex.map(|t| t.inputs));
            assert_eq!(back.classes, e.classes);
            assert_eq!(back.eqs_percent, e.eqs_percent);
            assert_eq!(back.ordered_digest, e.ordered_digest);
            assert_eq!(back.snapshot, e.snapshot);
        }
        assert!(decode_entry("{\"v\":2}").is_none());
        assert!(decode_entry("garbage").is_none());
    }

    #[test]
    fn legacy_patterns_field_is_ignored() {
        // Entries written before the pattern bank was removed carry a
        // `patterns` array; valid or malformed, it neither blocks the
        // decode nor survives a re-encode.
        let e = entry(true, 1);
        let text = encode_entry(&e);
        assert!(!text.contains("\"patterns\""));
        let valid = "[{\"k\":\"t\",\"s\":\"10\",\"i0\":\"011\",\"i1\":\"100\",\"seed\":48879},\
                     {\"k\":\"i\",\"i0\":\"110\",\"seed\":7}]";
        for patterns in [
            valid,
            "[{\"k\":\"t\"}]",
            "[{\"k\":\"x\",\"seed\":\"no\"}]",
            "17",
        ] {
            let legacy = text.replacen(
                ",\"snapshot\"",
                &format!(",\"patterns\":{patterns},\"snapshot\""),
                1,
            );
            assert!(legacy.contains("\"patterns\""));
            let back = decode_entry(&legacy).expect(&legacy);
            assert_eq!(back.equivalent, e.equivalent);
            assert_eq!(back.classes, e.classes);
            assert_eq!(back.snapshot, e.snapshot);
            assert_eq!(encode_entry(&back), text);
        }
    }

    #[test]
    fn lru_hits_misses_evictions() {
        let mut cache = ResultCache::new(2);
        assert!(cache.is_empty());
        assert!(cache.lookup(fp(1)).is_none());
        cache.store(fp(1), entry(true, 1));
        cache.store(fp(2), entry(true, 2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(fp(1)).is_some());
        cache.store(fp(3), entry(true, 3));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(fp(2)).is_none(), "2 was evicted");
        assert!(cache.lookup(fp(1)).is_some());
        assert!(cache.lookup(fp(3)).is_some());
        let c = cache.counters();
        assert_eq!(c.hits, 3);
        assert_eq!(c.misses, 2);
        assert_eq!(c.evictions, 1);
        assert_eq!(c.insertions, 3);
    }

    #[test]
    fn approx_bytes_tracks_stores_and_evictions() {
        let mut cache = ResultCache::new(2);
        assert_eq!(cache.approx_bytes(), 0);
        cache.store(fp(1), entry(true, 1));
        let one = cache.approx_bytes();
        assert_eq!(one, encode_entry(&entry(true, 1)).len());
        // Re-storing the same key replaces, not accumulates.
        cache.store(fp(1), entry(true, 1));
        assert_eq!(cache.approx_bytes(), one);
        cache.store(fp(2), entry(false, 2));
        let two = cache.approx_bytes();
        assert!(two > one);
        // Eviction releases the victim's bytes.
        cache.store(fp(3), entry(true, 3));
        assert_eq!(
            cache.approx_bytes(),
            two - one + encode_entry(&entry(true, 3)).len()
        );
    }

    #[test]
    fn persistence_survives_reload() {
        let dir = std::env::temp_dir().join(format!("sec-serve-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = ResultCache::persistent(8, dir.clone()).unwrap();
            cache.store(fp(1), entry(true, 1));
            cache.store(fp(2), entry(false, 2));
        }
        // Plant a corrupt file: it must be skipped, not fatal.
        std::fs::write(dir.join(format!("{}.json", fp(3))), "nonsense").unwrap();
        let mut reloaded = ResultCache::persistent(8, dir.clone()).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.counters(), CacheCounters::default());
        let e = reloaded.lookup(fp(2)).expect("persisted entry");
        assert!(!e.equivalent);
        assert_eq!(e.cex.unwrap().inputs.len(), 2);
        // Eviction removes the evicted entry's file too. Loading with
        // capacity 1 keeps one of fp(1)/fp(2) (equal mtimes make the
        // load order unspecified); storing fp(9) evicts the survivor
        // and deletes its file.
        let mut small = ResultCache::persistent(1, dir.clone()).unwrap();
        small.store(fp(9), entry(true, 9));
        assert_eq!(small.len(), 1);
        assert!(dir.join(format!("{}.json", fp(9))).exists());
        let survivors = [fp(1), fp(2)]
            .iter()
            .filter(|f| dir.join(format!("{f}.json")).exists())
            .count();
        assert_eq!(
            survivors, 1,
            "exactly one of the loaded entries was evicted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
