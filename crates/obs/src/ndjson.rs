//! The NDJSON event-stream sink behind the CLI's `--trace-json`.

use crate::json::event_line;
use crate::{Sink, Value};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A mutex-guarded writer that emits whole lines atomically.
///
/// This is the serialization point for every NDJSON stream: when
/// several jobs (or several engines of one race) share one output —
/// a trace file, a client socket — they must all funnel through the
/// *same* `LineWriter`, or concurrent `write` calls can interleave
/// mid-line and tear the stream. One `write_all` of the complete line
/// under one lock guarantees each line lands contiguously.
pub struct LineWriter {
    out: Mutex<Box<dyn Write + Send>>,
}

impl LineWriter {
    /// Wraps an arbitrary writer.
    pub fn new(w: impl Write + Send + 'static) -> LineWriter {
        LineWriter {
            out: Mutex::new(Box::new(w)),
        }
    }

    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<LineWriter> {
        Ok(LineWriter::new(File::create(path)?))
    }

    /// Writes `line` plus a terminating newline as one atomic append.
    ///
    /// Every line is written with a single unbuffered `write_all` — the
    /// CLI exits via `std::process::exit`, which skips destructors, so
    /// a buffered writer would silently truncate the stream. Events are
    /// coarse (round/frame/race boundaries), so the syscall per line is
    /// noise. One write per line also keeps a `TCP_NODELAY` socket (`sec
    /// serve` sets it on every client connection) from sending partial
    /// lines: each line leaves whole, as soon as it is written. Errors
    /// are swallowed: a torn trace is strictly worse than
    /// a missing one, and losing an event to a full disk must not abort
    /// the check itself.
    pub fn write_line(&self, line: &str) {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let mut out = self.out.lock().unwrap();
        let _ = out.write_all(buf.as_bytes());
    }
}

/// Writes one JSON object per line:
/// `{"t_us":123,"ev":"round","engine":"sat-corr","round":3,...}`.
///
/// All writes route through a shared [`LineWriter`], so any number of
/// `NdjsonSink`s (e.g. one per job, each adding its own tags via
/// [`crate::TagSink`]) can target the same file or socket without
/// tearing lines.
pub struct NdjsonSink {
    out: Arc<LineWriter>,
}

impl NdjsonSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<NdjsonSink> {
        Ok(NdjsonSink::shared(Arc::new(LineWriter::create(path)?)))
    }

    /// Streams to an arbitrary writer (tests use `Vec<u8>` via a
    /// shared buffer; the CLI can point this at stderr).
    pub fn from_writer(w: impl Write + Send + 'static) -> NdjsonSink {
        NdjsonSink::shared(Arc::new(LineWriter::new(w)))
    }

    /// Streams to an existing line writer, sharing its line-level lock
    /// with every other sink holding the same `Arc`.
    pub fn shared(out: Arc<LineWriter>) -> NdjsonSink {
        NdjsonSink { out }
    }
}

impl Sink for NdjsonSink {
    fn event(
        &self,
        at_us: u64,
        scope: Option<&'static str>,
        name: &str,
        fields: &[(&'static str, Value)],
    ) {
        self.out.write_line(&event_line(at_us, scope, name, fields));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, Obs};
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writes_one_json_object_per_line() {
        let buf = SharedBuf::default();
        let obs = Obs::single(NdjsonSink::from_writer(buf.clone())).scoped("bmc");
        event!(obs, "bmc.frame", frame = 1u64);
        event!(obs, "bmc.frame", frame = 2u64);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ev\":\"bmc.frame\""));
        assert!(lines[0].contains("\"engine\":\"bmc\""));
        assert!(lines[1].contains("\"frame\":2"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn shared_writer_keeps_lines_whole_under_contention() {
        let buf = SharedBuf::default();
        let writer = Arc::new(LineWriter::new(buf.clone()));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let w = Arc::clone(&writer);
                std::thread::spawn(move || {
                    let obs = Obs::single(NdjsonSink::shared(w));
                    for i in 0..100u64 {
                        event!(obs, "tick", thread = t as u64, i = i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 400);
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "torn line: {l}");
        }
    }
}
