//! The client side: connect, frame requests, stream response events.
//!
//! Used by `sec client` and by the end-to-end tests; there is no
//! external tooling dependency — the wire format is plain lines.

use crate::protocol::{escape_json, CheckRequest, Source};
use sec_trace::{Event, Trace};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A connected client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// The socket is set to `TCP_NODELAY`: a request line waits for no
    /// ACK of the previous one, so a kept-open connection costs no
    /// Nagle/delayed-ACK stall per round trip.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line (the newline is appended here), line and
    /// newline in one write so the no-delay socket never sends a
    /// partial line.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(&[line.as_bytes(), b"\n"].concat())
    }

    /// Reads the next raw line; `None` on server EOF.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn next_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if !line.trim().is_empty() {
                return Ok(Some(line.trim_end().to_string()));
            }
        }
    }

    /// Reads the next server event; `None` on EOF.
    ///
    /// # Errors
    ///
    /// Socket errors propagate; a line the server sent that is not a
    /// valid trace event becomes `io::ErrorKind::InvalidData` (the
    /// server promises every line is one).
    pub fn next_event(&mut self) -> std::io::Result<Option<(String, Event)>> {
        let Some(line) = self.next_line()? else {
            return Ok(None);
        };
        let trace = Trace::parse_strict(&line).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e}: {line}"))
        })?;
        match trace.events.into_iter().next() {
            Some(ev) => Ok(Some((line, ev))),
            None => Ok(None),
        }
    }
}

/// Renders a [`CheckRequest`] as its wire line
/// (`crate::protocol::parse_request` of the result round-trips).
pub fn check_line(req: &CheckRequest) -> String {
    let mut out = String::from("{\"cmd\":\"check\"");
    let push_source =
        |out: &mut String, source: &Source, path_key: &str, inline_key: &str| match source {
            Source::Path(p) => {
                out.push_str(&format!(",\"{path_key}\":\"{}\"", escape_json(p)));
            }
            Source::Inline(text) => {
                out.push_str(&format!(",\"{inline_key}\":\"{}\"", escape_json(text)));
            }
        };
    push_source(&mut out, &req.spec, "spec_path", "spec_bench");
    push_source(&mut out, &req.impl_, "impl_path", "impl_bench");
    out.push_str(&format!(",\"engine\":\"{}\"", req.engine.name()));
    if let Some(ms) = req.timeout_ms {
        out.push_str(&format!(",\"timeout_ms\":{ms}"));
    }
    if let Some(ms) = req.heartbeat_ms {
        out.push_str(&format!(",\"heartbeat_ms\":{ms}"));
    }
    if let Some(tag) = &req.tag {
        out.push_str(&format!(",\"tag\":\"{}\"", escape_json(tag)));
    }
    if req.no_cache {
        out.push_str(",\"no_cache\":true");
    }
    if req.revalidate {
        out.push_str(",\"revalidate\":true");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Engine, Request};
    use std::net::TcpListener;

    #[test]
    fn connect_sets_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        assert!(client.writer.nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
    }

    #[test]
    fn check_line_round_trips() {
        let req = CheckRequest {
            spec: Source::Path("a \"quoted\".bench".into()),
            impl_: Source::Inline("INPUT(a)\nOUTPUT(a)\n".into()),
            engine: Engine::Portfolio,
            timeout_ms: Some(250),
            conflict_budget: Some(9),
            jobs: 3,
            heartbeat_ms: Some(20),
            tag: Some("t\n1".into()),
            no_cache: true,
            revalidate: true,
        };
        let line = check_line(&req);
        // `jobs` and `conflict_budget` are ignored: they never reach
        // the wire.
        assert!(!line.contains("jobs"), "{line}");
        assert!(!line.contains("conflict_budget"), "{line}");
        let Request::Check(back) = parse_request(&line).unwrap() else {
            panic!("not a check: {line}");
        };
        assert_eq!(back.spec, req.spec);
        assert_eq!(back.impl_, req.impl_);
        assert_eq!(back.engine, req.engine);
        assert_eq!(back.timeout_ms, req.timeout_ms);
        assert_eq!(back.heartbeat_ms, req.heartbeat_ms);
        assert_eq!(back.tag, req.tag);
        assert_eq!(back.no_cache, req.no_cache);
        assert_eq!(back.revalidate, req.revalidate);
    }
}
