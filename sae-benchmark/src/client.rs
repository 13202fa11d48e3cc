//! The generator's HTTP side: one keep-alive control connection per
//! worker for requests, one short-lived connection per job to follow
//! `GET /jobs/:id/events` to its terminal `end` frame.
//!
//! Completion is read off the `end` frame, which the server flushes at
//! once; intermediate `journal` frames are coalesced to the server's
//! 50 ms tick, so nothing here derives stage timings from frame arrival.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sae_net::http::parse_response;
use sae_net::sse::{parse_chunked_response, SseParser};

/// A stuck server must fail the run, not hang it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One worker's control connection. Requests ride it back to back, so a
/// run opens one extra connection per job (the follow), not two — which
/// keeps a 20 s window well under the loopback ephemeral-port ceiling.
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    /// Bytes of the last `POST /jobs` request, kept for the layer replay.
    pub last_post: Vec<u8>,
    /// Raw bytes of the last followed event stream.
    pub last_stream: Vec<u8>,
}

/// What following one job's event stream to the end showed.
pub struct Followed {
    /// When the first bytes of the stream (head + status frame) arrived.
    pub opened: Instant,
    /// When the server closed the stream after the `end` frame.
    pub ended: Instant,
    /// `status` of the `end` frame (`completed`, `failed`, ...).
    pub end_status: String,
    /// `journal` frames whose line is a per-task record.
    pub task_lines: usize,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

impl Client {
    /// A client for the control port at `addr`; connects on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            buf: Vec::with_capacity(4096),
            last_post: Vec::new(),
            last_stream: Vec::new(),
        }
    }

    /// One request on the keep-alive connection: `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: sae\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if method == "POST" {
            self.last_post.clear();
            self.last_post.extend_from_slice(req.as_bytes());
        }
        let stream = match &mut self.conn {
            Some(s) => s,
            slot => slot.insert(connect(self.addr)?),
        };
        stream.write_all(req.as_bytes())?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                self.conn = None;
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the control connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
            match parse_response(&self.buf) {
                Ok(Some((resp, _))) => return Ok((resp.status, resp.body_str())),
                Ok(None) => {}
                Err(e) => return Err(invalid(format!("malformed response: {e:?}"))),
            }
        }
    }

    /// Submits a job; `Ok(Err(status))` is a refusal (429/503/400).
    pub fn submit(&mut self, body: &str) -> io::Result<Result<u64, u16>> {
        let (status, resp) = self.request("POST", "/jobs", body)?;
        if status != 201 {
            return Ok(Err(status));
        }
        json_u64(&resp, "job")
            .map(Ok)
            .ok_or_else(|| invalid(format!("201 without a job id: {resp}")))
    }

    /// Follows `job`'s event stream on a fresh connection until the
    /// server ends it.
    pub fn follow(&mut self, job: u64) -> io::Result<Followed> {
        let mut stream = connect(self.addr)?;
        let req =
            format!("GET /jobs/{job}/events HTTP/1.1\r\nHost: sae\r\nConnection: close\r\n\r\n");
        stream.write_all(req.as_bytes())?;
        self.last_stream.clear();
        let mut chunk = [0u8; 16 * 1024];
        let mut opened = None;
        loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            opened.get_or_insert_with(Instant::now);
            self.last_stream.extend_from_slice(&chunk[..n]);
        }
        let ended = Instant::now();
        let opened = opened.ok_or_else(|| invalid("event stream closed without a byte"))?;
        let (parsed, _) = parse_chunked_response(&self.last_stream)
            .map_err(|e| invalid(format!("malformed event stream: {e:?}")))?
            .ok_or_else(|| invalid("event stream ended before its last chunk"))?;
        if parsed.status != 200 {
            return Err(invalid(format!("event stream answered {}", parsed.status)));
        }
        let mut sse = SseParser::new();
        sse.extend(&parsed.body);
        let (mut end_status, mut task_lines) = (None, 0);
        while let Some(frame) = sse.next_frame() {
            match frame.event.as_deref() {
                Some("journal") if frame.data.contains("\"event\":\"task\"") => task_lines += 1,
                Some("end") => end_status = json_str(&frame.data, "status"),
                _ => {}
            }
        }
        Ok(Followed {
            opened,
            ended,
            end_status: end_status.ok_or_else(|| invalid("event stream had no end frame"))?,
            task_lines,
        })
    }
}

/// The raw text after `"key":` in a flat JSON object.
fn json_raw<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &doc[doc.find(&pat)? + pat.len()..];
    Some(rest.trim_start())
}

/// An unsigned integer field of a flat JSON object.
pub fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let rest = json_raw(doc, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A number field of a flat JSON object.
pub fn json_f64(doc: &str, key: &str) -> Option<f64> {
    let rest = json_raw(doc, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A string field (no escapes — the server's status words have none).
pub fn json_str(doc: &str, key: &str) -> Option<String> {
    let rest = json_raw(doc, key)?.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Every value of `key` in document order (for `/report`'s stage array).
pub fn json_f64_all(doc: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(i) = doc[at..].find(&pat) {
        at += i + pat.len();
        if let Some(v) = json_f64(&doc[at - pat.len()..], key) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_field_readers() {
        let doc = "{\"job\":17,\"status\":\"completed\",\"runtime_secs\":0.001250,\
                   \"stages\":[{\"duration_secs\":0.000400},{\"duration_secs\":0.000700}]}";
        assert_eq!(json_u64(doc, "job"), Some(17));
        assert_eq!(json_str(doc, "status").as_deref(), Some("completed"));
        assert_eq!(json_f64(doc, "runtime_secs"), Some(0.00125));
        assert_eq!(json_f64_all(doc, "duration_secs"), vec![0.0004, 0.0007]);
        assert_eq!(json_u64(doc, "missing"), None);
    }
}
