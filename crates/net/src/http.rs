//! A sans-io HTTP/1.1 request parser and response serializer.
//!
//! This is the control-plane wire format of `sae-server`: job submissions
//! and status queries arrive as small HTTP/1.1 requests on the live
//! runtime's reactor, which owns the sockets. The parser therefore does
//! **no I/O** — like the live codec's `FrameCursor`, it is fed raw bytes
//! at arbitrary boundaries ([`RequestParser::extend`]) and yields complete
//! [`Request`]s ([`RequestParser::next`]), reporting "need more bytes" for
//! partial input and a typed [`HttpError`] for malformed input. Decoding
//! is total: no byte sequence panics, and every error maps to the status
//! code of the well-formed error response the server should write back
//! ([`HttpError::status`]).
//!
//! Deliberate scope cuts, fine for a loopback control API: no
//! `Transfer-Encoding` (rejected with 501 — clients send
//! `Content-Length`), no multi-line header folding (rejected with 400, as
//! RFC 7230 §3.2.4 permits), bodies bounded by [`Limits::max_body_bytes`]
//! (413) and header blocks by [`Limits::max_head_bytes`] (431).
//!
//! # Examples
//!
//! ```
//! use sae_net::http::{Method, RequestParser, Response};
//!
//! let mut parser = RequestParser::new();
//! parser.extend(b"GET /jobs/7 HTTP/1.1\r\nHost: x\r\n\r\n");
//! let req = parser.next().unwrap().unwrap();
//! assert_eq!(req.method, Method::Get);
//! assert_eq!(req.path_segments(), vec!["jobs", "7"]);
//!
//! let mut out = Vec::new();
//! Response::json(200, "{\"job\":7}").encode(&mut out);
//! assert!(out.starts_with(b"HTTP/1.1 200 OK\r\n"));
//! ```

use std::fmt;

/// Bounds on what one request may occupy in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum size of the request line plus all headers, terminator
    /// included. Exceeding it is a 431.
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` accepted. Exceeding it is a 413.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Request methods the control API distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET` — status, reports, metrics.
    Get,
    /// `POST` — job submission.
    Post,
    /// `DELETE` — job cancellation.
    Delete,
    /// Anything else (syntactically valid token): routed to 405.
    Other,
}

impl Method {
    fn parse(token: &str) -> Option<Method> {
        if token.is_empty() || !token.bytes().all(|b| b.is_ascii_uppercase()) {
            return None;
        }
        Some(match token {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "DELETE" => Method::Delete,
            _ => Method::Other,
        })
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request target, verbatim (path plus optional query).
    pub target: String,
    /// Header `(name, value)` pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (ASCII case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The target's path with the query string stripped.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or("")
    }

    /// Non-empty `/`-separated segments of the path.
    pub fn path_segments(&self) -> Vec<&str> {
        self.path().split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a byte stream failed to parse as a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line or header syntax.
    BadRequest(&'static str),
    /// Header block exceeded [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// Declared `Content-Length` exceeded [`Limits::max_body_bytes`].
    BodyTooLarge,
    /// The request used `Transfer-Encoding`, which this parser does not
    /// implement.
    TransferEncodingUnsupported,
    /// The HTTP version was not 1.0 or 1.1.
    VersionUnsupported,
}

impl HttpError {
    /// The status code of the well-formed error response to send back.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::TransferEncodingUnsupported => 501,
            HttpError::VersionUnsupported => 505,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(why) => write!(f, "malformed request: {why}"),
            HttpError::HeadTooLarge => write!(f, "header block too large"),
            HttpError::BodyTooLarge => write!(f, "declared body too large"),
            HttpError::TransferEncodingUnsupported => {
                write!(f, "transfer-encoding is not supported")
            }
            HttpError::VersionUnsupported => write!(f, "unsupported HTTP version"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Incremental request parser (see the [module docs](self)).
///
/// One parser per connection; pipelined requests in one buffer come out
/// in order. After an `Err` the connection is unusable (framing is lost)
/// — write the error response and close.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    start: usize,
    limits: Limits,
}

/// Consumed-prefix length beyond which the parser compacts its buffer.
const COMPACT_AT: usize = 16 * 1024;

impl RequestParser {
    /// A parser with default [`Limits`].
    pub fn new() -> Self {
        Self::with_limits(Limits::default())
    }

    /// A parser with explicit limits.
    pub fn with_limits(limits: Limits) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            limits,
        }
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Parses the next complete request, or `Ok(None)` if more bytes are
    /// needed.
    #[allow(clippy::should_implement_trait)] // None = "need more", not "done"
    pub fn next(&mut self) -> Result<Option<Request>, HttpError> {
        let avail = &self.buf[self.start..];
        let Some(head_len) = find_head_end(avail) else {
            if avail.len() > self.limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            return Ok(None);
        };
        if head_len > self.limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        let head = std::str::from_utf8(&avail[..head_len - 4])
            .map_err(|_| HttpError::BadRequest("head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(HttpError::BadRequest("empty head"))?;
        let (method, target) = parse_request_line(request_line)?;
        let mut headers = Vec::new();
        let mut content_length: usize = 0;
        let mut saw_content_length = false;
        for line in lines {
            if line.starts_with(' ') || line.starts_with('\t') {
                return Err(HttpError::BadRequest("obsolete header folding"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or(HttpError::BadRequest("header without a colon"))?;
            if name.is_empty() || name.contains(' ') || name.contains('\t') {
                return Err(HttpError::BadRequest("malformed header name"));
            }
            let name = name.to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "transfer-encoding" {
                return Err(HttpError::TransferEncodingUnsupported);
            }
            if name == "content-length" {
                // Conflicting duplicates desynchronize framing (request
                // smuggling behind a proxy); reject rather than pick one.
                if saw_content_length {
                    return Err(HttpError::BadRequest("duplicate content-length"));
                }
                saw_content_length = true;
                content_length = value
                    .parse::<usize>()
                    .map_err(|_| HttpError::BadRequest("unparseable content-length"))?;
                if content_length > self.limits.max_body_bytes {
                    return Err(HttpError::BodyTooLarge);
                }
            }
            headers.push((name, value));
        }
        let total = head_len + content_length;
        if avail.len() < total {
            return Ok(None);
        }
        let body = avail[head_len..total].to_vec();
        self.start += total;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(Request {
            method,
            target,
            headers,
            body,
        }))
    }
}

/// Index one past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

fn parse_request_line(line: &str) -> Result<(Method, String), HttpError> {
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(HttpError::BadRequest("malformed method"))?;
    let target = parts
        .next()
        .ok_or(HttpError::BadRequest("missing request target"))?;
    if target.is_empty() || target.contains(|c: char| c.is_ascii_control()) {
        return Err(HttpError::BadRequest("malformed request target"));
    }
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequest("extra request-line fields"));
    }
    match version {
        "HTTP/1.1" | "HTTP/1.0" => {}
        v if v.starts_with("HTTP/") => return Err(HttpError::VersionUnsupported),
        _ => return Err(HttpError::BadRequest("malformed HTTP version")),
    }
    Ok((method, target.to_string()))
}

/// The standard reason phrase for the status codes the server emits.
pub(crate) fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// A response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length` and `Content-Type`.
    pub headers: Vec<(String, String)>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// The canonical error body for `status`:
    /// `{"error":"<reason phrase>","detail":"<detail>"}`.
    pub fn error(status: u16, detail: &str) -> Self {
        Self::json(
            status,
            format!(
                "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
                status_reason(status),
                escape_json(detail)
            ),
        )
    }

    /// Appends the serialized response (status line, headers,
    /// `Content-Length`, body) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\n",
                self.status,
                status_reason(self.status)
            )
            .as_bytes(),
        );
        for (k, v) in &self.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Type: {}\r\n", self.content_type).as_bytes());
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(&self.body);
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed response, for test harnesses and the load generator (the
/// server never parses responses itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl ParsedResponse {
    /// The body as UTF-8, lossily.
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Parses one complete response from the front of `buf`, returning it and
/// the bytes consumed, or `Ok(None)` when more bytes are needed. Like the
/// request parser this handles only `Content-Length` bodies.
pub fn parse_response(buf: &[u8]) -> Result<Option<(ParsedResponse, usize)>, HttpError> {
    let Some(head_len) = find_head_end(buf) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len - 4])
        .map_err(|_| HttpError::BadRequest("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(HttpError::BadRequest("empty head"))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("malformed status line"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(HttpError::BadRequest("malformed status code"))?;
    let mut headers = Vec::new();
    let mut content_length: usize = 0;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadRequest("header without a colon"))?;
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest("unparseable content-length"))?;
        }
        headers.push((name, value));
    }
    let total = head_len + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        ParsedResponse {
            status,
            headers,
            body: buf[head_len..total].to_vec(),
        },
        total,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut p = RequestParser::new();
        p.extend(bytes);
        p.next()
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse_one(b"GET /jobs/3?verbose=1 HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target, "/jobs/3?verbose=1");
        assert_eq!(req.path(), "/jobs/3");
        assert_eq!(req.path_segments(), vec!["jobs", "3"]);
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse_one(b"POST /jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let wire = b"DELETE /jobs/9 HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let mut p = RequestParser::new();
        for (i, &b) in wire.iter().enumerate() {
            p.extend(&[b]);
            let got = p.next().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "complete at byte {i}?");
            } else {
                let req = got.unwrap();
                assert_eq!(req.method, Method::Delete);
                assert_eq!(req.body, b"ok");
            }
        }
        assert_eq!(p.pending_bytes(), 0);
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut p = RequestParser::new();
        p.extend(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(p.next().unwrap().unwrap().target, "/a");
        assert_eq!(p.next().unwrap().unwrap().target, "/b");
        assert!(p.next().unwrap().is_none());
    }

    #[test]
    fn rejects_duplicate_content_length_with_400() {
        // Conflicting or repeated values must not pick a winner: that
        // desynchronizes framing with any proxy in front of us.
        for bad in [
            &b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nabcd"[..],
            b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
        ] {
            assert_eq!(parse_one(bad).unwrap_err().status(), 400, "{bad:?}");
        }
    }

    #[test]
    fn rejects_transfer_encoding_with_501() {
        let err =
            parse_one(b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::TransferEncodingUnsupported);
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn rejects_oversized_declared_body_with_413() {
        let mut p = RequestParser::with_limits(Limits {
            max_head_bytes: 1024,
            max_body_bytes: 10,
        });
        p.extend(b"POST /jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\n");
        assert_eq!(p.next().unwrap_err().status(), 413);
    }

    #[test]
    fn rejects_runaway_head_with_431() {
        let mut p = RequestParser::with_limits(Limits {
            max_head_bytes: 64,
            max_body_bytes: 10,
        });
        p.extend(b"GET / HTTP/1.1\r\n");
        for _ in 0..20 {
            p.extend(b"X-Pad: aaaaaaaaaaaaaaaa\r\n");
        }
        assert_eq!(p.next().unwrap_err().status(), 431);
    }

    #[test]
    fn rejects_malformed_request_lines_with_400() {
        for bad in [
            &b"GET\r\n\r\n"[..],
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / FTP/1.1\r\n\r\n",
            b"GET  HTTP/1.1\r\n\r\n",
        ] {
            assert_eq!(parse_one(bad).unwrap_err().status(), 400, "{bad:?}");
        }
        assert_eq!(
            parse_one(b"GET / HTTP/2.0\r\n\r\n").unwrap_err().status(),
            505
        );
    }

    #[test]
    fn unknown_method_is_syntactically_ok() {
        let req = parse_one(b"PATCH /jobs/1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Other);
    }

    #[test]
    fn response_encodes_with_content_length() {
        let mut out = Vec::new();
        Response::json(201, "{\"job\":1}").encode(&mut out);
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"));
        assert!(text.contains("Content-Length: 9\r\n"));
        assert!(text.ends_with("{\"job\":1}"));
        let (parsed, consumed) = parse_response(&out).unwrap().unwrap();
        assert_eq!(consumed, out.len());
        assert_eq!(parsed.status, 201);
        assert_eq!(parsed.body_str(), "{\"job\":1}");
    }

    #[test]
    fn error_response_escapes_detail() {
        let resp = Response::error(400, "bad \"quote\"\nline");
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("bad \\\"quote\\\"\\nline"));
    }

    #[test]
    fn response_reassembles_from_partial_buffers() {
        let mut out = Vec::new();
        Response::text(200, "abc").encode(&mut out);
        for cut in 0..out.len() {
            assert!(parse_response(&out[..cut]).unwrap().is_none(), "cut {cut}");
        }
    }
}
