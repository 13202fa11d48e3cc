//! Sans-io chunked `Transfer-Encoding` **responses** and Server-Sent
//! Events (SSE) framing — the streaming half of the control plane.
//!
//! [`crate::http`] deliberately rejects chunked *requests* (501): job
//! submissions are small and `Content-Length`-framed. Responses are a
//! different story — `sae-server`'s `/events` endpoints push telemetry for
//! the lifetime of a connection, so their length is unknowable up front.
//! This module provides the encoding side the server's reactor writes
//! ([`StreamEncoder`]), the SSE frame vocabulary layered on top
//! ([`SseFrame`]), and the matching sans-io decoders ([`ChunkedDecoder`],
//! [`SseParser`]) that test harnesses, the bench load generator, and the
//! `sae-top` dashboard consume.
//!
//! Everything here is pure byte-shuffling in the tradition of the
//! request parser: no I/O, no panics on arbitrary input, truncation is
//! "need more bytes" rather than an error, and re-chunking is invisible —
//! a stream split at any byte boundary reassembles identically.
//!
//! # Examples
//!
//! ```
//! use sae_net::sse::{ChunkedDecoder, SseFrame, SseParser, StreamEncoder};
//!
//! let mut enc = StreamEncoder::sse(200);
//! let mut wire = Vec::new();
//! enc.head(&mut wire);
//! enc.frame(
//!     &SseFrame::new("{\"job\":1}").with_id("7").with_event("journal"),
//!     &mut wire,
//! );
//! enc.finish(&mut wire);
//!
//! // The receiving side: strip the chunked framing, then parse frames.
//! let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
//! let mut chunks = ChunkedDecoder::new();
//! chunks.extend(&wire[head_end..]);
//! let mut frames = SseParser::new();
//! while let Some(payload) = chunks.next_chunk().unwrap() {
//!     frames.extend(&payload);
//! }
//! let frame = frames.next_frame().unwrap();
//! assert_eq!(frame.id.as_deref(), Some("7"));
//! assert_eq!(frame.event.as_deref(), Some("journal"));
//! assert_eq!(frame.data, "{\"job\":1}");
//! ```

use crate::http::{status_reason, HttpError};

/// Upper bound on a single chunk's declared size. Far above anything the
/// server emits (SSE frames are small JSON objects); a larger declaration
/// is a corrupt or hostile size line and is rejected before allocation.
pub(crate) const MAX_CHUNK_LEN: usize = 4 * 1024 * 1024;

/// Upper bound on one SSE frame's accumulated size in [`SseParser`].
pub(crate) const MAX_SSE_FRAME: usize = 1024 * 1024;

/// Encoder for one streaming (chunked) HTTP/1.1 response.
///
/// Usage is `head` once, then any number of `frame` calls, then
/// `finish`. The encoder is sans-io: every method appends bytes to a
/// caller-owned buffer, which is what lets the server's reactor splice
/// stream output into the same per-connection write queues (and the same
/// high-water backpressure) that wire frames use.
#[derive(Debug, Clone)]
pub struct StreamEncoder {
    status: u16,
}

impl StreamEncoder {
    /// An encoder for a Server-Sent-Events response: `text/event-stream`,
    /// `Cache-Control: no-cache` (intermediaries must not buffer or replay
    /// a live feed).
    pub fn sse(status: u16) -> Self {
        Self { status }
    }

    /// Appends the response head: status line, `Cache-Control`,
    /// `Content-Type`, `Transfer-Encoding: chunked`, and **no**
    /// `Content-Length` — the body's length is open-ended by construction.
    pub fn head(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\n",
                self.status,
                status_reason(self.status)
            )
            .as_bytes(),
        );
        out.extend_from_slice(
            b"Cache-Control: no-cache\r\n\
              Content-Type: text/event-stream\r\n\
              Transfer-Encoding: chunked\r\n\r\n",
        );
    }

    /// Encodes `frame` as SSE wire text and appends it as one chunk.
    pub fn frame(&self, frame: &SseFrame, out: &mut Vec<u8>) {
        let mut payload = Vec::with_capacity(frame.data.len() + 32);
        frame.encode(&mut payload);
        encode_chunk(&payload, out);
    }

    /// Appends the terminal zero-length chunk, ending the response.
    pub fn finish(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"0\r\n\r\n");
    }
}

/// Appends one chunk of a chunked body: `{len:x}\r\n{data}\r\n`.
/// Empty data is skipped (a zero-length chunk is the stream terminator).
pub fn encode_chunk(data: &[u8], out: &mut Vec<u8>) {
    if data.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// One Server-Sent-Events frame: optional `id` and `event` lines plus the
/// `data` payload. Multi-line data encodes as one `data:` line per line,
/// which the parser on the far side rejoins — the SSE wire format's way
/// of carrying newlines.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SseFrame {
    /// The frame's `id:` field — what a reconnecting client echoes back
    /// in `Last-Event-ID`.
    pub id: Option<String>,
    /// The frame's `event:` field (event type).
    pub event: Option<String>,
    /// The payload (joined from `data:` lines).
    pub data: String,
}

impl SseFrame {
    /// A frame carrying `data` with no id or event type.
    pub fn new(data: impl Into<String>) -> Self {
        Self {
            id: None,
            event: None,
            data: data.into(),
        }
    }

    /// Sets the `id:` field. Carriage returns and newlines are stripped —
    /// they would break framing.
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = Some(sanitize_field(&id.into()));
        self
    }

    /// Sets the `event:` field, sanitized like [`SseFrame::with_id`].
    pub fn with_event(mut self, event: impl Into<String>) -> Self {
        self.event = Some(sanitize_field(&event.into()));
        self
    }

    /// Appends the frame's SSE wire text: `id:`/`event:` lines, one
    /// `data:` line per payload line, and the blank-line terminator.
    pub fn encode(&self, out: &mut Vec<u8>) {
        if let Some(id) = &self.id {
            out.extend_from_slice(b"id: ");
            out.extend_from_slice(id.as_bytes());
            out.push(b'\n');
        }
        if let Some(event) = &self.event {
            out.extend_from_slice(b"event: ");
            out.extend_from_slice(event.as_bytes());
            out.push(b'\n');
        }
        // "".lines() yields nothing, but an SSE frame with no data line is
        // legal and dispatches with empty data; always emit at least one.
        let mut any = false;
        for line in self.data.split('\n') {
            out.extend_from_slice(b"data: ");
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
            any = true;
        }
        if !any {
            out.extend_from_slice(b"data: \n");
        }
        out.push(b'\n');
    }
}

/// Strips the characters that would break SSE line framing.
fn sanitize_field(s: &str) -> String {
    s.chars().filter(|&c| c != '\n' && c != '\r').collect()
}

/// Sans-io decoder for a chunked response *body* (everything after the
/// head). Feed bytes with [`extend`], pull decoded chunk payloads with
/// [`next_chunk`]; [`finished`] turns true once the terminal chunk (and
/// any trailer section) has been consumed.
///
/// [`extend`]: ChunkedDecoder::extend
/// [`next_chunk`]: ChunkedDecoder::next_chunk
/// [`finished`]: ChunkedDecoder::finished
#[derive(Debug, Default)]
pub struct ChunkedDecoder {
    buf: Vec<u8>,
    start: usize,
    finished: bool,
}

/// Consumed-prefix length beyond which the decoder compacts its buffer.
const COMPACT_AT: usize = 16 * 1024;

impl ChunkedDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly received body bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the terminal chunk has been consumed.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Bytes buffered but not yet decoded.
    pub(crate) fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next chunk's payload, or `Ok(None)` when more bytes
    /// are needed **or** the stream already ended (check [`finished`]).
    ///
    /// [`finished`]: ChunkedDecoder::finished
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, HttpError> {
        loop {
            if self.finished {
                return Ok(None);
            }
            let avail = &self.buf[self.start..];
            let Some(line_end) = find_crlf(avail) else {
                if avail.len() > 18 {
                    // A chunk-size line is at most 16 hex digits plus an
                    // extension we do not accept; a longer prefix with no
                    // CRLF cannot become valid.
                    return Err(HttpError::BadRequest("runaway chunk size line"));
                }
                return Ok(None);
            };
            let size = parse_chunk_size(&avail[..line_end])?;
            if size > MAX_CHUNK_LEN {
                return Err(HttpError::BodyTooLarge);
            }
            if size == 0 {
                // Terminal chunk. Consume trailer lines (we emit none, but
                // accept them) up to the blank line that ends the body.
                let after = line_end + 2;
                let mut at = after;
                loop {
                    let rest = &avail[at.min(avail.len())..];
                    let Some(end) = find_crlf(rest) else {
                        return Ok(None); // need more bytes
                    };
                    if end == 0 {
                        // Blank line: body complete.
                        self.start += at + 2;
                        self.finished = true;
                        self.compact();
                        return Ok(None);
                    }
                    at += end + 2;
                }
            }
            let data_at = line_end + 2;
            // Payload plus its trailing CRLF must be fully buffered.
            if avail.len() < data_at + size + 2 {
                return Ok(None);
            }
            if &avail[data_at + size..data_at + size + 2] != b"\r\n" {
                return Err(HttpError::BadRequest("chunk data not CRLF-terminated"));
            }
            let payload = avail[data_at..data_at + size].to_vec();
            self.start += data_at + size + 2;
            self.compact();
            if payload.is_empty() {
                continue; // unreachable (size==0 handled), defensive
            }
            return Ok(Some(payload));
        }
    }

    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Index of the first CRLF in `buf`, if any.
fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// Parses a chunk-size line: hex digits, optionally followed by a `;`
/// chunk extension (ignored).
fn parse_chunk_size(line: &[u8]) -> Result<usize, HttpError> {
    let line = std::str::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("chunk size line is not UTF-8"))?;
    let digits = line.split(';').next().unwrap_or("").trim();
    if digits.is_empty() || digits.len() > 16 {
        return Err(HttpError::BadRequest("malformed chunk size"));
    }
    usize::from_str_radix(digits, 16).map_err(|_| HttpError::BadRequest("malformed chunk size"))
}

/// Sans-io SSE stream parser: feed it decoded body bytes, pull complete
/// [`SseFrame`]s. Comment lines (`:` prefix) are skipped, unknown fields
/// ignored, and multi-line `data:` values rejoined with `\n` — the
/// subset of the WHATWG dispatch rules a telemetry consumer needs.
#[derive(Debug, Default)]
pub struct SseParser {
    buf: Vec<u8>,
    start: usize,
}

impl SseParser {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends decoded (de-chunked) stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Parses the next complete frame (terminated by a blank line), or
    /// `None` when more bytes are needed. Frames whose fields are all
    /// empty (pure comment / keep-alive frames) are skipped.
    pub fn next_frame(&mut self) -> Option<SseFrame> {
        loop {
            let avail = &self.buf[self.start..];
            // A frame ends at the first blank line ("\n\n"); tolerate CRLF.
            let mut end = None;
            let mut prev_blank_at = None;
            for (i, &b) in avail.iter().enumerate() {
                if b != b'\n' {
                    continue;
                }
                let line_start = prev_blank_at.map(|p: usize| p + 1).unwrap_or(0);
                let line = &avail[line_start..i];
                let line = strip_cr(line);
                if line.is_empty() {
                    end = Some(i + 1);
                    break;
                }
                prev_blank_at = Some(i);
            }
            let end = match end {
                Some(e) => e,
                None => {
                    if avail.len() > MAX_SSE_FRAME {
                        // Runaway frame: drop the buffer rather than grow
                        // without bound. The stream is best-effort telemetry.
                        self.buf.clear();
                        self.start = 0;
                    }
                    return None;
                }
            };
            let text = avail[..end].to_vec();
            self.start += end;
            if self.start == self.buf.len() {
                self.buf.clear();
                self.start = 0;
            } else if self.start > COMPACT_AT {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut frame = SseFrame::default();
            let mut data_lines: Vec<String> = Vec::new();
            for raw in text.split(|&b| b == b'\n') {
                let line = strip_cr(raw);
                if line.is_empty() || line.first() == Some(&b':') {
                    continue;
                }
                let line = String::from_utf8_lossy(line);
                let (field, value) = match line.split_once(':') {
                    Some((f, v)) => (f, v.strip_prefix(' ').unwrap_or(v)),
                    None => (line.as_ref(), ""),
                };
                match field {
                    "id" => frame.id = Some(value.to_string()),
                    "event" => frame.event = Some(value.to_string()),
                    "data" => data_lines.push(value.to_string()),
                    _ => {}
                }
            }
            if frame.id.is_none() && frame.event.is_none() && data_lines.is_empty() {
                continue; // comment-only frame: nothing to dispatch
            }
            frame.data = data_lines.join("\n");
            return Some(frame);
        }
    }
}

/// Strips one trailing `\r`, if present.
fn strip_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// A fully decoded streaming response, for one-shot test harnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedStream {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The de-chunked body.
    pub body: Vec<u8>,
}

/// Parses one complete chunked response (head + every chunk + terminator)
/// from the front of `buf`, returning it and the bytes consumed, or
/// `Ok(None)` when more bytes are needed — the streaming analogue of
/// [`crate::http::parse_response`].
pub fn parse_chunked_response(buf: &[u8]) -> Result<Option<(ParsedStream, usize)>, HttpError> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| HttpError::BadRequest("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(HttpError::BadRequest("empty head"))?;
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next().unwrap_or("").starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("malformed status line"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(HttpError::BadRequest("malformed status code"))?;
    let mut headers = Vec::new();
    let mut chunked = false;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadRequest("header without a colon"))?;
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        }
        headers.push((name, value));
    }
    if !chunked {
        return Err(HttpError::BadRequest("response is not chunked"));
    }
    let mut dec = ChunkedDecoder::new();
    dec.extend(&buf[head_end..]);
    let mut body = Vec::new();
    while let Some(chunk) = dec.next_chunk()? {
        body.extend_from_slice(&chunk);
    }
    if !dec.finished() {
        return Ok(None);
    }
    let consumed = head_end + (buf.len() - head_end - dec.pending_bytes());
    Ok(Some((
        ParsedStream {
            status,
            headers,
            body,
        },
        consumed,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(wire: &[u8]) -> (Vec<Vec<u8>>, bool) {
        let mut dec = ChunkedDecoder::new();
        dec.extend(wire);
        let mut chunks = Vec::new();
        while let Some(c) = dec.next_chunk().unwrap() {
            chunks.push(c);
        }
        (chunks, dec.finished())
    }

    #[test]
    fn chunks_round_trip() {
        let mut wire = Vec::new();
        encode_chunk(b"hello", &mut wire);
        encode_chunk(b"", &mut wire); // skipped, not a terminator
        encode_chunk(&[0u8; 300], &mut wire);
        wire.extend_from_slice(b"0\r\n\r\n");
        let (chunks, finished) = decode_all(&wire);
        assert_eq!(chunks, vec![b"hello".to_vec(), vec![0u8; 300]]);
        assert!(finished);
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let mut wire = Vec::new();
        encode_chunk(b"abc", &mut wire);
        encode_chunk(b"defgh", &mut wire);
        wire.extend_from_slice(b"0\r\n\r\n");
        let mut dec = ChunkedDecoder::new();
        let mut chunks = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            while let Some(c) = dec.next_chunk().unwrap() {
                chunks.push(c);
            }
        }
        assert_eq!(chunks, vec![b"abc".to_vec(), b"defgh".to_vec()]);
        assert!(dec.finished());
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn trailers_are_skipped() {
        let wire = b"3\r\nabc\r\n0\r\nX-Trailer: 1\r\n\r\n";
        let (chunks, finished) = decode_all(wire);
        assert_eq!(chunks, vec![b"abc".to_vec()]);
        assert!(finished);
    }

    #[test]
    fn malformed_size_lines_rejected() {
        for bad in [&b"zz\r\nab\r\n"[..], b"\r\nab\r\n", b"3 3\r\nabc\r\n"] {
            let mut dec = ChunkedDecoder::new();
            dec.extend(bad);
            assert!(dec.next_chunk().is_err(), "{bad:?}");
        }
        // Oversized declaration rejected before buffering the payload.
        let mut dec = ChunkedDecoder::new();
        dec.extend(format!("{:x}\r\n", MAX_CHUNK_LEN + 1).as_bytes());
        assert_eq!(dec.next_chunk().unwrap_err(), HttpError::BodyTooLarge);
    }

    #[test]
    fn missing_data_crlf_rejected() {
        let mut dec = ChunkedDecoder::new();
        dec.extend(b"3\r\nabcXY");
        assert!(dec.next_chunk().is_err());
    }

    #[test]
    fn sse_frame_encodes_and_parses_multiline_data() {
        let frame = SseFrame::new("line1\nline2")
            .with_id("42")
            .with_event("log");
        let mut wire = Vec::new();
        frame.encode(&mut wire);
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("id: 42\n"));
        assert!(text.contains("event: log\n"));
        assert!(text.contains("data: line1\ndata: line2\n"));
        assert!(text.ends_with("\n\n"));
        let mut parser = SseParser::new();
        parser.extend(&wire);
        assert_eq!(parser.next_frame().unwrap(), frame);
        assert!(parser.next_frame().is_none());
    }

    #[test]
    fn sse_parser_skips_comments_and_unknown_fields() {
        let mut parser = SseParser::new();
        parser.extend(b": keep-alive\n\nretry: 100\nid: 1\ndata: x\n\n");
        let frame = parser.next_frame().unwrap();
        assert_eq!(frame.id.as_deref(), Some("1"));
        assert_eq!(frame.data, "x");
        assert!(parser.next_frame().is_none());
    }

    #[test]
    fn sse_field_sanitization_strips_newlines() {
        let frame = SseFrame::new("x").with_id("4\r\n2").with_event("a\nb");
        assert_eq!(frame.id.as_deref(), Some("42"));
        assert_eq!(frame.event.as_deref(), Some("ab"));
    }

    #[test]
    fn stream_encoder_emits_chunked_head_without_content_length() {
        let enc = StreamEncoder::sse(200);
        let mut out = Vec::new();
        enc.head(&mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 200 OK\r\n\
             Cache-Control: no-cache\r\n\
             Content-Type: text/event-stream\r\n\
             Transfer-Encoding: chunked\r\n\r\n"
        );
    }

    #[test]
    fn full_stream_round_trips_through_parse_chunked_response() {
        let enc = StreamEncoder::sse(200);
        let mut wire = Vec::new();
        enc.head(&mut wire);
        for i in 0..5 {
            enc.frame(
                &SseFrame::new(format!("{{\"n\":{i}}}")).with_id(i.to_string()),
                &mut wire,
            );
        }
        enc.finish(&mut wire);
        // Every strict prefix is incomplete, never an error.
        for cut in 0..wire.len() {
            assert!(
                parse_chunked_response(&wire[..cut]).unwrap().is_none(),
                "cut {cut}"
            );
        }
        let (parsed, consumed) = parse_chunked_response(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(parsed.status, 200);
        let mut frames = SseParser::new();
        frames.extend(&parsed.body);
        for i in 0..5 {
            let f = frames.next_frame().unwrap();
            assert_eq!(f.id.as_deref(), Some(i.to_string().as_str()));
            assert_eq!(f.data, format!("{{\"n\":{i}}}"));
        }
        assert!(frames.next_frame().is_none());
    }

    #[test]
    fn arbitrary_garbage_never_panics() {
        let mut dec = ChunkedDecoder::new();
        dec.extend(b"\xff\xfe garbage \r\n more \r\n\r\n");
        let _ = dec.next_chunk();
        let mut parser = SseParser::new();
        parser.extend(b"\xff\xfe: \n\ndata\n\n");
        while parser.next_frame().is_some() {}
    }
}
