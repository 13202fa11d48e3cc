//! A length-prefixed binary frame codec for the driver↔executor protocol.
//!
//! The simulated engine delivers [`Message`] values in memory; the live
//! runtime (`sae-live`) moves the *same* values across real TCP sockets,
//! which is where the paper's protocol extension (§5.4) meets
//! serialization for the first time. The wire format is deliberately tiny
//! and hand-rolled — no external serialization framework is pulled in:
//!
//! ```text
//! frame := [body_len: u32 BE] [body: body_len bytes]
//! body  := [tag: u8] [field: u64 BE]*
//! ```
//!
//! Every [`Message`] variant gets one tag byte followed by its fields as
//! big-endian `u64`s, so encodings are fixed-size per variant and
//! trivially auditable. Decoding is *total*: malformed input — an unknown
//! tag, a frame whose declared length does not match its variant, or a
//! length prefix beyond [`MAX_BODY_LEN`] — returns a [`FrameError`], never
//! panics, and an incomplete buffer simply reports "need more bytes"
//! ([`decode_frame`] returning `Ok(None)`), which is what a streaming
//! socket reader wants.
//!
//! The framing helpers ([`split_frame`], [`put_u64`], [`get_u64`]) are
//! public so higher layers (the live runtime's control envelope) can embed
//! message bodies in their own tag space without reinventing the framing.

use std::fmt;

use crate::Message;

/// Size of the `u32` length prefix in bytes.
pub const LEN_PREFIX: usize = 4;

/// Maximum accepted frame body length in bytes.
///
/// Protocol messages are tens of bytes; anything larger is a corrupt or
/// hostile length prefix and is rejected before any allocation happens.
pub const MAX_BODY_LEN: usize = 4096;

const TAG_ASSIGN_TASK: u8 = 0;
const TAG_POOL_SIZE_CHANGED: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_TASK_FAILED: u8 = 3;

/// Why a buffer failed to decode. Malformed input is always reported
/// through this type — the codec never panics on wire data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_BODY_LEN`].
    Oversized {
        /// Declared body length.
        len: usize,
    },
    /// The body's first byte is not a known message tag.
    UnknownTag(u8),
    /// The body is shorter than its variant's fixed field layout.
    Truncated {
        /// Bytes the variant requires.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The body is longer than its variant's fixed field layout.
    TrailingBytes {
        /// Surplus bytes after the last field.
        extra: usize,
    },
    /// A `u64` field does not fit this platform's `usize`.
    FieldOverflow(u64),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds the {MAX_BODY_LEN}-byte cap"
                )
            }
            FrameError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame body: needed {needed} bytes, got {got}")
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            FrameError::FieldOverflow(v) => {
                write!(f, "field value {v} does not fit a usize")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends `v` to `out` as a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Reads the big-endian `u64` at byte offset `at` of `body`.
pub fn get_u64(body: &[u8], at: usize) -> Result<u64, FrameError> {
    let end = at.checked_add(8).ok_or(FrameError::Truncated {
        needed: usize::MAX,
        got: body.len(),
    })?;
    let bytes = body.get(at..end).ok_or(FrameError::Truncated {
        needed: end,
        got: body.len(),
    })?;
    Ok(u64::from_be_bytes(bytes.try_into().expect("8-byte slice")))
}

/// Reads the `u64` at offset `at` and converts it to `usize`.
pub fn get_usize(body: &[u8], at: usize) -> Result<usize, FrameError> {
    let v = get_u64(body, at)?;
    usize::try_from(v).map_err(|_| FrameError::FieldOverflow(v))
}

/// The cross-process trace correlation key: everything needed to place an
/// event from *any* process of a fleet onto one causally-ordered timeline.
///
/// Executors stamp per-task telemetry frames with this key; receivers
/// (driver or job server) use it to merge events from many OS processes
/// into a single Perfetto trace incrementally, while the run is still in
/// flight, instead of waiting for a shutdown-time journal merge.
///
/// Encoded as five consecutive big-endian `u64` fields — see
/// [`TraceKey::encode`] / [`TraceKey::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// The job the event belongs to.
    pub job: u64,
    /// Stage index within the job.
    pub stage: usize,
    /// Task index within the stage.
    pub task: usize,
    /// Attempt number of the task execution. The live executor has no
    /// attempt ordinal to stamp and always sends 0.
    pub attempt: usize,
    /// The executor incarnation (registration epoch) that produced the
    /// event — what distinguishes a span from a pre-crash incarnation.
    pub epoch: u64,
}

impl TraceKey {
    /// The key's encoded width: five `u64` fields.
    pub const FIELDS: usize = 5;

    /// Appends the key's five fields to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.job);
        put_u64(out, self.stage as u64);
        put_u64(out, self.task as u64);
        put_u64(out, self.attempt as u64);
        put_u64(out, self.epoch);
    }

    /// Reads a key from byte offset `at` of `body`.
    pub fn decode(body: &[u8], at: usize) -> Result<Self, FrameError> {
        Ok(Self {
            job: get_u64(body, at)?,
            stage: get_usize(body, at + 8)?,
            task: get_usize(body, at + 16)?,
            attempt: get_usize(body, at + 24)?,
            epoch: get_u64(body, at + 32)?,
        })
    }
}

/// Appends the tag-and-fields body of `msg` to `out` (no length prefix).
pub fn encode_body(msg: &Message, out: &mut Vec<u8>) {
    match *msg {
        Message::AssignTask { task, executor } => {
            out.push(TAG_ASSIGN_TASK);
            put_u64(out, task as u64);
            put_u64(out, executor as u64);
        }
        Message::PoolSizeChanged { executor, size } => {
            out.push(TAG_POOL_SIZE_CHANGED);
            put_u64(out, executor as u64);
            put_u64(out, size as u64);
        }
        Message::Heartbeat { executor } => {
            out.push(TAG_HEARTBEAT);
            put_u64(out, executor as u64);
        }
        Message::TaskFailed {
            task,
            executor,
            attempt,
        } => {
            out.push(TAG_TASK_FAILED);
            put_u64(out, task as u64);
            put_u64(out, executor as u64);
            put_u64(out, attempt as u64);
        }
    }
}

/// Checks that `body` is exactly `1 + 8 * fields` bytes long.
fn expect_len(body: &[u8], fields: usize) -> Result<(), FrameError> {
    let needed = 1 + 8 * fields;
    match body.len() {
        got if got < needed => Err(FrameError::Truncated { needed, got }),
        got if got > needed => Err(FrameError::TrailingBytes {
            extra: got - needed,
        }),
        _ => Ok(()),
    }
}

/// Decodes a complete tag-and-fields body produced by [`encode_body`].
///
/// The body must match its variant's layout exactly; surplus or missing
/// bytes are errors (a stream codec must not guess where a frame ends).
pub fn decode_body(body: &[u8]) -> Result<Message, FrameError> {
    let &tag = body
        .first()
        .ok_or(FrameError::Truncated { needed: 1, got: 0 })?;
    match tag {
        TAG_ASSIGN_TASK => {
            expect_len(body, 2)?;
            Ok(Message::AssignTask {
                task: get_usize(body, 1)?,
                executor: get_usize(body, 9)?,
            })
        }
        TAG_POOL_SIZE_CHANGED => {
            expect_len(body, 2)?;
            Ok(Message::PoolSizeChanged {
                executor: get_usize(body, 1)?,
                size: get_usize(body, 9)?,
            })
        }
        TAG_HEARTBEAT => {
            expect_len(body, 1)?;
            Ok(Message::Heartbeat {
                executor: get_usize(body, 1)?,
            })
        }
        TAG_TASK_FAILED => {
            expect_len(body, 3)?;
            Ok(Message::TaskFailed {
                task: get_usize(body, 1)?,
                executor: get_usize(body, 9)?,
                attempt: get_usize(body, 17)?,
            })
        }
        other => Err(FrameError::UnknownTag(other)),
    }
}

/// Appends a full length-prefixed frame for `msg` to `out`.
pub fn encode_frame(msg: &Message, out: &mut Vec<u8>) {
    let len_at = out.len();
    out.extend_from_slice(&[0; LEN_PREFIX]);
    encode_body(msg, out);
    let body_len = out.len() - len_at - LEN_PREFIX;
    debug_assert!(body_len <= MAX_BODY_LEN);
    out[len_at..len_at + LEN_PREFIX].copy_from_slice(&(body_len as u32).to_be_bytes());
}

/// Splits the first complete frame off `buf`, returning its body and the
/// total bytes consumed (prefix + body).
///
/// Returns `Ok(None)` when the buffer holds only part of a frame — read
/// more bytes and retry. This is the generic framing layer: callers decide
/// what the body means (the live runtime reuses it for its own envelope).
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some(prefix) = buf.get(..LEN_PREFIX) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(prefix.try_into().expect("4-byte slice")) as usize;
    if len > MAX_BODY_LEN {
        return Err(FrameError::Oversized { len });
    }
    match buf.get(LEN_PREFIX..LEN_PREFIX + len) {
        Some(body) => Ok(Some((body, LEN_PREFIX + len))),
        None => Ok(None),
    }
}

/// Decodes the first complete [`Message`] frame in `buf`, returning the
/// message and the bytes consumed, or `Ok(None)` if more bytes are needed.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Message, usize)>, FrameError> {
    match split_frame(buf)? {
        Some((body, consumed)) => Ok(Some((decode_body(body)?, consumed))),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Message> {
        vec![
            Message::AssignTask {
                task: 7,
                executor: 3,
            },
            Message::PoolSizeChanged {
                executor: 1,
                size: 16,
            },
            Message::Heartbeat { executor: 0 },
            Message::TaskFailed {
                task: 12,
                executor: 2,
                attempt: 1,
            },
        ]
    }

    #[test]
    fn frame_round_trip_all_variants() {
        for msg in all_variants() {
            let mut buf = Vec::new();
            encode_frame(&msg, &mut buf);
            let (decoded, consumed) = decode_frame(&buf).unwrap().unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(consumed, buf.len());
        }
    }

    #[test]
    fn stream_of_frames_decodes_in_order() {
        let mut buf = Vec::new();
        for msg in all_variants() {
            encode_frame(&msg, &mut buf);
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while let Some((msg, consumed)) = decode_frame(&buf[offset..]).unwrap() {
            decoded.push(msg);
            offset += consumed;
        }
        assert_eq!(decoded, all_variants());
        assert_eq!(offset, buf.len());
    }

    #[test]
    fn incomplete_buffer_asks_for_more() {
        let mut buf = Vec::new();
        encode_frame(&Message::Heartbeat { executor: 5 }, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode_frame(&buf[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_BODY_LEN as u32) + 1).to_be_bytes());
        assert_eq!(
            decode_frame(&buf),
            Err(FrameError::Oversized {
                len: MAX_BODY_LEN + 1
            })
        );
    }

    #[test]
    fn truncated_body_rejected() {
        // A heartbeat frame whose declared length lies about the payload.
        let mut body = vec![TAG_HEARTBEAT];
        body.extend_from_slice(&[0; 4]); // 4 of the 8 field bytes
        let mut buf = ((body.len()) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert_eq!(
            decode_frame(&buf),
            Err(FrameError::Truncated { needed: 9, got: 5 })
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = vec![TAG_HEARTBEAT];
        body.extend_from_slice(&[0; 10]); // 8 field bytes + 2 extra
        let mut buf = ((body.len()) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert_eq!(
            decode_frame(&buf),
            Err(FrameError::TrailingBytes { extra: 2 })
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        let body = [0xEEu8; 9];
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert_eq!(decode_frame(&buf), Err(FrameError::UnknownTag(0xEE)));
    }

    #[test]
    fn empty_body_rejected() {
        let buf = 0u32.to_be_bytes();
        assert_eq!(
            decode_frame(&buf),
            Err(FrameError::Truncated { needed: 1, got: 0 })
        );
    }

    #[test]
    fn trace_key_round_trips_at_any_offset() {
        let key = TraceKey {
            job: 42,
            stage: 3,
            task: 1_000_000,
            attempt: 2,
            epoch: 9,
        };
        for pad in [0usize, 1, 9] {
            let mut buf = vec![0xAA; pad];
            key.encode(&mut buf);
            assert_eq!(buf.len(), pad + 8 * TraceKey::FIELDS);
            assert_eq!(TraceKey::decode(&buf, pad).unwrap(), key);
        }
        // Truncated buffers report "need more", never panic.
        let mut buf = Vec::new();
        key.encode(&mut buf);
        assert!(TraceKey::decode(&buf[..buf.len() - 1], 0).is_err());
    }

    #[test]
    fn errors_display_without_panicking() {
        for e in [
            FrameError::Oversized { len: 1 << 20 },
            FrameError::UnknownTag(9),
            FrameError::Truncated { needed: 9, got: 2 },
            FrameError::TrailingBytes { extra: 3 },
            FrameError::FieldOverflow(u64::MAX),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
