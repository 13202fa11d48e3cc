//! The live runtime's control envelope over the `sae-dag` frame codec.
//!
//! Core protocol traffic ([`Message`]) is carried verbatim: a [`Frame::Core`]
//! body is one envelope tag byte followed by exactly the bytes
//! [`sae_dag::codec::encode_body`] produces, so the §5.4 messages have one
//! encoding whether they travel through the simulator's mailboxes or a TCP
//! socket. The envelope adds only what a real cluster needs around them —
//! executor registration, stage dissemination, task assignment and
//! outcome, shutdown — in the same `[tag u8][u64 BE]*` style, framed by
//! the same `[u32 BE length]` prefix ([`sae_dag::codec::split_frame`]).
//!
//! Executors speak one task dialect to both the single-job driver and the
//! job server: [`Frame::JobStageStart`] installs a stage,
//! [`Frame::AssignJobTask`] assigns one of its tasks and
//! [`Frame::JobTaskOutcome`] reports the attempt (the driver's job is
//! `crate::task::SINGLE_JOB`). The driver alone follows each stage
//! announcement with [`Frame::StageStart`], which opens a MAPE-K episode.
//! `Message::AssignTask` and `Message::TaskFailed` still decode, so
//! decoding stays total, but only the simulator sends them.
//!
//! Like the core codec, decoding is total: malformed bytes produce a
//! [`FrameError`], never a panic, and a partial buffer reports "need more
//! bytes" so [`FrameReader`] can keep streaming.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use sae_dag::codec::{self, FrameError, TraceKey, LEN_PREFIX};
use sae_dag::Message;

use crate::job::LiveStageKind;
use crate::shell::READ_CHUNK;

/// Envelope tag: a core [`Message`] body follows.
const TAG_CORE: u8 = 0x10;
/// Envelope tag: executor registration.
const TAG_REGISTER: u8 = 0x11;
/// Envelope tag: the driver opens a MAPE-K episode.
const TAG_STAGE_START: u8 = 0x12;
/// Envelope tag: driver tells executors the job is over.
const TAG_SHUTDOWN: u8 = 0x14;
/// Envelope tag: driver tells executors a peer was declared lost.
const TAG_FAULT_NOTICE: u8 = 0x15;
/// Envelope tag: one job's stage is announced.
const TAG_JOB_STAGE_START: u8 = 0x16;
/// Envelope tag: one task of one job is assigned.
const TAG_ASSIGN_JOB_TASK: u8 = 0x17;
/// Envelope tag: an executor reports a job-task attempt's outcome.
const TAG_JOB_TASK_OUTCOME: u8 = 0x18;
/// Envelope tag: the job server retires a job (completed or cancelled).
const TAG_JOB_END: u8 = 0x19;
/// Envelope tag: an executor reports one task attempt's execution span,
/// stamped with its full trace key.
const TAG_TASK_SPAN: u8 = 0x1A;
/// Envelope tag: an executor streams one closed MAPE-K interval's ζ.
const TAG_ZETA_SAMPLE: u8 = 0x1B;

/// One unit of driver↔executor traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// A core protocol message, exactly as the simulated engine sends it.
    Core(Message),
    /// First frame on every executor connection: who I am, how many slots
    /// I start with (the pool's initial thread count).
    Register {
        /// Executor id (dense, `0..n`).
        executor: usize,
        /// Initial slot count.
        slots: usize,
    },
    /// The driver opens a MAPE-K episode for a stage it has just
    /// announced with [`Frame::JobStageStart`]: executors book the
    /// finished stage's I/O, reset their probes and reset their pools.
    StageStart {
        /// Stage index within the job.
        stage: usize,
        /// Per-executor task-count hint fed to the MAPE-K controller.
        hint: usize,
    },
    /// The driver is done; executors drain and exit.
    Shutdown,
    /// The driver declared an executor lost and is redistributing its
    /// work. Surviving executors poison their current MAPE-K monitoring
    /// interval on receipt: measurements taken while a peer's tasks flood
    /// in do not describe the configured workload, so ζ comparisons over
    /// them would mislead the climb.
    FaultNotice {
        /// The executor that was declared lost.
        executor: usize,
    },
    /// The driver or the job server announces one job's current stage.
    /// It only installs the stage parameters task assignments for `job`
    /// will reference; it does not reset the executor's pool or probes
    /// (that is [`Frame::StageStart`]'s job, which only the driver sends).
    JobStageStart {
        /// Job id: server-assigned, or the driver's
        /// `crate::task::SINGLE_JOB`.
        job: u64,
        /// Stage index within the job.
        stage: usize,
        /// What the stage's tasks do.
        kind: LiveStageKind,
        /// Number of tasks in the stage.
        tasks: usize,
        /// Records each task generates or sorts.
        records_per_task: usize,
        /// Base RNG seed for the stage's data.
        seed: u64,
    },
    /// The driver or the job server assigns one task of one job's
    /// current stage.
    AssignJobTask {
        /// Job the task belongs to.
        job: u64,
        /// Task id within the job's current stage.
        task: usize,
    },
    /// An executor reports a task attempt finished, successfully or not.
    JobTaskOutcome {
        /// Job the task belongs to.
        job: u64,
        /// Task id within the job's stage.
        task: usize,
        /// Reporting executor.
        executor: usize,
        /// Attempt ordinal (0-based).
        attempt: usize,
        /// Whether the attempt succeeded.
        ok: bool,
    },
    /// The job server retires a job: completed, failed, or cancelled.
    /// Executors drop the job's stage entry; in-flight attempts of the
    /// job report their outcome and are ignored server-side.
    JobEnd {
        /// The retired job.
        job: u64,
    },
    /// An executor reports one task attempt's execution span, stamped
    /// with the full cross-process trace key. Pure telemetry: the
    /// receiver merges it into the live Perfetto timeline but never
    /// schedules off it (outcome frames remain the control path).
    TaskSpan {
        /// The (job, stage, task, attempt, epoch) correlation key.
        key: TraceKey,
        /// The executor that ran the attempt.
        executor: usize,
        /// Span start as [`f64::to_bits`] seconds since the executor's
        /// recorder epoch (bits, so the frame stays `Eq` and the value
        /// round-trips exactly).
        start_bits: u64,
        /// Span end, encoded like `start_bits`.
        end_bits: u64,
        /// Whether the attempt succeeded.
        ok: bool,
    },
    /// An executor streams one closed MAPE-K monitoring interval's ζ
    /// decision record as it happens, instead of (only) replaying the
    /// whole decision journal at shutdown. Receivers count admitted
    /// samples per executor so the shutdown-time replay skips what
    /// already streamed.
    ZetaSample {
        /// The reporting executor.
        executor: usize,
        /// Pool threads when the interval closed.
        threads: usize,
        /// ζ for the interval, as [`f64::to_bits`].
        zeta_bits: u64,
        /// Interval close time (seconds since the executor's recorder
        /// epoch), as [`f64::to_bits`].
        at_bits: u64,
    },
}

impl Frame {
    /// A short static name for the frame kind, used as the label of
    /// wire-level flight-recorder events and metrics.
    pub(crate) fn kind_str(&self) -> &'static str {
        match self {
            Frame::Core(Message::AssignTask { .. }) => "assign-task",
            Frame::Core(Message::PoolSizeChanged { .. }) => "pool-size-changed",
            Frame::Core(Message::Heartbeat { .. }) => "heartbeat",
            Frame::Core(Message::TaskFailed { .. }) => "task-failed",
            Frame::Register { .. } => "register",
            Frame::StageStart { .. } => "stage-start",
            Frame::Shutdown => "shutdown",
            Frame::FaultNotice { .. } => "fault-notice",
            Frame::JobStageStart { .. } => "job-stage-start",
            Frame::AssignJobTask { .. } => "assign-job-task",
            Frame::JobTaskOutcome { .. } => "job-task-outcome",
            Frame::JobEnd { .. } => "job-end",
            Frame::TaskSpan { .. } => "task-span",
            Frame::ZetaSample { .. } => "zeta-sample",
        }
    }

    /// Appends this frame, length prefix included, to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let len_at = out.len();
        out.extend_from_slice(&[0; LEN_PREFIX]);
        self.encode_body(out);
        let body_len = out.len() - len_at - LEN_PREFIX;
        out[len_at..len_at + LEN_PREFIX].copy_from_slice(&(body_len as u32).to_be_bytes());
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match *self {
            Frame::Core(msg) => {
                out.push(TAG_CORE);
                codec::encode_body(&msg, out);
            }
            Frame::Register { executor, slots } => {
                out.push(TAG_REGISTER);
                codec::put_u64(out, executor as u64);
                codec::put_u64(out, slots as u64);
            }
            Frame::StageStart { stage, hint } => {
                out.push(TAG_STAGE_START);
                codec::put_u64(out, stage as u64);
                codec::put_u64(out, hint as u64);
            }
            Frame::Shutdown => out.push(TAG_SHUTDOWN),
            Frame::FaultNotice { executor } => {
                out.push(TAG_FAULT_NOTICE);
                codec::put_u64(out, executor as u64);
            }
            Frame::JobStageStart {
                job,
                stage,
                kind,
                tasks,
                records_per_task,
                seed,
            } => {
                out.push(TAG_JOB_STAGE_START);
                codec::put_u64(out, job);
                codec::put_u64(out, stage as u64);
                codec::put_u64(out, kind.to_wire());
                codec::put_u64(out, tasks as u64);
                codec::put_u64(out, records_per_task as u64);
                codec::put_u64(out, seed);
            }
            Frame::AssignJobTask { job, task } => {
                out.push(TAG_ASSIGN_JOB_TASK);
                codec::put_u64(out, job);
                codec::put_u64(out, task as u64);
            }
            Frame::JobTaskOutcome {
                job,
                task,
                executor,
                attempt,
                ok,
            } => {
                out.push(TAG_JOB_TASK_OUTCOME);
                codec::put_u64(out, job);
                codec::put_u64(out, task as u64);
                codec::put_u64(out, executor as u64);
                codec::put_u64(out, attempt as u64);
                codec::put_u64(out, ok as u64);
            }
            Frame::JobEnd { job } => {
                out.push(TAG_JOB_END);
                codec::put_u64(out, job);
            }
            Frame::TaskSpan {
                key,
                executor,
                start_bits,
                end_bits,
                ok,
            } => {
                out.push(TAG_TASK_SPAN);
                key.encode(out);
                codec::put_u64(out, executor as u64);
                codec::put_u64(out, start_bits);
                codec::put_u64(out, end_bits);
                codec::put_u64(out, ok as u64);
            }
            Frame::ZetaSample {
                executor,
                threads,
                zeta_bits,
                at_bits,
            } => {
                out.push(TAG_ZETA_SAMPLE);
                codec::put_u64(out, executor as u64);
                codec::put_u64(out, threads as u64);
                codec::put_u64(out, zeta_bits);
                codec::put_u64(out, at_bits);
            }
        }
    }

    /// Decodes the first complete frame in `buf`, returning it and the
    /// bytes consumed, or `Ok(None)` when more bytes are needed.
    pub(crate) fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
        match codec::split_frame(buf)? {
            Some((body, consumed)) => Ok(Some((Self::decode_body(body)?, consumed))),
            None => Ok(None),
        }
    }

    fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let &tag = body
            .first()
            .ok_or(FrameError::Truncated { needed: 1, got: 0 })?;
        match tag {
            TAG_CORE => Ok(Frame::Core(codec::decode_body(&body[1..])?)),
            TAG_REGISTER => {
                expect_len(body, 2)?;
                Ok(Frame::Register {
                    executor: codec::get_usize(body, 1)?,
                    slots: codec::get_usize(body, 9)?,
                })
            }
            TAG_STAGE_START => {
                expect_len(body, 2)?;
                Ok(Frame::StageStart {
                    stage: codec::get_usize(body, 1)?,
                    hint: codec::get_usize(body, 9)?,
                })
            }
            TAG_SHUTDOWN => {
                expect_len(body, 0)?;
                Ok(Frame::Shutdown)
            }
            TAG_FAULT_NOTICE => {
                expect_len(body, 1)?;
                Ok(Frame::FaultNotice {
                    executor: codec::get_usize(body, 1)?,
                })
            }
            TAG_JOB_STAGE_START => {
                expect_len(body, 6)?;
                Ok(Frame::JobStageStart {
                    job: codec::get_u64(body, 1)?,
                    stage: codec::get_usize(body, 9)?,
                    kind: LiveStageKind::from_wire(codec::get_u64(body, 17)?)?,
                    tasks: codec::get_usize(body, 25)?,
                    records_per_task: codec::get_usize(body, 33)?,
                    seed: codec::get_u64(body, 41)?,
                })
            }
            TAG_ASSIGN_JOB_TASK => {
                expect_len(body, 2)?;
                Ok(Frame::AssignJobTask {
                    job: codec::get_u64(body, 1)?,
                    task: codec::get_usize(body, 9)?,
                })
            }
            TAG_JOB_TASK_OUTCOME => {
                expect_len(body, 5)?;
                Ok(Frame::JobTaskOutcome {
                    job: codec::get_u64(body, 1)?,
                    task: codec::get_usize(body, 9)?,
                    executor: codec::get_usize(body, 17)?,
                    attempt: codec::get_usize(body, 25)?,
                    ok: codec::get_u64(body, 33)? != 0,
                })
            }
            TAG_JOB_END => {
                expect_len(body, 1)?;
                Ok(Frame::JobEnd {
                    job: codec::get_u64(body, 1)?,
                })
            }
            TAG_TASK_SPAN => {
                expect_len(body, TraceKey::FIELDS + 4)?;
                let after_key = 1 + 8 * TraceKey::FIELDS;
                Ok(Frame::TaskSpan {
                    key: TraceKey::decode(body, 1)?,
                    executor: codec::get_usize(body, after_key)?,
                    start_bits: codec::get_u64(body, after_key + 8)?,
                    end_bits: codec::get_u64(body, after_key + 16)?,
                    ok: codec::get_u64(body, after_key + 24)? != 0,
                })
            }
            TAG_ZETA_SAMPLE => {
                expect_len(body, 4)?;
                Ok(Frame::ZetaSample {
                    executor: codec::get_usize(body, 1)?,
                    threads: codec::get_usize(body, 9)?,
                    zeta_bits: codec::get_u64(body, 17)?,
                    at_bits: codec::get_u64(body, 25)?,
                })
            }
            other => Err(FrameError::UnknownTag(other)),
        }
    }
}

/// Checks that an envelope body is exactly `1 + 8 * fields` bytes.
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

/// Writes frames to a socket. Not internally synchronised — wrap in a
/// mutex when several threads (heartbeat, workers, control) share it.
#[derive(Debug)]
pub struct FrameWriter {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl FrameWriter {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            scratch: Vec::with_capacity(64),
        }
    }

    /// Encodes and sends one frame, returning its size on the wire
    /// (length prefix included).
    pub fn send(&mut self, frame: &Frame) -> io::Result<usize> {
        self.scratch.clear();
        frame.encode(&mut self.scratch);
        self.stream.write_all(&self.scratch)?;
        Ok(self.scratch.len())
    }

    /// Encodes and sends several frames in one coalesced write — one
    /// syscall and one TCP segment train instead of a write per frame.
    /// Returns the total bytes put on the wire.
    pub fn send_batch(&mut self, frames: &[Frame]) -> io::Result<usize> {
        self.scratch.clear();
        for frame in frames {
            frame.encode(&mut self.scratch);
        }
        self.stream.write_all(&self.scratch)?;
        Ok(self.scratch.len())
    }
}

/// Pure (sans-io) frame reassembly buffer.
///
/// Feed it raw bytes as they arrive — at arbitrary boundaries, split
/// mid-header or mid-body, or with several frames merged into one read —
/// and pull complete [`Frame`]s out. Both the blocking [`FrameReader`]
/// and the reactor's per-connection state are thin shells over this
/// type, which is what lets a property test assert the two decode
/// identical frame sequences from identical byte streams.
#[derive(Debug, Default)]
pub struct FrameCursor {
    buf: Vec<u8>,
    start: usize,
    last_len: usize,
}

/// Consumed-prefix length beyond which the cursor compacts its buffer.
const COMPACT_AT: usize = 8192;

impl FrameCursor {
    /// Creates an empty cursor.
    pub fn new() -> Self {
        Self {
            buf: Vec::with_capacity(1024),
            start: 0,
            last_len: 0,
        }
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete frame, or `Ok(None)` if more bytes are
    /// needed. Malformed bytes are a hard error: once framing is lost
    /// the connection is unusable.
    ///
    /// Not an [`Iterator`]: `None` means "need more bytes", not "done",
    /// and decode errors must stay first-class.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, FrameError> {
        match Frame::decode(&self.buf[self.start..])? {
            Some((frame, consumed)) => {
                self.start += consumed;
                self.last_len = consumed;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                } else if self.start > COMPACT_AT {
                    self.buf.drain(..self.start);
                    self.start = 0;
                }
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// Wire size (length prefix included) of the frame the most recent
    /// [`FrameCursor::next`] returned; 0 before any frame.
    pub(crate) fn last_frame_len(&self) -> usize {
        self.last_len
    }

    /// Bytes buffered but not yet decoded into a frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// What a [`FrameReader::next_frame`] call produced.
#[derive(Debug)]
pub enum Next {
    /// A complete frame arrived.
    Frame(Frame),
    /// The peer closed the connection.
    Eof,
    /// The read timed out with no complete frame — the caller's chance to
    /// check deadlines and kill flags before blocking again.
    Idle,
}

/// Buffered frame reader over a socket.
///
/// Honours the stream's read timeout: a `WouldBlock`/`TimedOut` read
/// surfaces as [`Next::Idle`] rather than an error, so callers can poll
/// control state between frames. An abortive close (`ECONNRESET` /
/// `ECONNABORTED` — e.g. the peer dropped the socket with unread data
/// queued, which turns the close into an RST) surfaces as [`Next::Eof`],
/// the same as an orderly FIN: either way the peer is gone, and both
/// ends already treat that as connection loss. Malformed bytes surface
/// as `InvalidData` errors (the connection is unusable once framing is
/// lost).
#[derive(Debug)]
pub struct FrameReader {
    stream: TcpStream,
    cursor: FrameCursor,
    chunk: Vec<u8>,
}

impl FrameReader {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            cursor: FrameCursor::new(),
            chunk: vec![0u8; READ_CHUNK],
        }
    }

    /// Wire size (length prefix included) of the frame the most recent
    /// [`FrameReader::next_frame`] returned; 0 before any frame.
    pub(crate) fn last_frame_len(&self) -> usize {
        self.cursor.last_frame_len()
    }

    /// Reads until one frame, EOF, or a read timeout.
    pub fn next_frame(&mut self) -> io::Result<Next> {
        loop {
            match self.cursor.next() {
                Ok(Some(frame)) => return Ok(Next::Frame(frame)),
                Ok(None) => {}
                Err(e) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e));
                }
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Ok(Next::Eof),
                Ok(n) => self.cursor.extend(&self.chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Next::Idle);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionReset
                        || e.kind() == io::ErrorKind::ConnectionAborted =>
                {
                    return Ok(Next::Eof);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Core(Message::AssignTask {
                task: 3,
                executor: 1,
            }),
            Frame::Core(Message::PoolSizeChanged {
                executor: 2,
                size: 4,
            }),
            Frame::Core(Message::Heartbeat { executor: 0 }),
            Frame::Core(Message::TaskFailed {
                task: 9,
                executor: 1,
                attempt: 2,
            }),
            Frame::Register {
                executor: 1,
                slots: 8,
            },
            Frame::StageStart { stage: 1, hint: 8 },
            Frame::Shutdown,
            Frame::FaultNotice { executor: 1 },
            Frame::JobStageStart {
                job: 12,
                stage: 1,
                kind: LiveStageKind::Sort,
                tasks: 16,
                records_per_task: 5_000,
                seed: 0xFEED,
            },
            Frame::AssignJobTask { job: 12, task: 7 },
            Frame::JobTaskOutcome {
                job: 12,
                task: 7,
                executor: 3,
                attempt: 1,
                ok: true,
            },
            Frame::JobTaskOutcome {
                job: 13,
                task: 0,
                executor: 0,
                attempt: 0,
                ok: false,
            },
            Frame::JobEnd { job: 12 },
            Frame::TaskSpan {
                key: TraceKey {
                    job: 12,
                    stage: 1,
                    task: 7,
                    attempt: 0,
                    epoch: 3,
                },
                executor: 3,
                start_bits: 0.25f64.to_bits(),
                end_bits: 0.75f64.to_bits(),
                ok: true,
            },
            Frame::ZetaSample {
                executor: 2,
                threads: 4,
                zeta_bits: 0.87f64.to_bits(),
                at_bits: 1.5f64.to_bits(),
            },
        ]
    }

    #[test]
    fn envelope_round_trips_every_variant() {
        for frame in all_frames() {
            let mut buf = Vec::new();
            frame.encode(&mut buf);
            let (decoded, consumed) = Frame::decode(&buf).unwrap().unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(consumed, buf.len());
        }
    }

    #[test]
    fn envelope_stream_decodes_in_order() {
        let mut buf = Vec::new();
        for frame in all_frames() {
            frame.encode(&mut buf);
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while let Some((frame, consumed)) = Frame::decode(&buf[offset..]).unwrap() {
            decoded.push(frame);
            offset += consumed;
        }
        assert_eq!(decoded, all_frames());
        assert_eq!(offset, buf.len());
    }

    #[test]
    fn every_prefix_is_incomplete_not_an_error() {
        let mut buf = Vec::new();
        Frame::JobStageStart {
            job: 3,
            stage: 0,
            kind: LiveStageKind::Spill,
            tasks: 4,
            records_per_task: 100,
            seed: 1,
        }
        .encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(matches!(Frame::decode(&buf[..cut]), Ok(None)), "cut {cut}");
        }
    }

    #[test]
    fn unknown_envelope_tag_rejected() {
        let body = [0xEEu8; 9];
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert_eq!(Frame::decode(&buf), Err(FrameError::UnknownTag(0xEE)));
    }

    #[test]
    fn bad_stage_kind_rejected() {
        let mut buf = Vec::new();
        Frame::JobStageStart {
            job: 0,
            stage: 0,
            kind: LiveStageKind::Sort,
            tasks: 1,
            records_per_task: 1,
            seed: 0,
        }
        .encode(&mut buf);
        // Corrupt the kind field (bytes 17..25 of the body, after the
        // prefix, the envelope tag, the job and the stage) to an undefined
        // discriminant.
        let kind_at = LEN_PREFIX + 1 + 16;
        buf[kind_at..kind_at + 8].copy_from_slice(&99u64.to_be_bytes());
        assert!(Frame::decode(&buf).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        // A Shutdown body with surplus bytes.
        let body = [TAG_SHUTDOWN, 0, 0];
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert_eq!(
            Frame::decode(&buf),
            Err(FrameError::TrailingBytes { extra: 2 })
        );
        // A Register body missing its second field.
        let mut body = vec![TAG_REGISTER];
        body.extend_from_slice(&1u64.to_be_bytes());
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert_eq!(
            Frame::decode(&buf),
            Err(FrameError::Truncated { needed: 17, got: 9 })
        );
    }

    #[test]
    fn frame_kinds_are_distinct_labels() {
        let mut kinds: Vec<&str> = all_frames().iter().map(Frame::kind_str).collect();
        kinds.sort_unstable();
        kinds.dedup();
        // all_frames carries two JobTaskOutcome samples sharing one label.
        assert_eq!(kinds.len(), all_frames().len() - 1);
    }

    #[test]
    fn cursor_reassembles_one_byte_at_a_time() {
        let mut wire = Vec::new();
        for frame in all_frames() {
            frame.encode(&mut wire);
        }
        let mut cursor = FrameCursor::new();
        let mut decoded = Vec::new();
        for &byte in &wire {
            cursor.extend(&[byte]);
            while let Some(frame) = cursor.next().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, all_frames());
        assert_eq!(cursor.pending_bytes(), 0);
    }

    #[test]
    fn cursor_handles_merged_frames_in_one_extend() {
        let mut wire = Vec::new();
        for frame in all_frames() {
            frame.encode(&mut wire);
        }
        let mut cursor = FrameCursor::new();
        cursor.extend(&wire);
        let mut decoded = Vec::new();
        while let Some(frame) = cursor.next().unwrap() {
            decoded.push(frame);
        }
        assert_eq!(decoded, all_frames());
    }

    #[test]
    fn cursor_compacts_without_losing_partial_frames() {
        // Push far past COMPACT_AT with a partial frame straddling the
        // compaction point; every frame must still come out intact.
        let frame = Frame::JobTaskOutcome {
            job: 4,
            task: 1,
            executor: 2,
            attempt: 0,
            ok: true,
        };
        let mut one = Vec::new();
        frame.encode(&mut one);
        let mut cursor = FrameCursor::new();
        let mut got = 0usize;
        let total = (2 * COMPACT_AT) / one.len() + 3;
        for _ in 0..total {
            // Feed all but the last byte, drain, then the last byte.
            cursor.extend(&one[..one.len() - 1]);
            while let Some(f) = cursor.next().unwrap() {
                assert_eq!(f, frame);
                got += 1;
            }
            cursor.extend(&one[one.len() - 1..]);
            while let Some(f) = cursor.next().unwrap() {
                assert_eq!(f, frame);
                got += 1;
            }
        }
        assert_eq!(got, total);
    }

    #[test]
    fn send_batch_coalesces_and_round_trips() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut writer = FrameWriter::new(client);
        let frames = all_frames();
        let sent = writer.send_batch(&frames).unwrap();
        let mut expected = Vec::new();
        for f in &frames {
            f.encode(&mut expected);
        }
        assert_eq!(sent, expected.len());
        let mut reader = FrameReader::new(server);
        for want in &frames {
            match reader.next_frame().unwrap() {
                Next::Frame(got) => assert_eq!(&got, want),
                other => panic!("expected frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn core_bodies_are_bit_identical_to_the_dag_codec() {
        // The live envelope must not re-encode core messages differently:
        // Frame::Core's body is one tag byte + the sae-dag body, verbatim.
        let msg = Message::PoolSizeChanged {
            executor: 3,
            size: 6,
        };
        let mut envelope = Vec::new();
        Frame::Core(msg).encode(&mut envelope);
        let mut dag_body = Vec::new();
        codec::encode_body(&msg, &mut dag_body);
        assert_eq!(&envelope[LEN_PREFIX + 1..], &dag_body[..]);
    }
}
