//! Property tests for the reactor's sans-io frame reassembly.
//!
//! The reactor decodes frames through [`FrameCursor`]: bytes arrive in
//! whatever chunks a non-blocking socket hands each readiness event —
//! split mid-header, split mid-body, several frames merged into one
//! read — and the cursor must reassemble the exact frame sequence.
//! Executors decode the same wire bytes through the blocking
//! [`FrameReader`]. These properties push identical byte streams, cut
//! at arbitrary boundaries, through both paths and require byte-level
//! agreement with each other and with the frames that were encoded.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use prop::collection::vec;
use proptest::prelude::*;
use sae_dag::Message;
use sae_live::wire::{Frame, FrameCursor, FrameReader, Next};
use sae_live::LiveStageKind;

/// Any frame the protocol can put on the wire (the mini-proptest has no
/// `prop_oneof!`, so the variant is one more generated dimension).
fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        0..9usize,
        0..512usize,
        0..64usize,
        1..16usize,
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(variant, task, executor, small, seed, flag)| match variant {
                0 => Frame::AssignJobTask { job: seed, task },
                1 => Frame::Core(Message::PoolSizeChanged {
                    executor,
                    size: small,
                }),
                2 => Frame::Core(Message::Heartbeat { executor }),
                3 => Frame::JobTaskOutcome {
                    job: seed,
                    task,
                    executor,
                    attempt: small % 4,
                    ok: flag,
                },
                4 => Frame::Register {
                    executor,
                    slots: small,
                },
                5 => Frame::StageStart {
                    stage: task % 8,
                    hint: small,
                },
                6 => Frame::JobStageStart {
                    job: seed,
                    stage: task % 8,
                    kind: if flag {
                        LiveStageKind::Sort
                    } else {
                        LiveStageKind::Spill
                    },
                    tasks: task + 1,
                    records_per_task: (seed % 100_000) as usize + 1,
                    seed,
                },
                7 => Frame::Shutdown,
                _ => Frame::FaultNotice { executor },
            },
        )
}

/// Cuts `bytes` into chunks by cycling through `sizes` (so shrinking the
/// size list shrinks the cut pattern, not the payload).
fn chunked<'a>(bytes: &'a [u8], sizes: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
    let mut offset = 0;
    let mut i = 0;
    std::iter::from_fn(move || {
        if offset >= bytes.len() {
            return None;
        }
        let size = sizes[i % sizes.len()].max(1);
        i += 1;
        let end = (offset + size).min(bytes.len());
        let chunk = &bytes[offset..end];
        offset = end;
        Some(chunk)
    })
}

/// A connected loopback pair: (write half, read half).
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    (client, server)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cursor reassembles the exact frame sequence no matter where
    /// the byte stream is cut — including one-byte chunks, which stall
    /// inside every header and every body.
    #[test]
    fn cursor_reassembles_any_chunking(
        frames in vec(frame_strategy(), 1..40),
        sizes in vec(1..24usize, 1..12),
    ) {
        let mut wire = Vec::new();
        for frame in &frames {
            frame.encode(&mut wire);
        }
        let mut cursor = FrameCursor::new();
        let mut decoded = Vec::new();
        for chunk in chunked(&wire, &sizes) {
            cursor.extend(chunk);
            while let Some(frame) = cursor.next().unwrap() {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(cursor.pending_bytes(), 0, "trailing bytes left unconsumed");
    }

    /// Equivalence with the blocking reference: the same chunk pattern
    /// goes to a [`FrameCursor`] directly and over a real non-blocking
    /// loopback socket read by [`FrameReader`] (whose reads hit
    /// `WouldBlock` at whatever boundaries the kernel picks). Both must
    /// produce the encoded frame sequence.
    #[test]
    fn cursor_matches_blocking_reader_over_a_real_socket(
        frames in vec(frame_strategy(), 1..24),
        sizes in vec(1..24usize, 1..8),
    ) {
        let mut wire = Vec::new();
        for frame in &frames {
            frame.encode(&mut wire);
        }

        let (mut tx, rx) = socket_pair();
        rx.set_nonblocking(true).unwrap();
        let mut reader = FrameReader::new(rx);
        let mut cursor = FrameCursor::new();
        let mut via_reader = Vec::new();
        let mut via_cursor = Vec::new();

        for chunk in chunked(&wire, &sizes) {
            tx.write_all(chunk).unwrap();
            cursor.extend(chunk);
            while let Some(frame) = cursor.next().unwrap() {
                via_cursor.push(frame);
            }
            // Drain whatever has landed so far; `Idle` is a WouldBlock
            // surfacing mid-frame, exactly the stall under test.
            loop {
                match reader.next_frame().unwrap() {
                    Next::Frame(frame) => via_reader.push(frame),
                    Next::Idle => break,
                    Next::Eof => prop_assert!(false, "premature EOF"),
                }
            }
        }
        drop(tx); // close the write half: the rest drains, then EOF
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match reader.next_frame().unwrap() {
                Next::Frame(frame) => via_reader.push(frame),
                Next::Idle => {
                    prop_assert!(Instant::now() < deadline, "reader never saw EOF");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Next::Eof => break,
            }
        }

        prop_assert_eq!(&via_cursor, &frames);
        prop_assert_eq!(&via_reader, &frames);
    }
}
