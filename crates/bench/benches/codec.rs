//! Wire-codec throughput micro-bench: what one frame costs to encode,
//! reassemble and send.
//!
//! Three comparisons price the S1 read/write-path work:
//!
//! * `cursor_decode/*` — frame reassembly through [`FrameCursor`] with
//!   the reader's reused chunk buffer vs the pre-optimisation pattern of
//!   a fresh 4 KiB allocation per read call;
//! * `wire_send/*` — 256 frames as individual `send` calls (one
//!   `write_all` syscall each) vs one coalesced `send_batch` (a single
//!   vectored-style write of the whole batch);
//! * `encode_1024_frames` — the pure serialization floor.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::io::Read;
use std::net::{TcpListener, TcpStream};

use sae_dag::Message;
use sae_live::wire::{Frame, FrameCursor, FrameWriter};

/// A representative traffic mix: mostly assignments and completions,
/// some heartbeats and pool resizes.
fn traffic(n: usize) -> Vec<Frame> {
    (0..n)
        .map(|i| match i % 8 {
            0..=2 => Frame::AssignJobTask { job: 1, task: i },
            3..=5 => Frame::JobTaskOutcome {
                job: 1,
                task: i,
                executor: i % 16,
                attempt: 0,
                ok: true,
            },
            6 => Frame::Core(Message::Heartbeat { executor: i % 16 }),
            _ => Frame::Core(Message::PoolSizeChanged {
                executor: i % 16,
                size: 1 + i % 8,
            }),
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let frames = traffic(1024);
    let mut buf = Vec::with_capacity(32 * 1024);
    c.bench_function("encode_1024_frames", |b| {
        b.iter(|| {
            buf.clear();
            for frame in &frames {
                frame.encode(&mut buf);
            }
            buf.len()
        });
    });
}

fn bench_decode(c: &mut Criterion) {
    let frames = traffic(1024);
    let mut wire = Vec::new();
    for frame in &frames {
        frame.encode(&mut wire);
    }
    let mut group = c.benchmark_group("cursor_decode_1024_frames");
    group.bench_function("reused_buffer", |b| {
        let mut cursor = FrameCursor::new();
        b.iter(|| {
            let mut decoded = 0usize;
            for chunk in wire.chunks(4096) {
                cursor.extend(chunk);
                while let Some(frame) = cursor.next().unwrap() {
                    black_box(&frame);
                    decoded += 1;
                }
            }
            decoded
        });
    });
    group.bench_function("fresh_alloc_per_read", |b| {
        // The pre-S1 read path: a zeroed 4 KiB buffer allocated for
        // every read call before the bytes reach the decoder.
        let mut cursor = FrameCursor::new();
        b.iter(|| {
            let mut decoded = 0usize;
            for chunk in wire.chunks(4096) {
                let mut fresh = vec![0u8; 4096];
                fresh[..chunk.len()].copy_from_slice(chunk);
                cursor.extend(&fresh[..chunk.len()]);
                while let Some(frame) = cursor.next().unwrap() {
                    black_box(&frame);
                    decoded += 1;
                }
            }
            decoded
        });
    });
    group.finish();
}

fn bench_send(c: &mut Criterion) {
    let frames = traffic(256);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let tx = TcpStream::connect(addr).unwrap();
    let (rx, _) = listener.accept().unwrap();
    // A drain thread keeps the socket buffer empty so sends never stall.
    std::thread::spawn(move || {
        let mut rx = rx;
        let mut sink = [0u8; 64 * 1024];
        while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
    });
    let mut writer = FrameWriter::new(tx);
    let mut group = c.benchmark_group("wire_send_256_frames");
    group.bench_function("one_syscall_per_frame", |b| {
        b.iter(|| {
            let mut sent = 0usize;
            for frame in &frames {
                sent += writer.send(frame).unwrap();
            }
            sent
        });
    });
    group.bench_function("coalesced_batch", |b| {
        b.iter(|| writer.send_batch(&frames).unwrap());
    });
    group.finish();
}

criterion_group!(codec_benches, bench_encode, bench_decode, bench_send);

fn main() {
    codec_benches();
}
