//! Layer replay: each layer's public function timed on its own, on the
//! inputs the workload generated where there are any (real request and
//! stream bytes, the workload's task size).
//!
//! A replay gives a *unit cost*. Multiplied by the count the run observed
//! it bounds what a faster layer can save on a closed loop; it says
//! nothing about waiting, which only the spans and `/report` see.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sae_core::{
    AdaptiveController, DecisionAction, DecisionJournal, DecisionRecord, MapeConfig, TunablePool,
};
use sae_dag::codec::{decode_frame, encode_frame, TraceKey};
use sae_dag::sched::PendingQueue;
use sae_dag::Message;
use sae_live::server::sched::FairShare;
use sae_live::wire::{Frame, FrameCursor};
use sae_live::{FlightRecorder, LiveEvent, LiveStageKind};
use sae_metrics::{render_prometheus, MetricRegistry};
use sae_net::http::{RequestParser, Response};
use sae_net::sse::{encode_chunk, parse_chunked_response, SseFrame, SseParser, StreamEncoder};
use sae_poll::{Interest, Poller, TimerWheel};
use sae_pool::{CounterProbe, DynamicThreadPool};
use sae_sim::{CapacityCurve, Kernel};
use sae_storage::{DeviceProfile, DiskClass};
use sae_workloads::datagen::teragen;
use sae_workloads::spill::{read_records, write_records, Crc32};

use crate::stats::median;

/// Time one replay may take. ~30 replays: about a second and a half.
const SLICE: Duration = Duration::from_millis(40);
/// Batches a replay is a median over, at least.
const MIN_BATCHES: usize = 5;

/// Median nanoseconds per operation: `batch` performs `ops` operations
/// and is repeated until the slice is used up.
fn ns_per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < MIN_BATCHES || started.elapsed() < SLICE {
        let t = Instant::now();
        batch();
        per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

/// Bytes the net-layer replays run on.
pub struct WireSample {
    /// One `POST /jobs` request.
    pub post: Vec<u8>,
    /// One complete `/jobs/:id/events` response (head, chunks, end).
    pub stream: Vec<u8>,
}

impl WireSample {
    /// What a 1 x 500 job's traffic looks like, built with the net
    /// layer's own encoders — for workloads that produce no real bytes.
    pub fn synthetic() -> Self {
        let body =
            "{\"tenant\":\"load\",\"weight\":1,\"tasks\":1,\"records_per_task\":500,\"seed\":7}";
        let post = format!(
            "POST /jobs HTTP/1.1\r\nHost: sae\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let enc = StreamEncoder::sse(200);
        let mut stream = Vec::new();
        enc.head(&mut stream);
        let lines = [
            "{\"event\":\"submitted\",\"name\":\"job\",\"tenant\":\"load\",\"weight\":1,\"stages\":2}",
            "{\"event\":\"stage-start\",\"stage\":0,\"kind\":\"spill\",\"tasks\":1}",
            "{\"event\":\"task\",\"stage\":0,\"task\":0,\"attempts\":1}",
            "{\"event\":\"stage-end\",\"stage\":0,\"attempts\":1,\"failed_attempts\":0}",
            "{\"event\":\"stage-start\",\"stage\":1,\"kind\":\"sort\",\"tasks\":1}",
            "{\"event\":\"task\",\"stage\":1,\"task\":0,\"attempts\":1}",
            "{\"event\":\"stage-end\",\"stage\":1,\"attempts\":1,\"failed_attempts\":0}",
            "{\"event\":\"completed\",\"stages\":2}",
        ];
        for (i, line) in lines.iter().enumerate() {
            enc.frame(
                &SseFrame::new(*line)
                    .with_event("journal")
                    .with_id(i.to_string()),
                &mut stream,
            );
        }
        enc.frame(
            &SseFrame::new("{\"status\":\"completed\"}").with_event("end"),
            &mut stream,
        );
        enc.finish(&mut stream);
        Self {
            post: post.into_bytes(),
            stream,
        }
    }

    fn post_body(&self) -> &str {
        let text = std::str::from_utf8(&self.post).unwrap_or("");
        text.split_once("\r\n\r\n").map_or("", |(_, body)| body)
    }

    /// SSE frames in the sampled stream.
    pub fn frame_count(&self) -> usize {
        self.frames().len()
    }

    fn frames(&self) -> Vec<SseFrame> {
        let body = parse_chunked_response(&self.stream)
            .ok()
            .flatten()
            .map(|(parsed, _)| parsed.body)
            .unwrap_or_default();
        let mut sse = SseParser::new();
        sse.extend(&body);
        std::iter::from_fn(|| sse.next_frame()).collect()
    }
}

/// `sae-net`: request parse, response encode, SSE encode and parse.
fn net(sample: &WireSample) -> Vec<(&'static str, f64)> {
    const N: usize = 256;
    let parse = ns_per_op(N, || {
        let mut parser = RequestParser::new();
        for _ in 0..N {
            parser.extend(&sample.post);
            black_box(parser.next().expect("replayed request parses"));
        }
    });
    let created = Response::json(201, "{\"job\":12345,\"status\":\"running\"}");
    let mut out = Vec::with_capacity(64 * 1024);
    let encode = ns_per_op(N, || {
        out.clear();
        for _ in 0..N {
            black_box(&created).encode(&mut out);
        }
    });
    let frames = sample.frames();
    let per_pass = frames.len().max(1);
    let sse_encode = ns_per_op(32 * per_pass, || {
        out.clear();
        let mut payload = Vec::with_capacity(256);
        for _ in 0..32 {
            for frame in &frames {
                payload.clear();
                frame.encode(&mut payload);
                encode_chunk(&payload, &mut out);
            }
        }
        black_box(out.len());
    });
    let sse_parse = ns_per_op(32 * per_pass, || {
        for _ in 0..32 {
            let (parsed, _) = parse_chunked_response(black_box(&sample.stream))
                .expect("replayed stream parses")
                .expect("replayed stream is complete");
            let mut sse = SseParser::new();
            sse.extend(&parsed.body);
            while let Some(frame) = sse.next_frame() {
                black_box(frame);
            }
        }
    });
    vec![
        ("net.http.parse_ns_per_req", parse),
        ("net.http.encode_ns_per_resp", encode),
        ("net.sse.encode_ns_per_frame", sse_encode),
        ("net.sse.parse_ns_per_frame", sse_parse),
    ]
}

/// `sae-live::server`: job-spec JSON parse and the stride allocator.
fn server(sample: &WireSample) -> Vec<(&'static str, f64)> {
    let body = sample.post_body().to_string();
    let json = ns_per_op(256, || {
        for _ in 0..256 {
            black_box(
                sae_live::server::json::parse(black_box(&body)).expect("replayed spec parses"),
            );
        }
    });
    let pick = |jobs: u64| {
        let mut fair = FairShare::new();
        for j in 0..jobs {
            fair.admit(j, 1 + j % 4);
        }
        ns_per_op(1024, || {
            for _ in 0..1024 {
                black_box(fair.pick(|_| true));
            }
        })
    };
    vec![
        ("server.json_parse_ns_per_spec", json),
        ("fairshare.pick_ns_1", pick(1)),
        ("fairshare.pick_ns_8", pick(8)),
        ("fairshare.pick_ns_32", pick(32)),
    ]
}

/// The frames one job puts on the executor wire, in the server's mix.
fn job_frames(job: u64) -> Vec<Frame> {
    let mut frames = Vec::new();
    for (stage, kind) in [(0, LiveStageKind::Spill), (1, LiveStageKind::Sort)] {
        frames.push(Frame::JobStageStart {
            job,
            stage,
            kind,
            tasks: 1,
            records_per_task: 500,
            seed: 42,
        });
        frames.push(Frame::AssignJobTask { job, task: 0 });
        frames.push(Frame::TaskSpan {
            key: TraceKey {
                job,
                stage,
                task: 0,
                attempt: 0,
                epoch: 0,
            },
            executor: 0,
            start_bits: 1.25f64.to_bits(),
            end_bits: 1.26f64.to_bits(),
            ok: true,
        });
        frames.push(Frame::JobTaskOutcome {
            job,
            task: 0,
            executor: 0,
            attempt: 0,
            ok: true,
        });
    }
    frames.push(Frame::JobEnd { job });
    frames.push(Frame::Core(Message::Heartbeat { executor: 0 }));
    frames
}

/// `sae-live::wire` and `sae-dag::codec`.
fn wire() -> Vec<(&'static str, f64)> {
    let frames: Vec<Frame> = (0..64).flat_map(job_frames).collect();
    let mut bytes = Vec::with_capacity(64 * 1024);
    let encode = ns_per_op(frames.len(), || {
        bytes.clear();
        for frame in &frames {
            frame.encode(&mut bytes);
        }
    });
    let mut cursor = FrameCursor::new();
    let decode = ns_per_op(frames.len(), || {
        for chunk in bytes.chunks(16 * 1024) {
            cursor.extend(chunk);
            while let Some(frame) = cursor.next().expect("replayed frames decode") {
                black_box(frame);
            }
        }
    });
    let messages: Vec<Message> = (0..256)
        .map(|i| match i % 3 {
            0 => Message::AssignTask {
                task: i,
                executor: i % 4,
            },
            1 => Message::Heartbeat { executor: i % 4 },
            _ => Message::PoolSizeChanged {
                executor: i % 4,
                size: 1 + i % 8,
            },
        })
        .collect();
    let mut buf = Vec::with_capacity(16 * 1024);
    let codec = ns_per_op(messages.len(), || {
        buf.clear();
        for m in &messages {
            encode_frame(m, &mut buf);
        }
        let mut at = 0;
        while let Some((m, used)) = decode_frame(&buf[at..]).expect("replayed messages decode") {
            black_box(m);
            at += used;
        }
    });
    vec![
        ("wire.encode_ns_per_frame", encode),
        ("wire.decode_ns_per_frame", decode),
        ("codec.ns_per_msg", codec),
    ]
}

/// `sae-poll`: readiness round trip on a loopback pair, timer-wheel ops.
fn poll() -> std::io::Result<Vec<(&'static str, f64)>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut tx = TcpStream::connect(listener.local_addr()?)?;
    tx.set_nodelay(true)?;
    let (mut rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let mut events = Vec::new();
    let mut byte = [0u8; 1];
    let mut rtt_us = Vec::new();
    let started = Instant::now();
    while rtt_us.len() < 64 || started.elapsed() < SLICE {
        let t = Instant::now();
        poller.register(&rx, 7, Interest::READABLE)?;
        tx.write_all(&[1])?;
        poller.wait(&mut events, Some(Duration::from_secs(1)))?;
        rx.read_exact(&mut byte)?;
        poller.deregister(&rx)?;
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut wheel = TimerWheel::new();
    let base = Instant::now();
    let ops = ns_per_op(2 * 512, || {
        // 512 schedules at scattered due times, then everything expires.
        for i in 0..512u64 {
            wheel.schedule_at(base + Duration::from_micros(i.wrapping_mul(7919) % 4096), i);
        }
        black_box(wheel.expire(base + Duration::from_secs(1)));
    });
    Ok(vec![
        ("poll.wake_rtt_us_p50", median(&rtt_us)),
        ("poll.wheel_ns_per_op", ops),
    ])
}

/// `sae-live::task` and `sae-workloads` at `records` records per task.
fn task(dir: &Path, records: usize) -> std::io::Result<Vec<(&'static str, f64)>> {
    let probe = CounterProbe::new();
    let (mut spill_ms, mut sort_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut task = 0;
    while spill_ms.len() < MIN_BATCHES || started.elapsed() < 4 * SLICE {
        let t0 = Instant::now();
        sae_live::task::run_task(LiveStageKind::Spill, 1, task, records, 42, dir, &probe)?;
        let t1 = Instant::now();
        sae_live::task::run_task(LiveStageKind::Sort, 1, task, records, 42, dir, &probe)?;
        spill_ms.push((t1 - t0).as_secs_f64() * 1e3);
        sort_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        std::fs::remove_file(sae_live::task::spill_path(dir, 1, task))?;
        std::fs::remove_file(sae_live::task::sorted_path(dir, 1, task))?;
        task += 1;
    }
    let gen = ns_per_op(records, || {
        black_box(teragen(records, black_box(99)));
    });
    let data = teragen(records, 99);
    let path = dir.join("replay.spill");
    let mut io_err = None;
    let write = ns_per_op(records, || {
        if let Err(e) = write_records(&path, &data) {
            io_err = Some(e);
        }
    });
    let read = ns_per_op(records, || match read_records(&path) {
        Ok(r) => drop(black_box(r)),
        Err(e) => io_err = Some(e),
    });
    std::fs::remove_file(&path)?;
    if let Some(e) = io_err {
        return Err(e);
    }
    let block = vec![0xA5u8; 1 << 20];
    let crc_ns_per_mb = ns_per_op(4, || {
        let mut crc = Crc32::new();
        for _ in 0..4 {
            crc.update(black_box(&block));
        }
        black_box(crc.finish());
    });
    Ok(vec![
        ("task.spill_ms_per_task", median(&spill_ms)),
        ("task.sort_ms_per_task", median(&sort_ms)),
        ("workloads.teragen_ns_per_record", gen),
        ("workloads.write_ns_per_record", write),
        ("workloads.read_ns_per_record", read),
        ("workloads.crc_mb_per_s", 1e9 / crc_ns_per_mb),
    ])
}

/// `sae-pool` and `sae-core`: queue-to-start latency, resize, the
/// controller's per-task decision path, journal appends.
fn pool_and_core() -> Vec<(&'static str, f64)> {
    let mut pool = DynamicThreadPool::new(4);
    let (tx, rx) = mpsc::channel::<Instant>();
    let mut start_us = Vec::new();
    let started = Instant::now();
    while start_us.len() < 64 || started.elapsed() < SLICE {
        let tx = tx.clone();
        let submitted = Instant::now();
        pool.submit(move || {
            let _ = tx.send(Instant::now());
        });
        let ran = rx.recv().expect("pool ran the probe task");
        start_us.push(ran.saturating_duration_since(submitted).as_secs_f64() * 1e6);
    }
    let mut size = 4;
    let resize_ns = ns_per_op(16, || {
        for _ in 0..16 {
            size = if size == 4 { 2 } else { 4 };
            pool.set_max_pool_size(black_box(size));
        }
    });
    pool.shutdown();

    let controller = ns_per_op(200, || {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        let mut threads = ctl.stage_started(0.0, Some(1000));
        let (mut now, mut epoll, mut bytes) = (0.0, 0.0, 0.0);
        for _ in 0..200 {
            now += 1.0;
            epoll += 0.3 + 0.01 * (threads * threads) as f64;
            bytes += 100.0;
            if let Some(next) = ctl.task_finished(now, epoll, bytes) {
                threads = next;
            }
        }
        black_box(threads);
    });
    let record = DecisionRecord {
        stage: 0,
        executor: 0,
        interval: 1,
        at: 1.5,
        threads: 4,
        epoll_wait_s: 0.2,
        throughput_bps: 1e8,
        zeta: 0.002,
        pool_before: 4,
        pool_after: 8,
        action: DecisionAction::Ascend,
        rationale: "zeta fell: keep climbing".into(),
    };
    let journal_ns = ns_per_op(256, || {
        let journal = DecisionJournal::new();
        for _ in 0..256 {
            journal.push(black_box(record.clone()));
        }
        black_box(journal.len());
    });
    vec![
        ("pool.submit_to_start_us_p50", median(&start_us)),
        ("pool.resize_us", resize_ns / 1e3),
        ("core.controller_ns_per_task", controller),
        ("core.journal_ns_per_record", journal_ns),
    ]
}

/// `sae-live::recorder` and `sae-metrics`, the latter on `registry` (the
/// run's own when there was a server).
fn telemetry(registry: &MetricRegistry) -> Vec<(&'static str, f64)> {
    let recorder = FlightRecorder::new(65_536);
    let push = ns_per_op(1024, || {
        for i in 0..1024 {
            recorder.push(LiveEvent::Heartbeat {
                executor: i % 2,
                gap: 0.1,
                at: 1.0,
            });
        }
    });
    let render_ns = ns_per_op(1, || {
        black_box(render_prometheus(registry));
    });
    vec![
        ("recorder.push_ns", push),
        ("metrics.render_prometheus_us", render_ns / 1e3),
    ]
}

/// `sae-sim`, `sae-dag::sched`, `sae-storage`, `sae-cluster`: the
/// simulator's primitives at the sweep's typical sizes (tens of flows
/// per disk, a few hundred tasks per stage).
fn simulator() -> Vec<(&'static str, f64)> {
    const FLOWS: usize = 64;
    let kernel_ns = {
        let started = Instant::now();
        let mut per_event = Vec::new();
        while per_event.len() < MIN_BATCHES || started.elapsed() < SLICE {
            let t = Instant::now();
            let mut kernel: Kernel<u32> = Kernel::new();
            let disk = kernel.add_resource(CapacityCurve::from_fn(|counts| {
                let n = counts.total() as f64;
                120.0 * n.min(4.0) / (1.0 + 0.01 * (n - 4.0).max(0.0))
            }));
            for round in 0..8 {
                for i in 0..FLOWS {
                    kernel.start_flow(disk, 0, 1.0 + (round * FLOWS + i) as f64 * 1e-3, i as u32);
                }
                kernel.run_to_idle();
            }
            let events = kernel.events_processed().max(1);
            per_event.push(t.elapsed().as_nanos() as f64 / events as f64);
        }
        median(&per_event)
    };
    const TASKS: usize = 512;
    const NODES: usize = 16;
    let mut queue = PendingQueue::new();
    let sched = ns_per_op(TASKS, || {
        queue.reset(TASKS, NODES);
        for t in 0..TASKS {
            queue.push(t, &[t % NODES, (t + 5) % NODES, (t + 11) % NODES]);
        }
        let mut executor = 0;
        while let Some(task) = queue.pick(executor, |_| false) {
            black_box(task);
            executor = (executor + 1) % NODES;
        }
    });
    let hdd = DeviceProfile::hdd_7200();
    let curve = ns_per_op(63, || {
        let mut total = 0.0;
        for n in 1..64usize {
            total += hdd.bandwidth(black_box(&[
                (DiskClass::Read, n),
                (DiskClass::Write, n / 2),
            ]));
        }
        black_box(total);
    });
    // 64 GiB in 128 MB blocks on 16 nodes: 512 blocks placed per file.
    let dfs = ns_per_op(512, || {
        let mut dfs = sae_cluster::Dfs::new(128, 3, 42);
        black_box(dfs.create_file("input", 64.0 * 1024.0, NODES).blocks.len());
    });
    vec![
        ("sim.kernel_ns_per_event", kernel_ns),
        ("sim.kernel_events_per_s", 1e9 / kernel_ns),
        ("dag.sched_ns_per_pick", sched),
        ("storage.curve_ns_per_eval", curve),
        ("cluster.dfs_ns_per_block", dfs),
    ]
}

/// Every replay, in layer order: the net and server ones on `sample`,
/// the task ones at `records` per task in `dir`, the Prometheus render on
/// `registry`.
pub fn all(
    sample: &WireSample,
    dir: &Path,
    records: usize,
    registry: &MetricRegistry,
) -> std::io::Result<Vec<(&'static str, f64)>> {
    let mut out = net(sample);
    out.extend(server(sample));
    out.extend(wire());
    out.extend(poll()?);
    out.extend(task(dir, records)?);
    out.extend(pool_and_core());
    out.extend(telemetry(registry));
    out.extend(simulator());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_sample_round_trips_through_the_net_layer() {
        let sample = WireSample::synthetic();
        let mut parser = RequestParser::new();
        parser.extend(&sample.post);
        let req = parser.next().unwrap().expect("one whole request");
        assert_eq!(req.path(), "/jobs");
        assert!(sae_live::server::json::parse(sample.post_body()).is_ok());
        let frames = sample.frames();
        assert_eq!(frames.len(), 9);
        assert_eq!(frames.last().unwrap().event.as_deref(), Some("end"));
    }

    #[test]
    fn job_frame_mix_survives_the_cursor() {
        let frames = job_frames(3);
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode(&mut bytes);
        }
        let mut cursor = FrameCursor::new();
        cursor.extend(&bytes);
        let mut back = Vec::new();
        while let Some(f) = cursor.next().unwrap() {
            back.push(f);
        }
        assert_eq!(back, frames);
    }
}
