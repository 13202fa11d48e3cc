//! Reactor scale sweep: one driver, hundreds of executor connections.
//!
//! A single-threaded *fake fleet* — N non-blocking loopback sockets
//! driven by the same `sae-poll` poller the reactor uses — registers
//! with the driver and answers every `AssignJobTask` with an instant
//! `JobTaskOutcome`, so the measurement isolates the driver's wire layer:
//! no Terasort I/O, no MAPE-K, just frames. The sweep runs executor
//! counts 4→512 against the driver's event loop (one thread, all
//! sockets, batched decode, coalesced writes).
//!
//! Reported per point: frames/sec through the driver, client-measured
//! assignment turnaround (`JobTaskOutcome` sent → next `AssignJobTask`
//! received) p50/p99, and wakeups per frame (how many frames each
//! scheduler wakeup amortizes — the reactor's whole thesis).
//!
//! Acceptance gate: every connection registers at every point — 512
//! concurrent ones at the top of the full sweep.
//!
//! `SAE_REACTOR_BENCH_QUICK=1` shrinks the sweep to the 128-executor
//! point for CI smoke. Set `SAE_WRITE_BENCH_JSON=1` to rewrite the
//! checked-in `BENCH_reactor.json`:
//!
//! ```text
//! SAE_WRITE_BENCH_JSON=1 cargo bench -p sae-bench --bench reactor
//! ```

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sae_dag::Message;
use sae_live::wire::{Frame, FrameCursor};
use sae_live::{terasort, Driver, DriverConfig, FlightRecorder};
use sae_metrics::MetricRegistry;
use sae_poll::{Event, Interest, Poller};

/// Slots each fake executor registers with: enough outstanding
/// assignments per connection to keep the driver's batches meaty.
const SLOTS: usize = 8;

/// One fake executor connection.
struct FakeConn {
    stream: TcpStream,
    cursor: FrameCursor,
    out: VecDeque<u8>,
    want_write: bool,
    done: bool,
    /// Set when a `JobTaskOutcome` goes out; taken when the next
    /// `AssignJobTask` lands — the assignment turnaround sample.
    armed_at: Option<Instant>,
}

impl FakeConn {
    fn queue(&mut self, frame: &Frame, scratch: &mut Vec<u8>) {
        scratch.clear();
        frame.encode(scratch);
        self.out.extend(scratch.iter().copied());
    }

    /// Writes queued bytes until drained or `WouldBlock`; returns
    /// whether the queue is now empty.
    fn flush(&mut self) -> io::Result<bool> {
        while !self.out.is_empty() {
            let (head, _) = self.out.as_slices();
            match self.stream.write(head) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "wrote 0")),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// What the fake fleet measured from its side of the wire.
struct FleetReport {
    /// Assignment-turnaround samples, sorted, in milliseconds.
    latencies: Vec<f64>,
    /// First `AssignJobTask` seen → last frame seen: the steady-state
    /// window. Connection setup and registration happen before the
    /// first assignment, so backlog stalls during the connect storm
    /// (the listener queue holds 128; a 512-socket burst would park
    /// the rest in SYN retransmit for seconds) don't pollute the
    /// throughput figure.
    steady_secs: f64,
}

/// One point of the sweep.
struct ScalePoint {
    executors: usize,
    runtime_secs: f64,
    steady_secs: f64,
    frames: u64,
    frames_per_sec: f64,
    wakeups_per_frame: f64,
    p50_ms: f64,
    p99_ms: f64,
    registered: usize,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Flushes `conn`, arming or disarming `EPOLLOUT` as the queue state
/// demands (the same partial-write discipline the reactor itself uses).
fn flush_and_arm(poller: &Poller, conn: &mut FakeConn, token: u64) {
    match conn.flush() {
        Ok(true) if conn.want_write => {
            conn.want_write = false;
            let _ = poller.modify(&conn.stream, token, Interest::READABLE);
        }
        Ok(true) => {}
        Ok(false) if !conn.want_write => {
            conn.want_write = true;
            let _ = poller.modify(&conn.stream, token, Interest::BOTH);
        }
        Ok(false) => {}
        Err(_) => conn.done = true,
    }
}

/// Runs the single-threaded fake fleet against the driver at `addr`
/// until every connection has seen `Shutdown` (or died).
fn run_fleet(addr: SocketAddr, executors: usize) -> io::Result<FleetReport> {
    let poller = Poller::new()?;
    let mut scratch = Vec::new();
    let mut conns: Vec<FakeConn> = Vec::with_capacity(executors);
    for id in 0..executors {
        // Pace the connect storm: the driver is accepting concurrently,
        // but the kernel's listen backlog holds ~128 — a full-speed
        // 512-socket burst overflows it and the excess SYNs sit in
        // retransmit for seconds. A short breath every 64 connects
        // keeps every wave inside the backlog.
        if id > 0 && id % 64 == 0 {
            std::thread::sleep(Duration::from_millis(20));
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poller.register(&stream, id as u64, Interest::READABLE)?;
        let mut conn = FakeConn {
            stream,
            cursor: FrameCursor::new(),
            out: VecDeque::new(),
            want_write: false,
            done: false,
            armed_at: None,
        };
        conn.queue(
            &Frame::Register {
                executor: id,
                slots: SLOTS,
            },
            &mut scratch,
        );
        flush_and_arm(&poller, &mut conn, id as u64);
        conns.push(conn);
    }

    let mut events: Vec<Event> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut last_heartbeat = Instant::now();
    let mut first_assign: Option<Instant> = None;
    let mut last_frame = Instant::now();
    let started = Instant::now();
    while conns.iter().any(|c| !c.done) {
        if started.elapsed() > Duration::from_secs(180) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "fleet never saw shutdown",
            ));
        }
        poller.wait(&mut events, Some(Duration::from_millis(50)))?;
        for ev in &events {
            let idx = ev.token as usize;
            let conn = &mut conns[idx];
            if conn.done {
                continue;
            }
            if ev.readable || ev.error {
                loop {
                    match conn.stream.read(&mut read_buf) {
                        Ok(0) => {
                            conn.done = true;
                            break;
                        }
                        Ok(n) => conn.cursor.extend(&read_buf[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            conn.done = true;
                            break;
                        }
                    }
                }
                loop {
                    match conn.cursor.next() {
                        Ok(Some(Frame::AssignJobTask { job, task })) => {
                            let now = Instant::now();
                            first_assign.get_or_insert(now);
                            last_frame = now;
                            if let Some(t0) = conn.armed_at.take() {
                                latencies.push((now - t0).as_secs_f64() * 1e3);
                            }
                            conn.queue(
                                &Frame::JobTaskOutcome {
                                    job,
                                    task,
                                    executor: idx,
                                    attempt: 0,
                                    ok: true,
                                },
                                &mut scratch,
                            );
                            conn.armed_at = Some(Instant::now());
                        }
                        Ok(Some(Frame::JobStageStart { .. } | Frame::StageStart { .. })) => {
                            // The stage barrier is driver progress, not
                            // assignment turnaround: disarm.
                            conn.armed_at = None;
                            last_frame = Instant::now();
                        }
                        Ok(Some(Frame::Shutdown)) => {
                            conn.done = true;
                            last_frame = Instant::now();
                            break;
                        }
                        Ok(Some(_)) => {
                            last_frame = Instant::now();
                        }
                        Ok(None) => break,
                        Err(_) => {
                            conn.done = true;
                            break;
                        }
                    }
                }
                if !conn.done {
                    flush_and_arm(&poller, conn, ev.token);
                }
            }
            if ev.writable && !conn.done {
                flush_and_arm(&poller, conn, ev.token);
            }
            if conn.done {
                let _ = poller.deregister(&conn.stream);
            }
        }
        // A coarse heartbeat keeps the traffic shape honest without
        // mattering for liveness (the driver's timeout is 60 s).
        if last_heartbeat.elapsed() >= Duration::from_millis(500) {
            last_heartbeat = Instant::now();
            for (id, conn) in conns.iter_mut().enumerate() {
                if conn.done {
                    continue;
                }
                conn.queue(
                    &Frame::Core(Message::Heartbeat { executor: id }),
                    &mut scratch,
                );
                flush_and_arm(&poller, conn, id as u64);
            }
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let steady_secs = first_assign
        .map(|t0| (last_frame - t0).as_secs_f64())
        .unwrap_or(0.0)
        .max(1e-6);
    Ok(FleetReport {
        latencies,
        steady_secs,
    })
}

/// One sweep point: bind a driver, run the fake fleet, report wire-layer
/// throughput from the driver's own counters.
fn run_scale(executors: usize, tasks_per_exec: usize) -> ScalePoint {
    let metrics = MetricRegistry::new();
    let driver = Driver::bind(DriverConfig {
        executors,
        heartbeat_timeout: Duration::from_secs(60),
        check_interval: Duration::from_millis(5),
        blacklist_after: 1_000_000,
        probation: Duration::from_secs(2),
        deadline: Duration::from_secs(150),
        degraded_wait: Duration::from_secs(5),
        shutdown_drain: Duration::from_millis(500),
        recorder: FlightRecorder::disabled(),
        metrics: metrics.clone(),
    })
    .expect("bind driver");
    let addr = driver.addr().expect("driver addr");
    let job = terasort(executors * tasks_per_exec, 1, 7);
    let driver_thread = std::thread::spawn(move || {
        let start = Instant::now();
        let report = driver.run(&job);
        (report, start.elapsed())
    });
    let fleet = run_fleet(addr, executors).expect("fleet run");
    let (report, elapsed) = driver_thread.join().expect("driver thread");
    let report = report.expect("driver run");

    let snapshot = metrics.snapshot();
    let frames = snapshot.counters["live.driver.frames_received"]
        + snapshot.counters["live.driver.frames_sent"];
    let wakeups = snapshot.counters["live.driver.wakeups"];
    ScalePoint {
        executors,
        runtime_secs: elapsed.as_secs_f64(),
        steady_secs: fleet.steady_secs,
        frames,
        frames_per_sec: frames as f64 / fleet.steady_secs,
        wakeups_per_frame: wakeups as f64 / frames as f64,
        p50_ms: percentile(&fleet.latencies, 0.50),
        p99_ms: percentile(&fleet.latencies, 0.99),
        registered: report.registry.iter().filter(|s| s.registered).count(),
    }
}

fn main() {
    let quick = std::env::var("SAE_REACTOR_BENCH_QUICK").is_ok();
    let counts: &[usize] = if quick {
        &[128]
    } else {
        &[4, 16, 64, 128, 256, 512]
    };
    let tasks_per_exec = if quick { 16 } else { 24 };

    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>9} {:>9} {:>8} {:>7}",
        "execs", "frames", "frames/s", "wake/frame", "p50 ms", "p99 ms", "steady s", "time s"
    );
    let mut points: Vec<ScalePoint> = Vec::new();
    for &n in counts {
        let point = run_scale(n, tasks_per_exec);
        println!(
            "{:>6} {:>12} {:>12.0} {:>10.3} {:>9.3} {:>9.3} {:>8.3} {:>7.2}",
            point.executors,
            point.frames,
            point.frames_per_sec,
            point.wakeups_per_frame,
            point.p50_ms,
            point.p99_ms,
            point.steady_secs,
            point.runtime_secs,
        );
        assert_eq!(
            point.registered, n,
            "at {n} executors: not every connection registered"
        );
        points.push(point);
    }

    let top = *counts.last().unwrap();
    let mut json = String::from("{\n  \"benchmark\": \"reactor_scale\",\n");
    json.push_str(&format!(
        "  \"workload\": \"loopback fake fleet, {tasks_per_exec} tasks/executor x 2 stages, {SLOTS} slots, instant JobTaskOutcome replies\",\n"
    ));
    json.push_str(&format!("  \"top_executors\": {top},\n  \"points\": [\n"));
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"executors\": {}, \"frames\": {}, \"frames_per_sec\": {:.1}, \"wakeups_per_frame\": {:.4}, \"assign_latency_p50_ms\": {:.4}, \"assign_latency_p99_ms\": {:.4}, \"steady_secs\": {:.4}, \"runtime_secs\": {:.4}, \"registered\": {}}}{}\n",
            p.executors,
            p.frames,
            p.frames_per_sec,
            p.wakeups_per_frame,
            p.p50_ms,
            p.p99_ms,
            p.steady_secs,
            p.runtime_secs,
            p.registered,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    if std::env::var("SAE_WRITE_BENCH_JSON").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reactor.json");
        std::fs::write(path, &json).expect("write BENCH_reactor.json");
        println!("wrote {path}");
    }
    println!("OK: every connection registered at every point, {top} at the top");
}
