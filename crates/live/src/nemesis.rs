//! The nemesis: a seeded, frame-aware wire-fault proxy.
//!
//! The nemesis sits between the executors and the driver as an in-process
//! TCP proxy. Executors connect to `Nemesis::addr` instead of the
//! driver; each accepted connection is paired with a fresh upstream
//! connection to the real driver, and two pump threads relay bytes in
//! both directions. The pumps are *frame-aware*: they reassemble the
//! length-prefixed protocol frames (via [`sae_dag::codec::split_frame`],
//! the same framing layer both runtimes use) so faults land on whole
//! protocol messages, never on arbitrary byte boundaries — except for
//! [`WireFaultKind::Reset`], whose whole point is to chop a frame in half.
//!
//! Which faults land where and when comes from the run's [`FaultPlan`]:
//! each [`WireFault`] names an executor, a direction, a `[at, at+duration)`
//! window on the recorder clock, and a kind. Probabilistic kinds (drop,
//! duplicate) draw from an xorshift64* stream seeded by
//! `plan.seed ⊕ executor-salt ⊕ direction-salt`, so the same plan over the
//! same job perturbs the same frames — the live analogue of the simulator's
//! dedicated fault RNG stream.
//!
//! Every first frame caught by a window pushes a
//! [`LiveEvent::FaultInjected`] onto the flight recorder, and all
//! perturbations tick `live.nemesis.*` counters, so a chaos run's trace
//! shows exactly which faults actually bit.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sae_dag::codec::split_frame;
use sae_dag::{FaultPlan, WireFault, WireFaultKind};
use sae_metrics::{Counter, MetricRegistry};

use crate::log::Logger;
use crate::recorder::{FlightRecorder, LiveEvent};
use crate::wire::Frame;

/// Which way a pump moves bytes (executor→driver or driver→executor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    ToDriver,
    ToExecutor,
}

impl Dir {
    fn covers(self, fault: &WireFault) -> bool {
        match self {
            Dir::ToDriver => fault.direction.covers_to_driver(),
            Dir::ToExecutor => fault.direction.covers_to_executor(),
        }
    }

    fn salt(self) -> u64 {
        match self {
            Dir::ToDriver => 0x5EED_00D1_u64,
            Dir::ToExecutor => 0x5EED_00E7_u64,
        }
    }
}

/// The shared, cheap-to-clone state every pump thread reads.
struct Shared {
    plan: FaultPlan,
    recorder: FlightRecorder,
    log: Logger,
    frames_dropped: Counter,
    frames_delayed: Counter,
    frames_duplicated: Counter,
    frames_throttled: Counter,
    resets: Counter,
}

/// A seeded wire-fault proxy between the executors and the driver.
///
/// Launch it pointed at the driver's address, then have executors connect
/// to [`Nemesis::addr`]. With an empty [`FaultPlan`] it is a transparent
/// relay; with wire faults scheduled it perturbs exactly the frames the
/// plan covers. Dropping (or [`Nemesis::shutdown`]) stops the accept loop;
/// in-flight sessions drain on their own when either endpoint hangs up.
#[derive(Debug)]
pub(crate) struct Nemesis {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Nemesis {
    /// Binds a loopback proxy in front of the driver at `upstream`.
    pub(crate) fn launch(
        upstream: SocketAddr,
        plan: &FaultPlan,
        recorder: FlightRecorder,
        metrics: &MetricRegistry,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            plan: plan.clone(),
            recorder: recorder.clone(),
            log: Logger::new("nemesis".to_string(), recorder),
            frames_dropped: metrics.counter("live.nemesis.frames_dropped"),
            frames_delayed: metrics.counter("live.nemesis.frames_delayed"),
            frames_duplicated: metrics.counter("live.nemesis.frames_duplicated"),
            frames_throttled: metrics.counter("live.nemesis.frames_throttled"),
            resets: metrics.counter("live.nemesis.resets"),
        });
        let flag = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((downstream, _)) => {
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || {
                            if let Err(e) = run_session(downstream, upstream, &shared) {
                                shared.log.debug(|| format!("session ended: {e}"));
                            }
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        shared.log.error(|| format!("nemesis acceptor died: {e}"));
                        return;
                    }
                }
            }
        });
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The address executors should connect to instead of the driver's.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new sessions and joins the accept loop.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Nemesis {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One proxied executor connection: learn who this is from the Register
/// handshake (forwarded untouched), then pump both directions with faults.
fn run_session(
    downstream: TcpStream,
    upstream: SocketAddr,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    downstream.set_nodelay(true)?;
    let up = TcpStream::connect(upstream)?;
    up.set_nodelay(true)?;

    // Peek the handshake: the first frame an executor sends is Register,
    // which names it. Forward the bytes untouched — the handshake itself
    // is never perturbed, so every incarnation can at least identify
    // itself before its link starts misbehaving.
    let mut down_read = downstream.try_clone()?;
    let mut up_write = up.try_clone()?;
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let executor = loop {
        match Frame::decode(&buf) {
            Ok(Some((Frame::Register { executor, .. }, _))) => break executor,
            Ok(Some((frame, _))) => {
                shared
                    .log
                    .error(|| format!("first frame was {} not register", frame.kind_str()));
                return Ok(());
            }
            Ok(None) => {}
            Err(e) => {
                shared.log.error(|| format!("bad handshake: {e:?}"));
                return Ok(());
            }
        }
        let mut chunk = [0u8; 256];
        let n = down_read.read(&mut chunk)?;
        if n == 0 {
            return Ok(()); // gone before registering
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    up_write.write_all(&buf)?;
    shared
        .log
        .debug(|| format!("session up for executor {executor}"));

    let up_read = up.try_clone()?;
    let down_write = downstream.try_clone()?;
    // One "window entered" latch per plan fault, shared by both pump
    // directions, so FaultInjected lands once per window per session —
    // not once per frame, and not once per direction.
    let entered: Arc<Vec<AtomicBool>> = Arc::new(
        shared
            .plan
            .wire
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect(),
    );
    let s = Arc::clone(shared);
    let latches = Arc::clone(&entered);
    let to_exec = std::thread::spawn(move || {
        pump(up_read, down_write, executor, Dir::ToExecutor, &latches, &s);
    });
    pump(
        down_read,
        up_write,
        executor,
        Dir::ToDriver,
        &entered,
        shared,
    );
    let _ = to_exec.join();
    Ok(())
}

/// xorshift64*, the live runtime's one small deterministic RNG: fault
/// streams seed it per (plan seed, executor, direction), reconnect jitter
/// per (respawn seed, incarnation).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Uniform draw in `[0, 1)` from the stream.
pub(crate) fn uniform(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Relays frames from `src` to `dst`, applying every plan fault whose
/// executor, direction, and time window cover the frame. Exits when either
/// socket dies, propagating the hangup so the far side sees EOF just like
/// it would on a direct connection.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    executor: usize,
    dir: Dir,
    entered: &Arc<Vec<AtomicBool>>,
    shared: &Arc<Shared>,
) {
    let mut rng =
        shared.plan.seed ^ (executor as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ dir.salt();
    rng |= 1;
    let mut buf: Vec<u8> = Vec::with_capacity(8192);
    let mut chunk = [0u8; 8192];
    loop {
        // Drain every complete frame currently buffered.
        let mut consumed = 0;
        loop {
            let frame_len = match split_frame(&buf[consumed..]) {
                Ok(Some((_, len))) => len,
                Ok(None) => break,
                Err(e) => {
                    shared.log.error(|| format!("unframeable bytes: {e:?}"));
                    let _ = src.shutdown(Shutdown::Both);
                    let _ = dst.shutdown(Shutdown::Both);
                    return;
                }
            };
            let frame = &buf[consumed..consumed + frame_len];
            if !forward(frame, executor, dir, &mut rng, entered, &mut dst, shared) {
                let _ = src.shutdown(Shutdown::Both);
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
            consumed += frame_len;
        }
        buf.drain(..consumed);
        match src.read(&mut chunk) {
            Ok(0) => {
                // Propagate the hangup: the far side gets EOF as if the
                // link were direct.
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

/// Applies the plan to one frame and forwards (or drops) it. Returns
/// `false` when the session must die (reset fault or a dead peer).
fn forward(
    frame: &[u8],
    executor: usize,
    dir: Dir,
    rng: &mut u64,
    entered: &[AtomicBool],
    dst: &mut TcpStream,
    shared: &Arc<Shared>,
) -> bool {
    let now = shared.recorder.now();
    let mut duplicate = false;
    for (i, fault) in shared.plan.wire.iter().enumerate() {
        if fault.executor != executor
            || !dir.covers(fault)
            || now < fault.at
            || now >= fault.at + fault.duration
        {
            continue;
        }
        if !entered[i].swap(true, Ordering::Relaxed) {
            shared.recorder.push(LiveEvent::FaultInjected {
                executor,
                kind: fault.kind.label(),
                at: now,
            });
            shared.log.info(|| {
                format!(
                    "window open: {} on executor {executor} ({dir:?})",
                    fault.kind.label()
                )
            });
        }
        match fault.kind {
            WireFaultKind::Partition => {
                shared.frames_dropped.inc();
                return true; // discard silently; the link looks dead
            }
            WireFaultKind::Drop { probability } => {
                if uniform(rng) < probability {
                    shared.frames_dropped.inc();
                    return true;
                }
            }
            WireFaultKind::Duplicate { probability } => {
                if uniform(rng) < probability {
                    duplicate = true;
                }
            }
            WireFaultKind::Delay { seconds } => {
                shared.frames_delayed.inc();
                std::thread::sleep(Duration::from_secs_f64(seconds));
            }
            WireFaultKind::Throttle { bytes_per_sec } => {
                shared.frames_throttled.inc();
                let pace = frame.len() as f64 / bytes_per_sec.max(1.0);
                std::thread::sleep(Duration::from_secs_f64(pace));
            }
            WireFaultKind::Reset => {
                // The signature mid-frame cut: half the bytes, then the
                // floor drops out under both sockets.
                shared.resets.inc();
                let _ = dst.write_all(&frame[..frame.len() / 2]);
                return false;
            }
        }
    }
    if dst.write_all(frame).is_err() {
        return false;
    }
    if duplicate {
        shared.frames_duplicated.inc();
        if dst.write_all(frame).is_err() {
            return false;
        }
    }
    true
}
