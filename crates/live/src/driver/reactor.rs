//! The driver's event loop: one thread owns every socket.
//!
//! The listener and all executor connections are registered with a
//! level-triggered poller ([`sae_poll::Poller`]); each wakeup drains
//! whatever is ready — accepts in a burst, reads until `WouldBlock` with
//! frames decoded in batches through a per-connection [`FrameCursor`],
//! queued writes flushed once per dirty lane — then runs due timers off a
//! coalesced [`TimerWheel`] and assigns tasks once per batch.
//!
//! The socket mechanics (connection table, write queues, backpressure,
//! accept loop) are [`crate::shell`]'s, shared with the job server; what
//! lives here is the loop itself, which hands each new connection's first
//! frame to the fleet's `Register` handshake. A lane the shell reports
//! broken is closed and handed to the state machine as [`Ev::Gone`],
//! exactly like an EOF. On exit, queued frames — the
//! `Shutdown` broadcast above all — are drained for up to
//! [`DriverConfig::shutdown_drain`] before connections close.

use std::io::{self, Read};
use std::net::TcpListener;
use std::time::Instant;

use sae_poll::{Event, Poller, TimerWheel};

use super::{DriverConfig, Ev, LiveError, LiveReport, PoolDecision, Run, SlotInfo};
use crate::job::LiveJob;
use crate::shell::{Conns, Listener, READ_CHUNK};
use crate::wire::{Frame, FrameCursor};

/// Poller token of the listening socket; connections use `slot + 1`.
const LISTENER_TOKEN: u64 = 0;

/// Timer-wheel payload for the periodic heartbeat/deadline/probation
/// sweep (every [`DriverConfig::check_interval`]).
const TIMER_TICK: u64 = 0;

/// One accepted connection's protocol-side state.
struct WireConn {
    cursor: FrameCursor,
    /// Set once the handshake [`Frame::Register`] arrives.
    executor: Option<usize>,
}

/// Runs one job to completion (or failure) on `listener`.
pub(super) fn run(
    listener: TcpListener,
    cfg: &DriverConfig,
    job: &LiveJob,
    observer: impl FnMut(&PoolDecision, &[SlotInfo]),
) -> Result<LiveReport, LiveError> {
    let mut reactor = Reactor::new(listener, cfg, job, observer)?;
    let result = reactor.drive();
    // Tell executors the job is over, then keep flushing until the queues
    // are empty or the drain budget runs out — the frames are queued, not
    // yet on the wire.
    reactor.run.execs.broadcast(&Frame::Shutdown);
    let deadline = Instant::now() + cfg.shutdown_drain;
    reactor
        .run
        .execs
        .lanes
        .drain(&mut reactor.conns, &reactor.poller, deadline);
    result.map(|()| reactor.run.into_report())
}

struct Reactor<'j, Obs> {
    poller: Poller,
    listener: Listener,
    conns: Conns<WireConn>,
    events: Vec<Event>,
    wheel: TimerWheel,
    read_buf: Vec<u8>,
    run: Run<'j, Obs>,
}

impl<'j, Obs: FnMut(&PoolDecision, &[SlotInfo])> Reactor<'j, Obs> {
    fn new(
        listener: TcpListener,
        cfg: &DriverConfig,
        job: &'j LiveJob,
        observer: Obs,
    ) -> Result<Self, LiveError> {
        let poller = Poller::new()?;
        let listener = Listener::new(listener, LISTENER_TOKEN, &poller)?;
        let run = Run::new(cfg, job, observer);
        Ok(Self {
            poller,
            listener,
            conns: Conns::new(LISTENER_TOKEN + 1, run.log.clone()),
            events: Vec::new(),
            wheel: TimerWheel::new(),
            read_buf: vec![0u8; READ_CHUNK],
            run,
        })
    }

    /// The event loop: wait for readiness or the next timer, drain what's
    /// ready, run due timers, assign once per batch.
    fn drive(&mut self) -> Result<(), LiveError> {
        if !self.run.start() {
            return Ok(());
        }
        self.wheel
            .schedule_at(Instant::now() + self.run.cfg.check_interval, TIMER_TICK);
        loop {
            while let Some(e) = self.run.execs.lanes.pop_dirty() {
                self.flush_lane(e)?;
            }
            let timeout = self.wheel.next_timeout(Instant::now());
            let mut events = std::mem::take(&mut self.events);
            self.poller.wait(&mut events, timeout)?;
            self.run.metrics.wakeups.inc();
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.conns
                        .accept_burst(&mut self.listener, &self.poller, || WireConn {
                            cursor: FrameCursor::new(),
                            executor: None,
                        });
                    continue;
                }
                let Some(idx) = self.conns.slot_of(ev.token) else {
                    continue; // closed earlier in this batch
                };
                if ev.readable || ev.error {
                    self.read_drain(idx)?;
                }
                if ev.writable {
                    let executor = self.conns.get(idx).and_then(|c| c.kind.executor);
                    if let Some(e) = executor {
                        self.flush_lane(e)?;
                    }
                }
            }
            self.events = events;
            for (_, what) in self.wheel.expire(Instant::now()) {
                if what == TIMER_TICK {
                    self.listener.rearm(&self.poller);
                    self.run.tick(Instant::now())?;
                    self.wheel
                        .schedule_at(Instant::now() + self.run.cfg.check_interval, TIMER_TICK);
                }
            }
            self.run.try_assign()?;
            self.conns.end_batch();
            if self.run.finished {
                return Ok(());
            }
            if self.run.started.elapsed() > self.run.cfg.deadline {
                return Err(LiveError::DeadlineExceeded);
            }
        }
    }

    /// Reads a connection until `WouldBlock`, decoding every complete
    /// frame in the batch through the protocol state machine.
    fn read_drain(&mut self, idx: usize) -> Result<(), LiveError> {
        loop {
            let Some(conn) = self.conns.get_mut(idx) else {
                return Ok(());
            };
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => return self.close_and_report(idx),
                Ok(n) => {
                    conn.kind.cursor.extend(&self.read_buf[..n]);
                    loop {
                        let Some(conn) = self.conns.get_mut(idx) else {
                            return Ok(());
                        };
                        let frame = match conn.kind.cursor.next() {
                            Ok(Some(frame)) => frame,
                            Ok(None) => break,
                            // Framing is lost; the connection is unusable.
                            Err(_) => return self.close_and_report(idx),
                        };
                        let bytes = conn.kind.cursor.last_frame_len();
                        let conn_id = conn.id;
                        match conn.kind.executor {
                            Some(executor) => self.run.handle(Ev::Frame {
                                executor,
                                conn: conn_id,
                                frame,
                                bytes,
                            })?,
                            None => {
                                let now = Instant::now();
                                let execs = &mut self.run.execs;
                                let Some(joined) = execs.handshake(frame, conn_id, idx, now) else {
                                    self.close_silent(idx);
                                    return Ok(());
                                };
                                conn.kind.executor = Some(joined.executor);
                                self.run.handle(Ev::Joined(joined))?;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(_) => return self.close_and_report(idx),
            }
        }
    }

    /// Flushes one executor's lane; a lane the shell reports broken (write
    /// error, or a peer that stopped reading) loses its connection.
    fn flush_lane(&mut self, e: usize) -> Result<(), LiveError> {
        match self.run.execs.lanes.flush(e, &mut self.conns, &self.poller) {
            Some(slot) => self.close_and_report(slot),
            None => Ok(()),
        }
    }

    /// Closes a connection and reports it to the state machine, which
    /// fences stale incarnations and declares current ones lost.
    fn close_and_report(&mut self, idx: usize) -> Result<(), LiveError> {
        if let Some((executor, conn)) = self.close_silent(idx) {
            self.run.handle(Ev::Gone { executor, conn })?;
        }
        Ok(())
    }

    /// Tears down a connection without informing the state machine
    /// (handshake failures); returns who it was, if it had registered.
    fn close_silent(&mut self, idx: usize) -> Option<(usize, u64)> {
        let conn = self.conns.close(idx, &self.poller)?;
        Some((conn.kind.executor?, conn.id))
    }
}
