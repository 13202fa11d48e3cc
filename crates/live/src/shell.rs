//! The socket mechanics both event loops share.
//!
//! The single-job driver (`driver/reactor.rs`) and the job server
//! (`server/mod.rs`) each run their own `loop {}` — timers, SSE pumping
//! and exit conditions differ — over the same plain data structures:
//! [`OutQueue`], the bytes waiting for one socket and the crate's only
//! vectored-write loop; [`Lanes`], one `OutQueue` per executor and the
//! home of the backpressure rules; [`Conns`], the poller-token →
//! connection table and the accept loop over a [`Listener`].
//!
//! Nothing here knows about epochs, jobs, HTTP or `LiveError`: calls
//! return outcomes, and the loop that owns the protocol decides what a
//! broken connection means.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sae_poll::{Interest, Poller};

use crate::log::Logger;
use crate::wire::Frame;

/// Bytes one socket read may pull in per call.
pub(crate) const READ_CHUNK: usize = 16 * 1024;
/// Queue depth above which an executor gets no new task assignments (and
/// an SSE stream no refill) until its socket drains.
pub(crate) const HIGH_WATER: usize = 64 * 1024;
/// Executor queue depth at which the connection is declared broken: the
/// peer stopped reading, and a blocking write would have wedged the loop.
const HARD_CAP: usize = 4 * 1024 * 1024;

/// What one [`OutQueue::flush`] achieved: the queue is empty (write
/// interest off), the socket is full (write interest on), or the write
/// failed and the connection is unusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flush {
    Drained,
    Blocked,
    Broken,
}

/// Bytes queued for one socket.
#[derive(Default)]
pub(crate) struct OutQueue {
    buf: VecDeque<u8>,
    /// Whether `EPOLLOUT` interest is currently armed.
    want_write: bool,
}

impl OutQueue {
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend(bytes.iter().copied());
    }

    /// Moves queued bytes onto `stream` until the queue is empty or the
    /// socket would block; a partial flush arms `EPOLLOUT` under `token`,
    /// an empty queue disarms it.
    pub(crate) fn flush(&mut self, mut stream: &TcpStream, poller: &Poller, token: u64) -> Flush {
        loop {
            if self.buf.is_empty() {
                if self.want_write {
                    self.want_write = false;
                    let _ = poller.modify(stream, token, Interest::READABLE);
                }
                return Flush::Drained;
            }
            let (a, b) = self.buf.as_slices();
            match stream.write_vectored(&[IoSlice::new(a), IoSlice::new(b)]) {
                Ok(0) => return Flush::Broken,
                Ok(n) => {
                    self.buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !self.want_write {
                        self.want_write = true;
                        let _ = poller.modify(stream, token, Interest::BOTH);
                    }
                    return Flush::Blocked;
                }
                Err(_) => return Flush::Broken,
            }
        }
    }
}

/// One executor's outbound frames and the `(connection id, table slot)`
/// of the incarnation they are for.
#[derive(Default)]
struct Lane {
    conn: Option<(u64, usize)>,
    out: OutQueue,
}

/// Per-executor outbound frame queues, flushed by the event loop.
pub(crate) struct Lanes {
    lanes: Vec<Lane>,
    /// Executors whose queues went non-empty since the last flush pass.
    dirty: Vec<usize>,
    /// `(conn id, slot)` of superseded connections left with write
    /// interest armed; the next flush sets them back to read-only.
    disarm: Vec<(u64, usize)>,
    scratch: Vec<u8>,
    log: Logger,
}

impl Lanes {
    pub(crate) fn new(executors: usize, log: Logger) -> Self {
        Self {
            lanes: (0..executors).map(|_| Lane::default()).collect(),
            dirty: Vec::new(),
            disarm: Vec::new(),
            scratch: Vec::new(),
            log,
        }
    }

    /// Points `executor`'s lane at connection `conn` in table slot `slot`.
    /// Bytes queued for a superseded incarnation would go to a socket the
    /// protocol no longer trusts; they are dropped with it. If that socket
    /// was waiting for writability, the next flush disarms it — else the
    /// level-triggered poller would report it on every wait.
    pub(crate) fn attach(&mut self, executor: usize, conn: u64, slot: usize) {
        let old = &self.lanes[executor];
        if let (Some(superseded), true) = (old.conn, old.out.want_write) {
            self.disarm.push(superseded);
            self.dirty.push(executor);
        }
        self.lanes[executor] = Lane {
            conn: Some((conn, slot)),
            out: OutQueue::default(),
        };
    }

    /// Connection `conn` died; forget it if it is still `executor`'s.
    pub(crate) fn detach_if_current(&mut self, executor: usize, conn: u64) {
        let lane = &mut self.lanes[executor];
        if lane.conn.is_some_and(|(id, _)| id == conn) {
            *lane = Lane::default();
        }
    }

    /// Queues `frame` for `executor`, returning its wire size, or `None`
    /// if the executor has no attached connection.
    pub(crate) fn send(&mut self, executor: usize, frame: &Frame) -> Option<usize> {
        let lane = &mut self.lanes[executor];
        lane.conn?;
        self.scratch.clear();
        frame.encode(&mut self.scratch);
        if lane.out.is_empty() {
            self.dirty.push(executor);
        }
        lane.out.extend(&self.scratch);
        Some(self.scratch.len())
    }

    /// `false` masks the executor from task assignment until its queue
    /// drains below [`HIGH_WATER`].
    pub(crate) fn accepts_work(&self, executor: usize) -> bool {
        self.lanes[executor].out.len() < HIGH_WATER
    }

    /// The next executor whose queue went non-empty since its last flush.
    pub(crate) fn pop_dirty(&mut self) -> Option<usize> {
        self.dirty.pop()
    }

    /// Flushes `executor`'s queue onto its connection. `Some(slot)` means
    /// that connection broke — a write error, or a backlog past
    /// [`HARD_CAP`] — and the caller must close the slot and report it.
    pub(crate) fn flush<K>(
        &mut self,
        executor: usize,
        conns: &mut Conns<K>,
        poller: &Poller,
    ) -> Option<usize> {
        for (id, slot) in self.disarm.drain(..) {
            if let Some(c) = conns.get(slot).filter(|c| c.id == id) {
                let _ = poller.modify(&c.stream, conns.token(slot), Interest::READABLE);
            }
        }
        let lane = &mut self.lanes[executor];
        let (id, slot) = lane.conn?;
        let token = conns.token(slot);
        // A closed or recycled slot: the lane was retargeted mid-flight.
        let conn = conns.get_mut(slot).filter(|c| c.id == id)?;
        match lane.out.flush(&conn.stream, poller, token) {
            Flush::Broken => Some(slot),
            Flush::Blocked if lane.out.len() > HARD_CAP => {
                self.log.error(|| {
                    format!("executor {executor} write queue overflowed; closing its connection")
                });
                Some(slot)
            }
            Flush::Drained | Flush::Blocked => None,
        }
    }

    /// Final flush of every lane (the `Shutdown` broadcast above all)
    /// until the queues are empty or `deadline` passes. The loop has
    /// decided its outcome by now, so a connection that breaks is just
    /// closed — nothing is reported.
    pub(crate) fn drain<K>(&mut self, conns: &mut Conns<K>, poller: &Poller, deadline: Instant) {
        loop {
            let mut blocked = false;
            for e in 0..self.lanes.len() {
                if let Some(slot) = self.flush(e, conns, poller) {
                    conns.close(slot, poller);
                    self.lanes[e] = Lane::default();
                }
                blocked |= self.lanes[e].out.want_write;
            }
            if !blocked || !drain_nap(poller, deadline) {
                return;
            }
        }
    }
}

/// One pause of a bounded final drain: a short wait for writability.
/// `false` once `deadline` has passed.
pub(crate) fn drain_nap(poller: &Poller, deadline: Instant) -> bool {
    let left = deadline.saturating_duration_since(Instant::now());
    let _ = poller.wait(&mut Vec::new(), Some(left.min(Duration::from_millis(5))));
    !left.is_zero()
}

/// A listening socket on the poller.
pub(crate) struct Listener {
    sock: TcpListener,
    token: u64,
    parked: bool,
}

impl Listener {
    /// Makes `sock` non-blocking and registers it under `token`.
    pub(crate) fn new(sock: TcpListener, token: u64, poller: &Poller) -> io::Result<Self> {
        sock.set_nonblocking(true)?;
        poller.register(&sock, token, Interest::READABLE)?;
        Ok(Self {
            sock,
            token,
            parked: false,
        })
    }

    /// Takes the listener off the poller: after an `accept` error that
    /// retrying now will not clear (`EMFILE`, `ENFILE`) the connection
    /// stays in the backlog, and level-triggered readiness would wake the
    /// loop for it without pause.
    fn park(&mut self, poller: &Poller) {
        let _ = poller.deregister(&self.sock);
        self.parked = true;
    }

    /// Puts a parked listener back on the poller. Both loops call this on
    /// every timer tick, so a failing acceptor retries once per tick.
    pub(crate) fn rearm(&mut self, poller: &Poller) {
        if self.parked {
            let again = poller.register(&self.sock, self.token, Interest::READABLE);
            self.parked = again.is_err();
        }
    }
}

/// One accepted connection: the socket, an id unique for the table's
/// lifetime (what epochs fence on), and the loop's per-connection state.
pub(crate) struct Conn<K> {
    pub(crate) stream: TcpStream,
    pub(crate) id: u64,
    pub(crate) kind: K,
}

/// The connection table: slot `i` is on the poller under token
/// `token_base + i`.
pub(crate) struct Conns<K> {
    slots: Vec<Option<Conn<K>>>,
    /// Reusable slots of closed connections. Slots freed during a wakeup
    /// wait in `freed_now` until [`Conns::end_batch`], so a stale event
    /// later in the same batch can never alias a recycled token.
    free: Vec<usize>,
    freed_now: Vec<usize>,
    next_id: u64,
    token_base: u64,
    log: Logger,
}

impl<K> Conns<K> {
    pub(crate) fn new(token_base: u64, log: Logger) -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            freed_now: Vec::new(),
            next_id: 1,
            token_base,
            log,
        }
    }

    pub(crate) fn token(&self, idx: usize) -> u64 {
        self.token_base + idx as u64
    }

    /// The open slot `token` names — `None` if it was closed earlier in
    /// the same batch.
    pub(crate) fn slot_of(&self, token: u64) -> Option<usize> {
        let idx = token.checked_sub(self.token_base)? as usize;
        self.get(idx).map(|_| idx)
    }

    /// Slots ever used, open or not: the bound for index sweeps.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn get(&self, idx: usize) -> Option<&Conn<K>> {
        self.slots.get(idx)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut Conn<K>> {
        self.slots.get_mut(idx)?.as_mut()
    }

    /// Every open connection.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Conn<K>> {
        self.slots.iter().flatten()
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Conn<K>> {
        self.slots.iter_mut().flatten()
    }

    /// Accepts every pending connection on `listener`, registering each
    /// for reads with per-connection state from `mk_kind`. An acceptor
    /// that fails is logged once and parked until [`Listener::rearm`].
    pub(crate) fn accept_burst(
        &mut self,
        listener: &mut Listener,
        poller: &Poller,
        mut mk_kind: impl FnMut() -> K,
    ) {
        loop {
            match listener.sock.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(None);
                        self.slots.len() - 1
                    });
                    let token = self.token(idx);
                    if poller.register(&stream, token, Interest::READABLE).is_err() {
                        self.free.push(idx);
                        continue;
                    }
                    let (id, kind) = (self.next_id, mk_kind());
                    self.next_id += 1;
                    self.slots[idx] = Some(Conn { stream, id, kind });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.log
                        .error(|| format!("accept failed, retrying on the next tick: {e}"));
                    listener.park(poller);
                    return;
                }
            }
        }
    }

    /// Closes slot `idx`, handing back what was in it. The slot is not
    /// reused before [`Conns::end_batch`].
    pub(crate) fn close(&mut self, idx: usize, poller: &Poller) -> Option<Conn<K>> {
        let conn = self.slots.get_mut(idx)?.take()?;
        let _ = poller.deregister(&conn.stream);
        self.freed_now.push(idx);
        Some(conn)
    }

    /// The current batch of readiness events is handled: slots closed
    /// during it may be reused.
    pub(crate) fn end_batch(&mut self) {
        self.free.append(&mut self.freed_now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;
    use crate::wire::FrameCursor;
    use sae_poll::Event;
    use std::io::Read;
    use std::net::SocketAddr;

    const LISTENER: u64 = 0;
    const BASE: u64 = 1;

    struct Bed {
        poller: Poller,
        listener: Listener,
        conns: Conns<()>,
        addr: SocketAddr,
        events: Vec<Event>,
    }

    fn log() -> Logger {
        Logger::new("shell-test", FlightRecorder::disabled())
    }

    fn bed() -> Bed {
        let sock = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = sock.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        let listener = Listener::new(sock, LISTENER, &poller).unwrap();
        Bed {
            poller,
            listener,
            conns: Conns::new(BASE, log()),
            addr,
            events: Vec::new(),
        }
    }

    impl Bed {
        /// Connects a client and accepts it: `(client end, its slot)`.
        /// A loopback `connect` returns with the connection already in
        /// the accept backlog, so one burst is sure to pick it up.
        fn connect(&mut self) -> (TcpStream, usize) {
            let before: Vec<u64> = self.conns.iter().map(|c| c.id).collect();
            let client = TcpStream::connect(self.addr).unwrap();
            self.conns
                .accept_burst(&mut self.listener, &self.poller, || ());
            let slot = (0..self.conns.len())
                .find(|&i| self.conns.get(i).is_some_and(|c| !before.contains(&c.id)))
                .expect("the connection was accepted");
            (client, slot)
        }

        /// Tokens reported ready within `ms`, as `(token, writable)`.
        fn ready(&mut self, ms: u64) -> Vec<(u64, bool)> {
            self.poller
                .wait(&mut self.events, Some(Duration::from_millis(ms)))
                .unwrap();
            self.events.iter().map(|e| (e.token, e.writable)).collect()
        }

        /// A lane table whose executor 0 targets `slot`, with the kernel
        /// send buffer in front of it as small as the kernel allows.
        fn lanes_on(&self, slot: usize) -> Lanes {
            let conn = self.conns.get(slot).unwrap();
            sae_poll::set_send_buffer(&conn.stream, 1).unwrap();
            let mut lanes = Lanes::new(1, log());
            lanes.attach(0, conn.id, slot);
            lanes
        }
    }

    fn frame(task: usize) -> Frame {
        Frame::AssignJobTask { job: 9, task }
    }

    #[test]
    fn a_stalled_peer_arms_write_interest_and_masks_the_executor_until_it_reads() {
        let mut bed = bed();
        let (mut client, slot) = bed.connect();
        let mut lanes = bed.lanes_on(slot);
        let token = bed.conns.token(slot);

        // The peer reads nothing: the kernel buffers fill, the flush
        // blocks, and the backlog climbs over the high-water mark.
        let mut sent = 0;
        while lanes.accepts_work(0) {
            assert!(lanes.send(0, &frame(sent)).is_some());
            sent += 1;
            while let Some(e) = lanes.pop_dirty() {
                assert_eq!(lanes.flush(e, &mut bed.conns, &bed.poller), None);
            }
        }
        let stream = &bed.conns.get(slot).unwrap().stream;
        let out = &mut lanes.lanes[0].out;
        assert!(out.len() >= HIGH_WATER);
        assert_eq!(out.flush(stream, &bed.poller, token), Flush::Blocked);
        assert!(out.want_write, "a blocked flush arms write interest");

        // The peer starts reading: writability wakes the loop, which
        // flushes until the queue is empty.
        let reader = std::thread::spawn(move || {
            let mut cursor = FrameCursor::new();
            let mut buf = vec![0u8; READ_CHUNK];
            let mut tasks = Vec::new();
            while tasks.len() < sent {
                let n = client.read(&mut buf).unwrap();
                assert!(n > 0, "driver side closed early");
                cursor.extend(&buf[..n]);
                while let Some(f) = cursor.next().unwrap() {
                    match f {
                        Frame::AssignJobTask { job: 9, task } => tasks.push(task),
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
            }
            (client, tasks)
        });
        let started = Instant::now();
        while !lanes.lanes[0].out.is_empty() {
            assert!(started.elapsed() < Duration::from_secs(30), "never drained");
            if bed.ready(100).contains(&(token, true)) {
                assert_eq!(lanes.flush(0, &mut bed.conns, &bed.poller), None);
            }
        }
        assert!(lanes.accepts_work(0));
        assert!(!lanes.lanes[0].out.want_write, "a drained queue disarms");
        let (_client, tasks) = reader.join().unwrap();
        assert_eq!(tasks, (0..sent).collect::<Vec<_>>(), "bytes out of order");
        // Back to read interest only: a writable, silent socket reports
        // nothing.
        assert_eq!(bed.ready(50), []);
    }

    #[test]
    fn a_backlog_past_the_hard_cap_breaks_the_lane() {
        let mut bed = bed();
        let (_client, slot) = bed.connect();
        let mut lanes = bed.lanes_on(slot);
        let mut broken = None;
        for task in 0.. {
            lanes.send(0, &frame(task));
            // Flush once a batch, as the loop would once a wakeup.
            if task % 4096 == 0 {
                broken = lanes.flush(0, &mut bed.conns, &bed.poller);
                if broken.is_some() {
                    break;
                }
                assert!(lanes.lanes[0].out.len() < 64 * HARD_CAP, "no cap at all");
            }
        }
        assert_eq!(broken, Some(slot));
        assert!(lanes.lanes[0].out.len() > HARD_CAP);
    }

    #[test]
    fn attaching_a_new_incarnation_discards_the_superseded_queue() {
        let mut bed = bed();
        let mut lanes = Lanes::new(2, log());
        assert_eq!(lanes.send(0, &frame(0)), None, "no connection yet");
        lanes.attach(0, 1, 0);
        let bytes = lanes.send(0, &frame(0)).unwrap();
        lanes.send(0, &frame(1));
        assert_eq!(lanes.lanes[0].out.len(), 2 * bytes);
        lanes.lanes[0].out.want_write = true;

        lanes.attach(0, 2, 1);
        assert!(lanes.lanes[0].out.is_empty());
        assert!(!lanes.lanes[0].out.want_write);
        // Neither slot holds a connection: flushing is a no-op.
        lanes.send(0, &frame(2));
        assert_eq!(lanes.flush(0, &mut bed.conns, &bed.poller), None);

        // The superseded connection's death leaves the lane alone; the
        // current one's detaches it.
        lanes.detach_if_current(0, 1);
        assert!(lanes.send(0, &frame(3)).is_some());
        lanes.detach_if_current(0, 2);
        assert_eq!(lanes.send(0, &frame(4)), None);
        assert!(lanes.lanes[0].out.is_empty());
    }

    #[test]
    fn retargeting_a_blocked_lane_disarms_the_superseded_connection() {
        let mut bed = bed();
        let (mut client_a, slot_a) = bed.connect();
        let (_client_b, slot_b) = bed.connect();
        let mut lanes = bed.lanes_on(slot_a);
        let token_a = bed.conns.token(slot_a);

        // Block lane A: its peer reads nothing.
        for task in 0.. {
            lanes.send(0, &frame(task));
            assert_eq!(lanes.flush(0, &mut bed.conns, &bed.poller), None);
            if lanes.lanes[0].out.want_write {
                break;
            }
        }
        // The executor re-registers on B; the loop's flush pass over dirty
        // lanes runs before its next wait.
        let id_b = bed.conns.get(slot_b).unwrap().id;
        lanes.attach(0, id_b, slot_b);
        while let Some(e) = lanes.pop_dirty() {
            assert_eq!(lanes.flush(e, &mut bed.conns, &bed.poller), None);
        }

        // A's peer drains its socket, so A turns writable; nobody wants to
        // write to it any more, so the poller must not report it.
        client_a.set_nonblocking(true).unwrap();
        let mut buf = vec![0u8; READ_CHUNK];
        let mut idle_reads = 0;
        while idle_reads < 5 {
            match client_a.read(&mut buf) {
                Ok(n) => assert!(n > 0, "server side closed A"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    idle_reads += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("read: {e}"),
            }
        }
        let ready = bed.ready(50);
        assert!(
            ready.iter().all(|&(token, _)| token != token_a),
            "the superseded connection still wakes the loop: {ready:?}"
        );
    }

    #[test]
    fn a_slot_closed_mid_batch_is_not_reused_before_the_batch_ends() {
        let mut bed = bed();
        let (_a, slot_a) = bed.connect();
        let (_b, slot_b) = bed.connect();
        assert_eq!((slot_a, slot_b), (0, 1));
        let token_a = bed.conns.token(slot_a);

        let closed = bed.conns.close(slot_a, &bed.poller).unwrap();
        assert_eq!(closed.id, 1);
        assert!(bed.conns.close(slot_a, &bed.poller).is_none());
        assert_eq!(bed.conns.slot_of(token_a), None, "stale events miss");

        let (_c, slot_c) = bed.connect();
        assert_eq!(slot_c, 2, "slot 0 must sit out the current batch");
        bed.conns.end_batch();
        let (_d, slot_d) = bed.connect();
        assert_eq!(slot_d, slot_a);
        assert_eq!(bed.conns.slot_of(token_a), Some(slot_a));
        // Connection ids are never reused, whatever the slot.
        assert_eq!(bed.conns.get(slot_d).unwrap().id, 4);
    }

    #[test]
    fn a_parked_listener_accepts_again_after_the_next_tick() {
        let mut bed = bed();
        bed.listener.park(&bed.poller);
        let _client = TcpStream::connect(bed.addr).unwrap();
        assert_eq!(bed.ready(50), [], "a parked listener wakes no one");

        // The tick: back on the poller, and the pending connection shows.
        bed.listener.rearm(&bed.poller);
        assert!(!bed.listener.parked);
        assert_eq!(bed.ready(1000), [(LISTENER, false)]);
        bed.conns
            .accept_burst(&mut bed.listener, &bed.poller, || ());
        assert_eq!(bed.conns.iter().count(), 1);
        assert!(!bed.listener.parked);
    }
}
