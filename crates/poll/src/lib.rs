//! Readiness polling and timer coalescing for the live reactor.
//!
//! The live runtime's driver serves every executor connection from one
//! thread; what it needs from the OS is exactly two primitives:
//!
//! * [`Poller`] — level-triggered readiness notification over many
//!   non-blocking sockets (`epoll` on Linux, where the cluster runs).
//!   This is the only place in the workspace that talks to the kernel
//!   directly; everything above it is safe Rust over `std` sockets.
//! * [`TimerWheel`] — a min-heap of deadlines that folds the reactor's
//!   periodic sweep tick, and any other timer, into one "next wakeup"
//!   the poller can sleep towards.
//!
//! No external crates: the build environment vendors no `mio`/`libc`, so
//! the epoll shim declares the four syscall wrappers it needs against the
//! C library `std` already links. The FFI surface is confined to the
//! `sys` module; the rest of the crate is `#[forbid(unsafe_code)]`-grade
//! safe code, enforced per-module rather than per-crate only because the
//! shim itself cannot be.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::io;
use std::time::Duration;

pub mod signal;
mod sys;
mod wheel;

pub use wheel::{TimerId, TimerWheel};

/// Caps `socket`'s kernel send buffer at roughly `bytes` (`SO_SNDBUF`;
/// Linux doubles the requested value, and clamps to the `wmem` floor).
///
/// Long-lived streaming connections use this so that a consumer that
/// stops reading exhausts a *bounded* kernel buffer: writes then return
/// `WouldBlock` promptly and the application's own high-water
/// backpressure takes over, rather than the kernel autotuning megabytes
/// of invisible queue per stalled peer. Best-effort off Linux (no-op).
pub fn set_send_buffer(socket: &impl std::os::fd::AsRawFd, bytes: usize) -> io::Result<()> {
    sys::set_send_buffer(socket.as_raw_fd(), bytes)
}

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of a connection with an empty
    /// write queue.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Readable and writable — a connection with queued output waiting
    /// for the socket buffer to drain.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read, or the peer closed (read to find out).
    pub readable: bool,
    /// The fd can accept more bytes.
    pub writable: bool,
    /// Error or hangup condition; treat like readable (the read will
    /// surface the actual error/EOF).
    pub error: bool,
}

/// A level-triggered readiness poller over raw file descriptors.
///
/// On Linux this is an `epoll` instance. Registration is by token: the
/// caller picks a `u64` it can map back to its own connection state.
/// Level-triggered semantics mean a ready fd keeps reporting ready until
/// drained — spurious wakeups are allowed and harmless, missed readiness
/// is not and cannot happen.
///
/// # Examples
///
/// ```no_run
/// use sae_poll::{Interest, Poller};
/// use std::net::TcpListener;
/// use std::time::Duration;
///
/// let listener = TcpListener::bind("127.0.0.1:0").unwrap();
/// listener.set_nonblocking(true).unwrap();
/// let poller = Poller::new().unwrap();
/// poller.register(&listener, 0, Interest::READABLE).unwrap();
/// let mut events = Vec::new();
/// poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
/// ```
#[derive(Debug)]
pub struct Poller {
    inner: sys::PollerImpl,
}

impl Poller {
    /// Creates a poller instance.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            inner: sys::PollerImpl::new()?,
        })
    }

    /// Registers `source` under `token` with the given interest.
    pub fn register(
        &self,
        source: &impl std::os::fd::AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.register(source.as_raw_fd(), token, interest)
    }

    /// Changes the interest set of an already-registered `source`.
    pub fn modify(
        &self,
        source: &impl std::os::fd::AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.modify(source.as_raw_fd(), token, interest)
    }

    /// Removes `source` from the poller. Must be called before the fd is
    /// closed (the kernel also auto-deregisters on close, but only once
    /// every duplicate of the fd is gone).
    pub fn deregister(&self, source: &impl std::os::fd::AsRawFd) -> io::Result<()> {
        self.inner.deregister(source.as_raw_fd())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` waits indefinitely), appending events to `events`
    /// after clearing it. Returns the number of events delivered; 0 means
    /// the wait timed out.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        self.inner.wait(events, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readable_after_peer_writes() {
        let (a, mut b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(&a, 7, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        // Nothing to read yet: the wait must time out.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "spurious readiness before any bytes: {events:?}");
        b.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(n >= 1);
        let ev = events.iter().find(|e| e.token == 7).expect("our token");
        assert!(ev.readable || ev.error);
        let mut buf = [0u8; 8];
        let mut a = &a;
        assert_eq!(a.read(&mut buf).unwrap(), 4);
    }

    #[test]
    fn writable_when_buffer_has_room_and_level_triggered() {
        let (a, _b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(&a, 1, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        for _ in 0..2 {
            // Level-triggered: an idle writable socket reports writable on
            // every wait, not just the first.
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 1 && e.writable),
                "socket with room must report writable: {events:?}"
            );
        }
    }

    #[test]
    fn hangup_reports_ready_and_read_sees_eof() {
        let (a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(&a, 3, Interest::READABLE).unwrap();
        drop(b);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(n >= 1, "peer hangup must wake the poller");
        let mut buf = [0u8; 8];
        let mut a = &a;
        assert_eq!(a.read(&mut buf).unwrap(), 0, "hangup reads as EOF");
    }

    #[test]
    fn deregistered_fd_stops_reporting() {
        let (a, mut b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(&a, 9, Interest::READABLE).unwrap();
        poller.deregister(&a).unwrap();
        b.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            events.iter().all(|e| e.token != 9),
            "deregistered fd still reported: {events:?}"
        );
    }

    #[test]
    fn modify_flips_interest() {
        let (a, mut b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(&a, 4, Interest::READABLE).unwrap();
        b.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 4 && e.readable));
        // After modify to BOTH, writable shows up too.
        poller.modify(&a, 4, Interest::BOTH).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 4 && e.writable));
    }
}
