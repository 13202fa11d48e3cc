//! Registration epochs: fencing stale incarnations of an executor.
//!
//! When executors can die and *reincarnate* mid-job, the driver needs a
//! way to tell frames from the current incarnation apart from frames a
//! zombie predecessor left in flight — the classic fencing-token problem.
//! [`EpochRegistry`] is that bookkeeping as a pure state machine: no
//! sockets, no clocks, no locks, so it can be driven exhaustively by
//! property tests.
//!
//! The model: each executor id has a monotonically increasing **epoch**,
//! bumped on every (re-)registration and on every driver-side
//! resurrection, and at most one **current connection** (an opaque id
//! minted by the acceptor, unique per accepted socket for the lifetime of
//! a run). A frame is admitted only when it arrives on the connection the
//! registry currently believes in; everything else is [`Admission::Stale`]
//! and must be dropped by the caller.

/// Verdict on a frame's provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The frame arrived on the executor's current connection.
    Current,
    /// The frame belongs to a superseded incarnation: drop it.
    Stale,
}

/// Outcome of a (re-)registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registration {
    /// The incarnation's epoch (1 for the first registration).
    pub epoch: u64,
    /// Whether this registration superseded a previous incarnation.
    pub reincarnation: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    epoch: u64,
    conn: Option<u64>,
}

/// Per-executor registration epochs and current-connection tracking.
///
/// # Examples
///
/// ```
/// use sae_live::{Admission, EpochRegistry};
///
/// let mut reg = EpochRegistry::new(2);
/// let first = reg.register(0, 7);
/// assert_eq!((first.epoch, first.reincarnation), (1, false));
/// assert_eq!(reg.admit(0, 7), Admission::Current);
/// // The executor reconnects on a new socket: the old one is fenced.
/// let second = reg.register(0, 9);
/// assert_eq!((second.epoch, second.reincarnation), (2, true));
/// assert_eq!(reg.admit(0, 7), Admission::Stale);
/// assert_eq!(reg.admit(0, 9), Admission::Current);
/// ```
#[derive(Debug, Clone)]
pub struct EpochRegistry {
    entries: Vec<Entry>,
}

impl EpochRegistry {
    /// A registry for executors `0..n`, all unregistered (epoch 0).
    pub fn new(n: usize) -> Self {
        Self {
            entries: vec![Entry::default(); n],
        }
    }

    /// Books a Register handshake from `executor` on connection `conn`:
    /// bumps the epoch and makes `conn` the only admitted connection.
    ///
    /// A registration that replaces an earlier incarnation (any previous
    /// epoch > 0) reports `reincarnation: true` so the driver can requeue
    /// the predecessor's work and journal the rebirth.
    pub fn register(&mut self, executor: usize, conn: u64) -> Registration {
        let e = &mut self.entries[executor];
        let reincarnation = e.epoch > 0;
        e.epoch += 1;
        e.conn = Some(conn);
        Registration {
            epoch: e.epoch,
            reincarnation,
        }
    }

    /// Opens a new epoch for `executor` *without* changing its connection —
    /// the driver-side resurrection path, taken when frames keep arriving
    /// on the current connection of an executor previously declared lost
    /// (a healed partition: the socket never died). Returns the new epoch.
    pub fn resurrect(&mut self, executor: usize) -> u64 {
        let e = &mut self.entries[executor];
        e.epoch += 1;
        e.epoch
    }

    /// Whether a frame from `executor` on `conn` belongs to the current
    /// incarnation. Unregistered executors admit nothing.
    pub fn admit(&self, executor: usize, conn: u64) -> Admission {
        match self.entries.get(executor) {
            Some(e) if e.conn == Some(conn) => Admission::Current,
            _ => Admission::Stale,
        }
    }

    /// Books a connection teardown. Returns `true` (and forgets the
    /// connection) only when `conn` was current — an EOF from a fenced
    /// predecessor must not take down its successor.
    pub fn disconnect(&mut self, executor: usize, conn: u64) -> bool {
        match self.entries.get_mut(executor) {
            Some(e) if e.conn == Some(conn) => {
                e.conn = None;
                true
            }
            _ => false,
        }
    }

    /// The executor's current epoch (0 before its first registration).
    pub fn epoch(&self, executor: usize) -> u64 {
        self.entries.get(executor).map_or(0, |e| e.epoch)
    }

    /// The executor's current connection id, if one is admitted.
    pub fn current_conn(&self, executor: usize) -> Option<u64> {
        self.entries.get(executor).and_then(|e| e.conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_registration_is_epoch_one_not_a_reincarnation() {
        let mut reg = EpochRegistry::new(3);
        assert_eq!(reg.epoch(1), 0);
        assert_eq!(reg.admit(1, 5), Admission::Stale);
        let r = reg.register(1, 5);
        assert_eq!(
            r,
            Registration {
                epoch: 1,
                reincarnation: false
            }
        );
        assert_eq!(reg.admit(1, 5), Admission::Current);
        assert_eq!(reg.current_conn(1), Some(5));
    }

    #[test]
    fn reregistration_fences_the_previous_connection() {
        let mut reg = EpochRegistry::new(1);
        reg.register(0, 1);
        let r = reg.register(0, 2);
        assert!(r.reincarnation);
        assert_eq!(r.epoch, 2);
        assert_eq!(reg.admit(0, 1), Admission::Stale);
        assert_eq!(reg.admit(0, 2), Admission::Current);
    }

    #[test]
    fn stale_disconnect_is_a_no_op() {
        let mut reg = EpochRegistry::new(1);
        reg.register(0, 1);
        reg.register(0, 2);
        // The zombie's EOF arrives after its successor registered.
        assert!(!reg.disconnect(0, 1));
        assert_eq!(reg.current_conn(0), Some(2));
        assert!(reg.disconnect(0, 2));
        assert_eq!(reg.current_conn(0), None);
        assert_eq!(reg.admit(0, 2), Admission::Stale);
    }

    #[test]
    fn resurrection_bumps_the_epoch_but_keeps_the_connection() {
        let mut reg = EpochRegistry::new(1);
        reg.register(0, 4);
        assert_eq!(reg.resurrect(0), 2);
        assert_eq!(reg.current_conn(0), Some(4));
        assert_eq!(reg.admit(0, 4), Admission::Current);
    }
}
