//! A coalescing timer wheel.
//!
//! The reactor needs its periodic sweep tick, and any other timer,
//! folded into one answer to "how long may the poller sleep?". The wheel
//! is a min-heap of `(due, id)` entries: scheduling is O(log n), the
//! earliest deadline is read in O(1), and entries due at the same
//! instant fire in the order they were scheduled. A timer fires once and
//! is then gone; there is no cancellation.
//!
//! The wheel is driven by caller-supplied [`Instant`]s, so it is
//! deterministic under test and never reads the clock itself.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Opaque handle identifying a scheduled timer.
///
/// Ids are unique per wheel for its lifetime and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerId(u64);

#[derive(Debug)]
struct Entry {
    due: Instant,
    id: TimerId,
    what: u64,
}

// Min-heap by due time (BinaryHeap is a max-heap, so invert).
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.id == other.id
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Coalescing timer collection: schedule many timers, sleep until the
/// earliest, pop everything due.
///
/// # Examples
///
/// ```
/// use sae_poll::TimerWheel;
/// use std::time::{Duration, Instant};
///
/// let mut wheel = TimerWheel::new();
/// let now = Instant::now();
/// wheel.schedule_at(now + Duration::from_millis(5), 42);
/// assert!(wheel.next_timeout(now) <= Some(Duration::from_millis(5)));
/// let fired = wheel.expire(now + Duration::from_millis(6));
/// assert_eq!(fired.len(), 1);
/// assert_eq!(fired[0].1, 42);
/// ```
#[derive(Debug, Default)]
pub struct TimerWheel {
    heap: BinaryHeap<Entry>,
    next_id: u64,
}

impl TimerWheel {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a timer due at `due` carrying the payload `what`.
    pub fn schedule_at(&mut self, due: Instant, what: u64) -> TimerId {
        let id = TimerId(self.next_id);
        self.next_id += 1;
        self.heap.push(Entry { due, id, what });
        id
    }

    /// How long the caller may sleep from `now` before the earliest
    /// timer is due. `None` means no timers are scheduled; `Some(ZERO)`
    /// means something is already due.
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let head = self.heap.peek()?;
        Some(head.due.saturating_duration_since(now))
    }

    /// Pops every timer due at or before `now`, in due order, as
    /// `(id, payload)` pairs.
    pub fn expire(&mut self, now: Instant) -> Vec<(TimerId, u64)> {
        let mut fired = Vec::new();
        while let Some(head) = self.heap.peek() {
            if head.due > now {
                break;
            }
            let entry = self.heap.pop().expect("peeked entry exists");
            fired.push((entry.id, entry.what));
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_due_order() {
        let mut wheel = TimerWheel::new();
        let t0 = Instant::now();
        wheel.schedule_at(t0 + Duration::from_millis(30), 3);
        wheel.schedule_at(t0 + Duration::from_millis(10), 1);
        wheel.schedule_at(t0 + Duration::from_millis(20), 2);
        // Due at the same instant as 3: fires after it, in schedule order.
        wheel.schedule_at(t0 + Duration::from_millis(30), 4);
        let fired = wheel.expire(t0 + Duration::from_millis(25));
        assert_eq!(fired.iter().map(|&(_, w)| w).collect::<Vec<_>>(), [1, 2]);
        let fired = wheel.expire(t0 + Duration::from_millis(40));
        assert_eq!(fired.iter().map(|&(_, w)| w).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(wheel.next_timeout(t0), None);
    }

    #[test]
    fn next_timeout_tracks_earliest_entry() {
        let mut wheel = TimerWheel::new();
        let t0 = Instant::now();
        assert_eq!(wheel.next_timeout(t0), None);
        wheel.schedule_at(t0 + Duration::from_millis(50), 1);
        wheel.schedule_at(t0 + Duration::from_millis(10), 0);
        assert_eq!(wheel.next_timeout(t0), Some(Duration::from_millis(10)));
        wheel.expire(t0 + Duration::from_millis(10));
        assert_eq!(wheel.next_timeout(t0), Some(Duration::from_millis(50)));
    }

    #[test]
    fn overdue_entry_yields_zero_timeout() {
        let mut wheel = TimerWheel::new();
        let t0 = Instant::now();
        wheel.schedule_at(t0, 9);
        assert_eq!(
            wheel.next_timeout(t0 + Duration::from_millis(5)),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn ids_never_repeat() {
        let mut wheel = TimerWheel::new();
        let t0 = Instant::now();
        let a = wheel.schedule_at(t0, 0);
        wheel.expire(t0);
        let b = wheel.schedule_at(t0, 0);
        assert_ne!(a, b);
    }
}
