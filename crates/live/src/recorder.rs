//! The flight recorder: a lock-free-ish bounded ring buffer of live
//! runtime events, merged into one clock-aligned Chrome trace.
//!
//! Every component of a loopback cluster — the driver's event loop, each
//! executor's serve loop, heartbeat threads, pool workers — pushes
//! [`LiveEvent`]s into one shared [`FlightRecorder`]. The recorder is a
//! fixed-capacity ring: a push claims the next sequence number with one
//! atomic `fetch_add` and stores the event in slot `seq % capacity` under
//! a per-slot mutex, so writers never contend on a global lock and old
//! events are overwritten (and counted as dropped) rather than growing
//! memory without bound — the "black box" discipline of a real flight
//! recorder.
//!
//! All timestamps are seconds since the recorder's epoch, the single
//! `Instant` shared by the whole cluster. That is what makes the merged
//! export clock-aligned: a driver-side `TaskStarted` and the executor-side
//! frame that caused it land on one timeline without any skew correction.
//!
//! The scheduler-visible vocabulary is [`sae_dag::TraceEvent`] — the same
//! enum the simulator records — serialized by the same
//! [`sae_dag::append_chrome_entries`] rows, so a sim trace and a live
//! trace of the same job overlay in Perfetto. Around it, live-only events
//! capture what the simulator has no wire for: frames sent and received,
//! heartbeats, slot-registry changes, and log lines.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use sae_dag::{append_chrome_entries, TraceEvent};
use sae_net::http::escape_json;

use crate::log::LogLevel;

/// One event on the live cluster's merged timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveEvent {
    /// A scheduler-visible event, in the simulator's shared vocabulary.
    Trace(TraceEvent),
    /// A frame left for the wire.
    FrameSent {
        /// Executor the frame concerns (the sender for executor→driver
        /// traffic, the destination for driver→executor traffic).
        executor: usize,
        /// Frame kind (see `crate::wire::Frame::kind_str`).
        kind: &'static str,
        /// Encoded size in bytes, length prefix included.
        bytes: usize,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// A frame arrived off the wire.
    FrameReceived {
        /// Executor the frame concerns.
        executor: usize,
        /// Frame kind (see `crate::wire::Frame::kind_str`).
        kind: &'static str,
        /// Encoded size in bytes, length prefix included.
        bytes: usize,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// The driver observed a heartbeat from an executor.
    Heartbeat {
        /// The executor that beat.
        executor: usize,
        /// Seconds of silence this beat ended.
        gap: f64,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// The driver's slot registry changed for one executor.
    SlotRegistryChanged {
        /// The executor whose entry changed.
        executor: usize,
        /// Its total slots (last announced pool size).
        slots: usize,
        /// Slots not currently running a task.
        free: usize,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// The nemesis wire layer injected one scheduled fault window.
    FaultInjected {
        /// The executor whose link the fault hit.
        executor: usize,
        /// The fault kind ([`sae_dag::WireFaultKind::label`], or
        /// `"disk"` / `"crash"` for the chaos agent's faults).
        kind: &'static str,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// A dead or partitioned executor re-registered (or was resurrected
    /// on evidence of life) and rejoined the fleet.
    ExecutorReincarnated {
        /// The reborn executor.
        executor: usize,
        /// Its new registration epoch.
        epoch: u64,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// The driver dropped a frame from a superseded incarnation.
    EpochFenced {
        /// The executor whose stale incarnation sent the frame.
        executor: usize,
        /// Frame kind (see `crate::wire::Frame::kind_str`).
        kind: &'static str,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// The usable-executor count fell below the floor (no usable
    /// executor left): the driver parked the job instead of failing fast.
    Degraded {
        /// Usable executors at the moment of entry.
        live: usize,
        /// The usable-executor floor (1).
        floor: usize,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// The fleet recovered above the floor and the job resumed.
    DegradedRecovered {
        /// Seconds spent parked.
        waited: f64,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// A log line emitted through `crate::log::Logger`.
    Log {
        /// Severity.
        level: LogLevel,
        /// The component that logged ("driver", "executor-2", ...).
        scope: String,
        /// The rendered message.
        message: String,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// One task attempt's execution span, streamed off the wire with its
    /// full (job, stage, task, attempt, epoch) trace key — the
    /// cross-process correlation record that lets a multi-process fleet's
    /// events merge into one causally-ordered trace during the run.
    TaskSpan {
        /// The wire job id the task ran under (the single-job driver's
        /// job is `crate::task::SINGLE_JOB`).
        job: u64,
        /// Stage index within the job.
        stage: usize,
        /// Task index within the stage.
        task: usize,
        /// Attempt number as reported by the executor.
        attempt: usize,
        /// The executor incarnation that ran the attempt.
        epoch: u64,
        /// The executor that ran the attempt.
        executor: usize,
        /// Span start, seconds since the *executor's* recorder epoch.
        start: f64,
        /// Span end, same clock as `start`.
        end: f64,
        /// Whether the attempt succeeded.
        ok: bool,
    },
    /// A job changed lifecycle state on the multi-tenant server.
    JobStatusChanged {
        /// The job.
        job: u64,
        /// Owning tenant.
        tenant: String,
        /// The new status label ("queued", "running", "completed", ...).
        status: &'static str,
        /// Seconds since the recorder epoch.
        at: f64,
    },
    /// The server appended one line to a job's journal. Streamed to
    /// per-job `/events` subscribers; the line number doubles as the SSE
    /// event id that `Last-Event-ID` resume counts from.
    JournalLine {
        /// The job.
        job: u64,
        /// Zero-based line number within the job's journal.
        line_no: u64,
        /// The JSONL line, without the trailing newline.
        line: String,
        /// Seconds since the recorder epoch.
        at: f64,
    },
}

impl LiveEvent {
    /// The event's timestamp in seconds since the recorder epoch.
    pub(crate) fn at(&self) -> f64 {
        match self {
            LiveEvent::Trace(e) => e.at(),
            LiveEvent::FrameSent { at, .. }
            | LiveEvent::FrameReceived { at, .. }
            | LiveEvent::Heartbeat { at, .. }
            | LiveEvent::SlotRegistryChanged { at, .. }
            | LiveEvent::FaultInjected { at, .. }
            | LiveEvent::ExecutorReincarnated { at, .. }
            | LiveEvent::EpochFenced { at, .. }
            | LiveEvent::Degraded { at, .. }
            | LiveEvent::DegradedRecovered { at, .. }
            | LiveEvent::Log { at, .. }
            | LiveEvent::JobStatusChanged { at, .. }
            | LiveEvent::JournalLine { at, .. } => *at,
            LiveEvent::TaskSpan { end, .. } => *end,
        }
    }
}

struct Inner {
    slots: Vec<Mutex<Option<(u64, LiveEvent)>>>,
    cursor: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
    /// Live fan-out subscribers. Behind an `RwLock` so the hot push path
    /// takes only a read lock; `has_subs` short-circuits even that when
    /// nobody is listening.
    subs: RwLock<Vec<Arc<SubShared>>>,
    has_subs: AtomicBool,
    /// Cumulative events dropped across all subscriber queues, surviving
    /// subscriber disconnect (per-subscriber counters die with them).
    sub_dropped: AtomicU64,
    /// Per-executor count of ζ decision records already pushed onto this
    /// recorder from *streamed* `ZetaSample` frames, so the shutdown-time
    /// journal replay (in-thread executors and the process-fleet reaper
    /// alike) replays only the unstreamed tail instead of duplicating the
    /// live merge.
    zeta_streamed: Mutex<Vec<u64>>,
}

/// State shared between a [`Subscription`] handle and the recorder.
struct SubShared {
    queue: Mutex<VecDeque<(u64, LiveEvent)>>,
    capacity: usize,
    dropped: AtomicU64,
    closed: AtomicBool,
}

/// A handle onto one bounded fan-out queue of live events.
///
/// Created by [`FlightRecorder::subscribe`]. Every event pushed to the
/// recorder after that point is cloned into the subscriber's queue; when
/// the queue is full the **oldest** queued event is overwritten and the
/// subscriber's `dropped` counter incremented — a slow consumer loses
/// telemetry (visibly) but can never stall a writer or grow memory.
/// Dropping the handle unsubscribes.
pub struct Subscription {
    shared: Arc<SubShared>,
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("capacity", &self.shared.capacity)
            .field("queued", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Subscription {
    /// Events currently queued.
    pub(crate) fn len(&self) -> usize {
        self.shared.queue.lock().len()
    }

    /// Events this subscriber lost to queue overwrites.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Removes and returns the oldest queued event with its global
    /// sequence number.
    pub(crate) fn pop(&self) -> Option<(u64, LiveEvent)> {
        self.shared.queue.lock().pop_front()
    }

    /// Drains every queued event, oldest first.
    pub fn drain(&self) -> Vec<(u64, LiveEvent)> {
        self.shared.queue.lock().drain(..).collect()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
    }
}

/// A shared, bounded, overwrite-on-full event ring.
///
/// Cloning shares the ring; capacity 0 disables recording entirely (every
/// push is a branch and a return — the configuration the overhead
/// benchmark compares against).
///
/// # Examples
///
/// ```
/// use sae_live::recorder::{FlightRecorder, LiveEvent};
///
/// let rec = FlightRecorder::new(8);
/// rec.push(LiveEvent::Heartbeat { executor: 0, gap: 0.1, at: rec.now() });
/// let events = rec.snapshot();
/// assert_eq!(events.len(), 1);
/// ```
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a ring of `capacity` slots with the epoch set to now.
    pub fn new(capacity: usize) -> Self {
        Self::with_epoch(capacity, Instant::now())
    }

    /// Creates a ring whose timestamps count from `epoch`.
    ///
    /// Hand the same recorder (or at least the same epoch) to every
    /// component of a cluster: clock alignment of the merged trace is
    /// exactly "everyone measures seconds since this one instant".
    pub(crate) fn with_epoch(capacity: usize, epoch: Instant) -> Self {
        Self {
            inner: Arc::new(Inner {
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
                cursor: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                epoch,
                subs: RwLock::new(Vec::new()),
                has_subs: AtomicBool::new(false),
                sub_dropped: AtomicU64::new(0),
                zeta_streamed: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A recorder that records nothing (capacity 0).
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Whether pushes are recorded at all.
    pub(crate) fn enabled(&self) -> bool {
        !self.inner.slots.is_empty()
    }

    /// Ring capacity in events.
    pub(crate) fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// The epoch all timestamps count from.
    pub(crate) fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    /// Seconds elapsed since the epoch — the timestamp for a new event.
    pub fn now(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64()
    }

    /// Records one event; the oldest event is overwritten when full.
    ///
    /// The event also fans out to every live [`Subscription`] — including
    /// when the ring itself is disabled (capacity 0): streaming consumers
    /// and the post-hoc ring are independent sinks.
    pub fn push(&self, event: LiveEvent) {
        let capacity = self.inner.slots.len();
        let has_subs = self.inner.has_subs.load(Ordering::Acquire);
        if capacity == 0 && !has_subs {
            return;
        }
        let seq = self.inner.cursor.fetch_add(1, Ordering::Relaxed);
        if has_subs {
            self.fan_out(seq, &event);
        }
        if capacity == 0 {
            return;
        }
        let mut slot = self.inner.slots[seq as usize % capacity].lock();
        if slot.is_some() {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Some((seq, event));
    }

    /// Clones `event` into every live subscriber queue, overwriting the
    /// oldest queued event (and counting a drop) when one is full. Closed
    /// subscribers found along the way are garbage-collected opportunistically.
    fn fan_out(&self, seq: u64, event: &LiveEvent) {
        let mut saw_closed = false;
        {
            let subs = self.inner.subs.read();
            for sub in subs.iter() {
                if sub.closed.load(Ordering::Acquire) {
                    saw_closed = true;
                    continue;
                }
                let mut queue = sub.queue.lock();
                if queue.len() >= sub.capacity {
                    queue.pop_front();
                    sub.dropped.fetch_add(1, Ordering::Relaxed);
                    self.inner.sub_dropped.fetch_add(1, Ordering::Relaxed);
                }
                queue.push_back((seq, event.clone()));
            }
        }
        if saw_closed {
            // Rare path: only taken on the first push after a disconnect.
            let mut subs = self.inner.subs.write();
            subs.retain(|s| !s.closed.load(Ordering::Acquire));
            self.inner
                .has_subs
                .store(!subs.is_empty(), Ordering::Release);
        }
    }

    /// Registers a fan-out subscriber with a bounded queue of `capacity`
    /// events (minimum 1). See [`Subscription`] for the overwrite-oldest
    /// drop discipline.
    pub fn subscribe(&self, capacity: usize) -> Subscription {
        let shared = Arc::new(SubShared {
            queue: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let mut subs = self.inner.subs.write();
        subs.retain(|s| !s.closed.load(Ordering::Acquire));
        subs.push(Arc::clone(&shared));
        self.inner.has_subs.store(true, Ordering::Release);
        Subscription { shared }
    }

    /// Cumulative events lost across all subscriber queues, including
    /// queues whose subscribers have since disconnected.
    pub(crate) fn subscriber_dropped(&self) -> u64 {
        self.inner.sub_dropped.load(Ordering::Relaxed)
    }

    /// Notes that one streamed ζ sample from `executor` was pushed onto
    /// this recorder, so the shutdown-time journal replay skips it.
    pub(crate) fn note_zeta_streamed(&self, executor: usize) {
        let mut counts = self.inner.zeta_streamed.lock();
        if counts.len() <= executor {
            counts.resize(executor + 1, 0);
        }
        counts[executor] += 1;
    }

    /// How many of `executor`'s ζ decision records already reached this
    /// recorder via live `ZetaSample` frames.
    pub(crate) fn zeta_streamed(&self, executor: usize) -> u64 {
        self.inner
            .zeta_streamed
            .lock()
            .get(executor)
            .copied()
            .unwrap_or(0)
    }

    /// Total events ever pushed (recorded or overwritten).
    pub(crate) fn recorded(&self) -> u64 {
        self.inner.cursor.load(Ordering::Relaxed)
    }

    /// Events lost to ring overwrites.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the ring's current contents, oldest first.
    ///
    /// Events are ordered by timestamp (ties broken by push order):
    /// components push concurrently, and some events — the ζ samples an
    /// executor replays from its decision journal at shutdown — are pushed
    /// after the instants they describe.
    pub fn snapshot(&self) -> Vec<LiveEvent> {
        let mut pairs: Vec<(u64, LiveEvent)> = self
            .inner
            .slots
            .iter()
            .filter_map(|s| s.lock().clone())
            .collect();
        pairs.sort_by(|a, b| {
            a.1.at()
                .partial_cmp(&b.1.at())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        pairs.into_iter().map(|(_, e)| e).collect()
    }

    /// Exports the ring's contents as a Chrome trace (see [`chrome_trace`]).
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.snapshot())
    }
}

/// Renders events as a Chrome trace-event JSON array.
///
/// Row layout extends the simulator's export ([`sae_dag`]'s pid 0 =
/// driver, pid 1 = executors) with pid 2 = the wire: frame and heartbeat
/// instants per executor row, plus a cumulative `wire-bytes` counter
/// track. Slot-registry changes become per-executor `slots-exec{e}`
/// counter tracks on the driver process, alongside the `pool-size-exec{e}`
/// and `zeta-exec{e}` tracks that [`sae_dag::append_chrome_entries`] emits
/// for `PoolResized` / `IntervalClosed` events. Open the output in
/// `chrome://tracing` or Perfetto.
pub fn chrome_trace(events: &[LiveEvent]) -> String {
    let us = |t: f64| (t * 1e6).round() as i64;
    let mut entries: Vec<String> = Vec::with_capacity(events.len() + 3);
    for (pid, name) in [(0, "driver"), (1, "executors"), (2, "wire")] {
        entries.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"args":{{"name":"{name}"}}}}"#
        ));
    }
    let (mut wire_sent, mut wire_received) = (0u64, 0u64);
    for event in events {
        match event {
            LiveEvent::Trace(e) => append_chrome_entries(e, &mut entries),
            LiveEvent::FrameSent {
                executor,
                kind,
                bytes,
                at,
            } => {
                wire_sent += *bytes as u64;
                entries.push(format!(
                    r#"{{"name":"send:{kind}","ph":"i","ts":{},"pid":2,"tid":{executor},"s":"t","args":{{"bytes":{bytes}}}}}"#,
                    us(*at)
                ));
                entries.push(format!(
                    r#"{{"name":"wire-bytes","ph":"C","ts":{},"pid":2,"tid":0,"args":{{"sent":{wire_sent},"received":{wire_received}}}}}"#,
                    us(*at)
                ));
            }
            LiveEvent::FrameReceived {
                executor,
                kind,
                bytes,
                at,
            } => {
                wire_received += *bytes as u64;
                entries.push(format!(
                    r#"{{"name":"recv:{kind}","ph":"i","ts":{},"pid":2,"tid":{executor},"s":"t","args":{{"bytes":{bytes}}}}}"#,
                    us(*at)
                ));
                entries.push(format!(
                    r#"{{"name":"wire-bytes","ph":"C","ts":{},"pid":2,"tid":0,"args":{{"sent":{wire_sent},"received":{wire_received}}}}}"#,
                    us(*at)
                ));
            }
            LiveEvent::Heartbeat { executor, gap, at } => {
                let gap = if gap.is_finite() { *gap } else { 0.0 };
                entries.push(format!(
                    r#"{{"name":"heartbeat","ph":"i","ts":{},"pid":2,"tid":{executor},"s":"t","args":{{"gap_s":{gap:?}}}}}"#,
                    us(*at)
                ));
            }
            LiveEvent::SlotRegistryChanged {
                executor,
                slots,
                free,
                at,
            } => {
                entries.push(format!(
                    r#"{{"name":"slots-exec{executor}","ph":"C","ts":{},"pid":0,"tid":{executor},"args":{{"slots":{slots},"free":{free}}}}}"#,
                    us(*at)
                ));
            }
            LiveEvent::FaultInjected { executor, kind, at } => {
                entries.push(format!(
                    r#"{{"name":"fault:{kind}","ph":"i","ts":{},"pid":2,"tid":{executor},"s":"p","args":{{}}}}"#,
                    us(*at)
                ));
            }
            LiveEvent::ExecutorReincarnated {
                executor,
                epoch,
                at,
            } => {
                entries.push(format!(
                    r#"{{"name":"reincarnated","ph":"i","ts":{},"pid":0,"tid":{executor},"s":"p","args":{{"epoch":{epoch}}}}}"#,
                    us(*at)
                ));
            }
            LiveEvent::EpochFenced { executor, kind, at } => {
                entries.push(format!(
                    r#"{{"name":"fenced:{kind}","ph":"i","ts":{},"pid":0,"tid":{executor},"s":"t","args":{{}}}}"#,
                    us(*at)
                ));
            }
            LiveEvent::Degraded { live, floor, at } => {
                entries.push(format!(
                    r#"{{"name":"degraded","ph":"i","ts":{},"pid":0,"tid":0,"s":"g","args":{{"live":{live},"floor":{floor}}}}}"#,
                    us(*at)
                ));
            }
            LiveEvent::DegradedRecovered { waited, at } => {
                entries.push(format!(
                    r#"{{"name":"degraded-recovered","ph":"i","ts":{},"pid":0,"tid":0,"s":"g","args":{{"waited_s":{waited:?}}}}}"#,
                    us(*at)
                ));
            }
            LiveEvent::Log {
                level,
                scope,
                message,
                at,
            } => {
                entries.push(format!(
                    r#"{{"name":"log-{}","ph":"i","ts":{},"pid":0,"tid":0,"s":"g","args":{{"scope":"{}","message":"{}"}}}}"#,
                    level.as_str(),
                    us(*at),
                    escape_json(scope),
                    escape_json(message)
                ));
            }
            LiveEvent::TaskSpan {
                job,
                stage,
                task,
                attempt,
                epoch,
                executor,
                start,
                end,
                ok,
            } => {
                let dur = ((end - start).max(0.0) * 1e6).round() as i64;
                entries.push(format!(
                    r#"{{"name":"span:j{job}:s{stage}:t{task}:a{attempt}","ph":"X","ts":{},"dur":{dur},"pid":1,"tid":{executor},"args":{{"job":{job},"stage":{stage},"task":{task},"attempt":{attempt},"epoch":{epoch},"ok":{ok}}}}}"#,
                    us(*start)
                ));
            }
            LiveEvent::JobStatusChanged {
                job,
                tenant,
                status,
                at,
            } => {
                entries.push(format!(
                    r#"{{"name":"job{job}:{status}","ph":"i","ts":{},"pid":0,"tid":0,"s":"g","args":{{"tenant":"{}"}}}}"#,
                    us(*at),
                    escape_json(tenant)
                ));
            }
            // Journal lines are the streaming plane's payload, not trace
            // geometry — the journal artifact itself is the archival form.
            LiveEvent::JournalLine { .. } => {}
        }
    }
    format!("[{}]", entries.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat(executor: usize, at: f64) -> LiveEvent {
        LiveEvent::Heartbeat {
            executor,
            gap: 0.05,
            at,
        }
    }

    #[test]
    fn push_and_snapshot_round_trip_in_time_order() {
        let rec = FlightRecorder::new(16);
        rec.push(heartbeat(1, 2.0));
        rec.push(heartbeat(0, 1.0));
        rec.push(LiveEvent::Trace(TraceEvent::StageStarted {
            stage: 0,
            at: 0.5,
        }));
        let events = rec.snapshot();
        assert_eq!(events.len(), 3);
        for pair in events.windows(2) {
            assert!(pair[0].at() <= pair[1].at());
        }
        assert_eq!(rec.recorded(), 3);
        assert_eq!(rec.dropped(), 0);
        // Snapshot is non-destructive.
        assert_eq!(rec.snapshot().len(), 3);
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(4);
        for i in 0..10 {
            rec.push(heartbeat(i, i as f64));
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(rec.dropped(), 6);
        // Only the newest four survive.
        let ats: Vec<f64> = events.iter().map(LiveEvent::at).collect();
        assert_eq!(ats, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::disabled();
        assert!(!rec.enabled());
        rec.push(heartbeat(0, 1.0));
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.recorded(), 0);
        assert_eq!(rec.chrome_trace().matches("heartbeat").count(), 0);
    }

    #[test]
    fn concurrent_pushes_all_land() {
        let rec = FlightRecorder::new(4096);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        rec.push(heartbeat(t, i as f64));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rec.recorded(), 800);
        assert_eq!(rec.snapshot().len(), 800);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn subscribers_receive_pushed_events_in_order() {
        let rec = FlightRecorder::new(16);
        let sub = rec.subscribe(8);
        assert_eq!(rec.inner.subs.read().len(), 1);
        for i in 0..5 {
            rec.push(heartbeat(i, i as f64));
        }
        let got = sub.drain();
        assert_eq!(got.len(), 5);
        for (i, (seq, ev)) in got.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(ev.at(), i as f64);
        }
        assert_eq!(sub.dropped(), 0);
        // The ring is unaffected by fan-out.
        assert_eq!(rec.snapshot().len(), 5);
    }

    #[test]
    fn slow_subscriber_overwrites_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(64);
        let sub = rec.subscribe(4);
        for i in 0..10 {
            rec.push(heartbeat(i, i as f64));
        }
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.dropped(), 6);
        assert_eq!(rec.subscriber_dropped(), 6);
        let ats: Vec<f64> = sub.drain().iter().map(|(_, e)| e.at()).collect();
        assert_eq!(ats, vec![6.0, 7.0, 8.0, 9.0]);
        // The ring itself dropped nothing; the sinks are independent.
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn dropped_subscription_is_garbage_collected() {
        let rec = FlightRecorder::new(16);
        let sub = rec.subscribe(4);
        drop(sub);
        rec.push(heartbeat(0, 0.0)); // GC pass runs inside push
        assert!(rec.inner.subs.read().is_empty());
        rec.push(heartbeat(0, 1.0));
        assert_eq!(rec.snapshot().len(), 2);
    }

    #[test]
    fn disabled_ring_still_fans_out_to_subscribers() {
        let rec = FlightRecorder::disabled();
        let sub = rec.subscribe(8);
        rec.push(heartbeat(0, 0.5));
        assert_eq!(sub.len(), 1);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn zeta_streamed_counts_accumulate_per_executor() {
        let rec = FlightRecorder::new(4);
        assert_eq!(rec.zeta_streamed(3), 0);
        rec.note_zeta_streamed(3);
        rec.note_zeta_streamed(3);
        rec.note_zeta_streamed(0);
        assert_eq!(rec.zeta_streamed(3), 2);
        assert_eq!(rec.zeta_streamed(0), 1);
        assert_eq!(rec.zeta_streamed(7), 0);
    }

    #[test]
    fn task_span_renders_as_complete_event_with_trace_key() {
        let rec = FlightRecorder::new(8);
        rec.push(LiveEvent::TaskSpan {
            job: 3,
            stage: 1,
            task: 7,
            attempt: 0,
            epoch: 2,
            executor: 4,
            start: 0.5,
            end: 0.75,
            ok: true,
        });
        let json = rec.chrome_trace();
        assert!(json.contains(r#""name":"span:j3:s1:t7:a0","ph":"X""#));
        assert!(json.contains(r#""ts":500000,"dur":250000"#));
        assert!(json.contains(r#""epoch":2,"ok":true"#));
    }

    #[test]
    fn chrome_trace_merges_sim_vocabulary_and_wire_events() {
        let rec = FlightRecorder::new(64);
        rec.push(LiveEvent::Trace(TraceEvent::StageStarted {
            stage: 0,
            at: 0.0,
        }));
        rec.push(LiveEvent::FrameSent {
            executor: 1,
            kind: "register",
            bytes: 21,
            at: 0.1,
        });
        rec.push(LiveEvent::FrameReceived {
            executor: 1,
            kind: "heartbeat",
            bytes: 13,
            at: 0.2,
        });
        rec.push(LiveEvent::Trace(TraceEvent::PoolResized {
            executor: 1,
            to: 4,
            at: 0.3,
        }));
        rec.push(LiveEvent::SlotRegistryChanged {
            executor: 1,
            slots: 4,
            free: 4,
            at: 0.4,
        });
        rec.push(LiveEvent::Log {
            level: LogLevel::Info,
            scope: "driver".into(),
            message: "say \"hi\"\n".into(),
            at: 0.5,
        });
        let json = rec.chrome_trace();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The sim vocabulary renders through the shared serializer...
        assert!(json.contains(r#""name":"stage-0","ph":"B""#));
        assert!(json.contains(r#""name":"pool-size-exec1","ph":"C""#));
        // ...wire events land on pid 2 with a cumulative byte counter...
        assert!(json.contains(r#""name":"send:register","ph":"i""#));
        assert!(json.contains(r#""name":"recv:heartbeat","ph":"i""#));
        assert!(json.contains(r#""sent":21,"received":13"#));
        // ...registry changes become a slots counter track...
        assert!(json.contains(r#""name":"slots-exec1","ph":"C""#));
        assert!(json.contains(r#""slots":4,"free":4"#));
        // ...and log messages are JSON-escaped.
        assert!(json.contains(r#""message":"say \"hi\"\n""#));
        // Process rows are named for Perfetto.
        assert!(json.contains(r#""name":"process_name","ph":"M","pid":2"#));
    }
}
