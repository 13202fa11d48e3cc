//! The fleet ledger: the executor-membership protocol the single-job
//! driver and the job server share — the `Register` handshake, epoch
//! fencing and resurrection, the heartbeat sweep, the §5.4 fold of
//! `PoolSizeChanged` into the slot registry, the `FaultNotice` broadcast
//! on loss and the slot gate assignment passes through. [`Fleet`] reads
//! no clock (every liveness decision takes `now`) and owns no socket
//! (frames go to its [`Lanes`], which the loop flushes). Calls answer
//! with what happened — joined, reincarnated, resurrected, fenced,
//! resized, lost — and the caller requeues work and re-announces stages.
//! Membership telemetry is recorded here, under the caller's logger and
//! metric prefix. Blacklist and probation are ledger state, but only the
//! driver applies them.

use std::time::{Duration, Instant};

use sae_dag::{Message, TraceEvent};
use sae_metrics::{Counter, Gauge, Histogram, MetricRegistry};

use crate::epochs::{Admission, EpochRegistry};
use crate::log::Logger;
use crate::recorder::{FlightRecorder, LiveEvent};
use crate::shell::Lanes;
use crate::wire::Frame;

/// Snapshot of one executor's slot-registry entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotInfo {
    /// Whether the executor ever registered.
    pub registered: bool,
    /// Whether the driver currently believes it alive.
    pub alive: bool,
    /// Whether it was blacklisted for repeated failures.
    pub blacklisted: bool,
    /// Total slots (the executor's last announced pool size).
    pub slots: usize,
    /// Slots not currently running a task.
    pub free: usize,
}

/// The ledger's view of one executor. Only a registered executor (epoch
/// above 0) is ever alive.
#[derive(Debug, Clone, Default)]
pub(crate) struct Member {
    alive: bool,
    /// Set while blacklisted: the start of the executor's probation.
    blacklisted_at: Option<Instant>,
    /// The executor's last announced pool size: its task slots.
    pub(crate) slots: usize,
    /// Attempts booked on the executor and not yet settled.
    pub(crate) running: usize,
    failures_in_stage: usize,
    /// The last sign of life; `None` before the first registration.
    last_heartbeat: Option<Instant>,
}

impl Member {
    fn usable(&self) -> bool {
        self.alive && self.blacklisted_at.is_none()
    }
}

/// An executor that passed the `Register` handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Joined {
    pub(crate) executor: usize,
    /// It superseded an earlier incarnation, whose work is now orphaned.
    pub(crate) reincarnated: bool,
}

/// The verdict on a frame from a registered executor's connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// From the executor's current connection.
    Current,
    /// From the current connection of an executor declared lost: the
    /// partition healed, and it is back under a new epoch. It may have
    /// missed stage announcements meanwhile.
    Resurrected,
    /// From a superseded incarnation: counted and dropped.
    Fenced,
}

/// Every executor's membership state, plus the lanes frames reach them by.
/// Metrics are named `{prefix}.{name}`.
pub(crate) struct Fleet {
    members: Vec<Member>,
    epochs: EpochRegistry,
    /// Per-executor write queues; the event loop flushes them.
    pub(crate) lanes: Lanes,
    heartbeat_timeout: Duration,
    executors_lost: Counter,
    reincarnations: Counter,
    frames_fenced: Counter,
    heartbeat_gap_s: Histogram,
    pool_size: Vec<Gauge>,
    recorder: FlightRecorder,
    log: Logger,
    tap: Option<Tap>,
}

/// Called with every frame the fleet queues and its wire size.
type Tap = Box<dyn FnMut(usize, &Frame, usize)>;

impl Fleet {
    /// A ledger for executors `0..executors`, none registered yet.
    pub(crate) fn new(
        executors: usize,
        heartbeat_timeout: Duration,
        prefix: &str,
        registry: &MetricRegistry,
        log: Logger,
        recorder: FlightRecorder,
    ) -> Self {
        let name = |what: &str| format!("{prefix}.{what}");
        Self {
            members: vec![Member::default(); executors],
            epochs: EpochRegistry::new(executors),
            lanes: Lanes::new(executors, log.clone()),
            heartbeat_timeout,
            executors_lost: registry.counter(&name("executors_lost")),
            reincarnations: registry.counter(&name("reincarnations")),
            frames_fenced: registry.counter(&name("frames_fenced")),
            heartbeat_gap_s: registry.histogram(&name("heartbeat_gap_s")),
            pool_size: (0..executors)
                .map(|e| registry.gauge(&name(&format!("pool_size{{executor=\"{e}\"}}"))))
                .collect(),
            recorder,
            log,
            tap: None,
        }
    }

    /// Routes every queued frame through `tap` as well: the hook for
    /// per-frame wire telemetry.
    pub(crate) fn with_tap(mut self, tap: impl FnMut(usize, &Frame, usize) + 'static) -> Self {
        self.tap = Some(Box::new(tap));
        self
    }

    /// Executors in the fleet, registered or not.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// The `Register` handshake: the first frame on a connection must
    /// register an executor of this fleet. Books it on `conn` (table slot
    /// `conn_slot`) under a new epoch; `None` means hang up.
    pub(crate) fn handshake(
        &mut self,
        frame: Frame,
        conn: u64,
        conn_slot: usize,
        now: Instant,
    ) -> Option<Joined> {
        let Frame::Register { executor, slots } = frame else {
            return None;
        };
        if executor >= self.members.len() {
            self.log.error(|| {
                format!("executor {executor} registered from outside the configured fleet")
            });
            return None;
        }
        let reg = self.epochs.register(executor, conn);
        self.lanes.attach(executor, conn, conn_slot);
        self.members[executor] = Member {
            alive: true,
            slots,
            last_heartbeat: Some(now),
            ..Member::default()
        };
        if reg.reincarnation {
            self.reincarnations.inc();
            self.recorder.push(LiveEvent::ExecutorReincarnated {
                executor,
                epoch: reg.epoch,
                at: self.recorder.now(),
            });
            self.log.info(|| {
                format!(
                    "executor {executor} reincarnated (epoch {}) with {slots} slots",
                    reg.epoch
                )
            });
        } else {
            self.log
                .info(|| format!("executor {executor} registered with {slots} slots"));
        }
        self.record_slots(executor);
        Some(Joined {
            executor,
            reincarnated: reg.reincarnation,
        })
    }

    /// Admits a frame that arrived from `executor` on connection `conn`:
    /// fences a superseded incarnation's traffic, and resurrects a lost
    /// executor whose current connection turns out to be alive.
    pub(crate) fn admit(
        &mut self,
        executor: usize,
        conn: u64,
        frame: Frame,
        now: Instant,
    ) -> Admit {
        if self.epochs.admit(executor, conn) == Admission::Stale {
            self.frames_fenced.inc();
            self.recorder.push(LiveEvent::EpochFenced {
                executor,
                kind: frame.kind_str(),
                at: self.recorder.now(),
            });
            self.log.debug(|| {
                format!(
                    "fenced a {} frame from a stale incarnation of executor {executor}",
                    frame.kind_str()
                )
            });
            return Admit::Fenced;
        }
        if self.members[executor].alive {
            return Admit::Current;
        }
        let epoch = self.epochs.resurrect(executor);
        let m = &mut self.members[executor];
        m.alive = true;
        m.running = 0;
        m.last_heartbeat = Some(now);
        self.reincarnations.inc();
        self.recorder.push(LiveEvent::ExecutorReincarnated {
            executor,
            epoch,
            at: self.recorder.now(),
        });
        self.log
            .info(|| format!("executor {executor} resurrected on live traffic (epoch {epoch})"));
        self.record_slots(executor);
        Admit::Resurrected
    }

    /// Folds an admitted frame into the ledger. Every admitted frame is a
    /// sign of life; heartbeats, §5.4 pool resizes, task spans and ζ
    /// samples are recorded here, and outcomes are the caller's to settle.
    /// Returns the new pool size when the frame resized the executor.
    pub(crate) fn observe(&mut self, from: usize, frame: Frame, now: Instant) -> Option<usize> {
        let last = self.members[from].last_heartbeat.replace(now);
        match frame {
            Frame::Core(Message::Heartbeat { executor }) if executor == from => {
                let gap = last.map_or(0.0, |t| now.duration_since(t).as_secs_f64());
                self.heartbeat_gap_s.record(gap);
                self.recorder.push(LiveEvent::Heartbeat {
                    executor: from,
                    gap,
                    at: self.recorder.now(),
                });
            }
            Frame::Core(Message::PoolSizeChanged { executor, size }) if executor == from => {
                // §5.4: the executor's new pool size is its slot count, so
                // assignment matches its real capacity.
                self.members[from].slots = size;
                self.pool_size[from].set(size as f64);
                self.recorder
                    .push(LiveEvent::Trace(TraceEvent::PoolResized {
                        executor: from,
                        to: size,
                        at: self.recorder.now(),
                    }));
                self.record_slots(from);
                self.log
                    .debug(|| format!("executor {from} resized its pool to {size}"));
                return Some(size);
            }
            // Pure telemetry: the span joins the live timeline with its full
            // trace key and never touches scheduling.
            Frame::TaskSpan {
                key,
                executor,
                start_bits,
                end_bits,
                ok,
            } if executor == from => self.recorder.push(LiveEvent::TaskSpan {
                job: key.job,
                stage: key.stage,
                task: key.task,
                attempt: key.attempt,
                epoch: key.epoch,
                executor: from,
                start: f64::from_bits(start_bits),
                end: f64::from_bits(end_bits),
                ok,
            }),
            // A ζ record streamed as its interval closed: merged now and
            // counted, so the shutdown-time journal replay skips it.
            Frame::ZetaSample {
                executor,
                threads,
                zeta_bits,
                at_bits,
            } if executor == from => {
                self.recorder.note_zeta_streamed(from);
                self.recorder
                    .push(LiveEvent::Trace(TraceEvent::IntervalClosed {
                        executor: from,
                        threads,
                        zeta: f64::from_bits(zeta_bits),
                        at: f64::from_bits(at_bits),
                    }));
            }
            _ => {}
        }
        None
    }

    /// The heartbeat sweep: loses every live executor silent for longer
    /// than the heartbeat timeout at `now`, and returns them.
    pub(crate) fn sweep(&mut self, now: Instant) -> Vec<usize> {
        let timeout = self.heartbeat_timeout;
        let silent: Vec<usize> = (0..self.members.len())
            .filter(|&e| {
                let m = &self.members[e];
                m.alive
                    && m.last_heartbeat
                        .is_some_and(|t| now.duration_since(t) > timeout)
            })
            .collect();
        for &e in &silent {
            self.lose(e);
        }
        silent
    }

    /// Connection `conn` of `executor` closed. `true` when it was the
    /// current connection of a live executor, which the caller should
    /// lose: a dead socket is faster evidence than the heartbeat timeout.
    /// A fenced predecessor's socket changes nothing.
    pub(crate) fn disconnect(&mut self, executor: usize, conn: u64) -> bool {
        if !self.epochs.disconnect(executor, conn) {
            return false;
        }
        self.lanes.detach_if_current(executor, conn);
        self.members[executor].alive
    }

    /// Declares `executor` lost and tells the survivors, whose current
    /// monitoring interval the requeued work about to land on them
    /// poisons. Its connection stays attached: a partitioned socket may
    /// heal, and resurrection then re-announces through it.
    pub(crate) fn lose(&mut self, executor: usize) {
        let m = &mut self.members[executor];
        m.alive = false;
        m.running = 0;
        self.executors_lost.inc();
        self.recorder
            .push(LiveEvent::Trace(TraceEvent::ExecutorFailed {
                executor,
                at: self.recorder.now(),
            }));
        self.record_slots(executor);
        self.log
            .error(|| format!("executor {executor} declared lost; requeueing its work"));
        for x in (0..self.members.len()).filter(|&x| x != executor) {
            self.send(x, &Frame::FaultNotice { executor });
        }
    }

    /// The assignment gate: `executor` is usable, runs fewer attempts than
    /// its announced pool size, and its write queue is below high water.
    pub(crate) fn has_free_slot(&self, executor: usize) -> bool {
        let m = &self.members[executor];
        m.usable() && m.running < m.slots && self.lanes.accepts_work(executor)
    }

    /// Books one attempt on `executor`.
    pub(crate) fn book(&mut self, executor: usize) {
        self.members[executor].running += 1;
    }

    /// Settles one attempt booked on `executor`.
    pub(crate) fn release(&mut self, executor: usize) {
        let m = &mut self.members[executor];
        m.running = m.running.saturating_sub(1);
    }

    /// Counts a failed attempt against `executor` and blacklists it,
    /// starting its probation at `now`, once it has failed `limit` tasks
    /// this stage — unless it is the last usable executor.
    pub(crate) fn note_failure(&mut self, executor: usize, limit: usize, now: Instant) {
        let m = &mut self.members[executor];
        m.failures_in_stage += 1;
        let (failures, blacklisted) = (m.failures_in_stage, m.blacklisted_at.is_some());
        if failures < limit || blacklisted || self.usable_count() <= 1 {
            return;
        }
        self.members[executor].blacklisted_at = Some(now);
        self.recorder
            .push(LiveEvent::Trace(TraceEvent::ExecutorBlacklisted {
                executor,
                at: self.recorder.now(),
            }));
        self.log.error(|| {
            format!("executor {executor} blacklisted after {failures} failures this stage")
        });
    }

    /// Lets blacklisted executors that are alive back in once `probation`
    /// has passed since they were blacklisted, with a clean failure count.
    pub(crate) fn lift_probation(&mut self, probation: Duration, now: Instant) {
        for e in 0..self.members.len() {
            let m = &mut self.members[e];
            let served = m.blacklisted_at.is_some_and(|at| now >= at + probation);
            if served && m.alive {
                m.blacklisted_at = None;
                m.failures_in_stage = 0;
                self.record_slots(e);
                self.log
                    .info(|| format!("executor {e} finished probation: un-blacklisted"));
            }
        }
    }

    /// A new stage starts: per-stage failure counts and bookings reset.
    pub(crate) fn new_stage(&mut self) {
        for m in &mut self.members {
            m.failures_in_stage = 0;
            m.running = 0;
        }
    }

    /// Executors that are registered, alive and not blacklisted.
    pub(crate) fn usable_count(&self) -> usize {
        self.members.iter().filter(|m| m.usable()).count()
    }

    /// Whether any executor ever registered.
    pub(crate) fn any_registered(&self) -> bool {
        (0..self.members.len()).any(|e| self.epochs.epoch(e) > 0)
    }

    /// The slot registry, indexed by executor id.
    pub(crate) fn registry(&self) -> Vec<SlotInfo> {
        (self.members.iter().enumerate())
            .map(|(e, m)| SlotInfo {
                registered: self.epochs.epoch(e) > 0,
                alive: m.alive,
                blacklisted: m.blacklisted_at.is_some(),
                slots: m.slots,
                free: m.slots.saturating_sub(m.running),
            })
            .collect()
    }

    /// Queues `frame` for `executor`; `false` if it has no connection.
    pub(crate) fn send(&mut self, executor: usize, frame: &Frame) -> bool {
        let Some(bytes) = self.lanes.send(executor, frame) else {
            return false;
        };
        if let Some(tap) = &mut self.tap {
            tap(executor, frame, bytes);
        }
        true
    }

    /// Best-effort send to every connected executor.
    pub(crate) fn broadcast(&mut self, frame: &Frame) {
        for executor in 0..self.members.len() {
            self.send(executor, frame);
        }
    }

    /// Records one executor's slot-registry entry.
    fn record_slots(&self, executor: usize) {
        let m = &self.members[executor];
        self.recorder.push(LiveEvent::SlotRegistryChanged {
            executor,
            slots: m.slots,
            free: m.slots.saturating_sub(m.running),
            at: self.recorder.now(),
        });
    }
}

/// Read access to one executor's ledger entry, for tests.
#[cfg(test)]
impl std::ops::Index<usize> for Fleet {
    type Output = Member;

    fn index(&self, executor: usize) -> &Member {
        &self.members[executor]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: Duration = Duration::from_millis(800);

    fn fleet(executors: usize, registry: &MetricRegistry) -> Fleet {
        let recorder = FlightRecorder::disabled();
        let log = Logger::new("fleet-test", recorder.clone());
        Fleet::new(executors, TIMEOUT, "test", registry, log, recorder)
    }

    /// Registers `executor` with 4 slots on connection `conn`.
    fn register(fleet: &mut Fleet, executor: usize, conn: u64, now: Instant) -> Joined {
        let frame = Frame::Register { executor, slots: 4 };
        fleet.handshake(frame, conn, conn as usize, now).unwrap()
    }

    fn heartbeat(executor: usize) -> Frame {
        Frame::Core(Message::Heartbeat { executor })
    }

    fn counter(registry: &MetricRegistry, name: &str) -> u64 {
        registry.snapshot().counters[name]
    }

    #[test]
    fn the_handshake_admits_only_a_register_from_inside_the_fleet() {
        let (registry, t0) = (MetricRegistry::new(), Instant::now());
        let mut f = fleet(2, &registry);
        assert_eq!(f.handshake(heartbeat(0), 1, 0, t0), None, "Register first");
        let outsider = Frame::Register {
            executor: 2,
            slots: 4,
        };
        assert_eq!(f.handshake(outsider, 1, 0, t0), None, "id out of range");
        assert!(!f.any_registered());
        let joined = register(&mut f, 1, 1, t0);
        assert_eq!(
            joined,
            Joined {
                executor: 1,
                reincarnated: false
            }
        );
        assert!(f.has_free_slot(1));
        assert_eq!(f.registry()[1].slots, 4);
    }

    #[test]
    fn frames_from_a_stale_connection_are_fenced_and_counted() {
        let (registry, t0) = (MetricRegistry::new(), Instant::now());
        let mut f = fleet(1, &registry);
        register(&mut f, 0, 1, t0);
        assert!(register(&mut f, 0, 2, t0).reincarnated);
        assert_eq!(f.admit(0, 1, heartbeat(0), t0), Admit::Fenced);
        assert_eq!(f.admit(0, 1, heartbeat(0), t0), Admit::Fenced);
        assert_eq!(f.admit(0, 2, heartbeat(0), t0), Admit::Current);
        assert_eq!(counter(&registry, "test.frames_fenced"), 2);
        assert_eq!(counter(&registry, "test.reincarnations"), 1);
        // The superseded socket's death does not touch its successor.
        assert!(!f.disconnect(0, 1));
        assert!(f[0].alive);
        assert!(
            f.disconnect(0, 2),
            "the current connection's death loses it"
        );
    }

    #[test]
    fn traffic_on_a_lost_executors_connection_resurrects_it_under_a_new_epoch() {
        let (registry, t0) = (MetricRegistry::new(), Instant::now());
        let mut f = fleet(2, &registry);
        register(&mut f, 0, 1, t0);
        f.book(0);
        f.lose(0);
        assert!(!f[0].alive && f[0].running == 0);
        assert!(!f.has_free_slot(0));

        let later = t0 + Duration::from_secs(5);
        assert_eq!(f.admit(0, 1, heartbeat(0), later), Admit::Resurrected);
        assert_eq!(f.epochs.epoch(0), 2);
        assert!(f[0].alive && f.has_free_slot(0));
        assert_eq!(f.admit(0, 1, heartbeat(0), later), Admit::Current);
        assert_eq!(counter(&registry, "test.executors_lost"), 1);
        assert_eq!(counter(&registry, "test.reincarnations"), 1);
        // Silence counts from the resurrection, not the old heartbeat.
        assert!(f.sweep(later + TIMEOUT).is_empty());
    }

    #[test]
    fn the_sweep_loses_an_executor_only_past_the_heartbeat_timeout() {
        let (registry, t0) = (MetricRegistry::new(), Instant::now());
        // Executor 1 never registers, so it is never swept.
        let mut f = fleet(2, &registry);
        register(&mut f, 0, 1, t0);
        let beat = t0 + Duration::from_millis(300);
        assert_eq!(f.observe(0, heartbeat(0), beat), None);
        assert!(f.sweep(beat + TIMEOUT).is_empty());
        assert_eq!(f.sweep(beat + TIMEOUT + Duration::from_nanos(1)), [0]);
        assert!(!f[0].alive);
        assert!(f.sweep(beat + 10 * TIMEOUT).is_empty(), "lost once only");
        assert_eq!(counter(&registry, "test.executors_lost"), 1);
        assert_eq!(
            registry.snapshot().histogram_counts["test.heartbeat_gap_s"],
            1
        );
    }

    #[test]
    fn a_pool_resize_becomes_the_executors_slot_count() {
        let (registry, t0) = (MetricRegistry::new(), Instant::now());
        let mut f = fleet(1, &registry);
        register(&mut f, 0, 1, t0);
        for _ in 0..3 {
            f.book(0);
        }
        let resize = Frame::Core(Message::PoolSizeChanged {
            executor: 0,
            size: 2,
        });
        assert_eq!(f.observe(0, resize, t0), Some(2));
        assert_eq!(f.registry()[0].slots, 2);
        assert!(!f.has_free_slot(0), "3 running on 2 slots");
        f.release(0);
        assert!(!f.has_free_slot(0), "2 running on 2 slots");
        f.release(0);
        assert!(f.has_free_slot(0));
        let gauges = registry.snapshot().gauges;
        assert_eq!(gauges["test.pool_size{executor=\"0\"}"], 2.0);
    }

    #[test]
    fn blacklisting_never_takes_the_last_usable_executor() {
        let (registry, t0) = (MetricRegistry::new(), Instant::now());
        let mut f = fleet(2, &registry);
        register(&mut f, 0, 1, t0);
        register(&mut f, 1, 2, t0);
        f.note_failure(0, 3, t0);
        f.note_failure(0, 3, t0);
        assert!(!f.registry()[0].blacklisted);
        f.note_failure(0, 3, t0);
        assert!(f.registry()[0].blacklisted);
        assert!(!f.has_free_slot(0));
        for _ in 0..10 {
            f.note_failure(1, 3, t0);
        }
        assert!(!f.registry()[1].blacklisted, "the last usable executor");
        assert_eq!(f.usable_count(), 1);
    }

    #[test]
    fn probation_lifts_at_blacklisted_at_plus_probation() {
        let (registry, t0) = (MetricRegistry::new(), Instant::now());
        let probation = Duration::from_secs(2);
        let mut f = fleet(2, &registry);
        register(&mut f, 0, 1, t0);
        register(&mut f, 1, 2, t0);
        let at = t0 + Duration::from_millis(300);
        for _ in 0..3 {
            f.note_failure(0, 3, at);
        }
        f.lift_probation(probation, at + probation - Duration::from_nanos(1));
        assert!(f.registry()[0].blacklisted);
        f.lift_probation(probation, at + probation);
        assert!(!f.registry()[0].blacklisted);
        assert!(f.has_free_slot(0));
        // Back with a clean failure count.
        f.note_failure(0, 3, at + probation);
        f.note_failure(0, 3, at + probation);
        assert!(!f.registry()[0].blacklisted);
    }
}
