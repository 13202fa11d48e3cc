#![cfg(test)]
//! A bounded model check of the §5.4 slot fold: every delivery order of a
//! small cluster, driven through the real [`Fleet`] and [`TaskLedger`].
//!
//! The world is one job's stage of `TASKS` tasks on two executors. A
//! scripted model executor registers with a pool of 1 slot, runs what it
//! is assigned, and reports each attempt with a `JobTaskOutcome`, in any
//! order. Executor 0 also grows its pool once and shrinks it once (sizes
//! in {1, 2, 4}) and announces each size with `PoolSizeChanged`. These
//! are the pools of {2, 4, 8} halved, so that two tasks press on the slot
//! gate as four would: three tasks do not fit the search's time budget,
//! and with pools of 2 or more two tasks never fill an executor. Frames
//! travel over FIFO channels, one per direction and connection. One
//! attempt may fail. Each test adds one fault family, at most once per
//! schedule:
//! - a crash: the incarnation's attempts are abandoned, the frames it
//!   already wrote still arrive, then its connection's EOF; the respawn
//!   connects at once and registers on a new connection;
//! - a dropped frame: TCP loses a frame only with its connection, so a
//!   drop is a crash at that frame, and on an executor-to-loop channel
//!   everything behind the dropped frame is lost too;
//! - a duplicated frame: an outcome the loop receives twice, or an
//!   assignment the executor runs twice.
//!
//! Each loop step does what both control loops do:
//! - `try_assign` mirrors `ServerLoop::try_assign` (`server/mod.rs`) and
//!   `Run::try_assign` (`driver.rs`): while `has_free_slot`, `pick`, then
//!   `book`, then queue an `AssignJobTask`;
//! - an outcome mirrors `ServerLoop::handle_wire_frame` and
//!   `handle_outcome`, and `Run::handle` and `Run::settle`: `admit`, then
//!   `observe`, then `release` first, and `settle` only if `release`
//!   returned `true`;
//! - `lose` on EOF (`ServerLoop::close_conn`, `Ev::Gone`), `sweep`
//!   (`ServerLoop::tick`, `Run::tick`) and a superseding `handshake`
//!   (`Ev::Joined`, `ServerLoop::pump_wire`) hand bookings back, which the
//!   step settles as failures in dispatch order (`ServerLoop::requeue`,
//!   `Run::requeue`). A task that spends its attempt budget fails the
//!   job: as on the server, later settles of it change nothing.
//!
//! What the model leaves out changes nothing it checks. Heartbeats, stage
//! announcements and `FaultNotice` are not frames here: the model
//! executor acts on none of them. Before the sweep, which runs at most
//! once, every executor whose current incarnation the fleet knows beats,
//! so only a crashed one is silent; frames it wrote before it crashed may
//! still arrive after the sweep and resurrect it. An executor receives an
//! assignment as soon as it is sent, since receiving commutes with every
//! other step.
//!
//! The search is breadth first and stateless: every schedule prefix is
//! replayed from scratch, because the components hold metric handles and
//! lanes that are not `Clone`. A state fingerprint prunes revisits, and
//! the first violation found comes with a shortest schedule. After every
//! step it asserts:
//! - `release` frees exactly the bookings the explorer's own record of
//!   them holds, and the fleet hands back exactly those, in dispatch
//!   order;
//! - a booking happens only while `running < slots` (after a shrink,
//!   `running` may exceed the new size until attempts drain);
//! - an executor's slot count is the last pool size its current
//!   connection announced;
//! - a frame from a superseded connection changes no booking, slot count
//!   or task;
//! - a stale or foreign outcome never frees the slot of an attempt that
//!   still runs (one sent to a dead incarnation never will);
//! - every task is settled done at most once; and at quiescence every
//!   task is done, unless the job failed, and no slot is booked anywhere.
//!
//! The wire carries no attempt id (executors always send `attempt: 0`),
//! so a duplicated failure outcome that arrives after its task went back
//! to the same executor is taken for the new attempt's, and frees the
//! slot of an attempt that still runs: `Deliver(1, None)`,
//! `Finish { e: 0, i: 0, ok: false }`, `Deliver(2, None)`,
//! `Deliver(1, Dup)`, `Deliver(1, None)`. The duplicate family therefore
//! runs every invariant but that one.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use sae_dag::Message;
use sae_metrics::MetricRegistry;

use crate::fleet::{Admit, Fleet};
use crate::ledger::{Outcome, TaskLedger, MAX_TASK_ATTEMPTS};
use crate::log::Logger;
use crate::recorder::FlightRecorder;
use crate::wire::Frame;

const JOB: u64 = 1;
const EXECUTORS: usize = 2;
/// The pool size each executor registers with, on every incarnation.
const REGISTER: usize = 1;
const SIZES: [usize; 3] = [1, 2, 4];
/// The executor whose pool resizes.
const RESIZER: usize = 0;
const TIMEOUT: Duration = Duration::from_millis(800);
/// Tasks in the stage.
const TASKS: usize = 2;

/// What one exploration covers.
#[derive(Debug, Clone, Copy)]
struct Scope {
    /// The channel fault allowed once: none, a dropped or a duplicated
    /// frame.
    channel: Fault,
    /// Whether one crash is allowed.
    crash: bool,
}

/// What a channel does to the frame at its head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Drop,
    Dup,
}

/// One scheduling choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The loop-to-executor channel of `e` breaks: an assignment is lost
    /// with its connection, and the incarnation dies.
    Cut(usize),
    /// Executor `e` receives its `i`th running attempt's assignment twice.
    Rerun { e: usize, i: usize },
    /// The loop receives the next frame on connection `conn`.
    Deliver(u64, Fault),
    /// Executor `e` finishes its `i`th running attempt.
    Finish { e: usize, i: usize, ok: bool },
    /// Executor `e` resizes its pool to `to` and announces it.
    Resize { e: usize, to: usize },
    /// Executor `e`'s incarnation dies, and the next one connects.
    Crash(usize),
    /// The heartbeat sweep runs past the timeout.
    Sweep,
}

/// A frame in flight from an executor to the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Up {
    Register(usize),
    Resize(usize),
    Outcome { attempt: usize, ok: bool },
    Eof,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum State {
    Running,
    /// Its outcome is written.
    Reported,
    /// It never runs again: sent to, or abandoned by, a dead incarnation.
    Dead,
}

#[derive(Debug, Clone, Copy)]
struct Attempt {
    task: usize,
    executor: usize,
    state: State,
}

/// One executor process of the model.
#[derive(Debug, Clone, Hash)]
struct Proc {
    conn: u64,
    size: usize,
    /// Attempts received and not yet finished.
    running: Vec<usize>,
}

/// One connection's executor-to-loop channel.
#[derive(Debug, Clone, Hash)]
struct Conn {
    executor: usize,
    frames: VecDeque<Up>,
    joined: bool,
    /// The last pool size the loop received on it.
    size: usize,
}

/// Faults and resizes still allowed in this schedule.
#[derive(Debug, Clone, Copy, Hash)]
struct Budget {
    shrink: bool,
    grow: bool,
    fail: bool,
    channel: bool,
    crash: bool,
    sweep: bool,
}

type Check = Result<(), String>;

fn ensure(ok: bool, why: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// The fleet, the task ledger, the model executors and the channels.
struct World {
    scope: Scope,
    fleet: Fleet,
    ledger: TaskLedger,
    now: Instant,
    procs: Vec<Proc>,
    /// Open connections. Executor `e`'s `k`th is numbered
    /// `1 + e + k * EXECUTORS`, so a number does not depend on the order
    /// in which executors reconnect.
    conns: BTreeMap<u64, Conn>,
    /// Connections each executor opened.
    opened: Vec<u64>,
    /// The connection the fleet takes as each executor's current one.
    current: Vec<Option<u64>>,
    /// The explorer's own record of the fleet's bookings, in dispatch
    /// order.
    booked: Vec<Vec<usize>>,
    attempts: Vec<Attempt>,
    /// `Outcome::Done` answers per task.
    done: Vec<usize>,
    /// A task spent its attempt budget: the job failed, and the loop
    /// settles and assigns nothing more of it.
    failed: bool,
    budget: Budget,
}

impl World {
    fn new(scope: Scope, t0: Instant) -> Self {
        let recorder = FlightRecorder::disabled();
        let log = Logger::new("explore", recorder.clone());
        let registry = MetricRegistry::new();
        let mut world = Self {
            scope,
            fleet: Fleet::new(EXECUTORS, TIMEOUT, "explore", &registry, log, recorder),
            ledger: TaskLedger::new(TASKS, EXECUTORS, t0),
            now: t0,
            procs: Vec::new(),
            conns: BTreeMap::new(),
            opened: vec![0; EXECUTORS],
            current: vec![None; EXECUTORS],
            booked: vec![Vec::new(); EXECUTORS],
            attempts: Vec::new(),
            done: vec![0; TASKS],
            failed: false,
            budget: Budget {
                shrink: true,
                grow: true,
                fail: true,
                channel: scope.channel != Fault::None,
                crash: scope.crash,
                sweep: true,
            },
        };
        for e in 0..EXECUTORS {
            let conn = world.connect(e);
            world.procs.push(Proc {
                conn,
                size: REGISTER,
                running: Vec::new(),
            });
        }
        world
    }

    /// Opens a connection for `e` with its `Register` in flight.
    fn connect(&mut self, e: usize) -> u64 {
        let conn = 1 + e as u64 + self.opened[e] * EXECUTORS as u64;
        self.opened[e] += 1;
        self.conns.insert(
            conn,
            Conn {
                executor: e,
                frames: VecDeque::from([Up::Register(REGISTER)]),
                joined: false,
                size: 0,
            },
        );
        conn
    }

    fn conn(&mut self, conn: u64) -> &mut Conn {
        self.conns.get_mut(&conn).unwrap()
    }

    /// Replays `schedule` from the initial state.
    fn replay(scope: Scope, t0: Instant, schedule: &[Step]) -> Result<Self, String> {
        let mut world = Self::new(scope, t0);
        for &step in schedule {
            world.step(step)?;
        }
        Ok(world)
    }

    /// Every choice the state allows, in a fixed order.
    fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        let faults = |channel: bool| {
            let with = channel && self.budget.channel;
            [Fault::None]
                .into_iter()
                .chain(with.then_some(self.scope.channel))
        };
        for (e, p) in self.procs.iter().enumerate() {
            for i in 0..p.running.len() {
                steps.push(Step::Finish { e, i, ok: true });
                if self.budget.fail {
                    steps.push(Step::Finish { e, i, ok: false });
                }
                if self.budget.channel && self.scope.channel == Fault::Dup {
                    steps.push(Step::Rerun { e, i });
                }
            }
            if self.budget.channel && self.scope.channel == Fault::Drop {
                steps.push(Step::Cut(e));
            }
            let at = SIZES.iter().position(|&s| s == p.size).unwrap();
            if e == RESIZER && self.budget.shrink && at > 0 {
                steps.push(Step::Resize {
                    e,
                    to: SIZES[at - 1],
                });
            }
            if e == RESIZER && self.budget.grow && at + 1 < SIZES.len() {
                steps.push(Step::Resize {
                    e,
                    to: SIZES[at + 1],
                });
            }
            if self.budget.crash {
                steps.push(Step::Crash(e));
            }
        }
        for (&conn, c) in &self.conns {
            if let Some(&head) = c.frames.front() {
                steps.extend(faults(head != Up::Eof).map(|f| Step::Deliver(conn, f)));
            }
        }
        let registry = self.fleet.registry();
        let silent = (0..EXECUTORS).any(|e| registry[e].alive && !self.beating(e));
        if self.budget.sweep && silent {
            steps.push(Step::Sweep);
        }
        steps
    }

    /// Whether `e`'s current incarnation is up and known to the fleet, so
    /// that its heartbeats arrive.
    fn beating(&self, e: usize) -> bool {
        self.current[e] == Some(self.procs[e].conn)
    }

    /// Takes one step, checking what the step itself must keep.
    fn step(&mut self, step: Step) -> Check {
        match step {
            Step::Cut(e) => {
                self.budget.channel = false;
                self.die(e);
            }
            Step::Rerun { e, i } => {
                self.budget.channel = false;
                let attempt = self.procs[e].running[i];
                self.procs[e].running.push(attempt);
            }
            Step::Finish { e, i, ok } => {
                self.budget.fail &= ok;
                let attempt = self.procs[e].running.remove(i);
                self.attempts[attempt].state = State::Reported;
                let conn = self.procs[e].conn;
                self.conn(conn)
                    .frames
                    .push_back(Up::Outcome { attempt, ok });
            }
            Step::Resize { e, to } => {
                if to < self.procs[e].size {
                    self.budget.shrink = false;
                } else {
                    self.budget.grow = false;
                }
                self.procs[e].size = to;
                let conn = self.procs[e].conn;
                self.conn(conn).frames.push_back(Up::Resize(to));
            }
            Step::Crash(e) => {
                self.budget.crash = false;
                self.die(e);
            }
            Step::Deliver(conn, fault) => {
                self.budget.channel &= fault == Fault::None;
                self.deliver(conn, fault)?;
                self.try_assign()?;
            }
            Step::Sweep => {
                self.budget.sweep = false;
                self.now += TIMEOUT + Duration::from_nanos(1);
                let beating: Vec<usize> = (0..EXECUTORS).filter(|&e| self.beating(e)).collect();
                for e in beating {
                    let beat = Frame::Core(Message::Heartbeat { executor: e });
                    self.fleet.observe(e, beat, self.now);
                }
                for (e, orphaned) in self.fleet.sweep(self.now) {
                    self.requeue(e, orphaned)?;
                }
                self.try_assign()?;
            }
        }
        Ok(())
    }

    /// Ends `e`'s incarnation: the frames it wrote still arrive, then
    /// EOF.
    fn die(&mut self, e: usize) {
        for attempt in std::mem::take(&mut self.procs[e].running) {
            self.attempts[attempt].state = State::Dead;
        }
        let conn = self.procs[e].conn;
        self.conn(conn).frames.push_back(Up::Eof);
        // The respawn: when its `Register` arrives is the loop's choice.
        let conn = self.connect(e);
        self.procs[e] = Proc {
            conn,
            size: REGISTER,
            running: Vec::new(),
        };
    }

    /// The loop receives the frame at the head of `conn`.
    fn deliver(&mut self, conn: u64, fault: Fault) -> Check {
        let c = self.conn(conn);
        let (e, head) = (c.executor, c.frames[0]);
        if fault == Fault::Drop {
            // The connection breaks here: nothing written on it arrives.
            self.conn(conn).frames.clear();
            if self.procs[e].conn == conn {
                self.die(e);
            } else {
                self.conn(conn).frames.push_back(Up::Eof);
            }
            return Ok(());
        }
        if fault == Fault::None {
            self.conn(conn).frames.pop_front();
        }
        let frame = match head {
            Up::Eof => {
                if self.fleet.disconnect(e, conn) {
                    self.current[e] = None;
                    let orphaned = self.fleet.lose(e);
                    self.requeue(e, orphaned)?;
                }
                return Ok(());
            }
            Up::Register(slots) => Frame::Register { executor: e, slots },
            Up::Resize(size) => Frame::Core(Message::PoolSizeChanged { executor: e, size }),
            Up::Outcome { attempt, ok } => Frame::JobTaskOutcome {
                job: JOB,
                task: self.attempts[attempt].task,
                executor: e,
                attempt: 0,
                ok,
            },
        };
        if !self.conn(conn).joined {
            // The first frame on a connection is the handshake.
            self.conn(conn).joined = true;
            let joined = self.fleet.handshake(frame, conn, conn as usize, self.now);
            let joined = joined.ok_or("a Register was refused")?;
            self.current[e] = Some(conn);
            if let Up::Register(slots) = head {
                self.conn(conn).size = slots;
            }
            return self.requeue(e, joined.orphaned);
        }
        let superseded = self.current[e] != Some(conn);
        let before = superseded.then(|| self.fingerprint_loop());
        if self.fleet.admit(e, conn, frame, self.now) != Admit::Fenced {
            if self.fleet.observe(e, frame, self.now).is_some() {
                self.conn(conn).size = self.fleet[e].slots;
            }
            if let Up::Outcome { attempt, ok } = head {
                self.outcome(e, attempt, ok)?;
            }
        }
        if let Some(before) = before {
            ensure(before == self.fingerprint_loop(), || {
                format!("a frame from superseded connection {conn} of executor {e} changed state")
            })?;
        }
        Ok(())
    }

    /// An outcome the fleet admitted: `release` first, then `settle` only
    /// if it freed a booking.
    fn outcome(&mut self, e: usize, attempt: usize, ok: bool) -> Check {
        let task = self.attempts[attempt].task;
        let released = self.fleet.release(e, JOB, task);
        let at = self.booked[e]
            .iter()
            .position(|&b| self.attempts[b].task == task);
        ensure(released == at.is_some(), || {
            format!("release answered {released} for task {task} on executor {e}, booked {at:?}")
        })?;
        if !released {
            return Ok(());
        }
        let freed = self.booked[e].remove(at.unwrap());
        let live = self.attempts[freed].state == State::Running;
        let dup = self.scope.channel == Fault::Dup;
        ensure(freed == attempt || !live || dup, || {
            format!("the outcome of attempt {attempt} freed the slot of attempt {freed} of task {task}, which still runs")
        })?;
        self.settle(task, e, ok)
    }

    /// Settles bookings the fleet handed back from `e` as failures, in
    /// dispatch order.
    fn requeue(&mut self, e: usize, orphaned: Vec<(u64, usize)>) -> Check {
        let booked = std::mem::take(&mut self.booked[e]);
        let tasks: Vec<(u64, usize)> = booked
            .iter()
            .map(|&b| (JOB, self.attempts[b].task))
            .collect();
        ensure(orphaned == tasks, || {
            format!("executor {e} handed back {orphaned:?}, booked {tasks:?}")
        })?;
        for (_, task) in orphaned {
            self.settle(task, e, false)?;
        }
        Ok(())
    }

    /// Settles one attempt in the ledger; a retired job's settle changes
    /// nothing, as on the server.
    fn settle(&mut self, task: usize, e: usize, ok: bool) -> Check {
        if self.failed {
            return Ok(());
        }
        match self.ledger.settle(task, e, ok, MAX_TASK_ATTEMPTS) {
            Outcome::Done { .. } => {
                self.done[task] += 1;
                ensure(self.done[task] == 1, || {
                    format!("task {task} settled done twice")
                })
            }
            Outcome::Requeued { .. } => Ok(()),
            Outcome::Exhausted { .. } => {
                self.failed = true;
                Ok(())
            }
        }
    }

    /// Hands free slots to queued tasks until nothing more can move.
    fn try_assign(&mut self) -> Check {
        for e in 0..EXECUTORS {
            while !self.failed && self.fleet.has_free_slot(e) {
                let Some(task) = self.ledger.pick(e) else {
                    break;
                };
                let (running, slots) = (self.fleet[e].running.len(), self.fleet[e].slots);
                ensure(running < slots, || {
                    format!(
                        "task {task} booked on executor {e} with {running} of {slots} slots in use"
                    )
                })?;
                self.fleet.book(e, JOB, task);
                // Receiving an assignment commutes with every other step,
                // so a live incarnation runs it at once.
                let reachable = self.beating(e);
                let state = if reachable {
                    State::Running
                } else {
                    State::Dead
                };
                let attempt = self.attempts.len();
                self.attempts.push(Attempt {
                    task,
                    executor: e,
                    state,
                });
                self.booked[e].push(attempt);
                if reachable {
                    self.procs[e].running.push(attempt);
                }
                if !self.fleet.send(e, &Frame::AssignJobTask { job: JOB, task }) {
                    let orphaned = self.fleet.lose(e);
                    self.requeue(e, orphaned)?;
                    break;
                }
            }
        }
        Ok(())
    }

    /// The invariants that hold after every step.
    fn check(&self) -> Check {
        for e in 0..EXECUTORS {
            let booked: Vec<(u64, usize)> = (self.booked[e].iter())
                .map(|&b| (JOB, self.attempts[b].task))
                .collect();
            ensure(self.fleet[e].running == booked, || {
                format!(
                    "executor {e} books {:?}, expected {booked:?}",
                    self.fleet[e].running
                )
            })?;
            if let Some(conn) = self.current[e] {
                let (slots, size) = (self.fleet[e].slots, self.conns[&conn].size);
                ensure(slots == size, || {
                    format!(
                        "executor {e} has {slots} slots, its connection {conn} announced {size}"
                    )
                })?;
            }
        }
        let done: usize = self.done.iter().sum();
        ensure(self.ledger.remaining() == TASKS - done, || {
            format!(
                "{} tasks remain, {done} of {TASKS} done",
                self.ledger.remaining()
            )
        })
    }

    /// At quiescence every task is done once, unless the job failed, and
    /// no slot is booked.
    fn check_quiescent(&self) -> Check {
        ensure(self.failed || self.done.iter().all(|&d| d == 1), || {
            format!("quiescent with tasks done {:?}", self.done)
        })?;
        ensure(self.booked.iter().all(Vec::is_empty), || {
            format!("quiescent with bookings left: {:?}", self.booked)
        })
    }

    /// The fleet's and the ledger's state.
    fn fingerprint_loop(&self) -> String {
        let running: Vec<_> = (0..EXECUTORS).map(|e| &self.fleet[e].running).collect();
        format!("{running:?} {:?} {:?}", self.fleet.registry(), self.ledger)
    }

    /// The whole world, attempts named by what they are rather than by
    /// their dispatch number.
    fn fingerprint(&self) -> u64 {
        let name = |a: &usize| {
            let at = self.attempts[*a];
            (at.task, at.executor, at.state)
        };
        let mut h = DefaultHasher::new();
        // A drained connection its executor has left changes nothing more.
        let open = |(conn, c): &(&u64, &Conn)| {
            !c.frames.is_empty()
                || self.procs[c.executor].conn == **conn
                || self.current[c.executor] == Some(**conn)
        };
        self.fingerprint_loop().hash(&mut h);
        for p in &self.procs {
            (p.conn, p.size).hash(&mut h);
            p.running.iter().map(name).collect::<Vec<_>>().hash(&mut h);
        }
        for (conn, c) in self.conns.iter().filter(open) {
            (conn, c.executor, c.joined, c.size).hash(&mut h);
            for frame in &c.frames {
                match *frame {
                    Up::Outcome { attempt, ok } => (name(&attempt), ok).hash(&mut h),
                    other => other.hash(&mut h),
                }
            }
        }
        for booked in &self.booked {
            booked.iter().map(name).collect::<Vec<_>>().hash(&mut h);
        }
        (
            &self.current,
            &self.done,
            self.failed,
            self.budget,
            self.now,
        )
            .hash(&mut h);
        h.finish()
    }
}

/// What one exploration saw.
#[derive(Debug, Default)]
struct Explored {
    /// Distinct states reached.
    states: usize,
    /// Steps taken from them: the edges of the schedule graph.
    steps: usize,
    /// States with nothing left to do.
    quiescent: usize,
    /// The longest schedule to a quiescent state.
    depth: usize,
}

/// Explores every schedule of `scope` breadth first, and panics with a
/// shortest schedule that breaks an invariant.
fn explore(scope: Scope) -> Explored {
    let t0 = Instant::now();
    let mut seen = HashSet::new();
    let mut stats = Explored::default();
    let mut frontier: Vec<Vec<Step>> = vec![Vec::new()];
    seen.insert(World::new(scope, t0).fingerprint());
    let fail = |schedule: &[Step], why: String| -> ! {
        let steps: Vec<String> = schedule.iter().map(|s| format!("  {s:?}")).collect();
        panic!(
            "{why:?}\n{scope:?}, schedule of {}:\n{}",
            schedule.len(),
            steps.join("\n")
        )
    };
    while !frontier.is_empty() {
        stats.states += frontier.len();
        let mut next = Vec::new();
        for prefix in &frontier {
            let world = World::replay(scope, t0, prefix).unwrap();
            let steps = world.enabled();
            if steps.is_empty() {
                stats.quiescent += 1;
                stats.depth = stats.depth.max(prefix.len());
                if let Err(why) = world.check_quiescent() {
                    fail(prefix, why);
                }
            }
            let mut reuse = Some(world);
            for step in steps {
                let mut world = match reuse.take() {
                    Some(world) => world,
                    None => World::replay(scope, t0, prefix).unwrap(),
                };
                stats.steps += 1;
                let mut schedule = prefix.clone();
                schedule.push(step);
                if let Err(why) = world.step(step).and_then(|()| world.check()) {
                    fail(&schedule, why);
                }
                if seen.insert(world.fingerprint()) {
                    next.push(schedule);
                }
            }
        }
        frontier = next;
    }
    stats
}

/// Explores `scope` and prints what it covered.
fn explore_and_report(scope: Scope) {
    let started = Instant::now();
    let explored = explore(scope);
    println!("{scope:?}: {explored:?} in {:?}", started.elapsed());
}

#[test]
fn a_crash_with_respawn_anywhere_keeps_the_slot_ledger_sound() {
    explore_and_report(Scope {
        channel: Fault::None,
        crash: true,
    });
}

#[test]
fn a_dropped_frame_anywhere_keeps_the_slot_ledger_sound() {
    explore_and_report(Scope {
        channel: Fault::Drop,
        crash: false,
    });
}

#[test]
fn a_duplicated_frame_anywhere_keeps_the_slot_ledger_sound() {
    explore_and_report(Scope {
        channel: Fault::Dup,
        crash: false,
    });
}
