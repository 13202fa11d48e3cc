//! The live executor: an [`AdaptivePool`] behind a TCP connection.
//!
//! Each executor connects to the driver (or job server), registers, and
//! then runs real Terasort tasks on its adaptive pool. Both speak one
//! task dialect: `JobStageStart` installs a job's stage, `AssignJobTask`
//! runs one attempt of it, and `JobTaskOutcome` reports the attempt. Only
//! the driver sends `StageStart`, which opens a MAPE-K episode: the pool
//! resets and the controller climbs again. The §5.4 protocol extension is
//! wired through the pool's resize hook: every effective pool-size change
//! — the reset at an episode start and every MAPE-K decision — emits a
//! `PoolSizeChanged` frame, which is what keeps the slot registry
//! consistent.
//!
//! The pool's I/O probe is the live runtime's *shared probe*: an explicit
//! per-task [`CounterProbe`] (tasks record the bytes they moved and the
//! wall time they were blocked) combined with the process-wide procfs
//! stage probe. The explicit half is what makes multi-executor
//! single-process runs attributable; the procfs half catches traffic the
//! tasks did not account for.
//!
//! Observability rides the same shared handles the driver uses: every
//! frame sent or received updates the `live.executor.*{executor="N"}`
//! metrics and lands on the cluster's [`FlightRecorder`], the MAPE-K
//! controller appends to a [`DecisionJournal`] the cluster can read, and
//! at shutdown the journal's ζ samples are replayed onto the recorder so
//! the merged Chrome trace gains a per-executor `zeta-exec{N}` counter
//! track.
//!
//! [`LiveExecutor::kill`] makes the executor *silent*, not disconnected:
//! heartbeats stop, outcome reports are suppressed, assignments are
//! swallowed, but the socket stays open. The driver therefore has to
//! detect the failure from heartbeat silence — the scenario the paper's
//! engine handles with executor-lost bookkeeping — rather than getting a
//! convenient EOF.
//!
//! With a [`RespawnConfig`], a killed or disconnected executor
//! **reincarnates**: after the configured downtime it reconnects (jittered
//! exponential backoff, capped), re-registers under a fresh pool, and the
//! driver admits it under a new registration epoch while fencing whatever
//! its dead predecessor left in flight. Each incarnation appends to the
//! same shared decision journal, so the merged ζ timeline spans rebirths.
//!
//! Faults poison measurements: on a [`Frame::FaultNotice`] about a peer —
//! or a local task failure — the executor declares its current MAPE-K
//! monitoring interval poisoned, so the controller discards measurements
//! taken while redistributed work (or a retry storm) distorted the probe,
//! keeping ζ comparisons clean across fault windows.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sae_core::{DecisionJournal, MapeConfig};
use sae_dag::{Message, TraceEvent};
use sae_metrics::{Counter, FloatCounter, MetricRegistry};
use sae_pool::procfs::proc_stage_probe;
use sae_pool::{combined_probe, AdaptivePool, CounterProbe};

use sae_dag::codec::TraceKey;

use crate::job::LiveStageKind;
use crate::log::Logger;
use crate::nemesis::uniform;
use crate::recorder::{FlightRecorder, LiveEvent};
use crate::task::run_task;
use crate::wire::{Frame, FrameReader, FrameWriter, Next};

/// A stage's parameters `(stage, kind, records_per_task, seed)`.
type StageParams = (usize, LiveStageKind, usize, u64);

/// Reincarnation policy: how a dead executor comes back.
#[derive(Debug, Clone)]
pub struct RespawnConfig {
    /// Downtime between death and the first reconnect attempt. Keep it
    /// above the driver's heartbeat timeout when tests need the
    /// lost-then-reincarnated event order to be deterministic.
    pub delay: Duration,
    /// Initial backoff between failed reconnect attempts.
    pub backoff_base: Duration,
    /// Backoff ceiling; the exponential doubling stops here.
    pub backoff_cap: Duration,
    /// How many rebirths are allowed before the executor stays dead.
    pub max_respawns: usize,
    /// Seed for the backoff jitter (deterministic per incarnation).
    pub seed: u64,
}

impl RespawnConfig {
    /// A policy with `delay` of downtime and default backoff bounds.
    pub fn new(delay: Duration) -> Self {
        Self {
            delay,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(500),
            max_respawns: 3,
            seed: 0xC0FF_EE11,
        }
    }
}

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct LiveExecutorConfig {
    /// Executor id (dense, `0..n`, unique per cluster).
    pub id: usize,
    /// MAPE-K controller bounds for the adaptive pool.
    pub mape: MapeConfig,
    /// Heartbeat period; keep well under the driver's timeout.
    pub heartbeat_interval: Duration,
    /// Directory spill partitions live in (shared across the cluster —
    /// sort tasks read partitions any executor wrote).
    pub spill_dir: PathBuf,
    /// Deterministic fault injection: go silent after completing this
    /// many tasks, with work still assigned. Applies to the first
    /// incarnation only — a reincarnated executor serves untainted.
    pub kill_after_tasks: Option<usize>,
    /// How long to retry connecting to the driver.
    pub connect_timeout: Duration,
    /// Reincarnation policy; `None` (the default) means death is final,
    /// preserving the pre-chaos failure semantics.
    pub respawn: Option<RespawnConfig>,
    /// The cluster's shared flight recorder; its epoch is also the
    /// adaptive pool's time base, keeping journal timestamps and trace
    /// timestamps on one clock.
    pub recorder: FlightRecorder,
    /// The cluster's shared metric registry.
    pub metrics: MetricRegistry,
    /// The journal the executor's MAPE-K controller appends to; keep a
    /// clone to read the decisions after the run. Shared across
    /// incarnations, so one run's journal spans rebirths.
    pub journal: DecisionJournal,
}

impl LiveExecutorConfig {
    /// Sensible defaults for loopback testing.
    pub fn new(id: usize, spill_dir: PathBuf) -> Self {
        Self {
            id,
            mape: MapeConfig::new(2, 8),
            heartbeat_interval: Duration::from_millis(100),
            spill_dir,
            kill_after_tasks: None,
            connect_timeout: Duration::from_secs(10),
            respawn: None,
            recorder: FlightRecorder::disabled(),
            metrics: MetricRegistry::new(),
            journal: DecisionJournal::new(),
        }
    }
}

/// Handle to an executor thread.
#[derive(Debug)]
pub struct LiveExecutor {
    kill: Arc<AtomicBool>,
    journal: DecisionJournal,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl LiveExecutor {
    /// Connects to the driver at `addr` and starts serving on a thread.
    pub fn launch(addr: SocketAddr, cfg: LiveExecutorConfig) -> Self {
        let kill = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&kill);
        let journal = cfg.journal.clone();
        let handle = std::thread::spawn(move || run_executor(addr, cfg, flag));
        Self {
            kill,
            journal,
            handle: Some(handle),
        }
    }

    /// Makes the executor go silent immediately (see the module docs).
    /// With a [`RespawnConfig`], the silence lasts one downtime window
    /// and then the executor reincarnates.
    pub fn kill(&self) {
        self.kill.store(true, Ordering::Relaxed);
    }

    /// The executor's decision journal (a shared handle; complete once
    /// the executor has been joined).
    pub fn journal(&self) -> DecisionJournal {
        self.journal.clone()
    }

    /// The kill switch itself, for the cluster's chaos agent to flip on a
    /// schedule without holding a borrow of the executor.
    pub(crate) fn kill_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.kill)
    }

    /// Waits for the executor thread to exit.
    pub fn join(mut self) -> io::Result<()> {
        match self.handle.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("executor thread panicked"))),
            None => Ok(()),
        }
    }
}

/// Runs an executor on the calling thread until the job is over: the
/// full incarnation loop — connect, register, serve, and reincarnate
/// after kills or connection losses for as long as the respawn budget
/// allows.
///
/// This is the entry point the `sae-executor` binary uses to run an
/// executor as its own OS process; [`LiveExecutor::launch`] wraps the
/// same loop in a thread for the in-process fast path, so both fleet
/// modes execute identical protocol logic. `kill` carries
/// [`LiveExecutor::kill`] semantics: flip it and the executor goes
/// silent with the socket open (heartbeat-silence failure, not EOF).
pub fn run_foreground(
    addr: SocketAddr,
    cfg: LiveExecutorConfig,
    kill: Arc<AtomicBool>,
) -> io::Result<()> {
    run_executor(addr, cfg, kill)
}

/// Why one incarnation's serve loop ended.
enum Exit {
    /// The driver said the job is over (Shutdown frame, or the driver is
    /// simply gone): nothing left to reincarnate for.
    Clean,
    /// The kill switch fired: the executor went silent mid-job.
    Killed,
    /// The connection died (EOF or socket error) with the job unfinished.
    ConnLost,
}

/// Connects to the driver, retrying briefly while it binds/accepts.
fn connect_with_retry(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Reconnects with jittered exponential backoff, capped. A refused
/// connection means the driver is gone — give up immediately rather than
/// hammering a dead address.
fn connect_with_backoff(
    addr: SocketAddr,
    respawn: &RespawnConfig,
    incarnation: usize,
    timeout: Duration,
) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    let mut rng = respawn.seed ^ (incarnation as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut backoff = respawn.backoff_base;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => return Err(e),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => {
                // Sleep 50–100% of the current backoff: jitter decorrelates
                // a fleet of executors respawning off the same fault.
                let frac = 0.5 + uniform(&mut rng) * 0.5;
                std::thread::sleep(backoff.mul_f64(frac));
                backoff = (backoff * 2).min(respawn.backoff_cap);
            }
        }
    }
}

/// The executor's write path: every frame sent also updates the wire
/// metrics and lands on the flight recorder.
struct Link {
    writer: Mutex<FrameWriter>,
    frames_sent: Counter,
    bytes_sent: Counter,
    recorder: FlightRecorder,
    id: usize,
}

impl Link {
    fn send(&self, frame: &Frame) -> io::Result<()> {
        let bytes = self.writer.lock().send(frame)?;
        self.sent(frame, bytes);
        Ok(())
    }

    /// Sends `frames` back to back in one write — one TCP segment and at
    /// most one wake-up of the receiving reactor instead of one per frame.
    /// Metrics and recorder events stay per frame.
    fn send_batch(&self, frames: &[Frame]) -> io::Result<()> {
        self.writer.lock().send_batch(frames)?;
        let mut encoded = Vec::new();
        for frame in frames {
            encoded.clear();
            frame.encode(&mut encoded);
            self.sent(frame, encoded.len());
        }
        Ok(())
    }

    fn sent(&self, frame: &Frame, bytes: usize) {
        self.frames_sent.inc();
        self.bytes_sent.add(bytes as u64);
        self.recorder.push(LiveEvent::FrameSent {
            executor: self.id,
            kind: frame.kind_str(),
            bytes,
            at: self.recorder.now(),
        });
    }
}

/// The executor's cached metric handles (`live.executor.*{executor="N"}`).
struct ExecMetrics {
    frames_received: Counter,
    bytes_received: Counter,
    tasks_finished: Counter,
    tasks_failed: Counter,
    io_mb: FloatCounter,
}

impl ExecMetrics {
    fn new(registry: &MetricRegistry, id: usize) -> Self {
        let name = |n: &str| format!("live.executor.{n}{{executor=\"{id}\"}}");
        Self {
            frames_received: registry.counter(&name("frames_received")),
            bytes_received: registry.counter(&name("bytes_received")),
            tasks_finished: registry.counter(&name("tasks_finished")),
            tasks_failed: registry.counter(&name("tasks_failed")),
            io_mb: registry.float_counter(&name("io_mb")),
        }
    }
}

/// The incarnation loop: serve until the job is over, reincarnating after
/// kills and connection losses as long as the respawn budget allows.
fn run_executor(
    addr: SocketAddr,
    cfg: LiveExecutorConfig,
    kill: Arc<AtomicBool>,
) -> io::Result<()> {
    let log = Logger::new(format!("executor-{}", cfg.id), cfg.recorder.clone());
    let mut incarnation: usize = 0;
    // Journal records already streamed as live ZetaSample frames; spans
    // incarnations because the journal does too.
    let mut zeta_sent: usize = 0;
    let result = loop {
        let exit = run_incarnation(addr, &cfg, &kill, incarnation, &mut zeta_sent, &log);
        let respawn = match &cfg.respawn {
            Some(r) if incarnation < r.max_respawns => r,
            _ => {
                break match exit {
                    Ok(_) => Ok(()),
                    Err(e) => Err(e),
                };
            }
        };
        match exit {
            Ok(Exit::Clean) => break Ok(()),
            Ok(Exit::Killed) | Ok(Exit::ConnLost) | Err(_) => {
                incarnation += 1;
                log.info(|| {
                    format!(
                        "respawning as incarnation {incarnation} after {:?} downtime",
                        respawn.delay
                    )
                });
                std::thread::sleep(respawn.delay);
                // The rebirth clears the kill switch: a new incarnation
                // starts healthy, like a restarted worker process.
                kill.store(false, Ordering::Relaxed);
            }
        }
    };
    // Replay the journal's ζ samples onto the recorder exactly once, after
    // the last incarnation: the shared journal spans every rebirth, and
    // the merged trace gains its zeta-exec{N} counter track. Samples the
    // receiver already merged from live `ZetaSample` frames are skipped —
    // the recorder's per-executor streamed count is the receiver-side
    // truth, so samples lost in flight (or fenced) still land here.
    let streamed = cfg.recorder.zeta_streamed(cfg.id) as usize;
    for rec in cfg.journal.records().iter().skip(streamed) {
        cfg.recorder
            .push(LiveEvent::Trace(TraceEvent::IntervalClosed {
                executor: rec.executor,
                threads: rec.threads,
                zeta: rec.zeta,
                at: rec.at,
            }));
    }
    result
}

/// One incarnation: connect, register, serve, clean up.
fn run_incarnation(
    addr: SocketAddr,
    cfg: &LiveExecutorConfig,
    kill: &Arc<AtomicBool>,
    incarnation: usize,
    zeta_sent: &mut usize,
    log: &Logger,
) -> io::Result<Exit> {
    let stream = match (incarnation, &cfg.respawn) {
        (0, _) | (_, None) => connect_with_retry(addr, cfg.connect_timeout)?,
        (_, Some(respawn)) => {
            match connect_with_backoff(addr, respawn, incarnation, cfg.connect_timeout) {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    // The driver is gone: the job ended during our downtime.
                    log.info(|| "driver gone; staying dead".into());
                    return Ok(Exit::Clean);
                }
                Err(e) => return Err(e),
            }
        }
    };
    stream.set_nodelay(true)?;
    // The read timeout bounds how stale the kill flag can get.
    stream.set_read_timeout(Some(Duration::from_millis(25)))?;
    let recorder = cfg.recorder.clone();
    let link = Arc::new(Link {
        writer: Mutex::new(FrameWriter::new(stream.try_clone()?)),
        frames_sent: cfg.metrics.counter(&format!(
            "live.executor.frames_sent{{executor=\"{}\"}}",
            cfg.id
        )),
        bytes_sent: cfg.metrics.counter(&format!(
            "live.executor.bytes_sent{{executor=\"{}\"}}",
            cfg.id
        )),
        recorder: recorder.clone(),
        id: cfg.id,
    });
    let mut reader = FrameReader::new(stream);

    // The shared probe: explicit per-task accounting + procfs per stage.
    let task_io = CounterProbe::new();
    let stage_probe = proc_stage_probe();
    // The recorder epoch is the pool's time base too: decision-journal
    // timestamps and flight-recorder timestamps share one clock.
    let pool = AdaptivePool::new_at(
        cfg.mape,
        combined_probe(task_io.as_probe(), stage_probe.as_probe()),
        recorder.epoch(),
    );
    pool.set_executor(cfg.id);
    pool.set_journal(cfg.journal.clone());
    {
        // §5.4: every pool resize becomes a protocol message.
        let link = Arc::clone(&link);
        let kill = Arc::clone(kill);
        let id = cfg.id;
        pool.set_resize_hook(move |size| {
            if kill.load(Ordering::Relaxed) {
                return;
            }
            let _ = link.send(&Frame::Core(Message::PoolSizeChanged {
                executor: id,
                size,
            }));
        });
    }
    link.send(&Frame::Register {
        executor: cfg.id,
        slots: pool.current_threads(),
    })?;
    log.info(|| {
        format!(
            "incarnation {incarnation} connected and registered with {} slots",
            pool.current_threads()
        )
    });

    let heartbeat_stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let link = Arc::clone(&link);
        let kill = Arc::clone(kill);
        let stop = Arc::clone(&heartbeat_stop);
        let id = cfg.id;
        let interval = cfg.heartbeat_interval;
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) && !kill.load(Ordering::Relaxed) {
                if link
                    .send(&Frame::Core(Message::Heartbeat { executor: id }))
                    .is_err()
                {
                    break;
                }
                std::thread::sleep(interval);
            }
        })
    };

    let inc = Arc::new(Incarnation {
        cfg: cfg.clone(),
        number: incarnation,
        link,
        kill: Arc::clone(kill),
        pool: pool.clone(),
        task_io: task_io.clone(),
        metrics: ExecMetrics::new(&cfg.metrics, cfg.id),
        log: log.clone(),
        completed: AtomicUsize::new(0),
        jobs: Mutex::new(HashMap::new()),
    });
    let result = inc.serve(&mut reader, &stage_probe, zeta_sent);
    heartbeat_stop.store(true, Ordering::Relaxed);
    pool.shutdown();
    // Book the final stage's I/O before the incarnation's probe drops.
    let (_, mb) = (task_io.as_probe())();
    inc.metrics.io_mb.add(mb);
    log.info(|| {
        format!(
            "incarnation {incarnation} exiting after {} tasks, {} journal records",
            inc.completed.load(Ordering::Relaxed),
            cfg.journal.len()
        )
    });
    let _ = heartbeat.join();
    result
}

/// One incarnation's serving state, shared with its task attempts: each
/// holds it while it waits in the pool queue and runs.
struct Incarnation {
    cfg: LiveExecutorConfig,
    /// Incarnation number: the epoch of its attempts' trace keys.
    number: usize,
    link: Arc<Link>,
    kill: Arc<AtomicBool>,
    pool: AdaptivePool,
    task_io: CounterProbe,
    metrics: ExecMetrics,
    log: Logger,
    /// Attempts run to an outcome.
    completed: AtomicUsize,
    /// Stage parameters per live job — the driver's stage under
    /// [`crate::task::SINGLE_JOB`] — read as each attempt starts to run.
    jobs: Mutex<HashMap<u64, StageParams>>,
}

impl Incarnation {
    /// The frame loop, split out so cleanup in [`run_incarnation`] runs on
    /// every exit path.
    fn serve(
        self: &Arc<Self>,
        reader: &mut FrameReader,
        stage_probe: &sae_pool::procfs::StageIoProbe,
        zeta_sent: &mut usize,
    ) -> io::Result<Exit> {
        let (cfg, link, log) = (&self.cfg, &self.link, &self.log);
        loop {
            if self.kill.load(Ordering::Relaxed) {
                log.error(|| "killed: going silent with the socket open".into());
                return Ok(Exit::Killed);
            }
            // Stream ζ intervals the MAPE-K controller closed since the
            // last pass, so the receiver's timeline gains its zeta-exec{N}
            // track during the run instead of at the shutdown-time journal
            // replay.
            if cfg.journal.len() > *zeta_sent {
                for rec in cfg.journal.records().iter().skip(*zeta_sent) {
                    if link
                        .send(&Frame::ZetaSample {
                            executor: rec.executor,
                            threads: rec.threads,
                            zeta_bits: rec.zeta.to_bits(),
                            at_bits: rec.at.to_bits(),
                        })
                        .is_err()
                    {
                        break;
                    }
                    *zeta_sent += 1;
                }
            }
            let frame = match reader.next_frame()? {
                Next::Idle => continue,
                Next::Eof => return Ok(Exit::ConnLost),
                Next::Frame(frame) => frame,
            };
            self.metrics.frames_received.inc();
            self.metrics
                .bytes_received
                .add(reader.last_frame_len() as u64);
            link.recorder.push(LiveEvent::FrameReceived {
                executor: cfg.id,
                kind: frame.kind_str(),
                bytes: reader.last_frame_len(),
                at: link.recorder.now(),
            });
            match frame {
                Frame::Shutdown => return Ok(Exit::Clean),
                // A peer died and its work is being redistributed onto us:
                // measurements spanning this window would mislead the
                // MAPE-K climb, so poison the current interval. (A notice
                // about our own prior incarnation is not a peer loss —
                // ignore it.)
                Frame::FaultNotice { executor } if executor != cfg.id => {
                    self.pool
                        .interval_poisoned(&format!("executor {executor} declared lost"));
                    log.info(|| {
                        format!("peer executor {executor} lost: poisoned the current interval")
                    });
                }
                Frame::FaultNotice { .. } => {}
                // The driver opens a MAPE-K episode. Book the finished
                // stage's explicit I/O before the reset.
                Frame::StageStart { stage, hint } => {
                    let (_, mb) = (self.task_io.as_probe())();
                    self.metrics.io_mb.add(mb);
                    self.task_io.reset();
                    stage_probe.rebase();
                    self.pool.stage_started(Some(hint));
                    log.info(|| format!("stage {stage} announced: pool reset, hint {hint}"));
                }
                // A stage announcement only installs its parameters. The
                // job server never follows it with a StageStart: many jobs
                // interleave on one fleet, and a reset per job stage would
                // thrash the MAPE-K controller's measurement intervals.
                Frame::JobStageStart {
                    job,
                    stage,
                    kind,
                    records_per_task,
                    seed,
                    ..
                } => {
                    self.jobs
                        .lock()
                        .insert(job, (stage, kind, records_per_task, seed));
                    log.info(|| format!("job {job} stage {stage} announced"));
                }
                Frame::JobEnd { job } => {
                    self.jobs.lock().remove(&job);
                    log.info(|| format!("job {job} retired"));
                }
                Frame::AssignJobTask { job, task } => self.attempt(job, task),
                // Driver-only frames echoed at us: ignore.
                _ => {}
            }
        }
    }

    /// Runs one attempt of `job`'s `task` on the pool, then reports its
    /// span and outcome.
    fn attempt(self: &Arc<Self>, job: u64, task: usize) {
        let run = Arc::clone(self);
        self.pool.submit(move || {
            if run.kill.load(Ordering::Relaxed) {
                return;
            }
            // The stage is looked up when the attempt runs. A job never
            // announced, or retired while the attempt sat in the pool
            // queue, gets a failed outcome: the receiver booked a slot for
            // the assignment and frees it only when an outcome arrives.
            let params = run.jobs.lock().get(&job).copied();
            let Some((stage, kind, records_per_task, seed)) = params else {
                let _ = run.link.send(&run.outcome(job, task, false));
                return;
            };
            let (dir, io) = (&run.cfg.spill_dir, &run.task_io);
            let started = run.link.recorder.now();
            let ok = run_task(kind, job, task, records_per_task, seed, dir, io).is_ok();
            if run.kill.load(Ordering::Relaxed) {
                return; // died mid-task: no report, just silence
            }
            let key = TraceKey {
                job,
                stage,
                task,
                attempt: 0,
                epoch: run.number as u64,
            };
            let span = Frame::TaskSpan {
                key,
                executor: run.cfg.id,
                start_bits: started.to_bits(),
                end_bits: run.link.recorder.now().to_bits(),
                ok,
            };
            if ok {
                run.metrics.tasks_finished.inc();
            } else {
                run.metrics.tasks_failed.inc();
                let failed = format!("job {job} task {task} failed");
                run.log.error(|| failed.clone());
                // Our own failure distorts the probe the same way a peer's
                // does: poison the interval.
                run.pool.interval_poisoned(&failed);
            }
            // Span first, outcome second: the receiver merges the span into
            // the live timeline before it acts on the outcome, keeping the
            // trace causally ordered.
            let _ = run.link.send_batch(&[span, run.outcome(job, task, ok)]);
            let done = run.completed.fetch_add(1, Ordering::Relaxed) + 1;
            // The deterministic kill switch taints only the first
            // incarnation.
            let kill_after = run.cfg.kill_after_tasks.filter(|_| run.number == 0);
            if kill_after.is_some_and(|n| done >= n) {
                run.kill.store(true, Ordering::Relaxed);
            }
        });
    }

    /// An attempt's outcome report.
    fn outcome(&self, job: u64, task: usize, ok: bool) -> Frame {
        Frame::JobTaskOutcome {
            job,
            task,
            executor: self.cfg.id,
            attempt: 0,
            ok,
        }
    }
}
