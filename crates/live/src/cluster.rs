//! One-call setup of a whole loopback cluster: driver + N executors +
//! a shared scratch directory for spills — plus the cluster's shared
//! observability plane: one [`FlightRecorder`], one [`MetricRegistry`]
//! and one [`DecisionJournal`] per executor, all on one clock.
//!
//! Artifacts: set [`ClusterConfig::trace_out`] to get the merged Chrome
//! trace on shutdown, [`ClusterConfig::journal_out`] for the decision
//! journal as JSONL, [`ClusterConfig::metrics_out`] for a Prometheus text
//! exposition, and [`ClusterConfig::metrics_jsonl`] for a periodic
//! snapshot stream sampled every [`ClusterConfig::metrics_interval`].
//! When a job *fails* — including by panic, which is caught and turned
//! into [`LiveError::DriverPanicked`] — the flight recorder is dumped
//! immediately (to `trace_out`, or a fresh file under the system temp
//! dir) so the post-mortem survives even if shutdown never happens.
//!
//! # Chaos
//!
//! Give [`ClusterConfig::fault_plan`] a seeded [`FaultPlan`] and the
//! cluster arms the full live fault model:
//!
//! * `plan.wire` interposes a `Nemesis` proxy between the executors and
//!   the driver, perturbing scheduled frames (delay, throttle, drop,
//!   duplicate, mid-frame reset, partition);
//! * `plan.crashes` drives a chaos-agent thread that flips executor kill
//!   switches on schedule; each crashed executor reincarnates after the
//!   crash's `downtime` (or per [`ClusterConfig::respawn`] if set);
//! * `plan.disk` makes the same agent corrupt spill files once they land,
//!   exercising the checksum → quarantine → lineage-rebuild path.
//!
//! The same plan validates under the simulator's `FaultPlan` rules, so one
//! seeded schedule drives both runtimes.

use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sae_core::{DecisionJournal, DecisionRecord, MapeConfig};
use sae_dag::{FaultPlan, TraceEvent};
use sae_metrics::{render_prometheus, snapshot_jsonl_line, MetricRegistry};

use crate::driver::{Driver, DriverConfig, LiveError, LiveReport, PoolDecision, SlotInfo};
use crate::executor::{LiveExecutor, LiveExecutorConfig, RespawnConfig};
use crate::job::LiveJob;
use crate::log::Logger;
use crate::nemesis::Nemesis;
use crate::recorder::{FlightRecorder, LiveEvent};

/// Cluster-level configuration: driver knobs plus what every executor
/// shares.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of executors to launch.
    pub executors: usize,
    /// MAPE-K bounds for every executor's pool.
    pub mape: MapeConfig,
    /// Executor heartbeat period.
    pub heartbeat_interval: Duration,
    /// Driver silence threshold before declaring an executor lost.
    pub heartbeat_timeout: Duration,
    /// Driver event-loop wakeup period.
    pub check_interval: Duration,
    /// Per-stage executor failure budget before blacklisting.
    pub blacklist_after: usize,
    /// How long a blacklisted executor sits out before probation ends.
    pub probation: Duration,
    /// Wall-clock bound on the whole job.
    pub deadline: Duration,
    /// How long the driver tolerates having no usable executor (parked in
    /// `Degraded`) before the job fails.
    pub degraded_wait: Duration,
    /// The driver's drain budget for queued frames on exit.
    pub shutdown_drain: Duration,
    /// Run executors as separate OS processes (`sae-executor` children)
    /// instead of in-process threads. The in-thread mode stays the fast
    /// test path; process mode is the real fleet — each executor owns
    /// its own address space, procfs view and crash domain. Chaos
    /// crashes are delivered to children as `--crash-at-ms` arguments
    /// (the parent cannot flip a kill switch across the boundary);
    /// disk faults stay with the parent, which owns the shared spill
    /// directory. Child decision journals are merged back on
    /// [`LiveCluster::shutdown`].
    pub process_executors: bool,
    /// Path to the `sae-executor` binary for process mode. `None` tries
    /// the `SAE_EXECUTOR_BIN` environment variable, then looks next to
    /// the current executable (tests pass
    /// `env!("CARGO_BIN_EXE_sae-executor")`).
    pub executor_binary: Option<PathBuf>,
    /// Fault injection: `(executor, n)` makes that executor go silent
    /// after completing `n` tasks.
    pub kill_after_tasks: Vec<(usize, usize)>,
    /// The seeded fault schedule (see the module docs). An empty plan —
    /// the default — arms nothing and interposes nothing.
    pub fault_plan: FaultPlan,
    /// Reincarnation policy for every executor. `None` keeps death final
    /// except for plan crashes, which derive a policy from their
    /// `downtime`.
    pub respawn: Option<RespawnConfig>,
    /// Flight-recorder ring capacity in events; 0 disables recording.
    pub recorder_capacity: usize,
    /// Where to write the merged Chrome trace on shutdown (and
    /// immediately on job failure).
    pub trace_out: Option<PathBuf>,
    /// Where to write every executor's decision journal as JSONL on
    /// shutdown.
    pub journal_out: Option<PathBuf>,
    /// Where to write the final Prometheus text exposition on shutdown.
    pub metrics_out: Option<PathBuf>,
    /// Where to append periodic metric snapshots as JSONL while the
    /// cluster is up.
    pub metrics_jsonl: Option<PathBuf>,
    /// Sampling period of the JSONL metrics sink.
    pub metrics_interval: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            executors: 3,
            mape: MapeConfig::new(2, 8),
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_millis(800),
            check_interval: Duration::from_millis(50),
            blacklist_after: 3,
            probation: Duration::from_secs(2),
            deadline: Duration::from_secs(120),
            degraded_wait: Duration::from_secs(5),
            shutdown_drain: Duration::from_millis(500),
            process_executors: false,
            executor_binary: None,
            kill_after_tasks: Vec::new(),
            fault_plan: FaultPlan::default(),
            respawn: None,
            recorder_capacity: 16_384,
            trace_out: None,
            journal_out: None,
            metrics_out: None,
            metrics_jsonl: None,
            metrics_interval: Duration::from_millis(250),
        }
    }
}

/// A scratch directory removed on drop. Hand-rolled (no `tempfile`
/// dependency): uniqueness comes from the pid plus a process-wide counter.
///
/// Cleanup is panic-safe: drop glue runs during unwinding, so a test or
/// driver panic still removes the directory — and the cluster additionally
/// catches driver panics before they can poison the caller's stack (see
/// [`LiveCluster::run_with_observer`]).
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory under the system temp dir.
    pub fn new(prefix: &str) -> io::Result<Self> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A process-mode executor: the child process plus where it will leave
/// its decision journal for the shutdown-time merge.
#[derive(Debug)]
struct ChildExecutor {
    id: usize,
    child: std::process::Child,
    journal_path: PathBuf,
}

impl Drop for ChildExecutor {
    fn drop(&mut self) {
        // The panic path: a cluster dropped without `shutdown` must not
        // leak executor processes.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A running loopback cluster.
///
/// # Examples
///
/// ```no_run
/// use sae_live::{ClusterConfig, LiveCluster};
///
/// let mut cluster = LiveCluster::launch(ClusterConfig::default()).unwrap();
/// let report = cluster.run(&sae_live::terasort(12, 5_000, 1)).unwrap();
/// assert_eq!(report.stages.len(), 2);
/// cluster.shutdown().unwrap();
/// ```
#[derive(Debug)]
pub struct LiveCluster {
    driver: Option<Driver>,
    executors: Vec<LiveExecutor>,
    children: Vec<ChildExecutor>,
    _scratch: TempDir,
    cfg: ClusterConfig,
    recorder: FlightRecorder,
    metrics: MetricRegistry,
    journals: Vec<DecisionJournal>,
    log: Logger,
    sampler_stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
    nemesis: Option<Nemesis>,
    chaos_stop: Arc<AtomicBool>,
    chaos: Option<JoinHandle<()>>,
    last_trace_path: Option<PathBuf>,
}

impl LiveCluster {
    /// Binds a driver and launches `cfg.executors` executors against it
    /// (through a `Nemesis` proxy when the fault plan has wire faults).
    pub fn launch(cfg: ClusterConfig) -> io::Result<Self> {
        let scratch = TempDir::new("sae-live")?;
        // One recorder, one registry, one clock for the whole cluster.
        let recorder = FlightRecorder::new(cfg.recorder_capacity);
        let metrics = MetricRegistry::new();
        let journals: Vec<DecisionJournal> =
            (0..cfg.executors).map(|_| DecisionJournal::new()).collect();
        let driver = Driver::bind(DriverConfig {
            executors: cfg.executors,
            heartbeat_timeout: cfg.heartbeat_timeout,
            check_interval: cfg.check_interval,
            blacklist_after: cfg.blacklist_after,
            probation: cfg.probation,
            deadline: cfg.deadline,
            degraded_wait: cfg.degraded_wait,
            shutdown_drain: cfg.shutdown_drain,
            recorder: recorder.clone(),
            metrics: metrics.clone(),
        })?;
        let driver_addr = driver.addr()?;
        // Wire faults interpose the nemesis; executors then connect to it
        // instead of the driver and every frame crosses the fault layer.
        let nemesis = if cfg.fault_plan.wire.is_empty() {
            None
        } else {
            Some(Nemesis::launch(
                driver_addr,
                &cfg.fault_plan,
                recorder.clone(),
                &metrics,
            )?)
        };
        let addr = nemesis.as_ref().map_or(driver_addr, |n| n.addr());
        let (executors, children) = if cfg.process_executors {
            let bin = executor_binary(&cfg)?;
            let children = (0..cfg.executors)
                .map(|id| spawn_process_executor(&cfg, &bin, addr, scratch.path(), id))
                .collect::<io::Result<Vec<_>>>()?;
            (Vec::new(), children)
        } else {
            let executors: Vec<LiveExecutor> = (0..cfg.executors)
                .map(|id| {
                    let mut ecfg = LiveExecutorConfig::new(id, scratch.path().to_path_buf());
                    ecfg.mape = cfg.mape;
                    ecfg.heartbeat_interval = cfg.heartbeat_interval;
                    ecfg.kill_after_tasks = cfg
                        .kill_after_tasks
                        .iter()
                        .find(|&&(e, _)| e == id)
                        .map(|&(_, n)| n);
                    ecfg.respawn = respawn_for(&cfg, id);
                    ecfg.recorder = recorder.clone();
                    ecfg.metrics = metrics.clone();
                    ecfg.journal = journals[id].clone();
                    LiveExecutor::launch(addr, ecfg)
                })
                .collect();
            (executors, Vec::new())
        };
        let chaos_stop = Arc::new(AtomicBool::new(false));
        // Process-mode crashes ride the children's command lines; the
        // parent's agent keeps only what it can still reach — the
        // spill directory.
        let mut agent_plan = cfg.fault_plan.clone();
        if cfg.process_executors {
            agent_plan.crashes.clear();
        }
        let chaos = if agent_plan.crashes.is_empty() && agent_plan.disk.is_empty() {
            None
        } else {
            let kills = executors.iter().map(|e| e.kill_handle()).collect();
            Some(spawn_chaos_agent(
                agent_plan,
                kills,
                scratch.path().to_path_buf(),
                recorder.clone(),
                Arc::clone(&chaos_stop),
            ))
        };
        let sampler_stop = Arc::new(AtomicBool::new(false));
        let sampler = cfg.metrics_jsonl.clone().map(|path| {
            spawn_metrics_sampler(
                path,
                metrics.clone(),
                recorder.clone(),
                cfg.metrics_interval,
                Arc::clone(&sampler_stop),
            )
        });
        let log = Logger::new("cluster", recorder.clone());
        Ok(Self {
            driver: Some(driver),
            executors,
            children,
            _scratch: scratch,
            cfg,
            recorder,
            metrics,
            journals,
            log,
            sampler_stop,
            sampler,
            nemesis,
            chaos_stop,
            chaos,
            last_trace_path: None,
        })
    }

    /// The cluster's shared metric registry.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// The cluster's shared flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Per-executor decision journals (shared handles; complete once
    /// [`LiveCluster::shutdown`] has joined the executors).
    pub fn journals(&self) -> &[DecisionJournal] {
        &self.journals
    }

    /// Every executor's journal records, executor order then record order.
    pub fn journal_records(&self) -> Vec<DecisionRecord> {
        self.journals.iter().flat_map(|j| j.records()).collect()
    }

    /// Where the last flight-recorder dump was written, if any.
    pub fn last_trace_path(&self) -> Option<&Path> {
        self.last_trace_path.as_deref()
    }

    /// Runs one job on the cluster's driver. The driver is single-shot:
    /// a second call reports [`LiveError::AlreadyRan`].
    pub fn run(&mut self, job: &LiveJob) -> Result<LiveReport, LiveError> {
        self.run_with_observer(job, |_, _| {})
    }

    /// Like [`LiveCluster::run`] with a `PoolSizeChanged` observer.
    ///
    /// A panic anywhere in the driver's event loop (including inside the
    /// observer) is caught, converted to [`LiveError::DriverPanicked`],
    /// and treated like any other failure: the flight recorder is dumped
    /// for post-mortem and the cluster stays joinable — the unwinding
    /// driver drops its sockets, so executors see EOF and exit cleanly.
    pub fn run_with_observer(
        &mut self,
        job: &LiveJob,
        observer: impl FnMut(&PoolDecision, &[SlotInfo]),
    ) -> Result<LiveReport, LiveError> {
        let driver = self.driver.take().ok_or(LiveError::AlreadyRan)?;
        let result = catch_unwind(AssertUnwindSafe(move || {
            driver.run_with_observer(job, observer)
        }))
        .unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(LiveError::DriverPanicked { message })
        });
        if let Err(e) = &result {
            // Post-mortem: dump the black box while the evidence is hot.
            let why = e.to_string();
            if let Some(path) = self.dump_trace() {
                self.log
                    .error(|| format!("job failed ({why}); flight recorder dumped to {path:?}"));
            }
        }
        result
    }

    /// Writes the merged Chrome trace to [`ClusterConfig::trace_out`] (or
    /// a fresh file under the system temp dir) and returns the path.
    fn dump_trace(&mut self) -> Option<PathBuf> {
        if !self.recorder.enabled() && self.cfg.trace_out.is_none() {
            return None;
        }
        let path = self.cfg.trace_out.clone().unwrap_or_else(|| {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("sae-live-flight-{}-{n}.json", std::process::id()))
        });
        match std::fs::write(&path, self.recorder.chrome_trace()) {
            Ok(()) => {
                self.last_trace_path = Some(path.clone());
                Some(path)
            }
            Err(_) => None,
        }
    }

    /// Reaps process-mode children: waits out a grace window (they exit
    /// on the driver's `Shutdown` frame or on EOF), kills stragglers,
    /// then merges each child's journal back into the shared
    /// observability plane — records land on the per-executor
    /// [`DecisionJournal`] handles and their ζ samples replay onto the
    /// recorder, exactly what an in-thread executor does as it exits.
    fn reap_children(&mut self, first_err: &mut Option<io::Error>) {
        let deadline = Instant::now() + Duration::from_secs(10);
        for mut child in std::mem::take(&mut self.children) {
            loop {
                match child.child.try_wait() {
                    Ok(Some(status)) => {
                        if !status.success() {
                            first_err.get_or_insert_with(|| {
                                io::Error::other(format!(
                                    "executor {} exited with {status}",
                                    child.id
                                ))
                            });
                        }
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Ok(None) => {
                        let _ = child.child.kill();
                        let _ = child.child.wait();
                        first_err.get_or_insert_with(|| {
                            io::Error::other(format!(
                                "executor {} hung past the reap deadline and was killed",
                                child.id
                            ))
                        });
                        break;
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                        break;
                    }
                }
            }
            let text = match std::fs::read_to_string(&child.journal_path) {
                Ok(text) => text,
                Err(_) => continue, // died before writing: nothing to merge
            };
            match sae_core::parse_jsonl(&text) {
                Ok(records) => {
                    // The journal file is the complete record; the cluster's
                    // per-child journal handle gets every entry. The merged
                    // trace, though, already holds whatever the driver
                    // admitted as live ZetaSample frames — push only the
                    // unstreamed tail so the incremental merge and the
                    // shutdown merge together cover each record exactly once.
                    let streamed = self.recorder.zeta_streamed(child.id) as usize;
                    for (i, rec) in records.into_iter().enumerate() {
                        if i >= streamed {
                            self.recorder
                                .push(LiveEvent::Trace(TraceEvent::IntervalClosed {
                                    executor: rec.executor,
                                    threads: rec.threads,
                                    zeta: rec.zeta,
                                    at: rec.at,
                                }));
                        }
                        if let Some(journal) = self.journals.get(child.id) {
                            journal.push(rec);
                        }
                    }
                }
                Err(e) => {
                    first_err.get_or_insert_with(|| {
                        io::Error::other(format!("executor {} journal unreadable: {e}", child.id))
                    });
                }
            }
        }
    }

    /// Joins every executor thread, then writes the configured artifacts:
    /// the merged Chrome trace, the decision-journal JSONL and the final
    /// Prometheus exposition. The scratch directory is removed when the
    /// cluster drops.
    pub fn shutdown(mut self) -> io::Result<()> {
        // Chaos off first: no kills or corruptions while draining.
        self.chaos_stop.store(true, Ordering::Relaxed);
        if let Some(chaos) = self.chaos.take() {
            let _ = chaos.join();
        }
        let mut first_err = None;
        for ex in self.executors.drain(..) {
            if let Err(e) = ex.join() {
                first_err.get_or_insert(e);
            }
        }
        self.reap_children(&mut first_err);
        if let Some(mut nemesis) = self.nemesis.take() {
            nemesis.shutdown();
        }
        // Executors are drained: journals carry their terminal records and
        // the recorder holds the replayed ζ samples. Now the artifacts.
        self.sampler_stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
        self.dump_trace();
        if let Some(path) = self.cfg.journal_out.clone() {
            if let Err(e) = std::fs::write(&path, sae_core::to_jsonl(&self.journal_records())) {
                first_err.get_or_insert(e);
            }
        }
        if let Some(path) = self.cfg.metrics_out.clone() {
            if let Err(e) = std::fs::write(&path, render_prometheus(&self.metrics)) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Finds the `sae-executor` binary for process mode: the configured
/// path, the `SAE_EXECUTOR_BIN` environment variable, or a sibling of
/// the current executable. Cargo puts test harnesses in
/// `target/<profile>/deps` and the binary one level up, so both the
/// executable's own directory and its parent are checked.
fn executor_binary(cfg: &ClusterConfig) -> io::Result<PathBuf> {
    if let Some(path) = &cfg.executor_binary {
        return Ok(path.clone());
    }
    if let Some(path) = std::env::var_os("SAE_EXECUTOR_BIN") {
        return Ok(PathBuf::from(path));
    }
    let exe = std::env::current_exe()?;
    let name = format!("sae-executor{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent();
    for _ in 0..2 {
        let Some(d) = dir else { break };
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
        dir = d.parent();
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "sae-executor binary not found; set ClusterConfig::executor_binary or SAE_EXECUTOR_BIN",
    ))
}

/// Spawns one process-mode executor, translating the cluster's shared
/// knobs — MAPE-K bounds, heartbeat period, deterministic kills, the
/// respawn policy and the fault plan's crash schedule — into
/// `sae-executor` arguments.
fn spawn_process_executor(
    cfg: &ClusterConfig,
    bin: &Path,
    addr: std::net::SocketAddr,
    spill: &Path,
    id: usize,
) -> io::Result<ChildExecutor> {
    let journal_path = spill.join(format!("journal-e{id}.jsonl"));
    let mut cmd = std::process::Command::new(bin);
    cmd.arg("--driver")
        .arg(addr.to_string())
        .arg("--id")
        .arg(id.to_string())
        .arg("--spill")
        .arg(spill)
        .arg("--c-min")
        .arg(cfg.mape.c_min.to_string())
        .arg("--c-max")
        .arg(cfg.mape.c_max.to_string())
        .arg("--heartbeat-ms")
        .arg(cfg.heartbeat_interval.as_millis().to_string())
        .arg("--journal-out")
        .arg(&journal_path);
    if let Some(&(_, n)) = cfg.kill_after_tasks.iter().find(|&&(e, _)| e == id) {
        cmd.arg("--kill-after").arg(n.to_string());
    }
    // `respawn_for` already derives the policy (and its seed) from the
    // crash schedule when no explicit one is set, so the child gets the
    // exact policy its in-thread twin would run with.
    if let Some(r) = respawn_for(cfg, id) {
        cmd.arg("--respawn-delay-ms")
            .arg(r.delay.as_millis().to_string())
            .arg("--respawn-max")
            .arg(r.max_respawns.to_string())
            .arg("--respawn-seed")
            .arg(r.seed.to_string());
    }
    for crash in cfg.fault_plan.crashes.iter().filter(|c| c.executor == id) {
        cmd.arg("--crash-at-ms")
            .arg(((crash.at * 1000.0) as u64).to_string())
            .arg("--crash-downtime-ms")
            .arg(((crash.downtime * 1000.0) as u64).to_string());
    }
    let child = cmd
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .spawn()?;
    Ok(ChildExecutor {
        id,
        child,
        journal_path,
    })
}

/// The reincarnation policy executor `id` launches with: the explicit
/// cluster-wide policy if set, else one derived from the executor's
/// scheduled crash (its `downtime` becomes the respawn delay — the same
/// number the simulator uses for the replacement's registration delay).
fn respawn_for(cfg: &ClusterConfig, id: usize) -> Option<RespawnConfig> {
    if cfg.respawn.is_some() {
        return cfg.respawn.clone();
    }
    cfg.fault_plan
        .crashes
        .iter()
        .find(|c| c.executor == id)
        .map(|c| {
            let mut r = RespawnConfig::new(Duration::from_secs_f64(c.downtime));
            r.seed = cfg.fault_plan.seed ^ id as u64;
            r
        })
}

/// The chaos agent: walks the plan's crash and disk schedules on the
/// recorder clock, flipping kill switches and corrupting spill files as
/// their times come due. Disk corruptions flip one seeded byte of the
/// spill once the file exists with a stable size; the recorder's
/// `FaultInjected{kind:"disk"}` event carries the *task* id in its
/// executor field (spills belong to tasks, not executors).
fn spawn_chaos_agent(
    plan: FaultPlan,
    kills: Vec<Arc<AtomicBool>>,
    spill_dir: PathBuf,
    recorder: FlightRecorder,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let log = Logger::new("chaos", recorder.clone());
        let mut crash_fired = vec![false; plan.crashes.len()];
        let mut disk_fired = vec![false; plan.disk.len()];
        let mut disk_seen_len: Vec<Option<u64>> = vec![None; plan.disk.len()];
        while !stop.load(Ordering::Relaxed) {
            let now = recorder.now();
            for (i, crash) in plan.crashes.iter().enumerate() {
                if crash_fired[i] || now < crash.at {
                    continue;
                }
                crash_fired[i] = true;
                if let Some(kill) = kills.get(crash.executor) {
                    kill.store(true, Ordering::Relaxed);
                    recorder.push(LiveEvent::FaultInjected {
                        executor: crash.executor,
                        kind: "crash",
                        at: now,
                    });
                    log.info(|| {
                        format!(
                            "killed executor {} at t={now:.2}s (downtime {:.2}s)",
                            crash.executor, crash.downtime
                        )
                    });
                }
            }
            for (i, fault) in plan.disk.iter().enumerate() {
                if disk_fired[i] || now < fault.at {
                    continue;
                }
                let path = crate::task::spill_path(&spill_dir, crate::task::SINGLE_JOB, fault.task);
                let Ok(meta) = std::fs::metadata(&path) else {
                    continue; // not spilled yet; retry next tick
                };
                // Wait for two ticks of stable size so we corrupt a
                // finished spill, not one mid-write.
                if disk_seen_len[i] != Some(meta.len()) {
                    disk_seen_len[i] = Some(meta.len());
                    continue;
                }
                if let Ok(mut bytes) = std::fs::read(&path) {
                    if bytes.is_empty() {
                        continue;
                    }
                    let pos = (plan.seed ^ fault.task as u64) as usize % bytes.len();
                    bytes[pos] ^= 0xFF;
                    if std::fs::write(&path, &bytes).is_ok() {
                        disk_fired[i] = true;
                        recorder.push(LiveEvent::FaultInjected {
                            executor: fault.task,
                            kind: "disk",
                            at: now,
                        });
                        log.info(|| {
                            format!(
                                "corrupted spill of task {} (byte {pos}) at t={now:.2}s",
                                fault.task
                            )
                        });
                    }
                }
            }
            if crash_fired.iter().all(|&f| f) && disk_fired.iter().all(|&f| f) {
                return; // schedule exhausted
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    })
}

/// Appends one metric snapshot as JSONL every `interval` until stopped,
/// plus a final snapshot on the way out.
fn spawn_metrics_sampler(
    path: PathBuf,
    metrics: MetricRegistry,
    recorder: FlightRecorder,
    interval: Duration,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let Ok(mut out) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        else {
            return;
        };
        loop {
            let line = snapshot_jsonl_line(&metrics.snapshot(), recorder.now());
            if writeln!(out, "{line}").is_err() {
                return;
            }
            if stop.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(interval);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::terasort;

    #[test]
    fn temp_dirs_are_unique_and_cleaned_up() {
        let a = TempDir::new("sae-live-test").unwrap();
        let b = TempDir::new("sae-live-test").unwrap();
        assert_ne!(a.path(), b.path());
        let path = a.path().to_path_buf();
        assert!(path.is_dir());
        drop(a);
        assert!(!path.exists());
        assert!(b.path().is_dir());
    }

    #[test]
    fn driver_panic_is_contained_and_leaves_a_post_mortem() {
        let mut cluster = LiveCluster::launch(ClusterConfig {
            executors: 1,
            ..ClusterConfig::default()
        })
        .unwrap();
        let scratch = cluster._scratch.path().to_path_buf();
        // 8 tasks/stage on one executor clears min_stage_tasks, so the pool
        // resets to c_min at stage start — a guaranteed PoolSizeChanged
        // round-trip, and thus a guaranteed observer call.
        let err = cluster
            .run_with_observer(&terasort(8, 2_000, 7), |_, _| {
                panic!("observer exploded on purpose")
            })
            .unwrap_err();
        match &err {
            LiveError::DriverPanicked { message } => {
                assert!(message.contains("observer exploded"), "got: {message}");
            }
            other => panic!("expected DriverPanicked, got {other:?}"),
        }
        // The black box was dumped while the evidence was hot…
        let trace = cluster
            .last_trace_path()
            .expect("post-mortem dump")
            .to_path_buf();
        assert!(trace.is_file());
        // …the cluster is still joinable, and the scratch dir is
        // panic-safe: gone once the cluster drops.
        cluster.shutdown().unwrap();
        assert!(!scratch.exists());
        let _ = std::fs::remove_file(trace);
    }
}
