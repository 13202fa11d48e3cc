//! The server bed: `JobServer::bind` plus an in-process executor fleet,
//! put together exactly as `sae-server --fleet N` does it, on a scratch
//! directory inside the checkout.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sae_core::{DecisionJournal, MapeConfig};
use sae_live::executor::LiveExecutorConfig;
use sae_live::server::{JobServer, ServerConfig};
use sae_live::task::{sorted_path, spill_path};
use sae_live::{FlightRecorder, LiveEvent, LiveExecutor, ServerReport};
use sae_metrics::MetricRegistry;
use sae_workloads::spill::read_records;

use crate::sysinfo::scratch_root;

/// Flight-recorder ring size `sae-server` runs with.
const RECORDER_RING: usize = 65_536;
/// How long a launched fleet may take to register before the run is void.
const REGISTER_DEADLINE: Duration = Duration::from_secs(5);

/// A scratch directory under the build directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// `<build dir>/sae-benchmark-out/<pid>-<n>`, created empty.
    pub fn new() -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = scratch_root().join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fleet shape of one bed.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// Executors launched (and executor ids the server accepts).
    pub executors: usize,
    /// Adaptive pool bounds of each executor.
    pub c_min: usize,
    /// See `c_min`.
    pub c_max: usize,
}

impl Fleet {
    /// Pool threads the fleet can run at once, fully climbed.
    pub fn slots(self) -> usize {
        self.executors * self.c_max
    }
}

/// A running server with its fleet.
pub struct Bed {
    /// Control (HTTP) address.
    pub http: SocketAddr,
    /// The server's metric registry (shared handle: read counters here).
    pub registry: MetricRegistry,
    /// The server's flight recorder (shared handle).
    pub recorder: FlightRecorder,
    stop: Arc<AtomicBool>,
    serve: JoinHandle<io::Result<ServerReport>>,
    fleet: Vec<LiveExecutor>,
    exec_dirs: Vec<PathBuf>,
    _scratch: Scratch,
}

/// What a bed leaves behind.
pub struct BedReport {
    /// The server's own report (every job, final counters).
    pub server: ServerReport,
    /// Each executor's MAPE-K decision journal.
    pub journals: Vec<DecisionJournal>,
}

impl Bed {
    /// Binds the server, launches the fleet and returns once every
    /// executor has registered (`Err` if one has not within the deadline:
    /// a run on a partial fleet would measure the wrong system).
    pub fn launch(fleet_shape: Fleet) -> io::Result<Self> {
        let cfg = ServerConfig {
            executors: fleet_shape.executors,
            recorder: FlightRecorder::new(RECORDER_RING),
            ..ServerConfig::default()
        };
        let stop = Arc::clone(&cfg.stop);
        let registry = cfg.metrics.clone();
        let recorder = cfg.recorder.clone();
        let server = JobServer::bind(cfg)?;
        let (wire, http) = (server.wire_addr()?, server.http_addr()?);
        let scratch = Scratch::new()?;
        let mut exec_dirs = Vec::new();
        let mut fleet = Vec::new();
        for id in 0..fleet_shape.executors {
            let dir = scratch.path().join(format!("exec-{id}"));
            std::fs::create_dir_all(&dir)?;
            let mut ecfg = LiveExecutorConfig::new(id, dir.clone());
            ecfg.mape = MapeConfig::new(fleet_shape.c_min, fleet_shape.c_max);
            fleet.push(LiveExecutor::launch(wire, ecfg));
            exec_dirs.push(dir);
        }
        let serve = std::thread::spawn(move || server.serve());
        let bed = Self {
            http,
            registry,
            recorder,
            stop,
            serve,
            fleet,
            exec_dirs,
            _scratch: scratch,
        };
        let deadline = Instant::now() + REGISTER_DEADLINE;
        while bed.registered() < fleet_shape.executors {
            if Instant::now() > deadline {
                let seen = bed.registered();
                let _ = bed.shutdown();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "fleet not fully registered: {seen} of {} executors",
                        fleet_shape.executors
                    ),
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(bed)
    }

    /// Executors the server has logged as registered so far.
    fn registered(&self) -> usize {
        self.recorder
            .snapshot()
            .iter()
            .filter(|e| matches!(e, LiveEvent::Log { message, .. } if message.contains("registered with")))
            .count()
    }

    /// Reads job `job`'s sorted runs back (checksums verified by
    /// `read_records`) and checks each is ordered and complete.
    pub fn verify_sorted_runs(&self, job: u64, tasks: usize, records: usize) -> Result<(), String> {
        for task in 0..tasks {
            let path = self
                .exec_dirs
                .iter()
                .map(|d| sorted_path(d, job, task))
                .find(|p| p.exists())
                .ok_or_else(|| format!("job {job} task {task}: no sorted run on any executor"))?;
            let run = read_records(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            if run.len() != records {
                return Err(format!(
                    "job {job} task {task}: {} records, want {records}",
                    run.len()
                ));
            }
            if run.windows(2).any(|w| w[0].key > w[1].key) {
                return Err(format!("job {job} task {task}: sorted run is out of order"));
            }
        }
        Ok(())
    }

    /// Removes a finished job's spill and sorted files. The server keeps
    /// them for ever; a run of thousands of jobs must not fill the disk
    /// (nor let page-cache writeback set its noise floor).
    pub fn discard_job_files(&self, job: u64, tasks: usize) {
        for dir in &self.exec_dirs {
            for task in 0..tasks {
                let _ = std::fs::remove_file(spill_path(dir, job, task));
                let _ = std::fs::remove_file(sorted_path(dir, job, task));
            }
        }
    }

    /// Stops the server, joins the fleet, and hands back what they
    /// recorded. An executor that died is an error.
    pub fn shutdown(self) -> io::Result<BedReport> {
        self.stop.store(true, Ordering::Relaxed);
        let server = self
            .serve
            .join()
            .map_err(|_| io::Error::other("serve thread panicked"))??;
        let mut journals = Vec::new();
        for exec in self.fleet {
            journals.push(exec.journal());
            exec.join()?;
        }
        Ok(BedReport { server, journals })
    }
}
