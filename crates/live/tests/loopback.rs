//! End-to-end loopback cluster tests: the acceptance gates of the live
//! runtime.
//!
//! * A clean 3-executor Terasort completes with at least one
//!   `PoolSizeChanged` round-trip reflected in the driver's slot registry.
//! * A run with one executor killed mid-stage still completes, via
//!   heartbeat-silence detection and task retry.
//! * A connection registering an executor id outside the fleet is hung up
//!   on, and the job is none the worse.
//! * The driver and its executors speak only the job server's task
//!   dialect, plus the driver's episode-opening `StageStart`.
//!
//! Timers are tightened well below the library defaults so the failure
//! test stays fast; every run is additionally bounded by the driver's
//! internal deadline, so a wedged protocol fails the test instead of
//! hanging the suite.

use std::collections::BTreeSet;
use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

use sae_core::MapeConfig;
use sae_live::executor::LiveExecutorConfig;
use sae_live::wire::{Frame, FrameWriter};
use sae_live::{
    terasort, ClusterConfig, Driver, DriverConfig, LiveCluster, LiveEvent, LiveExecutor, TempDir,
};

fn test_cfg(executors: usize) -> ClusterConfig {
    ClusterConfig {
        executors,
        mape: MapeConfig::new(2, 8),
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(600),
        check_interval: Duration::from_millis(25),
        blacklist_after: 3,
        deadline: Duration::from_secs(90),
        ..ClusterConfig::default()
    }
}

#[test]
fn clean_terasort_completes_with_pool_size_round_trip() {
    let mut cluster = LiveCluster::launch(test_cfg(3)).unwrap();
    let job = terasort(24, 20_000, 2026);
    let journals = cluster.journals().to_vec();
    let report = cluster.run(&job).unwrap();
    cluster.shutdown().unwrap();

    assert_eq!(report.stages.len(), 2, "both Terasort stages must run");
    for stage in &report.stages {
        assert_eq!(stage.tasks, 24);
        assert!(stage.attempts >= stage.tasks);
        assert_eq!(stage.failed_attempts, 0, "clean run must not retry");
    }
    assert!(report.lost_executors.is_empty());

    // ≥1 PoolSizeChanged made the round trip: 24 tasks over 3 executors
    // is 8 per executor, above min_stage_tasks (6), so every stage start
    // resets each pool from c_max=8 to c_min=2 — and that resize must
    // arrive as a protocol message.
    assert!(
        !report.decisions.is_empty(),
        "no PoolSizeChanged round-trips were observed"
    );
    assert!(
        report.decisions.iter().any(|d| d.size == 2),
        "the stage-start reset to c_min never arrived: {:?}",
        report.decisions
    );

    // ...and the registry reflects the round trips: each executor's slot
    // count equals the size in its last observed decision.
    for (e, slot) in report.registry.iter().enumerate() {
        assert!(slot.registered && slot.alive && !slot.blacklisted);
        if let Some(last) = report.decisions.iter().rev().find(|d| d.executor == e) {
            assert_eq!(
                slot.slots, last.size,
                "executor {e}: registry slots diverge from its last PoolSizeChanged"
            );
        }
        assert!(slot.slots >= 2 && slot.slots <= 8);
    }

    // Every executor's decision journal ends each adaptation episode with
    // a terminal verdict (Hold or RollBack, never a dangling Ascend), and
    // every record carries the executor's own id.
    for (e, journal) in journals.iter().enumerate() {
        let records = journal.records();
        assert!(!records.is_empty(), "executor {e} journaled nothing");
        let mut last_of_stage = std::collections::BTreeMap::new();
        for r in &records {
            assert_eq!(r.executor, e);
            last_of_stage.insert(r.stage, r.clone());
        }
        for (stage, last) in last_of_stage {
            assert!(
                last.action.is_terminal(),
                "executor {e} stage {stage} journal left open: {last:?}"
            );
        }
        // JSONL round-trips the live journal exactly.
        let jsonl = journal.to_jsonl();
        assert_eq!(sae_core::parse_jsonl(&jsonl).unwrap(), records);
    }

    // The shared metric plane saw the whole job: every task completion is
    // accounted against its executor, and heartbeats were observed.
    let finished: u64 = report
        .metrics
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("live.driver.tasks_finished"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(finished, 48, "driver-side task completions: {finished}");
    assert!(
        report.metrics.histogram_counts["live.driver.heartbeat_gap_s"] > 0,
        "no heartbeat gaps were recorded"
    );
    assert!(report.metrics.counters["live.driver.bytes_sent"] > 0);
    assert!(report.metrics.counters["live.driver.bytes_received"] > 0);
}

#[test]
fn killed_executor_mid_stage_is_detected_and_its_work_retried() {
    let mut cfg = test_cfg(3);
    // Executor 2 goes silent after finishing one task, with more tasks
    // assigned: mid-stage, not between stages.
    cfg.kill_after_tasks = vec![(2, 1)];
    let mut cluster = LiveCluster::launch(cfg).unwrap();
    let job = terasort(24, 20_000, 7);
    let report = cluster.run(&job).unwrap();
    cluster.shutdown().unwrap();

    // The job still completed every stage...
    assert_eq!(report.stages.len(), 2);
    // ...the silent executor was detected and declared lost...
    assert!(
        report.lost_executors.contains(&2),
        "executor 2 was never declared lost: {:?}",
        report.lost_executors
    );
    assert!(!report.registry[2].alive);
    assert!(report.registry[0].alive && report.registry[1].alive);
    // ...and its in-flight work was recovered through retries.
    let failed: usize = report.stages.iter().map(|s| s.failed_attempts).sum();
    let attempts: usize = report.stages.iter().map(|s| s.attempts).sum();
    assert!(
        failed >= 1,
        "losing an executor mid-stage must cost retries"
    );
    assert_eq!(
        attempts,
        48 + failed,
        "every failed attempt must be retried exactly once"
    );
}

#[test]
fn observer_sees_registry_updates_as_decisions_arrive() {
    let mut cluster = LiveCluster::launch(test_cfg(2)).unwrap();
    let job = terasort(12, 5_000, 99);
    let mut observed = Vec::new();
    let report = cluster
        .run_with_observer(&job, |decision, registry| {
            observed.push((decision.executor, decision.size, registry.to_vec()));
        })
        .unwrap();
    cluster.shutdown().unwrap();

    assert_eq!(observed.len(), report.decisions.len());
    for (executor, size, registry) in &observed {
        // The registry snapshot already folds the decision in.
        assert_eq!(registry[*executor].slots, *size);
    }
}

#[test]
fn a_register_from_outside_the_fleet_is_hung_up_on() {
    let driver = Driver::bind(DriverConfig {
        executors: 2,
        check_interval: Duration::from_millis(25),
        deadline: Duration::from_secs(90),
        ..DriverConfig::default()
    })
    .unwrap();
    let addr = driver.addr().unwrap();
    let job = terasort(8, 2_000, 5);
    let run = std::thread::spawn(move || driver.run(&job));

    // The outsider registers while the fleet is still absent, so the job
    // is certainly running when the driver judges it: EOF here means the
    // handshake closed the socket, not the end of the run.
    let mut outsider = TcpStream::connect(addr).unwrap();
    outsider
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    FrameWriter::new(outsider.try_clone().unwrap())
        .send(&Frame::Register {
            executor: 99,
            slots: 4,
        })
        .unwrap();
    let mut buf = [0u8; 64];
    assert_eq!(
        outsider.read(&mut buf).expect("EOF, not a read timeout"),
        0,
        "the driver answered an out-of-fleet Register"
    );

    let spill = TempDir::new("loopback-outsider").unwrap();
    let fleet: Vec<LiveExecutor> = (0..2)
        .map(|id| {
            LiveExecutor::launch(
                addr,
                LiveExecutorConfig::new(id, spill.path().to_path_buf()),
            )
        })
        .collect();
    let report = run.join().unwrap().unwrap();
    for executor in fleet {
        let _ = executor.join();
    }
    assert_eq!(report.stages.len(), 2);
    assert!(report.lost_executors.is_empty());
    assert_eq!(report.registry.len(), 2);
    assert!(report.registry.iter().all(|s| s.registered && s.alive));
}

#[test]
fn a_driver_run_job_speaks_only_the_job_dialect() {
    let mut cluster = LiveCluster::launch(ClusterConfig {
        recorder_capacity: 1 << 16,
        ..test_cfg(2)
    })
    .unwrap();
    let report = cluster.run(&terasort(8, 2_000, 11)).unwrap();
    let recorder = cluster.recorder().clone();
    cluster.shutdown().unwrap();
    assert_eq!(report.stages.len(), 2);
    assert_eq!(recorder.dropped(), 0, "the ring overwrote frame events");

    let kinds: BTreeSet<&str> = recorder
        .snapshot()
        .iter()
        .filter_map(|ev| match ev {
            LiveEvent::FrameSent { kind, .. } | LiveEvent::FrameReceived { kind, .. } => {
                Some(*kind)
            }
            _ => None,
        })
        .collect();
    for retired in ["assign-task", "task-finished", "task-failed"] {
        assert!(!kinds.contains(retired), "{retired} on the wire: {kinds:?}");
    }
    for spoken in [
        "job-stage-start",
        "stage-start",
        "assign-job-task",
        "job-task-outcome",
    ] {
        assert!(
            kinds.contains(spoken),
            "{spoken} never on the wire: {kinds:?}"
        );
    }
}
