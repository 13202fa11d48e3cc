//! Chaos tests: live Terasort under the seeded [`FaultPlan`].
//!
//! Each test arms one fault family (and the finale combines them, the
//! acceptance scenario): the job must still complete, and the recovery
//! machinery must leave its evidence on the flight recorder — fault
//! injections, lost executors, reincarnations — exactly where the
//! post-mortem tooling expects it. Every plan used here also passes the
//! *simulator's* validation, keeping the "one plan drives both runtimes"
//! contract honest.

use std::time::Duration;

use sae_dag::{FaultPlan, TraceEvent, WireDirection};
use sae_live::{terasort, ClusterConfig, LiveCluster, LiveEvent};

/// Cluster knobs tightened for test speed: fast heartbeats, fast loss
/// detection, short probation.
fn chaos_cluster(plan: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        executors: 3,
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(400),
        check_interval: Duration::from_millis(25),
        probation: Duration::from_millis(500),
        deadline: Duration::from_secs(60),
        fault_plan: plan,
        ..ClusterConfig::default()
    }
}

/// The ordered, timestamp-free recovery story of one run: which fault
/// windows opened, who was declared lost, who came back (and under which
/// epoch), what got fenced — *per executor*. Ordering is compared within
/// each executor's own timeline: concurrent events on different
/// executors' links have no defined mutual order, and the determinism
/// claim is per-executor sequence, not a global interleaving.
fn recovery_sequence(events: &[LiveEvent]) -> Vec<Vec<String>> {
    let mut per_exec: Vec<Vec<String>> = Vec::new();
    let mut note = |executor: usize, entry: String| {
        if per_exec.len() <= executor {
            per_exec.resize_with(executor + 1, Vec::new);
        }
        per_exec[executor].push(entry);
    };
    for ev in events {
        match ev {
            LiveEvent::FaultInjected { executor, kind, .. } => {
                note(*executor, format!("fault:{kind}"))
            }
            LiveEvent::Trace(TraceEvent::ExecutorFailed { executor, .. }) => {
                note(*executor, "lost".to_string())
            }
            LiveEvent::ExecutorReincarnated {
                executor, epoch, ..
            } => note(*executor, format!("reincarnated:e{epoch}")),
            LiveEvent::EpochFenced { executor, kind, .. } => {
                note(*executor, format!("fenced:{kind}"))
            }
            _ => {}
        }
    }
    per_exec
}

fn fault_kinds(events: &[LiveEvent]) -> Vec<&'static str> {
    events
        .iter()
        .filter_map(|ev| match ev {
            LiveEvent::FaultInjected { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect()
}

#[test]
fn throttled_link_completes_without_losing_the_executor() {
    let plan = FaultPlan::new(11).with_throttle(1, 0.1, 0.5, 4_000.0);
    plan.validate(3);
    let mut cluster = LiveCluster::launch(chaos_cluster(plan)).unwrap();
    let report = cluster.run(&terasort(24, 40_000, 42)).unwrap();
    let events = cluster.recorder().snapshot();
    // Throttling slows frames but must never look like death: 4 kB/s
    // still carries a heartbeat in well under the 400 ms timeout.
    assert!(
        report.lost_executors.is_empty(),
        "throttle must not kill executors, lost: {:?}",
        report.lost_executors
    );
    assert!(
        fault_kinds(&events).contains(&"throttle"),
        "window never opened"
    );
    let throttled = cluster.metrics().snapshot().counters["live.nemesis.frames_throttled"];
    assert!(throttled > 0, "no frames crossed the throttle window");
    cluster.shutdown().unwrap();
}

#[test]
fn partition_is_detected_then_heals_into_a_resurrection() {
    // 0.8 s of two-way silence on executor 2's link: two heartbeat
    // timeouts deep, so the driver must declare it lost — and then take
    // it back once frames flow again, without the socket ever closing.
    // The window closes at 0.9 s and the job is sized to outlast it
    // (about 1.5 s on its own in a release build on a 2-core VM), so the
    // resurrection lands before the job ends.
    let plan = FaultPlan::new(23).with_partition(2, 0.1, 0.8, WireDirection::Both);
    plan.validate(3);
    let mut cluster = LiveCluster::launch(chaos_cluster(plan)).unwrap();
    let report = cluster.run(&terasort(36, 60_000, 7)).unwrap();
    let events = cluster.recorder().snapshot();
    let lost_at = events.iter().find_map(|ev| match ev {
        LiveEvent::Trace(TraceEvent::ExecutorFailed { executor: 2, at }) => Some(*at),
        _ => None,
    });
    let back_at = events.iter().find_map(|ev| match ev {
        LiveEvent::ExecutorReincarnated {
            executor: 2, at, ..
        } => Some(*at),
        _ => None,
    });
    let lost_at = lost_at.expect("partitioned executor was never declared lost");
    let back_at = back_at.expect("healed executor was never resurrected");
    assert!(
        lost_at < back_at,
        "lost at {lost_at:.2}s must precede resurrection at {back_at:.2}s"
    );
    // The healed executor is back in the fleet at job end.
    assert!(report.registry[2].alive, "executor 2 should have rejoined");
    cluster.shutdown().unwrap();
}

#[test]
fn crashed_executor_reincarnates_and_the_job_completes() {
    // A real crash-and-rebirth: the chaos agent flips the kill switch at
    // t=0.1 s; the executor reincarnates after the plan's 0.5 s downtime
    // under a fresh registration epoch. The downtime deliberately exceeds
    // the 0.4 s heartbeat timeout so detection precedes the rebirth, and
    // the job is sized so the rebirth lands while a release build still
    // has work left.
    let plan = FaultPlan::new(31).with_crash(1, 0.1, 0.5);
    plan.validate(3);
    let mut cluster = LiveCluster::launch(chaos_cluster(plan)).unwrap();
    let report = cluster.run(&terasort(36, 60_000, 13)).unwrap();
    let events = cluster.recorder().snapshot();
    assert!(fault_kinds(&events).contains(&"crash"), "kill never fired");
    let epoch = events
        .iter()
        .find_map(|ev| match ev {
            LiveEvent::ExecutorReincarnated {
                executor: 1, epoch, ..
            } => Some(*epoch),
            _ => None,
        })
        .expect("crashed executor never reincarnated");
    assert!(epoch >= 2, "rebirth must open a later epoch, got {epoch}");
    let metrics = cluster.metrics().snapshot();
    assert!(metrics.counters["live.driver.reincarnations"] >= 1);
    assert!(report.registry[1].alive, "executor 1 should be back");
    cluster.shutdown().unwrap();
}

#[test]
fn corrupted_spill_is_detected_and_rebuilt_from_lineage() {
    // The chaos agent flips one byte of task 0's spill as soon as it
    // lands; the sort-stage reader must catch it on the checksum, fail
    // the attempt retryably, and regenerate the partition from lineage.
    let plan = FaultPlan::new(47).with_disk_fault(0, 0.0);
    plan.validate(3);
    let mut cluster = LiveCluster::launch(chaos_cluster(plan)).unwrap();
    let report = cluster.run(&terasort(24, 20_000, 99)).unwrap();
    let events = cluster.recorder().snapshot();
    assert!(
        fault_kinds(&events).contains(&"disk"),
        "corruption never landed"
    );
    let failed: usize = report.stages.iter().map(|s| s.failed_attempts).sum();
    assert!(
        failed >= 1,
        "the corrupted spill should have cost at least one attempt"
    );
    // Recovery means the job still finished every task.
    assert_eq!(report.stages.len(), 2);
    cluster.shutdown().unwrap();
}

#[test]
fn fleet_below_floor_parks_degraded_before_failing() {
    // One executor, killed after one task, nobody comes back: the driver
    // must park in Degraded for the bounded wait — visibly — and only
    // then give up.
    let mut cfg = chaos_cluster(FaultPlan::new(5));
    cfg.executors = 1;
    cfg.kill_after_tasks = vec![(0, 1)];
    cfg.degraded_wait = Duration::from_millis(700);
    let mut cluster = LiveCluster::launch(cfg).unwrap();
    let err = cluster.run(&terasort(12, 10_000, 3)).unwrap_err();
    let events = cluster.recorder().snapshot();
    assert!(
        events.iter().any(|ev| matches!(
            ev,
            LiveEvent::Degraded {
                live: 0,
                floor: 1,
                ..
            }
        )),
        "no Degraded event before failure: {err}"
    );
    // The post-mortem dump fired on the failure path.
    let dump = cluster.last_trace_path().expect("no post-mortem dump");
    std::fs::remove_file(dump).unwrap();
    cluster.shutdown().unwrap();
}

/// The acceptance scenario: one seeded plan combining a crash (with
/// reincarnation), a transient two-way partition and a throttled link —
/// the job completes, every recovery transition is journaled, and the
/// same seed replays the same recovery story. Every window closes by
/// 1.0 s, well inside the job.
#[test]
fn standard_chaos_plan_completes_and_replays_deterministically() {
    let plan = || {
        FaultPlan::new(1234)
            .with_crash(1, 0.1, 0.5)
            .with_partition(2, 0.2, 0.8, WireDirection::Both)
            .with_throttle(0, 0.1, 0.9, 4_000.0)
    };
    plan().validate(3);

    let run = || {
        let mut cluster = LiveCluster::launch(chaos_cluster(plan())).unwrap();
        let report = cluster.run(&terasort(36, 60_000, 77)).unwrap();
        let events = cluster.recorder().snapshot();
        let seq = recovery_sequence(&events);
        cluster.shutdown().unwrap();
        (report, seq)
    };

    let (report, seq) = run();
    // All three fault families actually bit, each on its own executor…
    for (executor, needle) in [
        (0, "fault:throttle"),
        (1, "fault:crash"),
        (2, "fault:partition"),
    ] {
        assert!(
            seq.get(executor)
                .is_some_and(|s| s.iter().any(|e| e == needle)),
            "missing {needle} on executor {executor} in {seq:?}"
        );
    }
    // …the crashed executor and the partitioned executor both came back…
    for executor in [1, 2] {
        assert!(
            seq[executor].iter().any(|s| s.starts_with("reincarnated")),
            "executor {executor} never reincarnated: {seq:?}"
        );
    }
    // …and every task of both stages finished despite the weather.
    assert_eq!(report.stages.len(), 2);
    for stage in &report.stages {
        assert_eq!(stage.tasks, 36);
    }

    // Same seed, same job, same recovery story (timestamps aside).
    let (_, replay) = run();
    assert_eq!(
        seq, replay,
        "same-seed rerun told a different recovery story"
    );
}
