//! The multi-process fleet: executors as separate OS processes.
//!
//! `ClusterConfig::process_executors` spawns each executor as a
//! `sae-executor` child (the binary Cargo builds alongside these tests)
//! instead of an in-process thread. These tests prove the fleet is real:
//! a job runs end to end across process boundaries with `PoolSizeChanged`
//! round-trips landing in the slot registry, child decision journals are
//! merged back on shutdown, and — the chaos-parity contract — a
//! crash-and-reincarnation scenario through the nemesis proxy tells the
//! same per-executor recovery story whichever side of the process
//! boundary the executors live on.

use std::time::Duration;

use sae_dag::{FaultPlan, TraceEvent};
use sae_live::{terasort, ClusterConfig, LiveCluster, LiveEvent};

/// The cluster config for process-mode tests: executors as children of
/// this test binary, chaos-test timing (fast heartbeats, fast loss
/// detection) so scenarios fit a debug-build run.
fn procs_cluster(plan: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        executors: 3,
        process_executors: true,
        executor_binary: Some(env!("CARGO_BIN_EXE_sae-executor").into()),
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(400),
        check_interval: Duration::from_millis(25),
        probation: Duration::from_millis(500),
        deadline: Duration::from_secs(60),
        fault_plan: plan,
        ..ClusterConfig::default()
    }
}

/// The driver-visible recovery story, per executor: who was declared
/// lost and who came back under which epoch. Deliberately excludes
/// `FaultInjected` (in-thread crashes are recorded by the parent's chaos
/// agent; process-mode crashes fire inside the child, beyond the
/// recorder) and fence events (which tasks were in flight at the crash
/// instant is timing-dependent either way) — the story is the failure
/// detector's and the epoch registry's verdicts, which must not depend
/// on where the executor runs.
fn recovery_story(events: &[LiveEvent]) -> Vec<Vec<String>> {
    let mut per_exec: Vec<Vec<String>> = Vec::new();
    let mut note = |executor: usize, entry: String| {
        if per_exec.len() <= executor {
            per_exec.resize_with(executor + 1, Vec::new);
        }
        per_exec[executor].push(entry);
    };
    for ev in events {
        match ev {
            LiveEvent::Trace(TraceEvent::ExecutorFailed { executor, .. }) => {
                note(*executor, "lost".to_string())
            }
            LiveEvent::ExecutorReincarnated {
                executor, epoch, ..
            } => note(*executor, format!("reincarnated:e{epoch}")),
            _ => {}
        }
    }
    per_exec
}

/// The acceptance path: three executor processes register, adapt and
/// finish a two-stage Terasort, with `PoolSizeChanged` round-trips
/// crossing the process boundary into the driver's slot registry and
/// the children's decision journals merged back at shutdown.
#[test]
fn process_fleet_runs_a_job_end_to_end() {
    let mut cluster = LiveCluster::launch(procs_cluster(FaultPlan::new(1))).unwrap();
    let journals = cluster.journals().to_vec();
    let report = cluster.run(&terasort(24, 20_000, 42)).unwrap();

    assert_eq!(report.stages.len(), 2, "both stages must complete");
    for stage in &report.stages {
        assert_eq!(stage.tasks, 24);
    }
    // §5.4 round-trips: every executor's pool resets at stage start, so
    // each must have announced at least one size change — and the final
    // registry must reflect the announcements, not the register default.
    assert!(
        !report.decisions.is_empty(),
        "no PoolSizeChanged crossed the process boundary"
    );
    for (id, slot) in report.registry.iter().enumerate() {
        assert!(slot.registered && slot.alive, "executor {id}: {slot:?}");
        let last_announced = report
            .decisions
            .iter()
            .rev()
            .find(|d| d.executor == id)
            .map(|d| d.size)
            .expect("every executor announces at least one resize");
        assert_eq!(
            slot.slots, last_announced,
            "executor {id}'s registry slots must match its last announcement"
        );
    }
    // Frames really crossed sockets owned by other processes.
    assert!(report.metrics.counters["live.driver.frames_received"] > 0);

    cluster.shutdown().unwrap();
    // The children's journals came home in the shutdown merge.
    for (id, journal) in journals.iter().enumerate() {
        assert!(
            !journal.records().is_empty(),
            "executor {id}'s journal never made it back from the child"
        );
        assert!(journal.records().iter().all(|r| r.executor == id));
    }
}

/// The telemetry acceptance path: a process fleet merges into *one*
/// causally-ordered trace while the job is still running — task spans
/// stream off the wire with their full (job, stage, task, attempt,
/// epoch) key as each attempt finishes, ζ intervals stream as they
/// close — and the shutdown-time journal merge only tops up whatever
/// never streamed, so the final timeline covers each record exactly
/// once, never twice.
#[test]
fn process_fleet_merges_one_trace_during_the_run() {
    let mut cluster = LiveCluster::launch(procs_cluster(FaultPlan::new(1))).unwrap();
    // Subscribe before the job starts: everything in the first drain
    // below was delivered mid-run, not reconstructed at shutdown.
    let live = cluster.recorder().subscribe(1_000_000);
    let journals = cluster.journals().to_vec();
    let report = cluster.run(&terasort(24, 20_000, 7)).unwrap();
    assert_eq!(report.stages.len(), 2);

    assert_eq!(live.dropped(), 0, "the test subscription must be lossless");
    let during: Vec<LiveEvent> = live.drain().into_iter().map(|(_, e)| e).collect();

    let zeta_of = |events: &[LiveEvent]| -> Vec<(usize, usize, f64, f64)> {
        events
            .iter()
            .filter_map(|e| match e {
                LiveEvent::Trace(TraceEvent::IntervalClosed {
                    executor,
                    threads,
                    zeta,
                    at,
                }) => Some((*executor, *threads, *zeta, *at)),
                _ => None,
            })
            .collect()
    };

    // Every task of both stages closed a successful span over the wire
    // while the run was in flight, carrying its trace key.
    let spans: Vec<(usize, usize, f64, f64, bool)> = during
        .iter()
        .filter_map(|e| match e {
            LiveEvent::TaskSpan {
                stage,
                task,
                start,
                end,
                ok,
                ..
            } => Some((*stage, *task, *start, *end, *ok)),
            _ => None,
        })
        .collect();
    for stage in 0..2 {
        for task in 0..24 {
            assert!(
                spans.iter().any(|s| s.0 == stage && s.1 == task && s.4),
                "no successful span streamed for stage {stage} task {task}"
            );
        }
    }
    // Causal order on the merged timeline: the stage barrier means every
    // stage-0 span lands before any stage-1 span, and no span ends
    // before it starts.
    let stage_order: Vec<usize> = spans.iter().map(|s| s.0).collect();
    assert!(
        stage_order.windows(2).all(|w| w[0] <= w[1]),
        "span receipt order crossed the stage barrier: {stage_order:?}"
    );
    assert!(
        spans.iter().all(|s| s.2 <= s.3),
        "span ends before it starts"
    );

    let streamed = zeta_of(&during);
    assert!(
        !streamed.is_empty(),
        "no ζ interval streamed while the run was live"
    );

    cluster.shutdown().unwrap();

    // The shutdown merge pushed only the unstreamed tail; streamed +
    // tail must equal the merged child journals record for record.
    let tail = zeta_of(&live.drain().into_iter().map(|(_, e)| e).collect::<Vec<_>>());
    let mut merged: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); 3];
    for (executor, threads, zeta, at) in streamed.iter().chain(tail.iter()) {
        merged[*executor].push((*threads, *zeta, *at));
    }
    for (id, journal) in journals.iter().enumerate() {
        let expect: Vec<(usize, f64, f64)> = journal
            .records()
            .iter()
            .map(|r| (r.threads, r.zeta, r.at))
            .collect();
        assert!(!expect.is_empty(), "executor {id}'s journal never merged");
        assert_eq!(
            merged[id], expect,
            "executor {id}: live stream + shutdown tail must cover the \
             journal exactly once"
        );
    }
}

/// Chaos parity: the representative crash→reincarnation scenario, run
/// through the nemesis proxy (a throttled link keeps the proxy honest
/// about forwarding every frame kind), must produce the same
/// per-executor recovery story whether executors are threads or
/// processes. Epoch fencing works across the boundary: the reborn child
/// re-registers under a later epoch in both modes.
#[test]
fn process_mode_matches_in_thread_recovery_story() {
    // The story must be told before the job ends, and a release build
    // can finish this job in under a second. A killed executor leaves
    // once its running tasks finish, then sits out the downtime, so an
    // early crash with a short downtime puts the rebirth in the first
    // half of the job.
    let plan = || {
        FaultPlan::new(31)
            .with_crash(1, 0.1, 0.2)
            .with_throttle(0, 0.2, 2.0, 4_000.0)
    };
    plan().validate(3);

    let run = |process_executors: bool| {
        let mut cfg = procs_cluster(plan());
        cfg.process_executors = process_executors;
        let mut cluster = LiveCluster::launch(cfg).unwrap();
        let report = cluster.run(&terasort(36, 30_000, 13)).unwrap();
        let story = recovery_story(&cluster.recorder().snapshot());
        cluster.shutdown().unwrap();
        (report, story)
    };

    let (thread_report, thread_story) = run(false);
    let (proc_report, proc_story) = run(true);

    // The scenario actually bit in both modes: executor 1 died and came
    // back under a later epoch.
    for (mode, story) in [("thread", &thread_story), ("process", &proc_story)] {
        assert!(
            story
                .get(1)
                .is_some_and(|s| s.contains(&"lost".to_string())),
            "{mode} mode: executor 1 was never declared lost: {story:?}"
        );
        assert!(
            story[1].iter().any(|s| s.starts_with("reincarnated:e")),
            "{mode} mode: executor 1 never reincarnated: {story:?}"
        );
    }
    assert_eq!(
        thread_story, proc_story,
        "the recovery story must not depend on the process boundary"
    );
    // And in both modes the job itself survived the weather.
    for report in [&thread_report, &proc_report] {
        assert_eq!(report.stages.len(), 2);
        assert!(report.registry[1].alive, "executor 1 should be back");
    }
}
