//! Tier-1 smoke test of the live stack: `cargo test -q` at the repo root
//! runs this package only, and the live runtime's own suites live in
//! `crates/live/tests`. Two small runs cross the socket shell
//! (`sae-live`'s `shell.rs`) once from each of its callers: the
//! single-job driver behind `LiveCluster`, and the job server.
//!
//! Scratch files go under the system temp dir and are removed on drop.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use sae::core::MapeConfig;
use sae::live::executor::LiveExecutorConfig;
use sae::live::server::{JobServer, ServerConfig};
use sae::live::{terasort, ClusterConfig, JobStatus, LiveCluster, LiveExecutor, TempDir};
use sae::net::http::parse_response;
use sae::net::sse::{parse_chunked_response, SseParser};

#[test]
fn live_cluster_runs_a_small_terasort() {
    let mut cluster = LiveCluster::launch(ClusterConfig {
        executors: 2,
        mape: MapeConfig::new(2, 4),
        deadline: Duration::from_secs(60),
        ..ClusterConfig::default()
    })
    .unwrap();
    let report = cluster.run(&terasort(8, 2_000, 7)).unwrap();
    cluster.shutdown().unwrap();

    assert_eq!(report.stages.len(), 2);
    for stage in &report.stages {
        assert_eq!((stage.tasks, stage.failed_attempts), (8, 0));
    }
    assert!(report.lost_executors.is_empty());
    assert!(report.registry.iter().all(|s| s.registered && s.alive));
}

/// One request on a fresh connection, read to the server's close.
fn request(addr: std::net::SocketAddr, head: &str, body: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{head} HTTP/1.1\r\nHost: sae\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    raw
}

#[test]
fn job_server_runs_a_posted_job_to_its_end_frame() {
    let cfg = ServerConfig {
        executors: 1,
        ..ServerConfig::default()
    };
    let stop = Arc::clone(&cfg.stop);
    let server = JobServer::bind(cfg).unwrap();
    let http = server.http_addr().unwrap();
    let spill = TempDir::new("sae-live-smoke").unwrap();
    let executor = LiveExecutor::launch(
        server.wire_addr().unwrap(),
        LiveExecutorConfig::new(0, spill.path().to_path_buf()),
    );
    let serve = std::thread::spawn(move || server.serve());

    let raw = request(
        http,
        "POST /jobs",
        r#"{"tenant":"smoke","stages":[{"kind":"spill","tasks":2,"records_per_task":500,"seed":7}]}"#,
    );
    let (resp, _) = parse_response(&raw).unwrap().unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_str());
    assert!(resp.body_str().contains("\"job\":1"), "{}", resp.body_str());

    // The per-job stream replays the journal, then ends with the terminal
    // `end` frame and the server closes the connection.
    let raw = request(http, "GET /jobs/1/events", "");
    let (stream, _) = parse_chunked_response(&raw).unwrap().unwrap();
    assert_eq!(stream.status, 200);
    let mut parser = SseParser::new();
    parser.extend(&stream.body);
    let frames: Vec<_> = std::iter::from_fn(|| parser.next_frame()).collect();
    let end = frames.last().expect("the stream carried frames");
    assert_eq!(end.event.as_deref(), Some("end"), "{frames:?}");
    assert_eq!(end.data, r#"{"status":"completed"}"#);

    stop.store(true, Ordering::Relaxed);
    let report = serve.join().unwrap().unwrap();
    let _ = executor.join();
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(report.jobs[0].status, JobStatus::Completed);
    assert_eq!(
        (report.jobs[0].attempts, report.jobs[0].failed_attempts),
        (2, 0)
    );
}
