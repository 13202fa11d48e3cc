//! End-to-end job-server tests: real sockets, a real executor fleet, and
//! the HTTP control API exercised exactly as a client would.
//!
//! Each test binds a [`JobServer`] on ephemeral loopback ports, launches
//! in-thread [`LiveExecutor`]s against the wire port, runs the serve loop
//! on its own thread, and drives everything else through HTTP. The serve
//! loop is stopped with the config's programmatic stop flag (the same
//! path a SIGINT takes, minus the process-global signal latch).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sae_dag::Message;
use sae_live::executor::LiveExecutorConfig;
use sae_live::server::{JobServer, ServerConfig, ServerReport};
use sae_live::wire::{Frame, FrameCursor};
use sae_live::{LiveExecutor, TempDir};
use sae_net::http::parse_response;
use sae_net::sse::{ChunkedDecoder, SseFrame, SseParser};

/// One HTTP request over a fresh connection; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect control port");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: sae\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    let (resp, _) = parse_response(&buf)
        .expect("well-formed response")
        .expect("complete response");
    (resp.status, resp.body_str())
}

/// Crude field extraction from the server's flat JSON bodies.
fn json_field(body: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat).unwrap_or_else(|| {
        panic!("no field {key} in {body}");
    }) + pat.len();
    let rest = &body[start..];
    let end = rest
        .char_indices()
        .find(|(i, c)| {
            if rest.starts_with('"') {
                *i > 0 && *c == '"'
            } else {
                *c == ',' || *c == '}'
            }
        })
        .map(|(i, _)| if rest.starts_with('"') { i + 1 } else { i })
        .unwrap_or(rest.len());
    rest[..end].trim_matches('"').to_string()
}

/// Opens `GET {path}` as a streaming SSE client and collects frames until
/// `done` returns true for one or the server closes the stream. The
/// request is written immediately; `done` runs on every frame as it
/// arrives, so a test can react mid-stream (e.g. submit a job once the
/// subscription is live).
fn sse_collect(
    addr: SocketAddr,
    path: &str,
    extra_headers: &str,
    mut done: impl FnMut(&SseFrame) -> bool,
) -> Vec<SseFrame> {
    let mut stream = TcpStream::connect(addr).expect("connect control port");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let req = format!(
        "GET {path} HTTP/1.1\r\nHost: sae\r\nAccept: text/event-stream\r\n{extra_headers}\r\n"
    );
    stream.write_all(req.as_bytes()).expect("write request");

    let deadline = Instant::now() + Duration::from_secs(60);
    let idle = |e: &std::io::Error| {
        matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::Interrupted
        )
    };
    let mut raw = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(p) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        assert!(Instant::now() < deadline, "no response head for {path}");
        match stream.read(&mut buf) {
            Ok(0) => panic!("closed before head: {}", String::from_utf8_lossy(&raw)),
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if idle(&e) => {}
            Err(e) => panic!("read: {e}"),
        }
    };
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/event-stream"),
        "{head}"
    );

    let mut decoder = ChunkedDecoder::new();
    let mut parser = SseParser::new();
    decoder.extend(&raw[head_end..]);
    let mut frames = Vec::new();
    let mut eof = false;
    loop {
        while let Some(chunk) = decoder.next_chunk().expect("well-formed chunking") {
            parser.extend(&chunk);
        }
        while let Some(frame) = parser.next_frame() {
            let stop = done(&frame);
            frames.push(frame);
            if stop {
                return frames;
            }
        }
        if decoder.finished() || eof {
            return frames;
        }
        assert!(
            Instant::now() < deadline,
            "stream {path} never produced the awaited frame; got {frames:?}"
        );
        match stream.read(&mut buf) {
            Ok(0) => eof = true,
            Ok(n) => decoder.extend(&buf[..n]),
            Err(e) if idle(&e) => {}
            Err(e) => panic!("read: {e}"),
        }
    }
}

struct Harness {
    http_addr: SocketAddr,
    stop: Arc<std::sync::atomic::AtomicBool>,
    serve: thread::JoinHandle<std::io::Result<ServerReport>>,
    fleet: Vec<LiveExecutor>,
    _spill: TempDir,
}

impl Harness {
    fn launch(mut cfg: ServerConfig, executors: usize) -> Self {
        cfg.executors = executors;
        let stop = Arc::clone(&cfg.stop);
        let server = JobServer::bind(cfg).expect("bind server");
        let wire_addr = server.wire_addr().unwrap();
        let http_addr = server.http_addr().unwrap();
        let spill = TempDir::new("jobserver-e2e").unwrap();
        let fleet = (0..executors)
            .map(|id| {
                let dir = spill.path().join(format!("exec-{id}"));
                std::fs::create_dir_all(&dir).unwrap();
                LiveExecutor::launch(wire_addr, LiveExecutorConfig::new(id, dir))
            })
            .collect();
        let serve = thread::spawn(move || server.serve());
        Self {
            http_addr,
            stop,
            serve,
            fleet,
            _spill: spill,
        }
    }

    fn submit(&self, body: &str) -> (u16, String) {
        http(self.http_addr, "POST", "/jobs", body)
    }

    /// Polls `GET /jobs/:id` until the job reaches a terminal status.
    fn await_terminal(&self, id: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, body) = http(self.http_addr, "GET", &format!("/jobs/{id}"), "");
            assert_eq!(status, 200, "status poll failed: {body}");
            let state = json_field(&body, "status");
            if state != "queued" && state != "running" {
                return state;
            }
            assert!(Instant::now() < deadline, "job {id} never finished: {body}");
            thread::sleep(Duration::from_millis(20));
        }
    }

    fn shutdown(self) -> ServerReport {
        self.stop.store(true, Ordering::Relaxed);
        let report = self.serve.join().expect("serve thread").expect("serve ok");
        for exec in self.fleet {
            let _ = exec.join();
        }
        report
    }
}

#[test]
fn concurrent_jobs_complete_and_cancel_mid_stage() {
    let h = Harness::launch(ServerConfig::default(), 2);
    // Three concurrent jobs: two small ones that must complete, one big
    // enough to still be running when the DELETE lands.
    let (s1, b1) = h.submit(r#"{"tenant":"alice","tasks":4,"records_per_task":2000,"seed":1}"#);
    let (s2, b2) =
        h.submit(r#"{"tenant":"bob","weight":4,"tasks":4,"records_per_task":2000,"seed":2}"#);
    let (s3, b3) = h.submit(r#"{"tenant":"carol","tasks":8,"records_per_task":200000,"seed":3}"#);
    assert_eq!((s1, s2, s3), (201, 201, 201), "{b1} {b2} {b3}");
    let (id1, id2, id3) = (
        json_field(&b1, "job"),
        json_field(&b2, "job"),
        json_field(&b3, "job"),
    );

    // Cancel the big job while its first stage is in flight.
    let (sc, bc) = http(h.http_addr, "DELETE", &format!("/jobs/{id3}"), "");
    assert_eq!(sc, 200, "{bc}");
    assert_eq!(json_field(&bc, "status"), "cancelled");
    // A second cancel is a conflict: the job is already terminal.
    let (sc2, _) = http(h.http_addr, "DELETE", &format!("/jobs/{id3}"), "");
    assert_eq!(sc2, 409);

    // The survivors complete despite the mid-flight cancellation.
    assert_eq!(h.await_terminal(&id1), "completed");
    assert_eq!(h.await_terminal(&id2), "completed");

    // Per-job journals: completed jobs record every stage and task of
    // their own history, the cancelled one records where it stopped.
    let (sj, journal1) = http(h.http_addr, "GET", &format!("/jobs/{id1}/journal"), "");
    assert_eq!(sj, 200);
    assert!(journal1.contains("\"event\":\"submitted\""), "{journal1}");
    assert!(
        journal1.contains("\"event\":\"stage-end\",\"stage\":1"),
        "{journal1}"
    );
    assert!(journal1.contains("\"event\":\"completed\""), "{journal1}");
    assert_eq!(
        journal1.matches("\"event\":\"task\"").count(),
        8,
        "4 tasks x 2 stages: {journal1}"
    );
    let (_, journal3) = http(h.http_addr, "GET", &format!("/jobs/{id3}/journal"), "");
    assert!(journal3.contains("\"event\":\"cancelled\""), "{journal3}");
    assert!(!journal3.contains("\"event\":\"completed\""), "{journal3}");

    // The report endpoint knows stage structure and durations.
    let (sr, report) = http(h.http_addr, "GET", &format!("/jobs/{id2}/report"), "");
    assert_eq!(sr, 200);
    assert!(report.contains("\"kind\":\"spill\""), "{report}");
    assert!(report.contains("\"kind\":\"sort\""), "{report}");

    // Metrics carry per-tenant labels.
    let (sm, metrics) = http(h.http_addr, "GET", "/metrics", "");
    assert_eq!(sm, 200);
    assert!(
        metrics.contains("tenant=\"alice\""),
        "no tenant labels in:\n{metrics}"
    );

    let report = h.shutdown();
    assert_eq!(report.jobs.len(), 3);
    let cancelled = report
        .jobs
        .iter()
        .filter(|j| j.status == sae_live::JobStatus::Cancelled)
        .count();
    assert_eq!(cancelled, 1);
}

#[test]
fn same_submission_schedule_yields_bit_identical_journals() {
    let h = Harness::launch(ServerConfig::default(), 2);
    let spec = r#"{"name":"det","tenant":"alice","tasks":4,"records_per_task":1000,"seed":7}"#;
    let mut journals = Vec::new();
    for _ in 0..2 {
        let (s, b) = h.submit(spec);
        assert_eq!(s, 201, "{b}");
        let id = json_field(&b, "job");
        assert_eq!(h.await_terminal(&id), "completed");
        let (_, journal) = http(h.http_addr, "GET", &format!("/jobs/{id}/journal"), "");
        journals.push(journal);
    }
    assert_eq!(
        journals[0], journals[1],
        "journals must not depend on timing, placement, or job ids"
    );
    h.shutdown();
}

#[test]
fn admission_control_queues_then_rejects() {
    let cfg = ServerConfig {
        max_active: 1,
        max_queued: 1,
        ..ServerConfig::default()
    };
    let h = Harness::launch(cfg, 1);
    // Big enough to hold the single active slot while we probe admission.
    let big = r#"{"tasks":4,"records_per_task":200000}"#;
    let (s1, b1) = h.submit(big);
    assert_eq!(s1, 201);
    assert_eq!(json_field(&b1, "status"), "running");
    let (s2, b2) = h.submit(big);
    assert_eq!(s2, 201, "{b2}");
    assert_eq!(json_field(&b2, "status"), "queued", "{b2}");
    // Active slot taken, queue full: the third submission bounces.
    let (s3, b3) = h.submit(big);
    assert_eq!(s3, 429, "{b3}");
    h.shutdown();
}

#[test]
fn drain_stops_admission_and_serves_status_while_draining() {
    let cfg = ServerConfig {
        shutdown_drain: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let h = Harness::launch(cfg, 1);
    let (s1, b1) = h.submit(r#"{"tasks":4,"records_per_task":300000}"#);
    assert_eq!(s1, 201);
    let id = json_field(&b1, "job");
    // Flip the stop flag: the next tick begins the drain.
    h.stop.store(true, Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http(h.http_addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        if body.contains("\"draining\":true") {
            break;
        }
        assert!(Instant::now() < deadline, "server never started draining");
        thread::sleep(Duration::from_millis(10));
    }
    // Draining: status queries still answered, submissions refused.
    let (sq, _) = http(h.http_addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(sq, 200);
    let (sp, bp) = h.submit(r#"{"tasks":1,"records_per_task":10}"#);
    assert_eq!(sp, 503, "{bp}");
    // The running job gets its drain window and finishes cleanly.
    let report = h.shutdown();
    let job = &report.jobs[0];
    assert_eq!(
        job.status,
        sae_live::JobStatus::Completed,
        "{:?}",
        job.status
    );
    assert!(job.journal.contains("\"event\":\"completed\""));
}

#[test]
fn streamed_job_events_match_the_final_journal() {
    let h = Harness::launch(ServerConfig::default(), 2);
    let (s, b) = h.submit(r#"{"tenant":"alice","tasks":4,"records_per_task":2000,"seed":11}"#);
    assert_eq!(s, 201, "{b}");
    let id = json_field(&b, "job");

    // Follow the job's stream to its `end` frame. The stream replays the
    // journal from line 0, follows it live, and closes after the job's
    // terminal record — so every line passes through exactly once.
    let path = format!("/jobs/{id}/events");
    let frames = sse_collect(h.http_addr, &path, "", |f| {
        f.event.as_deref() == Some("end")
    });
    let end = frames.last().expect("at least the end frame");
    assert_eq!(
        end.event.as_deref(),
        Some("end"),
        "no end frame: {frames:?}"
    );
    assert!(
        end.data.contains("\"status\":\"completed\""),
        "{}",
        end.data
    );

    // The `journal` frames, in id order, joined with the journal's own
    // newlines, must reproduce the journal bit for bit.
    let journal_frames: Vec<&SseFrame> = frames
        .iter()
        .filter(|f| f.event.as_deref() == Some("journal"))
        .collect();
    for (i, f) in journal_frames.iter().enumerate() {
        assert_eq!(
            f.id.as_deref(),
            Some(i.to_string().as_str()),
            "journal event ids must be dense line numbers"
        );
    }
    let streamed = streamed_journal(&frames);
    let (sj, journal) = http(h.http_addr, "GET", &format!("/jobs/{id}/journal"), "");
    assert_eq!(sj, 200);
    assert_eq!(
        streamed, journal,
        "streamed events must match the journal record for record"
    );

    // `Last-Event-ID: 2` resumes after line 2: the reconnect receives
    // exactly the remainder, ids picking up at 3.
    let resumed = sse_collect(h.http_addr, &path, "Last-Event-ID: 2\r\n", |f| {
        f.event.as_deref() == Some("end")
    });
    let tail_frames: Vec<&SseFrame> = resumed
        .iter()
        .filter(|f| f.event.as_deref() == Some("journal"))
        .collect();
    assert_eq!(tail_frames[0].id.as_deref(), Some("3"));
    let tail = streamed_journal(&resumed);
    let skipped: usize = journal.lines().take(3).map(|l| l.len() + 1).sum();
    assert_eq!(tail, journal[skipped..], "resume must start at line 3");

    h.shutdown();
}

/// The journal a job stream carried: its `journal` frames, in order,
/// each closed with the journal's own newline.
fn streamed_journal(frames: &[SseFrame]) -> String {
    frames
        .iter()
        .filter(|f| f.event.as_deref() == Some("journal"))
        .map(|f| format!("{}\n", f.data))
        .collect()
}

/// Blanks the wall-clock figures (`…_secs":<number>`) of a report body.
fn without_timings(report: &str) -> String {
    let mut out = String::new();
    let mut rest = report;
    while let Some(at) = rest.find("_secs\":") {
        let (head, tail) = rest.split_at(at + "_secs\":".len());
        out.push_str(head);
        out.push('T');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out + rest
}

#[test]
fn retired_jobs_answer_every_route_with_the_same_bytes() {
    let h = Harness::launch(ServerConfig::default(), 1);
    let is_end = |f: &SseFrame| f.event.as_deref() == Some("end");

    // Job 1 completes, followed by a stream that attaches while it runs
    // and rides through its retirement to the `end` frame.
    let (s, b) = h
        .submit(r#"{"name":"done","tenant":"alice","tasks":4,"records_per_task":100000,"seed":3}"#);
    assert_eq!((s, json_field(&b, "job").as_str()), (201, "1"), "{b}");
    let across = sse_collect(h.http_addr, "/jobs/1/events", "", is_end);
    assert_eq!(
        across[0].data, r#"{"job":1,"status":"running"}"#,
        "the stream must attach before the job retires"
    );
    assert_eq!(across.last().unwrap().data, r#"{"status":"completed"}"#);

    // Job 2 fails: with its executor's spill directory gone every attempt
    // of its one task errors until the attempt budget is spent.
    let exec_dir = h._spill.path().join("exec-0");
    std::fs::remove_dir_all(&exec_dir).unwrap();
    let (s, b) = h.submit(
        r#"{"name":"doomed","tenant":"bob","stages":[{"kind":"spill","tasks":1,"records_per_task":10}]}"#,
    );
    assert_eq!((s, json_field(&b, "job").as_str()), (201, "2"), "{b}");
    assert_eq!(h.await_terminal("2"), "failed");
    std::fs::create_dir_all(&exec_dir).unwrap();

    // Job 3 is cancelled mid-stage, with dispatched tasks still in flight.
    let (s, b) = h.submit(r#"{"name":"big","tenant":"carol","tasks":8,"records_per_task":200000}"#);
    assert_eq!((s, json_field(&b, "job").as_str()), (201, "3"), "{b}");
    let deadline = Instant::now() + Duration::from_secs(30);
    while json_field(&http(h.http_addr, "GET", "/jobs/3", "").1, "attempts") == "0" {
        assert!(Instant::now() < deadline, "job 3 never dispatched a task");
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(http(h.http_addr, "DELETE", "/jobs/3", "").0, 200);

    // Status lines: fixed bytes for the fault-free and the always-failing
    // job; the cancelled one keeps however many dispatches were in flight.
    let status = |id: u64| http(h.http_addr, "GET", &format!("/jobs/{id}"), "").1;
    assert_eq!(
        status(1),
        r#"{"job":1,"name":"done","tenant":"alice","weight":1,"status":"completed","stage":2,"stages":2,"tasks_done":0,"tasks_total":0,"attempts":8,"failed_attempts":0}"#
    );
    assert_eq!(
        status(2),
        r#"{"job":2,"name":"doomed","tenant":"bob","weight":1,"status":"failed","stage":0,"stages":1,"tasks_done":0,"tasks_total":0,"attempts":4,"failed_attempts":4}"#
    );
    let in_flight: usize = json_field(&status(3), "attempts").parse().unwrap();
    assert!(in_flight >= 1);
    assert_eq!(
        status(3),
        format!(
            r#"{{"job":3,"name":"big","tenant":"carol","weight":1,"status":"cancelled","stage":0,"stages":2,"tasks_done":0,"tasks_total":0,"attempts":{in_flight},"failed_attempts":0}}"#
        )
    );
    assert_eq!(
        http(h.http_addr, "GET", "/jobs", "").1,
        format!("{{\"jobs\":[{},{},{}]}}", status(1), status(2), status(3))
    );

    // Reports: same rows as while live, wall-clock figures aside.
    let report =
        |id: u64| without_timings(&http(h.http_addr, "GET", &format!("/jobs/{id}/report"), "").1);
    assert_eq!(
        report(1),
        r#"{"job":1,"status":"completed","runtime_secs":T,"attempts":8,"failed_attempts":0,"stages":[{"stage":0,"name":"spill-0","kind":"spill","tasks":4,"done":true,"duration_secs":T},{"stage":1,"name":"sort-1","kind":"sort","tasks":4,"done":true,"duration_secs":T}]}"#
    );
    assert_eq!(
        report(2),
        r#"{"job":2,"status":"failed","runtime_secs":T,"attempts":4,"failed_attempts":4,"stages":[{"stage":0,"name":"spill-0","kind":"spill","tasks":1,"done":false,"duration_secs":T}]}"#
    );
    assert_eq!(
        report(3),
        format!(
            r#"{{"job":3,"status":"cancelled","runtime_secs":T,"attempts":{in_flight},"failed_attempts":0,"stages":[{{"stage":0,"name":"spill-0","kind":"spill","tasks":8,"done":false,"duration_secs":T}},{{"stage":1,"name":"sort-1","kind":"sort","tasks":8,"done":false,"duration_secs":T}}]}}"#
        )
    );

    // Journals: the stored text, a fresh replay and a `Last-Event-ID`
    // resume agree line for line; so does the stream that was already
    // attached when job 1 retired.
    let journals: Vec<String> = (1..=3)
        .map(|id| http(h.http_addr, "GET", &format!("/jobs/{id}/journal"), "").1)
        .collect();
    assert_eq!(
        journals[1],
        "{\"event\":\"submitted\",\"name\":\"doomed\",\"tenant\":\"bob\",\"weight\":1,\"stages\":1}\n\
         {\"event\":\"stage-start\",\"stage\":0,\"kind\":\"spill\",\"tasks\":1}\n\
         {\"event\":\"failed\",\"stage\":0,\"task\":0}\n"
    );
    assert!(journals[0].ends_with("{\"event\":\"completed\",\"stages\":2}\n"));
    assert!(journals[2].ends_with("{\"event\":\"cancelled\",\"stage\":0}\n"));
    assert_eq!(streamed_journal(&across), journals[0]);
    for (id, status) in [(1, "completed"), (2, "failed"), (3, "cancelled")] {
        let journal = &journals[id - 1];
        let path = format!("/jobs/{id}/events");
        let fresh = sse_collect(h.http_addr, &path, "", is_end);
        assert_eq!(
            fresh[0].data,
            format!("{{\"job\":{id},\"status\":\"{status}\"}}")
        );
        assert_eq!(fresh[1].id.as_deref(), Some("0"));
        assert_eq!(
            fresh.last().unwrap().data,
            format!("{{\"status\":\"{status}\"}}")
        );
        assert_eq!(&streamed_journal(&fresh), journal);
        assert_eq!(fresh.len(), journal.lines().count() + 2, "{fresh:?}");

        let resumed = sse_collect(h.http_addr, &path, "Last-Event-ID: 0\r\n", is_end);
        assert_eq!(resumed[1].id.as_deref(), Some("1"));
        let first_line = journal.find('\n').unwrap() + 1;
        assert_eq!(streamed_journal(&resumed), journal[first_line..]);
    }

    let report = h.shutdown();
    let kept: Vec<&str> = report.jobs.iter().map(|j| j.journal.as_str()).collect();
    assert_eq!(kept, journals);
    assert_eq!(
        report
            .jobs
            .iter()
            .map(|j| (j.id, j.attempts, j.failed_attempts))
            .collect::<Vec<_>>(),
        [(1, 8, 0), (2, 4, 4), (3, in_flight, 0)]
    );
}

#[test]
fn cluster_stream_carries_lifecycle_journal_and_metrics() {
    let h = Harness::launch(ServerConfig::default(), 2);

    // Subscribe first, submit from inside the stream (on the snapshot
    // frame that arrives with the response head), and follow until the
    // job's `completed` status event goes by.
    let mut id = String::new();
    let frames = sse_collect(h.http_addr, "/events", "", |f| {
        if id.is_empty() {
            assert_eq!(
                f.event.as_deref(),
                Some("metrics"),
                "a fresh subscriber leads with a metrics snapshot: {f:?}"
            );
            let (s, b) = h.submit(r#"{"tenant":"bob","tasks":4,"records_per_task":2000,"seed":5}"#);
            assert_eq!(s, 201, "{b}");
            id = json_field(&b, "job");
        }
        f.event.as_deref() == Some("status") && f.data.contains("\"status\":\"completed\"")
    });

    // Lifecycle made it through with tenant attribution.
    let statuses: Vec<&str> = frames
        .iter()
        .filter(|f| f.event.as_deref() == Some("status"))
        .map(|f| f.data.as_str())
        .collect();
    assert!(
        statuses.iter().all(|d| d.contains("\"tenant\":\"bob\"")),
        "{statuses:?}"
    );
    assert!(
        statuses
            .last()
            .unwrap()
            .contains("\"status\":\"completed\""),
        "{statuses:?}"
    );

    // Task spans streamed in during the run (the incremental trace feed).
    let spans = frames
        .iter()
        .filter(|f| f.event.as_deref() == Some("span"))
        .count();
    assert!(
        spans >= 8,
        "4 tasks x 2 stages should stream spans: {spans}"
    );

    // The journal mirror: extracting `record` from every journal frame
    // for this job reproduces the journal the server kept.
    let prefix = format!("{{\"job\":{id},");
    let mirrored: String = frames
        .iter()
        .filter(|f| f.event.as_deref() == Some("journal") && f.data.starts_with(&prefix))
        .map(|f| {
            let rec = f.data.find("\"record\":").expect("record field") + "\"record\":".len();
            format!("{}\n", &f.data[rec..f.data.len() - 1])
        })
        .collect();
    let (sj, journal) = http(h.http_addr, "GET", &format!("/jobs/{id}/journal"), "");
    assert_eq!(sj, 200);
    assert_eq!(mirrored, journal, "cluster mirror must match the journal");

    // Recorder-fed frames carry its monotone sequence numbers as ids
    // (metrics frames are synthesised server-side and carry none).
    let ids: Vec<u64> = frames
        .iter()
        .filter_map(|f| f.id.as_deref())
        .map(|id| id.parse().unwrap())
        .collect();
    assert!(!ids.is_empty(), "no recorder-fed frames at all");
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids must be strictly increasing: {ids:?}"
    );

    h.shutdown();
}

#[test]
fn unknown_routes_and_methods_are_mapped() {
    let h = Harness::launch(ServerConfig::default(), 1);
    assert_eq!(http(h.http_addr, "GET", "/nope", "").0, 404);
    assert_eq!(http(h.http_addr, "GET", "/jobs/999", "").0, 404);
    assert_eq!(http(h.http_addr, "PUT", "/jobs", "{}").0, 405);
    assert_eq!(http(h.http_addr, "POST", "/jobs", "not json").0, 400);
    let (s, body) = http(h.http_addr, "GET", "/healthz", "");
    assert_eq!(s, 200);
    assert!(body.contains("\"ok\""));
    h.shutdown();
}

/// Polls `GET /metrics` until the exposition carries `line`.
fn await_metric(addr: SocketAddr, line: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        if body.lines().any(|l| l == line) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "/metrics never showed {line}:\n{body}"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

/// Writes one frame on a raw executor socket.
fn send_frame(stream: &mut TcpStream, frame: Frame) {
    let mut buf = Vec::new();
    frame.encode(&mut buf);
    stream.write_all(&buf).expect("write frame");
}

/// Reads frames off a raw executor socket until one matches `want`.
fn await_frame(stream: &mut TcpStream, want: impl Fn(&Frame) -> bool) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut cursor = FrameCursor::new();
    let mut buf = [0u8; 4096];
    loop {
        while let Some(frame) = cursor.next().expect("well-formed frames") {
            if want(&frame) {
                return;
            }
        }
        let n = stream.read(&mut buf).expect("the server keeps talking");
        assert!(n > 0, "the server hung up");
        cursor.extend(&buf[..n]);
    }
}

#[test]
fn a_reregistered_executor_is_streamed_and_its_predecessor_fenced() {
    // No heartbeat timeout inside the test: the raw sockets beat only
    // when told to.
    let cfg = ServerConfig {
        executors: 1,
        heartbeat_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    let stop = Arc::clone(&cfg.stop);
    let server = JobServer::bind(cfg).expect("bind server");
    let wire = server.wire_addr().unwrap();
    let addr = server.http_addr().unwrap();
    let serve = thread::spawn(move || server.serve());
    let register = Frame::Register {
        executor: 0,
        slots: 4,
    };
    let heartbeat = Frame::Core(Message::Heartbeat { executor: 0 });

    // A one-task job waits for a fleet: its task goes to the first
    // registration, which proves the server booked it.
    let job = r#"{"stages":[{"kind":"spill","tasks":1,"records_per_task":1}]}"#;
    let (status, body) = http(addr, "POST", "/jobs", job);
    assert_eq!(status, 201, "{body}");

    // Two raw sockets register as executor 0 in turn.
    let mut sockets = Vec::new();
    let frames = sse_collect(addr, "/events", "", |f| {
        if sockets.is_empty() {
            let mut first = TcpStream::connect(wire).unwrap();
            send_frame(&mut first, register);
            await_frame(&mut first, |f| matches!(f, Frame::AssignJobTask { .. }));
            let mut second = TcpStream::connect(wire).unwrap();
            send_frame(&mut second, register);
            sockets = vec![first, second];
        }
        f.event.as_deref() == Some("reincarnated")
    });
    let reborn = frames.last().unwrap();
    assert!(
        reborn.data.contains("\"executor\":0,\"epoch\":2,"),
        "{reborn:?}"
    );

    // The superseded socket's traffic is fenced and counted; the current
    // one's heartbeat and resize land on the membership metrics.
    send_frame(&mut sockets[0], heartbeat);
    await_metric(addr, "server_frames_fenced 1");
    send_frame(&mut sockets[1], heartbeat);
    await_metric(addr, "server_heartbeat_gap_s_count 1");
    let resize = Frame::Core(Message::PoolSizeChanged {
        executor: 0,
        size: 3,
    });
    send_frame(&mut sockets[1], resize);
    await_metric(addr, "server_pool_size{executor=\"0\"} 3");
    await_metric(addr, "server_reincarnations 1");

    stop.store(true, Ordering::Relaxed);
    serve.join().expect("serve thread").expect("serve ok");
}
