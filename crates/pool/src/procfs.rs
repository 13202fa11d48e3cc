//! A real I/O probe backed by Linux's `/proc/self/io`.
//!
//! The paper's monitor reads epoll-wait time via `strace` and throughput
//! via the Spark metrics system. For the real-thread pool we read the
//! kernel's per-process I/O accounting (`read_bytes`/`write_bytes`, the
//! block-device counters) and the process's aggregated I/O delay
//! (`delayacct_blkio_ticks` from `/proc/self/stat`), which is precisely
//! "time blocked waiting for I/O" — the ε the controller needs.

use std::sync::Arc;

use crate::adaptive::IoProbe;

/// Parsed counters from `/proc/<pid>/io`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ProcIo {
    /// Bytes fetched from the storage layer.
    pub read_bytes: u64,
    /// Bytes sent to the storage layer.
    pub write_bytes: u64,
}

impl ProcIo {
    /// Parses the `/proc/<pid>/io` format:
    ///
    /// ```text
    /// rchar: 3208531
    /// wchar: 114
    /// read_bytes: 4096
    /// write_bytes: 0
    /// ...
    /// ```
    ///
    /// Unknown lines are ignored; missing fields default to zero.
    pub(crate) fn parse(content: &str) -> Self {
        let mut io = Self::default();
        for line in content.lines() {
            let mut parts = line.split(':');
            let (Some(key), Some(value)) = (parts.next(), parts.next()) else {
                continue;
            };
            let Ok(value) = value.trim().parse::<u64>() else {
                continue;
            };
            match key.trim() {
                "read_bytes" => io.read_bytes = value,
                "write_bytes" => io.write_bytes = value,
                _ => {}
            }
        }
        io
    }

    /// Total block-device traffic in MB.
    pub(crate) fn total_mb(&self) -> f64 {
        (self.read_bytes + self.write_bytes) as f64 / (1024.0 * 1024.0)
    }
}

/// Extracts `delayacct_blkio_ticks` (field 42) from `/proc/<pid>/stat` and
/// converts it to seconds, given the kernel tick rate.
///
/// Returns `None` if the field is missing or malformed.
pub(crate) fn parse_blkio_delay_seconds(stat_line: &str, ticks_per_second: f64) -> Option<f64> {
    // The comm field (2) may contain spaces; skip past the closing paren.
    let after_comm = stat_line.rfind(')')?;
    let rest = &stat_line[after_comm + 1..];
    // `rest` starts at field 3; delayacct_blkio_ticks is field 42.
    let ticks: f64 = rest.split_whitespace().nth(42 - 3)?.parse().ok()?;
    Some(ticks / ticks_per_second)
}

/// Builds an [`IoProbe`] reading the calling process's real counters.
///
/// On non-Linux platforms (or when `/proc` is unavailable) the probe
/// returns zeros, which makes the controller treat the workload as
/// CPU-bound — a safe default.
pub(crate) fn proc_self_probe() -> IoProbe {
    Arc::new(|| {
        let io = std::fs::read_to_string("/proc/self/io")
            .map(|s| ProcIo::parse(&s))
            .unwrap_or_default();
        let epoll = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_blkio_delay_seconds(&s, 100.0))
            .unwrap_or(0.0);
        (epoll, io.total_mb())
    })
}

/// A probe that reports counters *relative to the last stage boundary*,
/// clamped so they never run backwards.
///
/// The MAPE-K monitor expects cumulative-since-stage-start counters; the
/// kernel's are cumulative since process start and (rarely) non-monotone.
/// `StageIoProbe` rebases an inner probe at every [`StageIoProbe::rebase`]
/// call and clamps each sample at zero, so counters observed going
/// backwards can never produce negative ε or µ.
///
/// # Examples
///
/// ```
/// use sae_pool::procfs::StageIoProbe;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let ticks = Arc::new(AtomicU64::new(7));
/// let inner = {
///     let ticks = Arc::clone(&ticks);
///     Arc::new(move || {
///         let t = ticks.load(Ordering::Relaxed) as f64;
///         (t * 0.1, t * 2.0)
///     })
/// };
/// let probe = StageIoProbe::new(inner);
/// probe.rebase(); // stage boundary: everything before is forgotten
/// ticks.store(9, Ordering::Relaxed);
/// let (wait, mb) = probe.sample();
/// assert!((wait - 0.2).abs() < 1e-9);
/// assert!((mb - 4.0).abs() < 1e-9);
/// ```
#[derive(Clone)]
pub struct StageIoProbe {
    inner: IoProbe,
    base: Arc<parking_lot::Mutex<(f64, f64)>>,
}

impl std::fmt::Debug for StageIoProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let base = *self.base.lock();
        f.debug_struct("StageIoProbe").field("base", &base).finish()
    }
}

impl StageIoProbe {
    /// Wraps `inner`, with the baseline taken at construction time.
    pub fn new(inner: IoProbe) -> Self {
        let base = inner();
        Self {
            inner,
            base: Arc::new(parking_lot::Mutex::new(base)),
        }
    }

    /// Re-baselines at the current counters (call at stage start).
    pub fn rebase(&self) {
        *self.base.lock() = (self.inner)();
    }

    /// Counters accumulated since the last rebase, each clamped at zero.
    pub fn sample(&self) -> (f64, f64) {
        let (base_wait, base_mb) = *self.base.lock();
        let (wait, mb) = (self.inner)();
        ((wait - base_wait).max(0.0), (mb - base_mb).max(0.0))
    }

    /// Adapts to the closure shape [`crate::AdaptivePool`] consumes.
    pub fn as_probe(&self) -> IoProbe {
        let this = self.clone();
        Arc::new(move || this.sample())
    }
}

/// A stage-rebased, clamped probe over the calling process's real
/// `/proc` counters — the probe live executors feed their pools with.
pub fn proc_stage_probe() -> StageIoProbe {
    StageIoProbe::new(proc_self_probe())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_IO: &str = "rchar: 3208531\nwchar: 114\nsyscr: 1141\nsyscw: 2\n\
                             read_bytes: 8388608\nwrite_bytes: 4194304\ncancelled_write_bytes: 0\n";

    #[test]
    fn parses_proc_io() {
        let io = ProcIo::parse(SAMPLE_IO);
        assert_eq!(io.read_bytes, 8_388_608);
        assert_eq!(io.write_bytes, 4_194_304);
        assert!((io.total_mb() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn tolerates_garbage_lines() {
        let io = ProcIo::parse("nonsense\nread_bytes: abc\nwrite_bytes: 42\n");
        assert_eq!(io.read_bytes, 0);
        assert_eq!(io.write_bytes, 42);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(ProcIo::parse(""), ProcIo::default());
    }

    #[test]
    fn parses_blkio_delay_with_spaced_comm() {
        // Fields 1-2 then 50 numeric fields; field 42 (blkio ticks) = 250.
        let mut fields: Vec<String> = (3..=52).map(|i| i.to_string()).collect();
        fields[42 - 3] = "250".to_owned();
        let line = format!("1234 (my proc name) {}", fields.join(" "));
        let secs = parse_blkio_delay_seconds(&line, 100.0).unwrap();
        assert!((secs - 2.5).abs() < 1e-12);
    }

    #[test]
    fn malformed_stat_returns_none() {
        assert_eq!(parse_blkio_delay_seconds("", 100.0), None);
        assert_eq!(parse_blkio_delay_seconds("1 (x) 2 3", 100.0), None);
    }

    #[test]
    fn missing_fields_default_to_zero() {
        // A /proc/<pid>/io without the block-device counters (e.g. a
        // kernel built without CONFIG_TASK_IO_ACCOUNTING) parses cleanly.
        let io = ProcIo::parse("rchar: 100\nwchar: 50\nsyscr: 3\n");
        assert_eq!(io, ProcIo::default());
        // And one with only a single counter keeps the other at zero.
        let io = ProcIo::parse("write_bytes: 4096\n");
        assert_eq!(io.read_bytes, 0);
        assert_eq!(io.write_bytes, 4096);
    }

    #[test]
    fn stage_probe_clamps_backward_counters() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let raw = Arc::new(AtomicU64::new(100));
        let inner: IoProbe = {
            let raw = Arc::clone(&raw);
            Arc::new(move || {
                let v = raw.load(Ordering::Relaxed) as f64;
                (v * 0.01, v)
            })
        };
        let probe = StageIoProbe::new(inner);
        assert_eq!(probe.sample(), (0.0, 0.0));
        raw.store(150, Ordering::Relaxed);
        let (wait, mb) = probe.sample();
        assert!((wait - 0.5).abs() < 1e-9);
        assert!((mb - 50.0).abs() < 1e-9);
        // The source runs backwards below the baseline: clamp to zero
        // instead of reporting negative ε/µ.
        raw.store(40, Ordering::Relaxed);
        assert_eq!(probe.sample(), (0.0, 0.0));
        // Rebasing at the lower value restores forward progress.
        probe.rebase();
        raw.store(90, Ordering::Relaxed);
        let (wait, mb) = probe.sample();
        assert!((wait - 0.5).abs() < 1e-9);
        assert!((mb - 50.0).abs() < 1e-9);
    }

    #[test]
    fn stage_probe_rebase_forgets_history() {
        let probe = proc_stage_probe();
        probe.rebase();
        let (wait, mb) = probe.sample();
        // Immediately after a rebase the stage-relative counters are ~0
        // (and never negative, even if the kernel counters moved).
        assert!(wait >= 0.0);
        assert!(mb >= 0.0);
    }

    #[test]
    fn live_probe_is_callable() {
        // On Linux this reads real counters; elsewhere it returns zeros.
        let probe = proc_self_probe();
        let (epoll, mb) = probe();
        assert!(epoll >= 0.0);
        assert!(mb >= 0.0);
    }
}
