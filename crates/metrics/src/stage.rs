//! Per-stage utilisation roll-ups (the `mpstat`/`iostat` equivalents).

use serde::{Deserialize, Serialize};

/// One utilisation sample for a node over a sampling interval.
///
/// Fractions are in `[0, 1]`. `cpu_busy + cpu_iowait` may be below 1.0 (idle
/// time) and is clamped by the builder if numeric noise pushes it above.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSample {
    /// Fraction of CPU capacity doing useful work.
    pub cpu_busy: f64,
    /// Fraction of CPU capacity idle while waiting for outstanding disk I/O
    /// (the `%iowait` column of `mpstat`).
    pub cpu_iowait: f64,
    /// Fraction of the sampling interval during which the disk had at least
    /// one request in flight (the `%util` column of `iostat`).
    pub disk_util: f64,
}

/// Aggregated resource statistics for one stage of a job.
///
/// This is the data behind Figure 1 (per-stage CPU% and iowait) and Figure 5
/// (average disk utilisation) of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Stage identifier within the job.
    pub stage_id: usize,
    /// Wall-clock (simulated) duration of the stage in seconds.
    pub duration: f64,
    /// Mean CPU busy fraction across nodes and time.
    pub avg_cpu_busy: f64,
    /// Mean CPU iowait fraction across nodes and time.
    pub avg_cpu_iowait: f64,
    /// Mean disk utilisation across nodes and time.
    pub avg_disk_util: f64,
    /// Total bytes read from storage during the stage.
    pub bytes_read: u64,
    /// Total bytes written to storage during the stage.
    pub bytes_written: u64,
}

impl StageSummary {
    /// Total I/O activity (storage reads + writes) during the stage.
    pub fn io_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Incrementally builds a [`StageSummary`] from utilisation samples.
///
/// # Examples
///
/// ```
/// use sae_metrics::{StageSummaryBuilder, UtilizationSample};
///
/// let mut b = StageSummaryBuilder::new(0);
/// b.observe(UtilizationSample { cpu_busy: 0.5, cpu_iowait: 0.3, disk_util: 0.9 });
/// b.observe(UtilizationSample { cpu_busy: 0.7, cpu_iowait: 0.1, disk_util: 0.7 });
/// b.add_read_bytes(1024);
/// let summary = b.finish(10.0);
/// assert!((summary.avg_cpu_busy - 0.6).abs() < 1e-12);
/// assert_eq!(summary.bytes_read, 1024);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StageSummaryBuilder {
    stage_id: usize,
    samples: usize,
    sum_busy: f64,
    sum_iowait: f64,
    sum_disk: f64,
    bytes_read: u64,
    bytes_written: u64,
}

impl StageSummaryBuilder {
    /// Creates a builder for stage `stage_id`.
    pub fn new(stage_id: usize) -> Self {
        Self {
            stage_id,
            ..Self::default()
        }
    }

    /// Feeds one utilisation sample; fractions are clamped to `[0, 1]`.
    pub fn observe(&mut self, sample: UtilizationSample) {
        self.samples += 1;
        self.sum_busy += sample.cpu_busy.clamp(0.0, 1.0);
        self.sum_iowait += sample.cpu_iowait.clamp(0.0, 1.0);
        self.sum_disk += sample.disk_util.clamp(0.0, 1.0);
    }

    /// Accumulates storage read bytes.
    pub fn add_read_bytes(&mut self, bytes: u64) {
        self.bytes_read += bytes;
    }

    /// Accumulates storage write bytes.
    pub fn add_written_bytes(&mut self, bytes: u64) {
        self.bytes_written += bytes;
    }

    /// Finalises the summary with the stage's wall-clock `duration`.
    ///
    /// With zero samples the utilisation averages are reported as `0.0`.
    pub fn finish(self, duration: f64) -> StageSummary {
        let n = self.samples.max(1) as f64;
        StageSummary {
            stage_id: self.stage_id,
            duration,
            avg_cpu_busy: if self.samples == 0 {
                0.0
            } else {
                self.sum_busy / n
            },
            avg_cpu_iowait: if self.samples == 0 {
                0.0
            } else {
                self.sum_iowait / n
            },
            avg_disk_util: if self.samples == 0 {
                0.0
            } else {
                self.sum_disk / n
            },
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(busy: f64, iowait: f64, disk: f64) -> UtilizationSample {
        UtilizationSample {
            cpu_busy: busy,
            cpu_iowait: iowait,
            disk_util: disk,
        }
    }

    #[test]
    fn averages_over_samples() {
        let mut b = StageSummaryBuilder::new(3);
        b.observe(sample(0.2, 0.8, 1.0));
        b.observe(sample(0.4, 0.6, 0.0));
        let s = b.finish(5.0);
        assert_eq!(s.stage_id, 3);
        assert!((s.avg_cpu_busy - 0.3).abs() < 1e-12);
        assert!((s.avg_cpu_iowait - 0.7).abs() < 1e-12);
        assert!((s.avg_disk_util - 0.5).abs() < 1e-12);
        assert_eq!(s.duration, 5.0);
    }

    #[test]
    fn zero_samples_reports_zero_util() {
        let s = StageSummaryBuilder::new(0).finish(1.0);
        assert_eq!(s.avg_cpu_busy, 0.0);
        assert_eq!(s.avg_disk_util, 0.0);
    }

    #[test]
    fn out_of_range_samples_are_clamped() {
        let mut b = StageSummaryBuilder::new(0);
        b.observe(sample(1.5, -0.5, 2.0));
        let s = b.finish(1.0);
        assert_eq!(s.avg_cpu_busy, 1.0);
        assert_eq!(s.avg_cpu_iowait, 0.0);
        assert_eq!(s.avg_disk_util, 1.0);
    }

    #[test]
    fn byte_accounting_sums() {
        let mut b = StageSummaryBuilder::new(1);
        b.add_read_bytes(10);
        b.add_read_bytes(20);
        b.add_written_bytes(5);
        let s = b.finish(1.0);
        assert_eq!(s.bytes_read, 30);
        assert_eq!(s.bytes_written, 5);
        assert_eq!(s.io_bytes(), 35);
    }

    #[test]
    fn summary_clone_and_eq() {
        let mut b = StageSummaryBuilder::new(2);
        b.observe(sample(0.5, 0.25, 0.75));
        let s = b.finish(2.0);
        assert_eq!(s.clone(), s);
    }
}
