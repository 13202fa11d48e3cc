//! Complete device profiles: peak bandwidths plus contention curves.

use crate::curve::ContentionCurve;
use crate::disk::DiskClass;

/// A storage device's performance envelope.
///
/// Bandwidths are in MB/s. Reads and writes have separate peaks and
/// contention curves; shuffle-serving reads (remote fetches hitting the
/// local disk) behave like reads but pay a fragmentation penalty because
/// they touch many small map-output segments instead of one sequential
/// file.
///
/// # Examples
///
/// ```
/// use sae_storage::{DeviceProfile, DiskClass};
///
/// let hdd = DeviceProfile::hdd_7200();
/// let read = hdd.bandwidth(&[(DiskClass::Read, 4)]);
/// let write = hdd.bandwidth(&[(DiskClass::Write, 4)]);
/// assert!(read > write);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: &'static str,
    read_peak: f64,
    write_peak: f64,
    read_curve: ContentionCurve,
    write_curve: ContentionCurve,
    /// Multiplier on efficiency when reads and writes interleave.
    mix_penalty: f64,
    /// Extra per-stream efficiency multiplier for shuffle-serving reads.
    fragment_penalty: f64,
    /// Maximum service rate of a single stream, MB/s.
    ///
    /// Tasks do request-response I/O (issue a read, epoll-wait, process):
    /// the think-time gaps cap what one stream extracts from the device,
    /// so aggregate throughput *rises* with concurrency until
    /// `peak / per_stream_cap` streams saturate the device. This is the
    /// mechanism that makes the congestion index ζ = ε/µ fall from 2 to 4
    /// threads in Figure 7 before seek thrash turns it around.
    per_stream_cap: f64,
}

impl DeviceProfile {
    /// A 7200 rpm SATA hard disk, matching the paper's DAS-5 nodes.
    ///
    /// Sequential streams are fast, but beyond ~4 concurrent streams the
    /// head starts thrashing and aggregate bandwidth collapses — the effect
    /// behind Figures 2, 5 and 7.
    pub fn hdd_7200() -> Self {
        Self {
            name: "hdd-7200rpm",
            read_peak: 190.0,
            write_peak: 160.0,
            // Aggregate envelope is flat until ~4 streams, then the head
            // starts thrashing.
            read_curve: ContentionCurve::new(1.0, 2.0, 4.0, 0.030, 1.25).with_floor(0.22),
            // Writes tolerate slightly more concurrency (write-back caching)
            // but decay faster once seeking.
            write_curve: ContentionCurve::new(1.0, 2.0, 6.0, 0.020, 1.80).with_floor(0.18),
            mix_penalty: 0.80,
            fragment_penalty: 0.70,
            // A single request-response Spark stream (read, epoll-wait,
            // process) extracts ~20 MB/s, so ~8 streams saturate the
            // device just as seek thrash sets in — per-request latency is
            // flat below that point, which is what keeps ε (and hence ζ)
            // low until the device is genuinely congested.
            per_stream_cap: 20.0,
        }
    }

    /// A SATA SSD, matching §6.3's comparison hardware.
    ///
    /// Reads need queue depth to saturate and then stay flat to very high
    /// concurrency; writes peak mid-range because of erase-block overhead.
    pub fn ssd_sata() -> Self {
        Self {
            name: "ssd-sata",
            read_peak: 520.0,
            write_peak: 420.0,
            // No read thrash until far beyond the paper's 32-thread max.
            read_curve: ContentionCurve::new(1.0, 5.0, 96.0, 0.010, 1.10),
            // Erase-before-write: the flash translation layer keeps up to
            // ~8 concurrent write streams before garbage collection bites,
            // and it bites hard enough that the default 32 threads lose
            // ~30 % in the write stages (Figure 10b).
            write_curve: ContentionCurve::new(0.60, 4.0, 8.0, 0.050, 1.60).with_floor(0.20),
            mix_penalty: 0.92,
            fragment_penalty: 0.95,
            // SSDs need queue depth: a single request-response stream is
            // latency-bound at ~40 MB/s, so reads keep rewarding
            // concurrency to ~16 streams and saturate the device just
            // below the 32-thread default — the reason Figure 10's SSD
            // read stage is best at 32 threads while the write stages
            // peak at 16 and 8.
            per_stream_cap: 40.0,
        }
    }

    /// Maximum service rate of a single stream, MB/s.
    pub fn per_stream_cap(&self) -> f64 {
        self.per_stream_cap
    }

    /// Aggregate bandwidth of the node's *shuffle-serve path*, MB/s.
    ///
    /// Freshly spilled map output is overwhelmingly served from the page
    /// cache (DAS-5 nodes hold 56 GB of RAM against 10–30 GB of spill), so
    /// remote fetches are answered at memory-ish speeds rather than
    /// platter speeds. The path still saturates: when the fan-in of
    /// fetchers grows with cluster size (Figure 9), per-stream service
    /// collapses below [`DeviceProfile::serve_stream_cap`].
    pub(crate) fn serve_path_peak(&self) -> f64 {
        match self.name {
            "ssd-sata" => 2400.0,
            _ => 2000.0,
        }
    }

    /// Per-stream cap on the shuffle-serve path, MB/s (request-response
    /// bound, same think-time argument as [`DeviceProfile::per_stream_cap`]).
    pub fn serve_stream_cap(&self) -> f64 {
        20.0
    }

    /// Aggregate serve-path bandwidth with `n` concurrent fetch streams.
    ///
    /// High fan-in (cluster-size × threads remote fetchers) spills requests
    /// past the page cache into the device and the path degrades — the
    /// second mechanism behind Figure 9.
    pub fn serve_path_bandwidth(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let over = (n as f64 - 96.0).max(0.0);
        self.serve_path_peak() / (1.0 + 0.02 * over.powf(1.9))
    }

    /// Device name, e.g. `"hdd-7200rpm"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Peak sequential read bandwidth in MB/s.
    pub fn read_peak(&self) -> f64 {
        self.read_peak
    }

    /// Peak sequential write bandwidth in MB/s.
    pub fn write_peak(&self) -> f64 {
        self.write_peak
    }

    /// Aggregate bandwidth (MB/s) for a mix of concurrent streams.
    ///
    /// `streams` lists `(class, count)` pairs; classes absent from the
    /// slice count as zero. The result blends per-class envelopes weighted
    /// by stream count and applies the mix penalty when distinct classes
    /// interleave.
    pub fn bandwidth(&self, streams: &[(DiskClass, usize)]) -> f64 {
        let mut n_total = 0usize;
        let mut distinct = 0usize;
        for &(_, count) in streams {
            n_total += count;
            if count > 0 {
                distinct += 1;
            }
        }
        if n_total == 0 {
            return 0.0;
        }
        let mut blended = 0.0;
        for &(class, count) in streams {
            if count == 0 {
                continue;
            }
            let weight = count as f64 / n_total as f64;
            let envelope = match class {
                DiskClass::Read => self.read_peak * self.read_curve.efficiency(n_total),
                DiskClass::Write => self.write_peak * self.write_curve.efficiency(n_total),
                DiskClass::ShuffleRead => {
                    self.read_peak * self.read_curve.efficiency(n_total) * self.fragment_penalty
                }
            };
            blended += weight * envelope;
        }
        if distinct > 1 {
            blended *= self.mix_penalty.powi(distinct as i32 - 1);
        }
        blended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_reads_peak_at_low_concurrency() {
        let hdd = DeviceProfile::hdd_7200();
        let bandwidth = |n| hdd.bandwidth(&[(DiskClass::Read, n)]);
        let peak = (1..=512usize)
            .max_by(|&a, &b| bandwidth(a).total_cmp(&bandwidth(b)))
            .unwrap();
        assert!((1..=8).contains(&peak), "HDD read peak at {peak} streams");
    }

    #[test]
    fn hdd_collapses_under_many_streams() {
        let hdd = DeviceProfile::hdd_7200();
        let at_peak = (1..=8)
            .map(|n| hdd.bandwidth(&[(DiskClass::Read, n)]))
            .fold(0.0, f64::max);
        let at_128 = hdd.bandwidth(&[(DiskClass::Read, 128)]);
        assert!(
            at_128 < at_peak * 0.5,
            "expected >2x collapse: {at_peak} -> {at_128}"
        );
    }

    #[test]
    fn ssd_reads_tolerate_high_concurrency() {
        let ssd = DeviceProfile::ssd_sata();
        let at_4 = ssd.bandwidth(&[(DiskClass::Read, 4)]);
        let at_32 = ssd.bandwidth(&[(DiskClass::Read, 32)]);
        assert!(
            at_32 > at_4 * 0.95,
            "SSD should not collapse by 32 streams: {at_4} -> {at_32}"
        );
    }

    #[test]
    fn ssd_writes_peak_mid_range() {
        let ssd = DeviceProfile::ssd_sata();
        let at_8 = ssd.bandwidth(&[(DiskClass::Write, 8)]);
        let at_2 = ssd.bandwidth(&[(DiskClass::Write, 2)]);
        let at_128 = ssd.bandwidth(&[(DiskClass::Write, 128)]);
        assert!(at_8 > at_2, "writes should ramp: {at_2} -> {at_8}");
        assert!(at_8 > at_128, "writes should decay: {at_8} -> {at_128}");
    }

    #[test]
    fn mixed_traffic_pays_penalty() {
        let hdd = DeviceProfile::hdd_7200();
        let pure = hdd.bandwidth(&[(DiskClass::Read, 4)]);
        let mixed = hdd.bandwidth(&[(DiskClass::Read, 2), (DiskClass::Write, 2)]);
        assert!(mixed < pure, "mixing must cost: {pure} vs {mixed}");
    }

    #[test]
    fn shuffle_reads_slower_than_sequential_reads() {
        let hdd = DeviceProfile::hdd_7200();
        let seq = hdd.bandwidth(&[(DiskClass::Read, 8)]);
        let frag = hdd.bandwidth(&[(DiskClass::ShuffleRead, 8)]);
        assert!(frag < seq);
    }

    #[test]
    fn zero_streams_zero_bandwidth() {
        let hdd = DeviceProfile::hdd_7200();
        assert_eq!(hdd.bandwidth(&[]), 0.0);
        assert_eq!(hdd.bandwidth(&[(DiskClass::Read, 0)]), 0.0);
    }

    #[test]
    fn ssd_faster_than_hdd_everywhere() {
        let hdd = DeviceProfile::hdd_7200();
        let ssd = DeviceProfile::ssd_sata();
        for n in [1, 2, 4, 8, 16, 32, 64] {
            assert!(
                ssd.bandwidth(&[(DiskClass::Read, n)]) > hdd.bandwidth(&[(DiskClass::Read, n)]),
                "at {n} streams"
            );
        }
    }
}
