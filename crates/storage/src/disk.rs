//! Disk devices bound to simulation resources.

use sae_sim::{CapacityCurve, Kernel, ResourceId};

use crate::profile::DeviceProfile;

/// Traffic classes on a disk. The numeric values are the `sae-sim` flow
/// classes used on the disk's resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskClass {
    /// Sequential reads of input data (HDFS block reads).
    Read,
    /// Writes: output data, shuffle spill, replication traffic.
    Write,
    /// Reads serving shuffle fetches: many small map-output segments.
    ShuffleRead,
}

impl DiskClass {
    /// The `sae-sim` flow class for this traffic class.
    pub fn flow_class(self) -> u8 {
        match self {
            DiskClass::Read => 0,
            DiskClass::Write => 1,
            DiskClass::ShuffleRead => 2,
        }
    }

    /// All traffic classes.
    pub const ALL: [DiskClass; 3] = [DiskClass::Read, DiskClass::Write, DiskClass::ShuffleRead];
}

/// A disk device registered on a simulation kernel.
///
/// The disk's capacity curve evaluates the bound [`DeviceProfile`] against
/// the live class mix on every population change, then scales by the node's
/// speed factor (per-node variability, Figure 3).
///
/// # Examples
///
/// ```
/// use sae_sim::Kernel;
/// use sae_storage::{DeviceProfile, Disk, DiskClass};
///
/// let mut kernel: Kernel<u32> = Kernel::new();
/// let disk = Disk::register(&mut kernel, DeviceProfile::hdd_7200(), 1.0);
/// kernel.start_flow(disk.resource(), DiskClass::Read.flow_class(), 100.0, 0);
/// kernel.run_to_idle();
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    resource: ResourceId,
}

impl Disk {
    /// Registers a disk with the given profile and node speed factor on the
    /// kernel and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `speed_factor` is not finite and positive.
    pub fn register<P>(kernel: &mut Kernel<P>, profile: DeviceProfile, speed_factor: f64) -> Self {
        assert!(
            speed_factor.is_finite() && speed_factor > 0.0,
            "speed factor must be finite and positive, got {speed_factor}"
        );
        let per_stream_cap = profile.per_stream_cap();
        let curve = CapacityCurve::from_fn(move |counts| {
            let streams = [
                (DiskClass::Read, counts.of(DiskClass::Read.flow_class())),
                (DiskClass::Write, counts.of(DiskClass::Write.flow_class())),
                (
                    DiskClass::ShuffleRead,
                    counts.of(DiskClass::ShuffleRead.flow_class()),
                ),
            ];
            profile.bandwidth(&streams) * speed_factor
        })
        // The per-stream cap stems from request-response think time in the
        // task, not from the device, so it does NOT scale with the node's
        // speed factor — slow disks therefore saturate at fewer streams,
        // which is why different executors can settle on different thread
        // counts (Figure 6).
        .with_per_flow_cap(per_stream_cap);
        Self {
            resource: kernel.add_resource(curve),
        }
    }

    /// The simulation resource backing this disk.
    pub fn resource(&self) -> ResourceId {
        self.resource
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sae_sim::Occurrence;

    fn time_to_read(profile: DeviceProfile, factor: f64, streams: usize) -> f64 {
        let mut kernel: Kernel<u32> = Kernel::new();
        let disk = Disk::register(&mut kernel, profile, factor);
        for i in 0..streams {
            kernel.start_flow(
                disk.resource(),
                DiskClass::Read.flow_class(),
                1000.0,
                i as u32,
            );
        }
        let mut last = 0.0;
        while let Some(occ) = kernel.next() {
            if let Occurrence::FlowCompleted { at, .. } = occ {
                last = at.seconds();
            }
        }
        last
    }

    #[test]
    fn single_read_matches_profile_rate() {
        // A lone stream is limited by the per-stream cap, not the device.
        let hdd = DeviceProfile::hdd_7200();
        let rate = hdd
            .bandwidth(&[(DiskClass::Read, 1)])
            .min(hdd.per_stream_cap());
        let expected = 1000.0 / rate;
        let measured = time_to_read(hdd, 1.0, 1);
        assert!((measured - expected).abs() < 1e-6);
    }

    #[test]
    fn aggregate_throughput_rises_with_streams_below_saturation() {
        // 1 stream: 60 MB/s; 3 streams: 180 MB/s — the µ-rises-with-n
        // behaviour behind Figure 7's falling congestion index.
        let t1 = time_to_read(DeviceProfile::hdd_7200(), 1.0, 1);
        let t3 = {
            let mut kernel: Kernel<u32> = Kernel::new();
            let disk = Disk::register(&mut kernel, DeviceProfile::hdd_7200(), 1.0);
            for i in 0..3 {
                kernel.start_flow(disk.resource(), 0, 1000.0 / 3.0, i);
            }
            let mut last = 0.0;
            while let Some(Occurrence::FlowCompleted { at, .. }) = kernel.next() {
                last = at.seconds();
            }
            last
        };
        assert!(
            t3 < t1 / 2.5,
            "3 streams should be ~3x faster than 1: {t1} vs {t3}"
        );
    }

    #[test]
    fn slow_node_is_proportionally_slower() {
        // With enough streams the device envelope (which scales with the
        // node factor) binds, so a half-speed node takes twice as long.
        let t_fast = time_to_read(DeviceProfile::hdd_7200(), 1.0, 16);
        let t_slow = time_to_read(DeviceProfile::hdd_7200(), 0.5, 16);
        assert!((t_slow / t_fast - 2.0).abs() < 1e-6);
    }

    #[test]
    fn hdd_thrash_visible_end_to_end() {
        // Reading the same total volume with 32 streams takes longer than
        // with 8 streams on an HDD.
        let total = 3200.0;
        let per4 = {
            let mut kernel: Kernel<u32> = Kernel::new();
            let disk = Disk::register(&mut kernel, DeviceProfile::hdd_7200(), 1.0);
            for i in 0..8 {
                kernel.start_flow(disk.resource(), 0, total / 8.0, i);
            }
            let mut last = 0.0;
            while let Some(Occurrence::FlowCompleted { at, .. }) = kernel.next() {
                last = at.seconds();
            }
            last
        };
        let per32 = {
            let mut kernel: Kernel<u32> = Kernel::new();
            let disk = Disk::register(&mut kernel, DeviceProfile::hdd_7200(), 1.0);
            for i in 0..32 {
                kernel.start_flow(disk.resource(), 0, total / 32.0, i);
            }
            let mut last = 0.0;
            while let Some(Occurrence::FlowCompleted { at, .. }) = kernel.next() {
                last = at.seconds();
            }
            last
        };
        assert!(
            per32 > per4 * 1.3,
            "32 streams should be >=1.3x slower: {per4} vs {per32}"
        );
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn invalid_speed_factor_rejected() {
        let mut kernel: Kernel<u32> = Kernel::new();
        let _ = Disk::register(&mut kernel, DeviceProfile::hdd_7200(), 0.0);
    }
}
