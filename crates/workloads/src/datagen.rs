//! Deterministic data generators, in the spirit of HiBench's prepare
//! phase.
//!
//! The simulator never materialises data, but the real-thread-pool
//! demonstrations do: [`teragen`] produces Terasort-format records
//! (10-byte key, 90-byte payload) and [`RangePartitioner`] splits the key
//! space the way Terasort's sampling stage does.

use sae_sim::rng::DeterministicRng;

/// Key width of a Terasort record.
pub(crate) const KEY_BYTES: usize = 10;
/// Payload width of a Terasort record.
pub(crate) const VALUE_BYTES: usize = 90;

/// One 100-byte Terasort record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TeraRecord {
    /// The sort key.
    pub key: [u8; KEY_BYTES],
    /// Opaque payload.
    pub value: [u8; VALUE_BYTES],
}

/// Generates `count` records deterministically from `seed`.
///
/// # Examples
///
/// ```
/// use sae_workloads::datagen::teragen;
///
/// let a = teragen(100, 7);
/// let b = teragen(100, 7);
/// assert_eq!(a, b);
/// assert_ne!(a, teragen(100, 8));
/// ```
pub fn teragen(count: usize, seed: u64) -> Vec<TeraRecord> {
    let mut rng = DeterministicRng::seed(seed);
    (0..count)
        .map(|_| {
            let mut key = [0u8; KEY_BYTES];
            for b in &mut key {
                // Printable ASCII keys, like the original teragen.
                *b = b' ' + rng.index(95) as u8;
            }
            let mut value = [0u8; VALUE_BYTES];
            for b in &mut value {
                *b = rng.index(256) as u8;
            }
            TeraRecord { key, value }
        })
        .collect()
}

/// A range partitioner built by sampling, as Terasort's first stage does.
///
/// # Examples
///
/// ```
/// use sae_workloads::datagen::{teragen, RangePartitioner};
///
/// let records = teragen(10_000, 1);
/// let partitioner = RangePartitioner::from_sample(&records, 8);
/// let p = partitioner.partition(&records[0]);
/// assert!(p < 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePartitioner {
    boundaries: Vec<[u8; KEY_BYTES]>,
}

impl RangePartitioner {
    /// Builds a partitioner with `partitions` output ranges from a sample.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero or the sample is empty.
    pub fn from_sample(sample: &[TeraRecord], partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        assert!(!sample.is_empty(), "cannot sample an empty dataset");
        let mut keys: Vec<[u8; KEY_BYTES]> = sample.iter().map(|r| r.key).collect();
        keys.sort_unstable();
        let boundaries = (1..partitions)
            .map(|p| keys[p * keys.len() / partitions])
            .collect();
        Self { boundaries }
    }

    /// Number of output partitions.
    pub(crate) fn partitions(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The partition a record belongs to.
    pub fn partition(&self, record: &TeraRecord) -> usize {
        self.boundaries.partition_point(|b| *b <= record.key)
    }

    /// Splits `records` into per-partition buckets.
    pub fn split(&self, records: &[TeraRecord]) -> Vec<Vec<TeraRecord>> {
        let mut buckets = vec![Vec::new(); self.partitions()];
        for r in records {
            buckets[self.partition(r)].push(*r);
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teragen_is_deterministic() {
        assert_eq!(teragen(500, 42), teragen(500, 42));
    }

    #[test]
    fn teragen_keys_are_printable_ascii() {
        for r in teragen(200, 1) {
            for &b in &r.key {
                assert!((b' '..=b'~').contains(&b));
            }
        }
    }

    #[test]
    fn partitioner_covers_all_partitions_roughly_evenly() {
        let records = teragen(20_000, 3);
        let partitioner = RangePartitioner::from_sample(&records, 16);
        let buckets = partitioner.split(&records);
        assert_eq!(buckets.len(), 16);
        let min = buckets.iter().map(Vec::len).min().unwrap();
        let max = buckets.iter().map(Vec::len).max().unwrap();
        assert!(min > 0, "empty partition");
        assert!(max < 3 * 20_000 / 16, "badly skewed partitioning: {max}");
    }

    #[test]
    fn partitions_are_ordered_ranges() {
        let records = teragen(5_000, 9);
        let partitioner = RangePartitioner::from_sample(&records, 8);
        let buckets = partitioner.split(&records);
        // Max key of bucket i <= min key of bucket i+1.
        for pair in buckets.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if let (Some(max_a), Some(min_b)) =
                (a.iter().map(|r| r.key).max(), b.iter().map(|r| r.key).min())
            {
                assert!(max_a <= min_b);
            }
        }
    }

    #[test]
    fn sorted_buckets_concatenate_to_global_order() {
        let records = teragen(3_000, 11);
        let partitioner = RangePartitioner::from_sample(&records, 4);
        let mut buckets = partitioner.split(&records);
        for b in &mut buckets {
            b.sort_unstable();
        }
        let concatenated: Vec<TeraRecord> = buckets.into_iter().flatten().collect();
        let mut expected = records.clone();
        expected.sort_unstable();
        assert_eq!(concatenated, expected);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_rejected() {
        let _ = RangePartitioner::from_sample(&[], 4);
    }

    #[test]
    fn single_partition_degenerates_gracefully() {
        let records = teragen(100, 2);
        let p = RangePartitioner::from_sample(&records, 1);
        assert_eq!(p.partitions(), 1);
        assert!(records.iter().all(|r| p.partition(r) == 0));
    }
}
