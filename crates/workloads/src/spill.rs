//! File-backed record spills: the real I/O behind the live runtime's
//! Terasort stages.
//!
//! The simulator *models* disk traffic; the live runtime must actually
//! block on it, so its map stage writes generated records to spill files
//! and its sort stage reads them back — through these helpers, which fix
//! the on-disk format (records packed back to back, 100 bytes each,
//! followed by an 8-byte checksum footer) and reject corrupt files
//! instead of mis-sorting silently. The footer is `[crc32 BE][magic]`
//! where the CRC covers every record byte: truncation, bit rot, and a
//! crash mid-record all surface as [`io::ErrorKind::InvalidData`], which
//! the live runtime treats as a *retryable* task failure (the retry
//! regenerates the partition from its deterministic lineage).
//!
//! The checksum is the one a task body spends most of its CPU on, so it
//! is computed slicing-by-16 (sixteen independent table lookups per
//! sixteen bytes instead of one dependent lookup per byte), and records
//! move between memory and disk through one 64 000-byte staging buffer:
//! one `write_all` or `read_exact`, and one checksum call, per 640
//! records, then one for the footer. Neither changes a byte on disk: the files are exactly what a
//! byte-at-a-time CRC behind an 8 KiB buffered writer produced.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::datagen::{TeraRecord, KEY_BYTES, VALUE_BYTES};

/// On-disk size of one record in bytes.
pub const RECORD_BYTES: usize = KEY_BYTES + VALUE_BYTES;

/// On-disk size of the checksum footer: a big-endian IEEE CRC-32 of the
/// record bytes followed by `SPILL_MAGIC`.
pub const FOOTER_BYTES: usize = 8;

/// Trailing magic marking a complete spill file. A file without it was
/// truncated (or predates the checksummed format) and is rejected.
pub(crate) const SPILL_MAGIC: [u8; 4] = *b"SAEs";

/// IEEE 802.3 CRC-32 lookup tables for slicing-by-16, built at compile
/// time (the workspace carries no checksum dependency). `CRC32_TABLES[0]`
/// is the classic byte-at-a-time table; `CRC32_TABLES[k][n]` is the CRC
/// of byte `n` followed by `k` zero bytes, so sixteen lookups — one per
/// input byte, none depending on another — fold sixteen bytes at once.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        t += 1;
    }
    tables
};

/// Incremental IEEE CRC-32 (the zlib/`cksum -o 3` polynomial).
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the checksum, sixteen bytes per step.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    /// The finished checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Records packed into one staging buffer (64 000 bytes): each
/// `write_all`, `read_exact` and [`Crc32::update`] call covers this many
/// at once.
const STAGE_RECORDS: usize = 640;

/// Writes `records` to `path` (truncating any previous file — a retried
/// attempt must overwrite its predecessor's partial output), appends the
/// checksum footer, and returns the number of bytes written (records plus
/// footer).
///
/// Records are packed 640 at a time into one reused buffer, checksummed
/// in one call and written in one call.
pub fn write_records(path: &Path, records: &[TeraRecord]) -> io::Result<u64> {
    let mut out = File::create(path)?;
    let mut crc = Crc32::new();
    let mut buf = Vec::with_capacity(records.len().min(STAGE_RECORDS) * RECORD_BYTES);
    for stage in records.chunks(STAGE_RECORDS) {
        buf.clear();
        for r in stage {
            buf.extend_from_slice(&r.key);
            buf.extend_from_slice(&r.value);
        }
        crc.update(&buf);
        out.write_all(&buf)?;
    }
    let mut footer = [0u8; FOOTER_BYTES];
    footer[..4].copy_from_slice(&crc.finish().to_be_bytes());
    footer[4..].copy_from_slice(&SPILL_MAGIC);
    out.write_all(&footer)?;
    Ok((records.len() * RECORD_BYTES + FOOTER_BYTES) as u64)
}

/// Reads a spill file written by [`write_records`] back into memory,
/// verifying the checksum footer.
///
/// Rejected with [`io::ErrorKind::InvalidData`]:
/// * a file too short for the footer or whose record region is not a
///   multiple of [`RECORD_BYTES`] — a spill interrupted mid-record;
/// * a file without the trailing `SPILL_MAGIC` — truncated at a record
///   boundary, which length arithmetic alone cannot catch;
/// * a CRC mismatch — bit rot or an overwrite torn mid-file.
///
/// Callers retry the producing task instead of sorting garbage.
///
/// The file is read 640 records at a time into one reused buffer,
/// checksummed in one call per buffer, then split into records.
pub fn read_records(path: &Path) -> io::Result<Vec<TeraRecord>> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if len < FOOTER_BYTES as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("spill file {path:?} is too short for a checksum footer ({len} bytes)"),
        ));
    }
    let data_len = len - FOOTER_BYTES as u64;
    if !data_len.is_multiple_of(RECORD_BYTES as u64) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("spill file {path:?} has a trailing partial record ({data_len} data bytes)"),
        ));
    }
    let mut left = (data_len / RECORD_BYTES as u64) as usize;
    let mut records = Vec::with_capacity(left);
    let mut crc = Crc32::new();
    let mut buf = vec![0u8; left.min(STAGE_RECORDS) * RECORD_BYTES];
    while left > 0 {
        let take = left.min(STAGE_RECORDS);
        let stage = &mut buf[..take * RECORD_BYTES];
        file.read_exact(stage)?;
        crc.update(stage);
        records.extend(stage.chunks_exact(RECORD_BYTES).map(|r| {
            let mut key = [0u8; KEY_BYTES];
            let mut value = [0u8; VALUE_BYTES];
            key.copy_from_slice(&r[..KEY_BYTES]);
            value.copy_from_slice(&r[KEY_BYTES..]);
            TeraRecord { key, value }
        }));
        left -= take;
    }
    let mut footer = [0u8; FOOTER_BYTES];
    file.read_exact(&mut footer)?;
    if footer[4..] != SPILL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("spill file {path:?} lacks the trailing magic: truncated or pre-checksum"),
        ));
    }
    let stored = u32::from_be_bytes(footer[..4].try_into().expect("4-byte slice"));
    let computed = crc.finish();
    if stored != computed {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "spill file {path:?} failed its checksum: stored {stored:#010x}, \
                 computed {computed:#010x}"
            ),
        ));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::teragen;
    use proptest::prelude::*;

    /// A test's own directory under the temp dir, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A path for `name` in a fresh directory that goes with the guard.
    fn temp_path(name: &str) -> (Scratch, std::path::PathBuf) {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("sae-spill-test-{pid}-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        (Scratch(dir), path)
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = teragen(1000, 42);
        let (_dir, path) = temp_path("roundtrip.spill");
        let written = write_records(&path, &records).unwrap();
        assert_eq!(written, (1000 * RECORD_BYTES + FOOTER_BYTES) as u64);
        assert_eq!(read_records(&path).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC-32 check value: crc32(b"123456789").
        let mut crc = Crc32::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let (_dir, path) = temp_path("bitrot.spill");
        write_records(&path, &teragen(100, 5)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1234] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_records(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_at_a_record_boundary_is_caught() {
        // Chop exactly one record off the end: the remaining length still
        // parses as N-1 records plus a would-be footer (record bytes), so
        // only the magic/CRC can catch it.
        let (_dir, path) = temp_path("truncated.spill");
        write_records(&path, &teragen(10, 9)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - RECORD_BYTES]).unwrap();
        let err = read_records(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_spill_round_trips() {
        let (_dir, path) = temp_path("empty.spill");
        write_records(&path, &[]).unwrap();
        assert!(read_records(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_truncates_previous_attempt() {
        let (_dir, path) = temp_path("rewrite.spill");
        write_records(&path, &teragen(500, 1)).unwrap();
        let second = teragen(20, 2);
        write_records(&path, &second).unwrap();
        assert_eq!(read_records(&path).unwrap(), second);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_record_rejected() {
        let (_dir, path) = temp_path("partial.spill");
        write_records(&path, &teragen(3, 7)).unwrap();
        // Simulate a crash mid-record: chop 10 bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let err = read_records(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    /// FNV-1a 64 of `bytes`: a digest independent of the code under test.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn on_disk_format_is_pinned() {
        // Recorded from the byte-at-a-time CRC behind an 8 KiB buffered
        // writer: staging and slicing must not change a byte. 1000
        // records span two staging buffers, the second one partial.
        let (_dir, path) = temp_path("golden.spill");
        write_records(&path, &teragen(1000, 42)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 100_008);
        let footer = &bytes[bytes.len() - FOOTER_BYTES..];
        assert_eq!(
            u32::from_be_bytes(footer[..4].try_into().unwrap()),
            0x17b6_2e20
        );
        assert_eq!(&footer[4..], &SPILL_MAGIC);
        assert_eq!(fnv1a(&bytes), 0xbd12_3f6d_ab92_6e2f);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn round_trip_across_staging_boundaries() {
        for n in [
            1,
            STAGE_RECORDS - 1,
            STAGE_RECORDS,
            STAGE_RECORDS + 1,
            2 * STAGE_RECORDS,
        ] {
            let records = teragen(n, n as u64);
            let (_dir, path) = temp_path(&format!("stage-{n}.spill"));
            let written = write_records(&path, &records).unwrap();
            assert_eq!(written, std::fs::metadata(&path).unwrap().len());
            assert_eq!(read_records(&path).unwrap(), records, "{n} records");
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// Byte-at-a-time CRC-32, one bit per step and no table: the
    /// reference the sliced one must match.
    fn reference_crc(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    proptest! {
        /// Arbitrary bytes, split at arbitrary points into several
        /// `update` calls, checksum as the reference does in one pass.
        #[test]
        fn sliced_crc_matches_the_bytewise_reference(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
            cuts in prop::collection::vec(0usize..600, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for to in cuts.into_iter().chain([bytes.len()]) {
                crc.update(&bytes[from..to]);
                from = to;
            }
            prop_assert_eq!(crc.finish(), reference_crc(&bytes));
        }
    }

    #[test]
    fn missing_file_reports_not_found() {
        let err = read_records(Path::new("/nonexistent/sae.spill")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
