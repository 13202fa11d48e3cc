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

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
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

/// IEEE 802.3 CRC-32 lookup table, built at compile time (the workspace
/// carries no checksum dependency).
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[n] = c;
        n += 1;
    }
    table
};

/// Incremental IEEE CRC-32 (the zlib/`cksum -o 3` polynomial).
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = CRC32_TABLE[((self.0 ^ b as u32) & 0xFF) as usize] ^ (self.0 >> 8);
        }
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

/// Writes `records` to `path` (truncating any previous file — a retried
/// attempt must overwrite its predecessor's partial output), appends the
/// checksum footer, and returns the number of bytes written (records plus
/// footer).
pub fn write_records(path: &Path, records: &[TeraRecord]) -> io::Result<u64> {
    let mut out = BufWriter::new(File::create(path)?);
    let mut crc = Crc32::new();
    for r in records {
        crc.update(&r.key);
        crc.update(&r.value);
        out.write_all(&r.key)?;
        out.write_all(&r.value)?;
    }
    out.write_all(&crc.finish().to_be_bytes())?;
    out.write_all(&SPILL_MAGIC)?;
    out.flush()?;
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
pub fn read_records(path: &Path) -> io::Result<Vec<TeraRecord>> {
    let file = File::open(path)?;
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
    let mut reader = BufReader::new(file);
    let mut records = Vec::with_capacity((data_len / RECORD_BYTES as u64) as usize);
    let mut crc = Crc32::new();
    let mut buf = [0u8; RECORD_BYTES];
    for _ in 0..records.capacity() {
        reader.read_exact(&mut buf)?;
        crc.update(&buf);
        let mut key = [0u8; KEY_BYTES];
        let mut value = [0u8; VALUE_BYTES];
        key.copy_from_slice(&buf[..KEY_BYTES]);
        value.copy_from_slice(&buf[KEY_BYTES..]);
        records.push(TeraRecord { key, value });
    }
    let mut footer = [0u8; FOOTER_BYTES];
    reader.read_exact(&mut footer)?;
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

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sae-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = teragen(1000, 42);
        let path = temp_path("roundtrip.spill");
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
        let path = temp_path("bitrot.spill");
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
        let path = temp_path("truncated.spill");
        write_records(&path, &teragen(10, 9)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - RECORD_BYTES]).unwrap();
        let err = read_records(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_spill_round_trips() {
        let path = temp_path("empty.spill");
        write_records(&path, &[]).unwrap();
        assert!(read_records(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_truncates_previous_attempt() {
        let path = temp_path("rewrite.spill");
        write_records(&path, &teragen(500, 1)).unwrap();
        let second = teragen(20, 2);
        write_records(&path, &second).unwrap();
        assert_eq!(read_records(&path).unwrap(), second);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_record_rejected() {
        let path = temp_path("partial.spill");
        write_records(&path, &teragen(3, 7)).unwrap();
        // Simulate a crash mid-record: chop 10 bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let err = read_records(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reports_not_found() {
        let err = read_records(Path::new("/nonexistent/sae.spill")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
