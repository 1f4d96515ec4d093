//! The on-disk codec: the CRC-32 kernel, the file envelope shared by every
//! storage file, and a bounds-checked cursor for decoding payloads.
//!
//! Every file this crate writes has the same envelope:
//!
//! ```text
//! +--------+---------+------+------------+----------------+----------+
//! | magic  | version | kind | generation | payload        | checksum |
//! | u32 LE | u8      | u8   | u64 LE     | length-defined | u32 LE   |
//! +--------+---------+------+------------+----------------+----------+
//! ```
//!
//! * `magic` is [`MAGIC`] (`"ACDS"`): a file that is not a storage file at
//!   all is rejected on its first four bytes;
//! * `version` is [`VERSION`]; a file from a future codec surfaces as
//!   [`StorageError::UnsupportedVersion`], never a misparse;
//! * `kind` says what the file *is* ([`file_kind`]) so a meta file handed
//!   to the data decoder (or vice versa) is a typed error;
//! * `generation` ties the file to one commit generation — a meta and data
//!   file only pair up when their generations agree;
//! * `checksum` is a CRC-32 (IEEE polynomial) over **everything before
//!   it**, header included, so a flipped bit anywhere in the file is
//!   caught before a single payload byte is interpreted.
//!
//! The validation order in `open_envelope` is deliberate: magic, then
//! footer checksum, then version and kind. Checking the checksum *before*
//! the version byte means a bit flip in the version field reads as the
//! corruption it is ([`StorageError::CorruptSegment`]); only a file whose
//! checksum is intact can claim to be from a future codec.

use crate::error::StorageError;
use crate::Result;

/// First four bytes of every storage file: `"ACDS"` as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ACDS");

/// Codec version this build reads and writes.
pub const VERSION: u8 = 1;

/// Envelope bytes before the payload: magic + version + kind + generation.
pub const HEADER_LEN: usize = 14;

/// Envelope bytes after the payload: the CRC-32.
pub const FOOTER_LEN: usize = 4;

/// The `kind` byte of the file envelope: what a storage file is.
pub mod file_kind {
    /// Segment metadata (`.meta`): describes and pins a data file.
    pub const META: u8 = 1;
    /// Segment data (`.dat`): the column-encoded index payload.
    pub const DATA: u8 = 2;
    /// Generation commit manifest (`commit-*.acd`).
    pub const COMMIT: u8 = 3;
    /// Append-only subscription journal (`journal.acd`).
    pub const JOURNAL: u8 = 4;
    /// Compacted subscription snapshot (`snapshot.acd`).
    pub const SNAPSHOT: u8 = 5;
}

// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-16 table-driven:
// sixteen 256-entry tables built at compile time, so the hot loop folds 16
// input bytes per iteration with independent lookups instead of one byte
// per iteration. `TABLES[0]` is the classic byte-at-a-time table (used for
// the unaligned tail); `TABLES[k][v]` is the CRC of byte `v` followed by
// `k` zero bytes, which is what lets the 16 per-chunk contributions be
// computed independently and XOR-combined.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // acd-lint: allow(panic-hygiene) const-fn table builder; `i` is the loop bound over the table length
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            // acd-lint: allow(panic-hygiene) const-fn table builder; `k` and `i` are the loop bounds
            let prev = tables[k - 1][i];
            // acd-lint: allow(panic-hygiene) index is masked to 0..256 on a 256-entry table
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
///
/// Slice-by-16: segment opens checksum the whole data file before trusting
/// a byte of it, and the broker's wire codec checksums every frame, so this
/// kernel sits on both critical paths and is several times faster than a
/// byte-at-a-time loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues a CRC-32: given `crc == crc32(a)`, returns `crc32(a ++ bytes)`
/// without touching `a` again (`crc32_update(0, bytes) == crc32(bytes)`).
/// For checksumming data that arrives in pieces, e.g. a frame header read
/// before its payload.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[inline]
    fn le32(b: &[u8]) -> u32 {
        u32::from_le_bytes(b.try_into().expect("caller slices exactly four bytes"))
    }
    #[inline]
    fn tab(t: &[u32; 256], v: u32) -> u32 {
        // acd-lint: allow(panic-hygiene) index is masked to 0..256 on a 256-entry table
        t[(v & 0xFF) as usize]
    }
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC_TABLES;
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let (w0, rest) = chunk.split_at(4);
        let (w1, rest) = rest.split_at(4);
        let (w2, w3) = rest.split_at(4);
        let a = le32(w0) ^ crc;
        let b = le32(w1);
        let c = le32(w2);
        let d = le32(w3);
        crc = tab(t15, a)
            ^ tab(t14, a >> 8)
            ^ tab(t13, a >> 16)
            ^ tab(t12, a >> 24)
            ^ tab(t11, b)
            ^ tab(t10, b >> 8)
            ^ tab(t9, b >> 16)
            ^ tab(t8, b >> 24)
            ^ tab(t7, c)
            ^ tab(t6, c >> 8)
            ^ tab(t5, c >> 16)
            ^ tab(t4, c >> 24)
            ^ tab(t3, d)
            ^ tab(t2, d >> 8)
            ^ tab(t1, d >> 16)
            ^ tab(t0, d >> 24);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ tab(t0, crc ^ b as u32);
    }
    !crc
}

/// Validates a storage file's fixed header — magic, codec version, file
/// kind — and returns the generation it was written under.
///
/// # Errors
///
/// [`StorageError::CorruptSegment`] on a short file, bad magic, or wrong
/// kind; [`StorageError::UnsupportedVersion`] on a foreign version byte.
pub fn check_index_header(bytes: &[u8], expected_kind: u8, file: &str) -> Result<u64> {
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err(StorageError::corrupt(
            file,
            format!(
                "file is {} bytes, shorter than the {}-byte envelope",
                bytes.len(),
                HEADER_LEN + FOOTER_LEN
            ),
        ));
    }
    let (header, _) = bytes.split_at(HEADER_LEN);
    let [m0, m1, m2, m3, version, kind, gen @ ..] = header else {
        return Err(StorageError::corrupt(
            file,
            "header shorter than its fixed fields",
        ));
    };
    let magic = u32::from_le_bytes([*m0, *m1, *m2, *m3]);
    if magic != MAGIC {
        return Err(StorageError::corrupt(
            file,
            format!("bad magic 0x{magic:08x}, expected 0x{MAGIC:08x}"),
        ));
    }
    if *version != VERSION {
        return Err(StorageError::UnsupportedVersion {
            file: file.into(),
            found: *version,
        });
    }
    if *kind != expected_kind {
        return Err(StorageError::corrupt(
            file,
            format!("file kind {kind} where kind {expected_kind} was expected"),
        ));
    }
    let gen: [u8; 8] = gen
        .try_into()
        .map_err(|_| StorageError::corrupt(file, "generation field is not eight bytes"))?;
    Ok(u64::from_le_bytes(gen))
}

/// Validates a storage file's trailing CRC-32 against the bytes before it.
///
/// # Errors
///
/// [`StorageError::CorruptSegment`] on a short file or a mismatch.
pub fn check_footer(bytes: &[u8], file: &str) -> Result<()> {
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err(StorageError::corrupt(
            file,
            "file too short to carry a checksum footer",
        ));
    }
    let (body, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    let stored: [u8; FOOTER_LEN] = footer
        .try_into()
        .map_err(|_| StorageError::corrupt(file, "checksum footer is not four bytes"))?;
    let stored = u32::from_le_bytes(stored);
    let computed = crc32(body);
    if stored != computed {
        return Err(StorageError::corrupt(
            file,
            format!(
                "checksum mismatch: footer says 0x{stored:08x}, bytes hash to 0x{computed:08x}"
            ),
        ));
    }
    Ok(())
}

/// Fully validates a file's envelope — magic, checksum, version, kind — and
/// returns `(generation, payload)`. The checksum is verified **before** the
/// version and kind bytes are trusted, so any single flipped bit anywhere
/// in the file reads as [`StorageError::CorruptSegment`].
pub(crate) fn open_envelope<'a>(
    bytes: &'a [u8],
    expected_kind: u8,
    file: &str,
) -> Result<(u64, &'a [u8])> {
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err(StorageError::corrupt(
            file,
            format!(
                "file is {} bytes, shorter than the {}-byte envelope",
                bytes.len(),
                HEADER_LEN + FOOTER_LEN
            ),
        ));
    }
    let magic = bytes
        .first_chunk::<4>()
        .map(|m| u32::from_le_bytes(*m))
        .ok_or_else(|| StorageError::corrupt(file, "file shorter than its magic number"))?;
    if magic != MAGIC {
        return Err(StorageError::corrupt(
            file,
            format!("bad magic 0x{magic:08x}, expected 0x{MAGIC:08x}"),
        ));
    }
    check_footer(bytes, file)?;
    let generation = check_index_header(bytes, expected_kind, file)?;
    let (_, rest) = bytes.split_at(HEADER_LEN);
    let (payload, _) = rest.split_at(rest.len() - FOOTER_LEN);
    Ok((generation, payload))
}

/// Starts a file: writes the envelope header into a fresh buffer.
pub(crate) fn begin_file(kind: u8, generation: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&generation.to_le_bytes());
    out
}

/// Finishes a file: appends the CRC-32 footer over everything written so
/// far and returns the completed bytes.
pub(crate) fn finish_file(mut out: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Appends a length-prefixed byte string.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Writes `bytes` to `path` atomically **and durably**: the contents land
/// under a temporary name in the same directory, are synced to stable
/// storage, and are renamed into place — so a reader (or a crash) never
/// observes a half-written file. The temp file is fsynced before the
/// rename (a rename can otherwise outlive its contents on power loss) and
/// the directory is fsynced after it, so the new name itself survives an
/// OS crash, not just a process death.
pub(crate) fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<()> {
    use std::io::Write;

    let display = path.display().to_string();
    let io = |e: std::io::Error| StorageError::io(&display, e);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp).map_err(io)?;
    file.write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(io)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io)?;
    sync_parent_dir(path).map_err(io)
}

/// Fsyncs the directory holding `path`, making a just-renamed or
/// just-created entry durable. Directories cannot be opened for syncing on every platform;
/// where they cannot, the rename-then-sync discipline of the callers is
/// the strongest guarantee available.
#[cfg(unix)]
pub(crate) fn sync_parent_dir(path: &std::path::Path) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::File::open(dir)?.sync_all(),
        _ => Ok(()),
    }
}

#[cfg(not(unix))]
pub(crate) fn sync_parent_dir(_path: &std::path::Path) -> std::io::Result<()> {
    Ok(())
}

/// A bounds-checked reader over a payload slice: every primitive read can
/// fail cleanly ([`StorageError::CorruptSegment`]) instead of panicking on
/// a short buffer, and counts are validated against the bytes actually
/// remaining before any allocation.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
    file: &'a str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8], file: &'a str) -> Self {
        Cursor { buf, at: 0, file }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end.and_then(|end| self.buf.get(self.at..end)) {
            Some(slice) => {
                self.at = self.at.saturating_add(n);
                Ok(slice)
            }
            None => Err(StorageError::corrupt(
                self.file,
                "payload shorter than its fields claim",
            )),
        }
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_u16(&mut self) -> Result<u16> {
        let b: [u8; 2] = self
            .take(2)?
            .try_into()
            .expect("take(2) returns exactly two bytes");
        Ok(u16::from_le_bytes(b))
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .expect("take(4) returns exactly four bytes");
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .expect("take(8) returns exactly eight bytes");
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    pub(crate) fn take_string(&mut self) -> Result<String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::corrupt(self.file, "string field is not valid UTF-8"))
    }

    /// Rejects a claimed element count that cannot fit in the bytes left
    /// (`count * min_element_size > remaining`), so corrupt counts can
    /// never drive an over-allocation.
    pub(crate) fn check_remaining(&self, count: usize, min_element_size: usize) -> Result<()> {
        let need = count.checked_mul(min_element_size);
        let remaining = self.buf.len() - self.at;
        match need {
            Some(need) if need <= remaining => Ok(()),
            _ => Err(StorageError::corrupt(
                self.file,
                format!(
                    "count {count} needs at least {} bytes but only {remaining} remain",
                    count.saturating_mul(min_element_size)
                ),
            )),
        }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Asserts the payload was consumed exactly: trailing bytes are as
    /// corrupt as missing ones.
    pub(crate) fn finish(self) -> Result<()> {
        if self.at != self.buf.len() {
            return Err(StorageError::corrupt(
                self.file,
                format!("{} trailing bytes after the last field", self.remaining()),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc32_agrees_with_a_bitwise_reference_at_every_length() {
        // Bit-at-a-time reference: the polynomial definition, no tables.
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = u32::MAX;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        // Deterministic pseudo-random buffer long enough to exercise the
        // 16-byte main loop many times plus every tail length 0..16.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..257)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for len in 0..buf.len() {
            let whole = reference(&buf[..len]);
            assert_eq!(crc32(&buf[..len]), whole, "length {len}");
            // The incremental form agrees wherever the input is split.
            for split in 0..=len {
                let resumed = crc32_update(crc32(&buf[..split]), &buf[split..len]);
                assert_eq!(resumed, whole, "length {len} split at {split}");
            }
        }
    }

    #[test]
    fn envelope_round_trips() {
        let mut out = begin_file(file_kind::DATA, 7);
        out.extend_from_slice(b"payload");
        let bytes = finish_file(out);
        let (generation, payload) = open_envelope(&bytes, file_kind::DATA, "test").unwrap();
        assert_eq!(generation, 7);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn every_flipped_bit_is_a_corrupt_segment() {
        let mut out = begin_file(file_kind::META, 3);
        out.extend_from_slice(b"some meta payload");
        let bytes = finish_file(out);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                let err = open_envelope(&flipped, file_kind::META, "test")
                    .expect_err("flipped bit must not validate");
                assert!(
                    err.is_corrupt(),
                    "byte {i} bit {bit} produced a non-corrupt error: {err}"
                );
            }
        }
    }

    #[test]
    fn truncations_are_corrupt() {
        let mut out = begin_file(file_kind::COMMIT, 1);
        out.extend_from_slice(&[9u8; 32]);
        let bytes = finish_file(out);
        for len in 0..bytes.len() {
            let err = open_envelope(&bytes[..len], file_kind::COMMIT, "test")
                .expect_err("truncation must not validate");
            assert!(err.is_corrupt(), "length {len}: {err}");
        }
    }

    #[test]
    fn wrong_kind_is_corrupt_and_future_version_is_typed() {
        let bytes = finish_file(begin_file(file_kind::DATA, 1));
        assert!(open_envelope(&bytes, file_kind::META, "test")
            .unwrap_err()
            .is_corrupt());

        // A genuinely future version (checksum intact) is the typed
        // version error, not corruption.
        let mut future = begin_file(file_kind::DATA, 1);
        future[4] = VERSION + 1;
        let future = finish_file(future);
        assert!(matches!(
            open_envelope(&future, file_kind::DATA, "test").unwrap_err(),
            StorageError::UnsupportedVersion { found, .. } if found == VERSION + 1
        ));
    }

    #[test]
    fn cursor_rejects_short_reads_overcounts_and_trailing_bytes() {
        let buf = [1u8, 2, 3, 4];
        let mut c = Cursor::new(&buf, "test");
        assert!(c.take_u64().is_err());
        let mut c = Cursor::new(&buf, "test");
        assert!(c.check_remaining(3, 2).is_err());
        assert!(c.check_remaining(2, 2).is_ok());
        assert!(c.check_remaining(usize::MAX, 8).is_err());
        c.take(2).unwrap();
        assert!(c.finish().is_err());
    }
}
