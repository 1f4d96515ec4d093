//! The one codec: the CRC-32 kernel, the envelope shared by every storage
//! file, and the bounds-checked [`Cursor`] and field writers that every
//! decoder and encoder in the workspace uses — this crate's files, the
//! covering index's saved file and the broker's wire frames alike.
//!
//! Every file this crate writes has the same envelope:
//!
//! ```text
//! +--------+---------+------+----------+----------------+----------+
//! | magic  | version | kind | reserved | payload        | checksum |
//! | u32 LE | u8      | u8   | u64 LE   | length-defined | u32 LE   |
//! +--------+---------+------+----------+----------------+----------+
//! ```
//!
//! * `magic` is [`MAGIC`] (`"ACDS"`): a file that is not a storage file at
//!   all is rejected as corrupt;
//! * `version` is [`VERSION`]; a file from a future codec surfaces as
//!   [`StorageError::UnsupportedVersion`], never a misparse;
//! * `kind` says what the file *is* ([`file_kind`]) so a journal handed to
//!   the index decoder (or vice versa) is a typed error;
//! * `reserved` is written as zero and ignored on read (it numbered the
//!   generations of a retired multi-file save);
//! * `checksum` is a CRC-32 (IEEE polynomial) over **everything before
//!   it**, header included, so a flipped bit anywhere in the file is
//!   caught before a single payload byte is interpreted.
//!
//! [`open_envelope`] verifies the checksum before it reads a header byte, so
//! a bit flip in the version field reads as the corruption it is
//! ([`StorageError::CorruptSegment`]); only a file whose checksum is intact
//! can claim to be from a future codec. The journal has no checksum
//! footer (each of its records carries its own), so its header is checked
//! alone.
//!
//! Fields are little-endian; floats travel as their IEEE-754 bit patterns.
//! A [`Cursor`] read fails with a [`DecodeError`], which carries no file or
//! frame: each decoder turns it into its own typed error once, at its
//! boundary — [`StorageError::CorruptSegment`] naming the file here,
//! `ServiceError::CorruptFrame` in the broker.

use std::borrow::Cow;
use std::fmt;

use acd_sfc::CurveKind;

use crate::error::StorageError;
use crate::Result;

/// First four bytes of every storage file: `"ACDS"` as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ACDS");

/// Codec version this build reads and writes.
pub const VERSION: u8 = 1;

/// Envelope bytes before the payload: magic + version + kind + reserved.
pub const HEADER_LEN: usize = 14;

/// Envelope bytes after the payload: the CRC-32.
pub const FOOTER_LEN: usize = 4;

/// Longest LEB128 encoding of a `u64`: nine 7-bit groups and one last bit.
const VARINT_MAX_LEN: usize = 10;

/// The `kind` byte of the file envelope: what a storage file is. Kinds 1–3
/// named the retired segment layout's `.meta`, `.dat` and commit files; no
/// reader accepts them.
pub mod file_kind {
    /// Append-only subscription journal (`journal.acd`).
    pub const JOURNAL: u8 = 4;
    /// Compacted subscription snapshot (`snapshot.acd`).
    pub const SNAPSHOT: u8 = 5;
    /// A saved covering index (`index.acd`).
    pub const INDEX: u8 = 6;
}

/// The on-disk tag of a curve family.
pub fn curve_tag(kind: CurveKind) -> u8 {
    match kind {
        CurveKind::Z => 0,
        CurveKind::Hilbert => 1,
        CurveKind::Gray => 2,
    }
}

/// Decodes a curve tag written by [`curve_tag`], or `None` for a foreign
/// value (which readers surface as corruption).
pub fn curve_from_tag(tag: u8) -> Option<CurveKind> {
    match tag {
        0 => Some(CurveKind::Z),
        1 => Some(CurveKind::Hilbert),
        2 => Some(CurveKind::Gray),
        _ => None,
    }
}

// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-16 table-driven:
// sixteen 256-entry tables built at compile time, so the hot loop folds 16
// input bytes per iteration with independent lookups instead of one byte
// per iteration. `TABLES[0]` is the classic byte-at-a-time table (used for
// the unaligned tail); `TABLES[k][v]` is the CRC of byte `v` followed by
// `k` zero bytes, which is what lets the 16 per-chunk contributions be
// computed independently and XOR-combined.
#[expect(
    clippy::indexing_slicing,
    reason = "const table builder: `k` and `i` are the loop bounds, the inner index is masked to 0..256"
)]
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
///
/// Slice-by-16: opening a saved index or snapshot checksums the whole file
/// before trusting a byte of it, and the broker's wire codec checksums every frame, so this
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
    #[expect(clippy::indexing_slicing, reason = "masked into a 256-entry table")]
    fn tab(t: &[u32; 256], v: u32) -> u32 {
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

/// Validates the fixed header at the front of `bytes` — magic, codec
/// version, file kind. Reads nothing past the header.
///
/// # Errors
///
/// [`StorageError::CorruptSegment`] on a short file, bad magic, or wrong
/// kind; [`StorageError::UnsupportedVersion`] on a foreign version byte.
pub(crate) fn check_index_header(bytes: &[u8], expected_kind: u8, file: &str) -> Result<()> {
    let Some(header) = bytes.first_chunk::<HEADER_LEN>() else {
        return Err(StorageError::corrupt(
            file,
            format!(
                "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            ),
        ));
    };
    let [m0, m1, m2, m3, version, kind, ..] = *header;
    let magic = u32::from_le_bytes([m0, m1, m2, m3]);
    if magic != MAGIC {
        return Err(StorageError::corrupt(
            file,
            format!("bad magic 0x{magic:08x}, expected 0x{MAGIC:08x}"),
        ));
    }
    if version != VERSION {
        return Err(StorageError::UnsupportedVersion {
            file: file.into(),
            found: version,
        });
    }
    if kind != expected_kind {
        return Err(StorageError::corrupt(
            file,
            format!("file kind {kind} where kind {expected_kind} was expected"),
        ));
    }
    Ok(())
}

/// Validates a storage file's trailing CRC-32 against the bytes before it,
/// and returns those bytes.
///
/// # Errors
///
/// [`StorageError::CorruptSegment`] on a short file or a mismatch.
pub(crate) fn check_footer<'a>(bytes: &'a [u8], file: &str) -> Result<&'a [u8]> {
    let Some((body, footer)) = bytes.split_last_chunk::<FOOTER_LEN>() else {
        return Err(StorageError::corrupt(
            file,
            "file too short to carry a checksum footer",
        ));
    };
    let stored = u32::from_le_bytes(*footer);
    let computed = crc32(body);
    if stored != computed {
        return Err(StorageError::corrupt(
            file,
            format!(
                "checksum mismatch: footer says 0x{stored:08x}, bytes hash to 0x{computed:08x}"
            ),
        ));
    }
    Ok(body)
}

/// Fully validates a file's envelope — checksum, then magic, version and
/// kind — and returns its payload. The checksum is verified **before** any
/// header byte is trusted, so any single flipped bit anywhere in the file
/// reads as [`StorageError::CorruptSegment`] naming `file`.
///
/// # Errors
///
/// [`StorageError::CorruptSegment`] on any malformation of the envelope;
/// [`StorageError::UnsupportedVersion`] on a checksum-intact file from
/// another codec version.
pub fn open_envelope<'a>(bytes: &'a [u8], expected_kind: u8, file: &str) -> Result<&'a [u8]> {
    let body = check_footer(bytes, file)?;
    check_index_header(body, expected_kind, file)?;
    Ok(body.get(HEADER_LEN..).unwrap_or_default())
}

/// Starts a file of `kind`: writes the envelope header into a fresh buffer.
pub fn begin_file(kind: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&0u64.to_le_bytes());
    out
}

/// Finishes a file: appends the CRC-32 footer over everything written so
/// far and returns the completed bytes.
pub fn finish_file(mut out: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Writes `bytes` to `path` atomically **and durably**: the contents land
/// under a temporary name in the same directory, are synced to stable
/// storage, and are renamed into place — so a reader (or a crash) never
/// observes a half-written file. The temp file is fsynced before the
/// rename (a rename can otherwise outlive its contents on power loss) and
/// the directory is fsynced after it, so the new name itself survives an
/// OS crash, not just a process death.
///
/// # Errors
///
/// [`StorageError::Io`] if any step fails.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<()> {
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

/// Appends a `u32` length and then `bytes`: what [`Cursor::take_string`]
/// reads.
#[inline(always)]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends a `u32` count and then each `(lo, hi)` range as two `f64`s:
/// what [`Cursor::take_bounds`] reads.
#[inline(always)]
pub fn put_bounds(out: &mut Vec<u8>, bounds: &[(f64, f64)]) {
    out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
    for (lo, hi) in bounds {
        out.extend_from_slice(&lo.to_le_bytes());
        out.extend_from_slice(&hi.to_le_bytes());
    }
}

/// Appends `value` as a LEB128 varint: seven bits a byte, low bits first,
/// the high bit set on every byte but the last.
#[inline(always)]
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Why a payload failed to decode. It names no file or frame: each decoder
/// converts it once, at its boundary, into its own typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(Cow<'static, str>);

impl DecodeError {
    /// A decode failure for `reason`; a `&'static str` reason allocates
    /// nothing.
    pub fn new(reason: impl Into<Cow<'static, str>>) -> Self {
        DecodeError(reason.into())
    }

    /// The reason, for the caller's own error type.
    pub fn into_reason(self) -> String {
        self.0.into_owned()
    }

    /// This failure as [`StorageError::CorruptSegment`] in `file`.
    pub(crate) fn in_file(self, file: &str) -> StorageError {
        StorageError::corrupt(file, self.0)
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked reader over a payload: every read fails cleanly with a
/// [`DecodeError`] instead of panicking on a short buffer, and every count
/// is checked against the bytes left before it sizes an allocation.
///
/// Every reader here and every writer above is `#[inline(always)]`: the
/// broker encodes and decodes each frame through them from another crate,
/// where rustc otherwise leaves calls in the per-field loops, measurably
/// slower on the publish paths.
#[derive(Debug)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline(always)]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { rest: buf }
    }

    /// The next `n` bytes.
    #[inline(always)]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(short)?;
        self.rest = rest;
        Ok(head)
    }

    #[inline(always)]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or_else(short)?;
        self.rest = rest;
        Ok(*head)
    }

    /// One byte.
    #[inline(always)]
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        let [byte] = self.take_array()?;
        Ok(byte)
    }

    /// A little-endian `u32`.
    #[inline(always)]
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline(always)]
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// An `f64` from its little-endian IEEE-754 bits.
    #[inline(always)]
    pub fn take_f64(&mut self) -> Result<f64, DecodeError> {
        self.take_u64().map(f64::from_bits)
    }

    /// A UTF-8 string behind a `u32` length, as [`put_bytes`] writes it.
    #[inline(always)]
    pub fn take_string(&mut self) -> Result<String, DecodeError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError::new("string field is not valid UTF-8"))
    }

    /// Reads one LEB128 varint. Only what [`put_varint`] writes is accepted:
    /// at most ten bytes, no bits beyond the 64th, and no zero padding, so
    /// every value has exactly one encoding.
    #[inline(always)]
    pub fn take_varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        for (i, &byte) in self.rest.iter().take(VARINT_MAX_LEN).enumerate() {
            let bits = u64::from(byte & 0x7f);
            if i == VARINT_MAX_LEN - 1 && bits > 1 {
                return Err(DecodeError::new("varint overflows 64 bits"));
            }
            value |= bits << (7 * i);
            if byte < 0x80 {
                if byte == 0 && i > 0 {
                    return Err(DecodeError::new("varint is padded with a zero byte"));
                }
                self.rest = self.rest.get(i + 1..).unwrap_or_default();
                return Ok(value);
            }
        }
        Err(DecodeError::new(if self.rest.len() < VARINT_MAX_LEN {
            "payload ends inside a varint"
        } else {
            "varint longer than ten bytes"
        }))
    }

    /// Reads a `u32` count and then that many elements with `take`. The
    /// count is checked against the bytes left, at `min_size` bytes an
    /// element, before the list is sized.
    #[inline(always)]
    pub fn take_list<T>(
        &mut self,
        min_size: usize,
        mut take: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.take_u32()? as usize;
        self.check_remaining(n, min_size)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(take(self)?);
        }
        Ok(list)
    }

    /// A counted list of `(lo, hi)` ranges, as [`put_bounds`] writes it.
    #[inline(always)]
    pub fn take_bounds(&mut self) -> Result<Vec<(f64, f64)>, DecodeError> {
        self.take_list(16, |c| Ok((c.take_f64()?, c.take_f64()?)))
    }

    /// Rejects a claimed element count that cannot fit in the bytes left
    /// (`count * min_element_size > remaining`), so a corrupt count can
    /// never drive an over-allocation.
    #[inline(always)]
    pub fn check_remaining(
        &self,
        count: usize,
        min_element_size: usize,
    ) -> Result<(), DecodeError> {
        let remaining = self.remaining();
        match count.checked_mul(min_element_size) {
            Some(need) if need <= remaining => Ok(()),
            _ => Err(DecodeError::new(format!(
                "count {count} needs at least {} bytes but only {remaining} remain",
                count.saturating_mul(min_element_size)
            ))),
        }
    }

    /// Bytes not yet consumed.
    #[inline(always)]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Asserts the payload was consumed exactly: trailing bytes are as
    /// corrupt as missing ones.
    #[inline(always)]
    pub fn finish(self) -> Result<(), DecodeError> {
        if !self.rest.is_empty() {
            return Err(DecodeError::new(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn short() -> DecodeError {
    DecodeError::new("payload shorter than its fields claim")
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
        let mut out = begin_file(file_kind::INDEX);
        out.extend_from_slice(b"payload");
        let bytes = finish_file(out);
        let payload = open_envelope(&bytes, file_kind::INDEX, "test").unwrap();
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn every_flipped_bit_is_a_corrupt_segment() {
        let mut out = begin_file(file_kind::SNAPSHOT);
        out.extend_from_slice(b"some snapshot payload");
        let bytes = finish_file(out);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                let err = open_envelope(&flipped, file_kind::SNAPSHOT, "test")
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
        let mut out = begin_file(file_kind::INDEX);
        out.extend_from_slice(&[9u8; 32]);
        let bytes = finish_file(out);
        for len in 0..bytes.len() {
            let err = open_envelope(&bytes[..len], file_kind::INDEX, "test")
                .expect_err("truncation must not validate");
            assert!(err.is_corrupt(), "length {len}: {err}");
        }
    }

    #[test]
    fn wrong_kind_is_corrupt_and_future_version_is_typed() {
        let bytes = finish_file(begin_file(file_kind::SNAPSHOT));
        assert!(open_envelope(&bytes, file_kind::INDEX, "test")
            .unwrap_err()
            .is_corrupt());

        // A genuinely future version (checksum intact) is the typed
        // version error, not corruption.
        let mut future = begin_file(file_kind::INDEX);
        future[4] = VERSION + 1;
        let future = finish_file(future);
        assert!(matches!(
            open_envelope(&future, file_kind::INDEX, "test").unwrap_err(),
            StorageError::UnsupportedVersion { found, .. } if found == VERSION + 1
        ));
    }

    #[test]
    fn cursor_rejects_short_reads_overcounts_and_trailing_bytes() {
        let buf = [1u8, 2, 3, 4];
        let mut c = Cursor::new(&buf);
        assert!(c.take_u64().is_err());
        let mut c = Cursor::new(&buf);
        assert!(c.check_remaining(3, 2).is_err());
        assert!(c.check_remaining(2, 2).is_ok());
        assert!(c.check_remaining(usize::MAX, 8).is_err());
        c.take(2).unwrap();
        assert!(c.finish().is_err());
    }

    #[test]
    fn curve_tags_round_trip_and_reject_foreign_values() {
        for kind in [CurveKind::Z, CurveKind::Hilbert, CurveKind::Gray] {
            assert_eq!(curve_from_tag(curve_tag(kind)), Some(kind));
        }
        assert_eq!(curve_from_tag(9), None);
    }
}
