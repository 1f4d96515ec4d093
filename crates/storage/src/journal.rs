//! The broker daemon's subscription journal and snapshot.
//!
//! The journal (`journal.acd`) is a record log: each accepted
//! subscribe/unsubscribe is encoded as a length-prefixed, CRC-framed record
//! and fsynced (`fdatasync`) before the daemon acknowledges it, so even an
//! OS crash or power loss loses only operations that were never acked.
//!
//! On disk the file is `header ‖ records ‖ slack`: behind the records it is
//! **zero-filled up to a length it already owns**, and an append overwrites
//! the head of that slack. An `fdatasync` after a write that changed the
//! file's length must also commit the length (on ext4, a jbd2 transaction);
//! one after an in-place overwrite flushes the data block alone. Where an
//! overwrite is no cheaper (copy-on-write filesystems) the layout gains and
//! costs nothing. [`SubscriptionJournal::append`] gives the order in which
//! the slack is extended, the record written and each synced.
//!
//! On restart the journal is replayed up to its **durable prefix**: replay
//! stops at the first record whose envelope does not validate — a zero
//! length field (the slack), a length that overruns the file, a CRC
//! mismatch (a torn tail from a crash mid-append is expected, not an error)
//! — and the file is truncated there, so every byte a later append lands on
//! is a zero this process wrote and synced. This is deliberately looser than
//! the snapshot's all-or-nothing discipline: a journal's tail is the one
//! place where a half-written record is a normal crash artifact.
//!
//! The snapshot (`snapshot.acd`) compacts the journal on graceful shutdown:
//! the live set, folded from the snapshot and the journal's acked records
//! ([`SubscriptionJournal::read_acked`]), is written as one
//! checksummed-envelope file (temp + rename, so it is never seen
//! half-written), and the journal is reset. Start-up state is
//! `snapshot ∘ journal`: the snapshot if present, then the journal over it.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use acd_subscription::SubId;

use crate::codec::{self, file_kind, Cursor, DecodeError};
use crate::error::StorageError;
use crate::Result;

/// One journaled operation. Broker and client identifiers travel as raw
/// `u64`s so the storage layer stays independent of the broker crate.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A subscription was registered (or re-registered) at a broker.
    Subscribe {
        /// Broker the subscription is registered at.
        at: u64,
        /// The owning client.
        client: u64,
        /// Network-unique subscription identifier.
        id: SubId,
        /// Per-attribute `[lo, hi]` ranges in schema attribute order.
        bounds: Vec<(f64, f64)>,
    },
    /// A subscription was retracted.
    Unsubscribe {
        /// Broker the subscription was registered at.
        at: u64,
        /// The identifier that was retracted.
        id: SubId,
    },
}

mod record_kind {
    pub const SUBSCRIBE: u8 = 1;
    pub const UNSUBSCRIBE: u8 = 2;
}

fn encode_record(record: &JournalRecord, out: &mut Vec<u8>) {
    out.clear();
    // Record envelope: payload_len u32 | payload | crc32 over the payload.
    out.extend_from_slice(&[0, 0, 0, 0]);
    match record {
        JournalRecord::Subscribe {
            at,
            client,
            id,
            bounds,
        } => {
            out.push(record_kind::SUBSCRIBE);
            out.extend_from_slice(&at.to_le_bytes());
            out.extend_from_slice(&client.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
            codec::put_bounds(out, bounds);
        }
        JournalRecord::Unsubscribe { at, id } => {
            out.push(record_kind::UNSUBSCRIBE);
            out.extend_from_slice(&at.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    let payload_len = (out.len() - 4) as u32;
    let (len_field, payload) = out.split_at_mut(4);
    len_field.copy_from_slice(&payload_len.to_le_bytes());
    let crc = codec::crc32(payload);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Reads one record envelope and decodes its payload. Where the journal's
/// durable prefix ends this fails: a zero length field, a length that
/// overruns the buffer, a CRC that does not match, or a payload that does
/// not decode.
fn take_record(c: &mut Cursor) -> Result<JournalRecord, DecodeError> {
    let len = c.take_u32()? as usize;
    // No record has an empty payload, and `crc32("") == 0`: without this
    // rule the journal's zero-filled slack would pass the envelope check
    // and be stopped only by the payload decoder.
    if len == 0 {
        return Err(DecodeError::new("empty record"));
    }
    let payload = c.take(len)?;
    if c.take_u32()? != codec::crc32(payload) {
        return Err(DecodeError::new("record checksum mismatch"));
    }
    decode_payload(payload)
}

/// Decodes the records in `buf`, stopping at the durable prefix. Returns
/// the records and the byte length of the prefix they occupy.
fn decode_records(buf: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut c = Cursor::new(buf);
    let mut records = Vec::new();
    let mut durable = 0;
    while let Ok(record) = take_record(&mut c) {
        records.push(record);
        durable = buf.len() - c.remaining();
    }
    (records, durable)
}

fn decode_payload(payload: &[u8]) -> Result<JournalRecord, DecodeError> {
    let mut c = Cursor::new(payload);
    let record = match c.take_u8()? {
        record_kind::SUBSCRIBE => JournalRecord::Subscribe {
            at: c.take_u64()?,
            client: c.take_u64()?,
            id: c.take_u64()?,
            bounds: c.take_bounds()?,
        },
        record_kind::UNSUBSCRIBE => JournalRecord::Unsubscribe {
            at: c.take_u64()?,
            id: c.take_u64()?,
        },
        other => {
            return Err(DecodeError::new(format!(
                "unknown journal record kind {other}"
            )))
        }
    };
    c.finish()?;
    Ok(record)
}

/// How far one extension grows the file. Its zero-fill and length sync
/// are amortised over the ~12–19 thousand records a chunk holds.
const EXTENSION_CHUNK: u64 = 1 << 20;

/// Appends `len` zero bytes at `allocated`, the file's current length.
fn extend_with_zeros<W: Write + Seek>(out: &mut W, allocated: u64, len: u64) -> io::Result<()> {
    out.seek(SeekFrom::Start(allocated))?;
    io::copy(&mut io::repeat(0).take(len), out).map(|_| ())
}

/// Writes `bytes` at `end`, wherever an earlier — possibly failed — write
/// left the cursor, so a retry after a partial write overwrites the
/// remains instead of landing behind them.
fn write_at<W: Write + Seek>(out: &mut W, end: u64, bytes: &[u8]) -> io::Result<()> {
    out.seek(SeekFrom::Start(end))?;
    out.write_all(bytes)
}

/// The subscription journal: `header ‖ records ‖ zero-filled slack`.
pub struct SubscriptionJournal {
    file: File,
    path: PathBuf,
    scratch: Vec<u8>,
    /// Offset of the next record: the header plus every record whose
    /// sync succeeded.
    end: u64,
    /// The file's length. Every byte in `end..allocated` is a zero this
    /// process wrote and synced, or the remains of its own failed append.
    allocated: u64,
}

impl std::fmt::Debug for SubscriptionJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriptionJournal")
            .field("path", &self.path)
            .field("len", &self.end)
            .field("allocated", &self.allocated)
            .finish()
    }
}

impl SubscriptionJournal {
    /// Opens (creating if absent) the journal at `path` and replays its
    /// durable prefix. Everything behind that prefix — a torn or corrupt
    /// tail, the zero-filled slack of the process that wrote it — is
    /// truncated away, so the returned records are exactly what survives
    /// and the file is exactly [`len`](Self::len) bytes long; but a
    /// malformed *header* means the file is not a journal at all and is a
    /// typed error, never silently clobbered. A newly created journal's
    /// directory entry is synced, so the file itself survives a power cut.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on filesystem failure;
    /// [`StorageError::CorruptSegment`] / [`StorageError::UnsupportedVersion`]
    /// if an existing file's header is not a valid journal header.
    pub fn open(path: &Path) -> Result<(Self, Vec<JournalRecord>)> {
        let display = path.display().to_string();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StorageError::io(&display, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StorageError::io(&display, e))?;

        let (records, end) = if bytes.is_empty() {
            let header = codec::begin_file(file_kind::JOURNAL);
            file.write_all(&header)
                .and_then(|()| file.sync_data())
                .and_then(|()| codec::sync_parent_dir(path))
                .map_err(|e| StorageError::io(&display, e))?;
            (Vec::new(), codec::HEADER_LEN as u64)
        } else {
            codec::check_index_header(&bytes, file_kind::JOURNAL, &display)?;
            let body = bytes.get(codec::HEADER_LEN..).unwrap_or_default();
            let (replayed, durable) = decode_records(body);
            let durable_end = (codec::HEADER_LEN + durable) as u64;
            if durable_end < bytes.len() as u64 {
                file.set_len(durable_end)
                    .map_err(|e| StorageError::io(&display, e))?;
            }
            (replayed, durable_end)
        };
        Ok((
            SubscriptionJournal {
                file,
                path: path.to_owned(),
                scratch: Vec::new(),
                end,
                allocated: end,
            },
            records,
        ))
    }

    /// Bytes of the header plus the durable records — the offset the next
    /// record lands at. The file itself is longer by the zero-filled
    /// slack, so this, not the file's length, is what the journal holds.
    // A journal always holds its header, so there is no empty to ask about.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        self.end
    }

    /// Appends one record and syncs it to stable storage (`fdatasync`)
    /// before returning, so an acknowledgement sent after this call
    /// survives not just the death of the process but an OS crash or
    /// power loss.
    ///
    /// The order is: if the record does not fit in the slack, **extend**
    /// the file by whole zero-filled chunks and **`sync_all`** the new
    /// length; **write** the record at [`len`](Self::len), over zeros;
    /// **`sync_data`** it — which, the length being unchanged, flushes
    /// the record's data block and commits no metadata; only then
    /// **advance** `len`. A failure at any step leaves `len` where it
    /// was, so the next append (the client's retry) overwrites whatever
    /// the failed one left behind.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the extension, the write or a sync fails.
    pub fn append(&mut self, record: &JournalRecord) -> Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_record(record, &mut scratch);
        let outcome = self.append_encoded(&scratch);
        self.scratch = scratch;
        outcome.map_err(|e| StorageError::io(self.path.display().to_string(), e))
    }

    fn append_encoded(&mut self, bytes: &[u8]) -> io::Result<()> {
        let record_end = self.end + bytes.len() as u64;
        if record_end > self.allocated {
            let grow = (record_end - self.allocated).div_ceil(EXTENSION_CHUNK) * EXTENSION_CHUNK;
            extend_with_zeros(&mut self.file, self.allocated, grow)?;
            self.file.sync_all()?;
            self.allocated += grow;
        }
        write_at(&mut self.file, self.end, bytes)?;
        self.file.sync_data()?;
        self.end = record_end;
        Ok(())
    }

    /// Reads back the acked records, `header..len` of the file this handle
    /// holds — unlike a re-[`open`](Self::open), not the remains of a failed
    /// append behind them.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the read fails, [`StorageError::CorruptSegment`]
    /// if an acked record no longer decodes.
    pub fn read_acked(&self) -> Result<Vec<JournalRecord>> {
        let display = self.path.display().to_string();
        let mut bytes = vec![0; (self.end - codec::HEADER_LEN as u64) as usize];
        let mut file = &self.file;
        file.seek(SeekFrom::Start(codec::HEADER_LEN as u64))
            .and_then(|_| file.read_exact(&mut bytes))
            .map_err(|e| StorageError::io(&display, e))?;
        match decode_records(&bytes) {
            (records, durable) if durable == bytes.len() => Ok(records),
            _ => Err(StorageError::corrupt(display, "acked record corrupt")),
        }
    }

    /// Resets the journal to empty (header only), slack included, so no
    /// old record is left behind the header for a later replay to find.
    /// Called after the live set has been compacted into a snapshot.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the truncation fails.
    pub fn reset(&mut self) -> Result<()> {
        let failed = |e| StorageError::io(self.path.display().to_string(), e);
        let header_end = codec::HEADER_LEN as u64;
        self.file.set_len(header_end).map_err(failed)?;
        // The file is header-only from here on, whether or not the sync
        // below reports success.
        self.end = header_end;
        self.allocated = header_end;
        self.file.sync_all().map_err(failed)
    }
}

/// Atomically writes the live subscription set as a snapshot file.
///
/// # Errors
///
/// [`StorageError::Io`] if the write fails.
pub fn write_snapshot(path: &Path, records: &[JournalRecord]) -> Result<()> {
    let mut out = codec::begin_file(file_kind::SNAPSHOT);
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    let mut scratch = Vec::new();
    for record in records {
        encode_record(record, &mut scratch);
        out.extend_from_slice(&scratch);
    }
    let out = codec::finish_file(out);
    codec::write_atomic(path, &out)
}

/// Reads a snapshot file back; `Ok(None)` if it does not exist.
///
/// Unlike the journal, a snapshot is written atomically, so any
/// malformation inside it is real corruption and surfaces as a typed
/// error — never as a silently shortened subscription set.
///
/// # Errors
///
/// [`StorageError::Io`] / [`StorageError::CorruptSegment`] as above.
pub fn read_snapshot(path: &Path) -> Result<Option<Vec<JournalRecord>>> {
    let display = path.display().to_string();
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StorageError::io(&display, e)),
    };
    let payload = codec::open_envelope(&bytes, file_kind::SNAPSHOT, &display)?;
    decode_snapshot(payload)
        .map(Some)
        .map_err(|e| e.in_file(&display))
}

/// A snapshot's payload: a `u64` record count, then exactly that many
/// record envelopes.
fn decode_snapshot(payload: &[u8]) -> Result<Vec<JournalRecord>, DecodeError> {
    let mut c = Cursor::new(payload);
    let count = usize::try_from(c.take_u64()?)
        .map_err(|_| DecodeError::new("record count exceeds the address space"))?;
    // The smallest envelope: length, a one-byte payload, checksum.
    c.check_remaining(count, 4 + 1 + 4)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        records.push(take_record(&mut c)?);
    }
    c.finish()?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER_END: u64 = codec::HEADER_LEN as u64;

    /// A journal path private to one test, removed when the test ends.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let name = format!("acd-journal-{tag}-{}.acd", std::process::id());
            let path = std::env::temp_dir().join(name);
            std::fs::remove_file(&path).ok();
            TempPath(path)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Subscribe {
                at: 0,
                client: 7,
                id: 100,
                bounds: vec![(0.0, 1.0), (-3.5, 2.25)],
            },
            JournalRecord::Unsubscribe { at: 0, id: 100 },
            JournalRecord::Subscribe {
                at: 2,
                client: 8,
                id: 101,
                bounds: vec![(10.0, 20.0), (30.0, 40.0)],
            },
        ]
    }

    /// A subscribe record `37 + 16 * attrs` bytes long once encoded.
    fn wide_record(id: SubId, attrs: usize) -> JournalRecord {
        JournalRecord::Subscribe {
            at: 1,
            client: 9,
            id,
            bounds: (0..attrs).map(|i| (i as f64, i as f64 + 0.5)).collect(),
        }
    }

    fn encoded(record: &JournalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(record, &mut out);
        out
    }

    /// The parent format: a header and contiguous records, no slack.
    fn image_of(records: &[JournalRecord]) -> Vec<u8> {
        let mut image = codec::begin_file(file_kind::JOURNAL);
        for record in records {
            image.extend_from_slice(&encoded(record));
        }
        image
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    /// Opens the journal and checks what every open must leave behind:
    /// `len()` is the header plus the replayed records, and the file has
    /// been cut to exactly that, whatever its length was.
    fn reopen(path: &Path) -> (SubscriptionJournal, Vec<JournalRecord>) {
        let (journal, replayed) = SubscriptionJournal::open(path).unwrap();
        assert_eq!(journal.len(), image_of(&replayed).len() as u64);
        assert_eq!(file_len(path), journal.len());
        (journal, replayed)
    }

    #[test]
    fn journal_replays_what_was_appended() {
        let path = TempPath::new("replay");
        let (mut journal, replayed) = reopen(&path.0);
        assert!(replayed.is_empty());
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        assert_eq!(journal.len(), image_of(&sample_records()).len() as u64);
        assert_eq!(file_len(&path.0), HEADER_END + EXTENSION_CHUNK);
        drop(journal);
        let (_, replayed) = reopen(&path.0);
        assert_eq!(replayed, sample_records());
    }

    #[test]
    fn torn_tail_is_truncated_to_the_durable_prefix() {
        let path = TempPath::new("torn");
        let (mut journal, _) = reopen(&path.0);
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        let last_end = journal.len() as usize;
        drop(journal);
        let bytes = std::fs::read(&path.0).unwrap();
        assert!(bytes.len() > last_end, "the slack stays behind the records");
        let acked = &sample_records()[..2];
        let last_start = image_of(acked).len();
        let extra = JournalRecord::Unsubscribe { at: 1, id: 55 };

        // A crash mid-append leaves a prefix of the last record with the
        // zeros of the slack behind it; a bad sector flips a byte of it.
        for offset in last_start..last_end {
            let mut cut = bytes.clone();
            cut.get_mut(offset..).unwrap().fill(0);
            let mut flipped = bytes.clone();
            *flipped.get_mut(offset).unwrap() ^= 0x40;
            for damaged in [cut, flipped] {
                std::fs::write(&path.0, &damaged).unwrap();
                let (mut journal, replayed) = reopen(&path.0);
                assert_eq!(replayed, acked, "damage at offset {offset}");
                // The truncated journal stays appendable and consistent.
                journal.append(&extra).unwrap();
                drop(journal);
                let (_, replayed) = reopen(&path.0);
                assert_eq!(replayed, [acked, std::slice::from_ref(&extra)].concat());
            }
        }
    }

    #[test]
    fn records_across_chunk_boundaries_and_extensions_replay_whole() {
        let path = TempPath::new("chunks");
        let (mut journal, _) = reopen(&path.0);
        // The second record straddles the first chunk's end; the third is
        // wider than two chunks, so one extension has to grow by three.
        let records = [
            wide_record(1, 40_000),
            wide_record(2, 40_000),
            wide_record(3, 200_000),
            JournalRecord::Unsubscribe { at: 1, id: 2 },
        ];
        let chunks_after = [1, 2, 5, 5];
        let mut expected_len = HEADER_END;
        for (record, chunks) in records.iter().zip(chunks_after) {
            journal.append(record).unwrap();
            expected_len += encoded(record).len() as u64;
            assert_eq!(journal.len(), expected_len);
            assert_eq!(file_len(&path.0), HEADER_END + chunks * EXTENSION_CHUNK);
        }
        drop(journal);
        let (_, replayed) = reopen(&path.0);
        assert_eq!(replayed, records);
    }

    #[test]
    fn half_written_extension_reopens_to_the_acked_prefix() {
        let path = TempPath::new("extension");
        let acked = image_of(&sample_records());
        // A crash inside the extension's zero-fill: the length is whatever
        // had been written, committed or not.
        let partial = (0..=16).chain([4_095, 4_096, 4_097, EXTENSION_CHUNK as usize - 1]);
        for zeros in partial {
            let mut image = acked.clone();
            image.resize(acked.len() + zeros, 0);
            std::fs::write(&path.0, &image).unwrap();
            let (_, replayed) = reopen(&path.0);
            assert_eq!(replayed, sample_records(), "{zeros} zeros behind");
        }
    }

    #[test]
    fn zero_length_field_ends_the_log_at_the_envelope() {
        // `crc32("") == 0`: eight zeros are a well-formed empty envelope,
        // which only the explicit rule keeps from reaching the decoder.
        assert_eq!(codec::crc32(&[]), 0);
        assert!(take_record(&mut Cursor::new(&[0; 8])).is_err());
        assert!(take_record(&mut Cursor::new(&encoded(&wide_record(1, 0)))).is_ok());

        let path = TempPath::new("zeros");
        for zeros in [8, 9, 64] {
            let mut image = image_of(&[]);
            image.resize(image.len() + zeros, 0);
            std::fs::write(&path.0, &image).unwrap();
            let (journal, replayed) = reopen(&path.0);
            assert!(replayed.is_empty());
            assert_eq!(journal.len(), HEADER_END);
        }
    }

    #[test]
    fn parent_format_journal_opens_replays_and_appends() {
        let path = TempPath::new("parent");
        let image = image_of(&sample_records());
        std::fs::write(&path.0, &image).unwrap();
        let (mut journal, replayed) = reopen(&path.0);
        assert_eq!(replayed, sample_records());
        assert_eq!(journal.len(), image.len() as u64);
        let extra = JournalRecord::Unsubscribe { at: 2, id: 101 };
        journal.append(&extra).unwrap();
        drop(journal);
        let (_, replayed) = reopen(&path.0);
        assert_eq!(replayed, [sample_records(), vec![extra]].concat());
    }

    /// An in-memory file whose writes fail once, after `budget` more bytes.
    struct FailsOnce {
        image: io::Cursor<Vec<u8>>,
        budget: Option<usize>,
    }

    impl Write for FailsOnce {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.budget {
                None => self.image.write(buf),
                Some(0) => {
                    self.budget = None;
                    Err(io::Error::other("no space left on device"))
                }
                Some(left) => {
                    let (head, _) = buf.split_at(left.min(buf.len()));
                    self.budget = Some(left - head.len());
                    self.image.write(head)
                }
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Seek for FailsOnce {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.image.seek(pos)
        }
    }

    #[test]
    fn failed_write_is_overwritten_by_the_retry() {
        let [first, _, retried] = sample_records().try_into().unwrap();
        let bytes = encoded(&retried);
        let acked = image_of(std::slice::from_ref(&first));
        let end = acked.len() as u64;
        for budget in 0..bytes.len() {
            let mut out = FailsOnce {
                image: io::Cursor::new(acked.clone()),
                budget: Some(budget),
            };
            write_at(&mut out, end, &bytes).unwrap_err();
            // `end` did not advance: the retry lands on the remains, not
            // behind them, and everything acked from here on replays.
            write_at(&mut out, end, &bytes).unwrap();
            let image = out.image.into_inner();
            let body = image.get(codec::HEADER_LEN..).unwrap();
            let (replayed, durable) = decode_records(body);
            assert_eq!(replayed, [first.clone(), retried.clone()]);
            assert_eq!(durable, body.len(), "write failed after {budget} bytes");
        }
    }

    #[test]
    fn failed_extension_is_retried_from_the_old_length() {
        let acked = image_of(&sample_records());
        let allocated = acked.len() as u64;
        for budget in [0, 1, 8_191, 8_192, 8_193, 19_999] {
            let mut out = FailsOnce {
                image: io::Cursor::new(acked.clone()),
                budget: Some(budget),
            };
            extend_with_zeros(&mut out, allocated, 20_000).unwrap_err();
            extend_with_zeros(&mut out, allocated, 20_000).unwrap();
            let image = out.image.into_inner();
            let (head, slack) = image.split_at(acked.len());
            assert_eq!(head, acked);
            assert_eq!(slack.len(), 20_000);
            assert!(slack.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_corruption() {
        let path = std::env::temp_dir().join(format!("acd-snap-{}.acd", std::process::id()));
        std::fs::remove_file(&path).ok();
        assert!(read_snapshot(&path).unwrap().is_none());
        write_snapshot(&path, &sample_records()).unwrap();
        assert_eq!(read_snapshot(&path).unwrap().unwrap(), sample_records());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&path).unwrap_err().is_corrupt());
        std::fs::remove_file(&path).ok();
    }

    /// The read-back stops at `len`: the remains of a failed append behind
    /// it are not acked, though a re-open would replay them.
    #[test]
    fn read_acked_returns_exactly_the_acked_prefix() {
        let path = TempPath::new("acked");
        let [a, b, c] = sample_records().try_into().unwrap();
        let (mut journal, _) = reopen(&path.0);
        journal.append(&a).unwrap();
        journal.append(&b).unwrap();
        // A failed append leaves C's bytes at `len`, over the slack.
        let mut other = OpenOptions::new().write(true).open(&path.0).unwrap();
        write_at(&mut other, journal.len(), &encoded(&c)).unwrap();
        drop(other);
        assert_eq!(journal.read_acked().unwrap(), [a.clone(), b.clone()]);
        let (_, replayed) = SubscriptionJournal::open(&path.0).unwrap();
        assert_eq!(replayed, [a.clone(), b.clone(), c.clone()]);

        journal.reset().unwrap();
        assert!(journal.read_acked().unwrap().is_empty());
        journal.append(&a).unwrap();
        drop(journal);
        let (mut journal, replayed) = reopen(&path.0);
        assert_eq!(replayed, std::slice::from_ref(&a));
        journal.append(&c).unwrap();
        assert_eq!(journal.read_acked().unwrap(), [a, c]);
    }

    #[test]
    fn reset_empties_the_journal_slack_included() {
        let path = TempPath::new("reset");
        let (mut journal, _) = reopen(&path.0);
        for id in 1..=3 {
            journal
                .append(&JournalRecord::Unsubscribe { at: 0, id })
                .unwrap();
        }
        journal.reset().unwrap();
        assert_eq!(journal.len(), HEADER_END);
        assert_eq!(file_len(&path.0), HEADER_END);
        // A same-sized record lands exactly on the first old one; were the
        // old bytes still there, the other two would follow it on replay.
        let fresh = JournalRecord::Unsubscribe { at: 0, id: 4 };
        journal.append(&fresh).unwrap();
        drop(journal);
        let (_, replayed) = reopen(&path.0);
        assert_eq!(replayed, vec![fresh]);
    }
}
