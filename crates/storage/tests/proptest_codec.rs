//! Property tests for the journal and snapshot decoders, in the method of
//! the broker's `proptest_wire`: however a journal's bytes are damaged, its
//! replay is a prefix of what was appended; a damaged snapshot is a typed
//! error. Checksums stop every such flip before a payload decoder runs, so
//! the decoders' own rejections are reached by *re-sealing*: mutate one
//! record's payload, then patch its length and recompute its CRC (and the
//! snapshot's file CRC).

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use acd_storage::codec::{FOOTER_LEN, HEADER_LEN};
use acd_storage::{
    crc32, read_snapshot, write_snapshot, JournalRecord, StorageError, SubscriptionJournal,
};
use proptest::prelude::*;

/// A directory private to one test case, removed when the case ends.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("acd-codec-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn journal(&self) -> PathBuf {
        self.0.join("journal.acd")
    }

    fn snapshot(&self) -> PathBuf {
        self.0.join("snapshot.acd")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Bounds that round-trip bit-exactly, edges included (no NaN, so records
/// compare equal to themselves).
fn bound() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1_000_000.0f64..1_000_000.0,
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::NEG_INFINITY),
    ]
}

fn record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((bound(), bound()), 0..5),
        )
            .prop_map(|(at, client, id, bounds)| JournalRecord::Subscribe {
                at,
                client,
                id,
                bounds,
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(at, id)| JournalRecord::Unsubscribe { at, id }),
    ]
}

fn records() -> impl Strategy<Value = Vec<JournalRecord>> {
    prop::collection::vec(record(), 1..6)
}

/// Opens the journal at `path` as a daemon restart would.
fn replay(path: &Path) -> Result<Vec<JournalRecord>, StorageError> {
    SubscriptionJournal::open(path).map(|(_, replayed)| replayed)
}

/// A journal holding `records` through the real append path, as the exact
/// bytes a reopen leaves (header and records, the slack cut off), and the
/// snapshot of the same records.
fn images(dir: &TempDir, records: &[JournalRecord]) -> (Vec<u8>, Vec<u8>) {
    let (mut journal, _) = SubscriptionJournal::open(&dir.journal()).unwrap();
    for record in records {
        journal.append(record).unwrap();
    }
    drop(journal);
    assert_eq!(replay(&dir.journal()).unwrap(), records);
    write_snapshot(&dir.snapshot(), records).unwrap();
    let journal = std::fs::read(dir.journal()).unwrap();
    let snapshot = std::fs::read(dir.snapshot()).unwrap();
    // Both files carry the records in one encoding: the journal behind its
    // header, the snapshot behind its header and `u64` count.
    assert_eq!(
        journal[HEADER_LEN..],
        snapshot[HEADER_LEN + 8..snapshot.len() - FOOTER_LEN]
    );
    (journal, snapshot)
}

/// Each record envelope's byte range in `records`: `len u32 | payload | crc
/// u32`, back to back.
fn spans(records: &[u8]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut at = 0;
    while at < records.len() {
        let len = u32::from_le_bytes(records[at..at + 4].try_into().unwrap()) as usize;
        spans.push(at..at + 8 + len);
        at += 8 + len;
    }
    assert_eq!(at, records.len());
    spans
}

/// A snapshot image with `records` in place of its own, and its `count`
/// field and file checksum rewritten to match.
fn reseal_snapshot(snapshot: &[u8], count: u64, records: &[u8]) -> Vec<u8> {
    let mut sealed = snapshot[..HEADER_LEN].to_vec();
    sealed.extend_from_slice(&count.to_le_bytes());
    sealed.extend_from_slice(records);
    let crc = crc32(&sealed);
    sealed.extend_from_slice(&crc.to_le_bytes());
    sealed
}

/// The number of records whose envelopes end at or before `offset` into the
/// journal file.
fn whole_before(spans: &[Range<usize>], offset: usize) -> usize {
    spans
        .iter()
        .take_while(|span| HEADER_LEN + span.end <= offset)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_damaged_journal_replays_a_prefix_of_what_was_appended(
        records in records(),
        truncate in any::<bool>(),
        position in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let dir = TempDir::new();
        let (mut image, _) = images(&dir, &records);
        let spans = spans(&image[HEADER_LEN..]);
        let at = (position % image.len() as u64) as usize;
        if truncate {
            image.truncate(at);
        } else {
            image[at] ^= mask;
        }
        std::fs::write(dir.journal(), &image).unwrap();
        match replay(&dir.journal()) {
            Ok(replayed) => {
                // A header byte the open accepted was in the reserved field,
                // which the journal does not read.
                let expected = if at < HEADER_LEN && !truncate {
                    records.len()
                } else {
                    whole_before(&spans, at)
                };
                prop_assert!(at == 0 || at >= HEADER_LEN || !truncate, "cut at {at} opened");
                prop_assert_eq!(&replayed[..], &records[..expected], "damage at {}", at);
            }
            Err(e) => {
                prop_assert!(at < HEADER_LEN, "damage at {at} past the header: {e}");
                prop_assert!(
                    e.is_corrupt() || matches!(e, StorageError::UnsupportedVersion { .. }),
                    "untyped error {e}"
                );
            }
        }
    }

    #[test]
    fn a_damaged_snapshot_is_a_typed_error(
        records in records(),
        truncate in any::<bool>(),
        position in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let dir = TempDir::new();
        write_snapshot(&dir.snapshot(), &records).unwrap();
        let mut image = std::fs::read(dir.snapshot()).unwrap();
        let at = (position % image.len() as u64) as usize;
        if truncate {
            image.truncate(at);
        } else {
            image[at] ^= mask;
        }
        std::fs::write(dir.snapshot(), &image).unwrap();
        let err = read_snapshot(&dir.snapshot()).expect_err("damage must not decode");
        prop_assert!(err.is_corrupt(), "damage at {at}: {err}");
    }
}

// The checksums are out of the way here, so every case reaches a payload
// decoder; it gets more cases for it.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_resealed_record_mutation_is_an_error_or_the_record_its_bytes_spell(
        records in records(),
        which in any::<u64>(),
        mutation in 0u8..4,
        position in any::<u64>(),
        byte in any::<u8>(),
        bit in 0u8..8,
    ) {
        let dir = TempDir::new();
        let (journal, snapshot) = images(&dir, &records);
        let region = &journal[HEADER_LEN..];
        let spans = spans(region);
        let k = (which % spans.len() as u64) as usize;
        let span = spans[k].clone();
        let mut payload = region[span.start + 4..span.end - 4].to_vec();
        let index = (position % (payload.len() as u64 + 1)) as usize;
        match mutation {
            0 if index < payload.len() => payload[index] ^= 1 << bit,
            1 if index < payload.len() => payload[index] = byte,
            2 => payload.truncate(index),
            _ => payload.insert(index, byte),
        }
        let mut mutated = region[..span.start].to_vec();
        mutated.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        mutated.extend_from_slice(&payload);
        mutated.extend_from_slice(&crc32(&payload).to_le_bytes());
        mutated.extend_from_slice(&region[span.end..]);

        let sealed = reseal_snapshot(&snapshot, records.len() as u64, &mutated);
        std::fs::write(dir.snapshot(), &sealed).unwrap();
        let decoded = match read_snapshot(&dir.snapshot()) {
            Err(e) => {
                prop_assert!(e.is_corrupt(), "untyped error {e}");
                records[..k].to_vec()
            }
            Ok(decoded) => {
                // Whatever the mutated bytes decode to, they are exactly
                // what that decoding encodes to.
                let decoded = decoded.expect("the snapshot exists");
                write_snapshot(&dir.snapshot(), &decoded).unwrap();
                prop_assert_eq!(std::fs::read(dir.snapshot()).unwrap(), sealed);
                decoded
            }
        };
        // The journal reads the same records with the same decoder: up to
        // the mutated one if it is refused, all of them if it is not. (Debug
        // text, because a mutated bound may be a NaN, which `==` refuses.)
        let mut image = journal[..HEADER_LEN].to_vec();
        image.extend_from_slice(&mutated);
        std::fs::write(dir.journal(), &image).unwrap();
        let replayed = replay(&dir.journal()).unwrap();
        prop_assert_eq!(format!("{replayed:?}"), format!("{decoded:?}"));
    }
}

/// Subscribe bounds with an all-ones count: the decoder checks the count
/// against the bytes left before it sizes a `Vec`, and refuses it.
#[test]
fn a_bounds_count_of_u32_max_is_refused_before_it_sizes_a_vec() {
    let dir = TempDir::new();
    let subscribe = JournalRecord::Subscribe {
        at: 1,
        client: 2,
        id: 3,
        bounds: vec![(0.0, 1.0); 3],
    };
    let (journal, snapshot) = images(&dir, &[subscribe]);
    let mut region = journal[HEADER_LEN..].to_vec();
    // Record length, then kind, at, client and id ahead of the count.
    let count = 4 + 1 + 3 * 8;
    region[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let payload_end = region.len() - 4;
    let crc = crc32(&region[4..payload_end]);
    region[payload_end..].copy_from_slice(&crc.to_le_bytes());

    std::fs::write(dir.snapshot(), reseal_snapshot(&snapshot, 1, &region)).unwrap();
    let err = read_snapshot(&dir.snapshot()).unwrap_err();
    assert!(err.is_corrupt(), "{err}");
    assert!(err.to_string().contains("count 4294967295"), "{err}");

    let mut image = journal[..HEADER_LEN].to_vec();
    image.extend_from_slice(&region);
    std::fs::write(dir.journal(), &image).unwrap();
    assert!(replay(&dir.journal()).unwrap().is_empty());
}

/// A snapshot whose record count is `u64::MAX` under a valid checksum: a
/// typed error, never a `Vec` sized by the count.
#[test]
fn a_record_count_of_u64_max_is_refused_before_it_sizes_a_vec() {
    let dir = TempDir::new();
    let records = [
        JournalRecord::Unsubscribe { at: 0, id: 1 },
        JournalRecord::Unsubscribe { at: 0, id: 2 },
    ];
    write_snapshot(&dir.snapshot(), &records).unwrap();
    let snapshot = std::fs::read(dir.snapshot()).unwrap();
    let region = &snapshot[HEADER_LEN + 8..snapshot.len() - FOOTER_LEN];
    for count in [u64::MAX, 1 << 40, 3, 1] {
        std::fs::write(dir.snapshot(), reseal_snapshot(&snapshot, count, region)).unwrap();
        let err = read_snapshot(&dir.snapshot()).unwrap_err();
        assert!(err.is_corrupt(), "count {count}: {err}");
    }
}
