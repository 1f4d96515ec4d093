//! Property tests for the durable segment layer, in the discipline of the
//! wire codec's `proptest_wire.rs`: a saved index reopens **identical**
//! for arbitrary populations, and damage anywhere in any on-disk file —
//! a flipped bit, a truncation, wholesale garbage — surfaces as a typed
//! [`StorageError::CorruptSegment`], never a panic and never a silently
//! different index.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use acd_covering::storage::{
    latest_commit, read_commit, segment_stem, write_commit, CommitManifest, SegmentWriter,
    StorageError,
};
use acd_covering::{ApproxConfig, CoveringError, CoveringIndex, QueryEngine, SfcCoveringIndex};
use acd_sfc::{CurveKind, SfcArray, ZCurve};
use acd_subscription::{dominance_point, dominance_universe, RangePredicate, Schema, Subscription};

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .bits_per_attribute(5)
        .build()
        .unwrap()
}

fn build_sub(schema: &Schema, id: u64, bounds: &[(f64, f64)]) -> Subscription {
    let predicates: Vec<RangePredicate> = schema
        .attributes()
        .iter()
        .zip(bounds)
        .map(|(a, &(lo, hi))| RangePredicate::between(a.name(), lo, hi).unwrap())
        .collect();
    Subscription::from_predicates(schema, id, &predicates).unwrap()
}

fn bounds_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<(f64, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(a, b)| (a.min(b) * 100.0, a.max(b) * 100.0))
                .collect::<Vec<(f64, f64)>>()
        }),
        n,
    )
}

fn curve_strategy() -> impl Strategy<Value = CurveKind> {
    (0usize..CurveKind::all().len()).prop_map(|i| CurveKind::all()[i])
}

/// Every proptest case gets its own directory: cases must not see each
/// other's files, and parallel test threads must not collide.
static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "acd-proptest-seg-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn build_index(
    schema: &Schema,
    curve: CurveKind,
    all_bounds: &[Vec<(f64, f64)>],
) -> (SfcCoveringIndex, Vec<Subscription>) {
    let subs: Vec<Subscription> = all_bounds
        .iter()
        .enumerate()
        .map(|(i, bounds)| build_sub(schema, i as u64 + 1, bounds))
        .collect();
    let config = ApproxConfig::exhaustive().engine(QueryEngine::for_curve(curve));
    let index = SfcCoveringIndex::build_from(schema, config, curve, &subs)
        .expect("the generated population is valid");
    (index, subs)
}

/// The saved on-disk state, smallest file first so a damage offset maps
/// to the same byte for the same seed regardless of directory order.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("the save created the directory")
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    files.sort();
    files
}

/// Asserts the reopened index stores every subscription of `stored` as the
/// source does, and answers exactly like it on every query in `queries`.
fn assert_identical(
    source: &mut SfcCoveringIndex,
    loaded: &mut SfcCoveringIndex,
    stored: &[Subscription],
    queries: &[Subscription],
) {
    prop_assert_eq!(loaded.len(), source.len());
    prop_assert_eq!(loaded.curve(), source.curve());
    prop_assert_eq!(loaded.schema(), source.schema());
    for s in stored {
        prop_assert_eq!(loaded.get(s.id()), source.get(s.id()), "stored {}", s.id());
    }
    for q in queries {
        prop_assert_eq!(
            loaded.find_covering(q).unwrap().covering,
            source.find_covering(q).unwrap().covering,
            "covering disagrees on query {}",
            q.id()
        );
    }
}

/// The error open must produce on a damaged directory: a typed storage
/// corruption (or unsupported-version, for damage landing in the version
/// byte of a checksum-intact file — impossible for bit flips, which break
/// the checksum, but allowed for garbage) — never a schema error, never a
/// duplicate-id error, never anything that suggests partial interpretation.
fn assert_corrupt<T>(result: Result<T, CoveringError>) {
    let err = match result {
        Ok(_) => panic!("damaged directory opened cleanly"),
        Err(err) => err,
    };
    let storage = err.as_storage();
    prop_assert!(
        storage.is_some_and(|e| {
            e.is_corrupt() || matches!(e, StorageError::UnsupportedVersion { .. })
        }),
        "damage must surface as a typed storage corruption, got: {err}"
    );
}

/// A segment whose every envelope, checksum, pin and count is valid — it is
/// written through the public writer and committed — but whose dominance
/// array belongs to another population than its subscription table. Opened
/// on trust it would answer covering queries with ids the table does not
/// hold (a false cover); it must be refused as corruption, with or without
/// the one key boundary an earlier build's one-shard layout recorded.
#[test]
fn an_array_of_another_population_is_a_typed_corruption() {
    let s = schema();
    let narrow: Vec<Subscription> = (1..=3u64)
        .map(|id| build_sub(&s, id, &[(40.0, 45.0), (40.0, 45.0)]))
        .collect();
    let wide: Vec<Subscription> = (101..=103u64)
        .map(|id| build_sub(&s, id, &[(0.0, 100.0), (0.0, 100.0)]))
        .collect();
    let array = SfcArray::from_sorted(
        ZCurve::new(dominance_universe(&s).unwrap()),
        wide.iter()
            .map(|sub| (dominance_point(sub).unwrap(), sub.id()))
            .collect(),
    )
    .unwrap();
    for starts in [vec![], vec![0]] {
        let dir = fresh_dir("crafted");
        // A real save supplies the manifest's schema and config fields.
        let (index, _) = build_index(&s, CurveKind::Z, &[]);
        index.save_segments(&dir).unwrap();
        let saved = read_commit(&latest_commit(&dir).unwrap().unwrap().1).unwrap();
        let mut writer = SegmentWriter::new(2);
        writer.subscriptions(s.arity(), &narrow);
        writer.forward_array(&array);
        let shard = writer.write(&dir, &segment_stem(2, 0)).unwrap();
        write_commit(
            &dir,
            &CommitManifest {
                generation: 2,
                starts,
                shards: vec![shard],
                ..saved
            },
        )
        .unwrap();
        assert_corrupt(SfcCoveringIndex::open_segments(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A data directory left by an earlier build's sharded index — a commit
/// with key-range boundaries and one segment per shard — is refused as
/// corruption, not opened as its first shard alone.
#[test]
fn the_retired_sharded_layout_is_refused_as_corrupt() {
    let dir = fresh_dir("sharded");
    let (index, _) = build_index(&schema(), CurveKind::Z, &[vec![(0.0, 10.0), (0.0, 10.0)]]);
    index.save_segments(&dir).unwrap();
    let saved = read_commit(&latest_commit(&dir).unwrap().unwrap().1).unwrap();
    // The refusal comes before any segment is read, so the live segment
    // can stand in for both shards.
    let shard = saved.shards[0].clone();
    write_commit(
        &dir,
        &CommitManifest {
            generation: 2,
            starts: vec![0, 1 << 63],
            shards: vec![shard.clone(), shard],
            ..saved
        },
    )
    .unwrap();
    let err = SfcCoveringIndex::open_segments(&dir).unwrap_err();
    assert!(
        err.as_storage().is_some_and(StorageError::is_corrupt),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A saved index reopens answering identically, for arbitrary
    /// populations on every curve family.
    #[test]
    fn saved_segments_reopen_identically(
        all_bounds in bounds_strategy(0..32),
        queries in bounds_strategy(1..12),
        curve in curve_strategy(),
    ) {
        let s = schema();
        let (mut index, subs) = build_index(&s, curve, &all_bounds);
        let queries: Vec<Subscription> = queries
            .iter()
            .enumerate()
            .map(|(i, b)| build_sub(&s, 10_000 + i as u64, b))
            .collect();
        let dir = fresh_dir("roundtrip");
        index.save_segments(&dir).unwrap();
        let mut loaded = SfcCoveringIndex::open_segments(&dir).unwrap();
        assert_identical(&mut index, &mut loaded, &subs, &queries);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping any single bit of any segment file — commit manifest,
    /// `.meta`, or `.dat` — is caught by a checksum and reported as
    /// `CorruptSegment`.
    #[test]
    fn a_flipped_bit_anywhere_is_a_typed_corruption(
        all_bounds in bounds_strategy(1..24),
        curve in curve_strategy(),
        position in any::<u64>(),
        bit in 0u8..8,
    ) {
        let s = schema();
        let (index, _) = build_index(&s, curve, &all_bounds);
        let dir = fresh_dir("flip");
        index.save_segments(&dir).unwrap();
        let files = segment_files(&dir);
        let total: usize = files
            .iter()
            .map(|f| std::fs::metadata(f).unwrap().len() as usize)
            .sum();
        let mut offset = (position % total as u64) as usize;
        for file in &files {
            let mut bytes = std::fs::read(file).unwrap();
            if offset < bytes.len() {
                bytes[offset] ^= 1 << bit;
                std::fs::write(file, &bytes).unwrap();
                break;
            }
            offset -= bytes.len();
        }
        assert_corrupt(SfcCoveringIndex::open_segments(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating any file at any point — the torn-write crash artifact —
    /// is caught the same way.
    #[test]
    fn any_truncation_is_a_typed_corruption(
        all_bounds in bounds_strategy(1..24),
        curve in curve_strategy(),
        which in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let s = schema();
        let (index, _) = build_index(&s, curve, &all_bounds);
        let dir = fresh_dir("truncate");
        index.save_segments(&dir).unwrap();
        let files = segment_files(&dir);
        let file = &files[(which % files.len() as u64) as usize];
        let bytes = std::fs::read(file).unwrap();
        let cut = (cut % bytes.len() as u64) as usize;
        std::fs::write(file, &bytes[..cut]).unwrap();
        assert_corrupt(SfcCoveringIndex::open_segments(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Replacing any file with arbitrary garbage never panics the reader,
    /// and never yields an index that differs from the saved one: either
    /// the open fails typed, or (if the garbage happened to be a byte-exact
    /// valid file) the answers are unchanged.
    #[test]
    fn garbage_files_never_panic_and_never_load_silently_wrong(
        all_bounds in bounds_strategy(1..16),
        curve in curve_strategy(),
        which in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let s = schema();
        let (mut index, subs) = build_index(&s, curve, &all_bounds);
        let dir = fresh_dir("garbage");
        index.save_segments(&dir).unwrap();
        let files = segment_files(&dir);
        let file = &files[(which % files.len() as u64) as usize];
        std::fs::write(file, &garbage).unwrap();
        if let Ok(mut loaded) = SfcCoveringIndex::open_segments(&dir) {
            assert_identical(&mut index, &mut loaded, &subs, &subs);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
