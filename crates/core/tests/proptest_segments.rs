//! Property tests for the saved index, in the discipline of the wire
//! codec's `proptest_wire.rs`: a saved index reopens **identical** for
//! arbitrary populations, and damage anywhere in its one file — a flipped
//! bit, a truncation, wholesale garbage — surfaces as a typed
//! [`StorageError::CorruptSegment`], never a panic and never a silently
//! different index.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use acd_covering::storage::{codec, StorageError, MAGIC, VERSION};
use acd_covering::{ApproxConfig, CoveringError, CoveringIndex, QueryEngine, SfcCoveringIndex};
use acd_sfc::CurveKind;
use acd_subscription::{dominance_universe, RangePredicate, Schema, Subscription};

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

/// The one file a save leaves in `dir`.
fn saved_file(dir: &Path) -> PathBuf {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("the save created the directory")
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    assert_eq!(files.len(), 1, "a save is one file: {files:?}");
    files.into_iter().next().unwrap()
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

/// A data directory an earlier build left: a commit manifest and one
/// segment's `.meta`/`.dat` pair, each in a checksum-valid envelope of its
/// retired kind (commit 3, meta 1, data 2). It holds no `index.acd`, so the
/// open is a typed storage error, not an empty index; and a `.dat` renamed
/// to `index.acd` is refused by its kind.
#[test]
fn an_old_data_directory_is_a_typed_error() {
    let dir = fresh_dir("old-layout");
    std::fs::create_dir_all(&dir).unwrap();
    let old_file = |name: &str, kind: u8| {
        let mut bytes = MAGIC.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[VERSION, kind]);
        bytes.extend_from_slice(&1u64.to_le_bytes()); // its generation
        bytes.extend_from_slice(b"payload of the retired layout");
        std::fs::write(dir.join(name), codec::finish_file(bytes)).unwrap();
    };
    old_file("commit-0000000001.acd", 3);
    old_file("seg-0000000001-000.meta", 1);
    old_file("seg-0000000001-000.dat", 2);
    let err = SfcCoveringIndex::open_segments(&dir).unwrap_err();
    assert!(
        matches!(err.as_storage(), Some(StorageError::NoCommit { .. })),
        "{err}"
    );
    std::fs::copy(dir.join("seg-0000000001-000.dat"), dir.join("index.acd")).unwrap();
    let err = SfcCoveringIndex::open_segments(&dir).unwrap_err();
    assert!(
        err.as_storage().is_some_and(StorageError::is_corrupt),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A checksum-valid file can still carry rows the index must refuse: a
/// duplicate id, an inverted range, a bound outside its domain. Each is a
/// typed corruption, not a schema or duplicate-id error.
#[test]
fn rows_the_index_refuses_are_typed_corruptions() {
    let s = schema();
    let two = [
        vec![(0.0, 10.0), (0.0, 10.0)],
        vec![(5.0, 20.0), (5.0, 20.0)],
    ];
    let (index, _) = build_index(&s, CurveKind::Z, &two);
    let dir = fresh_dir("rows");
    index.save_segments(&dir).unwrap();
    let file = saved_file(&dir);
    let saved = std::fs::read(&file).unwrap();
    // The two rows close the payload: an 8-byte id, a 4-byte range count
    // and two ranges of two `f64`s each.
    let row = 8 + 4 + 2 * 16;
    let body = saved.len() - codec::FOOTER_LEN;
    let (first, second) = (body - 2 * row, body - row);
    let first_id: [u8; 8] = saved[first..first + 8].try_into().unwrap();
    // Each damage overwrites 8 bytes of the second row.
    let damages = [
        ("duplicate id", second, first_id),
        ("inverted range", second + 12, 50.0f64.to_le_bytes()),
        (
            "bound outside its domain",
            second + 20,
            1e6f64.to_le_bytes(),
        ),
    ];
    for (what, at, patch) in damages {
        let mut bytes = saved[..body].to_vec();
        bytes[at..at + 8].copy_from_slice(&patch);
        std::fs::write(&file, codec::finish_file(bytes)).unwrap();
        let err = SfcCoveringIndex::open_segments(&dir).unwrap_err();
        assert!(
            err.as_storage().is_some_and(StorageError::is_corrupt),
            "{what}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checksum-valid file whose schema the builder refuses (no attributes,
/// 33, an inverted domain, two attributes of one name, 0 or 64 bits) is a
/// typed corruption, because a stored schema decodes through
/// `SchemaBuilder`. The same file with a valid schema opens, so the file
/// itself is well formed.
#[test]
fn a_schema_the_builder_refuses_is_a_typed_corruption() {
    let config = ApproxConfig::exhaustive().engine(QueryEngine::for_curve(CurveKind::Z));
    let config = serde_json::to_string(&config).unwrap();
    let attribute =
        |name: &str, min: f64, max: f64| format!(r#"{{"name":"{name}","min":{min},"max":{max}}}"#);
    let (x, y) = (attribute("x", 0.0, 100.0), attribute("y", 0.0, 100.0));
    let many: Vec<String> = (0..33)
        .map(|i| attribute(&format!("a{i}"), 0.0, 1.0))
        .collect();
    let dir = fresh_dir("schema");
    std::fs::create_dir_all(&dir).unwrap();
    for (what, attributes, bits) in [
        ("valid", vec![x.clone(), y.clone()], 5),
        ("no attributes", vec![], 5),
        ("33 attributes", many, 5),
        ("inverted domain", vec![attribute("x", 100.0, 0.0), y], 5),
        ("duplicate names", vec![x.clone(), x.clone()], 5),
        ("0 bits", vec![x.clone()], 0),
        ("64 bits", vec![x], 64),
    ] {
        let stored = format!(
            r#"{{"inner":{{"attributes":[{}],"bits_per_attribute":{bits}}}}}"#,
            attributes.join(",")
        );
        let mut bytes = codec::begin_file(codec::file_kind::INDEX);
        bytes.push(codec::curve_tag(CurveKind::Z));
        codec::put_bytes(&mut bytes, stored.as_bytes());
        codec::put_bytes(&mut bytes, config.as_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(dir.join("index.acd"), codec::finish_file(bytes)).unwrap();
        match SfcCoveringIndex::open_segments(&dir) {
            Ok(index) => assert!(what == "valid" && index.schema() == &schema(), "{what}"),
            Err(err) => assert!(
                what != "valid" && err.as_storage().is_some_and(StorageError::is_corrupt),
                "{what}: {err}"
            ),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An index whose dominance keys are wider than 128 bits (7 attributes of
/// 10 bits, 2 coordinates an attribute: 140 bits, the shape of
/// `tests/allocations.rs`' wide population) saves and reopens with the
/// same subscriptions and the same answers.
#[test]
fn a_wide_key_index_reopens_identically() {
    let names = ["a", "b", "c", "d", "e", "f", "g"];
    let s = names
        .iter()
        .fold(Schema::builder(), |b, &name| b.attribute(name, 0.0, 100.0))
        .bits_per_attribute(10)
        .build()
        .unwrap();
    assert_eq!(dominance_universe(&s).unwrap().key_bits(), 140);
    // Uniform centres, widths 5–50 % of each domain.
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut population = |n: usize| -> Vec<Vec<(f64, f64)>> {
        (0..n)
            .map(|_| {
                (0..names.len())
                    .map(|_| {
                        let (centre, width) = (next() * 100.0, 5.0 + next() * 45.0);
                        let lo = (centre - width / 2.0).max(0.0);
                        (lo, (lo + width).min(100.0))
                    })
                    .collect()
            })
            .collect()
    };
    let (stored, probes) = (population(300), population(100));
    let (mut index, subs) = build_index(&s, CurveKind::Z, &stored);
    let mut queries: Vec<Subscription> = probes
        .iter()
        .enumerate()
        .map(|(i, b)| build_sub(&s, 10_000 + i as u64, b))
        .collect();
    // Each stored subscription's twin has a cover to find.
    queries.extend(subs.iter().map(|sub| sub.with_id(20_000 + sub.id())));
    let dir = fresh_dir("wide");
    index.save_segments(&dir).unwrap();
    let mut loaded = SfcCoveringIndex::open_segments(&dir).unwrap();
    assert_identical(&mut index, &mut loaded, &subs, &queries);
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

    /// Flipping any single bit of the saved file is caught by its checksum
    /// and reported as `CorruptSegment`.
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
        let file = saved_file(&dir);
        let mut bytes = std::fs::read(&file).unwrap();
        let offset = (position % bytes.len() as u64) as usize;
        bytes[offset] ^= 1 << bit;
        std::fs::write(&file, &bytes).unwrap();
        assert_corrupt(SfcCoveringIndex::open_segments(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating the file at any point — the torn-write crash artifact —
    /// is caught the same way.
    #[test]
    fn any_truncation_is_a_typed_corruption(
        all_bounds in bounds_strategy(1..24),
        curve in curve_strategy(),
        cut in any::<u64>(),
    ) {
        let s = schema();
        let (index, _) = build_index(&s, curve, &all_bounds);
        let dir = fresh_dir("truncate");
        index.save_segments(&dir).unwrap();
        let file = saved_file(&dir);
        let bytes = std::fs::read(&file).unwrap();
        let cut = (cut % bytes.len() as u64) as usize;
        std::fs::write(&file, &bytes[..cut]).unwrap();
        assert_corrupt(SfcCoveringIndex::open_segments(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Replacing the file with arbitrary garbage never panics the reader,
    /// and never yields an index that differs from the saved one: either
    /// the open fails typed, or (if the garbage happened to be a byte-exact
    /// valid file) the answers are unchanged.
    #[test]
    fn garbage_files_never_panic_and_never_load_silently_wrong(
        all_bounds in bounds_strategy(1..16),
        curve in curve_strategy(),
        garbage in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let s = schema();
        let (mut index, subs) = build_index(&s, curve, &all_bounds);
        let dir = fresh_dir("garbage");
        index.save_segments(&dir).unwrap();
        std::fs::write(saved_file(&dir), &garbage).unwrap();
        if let Ok(mut loaded) = SfcCoveringIndex::open_segments(&dir) {
            assert_identical(&mut index, &mut loaded, &subs, &subs);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
