//! The SFC-based covering index — the paper's contribution, packaged for a
//! router.
//!
//! [`SfcCoveringIndex`] maintains the paper's one structure: a
//! [`PointDominanceIndex`] over the 2β-dimensional dominance space that
//! stores each subscription's Edelsbrunner–Overmars point `p(s)` and answers
//! "is the new subscription covered by an existing one?" (a dominance query
//! for `p(query)`). That query honours the configured [`ApproxConfig`]:
//! exhaustive queries are exact, ε-approximate queries trade a bounded
//! detection loss for the dramatically lower cost analysed in Theorem 3.1.
//!
//! The curve is picked at run time: the dominance index holds the boxed
//! curve [`CurveKind::build`] returns. That costs one dynamic call per
//! insert or removal (keying the point) and per query (building the orthant
//! seeker); the populated-key sweep's inner loop calls no curve method. A
//! batch of covering queries takes the trait's default, one
//! [`find_covering`](CoveringIndex::find_covering) per query.
//!
//! A dominating point is a cover on the quantization grid only. The query
//! confirms each candidate on its raw bounds ([`Subscription::covers`])
//! before naming it, so it never reports a subscription that misses an event
//! the query matches.

use std::collections::HashMap;
use std::path::Path;

use acd_sfc::{CurveKind, SpaceFillingCurve};
use acd_storage::codec::{self, Cursor, DecodeError};
use acd_storage::{curve_from_tag, curve_tag, file_kind, StorageError};
use acd_subscription::{dominance_point, dominance_universe, Schema, SubId, Subscription};

use crate::config::ApproxConfig;
use crate::dominance::PointDominanceIndex;
use crate::error::CoveringError;
use crate::index::CoveringIndex;
use crate::stats::{IndexStats, QueryOutcome};
use crate::Result;

/// The dominance index behind [`SfcCoveringIndex`], on the curve chosen at
/// run time.
type Forward = PointDominanceIndex<SubId, Box<dyn SpaceFillingCurve>>;

/// Covering-detection index based on a space filling curve.
///
/// See the [crate-level documentation](crate) for a usage example.
#[derive(Debug)]
pub struct SfcCoveringIndex {
    schema: Schema,
    forward: Forward,
    /// Stored subscriptions by identifier (needed for removal and for
    /// verifying candidate hits).
    subscriptions: HashMap<SubId, Subscription>,
    stats: IndexStats,
}

impl SfcCoveringIndex {
    /// Creates an index over `schema` using the Z curve and the given query
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the dominance universe for the schema cannot be
    /// constructed.
    pub fn new(schema: &Schema, config: ApproxConfig) -> Result<Self> {
        Self::with_curve(schema, config, CurveKind::Z)
    }

    /// Creates an exhaustive (exact) index over `schema` on the Z curve.
    ///
    /// # Errors
    ///
    /// Returns an error if the dominance universe for the schema cannot be
    /// constructed.
    pub fn exhaustive(schema: &Schema) -> Result<Self> {
        Self::new(schema, ApproxConfig::exhaustive())
    }

    /// Creates an ε-approximate index over `schema` on the Z curve.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the dominance
    /// universe cannot be constructed.
    pub fn approximate(schema: &Schema, config: ApproxConfig) -> Result<Self> {
        Self::new(schema, config)
    }

    /// Creates an index over `schema` on an explicitly chosen curve.
    ///
    /// # Errors
    ///
    /// Returns an error if the dominance universe for the schema cannot be
    /// constructed, or if the curve cannot run the configured engine.
    pub fn with_curve(schema: &Schema, config: ApproxConfig, curve: CurveKind) -> Result<Self> {
        Self::build_from(schema, config, curve, [])
    }

    /// Bulk-builds an index over a known subscription set: the dominance
    /// points are keyed and sorted once ([`acd_sfc::SfcArray::from_sorted`]
    /// under the hood) instead of paying `n` incremental ordered inserts —
    /// several times faster when the subscription set is available up front
    /// (workload replay, routing-table snapshots, benchmark setup).
    ///
    /// # Errors
    ///
    /// Returns an error if any subscription disagrees with `schema`, if two
    /// subscriptions share an identifier, if the dominance universe cannot
    /// be constructed, or if the curve cannot run the configured engine.
    pub fn build_from<'a, I>(
        schema: &Schema,
        config: ApproxConfig,
        curve: CurveKind,
        subscriptions: I,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Subscription>,
    {
        let universe = dominance_universe(schema)?;
        let subscriptions = subscriptions.into_iter();
        let mut stored = HashMap::with_capacity(subscriptions.size_hint().0);
        let mut points = Vec::with_capacity(subscriptions.size_hint().0);
        for sub in subscriptions {
            if sub.schema() != schema {
                return Err(CoveringError::SchemaMismatch);
            }
            points.push((dominance_point(sub)?, sub.id()));
            if stored.insert(sub.id(), sub.clone()).is_some() {
                return Err(CoveringError::DuplicateSubscription { id: sub.id() });
            }
        }
        config.engine.check_curve(curve)?;
        let forward = PointDominanceIndex::build_from(curve.build(universe), config, points)?;
        let stats = IndexStats {
            inserts: stored.len() as u64,
            ..IndexStats::default()
        };
        Ok(SfcCoveringIndex {
            schema: schema.clone(),
            forward,
            subscriptions: stored,
            stats,
        })
    }

    /// The schema this index serves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The curve family the index is built on.
    pub fn curve(&self) -> CurveKind {
        self.forward.array().curve().kind()
    }

    /// The current query configuration.
    pub fn config(&self) -> ApproxConfig {
        *self.forward.config()
    }

    /// Changes the query configuration (affects subsequent queries only,
    /// which fail if the curve cannot run its engine).
    pub fn set_config(&mut self, config: ApproxConfig) {
        self.forward.set_config(config);
    }

    fn check_schema(&self, subscription: &Subscription) -> Result<()> {
        if subscription.schema() != &self.schema {
            return Err(CoveringError::SchemaMismatch);
        }
        Ok(())
    }

    /// Persists the index as one file, `dir/index.acd`: the curve, the
    /// schema and the query configuration, then each subscription's id and
    /// raw bounds in the dominance array's key order, so the same index
    /// always writes the same bytes. The dominance array itself is not
    /// stored: it is a function of the subscriptions, rebuilt on open. The
    /// file lands through a synced temp file and a rename, so a crash at any
    /// point leaves the previous save readable.
    ///
    /// # Errors
    ///
    /// Returns a [`CoveringError::Storage`] error if writing fails.
    pub fn save_segments(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io(dir.display().to_string(), e))?;
        let rows: Vec<&Subscription> = self
            .forward
            .array()
            .iter()
            .filter_map(|(_, id)| self.subscriptions.get(id))
            .collect();
        let schema = encode_json(&self.schema, dir)?;
        let config = encode_json(self.forward.config(), dir)?;
        let count = u32::try_from(rows.len())
            .map_err(|_| save_failed(dir, format!("{} rows overflow a u32 count", rows.len())))?;
        let mut out = codec::begin_file(file_kind::INDEX);
        out.push(curve_tag(self.curve()));
        codec::put_bytes(&mut out, schema.as_bytes());
        codec::put_bytes(&mut out, config.as_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        for sub in rows {
            out.extend_from_slice(&sub.id().to_le_bytes());
            codec::put_bounds(&mut out, sub.raw_bounds());
        }
        codec::write_atomic(&dir.join(INDEX_FILE), &codec::finish_file(out))?;
        Ok(())
    }

    /// Reopens what [`save_segments`](Self::save_segments) wrote to `dir`:
    /// every stored row is validated as a subscription of the stored schema,
    /// and the index is rebuilt from them through
    /// [`build_from`](Self::build_from).
    ///
    /// # Errors
    ///
    /// [`StorageError::NoCommit`] (wrapped in [`CoveringError::Storage`])
    /// if `dir` holds no saved index; `CorruptSegment` on any malformation
    /// of the file: a bad checksum, a truncation, invalid bounds or a
    /// duplicate id.
    pub fn open_segments(dir: &Path) -> Result<Self> {
        let path = dir.join(INDEX_FILE);
        let file = path.display().to_string();
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let dir = dir.display().to_string();
                return Err(StorageError::NoCommit { dir }.into());
            }
            Err(e) => return Err(StorageError::io(file, e).into()),
        };
        let payload = codec::open_envelope(&bytes, file_kind::INDEX, &file)?;
        let (curve, schema, config, subscriptions) =
            decode_index(payload).map_err(|e| StorageError::corrupt(&file, e.into_reason()))?;
        Self::build_from(&schema, config, curve, &subscriptions).map_err(|e| match e {
            CoveringError::DuplicateSubscription { id } => {
                StorageError::corrupt(&file, format!("duplicate subscription id {id}")).into()
            }
            e => e,
        })
    }
}

/// The name of the one file [`SfcCoveringIndex::save_segments`] writes.
const INDEX_FILE: &str = "index.acd";

/// A saved index's payload, as [`SfcCoveringIndex::save_segments`] writes
/// it: the curve, the schema, the configuration and the subscriptions.
fn decode_index(
    payload: &[u8],
) -> Result<(CurveKind, Schema, ApproxConfig, Vec<Subscription>), DecodeError> {
    let mut c = Cursor::new(payload);
    let tag = c.take_u8()?;
    let curve =
        curve_from_tag(tag).ok_or_else(|| DecodeError::new(format!("unknown curve tag {tag}")))?;
    let schema: Schema = decode_json(&c.take_string()?, "schema")?;
    let config: ApproxConfig = decode_json(&c.take_string()?, "config")?;
    // The smallest row is an id and an empty bounds list.
    let subscriptions = c.take_list(8 + 4, |c| {
        let id = c.take_u64()?;
        // Checksums catch accidents; a crafted checksum-valid file can still
        // carry impossible bounds (wrong arity, inverted or out-of-domain
        // ranges), which must surface as corruption.
        Subscription::from_raw_bounds(&schema, id, &c.take_bounds()?)
            .map_err(|e| DecodeError::new(format!("subscription {id} has invalid bounds: {e}")))
    })?;
    c.finish()?;
    Ok((curve, schema, config, subscriptions))
}

/// A save that cannot be encoded: an I/O-shaped defect of the save into
/// `dir`, not corruption.
fn save_failed(dir: &Path, reason: String) -> CoveringError {
    StorageError::io(dir.display().to_string(), std::io::Error::other(reason)).into()
}

/// JSON-encodes a stored field.
fn encode_json<T: serde::Serialize>(value: &T, dir: &Path) -> Result<String> {
    serde_json::to_string(value)
        .map_err(|e| save_failed(dir, format!("index field failed to encode: {e}")))
}

/// JSON-decodes a stored field.
fn decode_json<T: serde::Deserialize>(json: &str, what: &str) -> Result<T, DecodeError> {
    serde_json::from_str(json).map_err(|e| DecodeError::new(format!("{what} does not parse: {e}")))
}

impl CoveringIndex for SfcCoveringIndex {
    fn insert(&mut self, subscription: &Subscription) -> Result<()> {
        self.check_schema(subscription)?;
        if self.subscriptions.contains_key(&subscription.id()) {
            return Err(CoveringError::DuplicateSubscription {
                id: subscription.id(),
            });
        }
        self.forward
            .insert(dominance_point(subscription)?, subscription.id())?;
        self.subscriptions
            .insert(subscription.id(), subscription.clone());
        self.stats.inserts += 1;
        Ok(())
    }

    fn remove(&mut self, id: SubId) -> Result<()> {
        let subscription = self
            .subscriptions
            .get(&id)
            .ok_or(CoveringError::UnknownSubscription { id })?;
        let removed = self
            .forward
            .remove_if(&dominance_point(subscription)?, |&v| v == id)?;
        debug_assert!(
            removed.is_some(),
            "subscription {id} is in the table but not in the array"
        );
        self.subscriptions.remove(&id);
        self.stats.removes += 1;
        Ok(())
    }

    fn find_covering(&mut self, query: &Subscription) -> Result<QueryOutcome> {
        self.check_schema(query)?;
        let query_point = dominance_point(query)?;
        // Dominance on the grid filters, the raw bounds confirm: a candidate
        // that covers the query only on the grid is skipped and the sweep
        // goes on to the next.
        let subscriptions = &self.subscriptions;
        let (hit, stats) = self.forward.query_dominating_where(&query_point, |id| {
            *id != query.id() && subscriptions.get(id).is_some_and(|s| s.covers(query))
        })?;
        let outcome = match hit {
            Some(id) => QueryOutcome::found(id, stats),
            None => QueryOutcome::empty(stats),
        };
        self.stats.record_query(&outcome);
        Ok(outcome)
    }

    fn len(&self) -> usize {
        self.subscriptions.len()
    }

    fn get(&self, id: SubId) -> Option<&Subscription> {
        self.subscriptions.get(&id)
    }

    fn ids(&self) -> Box<dyn Iterator<Item = SubId> + '_> {
        Box::new(self.subscriptions.keys().copied())
    }

    fn stats(&self) -> IndexStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        let config = self.forward.config();
        let eager = matches!(config.engine, crate::config::QueryEngine::EagerRuns);
        match (self.curve(), config.mode.is_exhaustive(), eager) {
            (CurveKind::Z, true, false) => "sfc-z-exhaustive",
            (CurveKind::Z, false, false) => "sfc-z-approximate",
            (CurveKind::Z, true, true) => "sfc-z-exhaustive-eager",
            (CurveKind::Z, false, true) => "sfc-z-approximate-eager",
            (CurveKind::Hilbert, true, _) => "sfc-hilbert-exhaustive-eager",
            (CurveKind::Hilbert, false, _) => "sfc-hilbert-approximate-eager",
            (CurveKind::Gray, true, _) => "sfc-gray-exhaustive-eager",
            (CurveKind::Gray, false, _) => "sfc-gray-approximate-eager",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QueryEngine;
    use crate::linear::LinearScanIndex;
    use acd_subscription::SubscriptionBuilder;

    /// An exhaustive configuration on the engine `curve` runs.
    fn exhaustive_on(curve: CurveKind) -> ApproxConfig {
        ApproxConfig::exhaustive().engine(QueryEngine::for_curve(curve))
    }

    fn schema() -> Schema {
        Schema::builder()
            .attribute("a", 0.0, 100.0)
            .attribute("b", 0.0, 100.0)
            .bits_per_attribute(5)
            .build()
            .unwrap()
    }

    fn sub(schema: &Schema, id: SubId, a: (f64, f64), b: (f64, f64)) -> Subscription {
        SubscriptionBuilder::new(schema)
            .range("a", a.0, a.1)
            .range("b", b.0, b.1)
            .build(id)
            .unwrap()
    }

    /// Deterministic pseudo-random subscription generator for tests.
    fn random_subs(schema: &Schema, n: u64, seed: u64) -> Vec<Subscription> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 10_000) as f64 / 100.0
        };
        (0..n)
            .map(|id| {
                let (a1, a2) = (next(), next());
                let (b1, b2) = (next(), next());
                sub(
                    schema,
                    id + 1,
                    (a1.min(a2), a1.max(a2)),
                    (b1.min(b2), b1.max(b2)),
                )
            })
            .collect()
    }

    /// `a` and `b` store the same subscriptions, and each one's twin (a
    /// copy under a fresh id) finds a cover in both — through the dominance
    /// array, so every stored point is reachable there too.
    fn assert_same_stored(
        a: &mut SfcCoveringIndex,
        b: &mut SfcCoveringIndex,
        subs: &[Subscription],
    ) {
        assert_eq!(a.len(), b.len());
        for sub in subs {
            assert_eq!(a.get(sub.id()), b.get(sub.id()), "stored {}", sub.id());
            if a.contains(sub.id()) {
                let twin = sub.with_id(1_000_000 + sub.id());
                for index in [&mut *a, &mut *b] {
                    let id = index.find_covering(&twin).unwrap().covering.unwrap();
                    assert!(index.get(id).unwrap().covers(&twin));
                }
            }
        }
    }

    #[test]
    fn exhaustive_index_agrees_with_linear_scan() {
        let s = schema();
        let subs = random_subs(&s, 80, 7);
        for curve in CurveKind::all() {
            let mut sfc = SfcCoveringIndex::with_curve(&s, exhaustive_on(curve), curve).unwrap();
            let mut lin = LinearScanIndex::new(&s);
            for sub in &subs {
                // Query before inserting (the router's workflow).
                let sfc_out = sfc.find_covering(sub).unwrap();
                let lin_out = lin.find_covering(sub).unwrap();
                assert_eq!(
                    sfc_out.is_covered(),
                    lin_out.is_covered(),
                    "{curve:?} disagrees with linear scan on sub {}",
                    sub.id()
                );
                if let Some(id) = sfc_out.covering {
                    assert!(sfc.get(id).unwrap().covers(sub));
                }
                sfc.insert(sub).unwrap();
                lin.insert(sub).unwrap();
            }
        }
    }

    #[test]
    fn approximate_index_has_no_false_positives_and_reasonable_recall() {
        let s = schema();
        let subs = random_subs(&s, 250, 99);
        let mut approx =
            SfcCoveringIndex::approximate(&s, ApproxConfig::with_epsilon(0.05).unwrap()).unwrap();
        let mut exact = LinearScanIndex::new(&s);
        let mut truly_covered = 0u32;
        let mut detected = 0u32;
        for sub in &subs {
            let a = approx.find_covering(sub).unwrap();
            let e = exact.find_covering(sub).unwrap();
            if let Some(id) = a.covering {
                assert!(
                    approx.get(id).unwrap().covers(sub),
                    "approximate index returned a non-covering subscription"
                );
            }
            if e.is_covered() {
                truly_covered += 1;
                if a.is_covered() {
                    detected += 1;
                }
            } else {
                assert!(!a.is_covered(), "found covering where none exists");
            }
            approx.insert(sub).unwrap();
            exact.insert(sub).unwrap();
        }
        assert!(truly_covered > 10, "workload should contain covering pairs");
        let recall = detected as f64 / truly_covered as f64;
        assert!(
            recall > 0.6,
            "recall {recall} unexpectedly low ({detected}/{truly_covered})"
        );
    }

    #[test]
    fn bulk_build_matches_incremental_inserts_on_all_curves() {
        // `build_from` must be indistinguishable from inserting one by one:
        // same covering answers, same stored set, removals still work.
        let s = schema();
        let subs = random_subs(&s, 120, 41);
        let queries = random_subs(&s, 40, 43);
        for curve in CurveKind::all() {
            let mut bulk =
                SfcCoveringIndex::build_from(&s, exhaustive_on(curve), curve, &subs).unwrap();
            let mut incremental =
                SfcCoveringIndex::with_curve(&s, exhaustive_on(curve), curve).unwrap();
            for sub in &subs {
                incremental.insert(sub).unwrap();
            }
            assert_eq!(bulk.len(), incremental.len());
            assert_eq!(bulk.stats().inserts, subs.len() as u64);
            for q in &queries {
                assert_eq!(
                    bulk.find_covering(q).unwrap().is_covered(),
                    incremental.find_covering(q).unwrap().is_covered(),
                    "{curve:?} bulk/incremental disagree on {}",
                    q.id()
                );
            }
            assert_same_stored(&mut bulk, &mut incremental, &subs);
            // Removal from a bulk-built index works.
            let victim = subs[7].id();
            bulk.remove(victim).unwrap();
            assert!(!bulk.contains(victim));
            assert_eq!(bulk.len(), subs.len() - 1);
        }
        // Duplicate ids and schema mismatches are rejected.
        let twice = vec![subs[0].clone(), subs[0].clone()];
        assert!(matches!(
            SfcCoveringIndex::build_from(&s, ApproxConfig::exhaustive(), CurveKind::Z, &twice),
            Err(CoveringError::DuplicateSubscription { .. })
        ));
        let other = Schema::builder().attribute("x", 0.0, 1.0).build().unwrap();
        let foreign = SubscriptionBuilder::new(&other).build(5).unwrap();
        assert!(matches!(
            SfcCoveringIndex::build_from(
                &s,
                ApproxConfig::exhaustive(),
                CurveKind::Z,
                std::iter::once(&foreign)
            ),
            Err(CoveringError::SchemaMismatch)
        ));
    }

    #[test]
    fn insert_remove_round_trip() {
        let s = schema();
        let mut idx = SfcCoveringIndex::exhaustive(&s).unwrap();
        let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
        let narrow = sub(&s, 2, (40.0, 60.0), (40.0, 60.0));
        idx.insert(&wide).unwrap();
        assert!(idx.contains(1));
        assert_eq!(idx.find_covering(&narrow).unwrap().covering, Some(1));
        idx.remove(1).unwrap();
        assert!(!idx.contains(1));
        assert!(!idx.find_covering(&narrow).unwrap().is_covered());
        assert!(matches!(
            idx.remove(1),
            Err(CoveringError::UnknownSubscription { id: 1 })
        ));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn failed_removal_leaves_all_structures_intact() {
        let s = schema();
        let mut idx = SfcCoveringIndex::exhaustive(&s).unwrap();
        let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
        let narrow = sub(&s, 2, (40.0, 60.0), (40.0, 60.0));
        idx.insert(&wide).unwrap();

        // Removing an unknown id must not disturb anything.
        assert!(matches!(
            idx.remove(77),
            Err(CoveringError::UnknownSubscription { id: 77 })
        ));
        assert_eq!(idx.len(), 1);
        assert!(idx.contains(1));
        // Covering still answers, and the stored set is intact.
        assert_eq!(idx.find_covering(&narrow).unwrap().covering, Some(1));
        assert_eq!(idx.get(1), Some(&wide));
        idx.insert(&narrow).unwrap();
        assert_eq!(idx.get(2), Some(&narrow));

        // A successful removal clears the subscription from the dominance
        // array and the subscription map together.
        let inside = sub(&s, 3, (45.0, 55.0), (45.0, 55.0));
        assert_eq!(idx.find_covering(&inside).unwrap().covering, Some(2));
        idx.remove(2).unwrap();
        assert!(!idx.contains(2));
        assert_eq!(idx.get(2), None);
        assert_eq!(idx.find_covering(&inside).unwrap().covering, Some(1));
        assert_eq!(idx.find_covering(&narrow).unwrap().covering, Some(1));
        assert_eq!(idx.stats().removes, 1);
    }

    #[test]
    fn duplicate_and_mismatched_inserts_are_rejected() {
        let s = schema();
        let mut idx = SfcCoveringIndex::exhaustive(&s).unwrap();
        let a = sub(&s, 1, (0.0, 10.0), (0.0, 10.0));
        idx.insert(&a).unwrap();
        assert!(matches!(
            idx.insert(&a),
            Err(CoveringError::DuplicateSubscription { id: 1 })
        ));
        let other = Schema::builder().attribute("x", 0.0, 1.0).build().unwrap();
        let foreign = SubscriptionBuilder::new(&other).build(5).unwrap();
        assert!(matches!(
            idx.insert(&foreign),
            Err(CoveringError::SchemaMismatch)
        ));
        assert!(matches!(
            idx.find_covering(&foreign),
            Err(CoveringError::SchemaMismatch)
        ));
    }

    #[test]
    fn query_never_reports_itself_even_when_stored() {
        let s = schema();
        let mut idx = SfcCoveringIndex::exhaustive(&s).unwrap();
        let a = sub(&s, 1, (0.0, 50.0), (0.0, 50.0));
        idx.insert(&a).unwrap();
        // Re-query with the same id: the stored copy must be ignored.
        assert!(!idx.find_covering(&a).unwrap().is_covered());
        // But another identical subscription with a different id is covered.
        let twin = a.with_id(2);
        assert_eq!(idx.find_covering(&twin).unwrap().covering, Some(1));
    }

    #[test]
    fn a_cover_on_the_grid_only_is_skipped_for_a_true_one() {
        // Grid 32 on [0, 100], cells 3.125 wide: `query` spans cells 3..=6
        // on both attributes. `grid_only` and `cover` have one dominance
        // point, and `grid_only` is stored first, so it comes first in every
        // sweep — but it starts at 10.2, inside the query's first cell and
        // above its 10.1. `corner` sits on the query's own point (the
        // smallest key of the region on the Z curve) and ends at 20.0, in
        // the query's last cell but below its 20.1. Both dominate the
        // query's point; neither covers it.
        let s = schema();
        let query = sub(&s, 10, (10.1, 20.1), (10.1, 20.1));
        let corner = sub(&s, 1, (10.0, 20.0), (10.0, 20.0));
        let grid_only = sub(&s, 2, (10.2, 90.0), (0.0, 100.0));
        let cover = sub(&s, 3, (10.0, 90.0), (0.0, 100.0));
        // Inside `grid_only` and `cover`, to show which comes first.
        let inner = sub(&s, 11, (12.0, 90.0), (12.0, 19.0));
        let point = |x: &Subscription| dominance_point(x).unwrap();
        assert_eq!(point(&grid_only), point(&cover));
        let curves = CurveKind::all().into_iter().flat_map(|curve| {
            let engine = QueryEngine::for_curve(curve);
            [
                ApproxConfig::exhaustive(),
                ApproxConfig::with_epsilon(0.05).unwrap(),
            ]
            .map(|config| (curve, config.engine(engine)))
        });
        let mut indexes: Vec<Box<dyn CoveringIndex>> = curves
            .map(|(curve, config)| -> Box<dyn CoveringIndex> {
                Box::new(SfcCoveringIndex::with_curve(&s, config, curve).unwrap())
            })
            .collect();
        indexes.push(Box::new(LinearScanIndex::new(&s)));
        for index in &mut indexes {
            for stored in [&corner, &grid_only, &cover] {
                assert!(point(stored).dominates(&point(&query)));
                assert_eq!(stored.covers(&query), stored.id() == 3);
                index.insert(stored).unwrap();
            }
            let name = index.name();
            assert_eq!(
                index.find_covering(&inner).unwrap().covering,
                Some(2),
                "{name}"
            );
            assert_eq!(
                index.find_covering(&query).unwrap().covering,
                Some(3),
                "{name}"
            );
            index.remove(3).unwrap();
            assert_eq!(
                index.find_covering(&query).unwrap().covering,
                None,
                "{name}"
            );
        }
    }

    #[test]
    fn reconfiguring_epsilon_changes_cost_not_correctness() {
        let s = schema();
        let subs = random_subs(&s, 120, 17);
        let mut idx = SfcCoveringIndex::exhaustive(&s).unwrap();
        for sub in &subs {
            idx.insert(sub).unwrap();
        }
        let probe = sub(&s, 9999, (45.0, 55.0), (45.0, 55.0));
        let exhaustive_out = idx.find_covering(&probe).unwrap();
        idx.set_config(ApproxConfig::with_epsilon(0.3).unwrap());
        let approx_out = idx.find_covering(&probe).unwrap();
        if approx_out.is_covered() {
            // Any hit must be genuine.
            assert!(idx
                .get(approx_out.covering.unwrap())
                .unwrap()
                .covers(&probe));
        }
        // The approximate query never does more work than the exhaustive one
        // on the same state.
        assert!(approx_out.stats.runs_probed <= exhaustive_out.stats.runs_probed.max(1));
    }

    #[test]
    fn epsilon_acts_only_under_the_eager_engine() {
        // The populated-key sweep always searches the whole region, so an
        // ε = 0.05 index and an exhaustive one return the same hit and
        // identical stats, query by query, on a churned population. Under
        // the eager engine the same ε stops some queries early.
        let s = schema();
        let subs = random_subs(&s, 400, 61);
        for engine in [QueryEngine::SkipPopulated, QueryEngine::EagerRuns] {
            let exact_config = ApproxConfig::exhaustive().engine(engine);
            let approx_config = ApproxConfig::with_epsilon(0.05).unwrap().engine(engine);
            let curves = CurveKind::all().into_iter();
            for curve in curves.filter(|&c| engine.check_curve(c).is_ok()) {
                let mut exact = SfcCoveringIndex::with_curve(&s, exact_config, curve).unwrap();
                let mut approx = SfcCoveringIndex::with_curve(&s, approx_config, curve).unwrap();
                let mut differ = 0;
                for (i, sub) in subs.iter().enumerate() {
                    let a = exact.find_covering(sub).unwrap();
                    let b = approx.find_covering(sub).unwrap();
                    differ += usize::from(a != b);
                    if engine == QueryEngine::SkipPopulated {
                        assert_eq!(a, b, "{curve:?} sub {}", sub.id());
                    }
                    exact.insert(sub).unwrap();
                    approx.insert(sub).unwrap();
                    // Churn: keep a window of the 64 newest subscriptions.
                    if let Some(old) = i.checked_sub(64).map(|j| subs[j].id()) {
                        exact.remove(old).unwrap();
                        approx.remove(old).unwrap();
                    }
                }
                if engine == QueryEngine::EagerRuns {
                    assert!(differ > 0, "{curve:?}: ε changed no eager query");
                }
            }
        }
    }

    #[test]
    fn segments_round_trip_identically_on_all_curves() {
        let s = schema();
        let subs = random_subs(&s, 150, 21);
        let queries = random_subs(&s, 50, 22);
        for curve in CurveKind::all() {
            let mut built =
                SfcCoveringIndex::build_from(&s, exhaustive_on(curve), curve, &subs).unwrap();
            let dir = std::env::temp_dir().join(format!(
                "acd-sfc-roundtrip-{}-{curve:?}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            built.save_segments(&dir).unwrap();
            let mut reopened = SfcCoveringIndex::open_segments(&dir).unwrap();
            assert_eq!(reopened.len(), built.len());
            assert_eq!(reopened.stats().inserts, built.stats().inserts);
            assert_eq!(reopened.curve(), curve);
            assert_eq!(reopened.schema(), &s);
            assert_eq!(reopened.config(), built.config());
            for q in &queries {
                assert_eq!(
                    built.find_covering(q).unwrap().is_covered(),
                    reopened.find_covering(q).unwrap().is_covered(),
                    "{curve:?} reopened index disagrees on {}",
                    q.id()
                );
            }
            assert_same_stored(&mut built, &mut reopened, &subs);
            // The reopened index stays fully mutable.
            let victim = subs[3].id();
            reopened.remove(victim).unwrap();
            assert!(!reopened.contains(victim));
            reopened.insert(&subs[3]).unwrap();
            assert!(reopened.contains(victim));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The names in `dir`, sorted.
    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_save_is_one_file_that_the_next_save_replaces() {
        let s = schema();
        let dir = std::env::temp_dir().join(format!("acd-sfc-save-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let build = |n, seed| {
            let subs = random_subs(&s, n, seed);
            SfcCoveringIndex::build_from(&s, ApproxConfig::exhaustive(), CurveKind::Z, &subs)
                .unwrap()
        };
        build(30, 1).save_segments(&dir).unwrap();
        assert_eq!(files_in(&dir), [INDEX_FILE]);
        let second = build(45, 2);
        second.save_segments(&dir).unwrap();
        assert_eq!(files_in(&dir), [INDEX_FILE]);
        // The same index writes the same bytes.
        let saved = std::fs::read(dir.join(INDEX_FILE)).unwrap();
        second.save_segments(&dir).unwrap();
        assert_eq!(std::fs::read(dir.join(INDEX_FILE)).unwrap(), saved);
        // A save cut before its rename leaves a temp file behind; the last
        // completed save still opens, and the next save takes the temp name
        // over.
        let tmp = dir.join(format!("{INDEX_FILE}.tmp"));
        std::fs::write(&tmp, &saved[..saved.len() / 2]).unwrap();
        assert_eq!(SfcCoveringIndex::open_segments(&dir).unwrap().len(), 45);
        build(12, 3).save_segments(&dir).unwrap();
        assert_eq!(files_in(&dir), [INDEX_FILE]);
        assert_eq!(SfcCoveringIndex::open_segments(&dir).unwrap().len(), 12);
        // An empty directory is a typed NoCommit error, not a panic.
        let empty = std::env::temp_dir().join(format!("acd-sfc-empty-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        let err = SfcCoveringIndex::open_segments(&empty).unwrap_err();
        assert!(matches!(
            err.as_storage(),
            Some(acd_storage::StorageError::NoCommit { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn names_and_accessors() {
        let s = schema();
        let idx = SfcCoveringIndex::exhaustive(&s).unwrap();
        assert_eq!(idx.name(), "sfc-z-exhaustive");
        assert_eq!(idx.curve(), CurveKind::Z);
        assert_eq!(idx.schema(), &s);
        let idx = SfcCoveringIndex::with_curve(
            &s,
            ApproxConfig::with_epsilon(0.1)
                .unwrap()
                .engine(QueryEngine::EagerRuns),
            CurveKind::Hilbert,
        )
        .unwrap();
        assert_eq!(idx.name(), "sfc-hilbert-approximate-eager");
        assert_eq!(idx.config().epsilon(), 0.1);
    }

    #[test]
    fn the_skip_engine_is_rejected_off_the_z_curve() {
        // At construction, whether empty or bulk-built, and at the first
        // query after `set_config` asks for it.
        let s = schema();
        let subs = random_subs(&s, 30, 5);
        let skip = ApproxConfig::exhaustive();
        for curve in [CurveKind::Hilbert, CurveKind::Gray] {
            let unsupported = CoveringError::UnsupportedEngine {
                curve,
                engine: QueryEngine::SkipPopulated,
            };
            assert_eq!(
                SfcCoveringIndex::with_curve(&s, skip, curve).unwrap_err(),
                unsupported
            );
            assert_eq!(
                SfcCoveringIndex::build_from(&s, skip, curve, &subs).unwrap_err(),
                unsupported
            );
            let mut idx =
                SfcCoveringIndex::build_from(&s, exhaustive_on(curve), curve, &subs).unwrap();
            assert!(idx.find_covering(&subs[0]).is_ok());
            idx.set_config(skip);
            assert_eq!(idx.find_covering(&subs[0]).unwrap_err(), unsupported);
            assert_eq!(idx.find_covering_batch(&subs).unwrap_err(), unsupported);
        }
    }
}
