//! A sharded, concurrently readable covering index with online rebalancing.
//!
//! [`ShardedCoveringIndex`] partitions subscriptions across N shards by
//! *SFC key range*: shard `i` owns a contiguous slice of the dominance-space
//! key line, and a subscription lives in the shard that contains its forward
//! dominance key. Each shard is a complete [`SfcCoveringIndex`] behind its
//! own rank-checked [`OrderedRwLock`], so
//! queries proceed concurrently with each other and with
//! updates to *other* shards; only a write to the same shard excludes
//! readers.
//!
//! # Why range sharding (and not hashing)
//!
//! A covering query is a dominance query: on the Z curve, every point that
//! dominates the query point `q` has a key **at or after** `key(q)` (the
//! interleave is monotone under component-wise dominance: if the keys first
//! differ at an interleaved bit of dimension `j`, the dominating point's
//! `j`-th coordinate would otherwise be smaller). The query region is thus a
//! suffix of the key line, and with *range* shards the BIGMIN sweep touches
//! only the shards that suffix overlaps — shards entirely below `key(q)` are
//! pruned without taking their locks at all, and each visited shard runs its
//! ordinary sub-linear skip sweep over its own slice. Hash sharding would
//! scatter every dominance region across all shards, forcing a full fan-out
//! per query and destroying exactly the locality the skip engine exploits.
//! The reverse (covered-by) query prunes the opposite suffix: subscriptions
//! a query covers have keys at or before `key(q)`.
//!
//! # Boundaries, drift and rebalancing
//!
//! Shard boundaries are uniform slices of the key space by default;
//! [`ShardedCoveringIndex::build_from`] instead picks boundaries from the
//! population's key *quantiles* so bulk-built shards start balanced even
//! under skewed (e.g. Zipf) workloads. Boundaries are no longer frozen
//! after construction: sustained skewed churn (a drifting hot region)
//! concentrates new subscriptions into one shard, and
//! [`rebalance`](ShardedCoveringIndex::rebalance) re-cuts the boundaries to
//! the *current* population's quantiles, migrating subscriptions between
//! shards under a brief global write pause. The pause is implemented with a
//! single readers-writer lock over the boundary vector: every index
//! operation holds it for read (cheap, shared), a migration takes it for
//! write, so a reader either sees the entire old layout or the entire new
//! one — never a torn mixture. [`maybe_rebalance`] gates the pass on a
//! [`RebalancePolicy`], and [`set_rebalance_policy`] arms an automatic
//! check every `check_interval` updates.
//!
//! # One query path
//!
//! A covering query is a sequential, early-exit sweep over the candidate
//! shards in ascending key order, run on the calling thread. There is
//! deliberately no parallel fan-out: a query is a few microseconds of
//! work, less than one cross-thread hand-off, so fanning out loses at
//! every population size (measurements in README "Rebalancing").
//!
//! [`maybe_rebalance`]: ShardedCoveringIndex::maybe_rebalance
//! [`set_rebalance_policy`]: ShardedCoveringIndex::set_rebalance_policy

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use acd_sfc::{CurveKind, Key, SpaceFillingCurve};
use acd_storage::{
    commit_file_name, curve_from_tag, curve_tag, latest_commit, prune, read_commit, segment_stem,
    write_commit, CommitManifest, StorageError,
};
use acd_subscription::{dominance_point, dominance_universe, Schema, SubId, Subscription};

use crate::config::ApproxConfig;
use crate::error::CoveringError;
use crate::index::CoveringIndex;
use crate::ordered::{
    OrderedMutex, OrderedRwLock, RANK_LAYOUT, RANK_POLICY, RANK_REGISTRY, RANK_SEGMENTS,
    RANK_SHARD_BASE, RANK_STATS,
};
use crate::policy::RebalancePolicy;
use crate::rebalance::{imbalance_of, quantile_starts, shard_of_prefix, RebalanceOutcome};
use crate::sfc_index::{decode_json, encode_json, SfcCoveringIndex};
use crate::stats::{IndexStats, QueryOutcome, QueryStats};
use crate::Result;

/// Maximum accepted shard count.
pub const MAX_SHARDS: usize = 64;

/// The top 64 bits of `key`, left-aligned: a monotone (order-preserving)
/// projection of the key line onto `u64`, used for shard boundaries. Keys
/// narrower than 64 bits are shifted up so the projection spans the full
/// `u64` range; wider keys keep their 64 most significant bits (ties
/// collapse, which only ever makes shard pruning more conservative).
fn key_prefix(key: &Key) -> u64 {
    let bits = key.bits();
    if bits == 0 {
        return 0;
    }
    if bits <= 64 {
        let v = key.to_u128().expect("≤64-bit keys fit a u128") as u64;
        if bits == 64 {
            v
        } else {
            v << (64 - bits)
        }
    } else if bits <= 128 {
        (key.to_u128().expect("≤128-bit keys fit a u128") >> (bits - 64)) as u64
    } else {
        let mut v = 0u64;
        for i in 0..64 {
            v = (v << 1) | u64::from(key.bit(bits - 1 - i));
        }
        v
    }
}

/// A sharded covering index: key-range partitioned [`SfcCoveringIndex`]
/// shards behind per-shard read/write locks, with shard pruning for
/// dominance queries and online boundary rebalancing (see the
/// [module docs](self)).
///
/// All operations take `&self`; interior locking makes the index safe to
/// share across threads (`&ShardedCoveringIndex` is `Send + Sync`). It also
/// implements [`CoveringIndex`], so a broker can use it wherever a
/// single-threaded index fits.
///
/// # Example
///
/// ```
/// use acd_covering::{ShardedCoveringIndex, ApproxConfig, CoveringIndex};
/// use acd_sfc::CurveKind;
/// use acd_subscription::{Schema, SubscriptionBuilder};
///
/// # fn main() -> Result<(), acd_covering::CoveringError> {
/// let schema = Schema::builder()
///     .attribute("x", 0.0, 100.0)
///     .attribute("y", 0.0, 100.0)
///     .bits_per_attribute(6)
///     .build()?;
/// let index =
///     ShardedCoveringIndex::new(&schema, ApproxConfig::exhaustive(), CurveKind::Z, 4)?;
/// let wide = SubscriptionBuilder::new(&schema)
///     .range("x", 0.0, 100.0)
///     .range("y", 0.0, 100.0)
///     .build(1)?;
/// let narrow = SubscriptionBuilder::new(&schema)
///     .range("x", 40.0, 60.0)
///     .range("y", 40.0, 60.0)
///     .build(2)?;
/// index.insert(&wide)?;
/// assert_eq!(index.find_covering(&narrow)?.covering, Some(1));
/// # Ok(())
/// # }
/// ```
pub struct ShardedCoveringIndex {
    schema: Schema,
    config: ApproxConfig,
    curve: CurveKind,
    /// Computes forward dominance keys for shard routing, independent of the
    /// per-shard engines (which own their curves).
    keyer: Box<dyn SpaceFillingCurve>,
    /// Shard `i` owns prefixes in `starts[i] .. starts[i + 1]` (the last
    /// shard is unbounded above). `starts[0] == 0`; entries are
    /// non-decreasing (equal neighbours leave the earlier shard empty).
    ///
    /// The `RwLock` is the global-pause rendezvous: every index operation
    /// that routes by boundary or walks the shards holds it for read, a
    /// boundary migration holds it for write. Lock order is `starts` →
    /// `registry` → shard locks (ascending) → `stats` (see `LOCKING.md`);
    /// every code path acquires a subset of that chain in that order. The
    /// [`OrderedRwLock`]/[`OrderedMutex`] wrappers assert exactly that in
    /// debug builds, and `acd-lint`'s `lock-order` pass checks it
    /// statically.
    starts: OrderedRwLock<Vec<u64>>,
    /// The shard array itself never changes length. Shard `i`'s lock
    /// carries rank `RANK_SHARD_BASE + i`, so the ascending-order rule is
    /// machine-checked too.
    shards: Vec<OrderedRwLock<SfcCoveringIndex>>,
    /// Which shard holds each stored identifier. The single writer-side
    /// rendezvous point: readers (covering queries) never touch it.
    registry: OrderedMutex<HashMap<SubId, u32>>,
    /// Query statistics aggregated at the sharded level (shards record only
    /// their own insert/remove counters; queries go through the read-only
    /// shard path). Migrations also fold retired shards' counters in here,
    /// so rebalancing never changes what [`stats`](Self::stats) reports.
    stats: OrderedMutex<IndexStats>,
    /// Auto-rebalance policy; `None` leaves rebalancing to explicit calls.
    rebalance_policy: OrderedRwLock<Option<RebalancePolicy>>,
    /// Updates since construction, counted only while a policy is armed
    /// (drives the `check_interval` trigger).
    ops_since_check: AtomicU64,
    /// The attached durable-segment directory, if the index was saved to or
    /// opened from one: the directory path plus the last committed manifest
    /// (whose shard refs a compaction reuses for clean shards). Rank
    /// [`RANK_SEGMENTS`]: taken after all shard guards, before `stats`.
    segments: OrderedMutex<Option<SegmentAttachment>>,
    /// Per-shard modified-since-last-commit flags: set by `insert`/`remove`
    /// under the shard's write lock, cleared once a commit naming fresh
    /// files for every flagged shard has landed. A rebalance compaction may
    /// re-reference an existing segment file only for a shard that is both
    /// unflagged and membership-unchanged — otherwise the new manifest
    /// would pin files that no longer match the in-memory shard.
    modified: Vec<AtomicBool>,
}

/// See [`ShardedCoveringIndex::save_segments`].
#[derive(Debug)]
struct SegmentAttachment {
    dir: PathBuf,
    manifest: CommitManifest,
}

impl fmt::Debug for ShardedCoveringIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedCoveringIndex")
            .field("curve", &self.curve)
            .field("config", &self.config)
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl ShardedCoveringIndex {
    /// Creates an empty index over `schema` with `shards` shards whose
    /// boundaries split the key space uniformly.
    ///
    /// # Errors
    ///
    /// Returns an error if `shards` is outside `1..=`[`MAX_SHARDS`] or the
    /// dominance universe cannot be constructed.
    pub fn new(
        schema: &Schema,
        config: ApproxConfig,
        curve: CurveKind,
        shards: usize,
    ) -> Result<Self> {
        Self::check_shards(shards)?;
        let starts = (0..shards)
            .map(|i| ((i as u128) << 64).div_euclid(shards as u128) as u64)
            .collect();
        Self::with_boundaries(schema, config, curve, starts)
    }

    /// Bulk-builds an index over a known subscription set. Shard boundaries
    /// are chosen from the population's forward-key quantiles, so the shards
    /// start balanced even when the key distribution is heavily skewed; each
    /// shard is then built with [`SfcCoveringIndex::build_from`] (one sort
    /// per shard instead of incremental inserts).
    ///
    /// # Errors
    ///
    /// Returns an error if `shards` is invalid, any subscription disagrees
    /// with `schema`, or two subscriptions share an identifier.
    pub fn build_from<'a, I>(
        schema: &Schema,
        config: ApproxConfig,
        curve: CurveKind,
        shards: usize,
        subscriptions: I,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Subscription>,
    {
        Self::check_shards(shards)?;
        let universe = dominance_universe(schema)?;
        let keyer = curve.build(universe);

        let mut keyed: Vec<(u64, &'a Subscription)> = Vec::new();
        for sub in subscriptions {
            if sub.schema() != schema {
                return Err(CoveringError::SchemaMismatch);
            }
            let key = keyer.key_of_point(&dominance_point(sub)?)?;
            keyed.push((key_prefix(&key), sub));
        }

        let mut prefixes: Vec<u64> = keyed.iter().map(|&(p, _)| p).collect();
        let starts = quantile_starts(&mut prefixes, shards);

        let mut partitions: Vec<Vec<&Subscription>> = vec![Vec::new(); shards];
        let index = Self::with_boundaries(schema, config, curve, starts)?;
        {
            let starts = index.starts.read();
            let mut registry = index.registry.lock();
            for (prefix, sub) in keyed {
                let shard = shard_of_prefix(&starts, prefix);
                if registry.insert(sub.id(), shard as u32).is_some() {
                    return Err(CoveringError::DuplicateSubscription { id: sub.id() });
                }
                partitions[shard].push(sub);
            }
        }
        for (shard, part) in partitions.into_iter().enumerate() {
            let built = SfcCoveringIndex::build_from(schema, config, curve, part)?;
            *index.shards[shard].write() = built;
        }
        Ok(index)
    }

    fn with_boundaries(
        schema: &Schema,
        config: ApproxConfig,
        curve: CurveKind,
        starts: Vec<u64>,
    ) -> Result<Self> {
        debug_assert_eq!(starts.first(), Some(&0));
        let shard_count = starts.len();
        let universe = dominance_universe(schema)?;
        let shards = starts
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Ok(OrderedRwLock::new(
                    RANK_SHARD_BASE + i as u32,
                    "shard",
                    SfcCoveringIndex::with_curve(schema, config, curve)?,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedCoveringIndex {
            schema: schema.clone(),
            config,
            curve,
            keyer: curve.build(universe),
            starts: OrderedRwLock::new(RANK_LAYOUT, "layout", starts),
            shards,
            registry: OrderedMutex::new(RANK_REGISTRY, "registry", HashMap::new()),
            stats: OrderedMutex::new(RANK_STATS, "stats", IndexStats::default()),
            rebalance_policy: OrderedRwLock::new(RANK_POLICY, "policy", None),
            ops_since_check: AtomicU64::new(0),
            segments: OrderedMutex::new(RANK_SEGMENTS, "segments", None),
            modified: (0..shard_count).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    fn check_shards(shards: usize) -> Result<()> {
        if !(1..=MAX_SHARDS).contains(&shards) {
            return Err(CoveringError::InvalidShardCount { shards });
        }
        Ok(())
    }

    fn check_schema(&self, subscription: &Subscription) -> Result<()> {
        if subscription.schema() != &self.schema {
            return Err(CoveringError::SchemaMismatch);
        }
        Ok(())
    }

    /// The schema this index serves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The curve family the shards are built on.
    pub fn curve(&self) -> CurveKind {
        self.curve
    }

    /// The query configuration shared by all shards.
    pub fn config(&self) -> ApproxConfig {
        self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of stored subscriptions per shard (diagnostics / balance
    /// inspection; the trigger input of [`maybe_rebalance`](Self::maybe_rebalance)).
    pub fn shard_lens(&self) -> Vec<usize> {
        let _layout = self.starts.read();
        self.shards.iter().map(|s| s.read().len()).collect()
    }

    /// The current shard boundaries (start prefix of each shard's key
    /// range; `boundaries()[0] == 0`).
    pub fn boundaries(&self) -> Vec<u64> {
        self.starts.read().clone()
    }

    /// The imbalance factor of the current population: the largest shard's
    /// length over the ideal per-shard length (`1.0` = perfectly balanced,
    /// `shard_count()` = everything in one shard).
    pub fn imbalance(&self) -> f64 {
        imbalance_of(&self.shard_lens())
    }

    /// Number of stored subscriptions.
    pub fn len(&self) -> usize {
        self.registry.lock().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a subscription with the given identifier is stored.
    pub fn contains(&self, id: SubId) -> bool {
        self.registry.lock().contains_key(&id)
    }

    /// A clone of the subscription stored under `id`, if any (cloning is
    /// cheap — subscription payloads are `Arc`-shared).
    pub fn get(&self, id: SubId) -> Option<Subscription> {
        let _layout = self.starts.read();
        let shard = {
            let registry = self.registry.lock();
            *registry.get(&id)? as usize
        };
        self.shards[shard].read().get(id).cloned()
    }

    /// Accumulated statistics: queries recorded at the sharded level plus
    /// every shard's insert/remove counters. Boundary migrations fold the
    /// counters of rebuilt shards into the sharded level first, so the
    /// totals reported here are unaffected by rebalancing.
    pub fn stats(&self) -> IndexStats {
        let _layout = self.starts.read();
        let mut total = *self.stats.lock();
        for shard in self.shards.iter() {
            total.absorb(&shard.read().stats());
        }
        total
    }

    /// The forward-key prefix of a subscription's dominance point.
    fn prefix_of(&self, subscription: &Subscription) -> Result<u64> {
        let key = self.keyer.key_of_point(&dominance_point(subscription)?)?;
        Ok(key_prefix(&key))
    }

    /// The shards a forward (covering) query for `prefix` must visit, in
    /// ascending key order. On the Z curve every dominating point's key is
    /// at-or-after the query key, so shards below the query's shard are
    /// pruned; Hilbert and Gray keys are not dominance-monotone, so those
    /// curves fan out to every shard.
    fn covering_candidates(&self, starts: &[u64], prefix: u64) -> std::ops::RangeInclusive<usize> {
        match self.curve {
            CurveKind::Z => shard_of_prefix(starts, prefix)..=self.shards.len() - 1,
            _ => 0..=self.shards.len() - 1,
        }
    }

    /// The shards a reverse (covered-by) query for `prefix` must visit: the
    /// mirror-image pruning of [`covering_candidates`](Self::covering_candidates).
    fn covered_by_candidates(
        &self,
        starts: &[u64],
        prefix: u64,
    ) -> std::ops::RangeInclusive<usize> {
        match self.curve {
            CurveKind::Z => 0..=shard_of_prefix(starts, prefix),
            _ => 0..=self.shards.len() - 1,
        }
    }

    /// Inserts a subscription into the shard owning its forward key.
    ///
    /// # Errors
    ///
    /// Returns an error if the subscription's schema does not match the
    /// index or its identifier is already present (in any shard).
    pub fn insert(&self, subscription: &Subscription) -> Result<()> {
        self.check_schema(subscription)?;
        let prefix = self.prefix_of(subscription)?;
        let result = {
            // Hold the layout for the whole route-then-write window so a
            // migration cannot move the boundary between choosing the shard
            // and inserting into it.
            let starts = self.starts.read();
            let shard = shard_of_prefix(&starts, prefix);
            {
                let mut registry = self.registry.lock();
                if registry.contains_key(&subscription.id()) {
                    return Err(CoveringError::DuplicateSubscription {
                        id: subscription.id(),
                    });
                }
                registry.insert(subscription.id(), shard as u32);
            }
            let result = self.shards[shard].write().insert(subscription);
            if result.is_err() {
                self.registry.lock().remove(&subscription.id());
            } else {
                self.modified[shard].store(true, Ordering::Relaxed);
            }
            result
        };
        if result.is_ok() {
            self.after_update();
        }
        result
    }

    /// Removes a subscription by identifier.
    ///
    /// # Errors
    ///
    /// Returns an error if no subscription with that identifier is stored.
    pub fn remove(&self, id: SubId) -> Result<()> {
        let result = {
            // The layout guard keeps the registry's shard assignment valid
            // until the removal lands (a migration would otherwise move the
            // subscription out from under us).
            let _layout = self.starts.read();
            let shard = {
                let mut registry = self.registry.lock();
                registry
                    .remove(&id)
                    .ok_or(CoveringError::UnknownSubscription { id })? as usize
            };
            let result = self.shards[shard].write().remove(id);
            if result.is_err() {
                // Leave the registry consistent with the shard on the (never
                // expected) failure path.
                self.registry.lock().insert(id, shard as u32);
            } else {
                self.modified[shard].store(true, Ordering::Relaxed);
            }
            result
        };
        if result.is_ok() {
            self.after_update();
        }
        result
    }

    /// Covering query: a sequential early-exit sweep over the candidate
    /// shards, run on the calling thread under the shards' read locks.
    /// Candidates are visited in ascending key order and the sweep stops at
    /// the first hit (any reported identifier is a true cover); the returned
    /// counters are the sums over the shards visited, except
    /// `volume_fraction_searched`, which is their maximum. Takes `&self`, so
    /// concurrent readers proceed in parallel; the outcome is recorded in
    /// the sharded-level statistics, so returned outcomes sum to the
    /// [`stats`](Self::stats) totals.
    ///
    /// # Errors
    ///
    /// Returns an error if the query's schema does not match the index.
    // acd-lint: hot
    pub fn find_covering(&self, query: &Subscription) -> Result<QueryOutcome> {
        self.check_schema(query)?;
        let prefix = self.prefix_of(query)?;
        let mut merged = QueryStats::default();
        let mut hit = None;
        {
            let starts = self.starts.read();
            for shard in self.covering_candidates(&starts, prefix) {
                let outcome = self.shards[shard].read().find_covering_ref(query)?;
                merged.absorb(&outcome.stats);
                if outcome.covering.is_some() {
                    hit = outcome.covering;
                    break;
                }
            }
        }
        let outcome = match hit {
            Some(id) => QueryOutcome::found(id, merged),
            None => QueryOutcome::empty(merged),
        };
        self.record(&outcome);
        Ok(outcome)
    }

    /// Batched covering query: answers every query in `queries` under one
    /// layout guard, visiting each candidate shard **once** and serving all
    /// still-pending queries against it through the shard's batched kernel
    /// ([`SfcCoveringIndex::find_covering_batch_ref`]). Returns one merged
    /// outcome per query, in input order.
    ///
    /// Answers match the serial sweep exactly: every query visits the same
    /// ascending shard range (`covering_candidates`) and retires at its
    /// first hit. The batched kernel may *reduce* per-query probe work
    /// inside a shard (shared Z sweep), never change answers. Each outcome
    /// is recorded in the sharded-level statistics, so per-query outcomes
    /// still sum to the [`IndexStats`] totals.
    ///
    /// # Errors
    ///
    /// Returns an error if any query's schema does not match the index; the
    /// whole batch is validated up front, so on error no query has executed
    /// or been recorded.
    pub fn find_covering_batch(&self, queries: &[Subscription]) -> Result<Vec<QueryOutcome>> {
        for query in queries {
            self.check_schema(query)?;
        }
        let mut prefixes = Vec::with_capacity(queries.len());
        for query in queries {
            prefixes.push(self.prefix_of(query)?);
        }
        let n = queries.len();
        let mut hits: Vec<Option<SubId>> = vec![None; n];
        let mut merged = vec![QueryStats::default(); n];
        {
            // One layout guard across the whole batch: every query routes
            // against the same shard boundaries.
            let starts = self.starts.read();
            let first_shard: Vec<usize> = prefixes
                .iter()
                .map(|&p| *self.covering_candidates(&starts, p).start())
                .collect();
            let mut sub_batch: Vec<Subscription> = Vec::new();
            let mut batch_idx: Vec<usize> = Vec::new();
            for shard in 0..self.shards.len() {
                sub_batch.clear();
                batch_idx.clear();
                for i in 0..n {
                    if hits[i].is_none() && first_shard[i] <= shard {
                        sub_batch.push(queries[i].clone());
                        batch_idx.push(i);
                    }
                }
                if sub_batch.is_empty() {
                    continue;
                }
                let outcomes = self.shards[shard]
                    .read()
                    .find_covering_batch_ref(&sub_batch)?;
                for (outcome, &i) in outcomes.iter().zip(&batch_idx) {
                    merged[i].absorb(&outcome.stats);
                    // A hit retires the query (it is not batched again), so
                    // the lowest-keyed shard's hit wins, exactly like the
                    // serial sweep's break.
                    hits[i] = outcome.covering;
                }
            }
        }
        let outcomes: Vec<QueryOutcome> = hits
            .into_iter()
            .zip(merged)
            .map(|(hit, stats)| match hit {
                Some(id) => QueryOutcome::found(id, stats),
                None => QueryOutcome::empty(stats),
            })
            .collect();
        for outcome in &outcomes {
            self.record(outcome);
        }
        Ok(outcomes)
    }

    /// Reverse query: identifiers of every stored subscription `query`
    /// covers, merged across the candidate shards.
    ///
    /// # Errors
    ///
    /// Returns an error if the query's schema does not match the index.
    pub fn find_covered_by(&self, query: &Subscription) -> Result<Vec<SubId>> {
        self.check_schema(query)?;
        let prefix = self.prefix_of(query)?;
        let starts = self.starts.read();
        let candidates = self.covered_by_candidates(&starts, prefix);
        let mut ids = Vec::new();
        for shard in candidates {
            ids.extend(self.shards[shard].read().find_covered_by_ref(query)?);
        }
        Ok(ids)
    }

    /// Persists every shard into `dir` as one immutable segment each, under
    /// a fresh commit generation, and **attaches** the index to the
    /// directory: subsequent [`rebalance`](Self::rebalance) passes compact
    /// incrementally — only shards whose membership changed are rewritten,
    /// clean shards keep their existing files under the new commit.
    ///
    /// Runs under the read side of the layout and shard locks, so concurrent
    /// queries proceed; concurrent writers wait for the snapshot to finish.
    ///
    /// # Errors
    ///
    /// Returns a [`CoveringError::Storage`] error if writing fails; a
    /// failed save leaves the previous generation fully readable.
    pub fn save_segments(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io(dir.display().to_string(), e))?;
        let starts = self.starts.read();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut segments = self.segments.lock();
        let generation = latest_commit(dir)?.map_or(1, |(g, _)| g + 1);
        let mut shards = Vec::with_capacity(guards.len());
        for (i, guard) in guards.iter().enumerate() {
            shards.push(guard.write_segment(dir, &segment_stem(generation, i), generation)?);
        }
        let manifest = CommitManifest {
            generation,
            curve_tag: curve_tag(self.curve),
            schema_json: encode_json(&self.schema, dir)?,
            config_json: encode_json(&self.config, dir)?,
            starts: starts.clone(),
            shards,
        };
        write_commit(dir, &manifest)?;
        prune(dir, &manifest)?;
        // The commit named a fresh file for every shard; clearing the flags
        // here is race-free because the shard read guards are still held,
        // so no writer can have mutated a shard since its segment was
        // written.
        for flag in &self.modified {
            flag.store(false, Ordering::Relaxed);
        }
        *segments = Some(SegmentAttachment {
            dir: dir.to_owned(),
            manifest,
        });
        Ok(())
    }

    /// Reopens the most recent [`save_segments`](Self::save_segments)
    /// generation in `dir` without rebuilding: each shard's array is
    /// gathered straight from its segment's sorted columns (no keying pass,
    /// no sort), the registry is refilled from the loaded shards, and the
    /// index comes back attached to `dir` for incremental compaction.
    ///
    /// # Errors
    ///
    /// [`StorageError::NoCommit`] if the directory holds no commit;
    /// `CorruptSegment` on any malformation, including a subscription
    /// filed in a shard its key does not route to.
    pub fn open_segments(dir: &Path) -> Result<Self> {
        let Some((_, path)) = latest_commit(dir)? else {
            return Err(StorageError::NoCommit {
                dir: dir.display().to_string(),
            }
            .into());
        };
        let manifest = read_commit(&path)?;
        let commit_name = commit_file_name(manifest.generation);
        if manifest.starts.len() != manifest.shards.len()
            || manifest.starts.first() != Some(&0)
            || !manifest.starts.windows(2).all(|w| w[0] <= w[1])
            || manifest.shards.len() > MAX_SHARDS
        {
            return Err(StorageError::corrupt(
                &commit_name,
                format!(
                    "commit's shard layout is unusable ({} shards, {} boundaries)",
                    manifest.shards.len(),
                    manifest.starts.len()
                ),
            )
            .into());
        }
        let schema: Schema = decode_json(&manifest.schema_json, &commit_name, "schema")?;
        let config: ApproxConfig = decode_json(&manifest.config_json, &commit_name, "config")?;
        let Some(curve) = curve_from_tag(manifest.curve_tag) else {
            return Err(StorageError::corrupt(
                &commit_name,
                format!("unknown curve tag {}", manifest.curve_tag),
            )
            .into());
        };
        let index = Self::with_boundaries(&schema, config, curve, manifest.starts.clone())?;
        {
            let starts = index.starts.read();
            let mut registry = index.registry.lock();
            for (i, shard_ref) in manifest.shards.iter().enumerate() {
                let loaded = SfcCoveringIndex::open_shard_segment(dir, &manifest, shard_ref)?;
                for sub in loaded.subscriptions() {
                    // A checksum-valid commit could still file a
                    // subscription in a shard its key does not route to,
                    // which would make queries silently wrong — the one
                    // thing a load must never be.
                    let prefix = index.prefix_of(sub)?;
                    if shard_of_prefix(&starts, prefix) != i {
                        return Err(StorageError::corrupt(
                            format!("{}.dat", shard_ref.stem),
                            format!("subscription {} does not route to shard {i}", sub.id()),
                        )
                        .into());
                    }
                    if registry.insert(sub.id(), i as u32).is_some() {
                        return Err(StorageError::corrupt(
                            format!("{}.dat", shard_ref.stem),
                            format!("subscription {} appears in two shards", sub.id()),
                        )
                        .into());
                    }
                }
                *index.shards[i].write() = loaded;
            }
        }
        *index.segments.lock() = Some(SegmentAttachment {
            dir: dir.to_owned(),
            manifest,
        });
        Ok(index)
    }

    /// Re-cuts the shard boundaries to the current population's key
    /// quantiles, migrating subscriptions whose shard changed. Runs under a
    /// brief global write pause (the layout lock held for write plus every
    /// shard's write lock), so concurrent readers observe either the
    /// complete old layout or the complete new one. Shards whose membership
    /// is unchanged are left untouched; changed shards are rebuilt with the
    /// bulk path (one sort per shard). Accumulated statistics are preserved
    /// exactly — rebuilt shards' counters are folded into the sharded-level
    /// totals — and `stats().rebalances` / `stats().subscriptions_migrated`
    /// record the pass.
    ///
    /// A pass over an already-balanced population is a cheap no-op
    /// (`moved == 0`, boundaries unchanged).
    ///
    /// # Errors
    ///
    /// Returns an error only if a shard rebuild fails (which cannot happen
    /// for subscriptions the index already accepted); the index is left
    /// unchanged in that case.
    pub fn rebalance(&self) -> Result<RebalanceOutcome> {
        let mut starts = self.starts.write();
        let mut registry = self.registry.lock();
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let lens_before: Vec<usize> = guards.iter().map(|g| g.len()).collect();
        let imbalance_before = imbalance_of(&lens_before);
        let total: usize = lens_before.iter().sum();

        // Gather the whole population with its routing prefixes (clones are
        // cheap — payloads are Arc-shared).
        let mut keyed: Vec<(u64, Subscription)> = Vec::with_capacity(total);
        for guard in &guards {
            for sub in guard.subscriptions() {
                let key = self.keyer.key_of_point(&dominance_point(sub)?)?;
                keyed.push((key_prefix(&key), sub.clone()));
            }
        }
        let mut prefixes: Vec<u64> = keyed.iter().map(|&(p, _)| p).collect();
        let new_starts = quantile_starts(&mut prefixes, self.shards.len());

        // Diff the new partition against the registry's current assignment.
        let shard_count = self.shards.len();
        let mut partitions: Vec<Vec<Subscription>> = vec![Vec::new(); shard_count];
        let mut dirty = vec![false; shard_count];
        let mut moved: Vec<(SubId, u32)> = Vec::new();
        for (prefix, sub) in keyed {
            let new_shard = shard_of_prefix(&new_starts, prefix);
            let old_shard = *registry
                .get(&sub.id())
                .expect("registry covers every stored subscription")
                as usize;
            if old_shard != new_shard {
                dirty[old_shard] = true;
                dirty[new_shard] = true;
                moved.push((sub.id(), new_shard as u32));
            }
            partitions[new_shard].push(sub);
        }
        if moved.is_empty() {
            return Ok(RebalanceOutcome {
                moved: 0,
                shards_rebuilt: 0,
                imbalance_before,
                imbalance_after: imbalance_before,
                lens_before: lens_before.clone(),
                lens_after: lens_before,
            });
        }

        // Build every dirty shard first, so an error leaves the index
        // untouched; only then commit shards, registry and boundaries.
        let mut rebuilt: Vec<(usize, SfcCoveringIndex)> = Vec::new();
        for (shard, part) in partitions.into_iter().enumerate() {
            if !dirty[shard] {
                continue;
            }
            let mut built =
                SfcCoveringIndex::build_from(&self.schema, self.config, self.curve, part.iter())?;
            built.reset_stats();
            rebuilt.push((shard, built));
        }
        let shards_rebuilt = rebuilt.len();
        let mut absorbed = IndexStats::default();
        for (shard, built) in rebuilt {
            absorbed.absorb(&guards[shard].stats());
            *guards[shard] = built;
        }
        for (id, shard) in &moved {
            registry.insert(*id, *shard);
        }
        *starts = new_starts;

        // LSM-style compaction of the attached data directory: only shards
        // whose on-disk segment still matches their contents — membership
        // unchanged by this pass AND unmodified since the last commit — are
        // re-referenced from the new commit; every other shard gets a fresh
        // segment file, and the superseded generation's files are pruned
        // only after the new commit has landed. Runs while the shard guards
        // are still held so the files match exactly what was committed in
        // memory. A storage failure here is surfaced to the caller, but the
        // in-memory rebalance above has already committed and the directory
        // still holds its previous fully-readable generation.
        let mut segments = self.segments.lock();
        if let Some(attachment) = segments.as_mut() {
            let generation = attachment.manifest.generation + 1;
            let mut shard_refs = Vec::with_capacity(shard_count);
            for (i, guard) in guards.iter().enumerate() {
                if dirty[i] || self.modified[i].load(Ordering::Relaxed) {
                    shard_refs.push(guard.write_segment(
                        &attachment.dir,
                        &segment_stem(generation, i),
                        generation,
                    )?);
                } else {
                    shard_refs.push(attachment.manifest.shards[i].clone());
                }
            }
            let manifest = CommitManifest {
                generation,
                curve_tag: curve_tag(self.curve),
                schema_json: encode_json(&self.schema, &attachment.dir)?,
                config_json: encode_json(&self.config, &attachment.dir)?,
                starts: starts.clone(),
                shards: shard_refs,
            };
            write_commit(&attachment.dir, &manifest)?;
            prune(&attachment.dir, &manifest)?;
            attachment.manifest = manifest;
            // Every shard the new commit references is now current on disk
            // (rewritten above, or unmodified since its file was written);
            // the shard write guards are still held, so no mutation can
            // race the clear.
            for flag in &self.modified {
                flag.store(false, Ordering::Relaxed);
            }
        }
        drop(segments);

        let lens_after: Vec<usize> = guards.iter().map(|g| g.len()).collect();
        let outcome = RebalanceOutcome {
            moved: moved.len(),
            shards_rebuilt,
            imbalance_before,
            imbalance_after: imbalance_of(&lens_after),
            lens_before,
            lens_after,
        };
        let mut stats = self.stats.lock();
        stats.absorb(&absorbed);
        stats.rebalances += 1;
        stats.subscriptions_migrated += outcome.moved as u64;
        Ok(outcome)
    }

    /// Runs [`rebalance`](Self::rebalance) only if `policy` says the index
    /// needs it: the population has reached `policy.min_len` and the
    /// imbalance factor exceeds `policy.max_imbalance`. Returns `None` when
    /// the trigger did not fire.
    ///
    /// # Errors
    ///
    /// Returns an error if the policy is invalid or the pass fails.
    pub fn maybe_rebalance(&self, policy: &RebalancePolicy) -> Result<Option<RebalanceOutcome>> {
        policy.validate()?;
        let lens = self.shard_lens();
        let total: usize = lens.iter().sum();
        if total < policy.min_len || imbalance_of(&lens) <= policy.max_imbalance {
            return Ok(None);
        }
        Ok(Some(self.rebalance()?))
    }

    /// Arms (or with `None`, disarms) automatic rebalancing: every
    /// `policy.check_interval` successful updates, the index evaluates the
    /// trigger of [`maybe_rebalance`](Self::maybe_rebalance) and re-cuts its
    /// boundaries when it fires.
    ///
    /// # Errors
    ///
    /// Returns an error if the policy is invalid (the previous policy stays
    /// in force).
    pub fn set_rebalance_policy(&self, policy: Option<RebalancePolicy>) -> Result<()> {
        if let Some(p) = &policy {
            p.validate()?;
        }
        *self.rebalance_policy.write() = policy;
        Ok(())
    }

    /// The currently armed auto-rebalance policy, if any.
    pub fn rebalance_policy(&self) -> Option<RebalancePolicy> {
        *self.rebalance_policy.read()
    }

    /// Auto-rebalance hook, called after every successful update with no
    /// locks held.
    fn after_update(&self) {
        let policy = *self.rebalance_policy.read();
        let Some(policy) = policy else { return };
        let ops = self.ops_since_check.fetch_add(1, Ordering::Relaxed) + 1;
        if ops.is_multiple_of(policy.check_interval) {
            // Best-effort: a failed pass (which cannot happen for
            // subscriptions the index accepted) leaves the index valid, and
            // the update that tripped the check already succeeded.
            let _ = self.maybe_rebalance(&policy);
        }
    }

    fn record(&self, outcome: &QueryOutcome) {
        self.stats.lock().record_query(outcome);
    }
}

impl CoveringIndex for ShardedCoveringIndex {
    fn insert(&mut self, subscription: &Subscription) -> Result<()> {
        ShardedCoveringIndex::insert(self, subscription)
    }

    fn remove(&mut self, id: SubId) -> Result<()> {
        ShardedCoveringIndex::remove(self, id)
    }

    fn find_covering(&mut self, query: &Subscription) -> Result<QueryOutcome> {
        ShardedCoveringIndex::find_covering(self, query)
    }

    fn find_covering_batch(&mut self, queries: &[Subscription]) -> Result<Vec<QueryOutcome>> {
        ShardedCoveringIndex::find_covering_batch(self, queries)
    }

    fn find_covered_by(&mut self, query: &Subscription) -> Result<Vec<SubId>> {
        ShardedCoveringIndex::find_covered_by(self, query)
    }

    fn len(&self) -> usize {
        ShardedCoveringIndex::len(self)
    }

    fn contains(&self, id: SubId) -> bool {
        ShardedCoveringIndex::contains(self, id)
    }

    fn stats(&self) -> IndexStats {
        ShardedCoveringIndex::stats(self)
    }

    fn name(&self) -> &'static str {
        match (self.curve, self.config.mode.is_exhaustive()) {
            (CurveKind::Z, true) => "sharded-sfc-z-exhaustive",
            (CurveKind::Z, false) => "sharded-sfc-z-approximate",
            (CurveKind::Hilbert, true) => "sharded-sfc-hilbert-exhaustive",
            (CurveKind::Hilbert, false) => "sharded-sfc-hilbert-approximate",
            (CurveKind::Gray, true) => "sharded-sfc-gray-exhaustive",
            (CurveKind::Gray, false) => "sharded-sfc-gray-approximate",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScanIndex;
    use acd_subscription::SubscriptionBuilder;

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

    /// Subscriptions concentrated in one corner of the attribute space, so
    /// their forward keys pile into a narrow prefix range.
    fn corner_subs(schema: &Schema, n: u64, first_id: SubId, seed: u64) -> Vec<Subscription> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 800) as f64 / 100.0
        };
        (0..n)
            .map(|i| {
                let (a1, a2) = (90.0 + next(), 90.0 + next());
                let (b1, b2) = (90.0 + next(), 90.0 + next());
                sub(
                    schema,
                    first_id + i,
                    (a1.min(a2), a1.max(a2)),
                    (b1.min(b2), b1.max(b2)),
                )
            })
            .collect()
    }

    #[test]
    fn key_prefix_is_monotone_across_widths() {
        for bits in [1u32, 7, 63, 64, 65, 127, 128, 131, 200] {
            let lo = Key::zero(bits);
            let hi = Key::max_value(bits);
            assert!(key_prefix(&lo) <= key_prefix(&hi), "width {bits}");
            if bits >= 2 {
                let mut mid = Key::zero(bits);
                mid.set_bit(bits - 1, true);
                assert!(key_prefix(&lo) < key_prefix(&mid), "width {bits}");
                assert!(key_prefix(&mid) <= key_prefix(&hi), "width {bits}");
            }
        }
    }

    #[test]
    fn rejects_invalid_shard_counts() {
        let s = schema();
        for shards in [0usize, MAX_SHARDS + 1] {
            assert!(matches!(
                ShardedCoveringIndex::new(&s, ApproxConfig::exhaustive(), CurveKind::Z, shards),
                Err(CoveringError::InvalidShardCount { .. })
            ));
        }
    }

    #[test]
    fn sharded_agrees_with_single_index_and_linear_scan() {
        let s = schema();
        let subs = random_subs(&s, 120, 11);
        for curve in CurveKind::all() {
            for shards in [1usize, 3, 5] {
                let sharded =
                    ShardedCoveringIndex::new(&s, ApproxConfig::exhaustive(), curve, shards)
                        .unwrap();
                let mut single =
                    SfcCoveringIndex::with_curve(&s, ApproxConfig::exhaustive(), curve).unwrap();
                let mut linear = LinearScanIndex::new(&s);
                for sub in &subs {
                    let a = sharded.find_covering(sub).unwrap().is_covered();
                    let b = single.find_covering(sub).unwrap().is_covered();
                    let c = linear.find_covering(sub).unwrap().is_covered();
                    assert_eq!(a, b, "{curve:?}/{shards}: sharded vs single {}", sub.id());
                    assert_eq!(b, c, "{curve:?}/{shards}: single vs linear {}", sub.id());
                    sharded.insert(sub).unwrap();
                    single.insert(sub).unwrap();
                    linear.insert(sub).unwrap();
                }
                assert_eq!(sharded.len(), subs.len());
                let total: usize = sharded.shard_lens().iter().sum();
                assert_eq!(total, subs.len());
            }
        }
    }

    #[test]
    fn returned_outcomes_sum_to_the_stats_totals() {
        let s = schema();
        let subs = random_subs(&s, 200, 41);
        let sharded = ShardedCoveringIndex::build_from(
            &s,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            7,
            &subs,
        )
        .unwrap();
        let queries = random_subs(&s, 50, 43);
        // Σ returned outcomes == stats() totals, for the serial sweep …
        let mut expected = sharded.stats();
        let mut serial = Vec::new();
        for q in &queries {
            let outcome = sharded.find_covering(q).unwrap();
            expected.record_query(&outcome);
            serial.push(outcome);
        }
        assert_eq!(sharded.stats(), expected);
        // … and for the batched walk, whose answers match the serial sweep
        // and whose shared Z sweep may only *reduce* per-query probe work.
        let batched = sharded.find_covering_batch(&queries).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (outcome, serial) in batched.iter().zip(&serial) {
            assert_eq!(outcome.covering, serial.covering);
            assert!(outcome.stats.probes <= serial.stats.probes);
            expected.record_query(outcome);
        }
        assert_eq!(sharded.stats(), expected);
    }

    #[test]
    fn covered_by_matches_single_index() {
        let s = schema();
        let subs = random_subs(&s, 90, 3);
        let sharded = ShardedCoveringIndex::build_from(
            &s,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            4,
            &subs,
        )
        .unwrap();
        let mut single = SfcCoveringIndex::exhaustive(&s).unwrap();
        for sub in &subs {
            single.insert(sub).unwrap();
        }
        for q in subs.iter().step_by(6) {
            let mut a = sharded.find_covered_by(q).unwrap();
            let mut b = single.find_covered_by(q).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "covered-by mismatch for {}", q.id());
        }
    }

    #[test]
    fn bulk_build_balances_shards_and_matches_incremental() {
        let s = schema();
        let subs = random_subs(&s, 240, 7);
        let bulk = ShardedCoveringIndex::build_from(
            &s,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            4,
            &subs,
        )
        .unwrap();
        let incremental =
            ShardedCoveringIndex::new(&s, ApproxConfig::exhaustive(), CurveKind::Z, 4).unwrap();
        for sub in &subs {
            incremental.insert(sub).unwrap();
        }
        for q in random_subs(&s, 40, 9).iter() {
            assert_eq!(
                bulk.find_covering(q).unwrap().is_covered(),
                incremental.find_covering(q).unwrap().is_covered(),
                "bulk/incremental disagree on {}",
                q.id()
            );
        }
        // Quantile boundaries keep every shard within a loose balance band.
        let lens = bulk.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), subs.len());
        let max = *lens.iter().max().unwrap();
        assert!(
            max <= subs.len() / 2,
            "bulk shards badly imbalanced: {lens:?}"
        );
        // Duplicate identifiers are rejected across shards.
        let twice = vec![subs[0].clone(), subs[0].clone()];
        assert!(matches!(
            ShardedCoveringIndex::build_from(
                &s,
                ApproxConfig::exhaustive(),
                CurveKind::Z,
                2,
                &twice
            ),
            Err(CoveringError::DuplicateSubscription { .. })
        ));
    }

    #[test]
    fn sharded_segments_round_trip_and_rebalance_compacts() {
        let s = schema();
        let subs = random_subs(&s, 300, 31);
        let queries = random_subs(&s, 60, 32);
        let index = ShardedCoveringIndex::build_from(
            &s,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            4,
            &subs,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("acd-sharded-seg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        index.save_segments(&dir).unwrap();

        let reopened = ShardedCoveringIndex::open_segments(&dir).unwrap();
        assert_eq!(reopened.len(), index.len());
        assert_eq!(reopened.boundaries(), index.boundaries());
        assert_eq!(reopened.shard_lens(), index.shard_lens());
        assert_eq!(
            ShardedCoveringIndex::stats(&reopened).inserts,
            subs.len() as u64
        );
        for q in &queries {
            assert_eq!(
                reopened.find_covering(q).unwrap().is_covered(),
                index.find_covering(q).unwrap().is_covered(),
                "reopened sharded index disagrees on {}",
                q.id()
            );
            let mut a = reopened.find_covered_by(q).unwrap();
            let mut b = index.find_covered_by(q).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }

        // Drift the reopened (attached) index and rebalance: the pass must
        // compact the changed shards into a fresh generation on disk, and
        // reopening that generation must reflect the post-rebalance state.
        let drifted = corner_subs(&s, 150, 20_000, 33);
        for sub in &drifted {
            reopened.insert(sub).unwrap();
        }
        for sub in subs.iter().take(250) {
            reopened.remove(sub.id()).unwrap();
        }
        let outcome = reopened.rebalance().unwrap();
        assert!(outcome.changed(), "{outcome:?}");
        let after = ShardedCoveringIndex::open_segments(&dir).unwrap();
        assert_eq!(after.len(), reopened.len());
        assert_eq!(after.boundaries(), reopened.boundaries());
        for sub in &drifted {
            assert!(after.contains(sub.id()));
        }
        for q in queries.iter().chain(drifted.iter().take(10)) {
            assert_eq!(
                after.find_covering(q).unwrap().is_covered(),
                reopened.find_covering(q).unwrap().is_covered(),
                "compacted generation disagrees on {}",
                q.id()
            );
        }
        // Exactly one commit and one .dat/.meta pair per shard survive.
        let mut commits = 0;
        let mut dats = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            if name.starts_with("commit-") {
                commits += 1;
            } else if name.ends_with(".dat") {
                dats += 1;
            }
        }
        assert_eq!(commits, 1, "old generations must be pruned");
        assert_eq!(dats, 4, "one data file per shard");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a rebalance compaction may re-pin an existing segment
    /// file only for a shard that was *also* untouched by `insert`/`remove`
    /// since the last commit. The churn here is shaped so the boundary
    /// re-cut leaves the top shard's membership unchanged while a removal
    /// and an insert have modified it since the save — a compaction keyed
    /// on migration-dirtiness alone would re-reference its stale file and
    /// resurrect the removed subscription on reopen.
    #[test]
    fn rebalance_compaction_rewrites_shards_modified_since_save() {
        let s = schema();
        let subs = random_subs(&s, 300, 41);
        let index = ShardedCoveringIndex::build_from(
            &s,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            4,
            &subs,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("acd-sharded-modseg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        index.save_segments(&dir).unwrap();

        // Net-zero churn per key range: 10 out of shard 0 / 10 into shard
        // 1 shifts only the first boundary, while 1 out / 1 in within
        // shard 3's range leaves every other boundary value untouched —
        // shard 3 stays migration-clean but is modified since the save.
        let shard_ids = |shard: u32| -> Vec<SubId> {
            let registry = index.registry.lock();
            let mut ids: Vec<SubId> = registry
                .iter()
                .filter(|&(_, &at)| at == shard)
                .map(|(&id, _)| id)
                .collect();
            ids.sort_unstable();
            ids
        };
        let route_of = |sub: &Subscription| -> usize {
            let prefix = index.prefix_of(sub).unwrap();
            shard_of_prefix(&index.starts.read(), prefix)
        };
        let candidates = random_subs(&s, 400, 47)
            .into_iter()
            .map(|c| Subscription::from_raw_bounds(&s, c.id() + 50_000, c.raw_bounds()).unwrap())
            .collect::<Vec<_>>();
        let into_shard1: Vec<&Subscription> = candidates
            .iter()
            .filter(|c| route_of(c) == 1)
            .take(10)
            .collect();
        let into_shard3 = candidates
            .iter()
            .find(|c| route_of(c) == 3)
            .expect("some candidate routes to shard 3");
        assert_eq!(
            into_shard1.len(),
            10,
            "need 10 candidates routed to shard 1"
        );
        let out_of_shard0 = shard_ids(0).into_iter().take(10).collect::<Vec<_>>();
        assert_eq!(out_of_shard0.len(), 10, "shard 0 should hold at least 10");
        let victim = *shard_ids(3).first().expect("shard 3 should be populated");

        for id in &out_of_shard0 {
            index.remove(*id).unwrap();
        }
        for c in &into_shard1 {
            index.insert(c).unwrap();
        }
        index.remove(victim).unwrap();
        index.insert(into_shard3).unwrap();

        let outcome = index.rebalance().unwrap();
        assert!(outcome.moved > 0, "the first boundary must have shifted");
        assert!(
            outcome.shards_rebuilt < 4,
            "the scenario needs a migration-clean shard, got {outcome:?}"
        );
        {
            // The modified-but-clean shard 3 must have been rewritten into
            // the new generation, while some untouched shard still rides
            // its original file.
            let segments = index.segments.lock();
            let manifest = &segments.as_ref().unwrap().manifest;
            assert_eq!(manifest.generation, 2);
            assert_eq!(manifest.shards[3].stem, segment_stem(2, 3));
            assert!(
                manifest
                    .shards
                    .iter()
                    .any(|r| r.stem.starts_with("seg-0000000001-")),
                "incremental compaction should keep at least one gen-1 file: {manifest:?}"
            );
        }

        let after = ShardedCoveringIndex::open_segments(&dir).unwrap();
        assert_eq!(after.len(), index.len());
        assert!(
            !after.contains(victim),
            "subscription {victim} removed after the save came back from a stale segment"
        );
        assert!(after.contains(into_shard3.id()));
        for id in &out_of_shard0 {
            assert!(!after.contains(*id));
        }
        for q in random_subs(&s, 60, 48) {
            assert_eq!(
                after.find_covering(&q).unwrap().is_covered(),
                index.find_covering(&q).unwrap().is_covered(),
                "reopened compacted generation disagrees on {}",
                q.id()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebalance_recuts_a_drifted_population() {
        let s = schema();
        // Start balanced over a uniform population, then drift: churn in a
        // corner-concentrated batch and retire most of the uniform one.
        let uniform = random_subs(&s, 200, 13);
        let index = ShardedCoveringIndex::build_from(
            &s,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            4,
            &uniform,
        )
        .unwrap();
        let drifted = corner_subs(&s, 200, 10_000, 17);
        for sub in &drifted {
            index.insert(sub).unwrap();
        }
        for sub in uniform.iter().take(180) {
            index.remove(sub.id()).unwrap();
        }
        let stats_before = ShardedCoveringIndex::stats(&index);
        let imbalance_before = index.imbalance();
        assert!(
            imbalance_before > 1.5,
            "drift failed to imbalance: {imbalance_before} {:?}",
            index.shard_lens()
        );

        let outcome = index.rebalance().unwrap();
        assert!(outcome.changed());
        assert!(outcome.moved > 0);
        assert!(outcome.shards_rebuilt >= 2);
        assert_eq!(outcome.imbalance_before, imbalance_before);
        assert!(outcome.imbalance_after < imbalance_before, "{outcome:?}");
        assert!(index.imbalance() < 1.5, "{:?}", index.shard_lens());

        // Accumulated statistics are preserved exactly across the pass.
        let stats_after = ShardedCoveringIndex::stats(&index);
        assert_eq!(stats_after.inserts, stats_before.inserts);
        assert_eq!(stats_after.removes, stats_before.removes);
        assert_eq!(stats_after.queries, stats_before.queries);
        assert_eq!(stats_after.rebalances, 1);
        assert_eq!(stats_after.subscriptions_migrated, outcome.moved as u64);

        // Contents and answers are unchanged.
        assert_eq!(index.len(), 220);
        assert_eq!(index.shard_lens().iter().sum::<usize>(), 220);
        let mut linear = LinearScanIndex::new(&s);
        for sub in drifted.iter().chain(uniform.iter().skip(180)) {
            linear.insert(sub).unwrap();
            assert!(index.contains(sub.id()));
            assert!(index.get(sub.id()).is_some());
        }
        for q in random_subs(&s, 60, 19)
            .iter()
            .chain(drifted.iter().take(20))
        {
            assert_eq!(
                index.find_covering(q).unwrap().is_covered(),
                linear.find_covering(q).unwrap().is_covered(),
                "post-rebalance disagreement on {}",
                q.id()
            );
        }
    }

    #[test]
    fn rebalance_of_a_balanced_population_is_a_no_op() {
        let s = schema();
        let subs = random_subs(&s, 160, 21);
        let index = ShardedCoveringIndex::build_from(
            &s,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            4,
            &subs,
        )
        .unwrap();
        let boundaries = index.boundaries();
        let outcome = index.rebalance().unwrap();
        assert!(!outcome.changed(), "{outcome:?}");
        assert_eq!(outcome.shards_rebuilt, 0);
        assert_eq!(index.boundaries(), boundaries);
        // A no-op pass is not recorded as a migration.
        assert_eq!(ShardedCoveringIndex::stats(&index).rebalances, 0);
    }

    #[test]
    fn maybe_rebalance_honours_the_policy_gates() {
        let s = schema();
        let index =
            ShardedCoveringIndex::new(&s, ApproxConfig::exhaustive(), CurveKind::Z, 4).unwrap();
        for sub in corner_subs(&s, 120, 1, 27) {
            index.insert(&sub).unwrap();
        }
        assert!(index.imbalance() > 1.5);
        // Below min_len: no pass.
        let policy = RebalancePolicy {
            max_imbalance: 1.5,
            min_len: 10_000,
            check_interval: 1,
        };
        assert!(index.maybe_rebalance(&policy).unwrap().is_none());
        // Above the imbalance bound: no pass.
        let lax = RebalancePolicy {
            max_imbalance: 64.0,
            min_len: 1,
            check_interval: 1,
        };
        assert!(index.maybe_rebalance(&lax).unwrap().is_none());
        // Armed correctly: the pass fires and balances.
        let strict = RebalancePolicy {
            max_imbalance: 1.25,
            min_len: 64,
            check_interval: 1,
        };
        let outcome = index.maybe_rebalance(&strict).unwrap().unwrap();
        assert!(outcome.changed());
        assert!(index.imbalance() <= 1.5, "{:?}", index.shard_lens());
        // Invalid policies are rejected.
        let bad = RebalancePolicy {
            max_imbalance: 0.5,
            min_len: 0,
            check_interval: 1,
        };
        assert!(index.maybe_rebalance(&bad).is_err());
    }

    #[test]
    fn auto_rebalance_fires_from_the_update_path() {
        let s = schema();
        let index =
            ShardedCoveringIndex::new(&s, ApproxConfig::exhaustive(), CurveKind::Z, 4).unwrap();
        index
            .set_rebalance_policy(Some(RebalancePolicy {
                max_imbalance: 1.5,
                min_len: 64,
                check_interval: 16,
            }))
            .unwrap();
        assert!(index.rebalance_policy().is_some());
        for sub in corner_subs(&s, 200, 1, 33) {
            index.insert(&sub).unwrap();
        }
        let stats = ShardedCoveringIndex::stats(&index);
        assert!(stats.rebalances >= 1, "auto trigger never fired: {stats:?}");
        assert!(stats.subscriptions_migrated > 0);
        assert!(index.imbalance() < 2.0, "{:?}", index.shard_lens());
        // Disarm and verify validation still guards the setter.
        index.set_rebalance_policy(None).unwrap();
        assert!(index.rebalance_policy().is_none());
        assert!(index
            .set_rebalance_policy(Some(RebalancePolicy {
                max_imbalance: 0.0,
                min_len: 0,
                check_interval: 0,
            }))
            .is_err());
    }

    #[test]
    fn insert_remove_round_trip_and_errors() {
        let s = schema();
        let idx =
            ShardedCoveringIndex::new(&s, ApproxConfig::exhaustive(), CurveKind::Z, 3).unwrap();
        let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
        let narrow = sub(&s, 2, (40.0, 60.0), (40.0, 60.0));
        idx.insert(&wide).unwrap();
        assert!(idx.contains(1));
        assert!(idx.get(1).is_some());
        assert!(matches!(
            idx.insert(&wide),
            Err(CoveringError::DuplicateSubscription { id: 1 })
        ));
        assert_eq!(idx.find_covering(&narrow).unwrap().covering, Some(1));
        idx.remove(1).unwrap();
        assert!(!idx.contains(1));
        assert!(idx.get(1).is_none());
        assert!(!idx.find_covering(&narrow).unwrap().is_covered());
        assert!(matches!(
            idx.remove(1),
            Err(CoveringError::UnknownSubscription { id: 1 })
        ));
        assert!(idx.is_empty());

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
    fn stats_aggregate_queries_and_shard_counters() {
        let s = schema();
        let subs = random_subs(&s, 60, 17);
        let idx =
            ShardedCoveringIndex::new(&s, ApproxConfig::exhaustive(), CurveKind::Z, 4).unwrap();
        for sub in &subs {
            idx.insert(sub).unwrap();
        }
        for q in subs.iter().take(10) {
            idx.find_covering(q).unwrap();
        }
        idx.remove(subs[0].id()).unwrap();
        let stats = ShardedCoveringIndex::stats(&idx);
        assert_eq!(stats.inserts, subs.len() as u64);
        assert_eq!(stats.removes, 1);
        assert_eq!(stats.queries, 10);
    }

    #[test]
    fn trait_object_usage_and_names() {
        let s = schema();
        let mut idx: Box<dyn CoveringIndex> = Box::new(
            ShardedCoveringIndex::new(&s, ApproxConfig::exhaustive(), CurveKind::Z, 2).unwrap(),
        );
        assert_eq!(idx.name(), "sharded-sfc-z-exhaustive");
        let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
        let narrow = sub(&s, 2, (40.0, 60.0), (40.0, 60.0));
        idx.insert(&wide).unwrap();
        assert_eq!(idx.find_covering(&narrow).unwrap().covering, Some(1));
        assert_eq!(idx.find_covered_by(&wide).unwrap(), Vec::<SubId>::new());
        idx.insert(&narrow).unwrap();
        assert_eq!(idx.find_covered_by(&wide).unwrap(), vec![2]);
        assert_eq!(idx.len(), 2);
        idx.remove(2).unwrap();
        assert!(!idx.contains(2));
        assert_eq!(idx.stats().removes, 1);
    }

    #[test]
    fn index_is_shareable_across_threads() {
        // Compile-time-ish check plus a small smoke: concurrent readers over
        // a shared reference while the main thread holds it too.
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<ShardedCoveringIndex>();

        let s = schema();
        let subs = random_subs(&s, 40, 77);
        let idx = ShardedCoveringIndex::build_from(
            &s,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            4,
            &subs,
        )
        .unwrap();
        let queries = random_subs(&s, 20, 79);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for q in &queries {
                        let outcome = idx.find_covering(q).unwrap();
                        if let Some(id) = outcome.covering {
                            assert!(idx.get(id).unwrap().covers(q));
                        }
                    }
                });
            }
        });
    }
}
