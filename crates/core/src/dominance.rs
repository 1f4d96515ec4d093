//! The point-dominance engine (Problems 1 and 2 of the paper).
//!
//! [`PointDominanceIndex`] stores `d`-dimensional points in an SFC array and
//! answers: *given a query point `x`, is there a stored point that dominates
//! `x` component-wise?* The query algorithm is the one of Section 5:
//!
//! 1. The dominance region of `x` is the extremal rectangle
//!    `R(ℓ)` with `ℓ_i = 2^k − x_i`.
//! 2. The region is greedily decomposed into standard cubes, enumerated
//!    lazily in descending volume ([`acd_sfc::ExtremalCubes`]).
//! 3. Cube key ranges are merged into runs on the fly and probed against the
//!    SFC array. Any point found inside a probed run *is* a dominating point
//!    (every cell of the region dominates `x`), so the query can stop at the
//!    first hit.
//! 4. For an ε-approximate query the search also stops — answering "empty" —
//!    once the probed cubes cover at least a `1 − ε` fraction of the region's
//!    volume; an exhaustive query keeps going until the whole region has been
//!    searched.
//!
//! That eager algorithm ([`QueryEngine::EagerRuns`]) pays for every run in
//! the decomposition whether or not a stored point can possibly fall inside
//! it. The default engine ([`QueryEngine::SkipPopulated`]) instead runs a
//! *populated-key sweep*: a fresh cursor starts at key zero and gallops
//! through the sorted SFC array (smallest stored key at-or-after the current
//! position), a stored key inside the dominance orthant is probed, and a
//! stored key in a gap jumps the cursor to the orthant's next key at or
//! after it with the Z curve's closed-form seek (`d` masked compares).
//! Every query runs on its own; there is no batched form. Nothing is
//! enumerated: a query issues at most `O(min(runs(T), populated cells))`
//! probes — sub-linear in practice — and returns the *exact* answer for both
//! exhaustive and ε-approximate modes (a completed sweep has searched the
//! entire region).
//!
//! The sweep runs on packed keys when they fit 128 bits (every subscription
//! schema the benchmark serves): the gallop reads `u128` key values straight
//! from the array's packed key column, the seek is [`acd_sfc::OrthantSeeker`],
//! and nothing is built per query beyond the query's own key. Wider keys run
//! the same loop over [`Key`]s, seeking on their big-endian words
//! ([`acd_sfc::OrthantWordSeeker`]). The Hilbert and Gray curves have no
//! orthant seek and run the eager engine only; asking them for the skip
//! engine is a [`CoveringError::UnsupportedEngine`].

use std::fmt;

use acd_sfc::{
    ExtremalCubes, ExtremalRect, Key, KeyRange, OrthantSeeker, OrthantWordSeeker, Point, SfcArray,
    SpaceFillingCurve, Universe,
};

use crate::config::{ApproxConfig, QueryEngine, QueryMode};
use crate::error::CoveringError;
use crate::stats::QueryStats;
use crate::Result;

/// An index over `d`-dimensional points answering exhaustive and
/// ε-approximate dominance queries.
///
/// The index is generic over the curve: a concrete one (`Z`, Hilbert or
/// Gray), or a `Box<dyn SpaceFillingCurve>` chosen at run time, as the
/// covering index does. Values of type `V` ride along with each point and
/// are returned on a hit (the covering index stores subscription
/// identifiers there).
///
/// # Example
///
/// ```
/// use acd_covering::{PointDominanceIndex, ApproxConfig};
/// use acd_sfc::{Universe, Point, ZCurve};
///
/// # fn main() -> Result<(), acd_covering::CoveringError> {
/// let universe = Universe::new(2, 8)?;
/// let mut index: PointDominanceIndex<u64, ZCurve> = PointDominanceIndex::new(
///     ZCurve::new(universe.clone()),
///     ApproxConfig::exhaustive(),
/// );
/// index.insert(Point::new(vec![200, 220])?, 1)?;
/// let (hit, _stats) = index.query_dominating(&Point::new(vec![100, 50])?)?;
/// assert_eq!(hit, Some(1));
/// let (miss, _stats) = index.query_dominating(&Point::new(vec![201, 0])?)?;
/// assert_eq!(miss, None);
/// # Ok(())
/// # }
/// ```
pub struct PointDominanceIndex<V, C = acd_sfc::ZCurve> {
    array: SfcArray<V, C>,
    universe: Universe,
    config: ApproxConfig,
}

impl<V, C: SpaceFillingCurve> fmt::Debug for PointDominanceIndex<V, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PointDominanceIndex")
            .field("curve", &self.array.curve().kind())
            .field("universe", &self.universe)
            .field("len", &self.array.len())
            .field("config", &self.config)
            .finish()
    }
}

impl<V: Clone, C: SpaceFillingCurve> PointDominanceIndex<V, C> {
    /// Creates an empty index ordered by `curve` with the given query
    /// configuration.
    pub fn new(curve: C, config: ApproxConfig) -> Self {
        let universe = curve.universe().clone();
        PointDominanceIndex {
            array: SfcArray::new(curve),
            universe,
            config,
        }
    }

    /// Bulk-builds an index from a batch of `(point, value)` pairs: the
    /// batch is keyed and sorted once ([`SfcArray::from_sorted`]) instead of
    /// paying `n` incremental ordered inserts.
    ///
    /// # Errors
    ///
    /// Returns an error if any point lies outside the curve's universe.
    pub fn build_from(curve: C, config: ApproxConfig, entries: Vec<(Point, V)>) -> Result<Self> {
        let universe = curve.universe().clone();
        Ok(PointDominanceIndex {
            array: SfcArray::from_sorted(curve, entries)?,
            universe,
            config,
        })
    }

    /// Wraps an already-built array (e.g. one decoded from a durable
    /// segment by `acd-storage`) without re-keying or re-sorting anything.
    pub fn from_array(array: SfcArray<V, C>, config: ApproxConfig) -> Self {
        let universe = array.curve().universe().clone();
        PointDominanceIndex {
            array,
            universe,
            config,
        }
    }

    /// The underlying SFC array (read-only; used by the storage layer to
    /// stream the sorted cells into a segment file).
    pub fn array(&self) -> &SfcArray<V, C> {
        &self.array
    }

    /// The universe the indexed points live in.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The query configuration.
    pub fn config(&self) -> &ApproxConfig {
        &self.config
    }

    /// Replaces the query configuration.
    pub fn set_config(&mut self, config: ApproxConfig) {
        self.config = config;
    }

    /// Number of stored points (counting duplicates).
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Inserts `value` at `point`.
    ///
    /// # Errors
    ///
    /// Returns an error if the point lies outside the universe.
    pub fn insert(&mut self, point: Point, value: V) -> Result<()> {
        self.array.insert(point, value)?;
        Ok(())
    }

    /// Removes the first entry at `point` whose value satisfies `pred`.
    ///
    /// # Errors
    ///
    /// Returns an error if the point lies outside the universe.
    pub fn remove_if<F>(&mut self, point: &Point, pred: F) -> Result<Option<V>>
    where
        F: FnMut(&V) -> bool,
    {
        Ok(self.array.remove_if(point, pred)?)
    }

    /// Answers a dominance query for `query` using the configured mode,
    /// returning the value of a dominating point (if one was found) and the
    /// query's cost counters.
    ///
    /// # Errors
    ///
    /// Returns an error if the query point lies outside the universe.
    pub fn query_dominating(&self, query: &Point) -> Result<(Option<V>, QueryStats)> {
        self.query_dominating_with(query, &self.config, |_| true)
    }

    /// Like [`query_dominating`](Self::query_dominating) but only accepts
    /// points whose value satisfies `accept`. Used by callers that must
    /// exclude specific entries (e.g. "a subscription must not be considered
    /// to cover itself").
    ///
    /// # Errors
    ///
    /// Returns an error if the query point lies outside the universe.
    pub fn query_dominating_where<F>(
        &self,
        query: &Point,
        accept: F,
    ) -> Result<(Option<V>, QueryStats)>
    where
        F: FnMut(&V) -> bool,
    {
        self.query_dominating_with(query, &self.config, accept)
    }

    /// Dominance query with an explicit configuration override: checks the
    /// point and the engine, then runs one sweep (or the eager enumeration)
    /// from a fresh cursor at key zero.
    fn query_dominating_with<F>(
        &self,
        query: &Point,
        config: &ApproxConfig,
        accept: F,
    ) -> Result<(Option<V>, QueryStats)>
    where
        F: FnMut(&V) -> bool,
    {
        self.universe.validate_point(query)?;
        config.engine.check_curve(self.array.curve().kind())?;
        if self.array.is_empty() {
            return Ok((
                None,
                QueryStats {
                    volume_fraction_searched: 1.0,
                    ..QueryStats::default()
                },
            ));
        }
        if config.engine == QueryEngine::EagerRuns {
            return self.query_eager(query, config, accept);
        }
        let curve = self.array.curve();
        if let Some(seeker) = curve.orthant_seeker(query) {
            return self.sweep_orthant(query, seeker, config, accept);
        }
        match curve.orthant_word_seeker(query) {
            Some(seeker) => self.sweep_keys(query, &seeker, config, accept),
            None => Err(CoveringError::UnsupportedEngine {
                curve: curve.kind(),
                engine: config.engine,
            }),
        }
    }

    /// The effective per-query work budget: the configured cap, additionally
    /// scaled down with the population — enumerating (or seeking) thousands
    /// of times to rule out a handful of points is never worthwhile when the
    /// exact scan costs O(n).
    fn effective_work_budget(&self, cap: usize) -> usize {
        cap.min(64 + 16 * self.array.len())
    }

    /// The paper's eager algorithm: enumerate the decomposition largest cube
    /// first, merge adjacent ranges into runs and probe every run.
    fn query_eager<F>(
        &self,
        query: &Point,
        config: &ApproxConfig,
        mut accept: F,
    ) -> Result<(Option<V>, QueryStats)>
    where
        F: FnMut(&V) -> bool,
    {
        let target_fraction = match config.mode {
            QueryMode::Exhaustive => 1.0,
            QueryMode::Approximate { epsilon } => 1.0 - epsilon,
        };

        let mut stats = QueryStats::default();
        let region = ExtremalRect::dominance_region(&self.universe, query)?;
        let total_ln_volume = region.ln_volume();
        let decomposition = ExtremalCubes::new(&region);
        let curve = self.array.curve();

        // Enumerate cubes largest-first, merging adjacent key ranges into
        // runs on the fly so that a probe is issued once per run, not once
        // per cube (Lemma 3.1 in action).
        let mut searched_fraction = 0.0f64;
        let mut pending: Option<KeyRange> = None;
        let mut pending_fraction = 0.0f64;

        // Helper closure to probe one run.
        let probe = |range: &KeyRange, stats: &mut QueryStats, accept: &mut F| -> Option<V> {
            stats.runs_probed += 1;
            stats.probes += 1;
            let mut inspected = 0usize;
            let found = self
                .array
                .first_in_range_where(range, |v| {
                    inspected += 1;
                    accept(v)
                })
                .cloned();
            stats.candidates_inspected += inspected;
            found
        };

        let work_cap = config.work_cap.map(|cap| self.effective_work_budget(cap));
        for cube in decomposition.iter() {
            // When the decomposition is finer than the point population could
            // possibly justify, abandon it and scan the points exactly
            // instead (see `ApproxConfig::work_cap`).
            if work_cap.is_some_and(|cap| stats.cubes_enumerated >= cap) {
                return self.scan_fallback(query, &mut accept, stats);
            }

            stats.cubes_enumerated += 1;
            let cube_fraction = (cube.ln_volume() - total_ln_volume).exp();
            let range = curve.cube_key_range(&cube)?;

            match &mut pending {
                Some(run) if run.is_adjacent_to(&range) => {
                    *run = run.merge(&range);
                    pending_fraction += cube_fraction;
                }
                Some(run) => {
                    // Flush the pending run.
                    let flushed = std::mem::replace(run, range);
                    let flushed_fraction = std::mem::replace(&mut pending_fraction, cube_fraction);
                    if let Some(v) = probe(&flushed, &mut stats, &mut accept) {
                        stats.volume_fraction_searched = searched_fraction + flushed_fraction;
                        return Ok((Some(v), stats));
                    }
                    searched_fraction += flushed_fraction;
                    if searched_fraction >= target_fraction {
                        // Enough volume searched for the configured mode.
                        stats.volume_fraction_searched = searched_fraction;
                        return Ok((None, stats));
                    }
                }
                None => {
                    pending = Some(range);
                    pending_fraction = cube_fraction;
                }
            }
        }

        // Flush the final pending run.
        if let Some(run) = pending {
            if let Some(v) = probe(&run, &mut stats, &mut accept) {
                stats.volume_fraction_searched = searched_fraction + pending_fraction;
                return Ok((Some(v), stats));
            }
            searched_fraction += pending_fraction;
        }
        stats.volume_fraction_searched = searched_fraction;
        Ok((None, stats))
    }

    /// The populated-key sweep on packed keys: gallop from key zero through
    /// the stored keys in key order, probe a cell only when it lies inside
    /// the query's orthant, and whenever a stored key lands in a gap jump to
    /// the orthant's next key at or after it with the closed-form seek.
    // acd-lint: hot
    fn sweep_orthant<F>(
        &self,
        query: &Point,
        seeker: OrthantSeeker<'_>,
        config: &ApproxConfig,
        mut accept: F,
    ) -> Result<(Option<V>, QueryStats)>
    where
        F: FnMut(&V) -> bool,
    {
        let mut gallop = self.array.sweep_cursor();
        let mut stats = QueryStats::default();
        let top = u128::MAX >> (128 - self.universe.key_bits());
        // Each sweep iteration does one gallop plus at most one seek; the
        // work cap bounds those iterations — past it the exact point scan is
        // cheaper than more sweeping.
        let iteration_cap = config.work_cap.map(|cap| self.effective_work_budget(cap));
        let mut iterations = 0usize;
        // The smallest key not yet accounted for; `None` once the key space
        // is exhausted. Every exit of the loop has swept the whole orthant.
        let mut cursor = Some(0);
        let outcome = loop {
            let Some(cur) = cursor else {
                break None;
            };
            stats.probes += 1;
            let Some((key, bucket)) = gallop.next_packed_at_or_after(cur) else {
                // No stored key remains: the rest of the orthant is empty.
                break None;
            };
            iterations += 1;
            if iteration_cap.is_some_and(|cap| iterations > cap) {
                return self.scan_fallback(query, &mut accept, stats);
            }
            let orthant_key = seeker.seek_packed(key);
            if orthant_key != key {
                // Gap: no orthant cell lies in [key, orthant_key).
                stats.runs_skipped += 1;
                cursor = Some(orthant_key);
                continue;
            }
            if let Some(found) = Self::probe_cell(bucket, &mut accept, &mut stats) {
                break Some(found);
            }
            // Every entry at this cell was rejected: move past it.
            cursor = (key < top).then(|| key + 1);
        };
        if outcome.is_none() {
            stats.volume_fraction_searched = 1.0;
        }
        Ok((outcome, stats))
    }

    /// The populated-key sweep on keys over 128 bits: the walk of
    /// [`sweep_orthant`](Self::sweep_orthant) from key zero over [`Key`]s,
    /// with each gap jump the seek on the keys' big-endian words.
    fn sweep_keys<F>(
        &self,
        query: &Point,
        seeker: &OrthantWordSeeker<'_>,
        config: &ApproxConfig,
        mut accept: F,
    ) -> Result<(Option<V>, QueryStats)>
    where
        F: FnMut(&V) -> bool,
    {
        let mut stats = QueryStats::default();
        let mut gallop = self.array.sweep_cursor();
        let iteration_cap = config.work_cap.map(|cap| self.effective_work_budget(cap));
        let mut iterations = 0usize;
        let mut cursor = Some(Key::zero(self.universe.key_bits()));
        let outcome = loop {
            let Some(cur) = cursor else {
                break None;
            };
            stats.probes += 1;
            let Some((key, bucket)) = gallop.next_at_or_after(&cur) else {
                break None;
            };
            iterations += 1;
            if iteration_cap.is_some_and(|cap| iterations > cap) {
                return self.scan_fallback(query, &mut accept, stats);
            }
            let orthant_key = seeker.seek_key(key);
            if orthant_key != *key {
                stats.runs_skipped += 1;
                cursor = Some(orthant_key);
                continue;
            }
            if let Some(found) = Self::probe_cell(bucket, &mut accept, &mut stats) {
                break Some(found);
            }
            cursor = key.successor();
        };
        if outcome.is_none() {
            stats.volume_fraction_searched = 1.0;
        }
        Ok((outcome, stats))
    }

    /// Probes one populated cell inside the region — every entry stored
    /// there dominates the query — and returns its first acceptable value.
    fn probe_cell<F>(bucket: &[V], accept: &mut F, stats: &mut QueryStats) -> Option<V>
    where
        F: FnMut(&V) -> bool,
    {
        stats.runs_probed += 1;
        for value in bucket {
            stats.candidates_inspected += 1;
            if accept(value) {
                return Some(value.clone());
            }
        }
        None
    }

    /// Exact fallback: scan every stored cell, decode its point from its key
    /// and test dominance directly. This searches the whole region (and
    /// beyond), so it is valid for both exhaustive and approximate modes; it
    /// bounds the query's total work by `O(work_cap + n)`.
    fn scan_fallback<F>(
        &self,
        query: &Point,
        accept: &mut F,
        mut stats: QueryStats,
    ) -> Result<(Option<V>, QueryStats)>
    where
        F: FnMut(&V) -> bool,
    {
        stats.fell_back_to_scan = true;
        stats.volume_fraction_searched = 1.0;
        let curve = self.array.curve();
        for (key, values) in self.array.sorted_cells() {
            let dominates = curve.point_of_key(&key)?.dominates(query);
            for value in values {
                stats.candidates_inspected += 1;
                if dominates && accept(value) {
                    return Ok((Some(value.clone()), stats));
                }
            }
        }
        Ok((None, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acd_sfc::{GrayCurve, HilbertCurve, ZCurve};

    fn universe(d: usize, k: u32) -> Universe {
        Universe::new(d, k).unwrap()
    }

    fn p(coords: &[u64]) -> Point {
        Point::new(coords.to_vec()).unwrap()
    }

    /// The brute-force oracle: whether any stored point dominates `query`.
    fn dominated<C: SpaceFillingCurve>(idx: &PointDominanceIndex<u64, C>, query: &Point) -> bool {
        let curve = idx.array().curve();
        idx.array()
            .iter()
            .any(|(k, _)| curve.point_of_key(&k).unwrap().dominates(query))
    }

    #[test]
    fn exhaustive_query_finds_dominating_points() {
        let u = universe(2, 6);
        let mut idx = PointDominanceIndex::new(ZCurve::new(u), ApproxConfig::exhaustive());
        idx.insert(p(&[40, 50]), 1u64).unwrap();
        idx.insert(p(&[10, 10]), 2).unwrap();

        let (hit, stats) = idx.query_dominating(&p(&[30, 30])).unwrap();
        assert_eq!(hit, Some(1));
        assert!(stats.runs_probed >= 1);

        let (miss, stats) = idx.query_dominating(&p(&[41, 51])).unwrap();
        assert_eq!(miss, None);
        assert!((stats.volume_fraction_searched - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_index_answers_quickly() {
        let u = universe(3, 5);
        let idx: PointDominanceIndex<u64, ZCurve> =
            PointDominanceIndex::new(ZCurve::new(u), ApproxConfig::default());
        let (hit, stats) = idx.query_dominating(&p(&[0, 0, 0])).unwrap();
        assert_eq!(hit, None);
        assert_eq!(stats.runs_probed, 0);
        assert_eq!(stats.volume_fraction_searched, 1.0);
    }

    #[test]
    fn dominance_boundary_is_inclusive() {
        let u = universe(2, 4);
        let mut idx = PointDominanceIndex::new(ZCurve::new(u), ApproxConfig::exhaustive());
        idx.insert(p(&[7, 9]), 1u64).unwrap();
        // Equal coordinates dominate.
        let (hit, _) = idx.query_dominating(&p(&[7, 9])).unwrap();
        assert_eq!(hit, Some(1));
        // One coordinate larger than the stored point: no dominance.
        let (miss, _) = idx.query_dominating(&p(&[8, 9])).unwrap();
        assert_eq!(miss, None);
    }

    #[test]
    fn exhaustive_query_agrees_with_brute_force() {
        // Randomized (but deterministic) comparison against the brute-force
        // scan, on all three curves.
        let u = universe(3, 4);
        let mut state = 0xfeed_beefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let points: Vec<Point> = (0..60)
            .map(|_| p(&[next() % 16, next() % 16, next() % 16]))
            .collect();
        let queries: Vec<Point> = (0..40)
            .map(|_| p(&[next() % 16, next() % 16, next() % 16]))
            .collect();

        let mut z_idx =
            PointDominanceIndex::new(ZCurve::new(u.clone()), ApproxConfig::exhaustive());
        // Hilbert and Gray run the eager engine.
        let eager = ApproxConfig::exhaustive().engine(QueryEngine::EagerRuns);
        let mut h_idx = PointDominanceIndex::new(HilbertCurve::new(u.clone()), eager);
        let mut g_idx = PointDominanceIndex::new(GrayCurve::new(u.clone()), eager);
        for (i, point) in points.iter().enumerate() {
            z_idx.insert(point.clone(), i as u64).unwrap();
            h_idx.insert(point.clone(), i as u64).unwrap();
            g_idx.insert(point.clone(), i as u64).unwrap();
        }
        for q in &queries {
            let brute = dominated(&z_idx, q);
            let (z, _) = z_idx.query_dominating(q).unwrap();
            let (h, _) = h_idx.query_dominating(q).unwrap();
            let (g, _) = g_idx.query_dominating(q).unwrap();
            assert_eq!(z.is_some(), brute, "z curve disagrees for {q}");
            assert_eq!(h.is_some(), brute, "hilbert disagrees for {q}");
            assert_eq!(g.is_some(), brute, "gray disagrees for {q}");
        }
    }

    #[test]
    fn approximate_query_never_false_positives_and_searches_enough_volume() {
        let u = universe(4, 5);
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 32
        };
        let mut idx = PointDominanceIndex::new(
            ZCurve::new(u.clone()),
            ApproxConfig::with_epsilon(0.1).unwrap(),
        );
        for i in 0..200u64 {
            idx.insert(p(&[next(), next(), next(), next()]), i).unwrap();
        }
        for _ in 0..100 {
            let q = p(&[next(), next(), next(), next()]);
            let (hit, stats) = idx.query_dominating(&q).unwrap();
            match hit {
                Some(_) => {
                    // A positive answer must be correct.
                    assert!(dominated(&idx, &q));
                }
                None => {
                    // A negative answer must have searched at least 1 - eps
                    // of the region volume.
                    assert!(
                        stats.volume_fraction_searched >= 0.9 - 1e-9,
                        "only searched {}",
                        stats.volume_fraction_searched
                    );
                }
            }
        }
    }

    #[test]
    fn approximate_query_is_cheaper_than_exhaustive_on_misses() {
        // Construct a worst-case-ish query: the region is slightly
        // misaligned, so the exhaustive search needs many runs while the
        // approximate one stops after the large cubes. This is an
        // eager-engine phenomenon — the skip engine would probe nothing on
        // either query — so the eager engine is pinned explicitly.
        let u = universe(2, 10);
        // Disable the work-cap fallback so the exhaustive query really pays
        // the full decomposition cost the paper analyses.
        let mut idx_exh = PointDominanceIndex::new(
            ZCurve::new(u.clone()),
            ApproxConfig::exhaustive()
                .work_cap(None)
                .engine(QueryEngine::EagerRuns),
        );
        let mut idx_apx = PointDominanceIndex::new(
            ZCurve::new(u.clone()),
            ApproxConfig::with_epsilon(0.01)
                .unwrap()
                .work_cap(None)
                .engine(QueryEngine::EagerRuns),
        );
        // One point that does NOT dominate the query, to force a full search.
        idx_exh.insert(p(&[0, 0]), 1u64).unwrap();
        idx_apx.insert(p(&[0, 0]), 1u64).unwrap();
        let q = p(&[1023 - 256, 1023 - 256]); // 257x257 extremal region
        let (_, exh_stats) = idx_exh.query_dominating(&q).unwrap();
        let (_, apx_stats) = idx_apx.query_dominating(&q).unwrap();
        assert!(exh_stats.runs_probed > 100, "{exh_stats:?}");
        assert!(
            apx_stats.runs_probed * 10 < exh_stats.runs_probed,
            "approximate {} vs exhaustive {}",
            apx_stats.runs_probed,
            exh_stats.runs_probed
        );
        assert!(apx_stats.volume_fraction_searched >= 0.99 - 1e-9);
    }

    #[test]
    fn work_cap_falls_back_to_an_exact_scan() {
        // A tiny work cap forces the fallback; answers must stay exact.
        // Pinned to the eager engine, whose cap counts enumerated cubes.
        let u = universe(4, 8);
        let config = ApproxConfig::exhaustive()
            .work_cap(Some(4))
            .engine(QueryEngine::EagerRuns);
        let mut idx = PointDominanceIndex::new(ZCurve::new(u.clone()), config);
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 256
        };
        for i in 0..80u64 {
            idx.insert(p(&[next(), next(), next(), next()]), i).unwrap();
        }
        for _ in 0..40 {
            let q = p(&[next(), next(), next(), next()]);
            let brute = dominated(&idx, &q);
            let (hit, stats) = idx.query_dominating(&q).unwrap();
            assert_eq!(hit.is_some(), brute, "fallback must stay exact for {q}");
            if stats.fell_back_to_scan {
                assert!(stats.cubes_enumerated <= 4);
                assert_eq!(stats.volume_fraction_searched, 1.0);
            }
        }
        // With such a small cap and 4 dimensions, at least one miss query
        // must have fallen back.
        let (_, stats) = idx.query_dominating(&p(&[255, 255, 255, 254])).unwrap();
        let _ = stats;
    }

    #[test]
    fn skip_engine_agrees_with_eager() {
        // The two engines must return identical answers on random
        // populations, and the sweep must never probe more runs than the
        // eager enumeration (work caps disabled so the eager engine really
        // pays the decomposition).
        let u = universe(3, 5);
        let mut state = 0xc0ffeeu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let points: Vec<Point> = (0..70)
            .map(|_| p(&[next() % 32, next() % 32, next() % 32]))
            .collect();
        let queries: Vec<Point> = (0..50)
            .map(|_| p(&[next() % 32, next() % 32, next() % 32]))
            .collect();
        let skip_cfg = ApproxConfig::exhaustive().work_cap(None);
        let eager_cfg = ApproxConfig::exhaustive()
            .work_cap(None)
            .engine(QueryEngine::EagerRuns);
        let mut idx = PointDominanceIndex::new(ZCurve::new(u), skip_cfg);
        for (i, point) in points.iter().enumerate() {
            idx.insert(point.clone(), i as u64).unwrap();
        }
        for q in &queries {
            let (skip, skip_stats) = idx.query_dominating_with(q, &skip_cfg, |_| true).unwrap();
            let (eager, eager_stats) = idx.query_dominating_with(q, &eager_cfg, |_| true).unwrap();
            assert_eq!(skip.is_some(), eager.is_some(), "engines disagree for {q}");
            assert!(
                skip_stats.runs_probed <= eager_stats.runs_probed.max(1),
                "skip probed {} vs eager {} for {q}",
                skip_stats.runs_probed,
                eager_stats.runs_probed
            );
            if skip.is_none() {
                // A completed sweep has searched the whole region.
                assert_eq!(skip_stats.volume_fraction_searched, 1.0);
                assert_eq!(skip_stats.runs_probed, 0, "misses probe nothing");
            }
        }
    }

    #[test]
    fn key_sweep_over_128_bits_is_exact_and_enumerates_nothing() {
        // 8 dimensions × 20 bits = 160-bit keys: the sweep runs over `Key`s
        // with the word-wise seek, and must answer like the brute force,
        // probe nothing on a miss and pull no cube.
        let u = universe(8, 20);
        let mut state = 0xbadd_cafeu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % (1 << 20)
        };
        let mut idx = PointDominanceIndex::new(ZCurve::new(u), ApproxConfig::exhaustive());
        for i in 0..200u64 {
            idx.insert(p(&[(); 8].map(|_| next())), i).unwrap();
        }
        let queries: Vec<Point> = (0..60)
            .map(|i| p(&[(); 8].map(|_| next() >> (i % 4))))
            .collect();
        let mut hits = 0;
        for q in &queries {
            let (hit, stats) = idx.query_dominating(q).unwrap();
            assert_eq!(hit.is_some(), dominated(&idx, q), "{q}");
            assert_eq!(stats.cubes_enumerated, 0);
            if hit.is_none() {
                assert_eq!(stats.runs_probed, 0);
                assert_eq!(stats.volume_fraction_searched, 1.0);
            }
            hits += usize::from(hit.is_some());
        }
        assert!(0 < hits && hits < queries.len(), "{hits} hits");
    }

    #[test]
    fn skip_engine_is_rejected_off_the_z_curve() {
        // Hilbert and Gray have no orthant seek: asking one of their indexes
        // for the skip engine is a typed error even on an empty index.
        let u = universe(2, 4);
        let skip = ApproxConfig::exhaustive();
        let eager = skip.engine(QueryEngine::EagerRuns);
        let q = p(&[3, 4]);
        macro_rules! check {
            ($curve:expr, $kind:expr) => {{
                let mut idx = PointDominanceIndex::new($curve, eager);
                let unsupported = CoveringError::UnsupportedEngine {
                    curve: $kind,
                    engine: QueryEngine::SkipPopulated,
                };
                for hit in [None, Some(7)] {
                    let single = idx.query_dominating_with(&q, &skip, |_| true);
                    assert_eq!(single.unwrap_err(), unsupported);
                    // The index's own eager configuration still answers.
                    assert_eq!(idx.query_dominating(&q).unwrap().0, hit);
                    idx.insert(p(&[5, 5]), 7u64).unwrap();
                }
                idx.set_config(skip);
                assert_eq!(idx.query_dominating(&q).unwrap_err(), unsupported);
            }};
        }
        check!(HilbertCurve::new(u.clone()), acd_sfc::CurveKind::Hilbert);
        check!(GrayCurve::new(u), acd_sfc::CurveKind::Gray);
    }

    #[test]
    fn skip_engine_probes_nothing_on_misses_and_skips_gaps() {
        // One stored point far outside the query region: the sweep crosses
        // at most a couple of gaps and issues no run probe at all, where the
        // eager engine would probe hundreds of runs (the Figure 2 region).
        let u = universe(2, 10);
        let mut idx = PointDominanceIndex::new(
            ZCurve::new(u.clone()),
            ApproxConfig::exhaustive().work_cap(None),
        );
        idx.insert(p(&[0, 0]), 1u64).unwrap();
        let q = p(&[1023 - 256, 1023 - 256]); // 257x257 extremal region
        let (hit, stats) = idx.query_dominating(&q).unwrap();
        assert_eq!(hit, None);
        assert_eq!(stats.runs_probed, 0);
        assert!(stats.probes <= 4, "{stats:?}");
        assert!(stats.runs_skipped <= 2);
        assert_eq!(stats.volume_fraction_searched, 1.0);
        // The eager engine pays full price on the identical query.
        let eager = ApproxConfig::exhaustive()
            .work_cap(None)
            .engine(QueryEngine::EagerRuns);
        let (_, eager_stats) = idx.query_dominating_with(&q, &eager, |_| true).unwrap();
        assert!(eager_stats.runs_probed > 100);
        assert!(stats.probes * 25 < eager_stats.runs_probed);
    }

    #[test]
    fn skip_engine_work_cap_falls_back_to_an_exact_scan() {
        // With a work budget of zero, the very first sweep iteration exceeds
        // the cap and the query must fall back to the exact scan — and stay
        // exact.
        let u = universe(3, 6);
        let config = ApproxConfig::exhaustive().work_cap(Some(0));
        let mut idx = PointDominanceIndex::new(ZCurve::new(u.clone()), config);
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 64
        };
        for i in 0..50u64 {
            idx.insert(p(&[next(), next(), next()]), i).unwrap();
        }
        for _ in 0..30 {
            let q = p(&[next(), next(), next()]);
            let brute = dominated(&idx, &q);
            let (hit, stats) = idx.query_dominating(&q).unwrap();
            assert_eq!(hit.is_some(), brute, "fallback must stay exact for {q}");
            assert!(stats.fell_back_to_scan);
            assert_eq!(stats.volume_fraction_searched, 1.0);
        }
    }

    #[test]
    fn filtered_queries_skip_excluded_values() {
        let u = universe(2, 6);
        let mut idx = PointDominanceIndex::new(ZCurve::new(u), ApproxConfig::exhaustive());
        idx.insert(p(&[50, 50]), 7u64).unwrap();
        let q = p(&[10, 10]);
        let (hit, _) = idx.query_dominating(&q).unwrap();
        assert_eq!(hit, Some(7));
        let (filtered, _) = idx.query_dominating_where(&q, |&v| v != 7).unwrap();
        assert_eq!(filtered, None);
    }

    #[test]
    fn removal_makes_points_invisible() {
        let u = universe(2, 6);
        let mut idx = PointDominanceIndex::new(ZCurve::new(u), ApproxConfig::exhaustive());
        idx.insert(p(&[50, 50]), 7u64).unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.remove_if(&p(&[50, 50]), |&v| v == 7).unwrap(), Some(7));
        assert!(idx.is_empty());
        let (hit, _) = idx.query_dominating(&p(&[10, 10])).unwrap();
        assert_eq!(hit, None);
    }

    #[test]
    fn query_points_outside_the_universe_are_rejected() {
        let u = universe(2, 4);
        let idx: PointDominanceIndex<u64, ZCurve> =
            PointDominanceIndex::new(ZCurve::new(u), ApproxConfig::exhaustive());
        assert!(idx.query_dominating(&p(&[16, 0])).is_err());
    }
}
