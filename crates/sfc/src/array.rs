//! The SFC array: a one-dimensional ordered index of values keyed by the
//! position of their point on a space filling curve.
//!
//! The paper's only data structure is "the SFC array, which sorts the points
//! according to their orders on the Z curve", maintained by "a dynamic
//! ordered data structure such as a balanced binary tree". [`SfcArray`] keeps
//! the *sorted* contract but replaces the pointer-chasing tree with a flat,
//! cache-friendly layout:
//!
//! * a cell and its key are in bijection, so a cell is stored as its key
//!   alone and an entry as the caller's value alone; a reader that needs the
//!   point decodes the key with [`SpaceFillingCurve::point_of_key`];
//! * each level holds its occupied cells as parallel sorted arrays: the cell
//!   keys and the per-cell buckets. A key of at most 128 bits (which covers
//!   the common `2β·b` subscription shapes) is stored only as its packed
//!   `u128`, so probes,
//!   [`first_key_at_or_after`](SfcArray::first_key_at_or_after) and the
//!   [`SweepCursor`] binary-search or gallop a dense numeric array (16-byte
//!   stride, with the [`crate::simd`] lane comparators finishing every
//!   packed search branch-free). Only universes over 128 bits keep a column
//!   of [`Key`]s instead;
//! * a bucket stores the single-entry cell (by far the most common) inline;
//!   only true duplicate cells spill to a `Vec`. A packed cell of `u64`
//!   values takes 40 bytes: 16 of key and 24 of bucket;
//! * to keep insertion amortized (a sorted vector would pay an `O(n)`
//!   memmove per insert), new cells go to a small **staging level** of the
//!   same layout. Once it grows past a fraction of the main size it is
//!   merged into main in one linear pass — the classic two-level merge
//!   scheme of log-structured indexes. Reads consult both levels; a cell is
//!   never split across levels (an insert into an already-occupied main cell
//!   appends to that cell's bucket in place).
//!
//! Bulk construction ([`SfcArray::from_sorted`]) bypasses staging entirely:
//! the batch is keyed, the *(packed key, index)* pairs are sorted once, and
//! the flat layout is gathered directly — several times faster than `n`
//! incremental inserts.

use std::fmt;
use std::ops::Range;

use crate::curve::SpaceFillingCurve;
use crate::key::{Key, KeyRange};
use crate::universe::Point;
use crate::Result;

/// First index ≥ `from` into the sorted slice whose element is ≥ `v`,
/// found by exponential (galloping) search — `O(log distance)` instead of
/// `O(log n)`, with near-perfect locality when the caller advances
/// monotonically. The wide-key sweep cursor's step on both levels.
fn gallop_sorted<T: Ord>(xs: &[T], from: usize, v: &T) -> usize {
    let n = xs.len();
    let mut lo = from;
    if lo >= n || &xs[lo] >= v {
        return lo;
    }
    // Invariant: xs[lo] < v; double the step until past `v`.
    let mut step = 1usize;
    let mut hi = lo + 1;
    while hi < n && &xs[hi] < v {
        lo = hi;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(n);
    lo + 1 + xs[lo + 1..hi].partition_point(|p| p < v)
}

/// The packed value of a key of at most 128 bits.
fn packed(key: &Key) -> u128 {
    key.to_u128().expect("≤128-bit keys always fit a u128")
}

/// The values stored at one cell: inline for the (overwhelmingly common)
/// single-entry cell, a vector for duplicate cells.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Bucket<V> {
    One(V),
    Many(Vec<V>),
}

// A packed cell is its 16-byte key plus its bucket; keep the bucket of a
// `u64` value at 24 bytes, so that a cell stays at 40.
const _: () = assert!(std::mem::size_of::<Bucket<u64>>() <= 24);

impl<V> Bucket<V> {
    fn as_slice(&self) -> &[V] {
        match self {
            Bucket::One(v) => std::slice::from_ref(v),
            Bucket::Many(vs) => vs,
        }
    }

    fn push(&mut self, value: V) {
        // Take the bucket by value (the placeholder `Many(Vec::new())` does
        // not allocate) so both arms stay total — no unreachable branches.
        match std::mem::replace(self, Bucket::Many(Vec::new())) {
            Bucket::Many(mut vs) => {
                vs.push(value);
                *self = Bucket::Many(vs);
            }
            Bucket::One(first) => *self = Bucket::Many(vec![first, value]),
        }
    }
}

/// One level: the occupied cells as parallel sorted arrays of keys and
/// buckets. Exactly one key column is kept, chosen by the key width.
#[derive(Debug)]
struct Level<V> {
    /// Packed cell keys, ascending; empty when keys exceed 128 bits.
    packed: Vec<u128>,
    /// Cell keys over 128 bits, ascending; empty when keys fit 128 bits.
    wide: Vec<Key>,
    /// The values stored at each cell, parallel with the key column.
    buckets: Vec<Bucket<V>>,
    /// The key width in bits.
    bits: u32,
}

impl<V> Level<V> {
    fn new(bits: u32) -> Self {
        Level {
            packed: Vec::new(),
            wide: Vec::new(),
            buckets: Vec::new(),
            bits,
        }
    }

    /// Whether the keys are stored packed (at most 128 bits).
    fn packs(&self) -> bool {
        self.bits <= 128
    }

    fn cells(&self) -> usize {
        self.buckets.len()
    }

    /// The key of cell `i`; a packed key is rebuilt inline, allocating
    /// nothing.
    fn key(&self, i: usize) -> Key {
        if self.packs() {
            Key::from_u128(self.packed[i], self.bits)
        } else {
            self.wide[i].clone()
        }
    }

    /// The values stored at cell `i`.
    fn values(&self, i: usize) -> &[V] {
        self.buckets[i].as_slice()
    }

    /// Whether cell `i` sorts before cell `j` of `other`, a level of the
    /// same key width.
    fn precedes(&self, i: usize, other: &Level<V>, j: usize) -> bool {
        if self.packs() {
            self.packed[i] < other.packed[j]
        } else {
            self.wide[i] < other.wide[j]
        }
    }

    /// Index of the first cell with key ≥ `key`.
    fn position_at_or_after(&self, key: &Key) -> usize {
        if self.packs() {
            crate::simd::lower_bound_u128(&self.packed, packed(key))
        } else {
            self.wide.partition_point(|k| k < key)
        }
    }

    /// Index of the first cell with key > `key`.
    fn position_after(&self, key: &Key) -> usize {
        if self.packs() {
            let v = packed(key);
            self.packed.partition_point(|&p| p <= v)
        } else {
            self.wide.partition_point(|k| k <= key)
        }
    }

    /// Index of the cell holding exactly `key`, if occupied.
    fn find(&self, key: &Key) -> Option<usize> {
        if self.packs() {
            self.packed.binary_search(&packed(key)).ok()
        } else {
            self.wide.binary_search(key).ok()
        }
    }

    /// Inserts a new cell at sorted position `pos`.
    fn insert_cell(&mut self, pos: usize, key: Key, bucket: Bucket<V>) {
        if self.packs() {
            self.packed.insert(pos, packed(&key));
        } else {
            self.wide.insert(pos, key);
        }
        self.buckets.insert(pos, bucket);
    }

    /// Appends `value` at the packed `key`, which must not sort before the
    /// last cell's: equal to it, the value joins that cell's bucket. Shared
    /// by the packed bulk-build paths, which feed entries in key order.
    fn push(&mut self, key: u128, value: V) {
        match self.buckets.last_mut() {
            Some(bucket) if self.packed.last() == Some(&key) => bucket.push(value),
            _ => {
                self.packed.push(key);
                self.buckets.push(Bucket::One(value));
            }
        }
    }

    /// Removes the first value at cell `idx` that satisfies `pred`, and the
    /// cell with it when that was its last value.
    fn remove_value<F>(&mut self, idx: usize, pred: F) -> Option<V>
    where
        F: FnMut(&V) -> bool,
    {
        let pos = self.buckets[idx].as_slice().iter().position(pred)?;
        Some(match &mut self.buckets[idx] {
            Bucket::Many(vs) if vs.len() > 1 => vs.remove(pos),
            _ => {
                if self.packs() {
                    self.packed.remove(idx);
                } else {
                    self.wide.remove(idx);
                }
                match self.buckets.remove(idx) {
                    Bucket::One(v) => v,
                    Bucket::Many(mut vs) => vs.remove(pos),
                }
            }
        })
    }

    /// Consumes the level, yielding its cells in key order.
    fn into_cells(self) -> impl Iterator<Item = (Key, Bucket<V>)> {
        let bits = self.bits;
        // Exactly one of the two key columns is populated.
        let keys = self
            .packed
            .into_iter()
            .map(move |k| Key::from_u128(k, bits));
        keys.chain(self.wide).zip(self.buckets)
    }

    fn clear(&mut self) {
        self.packed.clear();
        self.wide.clear();
        self.buckets.clear();
    }
}

/// Minimum staging size before a merge is considered.
const MERGE_MIN_CELLS: usize = 64;

/// Staging capacity for a main level of `main_cells` cells. The two
/// per-insert costs pull in opposite directions — the staging memmove grows
/// with the capacity while the amortized main rebuild shrinks with it — so
/// the optimum scales with `√main_cells`; the constant was measured.
fn staging_capacity(main_cells: usize) -> usize {
    MERGE_MIN_CELLS.max(32 * main_cells.isqrt())
}

/// An ordered index of values sorted by the space-filling-curve keys of
/// their points, stored as flat sorted arrays (see the [module docs](self)
/// for the layout).
///
/// Multiple values may be stored at the same cell (several subscriptions can
/// map to the same 2β-dimensional point); they are kept in insertion order.
///
/// # Example
///
/// ```
/// use acd_sfc::{SfcArray, SpaceFillingCurve, Universe, Point, ZCurve};
/// # fn main() -> Result<(), acd_sfc::SfcError> {
/// let universe = Universe::new(2, 4)?;
/// let mut array = SfcArray::new(ZCurve::new(universe));
/// array.insert(Point::new(vec![3, 7])?, "sub-1")?;
/// array.insert(Point::new(vec![3, 7])?, "sub-2")?;
/// assert_eq!(array.len(), 2);
/// let key = array.curve().key_of_point(&Point::new(vec![3, 7])?)?;
/// let (cell, values) = array.first_key_at_or_after(&key).unwrap();
/// assert_eq!((cell, values), (key, &["sub-1", "sub-2"][..]));
/// # Ok(())
/// # }
/// ```
pub struct SfcArray<V, C = crate::zorder::ZCurve> {
    curve: C,
    main: Level<V>,
    staging: Level<V>,
    len: usize,
}

impl<V, C: SpaceFillingCurve> fmt::Debug for SfcArray<V, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SfcArray")
            .field("curve", &self.curve.kind())
            .field("cells", &self.occupied_cells())
            .field("staged_cells", &self.staging.cells())
            .field("len", &self.len)
            .finish()
    }
}

impl<V, C: SpaceFillingCurve> SfcArray<V, C> {
    /// Creates an empty array ordered by `curve`.
    pub fn new(curve: C) -> Self {
        let bits = curve.universe().key_bits();
        SfcArray {
            curve,
            main: Level::new(bits),
            staging: Level::new(bits),
            len: 0,
        }
    }

    /// Bulk-builds the array from a batch of entries: every point is keyed,
    /// the batch is sorted *once* by key (stably, so duplicate cells keep
    /// their batch order), and the flat sorted layout is written directly —
    /// no staging, no per-insert searches. When keys fit 128 bits the sort
    /// runs over thin *(packed key, index)* pairs and the values are
    /// gathered afterwards in one pass. This is the fast path for
    /// populating an index from a known subscription set and is several
    /// times faster than `n` calls to [`insert`](SfcArray::insert).
    ///
    /// # Errors
    ///
    /// Returns an error if any point is outside the curve's universe (the
    /// array is not constructed in that case).
    pub fn from_sorted(curve: C, entries: Vec<(Point, V)>) -> Result<Self> {
        let bits = curve.universe().key_bits();
        let len = entries.len();
        let mut main = Level::new(bits);
        main.buckets.reserve(len);
        if main.packs() {
            // Thin sort: order (packed key, original index) pairs, then
            // gather the values once in sorted order. The index tiebreak
            // makes the unstable sort behave stably.
            let mut order: Vec<(u128, u32)> = Vec::with_capacity(len);
            let mut values: Vec<Option<V>> = Vec::with_capacity(len);
            for (i, (point, value)) in entries.into_iter().enumerate() {
                order.push((packed(&curve.key_of_point(&point)?), i as u32));
                values.push(Some(value));
            }
            order.sort_unstable();
            main.packed.reserve(len);
            for (key, i) in order {
                main.push(
                    key,
                    values[i as usize].take().expect("each index taken once"),
                );
            }
        } else {
            let mut keyed: Vec<(Key, V)> = entries
                .into_iter()
                .map(|(point, value)| Ok((curve.key_of_point(&point)?, value)))
                .collect::<Result<_>>()?;
            // Stable sort: entries at the same cell stay in batch order.
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            for (key, value) in keyed {
                match main.buckets.last_mut() {
                    Some(bucket) if main.wide.last() == Some(&key) => bucket.push(value),
                    _ => main.insert_cell(main.cells(), key, Bucket::One(value)),
                }
            }
        }
        Ok(SfcArray {
            curve,
            main,
            staging: Level::new(bits),
            len,
        })
    }

    /// All occupied cells in key order, merged across the two levels: each
    /// item is the cell's key plus the values stored there, in insertion
    /// order. Rebuilding from this stream with
    /// [`from_sorted`](SfcArray::from_sorted) yields the same entries in the
    /// same order, with nothing staged.
    pub fn sorted_cells(&self) -> impl Iterator<Item = (Key, &[V])> {
        self.cells_in(0..self.main.cells(), 0..self.staging.cells())
            .map(|(level, i)| (level.key(i), level.values(i)))
    }

    /// The curve that orders this array.
    pub fn curve(&self) -> &C {
        &self.curve
    }

    /// Number of stored entries (counting duplicates at the same cell).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct cells that hold at least one entry.
    pub fn occupied_cells(&self) -> usize {
        self.main.cells() + self.staging.cells()
    }

    /// Merges the staging level into the main level (one linear pass over
    /// both). The levels hold disjoint cell sets by construction, so buckets
    /// never need to be concatenated.
    fn merge_staging(&mut self) {
        let bits = self.main.bits;
        let main = std::mem::replace(&mut self.main, Level::new(bits));
        let staging = std::mem::replace(&mut self.staging, Level::new(bits));
        let total = main.cells() + staging.cells();
        let mut merged = Level::new(bits);
        merged.buckets.reserve(total);
        if merged.packs() {
            merged.packed.reserve(total);
        } else {
            merged.wide.reserve(total);
        }
        let mut a = main.into_cells().peekable();
        let mut b = staging.into_cells().peekable();
        while let Some((key, bucket)) = match (a.peek(), b.peek()) {
            (Some((ka, _)), Some((kb, _))) if kb < ka => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        } {
            merged.insert_cell(merged.cells(), key, bucket);
        }
        self.main = merged;
    }

    /// Inserts `value` at `point`.
    ///
    /// An insert into an already-occupied cell appends to that cell's bucket
    /// in place; a new cell goes to the staging level, which is merged into
    /// the main level once it grows past a fraction of the main size (so the
    /// amortized cost stays flat on dynamic workloads).
    ///
    /// # Errors
    ///
    /// Returns an error if the point is outside the curve's universe.
    pub fn insert(&mut self, point: Point, value: V) -> Result<()> {
        let key = self.curve.key_of_point(&point)?;
        if let Some(idx) = self.main.find(&key) {
            self.main.buckets[idx].push(value);
        } else if let Some(idx) = self.staging.find(&key) {
            self.staging.buckets[idx].push(value);
        } else {
            let pos = self.staging.position_at_or_after(&key);
            self.staging.insert_cell(pos, key, Bucket::One(value));
            if self.staging.cells() >= staging_capacity(self.main.cells()) {
                self.merge_staging();
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Removes the first entry at `point` for which `pred` returns true and
    /// returns its value, or `None` if no entry matched.
    ///
    /// # Errors
    ///
    /// Returns an error if the point is outside the curve's universe.
    pub fn remove_if<F>(&mut self, point: &Point, pred: F) -> Result<Option<V>>
    where
        F: FnMut(&V) -> bool,
    {
        let key = self.curve.key_of_point(point)?;
        let removed = if let Some(idx) = self.main.find(&key) {
            self.main.remove_value(idx, pred)
        } else if let Some(idx) = self.staging.find(&key) {
            self.staging.remove_value(idx, pred)
        } else {
            None
        };
        if removed.is_some() {
            self.len -= 1;
        }
        Ok(removed)
    }

    /// Returns the smallest populated key at-or-after `key` together with
    /// the values stored at that cell, if any — two binary searches over
    /// the flat key columns. This is the "galloping" primitive of the
    /// populated-key query sweep (which uses the stateful
    /// [`sweep_cursor`](SfcArray::sweep_cursor) form); the bucket is
    /// borrowed straight from the array.
    pub fn first_key_at_or_after(&self, key: &Key) -> Option<(Key, &[V])> {
        let (level, i) = self
            .cells_in(
                self.main.position_at_or_after(key)..self.main.cells(),
                self.staging.position_at_or_after(key)..self.staging.cells(),
            )
            .next()?;
        Some((level.key(i), level.values(i)))
    }

    /// Returns the first value in `range` that satisfies `pred`, visiting
    /// values in key order. This is the "probe a run" primitive of the
    /// paper's query algorithm.
    pub fn first_in_range_where<F>(&self, range: &KeyRange, mut pred: F) -> Option<&V>
    where
        F: FnMut(&V) -> bool,
    {
        self.iter_range(range).find(|v| pred(v))
    }

    /// Iterates over all entries in key order, each as its cell's key and
    /// its value.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &V)> {
        self.sorted_cells()
            .flat_map(|(key, values)| values.iter().map(move |v| (key.clone(), v)))
    }

    /// Iterates over the values whose keys fall inside `range`, in key
    /// order.
    pub fn iter_range<'a>(&'a self, range: &KeyRange) -> impl Iterator<Item = &'a V> + 'a {
        self.cells_in(
            self.main.position_at_or_after(range.lo())..self.main.position_after(range.hi()),
            self.staging.position_at_or_after(range.lo())..self.staging.position_after(range.hi()),
        )
        .flat_map(|(level, i)| level.values(i))
    }

    /// The cells at index ranges `m` of the main level and `s` of the
    /// staging level, merged in key order.
    fn cells_in(&self, m: Range<usize>, s: Range<usize>) -> CellIter<'_, V> {
        CellIter {
            main: &self.main,
            m,
            staging: &self.staging,
            s,
        }
    }

    /// Removes every entry, keeping the curve.
    pub fn clear(&mut self) {
        self.main.clear();
        self.staging.clear();
        self.len = 0;
    }

    /// A forward-only cursor over the populated cells, for monotone sweeps:
    /// each step gallops from the cursor's previous position instead of
    /// binary-searching the whole array, so a sweep whose probe keys
    /// increase (the dominance query's populated-key sweep) pays
    /// `O(log gap)` per step with near-perfect cache locality — and borrows
    /// keys and buckets straight from the array, allocating nothing.
    pub fn sweep_cursor(&self) -> SweepCursor<'_, V> {
        SweepCursor {
            main: &self.main,
            staging: &self.staging,
            main_pos: 0,
            staging_pos: 0,
        }
    }
}

/// Forward-only galloping cursor created by [`SfcArray::sweep_cursor`].
///
/// The probe keys passed to a step must be non-decreasing; the cursor never
/// rewinds. Each step reads one key column:
/// [`next_packed_at_or_after`](SweepCursor::next_packed_at_or_after) the
/// packed keys of an array whose keys fit 128 bits,
/// [`next_at_or_after`](SweepCursor::next_at_or_after) the [`Key`]s of a
/// wider one. A dominance query creates one cursor at key zero and drops it
/// when its sweep ends.
#[derive(Debug)]
pub struct SweepCursor<'a, V> {
    main: &'a Level<V>,
    staging: &'a Level<V>,
    main_pos: usize,
    staging_pos: usize,
}

/// The cell with the smaller key of the two levels' candidates, if any.
fn nearer<'a, K: Ord, V>(
    main: Option<(&'a K, &'a Bucket<V>)>,
    staging: Option<(&'a K, &'a Bucket<V>)>,
) -> Option<(&'a K, &'a [V])> {
    let (key, bucket) = match (main, staging) {
        (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
        (a, b) => a.or(b),
    }?;
    Some((key, bucket.as_slice()))
}

impl<'a, V> SweepCursor<'a, V> {
    /// The smallest populated key at-or-after `key` together with the
    /// values stored at that cell, or `None` if no such cell remains.
    /// Equivalent to [`SfcArray::first_key_at_or_after`] for non-decreasing
    /// probe keys over 128 bits, at a fraction of the per-step cost. An
    /// array whose keys fit 128 bits keeps no [`Key`] column, so there this
    /// finds nothing.
    pub fn next_at_or_after(&mut self, key: &Key) -> Option<(&'a Key, &'a [V])> {
        let (main, staging) = (self.main, self.staging);
        self.main_pos = gallop_sorted(&main.wide, self.main_pos, key);
        self.staging_pos = gallop_sorted(&staging.wide, self.staging_pos, key);
        nearer(
            main.wide
                .get(self.main_pos)
                .zip(main.buckets.get(self.main_pos)),
            staging
                .wide
                .get(self.staging_pos)
                .zip(staging.buckets.get(self.staging_pos)),
        )
    }

    /// [`next_at_or_after`](Self::next_at_or_after) on packed keys: the
    /// probe and the returned key are the keys' `u128` values, read
    /// straight from the two levels' packed columns. An array whose keys
    /// exceed 128 bits keeps no packed column, so there this finds nothing.
    pub fn next_packed_at_or_after(&mut self, key: u128) -> Option<(u128, &'a [V])> {
        let (main, staging) = (self.main, self.staging);
        self.main_pos = crate::simd::lower_bound_u128_from(&main.packed, self.main_pos, key);
        self.staging_pos =
            crate::simd::lower_bound_u128_from(&staging.packed, self.staging_pos, key);
        let (key, values) = nearer(
            main.packed
                .get(self.main_pos)
                .zip(main.buckets.get(self.main_pos)),
            staging
                .packed
                .get(self.staging_pos)
                .zip(staging.buckets.get(self.staging_pos)),
        )?;
        Some((*key, values))
    }
}

/// Merging iterator over the cells in two index ranges of the two levels
/// (whose key sets are disjoint), in increasing key order: each item names
/// a cell by its level and index, so a reader of values alone builds no
/// key.
struct CellIter<'a, V> {
    main: &'a Level<V>,
    m: Range<usize>,
    staging: &'a Level<V>,
    s: Range<usize>,
}

impl<'a, V> Iterator for CellIter<'a, V> {
    type Item = (&'a Level<V>, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let take_main = match (self.m.is_empty(), self.s.is_empty()) {
            (false, false) => self.main.precedes(self.m.start, self.staging, self.s.start),
            (main_done, _) => !main_done,
        };
        if take_main {
            Some((self.main, self.m.next()?))
        } else {
            Some((self.staging, self.s.next()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use crate::zorder::ZCurve;

    fn array() -> SfcArray<u32> {
        SfcArray::new(ZCurve::new(Universe::new(2, 4).unwrap()))
    }

    fn p(x: u64, y: u64) -> Point {
        Point::new(vec![x, y]).unwrap()
    }

    /// The values stored at exactly `point`, read through
    /// `first_key_at_or_after`.
    fn values_at<C: SpaceFillingCurve>(a: &SfcArray<u32, C>, point: &Point) -> Vec<u32> {
        let key = a.curve().key_of_point(point).unwrap();
        match a.first_key_at_or_after(&key) {
            Some((cell, values)) if cell == key => values.to_vec(),
            _ => Vec::new(),
        }
    }

    /// Every entry as its decoded point and value, in key order.
    fn entries<C: SpaceFillingCurve>(a: &SfcArray<u32, C>) -> Vec<(Point, u32)> {
        a.iter()
            .map(|(key, &v)| (a.curve().point_of_key(&key).unwrap(), v))
            .collect()
    }

    #[test]
    fn insert_len_and_values_at() {
        let mut a = array();
        assert!(a.is_empty());
        a.insert(p(1, 2), 10).unwrap();
        a.insert(p(1, 2), 11).unwrap();
        a.insert(p(9, 9), 12).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.occupied_cells(), 2);
        assert_eq!(values_at(&a, &p(1, 2)), vec![10, 11]);
        assert!(values_at(&a, &p(0, 0)).is_empty());
        assert_eq!(
            entries(&a),
            vec![(p(1, 2), 10), (p(1, 2), 11), (p(9, 9), 12)]
        );
    }

    #[test]
    fn insert_rejects_points_outside_universe() {
        let mut a = array();
        assert!(a.insert(p(16, 0), 1).is_err());
        assert!(a.is_empty());
    }

    #[test]
    fn remove_if_removes_only_matching_values() {
        let mut a = array();
        a.insert(p(4, 4), 1).unwrap();
        a.insert(p(4, 4), 2).unwrap();
        assert_eq!(a.remove_if(&p(4, 4), |v| *v == 2).unwrap(), Some(2));
        assert_eq!(a.remove_if(&p(4, 4), |v| *v == 2).unwrap(), None);
        assert_eq!(a.len(), 1);
        assert_eq!(a.remove_if(&p(4, 4), |_| true).unwrap(), Some(1));
        assert_eq!(a.occupied_cells(), 0);
        assert_eq!(a.remove_if(&p(4, 4), |_| true).unwrap(), None);
    }

    #[test]
    fn range_probes_find_points_in_key_order() {
        let u = Universe::new(2, 4).unwrap();
        let z = ZCurve::new(u.clone());
        let mut a = array();
        a.insert(p(0, 0), 1).unwrap();
        a.insert(p(15, 15), 2).unwrap();
        a.insert(p(8, 8), 3).unwrap();

        let full = KeyRange::new(Key::zero(8), Key::max_value(8)).unwrap();
        assert_eq!(a.iter_range(&full).count(), 3);
        assert_eq!(a.first_in_range_where(&full, |_| true), Some(&1));

        // A range that contains only the upper-right quadrant.
        let cube = crate::cube::StandardCube::new(&u, vec![8, 8], 3).unwrap();
        let quad = z.cube_key_range(&cube).unwrap();
        let ordered: Vec<u32> = a.iter_range(&quad).copied().collect();
        assert_eq!(ordered, vec![3, 2]);
        assert_eq!(a.first_in_range_where(&quad, |_| true), Some(&3));
    }

    #[test]
    fn first_key_at_or_after_gallops_over_gaps() {
        let u = Universe::new(2, 4).unwrap();
        let z = ZCurve::new(u);
        let mut a = array();
        a.insert(p(1, 2), 1).unwrap();
        a.insert(p(9, 9), 2).unwrap();
        let k1 = z.key_of_point(&p(1, 2)).unwrap();
        let k2 = z.key_of_point(&p(9, 9)).unwrap();
        let at = |key: &Key| a.first_key_at_or_after(key).map(|(k, b)| (k, b.len()));
        assert_eq!(at(&Key::zero(8)), Some((k1.clone(), 1)));
        assert_eq!(at(&k1), Some((k1.clone(), 1)));
        assert_eq!(at(&k1.successor().unwrap()), Some((k2.clone(), 1)));
        assert_eq!(at(&k2.successor().unwrap()), None);
    }

    /// A monotone sweep over every populated key, with `step` as the
    /// cursor's step, must match the stateless search.
    fn check_sweep<C: SpaceFillingCurve>(
        a: &SfcArray<u32, C>,
        mut step: impl FnMut(&mut SweepCursor<'_, u32>, &Key) -> Option<(Key, usize)>,
    ) {
        let mut cursor = a.sweep_cursor();
        let mut probe = Some(Key::zero(a.curve().universe().key_bits()));
        let mut seen = 0;
        while let Some(key) = probe {
            let fast = step(&mut cursor, &key);
            let slow = a.first_key_at_or_after(&key).map(|(k, b)| (k, b.len()));
            assert_eq!(fast, slow, "at {key}");
            seen += slow.as_ref().map_or(0, |(_, n)| *n);
            probe = slow.and_then(|(k, _)| k.successor());
        }
        assert_eq!(seen, a.len());
    }

    #[test]
    fn sweep_cursor_agrees_with_stateless_gallop() {
        // One array per key column: 10-bit keys are packed, 3 x 44 = 132-bit
        // keys are not.
        for (dims, bits) in [(2, 5), (3, 44)] {
            let u = Universe::new(dims, bits).unwrap();
            let mut a: SfcArray<u32, ZCurve> = SfcArray::new(ZCurve::new(u.clone()));
            let mut state = 0xbeefu64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 32
            };
            for i in 0..200u32 {
                let point = Point::new((0..dims).map(|_| next()).collect()).unwrap();
                a.insert(point, i).unwrap();
            }
            if u.key_bits() <= 128 {
                check_sweep(&a, |c, key| {
                    let (k, b) = c.next_packed_at_or_after(key.to_u128().unwrap())?;
                    Some((Key::from_u128(k, u.key_bits()), b.len()))
                });
                assert!(a.sweep_cursor().next_at_or_after(&Key::zero(10)).is_none());
            } else {
                check_sweep(&a, |c, key| {
                    c.next_at_or_after(key).map(|(k, b)| (k.clone(), b.len()))
                });
                assert!(a.sweep_cursor().next_packed_at_or_after(0).is_none());
            }
        }
    }

    #[test]
    fn first_in_range_where_filters_values() {
        let mut a = array();
        a.insert(p(1, 1), 7).unwrap();
        a.insert(p(2, 2), 8).unwrap();
        let full = KeyRange::new(Key::zero(8), Key::max_value(8)).unwrap();
        assert_eq!(a.first_in_range_where(&full, |v| v % 2 == 0), Some(&8));
        assert!(a.first_in_range_where(&full, |v| *v > 100).is_none());
    }

    #[test]
    fn iter_visits_entries_in_key_order() {
        let mut a = array();
        a.insert(p(15, 0), 1).unwrap();
        a.insert(p(0, 0), 2).unwrap();
        a.insert(p(0, 15), 3).unwrap();
        let keys: Vec<Key> = a.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            entries(&a),
            vec![(p(0, 0), 2), (p(0, 15), 3), (p(15, 0), 1)]
        );
    }

    #[test]
    fn from_sorted_matches_incremental_inserts() {
        let u = Universe::new(2, 4).unwrap();
        let mut state = 0xdadau64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 16
        };
        let batch: Vec<(Point, u32)> = (0..300u32).map(|i| (p(next(), next()), i)).collect();
        let bulk = SfcArray::from_sorted(ZCurve::new(u.clone()), batch.clone()).unwrap();
        let mut incremental = SfcArray::new(ZCurve::new(u));
        for (point, v) in batch {
            incremental.insert(point, v).unwrap();
        }
        assert_eq!(bulk.len(), incremental.len());
        assert_eq!(bulk.occupied_cells(), incremental.occupied_cells());
        assert_eq!(entries(&bulk), entries(&incremental));
        // The bulk path leaves nothing staged.
        assert_eq!(bulk.staging.cells(), 0);
    }

    #[test]
    fn from_sorted_rejects_out_of_universe_points() {
        let u = Universe::new(2, 4).unwrap();
        let batch = vec![(p(1, 1), 1u32), (p(16, 0), 2)];
        assert!(SfcArray::from_sorted(ZCurve::new(u), batch).is_err());
    }

    #[test]
    fn staging_merges_keep_reads_consistent() {
        // Enough distinct cells to force several staging merges; reads must
        // see every entry in key order throughout.
        let u = Universe::new(2, 5).unwrap();
        let curve = ZCurve::new(u);
        let mut a: SfcArray<u32, ZCurve> = SfcArray::new(curve.clone());
        let mut state = 0x5eedu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 32
        };
        let mut inserted = Vec::new();
        for i in 0..500u32 {
            let point = p(next(), next());
            inserted.push(curve.key_of_point(&point).unwrap());
            a.insert(point, i).unwrap();
        }
        assert_eq!(a.len(), 500);
        // Full iteration in key order sees everything.
        let keys: Vec<Key> = a.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(keys.len(), 500);
        // Galloping from every stored key lands on that key.
        for key in &inserted {
            let (found, bucket) = a.first_key_at_or_after(key).unwrap();
            assert_eq!(&found, key);
            assert!(!bucket.is_empty());
        }
    }

    #[test]
    fn removals_from_staging_leave_consistent_views() {
        // Insert a handful (staying under the merge threshold so everything
        // is staged), remove some, and check iteration and counts.
        let mut a = array();
        for (i, (x, y)) in [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)].iter().enumerate() {
            a.insert(p(*x, *y), i as u32).unwrap();
        }
        assert_eq!(a.remove_if(&p(5, 6), |_| true).unwrap(), Some(2));
        assert_eq!(a.remove_if(&p(1, 2), |_| true).unwrap(), Some(0));
        assert_eq!(a.len(), 3);
        assert_eq!(a.occupied_cells(), 3);
        assert_eq!(entries(&a), vec![(p(3, 4), 1), (p(7, 8), 3), (p(9, 10), 4)]);
    }

    #[test]
    fn churn_leaves_no_dead_cells() {
        // Alternating insert/remove of fresh cells (staying below the merge
        // threshold) must drop every emptied cell from its level.
        let mut a = array();
        for round in 0..10_000u64 {
            let point = p(round % 16, (round / 16) % 16);
            a.insert(point.clone(), round as u32).unwrap();
            assert_eq!(a.remove_if(&point, |_| true).unwrap(), Some(round as u32));
            assert!(a.is_empty());
            assert_eq!(a.occupied_cells(), 0, "round {round}");
        }
    }

    #[test]
    fn removing_staged_cells_never_resurrects_them_on_merge() {
        // Regression pin for the staging-removal edge case: a key removed
        // while still resident in the staging level (not yet merged into
        // main) must stay gone when the staging level is next merged.
        let u = Universe::new(2, 6).unwrap();
        let curve = ZCurve::new(u);
        let mut a: SfcArray<u32, ZCurve> = SfcArray::new(curve.clone());

        // Populate main with enough distinct cells to cross the merge
        // threshold, so subsequent inserts land in a fresh staging level.
        let mut id = 0u32;
        for x in 0..16u64 {
            for y in 0..16u64 {
                a.insert(p(x, y), id).unwrap();
                id += 1;
            }
        }
        assert!(a.main.cells() > 0, "main level must be populated");

        // Stage a handful of fresh cells (staying below the merge
        // threshold), including one duplicate cell.
        let victim = p(40, 40);
        let twin = p(41, 41);
        a.insert(victim.clone(), 1000).unwrap();
        a.insert(twin.clone(), 1001).unwrap();
        a.insert(twin.clone(), 1002).unwrap();
        assert!(a.staging.cells() >= 2, "cells must be staged, not merged");

        // Remove the staged victim entirely, and one of the twin's entries.
        assert_eq!(a.remove_if(&victim, |_| true).unwrap(), Some(1000));
        assert_eq!(a.remove_if(&twin, |&v| v == 1001).unwrap(), Some(1001));

        // Force the staging level to merge into main.
        a.merge_staging();
        assert_eq!(a.staging.cells(), 0);

        // The removed victim must not have resurrected...
        assert!(values_at(&a, &victim).is_empty());
        // ...the twin's surviving entry must appear exactly once...
        assert_eq!(values_at(&a, &twin), vec![1002]);
        // ...and global accounting must agree with a full iteration.
        assert_eq!(a.len(), 256 + 1);
        assert_eq!(a.iter().count(), 256 + 1);

        // Re-inserting the victim's cell after its removal-then-merge
        // round trip yields exactly one entry there.
        a.insert(victim.clone(), 2000).unwrap();
        a.merge_staging();
        assert_eq!(values_at(&a, &victim), vec![2000]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut a = array();
        a.insert(p(3, 3), 9).unwrap();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.occupied_cells(), 0);
    }
}
