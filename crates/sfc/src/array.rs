//! The SFC array: a one-dimensional ordered index of points keyed by their
//! position on a space filling curve.
//!
//! The paper's only data structure is "the SFC array, which sorts the points
//! according to their orders on the Z curve", maintained by "a dynamic
//! ordered data structure such as a balanced binary tree". [`SfcArray`] keeps
//! the *sorted* contract but replaces the pointer-chasing tree with a flat,
//! cache-friendly layout:
//!
//! * the **main level** holds occupied cells as parallel sorted arrays —
//!   keys, their packed `u128` mirror (maintained whenever the universe's
//!   key width fits 128 bits, which covers the common `2β·b` subscription
//!   shapes), and per-cell buckets. Probes,
//!   [`first_key_at_or_after`](SfcArray::first_key_at_or_after) and the
//!   [`SweepCursor`] binary-search or gallop the dense numeric array
//!   (16-byte stride, with the [`crate::simd`] lane comparators finishing
//!   every packed search branch-free) instead of hopping tree nodes;
//! * each cell's entries live in a bucket: the single-entry case (by far
//!   the most common) is stored inline, only true duplicate cells spill to
//!   a `Vec`;
//! * to keep insertion amortized (a sorted vector would pay an `O(n)`
//!   memmove of fat elements per insert), new cells go to a small **staging
//!   level**: its sorted view is two thin parallel arrays (packed key +
//!   slab slot, ~20 bytes per cell) while the fat `(Key, Bucket)` payloads
//!   sit in an append-only slab that never moves. Once staging grows past a
//!   fraction of the main size it is merged into main in one linear pass —
//!   the classic two-level merge scheme of log-structured indexes. Reads
//!   consult both levels; a cell is never split across levels (an insert
//!   into an already-occupied main cell appends to that cell's bucket in
//!   place).
//!
//! Bulk construction ([`SfcArray::from_sorted`]) bypasses staging entirely:
//! the batch is keyed, the *(packed key, index)* pairs are sorted once, and
//! the flat layout is gathered directly — several times faster than `n`
//! incremental inserts.

use std::fmt;

use crate::curve::SpaceFillingCurve;
use crate::key::{Key, KeyRange};
use crate::universe::Point;
use crate::Result;

/// First index ≥ `from` into the sorted slice whose element is ≥ `v`,
/// found by exponential (galloping) search — `O(log distance)` instead of
/// `O(log n)`, with near-perfect locality when the caller advances
/// monotonically. Shared by both levels' sweep cursors, for both the packed
/// `u128` mirror and the wide-universe `Key` array.
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

/// One stored entry: the original point plus the caller's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SfcEntry<V> {
    /// The point that was indexed.
    pub point: Point,
    /// The caller-supplied value (e.g. a subscription identifier).
    pub value: V,
}

/// The entries stored at one cell: inline for the (overwhelmingly common)
/// single-entry cell, a vector for duplicate cells.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Bucket<V> {
    One(SfcEntry<V>),
    Many(Vec<SfcEntry<V>>),
}

impl<V> Bucket<V> {
    fn as_slice(&self) -> &[SfcEntry<V>] {
        match self {
            Bucket::One(e) => std::slice::from_ref(e),
            Bucket::Many(v) => v,
        }
    }

    fn push(&mut self, entry: SfcEntry<V>) {
        // Take the bucket by value (the placeholder `Many(Vec::new())` does
        // not allocate) so both arms stay total — no unreachable branches.
        match std::mem::replace(self, Bucket::Many(Vec::new())) {
            Bucket::Many(mut v) => {
                v.push(entry);
                *self = Bucket::Many(v);
            }
            Bucket::One(first) => *self = Bucket::Many(vec![first, entry]),
        }
    }
}

/// The main level: cell keys, their packed mirror and the matching buckets
/// in parallel sorted arrays. Only rebuilt by linear passes (bulk build,
/// staging merge); in-place mutation is limited to bucket pushes and cell
/// removals.
#[derive(Debug)]
struct Level<V> {
    keys: Vec<Key>,
    buckets: Vec<Bucket<V>>,
    /// Packed numeric mirror of `keys`; empty when keys exceed 128 bits.
    packed: Vec<u128>,
    /// Whether `packed` is maintained (key width ≤ 128 bits).
    pack: bool,
}

impl<V> Level<V> {
    fn new(pack: bool) -> Self {
        Level {
            keys: Vec::new(),
            buckets: Vec::new(),
            packed: Vec::new(),
            pack,
        }
    }

    fn cells(&self) -> usize {
        self.keys.len()
    }

    /// Index of the first cell with key ≥ `key`.
    fn position_at_or_after(&self, key: &Key) -> usize {
        if self.pack {
            let v = key.to_u128().expect("≤128-bit keys always fit a u128");
            crate::simd::lower_bound_u128(&self.packed, v)
        } else {
            self.keys.partition_point(|k| k < key)
        }
    }

    /// Index of the cell holding exactly `key`, if occupied.
    fn find(&self, key: &Key) -> Option<usize> {
        if self.pack {
            let v = key.to_u128().expect("≤128-bit keys always fit a u128");
            self.packed.binary_search(&v).ok()
        } else {
            self.keys.binary_search(key).ok()
        }
    }

    /// Appends a cell (key must sort after every existing key).
    fn push_cell(&mut self, key: Key, bucket: Bucket<V>) {
        debug_assert!(self.keys.last().is_none_or(|last| last < &key));
        if self.pack {
            self.packed.push(key.to_u128().expect("≤128-bit keys fit"));
        }
        self.keys.push(key);
        self.buckets.push(bucket);
    }

    /// Appends `entry` at `packed`, starting a new cell or (when `packed`
    /// equals the last cell's key) extending its bucket. Shared by the
    /// packed bulk-build paths, which feed cells in key order.
    fn push_packed_grouped(&mut self, packed: u128, bits: u32, entry: SfcEntry<V>) {
        if self.packed.last() == Some(&packed) {
            self.buckets
                .last_mut()
                .expect("buckets parallel keys")
                .push(entry);
        } else {
            self.packed.push(packed);
            self.keys.push(Key::from_u128(packed, bits));
            self.buckets.push(Bucket::One(entry));
        }
    }

    /// Removes the cell at `idx` and returns its bucket.
    fn remove_cell(&mut self, idx: usize) -> Bucket<V> {
        if self.pack {
            self.packed.remove(idx);
        }
        self.keys.remove(idx);
        self.buckets.remove(idx)
    }

    /// First index ≥ `from` whose key is ≥ `key` (see [`gallop_sorted`]);
    /// the packed mirror takes the lane-comparator gallop.
    fn gallop_at_or_after(&self, from: usize, key: &Key) -> usize {
        if self.pack {
            let v = key.to_u128().expect("≤128-bit keys always fit a u128");
            crate::simd::lower_bound_u128_from(&self.packed, from, v)
        } else {
            gallop_sorted(&self.keys, from, key)
        }
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.buckets.clear();
        self.packed.clear();
    }
}

/// The staging level: a small write buffer in front of the main level. The
/// *sorted view* is two thin parallel arrays (packed key + slab slot) so a
/// sorted insert memmoves ~20 bytes per displaced cell, while the fat
/// `(Key, Bucket)` payloads live in `slab` in arrival order and never move
/// until the merge. Removals leave a hole in the slab (dropped at merge or
/// clear); the sorted view only ever references live slots.
#[derive(Debug)]
struct Staging<V> {
    /// Packed key mirror, sorted ascending; maintained only when `pack`.
    packed: Vec<u128>,
    /// Slab slots sorted by key (parallel with `packed` when `pack`).
    order: Vec<u32>,
    /// Cell payloads in arrival order.
    slab: Vec<(Key, Bucket<V>)>,
    pack: bool,
}

impl<V> Staging<V> {
    fn new(pack: bool) -> Self {
        Staging {
            packed: Vec::new(),
            order: Vec::new(),
            slab: Vec::new(),
            pack,
        }
    }

    fn cells(&self) -> usize {
        self.order.len()
    }

    fn key_at(&self, i: usize) -> &Key {
        &self.slab[self.order[i] as usize].0
    }

    fn cell(&self, i: usize) -> (&Key, &Bucket<V>) {
        let (key, bucket) = &self.slab[self.order[i] as usize];
        (key, bucket)
    }

    fn bucket_mut(&mut self, i: usize) -> &mut Bucket<V> {
        &mut self.slab[self.order[i] as usize].1
    }

    /// Index of the first cell with key ≥ `key`.
    fn position_at_or_after(&self, key: &Key) -> usize {
        if self.pack {
            let v = key.to_u128().expect("≤128-bit keys always fit a u128");
            crate::simd::lower_bound_u128(&self.packed, v)
        } else {
            self.order
                .partition_point(|&s| &self.slab[s as usize].0 < key)
        }
    }

    /// Index of the first cell with key > `key`.
    fn position_after(&self, key: &Key) -> usize {
        if self.pack {
            let v = key.to_u128().expect("≤128-bit keys always fit a u128");
            self.packed.partition_point(|&p| p <= v)
        } else {
            self.order
                .partition_point(|&s| &self.slab[s as usize].0 <= key)
        }
    }

    /// Index of the cell holding exactly `key`, if occupied.
    fn find(&self, key: &Key) -> Option<usize> {
        let pos = self.position_at_or_after(key);
        (pos < self.cells() && self.key_at(pos) == key).then_some(pos)
    }

    /// Like [`Level::gallop_at_or_after`], over the staging sorted view.
    fn gallop_at_or_after(&self, from: usize, key: &Key) -> usize {
        if self.pack {
            let v = key.to_u128().expect("≤128-bit keys always fit a u128");
            crate::simd::lower_bound_u128_from(&self.packed, from, v)
        } else {
            self.position_at_or_after(key).max(from)
        }
    }

    /// Inserts a new cell at sorted position `pos`.
    fn insert_cell(&mut self, pos: usize, key: Key, bucket: Bucket<V>) {
        let slot = self.slab.len() as u32;
        if self.pack {
            self.packed
                .insert(pos, key.to_u128().expect("≤128-bit keys fit"));
        }
        self.slab.push((key, bucket));
        self.order.insert(pos, slot);
    }

    /// Removes the cell at sorted position `i` from the view (its slab slot
    /// becomes a hole) and returns its slot index.
    fn remove_cell(&mut self, i: usize) -> usize {
        if self.pack {
            self.packed.remove(i);
        }
        self.order.remove(i) as usize
    }

    /// Consumes the staging level, yielding the live cells in key order.
    fn into_sorted(self) -> Vec<(Key, Bucket<V>)> {
        let mut slots: Vec<Option<(Key, Bucket<V>)>> = self.slab.into_iter().map(Some).collect();
        self.order
            .into_iter()
            .map(|s| {
                slots[s as usize]
                    .take()
                    .expect("order references live slots")
            })
            .collect()
    }

    fn clear(&mut self) {
        self.packed.clear();
        self.order.clear();
        self.slab.clear();
    }
}

/// Minimum staging size before a merge is considered.
const MERGE_MIN_CELLS: usize = 64;

/// Staging capacity for a main level of `main_cells` cells. The two
/// per-insert costs pull in opposite directions — the sorted-view memmove
/// grows with the capacity while the amortized main rebuild shrinks with it
/// — so the optimum scales with `√main_cells`; the constant was measured
/// (the thin 20-byte view keeps large staging levels cheap, so rebuilds
/// dominate and a generous capacity wins).
fn staging_capacity(main_cells: usize) -> usize {
    MERGE_MIN_CELLS.max(32 * main_cells.isqrt())
}

/// An ordered index of points sorted by their space-filling-curve keys,
/// stored as flat sorted arrays (see the [module docs](self) for the
/// layout).
///
/// Multiple values may be stored at the same cell (several subscriptions can
/// map to the same 2β-dimensional point); they are kept in insertion order.
///
/// # Example
///
/// ```
/// use acd_sfc::{SfcArray, Universe, Point, ZCurve};
/// # fn main() -> Result<(), acd_sfc::SfcError> {
/// let universe = Universe::new(2, 4)?;
/// let mut array = SfcArray::new(ZCurve::new(universe));
/// array.insert(Point::new(vec![3, 7])?, "sub-1")?;
/// array.insert(Point::new(vec![3, 7])?, "sub-2")?;
/// assert_eq!(array.len(), 2);
/// assert_eq!(array.values_at(&Point::new(vec![3, 7])?)?.len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct SfcArray<V, C = crate::zorder::ZCurve> {
    curve: C,
    main: Level<V>,
    staging: Staging<V>,
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
        let pack = curve.universe().key_bits() <= 128;
        SfcArray {
            curve,
            main: Level::new(pack),
            staging: Staging::new(pack),
            len: 0,
        }
    }

    /// Bulk-builds the array from a batch of entries: every point is keyed,
    /// the batch is sorted *once* by key (stably, so duplicate cells keep
    /// their batch order), and the flat sorted layout is written directly —
    /// no staging, no per-insert searches. When keys fit 128 bits the sort
    /// runs over thin *(packed key, index)* pairs and the fat entries are
    /// gathered afterwards in one pass. This is the fast path for
    /// populating an index from a known subscription set and is several
    /// times faster than `n` calls to [`insert`](SfcArray::insert).
    ///
    /// # Errors
    ///
    /// Returns an error if any point is outside the curve's universe (the
    /// array is not constructed in that case).
    pub fn from_sorted(curve: C, entries: Vec<(Point, V)>) -> Result<Self> {
        let pack = curve.universe().key_bits() <= 128;
        let len = entries.len();
        let mut main = Level::new(pack);
        main.keys.reserve(len);
        main.buckets.reserve(len);

        if pack {
            // Thin sort: order (packed key, original index) pairs, then
            // gather the fat entries once in sorted order; the `Key`s are
            // rebuilt inline from the packed values, so only the entries
            // themselves are moved. The index tiebreak makes the unstable
            // sort behave stably.
            let bits = curve.universe().key_bits();
            let mut order: Vec<(u128, u32)> = Vec::with_capacity(len);
            let mut payload: Vec<Option<SfcEntry<V>>> = Vec::with_capacity(len);
            for (i, (point, value)) in entries.into_iter().enumerate() {
                let key = curve.key_of_point(&point)?;
                order.push((key.to_u128().expect("≤128-bit keys fit"), i as u32));
                payload.push(Some(SfcEntry { point, value }));
            }
            order.sort_unstable();
            main.packed.reserve(len);
            for (packed, i) in order {
                let entry = payload[i as usize].take().expect("each index taken once");
                main.push_packed_grouped(packed, bits, entry);
            }
        } else {
            let mut keyed: Vec<(Key, SfcEntry<V>)> = entries
                .into_iter()
                .map(|(point, value)| {
                    let key = curve.key_of_point(&point)?;
                    Ok((key, SfcEntry { point, value }))
                })
                .collect::<Result<_>>()?;
            // Stable sort: entries at the same cell stay in batch order.
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            for (key, entry) in keyed {
                if main.keys.last() == Some(&key) {
                    main.buckets
                        .last_mut()
                        .expect("buckets parallel keys")
                        .push(entry);
                } else {
                    main.push_cell(key, Bucket::One(entry));
                }
            }
        }
        Ok(SfcArray {
            curve,
            main,
            staging: Staging::new(pack),
            len,
        })
    }

    /// Bulk-builds the array from entries **already in curve-key order**,
    /// each carrying its packed ≤128-bit key: no keying, no sort — one
    /// gather pass straight into the flat layout. This is the segment-load
    /// fast path of the storage layer: a segment file stores exactly the
    /// stream [`sorted_cells`](SfcArray::sorted_cells) exported, so opening
    /// it skips the two costs that dominate
    /// [`from_sorted`](SfcArray::from_sorted) (the per-point keying pass and
    /// the sort).
    ///
    /// Every entry is still validated — the point must lie inside the
    /// curve's universe and the packed key must fit its width — so a
    /// corrupt-but-checksum-valid batch cannot construct a malformed array.
    /// The keys are **trusted** to be the curve keys of their points (the
    /// storage layer guards this with its checksums); duplicate keys group
    /// into one cell in batch order, exactly as `from_sorted` would.
    ///
    /// Accepts any iterator so the segment loader can stream decoded rows
    /// straight off its column slices — cold open never materializes an
    /// intermediate entry vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the universe's keys exceed 128 bits, a key
    /// decreases ([`crate::SfcError::UnsortedBatch`]), a key does not fit
    /// the universe's width, or a point lies outside the universe.
    pub fn from_sorted_packed<I>(curve: C, entries: I) -> Result<Self>
    where
        I: IntoIterator<Item = (u128, Point, V)>,
    {
        let universe = curve.universe().clone();
        let bits = universe.key_bits();
        if bits > 128 {
            return Err(crate::SfcError::KeyLengthMismatch {
                expected: bits,
                actual: 128,
            });
        }
        let entries = entries.into_iter();
        let mut main = Level::new(true);
        let (reserve, _) = entries.size_hint();
        main.keys.reserve(reserve);
        main.buckets.reserve(reserve);
        main.packed.reserve(reserve);
        let mut prev = 0u128;
        let mut len = 0usize;
        for (index, (packed, point, value)) in entries.enumerate() {
            if bits < 128 && packed >> bits != 0 {
                return Err(crate::SfcError::KeyLengthMismatch {
                    expected: bits,
                    actual: 128 - packed.leading_zeros(),
                });
            }
            if packed < prev {
                return Err(crate::SfcError::UnsortedBatch { index });
            }
            prev = packed;
            universe.validate_point(&point)?;
            main.push_packed_grouped(packed, bits, SfcEntry { point, value });
            len += 1;
        }
        Ok(SfcArray {
            curve,
            main,
            staging: Staging::new(true),
            len,
        })
    }

    /// All occupied cells in key order, merged across the two levels: each
    /// item is the cell's key plus the entries stored there. This is the
    /// column-wise export stream consumed by segment persistence — the same
    /// order [`from_sorted_packed`](SfcArray::from_sorted_packed) accepts
    /// back, so a save/load round trip never re-sorts. Because the view
    /// merges staging into the stream, saving through it *flushes* the
    /// staging level: the reloaded array is fully compacted.
    pub fn sorted_cells(&self) -> impl Iterator<Item = (&Key, &[SfcEntry<V>])> {
        self.cells().map(|(key, entries)| (key, entries.as_slice()))
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
    /// both sorted views). The levels hold disjoint cell sets by
    /// construction, so buckets never need to be concatenated.
    fn merge_staging(&mut self) {
        if self.staging.cells() == 0 {
            // Nothing live to merge — but drop any slab holes left by
            // removals so churn cannot accumulate dead payloads.
            self.staging.clear();
            return;
        }
        let pack = self.main.pack;
        let main = std::mem::replace(&mut self.main, Level::new(pack));
        let staging = std::mem::replace(&mut self.staging, Staging::new(pack));
        let total = main.cells() + staging.cells();
        let mut merged = Level::new(pack);
        merged.keys.reserve(total);
        merged.buckets.reserve(total);
        if pack {
            merged.packed.reserve(total);
        }

        let mut a = main.keys.into_iter().zip(main.buckets).peekable();
        let mut b = staging.into_sorted().into_iter().peekable();
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some((ka, _)), Some((kb, _))) => ka < kb,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (k, bucket) = if take_a {
                a.next().expect("peeked")
            } else {
                b.next().expect("peeked")
            };
            merged.push_cell(k, bucket);
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
        let entry = SfcEntry { point, value };
        if let Some(idx) = self.main.find(&key) {
            self.main.buckets[idx].push(entry);
        } else {
            match self.staging.find(&key) {
                Some(idx) => self.staging.bucket_mut(idx).push(entry),
                None => {
                    let pos = self.staging.position_at_or_after(&key);
                    self.staging.insert_cell(pos, key, Bucket::One(entry));
                    if self.staging.cells() >= staging_capacity(self.main.cells()) {
                        self.merge_staging();
                    }
                }
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
    pub fn remove_if<F>(&mut self, point: &Point, mut pred: F) -> Result<Option<V>>
    where
        F: FnMut(&V) -> bool,
    {
        let key = self.curve.key_of_point(point)?;
        if let Some(idx) = self.main.find(&key) {
            let bucket = &mut self.main.buckets[idx];
            let Some(pos) = bucket.as_slice().iter().position(|e| pred(&e.value)) else {
                return Ok(None);
            };
            self.len -= 1;
            let removed = match bucket {
                Bucket::Many(v) if v.len() > 1 => v.remove(pos).value,
                _ => match self.main.remove_cell(idx) {
                    Bucket::One(e) => e.value,
                    Bucket::Many(mut v) => v.remove(pos).value,
                },
            };
            return Ok(Some(removed));
        }
        if let Some(idx) = self.staging.find(&key) {
            let bucket = self.staging.bucket_mut(idx);
            let Some(pos) = bucket.as_slice().iter().position(|e| pred(&e.value)) else {
                return Ok(None);
            };
            self.len -= 1;
            let removed = match bucket {
                Bucket::Many(v) if v.len() > 1 => v.remove(pos).value,
                _ => {
                    // Last entry at the cell: drop the cell from the view and
                    // swap the whole payload — key included — out of the slab
                    // hole. Leaving the key behind would keep a dead (and for
                    // wide universes, heap-allocated) payload alive until the
                    // next merge, and a hole must never look like a live cell
                    // to any future reader of the slab: only `order` defines
                    // liveness, and the merge consumes exactly `order`.
                    let slot = self.staging.remove_cell(idx);
                    let (_, bucket) = std::mem::replace(
                        &mut self.staging.slab[slot],
                        (Key::zero(0), Bucket::Many(Vec::new())),
                    );
                    match bucket {
                        Bucket::One(e) => e.value,
                        Bucket::Many(mut v) => v.remove(pos).value,
                    }
                }
            };
            // Insert/remove churn leaves holes in the slab; once they
            // outnumber the live cells, fold staging into main (the merge
            // keeps only live cells), so slab memory stays bounded by the
            // live staging size instead of growing with total churn.
            if self.staging.slab.len() > 2 * self.staging.cells() + MERGE_MIN_CELLS {
                self.merge_staging();
            }
            return Ok(Some(removed));
        }
        Ok(None)
    }

    /// All values stored at exactly `point`.
    ///
    /// # Errors
    ///
    /// Returns an error if the point is outside the curve's universe.
    pub fn values_at(&self, point: &Point) -> Result<Vec<&V>> {
        let key = self.curve.key_of_point(point)?;
        if let Some(idx) = self.main.find(&key) {
            return Ok(self.main.buckets[idx]
                .as_slice()
                .iter()
                .map(|e| &e.value)
                .collect());
        }
        if let Some(idx) = self.staging.find(&key) {
            return Ok(self
                .staging
                .cell(idx)
                .1
                .as_slice()
                .iter()
                .map(|e| &e.value)
                .collect());
        }
        Ok(Vec::new())
    }

    /// Returns the smallest populated key at-or-after `key` together with
    /// the entries stored at that cell, if any — two binary searches over
    /// the flat key views. This is the "galloping" primitive of the
    /// populated-key query sweep (which uses the stateful
    /// [`sweep_cursor`](SfcArray::sweep_cursor) form); the key and bucket
    /// are borrowed straight from the array.
    pub fn first_key_at_or_after(&self, key: &Key) -> Option<(&Key, &[SfcEntry<V>])> {
        let m = self.main.position_at_or_after(key);
        let s = self.staging.position_at_or_after(key);
        let a = self
            .main
            .keys
            .get(m)
            .map(|k| (k, self.main.buckets[m].as_slice()));
        let b = (s < self.staging.cells()).then(|| {
            let (k, bucket) = self.staging.cell(s);
            (k, bucket.as_slice())
        });
        match (a, b) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
            (a, b) => a.or(b),
        }
    }

    /// Returns the first entry whose key falls in `range`, if any. This is
    /// the "probe a run" primitive of the paper's query algorithm: it costs
    /// two binary searches regardless of how large the run is.
    pub fn first_in_range(&self, range: &KeyRange) -> Option<&SfcEntry<V>> {
        self.first_key_at_or_after(range.lo())
            .filter(|(k, _)| *k <= range.hi())
            .and_then(|(_, bucket)| bucket.first())
    }

    /// Returns the first entry in `range` whose value satisfies `pred`.
    /// Entries are visited in key order.
    pub fn first_in_range_where<F>(&self, range: &KeyRange, mut pred: F) -> Option<&SfcEntry<V>>
    where
        F: FnMut(&SfcEntry<V>) -> bool,
    {
        self.iter_range(range).find(|e| pred(e))
    }

    /// Whether any entry's key falls inside `range`.
    pub fn any_in_range(&self, range: &KeyRange) -> bool {
        self.first_in_range(range).is_some()
    }

    /// Number of entries whose keys fall inside `range`.
    pub fn count_in_range(&self, range: &KeyRange) -> usize {
        self.cells_in_range(range)
            .map(|(_, bucket)| bucket.len())
            .sum()
    }

    /// Iterates over all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = &SfcEntry<V>> {
        self.cells().flat_map(|(_, bucket)| bucket)
    }

    /// Iterates over the entries whose keys fall inside `range`, in key
    /// order.
    pub fn iter_range<'a>(
        &'a self,
        range: &KeyRange,
    ) -> impl Iterator<Item = &'a SfcEntry<V>> + 'a {
        self.cells_in_range(range).flat_map(|(_, b)| b)
    }

    /// All occupied cells in key order, merged across the two levels.
    fn cells(&self) -> CellIter<'_, V> {
        CellIter {
            main_keys: &self.main.keys,
            main_buckets: &self.main.buckets,
            staging: &self.staging,
            s_lo: 0,
            s_hi: self.staging.cells(),
        }
    }

    /// The occupied cells whose keys fall inside `range`, in key order.
    fn cells_in_range(&self, range: &KeyRange) -> CellIter<'_, V> {
        let mlo = self.main.position_at_or_after(range.lo());
        let mhi = mlo + self.main.keys[mlo..].partition_point(|k| k <= range.hi());
        let slo = self.staging.position_at_or_after(range.lo());
        let shi = self.staging.position_after(range.hi());
        CellIter {
            main_keys: &self.main.keys[mlo..mhi],
            main_buckets: &self.main.buckets[mlo..mhi],
            staging: &self.staging,
            s_lo: slo,
            s_hi: shi,
        }
    }

    /// Removes every entry, keeping the curve.
    pub fn clear(&mut self) {
        self.main.clear();
        self.staging.clear();
        self.len = 0;
    }

    /// A forward-only cursor over the populated cells, for monotone sweeps:
    /// each [`next_at_or_after`](SweepCursor::next_at_or_after) call gallops
    /// from the cursor's previous position instead of binary-searching the
    /// whole array, so a sweep whose probe keys increase (the dominance
    /// query's populated-key sweep) pays `O(log gap)` per step with
    /// near-perfect cache locality — and borrows keys and buckets straight
    /// from the array, allocating nothing.
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
/// The probe keys passed to
/// [`next_at_or_after`](SweepCursor::next_at_or_after) must be
/// non-decreasing; the cursor never rewinds. Cloning is cheap (two shared
/// references and two positions) — the batched query kernel keeps one
/// *seed* cursor advanced along the sorted batch and clones it as the
/// starting position of each per-query sweep.
#[derive(Debug)]
pub struct SweepCursor<'a, V> {
    main: &'a Level<V>,
    staging: &'a Staging<V>,
    main_pos: usize,
    staging_pos: usize,
}

// Manual impl: a derive would demand `V: Clone`, but only references are
// copied here.
impl<V> Clone for SweepCursor<'_, V> {
    fn clone(&self) -> Self {
        SweepCursor {
            main: self.main,
            staging: self.staging,
            main_pos: self.main_pos,
            staging_pos: self.staging_pos,
        }
    }
}

impl<'a, V> SweepCursor<'a, V> {
    /// The smallest populated key at-or-after `key` together with the
    /// entries stored at that cell, or `None` if no such cell remains.
    /// Equivalent to [`SfcArray::first_key_at_or_after`] for non-decreasing
    /// probe keys, at a fraction of the per-step cost.
    // acd-lint: hot
    pub fn next_at_or_after(&mut self, key: &Key) -> Option<(&'a Key, &'a [SfcEntry<V>])> {
        self.main_pos = self.main.gallop_at_or_after(self.main_pos, key);
        self.staging_pos = self.staging.gallop_at_or_after(self.staging_pos, key);
        let a = self
            .main
            .keys
            .get(self.main_pos)
            .map(|k| (k, self.main.buckets[self.main_pos].as_slice()));
        let b = (self.staging_pos < self.staging.cells()).then(|| {
            let (k, bucket) = self.staging.cell(self.staging_pos);
            (k, bucket.as_slice())
        });
        match (a, b) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
            (a, b) => a.or(b),
        }
    }

    /// [`next_at_or_after`](Self::next_at_or_after) on the packed key
    /// mirror: the probe and the returned key are the keys' `u128` values,
    /// read straight from the two levels' packed arrays. An array whose
    /// keys exceed 128 bits keeps no mirror, so there this finds nothing.
    // acd-lint: hot
    pub fn next_packed_at_or_after(&mut self, key: u128) -> Option<(u128, &'a [SfcEntry<V>])> {
        let (main, staging) = (self.main, self.staging);
        self.main_pos = crate::simd::lower_bound_u128_from(&main.packed, self.main_pos, key);
        self.staging_pos =
            crate::simd::lower_bound_u128_from(&staging.packed, self.staging_pos, key);
        let a = main
            .packed
            .get(self.main_pos)
            .zip(main.buckets.get(self.main_pos));
        let b = staging
            .packed
            .get(self.staging_pos)
            .zip(staging.order.get(self.staging_pos))
            .and_then(|(k, &slot)| Some((k, &staging.slab.get(slot as usize)?.1)));
        let (key, bucket) = match (a, b) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
            (a, b) => a.or(b),
        }?;
        Some((*key, bucket.as_slice()))
    }
}

/// Merging iterator over the cells of the two sorted levels (whose key sets
/// are disjoint), in increasing key order.
struct CellIter<'a, V> {
    main_keys: &'a [Key],
    main_buckets: &'a [Bucket<V>],
    staging: &'a Staging<V>,
    s_lo: usize,
    s_hi: usize,
}

impl<'a, V> Iterator for CellIter<'a, V> {
    type Item = (&'a Key, std::slice::Iter<'a, SfcEntry<V>>);

    fn next(&mut self) -> Option<Self::Item> {
        let staged = (self.s_lo < self.s_hi).then(|| self.staging.cell(self.s_lo));
        let take_main = match (self.main_keys.first(), &staged) {
            (Some(a), Some((b, _))) => a < b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_main {
            let (key, rest_keys) = self.main_keys.split_first().expect("non-empty");
            let (bucket, rest_buckets) = self.main_buckets.split_first().expect("parallel");
            self.main_keys = rest_keys;
            self.main_buckets = rest_buckets;
            Some((key, bucket.as_slice().iter()))
        } else {
            let (key, bucket) = staged.expect("checked non-empty");
            self.s_lo += 1;
            Some((key, bucket.as_slice().iter()))
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

    #[test]
    fn insert_len_and_values_at() {
        let mut a = array();
        assert!(a.is_empty());
        a.insert(p(1, 2), 10).unwrap();
        a.insert(p(1, 2), 11).unwrap();
        a.insert(p(9, 9), 12).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.occupied_cells(), 2);
        assert_eq!(a.values_at(&p(1, 2)).unwrap(), vec![&10, &11]);
        assert!(a.values_at(&p(0, 0)).unwrap().is_empty());
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
        assert_eq!(a.count_in_range(&full), 3);
        assert_eq!(a.first_in_range(&full).unwrap().value, 1);

        // A range that contains only the upper-right quadrant.
        let cube = crate::cube::StandardCube::new(&u, vec![8, 8], 3).unwrap();
        let quad = z.cube_key_range(&cube).unwrap();
        assert_eq!(a.count_in_range(&quad), 2);
        assert_eq!(a.first_in_range(&quad).unwrap().value, 3);
        let ordered: Vec<u32> = a.iter_range(&quad).map(|e| e.value).collect();
        assert_eq!(ordered, vec![3, 2]);
        assert!(a.any_in_range(&quad));
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
        assert_eq!(at(&Key::zero(8)), Some((&k1, 1)));
        assert_eq!(at(&k1), Some((&k1, 1)));
        assert_eq!(at(&k1.successor().unwrap()), Some((&k2, 1)));
        assert_eq!(at(&k2.successor().unwrap()), None);
    }

    #[test]
    fn sweep_cursor_agrees_with_stateless_gallop() {
        let u = Universe::new(2, 5).unwrap();
        let curve = ZCurve::new(u);
        let mut a: SfcArray<u32, ZCurve> = SfcArray::new(curve.clone());
        let mut state = 0xbeefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 32
        };
        for i in 0..200u32 {
            a.insert(p(next(), next()), i).unwrap();
        }
        // A monotone sweep over every populated key must match the
        // stateless search.
        let mut cursor = a.sweep_cursor();
        let mut probe = Some(Key::zero(10));
        while let Some(key) = probe {
            let fast = cursor.next_at_or_after(&key).map(|(k, b)| (k, b.len()));
            let slow = a.first_key_at_or_after(&key).map(|(k, b)| (k, b.len()));
            assert_eq!(fast, slow, "at {key}");
            probe = match slow {
                Some((k, _)) => k.successor(),
                None => None,
            };
        }
    }

    #[test]
    fn first_in_range_where_filters_values() {
        let mut a = array();
        a.insert(p(1, 1), 7).unwrap();
        a.insert(p(2, 2), 8).unwrap();
        let full = KeyRange::new(Key::zero(8), Key::max_value(8)).unwrap();
        let found = a.first_in_range_where(&full, |e| e.value % 2 == 0).unwrap();
        assert_eq!(found.value, 8);
        assert!(a.first_in_range_where(&full, |e| e.value > 100).is_none());
    }

    #[test]
    fn iter_visits_entries_in_key_order() {
        let mut a = array();
        a.insert(p(15, 0), 1).unwrap();
        a.insert(p(0, 0), 2).unwrap();
        a.insert(p(0, 15), 3).unwrap();
        let curve = ZCurve::new(Universe::new(2, 4).unwrap());
        let keys: Vec<u128> = a
            .iter()
            .map(|e| curve.key_of_point(&e.point).unwrap().to_u128().unwrap())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
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
        let collect = |a: &SfcArray<u32>| -> Vec<(Point, u32)> {
            a.iter().map(|e| (e.point.clone(), e.value)).collect()
        };
        assert_eq!(collect(&bulk), collect(&incremental));
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
            inserted.push((curve.key_of_point(&point).unwrap(), i));
            a.insert(point, i).unwrap();
        }
        assert_eq!(a.len(), 500);
        // Full iteration in key order sees everything.
        let keys: Vec<Key> = a
            .iter()
            .map(|e| curve.key_of_point(&e.point).unwrap())
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(keys.len(), 500);
        // Galloping from every stored key lands on that key.
        for (key, _) in &inserted {
            let (found, bucket) = a.first_key_at_or_after(key).unwrap();
            assert_eq!(found, key);
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
        let values: Vec<u32> = a.iter().map(|e| e.value).collect();
        assert_eq!(values.len(), 3);
        assert!(values.contains(&1) && values.contains(&3) && values.contains(&4));
        let full = KeyRange::new(Key::zero(8), Key::max_value(8)).unwrap();
        assert_eq!(a.count_in_range(&full), 3);
    }

    #[test]
    fn churn_does_not_grow_the_staging_slab_unboundedly() {
        // Alternating insert/remove of fresh cells (staying below the merge
        // threshold) must not accumulate slab holes forever.
        let mut a = array();
        for round in 0..10_000u64 {
            let point = p(round % 16, (round / 16) % 16);
            a.insert(point.clone(), round as u32).unwrap();
            assert_eq!(a.remove_if(&point, |_| true).unwrap(), Some(round as u32));
            assert!(a.is_empty());
            assert!(
                a.staging.slab.len() <= 2 * a.staging.cells() + MERGE_MIN_CELLS + 1,
                "slab grew to {} at round {round}",
                a.staging.slab.len()
            );
        }
    }

    #[test]
    fn removing_staged_cells_never_resurrects_them_on_merge() {
        // Regression pin for the staging-removal edge case: a key removed
        // while still resident in the thin-view staging level (not yet
        // merged into main) must stay gone when the staging level is next
        // merged — the slab hole left by the removal must not leak its
        // payload back into the main level.
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
        assert!(a.values_at(&victim).unwrap().is_empty());
        let victim_key = curve.key_of_point(&victim).unwrap();
        if let Some((k, _)) = a.first_key_at_or_after(&victim_key) {
            assert_ne!(k, &victim_key, "removed staged key resurrected");
        }
        // ...the twin's surviving entry must appear exactly once...
        assert_eq!(a.values_at(&twin).unwrap(), vec![&1002]);
        // ...and global accounting must agree with a full iteration.
        assert_eq!(a.len(), 256 + 1);
        assert_eq!(a.iter().count(), 256 + 1);

        // Re-inserting the victim's cell after its removal-then-merge
        // round trip yields exactly one entry there.
        a.insert(victim.clone(), 2000).unwrap();
        a.merge_staging();
        assert_eq!(a.values_at(&victim).unwrap(), vec![&2000]);
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
