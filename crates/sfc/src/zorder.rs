//! The Z-order (Morton) curve.
//!
//! The key of a cell is obtained by interleaving the bits of its coordinates,
//! most significant bit first, cycling through the dimensions: the top bit of
//! the key is the top bit of dimension 0, followed by the top bit of
//! dimension 1, and so on. This matches the paper's example (Section 5):
//! the cell with coordinates `(3, 5) = (011, 101)` has key `011011 = 27`
//! when interleaving starts with the first dimension's most significant bit —
//! i.e. the key bits are `x1[2] x2[2] x1[1] x2[1] x1[0] x2[0]` read as
//! `0·1 1·0 1·1`.
//!
//! # Seeking into a dominance orthant
//!
//! The only region the covering query seeks in is the orthant
//! `[q, top]^d` of a query point `q`, and on the Z curve the smallest key at
//! or after `k` whose cell lies in that orthant has a closed form
//! ([`OrthantSeeker`]). Let `m_i` be dimension `i`'s key bits (built once per
//! curve), so `k & m_i` compares like `k`'s coordinate `i`. Call `i`
//! *below* when `k & m_i < q & m_i`.
//!
//! * If no dimension is below, `k` itself lies in the orthant.
//! * Otherwise let `P` be the highest bit of `(k ^ q) & m_i` over the below
//!   dimensions (`k` has a 0 there, `q` a 1). The answer keeps `k`'s bits
//!   above `P`, sets `P`, and fills each dimension's bits below `P` with
//!   `q`'s where that prefix equals `q` on `m_i` at and above `P`, and with
//!   zeros where it already exceeds it.
//!
//! It is minimal: a key in `[k, answer)` shares `k`'s bits above `P` and so
//! has a 0 at `P`, which leaves the dimension owning `P` below `q`. Among the
//! keys with the answer's prefix the fill is the least per dimension, and no
//! dimension's prefix is below `q`'s: a dimension that was below differs
//! from `q` only at or under `P`, and the others were at or above `q`.
//!
//! Nothing in that argument depends on the key's width. Keys of at most 128
//! bits run it on one packed word; wider keys run the same two passes over
//! the key's big-endian `u64` words ([`OrthantWordSeeker`]).

use std::cmp::Ordering;

use crate::curve::{CurveKind, RegionSeeker, SpaceFillingCurve};
use crate::key::Key;
use crate::rect::Rect;
use crate::universe::{Point, Universe};
use crate::Result;

/// The Z-order (Morton) space filling curve over a fixed universe.
///
/// # Example
///
/// ```
/// use acd_sfc::{Universe, Point, ZCurve, SpaceFillingCurve};
/// # fn main() -> Result<(), acd_sfc::SfcError> {
/// let curve = ZCurve::new(Universe::new(2, 3)?);
/// let key = curve.key_of_point(&Point::new(vec![3, 5])?)?;
/// assert_eq!(key.to_u128(), Some(27)); // the paper's worked example
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZCurve {
    universe: Universe,
    /// Each dimension's key bits `m_i`, for the orthant seek.
    masks: DimMasks,
}

/// Per-dimension key-bit masks in the narrowest layout that holds a key.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DimMasks {
    Narrow(Box<[u64]>),
    Wide(Box<[u128]>),
    /// Keys over 128 bits: one row of big-endian words per dimension.
    Words(Box<[u64]>),
}

/// Each dimension's key bits as big-endian `u64` words: the key of the cell
/// whose coordinate in that dimension is all ones and every other is zero.
fn word_masks(universe: &Universe) -> Box<[u64]> {
    let mut coords = vec![0; universe.dims()];
    let mut masks = Vec::new();
    for dim in 0..universe.dims() {
        coords[dim] = universe.max_coord();
        let m = ZCurve::interleave(universe, &coords);
        masks.extend((0..m.word_count()).map(|i| m.word(i)));
        coords[dim] = 0;
    }
    masks.into_boxed_slice()
}

/// Lazily-built byte-spread tables, shared per dimension count:
/// `spread_table(d)[v]` scatters the 8 bits of `v` to positions
/// `0, d, 2d, …` (positions ≥ 128 are dropped — they can only correspond to
/// coordinate bits that are always zero in a ≤128-bit universe).
static SPREAD_TABLES: [std::sync::OnceLock<Box<[u128; 256]>>; crate::universe::MAX_DIMS + 1] =
    [const { std::sync::OnceLock::new() }; crate::universe::MAX_DIMS + 1];

fn spread_table(d: usize) -> &'static [u128; 256] {
    SPREAD_TABLES[d].get_or_init(|| {
        let mut table = Box::new([0u128; 256]);
        for (v, out) in table.iter_mut().enumerate() {
            for b in 0..8 {
                let pos = b * d;
                if (v >> b) & 1 == 1 && pos < 128 {
                    *out |= 1u128 << pos;
                }
            }
        }
        table
    })
}

impl ZCurve {
    /// Creates a Z-order curve over `universe`.
    pub fn new(universe: Universe) -> Self {
        let words = word_masks(&universe);
        let wide = |w: &[u64]| u128::from(w[0]) << 64 | u128::from(w[1]);
        let masks = match universe.key_bits() {
            0..=64 => DimMasks::Narrow(words),
            65..=128 => DimMasks::Wide(words.chunks_exact(2).map(wide).collect()),
            _ => DimMasks::Words(words),
        };
        ZCurve { universe, masks }
    }

    /// Interleaves the coordinate bits of `coords` into a key.
    ///
    /// Bit layout: for bit position `b` from most significant (`k−1`) down to
    /// 0, and for each dimension `0..d` in order, the next key bit is bit `b`
    /// of that dimension's coordinate.
    ///
    /// Keys that fit 128 bits (the common subscription shapes) are built with
    /// pure `u128` shifts — no allocation and no per-bit [`Key::set_bit`]
    /// calls.
    pub(crate) fn interleave(universe: &Universe, coords: &[u64]) -> Key {
        let total = universe.key_bits();
        if total <= 128 {
            return Key::from_u128(Self::interleave_u128(universe, coords), total);
        }
        let d = universe.dims();
        let k = universe.bits_per_dim();
        let mut key = Key::zero(total);
        // Key bit index counted from the most significant side.
        for level in 0..k {
            let coord_bit = k - 1 - level;
            for (dim, &c) in coords.iter().enumerate() {
                if (c >> coord_bit) & 1 == 1 {
                    // Position from the MSB: level*d + dim; convert to
                    // LSB-based index for Key::set_bit.
                    let from_msb = level * d as u32 + dim as u32;
                    let index = total - 1 - from_msb;
                    key.set_bit(index, true);
                }
            }
        }
        key
    }

    /// Interleaves coordinates directly into a `u128` (no allocation). Only
    /// valid when the universe's key width fits 128 bits.
    ///
    /// Bit `b` of dimension `dim` lands at key bit `b·d + (d−1−dim)`
    /// (counting from the LSB), so each dimension is spread with stride `d`
    /// — one shared 256-entry table lookup per coordinate byte instead of a
    /// shift-or per bit.
    fn interleave_u128(universe: &Universe, coords: &[u64]) -> u128 {
        let d = universe.dims();
        let table = spread_table(d);
        let mut out = 0u128;
        for (dim, &c) in coords.iter().enumerate() {
            let mut acc = 0u128;
            let mut c = c;
            // Byte m of the coordinate starts at key bit 8·m·d.
            let mut shift = 0usize;
            while c != 0 && shift < 128 {
                acc |= table[(c & 0xFF) as usize] << shift;
                c >>= 8;
                shift += 8 * d;
            }
            out |= acc << (d - 1 - dim);
        }
        out
    }

    /// Reverses [`interleave`](Self::interleave), writing the coordinates
    /// into `coords` (whose length selects the number of dimensions).
    pub(crate) fn deinterleave_into(universe: &Universe, key: &Key, coords: &mut [u64]) {
        let d = universe.dims();
        let k = universe.bits_per_dim();
        let total = universe.key_bits();
        debug_assert_eq!(coords.len(), d);
        coords.fill(0);
        if total <= 128 {
            let v = key.to_u128().expect("≤128-bit keys always fit a u128");
            for (dim, coord) in coords.iter_mut().enumerate() {
                let mut pos = d as u32 - 1 - dim as u32;
                for b in 0..k {
                    *coord |= (((v >> pos) & 1) as u64) << b;
                    pos += d as u32;
                }
            }
            return;
        }
        for level in 0..k {
            let coord_bit = k - 1 - level;
            for (dim, coord) in coords.iter_mut().enumerate() {
                let from_msb = level * d as u32 + dim as u32;
                let index = total - 1 - from_msb;
                if key.bit(index) {
                    *coord |= 1 << coord_bit;
                }
            }
        }
    }

    /// Reverses [`interleave`](Self::interleave).
    pub(crate) fn deinterleave(universe: &Universe, key: &Key) -> Vec<u64> {
        let mut coords = vec![0u64; universe.dims()];
        Self::deinterleave_into(universe, key, &mut coords);
        coords
    }
}

impl SpaceFillingCurve for ZCurve {
    fn universe(&self) -> &Universe {
        &self.universe
    }

    fn kind(&self) -> CurveKind {
        CurveKind::Z
    }

    fn key_of_point(&self, point: &Point) -> Result<Key> {
        self.universe.validate_point(point)?;
        Ok(Self::interleave(&self.universe, point.coords()))
    }

    fn point_of_key(&self, key: &Key) -> Result<Point> {
        key.expect_bits(self.universe.key_bits())?;
        let d = self.universe.dims();
        if d <= crate::universe::POINT_INLINE_DIMS {
            let mut buf = [0u64; crate::universe::POINT_INLINE_DIMS];
            Self::deinterleave_into(&self.universe, key, &mut buf[..d]);
            Ok(Point::from_slice(&buf[..d]))
        } else {
            Ok(Point::from_vec(Self::deinterleave(&self.universe, key)))
        }
    }

    /// The closed-form orthant seeker, built from the curve's masks and the
    /// corner's key alone.
    fn orthant_seeker(&self, corner: &Point) -> Option<OrthantSeeker<'_>> {
        self.universe.validate_point(corner).ok()?;
        let q = Self::interleave_u128(&self.universe, corner.coords());
        match &self.masks {
            DimMasks::Narrow(masks) => Some(OrthantSeeker::Narrow(masks, q as u64)),
            DimMasks::Wide(masks) => Some(OrthantSeeker::Wide(masks, q)),
            DimMasks::Words(_) => None,
        }
    }

    fn orthant_word_seeker(&self, corner: &Point) -> Option<OrthantWordSeeker<'_>> {
        let DimMasks::Words(masks) = &self.masks else {
            return None;
        };
        self.universe.validate_point(corner).ok()?;
        let q = Self::interleave(&self.universe, corner.coords());
        Some(OrthantWordSeeker {
            masks,
            q: (0..q.word_count()).map(|i| q.word(i)).collect(),
        })
    }

    /// The orthant seeker for a rectangle whose upper corner is the
    /// universe's top corner; `None` for any other rectangle.
    fn region_seeker(&self, rect: &Rect) -> Option<Box<dyn RegionSeeker + '_>> {
        let top = self.universe.max_coord();
        if rect.dims() != self.universe.dims() || rect.hi().iter().any(|&h| h != top) {
            return None;
        }
        let seeker = self.orthant_seeker(&Point::from_slice(rect.lo()))?;
        Some(Box::new(seeker))
    }
}

/// The Z curve's seek into one dominance orthant `[q, top]^d`, in closed
/// form (see the [module docs](self)): two passes of `d` masked compares,
/// in `u64` arithmetic when keys fit 64 bits and `u128` otherwise. Built by
/// [`SpaceFillingCurve::orthant_seeker`]; it borrows the curve's masks, so
/// building one allocates nothing.
#[derive(Debug, Clone, Copy)]
pub enum OrthantSeeker<'a> {
    /// Keys of at most 64 bits: the masks and the corner's key.
    Narrow(&'a [u64], u64),
    /// Keys of 65 to 128 bits: the masks and the corner's key.
    Wide(&'a [u128], u128),
}

impl OrthantSeeker<'_> {
    /// The corner's packed key, the smallest key in the orthant.
    pub fn corner(&self) -> u128 {
        match *self {
            OrthantSeeker::Narrow(_, q) => u128::from(q),
            OrthantSeeker::Wide(_, q) => q,
        }
    }

    /// The smallest packed key at or after `key` whose cell lies in the
    /// orthant; `key` itself exactly when its cell does. There always is
    /// one, since the top corner's key is the largest key of all.
    #[inline]
    pub fn seek_packed(&self, key: u128) -> u128 {
        match *self {
            OrthantSeeker::Narrow(masks, q) => u128::from(orthant_min(masks, key as u64, q)),
            OrthantSeeker::Wide(masks, q) => orthant_min(masks, key, q),
        }
    }
}

impl RegionSeeker for OrthantSeeker<'_> {
    fn seek(&self, key: &Key) -> Option<Key> {
        Some(Key::from_u128(self.seek_packed(key.to_u128()?), key.bits()))
    }
}

/// The Z curve's seek into one dominance orthant `[q, top]^d` for keys over
/// 128 bits: the closed form of [`OrthantSeeker`] over the key's big-endian
/// `u64` words. Built by [`SpaceFillingCurve::orthant_word_seeker`].
#[derive(Debug, Clone)]
pub struct OrthantWordSeeker<'a> {
    /// One row of `q.len()` words per dimension.
    masks: &'a [u64],
    /// The corner's key, most significant word first.
    q: Box<[u64]>,
}

impl OrthantWordSeeker<'_> {
    /// [`OrthantSeeker::seek_packed`] on a [`Key`] of the curve's width.
    pub fn seek_key(&self, key: &Key) -> Key {
        let k = (0..self.q.len()).map(|i| key.word(i)).collect();
        Key::from_words(key.bits(), orthant_min_words(self.masks, k, &self.q))
    }
}

/// The two machine words the closed form runs in.
trait Word:
    Copy
    + Ord
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Not<Output = Self>
    + std::ops::Shl<u32, Output = Self>
    + std::ops::Sub<Output = Self>
{
    const ZERO: Self;
    const ONE: Self;
    const BITS: u32;
    fn leading_zeros(self) -> u32;
}

impl Word for u64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const BITS: u32 = u64::BITS;
    fn leading_zeros(self) -> u32 {
        self.leading_zeros()
    }
}

impl Word for u128 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const BITS: u32 = u128::BITS;
    fn leading_zeros(self) -> u32 {
        self.leading_zeros()
    }
}

/// The smallest key at or after `k` in the orthant of `q`, where `masks`
/// holds each dimension's key bits.
#[inline]
fn orthant_min<W: Word>(masks: &[W], k: W, q: W) -> W {
    // The bits where a below dimension differs from `q`.
    let mut below = W::ZERO;
    for &m in masks {
        if k & m < q & m {
            below = below | ((k ^ q) & m);
        }
    }
    if below == W::ZERO {
        return k;
    }
    let p = W::ONE << (W::BITS - 1 - below.leading_zeros());
    let low = p - W::ONE;
    // `k`'s bits above `P` and a 1 at `P` (where `k` has a 0).
    let prefix = (k | p) & !low;
    let mut out = prefix;
    for &m in masks {
        if (prefix ^ q) & m & !low == W::ZERO {
            out = out | (q & m & low);
        }
    }
    out
}

/// [`orthant_min`] over big-endian words: `k` and `q` hold `n` words each
/// and `masks` one row of `n` words per dimension.
fn orthant_min_words(masks: &[u64], mut k: Vec<u64>, q: &[u64]) -> Vec<u64> {
    /// `x & m`, most significant word first, so it compares like a number.
    fn masked<'a>(x: &'a [u64], m: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
        x.iter().zip(m).map(|(x, m)| x & m)
    }
    let n = q.len();
    // The bits where a below dimension differs from `q`.
    let mut below = vec![0u64; n];
    for m in masks.chunks_exact(n) {
        if masked(&k, m).lt(masked(q, m)) {
            for (b, ((k, q), m)) in below.iter_mut().zip(k.iter().zip(q).zip(m)) {
                *b |= (k ^ q) & m;
            }
        }
    }
    let Some(w) = below.iter().position(|&b| b != 0) else {
        return k;
    };
    let p = 1u64 << (63 - below[w].leading_zeros());
    // The bits of word `i` below `P`.
    let low = |i: usize| match i.cmp(&w) {
        Ordering::Less => 0,
        Ordering::Equal => p - 1,
        Ordering::Greater => u64::MAX,
    };
    // `k`'s bits above `P` and a 1 at `P` (where `k` has a 0). The fill
    // below only sets bits under `P`, so each dimension's check still reads
    // the prefix.
    k[w] |= p;
    for (i, word) in k.iter_mut().enumerate() {
        *word &= !low(i);
    }
    for m in masks.chunks_exact(n) {
        let equal = (0..n).all(|i| (k[i] ^ q[i]) & m[i] & !low(i) == 0);
        if equal {
            for (i, word) in k.iter_mut().enumerate() {
                *word |= q[i] & m[i] & low(i);
            }
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::StandardCube;

    fn curve(d: usize, k: u32) -> ZCurve {
        ZCurve::new(Universe::new(d, k).unwrap())
    }

    #[test]
    fn paper_example_3_5_gives_27() {
        let c = curve(2, 3);
        let key = c.key_of_point(&Point::new(vec![3, 5]).unwrap()).unwrap();
        assert_eq!(key.to_u128(), Some(27));
    }

    #[test]
    fn two_dim_keys_follow_z_pattern() {
        // In a 2x2 universe, the Z curve visits (0,0), (0,1), (1,0), (1,1)
        // in the order 0, 1, 2, 3 with dimension-0 bits ahead of dimension-1
        // bits.
        let c = curve(2, 1);
        let key = |x: u64, y: u64| {
            c.key_of_point(&Point::new(vec![x, y]).unwrap())
                .unwrap()
                .to_u128()
                .unwrap()
        };
        assert_eq!(key(0, 0), 0);
        assert_eq!(key(0, 1), 1);
        assert_eq!(key(1, 0), 2);
        assert_eq!(key(1, 1), 3);
    }

    #[test]
    fn encode_decode_round_trip_exhaustive_small() {
        for (d, k) in [(1usize, 4u32), (2, 3), (3, 2)] {
            let c = curve(d, k);
            let side = 1u64 << k;
            let total = side.pow(d as u32);
            let mut seen = std::collections::BTreeSet::new();
            for idx in 0..total {
                // Enumerate all points of the universe.
                let mut coords = vec![0u64; d];
                let mut rem = idx;
                for coord in coords.iter_mut() {
                    *coord = rem % side;
                    rem /= side;
                }
                let p = Point::new(coords).unwrap();
                let key = c.key_of_point(&p).unwrap();
                assert_eq!(c.point_of_key(&key).unwrap(), p);
                seen.insert(key.to_u128().unwrap());
            }
            assert_eq!(seen.len() as u64, total, "keys must be a bijection");
        }
    }

    #[test]
    fn keys_reject_wrong_inputs() {
        let c = curve(2, 4);
        assert!(c.key_of_point(&Point::new(vec![16, 0]).unwrap()).is_err());
        assert!(c.key_of_point(&Point::new(vec![1]).unwrap()).is_err());
        let wrong_width = Key::zero(9);
        assert!(c.point_of_key(&wrong_width).is_err());
    }

    #[test]
    fn cube_key_range_covers_exactly_the_cube() {
        let u = Universe::new(2, 3).unwrap();
        let c = ZCurve::new(u.clone());
        let cube = StandardCube::new(&u, vec![4, 2], 1).unwrap();
        let range = c.cube_key_range(&cube).unwrap();
        assert_eq!(range.len(), Some(4));
        // Every cell inside the cube maps into the range; every cell outside
        // does not.
        for x in 0..8u64 {
            for y in 0..8u64 {
                let p = Point::new(vec![x, y]).unwrap();
                let key = c.key_of_point(&p).unwrap();
                assert_eq!(
                    range.contains(&key),
                    cube.contains_coords(&[x, y]),
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    fn whole_universe_cube_is_the_full_key_range() {
        let u = Universe::new(3, 2).unwrap();
        let c = ZCurve::new(u.clone());
        let cube = StandardCube::whole_universe(&u);
        let range = c.cube_key_range(&cube).unwrap();
        assert_eq!(range.lo().to_u128(), Some(0));
        assert_eq!(range.hi().to_u128(), Some(63));
    }

    #[test]
    fn high_dimensional_keys_round_trip() {
        // 20 dimensions x 8 bits = 160-bit keys: exercise the multi-word path.
        let u = Universe::new(20, 8).unwrap();
        let c = ZCurve::new(u.clone());
        let p = Point::new((0..20).map(|i| (i * 13 + 7) % 256).collect()).unwrap();
        let key = c.key_of_point(&p).unwrap();
        assert_eq!(key.bits(), 160);
        assert_eq!(c.point_of_key(&key).unwrap(), p);
    }

    /// The top corner of a universe as a point.
    fn top(u: &Universe) -> Point {
        Point::new(vec![u.max_coord(); u.dims()]).unwrap()
    }

    #[test]
    fn orthant_seek_matches_brute_force_exhaustively() {
        // Every corner against every key of small universes (d = 1–6, keys
        // up to 12 bits): walking the keys downwards, the expected answer is
        // the last in-orthant key seen.
        for (d, k) in [(1usize, 12u32), (2, 6), (3, 4), (4, 3), (5, 2), (6, 2)] {
            let u = Universe::new(d, k).unwrap();
            let c = ZCurve::new(u.clone());
            let bits = u.key_bits();
            let cells: Vec<Point> = (0..1u128 << bits)
                .map(|v| c.point_of_key(&Key::from_u128(v, bits)).unwrap())
                .collect();
            for corner in &cells {
                let seeker = c.orthant_seeker(corner).unwrap();
                assert_eq!(
                    seeker.corner(),
                    c.key_of_point(corner).unwrap().to_u128().unwrap()
                );
                let mut expected = None;
                for (v, cell) in cells.iter().enumerate().rev() {
                    if cell.dominates(corner) {
                        expected = Some(v as u128);
                    }
                    let got = seeker.seek_packed(v as u128);
                    assert_eq!(Some(got), expected, "d={d} k={k} corner {corner} key {v}");
                }
            }
        }
    }

    #[test]
    fn region_seeker_answers_orthants_only() {
        let u = Universe::new(3, 2).unwrap();
        let c = ZCurve::new(u.clone());
        let bits = u.key_bits();
        // The boxed seeker of an orthant rectangle is the closed form.
        let corner = Point::new(vec![1, 2, 0]).unwrap();
        let rect = Rect::new(corner.coords().to_vec(), top(&u).coords().to_vec()).unwrap();
        let boxed = c.region_seeker(&rect).expect("an orthant has a seeker");
        let seeker = c.orthant_seeker(&corner).unwrap();
        for v in 0..1u128 << bits {
            let got = boxed.seek(&Key::from_u128(v, bits)).unwrap();
            assert_eq!(got, Key::from_u128(seeker.seek_packed(v), bits));
        }
        // A rectangle short of the top corner in any dimension has none.
        for hi in [vec![2, 3, 3], vec![3, 3, 2], vec![1, 2, 0]] {
            let rect = Rect::new(vec![1, 2, 0], hi).unwrap();
            assert!(c.region_seeker(&rect).is_none(), "{rect}");
        }
        // Nor does a corner outside the universe.
        assert!(c
            .orthant_seeker(&Point::new(vec![4, 0, 0]).unwrap())
            .is_none());
        // Packed keys have no word seeker. Keys over 128 bits have only the
        // word seeker (the boxed seeker stays packed-only), and again none
        // for a corner outside the universe.
        assert!(c.orthant_word_seeker(&corner).is_none());
        let wide = Universe::new(3, 43).unwrap();
        let w = ZCurve::new(wide.clone());
        assert!(w.orthant_seeker(&top(&wide)).is_none());
        assert!(w.orthant_word_seeker(&top(&wide)).is_some());
        let rect = Rect::new(vec![0; 3], top(&wide).coords().to_vec()).unwrap();
        assert!(w.region_seeker(&rect).is_none());
        assert!(w
            .orthant_word_seeker(&Point::new(vec![1 << 43, 0, 0]).unwrap())
            .is_none());
    }

    /// xorshift64, for deterministic corners and keys.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A corner near the bottom, the middle or the top of each dimension by
    /// `round`, so orthants range from most of the universe to a sliver.
    fn corner(u: &Universe, round: usize, next: &mut impl FnMut() -> u64) -> Point {
        let coords = (0..u.dims())
            .map(|_| match round % 3 {
                0 => next() % u.side(),
                1 => next() % 4,
                _ => u.max_coord() - next() % 4,
            })
            .collect();
        Point::new(coords).unwrap()
    }

    /// The word seeker of any universe, including those whose keys the
    /// curve itself seeks packed.
    fn word_seeker<'a>(c: &ZCurve, masks: &'a [u64], corner: &Point) -> OrthantWordSeeker<'a> {
        let q = c.key_of_point(corner).unwrap();
        OrthantWordSeeker {
            masks,
            q: (0..q.word_count()).map(|i| q.word(i)).collect(),
        }
    }

    #[test]
    fn word_seek_equals_the_packed_seek_at_packed_widths() {
        // Key widths on both sides of the u64/u128 switch, up to 128 bits,
        // on spilled keys: the word form must land where the exhaustively
        // checked packed form does, including at k = q, k = top and k one
        // below q.
        let mut next = xorshift(0x1234_5678);
        for (d, k) in [(2usize, 6u32), (6, 10), (8, 8), (5, 13), (3, 32), (4, 32)] {
            let u = Universe::new(d, k).unwrap();
            let c = ZCurve::new(u.clone());
            let masks = word_masks(&u);
            let bits = u.key_bits();
            let top_key = c.key_of_point(&top(&u)).unwrap().to_u128().unwrap();
            for round in 0..40 {
                let corner = corner(&u, round, &mut next);
                let packed = c.orthant_seeker(&corner).unwrap();
                let words = word_seeker(&c, &masks, &corner);
                let q = packed.corner();
                let mut keys = vec![q, top_key, q.saturating_sub(1), 0];
                keys.extend(
                    (0..6).map(|_| (u128::from(next()) << 64 | u128::from(next())) & top_key),
                );
                for v in keys {
                    let key = Key::from_u128(v, bits).with_spilled_repr();
                    let got = words.seek_key(&key);
                    assert_eq!(
                        got,
                        Key::from_u128(packed.seek_packed(v), bits),
                        "d={d} k={k} corner {corner} key {v}"
                    );
                }
            }
        }
    }

    /// The smallest key at or after `key` whose cell dominates `corner`,
    /// found one bit at a time: the answer is `key` itself, or else `key`'s
    /// bits above its lowest 0 bit `j` that leaves room for the orthant, a
    /// 1 at `j`, and below `j` each bit 0 unless that leaves no room. A
    /// prefix leaves room iff setting every bit below it to 1 lands in the
    /// orthant, since that maximises every coordinate at once.
    fn descend(c: &ZCurve, corner: &Point, key: &Key) -> Key {
        let fits = |k: &Key, free: u32| {
            c.point_of_key(&k.with_low_bits_set(free))
                .unwrap()
                .dominates(corner)
        };
        if fits(key, 0) {
            return key.clone();
        }
        let j = (0..key.bits())
            .find(|&j| {
                !key.bit(j) && {
                    let mut k = key.with_low_bits_cleared(j);
                    k.set_bit(j, true);
                    fits(&k, j)
                }
            })
            .expect("the top corner follows every key");
        let mut out = key.with_low_bits_cleared(j);
        out.set_bit(j, true);
        for b in (0..j).rev() {
            if !fits(&out, b) {
                out.set_bit(b, true);
            }
        }
        out
    }

    #[test]
    fn orthant_seeks_match_a_bitwise_descent() {
        // 96 bits (packed in a u128, where the word form must agree too),
        // 140 bits (7 attributes × 10 bits, the daemon's `--attributes 7`),
        // 160 bits (4 × 20) and 256 bits (8 × 16).
        let mut next = xorshift(0x9e37_79b9);
        for (d, k) in [(4usize, 24u32), (14, 10), (8, 20), (16, 16)] {
            let u = Universe::new(d, k).unwrap();
            let c = ZCurve::new(u.clone());
            let masks = word_masks(&u);
            let bits = u.key_bits();
            let n = (bits as usize).div_ceil(64);
            let top_key = c.key_of_point(&top(&u)).unwrap();
            for round in 0..30 {
                let corner = corner(&u, round, &mut next);
                let packed = c.orthant_seeker(&corner);
                let seeker = c
                    .orthant_word_seeker(&corner)
                    .unwrap_or_else(|| word_seeker(&c, &masks, &corner));
                assert_eq!(packed.is_some(), bits <= 128);
                let q = c.key_of_point(&corner).unwrap();
                let mut keys = vec![q.clone(), top_key.clone(), Key::zero(bits)];
                keys.extend(q.predecessor());
                keys.extend((0..4).map(|_| {
                    let mut words: Vec<u64> = (0..n).map(|_| next()).collect();
                    words[0] &= u64::MAX >> (64 * n as u32 - bits);
                    Key::from_words(bits, words)
                }));
                for key in keys {
                    let want = descend(&c, &corner, &key);
                    let got = seeker.seek_key(&key);
                    assert_eq!(got, want, "d={d} k={k} corner {corner} key {key}");
                    if let Some(packed) = packed {
                        let got = packed.seek_packed(key.to_u128().unwrap());
                        assert_eq!(Key::from_u128(got, bits), want);
                    }
                    assert!(c.point_of_key(&want).unwrap().dominates(&corner));
                }
            }
        }
    }

    #[test]
    fn locality_of_first_dimension_is_most_significant() {
        // Points that differ in the most significant bit of dimension 0 are
        // far apart in key space.
        let c = curve(2, 4);
        let a = c
            .key_of_point(&Point::new(vec![0, 0]).unwrap())
            .unwrap()
            .to_u128()
            .unwrap();
        let b = c
            .key_of_point(&Point::new(vec![8, 0]).unwrap())
            .unwrap()
            .to_u128()
            .unwrap();
        assert_eq!(b - a, 128);
    }
}
