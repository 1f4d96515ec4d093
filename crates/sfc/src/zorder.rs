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

use crate::cube::StandardCube;
use crate::curve::{CurveKind, RegionSeeker, SpaceFillingCurve};
use crate::key::{Key, KeyRange};
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

/// Per-dimension key-bit masks in the narrowest word that holds a key.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DimMasks {
    Narrow(Box<[u64]>),
    Wide(Box<[u128]>),
    /// Keys over 128 bits have no packed form.
    Unpacked,
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
        // Dimension `d−1` owns key bits 0, d, 2d, …; dimension `dim` owns the
        // same bits shifted up by `d−1−dim`.
        let d = universe.dims() as u32;
        let masks = || {
            let last = (0..universe.bits_per_dim()).fold(0u128, |m, b| m | 1 << (b * d));
            (0..d).rev().map(move |shift| last << shift)
        };
        let masks = match universe.key_bits() {
            0..=64 => DimMasks::Narrow(masks().map(|m| m as u64).collect()),
            65..=128 => DimMasks::Wide(masks().collect()),
            _ => DimMasks::Unpacked,
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

    /// On the Z curve the along-curve order of a cube's children is the
    /// numeric order of their offset masks with dimension 0 most significant,
    /// so the children can be produced directly: the `p`-th child in key
    /// order shifts dimension `j` by half the side iff bit `d−1−j` of `p` is
    /// set, and its key range is the `p`-th equal slice of the parent's
    /// range. One corner encoding replaces the `2^d` encodings (plus a sort)
    /// of the generic implementation.
    fn children_in_key_order(&self, cube: &StandardCube) -> Vec<(StandardCube, KeyRange)> {
        assert!(
            cube.side_exp() > 0,
            "children_in_key_order called on a single-cell cube"
        );
        let d = self.universe.dims();
        let parent = self
            .cube_key_range(cube)
            .expect("cube belongs to the curve's universe");
        let child_exp = cube.side_exp() - 1;
        let child_low_bits = child_exp * d as u32;
        let half = 1u64 << child_exp;
        let mut out = Vec::with_capacity(1 << d);
        for p in 0u64..(1u64 << d) {
            let mut lo = parent.lo().clone();
            let mut corner = cube.corner().to_vec();
            for (dim, c) in corner.iter_mut().enumerate() {
                if (p >> (d - 1 - dim)) & 1 == 1 {
                    *c += half;
                    lo.set_bit(child_low_bits + (d - 1 - dim) as u32, true);
                }
            }
            let hi = lo.with_low_bits_set(child_low_bits);
            let child = StandardCube::new(&self.universe, corner, child_exp)
                .expect("child of an in-universe cube is in the universe");
            let range = KeyRange::new(lo, hi).expect("child range is non-empty");
            out.push((child, range));
        }
        out
    }

    /// The closed-form orthant seeker, built from the curve's masks and the
    /// corner's key alone.
    fn orthant_seeker(&self, corner: &Point) -> Option<OrthantSeeker<'_>> {
        self.universe.validate_point(corner).ok()?;
        let q = Self::interleave_u128(&self.universe, corner.coords());
        match &self.masks {
            DimMasks::Narrow(masks) => Some(OrthantSeeker::Narrow(masks, q as u64)),
            DimMasks::Wide(masks) => Some(OrthantSeeker::Wide(masks, q)),
            DimMasks::Unpacked => None,
        }
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
    // acd-lint: hot
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
// acd-lint: hot
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

    #[test]
    fn children_in_key_order_matches_the_generic_construction() {
        // The direct Morton construction must agree with the generic
        // encode-and-sort path for cubes of every size and position.
        for (d, k) in [(2usize, 4u32), (3, 3), (4, 2)] {
            let u = Universe::new(d, k).unwrap();
            let c = ZCurve::new(u.clone());
            let mut state = 0x5eedu64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for exp in 1..=k {
                for _ in 0..8 {
                    let side = 1u64 << exp;
                    let corner: Vec<u64> = (0..d)
                        .map(|_| (next() % (1u64 << (k - exp))) * side)
                        .collect();
                    let cube = StandardCube::new(&u, corner, exp).unwrap();
                    let fast = c.children_in_key_order(&cube);
                    let mut generic: Vec<(StandardCube, KeyRange)> = cube
                        .children()
                        .unwrap()
                        .into_iter()
                        .map(|child| {
                            let range = c.cube_key_range(&child).unwrap();
                            (child, range)
                        })
                        .collect();
                    generic.sort_by(|a, b| a.1.lo().cmp(b.1.lo()));
                    assert_eq!(fast, generic, "d={d} k={k} cube {cube}");
                }
            }
        }
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
        // Nor does a corner outside the universe, or a key over 128 bits.
        assert!(c
            .orthant_seeker(&Point::new(vec![4, 0, 0]).unwrap())
            .is_none());
        let wide = Universe::new(3, 43).unwrap();
        assert!(ZCurve::new(wide.clone())
            .orthant_seeker(&top(&wide))
            .is_none());
    }

    #[test]
    fn orthant_seek_agrees_with_the_cube_stream_at_wide_keys() {
        // Key widths on both sides of the u64/u128 switch, up to 128 bits:
        // the closed form must land where the generic decomposition stream
        // does, including at k = q, k = top and k one below q.
        use crate::decompose::CubeStream;
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (d, k) in [(6usize, 10u32), (8, 8), (5, 13), (3, 32), (4, 32)] {
            let u = Universe::new(d, k).unwrap();
            let c = ZCurve::new(u.clone());
            let bits = u.key_bits();
            let top_key = c.key_of_point(&top(&u)).unwrap().to_u128().unwrap();
            for round in 0..40 {
                // Corners near the bottom, the middle and the top of each
                // dimension, so orthants range from most of the universe to
                // a sliver.
                let coords: Vec<u64> = (0..d)
                    .map(|_| match round % 3 {
                        0 => next() % u.side(),
                        1 => next() % 4,
                        _ => u.max_coord() - next() % 4,
                    })
                    .collect();
                let corner = Point::new(coords).unwrap();
                let seeker = c.orthant_seeker(&corner).unwrap();
                let rect = Rect::new(corner.coords().to_vec(), top(&u).coords().to_vec()).unwrap();
                let q = seeker.corner();
                let mut keys = vec![q, top_key, q.saturating_sub(1), 0];
                keys.extend(
                    (0..6).map(|_| (u128::from(next()) << 64 | u128::from(next())) & top_key),
                );
                for v in keys {
                    let got = seeker.seek_packed(v);
                    let key = Key::from_u128(v, bits);
                    let mut stream = CubeStream::new(&c, &rect).unwrap();
                    stream.seek(&key);
                    let (_, range) = stream
                        .next_cube()
                        .expect("the top corner follows every key");
                    let expected = range.lo().max(&key).to_u128().unwrap();
                    assert_eq!(got, expected, "d={d} k={k} corner {corner} key {v}");
                    let cell = c.point_of_key(&Key::from_u128(got, bits)).unwrap();
                    assert!(cell.dominates(&corner));
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
