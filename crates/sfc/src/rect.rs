//! Axis-aligned rectangles and the extremal rectangles of point-dominance
//! queries.
//!
//! A [`Rect`] is an arbitrary axis-aligned box of cells (inclusive bounds on
//! every dimension). An [`ExtremalRect`] is the special rectangle that a
//! point-dominance query searches: one of its corners is pinned at the
//! universe's top corner `(2^k − 1, …, 2^k − 1)`, so it is fully described by
//! its vector of side lengths `ℓ = (ℓ_1, …, ℓ_d)` (Section 3.1 of the paper).

use std::fmt;

use crate::bits;
use crate::error::SfcError;
use crate::universe::{Point, Universe};
use crate::Result;

/// An axis-aligned rectangle of cells with inclusive bounds.
///
/// # Example
///
/// ```
/// use acd_sfc::Rect;
/// # fn main() -> Result<(), acd_sfc::SfcError> {
/// let r = Rect::new(vec![2, 4], vec![5, 7])?;
/// assert_eq!(r.side_length(0), 4);
/// assert_eq!(r.volume(), Some(16));
/// assert!(r.contains_coords(&[3, 6]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rect {
    lo: Vec<u64>,
    hi: Vec<u64>,
}

impl Rect {
    /// Creates the rectangle `[lo_1, hi_1] × … × [lo_d, hi_d]`.
    ///
    /// # Errors
    ///
    /// Returns [`SfcError::DimensionMismatch`] if the bound vectors have
    /// different lengths, [`SfcError::Empty`] if they are empty, and
    /// [`SfcError::EmptyRectangle`] if `lo > hi` along any dimension.
    pub fn new(lo: Vec<u64>, hi: Vec<u64>) -> Result<Self> {
        if lo.is_empty() {
            return Err(SfcError::Empty);
        }
        if lo.len() != hi.len() {
            return Err(SfcError::DimensionMismatch {
                expected: lo.len(),
                actual: hi.len(),
            });
        }
        for (dim, (&l, &h)) in lo.iter().zip(hi.iter()).enumerate() {
            if l > h {
                return Err(SfcError::EmptyRectangle { dim });
            }
        }
        Ok(Rect { lo, hi })
    }

    /// The rectangle consisting of the single cell `point`.
    pub fn from_point(point: &Point) -> Self {
        Rect {
            lo: point.coords().to_vec(),
            hi: point.coords().to_vec(),
        }
    }

    /// The rectangle covering the whole universe.
    pub fn full(universe: &Universe) -> Self {
        Rect {
            lo: vec![0; universe.dims()],
            hi: vec![universe.max_coord(); universe.dims()],
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Inclusive lower bounds.
    pub fn lo(&self) -> &[u64] {
        &self.lo
    }

    /// Inclusive upper bounds.
    pub fn hi(&self) -> &[u64] {
        &self.hi
    }

    /// Side length (number of cells) along dimension `dim`.
    pub fn side_length(&self, dim: usize) -> u64 {
        self.hi[dim] - self.lo[dim] + 1
    }

    /// All side lengths as a vector.
    pub fn side_lengths(&self) -> Vec<u64> {
        (0..self.dims()).map(|d| self.side_length(d)).collect()
    }

    /// Number of cells in the rectangle, if it fits in a `u128`.
    pub fn volume(&self) -> Option<u128> {
        let mut v: u128 = 1;
        for d in 0..self.dims() {
            v = v.checked_mul(self.side_length(d) as u128)?;
        }
        Some(v)
    }

    /// Natural logarithm of the number of cells. Never overflows.
    pub fn ln_volume(&self) -> f64 {
        (0..self.dims())
            .map(|d| (self.side_length(d) as f64).ln())
            .sum()
    }

    /// Whether the rectangle contains the cell with the given coordinates.
    pub fn contains_coords(&self, coords: &[u64]) -> bool {
        coords.len() == self.dims()
            && coords
                .iter()
                .enumerate()
                .all(|(d, &c)| c >= self.lo[d] && c <= self.hi[d])
    }

    /// Whether the rectangle contains `point`.
    pub fn contains_point(&self, point: &Point) -> bool {
        self.contains_coords(point.coords())
    }

    /// Whether the rectangle fully contains `other`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.dims() == self.dims()
            && (0..self.dims()).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Intersection with another rectangle, or `None` if they are disjoint.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        if other.dims() != self.dims() {
            return None;
        }
        let mut lo = Vec::with_capacity(self.dims());
        let mut hi = Vec::with_capacity(self.dims());
        for d in 0..self.dims() {
            let l = self.lo[d].max(other.lo[d]);
            let h = self.hi[d].min(other.hi[d]);
            if l > h {
                return None;
            }
            lo.push(l);
            hi.push(h);
        }
        Some(Rect { lo, hi })
    }

    /// Whether the two rectangles share at least one cell.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.intersect(other).is_some()
    }

    /// The aspect ratio `α = b(ℓ_max) − b(ℓ_min)` of the rectangle, in bits.
    pub fn aspect_ratio(&self) -> u32 {
        bits::aspect_ratio(&self.side_lengths())
    }

    /// Validates that the rectangle lies inside `universe`.
    ///
    /// # Errors
    ///
    /// Returns [`SfcError::DimensionMismatch`] or
    /// [`SfcError::CoordinateOutOfRange`].
    pub fn validate_in(&self, universe: &Universe) -> Result<()> {
        if self.dims() != universe.dims() {
            return Err(SfcError::DimensionMismatch {
                expected: universe.dims(),
                actual: self.dims(),
            });
        }
        for (dim, &h) in self.hi.iter().enumerate() {
            if !universe.contains_coord(h) {
                return Err(SfcError::CoordinateOutOfRange {
                    dim,
                    value: h,
                    bound: universe.side(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in 0..self.dims() {
            if d > 0 {
                write!(f, " x ")?;
            }
            write!(f, "[{}, {}]", self.lo[d], self.hi[d])?;
        }
        Ok(())
    }
}

/// An *extremal* rectangle: an axis-aligned rectangle with one vertex pinned
/// at the universe's top corner `(2^k − 1, …, 2^k − 1)`.
///
/// A point-dominance query for the point `x` searches the extremal rectangle
/// with side lengths `ℓ_i = 2^k − x_i`; the rectangle is fully described by
/// its length vector `ℓ` (Section 3.1). The truncation operator
/// [`truncate`](ExtremalRect::truncate) produces the paper's `R^m(ℓ)` and
/// [`keep_bits_from`](ExtremalRect::keep_bits_from) produces `R(S_i(ℓ))`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExtremalRect {
    universe: Universe,
    lengths: Vec<u64>,
}

impl ExtremalRect {
    /// Creates the extremal rectangle with the given side lengths.
    ///
    /// # Errors
    ///
    /// Returns [`SfcError::DimensionMismatch`] if the length vector does not
    /// match the universe, and [`SfcError::InvalidSideLength`] if any length
    /// is zero or exceeds `2^k`.
    pub fn new(universe: Universe, lengths: Vec<u64>) -> Result<Self> {
        if lengths.len() != universe.dims() {
            return Err(SfcError::DimensionMismatch {
                expected: universe.dims(),
                actual: lengths.len(),
            });
        }
        for (dim, &l) in lengths.iter().enumerate() {
            if l == 0 || l > universe.side() {
                return Err(SfcError::InvalidSideLength {
                    dim,
                    length: l,
                    bound: universe.side(),
                });
            }
        }
        Ok(ExtremalRect { universe, lengths })
    }

    /// The extremal rectangle of the dominance query anchored at `query`:
    /// the region `[x_1, 2^k − 1] × … × [x_d, 2^k − 1]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `query` does not belong to `universe`.
    pub fn dominance_region(universe: &Universe, query: &Point) -> Result<Self> {
        universe.validate_point(query)?;
        let lengths = query
            .coords()
            .iter()
            .map(|&x| universe.side() - x)
            .collect();
        ExtremalRect::new(universe.clone(), lengths)
    }

    /// The universe this rectangle lives in.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The side-length vector `ℓ`.
    pub fn lengths(&self) -> &[u64] {
        &self.lengths
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lengths.len()
    }

    /// Converts to an ordinary [`Rect`] with explicit bounds.
    pub fn to_rect(&self) -> Rect {
        let side = self.universe.side();
        let lo: Vec<u64> = self.lengths.iter().map(|&l| side - l).collect();
        let hi = vec![self.universe.max_coord(); self.dims()];
        Rect { lo, hi }
    }

    /// Number of cells, if it fits in a `u128`.
    pub fn volume(&self) -> Option<u128> {
        let mut v: u128 = 1;
        for &l in &self.lengths {
            v = v.checked_mul(l as u128)?;
        }
        Some(v)
    }

    /// Natural logarithm of the number of cells.
    pub fn ln_volume(&self) -> f64 {
        self.lengths.iter().map(|&l| (l as f64).ln()).sum()
    }

    /// The aspect ratio `α = b(ℓ_max) − b(ℓ_min)` in bits.
    pub fn aspect_ratio(&self) -> u32 {
        bits::aspect_ratio(&self.lengths)
    }

    /// The paper's `R^m(ℓ) = R(t(ℓ, m))`: the extremal rectangle whose side
    /// lengths keep only their `m` most significant bits.
    ///
    /// By Lemma 3.2, choosing `m ≥ log2(2d/ε)` guarantees
    /// `vol(R^m(ℓ)) ≥ (1 − ε)·vol(R(ℓ))`.
    pub fn truncate(&self, m: u32) -> ExtremalRect {
        ExtremalRect {
            universe: self.universe.clone(),
            lengths: bits::truncate_to_msb_vec(&self.lengths, m.max(1)),
        }
    }

    /// The paper's `R(S_i(ℓ))`: the extremal rectangle whose side lengths
    /// keep only bits at positions `≥ i`. Returns `None` if any side length
    /// becomes zero (i.e. the rectangle would be empty).
    pub fn keep_bits_from(&self, i: u32) -> Option<ExtremalRect> {
        let lengths = bits::keep_bits_from_vec(&self.lengths, i);
        if lengths.contains(&0) {
            return None;
        }
        Some(ExtremalRect {
            universe: self.universe.clone(),
            lengths,
        })
    }

    /// The fraction `vol(other) / vol(self)` computed in log-space, so it is
    /// robust for very high-volume rectangles.
    pub fn volume_fraction_of(&self, other: &ExtremalRect) -> f64 {
        (other.ln_volume() - self.ln_volume()).exp()
    }

    /// The truncation parameter `m` needed for a `1 − ε` volume guarantee
    /// (Lemma 3.2), i.e. `ceil(log2(2d/ε))`.
    ///
    /// # Errors
    ///
    /// Returns [`SfcError::InvalidEpsilon`] if `epsilon` is not in `(0, 1)`.
    pub fn truncation_bits(&self, epsilon: f64) -> Result<u32> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(SfcError::InvalidEpsilon { epsilon });
        }
        Ok(bits::truncation_bits_for_epsilon(self.dims(), epsilon))
    }
}

impl fmt::Display for ExtremalRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R(")?;
        for (i, l) in self.lengths.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(d: usize, k: u32) -> Universe {
        Universe::new(d, k).unwrap()
    }

    #[test]
    fn rect_construction_and_accessors() {
        let r = Rect::new(vec![1, 2, 3], vec![4, 2, 9]).unwrap();
        assert_eq!(r.dims(), 3);
        assert_eq!(r.side_lengths(), vec![4, 1, 7]);
        assert_eq!(r.volume(), Some(28));
        assert!((r.ln_volume() - (28f64).ln()).abs() < 1e-9);
        assert_eq!(r.to_string(), "[1, 4] x [2, 2] x [3, 9]");
    }

    #[test]
    fn rect_rejects_invalid_bounds() {
        assert!(Rect::new(vec![], vec![]).is_err());
        assert!(Rect::new(vec![1], vec![1, 2]).is_err());
        assert!(matches!(
            Rect::new(vec![5, 1], vec![4, 2]),
            Err(SfcError::EmptyRectangle { dim: 0 })
        ));
    }

    #[test]
    fn rect_containment_and_intersection() {
        let a = Rect::new(vec![0, 0], vec![7, 7]).unwrap();
        let b = Rect::new(vec![2, 3], vec![5, 6]).unwrap();
        let c = Rect::new(vec![6, 6], vec![9, 9]).unwrap();
        assert!(a.contains_rect(&b));
        assert!(!b.contains_rect(&a));
        assert!(a.contains_coords(&[7, 0]));
        assert!(!a.contains_coords(&[8, 0]));
        let i = a.intersect(&c).unwrap();
        assert_eq!(i, Rect::new(vec![6, 6], vec![7, 7]).unwrap());
        assert!(b.intersect(&c).is_none());
        assert!(!b.overlaps(&c));
    }

    #[test]
    fn rect_validate_in_universe() {
        let u = universe(2, 3);
        let ok = Rect::new(vec![0, 0], vec![7, 7]).unwrap();
        let bad = Rect::new(vec![0, 0], vec![8, 7]).unwrap();
        assert!(ok.validate_in(&u).is_ok());
        assert!(bad.validate_in(&u).is_err());
        let wrong_d = Rect::new(vec![0], vec![1]).unwrap();
        assert!(wrong_d.validate_in(&u).is_err());
    }

    #[test]
    fn full_rect_covers_universe() {
        let u = universe(3, 4);
        let r = Rect::full(&u);
        assert_eq!(r.volume(), u.volume());
        assert!(r.contains_point(&u.top_corner()));
        assert!(r.contains_point(&u.origin()));
    }

    #[test]
    fn extremal_rect_basics() {
        let u = universe(2, 8);
        let e = ExtremalRect::new(u.clone(), vec![256, 3]).unwrap();
        assert_eq!(e.volume(), Some(768));
        assert_eq!(
            e.to_rect(),
            Rect::new(vec![0, 253], vec![255, 255]).unwrap()
        );
        assert_eq!(e.aspect_ratio(), 9 - 2);
        assert_eq!(e.to_string(), "R(256, 3)");
    }

    #[test]
    fn extremal_rect_rejects_bad_lengths() {
        let u = universe(2, 4);
        assert!(ExtremalRect::new(u.clone(), vec![0, 1]).is_err());
        assert!(ExtremalRect::new(u.clone(), vec![17, 1]).is_err());
        assert!(ExtremalRect::new(u.clone(), vec![16]).is_err());
        assert!(ExtremalRect::new(u, vec![16, 16]).is_ok());
    }

    #[test]
    fn dominance_region_from_query_point() {
        let u = universe(3, 4);
        let q = Point::new(vec![0, 10, 15]).unwrap();
        let e = ExtremalRect::dominance_region(&u, &q).unwrap();
        assert_eq!(e.lengths(), &[16, 6, 1]);
        let r = e.to_rect();
        assert!(r.contains_point(&q));
        assert!(r.contains_point(&u.top_corner()));
        assert!(!r.contains_coords(&[0, 9, 15]));
    }

    #[test]
    fn truncation_preserves_volume_guarantee() {
        let u = universe(4, 10);
        let e = ExtremalRect::new(u, vec![1023, 513, 700, 999]).unwrap();
        for &eps in &[0.3, 0.1, 0.05, 0.01] {
            let m = e.truncation_bits(eps).unwrap();
            let t = e.truncate(m);
            let frac = e.volume_fraction_of(&t);
            assert!(frac >= 1.0 - eps - 1e-12, "eps={eps} m={m} frac={frac}");
            assert!(frac <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn truncate_is_contained_in_original() {
        let u = universe(3, 8);
        let e = ExtremalRect::new(u, vec![255, 100, 37]).unwrap();
        let t = e.truncate(2);
        assert!(e.to_rect().contains_rect(&t.to_rect()));
        // Truncating with m >= bit length is the identity.
        assert_eq!(e.truncate(8), e);
    }

    #[test]
    fn keep_bits_from_matches_paper_s_i() {
        let u = universe(2, 8);
        let e = ExtremalRect::new(u, vec![0b1011_0110, 0b0110_1011]).unwrap();
        let s4 = e.keep_bits_from(4).unwrap();
        assert_eq!(s4.lengths(), &[0b1011_0000, 0b0110_0000]);
        // High enough i empties the rectangle.
        assert!(e.keep_bits_from(8).is_none());
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let u = universe(2, 4);
        let e = ExtremalRect::new(u, vec![3, 3]).unwrap();
        assert!(matches!(
            e.truncation_bits(0.0),
            Err(SfcError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            e.truncation_bits(1.0),
            Err(SfcError::InvalidEpsilon { .. })
        ));
    }
}
